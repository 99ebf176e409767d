"""The module Sym^d of the m-th wedge power of the defining representation.

Basis encoding: a wedge factor is a strictly increasing tuple of 1-based
indices (an m-subset of {1..m+n}); a symmetric basis index is a sorted
tuple of d wedge factors.  A module element is a sparse map from symmetric
basis indices to nonzero rationals, each an `int` when it is integral and a
`Fraction` only when it is not (`linalg.canonical`).  Sums, scalar
multiples and `act` keep that form, so the highest weight vector and
everything the integral basis elements E_ij, H_k make of it stay in
integer arithmetic, and `coordinates` hands `Echelon.add` all-`int` rows.

A Lie algebra element acts as a derivation across the d symmetric factors
and, inside each factor, as a derivation across the m wedge slots; a
substituted wedge slot is re-sorted and the sign of the sorting permutation
is applied (a repeated index kills the term).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial
from typing import Mapping, Sequence

from .errors import SizeCapError
from .lie import LieElement, Weight
from .linalg import canonical, canonical_values, primitive_integers

Wedge = tuple[int, ...]
SymIndex = tuple[Wedge, ...]

DEFAULT_AMBIENT_CAP = 20000


class PlethysmVector:
    """Sparse vector over the symmetric basis indices."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[SymIndex, int | Fraction] | None = None):
        clean: dict[SymIndex, int | Fraction] = {}
        if coeffs:
            for idx, value in coeffs.items():
                v = canonical(value)
                if v:
                    clean[idx] = v
        self.coeffs = clean

    def __add__(self, other: "PlethysmVector") -> "PlethysmVector":
        coeffs = dict(self.coeffs)
        for idx, v in other.coeffs.items():
            new = coeffs.get(idx, 0) + v
            if new:
                coeffs[idx] = new
            else:
                coeffs.pop(idx, None)
        out = PlethysmVector()
        out.coeffs = canonical_values(coeffs)
        return out

    def __sub__(self, other: "PlethysmVector") -> "PlethysmVector":
        return self + (-1) * other

    def __rmul__(self, scalar: int | Fraction) -> "PlethysmVector":
        c = canonical(scalar)
        out = PlethysmVector()
        if c:
            out.coeffs = canonical_values({idx: c * v for idx, v in self.coeffs.items()})
        return out

    def __neg__(self) -> "PlethysmVector":
        return (-1) * self

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlethysmVector):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "PlethysmVector(0)"
        body = " + ".join(f"{v}*{idx}" for idx, v in sorted(self.coeffs.items()))
        return f"PlethysmVector({body})"


def wedge_basis(m: int, n: int) -> tuple[Wedge, ...]:
    """All m-subsets of {1..m+n}, ascending, in lexicographic order."""
    return tuple(combinations(range(1, m + n + 1), m))


def module_dim(m: int, n: int, d: int, cap: int = DEFAULT_AMBIENT_CAP) -> int:
    """Number of symmetric basis indices; errors out above the ambient cap."""
    if m < 1 or n < 1 or d < 1:
        raise ValueError("m, n and d must all be at least 1")
    count = comb(comb(m + n, m) + d - 1, d)
    if count > cap:
        raise SizeCapError("ambient module dimension", count, cap)
    return count


@lru_cache(maxsize=None)
def _sym_basis_cached(m: int, n: int, d: int) -> tuple[SymIndex, ...]:
    return tuple(combinations_with_replacement(wedge_basis(m, n), d))


def sym_basis(m: int, n: int, d: int, cap: int = DEFAULT_AMBIENT_CAP) -> tuple[SymIndex, ...]:
    """The canonical ordered basis of the ambient module."""
    module_dim(m, n, d, cap)
    return _sym_basis_cached(m, n, d)


def highest_weight_vector(m: int, n: int, d: int) -> PlethysmVector:
    """(e_1 ^ ... ^ e_m)^d with coefficient 1."""
    wedge = tuple(range(1, m + 1))
    return PlethysmVector({(wedge,) * d: 1})


def _replace_slot(wedge: Wedge, slot: int, new_index: int) -> tuple[Wedge | None, int]:
    old = wedge[slot]
    if new_index == old:
        return wedge, 1
    rest = wedge[:slot] + wedge[slot + 1:]
    pos = bisect_left(rest, new_index)
    if pos < len(rest) and rest[pos] == new_index:
        return None, 0
    sign = -1 if (slot - pos) % 2 else 1
    return rest[:pos] + (new_index,) + rest[pos:], sign


def act(x: LieElement, w: PlethysmVector) -> PlethysmVector:
    """Derivation action of a Lie algebra element on a module vector."""
    columns: dict[int, list[tuple[int, int | Fraction]]] = {}
    for (i, j), c in x.entries.items():
        columns.setdefault(j, []).append((i, c))
    acc: dict[SymIndex, int | Fraction] = {}
    for idx, coeff in w.coeffs.items():
        for k, wedge in enumerate(idx):
            for slot, value in enumerate(wedge):
                for new_index, c in columns.get(value, ()):
                    new_wedge, sign = _replace_slot(wedge, slot, new_index)
                    if new_wedge is None:
                        continue
                    new_idx = tuple(sorted(idx[:k] + (new_wedge,) + idx[k + 1:]))
                    contrib = coeff * c * sign
                    total = acc.get(new_idx, 0) + contrib
                    if total:
                        acc[new_idx] = total
                    else:
                        acc.pop(new_idx, None)
    out = PlethysmVector()
    out.coeffs = canonical_values(acc)
    return out


def weight_of(idx: SymIndex, size: int) -> Weight:
    """Coordinate k counts the occurrences of index k across all wedge factors."""
    counts = [0] * size
    for wedge in idx:
        for value in wedge:
            counts[value - 1] += 1
    return Weight(counts)


def _matching_count(idx: SymIndex) -> int:
    # Number of bijections matching the multiset with itself: product of
    # factorials of the multiplicities.
    total = 1
    i = 0
    while i < len(idx):
        j = i
        while j < len(idx) and idx[j] == idx[i]:
            j += 1
        total *= factorial(j - i)
        i = j
    return total


def pair(functional: PlethysmVector, section) -> int | Fraction:
    """Canonical pairing of a module vector with a section.

    The section may be anything carrying Plücker-monomial coordinates: a
    mapping from symmetric basis indices to rationals, or an object with a
    ``plucker`` attribute holding one.  Both sides must have the same
    symmetric degree.  The normalization is factorial-free, so only
    vanishing statements are meaningful.
    """
    coords = getattr(section, "plucker", section)
    if type(coords) is not dict and not isinstance(coords, Mapping):
        raise TypeError("section must provide Plücker-monomial coordinates")
    deg_left = {len(idx) for idx in functional.coeffs}
    deg_right = {len(idx) for idx in coords}
    if len(deg_left) > 1 or len(deg_right) > 1:
        raise ValueError("inhomogeneous degree on one side of the pairing")
    if deg_left and deg_right and deg_left != deg_right:
        raise ValueError("degree mismatch in pairing")
    total = 0
    small, large = (functional.coeffs, coords) if len(functional.coeffs) <= len(coords) \
        else (coords, functional.coeffs)
    for idx, c in small.items():
        other = large.get(idx)
        if other:
            total += c * other * _matching_count(idx)
    return total


def pairing_vanishes(functionals: Sequence[PlethysmVector], sections: Sequence) -> bool:
    """Whether every functional pairs to zero with every section, the
    sections given as for `pair`.

    One sparse integer product replaces the all-pairs `pair` loop: each
    section's Plücker coordinates are scaled to primitive integers once (one
    entry to [1]) and weighted by `_matching_count` once per index, and each
    functional, scaled to primitive integers on the indices some section
    carries, accumulates its pairings with every section into one dict.
    Scaling a functional or a section by a nonzero rational moves no zero,
    so the answer is exactly that of `pair`.  When every section has one
    entry each pairing is one product, which a weight >= 1 cannot zero.
    """
    columns: dict[SymIndex, list[tuple[int, int]]] = {}
    for j, section in enumerate(sections):
        coords = getattr(section, "plucker", section)
        values = list(coords.values())
        scaled = [1] if len(values) == 1 and values[0] else primitive_integers(values, 0)
        for idx, v in zip(coords, scaled):
            columns.setdefault(idx, []).append((j, v))
    if any(len(getattr(section, "plucker", section)) != 1 for section in sections):
        for idx, column in columns.items():
            weight = _matching_count(idx)
            if weight != 1:
                column[:] = [(j, v * weight) for j, v in column]
    for functional in functionals:
        keys = [idx for idx in functional.coeffs if idx in columns]
        acc: dict[int, int] = {}
        for idx, c in zip(keys, primitive_integers([functional.coeffs[k] for k in keys], 0)):
            for j, v in columns[idx]:
                acc[j] = acc.get(j, 0) + c * v
        if any(acc.values()):
            return False
    return True


def coordinates(w: PlethysmVector, index_of: Mapping[SymIndex, int]) -> dict[int, int | Fraction]:
    """Sparse coordinate row of a vector against an indexed basis."""
    out = {}
    for idx, v in w.coeffs.items():
        out[index_of[idx]] = v
    return out
