"""The module Sym^d of the m-th wedge power of the defining representation.

Basis encoding: a wedge factor is an m-subset of {1..m+n} as a strictly
increasing tuple, and `wedge_basis(m, n)` lists them in lex order.  A
symmetric basis index, a multiset of d wedges, is its exponent vector over
`wedge_basis(m, n)`; `sym_basis` lists the indices in reverse
`polynomials.degree_monomials` order (the lex order of the multisets as
sorted d-tuples of wedges), and `indexed_basis` adds each one's column.  The
length C(m+n, m) leaves m open (C(s, m) = C(s, s - m)), so `act` and
`weight_of` take it.  A module element is a sparse map from symmetric
basis indices to nonzero rationals, each an `int` when it is integral and a
`Fraction` only when it is not (`linalg.canonical`).  Sums, scalar
multiples and `act` keep that form, so the highest weight vector and
everything the integral basis elements E_ij, H_k make of it stay in
integer arithmetic, and `coordinates` hands `Echelon.add` all-`int` rows.

A Lie algebra element acts as a derivation across the d symmetric factors
and, inside each factor, as a derivation across the m wedge slots; a
substituted wedge slot is re-sorted and the sign of the sorting permutation
is applied (a repeated index kills the term).  The e copies of a wedge give
one term, so `act` moves one copy and scales by e.  No pairing with sections
is defined: `jets.level_duality` reads it off the supports.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Mapping

from .errors import SizeCapError
from .lie import LieElement, Weight
from .linalg import canonical, canonical_values
from .polynomials import degree_monomials

Wedge = tuple[int, ...]
SymIndex = tuple[int, ...]  # exponent vector over wedge_basis(m, n)

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


@lru_cache(maxsize=None)
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
def _indexed_basis(m: int, n: int, d: int) -> tuple[tuple[SymIndex, ...], dict[SymIndex, int]]:
    basis = tuple(degree_monomials(d, comb(m + n, m)))[::-1]
    return basis, {idx: k for k, idx in enumerate(basis)}


def indexed_basis(m: int, n: int, d: int, cap: int = DEFAULT_AMBIENT_CAP
                  ) -> tuple[tuple[SymIndex, ...], dict[SymIndex, int]]:
    """The canonical ordered basis of the ambient module and the column of
    each index in it; shared, not to be mutated."""
    module_dim(m, n, d, cap)
    return _indexed_basis(m, n, d)


def sym_basis(m: int, n: int, d: int, cap: int = DEFAULT_AMBIENT_CAP) -> tuple[SymIndex, ...]:
    """The canonical ordered basis of the ambient module."""
    return indexed_basis(m, n, d, cap)[0]


def highest_weight_vector(m: int, n: int, d: int) -> PlethysmVector:
    """(e_1 ^ ... ^ e_m)^d with coefficient 1."""
    return PlethysmVector({(d,) + (0,) * (comb(m + n, m) - 1): 1})


@lru_cache(maxsize=None)
def _moves(m: int, size: int) -> tuple[dict[tuple[int, int], tuple[int, int]], ...]:
    """Per wedge k of `wedge_basis(m, size - m)`, {(i, j): (k', sign)}: E_ij
    sends wedge k to sign * wedge k' (no entry when i is another index of it)."""
    wedges = wedge_basis(m, size - m)
    position = {wedge: k for k, wedge in enumerate(wedges)}
    return tuple({(i, j): (position[tuple(sorted(set(wedge) - {j} | {i}))],
                           (-1) ** sum(min(i, j) < v < max(i, j) for v in wedge))
                  for j in wedge for i in range(1, size + 1) if i == j or i not in wedge}
                 for wedge in wedges)


def act(x: LieElement, w: PlethysmVector, m: int) -> PlethysmVector:
    """Derivation action of a Lie algebra element on a vector of Sym^d(Λ^m V)."""
    moves = _moves(m, x.size)
    acc: dict[SymIndex, int | Fraction] = {}
    for idx, coeff in w.coeffs.items():
        for k, e in enumerate(idx):
            if e:
                for key, c in x.entries.items():
                    move = moves[k].get(key)
                    if move is not None:
                        counts = list(idx)
                        counts[k] -= 1
                        counts[move[0]] += 1
                        new_idx = tuple(counts)
                        acc[new_idx] = acc.get(new_idx, 0) + coeff * c * move[1] * e
    out = PlethysmVector()
    out.coeffs = canonical_values({idx: v for idx, v in acc.items() if v})
    return out


def weight_of(idx: SymIndex, m: int, n: int) -> Weight:
    """Coordinate k counts the occurrences of index k across all wedge factors."""
    counts = [0] * (m + n)
    for wedge, e in zip(wedge_basis(m, n), idx):
        for value in wedge:
            counts[value - 1] += e
    return Weight(counts)


def coordinates(w: PlethysmVector, index_of: Mapping[SymIndex, int]) -> dict[int, int | Fraction]:
    """Sparse coordinate row of a vector against an indexed basis."""
    return {index_of[idx]: v for idx, v in w.coeffs.items()}
