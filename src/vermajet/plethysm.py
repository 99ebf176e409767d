"""The module Sym^d of the m-th wedge power of the defining representation.

A wedge factor is an m-subset of {1..m+n} as a strictly increasing tuple;
`wedge_basis(m, n)` lists the N = C(m+n, m) of them in lex order.  A basis
index, a multiset of d wedges, is one int, its key: wedge k's count sits
in field N - 1 - k of `d.bit_length()` bits, so no count carries and key
order is the lex order of the exponent vectors.  Only `wedge_keys` (one
copy of each wedge) and `wedge_counts` (a key's nonzero fields) read the
layout; a key carries neither its width nor m, so they, `act` and
`filtration.weight_of` take both.  `sym_basis` lists the keys in
descending order, v = (e_1 ^ ... ^ e_m)^d first (the lex order of the
sorted d-tuples of wedges): the column key(v) - key.  A module element is
a sparse map from keys to nonzero rationals, each an `int` when integral
and a `Fraction` only when not (`linalg.canonical`); sums, scalar
multiples and `act` keep that form, so the integral basis elements E_ij,
H_k keep v's orbit in integer arithmetic and `Echelon.add` gets `int` rows.

A Lie algebra element acts as a derivation across the d symmetric factors
and, inside each factor, as a derivation across the m wedge slots; a
substituted wedge slot is re-sorted and the sign of the sorting permutation
is applied (a repeated index kills the term).  The e copies of a wedge give
one term, so `act` visits only a key's nonzero fields (at most d), moves
one copy by adding a precomputed key delta and scales by e.  No pairing
with sections is defined: `jets.level_duality` reads it off the supports.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul
from typing import TYPE_CHECKING, Iterator, Mapping

from .errors import SizeCapError
from .linalg import canonical, canonical_values
from .polynomials import degree_monomials

if TYPE_CHECKING:  # an annotation only: the package's eager `act` must not load `lie`
    from .lie import LieElement

DEFAULT_AMBIENT_CAP = 20000


class PlethysmVector:
    """Sparse vector over the symmetric basis keys."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int | Fraction] | None = None):
        self.coeffs = {key: v for key, value in (coeffs or {}).items() if (v := canonical(value))}

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
def wedge_basis(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All m-subsets of {1..m+n}, ascending, in lexicographic order."""
    return tuple(combinations(range(1, m + n + 1), m))


def wedge_keys(m: int, n: int, d: int) -> tuple[int, ...]:
    """The degree-d key of one copy of each wedge of `wedge_basis(m, n)`."""
    size, width = comb(m + n, m), d.bit_length()
    return tuple(1 << width * (size - 1 - k) for k in range(size))


def wedge_counts(key: int, m: int, n: int, d: int) -> Iterator[tuple[int, int]]:
    """(k, e) for each wedge k of `wedge_basis(m, n)` that a degree-d key
    holds e > 0 copies of, in wedge order: its nonzero fields only."""
    last, width = comb(m + n, m) - 1, d.bit_length()
    while key:
        f = (key.bit_length() - 1) // width  # the top nonzero field
        e = key >> f * width
        key -= e << f * width
        yield last - f, e


def module_dim(m: int, n: int, d: int, cap: int = DEFAULT_AMBIENT_CAP) -> int:
    """Number of symmetric basis indices; errors out above the ambient cap."""
    if m < 1 or n < 1 or d < 1:
        raise ValueError("m, n and d must all be at least 1")
    count = comb(comb(m + n, m) + d - 1, d)
    if count > cap:
        raise SizeCapError("ambient module dimension", count, cap)
    return count


def sym_basis(m: int, n: int, d: int, cap: int = DEFAULT_AMBIENT_CAP) -> tuple[int, ...]:
    """The keys of the ambient module in column order: descending, v first."""
    module_dim(m, n, d, cap)
    units = wedge_keys(m, n, d)
    return tuple(sum(map(mul, exps, units)) for exps in degree_monomials(d, len(units)))[::-1]


def highest_weight_vector(m: int, n: int, d: int) -> PlethysmVector:
    """(e_1 ^ ... ^ e_m)^d with coefficient 1."""
    return PlethysmVector({d * wedge_keys(m, n, d)[0]: 1})


@lru_cache(maxsize=None)
def _moves(m: int, size: int, d: int) -> dict[tuple[int, int], tuple]:
    """Per (i, j), per wedge of `wedge_basis(m, size - m)`: (delta, sign) when
    E_ij sends it to sign * the wedge whose degree-d key is its own plus
    delta, None when it lacks j or holds i != j."""
    wedges = wedge_basis(m, size - m)
    key = dict(zip(wedges, wedge_keys(m, size - m, d)))
    return {(i, j): tuple((key[tuple(sorted(set(w) - {j} | {i}))] - key[w],
                           (-1) ** sum(min(i, j) < v < max(i, j) for v in w))
                          if j in w and (i == j or i not in w) else None for w in wedges)
            for i in range(1, size + 1) for j in range(1, size + 1)}


def act(x: LieElement, w: PlethysmVector, m: int, d: int) -> PlethysmVector:
    """Derivation action of a Lie algebra element on a vector of Sym^d(Λ^m V)."""
    moves = _moves(m, x.size, d)
    acc: dict[int, int | Fraction] = {}
    for ij, c in x.entries.items():
        table = moves[ij]
        for key, coeff in w.coeffs.items():
            for k, e in wedge_counts(key, m, x.size - m, d):
                move = table[k]
                if move is not None:
                    new = key + move[0]
                    acc[new] = acc.get(new, 0) + coeff * c * move[1] * e
    out = PlethysmVector()
    out.coeffs = canonical_values({key: v for key, v in acc.items() if v})
    return out
