"""The module Sym^d of the m-th wedge power of the defining representation.

A wedge factor is an m-subset of {1..m+n} as a strictly increasing tuple;
`wedge_basis(m, n)` lists the N = C(m+n, m) of them in lex order.  A basis
index, a multiset of d wedges, is one int, its key: wedge k's count sits
in field N - 1 - k of `d.bit_length()` bits, so no count carries and key
order is the lex order of the exponent vectors.  Only `wedge_keys` (one
copy of each wedge) and `wedge_counts` (a key's nonzero fields) read the
layout; a key carries neither its width nor m, so they, `act_all` and
`filtration.weight_of` take both.  `sym_basis` lists the keys in
descending order, v = (e_1 ^ ... ^ e_m)^d first (the lex order of the
sorted d-tuples of wedges): the column key(v) - key.  A module element is
a sparse map from keys to nonzero rationals, each an `int` when integral
and a `Fraction` only when not (`linalg.canonical`); sums, scalar
multiples and `act` keep that form, so the integral basis elements E_ij,
H_k keep v's orbit in integer arithmetic and `Echelon.add` gets `int` rows.

A Lie algebra element acts as a derivation across the d symmetric factors
and, inside each factor, across the m wedge slots; a substituted wedge is
re-sorted with the sign of the sorting (a repeated index kills the term),
one move of `_moves` (a key delta and a sign).  `act_all` acts by several
elements in one walk over a vector's keys, reading each key's nonzero fields
(at most d) once, one term scaled by e for the e copies of a wedge; `act` is
its one-element case.  `jets.level_duality` reads pairings off supports.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

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
        self.coeffs = {key: v for key, value in (coeffs or {}).items()
                       if (v := value if type(value) is int else canonical(value))}

    @classmethod
    def _of(cls, coeffs: dict[int, int | Fraction]) -> "PlethysmVector":
        """The vector over `coeffs`, kept as given: nonzero canonical values."""
        out = cls()
        out.coeffs = coeffs
        return out

    def __add__(self, other: "PlethysmVector") -> "PlethysmVector":
        coeffs = dict(self.coeffs)
        for idx, v in other.coeffs.items():
            new = coeffs.get(idx, 0) + v
            if new:
                coeffs[idx] = new
            else:
                coeffs.pop(idx, None)
        return PlethysmVector._of(canonical_values(coeffs))

    def __sub__(self, other: "PlethysmVector") -> "PlethysmVector":
        return self + (-1) * other

    def __rmul__(self, scalar: int | Fraction) -> "PlethysmVector":
        c = canonical(scalar)
        return PlethysmVector._of(canonical_values({idx: c * v for idx, v in self.coeffs.items()})
                                  if c else {})

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
    delta, None when it lacks j or holds i != j; filled wedge by wedge."""
    wedges = wedge_basis(m, size - m)
    masks = [sum(1 << v for v in w) for w in wedges]  # a wedge's indices as bits
    key = dict(zip(masks, wedge_keys(m, size - m, d)))
    table = {(i, j): [None] * len(wedges) for i in range(1, size + 1) for j in range(1, size + 1)}
    for k, (w, mask) in enumerate(zip(wedges, masks)):
        for j in w:
            for i in (j, *(i for i in range(1, size + 1) if not mask >> i & 1)):
                inner = mask & (1 << max(i, j)) - (2 << min(i, j)) if i != j else 0
                table[i, j][k] = key[mask ^ 1 << j | 1 << i] - key[mask], (-1) ** inner.bit_count()
    return {ij: tuple(row) for ij, row in table.items()}


def act_all(xs: Sequence[LieElement], w: PlethysmVector, m: int, d: int) -> list[PlethysmVector]:
    """[act(x, w, m, d) for x in xs], in one walk over w's keys that reads the
    fields of each key once."""
    if not xs:
        return []
    size, accs = xs[0].size, [{} for _ in xs]
    terms = [(acc, _moves(m, size, d)[ij], c)
             for acc, x in zip(accs, xs) for ij, c in x.entries.items()]
    for key, coeff in w.coeffs.items():
        fields = list(wedge_counts(key, m, size - m, d))
        for acc, table, c in terms:
            for k, e in fields:
                move = table[k]
                if move is not None:
                    acc[new] = acc.get(new := key + move[0], 0) + coeff * c * move[1] * e
    return [PlethysmVector(acc) for acc in accs]


def act(x: LieElement, w: PlethysmVector, m: int, d: int) -> PlethysmVector:
    """Derivation action of a Lie algebra element on a vector of Sym^d(Λ^m V)."""
    return act_all((x,), w, m, d)[0]
