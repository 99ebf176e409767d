"""The special linear Lie algebra sl(m+n) over the rationals.

An element is a sparse traceless matrix whose entries are each an `int`
when integral and a `Fraction` only when not (the canonical form of
`linalg.canonical`); sums, scalar multiples and `rho_character` keep that
form, so the matrix units E_ij and the H_k stay integral.  The commutator
`bracket`, a test oracle of the action, lives in `tests/reference.py`.
`simple_roots` returns `SimpleRoot` named tuples (index, weight, lowering).

Conventions, fixed once and used everywhere downstream:

* matrix indices are 1-based; ``E(i, j)`` is the matrix unit with a single
  1 in row i, column j, and ``H(k) = E(k,k) - E(k+1,k+1)``;
* the ordered basis is every E_ij with i != j sorted by (i, j), followed by
  H_1 .. H_{m+n-1}; PBW monomial orders and chart variable orders are all
  derived from this order;
* the first m coordinates are the distinguished block: the parabolic
  subalgebra p consists of matrices whose lower-left n x m block vanishes,
  and its complement n is that block (abelian, of dimension m*n);
* weights live in Z^{m+n} modulo the all-ones vector, so two weight vectors
  are equal exactly when their difference is constant.

`build_context` is memoized per (m, n) for the life of the process; every
caller shares one context, which is read-only (`basis` and the bases of p
and n, each the filter of `basis` by `contains`, are tuples built once).
A tag is a `SubalgebraTag` or its value, "p" or "n", and any other tag
raises `ValueError`; so do invalid block sizes, which are never stored.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

from .linalg import canonical


class LieElement:
    """A traceless (size x size) matrix, stored sparsely."""

    __slots__ = ("size", "entries")

    def __init__(self, size: int, entries: Mapping[tuple[int, int], int | Fraction] | None = None):
        self.size = size
        clean: dict[tuple[int, int], int | Fraction] = {}
        trace = 0
        if entries:
            for (i, j), value in entries.items():
                if not (1 <= i <= size and 1 <= j <= size):
                    raise ValueError(f"index ({i},{j}) outside 1..{size}")
                v = canonical(value)
                if v:
                    clean[(i, j)] = v
                    if i == j:
                        trace += v
        if trace:
            raise ValueError("matrix is not traceless")
        self.entries = clean

    def _check(self, other: "LieElement") -> None:
        if self.size != other.size:
            raise ValueError("elements live in different algebras")

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        entries = dict(self.entries)
        for key, v in other.entries.items():
            new = entries.get(key, 0) + v
            if new:
                entries[key] = new
            else:
                entries.pop(key, None)
        return LieElement(self.size, entries)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-1) * other

    def __rmul__(self, scalar: int | Fraction) -> "LieElement":
        c = canonical(scalar)
        return LieElement(self.size, {k: c * v for k, v in self.entries.items()})

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        return self.size == other.size and self.entries == other.entries

    def __repr__(self):
        if not self.entries:
            return "LieElement(0)"
        body = " + ".join(f"{v}*E{i}{j}" for (i, j), v in sorted(self.entries.items()))
        return f"LieElement({body})"


class Weight:
    """Integer weight vector, considered modulo the all-ones vector; the hash
    of its normalized coordinates is taken once, at construction."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords: Sequence[int]):
        self.coords = tuple(map(int, coords))
        self._hash = hash(self.normalized())

    def normalized(self) -> tuple[int, ...]:
        base = min(self.coords) if self.coords else 0
        return tuple([c - base for c in self.coords])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        if len(self.coords) != len(other.coords):
            return False
        diffs = {a - b for a, b in zip(self.coords, other.coords)}
        return len(diffs) <= 1

    def __hash__(self):
        return self._hash

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __repr__(self):
        return f"Weight{self.coords}"


class SubalgebraTag(str, Enum):
    P = "p"
    N = "n"


def _tag(tag: SubalgebraTag | str) -> SubalgebraTag:
    if tag not in ("p", "n"):  # each member equals its value
        raise ValueError(f"unknown tag {tag!r}")
    return SubalgebraTag(tag)


def _position_allowed(tag: SubalgebraTag, m: int, i: int, j: int) -> bool:
    return (i > m and j <= m) == (tag is SubalgebraTag.N)  # n: the lower-left block


class LieAlgebraContext:
    """sl(m+n) with its parabolic p and complement n, relative to the first m coordinates."""

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("both block sizes must be at least 1")
        self.m = m
        self.n = n
        self.size = m + n
        self.N = self.size * self.size - 1
        units = [(i, j) for i in range(1, self.size + 1)
                 for j in range(1, self.size + 1) if i != j]
        cartan = range(1, self.size)
        self.basis: tuple[LieElement, ...] = (
            tuple(self.E(i, j) for i, j in units) + tuple(self.H(k) for k in cartan))
        # H_k's two entries are both diagonal, so it is classified as (k, k)
        positions = units + [(k, k) for k in cartan]
        self._subalgebras = {tag: tuple(x for x, (i, j) in zip(self.basis, positions)
                                        if _position_allowed(tag, m, i, j))
                             for tag in SubalgebraTag}

    def E(self, i: int, j: int) -> LieElement:
        if i == j:
            raise ValueError("diagonal matrix units are not traceless; use H(k)")
        return LieElement(self.size, {(i, j): 1})

    def H(self, k: int) -> LieElement:
        if not 1 <= k < self.size:
            raise ValueError(f"Cartan index {k} out of range")
        return LieElement(self.size, {(k, k): 1, (k + 1, k + 1): -1})

    def contains(self, x: LieElement, tag: SubalgebraTag | str) -> bool:
        if x.size != self.size:
            raise ValueError("element size mismatch")
        tag = _tag(tag)
        return all(_position_allowed(tag, self.m, i, j) for (i, j) in x.entries)

    def subalgebra_basis(self, tag: SubalgebraTag | str) -> list[LieElement]:
        return list(self._subalgebras[_tag(tag)])

    def __repr__(self):
        return f"LieAlgebraContext(m={self.m}, n={self.n})"


@lru_cache(maxsize=None)
def build_context(m: int, n: int) -> LieAlgebraContext:
    """The shared, read-only sl(m+n) context for blocks of sizes m and n."""
    return LieAlgebraContext(m, n)


class SimpleRoot(NamedTuple):
    index: int
    weight: Weight
    lowering: LieElement


def simple_roots(ctx: LieAlgebraContext) -> list[SimpleRoot]:
    """Simple roots L_i - L_{i+1} with their lowering elements E_{i+1,i}."""
    out = []
    for i in range(1, ctx.size):
        coords = [0] * ctx.size
        coords[i - 1] = 1
        coords[i] = -1
        out.append(SimpleRoot(i, Weight(coords), ctx.E(i + 1, i)))
    return out


def rho_character(ctx: LieAlgebraContext, d: int, y: LieElement) -> int | Fraction:
    """d times the trace of the upper-left m x m block of y (y must be in p)."""
    if not ctx.contains(y, SubalgebraTag.P):
        raise ValueError("element is not in the parabolic subalgebra")
    block_trace = sum(y.entries.get((i, i), 0) for i in range(1, ctx.m + 1))
    return canonical(d * block_trace)

