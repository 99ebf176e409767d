"""Canonical filtrations of the irreducible module generated by the highest
weight vector, their PBW bases, and annihilator/character-ideal checks.

Level l of the canonical filtration is F_l = U_l(g) . v, v the highest
weight vector.  It grows by the nilpotent complement n alone:
    x u v = u x v + [x, u] v  for x in p, u in U_l(g), [x, u] in U_l(g);
    y v = rho(y) v for every y in p, so p . F_l lies in F_l;
    hence F_(l+1) = F_l + n . F_l = F_l + n . (the vectors new at level l).
The second line is an exact certificate checked first (CertificateError
otherwise; `char_ideal_generator_check` reads the same test), and the same
proof lets `multi_filtration` apply only n to a span of p-eigenvectors.
All levels grow in one `Echelon`, read off `Echelon.canonical_rows` (unique
reduced rows, 1 at the pivot, an `int` when integral); a level that adds no
pivot repeats the one before, as does every later level, so the echelon is
not read again.  F_l is a sum of weight spaces, so every reduced row has
the weight of its pivot column (compared on raw coordinates: every index
has total m d) and the weight multiset counts pivot weights.  The
saturation level, the first level of full module dimension, is read off
the levels, so a result sliced to levels 0..k reports what
`canonical_filtration(m, n, d, k)` does.

A PBW monomial is an exponent vector over a fixed ordered basis (of n or of
g); it acts by applying its factors right to left as module actions, and
no enveloping-algebra product is ever formed.  The annihilator dimension
and the g-side of the split are read off `canonical_filtration` dims, and
the n-side is the independence flag of `pbw_filtration`; the evaluation
matrix over all of g is the tests' reference (`tests/reference.py`).

The PBW images behind PBW filtrations and direct sums are built in one
pass by the prefix recurrence z^a v = z_i (z^(a - e_i) v), i the leftmost
nonzero exponent, walked by `polynomials.prefix_steps`; only the nonzero
images of one degree are kept while the next is built, images that are only
ranked go straight into an `Echelon`, and nothing is memoized across calls.
`apply_pbw_monomial` stays as the row-by-row reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from math import comb
from typing import Iterator, Sequence

from .errors import CertificateError, SizeCapError
from .lie import (LieAlgebraContext, LieElement, SubalgebraTag, Weight,
                  build_context, rho_character, simple_roots)
from .linalg import Echelon
from .plethysm import (DEFAULT_AMBIENT_CAP, PlethysmVector, SymIndex, act, coordinates,
                       highest_weight_vector, indexed_basis, module_dim, wedge_basis)
from .polynomials import prefix_steps

DEFAULT_MONOMIAL_CAP = 50000


def weyl_dim_oracle(m: int, n: int, d: int) -> int:
    """Hook-content product over the m x n rectangle; always an integer."""
    if m < 1 or n < 1 or d < 1:
        raise ValueError("m, n and d must all be at least 1")
    value = Fraction(1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            value *= Fraction(d + i + j - 1, i + j - 1)
    if value.denominator != 1:
        raise CertificateError("hook-content product is not an integer")
    return value.numerator


def weight_of(idx: SymIndex, m: int, n: int) -> Weight:
    """Coordinate k counts the occurrences of index k across all wedge factors."""
    counts = [0] * (m + n)
    for wedge, e in zip(wedge_basis(m, n), idx):
        for value in wedge:
            counts[value - 1] += e
    return Weight(counts)


def _pbw_count(num_generators: int, max_degree: int, cap: int) -> int:
    """Number of exponent vectors of total degree <= max_degree, within the cap."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    count = comb(num_generators + max_degree, num_generators)
    if count > cap:
        raise SizeCapError("PBW monomial count", count, cap)
    return count


def apply_pbw_monomial(generators: Sequence[LieElement], exponents: Sequence[int],
                       start: PlethysmVector, m: int) -> PlethysmVector:
    """Apply z_1^{a_1} ... z_k^{a_k} to a vector, rightmost factor first."""
    vec = start
    for g, e in zip(reversed(generators), reversed(list(exponents))):
        for _ in range(e):
            if vec.is_zero:
                return vec
            vec = act(g, vec, m)
    return vec


def _pbw_images(generators: Sequence[LieElement], max_degree: int,
                start: PlethysmVector, m: int) -> Iterator[tuple[int, PlethysmVector]]:
    """(position in `polynomials.graded_monomials` order, z^a start) for
    every exponent vector a of total degree <= max_degree whose image is
    nonzero, in order.

    z^a start = z_i (z^(a - e_i) start) for the leftmost nonzero a_i (the
    `prefix_steps` walk), which is the last action apply_pbw_monomial
    performs, so each image is one action on a nonzero image of one degree
    less and equals the reference exactly.  Only the nonzero images of the
    previous degree are kept; a vector whose prefix image vanishes is
    never acted on.
    """
    if start.is_zero:
        return
    layer = {(0,) * len(generators): start}
    yield 0, start
    position = 1
    for degree in range(1, max_degree + 1):
        grown = {}
        for exps, i, prefix in prefix_steps(len(generators), degree):
            base = layer.get(prefix)
            if base is not None:
                image = act(generators[i], base, m)
                if not image.is_zero:
                    grown[exps] = image
                    yield position, image
            position += 1
        layer = grown


@dataclass
class FiltrationLevel:
    level: int
    dim: int
    basis: list[PlethysmVector]
    weight_multiset: dict[Weight, int]
    saturated: bool


@dataclass
class FiltrationResult:
    m: int
    n: int
    d: int
    module_dim: int
    levels: list[FiltrationLevel]

    @property
    def dims(self) -> list[int]:
        return [lvl.dim for lvl in self.levels]

    @property
    def saturation_level(self) -> int | None:
        return next((lvl.level for lvl in self.levels if lvl.saturated), None)


def _p_eigenvector(ctx: LieAlgebraContext, d: int, v: PlethysmVector) -> bool:
    """Whether y . v = rho(y) v for every y in the parabolic basis."""
    return all((act(y, v, ctx.m) - rho_character(ctx, d, y) * v).is_zero
               for y in ctx.subalgebra_basis(SubalgebraTag.P))


def canonical_filtration(m: int, n: int, d: int, l_max: int,
                         cap: int = DEFAULT_AMBIENT_CAP) -> FiltrationResult:
    """Levels 0..l_max of the canonical filtration, with canonical bases."""
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    ctx = build_context(m, n)
    basis, index_of = indexed_basis(m, n, d, cap)
    weight_at = cache(lambda c: weight_of(basis[c], m, n))
    target = weyl_dim_oracle(m, n, d)
    v = highest_weight_vector(m, n, d)
    if not _p_eigenvector(ctx, d, v):
        raise CertificateError("p does not act on v by its character")
    nilpotent = ctx.subalgebra_basis(SubalgebraTag.N)

    echelon = Echelon(len(basis))
    new = [v]
    levels: list[FiltrationLevel] = []

    for level in range(l_max + 1):
        if level > 0:
            new = [act(x, vec, m) for vec in new for x in nilpotent]
        new = [vec for vec in new if echelon.add(coordinates(vec, index_of))]
        if level > 0 and not new:  # F_level = F_(level-1), and so is every later level
            levels += [replace(levels[-1], level=k) for k in range(level, l_max + 1)]
            break
        level_basis, multiset = [], {}
        for pivot, row in echelon.canonical_rows():
            weight = weight_at(pivot)
            if any(weight_at(c).coords != weight.coords for c in row):
                raise CertificateError(f"level {level} row mixes weights")
            multiset[weight] = multiset.get(weight, 0) + 1
            level_basis.append(PlethysmVector({basis[c]: value for c, value in row.items()}))
        levels.append(FiltrationLevel(level, echelon.rank, level_basis, multiset,
                                      echelon.rank == target))

    return FiltrationResult(m, n, d, target, levels)


def pbw_filtration(m: int, n: int, d: int, l: int,
                   cap: int = DEFAULT_AMBIENT_CAP,
                   monomial_cap: int = DEFAULT_MONOMIAL_CAP
                   ) -> tuple[list[PlethysmVector], bool]:
    """All PBW monomial images z^a v, |a| <= l, over the n-basis, plus an
    exact independence flag (rank equals the monomial count)."""
    if l < 1:
        raise ValueError("l must be at least 1")
    ctx = build_context(m, n)
    _, index_of = indexed_basis(m, n, d, cap)
    generators = ctx.subalgebra_basis(SubalgebraTag.N)
    count = _pbw_count(len(generators), l, monomial_cap)
    vectors = [PlethysmVector() for _ in range(count)]
    echelon = Echelon(len(index_of))
    for row, image in _pbw_images(generators, l, highest_weight_vector(m, n, d), m):
        vectors[row] = image
        echelon.add(coordinates(image, index_of))
    return vectors, echelon.rank == count


def enveloping_dim(m: int, n: int, l: int, monomial_cap: int) -> int:
    """dim U_l(g), the number of PBW monomials of degree <= l over g;
    SizeCapError when it exceeds the monomial cap."""
    return _pbw_count(build_context(m, n).N, l, monomial_cap)


def annihilator_dim(m: int, n: int, d: int, l: int,
                    cap: int = DEFAULT_AMBIENT_CAP,
                    monomial_cap: int = DEFAULT_MONOMIAL_CAP) -> int:
    """Dimension of the degree <= l part of the annihilator of v inside the
    full enveloping algebra filtration: dim U_l(g) - dim U_l(g) . v."""
    module_dim(m, n, d, cap)  # enforce the ambient cap before the monomial cap
    total = enveloping_dim(m, n, l, monomial_cap)
    return total - canonical_filtration(m, n, d, l, cap).dims[l]


@dataclass
class SplitReport:
    dim_ul_g: int
    dim_ul_n: int
    dim_ann: int
    split_holds: bool


def split_report(m: int, n: int, l: int, level_dim: int,
                 n_independent: bool) -> SplitReport:
    """U_l(g) = U_l(n) + Ann_l(v) exactly when the U_l(n) monomial images are
    independent and span F_l = U_l(g) . v, whose dimension is `level_dim`."""
    dim_ul_g = comb(build_context(m, n).N + l, l)
    dim_ul_n = comb(m * n + l, l)
    return SplitReport(dim_ul_g, dim_ul_n, dim_ul_g - level_dim,
                       n_independent and level_dim == dim_ul_n)


def verma_split_check(m: int, n: int, d: int, l: int,
                      cap: int = DEFAULT_AMBIENT_CAP,
                      monomial_cap: int = DEFAULT_MONOMIAL_CAP) -> SplitReport:
    """Exact check that U_l(g) splits as U_l(n) plus the annihilator piece."""
    if not 1 <= l < d:
        raise ValueError("the split is only asserted for 1 <= l < d")
    _, n_independent = pbw_filtration(m, n, d, l, cap, monomial_cap)
    enveloping_dim(m, n, l, monomial_cap)
    level_dim = canonical_filtration(m, n, d, l, cap).dims[l]
    return split_report(m, n, l, level_dim, n_independent)


@dataclass
class RootPowerReport:
    index: int
    power: int
    below_nonzero: bool
    at_power_zero: bool

    @property
    def ok(self) -> bool:
        return self.below_nonzero and self.at_power_zero


def serre_power_check(m: int, n: int, d: int,
                      cap: int = DEFAULT_AMBIENT_CAP) -> list[RootPowerReport]:
    """For each simple root, the exact lowering power that kills v.

    The expected power is 1 for every simple root except the m-th, where it
    is d + 1 (so the d-th power is still nonzero).
    """
    module_dim(m, n, d, cap)  # enforce the ambient cap before acting
    ctx = build_context(m, n)
    v = highest_weight_vector(m, n, d)
    out = []
    for root in simple_roots(ctx):
        power = d + 1 if root.index == m else 1
        vec = v
        below_nonzero = True
        for _ in range(power - 1):
            vec = act(root.lowering, vec, m)
            if vec.is_zero:
                below_nonzero = False
                break
        at_power_zero = below_nonzero and act(root.lowering, vec, m).is_zero
        out.append(RootPowerReport(root.index, power, below_nonzero, at_power_zero))
    return out


def char_ideal_generator_check(m: int, n: int, d: int, l: int,
                               cap: int = DEFAULT_AMBIENT_CAP,
                               monomial_cap: int = DEFAULT_MONOMIAL_CAP) -> bool:
    """Every generator x(y - rho(y) 1), deg x <= l-1, y in the parabolic
    basis, annihilates v: the character ideal sits inside the annihilator."""
    if l < 1:
        raise ValueError("l must be at least 1")
    ctx = build_context(m, n)
    module_dim(m, n, d, cap)
    v = highest_weight_vector(m, n, d)
    enveloping_dim(m, n, l - 1, monomial_cap)
    # x(y - rho(y)) v = 0 for every x exactly when (y - rho(y)) v = 0
    return _p_eigenvector(ctx, d, v)


def multi_filtration(m: int, n: int, degrees: Sequence[int], l: int,
                     cap: int = DEFAULT_AMBIENT_CAP,
                     monomial_cap: int = DEFAULT_MONOMIAL_CAP) -> int:
    """Dimension of U_l(g) applied to the span of the highest weight vectors
    of a direct sum of modules of the given degrees."""
    if not degrees:
        raise ValueError("need at least one degree")
    if not 1 <= l <= min(degrees):
        raise ValueError("l must satisfy 1 <= l <= min(degrees)")
    ctx = build_context(m, n)
    _pbw_count(m * n, l, monomial_cap)  # the images are walked over n
    indices = [indexed_basis(m, n, d, cap)[1] for d in degrees]
    echelon = Echelon(sum(map(len, indices)))
    offset = 0
    for d, index_of in zip(degrees, indices):
        v = highest_weight_vector(m, n, d)
        if not _p_eigenvector(ctx, d, v):
            raise CertificateError(f"p does not act on the degree-{d} v by its character")
        for _, image in _pbw_images(ctx.subalgebra_basis(SubalgebraTag.N), l, v, m):
            echelon.add({index_of[idx] + offset: value for idx, value in image.coeffs.items()})
        offset += len(index_of)
    return echelon.rank
