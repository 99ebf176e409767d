"""Canonical filtrations of the irreducible module generated by the highest
weight vector, their PBW bases, and annihilator/character-ideal checks.

Level l of the canonical filtration is the span of all vectors obtained by
applying at most l Lie algebra elements to the highest weight vector v.
All levels grow in one `Echelon`: level 0 adds v, and level l adds g . x for
each x that left a new pivot at level l-1, since g . F_{l-2} already lies in
F_{l-1}.  Each level is read off the canonical reduced row echelon form, so
bases are reproducible; F_l is a sum of weight spaces, so every reduced row
has the weight of its pivot column (checked exactly) and the weight
multiset counts pivot weights.  The saturation level is the first level
of full module dimension, read off the levels, so a result sliced to
levels 0..k reports what `canonical_filtration(m, n, d, k)` reports.

A PBW monomial is an exponent vector over a fixed ordered basis (of the
nilpotent complement n, or of all of g); it acts by applying its factors
right to left as repeated module actions.  No enveloping-algebra
multiplication is ever performed: every identity asserted here is verified
by an exact rank.

U_l(g) . v is level l of the canonical filtration, so the annihilator
dimension and the g-side of the split are read off `canonical_filtration`
dims; the n-side of the split is the independence flag of `pbw_filtration`,
whose monomial count is always dim U_l(n).  `evaluation_matrix` over all of
g stays as public API and as the reference the tests compare against.  The
character-ideal generators x(y - rho(y)) include x = 1, so they annihilate v
exactly when every (y - rho(y)) v is zero.

The PBW images behind evaluation matrices, PBW filtrations and direct sums
are built in one pass by the prefix recurrence z^a v = z_i (z^(a - e_i) v),
i the leftmost nonzero exponent; only the nonzero images of one degree are
kept while the next is built, images that are only ranked go straight
into an `Echelon`, and nothing is memoized across calls.
`apply_pbw_monomial` stays as the row-by-row reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Sequence, Union

from .errors import CertificateError, SizeCapError
from .lie import (LieAlgebraContext, LieElement, SubalgebraTag, Weight,
                  build_context, rho_character, simple_roots)
from .linalg import Echelon, SparseMatrix
from .plethysm import (DEFAULT_AMBIENT_CAP, PlethysmVector, act, coordinates,
                       highest_weight_vector, sym_basis, weight_of)
from .polynomials import degree_monomials

DEFAULT_MONOMIAL_CAP = 50000

Subalgebra = Union[SubalgebraTag, str]


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


def _pbw_count(num_generators: int, max_degree: int, cap: int) -> int:
    """Number of exponent vectors of total degree <= max_degree, within the cap."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    count = comb(num_generators + max_degree, num_generators)
    if count > cap:
        raise SizeCapError("PBW monomial count", count, cap)
    return count


def pbw_monomials(num_generators: int, max_degree: int,
                  cap: int = DEFAULT_MONOMIAL_CAP) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree <= max_degree, sorted by (degree, lex)."""
    _pbw_count(num_generators, max_degree, cap)
    out: list[tuple[int, ...]] = []
    for degree in range(max_degree + 1):
        out.extend(sorted(degree_monomials(degree, num_generators)))
    return out


def _pbw_position(exps: tuple[int, ...]) -> int:
    """Index of an exponent vector in pbw_monomials order."""
    k = len(exps)
    rest = sum(exps)
    position = comb(k + rest - 1, k) if rest else 0  # all lower degrees
    for j, e in enumerate(exps[:-1]):
        if e:
            # vectors agreeing before j with a smaller entry at j come first
            parts = k - j - 1
            position += comb(rest + parts, parts) - comb(rest - e + parts, parts)
            rest -= e
    return position


def apply_pbw_monomial(generators: Sequence[LieElement], exponents: Sequence[int],
                       start: PlethysmVector) -> PlethysmVector:
    """Apply z_1^{a_1} ... z_k^{a_k} to a vector, rightmost factor first."""
    vec = start
    for g, e in zip(reversed(generators), reversed(list(exponents))):
        for _ in range(e):
            if vec.is_zero:
                return vec
            vec = act(g, vec)
    return vec


def _pbw_images(generators: Sequence[LieElement], max_degree: int,
                start: PlethysmVector) -> Iterator[tuple[int, PlethysmVector]]:
    """(position in pbw_monomials order, z^a start) for every exponent
    vector a of total degree <= max_degree whose image is nonzero, in order.

    z^a start = z_i (z^(a - e_i) start) for the leftmost nonzero a_i, which
    is the last action apply_pbw_monomial performs, so each image is one
    action on a nonzero image of one degree less and equals the reference
    exactly.  Only the nonzero images of the previous degree are kept; a
    vector whose prefix image vanishes is never visited.
    """
    if start.is_zero:
        return
    k = len(generators)
    layer = {(0,) * k: start}
    yield 0, start
    for _ in range(max_degree):
        extensions = []
        for b in layer:
            # a = b + e_i has leftmost nonzero entry i exactly when i <= lead
            lead = next((j for j, e in enumerate(b) if e), k - 1)
            extensions += [(b[:i] + (b[i] + 1,) + b[i + 1:], i, b) for i in range(lead + 1)]
        grown = {}
        for exps, i, prefix in sorted(extensions):
            image = act(generators[i], layer[prefix])
            if not image.is_zero:
                grown[exps] = image
                yield _pbw_position(exps), image
        layer = grown


def _generators(ctx: LieAlgebraContext, subalgebra: Subalgebra) -> list[LieElement]:
    if isinstance(subalgebra, str) and subalgebra == "all":
        return list(ctx.basis)
    tag = SubalgebraTag(subalgebra)
    return ctx.subalgebra_basis(tag)


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


def canonical_filtration(m: int, n: int, d: int, l_max: int,
                         cap: int = DEFAULT_AMBIENT_CAP) -> FiltrationResult:
    """Levels 0..l_max of the canonical filtration, with canonical bases."""
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    ctx = build_context(m, n)
    basis = sym_basis(m, n, d, cap)
    index_of = {idx: i for i, idx in enumerate(basis)}
    weights = [weight_of(idx, ctx.size) for idx in basis]
    target = weyl_dim_oracle(m, n, d)

    echelon = Echelon(len(basis))
    new = [highest_weight_vector(m, n, d)]
    levels: list[FiltrationLevel] = []

    for level in range(l_max + 1):
        if level > 0:
            new = [act(x, vec) for vec in new for x in ctx.basis]
        new = [vec for vec in new if echelon.add(coordinates(vec, index_of))]
        level_basis, multiset = [], {}
        for pivot, row in zip(echelon.pivots, echelon.reduced()):
            weight = weights[pivot]
            if any(weights[c] != weight for c in row):
                raise CertificateError(f"level {level} row mixes weights")
            multiset[weight] = multiset.get(weight, 0) + 1
            level_basis.append(PlethysmVector({basis[c]: Fraction(v, row[pivot])
                                               for c, v in row.items()}))
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
    basis = sym_basis(m, n, d, cap)
    index_of = {idx: i for i, idx in enumerate(basis)}
    generators = ctx.subalgebra_basis(SubalgebraTag.N)
    count = _pbw_count(len(generators), l, monomial_cap)
    vectors = [PlethysmVector() for _ in range(count)]
    echelon = Echelon(len(basis))
    for row, image in _pbw_images(generators, l, highest_weight_vector(m, n, d)):
        vectors[row] = image
        echelon.add(coordinates(image, index_of))
    return vectors, echelon.rank == count


def evaluation_matrix(m: int, n: int, d: int, l: int,
                      subalgebra: Subalgebra = "all",
                      cap: int = DEFAULT_AMBIENT_CAP,
                      monomial_cap: int = DEFAULT_MONOMIAL_CAP) -> SparseMatrix:
    """Row r is the image of the r-th PBW monomial applied to v; columns are
    the ambient module coordinates."""
    if l < 0:
        raise ValueError("l must be non-negative")
    ctx = build_context(m, n)
    basis = sym_basis(m, n, d, cap)
    index_of = {idx: i for i, idx in enumerate(basis)}
    generators = _generators(ctx, subalgebra)
    count = _pbw_count(len(generators), l, monomial_cap)
    entries = {(row, c): value
               for row, image in _pbw_images(generators, l, highest_weight_vector(m, n, d))
               for c, value in coordinates(image, index_of).items()}
    return SparseMatrix(count, len(basis), entries)


def enveloping_dim(m: int, n: int, l: int, monomial_cap: int) -> int:
    """dim U_l(g), the number of PBW monomials of degree <= l over g;
    SizeCapError when it exceeds the monomial cap."""
    return _pbw_count(build_context(m, n).N, l, monomial_cap)


def annihilator_dim(m: int, n: int, d: int, l: int,
                    cap: int = DEFAULT_AMBIENT_CAP,
                    monomial_cap: int = DEFAULT_MONOMIAL_CAP) -> int:
    """Dimension of the degree <= l part of the annihilator of v inside the
    full enveloping algebra filtration: dim U_l(g) - dim U_l(g) . v."""
    sym_basis(m, n, d, cap)  # enforce the ambient cap before the monomial cap
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
    sym_basis(m, n, d, cap)  # enforce the ambient cap before acting
    ctx = build_context(m, n)
    v = highest_weight_vector(m, n, d)
    out = []
    for root in simple_roots(ctx):
        power = d + 1 if root.index == m else 1
        vec = v
        below_nonzero = True
        for _ in range(power - 1):
            vec = act(root.lowering, vec)
            if vec.is_zero:
                below_nonzero = False
                break
        at_power_zero = below_nonzero and act(root.lowering, vec).is_zero
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
    sym_basis(m, n, d, cap)
    v = highest_weight_vector(m, n, d)
    enveloping_dim(m, n, l - 1, monomial_cap)
    # x(y - rho(y)) v = 0 for every x exactly when (y - rho(y)) v = 0
    return all((act(y, v) - rho_character(ctx, d, y) * v).is_zero
               for y in ctx.subalgebra_basis(SubalgebraTag.P))


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
    enveloping_dim(m, n, l, monomial_cap)
    bases = [sym_basis(m, n, d, cap) for d in degrees]
    echelon = Echelon(sum(map(len, bases)))
    offset = 0
    for d, basis in zip(degrees, bases):
        index_of = {idx: i + offset for i, idx in enumerate(basis)}
        for _, image in _pbw_images(ctx.basis, l, highest_weight_vector(m, n, d)):
            echelon.add(coordinates(image, index_of))
        offset += len(basis)
    return echelon.rank
