"""Canonical filtrations of the irreducible module generated by the highest
weight vector, their PBW bases, and annihilator/character-ideal checks.

Level l of the canonical filtration is F_l = U_l(g) . v, v the highest
weight vector.  It grows by the nilpotent complement n alone:
    x u v = u x v + [x, u] v  for x in p, u in U_l(g), [x, u] in U_l(g);
    y v = rho(y) v for every y in p, so p . F_l lies in F_l;
    hence F_l = U_l(n) . v, spanned by the z^a v with |a| <= l.
Two exact certificates run once per (m, n, d), CertificateError otherwise:
the second line (`_certified`), and the move table's (`_moves_certified`):
each E_ij in n (i > m >= j) sends a wedge to the one with j swapped for i,
one more index above m.  So every term of z^a v has weight d omega_m +
sum a_ij (e_i - e_j) and t-degree |a| (the piece V_|a|): F_l = V_0 + ... + V_l.

The walk runs over one PBW basis, the Feigin-Fourier-Littelmann points of
d omega_m (Transform. Groups 16, 2011): the a, read row by row as the n x m
matrix (z_ij), with exponent sum <= d on every path from z_(m+1,1) to
z_(m+n,m) moving one row down or one column right; every a with |a| <= d
is one.  The degree-k points are the children a + e_i, i at most the
leftmost nonzero index of a, of the degree-(k - 1) points (past d, one
path-sum table per parent decides them: `_fflv_children`), so z^a v =
z_i (z^(a - e_i) v), built in one walk over the parent's keys
(`plethysm.act_all`).  The walk needs no trust in the theorem: each image
must leave a new pivot in its piece's `Echelon` (columns key(v) - key).
For l_max <= d that proves that the C(mn + l, l) images span F_l.  Past d
the walk runs to its last point and must count the Weyl dimension.

`filtration_walk` keeps dims, the saturation level (the first level of full
module dimension) and the keys of each piece l < d, whose union over 0..l
is F_l's support; every dims reader reads it.  Only `canonical_filtration`
builds bases: level l's is level l - 1's plus piece l's
`Echelon.canonical_rows` (unique, 1 at the pivot, an `int` when integral),
and its weight multiset counts the images' closed-form weights.  The last
walk is stored, keyed by (m, n, d), with no bases: it serves every walk it
reaches and, once saturated, every longer one; a request for bases walks.

A PBW monomial, an exponent vector over a fixed ordered basis of n or of g,
acts factor by factor, right to left; no enveloping-algebra product is
formed.  The z^a v, |a| <= l, are independent exactly when dims[l] =
C(mn + l, l): the flag of `pbw_filtration` (images by `apply_pbw_monomial`)
and the n-side of the split.  `multi_filtration` sums the summands' dims[l],
and the annihilator dimension and the g-side of the split are read off the
dims too; the evaluation matrix over g is the tests' reference.  The
ambient cap bounds all the work: `module_dim` refuses a larger module and
the walk more levels, before any image; each image kept is a new pivot
among `module_dim` columns.  `pbw_filtration`, the one enumeration of
monomials, holds their count within it; dim U_l(g) is a binomial.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import comb, prod
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import CertificateError, SizeCapError
from .lie import (LieAlgebraContext, LieElement, SubalgebraTag, Weight,
                  build_context, rho_character, simple_roots)
from .linalg import Echelon
from .plethysm import (DEFAULT_AMBIENT_CAP, PlethysmVector, _moves, act, act_all,
                       highest_weight_vector, module_dim, wedge_basis, wedge_counts, wedge_keys)
from .polynomials import graded_monomials


def weyl_dim_oracle(m: int, n: int, d: int) -> int:
    """Hook-content product over the m x n rectangle; always an integer."""
    if m < 1 or n < 1 or d < 1:
        raise ValueError("m, n and d must all be at least 1")
    hooks = [i + j - 1 for i in range(1, m + 1) for j in range(1, n + 1)]
    product, hook_product = prod(d + h for h in hooks), prod(hooks)
    if product % hook_product:
        raise CertificateError("hook-content product is not an integer")
    return product // hook_product


def weight_of(key: int, m: int, n: int, d: int) -> Weight:
    """The weight of a degree-d key: coordinate i - 1 counts index i."""
    counts = Counter(i for k, e in wedge_counts(key, m, n, d) for i in wedge_basis(m, n)[k] * e)
    return Weight([counts[i] for i in range(1, m + n + 1)])


def apply_pbw_monomial(generators: Sequence[LieElement], exponents: Sequence[int],
                       start: PlethysmVector, m: int, d: int) -> PlethysmVector:
    """Apply z_1^{a_1} ... z_k^{a_k} to a vector, rightmost factor first."""
    vec = start
    for g, e in zip(reversed(generators), reversed(list(exponents))):
        for _ in range(e):
            if vec.is_zero:
                return vec
            vec = act(g, vec, m, d)
    return vec


def _fflv_children(exps: Sequence[int], lead: int, m: int, d: int) -> list[int]:
    """The i <= lead whose child exps + e_i is a point, exps a point with no
    nonzero entry before lead.  The child adds 1 to the paths through z_i
    alone, whose largest sum is the forward plus the backward path sum at i,
    less exps[i]: the forward sums are 0 before lead and exps[lead] at it."""
    below = [0] * (len(exps) + m)  # the largest path sum from each entry to z_(m+n,m)
    for k in range(len(exps) - 1, -1, -1):
        below[k] = exps[k] + max(below[k + m], below[k + 1] if (k + 1) % m else 0)
    return [i for i in range(lead + 1) if below[i] < d]


class FiltrationLevel(NamedTuple):
    level: int
    dim: int
    basis: list[PlethysmVector]
    weight_multiset: dict[Weight, int]
    saturated: bool


class FiltrationResult(NamedTuple):
    """dims[l] = dim F_l, the keys of each piece l < d and, with bases, the levels."""
    module_dim: int
    dims: list[int]
    supports: list[frozenset[int]]
    levels: list[FiltrationLevel] | None = None

    @property
    def saturation_level(self) -> int | None:
        return next((l for l, dim in enumerate(self.dims) if dim == self.module_dim), None)


def _p_eigenvector(ctx: LieAlgebraContext, d: int, v: PlethysmVector) -> bool:
    """Whether y . v = rho(y) v for every y in the stored parabolic basis,
    with rho the degree-d character `rho_character`."""
    return all(act(y, v, ctx.m, d) == rho_character(ctx, d, y) * v
               for y in ctx.subalgebra_basis(SubalgebraTag.P))


@cache
def _certified(m: int, n: int, d: int) -> bool:
    """The p-eigenvector certificate of the degree-d highest weight vector."""
    return _p_eigenvector(build_context(m, n), d, highest_weight_vector(m, n, d))


@cache
def _moves_certified(m: int, n: int, d: int) -> None:
    """The table certificate: each move of an E_ij in n sends a wedge to the
    one with j swapped for i (its weight plus e_i - e_j), which holds one
    more index above m; CertificateError otherwise."""
    wedge_at = dict(zip(wedge_keys(m, n, d), wedge_basis(m, n)))
    for (i, j), moves in _moves(m, m + n, d).items():
        for (unit, w), move in zip(wedge_at.items(), moves) if i > m >= j else ():
            if move is not None:
                target = wedge_at.get(unit + move[0], ())
                if sum(v > m for v in target) != sum(v > m for v in w) + 1:
                    raise CertificateError(f"E_{i},{j} keeps the t-degree of wedge {w}")
                if set(target) != set(w) - {j} | {i}:
                    raise CertificateError(f"E_{i},{j} does not shift the weight of wedge {w}")


# the last walk only, with no levels: (m, n, d) -> walk
_grown: dict[tuple[int, int, int], FiltrationResult] = {}


def _growth(m: int, n: int, d: int, l_max: int, cap: int, bases: bool) -> FiltrationResult:
    """Levels 0..l_max, padded past saturation, in a new result: of the stored walk
    if no bases are asked and it reaches l_max or is saturated, else of a new walk, stored."""
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    if l_max > cap:  # one level is stored per l, stabilized or not
        raise SizeCapError("filtration level", l_max, cap)
    module_dim(m, n, d, cap)
    walk, levels = _grown.get((m, n, d)), None
    if bases or walk is None or len(walk.dims) <= l_max and walk.saturation_level is None:
        _grown.clear()
        walk, levels = _walk(m, n, d, l_max, bases)
        _grown[m, n, d] = walk
    if levels:  # the levels past the walk's last point repeat it
        levels += [levels[-1]._replace(level=k) for k in range(len(levels), l_max + 1)]
    return FiltrationResult(walk.module_dim, (walk.dims + walk.dims[-1:] * l_max)[:l_max + 1],
                            walk.supports[:l_max + 1], levels)


def _walk(m: int, n: int, d: int, l_max: int, bases: bool) -> tuple:
    """The certified walk to l_max (past d, to its last point), and the
    levels through l_max if `bases`, each piece reduced as it completes."""
    target = weyl_dim_oracle(m, n, d)
    if not _certified(m, n, d):
        raise CertificateError("p does not act on v by its character")
    _moves_certified(m, n, d)
    nilpotent = build_context(m, n).subalgebra_basis(SubalgebraTag.N)

    # (a, the leftmost nonzero index of a, z^a v) for the points of one degree
    v = highest_weight_vector(m, n, d)
    (top,) = v.coeffs  # the column of a key is top - key
    layer = [((0,) * (m * n), m * n - 1, v)]
    dims, supports, levels, multiset, rows = [], [], [], {}, []  # rows: (pivot, row)
    while layer:
        level = len(dims)
        piece = Echelon(top + 1)
        for exps, _, image in layer:
            if not piece.add({top - key: c for key, c in image.coeffs.items()}):
                raise CertificateError(f"the image of z^{exps} is dependent at level {level}")
        dims.append(piece.rank + (dims[-1] if dims else 0))
        if level < d:
            supports.append(frozenset().union(*(image.coeffs for _, _, image in layer)))
        if bases and level <= l_max:  # the images' closed-form weights, piece l's rows
            weights = Counter((*(d - sum(a[c::m]) for c in range(m)),
                               *(sum(a[r:r + m]) for r in range(0, m * n, m))) for a, _, _ in layer)
            multiset = Counter(multiset) + Counter({Weight(c): k for c, k in weights.items()})
            rows = sorted(rows + [(p, PlethysmVector._of({top - c: val for c, val in row.items()}))
                                  for p, row in piece.canonical_rows()], key=itemgetter(0))
            levels.append(FiltrationLevel(level, len(rows), [vec for _, vec in rows], multiset,
                                          len(rows) == target))
        if level == l_max <= d:  # the independent images span F_l_max
            break
        layer, parents = [], layer[::-1]
        while parents:  # the children that are points, in one walk; each parent freed
            exps, lead, image = parents.pop()
            kids = range(lead + 1) if level < d else _fflv_children(exps, lead, m, d)  # |a| <= d
            kids = [(exps[:i] + (exps[i] + 1,) + exps[i + 1:], i) for i in kids]
            images = act_all([nilpotent[i] for _, i in kids], image, m, d)
            layer += [(a, i, z) for (a, i), z in zip(kids, images)]
    if l_max > d and dims[-1] != target:
        raise CertificateError(f"{dims[-1]} PBW basis images, expected {target}")
    return FiltrationResult(target, dims, supports), levels if bases else None


def filtration_walk(m: int, n: int, d: int, l_max: int,
                    cap: int = DEFAULT_AMBIENT_CAP) -> FiltrationResult:
    """dims[0..l_max], the saturation level and the keys of pieces
    0..min(l_max, d - 1), with no basis (see `_growth`)."""
    return _growth(m, n, d, l_max, cap, False)


def canonical_filtration(m: int, n: int, d: int, l_max: int,
                         cap: int = DEFAULT_AMBIENT_CAP) -> FiltrationResult:
    """`filtration_walk` with the levels 0..l_max: canonical bases and
    weight multisets, from a new walk (see `_growth`)."""
    return _growth(m, n, d, l_max, cap, True)


def pbw_filtration(m: int, n: int, d: int, l: int,
                   cap: int = DEFAULT_AMBIENT_CAP) -> tuple[list[PlethysmVector], bool]:
    """All PBW monomial images z^a v, |a| <= l, over the n-basis, each built
    by `apply_pbw_monomial`, plus an exact independence flag: they span F_l,
    so they are independent exactly when dim F_l is their count."""
    if l < 1:
        raise ValueError("l must be at least 1")
    module_dim(m, n, d, cap)
    count = comb(m * n + l, l)
    if count > cap:
        raise SizeCapError("PBW monomial count", count, cap)
    generators = build_context(m, n).subalgebra_basis(SubalgebraTag.N)
    v = highest_weight_vector(m, n, d)
    vectors = [apply_pbw_monomial(generators, a, v, m, d) for a in graded_monomials(m * n, l)]
    return vectors, filtration_walk(m, n, d, l, cap).dims[l] == count


def enveloping_dim(m: int, n: int, l: int) -> int:
    """dim U_l(g) = C(N + l, l), N = dim sl(m+n), counted in closed form:
    no monomial is enumerated, so no cap applies."""
    return comb((m + n) ** 2 - 1 + l, l)


def annihilator_dim(m: int, n: int, d: int, l: int, cap: int = DEFAULT_AMBIENT_CAP) -> int:
    """Dimension of the degree <= l part of the annihilator of v inside the
    full enveloping algebra filtration: dim U_l(g) - dim U_l(g) . v."""
    module_dim(m, n, d, cap)  # the ambient cap before the walk's level cap
    dims = filtration_walk(m, n, d, l, cap).dims
    return enveloping_dim(m, n, l) - dims[l]


class SplitReport(NamedTuple):
    dim_ul_g: int
    dim_ul_n: int
    dim_ann: int
    split_holds: bool


def split_report(m: int, n: int, l: int, level_dim: int) -> SplitReport:
    """U_l(g) = U_l(n) + Ann_l(v) exactly when u -> u . v maps U_l(n) onto
    F_l = U_l(n) . v, whose dimension is `level_dim`, injectively."""
    dim_ul_g = enveloping_dim(m, n, l)
    dim_ul_n = comb(m * n + l, l)
    return SplitReport(dim_ul_g, dim_ul_n, dim_ul_g - level_dim, level_dim == dim_ul_n)


def verma_split_check(m: int, n: int, d: int, l: int,
                      cap: int = DEFAULT_AMBIENT_CAP) -> SplitReport:
    """Exact check that U_l(g) splits as U_l(n) plus the annihilator piece."""
    if not 1 <= l < d:
        raise ValueError("the split is only asserted for 1 <= l < d")
    module_dim(m, n, d, cap)  # the ambient cap before the walk's level cap
    return split_report(m, n, l, filtration_walk(m, n, d, l, cap).dims[l])


class RootPowerReport(NamedTuple):
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
            vec = act(root.lowering, vec, m, d)
            if vec.is_zero:
                below_nonzero = False
                break
        at_power_zero = below_nonzero and act(root.lowering, vec, m, d).is_zero
        out.append(RootPowerReport(root.index, power, below_nonzero, at_power_zero))
    return out


def char_ideal_generator_check(m: int, n: int, d: int, l: int,
                               cap: int = DEFAULT_AMBIENT_CAP) -> bool:
    """Every generator x(y - rho(y) 1), deg x <= l-1, y in the parabolic
    basis, annihilates v: the character ideal sits inside the annihilator."""
    if l < 1:
        raise ValueError("l must be at least 1")
    module_dim(m, n, d, cap)
    # x(y - rho(y)) v = 0 for every x exactly when (y - rho(y)) v = 0
    return _certified(m, n, d)


def multi_filtration(m: int, n: int, degrees: Sequence[int], l: int,
                     cap: int = DEFAULT_AMBIENT_CAP) -> int:
    """Dimension of U_l(g) applied to the span of the highest weight vectors
    of a direct sum of modules of the given degrees: the summands have
    disjoint columns, so it sums their dims[l], each degree grown once."""
    if not degrees:
        raise ValueError("need at least one degree")
    if not 1 <= l <= min(degrees):
        raise ValueError("l must satisfy 1 <= l <= min(degrees)")
    dims = {d: filtration_walk(m, n, d, l, cap).dims[l] for d in dict.fromkeys(degrees)}
    return sum(dims[d] for d in degrees)
