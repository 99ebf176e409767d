"""Sections of the Plücker line bundles in an explicit chart, and their
order-l truncations (jets) at the distinguished point.

Chart convention: the m-plane with chart matrix T (rows m+1..m+n, columns
1..m) is the column span of the (m+n) x m matrix [[I_m], [T]].  The chart
variable t_{ij} sits at absolute row i and column j; variables are ordered
lexicographically by (i, j), matching the order of the nilpotent basis
elements E_ij.  The distinguished point is T = 0, where the minor with
rows {1..m} (the local trivialization) is identically 1, so a section is
an honest polynomial in the chart variables and its order-l jet is literal
truncation at total degree l.

A section carries both its chart polynomial and its coordinates in the
degree-d Plücker monomial spanning set; the latter is what pairs against
module vectors.  `section_space` adds each monomial's integer chart row,
followed by a provenance 1 in its own column, to one `Echelon`; the basis
sections are the rows of `Echelon.canonical_rows` with a chart pivot, so
the chart coefficients and Plücker coordinates arrive scaled to 1 at the
pivot and in canonical form (an `int` when integral).

Chart columns are in graded order and the span is graded, so every basis
section is homogeneous and its pivot is its lowest-degree chart term.  Its
l-jet is nonzero exactly when the pivot has degree <= l, and those jets
keep distinct pivot columns, so `taylor_rank` counts them with no second
elimination.  `kernel_sections` keeps the sections whose l-jet vanishes and
certifies their count against it (basis size - rank, else CertificateError);
the rank of `taylor_matrix` is its count of nonzero rows.

`level_duality` checks the filtration/jet duality on a level of a canonical
filtration the caller has grown, so one filtration serves every level;
`duality_check(m, n, d, l)` grows level l and calls it.  The pairing of the
level basis with the vanishing-jet sections is one sparse integer product
(`plethysm.pairing_vanishes`): the sections' Plücker coordinates and the
level vectors are scaled to primitive integers, which moves no zero, and
the matching-count weights are folded in once per index; `plethysm.pair`
stays as the all-pairs reference.

Memoized for the life of the process: the chart minor behind
`plucker_polynomial`, keyed by (sorted rows, m, n); the argument check and
sort of `plucker_polynomial`, keyed by the subset as given (an invalid subset
raises on every call and is not stored); and the jet-monomial columns with
their index, keyed by (m, n, l).  `plucker_polynomial` returns a new
`SectionPolynomial` (chart and Plücker map copied) on every call, and
`jet_monomials` a new list.

`section_space` reads every factor of every monomial through
`plucker_polynomial` on every call and keys `_reduced_family`, an
`lru_cache` with `maxsize=1`, by (nvars, d, (wedge, minor term items) per
wedge).  Only a miss multiplies, taking the monomials from the degree-d
layer of `polynomials.graded_pullbacks` of the packed minors; it sorts the
columns, eliminates in a provenance `Echelon` and reads `canonical_rows`.
A changed minor never meets a stale basis; a case's calls are consecutive
in every caller, so one entry catches every repeat; every call returns new
sections.  The factors are read on a hit only because the benchmark's desk
workload pins the `section_space` (90) and `plucker_polynomial` (4,640)
call counts; once ROADMAP item 1 re-pins them, key on (m, n, d, cap).
`section_monomial` and `monomial_sections` are the test reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, islice
from typing import Mapping, Sequence

from .errors import CertificateError
from .filtration import FiltrationLevel, canonical_filtration
# kernel_basis is unused here but stays bound: perfbench's layer tracer
# rebinds and checks `jets.kernel_basis`.
from .linalg import Echelon, SparseMatrix, kernel_basis  # noqa: F401
from .plethysm import DEFAULT_AMBIENT_CAP, SymIndex, pairing_vanishes, sym_basis
from .polynomials import (Poly, _field_width, _pack_terms, _unpack, det, graded_monomials,
                          graded_pullbacks)


def chart_variables(m: int, n: int) -> list[tuple[int, int]]:
    """The mn chart positions (i, j), i in m+1..m+n, j in 1..m, in lex order."""
    return [(i, j) for i in range(m + 1, m + n + 1) for j in range(1, m + 1)]


_ONE = Fraction(1)  # immutable, so every Plücker map may share it


@dataclass
class SectionPolynomial:
    """A global section in chart coordinates, with Plücker-monomial provenance."""

    chart: Poly
    plucker: dict[SymIndex, int | Fraction]

    def value_at_origin(self) -> int | Fraction:
        return self.chart.coefficient((0,) * self.chart.nvars)


@lru_cache(maxsize=None)
def _chart_minor(rows: tuple[int, ...], m: int, n: int) -> Poly:
    """The minor with the given (sorted, checked) rows of [[I_m], [T]]."""
    variables = chart_variables(m, n)
    var_index = {pos: k for k, pos in enumerate(variables)}
    nvars = len(variables)
    matrix: list[list[Poly]] = []
    for r in rows:
        if r <= m:
            matrix.append([Poly.const(nvars, 1 if c == r else 0)
                           for c in range(1, m + 1)])
        else:
            matrix.append([Poly.variable(nvars, var_index[(r, c)])
                           for c in range(1, m + 1)])
    return det(matrix)


def _chart_copy(nvars: int, terms: dict) -> Poly:
    """A Poly owning a copy of `terms`, which are already canonical."""
    chart = Poly(nvars)
    chart.terms = dict(terms)
    return chart


@lru_cache(maxsize=None)
def _checked_minor(subset: tuple[int, ...], m: int, n: int) -> tuple[tuple[int, ...], Poly]:
    """The sorted rows of a valid subset and their chart minor; an invalid
    subset raises and is not stored."""
    rows = tuple(sorted(subset))
    if len(rows) != m or len(set(rows)) != m:
        raise ValueError(f"need {m} distinct row indices")
    if rows[0] < 1 or rows[-1] > m + n:
        raise ValueError(f"row indices must lie in 1..{m + n}")
    return rows, _chart_minor(rows, m, n)


def plucker_polynomial(subset: Sequence[int], m: int, n: int) -> SectionPolynomial:
    """The m x m minor with the given rows of [[I_m], [T]], in the chart
    normalized so the minor for rows {1..m} is 1."""
    rows, minor = _checked_minor(subset if type(subset) is tuple else tuple(subset), m, n)
    return SectionPolynomial(_chart_copy(minor.nvars, minor.terms), {(rows,): _ONE})


def section_monomial(multiset: SymIndex, m: int, n: int) -> SectionPolynomial:
    """Product of Plücker chart polynomials over a degree-d multiset (test reference)."""
    chart = Poly.const(m * n, 1)
    for subset in multiset:
        chart = chart * plucker_polynomial(subset, m, n).chart
    return SectionPolynomial(chart, {tuple(sorted(multiset)): _ONE})


def monomial_sections(m: int, n: int, d: int,
                      cap: int = DEFAULT_AMBIENT_CAP) -> list[SectionPolynomial]:
    """The degree-d Plücker monomial family in canonical basis order (test reference)."""
    return [section_monomial(idx, m, n) for idx in sym_basis(m, n, d, cap)]


@lru_cache(maxsize=None)
def _jet_columns(m: int, n: int, l: int) -> tuple[tuple, dict]:
    """The jet monomials of degree <= l and their column index."""
    if l < 0:
        raise ValueError("l must be non-negative")
    columns = tuple(graded_monomials(m * n, l))
    return columns, {exps: k for k, exps in enumerate(columns)}


def jet_monomials(m: int, n: int, l: int) -> list[tuple[int, ...]]:
    """Chart-variable exponent tuples of total degree <= l, graded lex."""
    return list(_jet_columns(m, n, l)[0])


def jet_truncation(section: SectionPolynomial, m: int, n: int,
                   l: int) -> tuple[int | Fraction, ...]:
    """Coefficient vector of the order-l truncation at the origin."""
    columns, index = _jet_columns(m, n, l)
    out = [Fraction(0)] * len(columns)
    for exps, c in section.chart.terms.items():
        k = index.get(exps)
        if k is not None:
            out[k] = c
    return tuple(out)


@lru_cache(maxsize=1)
def _reduced_family(nvars: int, d: int, minors: tuple) -> tuple[tuple[dict, dict], ...]:
    """(chart terms, Plücker coordinates) of each basis section of the span
    of the degree-d monomials in `minors`, (wedge, chart term items) per wedge,
    packed at d times their largest exponent; the caller copies both dicts."""
    wedges = [wedge for wedge, _ in minors]
    bits = _field_width(d * max((e for _, items in minors for exps, _ in items for e in exps),
                                default=0))
    products = next(islice(graded_pullbacks([_pack_terms(dict(items), bits)
                                             for _, items in minors], d), d - 1, None))
    family = list(combinations_with_replacement(wedges, d))  # `sym_basis` order
    charts = [{_unpack(key, nvars, bits): c
               for key, c in products[tuple(map(idx.count, wedges))].items()} for idx in family]
    columns = sorted({exps for terms in charts for exps in terms},
                     key=lambda e: (sum(e), e))
    col_index = {exps: k for k, exps in enumerate(columns)}
    width = len(columns)
    echelon = Echelon(width + len(family))
    for r, terms in enumerate(charts):
        row = {col_index[exps]: c for exps, c in terms.items()}
        row[width + r] = 1  # provenance tracking
        echelon.add(row)
    basis = []
    for pivot, row in echelon.canonical_rows():
        if pivot >= width:
            break  # pure Plücker relations, not sections, pivot last
        basis.append(({columns[c]: v for c, v in row.items() if c < width},
                      {family[c - width]: v for c, v in row.items() if c >= width}))
    return tuple(basis)


def section_space(m: int, n: int, d: int,
                  cap: int = DEFAULT_AMBIENT_CAP) -> list[SectionPolynomial]:
    """Row-reduced basis of the span of all degree-d Plücker monomials.

    Plücker relations are handled implicitly: dependent monomials reduce
    away, and each basis section keeps exact coordinates over the monomial
    family so it can be paired against module vectors.  The products and
    their elimination are `_reduced_family`, memoized on the minor of each
    wedge; every call returns fresh copies (see the module docstring).
    """
    minors = {}  # first seen in `wedge_basis` order
    for idx in sym_basis(m, n, d, cap):
        for s in idx:
            minors[s] = plucker_polynomial(s, m, n).chart.terms
    key = tuple((wedge, tuple(terms.items())) for wedge, terms in minors.items())
    return [SectionPolynomial(_chart_copy(m * n, chart), dict(plucker))
            for chart, plucker in _reduced_family(m * n, d, key)]


def taylor_matrix(m: int, n: int, d: int, l: int,
                  cap: int = DEFAULT_AMBIENT_CAP) -> tuple[SparseMatrix, int]:
    """Rows are basis sections, columns the jet monomials of degree <= l;
    returns the matrix together with its exact rank, the number of nonzero
    rows (see `taylor_rank`)."""
    if l < 1:
        raise ValueError("l must be at least 1")
    columns, index = _jet_columns(m, n, l)
    rows = [{index[exps]: c for exps, c in s.chart.terms.items() if exps in index}
            for s in section_space(m, n, d, cap)]
    return SparseMatrix.from_rows(rows, cols=len(columns)), sum(1 for row in rows if row)


def taylor_rank(m: int, n: int, d: int, l: int, cap: int = DEFAULT_AMBIENT_CAP) -> int:
    """Rank of the Taylor map to l-jets at the origin: the number of basis
    sections with a chart term of degree <= l.  The basis is the reduced
    echelon form over graded chart columns, so a section's pivot is its
    lowest-degree term and its l-jet is nonzero exactly when the pivot has
    degree <= l; those jets keep distinct pivot columns, so are independent."""
    if l < 1:
        raise ValueError("l must be at least 1")
    return sum(1 for s in section_space(m, n, d, cap)
               if any(sum(exps) <= l for exps in s.chart.terms))


def monomial_jet_projective(exponents: Sequence[int], l: int) -> tuple[Fraction, ...]:
    """Order-l jet of a projective-space monomial section in the chart at
    index 0: the unit vector at the residual exponents when their total
    degree is at most l, and zero otherwise."""
    if not exponents:
        raise ValueError("need at least one exponent")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be non-negative")
    n = len(exponents) - 1
    tail = tuple(exponents[1:])
    columns, index = _jet_columns(1, n, l)
    out = [Fraction(0)] * len(columns)
    if sum(tail) <= l:
        out[index[tail]] = Fraction(1)
    return tuple(out)


def kernel_sections(m: int, n: int, d: int, l: int,
                    cap: int = DEFAULT_AMBIENT_CAP
                    ) -> tuple[list[SectionPolynomial], int]:
    """Basis of the sections whose order-l jet vanishes, with its dimension:
    the basis sections with no chart term of degree <= l, certified by the
    Taylor rank."""
    if not 1 <= l <= d:
        raise ValueError("l must satisfy 1 <= l <= d")
    basis = section_space(m, n, d, cap)
    rank = taylor_rank(m, n, d, l, cap)
    out = [s for s in basis if s.chart.truncate(l).is_zero]
    if len(out) != len(basis) - rank:
        raise CertificateError(f"{len(out)} sections with vanishing {l}-jet, "
                               f"expected {len(basis)} - {rank}")
    return out, len(out)


@dataclass
class DualityReport:
    filtration_dim: int
    taylor_rank: int
    dim_match: bool
    pairing_vanishes: bool

    @property
    def ok(self) -> bool:
        return self.dim_match and self.pairing_vanishes


def level_duality(m: int, n: int, d: int, level: FiltrationLevel,
                  cap: int) -> DualityReport:
    """Level l, 1 <= l < d, of the canonical filtration of degree d and the
    space of l-jets have equal dimension, and every vector of the level
    pairs to zero with every vanishing-jet section."""
    l = level.level
    rank = taylor_rank(m, n, d, l, cap)
    vanishing, _ = kernel_sections(m, n, d, l, cap)
    return DualityReport(level.dim, rank, level.dim == rank,
                         pairing_vanishes(level.basis, vanishing))


def duality_check(m: int, n: int, d: int, l: int,
                  cap: int = DEFAULT_AMBIENT_CAP) -> DualityReport:
    """`level_duality` on level l of a newly grown canonical filtration."""
    if not 1 <= l < d:
        raise ValueError("the duality is only asserted for 1 <= l < d")
    return level_duality(m, n, d, canonical_filtration(m, n, d, l, cap).levels[l], cap)


def _chart_point(m: int, n: int, point) -> dict[tuple[int, int], Fraction]:
    variables = chart_variables(m, n)
    if isinstance(point, Mapping):
        values = {pos: Fraction(point.get(pos, 0)) for pos in variables}
        extra = set(point) - set(variables)
        if extra:
            raise ValueError(f"unknown chart positions {sorted(extra)}")
        return values
    rows = list(point)
    if len(rows) != n or any(len(row) != m for row in rows):
        raise ValueError(f"chart point must be an {n} x {m} array")
    return {(m + 1 + r, 1 + c): Fraction(rows[r][c])
            for r in range(n) for c in range(m)}


def chart_homogeneity_check(m: int, n: int, d: int, l: int, point,
                            cap: int = DEFAULT_AMBIENT_CAP) -> bool:
    """Rank of the Taylor matrix re-expanded around another chart point
    equals the rank at the origin."""
    if l < 1:
        raise ValueError("l must be at least 1")
    values = _chart_point(m, n, point)
    variables = chart_variables(m, n)
    nvars = len(variables)
    subs = [Poly.variable(nvars, k) + values[pos]
            for k, pos in enumerate(variables)]
    columns, col_index = _jet_columns(m, n, l)
    shifted = Echelon(len(columns))
    for s in section_space(m, n, d, cap):
        jet = s.chart.substitute(subs, nvars_out=nvars).truncate(l)
        shifted.add({col_index[exps]: c for exps, c in jet.terms.items()})
    return shifted.rank == taylor_rank(m, n, d, l, cap)
