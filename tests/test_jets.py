import ast
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import pytest

from vermajet.filtration import (apply_pbw_monomial, canonical_filtration, filtration_walk,
                                 weyl_dim_oracle)
from vermajet.lie import SubalgebraTag, build_context
from vermajet.linalg import SparseMatrix, rank, span_dim
from vermajet.plethysm import (DEFAULT_AMBIENT_CAP, highest_weight_vector, module_dim,
                               sym_basis, wedge_basis, wedge_counts, wedge_keys)
from vermajet.polynomials import Poly
from vermajet import cli, jets, suite
from vermajet.jets import (duality_check, kernel_sections, level_duality, plucker_polynomial,
                           section_space, taylor_matrix)
from vermajet.suite import DESK_CASES, MAX_FILTRATION_LEVEL

from reference import (_jet_columns, chart_homogeneity_check, chart_product, chart_variables,
                       evaluation_matrix, jet_monomials, jet_truncation, monomial_jet_projective,
                       monomial_sections, pack, pair, section_monomial, standard_chains,
                       truncate, unpack)


def _t(m, n, i, j):
    variables = chart_variables(m, n)
    return Poly.variable(len(variables), variables.index((i, j)))


def _chart(chain, m, n, d):
    """The chart polynomial of a basis chain: its minors multiplied out."""
    return section_monomial(chain, m, n, d).chart


def _t_degree(chain, m, n, d):
    """The chain's number of row indices > m."""
    return sum(i > m for wedge in unpack(chain, m, n, d) for i in wedge)


def test_plucker_minors_gr24():
    t31, t32 = _t(2, 2, 3, 1), _t(2, 2, 3, 2)
    t41, t42 = _t(2, 2, 4, 1), _t(2, 2, 4, 2)
    assert plucker_polynomial((1, 3), 2, 2).chart == t32
    assert plucker_polynomial((1, 2), 2, 2).chart == Poly.const(4, 1)
    assert plucker_polynomial((3, 4), 2, 2).chart == t31 * t42 - t32 * t41
    assert plucker_polynomial((2, 3), 2, 2).chart == -t31


def test_plucker_projective_chart():
    for k in range(2, 5):
        assert plucker_polynomial((k,), 1, 3).chart == _t(1, 3, k, 1)
    assert plucker_polynomial((1,), 1, 3).chart == Poly.const(3, 1)


def test_plucker_relation_vanishes_in_chart():
    p = {frozenset(s): plucker_polynomial(tuple(sorted(s)), 2, 2).chart
         for s in [(1, 2), (3, 4), (1, 3), (2, 4), (1, 4), (2, 3)]}
    relation = (p[frozenset((1, 2))] * p[frozenset((3, 4))]
                - p[frozenset((1, 3))] * p[frozenset((2, 4))]
                + p[frozenset((1, 4))] * p[frozenset((2, 3))])
    assert relation.is_zero


def test_degree_one_chart_polynomials_independent():
    sections = monomial_sections(2, 2, 1)
    vectors = [jet_truncation(s, 2, 2, 2) for s in sections]
    assert span_dim(vectors) == 6


def test_section_space_projective_line():
    # The chain x_1^a x_2^b, a + b = 3, is the key (a << 2) + b, whose chart
    # polynomial is t^b.
    basis = section_space(1, 1, 3)
    assert basis == (12, 9, 6, 3)
    assert basis == tuple(pack(((1,),) * a + ((2,),) * (3 - a), 1, 1) for a in (3, 2, 1, 0))
    t = Poly.variable(1, 0)
    assert [_chart(chain, 1, 1, 3) for chain in basis] == [Poly.const(1, 1), t, t * t, t * t * t]


def test_section_space_dimensions():
    assert len(section_space(2, 2, 1)) == 6
    assert len(section_space(2, 2, 2)) == 20  # 21 monomials minus one relation


def test_section_space_matches_oracle():
    for m, n, d in [(1, 1, 3), (1, 2, 3), (1, 3, 2), (2, 2, 2)]:
        assert len(section_space(m, n, d)) == weyl_dim_oracle(m, n, d)


def test_taylor_ranks():
    assert taylor_matrix(1, 1, 3, 1)[1] == 2
    assert taylor_matrix(1, 2, 2, 2)[1] == 6
    assert taylor_matrix(2, 2, 2, 1)[1] == 5


def test_taylor_surjective_through_degree():
    for m, n, d in [(1, 1, 3), (1, 2, 2), (2, 2, 2)]:
        for l in range(1, d + 1):
            assert taylor_matrix(m, n, d, l)[1] == comb(m * n + l, m * n)


def test_monomial_jet_projective_rule():
    assert monomial_jet_projective((2, 1), 1) == (Fraction(0), Fraction(1))
    assert monomial_jet_projective((3, 0), 1) == (Fraction(1), Fraction(0))
    assert monomial_jet_projective((1, 2), 1) == (Fraction(0), Fraction(0))


def test_taylor_matches_projective_rule_entrywise():
    m = 1
    for n in (1, 2):
        for d in (2, 3):
            sections = monomial_sections(m, n, d)
            for l in range(1, d + 1):
                for s in sections:
                    (multiset,) = s.plucker
                    exps = [0] * (n + 1)
                    for (k,) in unpack(multiset, m, n, d):
                        exps[k - 1] += 1
                    assert jet_truncation(s, m, n, l) == monomial_jet_projective(exps, l)


def _coeff_vector(poly, columns):
    return tuple(poly.coefficient(e) for e in columns)


def test_kernel_sections_projective_line():
    sections, dim = kernel_sections(1, 1, 3, 1)
    assert dim == 2
    t = Poly.variable(1, 0)
    columns = jet_monomials(1, 1, 3)
    vectors = [jet_truncation(section_monomial(c, 1, 1, 3), 1, 1, 3) for c in sections]
    expected = [_coeff_vector(t ** 2, columns), _coeff_vector(t ** 3, columns)]
    assert span_dim(vectors + expected) == 2


def test_kernel_dimension_rank_nullity():
    sections, dim = kernel_sections(1, 2, 3, 1)
    assert dim == 10 - 3
    _, dim_full = kernel_sections(1, 1, 4, 4)
    assert dim_full == 0


def test_kernel_sections_have_vanishing_jets():
    for m, n, d, l in [(1, 1, 3, 1), (2, 2, 2, 1), (1, 2, 3, 2)]:
        sections, _ = kernel_sections(m, n, d, l)
        for chain in sections:
            assert truncate(_chart(chain, m, n, d), l).is_zero


def test_duality_reports():
    report = duality_check(1, 1, 3, 1)
    assert (report.filtration_dim, report.taylor_rank) == (2, 2)
    assert report.ok
    report = duality_check(2, 2, 2, 1)
    assert (report.filtration_dim, report.taylor_rank) == (5, 5)
    assert report.ok
    report = duality_check(1, 2, 3, 2)
    assert (report.filtration_dim, report.taylor_rank) == (6, 6)
    assert report.ok


def test_duality_rejects_large_level():
    with pytest.raises(ValueError):
        duality_check(1, 1, 3, 3)


def test_pairing_measures_value_at_origin():
    # <v, s> is a fixed positive multiple of the chart value of s at the
    # distinguished point, so sections vanishing there pair to zero.
    for m, n, d in [(1, 1, 3), (2, 2, 2)]:
        v = highest_weight_vector(m, n, d)
        for chain in section_space(m, n, d):
            assert pair(v, chain, m, n, d) == \
                factorial(d) * _chart(chain, m, n, d).coefficient((0,) * m * n)


def test_chart_homogeneity():
    assert chart_homogeneity_check(1, 1, 3, 1, [[1]])
    assert chart_homogeneity_check(2, 2, 2, 1, [[1, 2], [0, 1]])
    assert chart_homogeneity_check(2, 2, 2, 1, [[0, 0], [0, 0]])


def test_chart_homogeneity_mapping_form():
    assert chart_homogeneity_check(1, 2, 2, 1, {(2, 1): Fraction(1, 2), (3, 1): 1})


def test_taylor_matrix_equals_origin_truncations():
    matrix, _ = taylor_matrix(1, 1, 3, 2)
    basis = section_space(1, 1, 3)
    rows = [jet_truncation(section_monomial(c, 1, 1, 3), 1, 1, 2) for c in basis]
    assert matrix == SparseMatrix.from_rows(rows, cols=3)


def test_jet_monomial_count_formula():
    for m, n, l in [(1, 1, 3), (2, 2, 2), (1, 3, 2), (2, 1, 4)]:
        assert len(jet_monomials(m, n, l)) == comb(m * n + l, m * n)


def test_section_provenance_matches_chart():
    # At the top t-degree every row of the Taylor matrix is a whole chart
    # polynomial: the product of the minors of its chain.
    for m, n, d in [(1, 2, 2), (2, 2, 2)]:
        top = min(m, n) * d
        matrix, taylor_rank = taylor_matrix(m, n, d, top)
        basis = section_space(m, n, d)
        assert taylor_rank == len(basis)
        columns = jet_monomials(m, n, top)
        for r, chain in enumerate(basis):
            row = {columns[c]: v for (i, c), v in matrix.entries.items() if i == r}
            assert Poly(m * n, row) == _chart(chain, m, n, d)


def test_memoized_results_are_isolated_from_callers():
    first = plucker_polynomial((1, 3), 2, 2)
    plucker, chart = dict(first.plucker), dict(first.chart.terms)
    first.plucker[1 << 5] = Fraction(5)
    first.chart.terms.clear()
    again = plucker_polynomial((1, 3), 2, 2)
    assert again.plucker == plucker and again.chart.terms == chart

    columns = jet_monomials(2, 2, 2)
    recorded = list(columns)
    columns.reverse()
    columns.append((9, 9, 9, 9))
    assert jet_monomials(2, 2, 2) == recorded
    section = plucker_polynomial((1, 3), 2, 2)
    assert len(jet_truncation(section, 2, 2, 2)) == len(recorded)


@pytest.mark.parametrize("m,n,d", DESK_CASES)
def test_matrix_ranks_match_sympy_on_desk_cases(m, n, d):
    sympy = pytest.importorskip("sympy")

    def sympy_rank(matrix):
        dense = sympy.Matrix(matrix.rows, matrix.cols,
                             lambda r, c: matrix.entries.get((r, c), 0))
        return dense.rank()

    for l in range(3):
        for subalgebra in ("all", SubalgebraTag.N):
            matrix = evaluation_matrix(m, n, d, l, subalgebra)
            assert rank(matrix) == sympy_rank(matrix)
    for l in sorted(set(range(1, min(d - 1, MAX_FILTRATION_LEVEL) + 1)) | {d}):
        matrix, taylor_rank = taylor_matrix(m, n, d, l)
        assert taylor_rank == sympy_rank(matrix)


@pytest.mark.parametrize("subset", [(1, 1), (0, 2), (1, 2, 3), (1, 5)])
def test_plucker_polynomial_rejects_invalid_rows_on_every_call(subset):
    for _ in range(2):
        with pytest.raises(ValueError):
            plucker_polynomial(subset, 2, 2)
        with pytest.raises(ValueError):
            plucker_polynomial(list(subset), 2, 2)


@pytest.mark.parametrize("subset,m,n", [((), 0, 2), ((1,), 1, 0), ((), 0, 0), ((1,), 1, -1)])
def test_plucker_polynomial_rejects_an_empty_grassmannian_on_every_call(subset, m, n):
    # `module_dim` refuses m < 1 or n < 1, and so does every minor read.
    stored = jets._checked_minor.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="at least 1"):
            plucker_polynomial(subset, m, n)
    assert jets._checked_minor.cache_info().currsize == stored


def test_plucker_polynomial_sorts_its_rows():
    unsorted, ordered = plucker_polynomial((3, 1), 2, 2), plucker_polynomial((1, 3), 2, 2)
    assert unsorted.chart == ordered.chart == _t(2, 2, 3, 2)
    # (1, 3) is wedge 1 of 6: its count sits in field 4 of 1-bit fields
    assert unsorted.plucker == ordered.plucker == {1 << 4: 1}
    assert plucker_polynomial([3, 1], 2, 2).plucker == ordered.plucker


def test_plucker_polynomial_returns_fresh_maps():
    first = plucker_polynomial((2, 4), 2, 2)
    want = (dict(first.chart.terms), dict(first.plucker))
    first.chart.terms.clear()
    first.plucker[(1 << 6) - 1] = 5
    second = plucker_polynomial((2, 4), 2, 2)
    assert (second.chart.terms, second.plucker) == want
    assert second.chart is not first.chart and second.plucker is not first.plucker
    assert type(second) is jets.SectionPolynomial and second.chart.nvars == 4
    # each map is copied on its first read, and later reads return that copy
    assert second.chart is second.chart and second.plucker is second.plucker
    # the constructor stores the objects it is given
    chart, plucker = Poly.const(4, 2), {1 << 4: 1}
    made = jets.SectionPolynomial(chart, plucker)
    assert made.chart is chart and made.plucker is plucker


def test_empty_section_monomial_is_one():
    from reference import section_monomial
    empty = section_monomial(0, 2, 2, 0)
    assert empty.chart == Poly.const(4, 1) and empty.plucker == {0: 1}


def _section_space_by_fractions(m, n, d):
    # The all-monomials oracle: every degree-d Plücker monomial eliminated in
    # one echelon with a provenance column each, the basis read with
    # Fraction(v, pivot) and the validating Poly constructor.  Its span has
    # dimension dim V(d w_m).
    from vermajet.jets import SectionPolynomial
    from vermajet.linalg import Echelon
    raw = monomial_sections(m, n, d)
    columns = sorted({e for s in raw for e in s.chart.terms}, key=lambda e: (sum(e), e))
    col_index = {exps: k for k, exps in enumerate(columns)}
    width = len(columns)
    echelon = Echelon(width + len(raw))
    for r, s in enumerate(raw):
        row = {col_index[exps]: c for exps, c in s.chart.terms.items()}
        row[width + r] = 1
        echelon.add(row)
    basis = []
    for pivot, row in zip(echelon.pivots, echelon.reduced()):
        if pivot >= width:
            break
        scale = row[pivot]
        chart = {columns[c]: Fraction(v, scale) for c, v in row.items() if c < width}
        plucker = {next(iter(raw[c - width].plucker)): Fraction(v, scale)
                   for c, v in row.items() if c >= width}
        basis.append(SectionPolynomial(Poly(m * n, chart), plucker))
    return basis


def _chart_span_dim(*bases):
    """Dimension of the span of the chart polynomials of all the sections."""
    index = {}
    rows = [{index.setdefault(exps, len(index)): c for exps, c in s.chart.terms.items()}
            for basis in bases for s in basis]
    return span_dim(rows, len(index))


def _assert_same_chart_span(basis, reference):
    assert len(basis) == len(reference) == _chart_span_dim(basis) == \
        _chart_span_dim(reference) == _chart_span_dim(basis, reference)


# The grassmannian cases of the benchmark; (2,2,4) multiplies along
# prefixes of length up to 3.
DEEPER_CASES = ((2, 2, 4), (2, 3, 3), (3, 3, 2))


@pytest.mark.parametrize("m,n,d", DESK_CASES + DEEPER_CASES)
def test_section_space_is_the_standard_chains_by_t_degree(m, n, d):
    standard = standard_chains(m, n, d)
    assert section_space(m, n, d) == tuple(sorted(standard,
                                                  key=lambda c: _t_degree(c, m, n, d)))


@pytest.mark.parametrize("m,n,d", DESK_CASES + DEEPER_CASES)
def test_section_space_and_taylor_matrix_match_fraction_references(m, n, d):
    basis = section_space(m, n, d)
    reference = _section_space_by_fractions(m, n, d)
    assert len(reference) == weyl_dim_oracle(m, n, d)
    sections = [section_monomial(chain, m, n, d) for chain in basis]
    _assert_same_chart_span(sections, reference)
    # Every level from 1 through one past the top t-degree min(m, n) * d,
    # from which on every row is its whole chart product.
    for l in range(1, min(m, n) * d + 2):
        # Every row, the empty rows of the sections of degree > l included,
        # is the literal truncation of its chain's product.
        matrix, matrix_rank = taylor_matrix(m, n, d, l)
        expected = SparseMatrix.from_rows([jet_truncation(s, m, n, l) for s in sections],
                                          cols=comb(m * n + l, m * n))
        assert matrix == expected
        assert all(type(v) is Fraction for v in matrix.entries.values())
        assert matrix_rank == rank(matrix)
        assert jets.taylor_rank(m, n, d, l) == rank(matrix)


def test_a_patched_minor_shows_in_taylor_matrix_and_not_in_section_space(monkeypatch):
    m, n, d, l = 2, 2, 3, 3
    want = section_space(m, n, d)
    minor = jets.plucker_polynomial

    def scaled(subset, m, n):
        s = minor(subset, m, n)
        if tuple(sorted(subset)) == (1, 3):
            return jets.SectionPolynomial(s.chart * 3, s.plucker)
        return s

    monkeypatch.setattr(jets, "plucker_polynomial", scaled)
    jets._reduced_family.cache_clear()
    assert section_space(m, n, d) == want
    # `section_monomial` multiplies the same patched factors, so each row
    # is 3^k times the unpatched one, k the count of (1, 3) in its chain.
    matrix, matrix_rank = taylor_matrix(m, n, d, l)
    expected = [jet_truncation(section_monomial(chain, m, n, d), m, n, l) for chain in want]
    assert matrix == SparseMatrix.from_rows(expected, cols=comb(m * n + l, m * n))
    assert matrix_rank == jets.taylor_rank(m, n, d, l)
    monkeypatch.undo()
    unpatched, _ = taylor_matrix(m, n, d, l)
    scale = {r: 3 ** unpack(chain, m, n, d).count((1, 3)) for r, chain in enumerate(want)}
    assert matrix.entries == {(r, c): v * scale[r] for (r, c), v in unpatched.entries.items()}
    assert any(scale[r] > 1 for r, _ in unpatched.entries)


def test_taylor_matrix_packs_the_exponents_of_the_minors_read(monkeypatch):
    # A patched minor t32^2 gives the chain (1,3)^3 the exponent 6 on t32,
    # past the 2 bits of d = 3 that multilinear minors would need.
    m, n, d = 2, 2, 3
    minor = jets.plucker_polynomial

    def squared(subset, m, n):
        s = minor(subset, m, n)
        if tuple(sorted(subset)) == (1, 3):
            return jets.SectionPolynomial(s.chart * s.chart, s.plucker)
        return s

    monkeypatch.setattr(jets, "plucker_polynomial", squared)
    chains = section_space(m, n, d)
    for l in (d, 2 * d, 2 * d + 1):
        matrix, nonzero = taylor_matrix(m, n, d, l)
        expected = [jet_truncation(section_monomial(chain, m, n, d), m, n, l)
                    for chain in chains]
        assert matrix == SparseMatrix.from_rows(expected, cols=comb(m * n + l, m * n))
        assert nonzero == sum(1 for row in expected if any(row))


def _counted_reads_and_products(monkeypatch):
    """Live counts of `jets.plucker_polynomial` reads and `Poly.__mul__` calls."""
    calls = {"plucker": 0, "mul": 0}
    minor, mul = jets.plucker_polynomial, Poly.__mul__

    def counted_minor(subset, m, n):
        calls["plucker"] += 1
        return minor(subset, m, n)

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(jets, "plucker_polynomial", counted_minor)
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    return calls


@pytest.mark.parametrize("m,n,d", DEEPER_CASES)
def test_taylor_matrix_multiplies_no_poly_and_reads_each_minor_once(monkeypatch, m, n, d):
    # `taylor_matrix` reads each wedge's minor once and nothing else (none of
    # `section_space`'s pinned reads), and its products run on packed keys.
    calls = _counted_reads_and_products(monkeypatch)
    for l in (1, d):
        taylor_matrix(m, n, d, l)
        assert calls == {"plucker": comb(m + n, m), "mul": 0}
        calls["plucker"] = 0


def test_jet_column_is_the_position_in_graded_order():
    # the closed-form rank against the enumerated columns of `graded_monomials`
    for nvars in range(1, 10):
        for l in range(7):
            columns, _ = _jet_columns(1, nvars, l)
            assert [jets._jet_column(exps) for exps in columns] == list(range(len(columns)))


# the (m, n, d) cases and Taylor levels of the benchmark's grassmannian workload
GRASSMANNIAN_TAYLOR = {(2, 2, 4): (3, 4), (2, 3, 3): (2, 3), (3, 3, 2): (1, 2)}


@pytest.mark.parametrize("m,n,d", GRASSMANNIAN_TAYLOR)
def test_taylor_matrix_columns_do_not_depend_on_l(m, n, d):
    # A monomial's column is its position in graded order, whatever l is, so
    # the rows below `taylor_rank(l)` are the same at l and at l + 1.
    for l in GRASSMANNIAN_TAYLOR[m, n, d]:
        matrix, rank = taylor_matrix(m, n, d, l)
        wider, _ = taylor_matrix(m, n, d, l + 1)
        assert rank == jets.taylor_rank(m, n, d, l)
        assert matrix.entries == {(r, c): v for (r, c), v in wider.entries.items() if r < rank}
        assert (wider.rows, wider.cols) == (matrix.rows, comb(m * n + l + 1, l + 1))


@pytest.mark.parametrize("m,n,d", DESK_CASES + DEEPER_CASES)
def test_module_action_is_the_taylor_matrix_scaled(m, n, d):
    # n is abelian and each t_ij E_ij squares to 0 on V, so exp(sum t_ij E_ij)
    # sends e_1 ^ ... ^ e_m to sum_w Delta_w(T) e_w, and
    # sum_a t^a / a! z^a v = (sum_w Delta_w(T) e_w)^d.  At every key c with
    # wedge counts c_w: z^a v [c] = a! (d! / prod c_w!) [t^a] prod Delta_w^(c_w),
    # the product of chart minors expanded by `det` in `tests/reference.py`;
    # at a standard chain that coefficient is also its Taylor entry.  The move
    # table with `act` and the chart minors with their packed products are
    # two constructions of one matrix.
    l = d
    generators = build_context(m, n).subalgebra_basis(SubalgebraTag.N)
    v = highest_weight_vector(m, n, d)
    matrix, _ = taylor_matrix(m, n, d, l)
    row = {chain: r for r, chain in enumerate(section_space(m, n, d))}
    keys = sym_basis(m, n, d)
    scale = {c: factorial(d) // prod(factorial(e) for _, e in wedge_counts(c, m, n, d))
             for c in keys}
    products = {c: chart_product(unpack(c, m, n, d), m, n).terms for c in keys}
    for column, a in enumerate(jet_monomials(m, n, l)):
        image = apply_pbw_monomial(generators, a, v, m, d).coeffs
        a_factorial = prod(map(factorial, a))
        assert image.keys() <= products.keys()
        for c in keys:
            assert image.get(c, 0) == a_factorial * scale[c] * products[c].get(a, 0)
        for c, r in row.items():
            assert products[c].get(a, 0) == matrix.entries.get((r, column), 0)


@pytest.mark.parametrize("m,n,d", DESK_CASES)
def test_level_duality_equals_duality_check(m, n, d):
    # One walk to d serves every level, as in the desk suite.
    walk = filtration_walk(m, n, d, d)
    for l in range(1, min(d - 1, MAX_FILTRATION_LEVEL) + 1):
        report = level_duality(m, n, d, walk, l, DEFAULT_AMBIENT_CAP)
        assert report == duality_check(m, n, d, l)


@pytest.mark.parametrize("m,n,d", [(1, 2, 3), (1, 3, 2), (2, 3, 2), (1, 4, 2), (2, 2, 3),
                                   (1, 2, 4)])
def test_dual_grassmannians_have_equal_filtrations_and_taylor_ranks(m, n, d):
    # Gr(m, m+n) and Gr(n, m+n) are isomorphic, so a convention that mixes up
    # m and n shows as a difference between the two sides.
    assert canonical_filtration(m, n, d, d).dims == canonical_filtration(n, m, d, d).dims
    for l in range(1, d + 1):
        assert jets.taylor_rank(m, n, d, l) == jets.taylor_rank(n, m, d, l)


@pytest.mark.parametrize("m,n,d", DESK_CASES + DEEPER_CASES)
def test_sections_carry_one_plucker_coordinate_equal_to_one(m, n, d):
    # A basis section is its chain, the Plücker monomial {chain: 1}, keyed
    # as module vectors are; the support check of `level_duality` reads the
    # pairing off this.
    chains = section_space(m, n, d)
    assert type(chains) is tuple
    for chain in chains:
        assert type(chain) is int and len(unpack(chain, m, n, d)) == d
    assert len(set(chains)) == len(chains)
    for k, wedge in enumerate(wedge_basis(m, n)):
        ((unit, one),) = plucker_polynomial(wedge, m, n).plucker.items()
        assert type(one) is int and one == 1
        assert unit == wedge_keys(m, n, 1)[k] == pack((wedge,), m, n)


def _support_check(m, n, d, walk, l, sections, monkeypatch):
    """`level_duality`'s verdict with `sections` as the vanishing-jet sections."""
    with monkeypatch.context() as patch:
        patch.setattr(jets, "kernel_sections", lambda *args: (sections, len(sections)))
        return level_duality(m, n, d, walk, l, DEFAULT_AMBIENT_CAP).pairing_vanishes


@pytest.mark.parametrize("m,n,d", DESK_CASES)
def test_integer_pairing_equals_all_pairs_reference(m, n, d, monkeypatch):
    # The walk's key sets against the all-pairs pairing of the canonical basis.
    grown = canonical_filtration(m, n, d, d - 1)
    walk = filtration_walk(m, n, d, d - 1)
    basis = section_space(m, n, d)
    for l in range(1, d):
        level = grown.levels[l]
        # F_l's support: the keys of pieces 0..l, those of the basis of level l.
        assert set().union(*walk.supports[:l + 1]) == set().union(*(u.coeffs for u in level.basis))
        # Level l against the sections whose l-jet vanishes: the duality.
        vanishing, _ = kernel_sections(m, n, d, l)
        assert all(pair(u, s, m, n, d) == 0 for u in level.basis for s in vanishing)
        assert level_duality(m, n, d, walk, l, DEFAULT_AMBIENT_CAP).pairing_vanishes is True
        # Against the sections whose (l-1)-jet vanishes some pairing is not zero.
        wider = [s for s in basis if truncate(_chart(s, m, n, d), l - 1).is_zero]
        assert not all(pair(u, s, m, n, d) == 0 for u in level.basis for s in wider)
        assert _support_check(m, n, d, walk, l, wider, monkeypatch) is False
        # Section by section, the support check is the all-pairs pairing.
        for s in basis:
            assert _support_check(m, n, d, walk, l, [s], monkeypatch) \
                is all(pair(u, s, m, n, d) == 0 for u in level.basis)


@pytest.mark.parametrize("m,n,d", DESK_CASES)
def test_a_planted_vanishing_chain_flips_the_pairing(m, n, d):
    # One vanishing chain planted in the key set of any piece 0..l makes
    # level l pair with it; planted in piece l + 1, it is not read.
    walk = filtration_walk(m, n, d, d - 1)
    for l in range(1, d):
        vanishing, _ = kernel_sections(m, n, d, l)
        assert level_duality(m, n, d, walk, l, DEFAULT_AMBIENT_CAP).pairing_vanishes is True
        for k in range(min(l + 2, d)):
            supports = list(walk.supports)
            supports[k] = supports[k] | {vanishing[0]}
            planted = walk._replace(supports=supports)
            assert level_duality(m, n, d, planted, l, DEFAULT_AMBIENT_CAP).pairing_vanishes \
                is (k > l)


def test_mutating_a_section_leaves_the_memo_unchanged():
    # The basis is a tuple of ints: every call returns the one stored
    # tuple, and no caller can change it.
    basis = section_space(2, 2, 2)
    want = list(basis)
    with pytest.raises(TypeError):
        basis[0] = 9
    with pytest.raises(TypeError):
        basis[-1][0] = 7
    again = section_space(2, 2, 2)
    assert again is basis and list(again) == want


def test_desk_suite_eliminates_each_family_once():
    # One miss per case; every `section_space` call and every `taylor_rank`
    # call after it reads the stored family.
    from vermajet.suite import SuiteConfig, run_suite
    jets._reduced_family.cache_clear()
    run_suite(SuiteConfig())
    info = jets._reduced_family.cache_info()
    assert (info.misses, info.hits) == (6, 140)


@pytest.mark.parametrize("m,n,d", [(2, 2, 4), (1, 1, 60)])
def test_section_space_reads_each_factor_and_multiplies_nothing(monkeypatch, m, n, d):
    # The pinned reads run on every call, cold or warm, and no call forms a
    # chart product.  Nothing reads a section they return, so a cold call
    # builds each stored minor's Poly once and a warm call builds none.
    jets._checked_minor.cache_clear()
    calls = _counted_reads_and_products(monkeypatch)
    built = []

    class CountedPoly(Poly):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls)

    monkeypatch.setattr(jets, "Poly", CountedPoly)
    factors = module_dim(m, n, d) * d  # d factors per degree-d monomial
    jets._reduced_family.cache_clear()
    cold = section_space(m, n, d)
    assert calls == {"plucker": factors, "mul": 0}
    assert len(built) == comb(m + n, m)
    calls.update(plucker=0)
    built.clear()
    assert section_space(m, n, d) is cold
    assert calls == {"plucker": factors, "mul": 0}
    assert built == []
    assert jets._reduced_family.cache_info()[:2] == (1, 1)


def test_only_taylor_matrix_reads_a_chart():
    # `plucker_polynomial` stores a chart; `taylor_matrix` is the one reader.
    tree = ast.parse(Path(jets.__file__).read_text())
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Attribute)
               and node.attr == "chart" and isinstance(node.ctx, ast.Load)}
    assert readers == {"taylor_matrix"}
    names = {getattr(node, key, None) for node in ast.walk(tree) for key in ("id", "name")}
    assert "_packed_product" not in names
    # Nor do the suite and the command line, which reach the sections only
    # through `section_space`, `taylor_rank`, `kernel_sections` and
    # `level_duality`.
    for module in (suite, cli):
        tree = ast.parse(Path(module.__file__).read_text())
        assert "chart" not in {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)}
