from fractions import Fraction
from math import comb, factorial

import pytest

from vermajet.filtration import canonical_filtration, weyl_dim_oracle
from vermajet.lie import SubalgebraTag
from vermajet.linalg import SparseMatrix, rank, span_dim
from vermajet.plethysm import DEFAULT_AMBIENT_CAP, highest_weight_vector, sym_basis, wedge_basis
from vermajet.polynomials import Poly
from vermajet import jets
from vermajet.jets import (duality_check, kernel_sections, level_duality, plucker_polynomial,
                           section_space, taylor_matrix)
from vermajet.suite import DESK_CASES, MAX_FILTRATION_LEVEL

from reference import (chart_homogeneity_check, chart_variables, evaluation_matrix,
                       jet_monomials, jet_truncation, monomial_jet_projective,
                       monomial_sections, pair, to_tuple, truncate)


def _t(m, n, i, j):
    variables = chart_variables(m, n)
    return Poly.variable(len(variables), variables.index((i, j)))


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
    basis = section_space(1, 1, 3)
    assert len(basis) == 4
    charts = {s.chart for s in basis}
    t = Poly.variable(1, 0)
    assert charts == {Poly.const(1, 1), t, t * t, t * t * t}


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
                    for (k,) in to_tuple(multiset, m, n):
                        exps[k - 1] += 1
                    assert jet_truncation(s, m, n, l) == monomial_jet_projective(exps, l)


def _coeff_vector(poly, columns):
    return tuple(poly.coefficient(e) for e in columns)


def test_kernel_sections_projective_line():
    sections, dim = kernel_sections(1, 1, 3, 1)
    assert dim == 2
    t = Poly.variable(1, 0)
    columns = jet_monomials(1, 1, 3)
    vectors = [jet_truncation(s, 1, 1, 3) for s in sections]
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
        for s in sections:
            assert truncate(s.chart, l).is_zero


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
        for s in section_space(m, n, d):
            assert pair(v, s) == factorial(d) * s.chart.coefficient((0,) * m * n)


def test_chart_homogeneity():
    assert chart_homogeneity_check(1, 1, 3, 1, [[1]])
    assert chart_homogeneity_check(2, 2, 2, 1, [[1, 2], [0, 1]])
    assert chart_homogeneity_check(2, 2, 2, 1, [[0, 0], [0, 0]])


def test_chart_homogeneity_mapping_form():
    assert chart_homogeneity_check(1, 2, 2, 1, {(2, 1): Fraction(1, 2), (3, 1): 1})


def test_taylor_matrix_equals_origin_truncations():
    matrix, _ = taylor_matrix(1, 1, 3, 2)
    basis = section_space(1, 1, 3)
    rows = [jet_truncation(s, 1, 1, 2) for s in basis]
    assert matrix == SparseMatrix.from_rows(rows, cols=3)


def test_jet_monomial_count_formula():
    for m, n, l in [(1, 1, 3), (2, 2, 2), (1, 3, 2), (2, 1, 4)]:
        assert len(jet_monomials(m, n, l)) == comb(m * n + l, m * n)


def test_section_provenance_matches_chart():
    # The Plücker coordinates of each basis section rebuild its chart
    # polynomial exactly.
    for m, n, d in [(1, 2, 2), (2, 2, 2)]:
        for s in section_space(m, n, d):
            assert _rebuilt(s, m, n) == s.chart


def test_memoized_results_are_isolated_from_callers():
    first = plucker_polynomial((1, 3), 2, 2)
    plucker, chart = dict(first.plucker), dict(first.chart.terms)
    first.plucker[(1, 0, 0, 0, 0, 0)] = Fraction(5)
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


def test_plucker_polynomial_sorts_its_rows():
    unsorted, ordered = plucker_polynomial((3, 1), 2, 2), plucker_polynomial((1, 3), 2, 2)
    assert unsorted.chart == ordered.chart == _t(2, 2, 3, 2)
    assert unsorted.plucker == ordered.plucker == {(0, 1, 0, 0, 0, 0): 1}
    assert plucker_polynomial([3, 1], 2, 2).plucker == ordered.plucker


def test_plucker_polynomial_returns_fresh_maps():
    first = plucker_polynomial((2, 4), 2, 2)
    want = (dict(first.chart.terms), dict(first.plucker))
    first.chart.terms.clear()
    first.plucker[(9,) * 6] = 5
    second = plucker_polynomial((2, 4), 2, 2)
    assert (second.chart.terms, second.plucker) == want
    assert second.chart is not first.chart and second.plucker is not first.plucker
    assert type(second) is jets.SectionPolynomial and second.chart.nvars == 4


def test_empty_section_monomial_is_one():
    from reference import section_monomial
    empty = section_monomial((0,) * 6, 2, 2)
    assert empty.chart == Poly.const(4, 1) and empty.plucker == {(0,) * 6: 1}


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


def _rebuilt(section, m, n):
    """The chart polynomial its Plücker coordinates give through `section_monomial`."""
    from reference import section_monomial
    rebuilt = Poly.zero(m * n)
    for multiset, coeff in section.plucker.items():
        rebuilt = rebuilt + coeff * section_monomial(multiset, m, n).chart
    return rebuilt


def _suite_taylor_levels(d):
    return sorted(set(range(1, min(d - 1, MAX_FILTRATION_LEVEL) + 1)) | {d})


# The grassmannian cases of the benchmark; (2,2,4) multiplies along
# prefixes of length up to 3.
DEEPER_CASES = ((2, 2, 4), (2, 3, 3), (3, 3, 2))


@pytest.mark.parametrize("m,n,d", DESK_CASES + DEEPER_CASES)
def test_section_space_and_taylor_matrix_match_fraction_references(m, n, d):
    basis = section_space(m, n, d)
    reference = _section_space_by_fractions(m, n, d)
    assert len(reference) == weyl_dim_oracle(m, n, d)
    _assert_same_chart_span(basis, reference)
    for section in basis:
        assert all(type(c) is int for c in section.chart.terms.values())
        ((_, one),) = section.plucker.items()
        assert type(one) is int and one == 1
        assert _rebuilt(section, m, n) == section.chart
    for l in _suite_taylor_levels(d):
        matrix, matrix_rank = taylor_matrix(m, n, d, l)
        expected = SparseMatrix.from_rows([jet_truncation(s, m, n, l) for s in basis],
                                          cols=comb(m * n + l, m * n))
        assert matrix == expected
        assert all(type(v) is Fraction for v in matrix.entries.values())
        assert matrix_rank == rank(matrix)
        assert jets.taylor_rank(m, n, d, l) == rank(matrix)


@pytest.mark.parametrize("m,n,d", DESK_CASES)
def test_level_duality_equals_duality_check(m, n, d):
    # One filtration grown to d serves every level, as in the desk suite.
    grown = canonical_filtration(m, n, d, d)
    for l in range(1, min(d - 1, MAX_FILTRATION_LEVEL) + 1):
        report = level_duality(m, n, d, grown.levels[l], DEFAULT_AMBIENT_CAP)
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
    # The support check of `level_duality` reads the pairing off this.
    chains = []
    for section in section_space(m, n, d):
        ((chain, one),) = section.plucker.items()
        assert type(one) is int and one == 1 and sum(chain) == d
        chains.append(chain)
    assert len(set(chains)) == len(chains)
    for k, wedge in enumerate(wedge_basis(m, n)):
        ((unit, one),) = plucker_polynomial(wedge, m, n).plucker.items()
        assert type(one) is int and one == 1
        assert unit == tuple(int(j == k) for j in range(len(unit)))


def _support_check(m, n, d, level, sections, monkeypatch):
    """`level_duality`'s verdict with `sections` as the vanishing-jet sections."""
    with monkeypatch.context() as patch:
        patch.setattr(jets, "kernel_sections", lambda *args: (sections, len(sections)))
        return level_duality(m, n, d, level, DEFAULT_AMBIENT_CAP).pairing_vanishes


@pytest.mark.parametrize("m,n,d", DESK_CASES)
def test_integer_pairing_equals_all_pairs_reference(m, n, d, monkeypatch):
    grown = canonical_filtration(m, n, d, d - 1)
    basis = section_space(m, n, d)
    for l in range(1, d):
        level = grown.levels[l]
        # Level l against the sections whose l-jet vanishes: the duality.
        vanishing, _ = kernel_sections(m, n, d, l)
        assert all(pair(u, s) == 0 for u in level.basis for s in vanishing)
        assert level_duality(m, n, d, level, DEFAULT_AMBIENT_CAP).pairing_vanishes is True
        # Against the sections whose (l-1)-jet vanishes some pairing is not zero.
        wider = [s for s in basis if truncate(s.chart, l - 1).is_zero]
        assert not all(pair(u, s) == 0 for u in level.basis for s in wider)
        assert _support_check(m, n, d, level, wider, monkeypatch) is False
        # Section by section, the support check is the all-pairs pairing.
        for s in basis:
            assert _support_check(m, n, d, level, [s], monkeypatch) \
                is all(pair(u, s) == 0 for u in level.basis)


def _as_data(basis):
    return [(dict(s.chart.terms), dict(s.plucker)) for s in basis]


def test_section_space_repeats_return_equal_fresh_bases():
    first = section_space(2, 2, 2)
    second = section_space(2, 2, 2)
    assert _as_data(first) == _as_data(second)
    assert all(a.chart is not b.chart and a.chart.terms is not b.chart.terms
               and a.plucker is not b.plucker for a, b in zip(first, second))


def test_mutating_a_section_leaves_the_memo_unchanged():
    want = _as_data(section_space(2, 2, 2))
    basis = section_space(2, 2, 2)
    basis[0].chart.terms[(9, 9, 9, 9)] = 5
    basis[0].plucker.clear()
    basis[-1].chart.terms.clear()
    basis[-1].plucker[(2, 0, 0, 0, 0, 0)] = 7
    assert _as_data(section_space(2, 2, 2)) == want


def test_desk_suite_eliminates_each_family_once():
    from vermajet.suite import SuiteConfig, run_suite
    jets._reduced_family.cache_clear()
    run_suite(SuiteConfig())
    info = jets._reduced_family.cache_info()
    assert (info.misses, info.hits) == (6, 84)


def test_a_changed_family_misses_the_memo(monkeypatch):
    m, n, d = 2, 2, 2
    want = section_space(m, n, d)
    misses = jets._reduced_family.cache_info().misses
    minor = jets.plucker_polynomial

    def doubled(subset, m, n):
        s = minor(subset, m, n)
        return jets.SectionPolynomial(s.chart * 2, s.plucker)

    monkeypatch.setattr(jets, "plucker_polynomial", doubled)
    got = section_space(m, n, d)
    assert jets._reduced_family.cache_info().misses == misses + 1
    # Each standard monomial's chart is 2^d times the old one, with the same
    # Plücker coordinates, and the span is the patched oracle's.
    assert [s.chart for s in got] == [2 ** d * s.chart for s in want]
    assert [s.plucker for s in got] == [s.plucker for s in want]
    _assert_same_chart_span(got, _section_space_by_fractions(m, n, d))


# A miss makes one packed product per standard monomial (chain) of degree
# 1..d, sum over k of dim V(k w_m): quadratic in d at m = n = 1, where every
# monomial is a chain.
@pytest.mark.parametrize("m,n,d,products", [(2, 2, 4, 181), (1, 1, 60, 1890)])
def test_section_space_reads_each_factor_and_multiplies_on_a_miss_only(monkeypatch, m, n, d,
                                                                       products):
    indices = sym_basis(m, n, d)
    # Cold minors too: `_chart_minor` is a closed form and multiplies nothing.
    jets._checked_minor.cache_clear()
    calls = {"plucker": 0, "packed": 0, "mul": 0}
    minor, packed, mul = jets.plucker_polynomial, jets._packed_product, Poly.__mul__

    def counted_minor(subset, m, n):
        calls["plucker"] += 1
        return minor(subset, m, n)

    def counted_packed(p, q):
        calls["packed"] += 1
        return packed(p, q)

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(jets, "plucker_polynomial", counted_minor)
    monkeypatch.setattr(jets, "_packed_product", counted_packed)
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    assert products == sum(weyl_dim_oracle(m, n, k) for k in range(1, d + 1))
    factors = sum(sum(idx) for idx in indices)
    jets._reduced_family.cache_clear()
    cold = section_space(m, n, d)
    assert calls == {"plucker": factors, "packed": products, "mul": 0}
    calls.update(plucker=0, packed=0)
    assert _as_data(section_space(m, n, d)) == _as_data(cold)
    assert calls == {"plucker": factors, "packed": 0, "mul": 0}
    assert jets._reduced_family.cache_info()[:2] == (1, 1)


def test_a_miss_multiplies_the_factors_of_its_key(monkeypatch):
    m, n, d = 2, 2, 3
    section_space(m, n, d)
    misses = jets._reduced_family.cache_info().misses
    minor = jets.plucker_polynomial

    def scaled(subset, m, n):
        s = minor(subset, m, n)
        if tuple(sorted(subset)) == (1, 3):
            return jets.SectionPolynomial(s.chart * 3, s.plucker)
        return s

    monkeypatch.setattr(jets, "plucker_polynomial", scaled)
    got = section_space(m, n, d)
    assert jets._reduced_family.cache_info().misses == misses + 1
    # The references multiply the same patched factors through
    # `section_monomial`; a miss that re-read the unpatched minors would
    # give charts 3^-k times the rebuilt ones.
    _assert_same_chart_span(got, _section_space_by_fractions(m, n, d))
    assert all(_rebuilt(s, m, n) == s.chart for s in got)
    assert any((1, 3) in to_tuple(chain, m, n) for s in got for chain in s.plucker)
