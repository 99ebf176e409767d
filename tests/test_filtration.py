from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from vermajet.errors import CertificateError, SizeCapError
from vermajet.lie import SubalgebraTag, Weight, build_context, rho_character
from vermajet.linalg import Echelon, SparseMatrix, rank, rref
from vermajet.plethysm import PlethysmVector, act, coordinates, highest_weight_vector, sym_basis
from vermajet import filtration
from vermajet.filtration import (annihilator_dim, apply_pbw_monomial,
                                 canonical_filtration,
                                 char_ideal_generator_check, multi_filtration,
                                 pbw_filtration, serre_power_check,
                                 verma_split_check, weight_of, weyl_dim_oracle)
from vermajet.polynomials import graded_monomials, prefix_steps
from vermajet.suite import DESK_CASES

from reference import evaluation_matrix, pbw_monomials


def test_weyl_dim_small_wedge():
    assert weyl_dim_oracle(2, 2, 1) == 6
    assert weyl_dim_oracle(2, 2, 2) == 20
    assert weyl_dim_oracle(2, 2, 3) == 50


def test_weyl_dim_projective():
    for n in range(1, 4):
        for d in range(1, 5):
            assert weyl_dim_oracle(1, n, d) == comb(n + d, d)


def test_canonical_filtration_sl2_cubic():
    assert canonical_filtration(1, 1, 3, 2).dims == [1, 2, 3]


def test_canonical_filtration_wedge():
    assert canonical_filtration(2, 2, 2, 1).dims == [1, 5]


def test_canonical_filtration_saturates():
    result = canonical_filtration(1, 1, 2, 4)
    assert result.dims == [1, 2, 3, 3, 3]
    assert result.saturation_level == 2
    assert result.module_dim == 3


def test_monotone_saturation():
    result = canonical_filtration(1, 2, 3, 4)
    dims = result.dims
    target = weyl_dim_oracle(1, 2, 3)
    sat = result.saturation_level
    assert dims[sat] == target
    for l in range(1, sat + 1):
        assert dims[l] > dims[l - 1]
    for l in range(sat, len(dims)):
        assert dims[l] == target


def test_graded_monomials_run_by_degree_then_lex():
    for nvars in range(1, 7):
        expected = sorted((e for e in product(range(8), repeat=nvars) if sum(e) <= 7),
                          key=lambda e: (sum(e), e))
        for total in range(8):
            got = list(graded_monomials(nvars, total))
            assert got == [e for e in expected if sum(e) <= total]
            assert pbw_monomials(nvars, total) == got


def test_pbw_basis_sl2():
    vectors, independent = pbw_filtration(1, 1, 4, 2)
    assert len(vectors) == 3
    assert independent


def test_pbw_wedge():
    vectors, independent = pbw_filtration(2, 2, 2, 1)
    assert len(vectors) == 5
    assert independent


def test_pbw_dependent_beyond_weight_range():
    # E21^3 kills e1^2 in Sym^2, so the degree-3 monomial image vanishes.
    vectors, independent = pbw_filtration(1, 1, 2, 3)
    assert len(vectors) == 4
    assert not independent
    assert vectors[-1].is_zero


def test_pbw_spans_the_canonical_level():
    for m, n, d, l in [(1, 1, 3, 2), (2, 2, 2, 1), (1, 2, 3, 2)]:
        basis = sym_basis(m, n, d)
        index_of = {idx: i for i, idx in enumerate(basis)}
        level = canonical_filtration(m, n, d, l).levels[l]
        vectors, _ = pbw_filtration(m, n, d, l)
        rows = [coordinates(v, index_of) for v in level.basis]
        rows += [coordinates(v, index_of) for v in vectors if not v.is_zero]
        stacked = rref(SparseMatrix.from_rows(rows, cols=len(basis))).rank
        assert stacked == level.dim


def test_evaluation_matrix_shapes_and_ranks():
    m_all = evaluation_matrix(1, 1, 3, 1, "all")
    assert (m_all.rows, m_all.cols) == (4, 4)
    assert rref(m_all).rank == 2
    m_n = evaluation_matrix(1, 1, 3, 1, SubalgebraTag.N)
    assert (m_n.rows, m_n.cols) == (2, 4)
    assert rref(m_n).rank == 2
    m_zero = evaluation_matrix(2, 2, 2, 0)
    assert m_zero.rows == 1
    assert rref(m_zero).rank == 1


def test_annihilator_dims():
    assert annihilator_dim(1, 1, 3, 1) == 2
    assert annihilator_dim(1, 1, 2, 1) == 2
    assert annihilator_dim(2, 2, 2, 0) == 0


def test_cap_checks_build_no_basis(monkeypatch):
    """The three checks enforce the ambient cap through `module_dim`: with
    the basis builders raising (all of them for the two that act on v alone)
    each returns its desk value and raises the same cap errors in order."""
    from vermajet import plethysm

    def no_basis(*args):
        raise AssertionError("the ambient basis was built")

    monkeypatch.setattr(plethysm, "sym_basis", no_basis)
    monkeypatch.setattr(filtration, "sym_basis", no_basis, raising=False)
    assert annihilator_dim(1, 1, 3, 1) == 2
    assert annihilator_dim(1, 5, 3, 3) == 8380
    monkeypatch.setattr(filtration, "indexed_basis", no_basis)
    for m, n, d in DESK_CASES:
        reports = serre_power_check(m, n, d)
        assert [r.power for r in reports] == [d + 1 if k == m else 1 for k in range(1, m + n)]
        assert all(r.ok for r in reports)
        assert char_ideal_generator_check(m, n, d, 1) and char_ideal_generator_check(m, n, d, 2)
    # (3,3,6) has 177,100 > 20,000 basis indices; dim U_2(sl_6) = 666 > 1.
    for call in (lambda: annihilator_dim(3, 3, 6, 2, monomial_cap=1),
                 lambda: serre_power_check(3, 3, 6),
                 lambda: char_ideal_generator_check(3, 3, 6, 3, monomial_cap=1)):
        with pytest.raises(SizeCapError) as info:
            call()
        assert (info.value.what, info.value.needed) == ("ambient module dimension", 177100)
    for call in (lambda: annihilator_dim(1, 1, 3, 2, monomial_cap=1),
                 lambda: char_ideal_generator_check(1, 1, 3, 3, monomial_cap=1)):
        with pytest.raises(SizeCapError, match="PBW monomial count"):
            call()


def test_annihilator_realizes_rank_nullity():
    for m, n, d, l in [(1, 1, 3, 1), (1, 1, 3, 2), (2, 2, 2, 1), (1, 2, 3, 1)]:
        ctx = build_context(m, n)
        dim_level = canonical_filtration(m, n, d, l).dims[l]
        assert annihilator_dim(m, n, d, l) + dim_level == comb(ctx.N + l, ctx.N)


def test_verma_split_examples():
    report = verma_split_check(1, 1, 3, 1)
    assert (report.dim_ul_g, report.dim_ul_n, report.dim_ann) == (4, 2, 2)
    assert report.split_holds
    report = verma_split_check(1, 1, 3, 2)
    assert (report.dim_ul_g, report.dim_ul_n, report.dim_ann) == (10, 3, 7)
    assert report.split_holds
    report = verma_split_check(2, 2, 2, 1)
    assert (report.dim_ul_g, report.dim_ul_n, report.dim_ann) == (16, 5, 11)
    assert report.split_holds


def test_verma_split_rejects_large_level():
    with pytest.raises(ValueError):
        verma_split_check(1, 1, 3, 3)


def test_serre_powers_wedge():
    reports = serre_power_check(2, 2, 2)
    assert [r.power for r in reports] == [1, 3, 1]
    assert all(r.ok for r in reports)


def test_serre_powers_sl2():
    (report,) = serre_power_check(1, 1, 3)
    assert report.power == 4
    assert report.ok


def test_serre_powers_projective():
    reports = serre_power_check(1, 2, 1)
    assert [r.power for r in reports] == [2, 1]
    assert all(r.ok for r in reports)
    # E31 also moves v: a non-simple lowering reaches e3 directly.
    ctx = build_context(1, 2)
    v = highest_weight_vector(1, 2, 1)
    assert not act(ctx.E(3, 1), v, 1).is_zero


def test_char_ideal_containment():
    assert char_ideal_generator_check(1, 1, 3, 1)
    assert char_ideal_generator_check(2, 2, 2, 1)
    assert char_ideal_generator_check(2, 2, 2, 2)


def test_multi_filtration_direct_sums():
    assert multi_filtration(1, 1, [2, 3], 1) == 4
    assert multi_filtration(1, 1, [2], 1) == 2
    assert multi_filtration(2, 2, [2, 2], 1) == 10


def test_multi_filtration_rejects_large_level():
    with pytest.raises(ValueError):
        multi_filtration(1, 1, [2, 3], 3)


def test_pbw_monomial_order_deterministic():
    monomials = pbw_monomials(2, 2)
    assert monomials == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_weights_shift_by_nilpotent_roots():
    # Weights at level l sit at lambda minus a sum of at most l roots of n.
    m, n, d, l_max = 2, 2, 2, 2
    ctx = build_context(m, n)
    lam = Weight((d,) * m + (0,) * n)
    roots = []
    for i in range(m + 1, m + n + 1):
        for j in range(1, m + 1):
            shift = [0] * ctx.size
            shift[i - 1] += 1
            shift[j - 1] -= 1
            roots.append(Weight(shift))
    result = canonical_filtration(m, n, d, l_max)
    for l, level in enumerate(result.levels):
        reachable = {lam}
        for count in range(1, l + 1):
            for chosen in combinations_with_replacement(roots, count):
                total = lam
                for r in chosen:
                    total = total + r
                reachable.add(total)
        for weight in level.weight_multiset:
            assert weight in reachable


def test_weight_multiset_projective_shadow():
    # For m = 1 the level-l weight multiset is that of Sym^l(V) shifted by
    # (d - l) in the first coordinate.
    m, n, d = 1, 2, 3
    size = m + n
    result = canonical_filtration(m, n, d, 2)
    for l in (1, 2):
        expected = Counter()
        for multiset in combinations_with_replacement(range(1, size + 1), l):
            coords = [0] * size
            for v in multiset:
                coords[v - 1] += 1
            coords[0] += d - l
            expected[Weight(coords)] += 1
        assert Counter(result.levels[l].weight_multiset) == expected


def test_weight_multiset_sums_to_dimension():
    for m, n, d, l in [(1, 1, 3, 2), (2, 2, 2, 2), (1, 2, 3, 2)]:
        level = canonical_filtration(m, n, d, l).levels[l]
        assert sum(level.weight_multiset.values()) == level.dim


def test_levels_are_nested():
    for m, n, d in [(1, 1, 3), (2, 2, 2), (1, 2, 3)]:
        basis = sym_basis(m, n, d)
        index_of = {idx: i for i, idx in enumerate(basis)}
        result = canonical_filtration(m, n, d, min(d, 3))
        for lower, upper in zip(result.levels, result.levels[1:]):
            assert lower.dim <= upper.dim
            rows = [coordinates(v, index_of) for v in upper.basis]
            rows += [coordinates(v, index_of) for v in lower.basis]
            stacked = rref(SparseMatrix.from_rows(rows, cols=len(basis))).rank
            assert stacked == upper.dim


# -- PBW images by prefix recurrence against the row-by-row reference --------


def _reference_images(generators, max_degree, start, m):
    return [apply_pbw_monomial(generators, exps, start, m)
            for exps in pbw_monomials(len(generators), max_degree)]


@pytest.mark.parametrize("m,n,d,l", [(1, 1, 3, 0), (1, 1, 3, 4), (1, 2, 3, 2),
                                     (2, 2, 2, 2), (2, 2, 3, 1), (1, 3, 2, 3),
                                     (1, 4, 4, 2)])
@pytest.mark.parametrize("subalgebra", ["all", SubalgebraTag.N])
def test_evaluation_matrix_matches_row_by_row_reference(m, n, d, l, subalgebra):
    ctx = build_context(m, n)
    index_of = {idx: i for i, idx in enumerate(sym_basis(m, n, d))}
    generators = list(ctx.basis) if subalgebra == "all" else ctx.subalgebra_basis(subalgebra)
    images = _reference_images(generators, l, highest_weight_vector(m, n, d), m)
    reference = SparseMatrix.from_rows([coordinates(v, index_of) for v in images],
                                       cols=len(index_of))
    assert evaluation_matrix(m, n, d, l, subalgebra) == reference


@pytest.mark.parametrize("m,n,d,l", [(1, 1, 2, 3), (1, 2, 3, 2), (2, 2, 2, 2),
                                     (1, 3, 2, 3)])
def test_pbw_filtration_vectors_match_reference(m, n, d, l):
    generators = build_context(m, n).subalgebra_basis(SubalgebraTag.N)
    reference = _reference_images(generators, l, highest_weight_vector(m, n, d), m)
    index_of = {idx: i for i, idx in enumerate(sym_basis(m, n, d))}
    reference_rank = rank(SparseMatrix.from_rows(
        [coordinates(v, index_of) for v in reference], cols=len(index_of)))
    vectors, independent = pbw_filtration(m, n, d, l)
    assert vectors == reference
    assert independent == (reference_rank == len(reference))


def test_pbw_images_of_an_arbitrary_start_match_reference():
    from vermajet.filtration import _pbw_images
    m, n, d = 2, 2, 2
    ctx = build_context(m, n)
    v = highest_weight_vector(m, n, d)
    start = act(ctx.subalgebra_basis(SubalgebraTag.N)[0], v, m) + 3 * v
    for generators in (list(ctx.basis), ctx.subalgebra_basis(SubalgebraTag.N)):
        reference = _reference_images(generators, 2, start, m)
        got = list(_pbw_images(generators, 2, start, m))
        assert got == [(row, image) for row, image in enumerate(reference)
                       if not image.is_zero]
        assert list(_pbw_images(generators, 2, 0 * start, m)) == []


@pytest.mark.parametrize("subalgebra", ["all", SubalgebraTag.N])
def test_pbw_images_act_only_on_nonzero_prefix_images(monkeypatch, subalgebra):
    ctx = build_context(2, 2)
    generators = list(ctx.basis) if subalgebra == "all" else ctx.subalgebra_basis(subalgebra)
    v = highest_weight_vector(2, 2, 2)
    steps = [step for degree in (1, 2) for step in prefix_steps(len(generators), degree)]
    expected = sum(not apply_pbw_monomial(generators, prefix, v, 2).is_zero
                   for _, _, prefix in steps)
    # over all of g some degree-1 images vanish, so their extensions are pruned
    assert (expected < len(steps)) == (subalgebra == "all")
    calls = []

    def counted(x, vec, m):
        calls.append(x)
        return act(x, vec, m)

    monkeypatch.setattr(filtration, "act", counted)
    list(filtration._pbw_images(generators, 2, v, 2))
    assert len(calls) == expected


@pytest.mark.parametrize("m,n,d,l", [(1, 1, 3, 1), (1, 2, 3, 2), (2, 2, 2, 2),
                                     (2, 2, 4, 2)])
def test_char_ideal_check_matches_reference(m, n, d, l):
    ctx = build_context(m, n)
    v = highest_weight_vector(m, n, d)
    reference = all(
        image.is_zero
        for y in ctx.subalgebra_basis(SubalgebraTag.P)
        for image in _reference_images(ctx.basis, l - 1,
                                       act(y, v, m) - rho_character(ctx, d, y) * v, m))
    assert char_ideal_generator_check(m, n, d, l) == reference


@pytest.mark.parametrize("m,n,degrees,l", [(1, 1, (2, 3), 1), (2, 2, (2, 2), 1),
                                           (1, 2, (2, 3), 2), (2, 2, (2, 3), 2)])
def test_multi_filtration_matches_reference(m, n, degrees, l):
    assert multi_filtration(m, n, degrees, l) == _multi_filtration_reference(m, n, degrees, l)


def _multi_filtration_reference(m, n, degrees, l):
    # the reference applies all of g; multi_filtration applies only n
    ctx = build_context(m, n)
    rows, offset = [], 0
    for d in degrees:
        basis = sym_basis(m, n, d)
        index_of = {idx: i + offset for i, idx in enumerate(basis)}
        rows += [coordinates(image, index_of)
                 for image in _reference_images(ctx.basis, l, highest_weight_vector(m, n, d), m)
                 if not image.is_zero]
        offset += len(basis)
    return rank(SparseMatrix.from_rows(rows, cols=offset))


def test_multi_filtration_caps_the_pbw_monomials_over_n():
    # dim U_2(n) = C(4 + 2, 2) = 15 fits a cap of 100; dim U_2(g) = 136 does not.
    assert multi_filtration(2, 2, [2, 2], 2, monomial_cap=100) == \
        _multi_filtration_reference(2, 2, (2, 2), 2)
    with pytest.raises(SizeCapError):
        multi_filtration(2, 2, [2, 2], 2, monomial_cap=14)


# -- canonical filtration grown in one echelon --------------------------------


@pytest.mark.parametrize("m,n,d,l_max", [(2, 2, 4, 3), (1, 1, 5, 4), (2, 3, 3, 2),
                                         (3, 3, 2, 1), (2, 2, 2, 3), (1, 2, 3, 4),
                                         (1, 3, 3, 3)])
def test_canonical_bases_match_rref_of_evaluation_matrix(m, n, d, l_max):
    # F_l is the row span of the PBW evaluation matrix over all of g, built
    # independently by _pbw_images; its rref rows are the canonical basis.
    basis = sym_basis(m, n, d)
    result = canonical_filtration(m, n, d, l_max)
    for l, level in enumerate(result.levels):
        reference = rref(evaluation_matrix(m, n, d, l, "all"))
        rows = [dict() for _ in range(reference.rank)]
        for (r, c), v in reference.reduced.entries.items():
            rows[r][basis[c]] = v
        assert level.basis == [PlethysmVector(row) for row in rows]
        assert level.dim == reference.rank
        # per-weight dimensions: rank of the rows restricted to one weight
        by_weight = {}
        for c, idx in enumerate(basis):
            by_weight.setdefault(weight_of(idx, m, n), set()).add(c)
        expected = {}
        for weight, cols in by_weight.items():
            restricted = [{c: v for (r, c), v in reference.reduced.entries.items()
                           if r == i and c in cols} for i in range(reference.rank)]
            dim = rank(SparseMatrix.from_rows(restricted, cols=len(basis)))
            if dim:
                expected[weight] = dim
        assert level.weight_multiset == expected
        assert level.saturated == (level.dim == result.module_dim)
    saturated = [lvl.level for lvl in result.levels if lvl.saturated]
    assert result.saturation_level == (saturated[0] if saturated else None)


def test_canonical_filtration_rejects_a_row_of_two_weights(monkeypatch):
    m, n, d = 1, 2, 2
    ctx = build_context(m, n)
    basis = sym_basis(m, n, d)
    mixed = PlethysmVector({basis[1]: 1, basis[-1]: 1})
    assert weight_of(basis[1], m, n) != weight_of(basis[-1], m, n)
    # p still acts truly, so the p-eigenvector certificate passes first
    monkeypatch.setattr(filtration, "act", lambda x, vec, m: (
        mixed if ctx.contains(x, SubalgebraTag.N) else act(x, vec, m)))
    with pytest.raises(CertificateError, match="mixes weights"):
        canonical_filtration(m, n, d, 1)


def _moving_e12(x, vec, m):
    # E_12 lies in p (m = 2) but now also lowers: v is no p-eigenvector
    image = act(x, vec, m)
    if x.entries == {(1, 2): 1}:
        image = image + act(build_context(2, 2).E(3, 1), vec, m)
    return image


def test_a_p_element_moving_v_fails_the_certificate(monkeypatch):
    monkeypatch.setattr(filtration, "act", _moving_e12)
    with pytest.raises(CertificateError, match="p does not act"):
        canonical_filtration(2, 2, 3, 2)
    with pytest.raises(CertificateError, match="p does not act"):
        multi_filtration(2, 2, [2, 3], 1)
    assert not char_ideal_generator_check(2, 2, 3, 1)


def test_filtration_acts_only_by_n_after_the_certificate(monkeypatch):
    # (2,2,4) to level 3: the 4 elements of n act on the 1, 4 and 10 vectors
    # that left new pivots at levels 0, 1, 2 (60 actions), and the 11
    # elements of p act once on v for the certificate
    calls = []

    def counted(x, vec, m):
        calls.append(x)
        return act(x, vec, m)

    monkeypatch.setattr(filtration, "act", counted)
    assert canonical_filtration(2, 2, 4, 3).dims == [1, 5, 15, 35]
    ctx = build_context(2, 2)
    assert len(calls) == 71
    assert sum(ctx.contains(x, SubalgebraTag.N) for x in calls) == 60


def test_saturated_levels_are_not_read_again(monkeypatch):
    # (2,2,3) saturates at level 6; levels 0..6 grew, so the echelon is read
    # 7 times however far the growth is asked to go
    reads = []
    canonical_rows = Echelon.canonical_rows

    def counted(self):
        reads.append(self)
        return canonical_rows(self)

    monkeypatch.setattr(Echelon, "canonical_rows", counted)
    grown = canonical_filtration(2, 2, 3, 50)
    assert len(reads) == 7
    assert grown.saturation_level == 6
    assert grown.dims[6:] == [grown.module_dim] * 45 == [50] * 45
    for k in (0, 5, 6, 7, 9, 50):
        shorter = canonical_filtration(2, 2, 3, k)
        sliced = replace(grown, levels=grown.levels[:k + 1])
        assert sliced.dims == shorter.dims
        assert sliced.saturation_level == shorter.saturation_level
        assert sliced.levels[k].basis == shorter.levels[k].basis


@pytest.mark.parametrize("m,n,d", DESK_CASES)
def test_sliced_filtration_matches_shorter_growth(m, n, d):
    # The desk suite grows each filtration to level d and slices it; the
    # saturation level must come out as a shorter growth reports it.
    grown = canonical_filtration(m, n, d, d)
    for k in range(d + 1):
        sliced = replace(grown, levels=grown.levels[:k + 1])
        shorter = canonical_filtration(m, n, d, k)
        assert sliced.dims == shorter.dims
        assert sliced.saturation_level == shorter.saturation_level


@pytest.mark.parametrize("m,n,d", DESK_CASES)
def test_level_bases_store_ints_unless_fractional(m, n, d):
    for level in canonical_filtration(m, n, d, d).levels:
        for vec in level.basis:
            assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
                       for v in vec.coeffs.values())
