from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb

import pytest

from vermajet.errors import CertificateError, SizeCapError
from vermajet.lie import SubalgebraTag, Weight, build_context, rho_character
from vermajet.linalg import Echelon, SparseMatrix, rank, rref
from vermajet.plethysm import (PlethysmVector, act, highest_weight_vector,
                               sym_basis, wedge_basis, wedge_keys)
from vermajet import filtration, plethysm
from vermajet.jets import duality_check
from vermajet.filtration import (annihilator_dim, apply_pbw_monomial,
                                 canonical_filtration, filtration_walk,
                                 char_ideal_generator_check, enveloping_dim, multi_filtration,
                                 pbw_filtration, serre_power_check,
                                 verma_split_check, weight_of, weyl_dim_oracle)
from vermajet.polynomials import graded_monomials
from vermajet.suite import DESK_CASES

from reference import (evaluation_matrix, fflv_point, pack, pbw_monomials, perfbench_workloads,
                       tuple_act)


def _row(vec, column):
    """The coordinate row of a vector over the columns of its keys."""
    return {column[key]: v for key, v in vec.coeffs.items()}


def _columns(m, n, d):
    return {key: c for c, key in enumerate(sym_basis(m, n, d))}


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
        column = _columns(m, n, d)
        level = canonical_filtration(m, n, d, l).levels[l]
        vectors, _ = pbw_filtration(m, n, d, l)
        rows = [_row(v, column) for v in level.basis]
        rows += [_row(v, column) for v in vectors if not v.is_zero]
        stacked = rref(SparseMatrix.from_rows(rows, cols=len(column))).rank
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


def test_cap_checks_build_no_basis(monkeypatch, cold_filtration):
    """The three checks enforce the ambient cap through `module_dim`, and no
    growth builds an ambient basis: with every enumerator of one raising,
    the growths return their dims and the checks their desk values, and
    the same cap errors are raised in order."""
    from vermajet import jets, plethysm, suite

    def no_basis(*args):
        raise AssertionError("the ambient basis was built")

    desk_dims = {(m, n, d): canonical_filtration(m, n, d, d).dims for m, n, d in DESK_CASES}
    filtration._grown.clear()
    # `sym_basis` and the monomial walk behind it, wherever they are bound
    for module in (plethysm, filtration, jets, suite):
        for name in ("sym_basis", "degree_monomials"):
            monkeypatch.setattr(module, name, no_basis, raising=hasattr(module, name))
    for m, n, d in DESK_CASES:
        filtration._grown.clear()
        assert canonical_filtration(m, n, d, d).dims == desk_dims[m, n, d]
    assert canonical_filtration(2, 2, 4, 9).dims == [1, 5, 15, 35, 70, 90, 100, 104, 105, 105]
    assert canonical_filtration(2, 2, 4, 9).saturation_level == 8
    assert annihilator_dim(1, 1, 3, 1) == 2
    assert annihilator_dim(1, 5, 3, 3) == 8380
    for m, n, d in DESK_CASES:
        reports = serre_power_check(m, n, d)
        assert [r.power for r in reports] == [d + 1 if k == m else 1 for k in range(1, m + n)]
        assert all(r.ok for r in reports)
        assert char_ideal_generator_check(m, n, d, 1) and char_ideal_generator_check(m, n, d, 2)
    # (3,3,6) has 177,100 > 20,000 basis indices.
    for call in (lambda: annihilator_dim(3, 3, 6, 2),
                 lambda: serre_power_check(3, 3, 6),
                 lambda: char_ideal_generator_check(3, 3, 6, 3)):
        with pytest.raises(SizeCapError) as info:
            call()
        assert (info.value.what, info.value.needed) == ("ambient module dimension", 177100)
    # `pbw_filtration`, the one enumeration of PBW monomials, holds their
    # count within the ambient cap: C(1 + 20000, 1) = 20,001 monomials over
    # the n of sl(2), refused before any image is built.
    def no_image(*args):
        raise AssertionError("work began past the monomial count")

    for name in ("build_context", "highest_weight_vector", "apply_pbw_monomial",
                 "graded_monomials"):
        monkeypatch.setattr(filtration, name, no_image)
    with pytest.raises(SizeCapError) as info:
        pbw_filtration(1, 1, 3, 20000)
    assert (info.value.what, info.value.needed, info.value.cap) == \
        ("PBW monomial count", 20001, 20000)


def test_enveloping_dim_counts_the_pbw_monomials_over_g():
    # C((m+n)^2 - 1 + l, l) in closed form, against the monomials enumerated
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]:
        for l in range(4):
            assert enveloping_dim(m, n, l) == len(pbw_monomials(build_context(m, n).N, l))


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
    assert not act(ctx.E(3, 1), v, 1, 1).is_zero


def test_serre_power_check_reports_a_lowering_power_that_dies_early(monkeypatch):
    # With every lowering killing its vector, the power d + 1 = 3 of the
    # second root dies at the first step: its report fails, and each root
    # of power 1 still passes.
    monkeypatch.setattr(filtration, "act", lambda x, vec, m, d: PlethysmVector())
    reports = serre_power_check(2, 2, 2)
    assert [(r.power, r.below_nonzero, r.ok) for r in reports] == \
        [(1, True, True), (3, False, False), (1, True, True)]


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


@pytest.mark.parametrize("m,n,d", [*DESK_CASES, (2, 2, 4), (2, 3, 3)])
def test_weight_multisets_have_the_levi_and_grassmannian_symmetries(m, n, d):
    # Mod the all-ones vector, each level's weight multiset is invariant under
    # S_m x S_n (the Levi's Weyl group permutes the first m and the last n
    # coordinates), and w -> -reverse(w) sends it to the (n, m, d) multiset at
    # the same level, as Gr(m, m + n) is Gr(n, m + n).
    def normalized(coords):
        return tuple(c - min(coords) for c in coords)

    def multisets(m, n):
        levels = []
        for level in canonical_filtration(m, n, d, d).levels:
            counts = Counter()
            for weight, k in level.weight_multiset.items():
                counts[normalized(weight.coords)] += k
            levels.append(counts)
        return levels

    dual_levels = multisets(n, m)
    for l, level in enumerate(multisets(m, n)):
        for first, last in product(permutations(range(m)), permutations(range(m, m + n))):
            order = first + last
            assert Counter({tuple(w[i] for i in order): k for w, k in level.items()}) == level
        dual = Counter()
        for w, k in level.items():
            dual[normalized(tuple(-c for c in reversed(w)))] += k
        assert dual == dual_levels[l]


def test_levels_are_nested():
    for m, n, d in [(1, 1, 3), (2, 2, 2), (1, 2, 3)]:
        column = _columns(m, n, d)
        result = canonical_filtration(m, n, d, min(d, 3))
        for lower, upper in zip(result.levels, result.levels[1:]):
            assert lower.dim <= upper.dim
            rows = [_row(v, column) for v in upper.basis]
            rows += [_row(v, column) for v in lower.basis]
            stacked = rref(SparseMatrix.from_rows(rows, cols=len(column))).rank
            assert stacked == upper.dim


# -- PBW images against the tuple-encoded and row-by-row references ----------


def _reference_images(generators, max_degree, start, m, d):
    return [apply_pbw_monomial(generators, exps, start, m, d)
            for exps in pbw_monomials(len(generators), max_degree)]


def _tuple_images(generators, max_degree, m, n, d):
    """z^a v for every PBW monomial a, in `pbw_monomials` order, by
    `reference.tuple_act` on sorted wedge tuples (rightmost factor first),
    packed only at the end: no code shared with `plethysm.act`."""
    images = []
    for exps in pbw_monomials(len(generators), max_degree):
        vec = {(tuple(range(1, m + 1)),) * d: 1}
        for g, e in zip(reversed(generators), reversed(exps)):
            for _ in range(e):
                vec = tuple_act(g, vec)
        images.append(PlethysmVector({pack(idx, m, n): v for idx, v in vec.items()}))
    return images


@pytest.mark.parametrize("m,n,d,l", [(1, 1, 3, 0), (1, 1, 3, 4), (1, 2, 3, 2),
                                     (2, 2, 2, 2), (2, 2, 3, 1), (1, 3, 2, 3),
                                     (1, 4, 4, 2)])
@pytest.mark.parametrize("subalgebra", ["all", SubalgebraTag.N])
def test_evaluation_matrix_matches_row_by_row_reference(m, n, d, l, subalgebra):
    ctx = build_context(m, n)
    column = _columns(m, n, d)
    generators = list(ctx.basis) if subalgebra == "all" else ctx.subalgebra_basis(subalgebra)
    images = _tuple_images(generators, l, m, n, d)
    reference = SparseMatrix.from_rows([_row(v, column) for v in images], cols=len(column))
    assert evaluation_matrix(m, n, d, l, subalgebra) == reference


@pytest.mark.parametrize("m,n,d,l", [(1, 1, 2, 3), (1, 2, 3, 2), (2, 2, 2, 2),
                                     (1, 3, 2, 3)])
def test_pbw_filtration_vectors_match_reference(m, n, d, l):
    generators = build_context(m, n).subalgebra_basis(SubalgebraTag.N)
    reference = _tuple_images(generators, l, m, n, d)
    column = _columns(m, n, d)
    reference_rank = rank(SparseMatrix.from_rows(
        [_row(v, column) for v in reference], cols=len(column)))
    vectors, independent = pbw_filtration(m, n, d, l)
    assert vectors == reference
    assert independent == (reference_rank == len(reference))


@pytest.mark.parametrize("m,n,d,l", [(1, 1, 3, 1), (1, 2, 3, 2), (2, 2, 2, 2),
                                     (2, 2, 4, 2)])
def test_char_ideal_check_matches_reference(m, n, d, l):
    ctx = build_context(m, n)
    v = highest_weight_vector(m, n, d)
    reference = all(
        image.is_zero
        for y in ctx.subalgebra_basis(SubalgebraTag.P)
        for image in _reference_images(ctx.basis, l - 1,
                                       act(y, v, m, d) - rho_character(ctx, d, y) * v, m, d))
    assert char_ideal_generator_check(m, n, d, l) == reference


@pytest.mark.parametrize("m,n,degrees,l", [(1, 1, (2, 3), 1), (2, 2, (2, 2), 1),
                                           (1, 2, (2, 3), 2), (2, 2, (2, 3), 2),
                                           (2, 2, (2, 2, 2), 1), (1, 1, (2, 3, 3), 2)])
def test_multi_filtration_matches_reference(m, n, degrees, l):
    assert multi_filtration(m, n, degrees, l) == _multi_filtration_reference(m, n, degrees, l)


def _multi_filtration_reference(m, n, degrees, l):
    # the reference applies all of g; multi_filtration applies only n
    ctx = build_context(m, n)
    rows, offset = [], 0
    for d in degrees:
        column = {key: c + offset for key, c in _columns(m, n, d).items()}
        rows += [_row(image, column)
                 for image in _reference_images(ctx.basis, l, highest_weight_vector(m, n, d),
                                                m, d)
                 if not image.is_zero]
        offset += len(column)
    return rank(SparseMatrix.from_rows(rows, cols=offset))


def test_multi_filtration_is_capped_by_the_module_alone():
    # The walk enumerates no U_2(n) (C(4 + 2, 2) = 15 monomials): each image
    # it keeps is a pivot among the 21 module indices, which the cap bounds.
    assert multi_filtration(2, 2, [2, 2], 2) == _multi_filtration_reference(2, 2, (2, 2), 2) == 30
    assert multi_filtration(2, 2, [2, 2], 2, 21) == 30
    with pytest.raises(SizeCapError, match="ambient module dimension"):
        multi_filtration(2, 2, [2, 2], 2, 20)


# -- canonical filtration grown as one certified PBW walk ----------------------


@pytest.mark.parametrize("m,n,d,l_max", [(2, 2, 4, 3), (1, 1, 5, 4), (2, 3, 3, 2),
                                         (3, 3, 2, 1), (2, 2, 2, 3), (1, 2, 3, 4),
                                         (1, 3, 3, 3)])
def test_canonical_bases_match_rref_of_evaluation_matrix(m, n, d, l_max):
    # F_l is the row span of the PBW evaluation matrix over all of g, built
    # row by row by apply_pbw_monomial; its rref rows are the canonical basis.
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
        for c, key in enumerate(basis):
            by_weight.setdefault(weight_of(key, m, n, d), set()).add(c)
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


def _patched_move(monkeypatch, m, n, d, ij, wedge, target):
    """Make E_ij send `wedge` to `target` in the stored move table, with sign 1."""
    table, wedges = plethysm._moves(m, m + n, d), wedge_basis(m, n)
    units = wedge_keys(m, n, d)
    k = wedges.index(wedge)
    moves = list(table[ij])
    assert moves[k] is not None
    moves[k] = (units[wedges.index(target)] - units[k], 1)
    monkeypatch.setitem(table, ij, tuple(moves))


def test_canonical_filtration_rejects_a_row_of_two_weights(monkeypatch, cold_filtration):
    # E_21 sends the wedge (1,) to (3,) instead of (2,): one more index above
    # m = 1 still, but the weight of the image moves by e_3 - e_1, so a row
    # of E_21 v and E_31 v would mix weights.  The table certificate refuses
    # the move before any image is built.
    m, n, d = 1, 2, 2
    assert weight_of(pack(((1,), (3,)), m, n), m, n, d) \
        != weight_of(pack(((1,), (2,)), m, n), m, n, d)
    _patched_move(monkeypatch, m, n, d, (2, 1), (1,), (3,))
    acts = _counted(monkeypatch, filtration, "act_all")
    with pytest.raises(CertificateError, match=r"E_2,1 does not shift the weight of wedge \(1,\)"):
        canonical_filtration(m, n, d, 1)
    assert acts == []


@pytest.mark.parametrize("m,n,d", [(2, 2, 4), (2, 3, 3), (3, 3, 2)])
def test_the_walk_children_are_the_actions_of_n(monkeypatch, cold_filtration, m, n, d):
    # Every walk of the growth to saturation returns act(z_i, image) for each
    # child z_i of n it is given, and the walks return one image per PBW
    # basis point but v.
    nilpotent = build_context(m, n).subalgebra_basis(SubalgebraTag.N)
    walks = []
    walk = filtration.act_all

    def recorded(xs, image, m, d):
        walks.append((xs, image, walk(xs, image, m, d)))
        return walks[-1][2]

    monkeypatch.setattr(filtration, "act_all", recorded)
    assert canonical_filtration(m, n, d, 3 * d).saturation_level == d * min(m, n)
    assert sum(len(images) for *_, images in walks) + 1 == weyl_dim_oracle(m, n, d)
    for xs, image, images in walks:
        assert all(x in nilpotent for x in xs)
        assert images == [act(x, image, m, d) for x in xs]


@pytest.mark.parametrize("m,n,d,l", [(1, 1, 5, 6), (1, 3, 4, 5), (2, 2, 4, 9), (2, 3, 3, 7),
                                     (3, 3, 3, 10), (2, 4, 4, 9)])
def test_closed_form_weights_are_the_weights_of_the_basis(m, n, d, l):
    # The multiset counted from the images' exponent vectors is the one that
    # `weight_of` reads off each level's canonical basis, row by row: every
    # term of a row has its pivot's weight, and rows new at level k hold
    # k indices above m in every term.
    result = canonical_filtration(m, n, d, l, 10**6)
    for level in result.levels:
        read = Counter()
        for vec in level.basis:
            (weight,) = {weight_of(key, m, n, d) for key in vec.coeffs}
            read[weight] += 1
        assert read == level.weight_multiset
    for lower, upper in zip(result.levels, result.levels[1:]):
        new = [vec for vec in upper.basis if vec not in lower.basis]
        assert len(new) == upper.dim - lower.dim
        assert {sum(weight_of(key, m, n, d).coords[m:]) for vec in new for key in vec.coeffs} \
            <= {upper.level}


def _moving_e12(x, vec, m, d):
    # E_12 lies in p (m = 2) but now also lowers: v is no p-eigenvector
    image = act(x, vec, m, d)
    if x.entries == {(1, 2): 1}:
        image = image + act(build_context(2, 2).E(3, 1), vec, m, d)
    return image


def test_a_p_element_moving_v_fails_the_certificate(monkeypatch, cold_filtration):
    monkeypatch.setattr(filtration, "act", _moving_e12)
    with pytest.raises(CertificateError, match="p does not act"):
        canonical_filtration(2, 2, 3, 2)
    with pytest.raises(CertificateError, match="p does not act"):
        multi_filtration(2, 2, [2, 3], 1)
    assert not char_ideal_generator_check(2, 2, 3, 1)


def test_filtration_acts_only_by_n_after_the_certificate(monkeypatch, cold_filtration):
    # (2,2,4) to level 3: the 11 elements of p act once on v for the
    # certificate, and n acts in one walk per image of levels 0..2
    # (1 + 4 + 10 = 15 walks), one child per PBW basis image z^a v with
    # 1 <= |a| <= 3 (4 + 10 + 20 = 34 children)
    acts = _counted(monkeypatch, filtration, "act")
    walks = _counted(monkeypatch, filtration, "act_all")
    assert canonical_filtration(2, 2, 4, 3).dims == [1, 5, 15, 35]
    ctx = build_context(2, 2)
    assert len(acts) == 11
    assert all(ctx.contains(x, SubalgebraTag.P) for x, *_ in acts)
    assert len(walks) == 15
    children = [x for xs, *_ in walks for x in xs]
    assert len(children) == 34
    assert all(ctx.contains(x, SubalgebraTag.N) for x in children)


def _path_sums(exps, m):
    # every path from the top left to the bottom right entry of the n x m
    # matrix of exps (row by row), one row down or one column right a step
    n = len(exps) // m
    for downs in combinations(range(m + n - 2), n - 1):
        r = c = 0
        total = exps[0]
        for step in range(m + n - 2):
            r, c = (r + 1, c) if step in downs else (r, c + 1)
            total += exps[r * m + c]
        yield total


@pytest.mark.parametrize("m,n,d", [(1, 3, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2),
                                   (3, 2, 2), (3, 3, 2)])
def test_fflv_points_bound_every_path_and_count_the_weyl_dimension(m, n, d):
    points = 0
    for exps in product(range(d + 1), repeat=m * n):
        inside = fflv_point(exps, m, d)
        assert inside == (max(_path_sums(exps, m)) <= d)
        assert inside or sum(exps) > d
        points += inside
    assert points == weyl_dim_oracle(m, n, d)


def _one_path(exps, m, d):
    # only the path down the first column and along the last row
    n = len(exps) // m
    return sum(exps[::m]) + sum(exps[(n - 1) * m + 1:]) <= d


def _child(exps, i):
    return exps[:i] + (exps[i] + 1,) + exps[i + 1:]


@pytest.mark.parametrize("m,n,d", [(1, 3, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2),
                                   (3, 2, 2), (3, 3, 2)])
def test_fflv_children_are_the_children_that_are_points(m, n, d):
    # From every point, each child a + e_i with i at most the leftmost
    # nonzero index is decided by the one backward table as by the forward
    # table of the child itself.
    for exps in product(range(d + 1), repeat=m * n):
        if fflv_point(exps, m, d):
            lead = next((i for i, e in enumerate(exps) if e), m * n - 1)
            assert filtration._fflv_children(exps, lead, m, d) == \
                [i for i in range(lead + 1) if fflv_point(_child(exps, i), m, d)]


WRONG_POLYTOPES = {
    "simplex": (lambda exps, m, d: sum(exps) <= d, "PBW basis images, expected"),
    "bound d + 1": (lambda exps, m, d: fflv_point(exps, m, d + 1), "is dependent"),
    "one path": (_one_path, "is dependent"),
}


@pytest.mark.parametrize("m,n,d", [(2, 2, 2), (2, 3, 3), (3, 3, 2)])
@pytest.mark.parametrize("polytope", sorted(WRONG_POLYTOPES))
def test_a_wrong_polytope_fails_the_certificate(monkeypatch, cold_filtration, m, n, d,
                                                polytope):
    # the simplex falls short of the Weyl dimension; the two larger sets
    # admit an image that depends on the others of its degree
    top = d * min(m, n)
    assert canonical_filtration(m, n, d, top + 1).saturation_level == top
    filtration._grown.clear()
    point, message = WRONG_POLYTOPES[polytope]
    monkeypatch.setattr(filtration, "_fflv_children", lambda exps, lead, m, d: [
        i for i in range(lead + 1) if point(_child(exps, i), m, d)])
    with pytest.raises(CertificateError, match=message):
        canonical_filtration(m, n, d, top + 1)


@pytest.mark.parametrize("m,n,d", [(2, 2, 2), (2, 3, 3), (3, 3, 2)])
@pytest.mark.parametrize("l_max", [1, 9])
def test_an_injected_dependent_image_fails_the_certificate(monkeypatch, cold_filtration,
                                                           m, n, d, l_max):
    # the walk from v returns twice the first child's image as the second
    # child's: two level-1 images are dependent, at l_max <= d and past it
    walk = filtration.act_all

    def repeating(xs, vec, m, d):
        images = walk(xs, vec, m, d)
        if vec == highest_weight_vector(m, n, d):
            images[1] = 2 * images[0]
        return images

    monkeypatch.setattr(filtration, "act_all", repeating)
    with pytest.raises(CertificateError,
                       match=r"the image of z\^\(0, 1(, 0)*\) is dependent at level 1"):
        canonical_filtration(m, n, d, l_max)


@pytest.mark.parametrize("m,n,d", [(2, 2, 2), (2, 3, 3), (3, 3, 2)])
def test_an_image_of_another_t_degree_fails_the_certificate(monkeypatch, cold_filtration,
                                                            m, n, d):
    # E_(m+1),1 leaves the first wedge where it is: no index above m is
    # added, so E_(m+1),1 v would be a multiple of v, of t-degree 0, among
    # the level-1 images.  The table certificate refuses the move.
    first = tuple(range(1, m + 1))
    _patched_move(monkeypatch, m, n, d, (m + 1, 1), first, first)
    with pytest.raises(CertificateError, match=rf"E_{m + 1},1 keeps the t-degree of wedge"):
        canonical_filtration(m, n, d, 1)


@pytest.mark.parametrize("m,n,d", [(1, 2, 2), (2, 2, 2), (2, 3, 1)])
def test_every_wrong_move_of_n_fails_the_table_certificate(monkeypatch, cold_filtration,
                                                           m, n, d):
    # Each live move of each n-generator, sent to any other wedge, is refused;
    # the true table passes.
    canonical_filtration(m, n, d, 1)
    wedges = wedge_basis(m, n)
    for x in build_context(m, n).subalgebra_basis(SubalgebraTag.N):
        ((i, j),) = x.entries
        for w, move in zip(wedges, plethysm._moves(m, m + n, d)[i, j]):
            if move is None:
                continue
            true = tuple(sorted(set(w) - {j} | {i}))
            for target in wedges:
                if target != true:
                    with monkeypatch.context() as patch:
                        _patched_move(patch, m, n, d, (i, j), w, target)
                        filtration._moves_certified.cache_clear()
                        with pytest.raises(CertificateError, match=f"E_{i},{j}"):
                            filtration._moves_certified(m, n, d)
    filtration._moves_certified.cache_clear()
    filtration._moves_certified(m, n, d)


def test_saturated_levels_are_not_read_again(monkeypatch, cold_filtration):
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
        shorter = canonical_filtration(2, 2, 3, k)  # a request for bases walks again
        sliced = grown._replace(dims=grown.dims[:k + 1], levels=grown.levels[:k + 1])
        assert sliced.dims == shorter.dims
        assert sliced.saturation_level == shorter.saturation_level
        assert sliced.levels[k].basis == shorter.levels[k].basis


# the seven growths whose canonical bases the CI `filtration-scale` digest pins
CI_BASIS_GROWTHS = [(1, 1, 5, 6), (1, 3, 4, 5), (2, 2, 4, 9), (2, 3, 3, 7), (3, 3, 3, 10),
                    (2, 4, 4, 9), (3, 3, 5, 15)]


@pytest.mark.parametrize("m,n,d,l", [(m, n, d, d) for m, n, d in DESK_CASES] + CI_BASIS_GROWTHS)
def test_walk_and_canonical_filtration_agree(monkeypatch, cold_filtration, m, n, d, l):
    # A walk and a growth with bases, each new, agree on dims and
    # saturation; the growth's stored walk then serves the walk request.
    growths = _growths(monkeypatch)
    walk = filtration_walk(m, n, d, l, 10**6)
    grown = canonical_filtration(m, n, d, l, 10**6)
    assert (walk.dims, walk.saturation_level, walk.module_dim) \
        == (grown.dims, grown.saturation_level, grown.module_dim)
    assert filtration_walk(m, n, d, l, 10**6) == walk
    assert growths == [(m, n, d)] * 2
    assert len(walk.supports) == min(l + 1, d)


def test_a_result_holds_no_levels_unless_given():
    result = filtration.FiltrationResult(3, [1, 3], [frozenset({1}), frozenset({2, 3})])
    assert result.levels is None and result.saturation_level == 1
    assert result._replace(dims=[1, 2]).saturation_level is None


def test_a_full_growth_serves_a_walk_and_a_walk_serves_no_basis(monkeypatch, cold_filtration):
    # A walk keeps no rows, so a request for bases grows again; a growth
    # with bases stores its walk, which serves every walk it reaches, and a
    # deeper walk grows again.
    growths = _growths(monkeypatch)
    walk = filtration_walk(2, 2, 4, 3)
    assert (walk.dims, walk.saturation_level) == ([1, 5, 15, 35], None)
    assert filtration_walk(2, 2, 4, 1) == walk._replace(dims=[1, 5], supports=walk.supports[:2])
    assert canonical_filtration(2, 2, 4, 3).dims == walk.dims
    assert filtration_walk(2, 2, 4, 3) == walk
    assert filtration_walk(2, 2, 4, 9).dims == [1, 5, 15, 35, 70, 90, 100, 104, 105, 105]
    assert canonical_filtration(2, 2, 4, 2).dims == [1, 5, 15]
    assert growths == [(2, 2, 4)] * 4


def test_levels_past_l_max_are_walked_and_not_reduced(monkeypatch, cold_filtration):
    # (2,2,4) saturates at level 8: a growth with bases to level 5 walks to
    # the last point and reduces levels 0..5 only; its walk serves a walk to
    # level 8, and a request for bases at level 6 grows again.
    reads = []
    canonical_rows = Echelon.canonical_rows

    def counted(self):
        reads.append(self)
        return canonical_rows(self)

    monkeypatch.setattr(Echelon, "canonical_rows", counted)
    growths = _growths(monkeypatch)
    assert canonical_filtration(2, 2, 4, 5).dims == [1, 5, 15, 35, 70, 90]
    assert len(reads) == 6
    assert filtration_walk(2, 2, 4, 8).dims == [1, 5, 15, 35, 70, 90, 100, 104, 105]
    assert len(growths) == 1
    assert canonical_filtration(2, 2, 4, 6).dims[6] == 100
    assert (len(reads), len(growths)) == (13, 2)


def test_a_saturated_growth_serves_every_longer_request(monkeypatch, cold_filtration):
    # (2,2,4) saturates at level 8: a growth with bases to level 5 walks to
    # the last point, so its stored walk serves walks to levels 9 and 31,
    # padded; every request for bases walks again, its levels padded past
    # saturation.  Each equals a new growth.
    growths = _growths(monkeypatch)
    canonical_filtration(2, 2, 4, 5)
    walks = [filtration_walk(2, 2, 4, l) for l in (9, 31)]
    assert walks[1].dims == [1, 5, 15, 35, 70, 90, 100, 104] + [105] * 24
    assert len(growths) == 1
    grown = canonical_filtration(2, 2, 4, 8)
    longer = [canonical_filtration(2, 2, 4, l) for l in (9, 31)]
    assert [len(result.levels) for result in longer] == [10, 32]
    assert len(growths) == 4
    for l, walk, result in zip((9, 31), walks, longer):
        filtration._grown.clear()
        assert filtration_walk(2, 2, 4, l) == walk
        filtration._grown.clear()
        assert canonical_filtration(2, 2, 4, l) == result
        assert result.levels[:9] == grown.levels
    assert len(growths) == 8


@pytest.mark.parametrize("m,n,d", DESK_CASES)
def test_sliced_filtration_matches_shorter_growth(m, n, d, cold_filtration):
    # The desk suite grows each filtration to level d and slices it; the
    # saturation level must come out as a shorter growth reports it.
    grown = canonical_filtration(m, n, d, d)
    for k in range(d + 1):
        sliced = grown._replace(dims=grown.dims[:k + 1], levels=grown.levels[:k + 1])
        shorter = canonical_filtration(m, n, d, k)  # a request for bases walks again
        assert sliced.dims == shorter.dims
        assert sliced.saturation_level == shorter.saturation_level


@pytest.mark.parametrize("m,n,d", DESK_CASES)
def test_level_bases_store_ints_unless_fractional(m, n, d):
    for level in canonical_filtration(m, n, d, d).levels:
        for vec in level.basis:
            assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
                       for v in vec.coeffs.values())


def _counted(monkeypatch, module, name):
    """The arguments of every call to `module.name` from now on."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class _CountedStore(dict):
    """The growth memo, recording the key of every growth it stores."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def _growths(monkeypatch):
    store = _CountedStore()
    monkeypatch.setattr(filtration, "_grown", store)
    return store.stored


def test_checks_after_a_growth_grow_nothing(monkeypatch, cold_filtration):
    # The duality, annihilator and split checks read level 3 of the stored
    # (2,2,4) growth and act on nothing; `pbw_filtration` acts only to build
    # its image list row by row, |a| actions per monomial.
    acts = _counted(monkeypatch, filtration, "act")
    walks = _counted(monkeypatch, filtration, "act_all")
    assert canonical_filtration(2, 2, 4, 3).dims == [1, 5, 15, 35]
    assert (len(acts), len(walks)) == (11, 15)
    acts.clear()
    walks.clear()
    report = duality_check(2, 2, 4, 3)
    assert (report.filtration_dim, report.taylor_rank, report.dim_match,
            report.pairing_vanishes) == (35, 35, True, True)
    assert annihilator_dim(2, 2, 4, 3) == 781
    split = verma_split_check(2, 2, 4, 3)
    assert (split.dim_ul_g, split.dim_ul_n, split.dim_ann, split.split_holds) \
        == (816, 35, 781, True)
    assert acts == walks == []
    vectors, independent = pbw_filtration(2, 2, 4, 3)
    assert (len(vectors), independent) == (35, True)
    assert len(acts) == sum(map(sum, graded_monomials(4, 3))) == 84
    assert walks == []


def test_a_deeper_level_grows_once(monkeypatch, cold_filtration):
    # The deeper growth's stored walk serves every shorter walk; a request
    # for bases walks again.
    growths = _growths(monkeypatch)
    assert canonical_filtration(2, 2, 4, 2).dims == [1, 5, 15]
    deeper = canonical_filtration(2, 2, 4, 4)
    assert deeper.dims == [1, 5, 15, 35, 70]
    for l in (4, 3, 0, 2):
        assert filtration_walk(2, 2, 4, l).dims == deeper.dims[:l + 1]
    assert growths == [(2, 2, 4)] * 2
    assert canonical_filtration(2, 2, 4, 3).dims == deeper.dims[:4]
    assert growths == [(2, 2, 4)] * 3


def test_the_cap_is_checked_before_the_stored_walk(monkeypatch, cold_filtration):
    # The stored walk is keyed by (m, n, d): a walk request under any cap
    # the module (56 indices) and l_max fit in reads it, and a smaller cap
    # raises before the lookup, although the stored walk reaches l_max.
    growths = _growths(monkeypatch)
    grown = canonical_filtration(2, 2, 3, 3)
    assert canonical_filtration(2, 2, 3, 3, cap=100) == grown
    assert filtration_walk(2, 2, 3, 2, cap=100).dims == grown.dims[:3]
    assert filtration_walk(2, 2, 3, 3) == grown._replace(levels=None)
    with pytest.raises(SizeCapError, match="ambient module dimension"):
        filtration_walk(2, 2, 3, 2, cap=55)
    with pytest.raises(SizeCapError, match="filtration level"):
        filtration_walk(2, 2, 3, 3, cap=2)
    assert growths == [(2, 2, 3)] * 2


def test_each_call_returns_a_new_result(monkeypatch, cold_filtration):
    # Emptying a returned result's lists leaves the stored walk whole.
    growths = _growths(monkeypatch)
    first = canonical_filtration(2, 2, 3, 3)
    second = canonical_filtration(2, 2, 3, 3)
    walk = filtration_walk(2, 2, 3, 3)
    assert first == second and first is not second and first.levels is not second.levels
    assert not any(a is b for a, b in zip(first.levels, second.levels, strict=True))
    for result in (first, walk):
        result.dims.clear()
        result.supports.clear()
    first.levels.clear()
    second.levels.pop()
    assert filtration_walk(2, 2, 3, 3) == second._replace(levels=None)
    assert canonical_filtration(2, 2, 3, 3).dims == [1, 5, 15, 35]
    assert len(growths) == 3


def test_each_v_is_certified_once(monkeypatch, cold_filtration):
    certified = _counted(monkeypatch, filtration, "_p_eigenvector")
    canonical_filtration(2, 2, 3, 2)
    assert char_ideal_generator_check(2, 2, 3, 1)
    assert multi_filtration(2, 2, [2, 3, 3], 1) == 15
    canonical_filtration(2, 2, 2, 1)
    assert char_ideal_generator_check(2, 2, 2, 2)
    assert [args[1] for args in certified] == [3, 2]
    # a failed certificate is stored too, and raises on every call
    monkeypatch.setattr(filtration, "act", _moving_e12)
    for _ in range(2):
        with pytest.raises(CertificateError, match="p does not act"):
            canonical_filtration(2, 2, 4, 1)
    assert not char_ideal_generator_check(2, 2, 4, 1)
    assert [args[1] for args in certified] == [3, 2, 4]


def test_grassmannian_jobs_grow_and_certify_each_case_once(monkeypatch, cold_filtration):
    # Three cases grown to level min(d - 1, 3), each read again by its
    # duality job, and two annihilator cases: 5 growths and 5 certificates;
    # the character-ideal job at (2,2,4) reads the first case's certificate.
    workloads = perfbench_workloads()
    growths = _growths(monkeypatch)
    certified = _counted(monkeypatch, filtration, "_p_eigenvector")
    for job in workloads.grassmannian_jobs(0):
        assert job.check(job.call()) is None, job.label
    assert len(growths) == 5
    assert len(certified) == 5


@pytest.mark.parametrize("m,n,d", DESK_CASES)
def test_p_eigenvector_reads_rho_of_degree_d(m, n, d):
    # p acts on the degree-d highest weight vector, and on any multiple of
    # it, by rho = d * (trace of the upper-left m x m block); the degree
    # d + 1 character is not the one v carries.
    ctx = build_context(m, n)
    v = highest_weight_vector(m, n, d)
    assert filtration._p_eigenvector(ctx, d, 3 * v)
    assert not filtration._p_eigenvector(ctx, d + 1, v)
