import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest

from vermajet import filtration
from vermajet.filtration import weight_of
from vermajet.errors import SizeCapError
from vermajet.lie import SubalgebraTag, Weight, bracket, build_context, highest_weight, rho_character
from vermajet.plethysm import (PlethysmVector, act, highest_weight_vector, indexed_basis,
                               module_dim, sym_basis, wedge_basis)
from vermajet.suite import DESK_CASES

from reference import (matching_count, pair, to_counts, to_tuple, tuple_act,
                       tuple_filtration_bases, tuple_matching_count, tuple_weight_of)


def test_module_dim_sl2():
    for d in range(1, 6):
        assert module_dim(1, 1, d) == d + 1


def test_module_dim_wedge():
    assert module_dim(2, 2, 1) == 6
    assert module_dim(2, 2, 2) == 21


def test_module_dim_cap():
    with pytest.raises(SizeCapError):
        module_dim(3, 3, 6)


def test_lowering_on_cubic():
    ctx = build_context(1, 1)
    v = highest_weight_vector(1, 1, 3)
    expected = PlethysmVector({(2, 1): 3})
    assert act(ctx.E(2, 1), v, 1) == expected


def test_raising_kills_highest_weight():
    ctx = build_context(2, 2)
    v = highest_weight_vector(2, 2, 2)
    assert act(ctx.E(1, 2), v, 2).is_zero


def test_wedge_substitution_with_sign():
    ctx = build_context(2, 2)
    v = highest_weight_vector(2, 2, 2)
    expected = PlethysmVector({(1, 1, 0, 0, 0, 0): 2})
    assert act(ctx.E(3, 2), v, 2) == expected


def test_highest_weight_vector_shape():
    assert highest_weight_vector(1, 1, 3) == PlethysmVector({(3, 0): 1})
    assert highest_weight_vector(2, 2, 2) == PlethysmVector({(2, 0, 0, 0, 0, 0): 1})


def test_weight_of_v_is_highest():
    for m, n, d in [(1, 1, 3), (2, 2, 2), (1, 2, 4)]:
        ctx = build_context(m, n)
        v = highest_weight_vector(m, n, d)
        (idx,) = v.coeffs
        assert weight_of(idx, m, n) == highest_weight(ctx, d)


def test_weight_of_examples():
    assert weight_of((3, 0), 1, 1) == Weight((3, 0))
    assert weight_of((1, 1, 0, 0, 0, 0), 2, 2) == Weight((2, 1, 1, 0))


def test_weight_coordinate_sum():
    for idx in sym_basis(2, 2, 2):
        assert sum(weight_of(idx, 2, 2).coords) == 2 * 2


def _random_vector(rng, basis, size=4):
    picks = rng.sample(range(len(basis)), min(size, len(basis)))
    return PlethysmVector({basis[i]: rng.randint(-5, 5) for i in picks})


def test_action_is_a_lie_action_sl2():
    rng = random.Random(11)
    ctx = build_context(1, 1)
    basis = sym_basis(1, 1, 3)
    for _ in range(20):
        w = _random_vector(rng, basis)
        for x in ctx.basis:
            for y in ctx.basis:
                lhs = act(bracket(x, y), w, 1)
                rhs = act(x, act(y, w, 1), 1) - act(y, act(x, w, 1), 1)
                assert lhs == rhs


def test_action_is_a_lie_action_sl4_sampled():
    rng = random.Random(13)
    ctx = build_context(2, 2)
    basis = sym_basis(2, 2, 2)
    for _ in range(25):
        w = _random_vector(rng, basis)
        x = rng.choice(ctx.basis)
        y = rng.choice(ctx.basis)
        assert act(bracket(x, y), w, 2) == act(x, act(y, w, 2), 2) - act(y, act(x, w, 2), 2)


def test_cartan_and_raising_on_highest_weight():
    for m, n, d in [(1, 1, 3), (2, 2, 2), (1, 2, 3)]:
        ctx = build_context(m, n)
        v = highest_weight_vector(m, n, d)
        lam = highest_weight(ctx, d)
        for x in ctx.subalgebra_basis(SubalgebraTag.G_PLUS):
            assert act(x, v, m).is_zero
        for k in range(1, ctx.size):
            h = ctx.H(k)
            value = lam.coords[k - 1] - lam.coords[k]
            assert act(h, v, m) == value * v


def test_parabolic_stabilizes_the_line():
    ctx = build_context(2, 2)
    d = 2
    v = highest_weight_vector(2, 2, d)
    for y in ctx.subalgebra_basis(SubalgebraTag.P):
        assert act(y, v, 2) == rho_character(ctx, d, y) * v


def test_action_shifts_weights_by_roots():
    ctx = build_context(2, 2)
    basis = sym_basis(2, 2, 2)
    for idx in basis[:8]:
        w = weight_of(idx, 2, 2)
        for i in range(1, ctx.size + 1):
            for j in range(1, ctx.size + 1):
                if i == j:
                    continue
                image = act(ctx.E(i, j), PlethysmVector({idx: 1}), 2)
                shift = [0] * ctx.size
                shift[i - 1] += 1
                shift[j - 1] -= 1
                for out_idx in image.coeffs:
                    assert weight_of(out_idx, 2, 2) == w + Weight(shift)


def test_pair_dual_monomials():
    d = 3
    v = highest_weight_vector(1, 1, d)
    section = {(d, 0): Fraction(1)}
    assert pair(v, section) == factorial(d)


def test_pair_disjoint_supports():
    d = 3
    v = highest_weight_vector(1, 1, d)
    section = {(0, d): Fraction(1)}
    assert pair(v, section) == 0


def test_pair_degree_mismatch():
    v = highest_weight_vector(1, 1, 3)
    with pytest.raises(ValueError):
        pair(v, {(2, 0): Fraction(1)})
    # Exponent vectors of one length (the wedge count) and different degrees.
    w = highest_weight_vector(2, 2, 2)
    for section in ({(1, 0, 0, 0, 0, 0): 1}, {(0, 1, 0, 0, 2, 0): 1}):
        with pytest.raises(ValueError, match="degree mismatch"):
            pair(w, section)


def _in_canonical_form(coeffs):
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in coeffs.values())


ORACLE_CASES = [(1, 1, 3), (1, 2, 2), (2, 1, 3), (2, 2, 2), (2, 3, 2)]


def _through_tuples(coeffs, m, n):
    return {to_tuple(idx, m, n): v for idx, v in coeffs.items()}


@pytest.mark.parametrize("m,n,d", ORACLE_CASES)
def test_act_matches_fraction_reference(m, n, d):
    rng = random.Random(m * 100 + n * 10 + d)
    ctx = build_context(m, n)
    basis = sym_basis(m, n, d)
    vectors = [highest_weight_vector(m, n, d), _random_vector(rng, basis, 6)]
    # Halves and thirds, so that sums and products land on integers too.
    vectors += [PlethysmVector({basis[i]: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                                for i in rng.sample(range(len(basis)), min(6, len(basis)))})
                for _ in range(3)]
    for w in vectors:
        assert _in_canonical_form(w.coeffs)
        integral = all(type(v) is int for v in w.coeffs.values())
        tuples = _through_tuples(w.coeffs, m, n)
        for x in ctx.basis:
            assert all(type(v) is int for v in x.entries.values())
            image = act(x, w, m)
            assert _through_tuples(image.coeffs, m, n) == tuple_act(x, tuples)
            assert _in_canonical_form(image.coeffs)
            if integral:  # integer in, integer out
                assert all(type(v) is int for v in image.coeffs.values())
            scaled = Fraction(3, 2) * x
            image = act(scaled, w, m)
            assert _through_tuples(image.coeffs, m, n) == tuple_act(scaled, tuples)
            assert _in_canonical_form(image.coeffs)


@pytest.mark.parametrize("m,n,d", ORACLE_CASES)
def test_weights_and_matching_counts_match_the_tuple_oracle(m, n, d):
    rng = random.Random(m * 1000 + n * 100 + d)
    basis = sym_basis(m, n, d)
    for idx in rng.sample(basis, min(40, len(basis))):
        wedges = to_tuple(idx, m, n)
        assert to_counts(wedges, m, n) == idx and sum(idx) == d
        assert weight_of(idx, m, n).coords == tuple_weight_of(wedges, m + n).coords
        assert matching_count(idx) == tuple_matching_count(wedges)


@pytest.mark.parametrize("m,n,d", [(1, 1, 3), (2, 2, 3), (1, 3, 2), (3, 1, 2), (2, 3, 3)])
def test_column_order_is_the_sorted_wedge_tuples_in_lex_order(m, n, d):
    basis, index = indexed_basis(m, n, d)
    tuples = list(combinations_with_replacement(wedge_basis(m, n), d))
    assert [to_tuple(idx, m, n) for idx in basis] == tuples
    assert index == {idx: k for k, idx in enumerate(basis)}
    assert sym_basis(m, n, d) is basis and len(basis) == module_dim(m, n, d)


@pytest.mark.parametrize("m,n,d,l_max", [(m, n, d, min(d, 3)) for m, n, d in DESK_CASES]
                         + [(2, 2, 4, 3), (2, 3, 3, 2), (3, 3, 2, 1)])
def test_canonical_bases_match_the_tuple_oracle(m, n, d, l_max):
    levels = filtration.canonical_filtration(m, n, d, l_max).levels
    oracle = tuple_filtration_bases(m, n, d, l_max)
    assert [[_through_tuples(vec.coeffs, m, n) for vec in level.basis] for level in levels] \
        == oracle


def test_vector_arithmetic_keeps_canonical_form():
    idx = sym_basis(1, 1, 2)
    w = PlethysmVector({idx[0]: Fraction(1, 2), idx[1]: Fraction(4, 2), idx[2]: 3})
    assert w.coeffs == {idx[0]: Fraction(1, 2), idx[1]: 2, idx[2]: 3}
    assert type(w.coeffs[idx[1]]) is int
    total = w + PlethysmVector({idx[0]: Fraction(1, 2), idx[1]: Fraction(1, 3)})
    assert type(total.coeffs[idx[0]]) is int and total.coeffs[idx[0]] == 1
    doubled = 2 * w
    assert all(type(v) is int for v in doubled.coeffs.values())
    assert _in_canonical_form((Fraction(1, 3) * w).coeffs)
    assert (w - w).is_zero
