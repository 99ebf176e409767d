import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod

import pytest

from vermajet import filtration, plethysm
from vermajet.filtration import weight_of
from vermajet.errors import SizeCapError
from vermajet.lie import SubalgebraTag, Weight, build_context, rho_character
from vermajet.plethysm import (PlethysmVector, act, act_all, highest_weight_vector, module_dim,
                               sym_basis, wedge_basis, wedge_counts, wedge_keys)
from vermajet.suite import DESK_CASES

from reference import (bracket, highest_weight, pack, pair, tuple_act,
                       tuple_filtration_bases, tuple_matching_count, tuple_weight_of, unpack)


def _key(m, n, *wedges):
    """The key of the multiset of the given wedges."""
    return pack(tuple(sorted(wedges)), m, n)


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
    expected = PlethysmVector({_key(1, 1, (1,), (1,), (2,)): 3})
    assert act(ctx.E(2, 1), v, 1, 3) == expected


def test_raising_kills_highest_weight():
    ctx = build_context(2, 2)
    v = highest_weight_vector(2, 2, 2)
    assert act(ctx.E(1, 2), v, 2, 2).is_zero


def test_wedge_substitution_with_sign():
    ctx = build_context(2, 2)
    v = highest_weight_vector(2, 2, 2)
    expected = PlethysmVector({_key(2, 2, (1, 2), (1, 3)): 2})
    assert act(ctx.E(3, 2), v, 2, 2) == expected


def test_highest_weight_vector_shape():
    # Wedge 0's count sits in the top field: 3 in field 1 of 2-bit fields,
    # and 2 in field 5 of 2-bit fields.
    assert highest_weight_vector(1, 1, 3) == PlethysmVector({3 << 2: 1})
    assert highest_weight_vector(2, 2, 2) == PlethysmVector({2 << 10: 1})


def test_weight_of_v_is_highest():
    for m, n, d in [(1, 1, 3), (2, 2, 2), (1, 2, 4)]:
        ctx = build_context(m, n)
        v = highest_weight_vector(m, n, d)
        (key,) = v.coeffs
        assert weight_of(key, m, n, d) == highest_weight(ctx, d)


def test_weight_of_examples():
    assert weight_of(_key(1, 1, (1,), (1,), (1,)), 1, 1, 3) == Weight((3, 0))
    assert weight_of(_key(2, 2, (1, 2), (1, 3)), 2, 2, 2) == Weight((2, 1, 1, 0))


def test_weight_coordinate_sum():
    for key in sym_basis(2, 2, 2):
        assert sum(weight_of(key, 2, 2, 2).coords) == 2 * 2


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
                lhs = act(bracket(x, y), w, 1, 3)
                rhs = act(x, act(y, w, 1, 3), 1, 3) - act(y, act(x, w, 1, 3), 1, 3)
                assert lhs == rhs


def test_action_is_a_lie_action_sl4_sampled():
    rng = random.Random(13)
    ctx = build_context(2, 2)
    basis = sym_basis(2, 2, 2)
    for _ in range(25):
        w = _random_vector(rng, basis)
        x = rng.choice(ctx.basis)
        y = rng.choice(ctx.basis)
        assert act(bracket(x, y), w, 2, 2) \
            == act(x, act(y, w, 2, 2), 2, 2) - act(y, act(x, w, 2, 2), 2, 2)


def test_cartan_and_raising_on_highest_weight():
    for m, n, d in [(1, 1, 3), (2, 2, 2), (1, 2, 3)]:
        ctx = build_context(m, n)
        v = highest_weight_vector(m, n, d)
        lam = highest_weight(ctx, d)
        for i, j in combinations(range(1, ctx.size + 1), 2):  # raising: E_ij with i < j
            assert act(ctx.E(i, j), v, m, d).is_zero
        for k in range(1, ctx.size):
            h = ctx.H(k)
            value = lam.coords[k - 1] - lam.coords[k]
            assert act(h, v, m, d) == value * v


def test_parabolic_stabilizes_the_line():
    ctx = build_context(2, 2)
    d = 2
    v = highest_weight_vector(2, 2, d)
    for y in ctx.subalgebra_basis(SubalgebraTag.P):
        assert act(y, v, 2, d) == rho_character(ctx, d, y) * v


def test_action_shifts_weights_by_roots():
    ctx = build_context(2, 2)
    basis = sym_basis(2, 2, 2)
    for key in basis[:8]:
        w = weight_of(key, 2, 2, 2)
        for i in range(1, ctx.size + 1):
            for j in range(1, ctx.size + 1):
                if i == j:
                    continue
                image = act(ctx.E(i, j), PlethysmVector({key: 1}), 2, 2)
                shift = [0] * ctx.size
                shift[i - 1] += 1
                shift[j - 1] -= 1
                for out_key in image.coeffs:
                    assert weight_of(out_key, 2, 2, 2) == w + Weight(shift)


def test_pair_dual_monomials():
    d = 3
    v = highest_weight_vector(1, 1, d)
    section = {_key(1, 1, *[(1,)] * d): Fraction(1)}
    assert pair(v, section, 1, 1, d) == factorial(d)


def test_pair_disjoint_supports():
    d = 3
    v = highest_weight_vector(1, 1, d)
    section = {_key(1, 1, *[(2,)] * d): Fraction(1)}
    assert pair(v, section, 1, 1, d) == 0


def test_pair_degree_mismatch():
    # A key does not carry its degree: one whose fields, read at degree d,
    # do not sum to d is refused on either side.  One of another degree
    # whose fields sum to d is not: the degree-1 key 1 << 5 of (2,2), wedge
    # (1, 2), reads at d = 2 as two copies of wedge (2, 3).
    v = highest_weight_vector(1, 1, 3)
    with pytest.raises(ValueError, match="holds no 3 wedges"):
        pair(v, {_key(1, 1, (1,), (1,)): Fraction(1)}, 1, 1, 3)
    w = highest_weight_vector(2, 2, 2)
    for section in ({1 << 10: 1}, {(1 << 8) + (2 << 2): 1}, {1 << 12: 1}):
        with pytest.raises(ValueError, match="holds no 2 wedges"):
            pair(w, section, 2, 2, 2)
    with pytest.raises(ValueError, match="holds no 2 wedges"):
        pair(v, {}, 2, 2, 2)
    assert unpack(1 << 5, 2, 2, 1) == ((1, 2),)
    assert unpack(1 << 5, 2, 2, 2) == ((2, 3), (2, 3))
    assert pair(w, {1 << 5: 1}, 2, 2, 2) == 0
    assert pair(PlethysmVector({1 << 5: 1}), {1 << 5: 3}, 2, 2, 2) == 3 * 2


def _in_canonical_form(coeffs):
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in coeffs.values())


ORACLE_CASES = [(1, 1, 3), (1, 2, 2), (2, 1, 3), (2, 2, 2), (2, 3, 2)]
# d = 1, 2, 3, 4, 7 and 8: each side of every change of the field width
# d.bit_length(); (4,4,2) has 70 wedges of 2 bits, keys past 64 bits.
LAYOUT_CASES = [(1, 2, 1), (2, 2, 1), (1, 3, 2), (1, 2, 3), (2, 2, 3), (1, 2, 4),
                (1, 1, 7), (1, 2, 7), (1, 1, 8), (1, 2, 8), (4, 4, 2)]


def _through_tuples(coeffs, m, n, d):
    return {unpack(key, m, n, d): v for key, v in coeffs.items()}


def _full_fields(m, n, d):
    """Vectors with one field at d: the first, a middle and the last wedge
    to the d-th power, where a field too narrow for d would carry."""
    units = wedge_keys(m, n, d)
    return [PlethysmVector({d * units[k]: 1}) for k in sorted({0, len(units) // 2, -1})]


@pytest.mark.parametrize("m,n,d", ORACLE_CASES + LAYOUT_CASES)
def test_act_matches_fraction_reference(m, n, d):
    rng = random.Random(m * 100 + n * 10 + d)
    ctx = build_context(m, n)
    basis = sym_basis(m, n, d)
    vectors = [highest_weight_vector(m, n, d), _random_vector(rng, basis, 6)]
    vectors += _full_fields(m, n, d)
    # Halves and thirds, so that sums and products land on integers too.
    vectors += [PlethysmVector({basis[i]: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                                for i in rng.sample(range(len(basis)), min(6, len(basis)))})
                for _ in range(3)]
    for w in vectors:
        assert _in_canonical_form(w.coeffs)
        integral = all(type(v) is int for v in w.coeffs.values())
        tuples = _through_tuples(w.coeffs, m, n, d)
        for x in ctx.basis:
            assert all(type(v) is int for v in x.entries.values())
            image = act(x, w, m, d)
            assert _through_tuples(image.coeffs, m, n, d) == tuple_act(x, tuples)
            assert _in_canonical_form(image.coeffs)
            if integral:  # integer in, integer out
                assert all(type(v) is int for v in image.coeffs.values())
            scaled = Fraction(3, 2) * x
            image = act(scaled, w, m, d)
            assert _through_tuples(image.coeffs, m, n, d) == tuple_act(scaled, tuples)
            assert _in_canonical_form(image.coeffs)


@pytest.mark.parametrize("m,n,d", ORACLE_CASES + LAYOUT_CASES)
def test_one_walk_acts_as_each_element_alone(m, n, d):
    # `act_all` over any list of elements, repeats and Fraction multiples
    # among them, gives each element's own action; no elements, no images.
    rng = random.Random(m * 10000 + n * 100 + d)
    ctx = build_context(m, n)
    basis = sym_basis(m, n, d)
    w = _random_vector(rng, basis, 6) + Fraction(1, 3) * highest_weight_vector(m, n, d)
    xs = list(ctx.basis) + [Fraction(3, 2) * ctx.basis[0], ctx.basis[-1]]
    rng.shuffle(xs)
    assert act_all(xs, w, m, d) == [act(x, w, m, d) for x in xs]
    assert act_all([], w, m, d) == []
    tuples = _through_tuples(w.coeffs, m, n, d)
    for x, image in zip(xs, act_all(xs, w, m, d)):
        assert _through_tuples(image.coeffs, m, n, d) == tuple_act(x, tuples)


class _Unit:
    """E_ij for any i, j, E_ii included: `reference.tuple_act` reads only
    `entries`, and a LieElement must be traceless."""

    def __init__(self, i, j):
        self.entries = {(i, j): 1}


@pytest.mark.parametrize("m,n,d", ORACLE_CASES + LAYOUT_CASES + [(3, 3, 6), (2, 4, 5)])
def test_move_table_matches_the_tuple_action(m, n, d):
    # Each entry of `_moves` is read off the tuple action of E_ij on one
    # copy of the wedge: (key delta, sign) of its one image term, or None
    # when the image is zero.
    units = dict(zip(wedge_basis(m, n), wedge_keys(m, n, d)))
    expected = {}
    for i in range(1, m + n + 1):
        for j in range(1, m + n + 1):
            row = []
            for wedge in wedge_basis(m, n):
                image = tuple_act(_Unit(i, j), {(wedge,): 1})
                assert len(image) <= 1
                row.append(next(((units[target] - units[wedge], int(sign))
                                 for (target,), sign in image.items()), None))
            expected[i, j] = tuple(row)
    assert plethysm._moves(m, m + n, d) == expected


@pytest.mark.parametrize("m,n,d", ORACLE_CASES)
def test_weights_and_matching_counts_match_the_tuple_oracle(m, n, d):
    rng = random.Random(m * 1000 + n * 100 + d)
    basis = sym_basis(m, n, d)
    for key in rng.sample(basis, min(40, len(basis))):
        wedges = unpack(key, m, n, d)
        assert pack(wedges, m, n) == key and len(wedges) == d
        assert weight_of(key, m, n, d).coords == tuple_weight_of(wedges, m + n).coords
        counts = [e for _, e in wedge_counts(key, m, n, d)]
        assert sum(counts) == d
        assert tuple_matching_count(wedges) == prod(map(factorial, counts))


@pytest.mark.parametrize("m,n,d", LAYOUT_CASES)
def test_pack_and_unpack_round_trip_against_the_fields(m, n, d):
    # Every sorted d-tuple (a sample at (4,4,2)) packs to a key whose fields,
    # read by `plethysm.wedge_counts`, are its wedge counts, and unpacks back.
    wedges = wedge_basis(m, n)
    tuples = list(combinations_with_replacement(wedges, d))
    if len(tuples) > 600:
        tuples = random.Random(d).sample(tuples, 600) + [tuples[0], tuples[-1]]
    width, size = d.bit_length(), comb(m + n, m)
    for idx in tuples:
        key = pack(idx, m, n)
        assert unpack(key, m, n, d) == idx
        assert key.bit_length() <= width * size
        counts = {wedges[k]: e for k, e in wedge_counts(key, m, n, d)}
        assert counts == {w: idx.count(w) for w in set(idx)}
    if (m, n) == (4, 4):
        assert max(pack(idx, m, n) for idx in tuples).bit_length() > 64
    assert pack((wedges[0],) * d, m, n) == d * wedge_keys(m, n, d)[0]


ORDER_CASES = [(1, 1, 3), (2, 2, 3), (1, 3, 2), (3, 1, 2), (2, 3, 3)]


@pytest.mark.parametrize("m,n,d", ORDER_CASES + [c for c in LAYOUT_CASES if c not in ORDER_CASES])
def test_column_order_is_the_sorted_wedge_tuples_in_lex_order(m, n, d):
    # `sym_basis` lists the keys in descending order, so the column
    # key(v) - key runs 0, 1, ... in the `combinations_with_replacement`
    # order of the sorted wedge tuples, v first.
    basis = sym_basis(m, n, d)
    tuples = list(combinations_with_replacement(wedge_basis(m, n), d))
    assert [unpack(key, m, n, d) for key in basis] == tuples
    assert [pack(idx, m, n) for idx in tuples] == list(basis)
    top = basis[0]
    assert highest_weight_vector(m, n, d).coeffs == {top: 1}
    columns = [top - key for key in basis]
    assert columns[0] == 0 and columns == sorted(set(columns))
    assert len(basis) == module_dim(m, n, d)


@pytest.mark.parametrize("m,n,d,l_max", [(m, n, d, min(d, 3)) for m, n, d in DESK_CASES]
                         + [(2, 2, 4, 3), (2, 3, 3, 2), (3, 3, 2, 1)])
def test_canonical_bases_match_the_tuple_oracle(m, n, d, l_max):
    levels = filtration.canonical_filtration(m, n, d, l_max).levels
    oracle = tuple_filtration_bases(m, n, d, l_max)
    assert [[_through_tuples(vec.coeffs, m, n, d) for vec in level.basis] for level in levels] \
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
