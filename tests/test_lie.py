import itertools
from fractions import Fraction

import pytest

from vermajet import lie
from vermajet.lie import (LieElement, SubalgebraTag, Weight, build_context, rho_character,
                          simple_roots)

from reference import bracket, highest_weight, root_weight


def test_build_sl2():
    ctx = build_context(1, 1)
    assert ctx.N == 3
    assert len(ctx.basis) == 3
    assert ctx.subalgebra_basis(SubalgebraTag.N) == [ctx.E(2, 1)]


def test_build_sl4():
    ctx = build_context(2, 2)
    assert ctx.N == 15
    n_part = ctx.subalgebra_basis(SubalgebraTag.N)
    assert n_part == [ctx.E(3, 1), ctx.E(3, 2), ctx.E(4, 1), ctx.E(4, 2)]


def test_build_1_3():
    ctx = build_context(1, 3)
    assert ctx.N == 15
    assert ctx.subalgebra_basis(SubalgebraTag.N) == [ctx.E(2, 1), ctx.E(3, 1), ctx.E(4, 1)]


def test_reject_degenerate_blocks():
    with pytest.raises(ValueError):
        build_context(0, 2)
    with pytest.raises(ValueError):
        build_context(2, 0)


def test_decomposition_dimensions():
    for m, n in [(1, 1), (2, 2), (1, 3), (2, 1)]:
        ctx = build_context(m, n)
        assert len(ctx.basis) == ctx.N
        nil = len(ctx.subalgebra_basis(SubalgebraTag.N))
        par = len(ctx.subalgebra_basis(SubalgebraTag.P))
        assert nil == m * n
        assert nil + par == ctx.N


def test_defining_sl2_brackets():
    ctx = build_context(1, 1)
    assert bracket(ctx.E(1, 2), ctx.E(2, 1)) == ctx.H(1)
    assert bracket(ctx.H(1), ctx.E(1, 2)) == 2 * ctx.E(1, 2)


def test_bracket_of_matrix_units_in_sl4():
    # E31*E12 has its only entry at (3,2); E12*E31 vanishes.
    ctx = build_context(2, 2)
    assert bracket(ctx.E(3, 1), ctx.E(1, 2)) == ctx.E(3, 2)


def test_traceless_enforced():
    with pytest.raises(ValueError):
        LieElement(2, {(1, 1): 1})


def test_simple_roots_sl2():
    ctx = build_context(1, 1)
    roots = simple_roots(ctx)
    assert len(roots) == 1
    assert roots[0].weight == Weight((1, -1))
    assert roots[0].lowering == ctx.E(2, 1)


def test_simple_roots_sl4():
    ctx = build_context(2, 2)
    roots = simple_roots(ctx)
    assert [r.weight for r in roots] == [
        Weight((1, -1, 0, 0)), Weight((0, 1, -1, 0)), Weight((0, 0, 1, -1))]
    assert roots[ctx.m - 1].lowering == ctx.E(3, 2)


def test_rho_on_block_trace():
    ctx = build_context(2, 2)
    y = ctx.H(1) + ctx.H(2)  # E11 - E33
    assert rho_character(ctx, 2, y) == 2
    assert rho_character(ctx, 2, ctx.E(1, 2)) == 0


def test_rho_on_sl2_cartan():
    ctx = build_context(1, 1)
    assert rho_character(ctx, 3, ctx.H(1)) == 3


def test_rho_rejects_nilpotent_part():
    ctx = build_context(2, 2)
    with pytest.raises(ValueError):
        rho_character(ctx, 2, ctx.E(3, 1))


def test_rho_is_a_character():
    # rho kills brackets of parabolic elements.
    ctx = build_context(2, 2)
    basis = ctx.subalgebra_basis(SubalgebraTag.P)
    for y1 in basis:
        for y2 in basis:
            assert rho_character(ctx, 3, bracket(y1, y2)) == 0


def test_highest_weight_values():
    assert highest_weight(build_context(1, 1), 3) == Weight((3, 0))
    assert highest_weight(build_context(2, 2), 2) == Weight((2, 2, 0, 0))
    assert highest_weight(build_context(1, 2), 1) == Weight((1, 0, 0))


def test_weight_equality_modulo_constant():
    assert Weight((3, 0)) == Weight((4, 1))
    assert hash(Weight((3, 0))) == hash(Weight((4, 1)))
    assert Weight((3, 0)) != Weight((3, 1))


def test_weight_hash_is_taken_at_construction(monkeypatch):
    weight, shifted = Weight((3, 0, 1)), Weight((4, 1, 2))

    def normalized(self):
        raise AssertionError("the weight was normalized again")

    monkeypatch.setattr(Weight, "normalized", normalized)
    assert hash(weight) == hash(shifted)
    assert {weight: 1}[shifted] == 1


def test_jacobi_identity_sl2_exhaustive():
    ctx = build_context(1, 1)
    for x, y, z in itertools.product(ctx.basis, repeat=3):
        total = (bracket(x, bracket(y, z))
                 + bracket(y, bracket(z, x))
                 + bracket(z, bracket(x, y)))
        assert total.is_zero


def test_cartan_acts_on_nilpotent_roots():
    # [H, E_ij] = (L_i - L_j)(H) * E_ij for every E_ij in n and Cartan H.
    ctx = build_context(2, 2)
    for i in range(ctx.m + 1, ctx.size + 1):
        for j in range(1, ctx.m + 1):
            e = ctx.E(i, j)
            w = root_weight(ctx, i, j)
            for k in range(1, ctx.size):
                h = ctx.H(k)
                value = w.coords[k - 1] - w.coords[k]
                assert bracket(h, e) == value * e


def test_build_context_is_shared_and_read_only():
    ctx = build_context(2, 3)
    assert build_context(2, 3) is ctx
    assert build_context(3, 2) is not ctx
    assert type(ctx.basis) is tuple and len(ctx.basis) == ctx.N
    assert ctx.basis[0] == ctx.E(1, 2) and ctx.basis[-1] == ctx.H(4)
    with pytest.raises(TypeError):
        ctx.basis[0] = ctx.H(1)


_UNIT_ALLOWED = {
    SubalgebraTag.P: lambda m, i, j: not (i > m and j <= m),
    SubalgebraTag.N: lambda m, i, j: i > m and j <= m,
}


def test_subalgebra_bases_are_built_once_and_copied(monkeypatch):
    for m, n in itertools.product(range(1, 5), repeat=2):
        ctx = build_context(m, n)
        for tag in SubalgebraTag:
            # matrix units by position in (i, j) order, then the Cartan
            # part for p: the construction before the bases were stored
            units = [ctx.E(i, j) for i in range(1, ctx.size + 1)
                     for j in range(1, ctx.size + 1)
                     if i != j and _UNIT_ALLOWED[tag](m, i, j)]
            cartan = [ctx.H(k) for k in range(1, ctx.size)]
            expected = units + (cartan if tag is SubalgebraTag.P else [])
            assert expected == [x for x in ctx.basis if ctx.contains(x, tag)]
            first = ctx.subalgebra_basis(tag)
            assert type(first) is list and first == expected
            first.clear()
            second = ctx.subalgebra_basis(tag)
            assert second is not first and second == expected
    calls = []

    def counted(*args):
        calls.append(args)
        return True

    monkeypatch.setattr(lie, "_position_allowed", counted)
    for m, n in itertools.product(range(1, 5), repeat=2):
        for tag in SubalgebraTag:
            build_context(m, n).subalgebra_basis(tag)
    assert calls == []


def test_build_context_invalid_blocks_raise_every_time():
    for _ in range(2):
        with pytest.raises(ValueError):
            build_context(0, 3)


def test_entries_are_ints_unless_fractional():
    ctx = build_context(2, 1)
    for x in ctx.basis:
        for y in ctx.basis:
            assert all(type(v) is int for v in bracket(x, y).entries.values())
        assert all(type(v) is int for v in (x + x - 3 * x).entries.values())
    half = Fraction(1, 2) * ctx.H(1)
    assert half.entries == {(1, 1): Fraction(1, 2), (2, 2): Fraction(-1, 2)}
    whole = half + half
    assert whole == ctx.H(1)
    assert all(type(v) is int for v in whole.entries.values())
    assert all(type(v) is int for v in bracket(Fraction(2, 3) * ctx.E(1, 2),
                                               Fraction(3, 2) * ctx.E(2, 1)).entries.values())
    assert type(rho_character(ctx, 3, ctx.H(1) + ctx.H(2))) is int
    assert rho_character(ctx, 3, Fraction(1, 2) * ctx.H(2)) == Fraction(3, 2)
    assert type(rho_character(ctx, 2, Fraction(1, 2) * ctx.H(2))) is int


def test_a_tag_is_a_member_or_its_value_and_nothing_else():
    ctx = build_context(2, 2)
    assert [tag.value for tag in SubalgebraTag] == ["p", "n"]
    for tag in SubalgebraTag:
        assert ctx.subalgebra_basis(tag.value) == ctx.subalgebra_basis(tag)
    assert len(ctx.subalgebra_basis("p")) == 11
    assert ctx.contains(ctx.H(1), "p") and not ctx.contains(ctx.H(1), "n")
    assert ctx.contains(ctx.E(3, 1), "n") and not ctx.contains(ctx.E(3, 1), "p")
    zero = LieElement(ctx.size)
    assert ctx.contains(zero, "p") and ctx.contains(zero, SubalgebraTag.N)
    for bogus in ("bogus", "g_plus", "h", "P", "", None, 0):
        with pytest.raises(ValueError) as info:
            ctx.contains(zero, bogus)
        assert str(info.value) == f"unknown tag {bogus!r}"
        with pytest.raises(ValueError) as info:
            ctx.subalgebra_basis(bogus)
        assert str(info.value) == f"unknown tag {bogus!r}"
