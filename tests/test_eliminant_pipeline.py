"""The eliminant pipeline: kernel pieces swept from the linear space L by
the unipotent group, checked against the pullback oracle of `reference`
(pullbacks of the upper weight half, equations eliminated in any order, the
lower half read off the mirror) and against the parametrization itself, and
the binary-forms references of the benchmark."""

import random
from itertools import islice

import pytest

from reference import (graded_pullbacks, incidence_parametrization, new_generators_by_products,
                       perfbench_workloads, prefix_steps, pullback_kernel_piece, pullback_pieces,
                       pullback_width, pullbacks_by_degree)
from test_discriminant import _closed_under_mirror, _reference_graded_relations
from vermajet import discriminant
from vermajet.discriminant import (_generators_cut_codimension, _kernel_piece, _new_generators,
                                   _weight, classical_discriminant_oracle, eliminant_generators,
                                   graded_relations)
from vermajet.linalg import Echelon
from vermajet.polynomials import Poly, _pack_terms, _unpack, degree_monomials


def _strings(polys):
    return [p.to_string() for p in polys]


@pytest.mark.parametrize("d,l", [(5, 2), (6, 2), (6, 3)])
def test_shared_pullback_growth_matches_graded_relations(d, l):
    for degree, pullbacks in zip(range(1, 6), pullbacks_by_degree(d, l, 5)):
        assert list(pullbacks) == [exps for exps in degree_monomials(degree, d + 1)
                                   if 2 * _weight(exps) >= degree * d]
        assert _strings(pullback_kernel_piece(pullbacks, d)) == \
            _strings(graded_relations(d, l, degree))


def test_kept_monomials_hold_their_prefixes():
    """The upper half 2w >= kd holds the leftmost prefix of each of its
    monomials, so `graded_pullbacks` can grow it alone."""
    for d in range(1, 9):
        for degree in range(1, 9):
            for exps, _, prefix in prefix_steps(d + 1, degree):
                if 2 * _weight(exps) >= degree * d:
                    assert 2 * _weight(prefix) >= (degree - 1) * d


@pytest.mark.parametrize("d,l", [(5, 2), (6, 2), (6, 3)])
def test_packed_pullbacks_unpack_to_parametrization_products(d, l):
    params = incidence_parametrization(d, l)
    nvars = params[0].nvars
    width = pullback_width(5, l)
    for degree, pullbacks in zip(range(1, 6), pullbacks_by_degree(d, l, 5)):
        for exps, packed in pullbacks.items():
            expected = Poly.const(nvars, 1)
            for param, e in zip(params, exps):
                expected = expected * param ** e
            assert {_unpack(key, nvars, width): c for key, c in packed.items()} == expected.terms


@pytest.mark.parametrize("d", [4, 5])
def test_graded_relations_after_the_field_widens_at_degree_6(d):
    """At l = 2 the field width is 4 bits through degree 5 and 5 bits at
    degree 6, so every degree up to 6 is packed at 5 bits."""
    assert [pullback_width(k, 2) for k in range(1, 7)] == [2, 3, 4, 4, 4, 5]
    got = graded_relations(d, 2, 6)
    assert got and _strings(got) == _strings(_reference_graded_relations(d, 2, 6))


def test_graded_relations_match_pullback_matrix_kernel_at_6_2():
    for degree in range(1, 6):
        got = graded_relations(6, 2, degree)
        assert _strings(got) == _strings(_reference_graded_relations(6, 2, degree))
        assert all(type(c) is int for p in got for c in p.terms.values())
        assert _closed_under_mirror(got, 6, degree)
    assert [len(graded_relations(6, 2, k)) for k in range(1, 6)] == [0, 0, 0, 1, 10]


@pytest.mark.parametrize("d,l,max_degree", [(d, l, 6) for d in range(3, 7) for l in range(2, d)]
                         + [(7, l, 4) for l in range(2, 7)])
def test_swept_pieces_equal_the_pullback_oracle(d, l, max_degree):
    for degree, expected in enumerate(pullback_pieces(d, l, max_degree), 1):
        got = _kernel_piece(d, l, degree)
        assert got == expected
        assert _strings(got) == _strings(expected)
        assert all(type(c) is int for p in got for c in p.terms.values())


def _vanishes_on_the_parametrization(piece, d, l):
    """Every F in the piece composed with the parametrization coefficients is
    the zero polynomial in (b, c), by `Poly` products of the coefficients."""
    params = incidence_parametrization(d, l)
    nvars = params[0].nvars
    pullbacks = {}
    for p in piece:
        total = Poly.zero(nvars)
        for exps, c in p.terms.items():
            if exps not in pullbacks:
                product = Poly.const(nvars, 1)
                for param, e in zip(params, exps):
                    product = product * param ** e
                pullbacks[exps] = product
            total = total + c * pullbacks[exps]
        if not total.is_zero:
            return False
    return True


@pytest.mark.parametrize("d,l,max_degree", [(d, l, 6) for d in range(3, 7) for l in range(2, d)]
                         + [(7, l, 4) for l in range(2, 7)])
def test_every_piece_vanishes_on_the_parametrization(d, l, max_degree):
    for degree in range(1, max_degree + 1):
        assert _vanishes_on_the_parametrization(_kernel_piece(d, l, degree), d, l)


def _equation_rows(pullbacks):
    columns = {exps: col for col, exps in enumerate(pullbacks)}
    equations = {}
    for exps, pullback in pullbacks.items():
        for bc_key, c in pullback.items():
            equations.setdefault(bc_key, {})[columns[exps]] = c
    return list(equations.values())


def _kernel(rows, cols):
    echelon = Echelon(cols)
    for row in rows:
        echelon.add(row)
    return echelon.kernel()


def test_equation_kernel_is_independent_of_row_order():
    images = [_pack_terms(p.terms, pullback_width(5, 2)) for p in incidence_parametrization(6, 2)]
    pullbacks = next(islice(graded_pullbacks(images, 5), 4, None))  # all of degree 5
    rows = _equation_rows(pullbacks)
    cols = len(pullbacks)
    expected = _kernel(rows, cols)
    assert len(expected) == 10
    assert _kernel(sorted(rows, key=len), cols) == expected
    for seed in (1, 2, 3):
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        assert _kernel(shuffled, cols) == expected


@pytest.mark.parametrize("d,l", [(d, l) for d in range(3, 7) for l in range(2, d)])
def test_new_generators_match_the_product_rule(d, l):
    # With no stop rule: a_0..a_d times I_(k-1) spans what the generators kept
    # below degree k span in degree k, so both rules keep the same elements.
    collected, below = [], []
    for k in range(1, 8):
        piece = graded_relations(d, l, k)
        new = _new_generators(piece, below, k, d)
        assert new == new_generators_by_products(piece, collected, k, d), k
        collected += new
        below = piece
    assert collected


def test_too_few_generators_draw_no_sample(monkeypatch):
    def no_sample(*args):
        raise AssertionError("a sample point was drawn")

    monkeypatch.setattr(discriminant, "parametrized_form", no_sample)
    generator = Poly.variable(7, 0)
    assert _generators_cut_codimension([generator], 6, 2) is False
    assert _generators_cut_codimension([generator] * 2, 6, 3) is False
    with pytest.raises(AssertionError):
        _generators_cut_codimension([generator] * 2, 6, 2)


def test_binary_forms_benchmark_references():
    workloads = perfbench_workloads()
    for (d, l), pinned in workloads.ELIMINANTS.items():
        strings = [g.to_string() for g in eliminant_generators(d, l)]
        assert (len(strings), workloads._digest(strings)) == pinned
    oracle = classical_discriminant_oracle(6).to_string()
    assert workloads._digest([oracle]) == workloads.ELIMINANTS[(6, 1)][1]
