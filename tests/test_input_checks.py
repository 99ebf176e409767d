"""Input checks that no other test reaches: each call raises before any
work, with its exception type and exact message."""

import operator

import pytest

from vermajet.discriminant import (graded_relations, irreducibility_witness, parametrized_form,
                                   parametrization_jacobian_rank)
from vermajet.errors import SizeCapError
from vermajet.filtration import (char_ideal_generator_check, filtration_walk, multi_filtration,
                                 pbw_filtration, weyl_dim_oracle)
from vermajet.jets import kernel_sections, taylor_matrix, taylor_rank
from vermajet.lie import LieElement, build_context
from vermajet.linalg import SparseMatrix
from vermajet.plethysm import module_dim
from vermajet.polynomials import Poly
from vermajet.suite import render_report

POSITIVE = "m, n and d must all be at least 1"
L_RANGE = "need 1 <= l < d"
COFACTOR = "cofactor needs 2 coefficients"
MIXED = "mixed variable counts"
SL2, SL4 = build_context(1, 1), build_context(2, 2)
X, Y = Poly.variable(1, 0), Poly.variable(2, 0)

CASES = [
    (weyl_dim_oracle, (0, 1, 1), ValueError, POSITIVE),
    (module_dim, (0, 1, 1), ValueError, POSITIVE),
    (filtration_walk, (2, 2, 3, -1), ValueError, "l_max must be non-negative"),
    (pbw_filtration, (2, 2, 3, 0), ValueError, "l must be at least 1"),
    (char_ideal_generator_check, (2, 2, 3, 0), ValueError, "l must be at least 1"),
    (multi_filtration, (2, 2, [], 1), ValueError, "need at least one degree"),
    (taylor_matrix, (2, 2, 3, 0), ValueError, "l must be at least 1"),
    (taylor_rank, (2, 2, 3, 0), ValueError, "l must be at least 1"),
    (kernel_sections, (2, 2, 3, 4), ValueError, "l must satisfy 1 <= l <= d"),
    (parametrized_form, (3, 3, 1, [1]), ValueError, L_RANGE),
    (parametrized_form, (3, 1, 1, [1]), ValueError, COFACTOR),
    (graded_relations, (3, 3, 1), ValueError, L_RANGE),
    (graded_relations, (3, 1, 0), ValueError, "degree must be at least 1"),
    (parametrization_jacobian_rank, (3, 3, (1, [1])), ValueError, L_RANGE),
    (parametrization_jacobian_rank, (3, 1, (1, [1])), ValueError, COFACTOR),
    (irreducibility_witness, (3, 3), ValueError, L_RANGE),
    (irreducibility_witness, (7, 1), SizeCapError, "binary form degree: needs 7, cap is 6"),
    (SparseMatrix, (-1, 0), ValueError, "matrix dimensions must be non-negative"),
    (LieElement, (2, {(3, 1): 1}), ValueError, "index (3,1) outside 1..2"),
    (LieElement, (2, {(1, 0): 1}), ValueError, "index (1,0) outside 1..2"),
    (operator.add, (SL2.H(1), SL4.H(1)), ValueError, "elements live in different algebras"),
    (SL2.E, (1, 1), ValueError, "diagonal matrix units are not traceless; use H(k)"),
    (SL2.H, (0,), ValueError, "Cartan index 0 out of range"),
    (SL2.H, (2,), ValueError, "Cartan index 2 out of range"),
    (SL2.contains, (SL4.H(1), "p"), ValueError, "element size mismatch"),
    (Poly, (2, {(1,): 1}), ValueError, "exponent tuple (1,) has wrong length for 2 variables"),
    (Poly.variable, (2, 2), ValueError, "variable index 2 out of range"),
    (Poly.variable, (2, -1), ValueError, "variable index -1 out of range"),
    (operator.add, (X, Y), ValueError, MIXED),
    (operator.mul, (X, Y), ValueError, MIXED),
    (operator.pow, (X, -1), ValueError, "negative powers are not defined"),
    (Y.evaluate, ([1],), ValueError, "point has wrong length"),
    (Y.substitute, ([X],), ValueError, "substitution needs one value per variable"),
    (Y.substitute, ([X, Y],), ValueError, "substituted polynomials have mixed variable counts"),
    (render_report, ({}, "xml"), ValueError, "unknown format 'xml'"),
]


@pytest.mark.parametrize("call,args,error,message", CASES,
                         ids=[f"{call.__name__}{args}".replace(" ", "") for call, args, *_ in CASES])
def test_invalid_input_raises_with_its_message(call, args, error, message):
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error
    assert str(info.value) == message
