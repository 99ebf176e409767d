"""Input checks that no other test reaches: each call raises before any
work, with its exception type and exact message."""

import pytest

from vermajet.discriminant import (graded_relations, irreducibility_witness, parametrized_form,
                                   parametrization_jacobian_rank)
from vermajet.errors import SizeCapError
from vermajet.filtration import (_pbw_count, char_ideal_generator_check, filtration_walk,
                                 multi_filtration, pbw_filtration, weyl_dim_oracle)
from vermajet.jets import kernel_sections, taylor_matrix, taylor_rank
from vermajet.linalg import SparseMatrix
from vermajet.plethysm import module_dim

POSITIVE = "m, n and d must all be at least 1"
L_RANGE = "need 1 <= l < d"
COFACTOR = "cofactor needs 2 coefficients"

CASES = [
    (weyl_dim_oracle, (0, 1, 1), ValueError, POSITIVE),
    (module_dim, (0, 1, 1), ValueError, POSITIVE),
    (_pbw_count, (4, -1, 10), ValueError, "max_degree must be non-negative"),
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
]


@pytest.mark.parametrize("call,args,error,message", CASES,
                         ids=[f"{call.__name__}{args}".replace(" ", "") for call, args, *_ in CASES])
def test_invalid_input_raises_with_its_message(call, args, error, message):
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error
    assert str(info.value) == message
