"""Exact-arithmetic verification engine for canonical filtrations of
highest weight modules, jet truncations of grassmannian linear systems,
and discriminants of binary forms."""

from .errors import CertificateError, SizeCapError
from .lie import (LieAlgebraContext, LieElement, SubalgebraTag, Weight,
                  bracket, build_context, highest_weight, rho_character,
                  simple_roots)
from .linalg import SparseMatrix, kernel_basis, rank, rref, span_dim
from .plethysm import (PlethysmVector, act, highest_weight_vector, module_dim,
                       sym_basis, weight_of)
from .filtration import (annihilator_dim, canonical_filtration,
                         char_ideal_generator_check, evaluation_matrix,
                         multi_filtration, pbw_filtration, serre_power_check,
                         verma_split_check, weyl_dim_oracle)
from .jets import (SectionPolynomial, chart_homogeneity_check, duality_check,
                   jet_truncation, kernel_sections, monomial_jet_projective,
                   plucker_polynomial, section_space, taylor_matrix)
from .discriminant import (BinaryForm, Eliminant, classical_discriminant_oracle,
                           irreducibility_witness, multiple_root_eliminant,
                           parametrization_jacobian_rank, parametrized_form)

__version__ = "0.1.0"

__all__ = [
    "CertificateError", "SizeCapError",
    "LieAlgebraContext", "LieElement", "SubalgebraTag", "Weight",
    "bracket", "build_context", "highest_weight", "rho_character", "simple_roots",
    "SparseMatrix", "kernel_basis", "rank", "rref", "span_dim",
    "PlethysmVector", "act", "highest_weight_vector", "module_dim",
    "sym_basis", "weight_of",
    "annihilator_dim", "canonical_filtration", "char_ideal_generator_check",
    "evaluation_matrix", "multi_filtration", "pbw_filtration",
    "serre_power_check", "verma_split_check", "weyl_dim_oracle",
    "SectionPolynomial", "chart_homogeneity_check", "duality_check",
    "jet_truncation", "kernel_sections", "monomial_jet_projective",
    "plucker_polynomial", "section_space", "taylor_matrix",
    "BinaryForm", "Eliminant", "classical_discriminant_oracle",
    "irreducibility_witness", "multiple_root_eliminant",
    "parametrization_jacobian_rank", "parametrized_form",
    "__version__",
]
