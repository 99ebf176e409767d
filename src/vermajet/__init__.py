"""Exact-arithmetic verification engine for canonical filtrations of
highest weight modules, jet truncations of grassmannian linear systems,
and discriminants of binary forms.

The package namespace is lazy (PEP 562): importing `vermajet`, or one of
its modules, runs only that module and what it imports.  The one eager
import is `act`, which loads `errors`, `linalg`, `polynomials` and
`plethysm`, and not `lie`: `plethysm` names Lie algebra elements only in
annotations, so the discriminant layer never compiles `lie`.  `act` stays a
real package global because the benchmark's layer tracer rebinds
`vermajet.act` with every other copy of a layer function.
Every other exported name is read from its module on each access and is
not cached here, so it is always the module's current binding (a copy
cached while the tracer is installed would outlive it).  Submodules
(`vermajet.jets`, `vermajet.suite`, ...) are imported on first access.
"""

from importlib import import_module

from .plethysm import act  # noqa: F401

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CertificateError", "SizeCapError"),
    "lie": ("LieAlgebraContext", "LieElement", "SubalgebraTag", "Weight",
            "build_context", "rho_character", "simple_roots"),
    "linalg": ("SparseMatrix", "kernel_basis", "rank", "rref", "span_dim"),
    "plethysm": ("PlethysmVector", "act", "highest_weight_vector", "module_dim", "sym_basis"),
    "filtration": ("annihilator_dim", "canonical_filtration", "char_ideal_generator_check",
                   "multi_filtration", "pbw_filtration", "serre_power_check",
                   "verma_split_check", "weight_of", "weyl_dim_oracle"),
    "jets": ("duality_check", "kernel_sections", "plucker_polynomial", "section_space",
             "taylor_matrix"),
    "discriminant": ("Eliminant", "classical_discriminant_oracle",
                     "irreducibility_witness", "multiple_root_eliminant",
                     "parametrization_jacobian_rank", "parametrized_form"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "polynomials", "suite", "cli"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
