"""Quantities read off the echelons the engine already builds, compared with
the second eliminations they replace: Taylor kernels against the transposed
`kernel_basis`, U_l(g) . v dimensions against evaluation-matrix ranks, and
binomial-row forms against the incidence parametrization.  The Taylor rank
is read off the t-degrees of the standard monomials and checked against the
all-monomials oracle of `test_jets`; the weight-block rank certificate is
checked by injecting a zero minor, and the default desk suite must build no
`SparseMatrix` and call no `linalg` elimination.  A source scan keeps
reading the reduced rows inside `linalg`."""

import ast
import hashlib
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from vermajet import filtration, jets, linalg
from vermajet.discriminant import irreducibility_witness, parametrized_form
from vermajet.filtration import annihilator_dim, verma_split_check
from vermajet.lie import SubalgebraTag, build_context
from vermajet.errors import CertificateError
from vermajet.linalg import SparseMatrix, kernel_basis, rank, span_dim
from vermajet.plethysm import sym_basis
from vermajet.suite import DESK_CASES, SuiteConfig, render_report, run_suite

from reference import (evaluation_matrix, incidence_parametrization, jet_truncation, to_tuple,
                       transpose)
from test_jets import _assert_same_chart_span, _section_space_by_fractions

DESK_REPORT_SHA256 = "0bfbf144b5f144dc34f259cd30d13586b42118b291c60768ba9a24508cc00fb6"
KERNEL_CASES = list(DESK_CASES) + [(2, 2, 4), (2, 3, 3), (3, 3, 2)]
SPLIT_CASES = list(DESK_CASES) + [(1, 4, 4), (1, 5, 3)]


def _plucker_rows(m, n, d, sections):
    index = {idx: k for k, idx in enumerate(sym_basis(m, n, d))}
    return [{index[key]: v for key, v in s.plucker.items()} for s in sections]


@pytest.mark.parametrize("m,n,d", KERNEL_CASES)
def test_kernel_sections_match_transposed_kernel_basis(m, n, d):
    basis = jets.section_space(m, n, d)
    width = len(sym_basis(m, n, d))
    for l in range(1, d + 1):
        sections, dim = jets.kernel_sections(m, n, d, l)
        combos = kernel_basis(transpose(jets.taylor_matrix(m, n, d, l)[0]))
        reference = []
        for combo in combos:
            row = {}
            for coeff, row_s in zip(combo, _plucker_rows(m, n, d, basis)):
                for c, v in row_s.items():
                    row[c] = row.get(c, 0) + coeff * v
            reference.append(row)
        ours = _plucker_rows(m, n, d, sections)
        assert dim == len(sections) == len(combos)
        assert span_dim(ours, width) == span_dim(reference, width) == len(combos)
        assert span_dim(ours + reference, width) == len(combos)


@pytest.mark.parametrize("m,n,d", KERNEL_CASES + [(1, 1, 6), (1, 3, 3)])
def test_section_space_basis_is_homogeneous(m, n, d):
    # Each section is homogeneous of its chain's number of entries > m, in
    # increasing degree, so the Taylor rank at l counts the degrees <= l.
    basis = jets.section_space(m, n, d)
    degrees = []
    for s in basis:
        ((chain, _),) = s.plucker.items()
        degrees.append(sum(i > m for wedge in to_tuple(chain, m, n) for i in wedge))
        assert {sum(exps) for exps in s.chart.terms} == {degrees[-1]}
    assert degrees == sorted(degrees)
    reference = _section_space_by_fractions(m, n, d)
    for l in range(1, d + 1):
        jets_l = [jet_truncation(s, m, n, l) for s in reference]
        expected = rank(SparseMatrix.from_rows(jets_l, cols=comb(m * n + l, m * n)))
        assert sum(degree <= l for degree in degrees) == jets.taylor_rank(m, n, d, l) == expected
    _assert_same_chart_span(basis, reference)


def test_a_rank_deficient_weight_block_fails_its_certificate(monkeypatch):
    minor = jets.plucker_polynomial

    def zero_at_13(subset, m, n):
        s = minor(subset, m, n)
        if tuple(sorted(subset)) == (1, 3):
            return jets.SectionPolynomial(0 * s.chart, s.plucker)
        return s

    monkeypatch.setattr(jets, "plucker_polynomial", zero_at_13)
    with pytest.raises(CertificateError, match="standard monomials of a weight are dependent"):
        jets.kernel_sections(2, 2, 3, 1)


@pytest.mark.parametrize("m,n,d", SPLIT_CASES)
def test_annihilator_and_split_match_evaluation_matrix_formulas(m, n, d):
    big_n = build_context(m, n).N
    g_rank = {l: rank(evaluation_matrix(m, n, d, l, "all")) for l in range(d + 1)}
    for l in range(d + 1):
        assert annihilator_dim(m, n, d, l) == comb(big_n + l, big_n) - g_rank[l]
    for l in range(1, d):
        n_matrix = evaluation_matrix(m, n, d, l, SubalgebraTag.N)
        dim_ul_n = comb(m * n + l, m * n)
        report = verma_split_check(m, n, d, l)
        assert (report.dim_ul_g, report.dim_ul_n, report.dim_ann) == (
            comb(big_n + l, big_n), dim_ul_n, comb(big_n + l, big_n) - g_rank[l])
        assert report.split_holds == (rank(n_matrix) == n_matrix.rows == dim_ul_n
                                      and g_rank[l] == dim_ul_n)


def test_parametrized_form_matches_incidence_parametrization():
    rng = random.Random(11)
    for _ in range(200):
        d = rng.randint(2, 7)
        l = rng.randint(1, d - 1)
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d - l + 1)]
        expected = tuple(p.evaluate(point) for p in incidence_parametrization(d, l))
        assert parametrized_form(d, l, point[0], point[1:]).coeffs == expected


@pytest.mark.parametrize("d,l", [(3, 2), (4, 2), (4, 3), (6, 3)])
def test_witness_is_heuristic_by_policy_above_codimension_one(d, l):
    witness = irreducibility_witness(d, l)
    assert witness.status == "heuristic"
    assert "policy" in witness.details and "lines" not in witness.details


def test_desk_suite_ranks_no_pbw_matrix_over_all_of_g(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the desk suite must read U_l(g) . v off its filtration")

    monkeypatch.setattr(filtration, "verma_split_check", forbidden)
    report = render_report(run_suite(SuiteConfig()), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == DESK_REPORT_SHA256


def test_desk_suite_builds_no_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the desk suite must read every rank off its echelons")

    monkeypatch.setattr(linalg.SparseMatrix, "__post_init__", forbidden)
    for name in ("rref", "rank", "kernel_basis", "span_dim"):
        monkeypatch.setattr(linalg, name, forbidden)
    monkeypatch.setattr(jets, "kernel_basis", forbidden)
    report = render_report(run_suite(SuiteConfig()), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == DESK_REPORT_SHA256


def test_only_linalg_reads_the_primitive_reduced_rows():
    callers = []
    for path in sorted(Path(jets.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "reduced"):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []
