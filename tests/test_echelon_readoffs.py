"""Quantities read off the echelons the engine already builds, compared with
the second eliminations they replace: Taylor kernels against the transposed
`kernel_basis`, U_l(g) . v dimensions against evaluation-matrix ranks, and
binomial-row forms against the incidence parametrization."""

import hashlib
import random
from fractions import Fraction
from math import comb

import pytest

from vermajet import filtration, jets
from vermajet.discriminant import (_incidence_parametrization,
                                   irreducibility_witness, parametrized_form)
from vermajet.filtration import (annihilator_dim, evaluation_matrix,
                                 verma_split_check)
from vermajet.lie import SubalgebraTag, build_context
from vermajet.linalg import kernel_basis, rank, span_dim
from vermajet.plethysm import sym_basis
from vermajet.suite import DESK_CASES, SuiteConfig, render_report, run_suite

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
        combos = kernel_basis(jets.taylor_matrix(m, n, d, l)[0].transpose())
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


@pytest.mark.parametrize("m,n,d", KERNEL_CASES)
def test_section_space_basis_is_homogeneous(m, n, d):
    for s in jets.section_space(m, n, d):
        assert len({sum(exps) for exps in s.chart.terms}) == 1


def test_kernel_sections_certifies_its_count(monkeypatch):
    original = jets.taylor_matrix

    def off_by_one(*args):
        matrix, taylor_rank = original(*args)
        return matrix, taylor_rank + 1

    monkeypatch.setattr(jets, "taylor_matrix", off_by_one)
    with pytest.raises(ArithmeticError):
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
        expected = tuple(p.evaluate(point) for p in _incidence_parametrization(d, l))
        assert parametrized_form(d, l, point[0], point[1:]).coeffs == expected


@pytest.mark.parametrize("d,l", [(3, 2), (4, 2), (4, 3), (6, 3)])
def test_witness_is_heuristic_by_policy_above_codimension_one(d, l):
    witness = irreducibility_witness(d, l)
    assert witness.status == "heuristic"
    assert "policy" in witness.details and "lines" not in witness.details


def test_desk_suite_ranks_no_pbw_matrix_over_all_of_g(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the desk suite must read U_l(g) . v off its filtration")

    monkeypatch.setattr(filtration, "evaluation_matrix", forbidden)
    monkeypatch.setattr(filtration, "verma_split_check", forbidden)
    report = render_report(run_suite(SuiteConfig()), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == DESK_REPORT_SHA256
