"""Quantities read off the echelons the engine already builds, compared with
the second eliminations they replace: Taylor kernels against the transposed
`kernel_basis`, U_l(g) . v dimensions against evaluation-matrix ranks, and
binomial-row forms against the incidence parametrization.  The Taylor rank
is read off the t-degrees of the standard monomials and checked against the
all-monomials oracle of `test_jets`.  The section basis is certified by
initial terms with no elimination: each bracket leads with its diagonal
under lex order, a chain walk that admits non-standard chains or a wrong
Borel-Weil count raises, the oracle's weight-block ranks find every block
independent and report an injected zero minor, and a source scan keeps
`Echelon` out of `jets`.  The default
desk suite must build no `SparseMatrix` and call no `linalg` elimination.
A source scan keeps reading the reduced rows inside `linalg`; the eliminant
sweep seeds each weight block from the stored integer rows of the block
below, whose span is checked against the canonical rows, and reads each
block's kernel and the mirror through the integer read-off, which scales
`kernel` and `canonical_rows` to integers and builds no `Fraction`."""

import ast
import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path

import pytest

from vermajet import filtration, jets, linalg
from vermajet.discriminant import (_eliminants, _kernel_piece, _weight, eliminant_generators,
                                   graded_relations, irreducibility_witness, parametrized_form)
from vermajet.filtration import annihilator_dim, verma_split_check, weyl_dim_oracle
from vermajet.lie import SubalgebraTag, build_context
from vermajet.errors import CertificateError
from vermajet.linalg import Echelon, SparseMatrix, kernel_basis, rank, span_dim
from vermajet.plethysm import sym_basis, wedge_basis
from vermajet.polynomials import Poly, degree_monomials, det
from vermajet.suite import DESK_CASES, SuiteConfig, render_report, run_suite

from reference import (evaluation_matrix, incidence_parametrization, jet_truncation,
                       perfbench_workloads, pullback_pieces, section_monomial, transpose, unpack,
                       weight_block_ranks)
from test_jets import _assert_same_chart_span, _section_space_by_fractions

DESK_REPORT_SHA256 = perfbench_workloads().DESK_REPORT_SHA256
KERNEL_CASES = list(DESK_CASES) + [(2, 2, 4), (2, 3, 3), (3, 3, 2)]
SPLIT_CASES = list(DESK_CASES) + [(1, 4, 4), (1, 5, 3)]


def _plucker_rows(m, n, d, chains):
    index = {idx: k for k, idx in enumerate(sym_basis(m, n, d))}
    return [{index[chain]: 1} for chain in chains]


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
    # Each chain's reference product is homogeneous of the chain's number of
    # entries > m, its t-degree, and the chains come in increasing degree, so
    # the Taylor rank at l counts the degrees <= l.
    basis = [section_monomial(chain, m, n, d) for chain in jets.section_space(m, n, d)]
    degrees = []
    for s in basis:
        ((chain, _),) = s.plucker.items()
        degrees.append(sum(i > m for wedge in unpack(chain, m, n, d) for i in wedge))
        assert {sum(exps) for exps in s.chart.terms} == {degrees[-1]}
    assert degrees == sorted(degrees)
    reference = _section_space_by_fractions(m, n, d)
    for l in range(1, d + 1):
        jets_l = [jet_truncation(s, m, n, l) for s in reference]
        expected = rank(SparseMatrix.from_rows(jets_l, cols=comb(m * n + l, m * n)))
        assert sum(degree <= l for degree in degrees) == jets.taylor_rank(m, n, d, l) == expected
    _assert_same_chart_span(basis, reference)


def _entry_product(cols, size):
    """x_(1, cols[0]) ... x_(m, cols[m-1]) over an m x size matrix X."""
    exps = [0] * (len(cols) * size)
    for r, i in enumerate(cols):
        exps[r * size + i - 1] = 1
    return tuple(exps)


@pytest.mark.parametrize("m", range(1, 7))
def test_each_bracket_leads_with_its_diagonal(m):
    # Lex order x_11 > x_12 > ... > x_21 > ... on the generic m x (m+n)
    # matrix is the order of the exponent tuples, so the leading term of
    # det X[:, w] is its largest term; for m > 1 it is not the anti-diagonal.
    for n in range(1, 8 - m):
        size = m + n
        x = [[Poly.variable(m * size, r * size + c) for c in range(size)] for r in range(m)]
        for w in wedge_basis(m, n):
            terms = det([[x[r][i - 1] for i in w] for r in range(m)]).terms
            lead = max(terms)
            assert lead == _entry_product(w, size) and terms[lead] == 1, (m, n, w)
            assert (lead == _entry_product(w[::-1], size)) == (m == 1), (m, n, w)


def test_a_walk_admitting_non_standard_chains_fails_its_certificate(monkeypatch):
    # Every wedge after every wedge: permuted chains share initial monomials.
    monkeypatch.setattr(jets, "le", lambda a, b: True)
    for m, n, d in [(1, 2, 2), (2, 2, 2)]:
        jets._reduced_family.cache_clear()
        with pytest.raises(CertificateError, match="share an initial monomial"):
            jets.section_space(m, n, d)


def test_a_wrong_borel_weil_count_fails_its_certificate(monkeypatch):
    jets._reduced_family.cache_clear()
    monkeypatch.setattr(jets, "weyl_dim_oracle", lambda m, n, d: weyl_dim_oracle(m, n, d) + 1)
    with pytest.raises(CertificateError, match="standard monomials, expected 21"):
        jets.section_space(2, 2, 2)


@pytest.mark.parametrize("m,n,d", KERNEL_CASES)
def test_every_weight_block_is_independent(m, n, d):
    ranks = weight_block_ranks(m, n, d)
    assert all(size == rank for size, rank in ranks.values())
    assert sum(size for size, _ in ranks.values()) == weyl_dim_oracle(m, n, d)


def test_a_rank_deficient_weight_block_fails_its_certificate(monkeypatch):
    minor = jets.plucker_polynomial

    def zero_at_13(subset, m, n):
        s = minor(subset, m, n)
        if tuple(sorted(subset)) == (1, 3):
            return jets.SectionPolynomial(0 * s.chart, s.plucker)
        return s

    monkeypatch.setattr(jets, "plucker_polynomial", zero_at_13)
    dependent = {weight for weight, (size, rank) in weight_block_ranks(2, 2, 3).items()
                 if rank < size}
    assert (1, 1, 1, 2, 3, 3) in dependent


def test_a_section_space_miss_builds_no_echelon(monkeypatch):
    nodes = list(ast.walk(ast.parse(Path(jets.__file__).read_text())))
    assert "Echelon" not in {getattr(node, key, None) for node in nodes
                             for key in ("id", "attr", "name")}

    def forbidden(*args, **kwargs):
        raise AssertionError("the section basis is certified by initial terms")

    monkeypatch.setattr(linalg.Echelon, "__init__", forbidden)
    jets._reduced_family.cache_clear()
    assert len(jets.section_space(3, 3, 2)) == weyl_dim_oracle(3, 3, 2)


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
        assert parametrized_form(d, l, point[0], point[1:]) == expected


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

    monkeypatch.setattr(linalg.SparseMatrix, "__init__", forbidden)
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


def test_echelon_rows_are_primitive_integers_spanning_the_canonical_rows():
    rng = random.Random(30)
    entries = [0, 0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-5, 3)]
    for _ in range(60):
        cols = rng.randint(1, 7)
        echelon = Echelon(cols)
        for _ in range(rng.randint(1, 8)):
            echelon.add({c: rng.choice(entries) for c in range(cols)})
        for stage in ("as stored", "back-substituted"):
            rows = echelon.echelon_rows()
            assert [min(row) for row in rows] == echelon.pivots, stage
            for row in rows:
                assert all(type(v) is int for v in row.values()), stage
                assert row[min(row)] > 0 and gcd(*row.values()) == 1, stage
            again = Echelon(cols)
            assert all(again.add(row) for row in rows), stage
            # the reduced form is unique, so equal canonical rows mean one row space
            assert list(again.canonical_rows()) == list(echelon.canonical_rows()), stage


def _readoff_kinds(seed, count):
    """Seeded echelons from `int` and `Fraction` rows, with the kind of each:
    zero columns, full column rank, or a nonzero kernel."""
    rng = random.Random(seed)
    entries = [0, 0, 0, 1, -2, 3, 4, Fraction(1, 2), Fraction(-5, 3), Fraction(6, 4)]
    for _ in range(count):
        cols = rng.randint(0, 7)
        echelon = Echelon(cols)
        for _ in range(rng.randint(0, 9)):
            echelon.add({c: rng.choice(entries) for c in range(cols)})
        kind = "zero columns" if not cols else "full rank" if echelon.rank == cols else "kernel"
        yield kind, echelon


def test_integer_readoff_scales_the_kernel_and_the_canonical_rows():
    kinds = set()
    for kind, echelon in _readoff_kinds(47, 120):
        kinds.add(kind)
        stored = [dict(row) for row in echelon.echelon_rows()]
        rows, vectors = echelon.integer_readoff()
        vectors = list(vectors)
        if kind != "kernel":  # the identity, or nothing, with no back-substitution
            assert rows == [(c, {c: 1}) for c in range(echelon.cols)] and vectors == []
            assert echelon.echelon_rows() == stored
        assert [p for p, _ in rows] == echelon.pivots
        for (p, row), (q, canonical) in zip(rows, echelon.canonical_rows(), strict=True):
            assert p == q and min(row) == p and row[p] > 0 and gcd(*row.values()) == 1
            assert all(type(v) is int for v in row.values())
            assert canonical == {c: Fraction(v, row[p]) for c, v in row.items()}
        kernel = echelon.kernel()
        assert len(vectors) == len(kernel) == echelon.cols - echelon.rank
        for vector, reference in zip(vectors, kernel):
            free = max(reference)
            scale = vector[free]
            assert reference[free] == 1 and type(scale) is int and scale > 0
            assert scale == lcm(*[row[p] for p, row in rows if free in row])
            assert all(type(v) is int for v in vector.values())
            assert vector == {c: scale * v for c, v in reference.items()}
    assert kinds == {"zero columns", "full rank", "kernel"}


def test_eliminant_path_builds_no_fraction(monkeypatch):
    # Every block kernel, mirror row and generator stays in integers from
    # the first elimination to the last normalization.
    def forbidden(cls, *args, **kwargs):
        raise AssertionError("the eliminant path builds no Fraction")

    oracle = pullback_pieces(6, 4, 5)[-1]
    _eliminants.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", staticmethod(forbidden))
    with pytest.raises(AssertionError, match="builds no Fraction"):
        Fraction(1, 2)
    assert graded_relations(6, 4, 5) == oracle and len(oracle) == 335
    assert len(eliminant_generators(6, 2)) == 4


def test_eliminant_blocks_are_seeded_without_canonical_rows(monkeypatch):
    # Each block's kernel is read once through the integer read-off, and so
    # is the mirror, last and over every column; `_row_space` reads the
    # block below only through `echelon_rows`, and no canonical row or
    # rational kernel is read.
    reads = []

    def counted(method):
        def read(self):
            reads.append((method.__name__, sys._getframe(1).f_code.co_name, self.cols))
            return method(self)
        return read

    def forbidden(self):
        raise AssertionError("the eliminant reads its blocks in integers")

    for method in (Echelon.integer_readoff, Echelon.echelon_rows):
        monkeypatch.setattr(Echelon, method.__name__, counted(method))
    monkeypatch.setattr(Echelon, "canonical_rows", forbidden)
    monkeypatch.setattr(Echelon, "kernel", forbidden)
    _kernel_piece(6, 4, 5)
    blocks = Counter(map(_weight, degree_monomials(5, 7)))
    expected = []
    for w in range(16):
        if w:
            expected.append(("echelon_rows", "_row_space", blocks[w - 1]))
        expected.append(("integer_readoff", "_kernel_piece", blocks[w]))
    expected.append(("integer_readoff", "_kernel_piece", comb(11, 6)))
    assert reads == expected
