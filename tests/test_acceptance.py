"""Acceptance suite: every desk-scale criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every equality is exact rational arithmetic; there are no
tolerances anywhere.
"""

import itertools
import random
from math import comb

from vermajet.lie import SubalgebraTag, build_context
from vermajet.linalg import kernel_basis, rref
from vermajet.plethysm import PlethysmVector, act, sym_basis
from vermajet.filtration import (annihilator_dim, canonical_filtration,
                                 char_ideal_generator_check, multi_filtration,
                                 pbw_filtration, serre_power_check,
                                 verma_split_check, weyl_dim_oracle)
from vermajet.jets import duality_check, kernel_sections, section_space, taylor_matrix
from vermajet.discriminant import (classical_discriminant_oracle,
                                   irreducibility_witness,
                                   multiple_root_eliminant,
                                   sample_jacobian_ranks)
from vermajet.suite import DESK_CASES

from reference import (bracket, evaluation_matrix, jet_truncation, matvec,
                       monomial_jet_projective, monomial_sections, unpack)

SPLIT_MONOMIAL_BUDGET = 2000


def _report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_1_filtration_dimensions():
    ok = True
    for m, n, d in DESK_CASES:
        dims = canonical_filtration(m, n, d, d - 1).dims
        for l in range(1, d):
            ok = ok and dims[l] == comb(m * n + l, m * n)
    ok = ok and canonical_filtration(2, 2, 3, 2).dims[2] == 15
    _report(1, "canonical filtration dimensions", ok)


def test_criterion_2_pbw_independence():
    ok = True
    for m, n, d in DESK_CASES:
        for l in range(1, d):
            vectors, independent = pbw_filtration(m, n, d, l)
            ok = ok and independent and len(vectors) == comb(m * n + l, m * n)
    _report(2, "PBW monomial images are independent", ok)


def test_criterion_3_verma_split():
    ok = True
    covered = set()
    for m, n, d in DESK_CASES:
        ctx = build_context(m, n)
        for l in range(1, d):
            if comb(ctx.N + l, ctx.N) > SPLIT_MONOMIAL_BUDGET:
                continue
            report = verma_split_check(m, n, d, l)
            ok = ok and report.split_holds
            ok = ok and report.dim_ul_g == comb(ctx.N + l, ctx.N)
            ok = ok and report.dim_ul_g == report.dim_ul_n + report.dim_ann
            covered.add((m, n, d, l))
    # every case must at least be covered through level 2
    required = {(m, n, d, l) for m, n, d in DESK_CASES for l in (1, 2) if l < d}
    _report(3, "enveloping algebra splits against the annihilator",
            ok and required <= covered)


def test_criterion_4_character_ideal_containment():
    ok = True
    for m, n, d in DESK_CASES:
        for l in (1, 2):
            ok = ok and char_ideal_generator_check(m, n, d, l)
    _report(4, "character ideal generators annihilate v", ok)


def test_criterion_5_lowering_powers():
    ok = True
    for m, n, d in DESK_CASES:
        reports = serre_power_check(m, n, d)
        for r in reports:
            expected_power = d + 1 if r.index == m else 1
            ok = ok and r.power == expected_power and r.ok
    _report(5, "simple lowering powers on the highest weight vector", ok)


def test_criterion_6_taylor_surjectivity():
    ok = True
    for m, n, d in DESK_CASES:
        for l in range(1, d + 1):
            _, rank = taylor_matrix(m, n, d, l)
            ok = ok and rank == comb(m * n + l, m * n)
    _report(6, "jet truncation has full rank for 1 <= l <= d", ok)


def test_criterion_7_kernel_dimensions():
    ok = weyl_dim_oracle(2, 2, 2) == 20 and len(section_space(2, 2, 2)) == 20
    for m, n, d in DESK_CASES:
        oracle = weyl_dim_oracle(m, n, d)
        ok = ok and len(section_space(m, n, d)) == oracle
        for l in range(1, d + 1):
            _, dim = kernel_sections(m, n, d, l)
            ok = ok and dim == oracle - comb(m * n + l, m * n)
    _report(7, "vanishing-jet sections have the exact codimension", ok)


def test_criterion_8_duality():
    ok = True
    for m, n, d in DESK_CASES:
        for l in range(1, d):
            report = duality_check(m, n, d, l)
            ok = ok and report.dim_match and report.pairing_vanishes
    _report(8, "filtration level is dual to the jet fiber", ok)


def test_criterion_9_projective_special_case():
    ok = True
    for n in (1, 2, 3):
        for d in range(1, 6):
            sections = monomial_sections(1, n, d)
            for l in range(1, d + 1):
                for s in sections:
                    (multiset,) = s.plucker
                    exps = [0] * (n + 1)
                    for (k,) in unpack(multiset, 1, n, d):
                        exps[k - 1] += 1
                    ok = ok and (jet_truncation(s, 1, n, l)
                                 == monomial_jet_projective(exps, l))
    _report(9, "projective monomial jets follow the unit-vector rule", ok)


def test_criterion_10_direct_sums():
    ok = multi_filtration(1, 1, [2, 3], 1) == 4
    ok = ok and multi_filtration(2, 2, [2, 2], 1) == 10
    _report(10, "direct sums add filtration dimensions", ok)


def test_criterion_11_discriminants():
    ok = True
    for d in (2, 3, 4):
        eliminant = multiple_root_eliminant(d, 1)
        oracle = classical_discriminant_oracle(d)
        ok = ok and eliminant.poly == oracle.poly
    rng = random.Random(2024)
    for d, l in [(3, 1), (4, 1), (3, 2), (4, 2)]:
        ranks = sample_jacobian_ranks(d, l, 5, rng)
        ok = ok and ranks == [d - l + 1] * 5
    ok = ok and irreducibility_witness(2, 1).status == "certified"
    ok = ok and irreducibility_witness(3, 1).status == "certified"
    _report(11, "desk-scale discriminant checks", ok)


def _jacobi_holds(ctx, triples):
    for x, y, z in triples:
        total = (bracket(x, bracket(y, z))
                 + bracket(y, bracket(z, x))
                 + bracket(z, bracket(x, y)))
        if not total.is_zero:
            return False
    return True


def test_criterion_12_property_suites():
    ok = True
    # Jacobi identity: sl2 and sl3 exhaustively, sl4 on 200 sampled triples.
    sl2 = build_context(1, 1)
    ok = ok and _jacobi_holds(sl2, itertools.product(sl2.basis, repeat=3))
    sl3 = build_context(1, 2)
    ok = ok and _jacobi_holds(sl3, itertools.product(sl3.basis, repeat=3))
    rng = random.Random(99)
    sl4 = build_context(2, 2)
    sampled = [(rng.choice(sl4.basis), rng.choice(sl4.basis), rng.choice(sl4.basis))
               for _ in range(200)]
    ok = ok and _jacobi_holds(sl4, sampled)

    # Module action law on 50 random vectors per desk case.
    for m, n, d in DESK_CASES:
        ctx = build_context(m, n)
        basis = sym_basis(m, n, d)
        for _ in range(50):
            picks = rng.sample(range(len(basis)), min(4, len(basis)))
            w = PlethysmVector({basis[i]: rng.randint(-5, 5) for i in picks})
            x = rng.choice(ctx.basis)
            y = rng.choice(ctx.basis)
            law = act(bracket(x, y), w, m, d) \
                == act(x, act(y, w, m, d), m, d) - act(y, act(x, w, m, d), m, d)
            ok = ok and law

    # Rank-nullity on the matrices the desk suite produces.
    matrices = []
    for m, n, d in DESK_CASES:
        for l in (1, 2):
            if l < d:
                matrices.append(evaluation_matrix(m, n, d, l, "all"))
                matrices.append(evaluation_matrix(m, n, d, l, SubalgebraTag.N))
        for l in {1, min(2, d), d}:
            matrices.append(taylor_matrix(m, n, d, l)[0])
    for matrix in matrices:
        rank = rref(matrix).rank
        kernel = kernel_basis(matrix)
        ok = ok and rank + len(kernel) == matrix.cols
        for vec in kernel:
            ok = ok and all(v == 0 for v in matvec(matrix, vec))

    # Annihilator dimensions complement the filtration dimensions.
    for m, n, d in DESK_CASES[:4]:
        ctx = build_context(m, n)
        dim = canonical_filtration(m, n, d, 1).dims[1]
        ok = ok and annihilator_dim(m, n, d, 1) + dim == comb(ctx.N + 1, ctx.N)

    _report(12, "property suites (Jacobi, action law, rank-nullity)", ok)
