import random
from fractions import Fraction
from math import prod

import pytest

from vermajet import discriminant
from vermajet.errors import SizeCapError
from vermajet.linalg import Echelon, SparseMatrix, kernel_basis, primitive, span_dim
from vermajet.polynomials import (Poly, _field_width, _unpack, degree_monomials,
                                  integer_primitive, restrict_to_line)
from vermajet.discriminant import (_gfp_factor_degrees, _gfp_monic, _gfp_trim,
                                   _uni_irreducible_q,
                                   classical_discriminant_oracle,
                                   eliminant_generators, graded_relations,
                                   irreducibility_witness,
                                   multiple_root_eliminant,
                                   parametrization_jacobian_rank,
                                   parametrized_form,
                                   sample_jacobian_ranks,
                                   samples_satisfy_generators)

import reference
from reference import bezout_matrix_by_products, incidence_parametrization, transpose


def _a_poly(d, terms):
    return Poly(d + 1, terms)


def test_oracle_quadratic():
    oracle = classical_discriminant_oracle(2)
    assert oracle.poly == _a_poly(2, {(0, 2, 0): 1, (1, 0, 1): -4})
    assert oracle.degree == 2


def test_oracle_cubic():
    oracle = classical_discriminant_oracle(3)
    expected = _a_poly(3, {
        (1, 1, 1, 1): 18, (0, 3, 0, 1): -4, (0, 2, 2, 0): 1,
        (1, 0, 3, 0): -4, (2, 0, 0, 2): -27,
    })
    assert oracle.poly == expected


def test_oracle_detects_double_root():
    oracle = classical_discriminant_oracle(2)
    # (x0 + x1)^2 has coefficients (1, 2, 1).
    assert oracle.poly.evaluate((1, 2, 1)) == 0


def test_oracle_nonzero_on_distinct_roots():
    oracle = classical_discriminant_oracle(3)
    # x0*x1*(x0 - x1) = x0^2 x1 - x0 x1^2 has coefficients (0, 1, -1, 0).
    assert oracle.poly.evaluate((0, 1, -1, 0)) != 0


def test_oracle_degree_bounds():
    with pytest.raises(ValueError):
        classical_discriminant_oracle(1)
    with pytest.raises(SizeCapError):
        classical_discriminant_oracle(9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_eliminant_matches_oracle(d):
    eliminant = multiple_root_eliminant(d, 1)
    oracle = classical_discriminant_oracle(d)
    assert eliminant.poly == oracle.poly  # both are sign-normalized


def test_eliminant_rejects_bad_parameters():
    with pytest.raises(ValueError):
        multiple_root_eliminant(3, 3)
    with pytest.raises(SizeCapError):
        multiple_root_eliminant(9, 1)


def test_perfect_cube_locus_generators():
    generators = multiple_root_eliminant(3, 2)
    assert len(generators) == 3
    assert all(g.degree == 2 for g in generators)
    # The span must equal that of the 2x2 minors of the catalecticant
    # [[a0, a1/3, a2/3], [a1/3, a2/3, a3]], cleared of denominators.
    minors = [
        _a_poly(3, {(1, 0, 1, 0): 3, (0, 2, 0, 0): -1}),   # 3 a0 a2 - a1^2
        _a_poly(3, {(1, 0, 0, 1): 9, (0, 1, 1, 0): -1}),   # 9 a0 a3 - a1 a2
        _a_poly(3, {(0, 1, 0, 1): 3, (0, 0, 2, 0): -1}),   # 3 a1 a3 - a2^2
    ]
    monomials = sorted({e for g in generators for e in g.poly.terms}
                       | {e for p in minors for e in p.terms})
    index = {e: i for i, e in enumerate(monomials)}

    def row(p):
        out = [Fraction(0)] * len(monomials)
        for e, c in p.terms.items():
            out[index[e]] = c
        return out

    computed = [row(g.poly) for g in generators]
    target = [row(p) for p in minors]
    assert span_dim(computed) == 3
    assert span_dim(computed + target) == 3


def test_triple_root_quartic_generators():
    # The locus of quartics with a triple root is cut out by the two
    # classical quartic invariants I (degree 2) and J (degree 3).
    generators = multiple_root_eliminant(4, 2)
    assert sorted(g.degree for g in generators) == [2, 3]
    inv_i = _a_poly(4, {(0, 0, 2, 0, 0): 1, (0, 1, 0, 1, 0): -3,
                        (1, 0, 0, 0, 1): 12})
    inv_j = _a_poly(4, {(1, 0, 1, 0, 1): 72, (0, 1, 1, 1, 0): 9,
                        (0, 2, 0, 0, 1): -27, (1, 0, 0, 2, 0): -27,
                        (0, 0, 3, 0, 0): -2})
    by_degree = {g.degree: g.poly for g in generators}
    assert by_degree[2] == inv_i
    # the degree-3 generator lies in (I, J) and is not a multiple of I
    a = [Poly(5, {tuple(1 if k == i else 0 for k in range(5)): 1})
         for i in range(5)]
    combos = [inv_j] + [inv_i * ak for ak in a]
    monomials = sorted({e for p in combos + [by_degree[3]] for e in p.terms})
    index = {e: i for i, e in enumerate(monomials)}

    def row(p):
        out = [Fraction(0)] * len(monomials)
        for e, c in p.terms.items():
            out[index[e]] = c
        return out

    base = [row(p) for p in combos]
    base_i_only = [row(inv_i * ak) for ak in a]
    assert span_dim(base + [row(by_degree[3])]) == span_dim(base)
    assert span_dim(base_i_only + [row(by_degree[3])]) > span_dim(base_i_only)


def test_graded_relations_recover_discriminant():
    for d in (2, 3):
        relations = graded_relations(d, 1, 2 * (d - 1))
        oracle = classical_discriminant_oracle(d)
        assert len(relations) == 1
        assert relations[0] == oracle.poly


def test_graded_relations_empty_below_ideal():
    assert graded_relations(3, 2, 1) == []


def test_parametrized_form_values():
    # (x0 - 2 x1)^2 * x0 = x0^3 - 4 x0^2 x1 + 4 x0 x1^2.
    assert parametrized_form(3, 1, 2, [1, 0]) == (1, -4, 4, 0)


def test_parametrized_form_at_integer_inputs_is_all_int():
    rng = random.Random(5)
    for d, l in [(3, 1), (4, 2), (6, 3)]:
        form = parametrized_form(d, l, *discriminant._sample_point(d, l, rng))
        assert all(type(c) is int for c in form)
    assert all(type(c) is int for c in parametrized_form(3, 1, Fraction(2), [Fraction(1), 0]))


def test_has_rational_root_in_integers():
    has_root = discriminant._has_rational_root
    assert has_root([0, 3, 1])  # root at 0
    assert has_root([1, -5, 6])  # 6x^2 - 5x + 1, root 1/2
    assert not has_root([-2, 0, 1])  # x^2 - 2
    assert has_root([-1, 3, -2])  # -2x^2 + 3x - 1, roots 1/2 and 1
    assert has_root([1, 3, 2])  # 2x^2 + 3x + 1, roots -1/2 and -1
    assert not has_root([-1, 0, -1])  # -x^2 - 1


def test_has_rational_root_lists_each_end_coefficients_divisors_once(monkeypatch):
    calls = []
    divisors = reference.divisors
    monkeypatch.setattr(reference, "divisors", lambda n: calls.append(n) or divisors(n))
    # 360 x^4 - 7: 24 divisors of 360 and 2 of 7, no rational root
    assert not reference.rational_root_by_divisors([-7, 0, 0, 0, 360])
    assert sorted(calls) == [-7, 360]


@pytest.mark.parametrize("d", range(2, 9))
def test_bezout_matrix_matches_the_poly_product_reference(d):
    width = _field_width(2 * d)
    unpacked = [[{_unpack(key, d + 1, width): c for key, c in terms.items()} for terms in row]
                for row in discriminant._bezout_matrix(d)]
    assert unpacked == [[entry.terms for entry in row] for row in bezout_matrix_by_products(d)]


def test_bezout_matrix_multiplies_no_poly(monkeypatch):
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    for d in range(2, 9):
        discriminant._bezout_matrix(d)
    assert not calls
    bezout_matrix_by_products(3)
    assert calls  # the counter sees the reference's products


def test_every_sample_is_a_zero_of_every_generator():
    rng = random.Random(3)
    for d, l in [(2, 1), (3, 1), (4, 1), (3, 2)]:
        assert samples_satisfy_generators(d, l, 10, rng)


def test_jacobian_ranks_generic():
    assert parametrization_jacobian_rank(3, 1, (2, [1, 1])) == 3
    assert parametrization_jacobian_rank(4, 1, (1, [2, 1, 1])) == 4
    assert parametrization_jacobian_rank(3, 2, (5, [3])) == 2


def test_jacobian_rank_sampling():
    rng = random.Random(17)
    for d, l in [(3, 1), (4, 1), (3, 2), (4, 2)]:
        ranks = sample_jacobian_ranks(d, l, 5, rng)
        assert ranks == [d - l + 1] * 5


def _cofactor_points(d, l, rng):
    """Integer and Fraction points (b, g) with g[0] != 0: random ones, and
    ones with g divisible by (x0 - b*x1), where the rank drops."""
    e = d - l - 1
    for _ in range(12):
        b = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        g = [rng.randint(-3, 3) for _ in range(e + 1)]
        g[0] = g[0] or 1
        yield b, g
        if e:  # g = (x0 - b*x1) * h, h[0] != 0
            h = [rng.randint(-3, 3) for _ in range(e)]
            h[0] = h[0] or 1
            yield b, [(h[k] if k < e else 0) - (b * h[k - 1] if k else 0) for k in range(e + 1)]


def test_jacobian_closed_form_matches_the_gradients_and_the_root_rule():
    """The rank is that of the reference gradients, and it is d - l + 1
    exactly when (x0 - b*x1) does not divide g, that is when
    g(b, 1) = sum_k c_k b^(e-k) is not zero, and d - l otherwise."""
    rng = random.Random(25)
    deficient = 0
    for d in range(2, 8):
        for l in range(1, d):
            gradients = [[p.derivative(v) for v in range(p.nvars)]
                         for p in incidence_parametrization(d, l)]
            for b, g in _cofactor_points(d, l, rng):
                reference = Echelon(d - l + 1)
                for gradient in gradients:
                    reference.add({j: partial.evaluate([b, *g])
                                   for j, partial in enumerate(gradient)})
                at_root = sum(c * b ** (len(g) - 1 - k) for k, c in enumerate(g)) == 0
                rank = parametrization_jacobian_rank(d, l, (b, g))
                assert rank == reference.rank == d - l + 1 - at_root
                deficient += at_root
    assert deficient > 50


def test_jacobian_rejects_degenerate_cofactor():
    with pytest.raises(ValueError):
        parametrization_jacobian_rank(3, 1, (2, [0, 1]))


def test_jacobian_degenerate_at_shared_root():
    # b = 1 is a root of g = x0 - x1, so the derivative column collapses.
    assert parametrization_jacobian_rank(3, 1, (1, [1, -1])) == 2


def test_witness_certified_envelope():
    assert irreducibility_witness(2, 1).status == "certified"
    assert irreducibility_witness(3, 1).status == "certified"


def test_witness_policy_boundary():
    assert irreducibility_witness(5, 2).status == "heuristic"
    assert irreducibility_witness(3, 2).status == "heuristic"


def test_witness_details_record_oracle_match():
    witness = irreducibility_witness(3, 1)
    assert witness.details["oracle_match"] is True
    assert len(witness.details["lines"]) == 3


def test_eliminant_normalization():
    from math import gcd
    for d, l in [(2, 1), (3, 1), (4, 1), (3, 2)]:
        for g in eliminant_generators(d, l):
            content = 0
            for c in g.poly.terms.values():
                assert c.denominator == 1
                content = gcd(content, c.numerator)
            assert content == 1
            first = min(g.poly.terms)
            assert g.poly.terms[first] > 0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_eliminant_matches_sympy_discriminant(d):
    sympy = pytest.importorskip("sympy")
    a = sympy.symbols(f"a0:{d + 1}")
    x = sympy.Symbol("x")
    form = sum(a[k] * x ** (d - k) for k in range(d + 1))
    expected = dict(sympy.Poly(sympy.discriminant(form, x), *a).terms())
    got = eliminant_generators(d, 1)[0].poly.terms
    assert got in ({e: int(c) for e, c in expected.items()},
                   {e: -int(c) for e, c in expected.items()})


def _primitive_list(values):
    # The coefficient list as primitive integers, top coefficient positive.
    return list(primitive(dict(enumerate(values)), len(values) - 1).values())


def _random_primitive_polys(rng):
    """Primitive integer polynomials of degree 2..10, ascending coefficients;
    every other one a product of two random factors."""
    out = []
    for trial in range(120):
        n = rng.randint(2, 10)
        if trial % 2:
            k = rng.randint(1, n - 1)
            f = [rng.randint(-6, 6) for _ in range(k)] + [rng.choice([-3, -1, 1, 2])]
            g = [rng.randint(-6, 6) for _ in range(n - k)] + [rng.choice([-2, 1, 3])]
            coeffs = [0] * (n + 1)
            for i, cf in enumerate(f):
                for j, cg in enumerate(g):
                    coeffs[i + j] += cf * cg
        else:
            coeffs = [rng.randint(-20, 20) for _ in range(n)] + [rng.randint(1, 9)]
        out.append(_primitive_list(coeffs))
    return out


def _witness_lines(d, seed):
    target = multiple_root_eliminant(d, 1).poly
    witness = irreducibility_witness(d, 1, seed)
    return [_primitive_list(restrict_to_line(target, r["base"], r["direction"]))
            for r in witness.details["lines"] if not r.get("degenerate")]


def test_squarefree_part_matches_the_euclid_reference():
    """The pseudo-remainder route against Euclid over Q: random primitive
    polynomials, and squares and cubes of random factors times another."""
    rng = random.Random(48)
    polys = _random_primitive_polys(rng)
    for _ in range(60):
        factor = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 4)]
        other = [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))] + [rng.choice([-2, 1, 3])]
        for power in (2, 3):
            f = other
            for _ in range(power):
                f = _times(f, factor)
            polys.append(f)
    for coeffs in polys:
        assert discriminant._squarefree_part(coeffs) == reference.squarefree_part_over_q(coeffs)


def test_univariate_verdicts_agree_with_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    polys = _random_primitive_polys(random.Random(5))
    for d in (3, 4, 5):
        for seed in range(5):
            polys.extend(_witness_lines(d, seed))
    verdicts = {True: 0, False: 0, None: 0}
    for coeffs in polys:
        verdict = _uni_irreducible_q(coeffs)
        verdicts[verdict] += 1
        _, factors = sympy.Poly(coeffs[::-1], x).factor_list()
        irreducible = (len(factors) == 1 and factors[0][1] == 1
                       and factors[0][0].degree() == len(coeffs) - 1)
        if verdict is not None:
            assert verdict == irreducible, coeffs
    assert verdicts[True] and verdicts[False]


def test_mod_p_factor_degrees_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        p = rng.choice([3, 5, 7, 11, 13])
        coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 10))] + [rng.randrange(1, p)]
        f = sympy.Poly(coeffs[::-1], x, modulus=p)
        if sympy.gcd(f, f.diff(x)).degree() > 0:
            continue  # the distinct-degree factorization needs squarefree input
        expected = sorted(g.degree() for g, m in f.factor_list()[1] for _ in range(m))
        assert sorted(_gfp_factor_degrees(_gfp_trim(coeffs, p), p)) == expected
        checked += 1


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _random_factored_polys(rng, count):
    """Integer polynomials of degree 1..9, ascending coefficients, built from
    factors (bx - a)^k, squared quadratics, x itself and random factors."""
    out = []
    while len(out) < count:
        degree, f = rng.randint(1, 9), [rng.choice([-3, -1, 1, 2, 5])]
        while len(f) - 1 < degree:
            room, kind = degree - len(f) + 1, rng.random()
            if kind < 0.15:
                linear = [-rng.randint(-12, 12), rng.randint(1, 12)]
                for _ in range(rng.randint(1, min(room, 3))):
                    f = _times(f, linear)
            elif kind < 0.18:
                f = _times(f, [0, 1])  # a root at 0
            elif kind < 0.33 and room >= 4:
                quadratic = [rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 6)]
                f = _times(_times(f, quadratic), quadratic)
            else:
                size = rng.randint(min(room, 2), min(room, 3))
                f = _times(f, [rng.randint(-30, 30) for _ in range(size)] + [rng.randint(1, 9)])
        out.append(f)
    return out


def test_rational_root_lift_matches_the_divisor_search():
    polys = _random_factored_polys(random.Random(39), 2000)
    for d in range(2, 7):
        for seed in range(21):
            polys.extend(_witness_lines(d, seed))
    found = 0
    for coeffs in polys:
        expected = reference.rational_root_by_divisors(coeffs)
        found += expected
        assert discriminant._has_rational_root(coeffs) == expected, coeffs
        for p in discriminant._CERT_PRIMES:
            if discriminant._squarefree_mod(coeffs, p):
                assert discriminant._has_rational_root(coeffs, p) == expected, (coeffs, p)
    assert 0 < found < len(polys)


def test_squarefree_part_and_primes_agree_with_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for coeffs in _random_factored_polys(random.Random(7), 200):
        expected = sympy.Poly(coeffs[::-1], x).sqf_part().all_coeffs()[::-1]
        assert discriminant._squarefree_part(coeffs) == _primitive_list(
            [int(c) for c in expected]), coeffs
    # Past 31 the rational-root test tries the primes in increasing order; a
    # lead that every prime in [37, 2000) divides leaves the first usable one
    # at 2003.
    tried = []
    squarefree_mod = discriminant._squarefree_mod
    monkeypatch.setattr(discriminant, "_squarefree_mod",
                        lambda f, q: tried.append(q) or squarefree_mod(f, q))
    lead = prod(int(q) for q in sympy.primerange(37, 2000))
    assert discriminant._has_rational_root([-1, 0, lead]) is False
    assert tried == list(sympy.primerange(37, 2004))


def test_gfp_powmod_matches_repeated_products():
    rng = random.Random(3)
    for p in (3, 7, 31):
        for _ in range(20):
            f = _gfp_monic(_gfp_trim([rng.randrange(p) for _ in range(5)] + [1], p), p)
            base = _gfp_trim([rng.randrange(p) for _ in range(5)], p) or [1]
            power = base
            for exponent in range(1, 40):
                assert discriminant._gfp_powmod(base, exponent, f, p) == power
                power = discriminant._gfp_mulmod(power, base, f, p)


# 3 * 5 * ... * 31: every certification prime divides the lead.
_ALL_CERT_PRIMES = 100280245065


def test_uni_irreducible_q_walks_past_the_certification_primes():
    for coeffs in ([-1, 0, _ALL_CERT_PRIMES], _times([-1, _ALL_CERT_PRIMES], [-2, 1])):
        assert not any(discriminant._squarefree_mod(coeffs, p) for p in discriminant._CERT_PRIMES)
    assert _uni_irreducible_q([-1, 0, _ALL_CERT_PRIMES]) is True
    assert _uni_irreducible_q(_times([-1, _ALL_CERT_PRIMES], [-2, 1])) is False


def test_uni_irreducible_q_on_inputs_that_are_not_squarefree():
    square = _times([-2, 0, 1], [-2, 0, 1])  # (x^2 - 2)^2
    assert _uni_irreducible_q(_times(square, [-1, 3])) is False
    assert _uni_irreducible_q(_times(square, [1, 0, 1])) is None


def test_rational_roots_with_thirty_bit_prime_products_at_both_ends():
    # the divisor search would try about 2^30 trial divisors of each end
    p1, p2, p3, p4 = 1073741789, 1073740819, 1073739817, 1073738821
    with_root = _times([-p2, p1], [p4, p3])  # roots p2/p1 and -p4/p3
    assert abs(with_root[0]) == p2 * p4 and with_root[-1] == p1 * p3
    assert discriminant._has_rational_root(with_root)
    assert _uni_irreducible_q(with_root) is False
    assert _uni_irreducible_q(_times([-p2, p1], [p4, 0, p3])) is False
    assert not discriminant._has_rational_root([p2 * p4, 1, p1 * p3])
    assert _uni_irreducible_q([p2 * p4, 1, p1 * p3]) is True
    no_root = _times([p2, 0, p1], [p4, 0, p3])  # (p1 x^2 + p2)(p3 x^2 + p4)
    assert not discriminant._has_rational_root(no_root)
    assert _uni_irreducible_q(no_root) is None


def test_witness_certified_at_every_seed():
    # At (4,1) seed 7 no single prime shows the first line irreducible
    # (patterns [1, 5] mod 5, [2, 4] mod 13); only their intersection does.
    for d in (2, 3, 4):
        for seed in range(10):
            witness = irreducibility_witness(d, 1, seed)
            assert witness.status == "certified", (d, seed)
            assert len(witness.details["lines"]) == 3


@pytest.mark.parametrize("d", [4, 5])
def test_witness_line_verdicts_pinned(d):
    lines = irreducibility_witness(d, 1, 0).details["lines"]
    assert [r["irreducible"] for r in lines] == [False, True, True]


def test_witness_redraws_a_line_whose_degree_drops(monkeypatch):
    # At (2,1) seed 1 the restriction to one drawn line has a vanished top
    # coefficient; that line is redrawn, so only lines of the full degree
    # 2(d - 1) = 2 are recorded, and the records stay as pinned.
    restricted = []
    monkeypatch.setattr(discriminant, "restrict_to_line",
                        lambda *args: restricted.append(restrict_to_line(*args)) or restricted[-1])
    lines = irreducibility_witness(2, 1, 1).details["lines"]
    assert len(restricted) == 4 and sum(r[-1] == 0 for r in restricted) == 1
    assert lines == [
        {"base": [-2, 1, 3], "direction": [3, 3, -3], "degree": 2, "irreducible": True},
        {"base": [2, 0, 3], "direction": [-2, -3, 0], "degree": 2, "irreducible": True},
        {"base": [-3, 3, 0], "direction": [0, 1, 3], "degree": 2, "irreducible": True}]


def test_oracle_is_memoized_by_resolved_arguments(monkeypatch):
    # Every spelling of (6, 6) reads one entry, and the (6,1) witness's
    # Bezout determinant is the only other expansion.
    sizes = []
    packed_det = discriminant._packed_det
    monkeypatch.setattr(discriminant, "_packed_det",
                        lambda rows, *args: sizes.append(len(rows)) or packed_det(rows, *args))
    classical_discriminant_oracle.cache_clear()
    discriminant._eliminants.cache_clear()
    first = classical_discriminant_oracle(6)
    irreducibility_witness(6, 1, 0)
    for again in (classical_discriminant_oracle(d=6), classical_discriminant_oracle(6, cap=6),
                  classical_discriminant_oracle(6, 6)):
        assert again is first
    assert sizes == [11, 6]


def test_memoized_eliminants_are_isolated_from_callers():
    for d, l in ((4, 1), (4, 2)):
        generators = eliminant_generators(d, l)
        recorded = list(generators)
        generators.clear()
        assert eliminant_generators(d, l) == recorded
    listed = multiple_root_eliminant(4, 2)
    listed.pop()
    assert multiple_root_eliminant(4, 2) == recorded
    with pytest.raises(SizeCapError):
        eliminant_generators(4, 2, cap=3)


def _reference_graded_relations(d, l, degree):
    """Kernel of the pullback matrix, each pullback a product of powers of
    the parametrization polynomials, ranked as one SparseMatrix."""
    params = incidence_parametrization(d, l)
    a_monomials = sorted(degree_monomials(degree, d + 1))
    columns = {}
    rows = []
    for exps in a_monomials:
        pullback = Poly.const(params[0].nvars, 1)
        for k, e in enumerate(exps):
            pullback = pullback * params[k] ** e
        rows.append({columns.setdefault(bc, len(columns)): c for bc, c in pullback.terms.items()})
    matrix = SparseMatrix.from_rows(rows, cols=len(columns))
    return [integer_primitive(Poly(d + 1, {e: c for e, c in zip(a_monomials, combo) if c}))
            for combo in kernel_basis(transpose(matrix))]


def _closed_under_mirror(piece, d, degree):
    """The span of the piece holds its image under a_r -> a_(d-r) (an exact
    rank)."""
    columns = {exps: j for j, exps in enumerate(degree_monomials(degree, d + 1))}
    rows = [{columns[e]: c for e, c in p.terms.items()} for p in piece]
    mirrored = [{columns[e[::-1]]: c for e, c in p.terms.items()} for p in piece]
    return span_dim(rows + mirrored, len(columns)) == len(piece)


@pytest.mark.parametrize("d,l", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_graded_relations_match_pullback_matrix_kernel(d, l):
    """The lower weight half and its mirror give the kernel of all the
    equations, at kd odd and even."""
    for degree in range(1, 7):
        got = graded_relations(d, l, degree)
        assert [p.to_string() for p in got] == \
            [p.to_string() for p in _reference_graded_relations(d, l, degree)]
        assert all(type(c) is int for p in got for c in p.terms.values())
        assert _closed_under_mirror(got, d, degree)


@pytest.mark.parametrize("p", [*discriminant._CERT_PRIMES, 37])
def test_gfp_gcd_and_monic_division_agree_with_sympy(p):
    galois = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def dense(f):  # sympy's GF(p) lists run from the leading coefficient
        return galois.gf_strip([c % p for c in reversed(f)])

    rng = random.Random(p)

    def poly(degree):  # unreduced, with a leading coefficient that is not 1 mod p
        return [rng.randrange(-p, 2 * p) for _ in range(degree)] + [rng.choice([2, p + 2, -1])]

    pairs = [([], []), ([0, p], poly(3)), (poly(4), [2 * p]), ([p + 2], poly(3)),
             (poly(5), [-1])]
    while sum(len(galois.gf_gcd(dense(a), dense(b), p, ZZ)) == 1 for a, b in pairs) < 8:
        pairs.append((poly(rng.randint(1, 6)), poly(rng.randint(1, 6))))  # coprime pairs
    for _ in range(8):
        common = poly(rng.randint(1, 3))
        pairs.append((_times(common, poly(rng.randint(0, 4))),
                      _times(common, poly(rng.randint(0, 4)))))
        pairs.append((common, common))
    for a, b in pairs:
        got = discriminant._gfp_gcd(a, b, p)
        assert got == list(reversed(galois.gf_gcd(dense(a), dense(b), p, ZZ))), (a, b)
        for f, g in ((a, b), (b, a)):
            f, g = _gfp_trim(f, p), _gfp_trim(g, p)
            if g:
                g = _gfp_monic(g, p)
                q, r = galois.gf_div(dense(f), dense(g), p, ZZ)
                assert discriminant._gfp_divmod(f, g, p) == (q[::-1], r[::-1]), (f, g)


def test_gfp_gcd_makes_a_result_monic_once(monkeypatch):
    # Each divisor of the loop is made monic, and the last one is the gcd;
    # only a second argument that is zero mod p leaves the first to scale.
    # Mod 7: 2x^2 + 3 = 2(x^2 + 5); x^2 + 5x + 6 = (x + 2)(x + 3);
    # x^2 + 1 has no root, so it is prime to 2x + 3; 3x + 2 = 3(x + 3).
    calls = {"monic": 0, "divmod": 0}
    for name in calls:
        original = getattr(discriminant, f"_gfp_{name}")

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(discriminant, f"_gfp_{name}", counted)
    p = 7
    for a, b, gcd, monics in [([3, 0, 2], [14], [5, 0, 1], 1), ([], [0, 7], [], 0),
                              ([6, 5, 1], [2, 1], [2, 1], 1), ([1, 0, 1], [3, 2], [1], 2),
                              ([2, 3], [6, 5, 1], [3, 1], 2)]:
        for name in calls:
            calls[name] = 0
        assert discriminant._gfp_gcd(a, b, p) == gcd
        assert calls["monic"] == monics
        assert calls["divmod"] == (monics if _gfp_trim(b, p) else 0)

