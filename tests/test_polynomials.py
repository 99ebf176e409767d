import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itertools import combinations, product

from reference import chart_minor_by_det, graded_pullbacks, truncate
from vermajet import discriminant, jets, polynomials
from vermajet.polynomials import (Poly, det, divide_by_variable,
                                  integer_primitive, restrict_to_line,
                                  strip_variable_factors)


def _canonical_coefficient(c) -> bool:
    """An int, or a Fraction that is not integral."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _xy():
    return Poly.variable(2, 0), Poly.variable(2, 1)


def test_arithmetic_and_powers():
    x, y = _xy()
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    assert (p - p).is_zero
    assert (x + 1) * (x - 1) == x * x - 1


def test_derivative():
    x, y = _xy()
    p = x ** 3 * y + 2 * x
    assert p.derivative(0) == 3 * x * x * y + 2
    assert p.derivative(1) == x ** 3


def test_truncate():
    x, y = _xy()
    p = 1 + x + x * y + x ** 2 * y
    assert truncate(p, 1) == 1 + x
    assert truncate(p, 2) == 1 + x + x * y


def test_substitute_composes():
    x, y = _xy()
    p = x * x + y
    t = Poly.variable(1, 0)
    q = p.substitute([t + 1, 2 * t])
    assert q == t * t + 4 * t + 1


def test_substitute_scalars():
    x, y = _xy()
    p = x * y + 3
    assert p.substitute([Fraction(1, 2), 4], nvars_out=0) == Poly.const(0, 5)


def test_evaluate():
    x, y = _xy()
    p = x ** 2 - y
    assert p.evaluate([Fraction(3), Fraction(4)]) == 5


def test_evaluate_at_an_integer_point_is_an_int():
    x, y = _xy()
    value = (Fraction(1, 2) * x * x + Fraction(1, 2) * x + 3 * y).evaluate([3, -1])
    assert type(value) is int and value == 3
    assert type((x * y).evaluate([Fraction(4), 2])) is int
    assert (x * Fraction(1, 3)).evaluate([1, 0]) == Fraction(1, 3)


def test_prefix_steps_walk_degree_monomials():
    for nvars in range(1, 6):
        for degree in range(1, 6):
            steps = list(polynomials.prefix_steps(nvars, degree))
            assert [exps for exps, _, _ in steps] == list(
                polynomials.degree_monomials(degree, nvars))
            for exps, i, prefix in steps:
                assert not any(exps[:i]) and exps[i]
                assert tuple(e + (j == i) for j, e in enumerate(prefix)) == exps


def test_det_vandermonde():
    rows = [[Poly.const(0, 1), Poly.const(0, a), Poly.const(0, a * a)]
            for a in (1, 2, 3)]
    # Vandermonde determinant (2-1)(3-1)(3-2) = 2.
    assert det(rows) == Poly.const(0, 2)


def test_det_symbolic():
    x, y = _xy()
    rows = [[x, y], [y, x]]
    assert det(rows) == x * x - y * y


def test_integer_primitive_normalizes_content_and_sign():
    x, y = _xy()
    p = Fraction(-2, 3) * x * y - Fraction(4, 3) * y * y
    normal = integer_primitive(p)
    # lex-first term is x*y's exponent (1,1) vs y^2's (0,2): (0,2) comes first
    assert normal == 2 * y * y + x * y


def test_variable_factor_stripping():
    x, y = _xy()
    p = x * x * y + x * y * y
    assert divide_by_variable(p, 0) == x * y + y * y
    assert strip_variable_factors(p) == x + y
    with pytest.raises(ValueError):
        divide_by_variable(x + y, 0)


def test_restrict_to_line():
    x, y = _xy()
    p = x * y
    q = restrict_to_line(p, [1, 2], [1, -1])
    t = Poly.variable(1, 0)
    assert q == (t + 1) * (2 - t)


def test_to_string_ordering():
    x, y = _xy()
    p = y * y - 4 * x * y
    assert p.to_string(["a0", "a1"]) == "a1^2 - 4*a0*a1"
    assert Poly.zero(2).to_string() == "0"


def test_restrict_to_line_agrees_with_substitute():
    rng = random.Random(20240)
    t = Poly.variable(1, 0)
    for _ in range(200):
        nvars = rng.randint(1, 5)
        terms = {tuple(rng.randint(0, 4) for _ in range(nvars)):
                 Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                 for _ in range(rng.randint(0, 8))}
        p = Poly(nvars, terms)
        base = [rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))))
                for _ in range(nvars)]
        direction = [rng.randint(-3, 3) for _ in range(nvars)]
        expected = p.substitute([Poly.const(1, b) + t * w for b, w in zip(base, direction)],
                                nvars_out=1)
        restricted = restrict_to_line(p, base, direction)
        assert restricted == expected
        assert all(_canonical_coefficient(c) for c in restricted.terms.values())
        integral = restrict_to_line(integer_primitive(p), [math.floor(b) for b in base], direction)
        assert all(type(c) is int for c in integral.terms.values())


# -- integer-or-Fraction coefficients against a plain Fraction reference -----

_NVARS = 3


def _coefficients():
    return st.one_of(st.integers(-6, 6),
                     st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4))))


def _polys():
    exps = st.tuples(*[st.integers(0, 3)] * _NVARS)
    return st.dictionaries(exps, _coefficients(), max_size=5).map(
        lambda terms: Poly(_NVARS, terms))


def _reference(p: Poly) -> dict:
    return {e: Fraction(c) for e, c in p.terms.items()}


def _ref_clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_clean(out)


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _ref_clean(out)


def _ref_derivative(a: dict, index: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[index]:
            lowered = list(e)
            lowered[index] -= 1
            out[tuple(lowered)] = c * e[index]
    return _ref_clean(out)


def _agrees(p: Poly, reference: dict) -> bool:
    return (all(_canonical_coefficient(c) for c in p.terms.values())
            and _reference(p) == reference)


@settings(max_examples=150, deadline=None)
@given(_polys(), _polys(), _coefficients(), st.integers(0, 3), st.integers(0, _NVARS - 1),
       st.tuples(*[_coefficients()] * _NVARS))
def test_arithmetic_matches_fraction_reference(p, q, scalar, power, index, point):
    rp, rq = _reference(p), _reference(q)
    assert all(_canonical_coefficient(c) for c in p.terms.values())
    assert _agrees(p + q, _ref_add(rp, rq))
    assert _agrees(p - q, _ref_add(rp, {e: -c for e, c in rq.items()}))
    assert _agrees(p * q, _ref_mul(rp, rq))
    assert _agrees(p * scalar, _ref_mul(rp, {(0,) * _NVARS: Fraction(scalar)} if scalar else {}))
    assert _agrees(p + scalar, _ref_add(rp, {(0,) * _NVARS: Fraction(scalar)} if scalar else {}))
    expected = {(0,) * _NVARS: Fraction(1)}
    for _ in range(power):
        expected = _ref_mul(expected, rp)
    assert _agrees(p ** power, expected)
    assert _agrees(p.derivative(index), _ref_derivative(rp, index))
    value = p.evaluate(point)
    assert _canonical_coefficient(value)
    assert value == sum((c * math.prod(Fraction(x) ** k for x, k in zip(point, e))
                         for e, c in rp.items()), Fraction(0))


def test_det_matches_sympy_on_random_integer_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31337)
    names = sympy.symbols("x0:3")
    for _ in range(6):
        rows = [[Poly(3, {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-5, 5)
                          for _ in range(rng.randint(0, 3))})
                 for _ in range(4)] for _ in range(4)]
        as_sympy = sympy.Matrix([[sympy.Add(*[c * sympy.Mul(*[v ** k for v, k in zip(names, e)])
                                              for e, c in p.terms.items()])
                                  for p in row] for row in rows])
        expected = sympy.Poly(as_sympy.det(method="berkowitz"), *names)
        got = det(rows)
        assert all(type(c) is int for c in got.terms.values())
        assert got.terms == {e: int(c) for e, c in expected.terms() if c}


# -- det against a plain cofactor expansion ----------------------------------

def _ref_det(rows: list[list[dict]]) -> dict:
    """Cofactor expansion along the first row, on Fraction term dicts."""
    if not rows:
        return {(0,) * _NVARS: Fraction(1)}
    total: dict = {}
    for k, entry in enumerate(rows[0]):
        minor = _ref_det([row[:k] + row[k + 1:] for row in rows[1:]])
        for e, c in _ref_mul(entry, minor).items():
            total[e] = total.get(e, Fraction(0)) + (c if k % 2 == 0 else -c)
    return _ref_clean(total)


def _random_poly(rng, fractions):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        c = rng.randint(-4, 4)
        if fractions and rng.random() < 0.5:
            c = Fraction(c, rng.choice((2, 3, 5)))
        terms[tuple(rng.randint(0, 2) for _ in range(_NVARS))] = c
    return Poly(_NVARS, terms)


def test_det_matches_cofactor_reference_on_seeded_matrices():
    rng = random.Random(4242)
    cancelling = 0
    for trial in range(24):
        size = rng.randint(1, 4)
        rows = [[_random_poly(rng, trial % 2) for _ in range(size)] for _ in range(size)]
        if size >= 2 and trial % 3 == 1:
            rows[-1] = list(rows[0])  # two equal rows
        elif size >= 3 and trial % 3 == 2:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]  # a sum of two rows
        expected = _ref_det([[_reference(p) for p in row] for row in rows])
        got = det(rows)
        cancelling += not expected
        assert _agrees(got, expected)
        assert all(_canonical_coefficient(c) for c in got.terms.values())
    assert cancelling >= 8


def test_det_cancels_to_exact_zero():
    x, y = _xy()
    half = Fraction(1, 2)
    first, second = [x + half, y, Poly.zero(2)], [x * y, half * y * y, x - 1]
    rows = [first, second, [a + b for a, b in zip(first, second)]]
    assert det(rows).is_zero and det(rows).terms == {}
    assert det([[x, y], [x, y]]) == Poly.zero(2)


# -- det in band order --------------------------------------------------------

def test_det_rejects_ragged_rows_after_a_poly_entry():
    x, y = _xy()
    for rows in ([[x, y], [y, x, x]], [[x, y], [y]], [[1, 2], [3]], [[x], []]):
        with pytest.raises(ValueError, match="determinant needs a square matrix"):
            det(rows)


def _band_order_is_odd(rows) -> bool:
    """Parity, by cycle count, of the stable sort of the rows by (first,
    last nonzero column), all-zero rows last."""
    size = len(rows)

    def key(r):
        cols = [c for c, e in enumerate(rows[r]) if e != 0]
        return (cols[0], cols[-1]) if cols else (size, size)

    order = sorted(range(size), key=key)
    seen, transpositions = set(), 0
    for start in range(size):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = order[i]
            length += 1
        transpositions += max(length - 1, 0)
    return transpositions % 2 == 1


def _banded_rows(rng, size, polys):
    """Rows with nonzero entries only inside a random band around the
    diagonal, shuffled; entries are ints, or a mix of ints and 3-variable
    polynomials."""
    rows = []
    for i in range(size):
        lo, hi = max(0, i - rng.randint(0, 2)), min(size - 1, i + rng.randint(0, 2))
        row = [0] * size
        for c in range(lo, hi + 1):
            value = rng.choice([v for v in range(-4, 5) if v])
            if polys and rng.random() < 0.6:
                value = _random_poly(rng, rng.random() < 0.3) + value
            row[c] = value
        rows.append(row)
    if rng.random() < 0.1:
        rows[rng.randrange(size)] = [0] * size
    rng.shuffle(rows)
    return rows


def _lifted_reference(rows) -> dict:
    return _ref_det([[_reference(e) if isinstance(e, Poly) else _reference(Poly.const(_NVARS, e))
                      for e in row] for row in rows])


def test_det_band_order_sign_on_seeded_banded_matrices():
    rng = random.Random(20261018)
    seen = {(odd, nonzero): 0 for odd in (False, True) for nonzero in (False, True)}
    for trial in range(160):
        polys = trial % 2 == 1
        rows = _banded_rows(rng, rng.randint(2, 6), polys)
        expected = _lifted_reference(rows)
        got = det(rows)
        if polys and any(isinstance(e, Poly) for row in rows for e in row):
            assert _agrees(got, expected)
        else:
            assert got.terms == ({(): int(expected[(0,) * _NVARS])} if expected else {})
        seen[(_band_order_is_odd(rows), bool(expected))] += 1
    assert seen[(True, True)] >= 40 and seen[(False, True)] >= 40
    assert seen[(True, False)] + seen[(False, False)] >= 5


def test_det_band_order_sign_on_permuted_triangular_matrices():
    """An upper triangular matrix with its rows permuted: det is the sign of
    the permutation times the diagonal product, so a lost sign shows."""
    x, y = _xy()
    rng = random.Random(7)
    for size in range(2, 7):
        for _ in range(6):
            rows = [[0] * c + [x + c + 1] + [rng.choice((0, y, 2)) for _ in range(size - c - 1)]
                    for c in range(size)]
            order = list(range(size))
            rng.shuffle(order)
            inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
            diagonal = Poly.const(2, 1)
            for c in range(size):
                diagonal = diagonal * (x + c + 1)
            expected = -diagonal if inversions % 2 else diagonal
            assert det([rows[r] for r in order]) == expected


# -- packed monomials ----------------------------------------------------------

def test_packed_monomials_round_trip_in_the_narrowest_width():
    for bound in (0, 1, 2, 3, 7, 8, 239, 255, 256, 480):
        width = polynomials._field_width(bound)
        assert bound < 2 ** width and (bound == 0 or bound >= 2 ** (width - 1))
        for exps in [(0, 0, 0), (bound, 0, bound), (bound // 2, bound, min(bound, 1))]:
            key = polynomials._pack(exps, width)
            assert polynomials._unpack(key, 3, width) == exps
    with pytest.raises(OverflowError):
        polynomials._pack((0, 32, 0), 5)


@pytest.mark.parametrize("nimages", [2, 3, 4])
def test_graded_pullbacks_unpack_to_products_of_the_images(nimages):
    rng = random.Random(19 + nimages)
    nvars, max_degree = nimages, 4
    images = [Poly(nvars, {tuple(rng.randint(0, 3) for _ in range(nvars)): rng.randint(-4, 4)
                           for _ in range(rng.randint(1, 3))})
              for _ in range(nimages - 1)]
    images.insert(rng.randrange(nimages), Poly.zero(nvars))
    width = polynomials._field_width(max_degree * 3)
    packed = [polynomials._pack_terms(p.terms, width) for p in images]
    layers = list(graded_pullbacks(packed, max_degree))
    assert len(layers) == max_degree
    for degree, layer in enumerate(layers, 1):
        assert list(layer) == list(polynomials.degree_monomials(degree, nimages))
        for exps, terms in layer.items():
            expected = Poly.const(nvars, 1)
            for image, e in zip(images, exps):
                expected = expected * image ** e
            assert {polynomials._unpack(key, nvars, width): c
                    for key, c in terms.items()} == expected.terms


def _power_term(exps, coeff=1):
    return Poly(_NVARS, {exps: coeff})


def test_det_with_large_exponents_matches_cofactor_reference():
    """Entries of degree up to 240 make the field width 9 bits or more; the
    determinants have exponents past 255, so one bit less would carry."""
    big = _power_term((150, 90, 0))
    rows = [[big, _power_term((100, 0, 0)) + 3],
            [_power_term((0, 80, 0)) - _power_term((0, 0, 1)), big]]
    got = det(rows)
    assert got == big * big - (_power_term((100, 0, 0)) + 3) * (
        _power_term((0, 80, 0)) - _power_term((0, 0, 1)))
    assert _agrees(got, _lifted_reference(rows))
    assert max(e[0] for e in got.terms) == 300
    rng = random.Random(150090)
    exponents = (0, 1, 40, 90, 150)
    for trial in range(30):
        size = rng.randint(1, 4)
        rows = [[Poly(_NVARS, {tuple(rng.choice(exponents) for _ in range(_NVARS)):
                               Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2)))
                               for _ in range(rng.randint(0, 2))})
                 for _ in range(size)] for _ in range(size)]
        assert _agrees(det(rows), _lifted_reference(rows))


def _sympy_terms(sympy, expr, names) -> dict:
    return {e: int(c) for e, c in sympy.Poly(expr, *names).terms() if c}


@pytest.mark.parametrize("d", range(2, 7))
def test_sylvester_det_is_sympy_resultant(d):
    sympy = pytest.importorskip("sympy")
    p = discriminant._form_coefficients(d)
    q = discriminant._derivative_coefficients(p)
    x, names = sympy.Symbol("x"), sympy.symbols(f"a0:{d + 1}")
    form = sum(names[k] * x ** (d - k) for k in range(d + 1))
    expected = _sympy_terms(sympy, sympy.resultant(form, sympy.diff(form, x), x), names)
    assert det(discriminant._sylvester_matrix(p, q)).terms == expected


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (1, 4), (4, 1), (2, 4), (4, 2), (3, 4)])
def test_every_chart_minor_is_sympy_det(m, n):
    sympy = pytest.importorskip("sympy")
    variables = jets.chart_variables(m, n)
    names = sympy.symbols(f"t0:{len(variables)}")
    full = sympy.Matrix([[int(r == c) for c in range(1, m + 1)] for r in range(1, m + 1)]
                        + [[names[variables.index((r, c))] for c in range(1, m + 1)]
                           for r in range(m + 1, m + n + 1)])
    for rows in combinations(range(1, m + n + 1), m):
        expected = full.extract([r - 1 for r in rows], list(range(m))).det()
        got = jets._chart_minor(rows, m, n)
        assert got.terms == _sympy_terms(sympy, expected, names)


def test_every_chart_minor_is_the_det_expansion():
    """The closed form against the generic `det` route, every wedge with
    m + n <= 7: k! distinct monomials, k the number of rows > m, each with
    coefficient +-1 and of total degree k."""
    for m in range(1, 7):
        for n in range(1, 8 - m):
            for rows in combinations(range(1, m + n + 1), m):
                got = jets._chart_minor(rows, m, n)
                assert got == chart_minor_by_det(rows, m, n)
                k = sum(r > m for r in rows)
                assert len(got.terms) == math.factorial(k)
                assert all(c in (1, -1) and sum(e) == k for e, c in got.terms.items())


def test_sylvester_det_builds_few_minors(monkeypatch):
    """Each memoized minor is made by one `_cofactor_expansion` call.
    Expanded top to bottom (all p-rows, then all q-rows) the d = 4, 5, 6
    matrices built 119, 465 and 1,815 minors; in band order the memo stays
    inside the band."""
    built = []
    original = polynomials._cofactor_expansion

    def counting(row, cols, minor):
        built.append(1)
        return original(row, cols, minor)

    forms = {d: discriminant._form_coefficients(d) for d in (4, 5, 6)}
    matrices = {d: discriminant._sylvester_matrix(p, discriminant._derivative_coefficients(p))
                for d, p in forms.items()}
    monkeypatch.setattr(polynomials, "_cofactor_expansion", counting)
    counts = {}
    for d, matrix in matrices.items():
        built.clear()
        det(matrix)
        counts[d] = len(built)
    assert counts == {4: 53, 5: 142, 6: 375}


def test_degree_monomials_match_an_independent_enumeration():
    # Every tuple of the box [0, degree]^nvars with the right sum, in
    # increasing lex order (itertools.product's order).
    for nvars in range(1, 7):
        for degree in range(7):
            want = [e for e in product(range(degree + 1), repeat=nvars)
                    if sum(e) == degree]
            assert list(polynomials.degree_monomials(degree, nvars)) == want
