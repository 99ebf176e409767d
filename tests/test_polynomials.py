from fractions import Fraction

import pytest

from vermajet.polynomials import (Poly, det, divide_by_variable,
                                  integer_primitive, restrict_to_line,
                                  strip_variable_factors)


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
    assert p.truncate(1) == 1 + x
    assert p.truncate(2) == 1 + x + x * y


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
    import random
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
        assert all(isinstance(c, Fraction) for c in restricted.terms.values())
