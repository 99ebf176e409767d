"""Multiple-root loci of binary forms: eliminants, the incidence
parametrization, and irreducibility evidence, all in exact arithmetic.

A binary form of degree d is the coefficient vector (a_0..a_d) against the
monomials x0^(d-k) x1^k; dehomogenizing at x1 = 1 makes a_0 the leading
coefficient.  Eliminants are primitive integer polynomials in a_0..a_d with
the sign fixed so the lexicographically first term is positive.

Two independent routes to the classical discriminant are kept separate on
purpose: the Sylvester resultant (the oracle) and a Bezout-matrix
determinant (the production path for codimension one).  Both go through
`polynomials.det` but not through the same expansion: the banded Sylvester
rows are reordered, the dense Bezout rows are not.  For higher
multiplicity the generators of the eliminant ideal are found degree by
degree as the exact kernel of the pullback along the incidence
parametrization (b, g) -> (x0 - b*x1)^(l+1) * g.  That is a polynomial
identity, so membership of the image in every generator is exact by
construction.  The pullbacks of the degree-k monomials are integer
polynomials in (b, c), grown from those of degree k-1 by
`polynomials.graded_pullbacks` (the one pullback the Plücker monomials of
`jets` share), and the eliminant search grows them once, degree after
degree, up to the highest degree its caller asks for.  They are kept as
packed-monomial dicts (see `polynomials`): a degree-k pullback has
b-exponent at most k*(l+1) and c-exponents at most k, so every degree is
packed once, at the field width of the highest one.  The coefficient of
each packed (b, c)-monomial gives one equation, and the equations go into
one integer `Echelon`, sparsest first, whose `Echelon.kernel` is the
piece, each vector made a primitive integer polynomial; the reduced form
is unique, so row order cannot change the kernel, only the cost of
reaching it.
`_incidence_parametrization` stays a list of `Poly`s, and
`graded_relations` stays the public entry point for a single degree.

Irreducibility evidence restricts the discriminant (l = 1) to seeded lines.
Each univariate restriction is proved irreducible over Q by mod-p degree
patterns (distinct-degree factorization over GF(p) at several primes),
proved reducible only by a rational root, and otherwise left unknown.  For
l > 1 the witness is "heuristic" by policy and restricts nothing: a line
through one generator of a codimension-l ideal says nothing about the locus.

`classical_discriminant_oracle` and `multiple_root_eliminant` are memoized
for the life of the process, keyed by all their arguments (d, cap) and
(d, l, cap); a call that fails a check is not stored.  Both return the
shared `Eliminant` objects, so callers treat them as read-only; a list of
generators is a new list on every call.  The parametrization's gradients
are memoized by (d, l) and shared read-only too.  Sampled values are
canonical, so integer sample points give both Jacobian checks `int` rows.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, gcd
from typing import Iterator, Sequence, Union

from .errors import CertificateError, SizeCapError
# kernel_basis is unused here but stays bound: perfbench's layer tracer
# rebinds and checks `discriminant.kernel_basis`.
from .linalg import Echelon, canonical, kernel_basis, primitive_integers  # noqa: F401
from .polynomials import (Poly, _field_width, _pack_terms, degree_monomials, det,
                          divide_by_variable, graded_pullbacks, integer_primitive,
                          restrict_to_line, strip_variable_factors)

DEFAULT_DEGREE_CAP = 6

_CERT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@dataclass(frozen=True)
class BinaryForm:
    coeffs: tuple[int | Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class Eliminant:
    """Primitive integer polynomial in a_0..a_d, sign-normalized."""

    poly: Poly
    degree: int

    def to_string(self) -> str:
        names = [f"a{i}" for i in range(self.poly.nvars)]
        return self.poly.to_string(names)


def _make_eliminant(p: Poly) -> Eliminant:
    normal = integer_primitive(p)
    if normal.is_zero:
        raise ValueError("eliminant must be nonzero")
    return Eliminant(normal, normal.total_degree())


def _form_coefficients(d: int) -> list[Poly]:
    """[a_0, .., a_d] as polynomials, descending powers of the root variable."""
    return [Poly.variable(d + 1, k) for k in range(d + 1)]


def _derivative_coefficients(coeffs: list[Poly]) -> list[Poly]:
    d = len(coeffs) - 1
    return [(d - k) * coeffs[k] for k in range(d)]


def _sylvester_matrix(p: list[Poly], q: list[Poly]) -> list[list[Poly]]:
    dp = len(p) - 1
    dq = len(q) - 1
    size = dp + dq
    nvars = p[0].nvars
    zero = Poly.zero(nvars)
    rows = []
    for i in range(dq):
        rows.append([zero] * i + p + [zero] * (size - dp - 1 - i))
    for i in range(dp):
        rows.append([zero] * i + q + [zero] * (size - dq - 1 - i))
    return rows


def classical_discriminant_oracle(d: int, cap: int = DEFAULT_DEGREE_CAP) -> Eliminant:
    """Sylvester resultant of the form and its derivative, divided by the
    leading coefficient and normalized."""
    return _classical_discriminant(d, cap)


@lru_cache(maxsize=None)
def _classical_discriminant(d: int, cap: int) -> Eliminant:
    if d < 2:
        raise ValueError("the discriminant needs degree at least 2")
    if d > cap:
        raise SizeCapError("binary form degree", d, cap)
    p = _form_coefficients(d)
    q = _derivative_coefficients(p)
    resultant = det(_sylvester_matrix(p, q))
    return _make_eliminant(divide_by_variable(resultant, 0))


def _bezout_matrix(d: int) -> list[list[Poly]]:
    """Bezout matrix of the form p and its derivative q; entries in a_0..a_d.

    (p(x)q(y) - p(y)q(x)) / (x - y) = sum B_ij x^i y^j, where
    B_ij = sum_{v <= min(i,j)} (P_{i+j+1-v} Q_v - P_v Q_{i+j+1-v}) and P_u,
    Q_u are the x^u coefficients of p and q (zero past the degree)."""
    zero = Poly.zero(d + 1)
    form = _form_coefficients(d)
    p = form[::-1] + [zero] * d
    q = _derivative_coefficients(form)[::-1] + [zero] * (d + 1)
    return [[sum((p[i + j + 1 - v] * q[v] - p[v] * q[i + j + 1 - v]
                  for v in range(min(i, j) + 1)), zero)
             for j in range(d)] for i in range(d)]


def _incidence_parametrization(d: int, l: int) -> list[Poly]:
    """Coefficients of (x0 - b*x1)^(l+1) * g as polynomials in (b, c_0..c_e),
    where g = sum c_k x0^(e-k) x1^k and e = d - l - 1."""
    e = d - l - 1
    nvars = 1 + (e + 1)
    b = Poly.variable(nvars, 0)
    c = [Poly.variable(nvars, 1 + k) for k in range(e + 1)]
    out = []
    for r in range(d + 1):
        total = Poly.zero(nvars)
        for j in range(l + 2):
            k = r - j
            if 0 <= k <= e:
                total = total + comb(l + 1, j) * ((-1) ** j) * (b ** j) * c[k]
        out.append(total)
    return out


def parametrized_form(d: int, l: int, b: int | Fraction, g: Sequence[int | Fraction]) -> BinaryForm:
    """The form (x0 - b*x1)^(l+1) * g at a concrete parameter point."""
    if not 1 <= l < d:
        raise ValueError("need 1 <= l < d")
    if len(g) != d - l:
        raise ValueError(f"cofactor needs {d - l} coefficients")
    # coefficient r is sum_j C(l+1, j) (-b)^j g_(r-j)
    binomial = [comb(l + 1, j) * (-canonical(b)) ** j for j in range(l + 2)]
    cofactor = [canonical(v) for v in g]
    return BinaryForm(tuple(
        canonical(sum(binomial[j] * cofactor[r - j]
                      for j in range(max(0, r - len(g) + 1), min(r, l + 1) + 1)))
        for r in range(d + 1)))


def _pullback_width(k: int, l: int) -> int:
    """Field width of the packed (b, c) monomials of the degree-k pullbacks:
    each is a product of k parametrization coefficients, so b has exponent
    at most k*(l+1) and each c at most k."""
    return _field_width(k * (l + 1))


def _pullbacks_by_degree(d: int, l: int,
                        max_degree: int) -> Iterator[dict[tuple[int, ...], dict[int, int]]]:
    """`graded_pullbacks` of a_0..a_d along the parametrization, packed at
    `_pullback_width(max_degree, l)`, which holds every degree yielded."""
    width = _pullback_width(max_degree, l)
    yield from graded_pullbacks([_pack_terms(p.terms, width)
                                 for p in _incidence_parametrization(d, l)], max_degree)


def _kernel_piece(pullbacks: dict[tuple[int, ...], dict[int, int]], d: int) -> list[Poly]:
    """Primitive integer combinations of the a-monomials whose pullbacks
    sum to zero: one equation per packed (b, c)-monomial, sparsest first."""
    a_monomials = list(pullbacks)
    equations: dict[int, dict[int, int]] = {}
    for col, terms in enumerate(pullbacks.values()):
        for key, c in terms.items():
            equations.setdefault(key, {})[col] = c
    echelon = Echelon(len(a_monomials))
    for row in sorted(equations.values(), key=len):
        echelon.add(row)
    return [integer_primitive(Poly(d + 1, {a_monomials[j]: v for j, v in sorted(vector.items())}))
            for vector in echelon.kernel()]


def graded_relations(d: int, l: int, degree: int) -> list[Poly]:
    """Homogeneous degree-`degree` polynomials in a_0..a_d vanishing
    identically on the incidence parametrization (an exact kernel)."""
    if not 1 <= l < d:
        raise ValueError("need 1 <= l < d")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return _kernel_piece(next(islice(_pullbacks_by_degree(d, l, degree), degree - 1, None)), d)


def _new_generators(piece: list[Poly], collected: list[Poly],
                    degree: int, d: int) -> list[Poly]:
    """Kernel elements not already in (collected) * monomials."""
    if not collected:
        return list(piece)
    columns = {exps: i for i, exps in enumerate(degree_monomials(degree, d + 1))}

    def row_of(p: Poly) -> dict[int, int]:
        return {columns[e]: c for e, c in p.terms.items()}

    echelon = Echelon(len(columns))
    for g in collected:
        gap = degree - g.total_degree()
        if gap < 0:
            continue
        for mono in degree_monomials(gap, d + 1):
            echelon.add(row_of(g * Poly(d + 1, {mono: 1})))
    return [q for q in piece if echelon.add(row_of(q))]


def _sample_point(d: int, l: int, rng: random.Random) -> tuple[int, list[int]]:
    """A parameter point (b, g) of the parametrization with integer entries in
    -9..9, g[0] forced nonzero."""
    b = rng.randint(-9, 9)
    g = [rng.randint(-9, 9) for _ in range(d - l)]
    if not g[0]:
        g[0] = 1
    return b, g


def _jacobian_rank(gradients: Sequence[Sequence[Poly]],
                   point: Sequence[int | Fraction]) -> int:
    """Exact rank of the Jacobian whose rows are the gradients at the point."""
    jacobian = Echelon(len(point))
    for gradient in gradients:
        jacobian.add({j: partial.evaluate(point) for j, partial in enumerate(gradient)})
    return jacobian.rank


def _generators_cut_codimension(generators: list[Poly], d: int, l: int) -> bool:
    """The generators' Jacobian reaches rank l at three generic points of the
    parametrization, so they cut the locus to the expected codimension.
    Fewer than l generators cannot reach rank l, so no point is drawn."""
    if len(generators) < l:
        return False
    gradients = [[gen.derivative(j) for j in range(d + 1)] for gen in generators]
    rng = random.Random(20111)
    successes = 0
    for _ in range(60):
        point = parametrized_form(d, l, *_sample_point(d, l, rng)).coeffs
        if _jacobian_rank(gradients, point) == l:
            successes += 1
            if successes == 3:
                return True
    return False


def multiple_root_eliminant(d: int, l: int,
                            cap: int = DEFAULT_DEGREE_CAP
                            ) -> Union[Eliminant, list[Eliminant]]:
    """Eliminant of the locus of forms with a root of multiplicity >= l+1.

    For l = 1 the locus is a hypersurface and a single generator is
    returned (a Bezout determinant with monomial factors stripped).  For
    l > 1 the generators of the vanishing ideal are collected degree by
    degree, keeping only elements not generated in lower degrees, until
    their Jacobian cuts the locus to its expected codimension l at sampled
    points of the parametrization; the list is new on every call.
    """
    result = _multiple_root_eliminant(d, l, cap)
    return list(result) if isinstance(result, tuple) else result


@lru_cache(maxsize=None)
def _multiple_root_eliminant(d: int, l: int,
                             cap: int) -> Union[Eliminant, tuple[Eliminant, ...]]:
    if not 1 <= l < d:
        raise ValueError("need 1 <= l < d")
    if d > cap:
        raise SizeCapError("binary form degree", d, cap)
    if l == 1:
        determinant = det(_bezout_matrix(d))
        return _make_eliminant(strip_variable_factors(determinant))
    collected: list[Poly] = []
    for degree, pullbacks in enumerate(_pullbacks_by_degree(d, l, 2 * (d - 1)), 1):
        piece = _kernel_piece(pullbacks, d)
        collected.extend(_new_generators(piece, collected, degree, d))
        if collected and _generators_cut_codimension(collected, d, l):
            break
    if not collected:
        raise CertificateError(f"no eliminant generators found for (d={d}, l={l})")
    return tuple(_make_eliminant(g) for g in collected)


def eliminant_generators(d: int, l: int, cap: int = DEFAULT_DEGREE_CAP) -> list[Eliminant]:
    """Uniform list view of multiple_root_eliminant."""
    result = multiple_root_eliminant(d, l, cap)
    return [result] if isinstance(result, Eliminant) else result


# -- incidence parametrization: exact Jacobian ranks -----------------------


@lru_cache(maxsize=None)
def _parametrization_gradients(d: int, l: int) -> tuple[tuple[Poly, ...], ...]:
    """The gradient in (b, c_0..c_e) of each parametrization coefficient;
    shared, so callers treat it as read-only."""
    polys = _incidence_parametrization(d, l)
    return tuple(tuple(p.derivative(v) for v in range(p.nvars)) for p in polys)


def parametrization_jacobian_rank(d: int, l: int,
                                  sample: tuple[int | Fraction, Sequence[int | Fraction]]) -> int:
    """Exact rank of the Jacobian of the parametrization at a sample point."""
    b, g = sample
    if not 1 <= l < d:
        raise ValueError("need 1 <= l < d")
    if len(g) != d - l:
        raise ValueError(f"cofactor needs {d - l} coefficients")
    if not g[0]:
        raise ValueError("degenerate sample: cofactor has zero leading coefficient")
    return _jacobian_rank(_parametrization_gradients(d, l), [b, *g])


def sample_jacobian_ranks(d: int, l: int, count: int,
                          rng: random.Random) -> list[int]:
    """Jacobian ranks at `count` random rational samples, resampling (with a
    warning) when a sample happens to be rank-deficient."""
    expected = d - l + 1
    out = []
    for _ in range(count):
        r = None
        for _ in range(50):
            r = parametrization_jacobian_rank(d, l, _sample_point(d, l, rng))
            if r == expected:
                break
            warnings.warn(f"rank-deficient sample for (d={d}, l={l}); resampling")
        out.append(r)
    return out


def samples_satisfy_generators(d: int, l: int, count: int,
                               rng: random.Random,
                               cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """Every sampled point of the parametrization is a zero of every
    eliminant generator (exact evaluation)."""
    generators = eliminant_generators(d, l, cap)
    for _ in range(count):
        form = parametrized_form(d, l, *_sample_point(d, l, rng))
        for gen in generators:
            if gen.poly.evaluate(form.coeffs) != 0:
                return False
    return True


# -- univariate irreducibility over the rationals ---------------------------


def _uni_from_poly(p: Poly) -> list[int | Fraction]:
    if p.nvars != 1:
        raise ValueError("not univariate")
    if p.is_zero:
        return []
    deg = max(e[0] for e in p.terms)
    out = [0] * (deg + 1)
    for (e,), c in p.terms.items():
        out[e] = c
    return out


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def _has_rational_root(coeffs: Sequence[int]) -> bool:
    """Whether sum_k coeffs[k] x^k has a rational root p/q: p | coeffs[0],
    q | coeffs[-1] and sum_k coeffs[k] p^k q^(n-k) = 0, all in integers."""
    if coeffs[0] == 0:
        return True  # root at 0
    n = len(coeffs) - 1
    for p in _divisors(coeffs[0]):
        for q in _divisors(coeffs[-1]):
            if gcd(p, q) != 1:
                continue
            for num in (p, -p):
                if not sum(c * num ** k * q ** (n - k) for k, c in enumerate(coeffs)):
                    return True
    return False


def _gfp_trim(coeffs: Sequence[int], p: int) -> list[int]:
    """Coefficients reduced mod p, trailing zeros stripped."""
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _gfp_monic(f: Sequence[int], p: int) -> list[int]:
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def _gfp_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over GF(p); a and b trimmed, b nonzero."""
    inv = pow(b[-1], p - 2, p)
    quotient = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        factor = r[-1] * inv % p
        offset = len(r) - len(b)
        quotient[offset] = factor
        for i, c in enumerate(b):
            r[offset + i] = (r[offset + i] - factor * c) % p
        while r and r[-1] == 0:
            r.pop()
    return quotient, r


def _gfp_mulmod(a, b, f, p):
    """a * b mod f over GF(p); f monic."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
    return _gfp_divmod(_gfp_trim(prod, p), f, p)[1]


def _gfp_powmod(base, exponent, f, p):
    result = [1]
    b = base
    while exponent:
        if exponent & 1:
            result = _gfp_mulmod(result, b, f, p)
        b = _gfp_mulmod(b, b, f, p)
        exponent >>= 1
    return result


def _gfp_gcd(a, b, p):
    """Monic gcd over GF(p); empty when both are zero mod p."""
    a, b = _gfp_trim(a, p), _gfp_trim(b, p)
    while b:
        a, b = b, _gfp_divmod(a, b, p)[1]
    return _gfp_monic(a, p) if a else a


def _gfp_factor_degrees(f: Sequence[int], p: int) -> list[int]:
    """Degrees of the irreducible factors of f over GF(p), by distinct-degree
    factorization; f trimmed mod p, squarefree and of degree at least 1."""
    g = _gfp_monic(f, p)
    degrees = []
    h = [0, 1]  # x^(p^k) mod g
    k = 0
    while 2 * (k + 1) <= len(g) - 1:
        k += 1
        h = _gfp_powmod(h, p, g, p)
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] -= 1
        common = _gfp_gcd(g, h_minus_x, p)
        if len(common) > 1:
            # every irreducible factor of degree k divides x^(p^k) - x once
            degrees += [k] * ((len(common) - 1) // k)
            g = _gfp_divmod(g, common, p)[0]
            h = _gfp_divmod(h, g, p)[1]
    if len(g) > 1:
        degrees.append(len(g) - 1)  # no factor of degree <= half its degree
    return degrees


def _uni_irreducible_q(coeffs: list[int]):
    """True / False / None (unknown) for irreducibility over Q.

    True is certified by mod-p degree patterns (Musser 1978): a factor over
    Q of degree k would give, for every prime p not dividing the leading
    coefficient with f squarefree mod p, a set of factors over GF(p) whose
    degrees sum to k.  When no 0 < k < n is such a subset sum for every
    usable prime, f is irreducible.  False comes only from a rational root.
    """
    degree = len(coeffs) - 1
    if degree <= 0:
        return False
    if degree == 1:
        return True
    possible = set(range(degree + 1))
    for p in _CERT_PRIMES:
        if coeffs[-1] % p == 0:
            continue
        f = _gfp_trim(coeffs, p)
        if len(_gfp_gcd(f, [k * c for k, c in enumerate(f)][1:], p)) > 1:
            continue  # not squarefree mod p
        sums = {0}
        for k in _gfp_factor_degrees(f, p):
            sums |= {s + k for s in sums}
        possible &= sums
        if possible == {0, degree}:
            return True
    if _has_rational_root(coeffs):
        return False
    return True if degree <= 3 else None


# -- irreducibility witnesses ------------------------------------------------


@dataclass
class IrreducibilityWitness:
    status: str  # "certified" | "heuristic" | "unknown"
    details: dict


def irreducibility_witness(d: int, l: int, seed: int = 0,
                           cap: int = DEFAULT_DEGREE_CAP) -> IrreducibilityWitness:
    """Irreducibility evidence for the multiple-root locus.

    For l = 1, each of three seeded lines records the verdict on the
    discriminant's full-degree restriction to it: True when mod-p degree
    patterns leave no proper factor degree over Q, False only when it has a
    rational root, and None (unknown) otherwise.  An irreducible full-degree
    restriction is a sound proof that the discriminant is irreducible.

    Certification happens only inside the policy envelope l = 1, d <= 4: the
    eliminant must match the resultant oracle and at least one line must be
    irreducible.  Outside the envelope the verdict is heuristic; the check
    never claims a negative.  For l > 1 no line is tried: restricting one
    generator of a codimension-l ideal says nothing about the locus, so the
    verdict is "heuristic" with the policy in the details.
    """
    if not 1 <= l < d:
        raise ValueError("need 1 <= l < d")
    if d > cap:
        raise SizeCapError("binary form degree", d, cap)
    in_envelope = (l == 1 and d <= 4)
    details: dict = {"envelope": in_envelope}
    if l > 1:
        details["policy"] = "outside the certified envelope; no specialization attempted"
        return IrreducibilityWitness("heuristic", details)

    target = multiple_root_eliminant(d, 1, cap).poly
    details["oracle_match"] = target == classical_discriminant_oracle(d, cap).poly
    total_degree = target.total_degree()
    rng = random.Random(seed)
    lines = []
    for _ in range(3):
        record = {"degenerate": True}
        for _ in range(25):
            base = [rng.randint(-3, 3) for _ in range(target.nvars)]
            direction = [rng.randint(-3, 3) for _ in range(target.nvars)]
            if not any(direction):
                continue
            restricted = restrict_to_line(target, base, direction)
            coeffs = primitive_integers(_uni_from_poly(restricted), -1)
            if len(coeffs) - 1 != total_degree:
                continue  # degree dropped: unlucky direction
            record = {"base": base, "direction": direction,
                      "degree": len(coeffs) - 1,
                      "irreducible": _uni_irreducible_q(coeffs)}
            break
        lines.append(record)
    details["lines"] = lines
    if all(r.get("degenerate") for r in lines):
        return IrreducibilityWitness("unknown", details)
    if in_envelope and details["oracle_match"] and any(
            r.get("irreducible") is True for r in lines):
        return IrreducibilityWitness("certified", details)
    return IrreducibilityWitness("heuristic", details)
