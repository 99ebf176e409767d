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
degree as exact kernel pieces.  The locus is swept out by the unipotent
group from one linear space (Feher-Nemethi-Rimanyi 2006; Chipalkatti
2003): with e = d - l - 1 and L = {a_r = 0 for r > e}, the forms divisible
by x0^(l+1), it is {f(x0 - b*x1, x1) : f in L}, the image of the incidence
parametrization (b, g) -> (x0 - b*x1)^(l+1) * g.  With the derivation
delta(a_s) = -(d - s + 1) a_(s-1), F(f(x0 - b*x1, x1)) is
sum_j (b^j / j!) (delta^j F)(f), so F vanishes on the locus exactly when no
delta^j F has a monomial in a_0..a_e alone.  delta lowers the weight
sum r*e_r by one, so the kernel is the union of the weight blocks' kernels,
and block w's rows are R_w = delta^T(R_(w-1)) + the unit rows of the
monomials of weight w in a_0..a_e alone; block w's piece is the
`Echelon.kernel` of R_w over its columns in `degree_monomials` order.  Only
w <= kd/2 is eliminated, each block seeded with the canonical rows of the
block below, and no polynomial in (b, c) is formed.  Swapping x0 and x1
keeps every root's multiplicity, so the mirror a_r -> a_(d-r) maps the
piece to itself and block w to block kd - w: the mirrored kernel of the
blocks w < kd/2 spans the upper half, put in the canonical form of
`Echelon.kernel` by one more `Echelon` over the reversed columns.

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
generators is a new list on every call.  The parametrization's Jacobian
rows are read off its closed form at each sample, so no polynomial in
(b, c) is formed anywhere.  Sampled values are canonical, so integer
sample points give both Jacobian checks `int` rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import mul
from typing import Sequence, Union

from .errors import CertificateError, SizeCapError
# kernel_basis is unused here but stays bound: perfbench's layer tracer
# rebinds and checks `discriminant.kernel_basis`.
from .linalg import Echelon, canonical, kernel_basis, primitive_integers  # noqa: F401
from .polynomials import (Poly, _from_terms, degree_monomials, det, divide_by_variable,
                          integer_primitive, restrict_to_line, strip_variable_factors)

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


def _weight(exps: tuple[int, ...]) -> int:
    """sum r*e_r: the weight of the a-monomial, a_r of weight r."""
    return sum(map(mul, exps, range(len(exps))))


def _row_space(block: list[tuple[int, ...]], below: list[tuple[int, ...]] | None,
               previous: Echelon | None, e: int) -> Echelon:
    """R_w over the weight block `block`: a unit row per monomial in a_0..a_e
    alone, then delta^T of each canonical row of R_(w-1) (`previous`, over the
    block `below`) with those columns dropped, sparsest first."""
    d = len(block[0]) - 1
    index = {exps: j for j, exps in enumerate(block)}
    echelon = Echelon(len(block))
    pure = {j for j, exps in enumerate(block) if not any(exps[e + 1:])}
    for j in pure:
        echelon.add({j: 1})
    lifts: dict[int, list[tuple[int, int]]] = {}
    images = []
    for _, row in previous.canonical_rows() if previous else ():
        image: dict[int, int] = {}
        for col, v in zip(row, primitive_integers(list(row.values()), 0)):
            lift = lifts.get(col)
            if lift is None:
                # delta^T(m*) = sum_s (d-s+1)(m_s+1) (m + e_s - e_(s-1))*, up to sign
                m = below[col]
                lift = lifts[col] = [
                    (index[m[:s - 1] + (m[s - 1] - 1, m[s] + 1) + m[s + 1:]],
                     (d - s + 1) * (m[s] + 1))
                    for s in range(1, d + 1) if m[s - 1]]
            for j, factor in lift:
                if j not in pure:
                    image[j] = image.get(j, 0) + v * factor
        images.append(image)
    for image in sorted(images, key=len):
        echelon.add(image)
    return echelon


def _kernel_piece(d: int, l: int, k: int) -> list[Poly]:
    """Primitive integer combinations of the degree-k a-monomials vanishing on
    the locus, one per free column in `degree_monomials` order: the kernel of
    R_w for each weight block w <= kd/2 and that kernel's mirror (see the
    module docstring)."""
    columns = list(degree_monomials(k, d + 1))
    blocks: dict[int, list[tuple[int, ...]]] = {}
    for exps in columns:
        blocks.setdefault(_weight(exps), []).append(exps)
    reversed_column = {exps: j for j, exps in enumerate(reversed(columns))}
    vectors = {}  # by exponent tuples: sorted, they are in `degree_monomials` order
    mirror = Echelon(len(columns))
    echelon = None
    for w in range(k * d // 2 + 1):
        block = blocks[w]
        echelon = _row_space(block, blocks.get(w - 1), echelon, d - l - 1)
        for vector in echelon.kernel():
            vectors[block[max(vector)]] = {block[j]: v for j, v in vector.items()}
            if 2 * w < k * d:
                mirror.add({reversed_column[block[j][::-1]]: v for j, v in vector.items()})
    for p, row in mirror.canonical_rows():
        vectors[columns[-1 - p]] = {columns[-1 - j]: v for j, v in row.items()}
    pieces = []
    for _, vector in sorted(vectors.items()):
        terms = sorted(vector)  # lex-first term positive, as in `integer_primitive`
        pieces.append(_from_terms(d + 1, dict(zip(terms, primitive_integers(
            [vector[exps] for exps in terms], 0)))))
    return pieces


def graded_relations(d: int, l: int, degree: int) -> list[Poly]:
    """Homogeneous degree-`degree` polynomials in a_0..a_d vanishing
    identically on the incidence parametrization (an exact kernel)."""
    if not 1 <= l < d:
        raise ValueError("need 1 <= l < d")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return _kernel_piece(d, l, degree)


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
        jacobian = Echelon(d + 1)
        for gradient in gradients:
            jacobian.add({j: partial.evaluate(point) for j, partial in enumerate(gradient)})
        if jacobian.rank == l:
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
    for degree in range(1, 2 * (d - 1) + 1):
        piece = _kernel_piece(d, l, degree)
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


def parametrization_jacobian_rank(d: int, l: int,
                                  sample: tuple[int | Fraction, Sequence[int | Fraction]]) -> int:
    """Exact rank of the Jacobian of the parametrization at a sample point:
    coefficient r is sum_j C(l+1, j) (-b)^j c_(r-j), so row r is read off
    as sum_j -j C(l+1, j) (-b)^(j-1) c_(r-j) at b and C(l+1, j) (-b)^j at
    c_(r-j)."""
    b, g = sample
    if not 1 <= l < d:
        raise ValueError("need 1 <= l < d")
    if len(g) != d - l:
        raise ValueError(f"cofactor needs {d - l} coefficients")
    if not g[0]:
        raise ValueError("degenerate sample: cofactor has zero leading coefficient")
    b, g = canonical(b), [canonical(v) for v in g]
    binomial = [comb(l + 1, j) * (-b) ** j for j in range(l + 2)]
    slope = [-j * comb(l + 1, j) * (-b) ** (j - 1) for j in range(1, l + 2)]
    jacobian = Echelon(d - l + 1)
    for r in range(d + 1):
        ks = range(max(0, r - l - 1), min(r, d - l - 1) + 1)
        jacobian.add({0: sum(slope[r - k - 1] * g[k] for k in ks if k < r),
                      **{1 + k: binomial[r - k] for k in ks}})
    return jacobian.rank


def sample_jacobian_ranks(d: int, l: int, count: int,
                          rng: random.Random) -> list[int]:
    """Jacobian ranks at `count` random rational samples.  A rank-deficient
    draw (one where x0 - b*x1 divides the cofactor) is redrawn silently, up
    to 50 times, so the ranks and the stream of draws do not depend on the
    warning filters."""
    expected = d - l + 1
    out = []
    for _ in range(count):
        r = None
        for _ in range(50):
            r = parametrization_jacobian_rank(d, l, _sample_point(d, l, rng))
            if r == expected:
                break
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
