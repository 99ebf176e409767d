"""Multiple-root loci of binary forms: eliminants, the incidence
parametrization, and irreducibility evidence, all in exact arithmetic.

A binary form of degree d is the coefficient vector (a_0..a_d) against the
monomials x0^(d-k) x1^k; dehomogenizing at x1 = 1 makes a_0 the leading
coefficient.  Eliminants are primitive integer polynomials in a_0..a_d with
the sign fixed so the lexicographically first term is positive.

Two independent routes to the classical discriminant are kept separate on
purpose: the Sylvester resultant (the oracle) and a Bezout-matrix
determinant (the production path for codimension one).  Both are packed
rows expanded by `polynomials._packed_det`, but not by the same expansion:
the banded Sylvester rows are reordered, the dense Bezout rows are not.  For higher
multiplicity the generators of the eliminant ideal are found degree by
degree as exact kernel pieces I_k: an element of I_k is new unless it lies
in the span of a_0..a_d times I_(k-1), the degree-k part of the ideal of
the generators kept below degree k.  The locus is swept out by the unipotent
group from one linear space (Feher-Nemethi-Rimanyi 2006; Chipalkatti
2003): with e = d - l - 1 and L = {a_r = 0 for r > e}, the forms divisible
by x0^(l+1), it is {f(x0 - b*x1, x1) : f in L}, the image of the incidence
parametrization (b, g) -> (x0 - b*x1)^(l+1) * g.  With the derivation
delta(a_s) = -(d - s + 1) a_(s-1), F(f(x0 - b*x1, x1)) is
sum_j (b^j / j!) (delta^j F)(f), so F vanishes on the locus exactly when no
delta^j F has a monomial in a_0..a_e alone.  delta lowers the weight
sum r*e_r by one, so the kernel is the union of the weight blocks' kernels,
and block w's rows are R_w = delta^T(R_(w-1)) + the unit rows of the
monomials of weight w in a_0..a_e alone; block w's piece is the kernel of
R_w over its columns in `degree_monomials` order, read with no `Fraction` by
`Echelon.integer_readoff` (a vector counts only up to scale) and put in
`integer_primitive`'s normal form.  Only w <= kd/2 is eliminated, each block
seeded with the stored integer rows of the block below (`Echelon.echelon_rows`;
R_w needs only the row space of R_(w-1)), and no polynomial in (b, c) is
formed.  Swapping x0 and x1 keeps every root's multiplicity, so the mirror
a_r -> a_(d-r) maps the piece to itself and block w to block kd - w: the
mirrored kernel of the blocks w < kd/2 spans the upper half, whose basis is
one more `Echelon`'s primitive reduced rows over the reversed columns.

Irreducibility evidence restricts the discriminant (l = 1) to seeded lines.
A quadratic restriction is reducible exactly when its discriminant is a
square.  From degree 3 a restriction is proved reducible only by a rational
root (one p-adic lift at the first usable prime of ten, Loos 1983), proved
irreducible over Q by mod-p degree patterns (distinct-degree factorization
over GF(p) at those primes), and otherwise left unknown, as it is when no
prime of the ten is usable.  The l = 1 witness stops once its status is
decided; its details carry "envelope" and "lines", and, only inside the
envelope d <= 4 where a verdict can certify, "oracle_match" and each line's
"irreducible".  For l > 1 the witness is "heuristic" by policy ("envelope"
and "policy") and restricts nothing: a line through one generator of a
codimension-l ideal says nothing about the locus.

`classical_discriminant_oracle` is memoized for the life of the process,
keyed by the resolved (d, cap), and so is `_eliminants(d, l, cap)`, the
one tuple behind `multiple_root_eliminant` and `eliminant_generators` (a
1-tuple at l = 1); a call that fails a check is not stored.  Both return
the shared `Eliminant` objects, so callers treat them as read-only; a list
of generators is a new list on every call.  The parametrization's Jacobian
rows are read off its closed form at each sample, so no polynomial in
(b, c) is formed anywhere.  Sampled values are canonical, so integer
sample points give both Jacobian checks `int` rows.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import comb, isqrt
from operator import mul
from typing import NamedTuple, Sequence

from .errors import CertificateError, SizeCapError
# kernel_basis is unused here but stays bound: perfbench's layer tracer
# rebinds and checks `discriminant.kernel_basis`.
from .linalg import Echelon, canonical, kernel_basis, primitive  # noqa: F401
from .polynomials import (Poly, _field_width, _from_terms, _packed_det, degree_monomials,
                          divide_by_variable, integer_primitive, restrict_to_line,
                          strip_variable_factors)

DEFAULT_DEGREE_CAP = 6

_CERT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


class Eliminant(NamedTuple):
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


def classical_discriminant_oracle(d: int, cap: int = DEFAULT_DEGREE_CAP) -> Eliminant:
    """Sylvester resultant of the form and its derivative, divided by the
    leading coefficient and normalized; memoized by the resolved (d, cap)."""
    return _oracle(d, cap)


@lru_cache(maxsize=None)
def _oracle(d: int, cap: int) -> Eliminant:
    if d < 2:
        raise ValueError("the discriminant needs degree at least 2")
    if d > cap:
        raise SizeCapError("binary form degree", d, cap)
    resultant = _packed_det(_sylvester_rows(d), d + 1, _field_width(2 * d - 1))
    return _make_eliminant(divide_by_variable(resultant, 0))


classical_discriminant_oracle.cache_clear = _oracle.cache_clear  # the memo's one handle


def _sylvester_rows(d: int) -> list[list[dict]]:
    """Sylvester matrix of the form and its derivative, rows packed at width
    `_field_width(2d - 1)`: d - 1 shifted rows of a_k, then d of (d - k) a_k."""
    unit = [1 << _field_width(2 * d - 1) * r for r in range(d + 1)]
    p = [{unit[k]: 1} for k in range(d + 1)]
    q = [{unit[k]: d - k} for k in range(d)]
    return ([[{}] * i + p + [{}] * (d - 2 - i) for i in range(d - 1)]
            + [[{}] * i + q + [{}] * (d - 1 - i) for i in range(d)])


def _bezout_matrix(d: int) -> list[list[dict]]:
    """Bezout matrix of the form p and its derivative q, rows packed at width
    `_field_width(2d)` (d rows of quadratic entries).

    (p(x)q(y) - p(y)q(x)) / (x - y) = sum B_ij x^i y^j, where
    B_ij = sum_{v <= min(i,j)} (P_{i+j+1-v} Q_v - P_v Q_{i+j+1-v}) over the x^u
    coefficients P_u = a_(d-u), Q_u = (u+1) a_(d-1-u) of p and q (zero past
    the degree), so each product is one monomial, added straight into B_ij."""
    unit = [1 << _field_width(2 * d) * r for r in range(d + 1)]
    rows = [[{} for _ in range(d)] for _ in range(d)]
    for i, row in enumerate(rows):
        for j, terms in enumerate(row):
            for v in range(min(i, j) + 1):
                for k, u, sign in ((i + j + 1 - v, v, 1), (v, i + j + 1 - v, -1)):
                    if k <= d and u < d:
                        key = unit[d - k] + unit[d - 1 - u]
                        terms[key] = terms.get(key, 0) + sign * (u + 1)
    return rows


def _parameter_point(d: int, l: int, b: int | Fraction, g: Sequence[int | Fraction]) -> tuple:
    """The checked point (b, g), canonical, and the row C(l+1, j) (-b)^j, j <= l + 1."""
    if not 1 <= l < d:
        raise ValueError("need 1 <= l < d")
    if len(g) != d - l:
        raise ValueError(f"cofactor needs {d - l} coefficients")
    b = canonical(b)
    return b, [canonical(v) for v in g], [comb(l + 1, j) * (-b) ** j for j in range(l + 2)]


def parametrized_form(d: int, l: int, b: int | Fraction,
                      g: Sequence[int | Fraction]) -> tuple[int | Fraction, ...]:
    """The coefficients a_0..a_d of the form (x0 - b*x1)^(l+1) * g at a
    concrete parameter point."""
    # coefficient r is sum_j C(l+1, j) (-b)^j g_(r-j)
    _, cofactor, binomial = _parameter_point(d, l, b, g)
    return tuple(canonical(sum(binomial[j] * cofactor[r - j]
                               for j in range(max(0, r - len(g) + 1), min(r, l + 1) + 1)))
                 for r in range(d + 1))


def _weight(exps: tuple[int, ...]) -> int:
    """sum r*e_r: the weight of the a-monomial, a_r of weight r."""
    return sum(map(mul, exps, range(len(exps))))


def _row_space(block: list[tuple[int, ...]], below: list[tuple[int, ...]] | None,
               previous: Echelon | None, e: int) -> Echelon:
    """R_w over the weight block `block`: a unit row per monomial in a_0..a_e
    alone, then delta^T of each stored integer row of R_(w-1) (`previous`,
    over the block `below`) with those columns dropped, sparsest first."""
    d = len(block[0]) - 1
    index = {exps: j for j, exps in enumerate(block)}
    echelon = Echelon(len(block))
    pure = {j for j, exps in enumerate(block) if not any(exps[e + 1:])}
    for j in pure:
        echelon.add({j: 1})
    lifts: dict[int, list[tuple[int, int]]] = {}
    images = []
    for row in previous.echelon_rows() if previous else ():
        image: dict[int, int] = {}
        for col, v in row.items():
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
        for vector in echelon.integer_readoff()[1]:
            vectors[block[max(vector)]] = {block[j]: v for j, v in vector.items()}
            if 2 * w < k * d:
                mirror.add({reversed_column[block[j][::-1]]: v for j, v in vector.items()})
    for p, row in mirror.integer_readoff()[0]:
        vectors[columns[-1 - p]] = {columns[-1 - j]: v for j, v in row.items()}
    return [integer_primitive(_from_terms(d + 1, vector)) for _, vector in sorted(vectors.items())]


def graded_relations(d: int, l: int, degree: int) -> list[Poly]:
    """Homogeneous degree-`degree` polynomials in a_0..a_d vanishing
    identically on the incidence parametrization (an exact kernel)."""
    if not 1 <= l < d:
        raise ValueError("need 1 <= l < d")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return _kernel_piece(d, l, degree)


def _new_generators(piece: list[Poly], below: list[Poly], degree: int, d: int) -> list[Poly]:
    """Elements of the kernel piece I_k not in a_0..a_d times I_(k-1), `below`:
    the degree-k part of the ideal of the generators kept in degrees < k,
    since those generate every I_j, j < k, and I_0 = 0."""
    columns = {exps: i for i, exps in enumerate(degree_monomials(degree, d + 1))}
    echelon = Echelon(len(columns))
    for p in below:
        for i in range(d + 1):
            echelon.add({columns[e[:i] + (e[i] + 1,) + e[i + 1:]]: c for e, c in p.terms.items()})
    return [q for q in piece if echelon.add({columns[e]: c for e, c in q.terms.items()})]


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
        point = parametrized_form(d, l, *_sample_point(d, l, rng))
        jacobian = Echelon(d + 1)
        for gradient in gradients:
            jacobian.add({j: partial.evaluate(point) for j, partial in enumerate(gradient)})
        if jacobian.rank == l:
            successes += 1
            if successes == 3:
                return True
    return False


def multiple_root_eliminant(d: int, l: int,
                            cap: int = DEFAULT_DEGREE_CAP) -> Eliminant | list[Eliminant]:
    """Eliminant of the locus of forms with a root of multiplicity >= l+1.

    For l = 1 the locus is a hypersurface and a single generator is
    returned (a Bezout determinant with monomial factors stripped).  For
    l > 1 the generators of the vanishing ideal are collected degree by
    degree, keeping only elements not generated in lower degrees, until
    their Jacobian cuts the locus to its expected codimension l at sampled
    points of the parametrization; the list is new on every call.
    """
    return _eliminants(d, l, cap)[0] if l == 1 else list(_eliminants(d, l, cap))


@lru_cache(maxsize=None)
def _eliminants(d: int, l: int, cap: int) -> tuple[Eliminant, ...]:
    if not 1 <= l < d:
        raise ValueError("need 1 <= l < d")
    if d > cap:
        raise SizeCapError("binary form degree", d, cap)
    if l == 1:
        bezout = _packed_det(_bezout_matrix(d), d + 1, _field_width(2 * d))
        return (_make_eliminant(strip_variable_factors(bezout)),)
    collected: list[Poly] = []
    below: list[Poly] = []
    for degree in range(1, 2 * (d - 1) + 1):
        piece = _kernel_piece(d, l, degree)
        collected.extend(_new_generators(piece, below, degree, d))
        below = piece
        if collected and _generators_cut_codimension(collected, d, l):
            break
    if not collected:
        raise CertificateError(f"no eliminant generators found for (d={d}, l={l})")
    return tuple(_make_eliminant(g) for g in collected)


def eliminant_generators(d: int, l: int, cap: int = DEFAULT_DEGREE_CAP) -> list[Eliminant]:
    """Uniform list view of multiple_root_eliminant."""
    return list(_eliminants(d, l, cap))


# -- incidence parametrization: exact Jacobian ranks -----------------------


def parametrization_jacobian_rank(d: int, l: int,
                                  sample: tuple[int | Fraction, Sequence[int | Fraction]]) -> int:
    """Exact rank of the Jacobian of the parametrization at a sample point:
    coefficient r is sum_j C(l+1, j) (-b)^j c_(r-j), so row r is read off
    as sum_j -j C(l+1, j) (-b)^(j-1) c_(r-j) at b and C(l+1, j) (-b)^j at
    c_(r-j)."""
    b, g, binomial = _parameter_point(d, l, *sample)
    if not g[0]:
        raise ValueError("degenerate sample: cofactor has zero leading coefficient")
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
            if gen.poly.evaluate(form) != 0:
                return False
    return True


# -- univariate irreducibility over the rationals ---------------------------


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
    """Quotient and remainder over GF(p); a trimmed, b trimmed and monic."""
    top = len(b) - 1
    quotient, r = [0] * max(len(a) - top, 0), list(a)
    for offset in reversed(range(len(quotient))):
        factor = quotient[offset] = r[offset + top]
        if factor:
            for i, c in enumerate(b, offset):
                r[i] = (r[i] - factor * c) % p
    del r[top:]
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
    """base^exponent mod f over GF(p) from the top bit; base reduced mod f."""
    result = base
    for bit in bin(exponent)[3:]:
        result = _gfp_mulmod(result, result, f, p)
        if bit == "1":
            result = _gfp_mulmod(result, base, f, p)
    return result


def _gfp_gcd(a, b, p):
    """Monic gcd over GF(p); empty when both are zero mod p."""
    a, b = _gfp_trim(a, p), _gfp_trim(b, p)
    if not b:  # the loop, which leaves its last divisor monic, would not run
        return _gfp_monic(a, p) if a else a
    while b:
        b = _gfp_monic(b, p)
        a, b = b, _gfp_divmod(a, b, p)[1]
    return a


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


def _squarefree_mod(coeffs: Sequence[int], p: int) -> list[int] | None:
    """coeffs mod p, trimmed, if p is usable (see `_uni_irreducible_q`)."""
    f = _gfp_trim(coeffs, p)
    slope = [k * c for k, c in enumerate(f)][1:]
    return f if coeffs[-1] % p and len(_gfp_gcd(f, slope, p)) == 1 else None


def _horner(coeffs: Sequence[int], x: int) -> int:
    return reduce(lambda value, c: value * x + c, reversed(coeffs), 0)


def _has_rational_root(coeffs: Sequence[int], p: int) -> bool:
    """Whether f = sum_k coeffs[k] x^k has a rational root, by p-adic lifting
    (Loos 1983) at a prime p not dividing c_n with f squarefree mod p.  A
    root a/b in lowest terms has a | c_0 and b | c_n, so it is a simple root
    r mod p.  Newton's step lifts r to the root mod M > 2|c_0 c_n|, and a/b
    is then the one fraction congruent to it with |a| <= |c_0| and
    0 < b <= |c_n|, read off the remainder sequence of (M, r) and checked in
    integers."""
    n, top, bound = len(coeffs) - 1, abs(coeffs[-1]), abs(coeffs[0])
    slope = [k * c for k, c in enumerate(coeffs)][1:]
    for r in range(p):
        if _horner(coeffs, r) % p:
            continue
        modulus = p
        while modulus <= 2 * bound * top:
            r = (r - _horner(coeffs, r) * pow(_horner(slope, r), -1, modulus)) % modulus ** 2
            modulus **= 2
        r0, a, b0, b = modulus, r, 0, 1
        while a > bound:
            q = r0 // a
            r0, a, b0, b = a, r0 - q * a, b, b0 - q * b
        if abs(b) <= top and not sum(c * a ** k * b ** (n - k) for k, c in enumerate(coeffs)):
            return True
    return False


def _uni_irreducible_q(coeffs: list[int]):
    """True / False / None (unknown) for irreducibility over Q.

    A quadratic c + bx + ax^2 is reducible exactly when b^2 - 4ac is a
    square, a double root included.  From degree 3, a prime is usable when
    it does not divide the leading coefficient and f is squarefree mod p;
    with none among `_CERT_PRIMES` the verdict is None.  False comes only
    from a rational root, decided once at the first usable prime.  True is
    certified by mod-p degree patterns (Musser 1978): a factor of degree k
    over Q gives, at every usable prime, factors over GF(p) whose degrees
    sum to k, so f is irreducible when no 0 < k < n is such a subset sum at
    every usable prime.  A linear factor keeps 1 among the sums at every
    prime, so testing roots first changes no verdict, and a rootless cubic
    has no proper factor.
    """
    degree = len(coeffs) - 1
    if degree <= 0:
        return False
    if degree == 1:
        return True
    if degree == 2:
        c, b, a = coeffs
        discriminant = b * b - 4 * a * c
        return discriminant < 0 or isqrt(discriminant) ** 2 != discriminant
    usable = ((p, f) for p in _CERT_PRIMES if (f := _squarefree_mod(coeffs, p)))
    first = next(usable, None)
    if first is None:
        return None
    if _has_rational_root(coeffs, first[0]):
        return False
    possible = set(range(degree + 1))
    for p, f in chain([first], usable):
        sums = {0}
        for k in _gfp_factor_degrees(f, p):
            sums |= {s + k for s in sums}
        possible &= sums
        if possible == {0, degree}:
            return True
    return True if degree <= 3 else None


# -- irreducibility witnesses ------------------------------------------------


class IrreducibilityWitness(NamedTuple):
    status: str  # "certified" | "heuristic" | "unknown"
    details: dict


def irreducibility_witness(d: int, l: int, seed: int = 0,
                           cap: int = DEFAULT_DEGREE_CAP) -> IrreducibilityWitness:
    """Irreducibility evidence for the multiple-root locus.

    For l = 1, up to three seeded lines are drawn, each redrawn until the
    discriminant's restriction to it keeps its full degree (or recorded as
    {"degenerate": True}); a zero direction restricts to a constant and is
    redrawn the same way.  A line's verdict (`_uni_irreducible_q`) is True
    when the restriction is proved irreducible over Q, False only when it
    has a rational root, and None (unknown) otherwise; an irreducible
    full-degree restriction proves the discriminant irreducible.

    The witness stops once its status is decided.  Only inside the policy
    envelope l = 1, d <= 4 can it certify: it records "oracle_match", the
    eliminant against the resultant oracle, and if they match, gives each
    line its "irreducible" verdict: "certified" at the first True,
    "heuristic" when none of the three is True.  Otherwise the first
    full-degree line, with base, direction and degree only, makes it
    "heuristic".  Three degenerate lines make it "unknown"; it never claims
    a negative.  For
    l > 1 no line is tried: restricting one generator of a codimension-l
    ideal says nothing about the locus, so it is "heuristic" with "policy"
    in place of "lines".  Every status carries "envelope".
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
    if in_envelope:
        details["oracle_match"] = target == classical_discriminant_oracle(d, cap).poly
    rng = random.Random(seed)
    details["lines"] = lines = []
    for _ in range(3):
        record = {"degenerate": True}
        for _ in range(25):
            base = [rng.randint(-3, 3) for _ in range(target.nvars)]
            direction = [rng.randint(-3, 3) for _ in range(target.nvars)]
            restricted = restrict_to_line(target, base, direction)
            if restricted[-1] == 0:
                continue  # degree dropped: unlucky (or zero) direction
            record = {"base": base, "direction": direction, "degree": len(restricted) - 1}
            break
        lines.append(record)
        if "degree" not in record:
            continue
        if not details.get("oracle_match"):
            return IrreducibilityWitness("heuristic", details)  # no verdict could certify
        coeffs = list(primitive(dict(enumerate(restricted)), len(restricted) - 1).values())
        record["irreducible"] = _uni_irreducible_q(coeffs)
        if record["irreducible"] is True:
            return IrreducibilityWitness("certified", details)
    return IrreducibilityWitness("heuristic" if any("degree" in r for r in lines) else "unknown",
                                 details)
