"""Sparse multivariate polynomials over the rationals, integral
coefficients kept as `int`.

A polynomial over a fixed number of variables is a map from exponent
tuples to nonzero coefficients, each an `int` when it is integral and a
`Fraction` only when it is not.  The constructor and every operation keep
that canonical form, so the integer polynomials that chart minors and
eliminants are made of run in plain integer arithmetic; `evaluate`
returns a canonical value too.  This is deliberately minimal: arithmetic,
differentiation, composition and evaluation cover everything
the chart expansions and eliminants need.  `prefix_steps` is the one
graded walk (z^a = z_i z^(a - e_i)) behind the PBW images of `filtration`;
`degree_monomials` orders the columns of the eliminant kernels.

The hot product loop of `det` keys its terms by packed monomials
instead: exponent i sits in bits [i*w, (i+1)*w) of one `int`, so
multiplying two monomials is adding their keys.  The field width w is the
bit length of a proven bound on every exponent the loop can produce, so a
sum of keys never carries into a neighbouring field;
`_pack` raises `OverflowError` on an exponent that does not fit.  A
`Poly` keeps exponent tuples at every boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import Mapping, Sequence, Union

from .linalg import canonical, canonical_values, primitive_integers


def _from_terms(nvars: int, terms: dict) -> "Poly":
    """A Poly owning `terms` (nonzero, right length); integral Fractions
    among them become ints."""
    out = Poly(nvars)
    out.terms = canonical_values(terms)
    return out


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int | Fraction] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong length for {nvars} variables")
                c = canonical(coeff)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, value: int | Fraction) -> "Poly":
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        exps = [0] * nvars
        exps[index] = 1
        return Poly(nvars, {tuple(exps): 1})

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        return Poly.const(self.nvars, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            new = terms.get(exps, 0) + c
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return _from_terms(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        out = Poly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = canonical(other)
            return _from_terms(self.nvars, {e: v * c for e, v in self.terms.items()} if c else {})
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        terms: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                new = terms.get(exps, 0) + c1 * c2
                if new:
                    terms[exps] = new
                else:
                    terms.pop(exps, None)
        return _from_terms(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if power < 0:
            raise ValueError("negative powers are not defined")
        result = Poly.const(self.nvars, 1)
        base = self
        k = power
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps: Sequence[int]) -> int | Fraction:
        return self.terms.get(tuple(exps), 0)

    # -- calculus and substitution --------------------------------------

    def derivative(self, index: int) -> "Poly":
        terms: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[index]
            if e:
                lowered = list(exps)
                lowered[index] = e - 1
                key = tuple(lowered)
                new = terms.get(key, 0) + c * e
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        return _from_terms(self.nvars, terms)

    def evaluate(self, point: Sequence[int | Fraction]) -> int | Fraction:
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        vals = [canonical(x) for x in point]
        total = 0
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(vals, exps):
                if e:
                    term *= x ** e
            total += term
        return canonical(total)

    def substitute(self, values: Sequence[Union["Poly", int, Fraction]],
                   nvars_out: int | None = None) -> "Poly":
        """Compose: replace variable i by values[i] (polynomials or scalars)."""
        if len(values) != self.nvars:
            raise ValueError("substitution needs one value per variable")
        if nvars_out is None:
            for v in values:
                if isinstance(v, Poly):
                    nvars_out = v.nvars
                    break
            else:
                nvars_out = 0
        subs: list[Poly] = []
        for v in values:
            if isinstance(v, Poly):
                if v.nvars != nvars_out:
                    raise ValueError("substituted polynomials have mixed variable counts")
                subs.append(v)
            else:
                subs.append(Poly.const(nvars_out, v))
        powers: list[dict[int, Poly]] = [dict() for _ in range(self.nvars)]
        result = Poly.zero(nvars_out)
        for exps, c in self.terms.items():
            term = Poly.const(nvars_out, c)
            for i, e in enumerate(exps):
                if not e:
                    continue
                cache = powers[i]
                if e not in cache:
                    cache[e] = subs[i] ** e
                term = term * cache[e]
            result = result + term
        return result

    # -- display --------------------------------------------------------

    def to_string(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        ordered = sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0]))
        pieces: list[str] = []
        for exps, coeff in ordered:
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            body = "*".join(factors)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({self.to_string()})"


def _field_width(bound: int) -> int:
    """Bits per field of a packed monomial whose exponents are all <= bound."""
    return bound.bit_length()


def _pack(exps: Sequence[int], width: int) -> int:
    """The exponent tuple as one int, exps[i] in bits [i*width, (i+1)*width)."""
    key = 0
    for e in reversed(exps):
        if e >> width:
            raise OverflowError(f"exponent {e} does not fit a {width}-bit field")
        key = key << width | e
    return key


def _unpack(key: int, nvars: int, width: int) -> tuple[int, ...]:
    mask = (1 << width) - 1
    return tuple([key >> width * i & mask for i in range(nvars)])


def _pack_terms(terms: Mapping[tuple[int, ...], int | Fraction], width: int) -> dict:
    return {_pack(e, width): c for e, c in terms.items()}


def _add_product(terms: dict, p: Mapping[int, int | Fraction],
                 q: Mapping[int, int | Fraction]) -> None:
    """terms += p * q on packed monomials of one width, in place; the
    caller's bound must cover every exponent of the product."""
    get = terms.get
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = e1 + e2
            terms[key] = get(key, 0) + c1 * c2


def _cofactor_expansion(row: Sequence[dict], cols: tuple[int, ...], minor) -> dict:
    """One packed minor: the sum over k of (-1)^k row[cols[k]] times
    minor(cols without cols[k]), accumulated into one dict, zero terms
    dropped once, at the end."""
    terms: dict = {}
    for k, c in enumerate(cols):
        entry = row[c]
        if entry:
            if k % 2:
                entry = {e: -v for e, v in entry.items()}
            _add_product(terms, entry, minor(cols[:k] + cols[k + 1:]))
    return {key: c for key, c in terms.items() if c}


def det(rows: Sequence[Sequence[Union[Poly, int, Fraction]]]) -> Poly:
    """Determinant of a square matrix of polynomials, by minor expansion
    along the rows in band order, memoized by the remaining column set.

    The rows are first stable-sorted by (first nonzero column, last nonzero
    column), all-zero rows last, and the expansion's result is multiplied
    by the sign of that permutation.  A banded matrix such as a Sylvester
    matrix then keeps every memoized minor inside its band; a dense matrix
    keeps its row order.  The entries and memoized minors are packed
    monomial dicts (see the module docstring), with a field width covering
    the sum over rows of each row's largest entry degree, which no exponent
    of any minor can exceed.  Each minor adds sign * c1 * c2 for every term
    pair of entry x sub-minor into one dict by adding keys, and drops its
    zero coefficients once; only the result is unpacked into a `Poly`."""
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("determinant needs a square matrix")
    nvars = next((e.nvars for row in rows for e in row if isinstance(e, Poly)), 0)
    lifted = [[e if isinstance(e, Poly) else Poly.const(nvars, e) for e in row]
              for row in rows]

    def band(r: int) -> tuple[int, int]:
        cols = [c for c, e in enumerate(lifted[r]) if e.terms]
        return (cols[0], cols[-1]) if cols else (size, size)

    order = sorted(range(size), key=band)
    odd = sum(a > b for i, a in enumerate(order) for b in order[i + 1:]) % 2
    width = _field_width(sum(max((sum(e) for entry in row for e in entry.terms), default=0)
                             for row in lifted))
    packed = [[_pack_terms(entry.terms, width) for entry in lifted[r]] for r in order]
    cache: dict[tuple[int, ...], dict] = {(): {0: 1}}

    def minor(cols: tuple[int, ...]) -> dict:
        terms = cache.get(cols)
        if terms is None:
            terms = cache[cols] = _cofactor_expansion(packed[size - len(cols)], cols, minor)
        return terms

    result = _from_terms(nvars, {_unpack(key, nvars, width): c
                                 for key, c in minor(tuple(range(size))).items()})
    return -result if odd else result


def _lex_walk(total: int, nvars: int):
    """(e, i) per exponent tuple of the given total degree in lex order: e one
    list updated in place, i its leftmost nonzero index.  The successor moves
    one unit from the rightmost nonzero exponent k to k - 1, the rest to the end."""
    e = [0] * nvars
    e[-1] = total
    k = i = nvars - 1 if total else 0  # rightmost and leftmost nonzero index
    while True:
        yield e, i
        if k == 0:
            return
        tail, e[k] = e[k], 0
        e[k - 1] += 1
        e[-1] += tail - 1
        i, k = min(i, k - 1), nvars - 1 if tail > 1 else k - 1


def degree_monomials(total: int, nvars: int):
    """Exponent tuples over nvars variables with the given total degree, in lex order."""
    for e, _ in _lex_walk(total, nvars):
        yield tuple(e)


def graded_monomials(nvars: int, max_degree: int):
    """Exponent tuples of total degree <= max_degree, by degree, then lex."""
    for degree in range(max_degree + 1):
        yield from degree_monomials(degree, nvars)


def prefix_steps(nvars: int, degree: int):
    """(exps, i, prefix) for every exponent tuple exps of the given total
    degree >= 1, in `degree_monomials` order: i is the leftmost nonzero
    index of exps and prefix = exps - e_i, so z^exps = z_i z^prefix."""
    for e, i in _lex_walk(degree, nvars):
        exps = tuple(e)
        e[i] -= 1
        yield exps, i, tuple(e)
        e[i] += 1


def integer_primitive(p: Poly) -> Poly:
    """Scale to integer coefficients with content 1, lex-first term positive."""
    if p.is_zero:
        return p
    exps = list(p.terms)
    coeffs = primitive_integers(list(p.terms.values()), exps.index(min(exps)))
    return Poly(p.nvars, dict(zip(exps, coeffs)))


def divisible_by_variable(p: Poly, index: int) -> bool:
    return bool(p.terms) and all(e[index] >= 1 for e in p.terms)


def divide_by_variable(p: Poly, index: int) -> Poly:
    if not divisible_by_variable(p, index):
        raise ValueError(f"polynomial is not divisible by variable {index}")
    out = Poly(p.nvars)
    for exps, c in p.terms.items():
        lowered = list(exps)
        lowered[index] -= 1
        out.terms[tuple(lowered)] = c
    return out


def strip_variable_factors(p: Poly) -> Poly:
    """Remove every single-variable factor x_i dividing the polynomial."""
    for i in range(p.nvars):
        while divisible_by_variable(p, i):
            p = divide_by_variable(p, i)
    return p


def restrict_to_line(p: Poly, base: Sequence[int | Fraction],
                     direction: Sequence[int | Fraction]) -> list[int | Fraction]:
    """Canonical coefficients of t -> p(base + t*direction), constant first,
    one per degree up to the total degree of p (a vanished top coefficient
    stays as a trailing 0; the zero polynomial gives []).

    Each term is expanded as a product of coefficient lists of the binomial
    powers (base_i + direction_i t)^e, so integer input stays in integers.
    """
    if len(base) != p.nvars or len(direction) != p.nvars:
        raise ValueError("base and direction must match the variable count")
    powers: dict[tuple[int, int], list] = {}
    out: list = []
    for exps, c in p.terms.items():
        coeffs = [c]
        for i, e in enumerate(exps):
            if not e:
                continue
            power = powers.get((i, e))
            if power is None:
                b, w = base[i], direction[i]
                power = powers[(i, e)] = [comb(e, k) * b ** (e - k) * w ** k
                                          for k in range(e + 1)]
            product = [0] * (len(coeffs) + e)
            for j, a in enumerate(coeffs):
                for k, v in enumerate(power):
                    product[j + k] += a * v
            coeffs = product
        out.extend([0] * (len(coeffs) - len(out)))
        for k, v in enumerate(coeffs):
            out[k] += v
    return [canonical(v) for v in out]
