"""Sparse multivariate polynomials over the rationals, integral
coefficients kept as `int`.

A polynomial over a fixed number of variables is a map from exponent
tuples to nonzero coefficients, each an `int` when it is integral and a
`Fraction` only when it is not.  The constructor and every operation keep
that canonical form, so the integer polynomials that chart minors and
eliminants are made of run in plain integer arithmetic; `evaluate`
returns a canonical value too; `integer_primitive` normalizes through
`linalg.primitive`.  This is deliberately minimal: arithmetic,
differentiation, composition and evaluation cover everything
the chart expansions and eliminants need.  `degree_monomials` is the one
monomial enumerator: it orders the ambient basis of `plethysm`, the
columns of the eliminant kernels and, by degree (`graded_monomials`), the
jet columns of `jets` and the PBW monomials of `filtration.pbw_filtration`.

The one product loop `_add_product`, behind `Poly.__mul__`, `det` and the
Taylor matrices of `jets`, keys its terms by packed monomials instead:
exponent i sits in bits [i*w, (i+1)*w) of one `int`, so multiplying two
monomials is adding their keys.  The field width w is the bit length of a
proven bound on every exponent the loop can produce (for `Poly.__mul__`,
the sum of the factors' total degrees), so a sum of keys never carries into
a neighbouring field; `_pack` raises `OverflowError` on an exponent that
does not fit.  `_packed_det`, the one expansion core, memoizes minors by
column bitmask; `det` packs `Poly` entries for it, and the discriminant
builds its rows packed.  `restrict_to_line` packs coefficients (Kronecker
substitution at t = 2^K: coefficient k is signed K-bit field k of one
`int`), K from a closed-form bound, so p is evaluated once.  A `Poly`
keeps exponent tuples at every boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import getitem, sub
from typing import Mapping, Sequence, Union

from .linalg import canonical, canonical_values, primitive


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

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = canonical(other)
            return _from_terms(self.nvars, {e: v * c for e, v in self.terms.items()} if c else {})
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        width = _field_width(max(self.total_degree(), 0) + max(other.total_degree(), 0))
        terms: dict = {}
        _add_product(terms, _pack_terms(self.terms, width), _pack_terms(other.terms, width))
        return _from_terms(self.nvars, {_unpack(key, self.nvars, width): c
                                        for key, c in terms.items() if c})

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
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):  # a constant equals its scalar, so it hashes as one
        if not any(map(any, self.terms)):
            return hash(sum(self.terms.values()))  # the one term's value, or 0
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
        # Lowering one exponent is injective and c * e != 0: no terms merge.
        return _from_terms(self.nvars, {exps[:index] + (e - 1,) + exps[index + 1:]: c * e
                                        for exps, c in self.terms.items() if (e := exps[index])})

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


def _cofactor_expansion(row: Sequence[tuple], cols: int, minor) -> dict:
    """One packed minor over the column bitmask `cols`: the sum over its
    columns c of (-1)^k row[c] minor(cols without c), k its columns below c,
    zero terms dropped once; `row` holds (c, entry, -entry) per nonzero entry."""
    terms: dict = {}
    for c, entry, negated in row:
        bit = 1 << c
        if cols & bit:
            _add_product(terms, negated if (cols & bit - 1).bit_count() % 2 else entry,
                         minor(cols ^ bit))
    for key in [key for key, c in terms.items() if not c]:
        del terms[key]
    return terms


def _packed_det(rows: Sequence[Sequence[dict]], nvars: int, width: int) -> Poly:
    """Determinant of a square matrix of packed term dicts of one width
    (empty for a zero entry), by minor expansion along the rows in band
    order, memoized by the remaining column set.

    The rows are first stable-sorted by (first nonzero column, last nonzero
    column), all-zero rows last, and the expansion's result is multiplied
    by the sign of that permutation.  A banded matrix such as a Sylvester
    matrix then keeps every memoized minor inside its band; a dense matrix
    keeps its row order.  `width` must cover the sum over rows of each
    row's largest entry degree, which bounds every exponent of a minor.  A
    minor is keyed by its column bitmask; each row keeps its nonzero entries
    with their negations, and the cofactor sign is the parity of the set
    columns below.  Only the result is unpacked into a `Poly`."""
    size = len(rows)

    def band(r: int) -> tuple[int, int]:
        cols = [c for c, t in enumerate(rows[r]) if t]
        return (cols[0], cols[-1]) if cols else (size, size)

    order = sorted(range(size), key=band)
    odd = sum(a > b for i, a in enumerate(order) for b in order[i + 1:]) % 2
    packed = [[(c, t, {k: -v for k, v in t.items()}) for c, t in enumerate(rows[r]) if t]
              for r in order]
    cache: dict[int, dict] = {0: {0: 1}}

    def minor(cols: int) -> dict:
        terms = cache.get(cols)
        if terms is None:
            row = packed[size - cols.bit_count()]
            terms = cache[cols] = _cofactor_expansion(row, cols, minor)
        return terms

    result = _from_terms(nvars, {_unpack(key, nvars, width): c
                                 for key, c in minor((1 << size) - 1).items()})
    cache.clear()  # `minor` refers to itself, so the memo would wait for the cycle collector
    return -result if odd else result


def det(rows: Sequence[Sequence[Union[Poly, int, Fraction]]]) -> Poly:
    """Determinant of a square matrix of polynomials: the entries lifted to
    `Poly`, packed at the width of the sum over rows of each row's largest
    entry degree, and expanded by `_packed_det`."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    nvars = next((e.nvars for row in rows for e in row if isinstance(e, Poly)), 0)
    lifted = [[(e if isinstance(e, Poly) else Poly.const(nvars, e)).terms for e in row]
              for row in rows]
    width = _field_width(sum(max((sum(e) for t in row for e in t), default=0) for row in lifted))
    return _packed_det([[_pack_terms(t, width) for t in row] for row in lifted], nvars, width)


def degree_monomials(total: int, nvars: int):
    """Exponent tuples over nvars variables with the given total degree, in
    lex order.  The successor moves one unit from the rightmost nonzero
    exponent k to k - 1, the rest to the end."""
    e = [0] * nvars
    e[-1] = total
    k = nvars - 1 if total else 0  # the rightmost nonzero index
    while True:
        yield tuple(e)
        if k == 0:
            return
        tail, e[k] = e[k], 0
        e[k - 1] += 1
        e[-1] += tail - 1
        k = nvars - 1 if tail > 1 else k - 1


def graded_monomials(nvars: int, max_degree: int):
    """Exponent tuples of total degree <= max_degree, by degree, then lex."""
    for degree in range(max_degree + 1):
        yield from degree_monomials(degree, nvars)


def integer_primitive(p: Poly) -> Poly:
    """A new Poly, p scaled to integers with content 1, lex-first term positive."""
    terms = primitive(p.terms, min(p.terms, default=None))
    return _from_terms(p.nvars, dict(terms) if terms is p.terms else terms)


def _lowered(p: Poly, low: Sequence[int]) -> Poly:
    """p divided by the monomial with exponents `low`, which divides every term."""
    out = Poly(p.nvars)
    out.terms = {tuple(map(sub, exps, low)): c for exps, c in p.terms.items()}
    return out


def divide_by_variable(p: Poly, index: int) -> Poly:
    if not p.terms or not all(e[index] for e in p.terms):
        raise ValueError(f"polynomial is not divisible by variable {index}")
    return _lowered(p, [int(i == index) for i in range(p.nvars)])


def strip_variable_factors(p: Poly) -> Poly:
    """Remove every single-variable factor x_i dividing the polynomial: each
    exponent less its least value over the terms, in one pass."""
    return _lowered(p, list(map(min, zip(*p.terms)))) if p.terms else p


def restrict_to_line(p: Poly, base: Sequence[int | Fraction],
                     direction: Sequence[int | Fraction]) -> list[int | Fraction]:
    """Canonical coefficients of t -> p(base + t*direction), constant first,
    one per degree up to the total degree of p (a vanished top coefficient
    stays as a trailing 0; the zero polynomial gives []).

    By Kronecker substitution: with denominators cleared (b_i = B_i/s,
    w_i = W_i/s, coefficients C_e over one denominator, each term scaled by
    s to the top degree), each term is one product of the ints B_i + W_i 2^K,
    K one bit past the bit length of sum |C_e| max(1, max|B_i| + max|W_i|)^top,
    which bounds each coefficient, read back as a signed K-bit field (ints in, ints out).
    """
    if len(base) != p.nvars or len(direction) != p.nvars:
        raise ValueError("base and direction must match the variable count")
    if not p.terms:
        return []
    top = max(map(sum, p.terms))
    scale = lcm(*(x.denominator for x in (*base, *direction)))
    ints = [[int(x * scale) for x in xs] for xs in (base, direction)]
    denom = lcm(*(c.denominator for c in p.terms.values()))
    coeffs = [int(c * denom) * scale ** (top - sum(e)) for e, c in p.terms.items()]
    reach = max(1, sum(max(map(abs, xs), default=0) for xs in ints))
    width = (sum(map(abs, coeffs)) * reach ** top).bit_length() + 1
    half, mask = 1 << width - 1, (1 << width) - 1
    tables = [[x ** k for k in range(top + 1)] for x in (b + (w << width) for b, w in zip(*ints))]
    packed = sum(c * prod(map(getitem, tables, e)) for c, e in zip(coeffs, p.terms))
    packed += half * (((1 << width * (top + 1)) - 1) // mask)  # every field made nonnegative
    fields = [(packed >> width * k & mask) - half for k in range(top + 1)]
    common = denom * scale ** top
    return fields if common == 1 else [canonical(Fraction(v, common)) for v in fields]
