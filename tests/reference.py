"""Oracles kept out of `src/`: functions only the tests call, each the
reference some `src/` result is compared against.

The incidence parametrization (b, g) -> (x0 - b*x1)^(l+1) * g as polynomials
in (b, c_0..c_e): the oracle of `discriminant.parametrized_form`, of the
closed-form rows of `discriminant.parametrization_jacobian_rank` (through
its gradients) and, below, of the kernel pieces.

The all-pairs pairing of module vectors with Plücker monomial sections, the
oracle of `jets.level_duality`: `pair` unpacks both sides to sorted
d-tuples and sums u[idx] * s[idx] over the common ones, each weighted by
`tuple_matching_count`, the prod e_w! bijections of the multiset with
itself.  The normalization is factorial-free, so only its zeros are
meaningful.

The pullback route to the eliminant kernel pieces, the oracle of
`discriminant._kernel_piece`.  Each degree-k a-monomial is pulled back along
`incidence_parametrization` to an integer polynomial in (b, c), grown from
the degree-(k-1) pullbacks by `_packed_product`, the one packed product
outside `polynomials.det`; the coefficient
of each (b, c)-monomial is one equation, and the kernel of the equations is
the piece.  Only the upper weight half 2w >= kd is pulled back and
eliminated; the lower half is that kernel's mirror a_r -> a_(d-r), put in
canonical form by one more `Echelon` over the reversed columns.

The generator rule by products, the oracle of
`discriminant._new_generators`: an element of the kernel piece I_k is new
unless it lies in the span of every generator kept so far times every
a-monomial of its gap degree, each product formed by `Poly.__mul__`.

The l = 1 witness path by `Poly` and list arithmetic: the line restriction
as a term-by-term convolution of binomial-power coefficient lists, the
oracle of `polynomials.restrict_to_line`'s Kronecker substitution, and the
Bezout matrix by `Poly` products, the oracle of
`discriminant._bezout_matrix`'s monomial sums.  The rational-root test by
divisor search, the oracle of `discriminant._has_rational_root`'s p-adic
lift: every p/q with p | c_0 and q | c_n, the divisors listed once per end
coefficient by trial division up to the square root, tried in integers.
The squarefree part by Euclid over Q with `Fraction` quotients, the oracle
of `discriminant._squarefree_part`'s primitive pseudo-remainder sequence.

The tuple encoding of Sym^d(Λ^m V), the oracle of `plethysm`: a symmetric
basis index is the sorted d-tuple of its wedges, the basis is
`combinations_with_replacement(wedge_basis(m, n), d)`, and the action,
weights, matching counts and canonical filtration bases are computed on
those tuples over `Fraction`.  `pack` and `unpack` are the one bijection
with the packed keys of `plethysm`, written from its layout alone: of the
N = C(m+n, m) wedges, wedge k's count in field N - 1 - k, each field
d.bit_length() bits wide.

The Plücker monomial family, the oracle of `jets.section_space`, whose
basis sections are chains with no chart polynomial: `section_monomial`
multiplies a degree-d monomial (a chain's key, say) out of
`jets.plucker_polynomial` factors (read through the module, so a patched
minor shows) into a `Section`, its chart polynomial with its Plücker map
{key: 1}, and `jet_truncation` is its literal order-l truncation over
the jet columns of `jets.taylor_matrix`, the oracle of every row.
`standard_chains` packs the chains among the sorted d-tuples in their
order, and `pair` takes a chain as the monomial {chain: 1}.  On projective
space (m = 1) a monomial's jet is a unit vector, `monomial_jet_projective`;
and `chart_homogeneity_check` re-expands the chains' products around
another chart point, where the jet rank must equal `jets.taylor_rank` at
the origin.

The block-rank route, the oracle of the initial-term certificate of
`jets.section_space`: sections of different torus weights are independent,
so `weight_block_ranks` multiplies each standard monomial out of
`jets.plucker_polynomial` factors, groups the products by torus weight
(the multiset of row indices of the chain) and takes one `Echelon` rank
per block.

The chart minor by generic expansion, the oracle of `jets._chart_minor`'s
closed form: `polynomials.det` of the m x m submatrix of [[I_m], [T]] with
`Poly` entries, the route `jets` took before the closed form.
`chart_product` multiplies these minors over a multiset of wedges, the
chart side of z^a.v at every key of Sym^d(Λ^m V), not only at the chains.

`chart_variables` lists the chart positions in the order of the chart
variables.  `transpose` and `matvec` of a `SparseMatrix` and `truncate` of
a `Poly` (drop the terms of total degree above a bound) serve the kernel,
rank and jet checks.

The PBW evaluation matrix, the oracle of `canonical_filtration` and
`pbw_filtration`: row r is the highest weight vector v under the r-th PBW
monomial (`pbw_monomials` order) over all of g or over a subalgebra, each
built row by row by `filtration.apply_pbw_monomial`, with none of the
growth's walk, so over g its row span is U_l(g) . v.  `in_span` decides
span membership by one `Echelon.add`.

`fflv_point`, one forward path-sum table per exponent vector, decides
whether it is a Feigin-Fourier-Littelmann point: the oracle of
`filtration._fflv_children`, which decides all of a parent's children from
one backward table.

`prefix_steps`, the prefix walk z^a = z_i z^(a - e_i) with i the leftmost
nonzero index, grows `graded_pullbacks`.

The matrix commutator `bracket`, the oracle of `plethysm.act`'s
representation law [x, y] . w = x . (y . w) - y . (x . w), with the root
`root_weight` of a matrix unit and the `highest_weight` of the module of
degree d.
"""

from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, gcd
from operator import le
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, Union

from vermajet import jets
from vermajet.discriminant import _weight
from vermajet.errors import SizeCapError
from vermajet.filtration import apply_pbw_monomial
from vermajet.lie import LieAlgebraContext, LieElement, SubalgebraTag, Weight, build_context
from vermajet.linalg import Echelon, SparseMatrix, _echelon, canonical, primitive
from vermajet.plethysm import (DEFAULT_AMBIENT_CAP, PlethysmVector, highest_weight_vector,
                               sym_basis, wedge_basis)
from vermajet.polynomials import (Poly, _add_product, _field_width, _pack_terms, det,
                                  degree_monomials, graded_monomials, integer_primitive)

# the most PBW monomials the reference enumerates in one matrix or list
MONOMIAL_CAP = 50000


@lru_cache(maxsize=None)
def perfbench_workloads():
    """The benchmark's `perfbench/workloads.py`, loaded once by file path: the
    one home of its pinned references, the desk report's sha256 among them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the defining module up there
    spec.loader.exec_module(module)
    return module


def incidence_parametrization(d: int, l: int) -> list[Poly]:
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


def pair(functional: PlethysmVector, section, m: int, n: int, d: int) -> int | Fraction:
    """Canonical pairing of a module vector with a section, on sorted d-tuples.

    The section may be anything carrying Plücker-monomial coordinates: a
    basis chain's key of `jets.section_space` (the monomial {chain: 1}), a
    mapping from keys to rationals, or an object with a ``plucker``
    attribute holding one.  Every key of both sides is unpacked at degree
    d, so one whose fields, read at degree d, do not sum to d raises
    ValueError.  A key carries no degree: one of another degree whose fields
    happen to sum to d is read as a multiset of d wedges.
    """
    coords = {section: 1} if type(section) is int else getattr(section, "plucker", section)
    if not isinstance(coords, Mapping):
        raise TypeError("section must provide Plücker-monomial coordinates")
    left = {unpack(key, m, n, d): c for key, c in functional.coeffs.items()}
    right = {unpack(key, m, n, d): c for key, c in coords.items()}
    return sum(c * right[idx] * tuple_matching_count(idx) for idx, c in left.items()
               if idx in right)


def _packed_product(p: Mapping[int, int | Fraction],
                    q: Mapping[int, int | Fraction]) -> dict:
    """p * q on packed monomials of one width, zero terms dropped."""
    terms: dict = {}
    _add_product(terms, p, q)
    return {key: c for key, c in terms.items() if c}


def prefix_steps(nvars: int, degree: int):
    """(exps, i, prefix) for every exponent tuple exps of the given total
    degree >= 1, in `degree_monomials` order: i is the leftmost nonzero
    index of exps and prefix = exps - e_i, so z^exps = z_i z^prefix."""
    for exps in degree_monomials(degree, nvars):
        i = next(k for k, e in enumerate(exps) if e)
        yield exps, i, exps[:i] + (exps[i] - 1,) + exps[i + 1:]


def graded_pullbacks(images: Sequence[Mapping[int, int | Fraction]], max_degree: int,
                     keep: Callable[[tuple[int, ...]], bool] | None = None):
    """For k = 1..max_degree, {exps: packed pullback of z^exps} over the degree-k
    tuples `keep` holds (all if None; it must hold each kept prefix), grown along
    `prefix_steps`; z_i pulls back to images[i], of one width for max_degree."""
    pullbacks = {(0,) * len(images): {0: 1}}
    for k in range(1, max_degree + 1):
        previous, pullbacks = pullbacks, {}
        for exps, i, prefix in prefix_steps(len(images), k):
            if keep is None or keep(exps):
                pullbacks[exps] = _packed_product(images[i], previous[prefix])
        yield pullbacks


def pullback_width(k: int, l: int) -> int:
    """Field width of the packed (b, c) monomials of the degree-k pullbacks:
    each is a product of k parametrization coefficients, so b has exponent
    at most k*(l+1) and each c at most k."""
    return _field_width(k * (l + 1))


def pullbacks_by_degree(d: int, l: int,
                        max_degree: int) -> Iterator[dict[tuple[int, ...], dict[int, int]]]:
    """`graded_pullbacks` of the degree-k a-monomials of weight 2w >= kd, packed
    at `pullback_width(max_degree, l)`, which holds every degree yielded.  A
    prefix drops the smallest index, at most w/k, so it keeps 2w' >= (k-1)d."""
    width = pullback_width(max_degree, l)
    yield from graded_pullbacks([_pack_terms(p.terms, width)
                                 for p in incidence_parametrization(d, l)], max_degree,
                                lambda exps: 2 * _weight(exps) >= d * sum(exps))


def pullback_kernel_piece(pullbacks: dict[tuple[int, ...], dict[int, int]],
                          d: int) -> list[Poly]:
    """Primitive integer combinations of the degree-k a-monomials whose
    pullbacks sum to zero, one per free column in `degree_monomials` order:
    the kernel of the upper half's equations (eliminated sparsest first) and
    that kernel's mirror."""
    upper = list(pullbacks)
    k = sum(upper[0])
    reversed_columns = list(degree_monomials(k, d + 1))[::-1]
    column = {exps: j for j, exps in enumerate(reversed_columns)}
    equations: dict[int, dict[int, int]] = {}
    for col, terms in enumerate(pullbacks.values()):
        for key, c in terms.items():
            equations.setdefault(key, {})[col] = c
    echelon = Echelon(len(upper))
    for row in sorted(equations.values(), key=len):
        echelon.add(row)
    vectors = {}  # by exponent tuples: sorted, they are in `degree_monomials` order
    mirror = Echelon(len(column))
    for vector in echelon.kernel():
        free = upper[max(vector)]
        vectors[free] = {upper[j]: v for j, v in vector.items()}
        if 2 * _weight(free) > k * d:
            mirror.add({column[upper[j][::-1]]: v for j, v in vector.items()})
    for p, row in mirror.canonical_rows():
        vectors[reversed_columns[p]] = {reversed_columns[j]: v for j, v in row.items()}
    return [integer_primitive(Poly(d + 1, dict(sorted(vector.items()))))
            for _, vector in sorted(vectors.items())]


def pullback_pieces(d: int, l: int, max_degree: int) -> list[list[Poly]]:
    """The pieces of degree 1..max_degree by the pullback route."""
    return [pullback_kernel_piece(pullbacks, d)
            for pullbacks in pullbacks_by_degree(d, l, max_degree)]


def new_generators_by_products(piece: list[Poly], collected: list[Poly],
                               degree: int, d: int) -> list[Poly]:
    """Kernel elements not already in (collected) * monomials."""
    columns = {exps: i for i, exps in enumerate(degree_monomials(degree, d + 1))}
    echelon = Echelon(len(columns))
    for g in collected:
        for mono in degree_monomials(degree - g.total_degree(), d + 1):
            echelon.add({columns[e]: c for e, c in (g * Poly(d + 1, {mono: 1})).terms.items()})
    return [q for q in piece if echelon.add({columns[e]: c for e, c in q.terms.items()})]


def restrict_to_line_by_convolution(p: Poly, base: Sequence[int | Fraction],
                                    direction: Sequence[int | Fraction]) -> list[int | Fraction]:
    """The restriction t -> p(base + t*direction), constant first, one
    coefficient per degree up to the total degree: each term expanded as a
    product of coefficient lists of the binomial powers (b_i + w_i t)^e."""
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


def bezout_matrix_by_products(d: int) -> list[list[Poly]]:
    """The Bezout matrix of the form and its derivative by `Poly` arithmetic:
    B_ij = sum_{v <= min(i,j)} (P_{i+j+1-v} Q_v - P_v Q_{i+j+1-v}) over the
    coefficient polynomials P_u, Q_u of x^u, zero past the degree."""
    zero = Poly.zero(d + 1)
    form = [Poly.variable(d + 1, k) for k in range(d + 1)]
    p = form[::-1] + [zero] * d
    q = [(d - k) * form[k] for k in range(d)][::-1] + [zero] * (d + 1)
    return [[sum((p[i + j + 1 - v] * q[v] - p[v] * q[i + j + 1 - v]
                  for v in range(min(i, j) + 1)), zero)
             for j in range(d)] for i in range(d)]


def squarefree_part_over_q(coeffs: Sequence[int]) -> list[int]:
    """f / gcd(f, f') over Q as primitive integers, top coefficient positive."""
    def divmod_q(a, b):
        quotient, r = [], list(a)
        while len(r) >= len(b):
            quotient.insert(0, Fraction(r[-1]) / b[-1])
            r = [c - quotient[0] * e for c, e in zip(r, [0] * (len(r) - len(b)) + b)][:-1]
        while r and not r[-1]:
            r.pop()
        return quotient, r
    g, h = coeffs, [k * c for k, c in enumerate(coeffs)][1:]
    while h:
        g, h = h, divmod_q(g, h)[1]
    quotient = divmod_q(coeffs, g)[0]
    return list(primitive(dict(enumerate(quotient)), len(quotient) - 1).values())


def divisors(n: int) -> list[int]:
    """The positive divisors of |n| in increasing order, by trial division."""
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


def rational_root_by_divisors(coeffs: Sequence[int]) -> bool:
    """Whether sum_k coeffs[k] x^k has a rational root p/q: p | coeffs[0],
    q | coeffs[-1] and sum_k coeffs[k] p^k q^(n-k) = 0, all in integers."""
    if coeffs[0] == 0:
        return True  # root at 0
    n, leads = len(coeffs) - 1, divisors(coeffs[-1])
    for p in divisors(coeffs[0]):
        for q in leads:
            if gcd(p, q) != 1:
                continue
            for num in (p, -p):
                if not sum(c * num ** k * q ** (n - k) for k, c in enumerate(coeffs)):
                    return True
    return False


Wedges = tuple[tuple[int, ...], ...]  # a sorted d-tuple of wedges


def pack(idx: Wedges, m: int, n: int) -> int:
    """The key of a sorted d-tuple of wedges."""
    width, size = len(idx).bit_length(), comb(m + n, m)
    return sum(idx.count(wedge) << width * (size - 1 - k)
               for k, wedge in enumerate(wedge_basis(m, n)))


def unpack(key: int, m: int, n: int, d: int) -> Wedges:
    """The sorted d-tuple of wedges of a degree-d key; ValueError when its
    fields do not hold d wedges."""
    width, size = d.bit_length(), comb(m + n, m)
    counts = [key >> width * (size - 1 - k) & (1 << width) - 1 for k in range(size)]
    if key < 0 or key >> width * size or sum(counts) != d:
        raise ValueError(f"key {key} holds no {d} wedges")
    return tuple(w for w, e in zip(wedge_basis(m, n), counts) for _ in range(e))


def tuple_act(x: LieElement, coeffs: Mapping[Wedges, int | Fraction]) -> dict[Wedges, Fraction]:
    """The derivation action over Fraction only: E_ij sends wedge slot value j
    to i, the wedge is re-sorted with the sign of its permutation, a repeated
    value kills the term, and the d-tuple is re-sorted."""
    out = {}
    for idx, coeff in coeffs.items():
        for k, wedge in enumerate(idx):
            for slot, value in enumerate(wedge):
                for (i, j), c in x.entries.items():
                    if j != value:
                        continue
                    values = list(wedge)
                    values[slot] = i
                    if len(set(values)) < len(values):
                        continue
                    inversions = sum(a > b for p, a in enumerate(values) for b in values[p + 1:])
                    new_idx = tuple(sorted(idx[:k] + (tuple(sorted(values)),) + idx[k + 1:]))
                    term = Fraction(coeff) * Fraction(c) * (-1) ** inversions
                    out[new_idx] = out.get(new_idx, Fraction(0)) + term
    return {idx: v for idx, v in out.items() if v}


def tuple_weight_of(idx: Wedges, size: int) -> Weight:
    """Coordinate k counts the occurrences of index k across all wedges."""
    counts = [0] * size
    for wedge in idx:
        for value in wedge:
            counts[value - 1] += 1
    return Weight(counts)


def tuple_matching_count(idx: Wedges) -> int:
    """The product of the factorials of the run lengths of the sorted tuple."""
    total, i = 1, 0
    while i < len(idx):
        j = i
        while j < len(idx) and idx[j] == idx[i]:
            j += 1
        total *= factorial(j - i)
        i = j
    return total


def tuple_filtration_bases(m: int, n: int, d: int,
                           l_max: int) -> list[list[dict[Wedges, int | Fraction]]]:
    """The canonical reduced bases of levels 0..l_max of the canonical
    filtration, grown F_(l+1) = F_l + n . (vectors new at level l) with
    `tuple_act` over the `combinations_with_replacement` columns."""
    nilpotent = build_context(m, n).subalgebra_basis(SubalgebraTag.N)
    basis = list(combinations_with_replacement(wedge_basis(m, n), d))
    column = {idx: k for k, idx in enumerate(basis)}
    echelon = Echelon(len(basis))
    new = [{(tuple(range(1, m + 1)),) * d: 1}]
    levels = []
    for level in range(l_max + 1):
        if level:
            new = [tuple_act(x, vec) for vec in new for x in nilpotent]
        new = [vec for vec in new if echelon.add({column[idx]: v for idx, v in vec.items()})]
        levels.append([{basis[c]: v for c, v in row.items()}
                       for _, row in echelon.canonical_rows()])
    return levels


class Section(NamedTuple):
    """A section in chart coordinates, with its Plücker-monomial provenance."""
    chart: Poly
    plucker: dict[int, int | Fraction]


def section_monomial(key: int, m: int, n: int, d: int) -> Section:
    """Product of Plücker chart polynomials over a degree-d multiset, given
    as its key."""
    chart = Poly.const(m * n, 1)
    for wedge in unpack(key, m, n, d):
        chart = chart * jets.plucker_polynomial(wedge, m, n)
    return Section(chart, {key: 1})


def standard_chains(m: int, n: int, d: int) -> list[int]:
    """The keys of the sorted d-tuples of wedges, in their lex order, that
    form a chain w_1 <= ... <= w_d: each neighbour pair is componentwise
    ordered."""
    return [pack(idx, m, n) for idx in combinations_with_replacement(wedge_basis(m, n), d)
            if all(all(map(le, w, v)) for w, v in zip(idx, idx[1:]))]


def weight_block_ranks(m: int, n: int, d: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """(standard monomials, rank of their chart polynomials) per torus weight
    of degree d."""
    blocks: dict[tuple[int, ...], list[Poly]] = {}
    for chain in standard_chains(m, n, d):
        weight = tuple(sorted(i for wedge in unpack(chain, m, n, d) for i in wedge))
        blocks.setdefault(weight, []).append(section_monomial(chain, m, n, d).chart)
    ranks = {}
    for weight, charts in blocks.items():
        columns = {e: k for k, e in enumerate({e for p in charts for e in p.terms})}
        echelon = Echelon(len(columns))
        for p in charts:
            echelon.add({columns[e]: c for e, c in p.terms.items()})
        ranks[weight] = (len(charts), echelon.rank)
    return ranks


def monomial_sections(m: int, n: int, d: int,
                      cap: int = DEFAULT_AMBIENT_CAP) -> list[Section]:
    """The degree-d Plücker monomial family in canonical basis order."""
    return [section_monomial(key, m, n, d) for key in sym_basis(m, n, d, cap)]


@lru_cache(maxsize=None)
def _jet_columns(m: int, n: int, l: int) -> tuple[tuple, dict]:
    """The jet monomials of degree <= l by enumeration, and their column
    index, the oracle of `jets._jet_column`; built once per level, as the
    tests truncate every section of a case at one level."""
    if l < 0:
        raise ValueError("l must be non-negative")
    columns = tuple(graded_monomials(m * n, l))
    return columns, {exps: k for k, exps in enumerate(columns)}


def jet_monomials(m: int, n: int, l: int) -> list[tuple[int, ...]]:
    """Chart-variable exponent tuples of total degree <= l, graded lex."""
    return list(_jet_columns(m, n, l)[0])


def jet_truncation(section: Section, m: int, n: int,
                   l: int) -> tuple[int | Fraction, ...]:
    """Coefficient vector of the order-l truncation at the origin."""
    columns, index = _jet_columns(m, n, l)
    out = [Fraction(0)] * len(columns)
    for exps, c in section.chart.terms.items():
        k = index.get(exps)
        if k is not None:
            out[k] = c
    return tuple(out)


def monomial_jet_projective(exponents: Sequence[int], l: int) -> tuple[Fraction, ...]:
    """Order-l jet of a projective-space monomial section in the chart at
    index 0: the unit vector at the residual exponents when their total
    degree is at most l, and zero otherwise."""
    if not exponents:
        raise ValueError("need at least one exponent")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be non-negative")
    n = len(exponents) - 1
    tail = tuple(exponents[1:])
    columns, index = _jet_columns(1, n, l)
    out = [Fraction(0)] * len(columns)
    if sum(tail) <= l:
        out[index[tail]] = Fraction(1)
    return tuple(out)


def chart_variables(m: int, n: int) -> list[tuple[int, int]]:
    """The mn chart positions (i, j), i in m+1..m+n, j in 1..m, in lex order."""
    return [(i, j) for i in range(m + 1, m + n + 1) for j in range(1, m + 1)]


def _chart_point(m: int, n: int, point) -> dict[tuple[int, int], Fraction]:
    variables = chart_variables(m, n)
    if isinstance(point, Mapping):
        values = {pos: Fraction(point.get(pos, 0)) for pos in variables}
        extra = set(point) - set(variables)
        if extra:
            raise ValueError(f"unknown chart positions {sorted(extra)}")
        return values
    rows = list(point)
    if len(rows) != n or any(len(row) != m for row in rows):
        raise ValueError(f"chart point must be an {n} x {m} array")
    return {(m + 1 + r, 1 + c): Fraction(rows[r][c])
            for r in range(n) for c in range(m)}


def chart_homogeneity_check(m: int, n: int, d: int, l: int, point,
                            cap: int = DEFAULT_AMBIENT_CAP) -> bool:
    """Rank of the Taylor matrix re-expanded around another chart point
    equals the rank at the origin."""
    if l < 1:
        raise ValueError("l must be at least 1")
    values = _chart_point(m, n, point)
    variables = chart_variables(m, n)
    nvars = len(variables)
    subs = [Poly.variable(nvars, k) + values[pos]
            for k, pos in enumerate(variables)]
    columns, col_index = _jet_columns(m, n, l)
    shifted = Echelon(len(columns))
    for chain in jets.section_space(m, n, d, cap):
        jet = truncate(section_monomial(chain, m, n, d).chart.substitute(subs, nvars_out=nvars),
                       l)
        shifted.add({col_index[exps]: c for exps, c in jet.terms.items()})
    return shifted.rank == jets.taylor_rank(m, n, d, l, cap)


def chart_minor_by_det(rows: Sequence[int], m: int, n: int) -> Poly:
    """The minor with the given sorted rows of [[I_m], [T]], expanded by
    `det` over `Poly` entries: unit rows for r <= m, chart variables below."""
    variables = chart_variables(m, n)
    nvars = len(variables)
    return det([[Poly.const(nvars, int(c == r)) if r <= m
                 else Poly.variable(nvars, variables.index((r, c)))
                 for c in range(1, m + 1)] for r in rows])


@lru_cache(maxsize=None)
def chart_product(idx: Wedges, m: int, n: int) -> Poly:
    """prod_w Delta_w(T)^(c_w) over a sorted tuple of wedges, c_w the count of
    w, each minor from `chart_minor_by_det`; every prefix is multiplied once."""
    if not idx:
        return Poly.const(m * n, 1)
    return chart_product(idx[:-1], m, n) * chart_minor_by_det(idx[-1], m, n)


def transpose(matrix: SparseMatrix) -> SparseMatrix:
    return SparseMatrix(matrix.cols, matrix.rows,
                        {(c, r): v for (r, c), v in matrix.entries.items()})


def matvec(matrix: SparseMatrix, x: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
    if len(x) != matrix.cols:
        raise ValueError("vector length does not match column count")
    out = [Fraction(0)] * matrix.rows
    for (r, c), v in matrix.entries.items():
        if x[c]:
            out[r] += v * x[c]
    return tuple(out)


def truncate(p: Poly, max_degree: int) -> Poly:
    """`p` without its terms of total degree above max_degree."""
    return Poly(p.nvars, {e: c for e, c in p.terms.items() if sum(e) <= max_degree})


Subalgebra = Union[SubalgebraTag, str]


def pbw_monomials(num_generators: int, max_degree: int,
                  cap: int = MONOMIAL_CAP) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree <= max_degree, sorted by (degree, lex)."""
    count = comb(num_generators + max_degree, max_degree)
    if count > cap:
        raise SizeCapError("PBW monomial count", count, cap)
    return list(graded_monomials(num_generators, max_degree))


def fflv_point(exps: Sequence[int], m: int, d: int) -> bool:
    """Whether exps, over the n-basis read row by row as the n x m matrix
    (z_ij), has exponent sum <= d on every path from z_(m+1,1) to z_(m+n,m)
    that moves one row down or one column right: one forward path-sum table
    per vector."""
    best: list[int] = []  # the largest path sum from z_(m+1,1) to each entry
    for k, e in enumerate(exps):
        best.append(e + max(best[k - m] if k >= m else 0, best[k - 1] if k % m else 0))
    return best[-1] <= d


def _generators(ctx: LieAlgebraContext, subalgebra: Subalgebra) -> list[LieElement]:
    if isinstance(subalgebra, str) and subalgebra == "all":
        return list(ctx.basis)
    tag = SubalgebraTag(subalgebra)
    return ctx.subalgebra_basis(tag)


def evaluation_matrix(m: int, n: int, d: int, l: int,
                      subalgebra: Subalgebra = "all",
                      cap: int = DEFAULT_AMBIENT_CAP) -> SparseMatrix:
    """Row r is the image of the r-th PBW monomial applied to v; columns are
    the ambient module coordinates."""
    if l < 0:
        raise ValueError("l must be non-negative")
    ctx = build_context(m, n)
    column = {key: c for c, key in enumerate(sym_basis(m, n, d, cap))}
    generators = _generators(ctx, subalgebra)
    monomials = pbw_monomials(len(generators), l)
    v = highest_weight_vector(m, n, d)
    entries = {(row, column[key]): value
               for row, exps in enumerate(monomials)
               for key, value in apply_pbw_monomial(generators, exps, v, m, d).coeffs.items()}
    return SparseMatrix(len(monomials), len(column), entries)


def in_span(vectors: Sequence[Union[Sequence[int | Fraction], Mapping[int, int | Fraction]]],
            candidate: Union[Sequence[int | Fraction], Mapping[int, int | Fraction]],
            dim: int | None = None) -> bool:
    """Whether candidate lies in the span of the given vectors."""
    matrix = SparseMatrix.from_rows(list(vectors) + [candidate], dim)
    *rows, last = matrix.row_dicts()
    return not _echelon(rows, matrix.cols).add(last)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Matrix commutator [x, y] = xy - yx."""
    if x.size != y.size:
        raise ValueError("elements live in different algebras")
    acc: dict[tuple[int, int], int | Fraction] = {}
    y_rows: dict[int, list[tuple[int, int | Fraction]]] = {}
    x_rows: dict[int, list[tuple[int, int | Fraction]]] = {}
    for (i, j), v in y.entries.items():
        y_rows.setdefault(i, []).append((j, v))
    for (i, j), v in x.entries.items():
        x_rows.setdefault(i, []).append((j, v))
    for (i, k), xv in x.entries.items():
        for j, yv in y_rows.get(k, ()):
            acc[(i, j)] = acc.get((i, j), 0) + xv * yv
    for (i, k), yv in y.entries.items():
        for j, xv in x_rows.get(k, ()):
            acc[(i, j)] = acc.get((i, j), 0) - yv * xv
    return LieElement(x.size, acc)


def root_weight(ctx: LieAlgebraContext, i: int, j: int) -> Weight:
    """The root L_i - L_j carried by the matrix unit E_ij."""
    coords = [0] * ctx.size
    coords[i - 1] += 1
    coords[j - 1] -= 1
    return Weight(coords)


def highest_weight(ctx: LieAlgebraContext, d: int) -> Weight:
    if d < 1:
        raise ValueError("degree must be positive")
    return Weight((d,) * ctx.m + (0,) * ctx.n)
