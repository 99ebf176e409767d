import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vermajet.linalg import (Echelon, SparseMatrix, canonical, canonical_values,
                             kernel_basis, primitive, rank, rref, span_dim)
from vermajet.polynomials import Poly, degree_monomials

from reference import in_span, incidence_parametrization, matvec, transpose


def test_identity_rref():
    m = SparseMatrix.from_rows([[1, 0], [0, 1]])
    result = rref(m)
    assert result.rank == 2
    assert result.pivots == [0, 1]
    assert result.reduced == m


def test_proportional_rows():
    m = SparseMatrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_sl2_cubic_action_rows():
    # Rows: {v, E12.v, H1.v, E21.v} on v = e1^3, in coordinates over
    # (e1^3, e1^2 e2).  By the Leibniz rule: E12.v = 0, H1.v = 3v,
    # E21.v = 3 e1^2 e2.
    m = SparseMatrix.from_rows([[1, 0], [0, 0], [3, 0], [0, 3]])
    assert rref(m).rank == 2


def test_kernel_identity_empty():
    m = SparseMatrix.from_rows([[1, 0], [0, 1]])
    assert kernel_basis(m) == []


def test_kernel_single_relation():
    m = SparseMatrix.from_rows([[1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    x, y = basis[0]
    assert x == -y != 0


def test_kernel_of_sl2_evaluation():
    # Columns: {1, E12, E21, H1} applied to e1^3; rows: ambient coordinates
    # (e1^3, e1^2 e2, e1 e2^2, e2^3).  The kernel encodes the annihilator:
    # E12 and H1 - 3*1.
    m = SparseMatrix.from_rows([
        [1, 0, 0, 3],
        [0, 0, 3, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert all(v == 0 for v in matvec(m, vec))
    assert in_span(basis, (0, 1, 0, 0))
    assert in_span(basis, (-3, 0, 0, 1))


def test_span_dim_empty():
    assert span_dim([]) == 0


def test_span_dim_plane():
    assert span_dim([(1, 0), (0, 1), (1, 1)]) == 2


def test_span_dim_chart_polynomials():
    # The six 2x2 minors of [[I],[T]] on Gr(2,4), as coefficient vectors over
    # the monomials (1, t31, t32, t41, t42, t31*t42, t32*t41):
    # p12=1, p13=t32, p14=t42, p23=-t31, p24=-t41, p34=t31*t42-t32*t41.
    vectors = [
        (1, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0),
        (0, -1, 0, 0, 0, 0, 0),
        (0, 0, 0, -1, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, -1),
    ]
    assert span_dim(vectors) == 6


_entries = st.fractions(min_value=-10, max_value=10, max_denominator=4)


@st.composite
def _matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    data = draw(st.lists(
        st.lists(_entries, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return SparseMatrix.from_rows(data)


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rank_equals_rank_of_transpose(m):
    assert rank(m) == rank(transpose(m))


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rank_nullity(m):
    basis = kernel_basis(m)
    assert rank(m) + len(basis) == m.cols
    for vec in basis:
        assert all(v == 0 for v in matvec(m, vec))
    assert span_dim(basis, m.cols) == len(basis)


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rref_idempotent(m):
    first = rref(m)
    second = rref(first.reduced)
    assert second.rank == first.rank
    assert second.pivots == first.pivots
    assert second.reduced == first.reduced


def test_kernel_of_empty_matrix():
    m = SparseMatrix(0, 3, {})
    assert len(kernel_basis(m)) == 3


def test_entries_validated():
    import pytest
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, {(1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        SparseMatrix(-1, 1)


def test_fields_cannot_be_assigned_or_deleted():
    matrix = SparseMatrix(1, 2, {(0, 1): 3})
    for name, value in (("rows", 2), ("cols", 1), ("entries", {})):
        with pytest.raises(AttributeError):
            setattr(matrix, name, value)
        with pytest.raises(AttributeError):
            delattr(matrix, name)
    assert matrix == SparseMatrix(1, 2, {(0, 1): Fraction(3)})
    assert repr(matrix) == "SparseMatrix(rows=1, cols=2, entries={(0, 1): Fraction(3, 1)})"


def test_matrices_are_equal_exactly_when_every_field_is():
    base = SparseMatrix(2, 3, {(0, 1): 1})
    assert base == SparseMatrix(2, 3, {(0, 1): Fraction(1), (1, 2): 0})
    for other in (SparseMatrix(3, 3, {(0, 1): 1}), SparseMatrix(2, 4, {(0, 1): 1}),
                  SparseMatrix(2, 3, {(0, 1): 2}), SparseMatrix(2, 3)):
        assert base != other


def _checked_primitive(values, lead):
    # primitive() on the list as a map by index, lead an index of the list;
    # the input map is never mutated.
    mapping = dict(enumerate(values))
    got = primitive(mapping, lead % len(values) if values else None)
    assert mapping == dict(enumerate(values))
    assert list(got) == list(mapping)
    return list(got.values())


def test_primitive_sign_conventions():
    values = [Fraction(-2, 3), Fraction(4, 9), 0, Fraction(2)]
    for lead, expected in ((0, [3, -2, 0, -9]), (-1, [-3, 2, 0, 9])):
        assert _checked_primitive(values, lead) == expected
        assert expected == _primitive_integers_by_lcm(values, lead)
    assert _checked_primitive([0, 0], 0) == [0, 0]
    assert _checked_primitive([], -1) == []
    assert primitive({"a": 6, "b": -4}, "b") == {"a": -3, "b": 2}


def test_primitive_returns_a_primitive_int_dict_itself():
    values = {3: 2, 5: -1}
    assert primitive(values, 3) is values
    assert primitive(values, 5) == {3: -2, 5: 1} and values == {3: 2, 5: -1}


_small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def _integer_rows(draw):
    cols = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(_small_ints, min_size=cols, max_size=cols), max_size=7))
    return rows, cols


def _echelon_of(rows, cols, reduce_after=None):
    echelon = Echelon(cols)
    for i, row in enumerate(rows):
        before = echelon.rank
        assert echelon.add(dict(enumerate(row))) == (echelon.rank == before + 1)
        if i == reduce_after:
            echelon.reduced()  # adding after a reduction must keep working
    return echelon


@settings(max_examples=80, deadline=None)
@given(_integer_rows(), st.data())
def test_echelon_invariant_under_row_permutation_and_scaling(case, data):
    rows, cols = case
    order = data.draw(st.permutations(range(len(rows))))
    scales = data.draw(st.lists(st.integers(min_value=-5, max_value=5).filter(bool),
                                min_size=len(rows), max_size=len(rows)))
    moved = [[s * v for v in rows[i]] for i, s in zip(order, scales)]
    first = _echelon_of(rows, cols)
    second = _echelon_of(moved, cols, reduce_after=len(rows) // 2)
    assert first.rank == second.rank
    assert first.pivots == second.pivots
    assert first.reduced() == second.reduced()


@settings(max_examples=80, deadline=None)
@given(_integer_rows())
def test_echelon_kernel_and_primitive_rows(case):
    rows, cols = case
    echelon = _echelon_of(rows, cols)
    kernel = echelon.kernel()
    assert len(kernel) == cols - echelon.rank
    for vec in kernel:
        assert all(sum(row[c] * vec.get(c, 0) for c in range(cols)) == 0 for row in rows)
    for col, row in zip(echelon.pivots, echelon.reduced()):
        assert min(row) == col and row[col] > 0
        assert gcd(*row.values()) == 1
        assert not any(c in row for c in echelon.pivots if c != col)
    entries = rref(SparseMatrix.from_rows(rows, cols=cols)).reduced.entries
    read = list(echelon.canonical_rows())
    assert [col for col, _ in read] == echelon.pivots
    for i, (col, row) in enumerate(read):
        assert row[col] == 1 and all(type(v) is type(canonical(v)) for v in row.values())
        assert row == {c: v for (r, c), v in entries.items() if r == i}


def _sympy_rref(sympy, rows, cols):
    reduced, pivots = sympy.Matrix(len(rows), cols, [v for row in rows for v in row]).rref()
    return list(pivots), [[Fraction(int(v.p), int(v.q)) for v in reduced.row(i)]
                          for i in range(len(rows))]


def _dense(result, rows, cols):
    return [[result.reduced.entries.get((r, c), Fraction(0)) for c in range(cols)]
            for r in range(rows)]


def test_rref_matches_sympy_on_random_integer_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(150):
        nrows, cols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(cols)]
                for _ in range(nrows)]
        result = rref(SparseMatrix.from_rows(rows))
        assert (result.pivots, _dense(result, nrows, cols)) == _sympy_rref(sympy, rows, cols)


def test_rref_matches_sympy_on_graded_relations_matrix():
    # The (d, l, degree) = (5, 2, 3) pullback matrix: rows are the cubic
    # monomials in a_0..a_5, columns the monomials in (b, c) of their
    # pullbacks.  graded_relations takes the kernel of its transpose.
    sympy = pytest.importorskip("sympy")
    params = incidence_parametrization(5, 2)
    columns: dict[tuple[int, ...], int] = {}
    pullback_rows = []
    for exps in sorted(degree_monomials(3, 6)):
        pullback = Poly.const(params[0].nvars, 1)
        for k, e in enumerate(exps):
            pullback = pullback * params[k] ** e
        pullback_rows.append({columns.setdefault(bc, len(columns)): c
                              for bc, c in pullback.terms.items()})
    matrix = SparseMatrix.from_rows(pullback_rows, cols=len(columns))
    for m in (matrix, transpose(matrix)):
        rows = [[int(row.get(c, 0)) for c in range(m.cols)] for row in m.row_dicts()]
        result = rref(m)
        assert result.rank == 56
        assert (result.pivots, _dense(result, m.rows, m.cols)) == _sympy_rref(sympy, rows, m.cols)
    assert (matrix.rows, matrix.cols) == (56, 100)


def test_from_rows_leaves_bounds_check_to_the_constructor():
    with pytest.raises(ValueError):
        SparseMatrix.from_rows([{5: 1}], cols=3)
    matrix = SparseMatrix.from_rows([{0: 2, 1: 0, 2: Fraction(1, 2)}], cols=3)
    assert matrix.entries == {(0, 0): Fraction(2), (0, 2): Fraction(1, 2)}
    assert all(type(v) is Fraction for v in matrix.entries.values())


def test_kernel_at_full_column_rank_is_empty_and_echelon_stays_usable():
    echelon = Echelon(3)
    for row in ({0: 2, 1: 4, 2: 6}, {1: 3, 2: -1}, {0: 1, 2: 5}):
        assert echelon.add(row)
    assert echelon.kernel() == []
    fresh = _echelon_of([[2, 4, 6], [0, 3, -1], [1, 0, 5]], 3)
    assert echelon.reduced() == fresh.reduced() == [{0: 1}, {1: 1}, {2: 1}]
    assert not echelon.add({0: 7, 1: -2, 2: 9})
    assert echelon.rank == 3 and echelon.kernel() == []
    # a rank-deficient echelon still back-substitutes for its kernel
    short = Echelon(3)
    short.add({0: 2, 1: 4, 2: 6})
    assert short.kernel() == [{1: 1, 0: -2}, {2: 1, 0: -3}]


def _seeded_content_rows(seed, count, cols):
    # Integer rows sharing a content of 2..6, most with a negative leading
    # entry, some exact multiples of earlier rows.
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.2:
            row = [rng.choice((-3, -2, 2)) * v for v in rng.choice(rows)]
        else:
            content = rng.randint(2, 6)
            lead = rng.randrange(cols)
            row = [0] * lead + [-content * rng.randint(1, 4)]
            row += [content * rng.randint(-5, 5) for _ in range(cols - lead - 1)]
        rows.append(row)
    return rows


def _stored_rows_primitive(echelon):
    for col, row in echelon._rows.items():
        assert min(row) == col and row[col] > 0
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1


@pytest.mark.parametrize("seed", range(6))
def test_echelon_int_and_fraction_rows_agree(seed):
    cols = 4 + seed % 3
    rows = _seeded_content_rows(seed, 9, cols)
    rng = random.Random(100 + seed)
    variants = [
        [dict(enumerate(row)) for row in rows],
        [{c: Fraction(v) for c, v in enumerate(row)} for row in rows],
        [{c: Fraction(v, k) for c, v in enumerate(row)}
         for row, k in ((row, rng.choice((-7, 3, 4))) for row in rows)],
    ]
    echelons = []
    for variant in variants:
        echelon = Echelon(cols)
        for row in variant:
            echelon.add(row)
        _stored_rows_primitive(echelon)
        echelons.append(echelon)
    first = echelons[0]
    for other in echelons[1:]:
        assert (other.rank, other.pivots) == (first.rank, first.pivots)
        assert other.reduced() == first.reduced()
        assert other.kernel() == first.kernel()
    assert first.rank == rank(SparseMatrix.from_rows(rows))
    _stored_rows_primitive(first)  # still primitive after back-substitution


def test_echelon_add_leaves_the_callers_row_alone():
    row = {0: -4, 1: 6, 2: 0}
    echelon = Echelon(3)
    assert echelon.add(row)
    assert row == {0: -4, 1: 6, 2: 0}
    assert echelon.reduced() == [{0: 2, 1: -3}]
    assert not echelon.add({0: 6, 1: -9})


def _primitive_integers_by_lcm(values, lead):
    # The denominator-clearing normalizer applied to every input.
    denom = lcm(*[Fraction(v).denominator for v in values])
    ints = [Fraction(v).numerator * (denom // Fraction(v).denominator) for v in values]
    content = gcd(*ints)
    if content and ints[lead] < 0:
        content = -content
    return ints if content in (0, 1) else [c // content for c in ints]


def test_primitive_int_mixed_and_zero_inputs():
    rng = random.Random(7)
    cases = [[0, 0, 0], [0], [-6, 0, 9, 12], [5, -10], [1, -1]]
    for _ in range(40):
        content = rng.randint(1, 9)
        row = [content * rng.randint(-6, 6) for _ in range(rng.randint(1, 6))]
        cases.append(row)
        cases.append([Fraction(v, rng.randint(1, 5)) if i % 2 else v
                      for i, v in enumerate(row)])
    for values in cases:
        for lead in (0, -1):
            got = _checked_primitive(values, lead)
            assert got == _primitive_integers_by_lcm(values, lead)
            assert all(type(v) is int for v in got)
    assert _checked_primitive([], 0) == []


_nonzero_scales = st.one_of(
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6).filter(bool),
              st.integers(min_value=1, max_value=6)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_integer_rows(), st.data())
def test_scaled_rows_leave_the_same_echelon(case, data):
    rows, cols = case
    scales = data.draw(st.lists(_nonzero_scales, min_size=len(rows), max_size=len(rows)))
    plain, scaled = Echelon(cols), Echelon(cols)
    for row, scale in zip(rows, scales):
        assert plain.add(dict(enumerate(row))) == scaled.add(
            {c: scale * v for c, v in enumerate(row)})
    assert plain.pivots == scaled.pivots
    rows_read, kernel = plain.integer_readoff()
    scaled_rows_read, scaled_kernel = scaled.integer_readoff()
    assert scaled_rows_read == rows_read
    assert list(scaled_kernel) == list(kernel)


def test_canonical_keeps_fractions_and_unwraps_integral_ones():
    half = Fraction(1, 2)
    assert canonical(half) is half
    assert type(canonical(Fraction(6, 3))) is int and canonical(Fraction(6, 3)) == 2
    assert canonical(7) == 7 and type(canonical(True)) is int
    assert canonical("3/4") == Fraction(3, 4)
    coeffs = {"a": Fraction(4, 2), "b": half, "c": 5}
    assert canonical_values(coeffs) is coeffs
    assert coeffs == {"a": 2, "b": half, "c": 5} and type(coeffs["a"]) is int


def test_span_dim_reads_every_row_shape():
    # Empty input, sequences with their width inferred, mapping rows after a
    # sequence row or with `dim`, and the shapes that must raise.
    assert span_dim([], 4) == 0
    assert span_dim([(1, 2, 3), (2, 4, 6), (0, 1, Fraction(1, 2))]) == 2
    assert span_dim([(0, 0), (0, 0)]) == 0
    # a sequence row fixes the width for the mapping rows after it
    assert span_dim([(1, 0, 0), {1: 1}, {0: 2, 1: Fraction(3, 2)}]) == 2
    assert span_dim([(1, 0, 0), {2: 1}, {0: 1, 1: 5}]) == 3
    assert span_dim([{0: 1}, {2: 5}, {0: 2, 2: 10}], 3) == 2
    with pytest.raises(ValueError):
        span_dim([{0: 1}, (1, 0)])  # a mapping first needs `dim`
    with pytest.raises(ValueError):
        span_dim([(1, 0, 0), {3: 1}])  # column 3 of a width-3 matrix
    with pytest.raises(ValueError):
        span_dim([(1, 0), (1, 0, 0)])


def test_sparse_matrix_equality_is_on_shape_and_entries():
    base = SparseMatrix(2, 3, {(0, 0): Fraction(1), (1, 2): Fraction(-2)})
    assert base == SparseMatrix(2, 3, {(1, 2): Fraction(-2), (0, 0): Fraction(1)})
    assert base != SparseMatrix(3, 3, base.entries)
    assert base != SparseMatrix(2, 4, base.entries)
    assert base != SparseMatrix(2, 3, {(0, 0): Fraction(1), (1, 2): Fraction(2)})
    assert base != SparseMatrix(2, 3, {(0, 0): Fraction(1)})
    # int entries are stored as Fractions and zeros are dropped
    assert SparseMatrix.from_rows([[1, 0, 0], [0, 0, -2]]) == base
    assert SparseMatrix(2, 3, {(0, 0): 1, (0, 1): 0, (1, 2): -2}) == base
    assert base != dict(base.entries) and not base == dict(base.entries)
    assert SparseMatrix(0, 0) == SparseMatrix.from_rows([])
