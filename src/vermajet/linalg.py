"""Exact sparse linear algebra over the rationals.

Rank, reduced row echelon form, kernels and span dimensions with
arbitrary-precision arithmetic; every dimension claim in the package
reduces to a rank computed here, with no floating point and no tolerance.

All elimination runs in one `Echelon` of integer rows, each primitive (its
entries share no common factor) with a positive pivot.  An added `int` row
enters as it is; a row holding a `Fraction` is made primitive on entry.  It
is reduced fraction-free against the pivots in increasing column order, and
its content is removed once, when it is stored as a pivot row; a stored
row's entries are in no particular column order.  `primitive` is the one
content normalizer, of these rows, of eliminants and of coefficient lists.
Back-substitution runs only when the reduced form or a kernel is asked for.
The reduced form is unique, and `Echelon.integer_readoff` is its one
read-off: the primitive rows and the kernel scaled to integers, with no
`Fraction`; `canonical_rows` (1 at each pivot) and `kernel` (1 at each free
column) are built on it, and `rref` and `kernel_basis` on them.
`Echelon.echelon_rows` reads the stored rows as they stand, a row-space
basis with no back-substitution.

`canonical` and `canonical_values` keep a coefficient an `int` when it is
integral and a `Fraction` only when it is not; polynomials, Lie algebra
elements and module vectors all store that form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union


class SparseMatrix:
    """Immutable sparse rational matrix; absent entries are zero.  Equal
    matrices agree in rows, cols and entries; fields cannot be assigned."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], int | Fraction] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        clean: dict[tuple[int, int], Fraction] = {}
        for (r, c), value in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols} matrix")
            v = Fraction(value)
            if v:
                clean[(r, c)] = v
        for name, value in zip(self.__slots__, (rows, cols, clean)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self):
        return f"SparseMatrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    @staticmethod
    def from_rows(rows: Iterable[Union[Sequence[int | Fraction], Mapping[int, int | Fraction]]],
                  cols: int | None = None) -> "SparseMatrix":
        """Build a matrix from an iterable of rows (sequences or column maps);
        the constructor converts and bounds-checks the entries."""
        entries: dict[tuple[int, int], int | Fraction] = {}
        width = cols
        count = 0
        for r, row in enumerate(rows):
            count += 1
            if isinstance(row, Mapping):
                items = row.items()
                if width is None:
                    raise ValueError("cols is required when rows are mappings")
            else:
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ValueError("rows have inconsistent lengths")
                items = enumerate(row)
            entries.update(((r, c), value) for c, value in items if value)
        return SparseMatrix(count, 0 if width is None else width, entries)

    def row_dicts(self) -> list[dict[int, Fraction]]:
        out: list[dict[int, Fraction]] = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out


def _all_int(values: Iterable) -> bool:
    # isinstance(v, int) for every value, with no Python-level loop.
    return all(map(int.__instancecheck__, values))


def canonical(value: int | Fraction) -> int | Fraction:
    """The value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def canonical_values(coeffs: dict) -> dict:
    """`coeffs` with its integral Fraction values made ints, in place."""
    for key, v in coeffs.items():
        if type(v) is not int and v.denominator == 1:
            coeffs[key] = v.numerator
    return coeffs


def primitive(values: Mapping, lead) -> dict[object, int]:
    """`values` scaled by one rational factor to integers with no common
    factor, positive at key `lead`; zeros stay zeros, and all-zero or empty
    input comes back as it is.  A dict of ints already in that form is
    returned itself, not copied."""
    try:
        ints, content = values, gcd(*values.values())
    except TypeError:  # a Fraction among the values: clear the denominators
        denom = lcm(*[v.denominator for v in values.values()])
        ints = {k: v.numerator * (denom // v.denominator) for k, v in values.items()}
        content = gcd(*ints.values())
    if content and ints[lead] < 0:
        content = -content
    return ints if content in (0, 1) else {k: v // content for k, v in ints.items()}


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> None:
    # row <- a*row - b*pivot_row with the smallest a > 0 clearing `col`.
    a, b = pivot_row[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in pivot_row.items():
        new = row.get(c, 0) - b * v
        if new:
            row[c] = new
        else:
            del row[c]


class Echelon:
    """Row echelon form over the integers, grown one row at a time.

    Rows are kept by pivot column (their leftmost nonzero column); each is
    primitive with a positive pivot entry.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self._rows: dict[int, dict[int, int]] = {}
        self._reduced = True

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def add(self, row: Mapping[int, int | Fraction]) -> bool:
        """Reduce `row` against the pivots in increasing column order; keep
        it and return True when it leaves a new pivot."""
        work = {c: v for c, v in row.items() if v}
        if not _all_int(work.values()):
            work = primitive(work, min(work))  # any nonzero scale stores the same row
        rows = self._rows
        while work:
            col = min(work)
            pivot_row = rows.get(col)
            if pivot_row is None:
                rows[col] = primitive(work, col)
                self._reduced = False
                return True
            if len(pivot_row) == 1:
                del work[col]  # the pivot row is {col: 1}
            else:
                _eliminate(work, pivot_row, col)
        return False

    def reduced(self) -> list[dict[int, int]]:
        """The primitive-integer reduced row echelon form, in pivot order;
        back-substitutes on the first call after a new pivot."""
        rows = self._rows
        pivots = sorted(rows)
        if not self._reduced:
            for col in reversed(pivots):
                row = rows[col]
                targets = [c for c in row if c != col and c in rows]
                for c in targets:
                    _eliminate(row, rows[c], c)
                if targets:
                    rows[col] = primitive(row, col)
            self._reduced = True
        return [rows[c] for c in pivots]

    def echelon_rows(self) -> list[dict[int, int]]:
        """The stored rows (read-only) in pivot order; no normal form is promised."""
        return [self._rows[c] for c in self.pivots]

    def integer_readoff(self) -> tuple[list[tuple[int, dict[int, int]]], Iterator[dict[int, int]]]:
        """(pivot, row) of the primitive reduced rows in pivot order (read-only),
        and a lazy kernel basis, one vector per free column c in increasing c:
        L at c, -row_p[c] * L / row_p[p] at each pivot p whose row holds c, L
        the lcm of those row_p[p].  Full column rank gives the identity rows."""
        if self.rank == self.cols:
            return [(c, {c: 1}) for c in range(self.cols)], iter(())
        rows = list(zip(self.pivots, self.reduced()))
        return rows, self._integer_kernel(rows)

    def _integer_kernel(self, rows: list[tuple[int, dict[int, int]]]) -> Iterator[dict[int, int]]:
        scales = dict.fromkeys(range(self.cols), 1)
        for p, row in rows:
            scales.update({c: lcm(scales[c], row[p]) for c in row})
        vectors = {c: {c: scale} for c, scale in scales.items() if c not in self._rows}
        for p, row in rows:
            for c, v in row.items():
                if c != p:
                    vectors[c][p] = -v * (scales[c] // row[p])
        yield from vectors.values()

    def canonical_rows(self) -> Iterator[tuple[int, dict[int, int | Fraction]]]:
        """(pivot, row) of the reduced form in pivot order, each row a new dict,
        1 at its pivot with canonical entries; lazy: stopping early converts no later row."""
        for col, row in self.integer_readoff()[0]:
            yield col, _divided(row, row[col])

    def kernel(self) -> list[dict[int, int | Fraction]]:
        """Basis of {x : M x = 0}, M the added rows: one vector per free column c
        in increasing c, {c: 1, p: -row_p[c]} over the canonical rows' pivots p."""
        return [_divided(vector, vector[max(vector)]) for vector in self.integer_readoff()[1]]


def _divided(row: Mapping[int, int], scale: int) -> dict[int, int | Fraction]:
    # A new dict of row / scale with canonical entries.
    return dict(row) if scale == 1 else {
        c: v // scale if v % scale == 0 else Fraction(v, scale) for c, v in row.items()}


class RrefResult(NamedTuple):
    rank: int
    pivots: list[int]
    reduced: SparseMatrix


def _echelon(rows: Iterable[Mapping[int, int | Fraction]], cols: int) -> Echelon:
    echelon = Echelon(cols)
    for row in rows:
        echelon.add(row)
    return echelon


def rref(matrix: SparseMatrix) -> RrefResult:
    """Unique reduced row echelon form, with rank and pivot columns."""
    echelon = _echelon(matrix.row_dicts(), matrix.cols)
    entries = {(i, c): v for i, (_, row) in enumerate(echelon.canonical_rows())
               for c, v in row.items()}
    reduced = SparseMatrix(matrix.rows, matrix.cols, entries)
    return RrefResult(echelon.rank, echelon.pivots, reduced)


def rank(matrix: SparseMatrix) -> int:
    return _echelon(matrix.row_dicts(), matrix.cols).rank


def kernel_basis(matrix: SparseMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of {x : M x = 0}; one dense vector per free column of the
    rref, 1 at that column."""
    return [tuple(Fraction(vector.get(c, 0)) for c in range(matrix.cols))
            for vector in _echelon(matrix.row_dicts(), matrix.cols).kernel()]


def span_dim(vectors: Sequence[Union[Sequence[int | Fraction], Mapping[int, int | Fraction]]],
             dim: int | None = None) -> int:
    """Dimension of the span of the given vectors."""
    return rank(SparseMatrix.from_rows(vectors, dim))
