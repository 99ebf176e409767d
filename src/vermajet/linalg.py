"""Exact sparse linear algebra over the rationals.

Rank, reduced row echelon form, kernels and span dimensions with
arbitrary-precision arithmetic; every dimension claim in the package
reduces to a rank computed here, with no floating point and no tolerance.

All elimination runs in one `Echelon` of integer rows, each primitive (its
entries share no common factor) with a positive pivot.  An added `int` row
enters as it is; a row holding a `Fraction` is cleared of denominators (and
made primitive) on entry.  It is reduced fraction-free against the pivots in
increasing column order, and its content is removed once, when it is stored
as a pivot row (a gcd of its values, signed by the pivot entry); a stored
row's entries are in no particular column order.  Back-substitution runs
only when the reduced form or a kernel is asked for.  The reduced form is
unique, and `Echelon.canonical_rows` and `Echelon.kernel` (built on it) are
its only read-off, each row scaled to 1 at its pivot with canonical entries;
`rref` and `kernel_basis` use them too, so no other module sees the rows.

`canonical` and `canonical_values` keep a coefficient an `int` when it is
integral and a `Fraction` only when it is not; polynomials, Lie algebra
elements and module vectors all store that form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse rational matrix; absent entries are zero."""

    rows: int
    cols: int
    entries: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        clean: dict[tuple[int, int], Fraction] = {}
        for (r, c), value in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r},{c}) outside {self.rows}x{self.cols} matrix")
            v = Fraction(value)
            if v:
                clean[(r, c)] = v
        object.__setattr__(self, "entries", clean)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            dict(self.entries) == dict(other.entries)


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


def primitive_integers(values: Sequence[int | Fraction], lead: int) -> list[int]:
    """`values` scaled by one rational factor to integers with no common
    factor and values[lead] > 0; each caller picks its sign convention
    through `lead`.  All-zero input comes back as zeros."""
    if _all_int(values):
        ints = list(values)
    else:
        denom = lcm(*[v.denominator for v in values])
        ints = [v.numerator * (denom // v.denominator) for v in values]
    content = gcd(*ints)
    if content and ints[lead] < 0:
        content = -content
    return ints if content in (0, 1) else [c // content for c in ints]


def _primitive_row(row: Mapping[int, int | Fraction]) -> dict[int, int]:
    # The nonzero entries as primitive integers, positive at the leftmost column.
    cols = sorted(c for c, v in row.items() if v)
    return dict(zip(cols, primitive_integers([row[c] for c in cols], 0)))


def _store_primitive(row: dict[int, int], col: int) -> dict[int, int]:
    # The integer row divided by its content, positive at its pivot `col`.
    content = gcd(*row.values())
    if row[col] < 0:
        content = -content
    if content == 1:
        return row
    return {c: v // content for c, v in row.items()}


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
        if _all_int(row.values()):
            work = {c: v for c, v in row.items() if v}
        else:
            work = _primitive_row(row)
        rows = self._rows
        while work:
            col = min(work)
            pivot_row = rows.get(col)
            if pivot_row is None:
                rows[col] = _store_primitive(work, col)
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
                    rows[col] = _store_primitive(row, col)
            self._reduced = True
        return [rows[c] for c in pivots]

    def canonical_rows(self) -> Iterator[tuple[int, dict[int, int | Fraction]]]:
        """(pivot, row) of the reduced form in pivot order, each row a new
        dict scaled to 1 at its pivot with canonical entries; lazy, so a
        caller that stops early converts no later row."""
        for col, row in zip(self.pivots, self.reduced()):
            scale = row[col]
            yield col, dict(row) if scale == 1 else {
                c: v // scale if v % scale == 0 else Fraction(v, scale) for c, v in row.items()}

    def kernel(self) -> list[dict[int, int | Fraction]]:
        """Basis of {x : M x = 0}, one sparse vector per free column c in
        increasing c, where M has the added rows: {c: 1, p: -row_p[c]} over
        the pivots p.  At full column rank the kernel is zero and no
        back-substitution runs."""
        if self.rank == self.cols:
            return []
        vectors = {c: {c: 1} for c in range(self.cols) if c not in self._rows}
        for p, row in self.canonical_rows():
            for c, v in row.items():
                if c != p:
                    vectors[c][p] = -v
        return list(vectors.values())


class RrefResult(NamedTuple):
    rank: int
    pivots: list[int]
    reduced: SparseMatrix
    echelon: Echelon


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
    return RrefResult(echelon.rank, echelon.pivots, reduced, echelon)


def rank(matrix: SparseMatrix) -> int:
    return _echelon(matrix.row_dicts(), matrix.cols).rank


def kernel_basis(matrix: SparseMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of {x : M x = 0}; one dense vector per free column of the
    rref, 1 at that column."""
    return [tuple(Fraction(vector.get(c, 0)) for c in range(matrix.cols))
            for vector in rref(matrix).echelon.kernel()]


def _rows_matrix(vectors: Sequence[Union[Sequence[int | Fraction], Mapping[int, int | Fraction]]],
                 dim: int | None) -> SparseMatrix:
    if not vectors:
        return SparseMatrix(0, dim or 0, {})
    if dim is None:
        first = vectors[0]
        if isinstance(first, Mapping):
            raise ValueError("dim is required when vectors are mappings")
        dim = len(first)
    return SparseMatrix.from_rows(vectors, cols=dim)


def span_dim(vectors: Sequence[Union[Sequence[int | Fraction], Mapping[int, int | Fraction]]],
             dim: int | None = None) -> int:
    """Dimension of the span of the given vectors."""
    return rank(_rows_matrix(vectors, dim))
