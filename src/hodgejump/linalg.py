"""Exact linear algebra over Q(i) and over fraction fields of polynomial rings.

Matrices are sparse: ``ExactMatrix`` keeps the nonzeros of each row, all
GaussianRational or all Poly (over one shared parameter tuple), and its
products, applications and evaluations touch nonzeros only.

Over Q(i) there is one elimination routine: ``Echelon``, the reduced row
echelon form of a span, kept as sparse rows and grown one row at a time.
Rank, kernel, solve, pivot columns, cohomology and its coordinate
projection all go through it, fed a matrix's stored rows.  The reduced
form of a span is unique, so these canonical outputs do not depend on the
order rows arrive in.

Over polynomial entries ranks and pivot columns come from fraction-free
(Bareiss) elimination and kernels from Cramer-style minors of its echelon
form, so every intermediate value stays polynomial.  Pivots are always the
first nonzero column, which makes every output deterministic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .coeff import GR_ONE, GR_ZERO, GaussianRational, Poly, accumulate

__all__ = [
    "ExactMatrix",
    "CohomologyBasis",
    "Echelon",
    "LinalgError",
    "kernel_basis",
    "kernel_basis_const",
    "cohomology",
    "generic_rank",
    "pivot_columns",
    "rank_const",
    "solve_const",
    "specialized_rank",
]


class LinalgError(ValueError):
    pass


# row types built inside the package, so they skip the ABC instance check
_SPARSE_TYPES = {dict: True, MappingProxyType: True, list: False, tuple: False}


def _is_sparse(v) -> bool:
    """True for a sparse vector (a Mapping), False for a dense sequence."""
    known = _SPARSE_TYPES.get(type(v))
    return isinstance(v, Mapping) if known is None else known


def _items(v, n: int):
    """(index, value) pairs of a length-n vector given dense or sparse."""
    if _is_sparse(v):
        if v and not (min(v) >= 0 and max(v) < n):
            raise LinalgError("inconsistent matrix shape")
        return v.items()
    if len(v) != n:
        raise LinalgError("inconsistent matrix shape")
    return enumerate(v)


def _sparse(v) -> dict[int, GaussianRational]:
    if _is_sparse(v):
        return v
    return {j: GaussianRational._coerce(x) for j, x in enumerate(v) if x}


def _dense(row, width: int, zero=GR_ZERO) -> list:
    out = [zero] * width
    for j, x in row.items():
        out[j] = x
    return out


class ExactMatrix:
    """Immutable sparse matrix with exact entries (GaussianRational or Poly).

    Built from rows given dense (lists) or sparse (dicts); ``sparse_rows``
    holds one read-only ``{column: value}`` mapping of each row's nonzeros.
    A matrix is polynomial when an entry it was built from is a Poly, zeros
    included; its gaps then read as the zero Poly, else as GR_ZERO.
    ``entries`` (row tuples, for rendering) and ``sparse_columns`` are
    derived on each use.
    """

    __slots__ = ("rows", "cols", "sparse_rows", "_zero")

    def __init__(self, rows: int, cols: int, entries):
        if len(entries) != rows:
            raise LinalgError("inconsistent matrix shape")
        zero = GR_ZERO
        sparse = []
        for row in entries:
            out = {}
            for j, x in _items(row, cols):
                if isinstance(x, Poly):
                    if zero is GR_ZERO:
                        zero = Poly(x.params)
                elif not isinstance(x, GaussianRational):
                    x = GaussianRational._coerce(x)
                if x:
                    out[j] = x
            sparse.append(MappingProxyType(out))
        for name, value in (("rows", rows), ("cols", cols), ("sparse_rows", tuple(sparse)),
                            ("_zero", zero)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [{}] * rows)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [{i: GR_ONE} for i in range(n)])

    @classmethod
    def from_columns(cls, rows: int, columns) -> "ExactMatrix":
        """Matrix with the given columns, each dense (a list) or sparse (a dict)."""
        out = [{} for _ in range(rows)]
        j = -1
        for j, col in enumerate(columns):
            for i, x in _items(col, rows):
                out[i][j] = x
        return cls(rows, j + 1, out)

    # -- basics ------------------------------------------------------

    def is_polynomial(self) -> bool:
        return self._zero is not GR_ZERO

    @property
    def entries(self) -> tuple:
        """Dense view: row tuples with gaps filled by the matrix's zero."""
        return tuple(tuple(_dense(row, self.cols, self._zero)) for row in self.sparse_rows)

    @property
    def sparse_columns(self) -> tuple:
        """One read-only ``{row: value}`` mapping of nonzeros per column."""
        return ExactMatrix.from_columns(self.cols, self.sparse_rows).sparse_rows

    def column(self, j: int) -> list:
        return [row.get(j, self._zero) for row in self.sparse_rows]

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in matmul")
        out = []
        for row in self.sparse_rows:
            acc = {}
            for k, v in row.items():
                for j, w in other.sparse_rows[k].items():
                    accumulate(acc, j, v * w)
            out.append(acc)
        return ExactMatrix(self.rows, other.cols, out)

    def apply(self, vector: list) -> list:
        if len(vector) != self.cols:
            raise LinalgError("vector length mismatch")
        return [sum((v * vector[k] for k, v in row.items() if vector[k]), GR_ZERO)
                for row in self.sparse_rows]

    def eval_point(self, point: dict) -> "ExactMatrix":
        """Specialize polynomial entries at a parameter point."""
        return ExactMatrix(self.rows, self.cols, [
            {j: x.eval(point) if isinstance(x, Poly) else x for j, x in row.items()}
            for row in self.sparse_rows
        ])

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        # one mapping per row, so equal rows tuples mean equal row counts
        return self.cols == other.cols and self.sparse_rows == other.sparse_rows

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self.entries) + "]"

    __repr__ = __str__


# -- elimination over Q(i) ----------------------------------------------

def _axpy(acc: dict, f: GaussianRational, row: dict) -> None:
    """acc += f * row in place, dropping entries that cancel."""
    for j, x in row.items():
        accumulate(acc, j, f * x)


def _monic(row: dict) -> dict:
    """Scale a nonzero sparse row so its leading coefficient is 1."""
    lead = row[min(row)]
    if lead == GR_ONE:
        return row
    inv = lead.inv()
    return {j: x * inv for j, x in row.items()}


class Echelon:
    """Reduced row echelon form over Q(i) of a span, grown one row at a time.

    Rows are sparse ``{column: value}`` dicts with leading coefficient 1,
    keyed by pivot column and kept fully reduced: a row is zero in every
    other row's pivot column.  The reduced echelon form of a span is
    unique, so every result is independent of insertion order.  Vectors
    may be given dense (lists) or sparse (dicts).  ``freeze`` makes the
    span read-only, so a cached echelon can be shared.
    """

    __slots__ = ("_width", "_rows")

    def __init__(self, width: int, vectors=()):
        self._width = width
        self._rows: dict[int, dict[int, GaussianRational]] = {}
        for v in vectors:
            self.add(v)

    @property
    def width(self) -> int:
        return self._width

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def rows(self) -> list[list[GaussianRational]]:
        """Dense rows in pivot order."""
        return [_dense(self._rows[c], self.width) for c in self.pivots]

    def residue(self, v) -> dict[int, GaussianRational]:
        """Sparse remainder of v after reduction against the span."""
        v = _sparse(v)
        out = dict(v)
        # rows are zero in each other's pivots, so v's own entries there
        # are the multipliers
        for c, f in v.items():
            row = self._rows.get(c)
            if row is not None:
                _axpy(out, -f, row)
        return out

    def add(self, v) -> bool:
        """Insert v; True if it enlarged the span."""
        if isinstance(self._rows, MappingProxyType):
            raise TypeError("a frozen Echelon cannot grow")
        r = self.residue(v)
        if not r:
            return False
        r = _monic(r)
        lead = min(r)
        for row in self._rows.values():
            f = row.get(lead)
            if f is not None:
                _axpy(row, -f, r)
        self._rows[lead] = r
        return True

    def freeze(self) -> "Echelon":
        """Make the span read-only, so ``add`` raises TypeError; returns self."""
        self._rows = MappingProxyType(self._rows)
        return self

    def kernel(self) -> list[list[GaussianRational]]:
        """Canonical right-kernel basis of the rows: one vector per free column."""
        return [_dense(v, self._width) for v in self._kernel()]

    def _kernel(self) -> list[dict[int, GaussianRational]]:
        """``kernel`` as sparse vectors."""
        free = {f: {f: GR_ONE} for f in range(self._width) if f not in self._rows}
        for c, row in self._rows.items():
            # a reduced row is zero in every other pivot column
            for f, x in row.items():
                if f != c:
                    free[f][c] = -x
        return list(free.values())

    def solution(self) -> list[GaussianRational] | None:
        """x with A x = b for rows [A | b], b the last column; free
        variables 0.  None when b's column holds a pivot (inconsistent)."""
        n = self._width - 1
        if n in self._rows:
            return None
        return _dense({c: row[n] for c, row in self._rows.items() if n in row}, n)


def rank_const(m: ExactMatrix) -> int:
    if m.is_polynomial():
        raise LinalgError("rank_const on polynomial matrix; use generic_rank")
    return Echelon(m.cols, m.sparse_rows).rank


def kernel_basis_const(m: ExactMatrix) -> list[list[GaussianRational]]:
    """Canonical right-kernel basis over Q(i): one vector per free column."""
    return Echelon(m.cols, m.sparse_rows).kernel()


def solve_const(m: ExactMatrix, rhs: list) -> list | None:
    """One exact solution of m x = rhs over Q(i), or None; free variables 0."""
    if len(rhs) != m.rows:
        raise LinalgError("rhs length mismatch")
    n = m.cols
    return Echelon(n + 1, ({**row, n: b} if b else row for row, b in zip(
        m.sparse_rows, map(GaussianRational._coerce, rhs)))).solution()


def pivot_columns(m: ExactMatrix) -> list[int]:
    """Columns outside the span of the columns before them, in order."""
    if not m.is_polynomial():
        return Echelon(m.cols, m.sparse_rows).pivots
    return _bareiss(_poly_entries(m))[1]


# -- fraction-free elimination over polynomial entries -------------------

def _poly_entries(m: ExactMatrix) -> list[list[Poly]]:
    """Entries of a polynomial matrix, constants lifted."""
    return [[x if isinstance(x, Poly) else Poly.constant(m._zero.params, x) for x in row]
            for row in m.entries]


def _poly_exact_div(num: Poly, den: Poly) -> Poly:
    """Exact division of multivariate polynomials; raises if not divisible."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    params = num.params
    quot = Poly(params)
    rem = num
    dl_exps, dl_c = max(den.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    while rem:
        rl_exps, rl_c = max(rem.terms.items(), key=lambda t: (sum(t[0]), t[0]))
        diff = tuple(a - b for a, b in zip(rl_exps, dl_exps))
        if any(d < 0 for d in diff):
            raise LinalgError("inexact polynomial division")
        t = Poly(params, {diff: rl_c / dl_c})
        quot = quot + t
        rem = rem - t * den
    return quot


def _bareiss(entries: list[list[Poly]]):
    """Fraction-free row echelon form.

    Returns (echelon rows, pivot columns).  Row order is preserved except
    for the swaps needed to bring a nonzero pivot up; pivots are chosen as
    the first nonzero entry in column order, so the result is deterministic.
    """
    rows = [list(r) for r in entries]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    prev = None
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            if all(not x for x in rows[i]):
                continue
            new_row = []
            for j in range(ncols):
                val = piv * rows[i][j] - rows[i][c] * rows[r][j]
                if prev is not None:
                    val = _poly_exact_div(val, prev)
                new_row.append(val)
            rows[i] = new_row
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def generic_rank(m: ExactMatrix) -> int:
    """Rank over the fraction field of the polynomial ring."""
    return len(pivot_columns(m))


def specialized_rank(m: ExactMatrix, point: dict) -> int:
    """Rank after exact evaluation at a parameter point."""
    return rank_const(m.eval_point(point))


def _det_poly(entries: list[list[Poly]]) -> Poly:
    """Determinant by cofactor expansion; sizes here are small."""
    n = len(entries)
    params = entries[0][0].params
    if n == 1:
        return entries[0][0]
    det = Poly(params)
    for j in range(n):
        if not entries[0][j]:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in entries[1:]]
        term = entries[0][j] * _det_poly(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def kernel_basis(m: ExactMatrix) -> list[list]:
    """Right-kernel basis over the entry field.

    Constant matrices get the canonical RREF kernel.  Polynomial matrices
    get polynomial vectors (Cramer minors of the echelon form), a basis of
    the kernel over the fraction field.
    """
    if not m.is_polynomial():
        return kernel_basis_const(m)
    ech, pivots = _bareiss(_poly_entries(m))
    r = len(pivots)
    pivot_block = [[ech[i][pivots[j]] for j in range(r)] for i in range(r)]
    det = _det_poly(pivot_block) if r else Poly.constant(m._zero.params, 1)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [m._zero] * m.cols
        v[f] = det
        for k in range(r):
            col = [[ech[i][pivots[j]] if j != k else ech[i][f] for j in range(r)] for i in range(r)]
            v[pivots[k]] = -_det_poly(col)
        basis.append(v)
    return basis


# -- cohomology of a two-step complex over Q(i) ---------------------------

@dataclass(frozen=True)
class CohomologyBasis:
    """Basis of Ker(d_out)/Im(d_in) with a coordinate projection.

    ``representatives`` are canonical vectors in the ambient space; the
    projection sends any d_out-closed vector to its coordinates in this
    basis, killing the image of d_in.  ``coords`` holds each vector b_k of
    [representatives | image basis] as the row (b_k | e_k), so a closed
    vector v reduces to (0 | -coordinates of v) in one residue.  Frozen,
    with tuple representatives, so a cached basis can be shared.
    """

    dim: int
    representatives: tuple[tuple[GaussianRational, ...], ...]
    d_out: ExactMatrix = field(repr=False)
    coords: Echelon = field(repr=False)
    label: str = ""

    def project(self, vector: list) -> list[GaussianRational]:
        vec = [GaussianRational._coerce(x) for x in vector]
        n = self.coords.width - self.coords.rank  # one tag column per row
        if len(vec) != n:
            raise LinalgError("projection: vector length mismatch")
        if self.d_out.rows and any(self.d_out.apply(vec)):
            raise LinalgError("projection of a non-closed vector")
        r = self.coords.residue(vec)
        if any(j < n for j in r):
            raise LinalgError("projection: vector outside kernel+image")
        return [-r[n + k] if n + k in r else GR_ZERO for k in range(self.dim)]


def cohomology(d_in: ExactMatrix, d_out: ExactMatrix, label: str = "") -> CohomologyBasis:
    """Cohomology at the middle of  . --d_in--> . --d_out--> .  over Q(i)."""
    if d_in.is_polynomial() or d_out.is_polynomial():
        raise LinalgError("cohomology expects constant matrices")
    if d_in.cols and d_out.rows and d_in.rows != d_out.cols:
        raise LinalgError("chain shape mismatch")
    n = d_out.cols if d_out.cols else d_in.rows
    # composition must vanish
    if d_in.cols and d_out.rows:
        bad = [j for row in d_out.matmul(d_in).sparse_rows for j in row]
        if bad:
            raise LinalgError(f"d_out . d_in nonzero on column {min(bad)}")

    # kernel vectors, representatives and image basis stay sparse
    ker = Echelon(d_out.cols if d_out.rows else n, d_out.sparse_rows)._kernel()
    span = Echelon(n, d_in.sparse_columns)
    image_basis = [dict(span._rows[c]) for c in span.pivots]
    reps: list[dict[int, GaussianRational]] = []
    for v in ker:
        r = span.residue(v)
        if r:
            r = _monic(r)
            reps.append(r)
            span.add(r)

    coords = Echelon(n + len(reps) + len(image_basis), (
        {**b, n + k: GR_ONE} for k, b in enumerate(reps + image_basis)
    )).freeze()
    return CohomologyBasis(dim=len(reps), representatives=tuple(tuple(_dense(r, n)) for r in reps),
                           d_out=d_out, coords=coords, label=label)
