"""Exact linear algebra over Q(i) and over fraction fields of polynomial rings.

Matrices are sparse: ``ExactMatrix`` keeps the nonzeros of each row, all
GaussianRational or all Poly (over one shared parameter tuple), and its
products, applications and evaluations touch nonzeros only.

Over Q(i) there is one elimination routine: ``Echelon``, the reduced row
echelon form of a span, kept as sparse rows and grown one row at a time.
It indexes its rows by column, so a new row updates only the rows that
hold its leading column.  Kernel, solve, pivot columns, cohomology and
its coordinate projection all go through it, fed a matrix's stored rows.
The reduced form of a span is unique, so these canonical outputs do not
depend on the order rows arrive in.  A rank needs no canonical form:
``rank_const`` first peels row and column singletons, each a pivot with
no arithmetic since stored entries are never zero, and hands ``Echelon``
only the core that peeling leaves (see ``_peel``).  Cohomology
representatives stay sparse too; their dense view is derived on use.
``cohomology`` and ``cohomology_dim`` check d_out . d_in = 0 by forming
the product; their private cores skip it for a caller that knows the pair
is a complex (``deform.Dolbeault``, after d.d = 0 on a spec's generators).

Over polynomial entries there is one fraction-free (Bareiss) elimination,
run on the sparse rows.  Ranks and pivot columns come from it, and kernels
by back substitution on its upper-triangular pivot block with exact
divisions, so every intermediate value stays polynomial.  Pivots are
always the first nonzero column, which makes every output deterministic.

A matrix's pivot columns and its rank are computed once per matrix and
held by it, and a rank is read off known pivots, so ``pivot_columns``,
``generic_rank`` and ``rank_const`` eliminate a given matrix once; the
exception is a matrix that peeling shrinks to a nonempty core and that is
later asked for its pivots.  A Q(i) matrix also holds its solver, built
on the first ``solve_const``: the frozen echelon of its pivot columns,
each tagged with a unit vector, so every solve after the first is one
sparse reduction of the right-hand side and no elimination.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import compress
from types import MappingProxyType

from .coeff import GR_ONE, GR_ZERO, GaussianRational, Poly, _Immutable, accumulate

__all__ = [
    "ExactMatrix",
    "CohomologyBasis",
    "Echelon",
    "LinalgError",
    "kernel_basis",
    "kernel_basis_const",
    "cohomology",
    "cohomology_dim",
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


def _sparse(v) -> Mapping[int, GaussianRational]:
    """v's nonzeros as an ``{index: value}`` mapping, v dense or sparse; a
    mapping without zero values is returned as it is."""
    if _is_sparse(v):
        return v if all(v.values()) else {j: x for j, x in v.items() if x}
    return {j: GaussianRational._coerce(x) for j, x in enumerate(v) if x}


_EMPTY_ROW = MappingProxyType({})


def _dense(row, width: int, zero=GR_ZERO) -> list:
    out = [zero] * width
    for j, x in row.items():
        out[j] = x
    return out


class ExactMatrix(_Immutable):
    """Immutable sparse matrix with exact entries (GaussianRational or Poly).

    Built from rows given dense (lists) or sparse (dicts); ``sparse_rows``
    holds one read-only ``{column: value}`` mapping of each row's nonzeros.
    A matrix is polynomial when an entry it was built from is a Poly, zeros
    included; its gaps then read as the zero Poly, else as GR_ZERO.
    ``entries`` (row tuples, for rendering) and ``sparse_columns`` are
    derived on each use.  ``_pivots`` holds the pivot columns once
    ``pivot_columns`` has computed them, ``_rank`` the rank once
    ``rank_const`` has peeled it, and ``_solver`` the echelon of
    ``solve_const`` once it has run: pure functions of the rows, so they
    take no part in ``==``, ``hash`` or ``repr``.
    """

    __slots__ = ("rows", "cols", "sparse_rows", "_zero", "_pivots", "_rank", "_solver")

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
                            ("_zero", zero), ("_pivots", None), ("_rank", None), ("_solver", None)):
            object.__setattr__(self, name, value)

    # -- constructors ------------------------------------------------

    @classmethod
    def _trusted(cls, cols: int, rows, nrows: int | None = None) -> "ExactMatrix":
        """A Q(i) matrix from sparse rows the package built: dicts of nonzero
        GaussianRational values at in-range columns, given as a list, or
        with ``nrows`` as an ``{index: row}`` dict that leaves out rows known
        to be empty (they share one empty mapping).  The checks and
        coercions of ``__init__`` are skipped, so Poly or Jet values must
        never come this way."""
        if nrows is None:
            sparse = tuple(map(MappingProxyType, rows))
        else:
            out = [_EMPTY_ROW] * nrows
            for i, row in rows.items():
                out[i] = MappingProxyType(row)
            sparse = tuple(out)
        m = object.__new__(cls)
        for name, value in (("rows", len(sparse)), ("cols", cols), ("sparse_rows", sparse),
                            ("_zero", GR_ZERO), ("_pivots", None), ("_rank", None),
                            ("_solver", None)):
            object.__setattr__(m, name, value)
        return m

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
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, x in row.items():
                out[j][i] = x
        return tuple(map(MappingProxyType, out))

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
        if self.is_polynomial() or other.is_polynomial():
            return ExactMatrix(self.rows, other.cols, out)
        return ExactMatrix._trusted(other.cols, out)

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


class Echelon:
    """Reduced row echelon form over Q(i) of a span, grown one row at a time.

    Rows are sparse ``{column: value}`` dicts with leading coefficient 1,
    keyed by pivot column and kept fully reduced: a row is zero in every
    other row's pivot column.  A column index maps each column to the
    pivots of the rows that are nonzero there, so ``add`` reduces only the
    rows that hold the new row's leading column and keeps the index in
    step inside that update (T. A. Davis, *Direct Methods for Sparse Linear
    Systems*, SIAM 2006, ch. 2-3).  The reduced echelon form of a span is
    unique, so every result is independent of insertion order.  Vectors
    may be given dense (lists) or sparse (dicts); empty ones are skipped.
    ``freeze`` makes the span read-only, so a cached echelon can be shared.
    """

    __slots__ = ("_width", "_rows", "_cols")

    def __init__(self, width: int, vectors=()):
        self._width = width
        self._rows: dict[int, dict[int, GaussianRational]] = {}
        # column -> pivots of the rows nonzero in it; None once frozen
        self._cols: dict[int, set[int]] | None = {}
        for v in vectors:
            if v:
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
        if self._cols is None:
            raise TypeError("a frozen Echelon cannot grow")
        r = self.residue(v)
        if not r:
            return False
        self._insert(r)
        return True

    def _insert(self, r: dict) -> dict:
        """Insert a nonzero row already reduced against the span.

        The row is scaled to leading coefficient 1 and stored; the stored
        row, which later inserts update in place, is returned (``r``
        itself when it already leads with 1).
        """
        cols = self._cols
        lead = min(r)
        head = r[lead]
        if head != GR_ONE:
            inv = head.inv()
            r = {j: x * inv for j, x in r.items()}
        rest = [(j, x) for j, x in r.items() if j != lead]
        for j, _ in rest:
            cols.setdefault(j, set()).add(lead)
        for c in cols.get(lead, ()):
            # row -= row[lead] * r: lead cancels, other columns may fill or cancel
            row = self._rows[c]
            f = -row.pop(lead)
            for j, x in rest:
                old = row.get(j)
                if old is None:
                    row[j] = f * x
                    cols[j].add(c)
                else:
                    s = old + f * x
                    if s:
                        row[j] = s
                    else:
                        del row[j]
                        cols[j].discard(c)
        cols[lead] = {lead}
        self._rows[lead] = r
        return r

    def freeze(self) -> "Echelon":
        """Make the span read-only, so ``add`` raises TypeError; returns self."""
        self._rows = MappingProxyType(self._rows)
        self._cols = None
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
    """Rank over Q(i), computed once and held by m (``len`` of its pivots
    when they are known).

    Singleton pivots are peeled off without arithmetic (``_peel``) and only
    the core they leave goes to ``Echelon``.  A matrix with no singleton
    at all is eliminated whole instead, at the same cost, so its pivots are
    kept for a later ``pivot_columns`` or ``solve_const``.
    """
    if m.is_polynomial():
        raise LinalgError("rank_const on polynomial matrix; use generic_rank")
    if m._pivots is not None:
        return len(m._pivots)
    if m._rank is None:
        rank, core = _peel(m.sparse_rows)
        if core and not rank:
            return len(_pivots(m))
        if core:
            rows = m.sparse_rows
            rank += Echelon(m.cols, ({j: rows[i][j] for j in cols}
                                     for i, cols in core.items())).rank
        object.__setattr__(m, "_rank", rank)
    return m._rank


def _peel(rows) -> tuple[int, dict[int, set[int]]]:
    """Structural pivots of sparse Q(i) rows: (how many, the core left as
    ``{row: its remaining columns}``).

    A row with one nonzero, at column j, is a pivot: dropping the row and
    column j lowers the rank by exactly 1, and so does a column with one
    nonzero, at row i, with that row.  Stored entries are never zero, so
    this needs no arithmetic, and what remains is a submatrix, zero-free
    again.  Peeling repeats while singletons appear (structured Gaussian
    elimination: B. A. LaMacchia, A. M. Odlyzko, CRYPTO '90; J.-G. Dumas,
    G. Villard, CASC 2002), so the rank is the count plus the core's rank.
    """
    # compress tests each row's length in C, so empty rows cost no Python step
    row_cols = {i: set(rows[i]) for i in compress(range(len(rows)), rows)}
    col_rows: dict[int, set[int]] = {}
    for i, r in row_cols.items():
        for j in r:
            s = col_rows.get(j)
            if s is None:
                col_rows[j] = {i}
            else:
                s.add(i)
    todo_rows = [i for i, r in row_cols.items() if len(r) == 1]
    todo_cols = [j for j, r in col_rows.items() if len(r) == 1]
    rank = 0
    while todo_rows or todo_cols:
        if todo_rows:
            i = todo_rows.pop()
            if len(row_cols.get(i, ())) != 1:
                continue
            (j,) = row_cols[i]
        else:
            j = todo_cols.pop()
            if len(col_rows.get(j, ())) != 1:
                continue
            (i,) = col_rows[j]
        rank += 1
        for k in col_rows.pop(j):
            if k != i:
                r = row_cols[k]
                r.discard(j)
                if len(r) == 1:
                    todo_rows.append(k)
                elif not r:
                    del row_cols[k]
        for k in row_cols.pop(i):
            if k != j:
                r = col_rows[k]
                r.discard(i)
                if len(r) == 1:
                    todo_cols.append(k)
                elif not r:
                    del col_rows[k]
    return rank, row_cols


def kernel_basis_const(m: ExactMatrix) -> list[list[GaussianRational]]:
    """Canonical right-kernel basis over Q(i): one vector per free column."""
    return Echelon(m.cols, m.sparse_rows).kernel()


def solve_const(m: ExactMatrix, rhs) -> list | dict | None:
    """One exact solution of m x = rhs over Q(i), or None; free variables 0.

    ``rhs`` is dense (a list of length ``m.rows``) or sparse (an
    ``{index: value}`` mapping); the solution comes back in the same form,
    a sparse one holding only its nonzeros.  The solution with free
    variables 0 lives on the pivot columns P, whose columns are
    independent: reducing rhs against the frozen echelon of the rows
    (m[:, p_k] | e_k) leaves (0 | -x_P) when rhs is in the image and an
    entry below ``m.rows`` when it is not.  That echelon is built on the
    first call and held by m.
    """
    if m.is_polynomial():
        raise LinalgError("solve_const on polynomial matrix")
    sparse = _is_sparse(rhs)
    if sparse:
        if rhs and not (min(rhs) >= 0 and max(rhs) < m.rows):
            raise LinalgError("rhs index out of range")
        rhs = {i: GaussianRational._coerce(x) for i, x in rhs.items()}
    elif len(rhs) != m.rows:
        raise LinalgError("rhs length mismatch")
    solver = m._solver
    if solver is None:
        columns = m.sparse_columns
        solver = Echelon(m.rows + len(_pivots(m)), (
            {**columns[p], m.rows + k: GR_ONE} for k, p in enumerate(m._pivots))).freeze()
        object.__setattr__(m, "_solver", solver)
    r = solver.residue(rhs)
    if r and min(r) < m.rows:
        return None
    x = {m._pivots[j - m.rows]: -v for j, v in r.items()}
    return x if sparse else _dense(x, m.cols)


def pivot_columns(m: ExactMatrix) -> list[int]:
    """Columns outside the span of the columns before them, in order.

    A fresh list each call; the matrix keeps its own tuple.
    """
    return list(_pivots(m))


def _pivots(m: ExactMatrix) -> tuple[int, ...]:
    """m's pivot columns, eliminated on the first call and held by m."""
    if m._pivots is None:
        if m.is_polynomial():
            pivots = _bareiss(m)[1]
        else:
            pivots = Echelon(m.cols, m.sparse_rows).pivots
        object.__setattr__(m, "_pivots", tuple(pivots))
    return m._pivots


# -- fraction-free elimination over polynomial entries -------------------

def _poly_exact_div(num: Poly, den: Poly) -> Poly:
    """Exact division of multivariate polynomials; raises if not divisible."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    params = num.params
    quot = Poly._trusted(params, {})
    rem = num
    dl_exps, dl_c = max(den.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    while rem:
        rl_exps, rl_c = max(rem.terms.items(), key=lambda t: (sum(t[0]), t[0]))
        diff = tuple(a - b for a, b in zip(rl_exps, dl_exps))
        if any(d < 0 for d in diff):
            raise LinalgError("inexact polynomial division")
        t = Poly._trusted(params, {diff: rl_c / dl_c})
        quot = quot + t
        rem = rem - t * den
    return quot


def _bareiss(m: ExactMatrix) -> tuple[list[dict[int, Poly]], list[int]]:
    """Fraction-free row echelon form of a polynomial matrix, kept sparse.

    Returns (echelon rows as ``{column: Poly}`` nonzeros, pivot columns).
    Each step sets row <- (piv * row - row[c] * top) / prev on nonzeros
    only, the division exact (Bareiss 1968).  Row order is preserved except
    for the swaps needed to bring a nonzero pivot up, empty rows included;
    pivots are the first nonzero entry in column order, so the result is
    deterministic.
    """
    params = m._zero.params
    rows = [{j: x if isinstance(x, Poly) else Poly.constant(params, x) for j, x in row.items()}
            for row in m.sparse_rows]
    pivots: list[int] = []
    prev = None
    for c in range(m.cols):
        r = len(pivots)
        if r == len(rows):
            break
        i = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        piv = top[c]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            if not row:
                continue
            acc = {j: piv * x for j, x in row.items()}
            f = row.get(c)
            if f is not None:
                f = -f
                for j, x in top.items():
                    accumulate(acc, j, f * x)
            rows[i] = acc if prev is None else {j: _poly_exact_div(x, prev) for j, x in acc.items()}
        prev = piv
        pivots.append(c)
    return rows[:len(pivots)], pivots


def generic_rank(m: ExactMatrix) -> int:
    """Rank over the fraction field of the polynomial ring."""
    return len(pivot_columns(m))


def specialized_rank(m: ExactMatrix, point: dict) -> int:
    """Rank after exact evaluation at a parameter point."""
    return rank_const(m.eval_point(point))


def kernel_basis(m: ExactMatrix) -> list[list]:
    """Right-kernel basis over the entry field.

    Constant matrices get the canonical RREF kernel.  Polynomial matrices
    get polynomial vectors, a basis of the kernel over the fraction field:
    for each free column f, v[f] = det(U) for U the upper-triangular pivot
    block of the Bareiss form, and the pivot entries follow by back
    substitution with exact divisions.  These are the Cramer minors of the
    echelon form (Nakos, Turner, Williams 1997).
    """
    if not m.is_polynomial():
        return kernel_basis_const(m)
    ech, pivots = _bareiss(m)
    object.__setattr__(m, "_pivots", tuple(pivots))
    det = Poly.constant(m._zero.params, 1)
    for row, p in zip(ech, pivots):
        det = det * row[p]
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [m._zero] * m.cols
        v[f] = det
        for row, p in zip(reversed(ech), reversed(pivots)):
            # v[p] is still zero here, so the sum runs over f and later pivots
            num = sum((x * v[j] for j, x in row.items() if v[j]), m._zero)
            v[p] = -_poly_exact_div(num, row[p])
        basis.append(v)
    return basis


# -- cohomology of a two-step complex over Q(i) ---------------------------

@dataclass(frozen=True)
class CohomologyBasis:
    """Basis of Ker(d_out)/Im(d_in) with a coordinate projection.

    ``sparse_representatives`` holds canonical vectors in the ambient space,
    one read-only ``{index: value}`` mapping of nonzeros each, in index
    order; ``representatives`` is the dense view, derived on each use.  The
    projection sends any d_out-closed vector to its coordinates in this
    basis, killing the image of d_in.  ``coords`` holds each vector b_k of
    [representatives | image basis] as the row (b_k | e_k), so a closed
    vector v reduces to (0 | -coordinates of v) in one residue.  Frozen,
    so a cached basis can be shared.
    """

    dim: int
    sparse_representatives: tuple[Mapping[int, GaussianRational], ...]
    d_out: ExactMatrix = field(repr=False)
    coords: Echelon = field(repr=False)
    label: str = ""

    @property
    def representatives(self) -> tuple[tuple[GaussianRational, ...], ...]:
        n = self.coords.width - self.coords.rank  # one tag column per row
        return tuple(tuple(_dense(r, n)) for r in self.sparse_representatives)

    def project(self, vector: list) -> list[GaussianRational]:
        vec = [GaussianRational._coerce(x) for x in vector]
        if len(vec) != self.coords.width - self.coords.rank:
            raise LinalgError("projection: vector length mismatch")
        if self.d_out.rows and any(self.d_out.apply(vec)):
            raise LinalgError("projection of a non-closed vector")
        coords = self.project_sparse(_sparse(vec))
        return [coords.get(k, GR_ZERO) for k in range(self.dim)]

    def project_sparse(self, vector: Mapping[int, GaussianRational]) -> dict[int, GaussianRational]:
        """``{k: coordinate}`` of the nonzero coordinates of a closed
        vector given as an ``{index: value}`` mapping.

        For callers that have checked closedness: the d_out product is
        skipped.  A vector outside Ker(d_out) is outside kernel+image too,
        so it still raises LinalgError, with that message.
        """
        n = self.coords.width - self.coords.rank
        if vector and not (min(vector) >= 0 and max(vector) < n):
            raise LinalgError("projection: index out of range")
        r = self.coords.residue(vector)
        if any(j < n for j in r):
            raise LinalgError("projection: vector outside kernel+image")
        # tags past n + dim belong to the image basis: they carry no class
        return {j - n: -x for j, x in r.items() if j < n + self.dim}


def _check_shapes(d_in: ExactMatrix, d_out: ExactMatrix) -> None:
    """Raise unless d_in and d_out are Q(i) matrices that compose."""
    if d_in.is_polynomial() or d_out.is_polynomial():
        raise LinalgError("cohomology expects constant matrices")
    if d_in.cols and d_out.rows and d_in.rows != d_out.cols:
        raise LinalgError("chain shape mismatch")


def _check_chain(d_in: ExactMatrix, d_out: ExactMatrix) -> None:
    """Raise unless  . --d_in--> . --d_out--> .  is a complex over Q(i)."""
    _check_shapes(d_in, d_out)
    if d_in.cols and d_out.rows:
        bad = [j for row in d_out.matmul(d_in).sparse_rows for j in row]
        if bad:
            raise LinalgError(f"d_out . d_in nonzero on column {min(bad)}")


def cohomology_dim(d_in: ExactMatrix, d_out: ExactMatrix) -> int:
    """Dimension of the cohomology of  . --d_in--> . --d_out--> .  by rank-nullity."""
    _check_chain(d_in, d_out)
    return _cohomology_dim(d_in, d_out)


def _cohomology_dim(d_in: ExactMatrix, d_out: ExactMatrix) -> int:
    """``cohomology_dim`` for a pair the caller knows composes to zero:
    the shapes are checked, the product d_out . d_in is not formed."""
    _check_shapes(d_in, d_out)
    return d_out.cols - rank_const(d_out) - rank_const(d_in)


def cohomology(d_in: ExactMatrix, d_out: ExactMatrix, label: str = "") -> CohomologyBasis:
    """Cohomology at the middle of  . --d_in--> . --d_out--> .  over Q(i)."""
    _check_chain(d_in, d_out)
    return _cohomology(d_in, d_out, label)


def _cohomology(d_in: ExactMatrix, d_out: ExactMatrix, label: str = "") -> CohomologyBasis:
    """``cohomology`` for a pair the caller knows composes to zero: the
    shapes are checked, the product d_out . d_in is not formed."""
    _check_shapes(d_in, d_out)
    n = d_out.cols if d_out.cols else d_in.rows
    # kernel vectors, representatives and image basis stay sparse
    ker = Echelon(d_out.cols if d_out.rows else n, d_out.sparse_rows)._kernel()
    span = Echelon(n, d_in.sparse_columns)
    image_basis = [dict(span._rows[c]) for c in span.pivots]
    reps: list[dict[int, GaussianRational]] = []
    for v in ker:
        r = span.residue(v)
        if r:
            reps.append(dict(span._insert(r)))

    coords = Echelon(n + len(reps) + len(image_basis), (
        {**b, n + k: GR_ONE} for k, b in enumerate(reps + image_basis)
    )).freeze()
    return CohomologyBasis(dim=len(reps), sparse_representatives=tuple(
        MappingProxyType(dict(sorted(r.items()))) for r in reps), d_out=d_out, coords=coords, label=label)
