"""Exact linear algebra over Q(i) and over fraction fields of polynomial rings.

Matrices are dense with entries that are either all GaussianRational or all
Poly (over one shared parameter tuple).

Over Q(i) there is one elimination routine: ``Echelon``, the reduced row
echelon form of a span, kept as sparse rows and grown one row at a time.
Rank, kernel, solve, pivot columns, cohomology and its coordinate
projection all go through it.  The reduced form of a span is unique, so
these canonical outputs do not depend on the order rows arrive in.

Over polynomial entries ranks and pivot columns come from fraction-free
(Bareiss) elimination and kernels from Cramer-style minors of its echelon
form, so every intermediate value stays polynomial.

Pivots are always the first nonzero column, which makes every output
deterministic.
"""

from __future__ import annotations

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


def _coerce_entry(x):
    if isinstance(x, (GaussianRational, Poly)):
        return x
    return GaussianRational._coerce(x)


class ExactMatrix:
    """Immutable dense matrix with exact entries (GaussianRational or Poly).

    ``entries`` is a tuple of row tuples, so a matrix can be cached and
    shared between callers.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise LinalgError("inconsistent matrix shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(
            tuple([_coerce_entry(x) for x in row]) for row in entries
        ))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [[GR_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, rows: int, columns) -> "ExactMatrix":
        columns = list(columns)
        return cls(rows, len(columns), [[col[i] for col in columns] for i in range(rows)])

    # -- basics ------------------------------------------------------

    def is_polynomial(self) -> bool:
        return any(isinstance(x, Poly) for row in self.entries for x in row)

    def column(self, j: int) -> list:
        return [self.entries[i][j] for i in range(self.rows)]

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        # differentials are sparse; skipping zero factors matters at scale
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in matmul")
        out = []
        for i in range(self.rows):
            nonzero = [(k, v) for k, v in enumerate(self.entries[i]) if v]
            row = []
            for j in range(other.cols):
                acc = None
                for k, v in nonzero:
                    w = other.entries[k][j]
                    if not w:
                        continue
                    term = v * w
                    acc = term if acc is None else acc + term
                row.append(acc if acc is not None else GR_ZERO)
            out.append(row)
        return ExactMatrix(self.rows, other.cols, out)

    def apply(self, vector: list) -> list:
        if len(vector) != self.cols:
            raise LinalgError("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = None
            for k, v in enumerate(self.entries[i]):
                if not v or not vector[k]:
                    continue
                term = v * vector[k]
                acc = term if acc is None else acc + term
            out.append(acc if acc is not None else GR_ZERO)
        return out

    def eval_point(self, point: dict) -> "ExactMatrix":
        """Specialize polynomial entries at a parameter point."""
        out = []
        for row in self.entries:
            out.append([x.eval(point) if isinstance(x, Poly) else x for x in row])
        return ExactMatrix(self.rows, self.cols, out)

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __str__(self):
        return "[" + ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.entries
        ) + "]"

    __repr__ = __str__


# -- elimination over Q(i) ----------------------------------------------

def _sparse(v) -> dict[int, GaussianRational]:
    if isinstance(v, dict):
        return v
    return {j: GaussianRational._coerce(x) for j, x in enumerate(v) if x}


def _dense(row: dict, width: int) -> list[GaussianRational]:
    out = [GR_ZERO] * width
    for j, x in row.items():
        out[j] = x
    return out


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
        basis = []
        for f in range(self._width):
            if f in self._rows:
                continue
            v = [GR_ZERO] * self._width
            v[f] = GR_ONE
            for c, row in self._rows.items():
                if f in row:
                    v[c] = -row[f]
            basis.append(v)
        return basis

    def solution(self) -> list[GaussianRational] | None:
        """x with A x = b for rows [A | b], b the last column; free
        variables 0.  None when b's column holds a pivot (inconsistent)."""
        n = self._width - 1
        if n in self._rows:
            return None
        x = [GR_ZERO] * n
        for c, row in self._rows.items():
            if n in row:
                x[c] = row[n]
        return x


def rank_const(m: ExactMatrix) -> int:
    if m.is_polynomial():
        raise LinalgError("rank_const on polynomial matrix; use generic_rank")
    return Echelon(m.cols, m.entries).rank


def kernel_basis_const(m: ExactMatrix) -> list[list[GaussianRational]]:
    """Canonical right-kernel basis over Q(i): one vector per free column."""
    return Echelon(m.cols, m.entries).kernel()


def solve_const(m: ExactMatrix, rhs: list) -> list | None:
    """One exact solution of m x = rhs over Q(i), or None; free variables 0."""
    if len(rhs) != m.rows:
        raise LinalgError("rhs length mismatch")
    return Echelon(m.cols + 1, (list(row) + [b] for row, b in zip(m.entries, rhs))).solution()


def pivot_columns(m: ExactMatrix) -> list[int]:
    """Columns outside the span of the columns before them, in order."""
    if not m.is_polynomial():
        return Echelon(m.cols, m.entries).pivots
    return _bareiss(_poly_entries(m)[1])[1]


# -- fraction-free elimination over polynomial entries -------------------

def _poly_entries(m: ExactMatrix) -> tuple[tuple[str, ...], list[list[Poly]]]:
    """Parameters and entries of a polynomial matrix, constants lifted."""
    params = next(x for row in m.entries for x in row if isinstance(x, Poly)).params
    return params, [[x if isinstance(x, Poly) else Poly.constant(params, x) for x in row]
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
    if n == 0:
        return Poly.constant(params, 1)
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
    params, entries = _poly_entries(m)
    ech, pivots = _bareiss(entries)
    free = [c for c in range(m.cols) if c not in pivots]
    r = len(pivots)
    zero = Poly(params)
    basis = []
    for f in free:
        pivot_block = [[ech[i][pivots[j]] for j in range(r)] for i in range(r)]
        det = _det_poly(pivot_block) if r else Poly.constant(params, 1)
        v = [zero] * m.cols
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
        comp = d_out.matmul(d_in)
        for j in range(comp.cols):
            if any(comp.entries[i][j] for i in range(comp.rows)):
                raise LinalgError(f"d_out . d_in nonzero on column {j}")

    ker = kernel_basis_const(d_out) if d_out.rows else [
        [GR_ONE if i == j else GR_ZERO for i in range(n)] for j in range(n)
    ]
    span = Echelon(n, (d_in.column(j) for j in range(d_in.cols)))
    image_basis = span.rows()
    reps: list[tuple[GaussianRational, ...]] = []
    for v in ker:
        r = span.residue(v)
        if r:
            r = _monic(r)
            reps.append(tuple(_dense(r, n)))
            span.add(r)

    basis = reps + image_basis
    coords = Echelon(n + len(basis), (
        {**_sparse(b), n + k: GR_ONE} for k, b in enumerate(basis)
    )).freeze()
    return CohomologyBasis(dim=len(reps), representatives=tuple(reps), d_out=d_out,
                           coords=coords, label=label)
