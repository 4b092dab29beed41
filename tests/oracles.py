"""Independent reference implementations used only as test oracles.

Deliberately structured differently from the package code paths they
check: signs come from explicit permutation parity on flattened factor
lists, ranks from a plain fraction elimination without canonical pivoting,
the differential is assembled through the oracle wedge rather than the
package's incremental normalization, polynomial kernels come from
cofactor-expansion Cramer minors of a dense Bareiss form, linear systems
from the dense reduced form of the augmented matrix, class extension
from whole forms and dense coordinates, and the d.d check of a spec from
generator forms and their full differentials.  The literal parsers
``seed_gr_parse`` and ``seed_poly_parse`` go through ``Fraction`` values,
one regular expression per chunk or token and one checked ``Poly`` per
term.
"""

from __future__ import annotations

import re
from fractions import Fraction

from hodgejump import linalg
from hodgejump.coeff import GR_ONE, GR_ZERO, CoefficientError, GaussianRational, Jet, Poly, accumulate
from hodgejump.deform import DeformationFamily, Dolbeault, ExtensionResult
from hodgejump.errors import InternalInvariantError, ValidationFailure
from hodgejump.exterior import (
    ComplexStructureSpec,
    Diagnostic,
    InvariantForm,
    VectorForm,
    _d_monomial,
    _mask,
    basis_monomials,
    differential,
)


class FractionPairQi:
    """Reference Q(i): a + b*i as a pair of ``Fraction`` parts.

    Mirrors the public behaviour of ``GaussianRational`` (arithmetic,
    equality, hashing and text) with none of its integer-triple bookkeeping.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return FractionPairQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPairQi(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return FractionPairQi(self.re * other.re - self.im * other.im,
                              self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        return self * other.inv()

    def __neg__(self):
        return FractionPairQi(-self.re, -self.im)

    def inv(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return FractionPairQi(self.re / n, -self.im / n)

    def conjugate(self):
        return FractionPairQi(self.re, -self.im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __str__(self):
        if not self:
            return "0"
        text = str(self.re) if self.re else ""
        if self.im:
            im = {1: "i", -1: "-i"}.get(self.im, f"{self.im}*i")
            text += "+" + im if text and not im.startswith("-") else im
        return text


def perm_sign(seq) -> int:
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[j] < items[i]:
                sign = -sign
    return sign


def sort_factors(factors):
    """Canonical order and sign via explicit parity; None on repetition."""
    if len(set(factors)) != len(factors):
        return None
    order = sorted(range(len(factors)), key=lambda k: factors[k])
    sign = perm_sign(order)
    return sign, [factors[k] for k in order]


def naive_wedge(a: InvariantForm, b: InvariantForm) -> dict:
    """Wedge as a raw {factor tuple: coeff} dict."""
    out: dict = {}
    for (I1, J1), c1 in a.coeffs.items():
        fac1 = [(0, i) for i in I1] + [(1, j) for j in J1]
        for (I2, J2), c2 in b.coeffs.items():
            fac2 = [(0, i) for i in I2] + [(1, j) for j in J2]
            res = sort_factors(fac1 + fac2)
            if res is None:
                continue
            sign, factors = res
            key = tuple(factors)
            c = c1 * c2
            if sign < 0:
                c = -c
            s = out[key] + c if key in out else c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def form_to_raw(a: InvariantForm) -> dict:
    out = {}
    for (I, J), c in a.coeffs.items():
        out[tuple([(0, i) for i in I] + [(1, j) for j in J])] = c
    return out


def raw_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out[k] + c if k in out else c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def raw_scale(a: dict, s) -> dict:
    return {k: c * s for k, c in a.items()}


def _d_generator(spec: ComplexStructureSpec, kind: str, k: int) -> list:
    """d of the generator f_k (kind "f") or c_k (kind "c") as a list of
    (factor pair, coefficient), read straight off the structure tables."""
    if kind == "f":
        return ([([("f", i), ("f", j)], c) for (i, j), c in spec.A[k].items()]
                + [([("f", i), ("c", j)], c) for (i, j), c in spec.B[k].items()])
    return ([([("c", i), ("c", j)], c) for (i, j), c in spec.Abar[k].items()]
            + [([("f", i), ("c", j)], c) for (i, j), c in spec.Bbar[k].items()])


def naive_d(spec: ComplexStructureSpec, a: InvariantForm) -> dict:
    """Full d(a) as a raw dict, built with the oracle wedge only."""
    total: dict = {}
    for (I, J), c in a.coeffs.items():
        factors = [("f", i) for i in I] + [("c", j) for j in J]
        for k in range(len(factors)):
            kind, idx = factors[k]
            dgen_terms = _d_generator(spec, kind, idx)
            for pair, sc in dgen_terms:
                pieces = factors[:k] + pair + factors[k + 1:]
                flat = [(0 if t == "f" else 1, i) for (t, i) in pieces]
                res = sort_factors(flat)
                if res is None:
                    continue
                sign, sorted_factors = res
                if k % 2:
                    sign = -sign
                v = c * sc * (GR_ONE if sign > 0 else -GR_ONE)
                key = tuple(sorted_factors)
                total = raw_add(total, {key: v})
    return total


def naive_dbar_vector(spec: ComplexStructureSpec, psi: VectorForm) -> dict:
    """delbar of a vector form as a raw {(i, J): coeff} dict.

    delbar(theta_i (x) c_J) = sum_k B^k_{i,l} theta_k (x) (c_l ^ c_J)
                              + theta_i (x) (the (0, q+1) part of naive_d(c_J)).
    """
    out: dict = {}
    for (i, J), c in psi.coeffs.items():
        for factors, c2 in naive_d(spec, InvariantForm.monomial(spec, (), J)).items():
            if all(side == 1 for side, _ in factors):
                out = raw_add(out, {(i, tuple(j for _, j in factors)): c * c2})
        for k in range(1, spec.n + 1):
            for (ii, lam), b in spec.B[k].items():
                res = sort_factors([lam, *J]) if ii == i else None
                if res is None:
                    continue
                sign, J2 = res
                v = c * b
                out = raw_add(out, {(k, tuple(J2)): v if sign > 0 else -v})
    return out


def form_validate_spec(spec: ComplexStructureSpec) -> list[Diagnostic]:
    """``exterior.validate_spec`` on forms: d of each generator form, then
    d of both of its parts with ``differential``, summed coefficient by
    coefficient."""
    out: list[Diagnostic] = []
    for k in range(1, spec.n + 1):
        for kind, name in (("f", f"f{k}"), ("c", f"c{k}")):
            gen = InvariantForm.generator(spec, kind, k)
            d1, d2 = differential(spec, gen)
            total = {}
            for part in differential(spec, d1) + differential(spec, d2):
                for key, c in part.coeffs.items():
                    accumulate(total, key, c)
            if total:
                witness = ", ".join(
                    f"({','.join(map(str, I))}|{','.join(map(str, J))})"
                    for I, J in sorted(total)
                )
                out.append(
                    Diagnostic("error", name, f"d.d is nonzero on monomials {witness}")
                )
    for k in range(1, spec.n + 1):
        for (i, j) in list(spec.A[k]) + list(spec.B[k]):
            if i >= k or j >= k:
                out.append(
                    Diagnostic(
                        "warning",
                        f"f{k}",
                        f"structure constant on ({i},{j}) breaks the nilpotent "
                        f"index ordering (expected indices below {k})",
                    )
                )
    return out


def monomial_dbar_matrix(spec: ComplexStructureSpec, p: int, q: int) -> linalg.ExactMatrix:
    """delbar from (p, q) to (p, q+1) with one column per basis monomial,
    each from its own ``_d_monomial`` call and checked by ``from_columns``:
    the per-monomial assembly that ``Dolbeault`` replaces with
    generator-level pieces, on all n generators."""
    tgt = basis_monomials(spec.n, p, q + 1)
    row_of = {(_mask(I), _mask(J)): r for r, (I, J) in enumerate(tgt)}
    cols = []
    for I, J in basis_monomials(spec.n, p, q):
        db: dict = {}
        _d_monomial(spec._generator_d(), _mask(I), _mask(J), db)
        cols.append({row_of[key]: c for key, c in db.items()})
    return linalg.ExactMatrix.from_columns(len(tgt), cols)


def positions(v: dict, n: int, p: int, q: int) -> dict:
    """A mask-keyed (p, q) vector keyed by position in ``basis_monomials(n, p, q)``,
    the row and column order of ``monomial_dbar_matrix``; a foreign key raises
    KeyError."""
    at = {(_mask(I), _mask(J)): r for r, (I, J) in enumerate(basis_monomials(n, p, q))}
    return {at[key]: c for key, c in v.items()}


def core_monomials(n: int, free: tuple[int, int], p: int, q: int) -> list:
    """The positions in ``basis_monomials(n, p, q)`` of the monomials in no
    free generator, for the f and c masks ``free`` of ``Dolbeault._free``."""
    return [r for r, (I, J) in enumerate(basis_monomials(n, p, q))
            if not (_mask(I) & free[0] or _mask(J) & free[1])]


def core_block(spec: ComplexStructureSpec, free: tuple[int, int], p: int, q: int) -> linalg.ExactMatrix:
    """The rows and columns of ``monomial_dbar_matrix(spec, p, q)`` on the
    monomials in no free generator (``core_monomials``), in their order: the
    core's delbar_{p,q}.  Each of its columns must have no entry in another
    row, as a free generator is a tensor factor with zero delbar."""
    full = monomial_dbar_matrix(spec, p, q)
    row_of = {r: i for i, r in enumerate(core_monomials(spec.n, free, p, q + 1))}
    cols = [full.sparse_columns[j] for j in core_monomials(spec.n, free, p, q)]
    assert all(set(col) <= set(row_of) for col in cols), "a core column leaves the core"
    return linalg.ExactMatrix.from_columns(len(row_of), [{row_of[r]: x for r, x in col.items()} for col in cols])


def jet_twin(spec: ComplexStructureSpec, order: int) -> ComplexStructureSpec:
    """``spec`` with each Poly structure constant read as a jet of ``order``."""
    def table(rows):
        return {k: {ij: Jet(c, order) if isinstance(c, Poly) else c for ij, c in row.items()}
                for k, row in rows.items()}

    return ComplexStructureSpec(spec.n, table(spec.A), table(spec.B),
                                Abar=table(spec.Abar), Bbar=table(spec.Bbar))


def naive_deformed_coframe(spec: ComplexStructureSpec, psi: VectorForm) -> dict:
    """Tables of the deformed coframe f_i(t) = f_i + sum psi^i_l c_l.

    Returns {"A", "B", "Abar", "Bbar", "defect"}, each {k: {(i, j): coeff}},
    built with naive_d and naive_wedge only: every f_i in d f_k + sum
    psi^k_l d c_l and in d c_k becomes f_i(t) - sum psi^i_l c_l, the symbol
    f_i now standing for f_i(t), and each term goes to the table of its
    f-count ((0,2) terms of d f_k(t) are the defect).
    """
    n = spec.n

    def gen(side, i):
        return InvariantForm.generator(spec, "f" if side == 0 else "c", i)

    # each original factor as the homogeneous pieces of its replacement
    replace = {}
    for i in range(1, n + 1):
        cside = {((), J): -c for (k, J), c in psi.coeffs.items() if k == i}
        replace[(0, i)] = [gen(0, i)] + ([InvariantForm(spec, 0, 1, cside)] if cside else [])
        replace[(1, i)] = [gen(1, i)]

    def substitute(raw):
        out: dict = {}
        for (x, y), c in raw.items():
            for a in replace[x]:
                for b in replace[y]:
                    out = raw_add(out, raw_scale(naive_wedge(a, b), c))
        return out

    tables = {name: {k: {} for k in range(1, n + 1)}
              for name in ("A", "B", "Abar", "Bbar", "defect")}
    for k in range(1, n + 1):
        df = naive_d(spec, gen(0, k))
        for (i, (lam,)), c in psi.coeffs.items():
            if i == k:
                df = raw_add(df, raw_scale(naive_d(spec, gen(1, lam)), c))
        for names, raw in ((("defect", "B", "A"), df), (("Abar", "Bbar"), naive_d(spec, gen(1, k)))):
            for key, c in substitute(raw).items():
                tables[names[holomorphic_degree(key)]][k][(key[0][1], key[1][1])] = c
    return tables


def naive_contract(psi: VectorForm, a: InvariantForm) -> dict:
    """Contraction oracle: delete the matched factor, then append c_J."""
    total: dict = {}
    for (i, Jpsi), cpsi in psi.coeffs.items():
        for (I, J), cf in a.coeffs.items():
            if i not in I:
                continue
            pos = I.index(i)
            rest = [(0, x) for x in I[:pos] + I[pos + 1:]]
            flat = rest + [(1, j) for j in J] + [(1, j) for j in Jpsi]
            res = sort_factors(flat)
            if res is None:
                continue
            sign, sorted_factors = res
            if pos % 2:
                sign = -sign
            v = cf * cpsi * (GR_ONE if sign > 0 else -GR_ONE)
            total = raw_add(total, {tuple(sorted_factors): v})
    return total


def rank_qi(rows: list[list[GaussianRational]]) -> int:
    """Rank over Q(i) by plain elimination without pivot normalization."""
    m = [list(r) for r in rows]
    rank = 0
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    used = [False] * nrows
    for c in range(ncols):
        pivot = None
        for r in range(nrows):
            if not used[r] and m[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        used[pivot] = True
        rank += 1
        pr = m[pivot]
        for r in range(nrows):
            if r != pivot and m[r][c]:
                f = m[r][c] / pr[c]
                m[r] = [x - f * y for x, y in zip(m[r], pr)]
    return rank


def rref_qi(rows: list[list[GaussianRational]]):
    """Reduced row echelon form over Q(i) by dense Gauss-Jordan elimination.

    Returns (nonzero rows, pivot columns); the rows have leading
    coefficient 1 and are zero in every other pivot column.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    for c in range(ncols):
        k = len(pivots)
        below = [r for r in range(k, len(m)) if m[r][c]]
        if not below:
            continue
        m[k], m[below[0]] = m[below[0]], m[k]
        lead = m[k][c]
        m[k] = [x / lead for x in m[k]]
        for r in range(len(m)):
            f = m[r][c]
            if r != k and f:
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def rref_kernel(rows: list[list[GaussianRational]], width: int) -> list[list[GaussianRational]]:
    """Canonical right-kernel basis of dense rows: one vector per free column."""
    ref, pivots = rref_qi(rows)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        v = [GR_ZERO] * width
        v[f] = GR_ONE
        for row, c in zip(ref, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def quotient_representatives(image: list[list[GaussianRational]],
                             kernel: list[list[GaussianRational]]) -> list[dict]:
    """Representatives of span(kernel) / span(image) as ``linalg.cohomology``
    defines them: each kernel vector in turn, reduced against the reduced
    form of the image and the representatives taken so far and made monic,
    is kept when nonzero.  The span is re-eliminated densely at every step."""
    span = [list(v) for v in image]
    reps = []
    for v in kernel:
        ref, pivots = rref_qi(span)
        r = list(v)
        for row, c in zip(ref, pivots):
            f = r[c]
            if f:
                r = [x - f * y for x, y in zip(r, row)]
        nonzero = [j for j, x in enumerate(r) if x]
        if nonzero:
            inv = r[nonzero[0]].inv()
            r = [x * inv for x in r]
            reps.append({j: r[j] for j in nonzero})
            span.append(r)
    return reps


def augmented_solve(m: linalg.ExactMatrix, rhs: list) -> list | None:
    """The solution of m x = rhs with free variables 0, read off the dense
    reduced form of [m | rhs]; None when rhs's column holds a pivot."""
    cols = m.cols
    ref, pivots = rref_qi([list(row) + [b] for row, b in zip(m.entries, rhs)])
    if cols in pivots:
        return None
    x = [GR_ZERO] * cols
    for row, c in zip(ref, pivots):
        x[c] = row[cols]
    return x


def poly_entries(m: linalg.ExactMatrix) -> list[list[Poly]]:
    """Dense entries of a polynomial matrix, constants lifted to Poly."""
    params = m._zero.params
    return [[x if isinstance(x, Poly) else Poly.constant(params, x) for x in row]
            for row in m.entries]


def dense_bareiss(entries: list[list[Poly]]):
    """Fraction-free row echelon form on dense rows: (echelon rows, pivots).

    Every entry of every row below the pivot is recomputed each step, zero
    rows skipped; the pivot is the first nonzero row in column order and is
    swapped up, the rows below keeping their order.
    """
    rows = [list(r) for r in entries]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    prev = None
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
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
                    val = linalg._poly_exact_div(val, prev)
                new_row.append(val)
            rows[i] = new_row
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def det_poly(entries: list[list[Poly]]) -> Poly:
    """Determinant by cofactor expansion along the first row."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    det = Poly(entries[0][0].params)
    for j in range(n):
        if not entries[0][j]:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in entries[1:]]
        term = entries[0][j] * det_poly(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def cramer_kernel(m: linalg.ExactMatrix) -> list[list[Poly]]:
    """Polynomial kernel vectors of m from Cramer minors of its dense Bareiss
    form: for each free column f, v[f] is the determinant of the pivot
    block and v[p_k] minus the determinant of that block with column k
    replaced by column f."""
    ech, pivots = dense_bareiss(poly_entries(m))
    r = len(pivots)
    block = [[ech[i][pivots[j]] for j in range(r)] for i in range(r)]
    det = det_poly(block) if r else Poly.constant(m._zero.params, 1)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [m._zero] * m.cols
        v[f] = det
        for k in range(r):
            col = [[ech[i][pivots[j]] if j != k else ech[i][f] for j in range(r)]
                   for i in range(r)]
            v[pivots[k]] = -det_poly(col)
        basis.append(v)
    return basis


def scan_echelon_rows(vectors) -> dict[int, dict]:
    """Reduced echelon rows {pivot: {column: value}} of sparse Q(i) vectors,
    grown as ``Echelon.add`` would without its column index: each new row
    is reduced against the stored ones, made monic, and then every stored
    row is scanned for the new leading column."""
    rows: dict[int, dict] = {}
    for v in vectors:
        r = dict(v)
        for c, f in v.items():
            for j, x in rows.get(c, {}).items():
                accumulate(r, j, -f * x)
        if not r:
            continue
        lead = min(r)
        inv = r[lead].inv()
        r = {j: x * inv for j, x in r.items()}
        for row in rows.values():
            f = row.get(lead)
            if f is not None:
                for j, x in r.items():
                    accumulate(row, j, -f * x)
        rows[lead] = r
    return rows


def dense_jet_matrix(d, order: int, base=None) -> list[list[GaussianRational]]:
    """Dense matrix of d on jets x_0 + t x_1 + ... + t^order x_order mod t^(order+1).

    Built column by column: each column is d applied, by polynomial
    multiplication, to one unit jet t^a e_j (or, with ``base``, to the
    constant jet b_m in place of the x_0 unit vectors); row k*d.rows + i
    holds the t^k coefficient of component i.
    """
    from hodgejump.coeff import GR_ZERO, Poly

    params = next((x.params for row in d.entries for x in row if isinstance(x, Poly)), ("t",))

    def lift(x):
        return x if isinstance(x, Poly) else Poly.constant(params, x)

    def image(a, vector):
        shift = Poly(params, {(a,): GR_ONE})
        out = []
        for row in d.entries:
            acc = Poly(params)
            for x, v in zip(row, vector):
                acc = acc + lift(x) * lift(v) * shift
            out.append(acc)
        return out

    units = [[GR_ONE if i == j else GR_ZERO for i in range(d.cols)] for j in range(d.cols)]
    columns = [image(0, b) for b in (units if base is None else base)]
    columns += [image(a, u) for a in range(1, order + 1) for u in units]
    return [
        [col[i].terms.get((k,), GR_ZERO) for col in columns]
        for k in range(order + 1)
        for i in range(d.rows)
    ]


def apply_poly(m: linalg.ExactMatrix, vec: list[Poly], param: str) -> list[Poly]:
    """m applied to a vector of exact polynomials in ``param``, by
    polynomial products over every cell: no truncation at any order."""
    out = []
    for row in m.entries:
        acc = Poly((param,))
        for x, v in zip(row, vec, strict=True):
            acc = acc + v * x
        out.append(acc)
    return out


# -- dense matrix reference ------------------------------------------------
# A matrix here is a plain list of row lists holding the entries exactly as
# given (GaussianRational, Poly, int, zeros included); every operation
# visits every cell, the way the package's matrices did before they went
# sparse.

def dense_matmul(a: list[list], b: list[list], cols: int) -> list[list]:
    """a times b, for b with len(b) rows and ``cols`` columns."""
    return [[dense_apply([row], [b_row[j] for b_row in b])[0] for j in range(cols)] for row in a]


def dense_apply(a: list[list], vector: list) -> list:
    from hodgejump.coeff import GR_ZERO

    out = []
    for row in a:
        acc = GR_ZERO
        for x, v in zip(row, vector, strict=True):
            acc = acc + x * v
        out.append(acc)
    return out


def dense_eval(a: list[list], point: dict) -> list[list]:
    from hodgejump.coeff import Poly

    return [[x.eval(point) if isinstance(x, Poly) else x for x in row] for row in a]


def dense_is_zero(a: list[list]) -> bool:
    return all(not x for row in a for x in row)


def dense_eq(a: list[list], b: list[list]) -> bool:
    return len(a) == len(b) and all(
        len(r) == len(s) and all(x == y for x, y in zip(r, s)) for r, s in zip(a, b)
    )


def dense_column(a: list[list], j: int) -> list:
    return [row[j] for row in a]


def dense_str(a: list[list]) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in a) + "]"


def raw_form(spec: ComplexStructureSpec, p: int, q: int, raw: dict) -> InvariantForm:
    """The (p, q)-form of a raw dict whose keys all have that bidegree."""
    return InvariantForm(spec, p, q, {
        (tuple(i for side, i in key if side == 0), tuple(j for side, j in key if side == 1)): c
        for key, c in raw.items()})


def holomorphic_degree(key) -> int:
    return sum(1 for side, _ in key if side == 0)


def naive_o1(spec: ComplexStructureSpec, psi: VectorForm, a: InvariantForm) -> dict:
    """o1 value del(iota_psi a) + iota_psi(del a) as a raw dict.

    Built from naive_contract and the del part of naive_d only; its
    bidegree is (p, q + psi.q) for a of bidegree (p, q).
    """
    p, q, n = a.p, a.q, spec.n
    if p == 0 or q + psi.q > n:
        return {}
    ia = raw_form(spec, p - 1, q + psi.q, naive_contract(psi, a))
    del_ia = {k: c for k, c in naive_d(spec, ia).items() if holomorphic_degree(k) == p}
    if p == n:
        return del_ia
    da = {k: c for k, c in naive_d(spec, a).items() if holomorphic_degree(k) == p + 1}
    return raw_add(del_ia, naive_contract(psi, raw_form(spec, p + 1, q, da)))


def coordinates(form: InvariantForm, monomials) -> list:
    """The coefficients of a form along ``monomials``, zeros included."""
    return [form.coeffs.get(key, GR_ZERO) for key in monomials]


def monomial_split(form: InvariantForm) -> dict:
    """Split polynomial coefficients by parameter monomial.

    Returns {exponent tuple: InvariantForm with GaussianRational coeffs}.
    Constant (Q(i)) coefficients sit under the empty tuple ``()``.
    """
    buckets: dict[tuple[int, ...], dict] = {}
    for key, c in form.coeffs.items():
        if isinstance(c, Poly):
            for exps, v in c.terms.items():
                buckets.setdefault(exps, {})[key] = v
        else:
            buckets.setdefault((), {})[key] = c
    return {e: InvariantForm(form.spec, form.p, form.q, d) for e, d in buckets.items()}


def project_form(basis, form: InvariantForm, params=None) -> list:
    """Coordinates in a ``DolbeaultBasis`` of a form whose coefficients may
    be polynomial: each parameter monomial's constant piece is projected on
    its own.

    Returns GaussianRational coordinates for constant coefficients and Poly
    coordinates in ``params`` otherwise.
    """
    pieces = monomial_split(form)
    if not pieces:
        return [GR_ZERO if params is None else Poly(params)] * basis.dim
    if set(pieces) == {()} and params is None:
        return basis.project_constant_form(pieces[()])
    if params is None:
        raise ValueError("polynomial form projected without parameter context")
    coords: list[dict] = [{} for _ in range(basis.dim)]
    for exps, piece in pieces.items():
        # the constant bucket () and the zero exponent are the same monomial
        e = exps if exps else (0,) * len(params)
        for k, c in enumerate(basis.project_constant_form(piece)):
            accumulate(coords[k], e, c)
    return [Poly(params, terms) for terms in coords]


def dense_extend_class(family: DeformationFamily, alpha: InvariantForm,
                       max_order: int) -> ExtensionResult:
    """``deform.extend_class`` on whole forms: the full differential of the
    jet-valued extension each order, pieces split as forms and projected
    with the closedness check, and each fix solved from the piece's dense
    coordinates by ``augmented_solve`` on ``monomial_dbar_matrix``, which
    shares no assembly with ``Dolbeault``."""
    spec = family.spec
    if max_order < 1 or max_order > family.order:
        raise ValidationFailure(
            f"max_order must lie in 1..{family.order} (the family's jet order)"
        )
    if alpha.spec != spec:
        raise ValidationFailure("class must live on the family's base spec")
    if any(not isinstance(c, GaussianRational) for c in alpha.coeffs.values()):
        raise ValidationFailure("class representative must have constant coefficients")
    if differential(spec, alpha)[1]:
        raise ValidationFailure("class representative is not delbar-closed")
    params = family.params()
    p, q = alpha.p, alpha.q
    tgt = Dolbeault.of(spec).basis(p, q + 1)
    dbar0 = monomial_dbar_matrix(spec, p, q)
    src_monomials = basis_monomials(spec.n, p, q)
    dspec = family.deformed
    order = family.order
    sign = GR_ONE if (p + q) % 2 else -GR_ONE  # (-1)^(p+q+1)

    coeffs = {key: Jet.constant(params, c, order) for key, c in alpha.coeffs.items()}
    alpha_t = InvariantForm(dspec, p, q, coeffs)

    for k in range(1, max_order + 1):
        w = differential(dspec, alpha_t)[1]
        for j in range(k):
            if w.homogeneous_part(j):
                raise InternalInvariantError(
                    f"extension defect reappeared at order {j} while solving order {k}"
                )
        wk = w.homogeneous_part(k)
        if not wk.coeffs:
            continue
        pieces = monomial_split(InvariantForm(spec, p, q + 1, wk.coeffs))
        obstruction: list[dict] = [{} for _ in range(tgt.dim)]
        fixes: dict = {}
        for exps, piece in sorted(pieces.items()):
            cls = tgt.project_constant_form(piece)
            for i, cval in enumerate(cls):
                if cval:
                    accumulate(obstruction[i], exps, cval * sign)
            if not any(cls):
                sol = augmented_solve(dbar0, [-c for c in coordinates(piece, basis_monomials(spec.n, p, q + 1))])
                if sol is None:
                    raise InternalInvariantError("zero class defect was not exact")
                fixes[exps] = sol
        if any(obstruction):
            obstruction = [Poly(params, terms) for terms in obstruction]
            oform = None
            for idx in range(tgt.dim):
                if obstruction[idx]:
                    term = tgt.rep_form(spec, idx).scale(obstruction[idx])
                    oform = term if oform is None else oform + term
            return ExtensionResult(
                status="obstructed", order=k, p=p, q=q,
                obstruction_coords=obstruction, obstruction_form=oform,
            )
        if fixes:
            add: dict = {}
            for exps, sol in fixes.items():
                for key, x in zip(src_monomials, sol):
                    if x:
                        accumulate(add.setdefault(key, {}), exps, x)
            add_form = InvariantForm(
                dspec, p, q, {key: Jet(Poly(params, terms), order) for key, terms in add.items()}
            )
            alpha_t = alpha_t + add_form
    return ExtensionResult(status="extended", order=max_order, p=p, q=q, extension=alpha_t)


# -- the text renderers of Q(i) values, polynomials and forms as each class
# once wrote them, one hand-copied loop per class; ``str`` now goes through
# one helper, ``coeff._sum_text``, and must agree with these --------------

def seed_text(c) -> str:
    """The text of a Q(i) or polynomial coefficient."""
    return seed_poly_text(c) if isinstance(c, Poly) else seed_gr_text(c)


def seed_gr_text(x: GaussianRational) -> str:
    if not x:
        return "0"
    re, im = x.re, x.im
    parts = []
    if re:
        parts.append(str(re))
    if im:
        if im == 1:
            imtxt = "i"
        elif im == -1:
            imtxt = "-i"
        else:
            imtxt = f"{im}*i"
        if parts and not imtxt.startswith("-"):
            parts.append("+" + imtxt)
        else:
            parts.append(imtxt)
    return "".join(parts)


def seed_poly_text(p: Poly) -> str:
    if not p.terms:
        return "0"
    out = []
    for exps, c in p.sorted_terms():
        mon = "*".join(f"{q}^{e}" if e > 1 else q for q, e in zip(p.params, exps) if e)
        if not mon:
            txt = seed_gr_text(c)
        elif c == GR_ONE:
            txt = mon
        elif c == -GR_ONE:
            txt = "-" + mon
        else:
            ctxt = seed_gr_text(c)
            if ("+" in ctxt[1:]) or ("-" in ctxt[1:]):
                ctxt = f"({ctxt})"
            txt = f"{ctxt}*{mon}"
        if out and not txt.startswith("-"):
            out.append("+" + txt)
        else:
            out.append(txt)
    return "".join(out)


def seed_invariant_form_text(a: InvariantForm) -> str:
    if not a.coeffs:
        return "0"
    parts = []
    for key in sorted(a.coeffs):
        I, J = key
        mon = "^".join([f"f{i}" for i in I] + [f"c{j}" for j in J]) or "1"
        ctxt = seed_text(a.coeffs[key])
        if ctxt == "1" and mon != "1":
            txt = mon
        elif ctxt == "-1" and mon != "1":
            txt = "-" + mon
        else:
            if ("+" in ctxt[1:]) or ("-" in ctxt[1:]):
                ctxt = f"({ctxt})"
            txt = ctxt if mon == "1" else f"{ctxt}*{mon}"
        if parts and not txt.startswith("-"):
            parts.append("+" + txt)
        else:
            parts.append(txt)
    return "".join(parts)


def seed_vector_form_text(psi: VectorForm) -> str:
    if not psi.coeffs:
        return "0"
    parts = []
    for (i, J) in sorted(psi.coeffs):
        mon = f"theta{i}" + ("" if not J else "(x)" + "^".join(f"c{j}" for j in J))
        ctxt = seed_text(psi.coeffs[(i, J)])
        if ("+" in ctxt[1:]) or ("-" in ctxt[1:]):
            ctxt = f"({ctxt})"
        txt = mon if ctxt == "1" else ("-" + mon if ctxt == "-1" else f"{ctxt}*{mon}")
        if parts and not txt.startswith("-"):
            parts.append("+" + txt)
        else:
            parts.append(txt)
    return "".join(parts)


# -- the Q(i) and polynomial literal parsers as they once were, through
# ``Fraction``; ``GaussianRational.parse`` and ``Poly.parse`` scan to integer
# triples and must agree with these in value, type and error text ---------

_SEED_PART = re.compile(r"^([+-]?(?:[0-9]+(?:/[0-9]+)?)?)(\*?i)?$")


def _seed_fraction(literal: str, text: str) -> Fraction:
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        raise CoefficientError(f"zero denominator in {text!r}") from None


def seed_gr_parse(text: str) -> GaussianRational:
    s = text.replace(" ", "").replace("\u2212", "-")
    if not s:
        raise CoefficientError("empty coefficient string")
    chunks: list[str] = []
    start = 0
    for k, ch in enumerate(s):
        if ch in "+-" and k > start:
            chunks.append(s[start:k])
            start = k
    chunks.append(s[start:])
    re_part = Fraction(0)
    im_part = Fraction(0)
    for chunk in chunks:
        m = _SEED_PART.match(chunk)
        if not m:
            raise CoefficientError(f"bad Q(i) literal: {text!r}")
        num, imark = m.group(1), m.group(2)
        if num in ("", "+", "-"):
            if imark is None:
                raise CoefficientError(f"bad Q(i) literal: {text!r}")
            value = Fraction(-1 if num == "-" else 1)
        else:
            value = _seed_fraction(num, text)
        if imark:
            im_part += value
        else:
            re_part += value
    return GaussianRational(re_part, im_part)


def seed_poly_parse(params, text: str) -> Poly:
    params = tuple(params)
    if "i" in params:
        raise CoefficientError("parameter name 'i' collides with the imaginary unit")
    s = text.replace(" ", "").replace("\u2212", "-")
    if not s:
        raise CoefficientError("empty polynomial string")
    tokens = re.findall(r"[A-Za-z_][A-Za-z_0-9]*|[0-9]+(?:/[0-9]+)?|\^|\*|\+|-", s)
    if "".join(tokens) != s:
        raise CoefficientError(f"bad polynomial literal: {text!r}")
    result = Poly(params)
    pos = 0
    while pos < len(tokens):
        sign = GR_ONE
        while pos < len(tokens) and tokens[pos] in "+-":
            if tokens[pos] == "-":
                sign = -sign
            pos += 1
        if pos >= len(tokens):
            raise CoefficientError(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0] * len(params)
        expect_factor = True
        while pos < len(tokens):
            tok = tokens[pos]
            if tok in "+-" and not expect_factor:
                break
            if tok == "*":
                pos += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise CoefficientError(f"missing '*' in {text!r}")
            if re.fullmatch(r"[0-9]+(?:/[0-9]+)?", tok):
                coeff = coeff * GaussianRational(_seed_fraction(tok, text))
                pos += 1
            elif tok == "i":
                coeff = coeff * GaussianRational(0, 1)
                pos += 1
            elif tok in params:
                pos += 1
                power = 1
                if pos < len(tokens) and tokens[pos] == "^":
                    pos += 1
                    if pos >= len(tokens) or not tokens[pos].isdigit():
                        raise CoefficientError(f"bad exponent in {text!r}")
                    power = int(tokens[pos])
                    pos += 1
                exps[params.index(tok)] += power
            else:
                raise CoefficientError(f"unknown symbol {tok!r} in {text!r}")
            expect_factor = False
        if expect_factor:
            raise CoefficientError(f"empty term in {text!r}")
        result = result + Poly(params, {tuple(exps): coeff})
    return result
