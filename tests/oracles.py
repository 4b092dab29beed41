"""Independent reference implementations used only as test oracles.

Deliberately structured differently from the package code paths they
check: signs come from explicit permutation parity on flattened factor
lists, ranks from a plain fraction elimination without canonical pivoting,
and the differential is assembled through the oracle wedge rather than the
package's incremental normalization.
"""

from __future__ import annotations

from fractions import Fraction

from hodgejump.coeff import GR_ONE, GR_ZERO, GaussianRational, Poly, accumulate
from hodgejump.exterior import ComplexStructureSpec, InvariantForm, VectorForm


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
    from hodgejump.coeff import radd, rmul

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
            c = rmul(c1, c2)
            if sign < 0:
                c = -c
            s = radd(out[key], c) if key in out else c
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
    from hodgejump.coeff import radd

    out = dict(a)
    for k, c in b.items():
        s = radd(out[k], c) if k in out else c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def raw_scale(a: dict, s) -> dict:
    from hodgejump.coeff import rmul

    return {k: rmul(c, s) for k, c in a.items()}


def naive_d(spec: ComplexStructureSpec, a: InvariantForm) -> dict:
    """Full d(a) as a raw dict, built with the oracle wedge only."""
    total: dict = {}
    for (I, J), c in a.coeffs.items():
        factors = [("f", i) for i in I] + [("c", j) for j in J]
        for k in range(len(factors)):
            kind, idx = factors[k]
            dgen_terms = spec.d_generator(kind, idx)
            for pair, sc in dgen_terms:
                pieces = factors[:k] + pair + factors[k + 1:]
                flat = [(0 if t == "f" else 1, i) for (t, i) in pieces]
                res = sort_factors(flat)
                if res is None:
                    continue
                sign, sorted_factors = res
                if k % 2:
                    sign = -sign
                from hodgejump.coeff import rmul

                v = rmul(rmul(c, sc), GR_ONE if sign > 0 else -GR_ONE)
                key = tuple(sorted_factors)
                total = raw_add(total, {key: v})
    return total


def naive_dbar_vector(spec: ComplexStructureSpec, psi: VectorForm) -> dict:
    """delbar of a vector form as a raw {(i, J): coeff} dict.

    delbar(theta_i (x) c_J) = sum_k B^k_{i,l} theta_k (x) (c_l ^ c_J)
                              + theta_i (x) (the (0, q+1) part of naive_d(c_J)).
    """
    from hodgejump.coeff import rmul

    out: dict = {}
    for (i, J), c in psi.coeffs.items():
        for factors, c2 in naive_d(spec, InvariantForm.monomial(spec, (), J)).items():
            if all(side == 1 for side, _ in factors):
                out = raw_add(out, {(i, tuple(j for _, j in factors)): rmul(c, c2)})
        for k in range(1, spec.n + 1):
            for (ii, lam), b in spec.B[k].items():
                res = sort_factors([lam, *J]) if ii == i else None
                if res is None:
                    continue
                sign, J2 = res
                v = rmul(c, b)
                out = raw_add(out, {(k, tuple(J2)): v if sign > 0 else -v})
    return out


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
    from hodgejump.coeff import rmul

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
            v = rmul(rmul(cf, cpsi), GR_ONE if sign > 0 else -GR_ONE)
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
            if r != k:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
        pivots.append(c)
    return m[:len(pivots)], pivots


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


# -- dense matrix reference ------------------------------------------------
# A matrix here is a plain list of row lists holding the entries exactly as
# given (GaussianRational, Poly, int, zeros included); every operation
# visits every cell, the way the package's matrices did before they went
# sparse.

def dense_matmul(a: list[list], b: list[list], cols: int) -> list[list]:
    """a times b, for b with len(b) rows and ``cols`` columns."""
    return [[dense_apply([row], [b_row[j] for b_row in b])[0] for j in range(cols)] for row in a]


def dense_apply(a: list[list], vector: list) -> list:
    from hodgejump.coeff import GR_ZERO, radd, rmul

    out = []
    for row in a:
        acc = GR_ZERO
        for x, v in zip(row, vector, strict=True):
            acc = radd(acc, rmul(x, v))
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


def project_form(basis, form: InvariantForm, params=None) -> list:
    """Coordinates in a ``DolbeaultBasis`` of a form whose coefficients may
    be polynomial: each parameter monomial's constant piece is projected on
    its own.

    Returns GaussianRational coordinates for constant coefficients and Poly
    coordinates in ``params`` otherwise.
    """
    pieces = form.monomial_split()
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
