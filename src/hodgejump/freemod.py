"""Jet obstruction calculus on a finite complex of free modules over Q(i)[t].

The geometric engine has a purely algebraic shadow: a complex

    0 -> R^{P_0} --d^0--> R^{P_1} --> ... --> R^{P_N} -> 0,   R = Q(i)[t],

with polynomial differentials composing to zero.  Extending a cohomology
class of the central fiber t = 0 across the infinitesimal neighborhoods of
0 is a linear problem in the jet coefficients, and the failure at order n
is a class in H^{q+1} of the central fiber:

    o_n([a]) = [ coefficient of t^n in d(a) ],      d(a) = 0 mod t^n.

This module implements that map, the induced extension steps, the two
classes of obstructed elements (classes that never extend; classes that
extend to sections exact away from 0), descent to a primitive leading
obstruction, and the bookkeeping that matches cohomology jumps at t = 0 to
the dimensions of the obstructed subspaces.

Every jet-truncated system comes from one builder, ``_jet_rows``: the
sparse rows of d acting on x_0 + t x_1 + ... + t^N x_N modulo t^(N+1),
block lower-triangular in the t^b coefficient matrices of d.  Jet
extension, the local Smith exponents of d, the first-class search and
method (b) of the second-class search all eliminate those rows with
``linalg.Echelon``.  The searches run at the largest Smith exponent, the
order past which their answers no longer change.

A complex computes its invariants once and holds them: the d.d = 0
verdict, the default order bound and, per degree, d^q at t = 0, the local
Smith counts of d^q and H^q(E_0) (see ``FreeComplex``).  Each matrix likewise ranks itself once
(``linalg.pivot_columns``), so a pass over every degree eliminates each
differential once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .coeff import GR_ONE, GR_ZERO, GaussianRational, Jet, Poly, accumulate
from .errors import InternalInvariantError, ValidationFailure

__all__ = [
    "FreeComplex",
    "JetCochain",
    "LabObstruction",
    "validate_complex",
    "h_dims",
    "o_n_q",
    "extend_step",
    "classify_first_class",
    "classify_second_class",
    "reduce_to_primitive",
    "jump_accounting",
    "default_order_bound",
]


@dataclass(frozen=True)
class FreeComplex:
    """Ranks P_0..P_N and polynomial differentials d^q: R^{P_q} -> R^{P_q+1}.

    ``_memo`` holds what ``_memo_get`` computed from the complex, each on
    first use: the ``validate_complex`` verdict, ``default_order_bound``
    and, per degree, d^q at t = 0, the local Smith counts of d^q and
    H^q(E_0).  Every entry is a pure function of the frozen fields, so
    sharing them is safe; the memo lives and dies with the complex and
    takes no part in ``==``, ``hash`` or ``repr``.
    """

    param: str
    ranks: tuple[int, ...]
    diffs: tuple[linalg.ExactMatrix, ...]

    def __post_init__(self):
        if len(self.diffs) != len(self.ranks) - 1:
            raise ValidationFailure("need exactly one differential per adjacent pair")
        for q, d in enumerate(self.diffs):
            if d.rows != self.ranks[q + 1] or d.cols != self.ranks[q]:
                raise ValidationFailure(
                    f"d^{q} has shape {d.rows}x{d.cols}, expected "
                    f"{self.ranks[q + 1]}x{self.ranks[q]}"
                )
        object.__setattr__(self, "_memo", {})

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def diff(self, q: int) -> linalg.ExactMatrix:
        """d^q; the zero maps 0 -> R^{P_0} at q = -1, R^{P_N} -> 0 at q = N,
        and 0 -> 0 further out.  The two boundary maps are held, so their
        ranks are computed once too."""
        if 0 <= q < len(self.diffs):
            return self.diffs[q]
        if q == -1:
            return _memo_get(self, "d", q, lambda: linalg.ExactMatrix.zeros(self.ranks[0], 0))
        if q == self.length:
            return _memo_get(self, "d", q, lambda: linalg.ExactMatrix.zeros(0, self.ranks[-1]))
        return linalg.ExactMatrix.zeros(0, 0)

    def max_degree(self) -> int:
        deg = 0
        for d in self.diffs:
            for row in d.sparse_rows:
                for x in row.values():
                    if isinstance(x, Poly):
                        deg = max(deg, x.degree())
        return deg

    def total_rank(self) -> int:
        return sum(self.ranks)


def _memo_get(c: FreeComplex, kind: str, q, build):
    """c's ``kind`` invariant at degree q: ``build()`` on first use, then held."""
    key = (kind, q)
    value = c._memo.get(key)
    if value is None:
        value = c._memo[key] = build()
    return value


def _check_complex(c: FreeComplex) -> None:
    """Reject a complex with d.d != 0."""
    issues = validate_complex(c)
    if issues:
        raise ValidationFailure("; ".join(issues))


def _check_degree(c: FreeComplex, q: int) -> None:
    """Reject a complex with d.d != 0 and a degree outside 0..N: every
    entry point that takes a degree calls this before reading the memo."""
    _check_complex(c)
    if not 0 <= q <= c.length:
        raise ValidationFailure(f"degree {q} outside 0..{c.length}")


def default_order_bound(c: FreeComplex) -> int:
    """The ``order_bound`` reported when none is given, and the cap on the
    local Smith exponents.

    A nonzero r x r minor of d has degree at most max degree x total rank,
    and the exponents of d sum to at most its t-adic order, so each is
    below this bound.  The searches run at the largest exponent instead
    (see ``_smith_counts``), which is usually far smaller.
    """
    return _memo_get(c, "cap", None, lambda: c.max_degree() * c.total_rank() + 1)


def _order_bound(c: FreeComplex, order_bound: int | None) -> int:
    """An explicit ``order_bound`` (a negative one has no jets to search), or the default."""
    if order_bound is None:
        return default_order_bound(c)
    if order_bound < 0:
        raise ValidationFailure(f"order_bound must be at least 0, got {order_bound}")
    return order_bound


def validate_complex(c: FreeComplex) -> list[str]:
    """Check d^{q+1} . d^q = 0 as polynomial identities."""
    return list(_memo_get(c, "issues", None, lambda: tuple(_composition_issues(c))))


def _composition_issues(c: FreeComplex):
    for q in range(len(c.diffs) - 1):
        comp = c.diffs[q + 1].matmul(c.diffs[q])
        i = next((i for i, row in enumerate(comp.sparse_rows) if row), None)
        if i is not None:
            yield (f"d^{q + 1} . d^{q} has nonzero entry at row {i}, "
                   f"column {min(comp.sparse_rows[i])}")


def _at_zero(c: FreeComplex, q: int) -> linalg.ExactMatrix:
    """Constant-term matrix: d^q at t = 0."""
    def build():
        m = c.diff(q)
        return linalg.ExactMatrix(m.rows, m.cols, [
            {j: x.constant_term() if isinstance(x, Poly) else x for j, x in row.items()}
            for row in m.sparse_rows
        ])
    return _memo_get(c, "d0", q, build)


def cohomology_at_zero(c: FreeComplex, q: int) -> linalg.CohomologyBasis:
    return _memo_get(c, "H", q, lambda: linalg.cohomology(
        _at_zero(c, q - 1), _at_zero(c, q), label=f"H^{q}(E_0)"))


def h_dims(c: FreeComplex) -> list[tuple[int, int]]:
    """Per degree: (dimension at t = 0, dimension at generic t)."""
    _check_complex(c)
    out = []
    for q in range(len(c.ranks)):
        d_in, d_out = c.diff(q - 1), c.diff(q)
        h0 = (c.ranks[q] - linalg.rank_const(_at_zero(c, q))) - linalg.rank_const(_at_zero(c, q - 1))
        hg = (c.ranks[q] - linalg.generic_rank(d_out)) - linalg.generic_rank(d_in)
        out.append((h0, hg))
    return out


@dataclass
class JetCochain:
    """Element of E^q (x) R/m^(order+1): a vector of single-parameter jets."""

    degree: int
    entries: list[Jet]
    order: int

    @classmethod
    def from_constant(cls, c: FreeComplex, q: int, vector, order: int) -> "JetCochain":
        params = (c.param,)
        entries = [
            Jet.constant(params, GaussianRational._coerce(v), order) for v in vector
        ]
        return cls(degree=q, entries=entries, order=order)

    def polys(self) -> list[Poly]:
        return [e.base for e in self.entries]


def _apply_poly(m: linalg.ExactMatrix, vec: list[Poly], param: str) -> list[Poly]:
    out = []
    for row in m.sparse_rows:
        acc = Poly._trusted((param,), {})
        for j, x in row.items():
            acc = acc + vec[j] * x
        out.append(acc)
    return out


@dataclass
class LabObstruction:
    """Obstruction class at order n: coordinates in H^{q+1}(E_0)."""

    n: int
    q: int
    coords: list[GaussianRational]
    representative: list[GaussianRational]

    def __bool__(self):
        return any(self.coords)


def o_n_q(c: FreeComplex, alpha: JetCochain, n: int) -> LabObstruction:
    """Class in H^{q+1}(E_0) of the t^n coefficient of d(alpha).

    Precondition: d(alpha) = 0 mod t^n.  The value is raw coefficient
    extraction in the ambient frame; independence from the frame choice is
    a tested property, not an assumption.
    """
    q = alpha.degree
    _check_degree(c, q)
    w = _apply_poly(c.diff(q), alpha.polys(), c.param)
    for k in range(n):
        bad = [p.terms.get((k,), GR_ZERO) for p in w]
        if any(bad):
            raise ValidationFailure(
                f"d(alpha) is nonzero at order {k}; not an order-{n - 1} extension"
            )
    coeff = [p.terms.get((n,), GR_ZERO) for p in w]
    dnext0 = _at_zero(c, q + 1)
    if dnext0.rows and any(dnext0.apply(coeff)):
        raise InternalInvariantError("obstruction representative is not closed at t = 0")
    return LabObstruction(n=n, q=q, coords=cohomology_at_zero(c, q + 1).project(coeff),
                          representative=coeff)


def extend_step(c: FreeComplex, alpha: JetCochain):
    """One extension step adjusting only the top jet coefficient.

    ``alpha`` must be an extension to its stored order; returns either the
    corrected cochain at order + 1 or the obstruction class blocking it.
    """
    q = alpha.degree
    n = alpha.order + 1
    ob = o_n_q(c, alpha, n)
    if ob:
        return ob
    x = linalg.solve_const(_at_zero(c, q), [-v for v in ob.representative])
    if x is None:
        raise InternalInvariantError("zero obstruction class with no top-coefficient fix")
    params = (c.param,)
    tn = Poly._trusted(params, {(n,): GR_ONE})
    new_entries = [
        Jet(e.base + tn * Poly.constant(params, xi), n)
        for e, xi in zip(alpha.entries, x)
    ]
    return JetCochain(degree=q, entries=new_entries, order=n)


# -- jet-truncated linear systems ------------------------------------------

def _jet_rows(d: linalg.ExactMatrix, order: int, base=None):
    """Sparse rows of d acting on jets x_0 + t x_1 + ... + t^order x_order
    modulo t^(order+1); returns (rows, width).

    Row k*d.rows + i is the t^k coefficient of component i of d(x): the
    block lower-triangular sum over a + b = k of D_b x_a, D_b the t^b
    coefficient matrix of d.  Columns are x_0, ..., x_order stacked.  With
    ``base`` (sparse vectors b_m), x_0 = sum_m c_m b_m and the first column
    block holds c instead, with entries D_k b_m.
    """
    head = d.cols if base is None else len(base)
    # base vectors by the component they touch: j -> [(m, b_m[j])]
    uses = [[] for _ in range(d.cols)]
    for m, vec in enumerate(base or ()):
        for j, y in vec.items():
            uses[j].append((m, y))
    rows = [{} for _ in range(d.rows * (order + 1))]
    for i, entries in enumerate(d.sparse_rows):
        for j, x in entries.items():
            for (b,), v in (x.terms.items() if isinstance(x, Poly) else [((0,), x)]):
                if b > order:
                    continue
                for a in range(1, order - b + 1):
                    rows[(a + b) * d.rows + i][head + (a - 1) * d.cols + j] = v
                row = rows[b * d.rows + i]
                if base is None:
                    row[j] = v
                else:
                    for m, y in uses[j]:
                        accumulate(row, m, v * y)
    return rows, head + order * d.cols


def _smith_counts(d: linalg.ExactMatrix, rank: int, cap: int) -> list[int]:
    """#{i : e_i = k} for k = 0..max e_i, where t^e_1, ..., t^e_rank are the
    local Smith invariants of d at t = 0 and ``rank`` is its generic rank.

    Over Q(i)[[t]], d = U diag(t^e_1, ..., t^e_rank, 0, ...) V with U and V
    invertible, so the jet operator modulo t^(k+1) has rank
    sum_i max(0, k + 1 - e_i): going from order k - 1 to k adds
    #{i : e_i <= k}.  Row block k of ``_jet_rows`` only reaches column
    blocks a <= k, at columns that do not depend on the order, so one
    echelon grows a block at a time.  It stops once the increment is
    ``rank``; an increment that never gets there by order ``cap`` means
    the generic rank is wrong.
    """
    span = linalg.Echelon(d.cols * (cap + 1))
    counts = []
    for k in range(cap + 1):
        before = span.rank
        for row in _jet_rows(d, k)[0][k * d.rows:]:
            span.add(row)
        at_most_k = span.rank - before
        counts.append(at_most_k - sum(counts))
        if at_most_k == rank:
            return counts
    raise InternalInvariantError(
        f"jet ranks of a {d.rows}x{d.cols} differential do not reach its "
        f"generic rank {rank} by order {cap}"
    )


def _smith(c: FreeComplex, q: int) -> tuple[int, ...]:
    """``_smith_counts`` of d^q, computed once per complex."""
    d = c.diff(q)
    return _memo_get(c, "smith", q, lambda: tuple(
        _smith_counts(d, linalg.generic_rank(d), default_order_bound(c))))


def _max_exponent(c: FreeComplex, q: int) -> int:
    """Largest local Smith exponent of d^q: the order the searches need."""
    return len(_smith(c, q)) - 1


def _solve_jet(c: FreeComplex, q: int, rhs: list[Poly], order: int) -> list[Poly] | None:
    """Solve d^q(x) = rhs mod t^(order+1) for x with jet order ``order``."""
    d = c.diff(q)
    rows, width = _jet_rows(d, order)
    for i, p in enumerate(rhs):
        for (k,), v in p.terms.items():
            if k <= order:
                rows[k * d.rows + i][width] = v
    sol = linalg.Echelon(width + 1, rows).solution()
    if sol is None:
        return None
    params = (c.param,)
    return [Poly._trusted(params, {(k,): x for k in range(order + 1)
                                   if (x := sol[k * d.cols + j])})
            for j in range(d.cols)]


def _rho_is_zero(c: FreeComplex, q_target: int, beta: list[GaussianRational], i: int) -> bool:
    """Whether [t^i beta] vanishes in H^{q_target} of the order-i jet complex."""
    params = (c.param,)
    ti = Poly._trusted(params, {(i,): GR_ONE})
    rhs = [ti * Poly.constant(params, b) for b in beta]
    return _solve_jet(c, q_target - 1, rhs, i) is not None


# -- classification ---------------------------------------------------------

@dataclass
class FirstClassReport:
    q: int
    order_bound: int
    dim: int                      # dimension of the obstructed part
    extendable_dim: int
    extendable_basis: list[list[GaussianRational]]   # coordinates in H^q(E_0)
    obstructed_basis: list[list[GaussianRational]]   # complement certificates


def classify_first_class(c: FreeComplex, q: int, order_bound: int | None = None) -> FirstClassReport:
    """Subspace of H^q(E_0) with no extension to the order bound.

    Extensions carry full lower-order freedom: every positive-degree jet
    coefficient may be adjusted, and the degree-0 coefficient may move
    inside its cohomology class.  The extendable classes form a subspace;
    the report certifies a basis of a complement (each vector genuinely
    obstructed) and the extendable basis itself.

    The search runs at order min(bound, N), N the largest local Smith
    exponent e_i of d^q, with no margin: in the coordinates y = V x of
    ``_smith_counts``, a cocycle extends to order k exactly when y_i(0) = 0
    for every e_i <= k (the higher jet coefficients absorb the rest), so
    the obstructed part has dimension #{i : 1 <= e_i <= k} and is the same
    subspace at every k >= N.
    """
    _check_degree(c, q)
    bound = _order_bound(c, order_bound)
    return _first_class(c, q, bound, min(bound, _max_exponent(c, q)))


def _first_class(c: FreeComplex, q: int, bound: int, order: int) -> FirstClassReport:
    """``classify_first_class`` with its jet search at ``order``."""
    cob = cohomology_at_zero(c, q)
    h = cob.dim
    if h == 0:
        return FirstClassReport(q=q, order_bound=bound, dim=0, extendable_dim=0,
                                extendable_basis=[], obstructed_basis=[])
    # x_0 = sum c_m rep_m + dprev0 y; x_1..x_order are free
    dprev0 = _at_zero(c, q - 1)
    base = cob.sparse_representatives + dprev0.sparse_columns
    rows, width = _jet_rows(c.diff(q), order, base)
    kernel = linalg.Echelon(width, rows).kernel()
    ext_span = linalg.Echelon(h, (v[:h] for v in kernel))
    extendable = ext_span.rows()
    # complement basis: standard vectors outside the extendable span
    obstructed = []
    comp_span = linalg.Echelon(h, extendable)
    for i in range(h):
        e = [GR_ONE if j == i else GR_ZERO for j in range(h)]
        if comp_span.add(e):
            obstructed.append(e)
    return FirstClassReport(
        q=q, order_bound=bound, dim=h - ext_span.rank, extendable_dim=ext_span.rank,
        extendable_basis=extendable, obstructed_basis=obstructed,
    )


@dataclass
class SecondClassLabReport:
    q: int
    order_bound: int
    dim: int
    basis: list[list[GaussianRational]]   # coordinates in H^q(E_0)
    method_a_dim: int
    method_b_dim: int


def _saturation_fiber(m: linalg.ExactMatrix, param: str) -> list[list[GaussianRational]]:
    """Fiber at t = 0 of the saturation of the column lattice of m.

    Starts from independent columns over the fraction field and repeatedly
    divides relations at t = 0 by t; the loop strictly decreases total
    degree, so it terminates with evaluations of full rank.

    Each step forms u = sum c_j v_j for a nonzero kernel vector c of the
    t = 0 evaluation, so u(0) = 0 and every nonzero entry of u gives a
    shift of at least 1.  u is nonzero because the columns stay independent
    over Q(i)(t): the step replaces a column whose coefficient in c is
    nonzero.
    """
    params = (param,)
    vectors = [[x if isinstance(x, Poly) else Poly.constant(params, x) for x in m.column(j)]
               for j in linalg.pivot_columns(m)]
    while True:
        if not vectors:
            return []
        # the t = 0 evaluation as sparse rows, one per entry
        ev = [{k: x for k, v in enumerate(vectors) if (x := v[i].constant_term())}
              for i in range(m.rows)]
        ker = linalg.Echelon(len(vectors), ev).kernel()
        if not ker:
            return [[v[i].constant_term() for i in range(m.rows)] for v in vectors]
        combo = ker[0]
        u = [Poly._trusted(params, {}) for _ in range(m.rows)]
        for cval, vec in zip(combo, vectors):
            if cval:
                for i in range(m.rows):
                    u[i] = u[i] + vec[i] * cval
        # u vanishes at 0; strip the largest common power of t
        shift = min(min(e[0] for e in p.terms) for p in u if p)
        u = [Poly._trusted(params, {(e[0] - shift,): cv for e, cv in p.terms.items()}) for p in u]
        drop = next(i for i, cval in enumerate(combo) if cval)
        vectors[drop] = u


def _jet_search_span(c: FreeComplex, q: int, cob: linalg.CohomologyBasis,
                     bound: int) -> linalg.Echelon:
    """Method (b): the span in H^q(E_0) of the order-``bound`` obstruction map.

    It is the kernel of the order-(bound-1) rows, which are the first bound
    row blocks of the order-bound rows (row block k only reaches column
    blocks a <= k); the top block gives the t^bound coefficient.
    """
    span = linalg.Echelon(cob.dim)
    if cob.dim:
        d = c.diff(q - 1)
        rows, _ = _jet_rows(d, bound)
        low = d.rows * bound
        for v in linalg.Echelon(d.cols * bound, rows[:low]).kernel():
            # a has x_bound = 0: columns past v contribute nothing
            span.add(cob.project([
                sum((x * v[j] for j, x in row.items() if j < len(v)), GR_ZERO)
                for row in rows[low:]
            ]))
    return span


def classify_second_class(c: FreeComplex, q: int, order_bound: int | None = None) -> SecondClassLabReport:
    """Nonzero central classes that extend to sections exact away from 0.

    Computed two independent ways and compared:
    (a) the fiber at 0 of the saturated image lattice of d^{q-1} over the
        fraction field, projected to H^q(E_0);
    (b) the image of the order-N obstruction map: achievable classes
        [t^N coefficient of d(a)] over all valid jets a, N the largest
        local Smith exponent e_i of d^{q-1}.
    N needs no margin: in the coordinates of ``_smith_counts`` the t^n
    coefficients reachable by (b) are U(0) applied to the vectors supported
    on {i : e_i <= n}, one span for every n >= N, of dimension
    #{i : 1 <= e_i <= n} in H^q(E_0).  An explicit ``order_bound`` below N
    is too small to decide: ValidationFailure.  A disagreement of (a) and
    (b) is internal.
    """
    _check_degree(c, q)
    if q < 1:
        raise ValidationFailure("second-class classification needs q >= 1")
    bound = _order_bound(c, order_bound)
    return _second_class(c, q, bound, _max_exponent(c, q - 1))


def _second_class(c: FreeComplex, q: int, bound: int, needed: int) -> SecondClassLabReport:
    """``classify_second_class`` with method (b) at order ``needed``."""
    if bound < needed:
        raise ValidationFailure(
            f"order_bound {bound} is too small to decide the second class at q={q}: "
            f"the jet search needs order {needed}"
        )
    cob = cohomology_at_zero(c, q)
    span_a = linalg.Echelon(cob.dim)
    if cob.dim:
        for vec in _saturation_fiber(c.diff(q - 1), c.param):
            span_a.add(cob.project(vec))
    span_b = _jet_search_span(c, q, cob, needed)

    rows_a = span_a.rows()
    if rows_a != span_b.rows():
        raise InternalInvariantError(
            f"second-class methods disagree at q={q}: "
            f"saturation gives dim {span_a.rank}, jet search gives dim {span_b.rank}"
        )
    return SecondClassLabReport(
        q=q, order_bound=bound, dim=span_a.rank, basis=rows_a,
        method_a_dim=span_a.rank, method_b_dim=span_b.rank,
    )


def reduce_to_primitive(c: FreeComplex, alpha: JetCochain, n: int):
    """Descend to (n', alpha') whose leading-order obstruction is nonzero.

    Requires o_n(alpha) != 0; maintains the class beta = o_n(alpha) through
    the descent, so the result satisfies
    rho_{n'-1}(beta) = o_{n',n'-1}(alpha') != 0.  Always terminates: at
    n' = 1 the check is beta itself.
    """
    q = alpha.degree
    ob = o_n_q(c, alpha, n)
    if not ob:
        raise ValidationFailure("reduce_to_primitive needs a nonzero order-n obstruction")
    beta = ob.representative
    params = (c.param,)
    m = n
    current = alpha
    while True:
        if m == 1 or not _rho_is_zero(c, q + 1, beta, m - 1):
            check = o_n_q(c, current, m)
            if not check:
                raise InternalInvariantError("descent lost the obstruction class")
            if m > 1 and _rho_is_zero(c, q + 1, check.representative, m - 1):
                raise InternalInvariantError("primitive obstruction unexpectedly vanished")
            return m, current
        # rho_{m-1}(beta) = 0: write t^(m-1) beta = d(x) over jets mod t^m
        tm = Poly._trusted(params, {(m - 1,): GR_ONE})
        rhs = [tm * Poly.constant(params, b) for b in beta]
        x = _solve_jet(c, q, rhs, m - 1)
        if x is None:
            raise InternalInvariantError("vanishing jet class without a preimage")
        current = JetCochain(
            degree=q, entries=[Jet(p, m - 2) for p in x], order=m - 2
        )
        m -= 1


@dataclass
class AccountingReport:
    q: int
    h0: int
    h_generic: int
    kernel_drop: int
    image_rise: int
    first_class_dim: int
    second_class_dim: int
    order_bound: int
    consistent: bool
    notes: list[str] = field(default_factory=list)
    # k -> #{i : e_i = k} over the local Smith exponents e_i >= 1 with a
    # nonzero count: of d^q (classes first obstructed at order k) and of
    # d^(q-1) (classes exact away from 0 whose preimage needs order k)
    first_class_orders: dict[int, int] = field(default_factory=dict)
    second_class_orders: dict[int, int] = field(default_factory=dict)

    @property
    def h_drop(self) -> int:
        return self.h0 - self.h_generic


def jump_accounting(c: FreeComplex, q: int, order_bound: int | None = None) -> AccountingReport:
    """Decompose the cohomology drop at t = 0 and match it to the obstructed
    subspaces; any mismatch is flagged in the report, never silently.

    The local Smith exponents of d^q and d^(q-1) give the per-order counts
    and the orders the two searches run at (see ``classify_first_class``
    and ``classify_second_class``).
    """
    _check_degree(c, q)
    bound = _order_bound(c, order_bound)
    out0, in0 = linalg.rank_const(_at_zero(c, q)), linalg.rank_const(_at_zero(c, q - 1))
    out_g, in_g = linalg.generic_rank(c.diff(q)), linalg.generic_rank(c.diff(q - 1))
    h0, hg = c.ranks[q] - out0 - in0, c.ranks[q] - out_g - in_g
    kernel_drop, image_rise = out_g - out0, in_g - in0
    counts_out, counts_in = _smith(c, q), _smith(c, q - 1)
    first = _first_class(c, q, bound, min(bound, len(counts_out) - 1))
    second = _second_class(c, q, bound, len(counts_in) - 1) if q >= 1 else None
    second_dim = second.dim if second is not None else 0
    notes = []
    consistent = True
    if first.dim != kernel_drop:
        consistent = False
        notes.append(
            f"first-class dimension {first.dim} differs from kernel drop {kernel_drop}"
        )
    if second_dim != image_rise:
        consistent = False
        notes.append(
            f"second-class dimension {second_dim} differs from image rise {image_rise}"
        )
    return AccountingReport(
        q=q, h0=h0, h_generic=hg, kernel_drop=kernel_drop, image_rise=image_rise,
        first_class_dim=first.dim, second_class_dim=second_dim,
        order_bound=bound, consistent=consistent, notes=notes,
        first_class_orders={k: n for k, n in enumerate(counts_out) if k and n},
        second_class_orders={k: n for k, n in enumerate(counts_in) if k and n},
    )
