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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .coeff import GR_ONE, GR_ZERO, GaussianRational, Jet, Poly
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
    """Ranks P_0..P_N and polynomial differentials d^q: R^{P_q} -> R^{P_q+1}."""

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

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def diff(self, q: int) -> linalg.ExactMatrix:
        """d^q, a zero matrix outside the stored range."""
        if 0 <= q < len(self.diffs):
            return self.diffs[q]
        if q < 0:
            return linalg.ExactMatrix.from_columns(self.ranks[0], [])
        return linalg.ExactMatrix(0, self.ranks[-1], [])

    def max_degree(self) -> int:
        deg = 0
        for d in self.diffs:
            for row in d.entries:
                for x in row:
                    if isinstance(x, Poly):
                        deg = max(deg, x.degree())
        return deg

    def total_rank(self) -> int:
        return sum(self.ranks)


def default_order_bound(c: FreeComplex) -> int:
    """Safe truncation order for the classification searches."""
    return c.max_degree() * c.total_rank() + 1


def validate_complex(c: FreeComplex) -> list[str]:
    """Check d^{q+1} . d^q = 0 as polynomial identities."""
    out = []
    for q in range(len(c.diffs) - 1):
        comp = c.diffs[q + 1].matmul(c.diffs[q])
        for i in range(comp.rows):
            for j in range(comp.cols):
                if comp.entries[i][j]:
                    out.append(
                        f"d^{q + 1} . d^{q} has nonzero entry at row {i}, column {j}"
                    )
                    break
            else:
                continue
            break
    return out


def _blocks(m: linalg.ExactMatrix, upto: int, param: str) -> list[linalg.ExactMatrix]:
    """Coefficient matrices of t^0..t^upto."""
    out = []
    for k in range(upto + 1):
        rows = []
        for row in m.entries:
            r = []
            for x in row:
                if isinstance(x, Poly):
                    exps = (k,)
                    r.append(x.terms.get(exps, GR_ZERO))
                else:
                    r.append(x if k == 0 else GR_ZERO)
            rows.append(r)
        out.append(linalg.ExactMatrix(m.rows, m.cols, rows))
    return out


def _at_zero(m: linalg.ExactMatrix) -> linalg.ExactMatrix:
    return _blocks(m, 0, "")[0]


def cohomology_at_zero(c: FreeComplex, q: int) -> linalg.CohomologyBasis:
    return linalg.cohomology(_at_zero(c.diff(q - 1)), _at_zero(c.diff(q)), label=f"H^{q}(E_0)")


def h_dims(c: FreeComplex) -> list[tuple[int, int]]:
    """Per degree: (dimension at t = 0, dimension at generic t)."""
    issues = validate_complex(c)
    if issues:
        raise ValidationFailure("; ".join(issues))
    out = []
    for q in range(len(c.ranks)):
        d_in, d_out = c.diff(q - 1), c.diff(q)
        h0 = (c.ranks[q] - linalg.rank_const(_at_zero(d_out))) - linalg.rank_const(_at_zero(d_in))
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

    def coefficient_vector(self, k: int) -> list[GaussianRational]:
        return [e.base.terms.get((k,), GR_ZERO) for e in self.entries]


def _apply_poly(m: linalg.ExactMatrix, vec: list[Poly], param: str) -> list[Poly]:
    params = (param,)
    out = []
    for i in range(m.rows):
        acc = Poly(params)
        for j in range(m.cols):
            x = m.entries[i][j]
            xp = x if isinstance(x, Poly) else Poly.constant(params, x)
            acc = acc + xp * vec[j]
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


def o_n_q(c: FreeComplex, alpha: JetCochain, n: int,
          cob: linalg.CohomologyBasis | None = None) -> LabObstruction:
    """Class in H^{q+1}(E_0) of the t^n coefficient of d(alpha).

    Precondition: d(alpha) = 0 mod t^n.  The value is raw coefficient
    extraction in the ambient frame; independence from the frame choice is
    a tested property, not an assumption.
    """
    q = alpha.degree
    d = c.diff(q)
    w = _apply_poly(d, alpha.polys(), c.param)
    for k in range(n):
        bad = [p.terms.get((k,), GR_ZERO) for p in w]
        if any(bad):
            raise ValidationFailure(
                f"d(alpha) is nonzero at order {k}; not an order-{n - 1} extension"
            )
    coeff = [p.terms.get((n,), GR_ZERO) for p in w]
    cob = cob or cohomology_at_zero(c, q + 1)
    dnext0 = _at_zero(c.diff(q + 1))
    if dnext0.rows and any(dnext0.apply(coeff)):
        raise InternalInvariantError("obstruction representative is not closed at t = 0")
    return LabObstruction(n=n, q=q, coords=cob.project(coeff), representative=coeff)


def extend_step(c: FreeComplex, alpha: JetCochain):
    """One extension step adjusting only the top jet coefficient.

    ``alpha`` must be an extension to its stored order; returns either the
    corrected cochain at order + 1 or the obstruction class blocking it.
    """
    q = alpha.degree
    n = alpha.order + 1
    ob = o_n_q(c, alpha, n)
    d0 = _at_zero(c.diff(q))
    if ob:
        return ob
    x = linalg.solve_const(d0, [-v for v in ob.representative])
    if x is None:
        raise InternalInvariantError("zero obstruction class with no top-coefficient fix")
    params = (c.param,)
    tn = Poly(params, {(n,): GR_ONE})
    new_entries = [
        Jet(e.base + tn * Poly.constant(params, xi), n)
        for e, xi in zip(alpha.entries, x)
    ]
    return JetCochain(degree=q, entries=new_entries, order=n)


# -- jet-truncated linear systems ------------------------------------------

def _jet_system(blocks: list[linalg.ExactMatrix], order: int):
    """Block lower-triangular matrix of d acting on jets of the given order.

    Unknown layout: x_0, x_1, ..., x_order stacked; equation k reads
    sum_{a+b=k} D_b x_a.
    """
    rows_per = blocks[0].rows
    cols_per = blocks[0].cols
    big_rows = rows_per * (order + 1)
    big_cols = cols_per * (order + 1)
    entries = [[GR_ZERO] * big_cols for _ in range(big_rows)]
    for k in range(order + 1):
        for a in range(k + 1):
            b = k - a
            if b >= len(blocks):
                continue
            blk = blocks[b]
            for i in range(rows_per):
                for j in range(cols_per):
                    v = blk.entries[i][j]
                    if v:
                        entries[k * rows_per + i][a * cols_per + j] = v
    return linalg.ExactMatrix(big_rows, big_cols, entries)


def _solve_jet(c: FreeComplex, q: int, rhs: list[Poly], order: int) -> list[Poly] | None:
    """Solve d^q(x) = rhs mod t^(order+1) for x with jet order ``order``."""
    d = c.diff(q)
    blocks = _blocks(d, order, c.param)
    big = _jet_system(blocks, order)
    flat_rhs = []
    for k in range(order + 1):
        flat_rhs.extend(p.terms.get((k,), GR_ZERO) for p in rhs)
    sol = linalg.solve_const(big, flat_rhs)
    if sol is None:
        return None
    params = (c.param,)
    out = []
    for j in range(d.cols):
        poly = Poly(params, {(k,): sol[k * d.cols + j] for k in range(order + 1)})
        out.append(poly)
    return out


def _rho_is_zero(c: FreeComplex, q_target: int, beta: list[GaussianRational], i: int) -> bool:
    """Whether [t^i beta] vanishes in H^{q_target} of the order-i jet complex."""
    params = (c.param,)
    ti = Poly(params, {(i,): GR_ONE})
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
    """
    bound = default_order_bound(c) if order_bound is None else order_bound
    cob = cohomology_at_zero(c, q)
    h = cob.dim
    if h == 0:
        return FirstClassReport(q=q, order_bound=bound, dim=0, extendable_dim=0,
                                extendable_basis=[], obstructed_basis=[])
    d = c.diff(q)
    dprev0 = _at_zero(c.diff(q - 1))
    blocks = _blocks(d, bound, c.param)
    P_q = c.ranks[q]
    n_c = h
    n_y = dprev0.cols
    n_x = P_q * bound  # x_1..x_bound
    cols = n_c + n_y + n_x
    rows = d.rows * (bound + 1)
    entries = [[GR_ZERO] * cols for _ in range(rows)]
    reps = cob.representatives

    def add_block(row0, col0, m: linalg.ExactMatrix):
        for i in range(m.rows):
            for j in range(m.cols):
                v = m.entries[i][j]
                if v:
                    entries[row0 + i][col0 + j] = entries[row0 + i][col0 + j] + v

    # x_0 = sum c_i rep_i + dprev0 y enters every equation through D_k x_0
    for k in range(bound + 1):
        Dk = blocks[k]
        # contribution of the class coordinates
        for i in range(d.rows):
            for ci in range(h):
                acc = GR_ZERO
                for j in range(P_q):
                    acc = acc + Dk.entries[i][j] * reps[ci][j]
                if acc:
                    entries[k * d.rows + i][ci] = acc
        # contribution of the exact adjustment y
        m_y = Dk.matmul(dprev0) if n_y else None
        if m_y is not None:
            add_block(k * d.rows, n_c, m_y)
        # contributions of x_1..x_bound
        for a in range(1, bound + 1):
            b = k - a
            if 0 <= b < len(blocks):
                add_block(k * d.rows, n_c + n_y + (a - 1) * P_q, blocks[b])
    big = linalg.ExactMatrix(rows, cols, entries)
    kernel = linalg.kernel_basis_const(big)
    ext_span = linalg.Echelon(h, (v[:n_c] for v in kernel))
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
    """
    params = (param,)
    entries = [[x if isinstance(x, Poly) else Poly.constant(params, x) for x in row]
               for row in m.entries]
    pm = linalg.ExactMatrix(m.rows, m.cols, entries)
    vectors = [pm.column(j) for j in linalg.pivot_columns(pm)]
    while True:
        if not vectors:
            return []
        ev = [[v[i].constant_term() for v in vectors] for i in range(m.rows)]
        evm = linalg.ExactMatrix(m.rows, len(vectors), ev)
        ker = linalg.kernel_basis_const(evm)
        if not ker:
            return [[v[i].constant_term() for i in range(m.rows)] for v in vectors]
        combo = ker[0]
        u = [Poly(params) for _ in range(m.rows)]
        for cval, vec in zip(combo, vectors):
            if cval:
                for i in range(m.rows):
                    u[i] = u[i] + Poly.constant(params, cval) * vec[i]
        # u vanishes at 0; strip the largest common power of t
        shift = min(
            (min(e[0] for e in p.terms) for p in u if p),
            default=None,
        )
        if shift is None or shift == 0:
            # all zero or nothing to strip; drop a participating column
            drop = next(i for i, cval in enumerate(combo) if cval)
            vectors.pop(drop)
            continue
        u = [Poly(params, {(e[0] - shift,): cv for e, cv in p.terms.items()}) for p in u]
        drop = next(i for i, cval in enumerate(combo) if cval)
        vectors[drop] = u


def classify_second_class(c: FreeComplex, q: int, order_bound: int | None = None) -> SecondClassLabReport:
    """Nonzero central classes that extend to sections exact away from 0.

    Computed two independent ways and compared:
    (a) the fiber at 0 of the saturated image lattice of d^{q-1} over the
        fraction field, projected to H^q(E_0);
    (b) the image of the order-``bound`` obstruction map: achievable
        classes [t^n coefficient of d(a)] over all valid jets a.
    """
    if q < 1:
        raise ValidationFailure("second-class classification needs q >= 1")
    bound = default_order_bound(c) if order_bound is None else order_bound
    cob = cohomology_at_zero(c, q)
    h = cob.dim

    # method (a)
    span_a = linalg.Echelon(h)
    if h:
        for vec in _saturation_fiber(c.diff(q - 1), c.param):
            span_a.add(cob.project(vec))

    # method (b)
    span_b = linalg.Echelon(h)
    if h:
        d = c.diff(q - 1)
        blocks = _blocks(d, bound, c.param)
        big = _jet_system(blocks, bound - 1) if bound >= 1 else None
        if big is not None and d.cols:
            kernel = linalg.kernel_basis_const(big)
            for v in kernel:
                # t^bound coefficient of d(a) for the kernel jet a
                coeff = [GR_ZERO] * d.rows
                for a in range(bound):
                    b = bound - a
                    if b < len(blocks):
                        blk = blocks[b]
                        for i in range(d.rows):
                            acc = coeff[i]
                            for j in range(d.cols):
                                if blk.entries[i][j]:
                                    acc = acc + blk.entries[i][j] * v[a * d.cols + j]
                            coeff[i] = acc
                span_b.add(cob.project(coeff))

    rows_a = span_a.rows()
    rows_b = span_b.rows()
    if rows_a != rows_b:
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
    cob = cohomology_at_zero(c, q + 1)
    ob = o_n_q(c, alpha, n, cob=cob)
    if not ob:
        raise ValidationFailure("reduce_to_primitive needs a nonzero order-n obstruction")
    beta = ob.representative
    params = (c.param,)
    m = n
    current = alpha
    while True:
        if m == 1 or not _rho_is_zero(c, q + 1, beta, m - 1):
            check = o_n_q(c, current, m, cob=cob)
            if not check:
                raise InternalInvariantError("descent lost the obstruction class")
            if m > 1 and _rho_is_zero(c, q + 1, check.representative, m - 1):
                raise InternalInvariantError("primitive obstruction unexpectedly vanished")
            return m, current
        # rho_{m-1}(beta) = 0: write t^(m-1) beta = d(x) over jets mod t^m
        tm = Poly(params, {(m - 1,): GR_ONE})
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

    @property
    def h_drop(self) -> int:
        return self.h0 - self.h_generic


def jump_accounting(c: FreeComplex, q: int, order_bound: int | None = None) -> AccountingReport:
    """Decompose the cohomology drop at t = 0 and match it to the obstructed
    subspaces; any mismatch is flagged in the report, never silently."""
    issues = validate_complex(c)
    if issues:
        raise ValidationFailure("; ".join(issues))
    bound = default_order_bound(c) if order_bound is None else order_bound
    dims = h_dims(c)
    h0, hg = dims[q]
    d_out, d_in = c.diff(q), c.diff(q - 1)
    kernel_drop = linalg.generic_rank(d_out) - linalg.rank_const(_at_zero(d_out))
    image_rise = linalg.generic_rank(d_in) - linalg.rank_const(_at_zero(d_in))
    first = classify_first_class(c, q, bound)
    second = classify_second_class(c, q, bound) if q >= 1 else None
    second_dim = second.dim if second is not None else 0
    notes = []
    consistent = True
    if h0 - hg != kernel_drop + image_rise:
        consistent = False
        notes.append("rank bookkeeping does not close")
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
    )
