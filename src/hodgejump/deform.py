"""Deformation engine: first-order classes, order-by-order Maurer-Cartan
extension, first-order obstruction maps on Dolbeault cohomology, class
extension along a family, obstructed subspaces, the induced first spectral
differential, and Hodge-number jump prediction with an independent oracle.

The first-order obstruction of a class [a] in H^{p,q} along a first-order
direction psi is

    o1([a]) = [ del(iota_psi a) + iota_psi(del a) ]  in  H^{p,q+1},

with the contraction convention of :mod:`hodgejump.exterior`.  The extension
machinery works instead in the deformed coframe; for a (p,q)-class the raw
first-order closure defect there equals (-1)^(p+q+1) o1, so the reported
obstruction carries that normalization and the two routes agree exactly.

The jump prediction needs only the ranks of o1, and takes them from delbar
ranks alone (``jump_report``): delbar deformed along a ray, over the jets
Q(i)[s]/(s^2), induces o1, so no cohomology basis and no o1 matrix is formed.
"""

from __future__ import annotations

from collections import defaultdict
from math import comb

from . import linalg
from .coeff import (GR_ONE, GR_ZERO, CoefficientError, GaussianRational, Jet, Poly, _Immutable,
                    _Record, accumulate)
from .errors import InternalInvariantError, ValidationFailure
from .exterior import (
    ComplexStructureSpec,
    Diagnostic,
    InvariantForm,
    SpecError,
    VectorForm,
    _contract_vector,
    _d_monomial,
    _dd_defects,
    _layout,
    _shuffle,
    deformed_coframe,
    defect_is_zero,
    validate_spec,
)

__all__ = [
    "Dolbeault",
    "DolbeaultBasis",
    "DeformationFamily",
    "McObstruction",
    "ObstructionReport",
    "ExtensionResult",
    "SecondClassReport",
    "JumpTable",
    "Witness",
    "hodge_table",
    "validate_first_order",
    "dbar_vector",
    "mc_extend",
    "obstruction_o1",
    "extend_class",
    "second_class_subspace",
    "jump_report",
    "ray",
    "oracle_hodge_at_point",
    "frolicher_d1",
    "parallelisable_witness",
    "THREEFOLD_ROW",
]

# bidegrees in the order Hodge rows are conventionally reported for n = 3
THREEFOLD_ROW = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]


class DolbeaultBasis(_Record, _Immutable):
    """Cohomology basis at one bidegree, with form-level projection.

    ``vector`` and ``rep_form`` key representative k by (I, J) mask pairs,
    ``positions`` keys a mask-keyed vector by position, both through ``layout``,
    the read-only column order of its delbar matrices.  Frozen, shared per bidegree.
    """

    p: int
    q: int
    cob: linalg.CohomologyBasis
    layout: tuple
    _hidden = ("layout",)

    @property
    def dim(self) -> int:
        return self.cob.dim

    def vector(self, k: int) -> dict:
        """Representative k, keyed by (I, J) mask pairs."""
        return _keyed(self.layout[0], self.p, self.q, self.cob.sparse_representatives[k])

    def positions(self, v: dict) -> dict:
        """A mask-keyed (p, q) vector keyed by position, as ``cob.project`` takes it."""
        index, width = self.layout[1], len(self.layout[0].get(self.q, ()))
        return {index[mi] * width + index[mj]: c for (mi, mj), c in v.items()}

    def rep_form(self, spec: ComplexStructureSpec, k: int) -> InvariantForm:
        return InvariantForm._trusted(spec, self.vector(k), self.p, self.q)

    def project_constant_form(self, form: InvariantForm) -> list[GaussianRational]:
        """Class coordinates of a constant (p, q)-form, checked delbar-closed."""
        if (form.p, form.q) != (self.p, self.q):
            raise linalg.LinalgError(f"projection of a ({form.p},{form.q})-form onto {self.cob.label}")
        a = {key: GaussianRational._coerce(c) for key, c in form.terms.items()}
        if _dbar(form.spec, a):
            raise linalg.LinalgError("projection of a non-closed vector")
        coords = self.cob.project(self.positions(a))
        return [coords.get(k, GR_ZERO) for k in range(self.dim)]


def _keyed(levels, p: int, q: int, vec) -> dict:
    """A position-keyed (p, q) vector keyed by (I, J) mask pairs of ``levels`` instead."""
    rows, cols, width = levels[p], levels[q], len(levels[q])
    return {(rows[r // width], cols[r % width]): c for r, c in vec.items()}


class Dolbeault:
    """Bigraded delbar-complex of a spec with memoized matrices, ranks and bases.

    The ``B`` and ``Abar`` constants lie in Q(i) or in the jets Q(i)[s]/
    (s^(K+1)) of one parameter; over jets each delbar matrix is the Q(i)
    matrix of delbar on jet-valued forms, and every rule below still holds.
    Hodge numbers come from delbar ranks (``_rank``).  delbar.delbar = 0 is
    checked once per spec, as d.d = 0 on the generators (d.d is a
    derivation, and its (p, q+2) part is delbar.delbar); only a spec that
    fails it has d_out . d_in formed at each bidegree, which reports the
    first column where it is nonzero.  A spec that passes may also be
    certified, delbar zero on (n, n-1)-forms (every unimodular Lie algebra):
    Leibniz on a ^ b, a of bidegree (p, q) and b of (n-p, n-1-q), makes
    delbar_{p,q} a signed transpose of delbar_{n-p,n-1-q}, so one matrix of
    each dual pair is ranked.  Or it may be factorable, with no ``B`` terms
    (complex-parallelisable): then delbar(f_I ^ c_J) = (-1)^p f_I ^ delbar
    c_J, so delbar_{p,q} = (-1)^p I_{C(n,p)} (x) delbar_{0,q}, and every
    rank and basis at p >= 1 is copied from the (0, q) row: a table builds
    the p = 0 matrices and the certificate delbar_{n,n-1} alone (Y. Sakane,
    Osaka J. Math. 13 (1976)).  A basis is built only where classes are
    used, over Q(i) alone, never by ``jump_report``, which reads ranks.

    Use ``Dolbeault.of(spec)``: one instance per spec, held on the spec
    itself, so every caller shares its matrices and bases.
    """

    def __init__(self, spec: ComplexStructureSpec):
        self.spec = spec._without_cache()
        self._matrices: dict[tuple[int, int], linalg.ExactMatrix] = {}
        self._bases: dict[tuple[int, int], DolbeaultBasis] = {}
        self._ranks: dict[tuple[int, int], int] = {}
        self._pieces: tuple | None = None
        self._dd_zero: bool | None = None

    @classmethod
    def of(cls, spec: ComplexStructureSpec) -> "Dolbeault":
        """The spec's single Dolbeault complex, created on first use.

        Racing first calls from two threads may each build one; the last
        stored wins, and both compute the same bases.
        """
        dol = spec._dolbeault
        if dol is None:
            dol = cls(spec)
            object.__setattr__(spec, "_dolbeault", dol)
        return dol

    def _generator_pieces(self) -> tuple:
        """What every delbar matrix is assembled from, computed on first use.

        ``layout`` is the read-only view of ``exterior._layout(n)`` that every
        basis reads; ``masks`` and ``index`` are the plain dicts under it.
        ``dbar_f[I]`` holds delbar(f_I) (the ``B`` terms) keyed by
        (I', bit of j) for f_I' ^ c_j, and ``dbar_c[J]`` holds delbar(c_J)
        (the ``Abar`` terms) keyed by J', both from ``_d_monomial``.  ``order``
        is K when the ``B`` and ``Abar`` constants not in Q(i) are jets of
        order K >= 1 in one parameter, else 0; other rings raise ``LinalgError``.
        """
        if self._pieces is None:
            spec, n = self.spec, self.spec.n
            rings = {(getattr(c, "params", ()), getattr(c, "order", None) or 0)
                     for table in (spec.B, spec.Abar) for row in table.values()
                     for c in row.values() if type(c) is not GaussianRational}
            params, order = next(iter(rings), ((), 0))
            if len(rings) > 1 or rings and (len(params) != 1 or order < 1):
                raise linalg.LinalgError("cohomology expects constant matrices")
            layout, masks, index = _layout(n)
            dbar_f, dbar_c, has_b = {}, {}, any(spec.B.values())
            for m in index:
                dbar_f[m], db = {}, {}
                if has_b:
                    _d_monomial(spec, m, 0, dbar_f[m])
                _d_monomial(spec, 0, m, db)
                dbar_c[m] = {tj: c for (_, tj), c in db.items()}
            self._pieces = (layout, masks, index, dbar_f, dbar_c, order)
        return self._pieces

    @property
    def order(self) -> int:
        """The jet order K of the delbar constants, 0 when they are in Q(i)."""
        return self._generator_pieces()[5]

    def dbar_matrix(self, p: int, q: int) -> linalg.ExactMatrix:
        """Matrix of delbar from bidegree (p, q) to (p, q+1), over Q(i).

        Assembled straight into sparse rows by the Leibniz rule
        delbar(f_I ^ c_J) = delbar(f_I) ^ c_J + (-1)^p f_I ^ delbar(c_J):
        a term f_I' ^ c_j of delbar(f_I) lands on f_I' ^ c_(J+j) with sign
        (-1)^r(j, J), and vanishes when j is in J.  Monomial (I, J) of
        bidegree (p, q) has index idx(I) * C(n, q) + idx(J), the order of
        ``basis_monomials``: the one layout every basis of the complex
        reads.  With jet constants of order K, it is delbar on jet-valued
        forms modulo s^(K+1), laid out by ``linalg._jet_expand``.
        """
        key = (p, q)
        m = self._matrices.get(key)
        if m is not None:
            return m
        _, masks, index, dbar_f, dbar_c, order = self._generator_pieces()
        # out-of-range bidegrees have no monomials
        src_i, src_j, width = masks.get(p, []), masks.get(q, []), len(masks.get(q + 1, []))
        # only rows that receive a term are made: most are empty for large n
        rows: defaultdict[int, dict] = defaultdict(dict)
        # each term's signed values, formed once per matrix, not per entry
        c_terms = [(r, mj, [(index[tj], -c if p & 1 else c) for tj, c in dbar_c[mj].items()])
                   for r, mj in enumerate(src_j)]
        # a column receives a term only from delbar(f_I) or from delbar(c_J)
        c_only = [t for t in c_terms if t[2]]
        for ri, mi in enumerate(src_i):
            own = index[mi] * width
            f_terms = [(index[ti] * width, bj, c, -c) for (ti, bj), c in dbar_f[mi].items()]
            for r, mj, c_row in (c_terms if f_terms else c_only):
                col = ri * len(src_j) + r
                for base, bj, c, neg in f_terms:
                    if not mj & bj:
                        accumulate(rows[base + index[mj | bj]], col,
                                   neg if (mj & (bj - 1)).bit_count() & 1 else c)
                for tj, c in c_row:
                    accumulate(rows[own + tj], col, c)
        nrows, ncols = len(src_i) * width, len(src_i) * len(src_j)
        if order:
            rows, jets = defaultdict(dict), rows
            linalg._jet_expand(jets.items(), nrows, ncols, order, rows)
            nrows, ncols = (order + 1) * nrows, (order + 1) * ncols
        m = linalg.ExactMatrix._trusted(ncols, rows, nrows)
        self._matrices[key] = m
        return m

    def _chain(self, p: int, q: int) -> tuple[linalg.ExactMatrix, linalg.ExactMatrix]:
        """(d_in, d_out): delbar into and out of bidegree (p, q), checked to
        compose to zero (see the class docstring)."""
        d_out = self.dbar_matrix(p, q)
        d_in = self.dbar_matrix(p, q - 1) if q >= 1 else linalg.ExactMatrix.zeros(d_out.cols, 0)
        (linalg._check_shapes if self._dd_ok() else linalg._check_chain)(d_in, d_out)
        return d_in, d_out

    def _dd_ok(self) -> bool:
        """d.d = 0 on the generators, checked once per spec."""
        if self._dd_zero is None:
            try:
                self._dd_zero = next(_dd_defects(self.spec), None) is None
            except CoefficientError:  # Polys over two parameter tuples: the products decide
                self._dd_zero = False
        return self._dd_zero

    def _factorable(self) -> bool:
        """d.d = 0 with no ``B`` terms: delbar_{p,q} = (-1)^p I_{C(n,p)} (x) delbar_{0,q}."""
        return not any(self.spec.B.values()) and self._dd_ok()

    def _rank(self, p: int, q: int) -> int:
        """rank delbar_{p,q}, memoized, by the first rule that applies: its
        Serre dual's rank when the spec is certified and that rank is known;
        C(n,p) rank delbar_{0,q} when the spec is factorable and p >= 1;
        else ``rank_const`` of the matrix, the chain of a spec failing d.d
        = 0 checked first by ``_chain``.  Zero for q < 0 or q >= n."""
        n, r = self.spec.n, self._ranks.get((p, q))
        if r is None and 0 <= q < n:
            trusted = self._dd_ok()
            if trusted and self.dbar_matrix(n, n - 1).is_zero():
                r = self._ranks.get((n - p, n - 1 - q))
            if r is None and p and self._factorable():
                r = comb(n, p) * self._rank(0, q)
            if r is None:
                r = linalg.rank_const(self.dbar_matrix(p, q) if trusted else self._chain(p, q)[1])
            self._ranks[(p, q)] = r
        return r or 0

    def basis(self, p: int, q: int) -> DolbeaultBasis:
        key = (p, q)
        if key in self._bases:
            return self._bases[key]
        if self.order:
            raise linalg.LinalgError("cohomology expects constant matrices")
        label = f"H^{p},{q}"
        if 1 <= p <= self.spec.n and self._factorable():
            cob = self.basis(0, q).cob.repeat(comb(self.spec.n, p), label)
        else:
            cob = linalg._cohomology(*self._chain(p, q), label=label)
        self._bases[key] = b = DolbeaultBasis(p=p, q=q, cob=cob, layout=self._generator_pieces()[0])
        return b

    def table(self) -> dict[tuple[int, int], int]:
        """h^{p,q} for all 0 <= p, q <= n by rank-nullity over ``_rank``;
        builds no basis.  With jet constants of order K it is the Q(i)
        dimension of the cohomology of jet-valued forms."""
        n, copies = self.spec.n, self.order + 1
        return {(p, q): copies * comb(n, p) * comb(n, q) - self._rank(p, q) - self._rank(p, q - 1)
                for p in range(n + 1) for q in range(n + 1)}


def hodge_table(spec: ComplexStructureSpec) -> dict[tuple[int, int], int]:
    """Invariant Hodge numbers h^{p,q} for all 0 <= p, q <= n."""
    return Dolbeault.of(spec).table()


# -- first-order classes --------------------------------------------------

def dbar_vector(spec: ComplexStructureSpec, psi: VectorForm) -> VectorForm:
    """delbar on T^(1,0)-valued forms in the invariant model.

    delbar(theta_i (x) w) = sum_{k,l} B^k_{i,l} theta_k (x) (c_l ^ w)
                           + theta_i (x) delbar(w).
    The first term vanishes for parallelisable structures (B = 0).  A
    (0, n)-form has a zero delbar, returned in degree n as wedge does.
    """
    if psi.spec != spec:
        raise SpecError("dbar_vector: spec mismatch")
    out: dict = {}
    for (i, mj), c in psi.terms.items():
        db: dict = {}
        _d_monomial(spec, 0, mj, db)
        for (_, m), c2 in db.items():
            accumulate(out, (i, m), c * c2)
        for k in range(1, spec.n + 1):
            for (ii, lam), b in spec.B[k].items():
                bl = 1 << lam
                if ii != i or mj & bl:
                    continue
                v = c * b
                accumulate(out, (k, mj | bl), -v if _shuffle(bl, mj) & 1 else v)
    return VectorForm._trusted(spec, out, min(psi.q + 1, spec.n))


def validate_first_order(spec: ComplexStructureSpec, psi1: VectorForm) -> list[Diagnostic]:
    """Check that psi1 is a valid first-order deformation direction."""
    if psi1.q != 1:
        return [Diagnostic("error", "psi", f"expected a (0,1) vector form, got q={psi1.q}")]
    diags = [Diagnostic("error", f"theta{i}(x)c{mj.bit_length() - 1}",
                        "coefficients of a first-order class must be homogeneous of degree 1")
             for (i, mj), c in psi1.terms.items()
             if isinstance(c, Poly) and {sum(e) for e in c.terms} - {1}]
    for (i, J) in sorted(dbar_vector(spec, psi1).coeffs):
        c_J = "^".join(f"c{j}" for j in J)
        diags.append(Diagnostic("error", f"theta{i}",
                                f"delbar(psi) has a nonzero component on theta{i}(x){c_J}"))
    return diags


def _check_first_order(spec: ComplexStructureSpec, psi1: VectorForm) -> None:
    errs = [d for d in validate_first_order(spec, psi1) if d.severity == "error"]
    if errs:
        raise ValidationFailure("; ".join(map(str, errs)))


class McObstruction(Exception):
    """Raised when the Maurer-Cartan step has no solution at some order."""

    def __init__(self, order: int, residual: dict):
        self.order = order
        self.residual = residual
        super().__init__(f"Maurer-Cartan obstruction at order {order}")


class DeformationFamily(_Record):
    """A jet family through the base spec with vanishing integrability defect.

    ``deformed`` is the spec in the deformed coframe, derived from ``psi``.
    """

    spec: ComplexStructureSpec
    psi: VectorForm
    order: int
    corrections: dict = {}
    _hidden = ("corrections",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.psi.q != 1:
            raise ValidationFailure("family direction must be a (0,1) vector form")
        if not self.psi.constant_part_is_zero():
            raise ValidationFailure("family must pass through the base point (zero constant term)")
        self.deformed, defect = deformed_coframe(self.spec, self.psi)
        if not defect_is_zero(defect):
            raise ValidationFailure(
                f"family is not integrable modulo degree {self.order + 1}"
            )

    def params(self) -> tuple[str, ...]:
        return self.psi.params() or ()


def mc_extend(spec: ComplexStructureSpec, psi1: VectorForm, target_order: int) -> DeformationFamily:
    """Extend a first-order class to a family killing the defect order by order.

    The degree-k correction solves the exact linear system
    dbar_vector(psi_k) = -(degree-k defect); raises :class:`McObstruction`
    with the unkillable residual when no solution exists.  A family that
    fails its own integrability check afterwards is an internal breach.
    """
    _check_first_order(spec, psi1)
    if target_order < 1:
        raise ValidationFailure("target order must be at least 1")
    params = psi1.params()
    if params is None:
        raise ValidationFailure("mc_extend expects polynomial first-order coefficients")
    if not psi1.constant_part_is_zero():
        raise ValidationFailure("family must pass through the base point (zero constant term)")

    def to_jet(v: VectorForm) -> VectorForm:
        return VectorForm._trusted(spec, {key: Jet(c, target_order) if isinstance(c, Poly)
                                          else Jet.constant(params, c, target_order)
                                          for key, c in v.terms.items()}, v.q)

    psi = to_jet(psi1)

    # linear operator psi_k -> degree-k defect contribution, on the frame basis
    n = spec.n
    unknowns = [(i, lam) for i in range(1, n + 1) for lam in range(1, n + 1)]
    # rows: the (k, c_a^c_b mask) keys of a delbar(psi_k) term
    pairs = [(k, 1 << a | 1 << b) for k in range(1, n + 1)
             for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    row_of = {pair: r for r, pair in enumerate(pairs)}
    columns = []
    for (i, lam) in unknowns:
        v = dbar_vector(spec, VectorForm.term(spec, i, (lam,)))
        columns.append({row_of[key]: c for key, c in v.terms.items()})
    L = linalg.ExactMatrix.from_columns(len(pairs), columns)

    corrections: dict[int, VectorForm] = {}
    for k in range(2, target_order + 1):
        _, defect = deformed_coframe(spec, psi)
        # degree-k part of the defect, per parameter monomial
        by_monomial = _pieces({(gen, 1 << a | 1 << b): c for gen, row in defect.items()
                               for (a, b), c in row.items()}, params, k)
        if not by_monomial:
            corrections[k] = VectorForm._trusted(spec, {}, 1)
            continue
        delta: dict = {}
        for exps, rowvals in sorted(by_monomial.items()):
            sol = linalg.solve_const(L, {row_of[pair]: -v for pair, v in rowvals.items()})
            if sol is None:
                residual = {
                    gen: InvariantForm._trusted(spec, {(0, m): Poly(params, {exps: c})
                                                       for (g, m), c in rowvals.items() if g == gen},
                                                0, 2)
                    for gen in range(1, n + 1)
                }
                raise McObstruction(k, residual)
            for j in sorted(sol):
                i, lam = unknowns[j]
                accumulate(delta.setdefault((i, 1 << lam), {}), exps, sol[j])
        corrections[k] = VectorForm._trusted(spec, {key: Poly._trusted(params, terms)
                                                    for key, terms in delta.items()}, 1)
        psi = psi + to_jet(corrections[k])

    try:
        return DeformationFamily(spec=spec, psi=psi, order=target_order, corrections=corrections)
    except ValidationFailure as e:
        raise InternalInvariantError("Maurer-Cartan solution left a nonzero defect") from e


# -- first-order obstruction map ------------------------------------------

class ObstructionReport(_Record):
    """Matrix of o1 : H^{p,q} -> H^{p,q+1} in the stored bases."""

    p: int
    q: int
    matrix: linalg.ExactMatrix
    source: DolbeaultBasis
    target: DolbeaultBasis
    params: tuple[str, ...] | None

    def generic_rank(self) -> int:
        return linalg.generic_rank(self.matrix)

    def rank_at(self, point: dict) -> int:
        return linalg.rank_const(self.matrix.eval_point(point))

    def kernel(self) -> list[list]:
        return linalg.kernel_basis(self.matrix)


def _del(spec: ComplexStructureSpec, a: dict) -> dict:
    """del of a mask-keyed sparse vector."""
    out: dict = {}
    for (mi, mj), c in a.items():
        _d_monomial(spec, mi, mj, None, c, out)
    return out


def _dbar(spec: ComplexStructureSpec, a: dict) -> dict:
    """delbar of a mask-keyed sparse vector."""
    out: dict = {}
    for (mi, mj), c in a.items():
        _d_monomial(spec, mi, mj, out, c)
    return out


def _o1_vector(spec: ComplexStructureSpec, psi_terms: dict, a: dict, da: dict) -> dict:
    """del(iota_psi a) + iota_psi(del a) on mask-keyed sparse vectors; ``da`` is del(a)."""
    v = _del(spec, _contract_vector(psi_terms, a, {}))
    # each half is summed on its own first, so coefficient types match form sums
    for key, c in _contract_vector(psi_terms, da, {}).items():
        accumulate(v, key, c)
    return v


def _pieces(vec: dict, params: tuple[str, ...] | None, degree: int | None = None) -> dict:
    """Split a sparse vector into constant pieces, one per parameter monomial
    (of total ``degree`` only, when one is given).

    Returns {exponent tuple: {key: Q(i) value}}.  A Poly (a Jet is one)
    contributes its terms and a constant value lands in the zero exponent,
    or under ``()`` when there are no parameters.
    """
    zero = (0,) * len(params) if params is not None else ()
    pieces: dict[tuple[int, ...], dict] = {}
    for key, c in vec.items():
        if isinstance(c, Poly):
            if c.params != params:
                raise CoefficientError(f"parameter mismatch: {params} vs {c.params}")
            terms = c.terms.items()
        else:
            terms = ((zero, c),)
        for exps, v in terms:
            if degree is None or sum(exps) == degree:
                pieces.setdefault(exps, {})[key] = v
    return pieces


def o1_value(spec: ComplexStructureSpec, psi1: VectorForm, form: InvariantForm) -> InvariantForm:
    """The representative-level value del(iota_psi a) + iota_psi(del a)."""
    if form.spec != spec:
        raise SpecError("form does not belong to this spec")
    if psi1.spec != spec:
        raise SpecError("contract: spec mismatch")
    v = _o1_vector(spec, psi1.terms, form.terms, _del(spec, form.terms))
    return InvariantForm._trusted(spec, v, form.p, min(form.q + psi1.q, spec.n))


def _check_bidegree(spec: ComplexStructureSpec, p: int, q: int) -> None:
    if not (0 <= p <= spec.n and 0 <= q <= spec.n):
        raise ValidationFailure(f"bidegree ({p},{q}) out of range for n={spec.n}")


def obstruction_o1(spec: ComplexStructureSpec, psi1: VectorForm, p: int, q: int) -> ObstructionReport:
    """First-order obstruction map on cohomology at bidegree (p, q).

    o1 is linear in psi, so each sparse representative is mapped once per
    constant piece of psi (one per parameter monomial) on mask-keyed Q(i)
    vectors, and the sparse class coordinates of the pieces become the
    monomials of Poly entries; a Poly is made only for a nonzero entry.  A
    constant psi gives a Q(i) matrix, a parametric one a polynomial matrix
    even when every entry is zero.
    """
    _check_bidegree(spec, p, q)
    _check_first_order(spec, psi1)
    dol = Dolbeault.of(spec)
    src, tgt = dol.basis(p, q), dol.basis(p, q + 1)
    params = psi1.params()
    pieces = _pieces(psi1.terms, params)
    rows: list[dict] = [{} for _ in range(tgt.dim)]
    for col in range(src.dim):
        a = src.vector(col)
        da = _del(spec, a)
        coords = {}
        for exps, terms in pieces.items():
            v = _o1_vector(spec, terms, a, da)
            if not v:
                continue
            if _dbar(spec, v):
                raise InternalInvariantError("o1 value is not delbar-closed")
            coords[exps] = tgt.cob.project(tgt.positions(v))
        if params is None:
            for k, x in coords.get((), {}).items():
                rows[k][col] = x
        else:
            for k in {k for x in coords.values() for k in x}:
                rows[k][col] = Poly._trusted(params, {e: x[k] for e, x in coords.items() if k in x})
    if params is None:
        m = linalg.ExactMatrix._trusted(src.dim, rows)
    else:
        if rows and src.dim:  # a zero Poly entry, as __init__ reads it, keeps it polynomial
            rows[0].setdefault(0, Poly(params))
        m = linalg.ExactMatrix(tgt.dim, src.dim, rows)
    return ObstructionReport(p=p, q=q, matrix=m, source=src, target=tgt, params=params)


# -- class extension along a family ---------------------------------------

class ExtensionResult(_Record):
    status: str  # "extended" | "obstructed"
    order: int   # verified order, or the first failing order
    p: int
    q: int
    obstruction_coords: list | None = None
    obstruction_form: InvariantForm | None = None
    extension: InvariantForm | None = None

    # one is built per extend_class call: a plain __init__ runs about four
    # times faster than the generic _Record loop
    def __init__(self, status, order, p, q, obstruction_coords=None, obstruction_form=None,
                 extension=None):
        self.status = status
        self.order = order
        self.p = p
        self.q = q
        self.obstruction_coords = obstruction_coords
        self.obstruction_form = obstruction_form
        self.extension = extension


def extend_class(family: DeformationFamily, alpha: InvariantForm, max_order: int) -> ExtensionResult:
    """Extend a delbar-closed class order by order along the family.

    The extension lives in the deformed coframe with jet coefficients.  At
    the first order whose closure defect has a nonzero class in
    H^{p,q+1}(X_0) the obstruction is reported, normalized by
    (-1)^(p+q+1) so that at order 1 it equals the o1 matrix value.

    The work runs on mask-keyed sparse vectors and follows the class's
    support and its defects: the extension maps (I, J) mask pairs to jets,
    each order's defect is delbar alone in the deformed coframe, and its
    degree-k part is split into one Q(i) piece per parameter monomial.
    Each piece is projected sparsely; one with a zero class is killed by a
    fix solved from its nonzeros with the delbar matrix's memoized solver,
    each fix column read back as its mask pair through the layout.
    The obstruction stays {class index: {exponent: value}} until it is
    returned; forms are built only for the result.
    """
    spec = family.spec
    if max_order < 1 or max_order > family.order:
        raise ValidationFailure(
            f"max_order must lie in 1..{family.order} (the family's jet order)"
        )
    if alpha.spec != spec:
        raise ValidationFailure("class must live on the family's base spec")
    a = alpha.terms
    if any(not isinstance(c, GaussianRational) for c in a.values()):
        raise ValidationFailure("class representative must have constant coefficients")
    if _dbar(spec, a):
        raise ValidationFailure("class representative is not delbar-closed")
    params = family.params()
    p, q = alpha.p, alpha.q
    dol = Dolbeault.of(spec)
    tgt = dol.basis(p, q + 1)
    dbar0 = dol.dbar_matrix(p, q)
    dspec = family.deformed
    order = family.order
    sign = GR_ONE if (p + q) % 2 else -GR_ONE  # (-1)^(p+q+1)
    zero = (0,) * len(params)

    alpha_t = {key: Poly._trusted(params, {zero: c}, order) for key, c in a.items()}
    for k in range(1, max_order + 1):
        w = _dbar(dspec, alpha_t)
        low = min((sum(e) for c in w.values() for e in c.terms), default=k)
        if low < k:
            raise InternalInvariantError(
                f"extension defect reappeared at order {low} while solving order {k}"
            )
        pieces = _pieces(w, params, k)
        obstruction: dict[int, dict] = {}
        fixes: dict = {}
        for exps, piece in sorted(pieces.items()):
            if _dbar(spec, piece):
                raise linalg.LinalgError("projection of a non-closed vector")
            vec = tgt.positions(piece)
            cls = tgt.cob.project(vec)
            # each exponent is one piece, so no (class, exponent) entry is written twice
            for i, cval in cls.items():
                obstruction.setdefault(i, {})[exps] = cval * sign
            if not cls:
                sol = linalg.solve_const(dbar0, {i: -v for i, v in vec.items()})
                if sol is None:
                    raise InternalInvariantError("zero class defect was not exact")
                fixes[exps] = sol
        if obstruction:
            coords = [Poly._trusted(params, obstruction.get(i, {})) for i in range(tgt.dim)]
            form: dict = {}
            for idx in sorted(obstruction):
                for key, v in tgt.vector(idx).items():
                    accumulate(form, key, coords[idx] * v)
            return ExtensionResult(status="obstructed", order=k, p=p, q=q, obstruction_coords=coords,
                                   obstruction_form=InvariantForm._trusted(spec, form, p, q + 1))
        add: dict = {}
        for exps, sol in fixes.items():
            for key, x in _keyed(tgt.layout[0], p, q, sol).items():
                accumulate(add.setdefault(key, {}), exps, x)
        for key, terms in add.items():
            accumulate(alpha_t, key, Poly._trusted(params, terms, order))
    return ExtensionResult(status="extended", order=max_order, p=p, q=q,
                           extension=InvariantForm._trusted(dspec, alpha_t, p, q))


# -- obstructed subspaces and jump prediction ------------------------------

class SecondClassReport(_Record):
    """Image of o1 : H^{p,q-1} -> H^{p,q}, symbolically and at a point."""

    p: int
    q: int
    o1: ObstructionReport
    generic_dim: int
    generic_image: list[list]
    point: dict | None = None
    point_dim: int | None = None
    point_image: list[list] | None = None


def second_class_subspace(spec: ComplexStructureSpec, psi1: VectorForm, p: int, q: int,
                          point: dict | None = None) -> SecondClassReport:
    if q < 1:
        raise ValidationFailure("second-class subspace needs q >= 1")
    rep = obstruction_o1(spec, psi1, p, q - 1)
    m = rep.matrix
    pivots = linalg.pivot_columns(m)
    generic_image = [m.column(j) for j in pivots]
    out = SecondClassReport(p=p, q=q, o1=rep, generic_dim=len(pivots), generic_image=generic_image)
    if point is not None:
        ev = m.eval_point(point)
        span = linalg.Echelon(ev.rows, ev.sparse_columns)
        out.point = dict(point)
        out.point_dim = span.rank
        out.point_image = [linalg._dense(r, ev.rows) for r in span.rows()]
    return out


class JumpRow(_Record):
    h0: int
    first: int
    second: int

    @property
    def predicted(self) -> int:
        return self.h0 - self.first - self.second


class JumpTable(_Record):
    """First-order jump prediction for every bidegree."""

    n: int
    point: dict
    rows: dict[tuple[int, int], JumpRow]
    label: str = "first-order prediction"


def ray(psi1: VectorForm, point: dict) -> VectorForm:
    """The first-order direction s -> s psi1(point) in the one parameter s,
    as jets of order 1: ``jump_report`` deforms along it, and ``jump``'s
    oracle tables its Maurer-Cartan family at s = 1.  Zero when psi1
    vanishes at the point."""
    return VectorForm._trusted(psi1.spec, {key: Poly._trusted(("s",), {(1,): c}, 1)
                                           for key, c in psi1.eval_point(point).terms.items()}, psi1.q)


def jump_report(spec: ComplexStructureSpec, psi1: VectorForm, point: dict) -> JumpTable:
    """Predict h^{p,q} near the base point from first-order obstruction ranks.

    first  = rank at the point of o1 : H^{p,q}   -> H^{p,q+1}
    second = rank at the point of o1 : H^{p,q-1} -> H^{p,q}
    predicted = h^{p,q}(0) - first - second

    Every number is a delbar rank; no class is formed.  Deformed along the
    ray s -> s psi1(point) as jets of order 1, the spec's delbar_{p,q} is
    D0 + s D1 over Q(i)[s]/(s^2).  psi1 is delbar-closed, so D1 D0 + D0 D1
    = 0: D1 maps ker D0 into ker delbar_{p,q+1} and im delbar_{p,q-1} into
    im D0, and induces (-1)^(p+q+1) o1 on cohomology.  Since rank [[A, 0],
    [C, B]] = rank A + rank B + rank of C from ker A to coker B (Marsaglia
    and Styan 1974), first is the rank of the jet matrix [[D0, 0], [D1,
    D0]] less 2 rank D0, both ranks from ``Dolbeault._rank`` (so the jet
    ranks of a certified ray spec come one per Serre-dual pair).  A ray
    that leaves every delbar constant in Q(i) has D1 = 0, and first = 0.
    """
    _check_first_order(spec, psi1)
    dol = Dolbeault.of(spec)
    # a zero psi1(point) leaves the spec itself
    jets = Dolbeault.of(deformed_coframe(spec, ray(psi1, point))[0])
    rows = {}
    for (p, q), h0 in dol.table().items():  # q ascends, so (p, q-1) comes first
        first = jets._rank(p, q) - 2 * dol._rank(p, q) if jets.order else 0
        row = JumpRow(h0=h0, first=first, second=rows[(p, q - 1)].first if q else 0)
        if row.predicted < 0:
            raise InternalInvariantError(f"negative predicted Hodge number at ({p},{q})")
        rows[(p, q)] = row
    return JumpTable(n=spec.n, point=dict(point), rows=rows)


def oracle_hodge_at_point(spec: ComplexStructureSpec, family: DeformationFamily,
                          point: dict) -> dict[tuple[int, int], int]:
    """Recompute the full Hodge table at an exact parameter point.

    Independent of the obstruction calculus: evaluates the family, builds
    the deformed structure constants, validates them, and tables the
    deformed spec's Hodge numbers afresh from its delbar ranks
    (rank-nullity).
    """
    psi_num = family.psi.eval_point(point)
    dspec, defect = deformed_coframe(spec, psi_num)
    if not defect_is_zero(defect):
        raise ValidationFailure(
            "integrability defect is nonzero at the point; family truncation insufficient"
        )
    diags = validate_spec(dspec)
    if any(d.severity == "error" for d in diags):
        raise InternalInvariantError(
            "deformed structure failed validation: " + "; ".join(map(str, diags))
        )
    return hodge_table(dspec)


def frolicher_d1(spec: ComplexStructureSpec, p: int, q: int) -> linalg.ExactMatrix:
    """Map induced by del on delbar-cohomology, H^{p,q} -> H^{p+1,q}."""
    _check_bidegree(spec, p, q)
    dol = Dolbeault.of(spec)
    src, tgt = dol.basis(p, q), dol.basis(p + 1, q)  # past p = n, H^{p+1,q} is empty
    rows: list[dict] = [{} for _ in range(tgt.dim)]
    for col in range(src.dim):
        v = _del(spec, src.vector(col))
        if _dbar(spec, v):
            raise InternalInvariantError("del of a closed representative is not delbar-closed")
        for k, x in tgt.cob.project(tgt.positions(v)).items():
            rows[k][col] = x
    return linalg.ExactMatrix._trusted(src.dim, rows)


class Witness(_Record):
    """Certificate that h^{1,0} jumps along theta_k (x) c_j."""

    i: int
    k: int
    j: int
    value: InvariantForm
    coords: list[GaussianRational]


def parallelisable_witness(spec: ComplexStructureSpec) -> Witness | None:
    """Search for a holomorphic 1-form with nonzero first-order obstruction.

    Requires a parallelisable structure (all mixed tables zero).  Returns
    None exactly when del vanishes identically (a torus).
    """
    if not spec.is_parallelisable():
        raise ValidationFailure("witness search requires a parallelisable structure")
    if all(not spec.A[k] for k in spec.A):
        return None
    h11 = Dolbeault.of(spec).basis(1, 1)
    closed_js = [j for j in range(1, spec.n + 1) if not spec.A[j]]
    for i in range(1, spec.n + 1):
        if not spec.A[i]:
            continue
        ks = sorted({a for pair in spec.A[i] for a in pair})
        for k in ks:
            for j in closed_js:
                psi = VectorForm.term(spec, k, (j,))
                v = o1_value(spec, psi, InvariantForm.generator(spec, "f", i))
                if not v:
                    continue
                coords = h11.project_constant_form(v)
                if any(coords):
                    return Witness(i=i, k=k, j=j, value=v, coords=coords)
    raise InternalInvariantError(
        "no witness found although del is nonzero on a parallelisable structure"
    )
