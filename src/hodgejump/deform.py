"""Deformation engine: Kodaira-Spencer classes, order-by-order Maurer-Cartan
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
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType

from . import linalg
from .coeff import GR_ONE, GR_ZERO, CoefficientError, GaussianRational, Jet, Poly, accumulate
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
    _indices,
    _mask,
    _masked,
    _psi_terms,
    _shuffle,
    _unmasked,
    basis_monomials,
    deformed_coframe,
    defect_is_zero,
    validate_spec,
)

__all__ = [
    "Dolbeault",
    "DolbeaultBasis",
    "KSClass",
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
    "oracle_hodge_at_point",
    "frolicher_d1",
    "parallelisable_witness",
    "threefold_row",
    "THREEFOLD_ROW",
]

# bidegrees in the order Hodge rows are conventionally reported for n = 3
THREEFOLD_ROW = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]


@dataclass(frozen=True)
class DolbeaultBasis:
    """Cohomology basis at one bidegree, with form-level projection.

    ``keys`` holds each monomial as its (I, J) mask pair and ``index`` maps
    a mask pair to its position, both computed once per basis.  Frozen,
    with tuple and read-only fields: one instance is cached per spec and
    bidegree and shared by every caller.
    """

    p: int
    q: int
    monomials: tuple
    cob: linalg.CohomologyBasis
    keys: tuple = field(init=False, repr=False)
    index: MappingProxyType = field(init=False, repr=False)

    def __post_init__(self):
        keys = tuple((_mask(I), _mask(J)) for I, J in self.monomials)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "index", MappingProxyType({k: r for r, k in enumerate(keys)}))

    @property
    def dim(self) -> int:
        return self.cob.dim

    def rep_form(self, spec: ComplexStructureSpec, k: int) -> InvariantForm:
        rep = self.cob.sparse_representatives[k]
        return InvariantForm._trusted(spec, {self.monomials[j]: c for j, c in rep.items()}, p=self.p, q=self.q)

    def project_constant_form(self, form: InvariantForm) -> list[GaussianRational]:
        """Class coordinates of a constant (p, q)-form, checked delbar-closed."""
        if (form.p, form.q) != (self.p, self.q):
            raise linalg.LinalgError(f"projection of a ({form.p},{form.q})-form onto {self.cob.label}")
        a = {(_mask(I), _mask(J)): GaussianRational._coerce(c) for (I, J), c in form.coeffs.items()}
        if _dbar(form.spec, a):
            raise linalg.LinalgError("projection of a non-closed vector")
        coords = self.cob.project_sparse({self.index[key]: c for key, c in a.items()})
        return [coords.get(k, GR_ZERO) for k in range(self.dim)]


class Dolbeault:
    """Bigraded delbar-complex of a spec with memoized matrices and bases.

    Hodge numbers come from the ranks of the delbar matrices, each ranked
    once though it serves two bidegrees.  A rank is mostly singleton
    peeling with no arithmetic (``linalg.rank_const``): the matrices of
    the two-step, Heisenberg x C and Iwasawa structures peel to nothing,
    so their tables run no elimination.  A cohomology basis is built only
    where classes are used.  delbar.delbar = 0 is checked once
    per spec, as d.d = 0 on the generators: d.d is a derivation, so that
    makes it zero on every form, and its (p, q+2) part is delbar.delbar.
    Only a spec that fails that check has d_out . d_in formed at each
    bidegree, which reports the first column where it is nonzero.

    Use ``Dolbeault.of(spec)``: one instance per spec, held on the spec
    itself, so every caller shares its matrices and bases.
    """

    def __init__(self, spec: ComplexStructureSpec):
        self.spec = spec._without_cache()
        self._matrices: dict[tuple[int, int], linalg.ExactMatrix] = {}
        self._bases: dict[tuple[int, int], DolbeaultBasis] = {}
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

    def monomials(self, p: int, q: int):
        return basis_monomials(self.spec.n, p, q)

    def _generator_pieces(self) -> tuple:
        """What every delbar matrix is assembled from, computed on first use.

        ``masks[k]`` lists the index bitmasks of size k in basis order (for
        0 <= k <= n) and ``index`` gives each mask's position there.
        ``dbar_f[I]`` holds delbar(f_I) (the ``B`` terms) keyed by
        (I', bit of j) for f_I' ^ c_j.  ``dbar_c[J]`` lists the terms
        (J', c) of delbar(c_J) (the ``Abar`` terms): c_k at position pos in
        J becomes c_i ^ c_j with sign (-1)^(pos + r({i, j}, J - k)).  It
        stays an unsummed list, so each matrix entry adds its terms in the
        order ``_d_monomial`` adds them for f_I ^ c_J (the ``B`` terms, then
        the ``Abar`` terms one by one): the value does not depend on that
        order, but whether a Poly survives a cancellation does.  ``qi`` is
        true when every ``B`` and ``Abar`` constant is in Q(i).
        """
        if self._pieces is None:
            spec, n = self.spec, self.spec.n
            masks = {k: [_mask(c) for c in itertools.combinations(range(1, n + 1), k)]
                     for k in range(n + 1)}
            index = {m: r for level in masks.values() for r, m in enumerate(level)}
            dbar_f, dbar_c = {}, {}
            for m in index:
                dbar_f[m] = {}
                _d_monomial(spec, m, 0, dbar_f[m])
                dbar_c[m] = terms = []
                for k in _indices(m):
                    bk = 1 << k
                    rest = m ^ bk
                    for (i, j), c in spec.Abar[k].items():
                        t = (1 << i) | (1 << j)
                        if not rest & t:
                            sign = _shuffle(bk, rest) + _shuffle(t, rest)
                            terms.append((rest | t, -c if sign & 1 else c))
            qi = all(type(c) is GaussianRational for table in (spec.B, spec.Abar)
                     for row in table.values() for c in row.values())
            self._pieces = (masks, index, dbar_f, dbar_c, qi)
        return self._pieces

    def dbar_matrix(self, p: int, q: int) -> linalg.ExactMatrix:
        """Matrix of delbar from bidegree (p, q) to (p, q+1).

        Assembled straight into sparse rows by the Leibniz rule
        delbar(f_I ^ c_J) = delbar(f_I) ^ c_J + (-1)^p f_I ^ delbar(c_J):
        a term f_I' ^ c_j of delbar(f_I) lands on f_I' ^ c_(J+j) with sign
        (-1)^r(j, J), and vanishes when j is in J.  Monomial (I, J) of
        bidegree (p, q) has index idx(I) * C(n, q) + idx(J), the order of
        ``monomials``.
        """
        key = (p, q)
        m = self._matrices.get(key)
        if m is not None:
            return m
        masks, index, dbar_f, dbar_c, qi = self._generator_pieces()
        # out-of-range bidegrees have no monomials
        src_i, src_j, width = masks.get(p, []), masks.get(q, []), len(masks.get(q + 1, []))
        # only rows that receive a term are made: most are empty for large n
        rows: defaultdict[int, dict] = defaultdict(dict)
        # each term's signed values, formed once per matrix, not per entry
        c_terms = [[(index[tj], -c if p & 1 else c) for tj, c in dbar_c[mj]] for mj in src_j]
        col = 0
        for mi in src_i:
            own = index[mi] * width
            f_terms = [(index[ti] * width, bj, c, -c) for (ti, bj), c in dbar_f[mi].items()]
            for mj, c_row in zip(src_j, c_terms):
                for base, bj, c, neg in f_terms:
                    if not mj & bj:
                        accumulate(rows[base + index[mj | bj]], col,
                                   neg if (mj & (bj - 1)).bit_count() & 1 else c)
                for tj, c in c_row:
                    accumulate(rows[own + tj], col, c)
                col += 1
        nrows = len(src_i) * width
        if qi:
            m = linalg.ExactMatrix._trusted(col, rows, nrows)
        else:
            m = linalg.ExactMatrix(nrows, col, [rows.get(i, {}) for i in range(nrows)])
        self._matrices[key] = m
        return m

    def _chain(self, p: int, q: int) -> tuple[linalg.ExactMatrix, linalg.ExactMatrix]:
        """(d_in, d_out): delbar into and out of bidegree (p, q), checked to
        compose to zero (see the class docstring)."""
        d_out = self.dbar_matrix(p, q)
        d_in = self.dbar_matrix(p, q - 1) if q >= 1 else linalg.ExactMatrix.zeros(d_out.cols, 0)
        if self._dd_zero is None:
            try:
                self._dd_zero = next(_dd_defects(self.spec), None) is None
            except CoefficientError:  # Polys over two parameter tuples: the products decide
                self._dd_zero = False
        if not self._dd_zero:
            linalg._check_chain(d_in, d_out)
        return d_in, d_out

    def basis(self, p: int, q: int) -> DolbeaultBasis:
        key = (p, q)
        if key in self._bases:
            return self._bases[key]
        cob = linalg._cohomology(*self._chain(p, q), label=f"H^{p},{q}")
        b = DolbeaultBasis(p=p, q=q, monomials=tuple(self.monomials(p, q)), cob=cob)
        self._bases[key] = b
        return b

    def table(self) -> dict[tuple[int, int], int]:
        """h^{p,q} for all 0 <= p, q <= n by rank-nullity; builds no basis."""
        n = self.spec.n
        return {(p, q): linalg._cohomology_dim(*self._chain(p, q))
                for p in range(n + 1) for q in range(n + 1)}


def hodge_table(spec: ComplexStructureSpec) -> dict[tuple[int, int], int]:
    """Invariant Hodge numbers h^{p,q} for all 0 <= p, q <= n."""
    return Dolbeault.of(spec).table()


def threefold_row(table: dict[tuple[int, int], int]) -> tuple[int, ...]:
    """The nine jumping-relevant Hodge numbers of a threefold, in table order."""
    return tuple(table[pq] for pq in THREEFOLD_ROW)


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
    for (i, J), c in psi.coeffs.items():
        mj = _mask(J)
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
    return VectorForm._trusted(spec, {(i, _indices(m)): v for (i, m), v in out.items()},
                               q=min(psi.q + 1, spec.n))


def validate_first_order(spec: ComplexStructureSpec, psi1: VectorForm) -> list[Diagnostic]:
    """Check that psi1 is a valid first-order deformation direction."""
    diags: list[Diagnostic] = []
    if psi1.q != 1:
        diags.append(Diagnostic("error", "psi", f"expected a (0,1) vector form, got q={psi1.q}"))
        return diags
    for (i, J), c in psi1.coeffs.items():
        if isinstance(c, (Poly, Jet)) and c:
            degs = {sum(e) for e in (c.base.terms if isinstance(c, Jet) else c.terms)}
            if degs - {1}:
                diags.append(
                    Diagnostic(
                        "error",
                        f"theta{i}(x)c{J[0]}",
                        "coefficients of a first-order class must be homogeneous of degree 1",
                    )
                )
    db = dbar_vector(spec, psi1)
    if db:
        for (i, J) in sorted(db.coeffs):
            diags.append(
                Diagnostic(
                    "error",
                    f"theta{i}",
                    f"delbar(psi) has a nonzero component on theta{i}(x)"
                    + "^".join(f"c{j}" for j in J),
                )
            )
    return diags


def _check_first_order(spec: ComplexStructureSpec, psi1: VectorForm) -> None:
    errs = [d for d in validate_first_order(spec, psi1) if d.severity == "error"]
    if errs:
        raise ValidationFailure("; ".join(map(str, errs)))


@dataclass(frozen=True)
class KSClass:
    """Homogeneous degree-n piece of a deformation family."""

    n: int
    value: VectorForm


class McObstruction(Exception):
    """Raised when the Maurer-Cartan step has no solution at some order."""

    def __init__(self, order: int, residual: dict):
        self.order = order
        self.residual = residual
        super().__init__(f"Maurer-Cartan obstruction at order {order}")


@dataclass
class DeformationFamily:
    """A jet family through the base spec with vanishing integrability defect.

    ``deformed`` is the spec in the deformed coframe, derived from ``psi``.
    """

    spec: ComplexStructureSpec
    psi: VectorForm
    order: int
    deformed: ComplexStructureSpec = field(init=False, repr=False)
    corrections: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.psi.q != 1:
            raise ValidationFailure("family direction must be a (0,1) vector form")
        if not self.psi.constant_part_is_zero():
            raise ValidationFailure("family must pass through the base point (zero constant term)")
        self.deformed, defect = deformed_coframe(self.spec, self.psi)
        if not defect_is_zero(defect):
            raise ValidationFailure(
                f"family is not integrable modulo degree {self.order + 1}"
            )

    def kodaira_spencer(self, n: int) -> KSClass:
        value = self.psi.homogeneous_part(n)
        if n == 1 and dbar_vector(self.spec, value):
            raise InternalInvariantError("first-order class is not delbar-closed")
        return KSClass(n, value)

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
        out = {}
        for key, c in v.coeffs.items():
            if isinstance(c, Jet):
                out[key] = Jet(c.base, target_order)
            elif isinstance(c, Poly):
                out[key] = Jet(c, target_order)
            else:
                out[key] = Jet.constant(params, c, target_order)
        return VectorForm(spec, v.q, out)

    psi = to_jet(psi1)

    # linear operator psi_k -> degree-k defect contribution, on the frame basis
    n = spec.n
    unknowns = [(i, lam) for i in range(1, n + 1) for lam in range(1, n + 1)]
    pairs = [(k, (a, b)) for k in range(1, n + 1)
             for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    row_of = {pair: r for r, pair in enumerate(pairs)}
    columns = []
    for (i, lam) in unknowns:
        v = dbar_vector(spec, VectorForm.term(spec, i, (lam,)))
        columns.append({row_of[key]: c for key, c in v.coeffs.items()})
    L = linalg.ExactMatrix.from_columns(len(pairs), columns)

    corrections: dict[int, VectorForm] = {}
    for k in range(2, target_order + 1):
        _, defect = deformed_coframe(spec, psi)
        # degree-k part of the defect, per parameter monomial
        by_monomial: dict[tuple[int, ...], dict] = {}
        for gen, row in defect.items():
            for (a, b), c in row.items():
                h = c.homogeneous_part(k) if isinstance(c, (Poly, Jet)) else Poly(params)
                for exps, v in h.terms.items():
                    by_monomial.setdefault(exps, {})[(gen, (a, b))] = v
        if not by_monomial:
            corrections[k] = VectorForm(spec, 1, {})
            continue
        delta: dict = {}
        for exps, rowvals in sorted(by_monomial.items()):
            rhs = [-(rowvals.get(pair, GR_ZERO)) for pair in pairs]
            sol = linalg.solve_const(L, rhs)
            if sol is None:
                residual = {
                    gen: InvariantForm(spec, 0, 2,
                                       {((), ab): Poly(params, {exps: c})
                                        for (g, ab), c in rowvals.items() if g == gen})
                    for gen in range(1, n + 1)
                }
                raise McObstruction(k, residual)
            for (i, lam), x in zip(unknowns, sol):
                if x:
                    accumulate(delta.setdefault((i, (lam,)), {}), exps, x)
        corrections[k] = VectorForm(spec, 1, {key: Poly._trusted(params, terms)
                                              for key, terms in delta.items()})
        psi = psi + to_jet(corrections[k])

    try:
        return DeformationFamily(spec=spec, psi=psi, order=target_order, corrections=corrections)
    except ValidationFailure as e:
        raise InternalInvariantError("Maurer-Cartan solution left a nonzero defect") from e


# -- first-order obstruction map ------------------------------------------

@dataclass
class ObstructionReport:
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
        return linalg.specialized_rank(self.matrix, point)

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


def _o1_vector(spec: ComplexStructureSpec, psi_terms: list, a: dict, da: dict) -> dict:
    """del(iota_psi a) + iota_psi(del a) on mask-keyed sparse vectors; ``da`` is del(a)."""
    v = _del(spec, _contract_vector(psi_terms, a, {}))
    # each half is summed on its own first, so coefficient types match form sums
    for key, c in _contract_vector(psi_terms, da, {}).items():
        accumulate(v, key, c)
    return v


def _psi_pieces(psi: VectorForm, params: tuple[str, ...] | None) -> dict:
    """Split psi into constant pieces, one per parameter monomial.

    Returns {exponent tuple: psi terms with Q(i) coefficients}.  A Jet
    contributes through its base polynomial and a constant coefficient
    lands in the zero exponent, or under ``()`` when psi has no parameters.
    """
    zero = (0,) * len(params) if params is not None else ()
    pieces: dict[tuple[int, ...], list] = {}
    for i, mpsi, c in _psi_terms(psi):
        if isinstance(c, (Poly, Jet)):
            if c.params != params:
                raise CoefficientError(f"parameter mismatch: {params} vs {c.params}")
            terms = (c.base if isinstance(c, Jet) else c).terms.items()
        else:
            terms = ((zero, c),)
        for exps, v in terms:
            pieces.setdefault(exps, []).append((i, mpsi, v))
    return pieces


def o1_value(spec: ComplexStructureSpec, psi1: VectorForm, form: InvariantForm) -> InvariantForm:
    """The representative-level value del(iota_psi a) + iota_psi(del a)."""
    if form.spec != spec:
        raise SpecError("form does not belong to this spec")
    if psi1.spec != spec:
        raise SpecError("contract: spec mismatch")
    a = _masked(form)
    v = _o1_vector(spec, _psi_terms(psi1), a, _del(spec, a))
    return _unmasked(spec, form.p, min(form.q + psi1.q, spec.n), v)


def obstruction_o1(spec: ComplexStructureSpec, psi1: VectorForm, p: int, q: int) -> ObstructionReport:
    """First-order obstruction map on cohomology at bidegree (p, q)."""
    _check_bidegree(spec, p, q)
    _check_first_order(spec, psi1)
    return _o1_report(spec, psi1, p, q)


def _check_bidegree(spec: ComplexStructureSpec, p: int, q: int) -> None:
    if not (0 <= p <= spec.n and 0 <= q <= spec.n):
        raise ValidationFailure(f"bidegree ({p},{q}) out of range for n={spec.n}")


def _o1_report(spec: ComplexStructureSpec, psi1: VectorForm, p: int, q: int) -> ObstructionReport:
    """``obstruction_o1`` for a psi1 already checked by ``validate_first_order``.

    o1 is linear in psi, so each sparse representative is mapped once per
    constant piece of psi (one per parameter monomial) on mask-keyed Q(i)
    vectors, and the sparse class coordinates of the pieces become the
    monomials of Poly entries; a Poly is made only for a nonzero entry.  A
    constant psi gives a Q(i) matrix, a parametric one a polynomial matrix
    even when every entry is zero.
    """
    dol = Dolbeault.of(spec)
    src = dol.basis(p, q)
    tgt = dol.basis(p, q + 1)
    params = psi1.params()
    pieces = _psi_pieces(psi1, params)
    rows: list[dict] = [{} for _ in range(tgt.dim)]
    for col, rep in enumerate(src.cob.sparse_representatives):
        a = {src.keys[j]: c for j, c in rep.items()}
        da = _del(spec, a)
        coords = {}
        for exps, terms in pieces.items():
            v = _o1_vector(spec, terms, a, da)
            if not v:
                continue
            if _dbar(spec, v):
                raise InternalInvariantError("o1 value is not delbar-closed")
            coords[exps] = tgt.cob.project_sparse({tgt.index[key]: c for key, c in v.items()})
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

@dataclass
class ExtensionResult:
    status: str  # "extended" | "obstructed"
    order: int   # verified order, or the first failing order
    p: int
    q: int
    obstruction_coords: list | None = None
    obstruction_form: InvariantForm | None = None
    extension: InvariantForm | None = None


def extend_class(family: DeformationFamily, alpha: InvariantForm, max_order: int) -> ExtensionResult:
    """Extend a delbar-closed class order by order along the family.

    The extension lives in the deformed coframe with jet coefficients.  At
    the first order whose closure defect has a nonzero class in
    H^{p,q+1}(X_0) the obstruction is reported, normalized by
    (-1)^(p+q+1) so that at order 1 it equals the o1 matrix value.

    The work runs on mask-keyed sparse vectors: the extension maps (I, J)
    mask pairs to jets, each order's defect is delbar alone in the
    deformed coframe, and its degree-k part is split into one Q(i) piece
    per parameter monomial.  Each piece is projected sparsely; one with a
    zero class is killed by a fix solved from its nonzeros with the delbar
    matrix's memoized solver.  Forms are built only for the result.
    """
    spec = family.spec
    if max_order < 1 or max_order > family.order:
        raise ValidationFailure(
            f"max_order must lie in 1..{family.order} (the family's jet order)"
        )
    if alpha.spec != spec:
        raise ValidationFailure("class must live on the family's base spec")
    if any(not isinstance(c, GaussianRational) for c in alpha.coeffs.values()):
        raise ValidationFailure("class representative must have constant coefficients")
    a = _masked(alpha)
    if _dbar(spec, a):
        raise ValidationFailure("class representative is not delbar-closed")
    params = family.params()
    p, q = alpha.p, alpha.q
    dol = Dolbeault.of(spec)
    tgt = dol.basis(p, q + 1)
    dbar0 = dol.dbar_matrix(p, q)
    src_monomials = dol.monomials(p, q)
    dspec = family.deformed
    order = family.order
    sign = GR_ONE if (p + q) % 2 else -GR_ONE  # (-1)^(p+q+1)

    alpha_t = {key: Jet.constant(params, c, order) for key, c in a.items()}
    for k in range(1, max_order + 1):
        w = _dbar(dspec, alpha_t)
        low = min((sum(e) for c in w.values() for e in c.base.terms), default=k)
        if low < k:
            raise InternalInvariantError(
                f"extension defect reappeared at order {low} while solving order {k}"
            )
        pieces: dict[tuple[int, ...], dict] = {}
        for key, c in w.items():
            for exps, v in c.base.terms.items():
                if sum(exps) == k:
                    pieces.setdefault(exps, {})[key] = v
        obstruction: list[dict] = [{} for _ in range(tgt.dim)]
        fixes: dict = {}
        for exps, piece in sorted(pieces.items()):
            if _dbar(spec, piece):
                raise linalg.LinalgError("projection of a non-closed vector")
            vec = {tgt.index[key]: v for key, v in piece.items()}
            cls = tgt.cob.project_sparse(vec)
            for i, cval in cls.items():
                accumulate(obstruction[i], exps, cval * sign)
            if not cls:
                sol = linalg.solve_const(dbar0, {i: -v for i, v in vec.items()})
                if sol is None:
                    raise InternalInvariantError("zero class defect was not exact")
                fixes[exps] = sol
        if any(obstruction):
            coords = [Poly._trusted(params, terms) for terms in obstruction]
            form: dict = {}
            for idx, c in enumerate(coords):
                if c:
                    for j, v in tgt.cob.sparse_representatives[idx].items():
                        accumulate(form, tgt.monomials[j], c * v)
            return ExtensionResult(
                status="obstructed", order=k, p=p, q=q, obstruction_coords=coords,
                obstruction_form=InvariantForm._trusted(spec, form, p=p, q=q + 1),
            )
        add: dict = {}
        for exps, sol in fixes.items():
            for col, x in sol.items():
                I, J = src_monomials[col]
                accumulate(add.setdefault((_mask(I), _mask(J)), {}), exps, x)
        for key, terms in add.items():
            accumulate(alpha_t, key, Jet._trusted(Poly._trusted(params, terms), order))
    return ExtensionResult(status="extended", order=max_order, p=p, q=q,
                           extension=_unmasked(dspec, p, q, alpha_t))


# -- obstructed subspaces and jump prediction ------------------------------

@dataclass
class SecondClassReport:
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
    out = SecondClassReport(
        p=p, q=q, o1=rep, generic_dim=len(pivots), generic_image=generic_image,
    )
    if point is not None:
        ev = m.eval_point(point)
        span = linalg.Echelon(ev.rows, ev.sparse_columns)
        out.point = dict(point)
        out.point_dim = span.rank
        out.point_image = span.rows()
    return out


@dataclass
class JumpRow:
    h0: int
    first: int
    second: int

    @property
    def predicted(self) -> int:
        return self.h0 - self.first - self.second


@dataclass
class JumpTable:
    """First-order jump prediction for every bidegree."""

    n: int
    point: dict
    rows: dict[tuple[int, int], JumpRow]
    label: str = "first-order prediction"

    def predicted_table(self) -> dict[tuple[int, int], int]:
        return {pq: row.predicted for pq, row in self.rows.items()}

    def threefold_row(self) -> tuple[int, ...]:
        return tuple(self.rows[pq].predicted for pq in THREEFOLD_ROW)


def jump_report(spec: ComplexStructureSpec, psi1: VectorForm, point: dict) -> JumpTable:
    """Predict h^{p,q} near the base point from first-order obstruction ranks.

    first  = rank at the point of o1 : H^{p,q}   -> H^{p,q+1}
    second = rank at the point of o1 : H^{p,q-1} -> H^{p,q}
    predicted = h^{p,q}(0) - first - second
    """
    _check_first_order(spec, psi1)
    n = spec.n
    dol = Dolbeault.of(spec)
    # o1 is linear over the coefficients, so M(psi)(point) = M(psi(point))
    psi_at = psi1.eval_point(point)
    ranks = {(p, q): linalg.rank_const(_o1_report(spec, psi_at, p, q).matrix)
             for p in range(n + 1) for q in range(n + 1)}
    rows = {}
    for p in range(n + 1):
        for q in range(n + 1):
            h0 = dol.basis(p, q).dim
            first = ranks[(p, q)]
            second = ranks[(p, q - 1)] if q >= 1 else 0
            row = JumpRow(h0=h0, first=first, second=second)
            if row.predicted < 0:
                raise InternalInvariantError(
                    f"negative predicted Hodge number at ({p},{q})"
                )
            rows[(p, q)] = row
    return JumpTable(n=n, point=dict(point), rows=rows)


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
    for col, rep in enumerate(src.cob.sparse_representatives):
        v = _del(spec, {src.keys[j]: c for j, c in rep.items()})
        if _dbar(spec, v):
            raise InternalInvariantError("del of a closed representative is not delbar-closed")
        for k, x in tgt.cob.project_sparse({tgt.index[key]: c for key, c in v.items()}).items():
            rows[k][col] = x
    return linalg.ExactMatrix._trusted(src.dim, rows)


@dataclass
class Witness:
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
