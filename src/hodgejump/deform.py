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
from types import MappingProxyType

from . import linalg
from .coeff import (GR_ONE, GR_ZERO, CoefficientError, GaussianRational, Jet, Poly, _Immutable,
                    _Record, _axpy, accumulate)
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
    _shuffle_mask,
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
    """Cohomology basis at one bidegree: H^{p,q} is the sum of m ^ H(core)
    at (p - |mf|, q - |mc|) over the free monomials m = f_mf ^ c_mc
    (``Dolbeault``), each core basis in ``cores`` read with the signs of
    ``_keyed`` and in the order of the free columns, as elimination of the
    full matrices gives.  ``core`` is the core's f and c layouts and the
    free f and c masks.  Vectors are keyed by mask pairs of ``layout``, the
    column order of ``dbar_matrix``; a key of another bidegree is refused.
    """

    p: int
    q: int
    cores: MappingProxyType
    layout: tuple
    core: tuple
    _hidden = ("layout", "core")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        free_f, free_c = self.core[2].bit_count(), self.core[3].bit_count()
        object.__setattr__(self, "_dim", sum(comb(free_f, self.p - pc) * comb(free_c, self.q - qc) * cob.dim
                                             for (pc, qc), cob in self.cores.items()))
        object.__setattr__(self, "_at", None)
        object.__setattr__(self, "_classes", None)

    @property
    def dim(self) -> int:
        return self._dim

    def _order(self) -> tuple:
        """(segments, owner, order, where), built on first use.  Per core
        bidegree a segment numbers classes from ``start`` block by block,
        block b reading its core basis through f monomial b // #c and c
        monomial b % #c (each with its ``_core_mask``).  ``owner[i]`` is
        the segment of number i, ``order[k]`` class k's number, ``where``
        inverts ``order``."""
        if self._classes is None:
            (f, c, free_f, free_c), (masks, index), p, q = self.core, self.layout, self.p, self.q
            segments, owner, columns = {}, [], []
            for (pc, qc), cob in self.cores.items():
                rows, cols, w = f[0][pc], c[0][qc], len(c[0][qc])
                fs, cs = ([(m, _core_mask(m, free)) for m in masks[k] if m & free == m]
                          for k, free in ((p - pc, free_f), (q - qc, free_c)))
                segments[(pc, qc)] = s = (len(columns), cob.dim, cob.sparse_representatives, rows, cols, fs, cs)
                columns += [index[rows[r // w] | mf] * len(masks[q]) + index[cols[r % w] | mc]
                            for mf, _ in fs for mc, _ in cs for r in cob.columns]
                owner += [s] * (len(columns) - s[0])
            order = sorted(range(len(columns)), key=columns.__getitem__)
            where = sorted(range(len(order)), key=order.__getitem__)
            object.__setattr__(self, "_classes", (segments, owner, order, where))
        return self._classes

    def vector(self, k: int) -> dict:
        """Representative k, keyed by (I, J) mask pairs."""
        _, owner, order, _ = self._order()
        start, dim, reps, rows, cols, fs, cs = owner[order[k]]
        b, j = divmod(order[k] - start, dim)
        (mf, sf), (mc, sc) = fs[b // len(cs)], cs[b % len(cs)]
        return _keyed(mf, mc, sf, sc, rows, cols, reps[j])

    def positions(self, v: dict) -> dict:
        """A mask-keyed (p, q) vector keyed by position, as delbar's matrices read it."""
        if self._at is None:
            object.__setattr__(self, "_at", tuple({m: r for r, m in enumerate(self.layout[0].get(k, ()))}
                                                  for k in (self.p, self.q)))
        (at_p, at_q), width = self._at, len(self._at[1])
        try:
            return {at_p[mi] * width + at_q[mj]: c for (mi, mj), c in v.items()}
        except KeyError:
            raise linalg.LinalgError("projection: index out of range") from None

    def project(self, v: dict) -> dict[int, GaussianRational]:
        """The nonzero class coordinates ``{k: x}`` of a delbar-closed
        mask-keyed (p, q) vector: its part on each free monomial is read
        into the core with the signs of ``vector`` and reduced once by that
        block's core basis."""
        (f, c, free_f, free_c), p, q, parts, out = self.core, self.p, self.q, {}, {}
        try:
            for (mi, mj), x in v.items():
                if mi.bit_count() != p or mj.bit_count() != q:
                    raise KeyError
                parts.setdefault((mi & free_f, mj & free_c), []).append((mi & ~free_f, mj & ~free_c, x))
            for (mf, mc), terms in parts.items():
                pc, qc = p - mf.bit_count(), q - mc.bit_count()
                sf, sc = _core_mask(mf, free_f), _core_mask(mc, free_c)
                width = len(c[0][qc])
                parts[(mf, mc)] = (pc, qc), sf, sc, {
                    f[1][a] * width + c[1][b]: -x if (sf or sc) and ((a & sf).bit_count() + (b & sc).bit_count()) & 1
                    else x for a, b, x in terms}
        except KeyError:
            raise linalg.LinalgError("projection: index out of range") from None
        for (mf, mc), (key, sf, sc, part) in parts.items():
            coords = self.cores[key]._coords(part)
            if coords:
                segments, _, _, where = self._order()
                start, dim, reps, rows, cols, fs, cs = segments[key]
                start += (fs.index((mf, sf)) * len(cs) + cs.index((mc, sc))) * dim
                for j, x in coords.items():
                    out[where[start + j]] = -x if _parity(rows, cols, next(iter(reps[j])), sf, sc) else x
        return out

    def rep_form(self, spec: ComplexStructureSpec, k: int) -> InvariantForm:
        return InvariantForm._trusted(spec, self.vector(k), self.p, self.q)

    def project_constant_form(self, form: InvariantForm) -> list[GaussianRational]:
        """Class coordinates of a constant (p, q)-form; ``project`` refuses a non-closed one."""
        if (form.p, form.q) != (self.p, self.q):
            raise linalg.LinalgError(f"projection of a ({form.p},{form.q})-form onto H^{self.p},{self.q}")
        coords = self.project({key: GaussianRational._coerce(c) for key, c in form.terms.items()})
        return [coords.get(k, GR_ZERO) for k in range(self.dim)]


def _closed_coords(basis: DolbeaultBasis, v: dict, what: str) -> dict[int, GaussianRational]:
    """``basis.project(v)`` of a vector closed by construction: a refusal is a breach."""
    try:
        return basis.project(v)
    except linalg.LinalgError as e:
        raise InternalInvariantError(f"{what} is not delbar-closed") from e


def _core_mask(m: int, free: int) -> int:
    """The shuffle mask of free monomial m on the core generators: 0 when no sign is -1."""
    return _shuffle_mask(m) & ~(free | 1)


def _parity(rows, cols, r: int, sf: int, sc: int) -> int:
    """r(mf, A) + r(mc, B) mod 2 for f_A ^ c_B at position r of ``rows`` x ``cols``."""
    return ((rows[r // len(cols)] & sf).bit_count() + (cols[r % len(cols)] & sc).bit_count()) & 1


def _keyed(mf: int, mc: int, sf: int, sc: int, rows, cols, vec) -> dict:
    """A vector keyed by position among f-masks ``rows`` x c-masks ``cols``,
    keyed by mask pairs instead: f_A ^ c_B is read as f_(mf+A) ^ c_(mc+B)
    with the sign ``_parity`` gives, relative to the first entry's."""
    width = len(cols)
    if not (sf or sc):  # every sign is +
        return {(rows[r // width] | mf, cols[r % width] | mc): c for r, c in vec.items()}
    signs = [((rows[r // width] & sf).bit_count() + (cols[r % width] & sc).bit_count()) & 1 for r in vec]
    return {(rows[r // width] | mf, cols[r % width] | mc): -c if s != signs[0] else c
            for (r, c), s in zip(vec.items(), signs)}


class Dolbeault:
    """Bigraded delbar-complex of a spec with memoized matrices, ranks and bases.

    The ``B`` and ``Abar`` constants lie in Q(i) or in the jets Q(i)[s]/
    (s^(K+1)) of one parameter; over jets each delbar matrix is the Q(i)
    matrix of delbar on jet-valued forms, and every rule below still holds.
    A generator is free when its delbar is zero and it appears in no ``B``
    or ``Abar`` term; the others span the core.  A free generator is a
    tensor factor with zero differential, so every delbar matrix is block
    diagonal over the monomials m = f_mf ^ c_mc in free generators, each
    block the core's matrix up to signs: ranks, tables and bases are read
    off core matrices.  With no ``B`` terms every f is free (Y. Sakane,
    Osaka J. Math. 13 (1976)).  delbar.delbar = 0 is checked once per spec,
    as d.d = 0 on the generators (d.d is a derivation); a spec that fails it
    has no free generator, and d_out . d_in formed at each bidegree reports
    the first column where it is nonzero.  A spec that passes is certified
    when its core, of a f and b c generators, has delbar zero on (a, b-1)-
    forms (every unimodular Lie algebra): Leibniz on x ^ y then makes the
    core's delbar_{p,q} a signed transpose of delbar_{a-p,b-1-q}, so one
    matrix of each dual pair is ranked.  Bases are built only where classes
    are used, over Q(i) alone.

    Use ``Dolbeault.of(spec)``: one instance per spec, held on the spec
    itself, so every caller shares its matrices and bases.  It reads the
    spec once, when it is created, and keeps no reference to it.
    """

    def __init__(self, spec: ComplexStructureSpec):
        """Read what the complex is built from, so that a spec holding it makes
        no reference cycle: ``_gen`` is the ``_generator_d()`` table, ``order``
        is K for jet constants of order K >= 1 in one parameter, else 0 (other
        rings raise ``LinalgError``), ``_dd_ok`` is d.d = 0 on the generators,
        ``_f`` and ``_c`` the layouts of the core f and c generators, and
        ``_free`` the masks of the free ones."""
        rings = {(getattr(c, "params", ()), getattr(c, "order", None) or 0)
                 for table in (spec.B, spec.Abar) for row in table.values()
                 for c in row.values() if type(c) is not GaussianRational}
        params, self.order = next(iter(rings), ((), 0))
        if len(rings) > 1 or rings and (len(params) != 1 or self.order < 1):
            raise linalg.LinalgError("cohomology expects constant matrices")
        self.n, self._gen = spec.n, spec._generator_d()
        try:
            self._dd_ok = next(_dd_defects(spec), None) is None
        except CoefficientError:  # Polys over two parameter tuples: the products decide
            self._dd_ok = False
        s, _, terms = self._gen
        # the generators of every delbar term and of its generator
        linked = 0 if self._dd_ok else -1
        for b, row in terms.items():
            for wf, wc, _, _, into_del in row:
                linked |= 0 if into_del else b | wf | wc << s
        self._free = ((1 << s) - 2 & ~linked, (1 << s) - 2 & ~(linked >> s))
        f_core, c_core = (tuple(k for k in range(1, s) if not free >> k & 1) for free in self._free)
        self._f = _layout(f_core)
        self._c = self._f if c_core == f_core else _layout(c_core)
        self._size = (len(self._f[1]) - 1, len(self._c[1]) - 1)  # a and b
        # C(#free, k) for each side: the free monomials of each size
        self._binomials = tuple([comb(m.bit_count(), k) for k in range(m.bit_count() + 1)] for m in self._free)
        self._full = None if any(self._free) else self._f  # the layout of all n, built when needed
        self._dbar: dict[tuple[int, int], dict] = {}
        self._matrices: dict[tuple[int, int], linalg.ExactMatrix] = {}
        self._full_matrices: dict[tuple[int, int], linalg.ExactMatrix] = {}
        self._ranks: dict[tuple[int, int], int] = {}
        self._cores: dict[tuple[int, int], linalg.CohomologyBasis] = {}
        self._bases: dict[tuple[int, int], DolbeaultBasis] = {}

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

    def _delbar(self, mi: int, mj: int) -> dict:
        """delbar(f_I ^ c_J), mask-keyed, computed once."""
        d = self._dbar.get((mi, mj))
        if d is None:
            d = self._dbar[(mi, mj)] = {}
            _d_monomial(self._gen, mi, mj, d)
        return d

    def _assemble(self, p: int, q: int, f: tuple, c: tuple) -> linalg.ExactMatrix:
        """delbar from (p, q) to (p, q+1) on the monomials f_I ^ c_J of the
        f-layout ``f`` and the c-layout ``c``, (I, J) at idx(I) * #J + idx(J).

        Assembled straight into sparse rows by the Leibniz rule
        delbar(f_I ^ c_J) = delbar(f_I) ^ c_J + (-1)^p f_I ^ delbar(c_J):
        a term f_I' ^ c_j of delbar(f_I) lands on f_I' ^ c_(J+j) with sign
        (-1)^r(j, J), and vanishes when j is in J.  With jet constants of
        order K, it is delbar on jet-valued forms modulo s^(K+1), laid out
        by ``linalg._jet_expand``.
        """
        (_, f_masks, f_index), (_, c_masks, c_index) = f, c
        # out-of-range bidegrees have no monomials
        src_i, src_j, width = f_masks.get(p, ()), c_masks.get(q, ()), len(c_masks.get(q + 1, ()))
        # only rows that receive a term are made: most are empty for large n
        rows: defaultdict[int, dict] = defaultdict(dict)
        # each term's signed values, formed once per matrix, not per entry
        c_terms = [(r, mj, [(c_index[tj], -v if p & 1 else v) for (_, tj), v in self._delbar(0, mj).items()])
                   for r, mj in enumerate(src_j)]
        # a column receives a term only from delbar(f_I) or from delbar(c_J)
        c_only = [t for t in c_terms if t[2]]
        for ri, mi in enumerate(src_i):
            own = ri * width
            f_terms = [(f_index[ti] * width, bj, v, -v) for (ti, bj), v in self._delbar(mi, 0).items()]
            for r, mj, c_row in (c_terms if f_terms else c_only):
                col = ri * len(src_j) + r
                for base, bj, v, neg in f_terms:
                    if not mj & bj:
                        accumulate(rows[base + c_index[mj | bj]], col,
                                   neg if (mj & (bj - 1)).bit_count() & 1 else v)
                for tj, v in c_row:
                    accumulate(rows[own + tj], col, v)
        nrows, ncols = len(src_i) * width, len(src_i) * len(src_j)
        if self.order:
            rows, jets = defaultdict(dict), rows
            linalg._jet_expand(jets.items(), nrows, ncols, self.order, rows)
            nrows, ncols = (self.order + 1) * nrows, (self.order + 1) * ncols
        return linalg.ExactMatrix._trusted(ncols, rows, nrows)

    def _core_matrix(self, p: int, q: int) -> linalg.ExactMatrix:
        m = self._matrices.get((p, q))
        if m is None:
            m = self._matrices[(p, q)] = self._assemble(p, q, self._f, self._c)
        return m

    def dbar_matrix(self, p: int, q: int) -> linalg.ExactMatrix:
        """Matrix of delbar from bidegree (p, q) to (p, q+1) over Q(i) on all
        n generators, in the column order of ``basis_monomials``; built when
        first asked for, and the core's own when no generator is free."""
        if not any(self._free):
            return self._core_matrix(p, q)
        m = self._full_matrices.get((p, q))
        if m is None:
            self._full = self._full or _layout(range(1, self.n + 1))
            m = self._full_matrices[(p, q)] = self._assemble(p, q, self._full, self._full)
        return m

    def _chain(self, p: int, q: int) -> tuple[linalg.ExactMatrix, linalg.ExactMatrix]:
        """(d_in, d_out): the core's delbar into and out of bidegree (p, q),
        checked to compose to zero (see the class docstring)."""
        d_out = self._core_matrix(p, q)
        d_in = self._core_matrix(p, q - 1) if q >= 1 else linalg.ExactMatrix.zeros(d_out.cols, 0)
        (linalg._check_shapes if self._dd_ok else linalg._check_chain)(d_in, d_out)
        return d_in, d_out

    def _core_rank(self, p: int, q: int) -> int:
        """rank of the core's delbar_{p,q}, memoized: its Serre dual's rank
        when the core is certified and that rank is known, else
        ``rank_const``, of ``_chain`` for a spec failing d.d = 0.  Zero for
        q < 0 or q >= b."""
        (a, b), r = self._size, self._ranks.get((p, q))
        if r is None and 0 <= q < b:
            trusted = self._dd_ok
            if trusted and self._core_matrix(a, b - 1).is_zero():
                r = self._ranks.get((a - p, b - 1 - q))
            if r is None:
                r = linalg.rank_const(self._core_matrix(p, q) if trusted else self._chain(p, q)[1])
            self._ranks[(p, q)] = r
        return r or 0

    def _blocks(self, p: int, q: int) -> list:
        """The core bidegrees (p - |mf|, q - |mc|) of the blocks at (p, q)."""
        (a, b), (free_f, free_c) = self._size, self._binomials
        return [(pc, qc) for pc in range(max(p - len(free_f) + 1, 0), min(p, a) + 1)
                for qc in range(max(q - len(free_c) + 1, 0), min(q, b) + 1)]

    def _rank(self, p: int, q: int) -> int:
        """rank delbar_{p,q}: the core rank of each block, times the number of
        its free monomials."""
        (free_f, free_c), r = self._binomials, 0
        for pc, qc in self._blocks(p, q):
            r += free_f[p - pc] * free_c[q - qc] * self._core_rank(pc, qc)
        return r

    def basis(self, p: int, q: int) -> DolbeaultBasis:
        b = self._bases.get((p, q))
        if b is None:
            if self.order:
                raise linalg.LinalgError("cohomology expects constant matrices")
            cores = {}
            for key in self._blocks(p, q):
                if key not in self._cores:
                    self._cores[key] = linalg._cohomology(*self._chain(*key), label=f"H^{key[0]},{key[1]}")
                cores[key] = self._cores[key]
            self._full = self._full or _layout(range(1, self.n + 1))
            b = self._bases[(p, q)] = DolbeaultBasis(p, q, MappingProxyType(cores), self._full[0],
                                                     (self._f[0], self._c[0], *self._free))
        return b

    def table(self) -> dict[tuple[int, int], int]:
        """h^{p,q} for all 0 <= p, q <= n: the core's numbers by rank-nullity
        over ``_core_rank``, times (1+x)^(free f) (1+y)^(free c); builds no
        basis.  With jet constants of order K it is the Q(i) dimension of
        the cohomology of jet-valued forms."""
        (a, b), (free_f, free_c), copies = self._size, self._binomials, self.order + 1
        table = dict.fromkeys(((p, q) for p in range(self.n + 1) for q in range(self.n + 1)), 0)
        for pc in range(a + 1):
            for qc in range(b + 1):
                h = copies * comb(a, pc) * comb(b, qc) - self._core_rank(pc, qc) - self._core_rank(pc, qc - 1)
                for i, x in enumerate(free_f):
                    for j, y in enumerate(free_c):
                        table[(pc + i, qc + j)] += x * y * h
        return table


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
        _d_monomial(spec._generator_d(), 0, mj, db)
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
        # psi1 has degree 1, a correction degree k <= target_order: no term truncates to 0
        return VectorForm._trusted(spec, {key: Jet(c, target_order) for key, c in v.terms.items()}, v.q)

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
        _d_monomial(spec._generator_d(), mi, mj, None, c, out)
    return out


def _dbar(spec: ComplexStructureSpec, a: dict) -> dict:
    """delbar of a mask-keyed sparse vector."""
    out: dict = {}
    for (mi, mj), c in a.items():
        _d_monomial(spec._generator_d(), mi, mj, out, c)
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
            if v:
                coords[exps] = _closed_coords(tgt, v, "o1 value")
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
    Each piece is projected sparsely, and ``project`` refusing one that is
    not delbar-closed is an internal breach (an integrable family closes
    it); one with a zero class is killed by a fix solved from its nonzeros
    with the delbar matrix's memoized solver, each fix column read back as
    its mask pair through the layout.
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
        obstruction: dict[int, dict] = {}
        fix: dict = {}  # {key: {exponent: value}}, read only once no piece is obstructed
        for exps, piece in sorted(_pieces(w, params, k).items()):
            cls = _closed_coords(tgt, piece, "extension defect")
            # each exponent is one piece, so no (class, exponent) entry is written twice
            for i, cval in cls.items():
                obstruction.setdefault(i, {})[exps] = cval * sign
            if not cls:
                sol = linalg.solve_const(dbar0, {i: -v for i, v in tgt.positions(piece).items()})
                if sol is None:
                    raise InternalInvariantError("zero class defect was not exact")
                for key, x in _keyed(0, 0, 0, 0, tgt.layout[0][p], tgt.layout[0][q], sol).items():
                    accumulate(fix.setdefault(key, {}), exps, x)
        if obstruction:
            coords = [Poly._trusted(params, obstruction.get(i, {})) for i in range(tgt.dim)]
            form: dict = {}
            for idx in sorted(obstruction):
                _axpy(form, coords[idx], tgt.vector(idx))
            return ExtensionResult(status="obstructed", order=k, p=p, q=q, obstruction_coords=coords,
                                   obstruction_form=InvariantForm._trusted(spec, form, p, q + 1))
        for key, terms in fix.items():
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
        for k, x in _closed_coords(tgt, v, "del of a closed representative").items():
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
                coords = h11.project_constant_form(v)
                if any(coords):
                    return Witness(i=i, k=k, j=j, value=v, coords=coords)
    raise InternalInvariantError(
        "no witness found although del is nonzero on a parallelisable structure"
    )
