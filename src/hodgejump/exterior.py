"""Invariant exterior algebra of a nilpotent Lie algebra with complex structure.

Generators are a (1,0)-coframe f1..fn and its conjugates c1..cn.  A basis
monomial of bidegree (p, q) is f_I ^ c_J with I and J strictly increasing
index tuples; all holomorphic factors come before all antiholomorphic ones.

A ``ComplexStructureSpec`` stores the differentials of every generator:

    d f_k = sum A[k][i,j] f_i^f_j  +  sum B[k][i,j] f_i^c_j        (i < j)
    d c_k = sum Abar[k][i,j] c_i^c_j  +  sum Bbar[k][i,j] f_i^c_j

For a spec built from user structure constants the c-side is the complex
conjugate of the f-side.  Deformed specs produced by ``deformed_coframe``
carry their own c-side tables, obtained by substitution rather than by
conjugation, so the whole construction also works with polynomial or jet
coefficients where conjugation has no meaning.

Sign conventions that everything downstream depends on:

* every kernel (wedge, d, contraction) holds a monomial as an (I, J) pair
  of int bitmasks, bit i set for index i, and reads each reordering sign
  off one rule: (-1)^r(a, b) with r(a, b) = #{(x, y) : x in a, y in b,
  x > y} (``_shuffle``) is the sign that sorts the indices of a followed by
  those of b;
* wedge: (f_Ia ^ c_Ja) ^ (f_Ib ^ c_Jb) has sign
  (-1)^(r(Ia, Ib) + r(Ja, Jb) + |Ja| |Ib|), since f_Ib first moves left
  past c_Ja;
* d is the graded derivation d(x1^...^xm) = sum_k (-1)^(k-1) x1^...^d(xk)^...;
* contraction with a frame vector removes a holomorphic factor with sign
  (-1)^(k-1), and contraction with theta_i (x) c_J wedges c_J on the right:
  iota(theta_i (x) c_J)(a) = (theta_i _| a) ^ c_J.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType

from .coeff import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Poly,
    _Immutable,
    _Record,
    _sum_text,
    accumulate,
)

__all__ = [
    "ComplexStructureSpec",
    "InvariantForm",
    "VectorForm",
    "Diagnostic",
    "SpecError",
    "wedge",
    "differential",
    "contract",
    "validate_spec",
    "deformed_coframe",
    "basis_monomials",
]


class SpecError(ValueError):
    pass


class Diagnostic(_Record, _Immutable):
    severity: str  # "error" | "warning"
    subject: str
    message: str

    def __str__(self):
        return f"{self.severity}: {self.subject}: {self.message}"


def _clean_table(n: int, table, ordered: bool) -> dict:
    out: dict[tuple[int, int], object] = {}
    for (i, j), c in (table or {}).items():
        if not (1 <= i <= n and 1 <= j <= n):
            raise SpecError(f"generator index out of range in ({i},{j})")
        if ordered and not i < j:
            raise SpecError(f"2-form index pair ({i},{j}) must be strictly increasing")
        if c:
            out[(i, j)] = c
    return out


def _frozen(rows: dict) -> MappingProxyType:
    return MappingProxyType({k: MappingProxyType(row) for k, row in rows.items()})


class ComplexStructureSpec(_Immutable):
    """Structure constants of the complexified Lie algebra, bigraded.

    Immutable: the tables are read-only mappings of read-only rows and
    attributes cannot be rebound, so a spec can own cached data about
    itself (``Dolbeault.of`` keeps the spec's cohomology in ``_dolbeault``).
    """

    __slots__ = ("n", "A", "B", "Abar", "Bbar", "_hash", "_dolbeault")

    def __init__(self, n: int, A=None, B=None, *, Abar=None, Bbar=None):
        if n < 1:
            raise SpecError("complex dimension must be at least 1")
        A = {k: _clean_table(n, (A or {}).get(k), True) for k in range(1, n + 1)}
        B = {k: _clean_table(n, (B or {}).get(k), False) for k in range(1, n + 1)}
        if Abar is None and Bbar is None:
            # conjugate the f-side; only meaningful for numeric coefficients
            abar: dict[int, dict] = {}
            bbar: dict[int, dict] = {}
            for k in range(1, n + 1):
                abar[k] = {ij: self._conj(c) for ij, c in A[k].items()}
                row: dict[tuple[int, int], object] = {}
                for (i, j), c in B[k].items():
                    # conj(f_i^c_j) = c_i^f_j = -f_j^c_i
                    accumulate(row, (j, i), -self._conj(c))
                bbar[k] = row
        else:
            abar = {k: _clean_table(n, (Abar or {}).get(k), True) for k in range(1, n + 1)}
            bbar = {k: _clean_table(n, (Bbar or {}).get(k), False) for k in range(1, n + 1)}
        for name, value in (("n", n), ("A", _frozen(A)), ("B", _frozen(B)),
                            ("Abar", _frozen(abar)), ("Bbar", _frozen(bbar)),
                            ("_hash", None), ("_dolbeault", None)):
            object.__setattr__(self, name, value)

    @staticmethod
    def _conj(c):
        if isinstance(c, GaussianRational):
            return c.conjugate()
        raise SpecError(
            "conjugation of structure constants requires numeric coefficients; "
            "pass explicit c-side tables instead"
        )

    def _without_cache(self) -> "ComplexStructureSpec":
        """An equal spec sharing these read-only tables, with no cache.

        ``Dolbeault`` holds this copy: holding the spec that caches it would
        make the pair a reference cycle, freed only by the cycle collector.
        """
        copy = object.__new__(ComplexStructureSpec)
        for name in self.__slots__:
            object.__setattr__(copy, name, None if name == "_dolbeault" else getattr(self, name))
        return copy

    def is_parallelisable(self) -> bool:
        """True when every mixed table vanishes (holomorphic coframe)."""
        return all(not self.B[k] for k in self.B) and all(not self.Bbar[k] for k in self.Bbar)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ComplexStructureSpec):
            return NotImplemented
        return (
            self.n == other.n
            and self.A == other.A
            and self.B == other.B
            and self.Abar == other.Abar
            and self.Bbar == other.Bbar
        )

    def __hash__(self):
        # Equal coefficients hash equal, whatever their ring (a Poly, a Jet
        # among them, hashes its constant term).  Computed on first use only.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, tuple(
                frozenset((k, ij, c) for k, row in table.items() for ij, c in row.items())
                for table in (self.A, self.B, self.Abar, self.Bbar)
            ))))
        return self._hash

    def __repr__(self):
        eqs = []
        for k in range(1, self.n + 1):
            terms = []
            for (i, j), c in sorted(self.A[k].items()):
                terms.append(f"({c})*f{i}^f{j}")
            for (i, j), c in sorted(self.B[k].items()):
                terms.append(f"({c})*f{i}^c{j}")
            eqs.append(f"df{k}=" + ("+".join(terms) if terms else "0"))
        return f"ComplexStructureSpec(n={self.n}, " + ", ".join(eqs) + ")"


# -- monomial bookkeeping -------------------------------------------------

def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _shuffle(a: int, b: int) -> int:
    """r(a, b) = #{(x, y) : x in a, y in b, x > y} for index bitmasks a, b.

    (-1)^r(a, b) is the sign that sorts the indices of a followed by those
    of b; every reordering sign of the exterior kernels is read off it.
    """
    n = 0
    while a:
        low = a & -a
        n += (b & (low - 1)).bit_count()
        a ^= low
    return n


def _layout(n: int) -> tuple:
    """A read-only ``(masks, index, names)`` and the plain ``masks`` and ``index`` it wraps:
    per size k, the index tuples ``names[k]`` in lexicographic order, their bitmasks
    ``masks[k]``, and ``index[m]``, mask m's position."""
    names = {k: tuple(itertools.combinations(range(1, n + 1), k)) for k in range(n + 1)}
    masks = {k: tuple(map(_mask, level)) for k, level in names.items()}
    index = {m: r for level in masks.values() for r, m in enumerate(level)}
    return (MappingProxyType(masks), MappingProxyType(index), MappingProxyType(names)), masks, index


def basis_monomials(n: int, p: int, q: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Ordered basis of bidegree (p, q): combinations in lexicographic order."""
    if p < 0 or q < 0 or p > n or q > n:
        return []
    rng = range(1, n + 1)
    return [
        (I, J)
        for I in itertools.combinations(rng, p)
        for J in itertools.combinations(rng, q)
    ]


class _Form(_Immutable):
    """Algebra shared by ``InvariantForm`` and ``VectorForm``.

    Coefficients are sparse and exact, keyed by monomial, and held in a
    read-only mapping; a form cannot change once built.  Subclasses provide
    ``_like`` (a form of the same kind and degree with new coefficients) and
    ``_check_addable``.
    """

    __slots__ = ("spec", "coeffs")

    def _freeze(self, **attrs):
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, spec, coeffs, **degree):
        """A form from keys already known to be valid for ``degree`` (``p``
        and ``q``, or ``q``): the key checks of ``__init__`` are skipped,
        zero coefficients are still dropped."""
        form = object.__new__(cls)
        # set directly, not through _freeze: this runs for every kernel
        # result, where re-packing the keywords for a second call shows
        object.__setattr__(form, "spec", spec)
        object.__setattr__(form, "coeffs", MappingProxyType({k: c for k, c in coeffs.items() if c}))
        for name, value in degree.items():
            object.__setattr__(form, name, value)
        return form

    def __add__(self, other):
        self._check_addable(other)
        coeffs = dict(self.coeffs)
        for key, c in other.coeffs.items():
            accumulate(coeffs, key, c)
        return self._like(coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def scale(self, c):
        return self._like({k: v * c for k, v in self.coeffs.items()})

    def __bool__(self):
        return bool(self.coeffs)

    def eval_point(self, point: dict):
        return self._like({key: c.eval(point) if isinstance(c, Poly) else c
                           for key, c in self.coeffs.items()})

    def homogeneous_part(self, k: int):
        """Degree-k part in the parameters; constant coefficients have degree 0."""
        return self._like({key: c.homogeneous_part(k) if isinstance(c, Poly) else c
                           for key, c in self.coeffs.items()
                           if k == 0 or isinstance(c, Poly)})


class InvariantForm(_Form):
    """Homogeneous invariant (p, q)-form with exact coefficients."""

    __slots__ = ("p", "q")

    def __init__(self, spec: ComplexStructureSpec, p: int, q: int, coeffs=None):
        if not (0 <= p <= spec.n and 0 <= q <= spec.n):
            raise SpecError(f"bidegree ({p},{q}) out of range for n={spec.n}")
        clean = {}
        for (I, J), c in (coeffs or {}).items():
            I, J = tuple(I), tuple(J)
            if len(I) != p or len(J) != q:
                raise SpecError(f"monomial ({I},{J}) does not have bidegree ({p},{q})")
            if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
                raise SpecError(f"monomial ({I},{J}) is not strictly increasing")
            if any(not (1 <= i <= spec.n) for i in I + J):
                raise SpecError(f"monomial ({I},{J}) out of range")
            if c:
                clean[(I, J)] = c
        self._freeze(spec=spec, p=p, q=q, coeffs=MappingProxyType(clean))

    # -- constructors --------------------------------------------------

    @classmethod
    def generator(cls, spec, kind: str, k: int, coeff=GR_ONE) -> "InvariantForm":
        if kind == "f":
            return cls(spec, 1, 0, {((k,), ()): coeff})
        return cls(spec, 0, 1, {((), (k,)): coeff})

    @classmethod
    def scalar(cls, spec, c) -> "InvariantForm":
        return cls(spec, 0, 0, {((), ()): c})

    @classmethod
    def monomial(cls, spec, I, J, coeff=GR_ONE) -> "InvariantForm":
        return cls(spec, len(I), len(J), {(tuple(I), tuple(J)): coeff})

    # -- algebra -------------------------------------------------------

    def _like(self, coeffs) -> "InvariantForm":
        return self._trusted(self.spec, coeffs, p=self.p, q=self.q)

    def _check_addable(self, other: "InvariantForm"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecError("cannot add forms over different specs")
        if (self.p, self.q) != (other.p, other.q):
            raise SpecError("cannot add forms of different bidegree")

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        return (
            (self.p, self.q) == (other.p, other.q)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.q, tuple(sorted(self.coeffs))))

    # -- queries ---------------------------------------------------------

    def coefficient(self, I, J):
        return self.coeffs.get((tuple(I), tuple(J)), GR_ZERO)

    def __str__(self):
        return _sum_text([(str(c), "^".join([f"f{i}" for i in I] + [f"c{j}" for j in J]) or "1")
                          for (I, J), c in sorted(self.coeffs.items())])

    def __repr__(self):
        return f"InvariantForm({self.p},{self.q}; {self})"


class VectorForm(_Form):
    """T^(1,0)-valued (0, q)-form: sum psi^i_J theta_i (x) c_J."""

    __slots__ = ("q",)

    def __init__(self, spec: ComplexStructureSpec, q: int, coeffs=None):
        if not (0 <= q <= spec.n):
            raise SpecError(f"antiholomorphic degree {q} out of range")
        clean = {}
        for (i, J), c in (coeffs or {}).items():
            J = tuple(J)
            if not (1 <= i <= spec.n) or len(J) != q:
                raise SpecError(f"bad vector-form key ({i},{J})")
            if list(J) != sorted(set(J)):
                raise SpecError(f"index tuple {J} is not strictly increasing")
            if c:
                clean[(i, J)] = c
        self._freeze(spec=spec, q=q, coeffs=MappingProxyType(clean))

    @classmethod
    def term(cls, spec, i: int, J, coeff=GR_ONE) -> "VectorForm":
        return cls(spec, len(tuple(J)), {(i, tuple(J)): coeff})

    def _like(self, coeffs) -> "VectorForm":
        return self._trusted(self.spec, coeffs, q=self.q)

    def _check_addable(self, other: "VectorForm"):
        if self.q != other.q or self.spec != other.spec:
            raise SpecError("vector form mismatch")

    def __eq__(self, other):
        if not isinstance(other, VectorForm):
            return NotImplemented
        return self.q == other.q and self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, tuple(sorted(self.coeffs))))

    def params(self) -> tuple[str, ...] | None:
        """Parameters of the first polynomial or jet coefficient; None if all are constant."""
        for c in self.coeffs.values():
            if isinstance(c, Poly):
                return c.params
        return None

    def constant_part_is_zero(self) -> bool:
        for c in self.coeffs.values():
            if isinstance(c, Poly):
                if c.constant_term():
                    return False
            elif c:
                return False
        return True

    def __str__(self):
        return _sum_text([(str(c), f"theta{i}" + ("(x)" + "^".join(f"c{j}" for j in J) if J else ""))
                          for (i, J), c in sorted(self.coeffs.items())])

    def __repr__(self):
        return f"VectorForm(q={self.q}; {self})"


# -- core operations ------------------------------------------------------

def _wedge_monomial(a: tuple[int, int], b: tuple[int, int], u, v, out: dict) -> None:
    """Accumulate u * v * (f_Ia ^ c_Ja) ^ (f_Ib ^ c_Jb) into ``out``.

    ``a`` and ``b`` are (I, J) mask pairs.  The product is f_(Ia+Ib) ^
    c_(Ja+Jb) with sign (-1)^(r(Ia, Ib) + r(Ja, Jb) + |Ja| |Ib|); it
    vanishes when a and b share a factor, and the coefficients are then
    not multiplied.
    """
    (fa, ca), (fb, cb) = a, b
    if fa & fb or ca & cb:
        return
    w = u * v
    sign = _shuffle(fa, fb) + _shuffle(ca, cb) + ca.bit_count() * fb.bit_count()
    accumulate(out, (fa | fb, ca | cb), -w if sign & 1 else w)


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    """Exterior product in the canonical basis with reordering signs."""
    if a.spec is not b.spec and a.spec != b.spec:
        raise SpecError("wedge of forms over different specs")
    n = a.spec.n
    p, q = a.p + b.p, a.q + b.q
    if p > n or q > n:
        # no room: the product is identically zero
        return InvariantForm._trusted(a.spec, {}, p=min(p, n), q=min(q, n))
    out: dict = {}
    mb = _masked(b)
    for ka, c1 in _masked(a).items():
        for kb, c2 in mb.items():
            _wedge_monomial(ka, kb, c1, c2, out)
    return _unmasked(a.spec, p, q, out)


def _d_monomial(spec: ComplexStructureSpec, mi: int, mj: int, dbar, c=None, dl=None) -> None:
    """Accumulate d(c * f_I ^ c_J) into ``dl`` (del) and ``dbar`` (delbar).

    The monomial is the (I, J) mask pair ``mi``, ``mj``, and results are
    keyed by mask pairs.  ``c=None`` stands for the coefficient 1 and skips
    the multiplications; ``dl=None`` or ``dbar=None`` skips that part.
    Each Leibniz term replaces one factor f_k or c_k by a 2-form from the
    structure tables; the factors are walked bit by bit.  With p = |I|, pos
    the position of the replaced factor within I (or within J), rest = I
    minus {k} (or J minus {k}) and r the rule of ``_shuffle``, here r(i, m)
    = the number of set bits of m below i, read inline by popcount:

    * ``A``,    f_k -> f_i^f_j: (-1)^(pos + r(i,rest) + r(j,rest)), into del;
    * ``B``,    f_k -> f_i^c_j: (-1)^(p-1 + pos + r(i,rest) + r(j,J)), into delbar;
    * ``Abar``, c_k -> c_i^c_j: (-1)^(p + pos + r(i,rest) + r(j,rest)), into delbar;
    * ``Bbar``, c_k -> f_i^c_j: (-1)^(pos + r(i,I) + r(j,rest)), into del.

    A term vanishes when an index collides with a remaining factor.  Terms
    are accumulated in the order of the factors and of the tables.
    """
    p = mi.bit_count()

    def put(out, key, sc, sign):
        v = sc if c is None else c * sc
        accumulate(out, key, -v if sign & 1 else v)

    m, pos = mi, 0
    while m:
        bk = m & -m
        m ^= bk
        k = bk.bit_length() - 1
        rest = mi ^ bk
        if dl is not None:
            for (i, j), sc in spec.A[k].items():
                bi, bj = 1 << i, 1 << j
                if not rest & (bi | bj):
                    put(dl, (rest | bi | bj, mj), sc,
                        pos + (rest & (bi - 1)).bit_count() + (rest & (bj - 1)).bit_count())
        if dbar is not None:
            for (i, j), sc in spec.B[k].items():
                bi, bj = 1 << i, 1 << j
                if not (rest & bi or mj & bj):
                    put(dbar, (rest | bi, mj | bj), sc,
                        p - 1 + pos + (rest & (bi - 1)).bit_count() + (mj & (bj - 1)).bit_count())
        pos += 1
    m, pos = mj, 0
    while m:
        bk = m & -m
        m ^= bk
        k = bk.bit_length() - 1
        rest = mj ^ bk
        if dbar is not None:
            for (i, j), sc in spec.Abar[k].items():
                bi, bj = 1 << i, 1 << j
                if not rest & (bi | bj):
                    put(dbar, (mi, rest | bi | bj), sc,
                        p + pos + (rest & (bi - 1)).bit_count() + (rest & (bj - 1)).bit_count())
        if dl is not None:
            for (i, j), sc in spec.Bbar[k].items():
                bi, bj = 1 << i, 1 << j
                if not (mi & bi or rest & bj):
                    put(dl, (mi | bi, rest | bj), sc,
                        pos + (mi & (bi - 1)).bit_count() + (rest & (bj - 1)).bit_count())
        pos += 1


def _contract_monomial(mi: int, mj: int, i: int, mpsi: int, c, out: dict) -> None:
    """Accumulate c * iota(theta_i (x) c_Jpsi)(f_I ^ c_J) into ``out``.

    Monomials are (I, J) mask pairs and ``mpsi`` is the mask of Jpsi.  The
    result is c * f_(I-i) ^ c_(J+Jpsi) with sign (-1)^(r(i, I) + r(J, Jpsi)):
    f_i moves to the front past the factors of I below it, then c_Jpsi is
    wedged on the right.  The term vanishes when i is not in I or J and
    Jpsi meet.
    """
    bi = 1 << i
    if not mi & bi or mj & mpsi:
        return
    sign = _shuffle(bi, mi) + _shuffle(mj, mpsi)
    accumulate(out, (mi ^ bi, mj | mpsi), -c if sign & 1 else c)


def _contract_vector(psi_terms: dict, a: dict, out: dict) -> dict:
    """Accumulate iota_psi(a) into ``out`` for a mask-keyed sparse vector
    ``a``; psi is given as ``_psi_terms``."""
    for (i, mpsi), cpsi in psi_terms.items():
        for (mi, mj), c in a.items():
            _contract_monomial(mi, mj, i, mpsi, c * cpsi, out)
    return out


def _psi_terms(psi: VectorForm) -> dict:
    """{(i, Jpsi mask): coefficient} for each term theta_i (x) c_Jpsi of psi."""
    return {(i, _mask(J)): c for (i, J), c in psi.coeffs.items()}


def _masked(form: InvariantForm) -> dict:
    """The mask-keyed sparse vector of a form."""
    return {(_mask(I), _mask(J)): c for (I, J), c in form.coeffs.items()}


def _unmasked(spec: ComplexStructureSpec, p: int, q: int, acc: dict) -> InvariantForm:
    """The form of a mask-keyed sparse vector."""
    return InvariantForm._trusted(
        spec, {(_indices(mi), _indices(mj)): v for (mi, mj), v in acc.items()}, p=p, q=q)


def differential(spec: ComplexStructureSpec, form: InvariantForm):
    """d = del + delbar split by bidegree: del is (p+1, q), delbar is (p, q+1)."""
    if form.spec != spec:
        raise SpecError("form does not belong to this spec")
    dl: dict = {}
    dbar: dict = {}
    for (I, J), c in form.coeffs.items():
        _d_monomial(spec, _mask(I), _mask(J), dbar, c, dl)
    # past degree n there is no monomial, so the clamped part is empty
    n = spec.n
    return (_unmasked(spec, min(form.p + 1, n), form.q, dl),
            _unmasked(spec, form.p, min(form.q + 1, n), dbar))


def contract(psi: VectorForm, a: InvariantForm) -> InvariantForm:
    """Interior product with a vector-valued form.

    iota(theta_i (x) c_J)(a) = (theta_i _| a) ^ c_J, extended bilinearly.
    Contracting a (0, q)-form gives zero.
    """
    if psi.spec != a.spec:
        raise SpecError("contract: spec mismatch")
    spec = a.spec
    out = _contract_vector(_psi_terms(psi), _masked(a), {})
    return _unmasked(spec, max(a.p - 1, 0), min(a.q + psi.q, spec.n), out)


# -- validation -----------------------------------------------------------

def _dd_defects(spec: ComplexStructureSpec):
    """Yield (generator name, d(d g)) for each generator g with d(d g) != 0.

    Generators come in the order f1, c1, f2, c2, ...; d(d g) is a
    mask-keyed sparse vector.  d(g) is taken with ``_d_monomial``, then d
    of each of its terms, with del and delbar summed into one dict: no
    form is built.
    """
    for k in range(1, spec.n + 1):
        bk = 1 << k
        for mi, mj, name in ((bk, 0, f"f{k}"), (0, bk, f"c{k}")):
            dg: dict = {}
            _d_monomial(spec, mi, mj, dg, None, dg)
            ddg: dict = {}
            for (ti, tj), c in dg.items():
                _d_monomial(spec, ti, tj, ddg, c, ddg)
            if ddg:
                yield name, ddg


def validate_spec(spec: ComplexStructureSpec) -> list[Diagnostic]:
    """Check d.d = 0 on every generator plus the nilpotency shape.

    Returns a list of diagnostics; an empty list means the spec is a valid
    nilpotent complex structure.  Nilpotency violations are warnings (the
    invariant-cohomology model is then unjustified but still computable);
    d.d != 0 is an error.  d.d is a derivation, so once it vanishes on the
    generators it vanishes on every form, and so does its (p, q+2) part,
    delbar.delbar, at every bidegree.
    """
    out: list[Diagnostic] = []
    for name, ddg in _dd_defects(spec):
        witness = ", ".join(
            f"({','.join(map(str, I))}|{','.join(map(str, J))})"
            for I, J in sorted((_indices(mi), _indices(mj)) for mi, mj in ddg)
        )
        out.append(Diagnostic("error", name, f"d.d is nonzero on monomials {witness}"))
    for k in range(1, spec.n + 1):
        for (i, j) in list(spec.A[k]) + list(spec.B[k]):
            if i >= k or j >= k:
                out.append(Diagnostic("warning", f"f{k}", f"structure constant on ({i},{j}) breaks "
                                      f"the nilpotent index ordering (expected indices below {k})"))
    return out


# -- deformed coframe -----------------------------------------------------

def deformed_coframe(spec: ComplexStructureSpec, psi: VectorForm):
    """Structure constants in the deformed coframe f_i(t) = f_i + sum psi^i_l c_l.

    The antiholomorphic generators are kept fixed, so the change of basis is
    block triangular and inverts exactly by the substitution
    f_i = f_i(t) - sum psi^i_l c_l; no series inversion is needed and the
    computation is uniform over numeric, polynomial and jet coefficients.

    Returns ``(new_spec, defect)`` where ``defect`` maps each generator
    index to the (0,2)-component of d f_k(t) in the deformed bigrading; a
    nonzero defect is exactly the failure of integrability of psi.
    """
    if psi.q != 1:
        raise SpecError("deformed_coframe expects a (0,1) vector form")
    if psi.spec != spec:
        raise SpecError("deformed_coframe: spec mismatch")
    if not psi:
        return spec, {k: {} for k in range(1, spec.n + 1)}
    n = spec.n
    psi_table: dict[int, dict[int, object]] = {i: {} for i in range(1, n + 1)}
    for (i, J), c in psi.coeffs.items():
        psi_table[i][J[0]] = c
    # the original generators as one-factor mask pairs in the deformed ones
    f_old = {i: [((1 << i, 0), GR_ONE)] + [((0, 1 << lam), -c) for lam, c in row.items()]
             for i, row in psi_table.items()}
    c_old = {j: [((0, 1 << j), GR_ONE)] for j in range(1, n + 1)}

    def d_old(kind: str, k: int) -> list:
        """d of an original generator as (first factor, second factor, coefficient)."""
        if kind == "f":
            return ([(f_old[i], f_old[j], sc) for (i, j), sc in spec.A[k].items()]
                    + [(f_old[i], c_old[j], sc) for (i, j), sc in spec.B[k].items()])
        return ([(c_old[i], c_old[j], sc) for (i, j), sc in spec.Abar[k].items()]
                + [(f_old[i], c_old[j], sc) for (i, j), sc in spec.Bbar[k].items()])

    def substitute(terms) -> dict:
        """Rewrite a 2-form (original factors) as mask pairs in the deformed generators."""
        acc: dict = {}
        for xs, ys, coeff in terms:
            for x, cx in xs:
                u = coeff * cx
                for y, cy in ys:
                    _wedge_monomial(x, y, u, cy, acc)
        return acc

    A2: dict[int, dict] = {}
    B2: dict[int, dict] = {}
    Abar2: dict[int, dict] = {}
    Bbar2: dict[int, dict] = {}
    defect: dict[int, dict] = {}
    for k in range(1, n + 1):
        # d f_k(t) = d f_k + sum_l psi^k_l d c_l, then substitute; rows by f-count
        terms = d_old("f", k) + [(xs, ys, c * sc) for lam, c in psi_table[k].items()
                                 for xs, ys, sc in d_old("c", lam)]
        A2[k], B2[k], defect[k] = {}, {}, {}
        rows = (defect[k], B2[k], A2[k])
        for (fm, cm), c in substitute(terms).items():
            rows[fm.bit_count()][_indices(fm) + _indices(cm)] = c
        # d c_k is unchanged as a form; substitution rewrites its f factors
        # and never raises the f-count
        Abar2[k], Bbar2[k] = {}, {}
        rows = (Abar2[k], Bbar2[k])
        for (fm, cm), c in substitute(d_old("c", k)).items():
            rows[fm.bit_count()][_indices(fm) + _indices(cm)] = c
    new_spec = ComplexStructureSpec(n, A2, B2, Abar=Abar2, Bbar=Bbar2)
    return new_spec, defect


def defect_is_zero(defect: dict) -> bool:
    return all(not row for row in defect.values())
