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
coefficients where conjugation has no meaning.  Each spec also holds these
four tables as one table of generator differentials in the kernels' mask
key, built on first use: d and ``deformed_coframe`` read only that.

Every kernel (wedge, d, contraction) holds a monomial f_I ^ c_J as an
(I, J) pair of int bitmasks, bit i set for index i, and a form keeps its
coefficients in ``terms`` under the same key (theta_i (x) c_J as (i, J
mask)).  Index tuples appear only at the public boundary: the
constructors, ``coeffs``, ``coefficient`` and ``str``.

Sign conventions that everything downstream depends on:

* every reordering sign is read off one rule: (-1)^r(a, b) with r(a, b) =
  #{(x, y) : x in a, y in b, x > y} (``_shuffle``) is the sign that sorts
  the indices of a followed by those of b;
* wedge: (f_Ia ^ c_Ja) ^ (f_Ib ^ c_Jb) has sign
  (-1)^(r(Ia, Ib) + r(Ja, Jb) + |Ja| |Ib|), since f_Ib first moves left
  past c_Ja;
* d is the graded derivation d(x1^...^xm) = sum_k (-1)^(k-1) x1^...^d(xk)^...;
  d(xk) is a 2-form, so each term is (-1)^(k-1) d(xk) ^ (the monomial
  without xk), signed by the wedge rule;
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


def _is_int(x) -> bool:
    """An integer index; true and false are bools, not integers, here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _clean_table(n: int, table, ordered: bool) -> dict:
    out: dict[tuple[int, int], object] = {}
    for (i, j), c in (table or {}).items():
        if not (_is_int(i) and _is_int(j)):
            raise SpecError(f"generator index in ({i},{j}) is not an integer")
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
    itself (``Dolbeault.of`` keeps the spec's cohomology in ``_dolbeault``,
    ``_generator_d`` the differentials of the generators in ``_gen_d``).
    """

    __slots__ = ("n", "A", "B", "Abar", "Bbar", "_hash", "_dolbeault", "_gen_d")

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
                            ("_hash", None), ("_dolbeault", None), ("_gen_d", None)):
            object.__setattr__(self, name, value)

    @staticmethod
    def _conj(c):
        if isinstance(c, GaussianRational):
            return c.conjugate()
        raise SpecError(
            "conjugation of structure constants requires numeric coefficients; "
            "pass explicit c-side tables instead"
        )

    def _generator_d(self) -> tuple:
        """``(s, live, terms)``: d of every generator in the kernels' mask key,
        built on first use; read-only and no part of ``==``, ``hash`` or ``repr``.

        Read as one mask, f_I ^ c_J is I | J << s with s = n + 1: f_k is bit
        k and c_k bit k + s.  ``terms[b]`` lists d(generator b) as terms
        (wf, wc, constant, sign mask, into del), one per 2-form constant *
        f_wf ^ c_wc, in table order (``A`` then ``B``, ``Abar`` then ``Bbar``);
        ``live`` is the mask of the generators whose d is not zero.  For the
        2-form w with bits x < y (as powers of two) the sign mask is
        (b - 1) ^ (y - x): r(a, m) = popcount(m & (XOR of z - 1 over the bits
        z of a)) mod 2, and (x - 1) ^ (y - 1) = y - x.
        """
        if self._gen_d is None:
            s = self.n + 1
            low = (1 << s) - 1
            live, terms = 0, {}
            for k in range(1, self.n + 1):
                # generator bit, its f-count, then its tables of f_i^f_j (or c_i^c_j)
                # and of f_i^c_j, each 2-form read as one mask w
                for b, fs, pure, mixed in ((1 << k, 1, self.A[k], self.B[k]),
                                           (1 << k + s, 0, self.Abar[k], self.Bbar[k])):
                    row = [((1 << i | 1 << j) << (0 if fs else s), c) for (i, j), c in pure.items()]
                    row += [(1 << i | 1 << j + s, c) for (i, j), c in mixed.items()]
                    # w - 2 * (w & -w) is y - x for w = x | y
                    terms[b] = tuple((w & low, w >> s, c, (w - 2 * (w & -w)) ^ (b - 1),
                                      (w & low).bit_count() > fs) for w, c in row)
                    live |= b if row else 0
            object.__setattr__(self, "_gen_d", (s, live, MappingProxyType(terms)))
        return self._gen_d

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


def _shuffle_mask(a: int) -> int:
    """The mask w with r(a, b) = popcount(b & w) mod 2 for every b: the XOR
    of x - 1 over the bits x of a, so one sign serves many b."""
    w = 0
    while a:
        low = a & -a
        w ^= low - 1
        a ^= low
    return w


def _layout(indices) -> tuple:
    """A read-only ``(masks, index)`` and the plain ``masks`` and ``index`` it wraps:
    per size k, the bitmasks ``masks[k]`` of the k-subsets of the ascending
    ``indices`` in lexicographic order, and ``index[m]``, mask m's position."""
    indices = tuple(indices)
    masks = {k: tuple(map(_mask, itertools.combinations(indices, k))) for k in range(len(indices) + 1)}
    index = {m: r for level in masks.values() for r, m in enumerate(level)}
    return (MappingProxyType(masks), MappingProxyType(index)), masks, index


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

    Coefficients are sparse and exact, held in ``terms``, a read-only mapping
    keyed by mask pairs; ``coeffs`` is the same mapping keyed by index tuples,
    derived on each read, never stored.  A form cannot change once built.
    Subclasses provide ``_trusted``, ``_degree`` (the arguments of
    ``_trusted`` after ``terms``) and ``_check_addable``.
    """

    __slots__ = ("spec", "terms")

    def _freeze(self, **attrs):
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def _like(self, terms):
        """A form of the same kind and degree holding ``terms``, zeros dropped."""
        return self._trusted(self.spec, {k: c for k, c in terms.items() if c}, *self._degree())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._degree() == other._degree() and self.spec == other.spec and self.terms == other.terms

    def __hash__(self):
        return hash((self._degree(), tuple(sorted(self.terms))))

    def __add__(self, other):
        self._check_addable(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(terms, key, c)
        return self._like(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        return self._like({k: v * c for k, v in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def eval_point(self, point: dict):
        return self._like({key: c.eval(point) if isinstance(c, Poly) else c
                           for key, c in self.terms.items()})

    def homogeneous_part(self, k: int):
        """Degree-k part in the parameters; constant coefficients have degree 0."""
        return self._like({key: c.homogeneous_part(k) if isinstance(c, Poly) else c
                           for key, c in self.terms.items()
                           if k == 0 or isinstance(c, Poly)})


class InvariantForm(_Form):
    """Homogeneous invariant (p, q)-form with exact coefficients."""

    __slots__ = ("p", "q")

    def __init__(self, spec: ComplexStructureSpec, p: int, q: int, coeffs=None):
        if not (0 <= p <= spec.n and 0 <= q <= spec.n):
            raise SpecError(f"bidegree ({p},{q}) out of range for n={spec.n}")
        terms = {}
        for (I, J), c in (coeffs or {}).items():
            I, J = tuple(I), tuple(J)
            if not all(map(_is_int, I + J)):
                raise SpecError(f"monomial ({I},{J}) has an index that is not an integer")
            if len(I) != p or len(J) != q:
                raise SpecError(f"monomial ({I},{J}) does not have bidegree ({p},{q})")
            if list(I) != sorted(set(I)) or list(J) != sorted(set(J)):
                raise SpecError(f"monomial ({I},{J}) is not strictly increasing")
            if any(not (1 <= i <= spec.n) for i in I + J):
                raise SpecError(f"monomial ({I},{J}) out of range")
            if c:
                terms[(_mask(I), _mask(J))] = c
        self._freeze(spec=spec, p=p, q=q, terms=MappingProxyType(terms))

    @classmethod
    def _trusted(cls, spec, terms: dict, p: int, q: int) -> "InvariantForm":
        """A (p, q)-form holding ``terms``, a dict the caller hands over: (I, J)
        mask keys already known to be valid and no zero coefficient, as
        ``accumulate`` leaves them.  No check of ``__init__`` is made."""
        form = object.__new__(cls)
        object.__setattr__(form, "spec", spec)
        object.__setattr__(form, "terms", MappingProxyType(terms))
        object.__setattr__(form, "p", p)
        object.__setattr__(form, "q", q)
        return form

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

    def _degree(self) -> tuple[int, int]:
        return self.p, self.q

    def _check_addable(self, other: "InvariantForm"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecError("cannot add forms over different specs")
        if (self.p, self.q) != (other.p, other.q):
            raise SpecError("cannot add forms of different bidegree")

    # -- queries ---------------------------------------------------------

    @property
    def coeffs(self) -> MappingProxyType:
        """The coefficients keyed by (I, J) index tuples, read off ``terms``."""
        return MappingProxyType({(_indices(mi), _indices(mj)): c for (mi, mj), c in self.terms.items()})

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
        terms = {}
        for (i, J), c in (coeffs or {}).items():
            J = tuple(J)
            if not all(_is_int(x) and 1 <= x <= spec.n for x in (i,) + J) or len(J) != q:
                raise SpecError(f"bad vector-form key ({i},{J})")
            if list(J) != sorted(set(J)):
                raise SpecError(f"index tuple {J} is not strictly increasing")
            if c:
                terms[(i, _mask(J))] = c
        self._freeze(spec=spec, q=q, terms=MappingProxyType(terms))

    @classmethod
    def _trusted(cls, spec, terms: dict, q: int) -> "VectorForm":
        """As ``InvariantForm._trusted``, for (i, J mask) keys valid in degree q."""
        form = object.__new__(cls)
        object.__setattr__(form, "spec", spec)
        object.__setattr__(form, "terms", MappingProxyType(terms))
        object.__setattr__(form, "q", q)
        return form

    @classmethod
    def term(cls, spec, i: int, J, coeff=GR_ONE) -> "VectorForm":
        return cls(spec, len(tuple(J)), {(i, tuple(J)): coeff})

    def _degree(self) -> tuple[int]:
        return (self.q,)

    def _check_addable(self, other: "VectorForm"):
        if self.q != other.q or self.spec != other.spec:
            raise SpecError("vector form mismatch")

    @property
    def coeffs(self) -> MappingProxyType:
        """The coefficients keyed by (i, J) with J an index tuple, read off ``terms``."""
        return MappingProxyType({(i, _indices(mj)): c for (i, mj), c in self.terms.items()})

    def params(self) -> tuple[str, ...] | None:
        """Parameters of the first polynomial or jet coefficient; None if all are constant."""
        for c in self.terms.values():
            if isinstance(c, Poly):
                return c.params
        return None

    def constant_part_is_zero(self) -> bool:
        for c in self.terms.values():
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
        return InvariantForm._trusted(a.spec, {}, min(p, n), min(q, n))
    out: dict = {}
    for ka, c1 in a.terms.items():
        for kb, c2 in b.terms.items():
            _wedge_monomial(ka, kb, c1, c2, out)
    return InvariantForm._trusted(a.spec, out, p, q)


def _d_monomial(gen: tuple, mi: int, mj: int, dbar, c=None, dl=None) -> None:
    """Accumulate d(c * f_I ^ c_J) into ``dl`` (del) and ``dbar`` (delbar).

    ``gen`` is the spec's ``_generator_d()`` table.  The monomial is the
    (I, J) mask pair ``mi``, ``mj``, and results are keyed by mask pairs.
    ``c=None`` stands for the coefficient 1 and skips the multiplications;
    ``dl=None`` or ``dbar=None`` skips that part.
    One Leibniz rule, in one pass over the factors that the spec's
    ``_generator_d`` table marks live: factor x_g at position g (f factors
    first) and a term w = f_wf ^ c_wc of d(x_g) give (-1)^g w ^ f_I' ^ c_J',
    f_I' ^ c_J' the monomial without x_g, of sign

        (-1)^(g + r(wf, I') + r(wc, J') + |wc| |I'|),

    the rule of ``_wedge_monomial``.  With f_I' ^ c_J' read as the table's
    one mask rest, the exponent is r(x_g, rest) + r(w, rest), which is
    popcount(rest & the term's sign mask) mod 2.  A term vanishes when w
    meets a remaining factor; it lands in del when w has one more f factor
    than x_g, else in delbar.  Terms are accumulated in the order of the
    factors and of the tables.
    """
    s, live, terms = gen
    key, low = mi | mj << s, (1 << s) - 1
    m = key & live
    while m:
        b = m & -m
        m ^= b
        rest = key ^ b
        ri, rj = rest & low, rest >> s
        for wf, wc, sc, sign_mask, into_del in terms[b]:
            out = dl if into_del else dbar
            if out is None or ri & wf or rj & wc:
                continue
            v = sc if c is None else c * sc
            accumulate(out, (ri | wf, rj | wc), -v if (rest & sign_mask).bit_count() & 1 else v)


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
    ``a``; psi is given by its ``terms``, {(i, Jpsi mask): coefficient}."""
    for (i, mpsi), cpsi in psi_terms.items():
        for (mi, mj), c in a.items():
            _contract_monomial(mi, mj, i, mpsi, c * cpsi, out)
    return out


def differential(spec: ComplexStructureSpec, form: InvariantForm):
    """d = del + delbar split by bidegree: del is (p+1, q), delbar is (p, q+1)."""
    if form.spec != spec:
        raise SpecError("form does not belong to this spec")
    dl: dict = {}
    dbar: dict = {}
    for (mi, mj), c in form.terms.items():
        _d_monomial(spec._generator_d(), mi, mj, dbar, c, dl)
    # past degree n there is no monomial, so the clamped part is empty
    n = spec.n
    return (InvariantForm._trusted(spec, dl, min(form.p + 1, n), form.q),
            InvariantForm._trusted(spec, dbar, form.p, min(form.q + 1, n)))


def contract(psi: VectorForm, a: InvariantForm) -> InvariantForm:
    """Interior product with a vector-valued form.

    iota(theta_i (x) c_J)(a) = (theta_i _| a) ^ c_J, extended bilinearly.
    Contracting a (0, q)-form gives zero.
    """
    if psi.spec != a.spec:
        raise SpecError("contract: spec mismatch")
    out = _contract_vector(psi.terms, a.terms, {})
    return InvariantForm._trusted(a.spec, out, max(a.p - 1, 0), min(a.q + psi.q, a.spec.n))


# -- validation -----------------------------------------------------------

def _dd_defects(spec: ComplexStructureSpec):
    """Yield (generator name, d(d g)) for each generator g with d(d g) != 0.

    Generators come in the order f1, c1, f2, c2, ...; d(d g) is a
    mask-keyed sparse vector.  d(g) is taken with ``_d_monomial``, then d
    of each of its terms, with del and delbar summed into one dict: no
    form is built.
    """
    s, _, terms = gen = spec._generator_d()
    for k in range(1, spec.n + 1):
        for b, name in ((1 << k, f"f{k}"), (1 << k + s, f"c{k}")):
            ddg: dict = {}
            for wf, wc, c, _, _ in terms[b]:
                _d_monomial(gen, wf, wc, ddg, c, ddg)
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
    s, _, terms = spec._generator_d()
    psi_table: dict[int, dict[int, object]] = {i: {} for i in range(1, n + 1)}
    for (i, mj), c in psi.terms.items():
        psi_table[i][mj.bit_length() - 1] = c
    # the original generators as one-factor mask pairs in the deformed ones
    f_old = {i: [((1 << i, 0), GR_ONE)] + [((0, 1 << lam), -c) for lam, c in row.items()]
             for i, row in psi_table.items()}

    def substitute(acc: dict, b: int, scale=None) -> dict:
        """Accumulate scale * d(generator b), its two factors f_wf ^ c_wc
        rewritten as mask pairs in the deformed generators, into ``acc``."""
        for wf, wc, sc, _, _ in terms[b]:
            xs, ys = [f_old[i] for i in _indices(wf)] + [[((0, 1 << j), GR_ONE)] for j in _indices(wc)]
            coeff = sc if scale is None else scale * sc
            for x, cx in xs:
                u = coeff * cx
                for y, cy in ys:
                    _wedge_monomial(x, y, u, cy, acc)
        return acc

    tables = {name: {k: {} for k in range(1, n + 1)} for name in ("A", "B", "Abar", "Bbar", "defect")}
    for k in range(1, n + 1):
        # d f_k(t) = d f_k + sum_l psi^k_l d c_l, then substitute
        df = substitute({}, 1 << k)
        for lam, c in psi_table[k].items():
            substitute(df, 1 << lam + s, c)
        # d c_k is unchanged as a form; substitution rewrites its f factors
        # and never raises the f-count; rows by f-count
        for names, acc in ((("defect", "B", "A"), df), (("Abar", "Bbar"), substitute({}, 1 << k + s))):
            for (fm, cm), c in acc.items():
                tables[names[fm.bit_count()]][k][_indices(fm) + _indices(cm)] = c
    return ComplexStructureSpec(n, tables["A"], tables["B"], Abar=tables["Abar"],
                                Bbar=tables["Bbar"]), tables["defect"]


def defect_is_zero(defect: dict) -> bool:
    return all(not row for row in defect.values())
