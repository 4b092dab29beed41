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

* wedge reorders factors to the canonical form with the parity of the
  permutation;
* d is the graded derivation d(x1^...^xm) = sum_k (-1)^(k-1) x1^...^d(xk)^...;
* contraction with a frame vector removes a holomorphic factor with sign
  (-1)^(k-1), and contraction with theta_i (x) c_J wedges c_J on the right:
  iota(theta_i (x) c_J)(a) = (theta_i _| a) ^ c_J.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coeff import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Jet,
    Poly,
    radd,
    rmul,
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


@dataclass(frozen=True)
class Diagnostic:
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


class ComplexStructureSpec:
    """Structure constants of the complexified Lie algebra, bigraded."""

    __slots__ = ("n", "A", "B", "Abar", "Bbar")

    def __init__(self, n: int, A=None, B=None, *, Abar=None, Bbar=None):
        if n < 1:
            raise SpecError("complex dimension must be at least 1")
        self.n = n
        self.A = {k: _clean_table(n, (A or {}).get(k), True) for k in range(1, n + 1)}
        self.B = {k: _clean_table(n, (B or {}).get(k), False) for k in range(1, n + 1)}
        if Abar is None and Bbar is None:
            # conjugate the f-side; only meaningful for numeric coefficients
            abar: dict[int, dict] = {}
            bbar: dict[int, dict] = {}
            for k in range(1, n + 1):
                abar[k] = {ij: self._conj(c) for ij, c in self.A[k].items()}
                row: dict[tuple[int, int], object] = {}
                for (i, j), c in self.B[k].items():
                    # conj(f_i^c_j) = c_i^f_j = -f_j^c_i
                    prev = row.get((j, i), GR_ZERO)
                    s = prev + (-self._conj(c))
                    if s:
                        row[(j, i)] = s
                    else:
                        row.pop((j, i), None)
                bbar[k] = row
            self.Abar = abar
            self.Bbar = bbar
        else:
            self.Abar = {k: _clean_table(n, (Abar or {}).get(k), True) for k in range(1, n + 1)}
            self.Bbar = {k: _clean_table(n, (Bbar or {}).get(k), False) for k in range(1, n + 1)}

    @staticmethod
    def _conj(c):
        if isinstance(c, GaussianRational):
            return c.conjugate()
        raise SpecError(
            "conjugation of structure constants requires numeric coefficients; "
            "pass explicit c-side tables instead"
        )

    def is_parallelisable(self) -> bool:
        """True when every mixed table vanishes (holomorphic coframe)."""
        return all(not self.B[k] for k in self.B) and all(not self.Bbar[k] for k in self.Bbar)

    def params(self) -> tuple[str, ...] | None:
        for table in (self.A, self.B, self.Abar, self.Bbar):
            for row in table.values():
                for c in row.values():
                    if isinstance(c, (Poly, Jet)):
                        return c.params
        return None

    def d_generator(self, kind: str, k: int) -> list[tuple[list[tuple[str, int]], object]]:
        """d of a single generator as a list of (factor pair, coefficient)."""
        out = []
        if kind == "f":
            for (i, j), c in self.A[k].items():
                out.append(([("f", i), ("f", j)], c))
            for (i, j), c in self.B[k].items():
                out.append(([("f", i), ("c", j)], c))
        else:
            for (i, j), c in self.Abar[k].items():
                out.append(([("c", i), ("c", j)], c))
            for (i, j), c in self.Bbar[k].items():
                out.append(([("f", i), ("c", j)], c))
        return out

    def __eq__(self, other):
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
        return hash(self.n)

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

def _normalize_factors(factors: list[tuple[str, int]]):
    """Sort factors into canonical order; returns (sign, I, J) or None."""
    keys = [(0 if kind == "f" else 1, idx) for kind, idx in factors]
    sign = 1
    arr = list(keys)
    for a in range(1, len(arr)):
        b = a
        while b > 0 and arr[b] < arr[b - 1]:
            arr[b], arr[b - 1] = arr[b - 1], arr[b]
            sign = -sign
            b -= 1
    for x, y in zip(arr, arr[1:]):
        if x == y:
            return None
    I = tuple(idx for side, idx in arr if side == 0)
    J = tuple(idx for side, idx in arr if side == 1)
    return sign, I, J


def _monomial_factors(I: tuple[int, ...], J: tuple[int, ...]) -> list[tuple[str, int]]:
    return [("f", i) for i in I] + [("c", j) for j in J]


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


class InvariantForm:
    """Homogeneous invariant (p, q)-form with exact coefficients."""

    __slots__ = ("spec", "p", "q", "coeffs")

    def __init__(self, spec: ComplexStructureSpec, p: int, q: int, coeffs=None):
        if not (0 <= p <= spec.n and 0 <= q <= spec.n):
            raise SpecError(f"bidegree ({p},{q}) out of range for n={spec.n}")
        self.spec = spec
        self.p = p
        self.q = q
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
        self.coeffs = clean

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
        return InvariantForm(self.spec, self.p, self.q, coeffs)

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecError("cannot add forms over different specs")
        if (self.p, self.q) != (other.p, other.q):
            raise SpecError("cannot add forms of different bidegree")
        coeffs = dict(self.coeffs)
        for key, c in other.coeffs.items():
            if key in coeffs:
                s = radd(coeffs[key], c)
                if s:
                    coeffs[key] = s
                else:
                    del coeffs[key]
            else:
                coeffs[key] = c
        return self._like(coeffs)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self + (-other)

    def __neg__(self) -> "InvariantForm":
        return self._like({k: -c for k, c in self.coeffs.items()})

    def scale(self, c) -> "InvariantForm":
        return self._like({k: rmul(v, c) for k, v in self.coeffs.items()})

    def __bool__(self):
        return bool(self.coeffs)

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

    def coordinates(self, monomials) -> list:
        return [self.coeffs.get(key, GR_ZERO) for key in monomials]

    def eval_point(self, point: dict) -> "InvariantForm":
        out = {}
        for key, c in self.coeffs.items():
            v = c.eval(point) if isinstance(c, (Poly, Jet)) else c
            if v:
                out[key] = v
        return self._like(out)

    def homogeneous_part(self, k: int) -> "InvariantForm":
        out = {}
        for key, c in self.coeffs.items():
            if isinstance(c, (Poly, Jet)):
                h = c.homogeneous_part(k)
                if h:
                    out[key] = h
            elif k == 0 and c:
                out[key] = c
        return self._like(out)

    def monomial_split(self) -> dict:
        """Split polynomial coefficients by parameter monomial.

        Returns {exponent tuple: InvariantForm with GaussianRational coeffs}.
        Constant coefficients sit at the zero exponent vector.
        """
        buckets: dict[tuple[int, ...], dict] = {}
        for key, c in self.coeffs.items():
            if isinstance(c, (Poly, Jet)):
                base = c.base if isinstance(c, Jet) else c
                for exps, v in base.terms.items():
                    buckets.setdefault(exps, {})[key] = v
            else:
                exps = ()
                buckets.setdefault(exps, {})[key] = c
        return {e: self._like(d) for e, d in buckets.items()}

    def __str__(self):
        if not self.coeffs:
            return "0"
        def montxt(key):
            I, J = key
            return "^".join([f"f{i}" for i in I] + [f"c{j}" for j in J]) or "1"
        parts = []
        for key in sorted(self.coeffs):
            c = self.coeffs[key]
            mon = montxt(key)
            ctxt = str(c)
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

    def __repr__(self):
        return f"InvariantForm({self.p},{self.q}; {self})"


class VectorForm:
    """T^(1,0)-valued (0, q)-form: sum psi^i_J theta_i (x) c_J."""

    __slots__ = ("spec", "q", "coeffs")

    def __init__(self, spec: ComplexStructureSpec, q: int, coeffs=None):
        if not (0 <= q <= spec.n):
            raise SpecError(f"antiholomorphic degree {q} out of range")
        self.spec = spec
        self.q = q
        clean = {}
        for (i, J), c in (coeffs or {}).items():
            J = tuple(J)
            if not (1 <= i <= spec.n) or len(J) != q:
                raise SpecError(f"bad vector-form key ({i},{J})")
            if list(J) != sorted(set(J)):
                raise SpecError(f"index tuple {J} is not strictly increasing")
            if c:
                clean[(i, J)] = c
        self.coeffs = clean

    @classmethod
    def term(cls, spec, i: int, J, coeff=GR_ONE) -> "VectorForm":
        return cls(spec, len(tuple(J)), {(i, tuple(J)): coeff})

    def __add__(self, other: "VectorForm") -> "VectorForm":
        if self.q != other.q or self.spec != other.spec:
            raise SpecError("vector form mismatch")
        coeffs = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = radd(coeffs[key], c) if key in coeffs else c
            if s:
                coeffs[key] = s
            else:
                coeffs.pop(key, None)
        return VectorForm(self.spec, self.q, coeffs)

    def __neg__(self):
        return VectorForm(self.spec, self.q, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "VectorForm":
        return VectorForm(self.spec, self.q, {k: rmul(v, c) for k, v in self.coeffs.items()})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, VectorForm):
            return NotImplemented
        return self.q == other.q and self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, tuple(sorted(self.coeffs))))

    def eval_point(self, point: dict) -> "VectorForm":
        out = {}
        for key, c in self.coeffs.items():
            v = c.eval(point) if isinstance(c, (Poly, Jet)) else c
            if v:
                out[key] = v
        return VectorForm(self.spec, self.q, out)

    def homogeneous_part(self, k: int) -> "VectorForm":
        out = {}
        for key, c in self.coeffs.items():
            if isinstance(c, (Poly, Jet)):
                h = c.homogeneous_part(k)
                if h:
                    out[key] = h
            elif k == 0 and c:
                out[key] = c
        return VectorForm(self.spec, self.q, out)

    def constant_part_is_zero(self) -> bool:
        for c in self.coeffs.values():
            if isinstance(c, (Poly, Jet)):
                if c.constant_term():
                    return False
            elif c:
                return False
        return True

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, J) in sorted(self.coeffs):
            c = self.coeffs[(i, J)]
            mon = f"theta{i}" + ("" if not J else "(x)" + "^".join(f"c{j}" for j in J))
            ctxt = str(c)
            if ("+" in ctxt[1:]) or ("-" in ctxt[1:]):
                ctxt = f"({ctxt})"
            txt = mon if ctxt == "1" else ("-" + mon if ctxt == "-1" else f"{ctxt}*{mon}")
            if parts and not txt.startswith("-"):
                parts.append("+" + txt)
            else:
                parts.append(txt)
        return "".join(parts)

    def __repr__(self):
        return f"VectorForm(q={self.q}; {self})"


# -- core operations ------------------------------------------------------

def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    """Exterior product in the canonical basis with reordering signs."""
    if a.spec is not b.spec and a.spec != b.spec:
        raise SpecError("wedge of forms over different specs")
    n = a.spec.n
    p, q = a.p + b.p, a.q + b.q
    if p > n or q > n:
        # no room: the product is identically zero
        return InvariantForm(a.spec, min(p, n), min(q, n), {})
    out: dict = {}
    for (I1, J1), c1 in a.coeffs.items():
        for (I2, J2), c2 in b.coeffs.items():
            norm = _normalize_factors(
                _monomial_factors(I1, J1) + _monomial_factors(I2, J2)
            )
            if norm is None:
                continue
            sign, I, J = norm
            c = rmul(c1, c2)
            if sign < 0:
                c = -c
            key = (I, J)
            s = radd(out[key], c) if key in out else c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return InvariantForm(a.spec, p, q, out)


def _d_form(form: InvariantForm) -> dict:
    """Raw d of a form: accumulation over mixed bidegrees, keyed by (I, J)."""
    spec = form.spec
    acc: dict = {}
    for (I, J), c in form.coeffs.items():
        factors = _monomial_factors(I, J)
        for pos, (kind, idx) in enumerate(factors):
            for pair, sc in spec.d_generator(kind, idx):
                norm = _normalize_factors(factors[:pos] + pair + factors[pos + 1:])
                if norm is None:
                    continue
                sign, I2, J2 = norm
                if pos % 2:
                    sign = -sign
                v = rmul(c, sc)
                if sign < 0:
                    v = -v
                key = (I2, J2)
                s = radd(acc[key], v) if key in acc else v
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
    return acc


def differential(spec: ComplexStructureSpec, form: InvariantForm):
    """d = del + delbar split by bidegree: del is (p+1, q), delbar is (p, q+1)."""
    if form.spec != spec:
        raise SpecError("form does not belong to this spec")
    acc = _d_form(form)
    n = spec.n
    del_coeffs: dict = {}
    delbar_coeffs: dict = {}
    for (I, J), c in acc.items():
        if len(I) == form.p + 1:
            del_coeffs[(I, J)] = c
        elif len(J) == form.q + 1:
            delbar_coeffs[(I, J)] = c
        else:  # pragma: no cover - impossible by construction
            raise SpecError("differential produced an off-bidegree term")
    mk = lambda p, q, coeffs: (
        InvariantForm(spec, p, q, coeffs) if p <= n and q <= n
        else InvariantForm(spec, min(p, n), min(q, n), {})
    )
    return mk(form.p + 1, form.q, del_coeffs), mk(form.p, form.q + 1, delbar_coeffs)


def contract(psi: VectorForm, a: InvariantForm) -> InvariantForm:
    """Interior product with a vector-valued form.

    iota(theta_i (x) c_J)(a) = (theta_i _| a) ^ c_J, extended bilinearly.
    Contracting a (0, q)-form gives zero.
    """
    if psi.spec != a.spec:
        raise SpecError("contract: spec mismatch")
    spec = a.spec
    pq = (a.p - 1, a.q + psi.q)
    if a.p == 0 or pq[1] > spec.n:
        return InvariantForm(spec, max(a.p - 1, 0), min(pq[1], spec.n), {})
    out: dict = {}
    for (i, Jpsi), cpsi in psi.coeffs.items():
        for (I, J), cf in a.coeffs.items():
            if i not in I:
                continue
            k = I.index(i)
            rest = I[:k] + I[k + 1:]
            norm = _normalize_factors(
                _monomial_factors(rest, J) + [("c", j) for j in Jpsi]
            )
            if norm is None:
                continue
            sign, I2, J2 = norm
            if k % 2:
                sign = -sign
            v = rmul(cf, cpsi)
            if sign < 0:
                v = -v
            key = (I2, J2)
            s = radd(out[key], v) if key in out else v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return InvariantForm(spec, pq[0], pq[1], out)


# -- validation -----------------------------------------------------------

def validate_spec(spec: ComplexStructureSpec) -> list[Diagnostic]:
    """Check d.d = 0 on every generator plus the nilpotency shape.

    Returns a list of diagnostics; an empty list means the spec is a valid
    nilpotent complex structure.  Nilpotency violations are warnings (the
    invariant-cohomology model is then unjustified but still computable);
    d.d != 0 is an error.
    """
    out: list[Diagnostic] = []
    for k in range(1, spec.n + 1):
        for kind, name in (("f", f"f{k}"), ("c", f"c{k}")):
            gen = InvariantForm.generator(spec, kind, k)
            d1, d2 = differential(spec, gen)
            total = {}
            for part in differential(spec, d1) + differential(spec, d2):
                for key, c in part.coeffs.items():
                    s = radd(total[key], c) if key in total else c
                    if s:
                        total[key] = s
                    else:
                        total.pop(key, None)
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

    def substitute(two_form_terms):
        """Rewrite a 2-form (original basis) in the deformed generators."""
        acc: dict = {}
        for pair, coeff in two_form_terms:
            expansions = []
            for kind, idx in pair:
                if kind == "c":
                    expansions.append([(("c", idx), GR_ONE)])
                else:
                    alts = [(("f", idx), GR_ONE)]
                    for lam, c in psi_table[idx].items():
                        alts.append((("c", lam), -c))
                    expansions.append(alts)
            for (g1, c1) in expansions[0]:
                for (g2, c2) in expansions[1]:
                    norm = _normalize_factors([g1, g2])
                    if norm is None:
                        continue
                    sign, I, J = norm
                    v = rmul(rmul(coeff, c1), c2)
                    if sign < 0:
                        v = -v
                    key = (I, J)
                    s = radd(acc[key], v) if key in acc else v
                    if s:
                        acc[key] = s
                    else:
                        acc.pop(key, None)
        return acc

    A2: dict[int, dict] = {}
    B2: dict[int, dict] = {}
    Abar2: dict[int, dict] = {}
    Bbar2: dict[int, dict] = {}
    defect: dict[int, dict] = {}
    for k in range(1, n + 1):
        # d f_k(t) = d f_k + sum_l psi^k_l d c_l, then substitute
        terms = list(spec.d_generator("f", k))
        for lam, c in psi_table[k].items():
            for pair, sc in spec.d_generator("c", lam):
                terms.append((pair, rmul(c, sc)))
        acc = substitute(terms)
        A2[k] = {}
        B2[k] = {}
        defect[k] = {}
        for (I, J), c in acc.items():
            if len(I) == 2:
                A2[k][(I[0], I[1])] = c
            elif len(I) == 1:
                B2[k][(I[0], J[0])] = c
            else:
                defect[k][(J[0], J[1])] = c
        # d c_k is unchanged as a form; substitution rewrites its f factors
        acc = substitute(list(spec.d_generator("c", k)))
        Abar2[k] = {}
        bbar_row: dict = {}
        for (I, J), c in acc.items():
            if len(I) == 1:
                bbar_row[(I[0], J[0])] = c
            elif len(I) == 0:
                Abar2[k][(J[0], J[1])] = c
            else:  # pragma: no cover - impossible: substitution lowers f-count
                raise SpecError("unexpected bidegree in deformed c-side")
        Bbar2[k] = bbar_row
    new_spec = ComplexStructureSpec(n, A2, B2, Abar=Abar2, Bbar=Bbar2)
    return new_spec, defect


def defect_is_zero(defect: dict) -> bool:
    return all(not row for row in defect.values())
