"""Exact coefficient arithmetic over the Gaussian rationals.

Three coefficient rings are provided, forming a ladder:

* ``GaussianRational``, the field Q(i), stored as a pair of ``Fraction``
  values (always in lowest terms with positive denominators);
* ``Poly``, multivariate polynomials in a fixed ordered tuple of
  deformation parameters, with GaussianRational coefficients;
* ``Jet``, a Poly truncated at a total degree bound.  Multiplication
  discards every monomial of total degree above the bound.

All values are immutable.  Monomials are ordered graded-lexicographically,
which fixes the canonical text rendering and hashing.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "GaussianRational",
    "Poly",
    "Jet",
    "GR",
    "jet_mul",
    "jet_eval",
    "homogeneous_part",
    "unify",
    "rmul",
]


class CoefficientError(ValueError):
    """Raised on malformed coefficient input or incompatible operands."""


def _fraction(literal: str, text: str) -> Fraction:
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        raise CoefficientError(f"zero denominator in {text!r}") from None


class GaussianRational:
    """An element a + b*i of Q(i) with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into Q(i)")

    _PART = re.compile(r"^([+-]?(?:[0-9]+(?:/[0-9]+)?)?)(\*?i)?$")

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse strings like ``-1/2``, ``i``, ``2/3*i`` or ``3/4+1/4i``."""
        s = text.replace(" ", "").replace("−", "-")
        if not s:
            raise CoefficientError("empty coefficient string")
        # split into signed chunks at top level
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
            m = cls._PART.match(chunk)
            if not m:
                raise CoefficientError(f"bad Q(i) literal: {text!r}")
            num, imark = m.group(1), m.group(2)
            if num in ("", "+", "-"):
                if imark is None:
                    raise CoefficientError(f"bad Q(i) literal: {text!r}")
                value = Fraction(-1 if num == "-" else 1)
            else:
                value = _fraction(num, text)
            if imark:
                im_part += value
            else:
                re_part += value
        return cls(re_part, im_part)

    # -- ring/field operations ---------------------------------------

    def __add__(self, other):
        if isinstance(other, (Poly, Jet)):
            return NotImplemented
        other = self._coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Poly, Jet)):
            return NotImplemented
        other = self._coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (Poly, Jet)):
            return NotImplemented
        other = self._coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def inv(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            if self.im == 1:
                imtxt = "i"
            elif self.im == -1:
                imtxt = "-i"
            else:
                imtxt = f"{self.im}*i"
            if parts and not imtxt.startswith("-"):
                parts.append("+" + imtxt)
            else:
                parts.append(imtxt)
        return "".join(parts)

    def __repr__(self):
        return f"GR({self})"


def GR(re=0, im=0) -> GaussianRational:
    """Shorthand constructor for Q(i) elements."""
    return GaussianRational(re, im)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class Poly:
    """Multivariate polynomial over Q(i) in a fixed tuple of parameters.

    Terms map exponent vectors (one slot per parameter) to nonzero
    GaussianRational coefficients.  The zero polynomial has no terms.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params, terms=None):
        object.__setattr__(self, "params", tuple(params))
        clean: dict[tuple[int, ...], GaussianRational] = {}
        for exps, c in (terms or {}).items():
            c = GaussianRational._coerce(c)
            if not c:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.params):
                raise CoefficientError(
                    f"exponent vector {exps} does not match parameters {self.params}"
                )
            if any(e < 0 for e in exps):
                raise CoefficientError("negative exponent")
            clean[exps] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, params, c) -> "Poly":
        params = tuple(params)
        return cls(params, {(0,) * len(params): GaussianRational._coerce(c)})

    @classmethod
    def variable(cls, params, name: str) -> "Poly":
        params = tuple(params)
        if name not in params:
            raise CoefficientError(f"unknown parameter {name!r} (have {params})")
        exps = tuple(1 if p == name else 0 for p in params)
        return cls(params, {exps: GR_ONE})

    @classmethod
    def parse(cls, params, text: str) -> "Poly":
        """Parse a polynomial string such as ``3*t^2-1/2*t`` or ``t11*t22``.

        A term is a product of factors separated by ``*``; each factor is a
        rational literal, the imaginary unit ``i``, or a parameter name with
        an optional ``^k`` power.  Terms are joined by ``+`` and ``-``.
        """
        params = tuple(params)
        if "i" in params:
            raise CoefficientError("parameter name 'i' collides with the imaginary unit")
        s = text.replace(" ", "").replace("−", "-")
        if not s:
            raise CoefficientError("empty polynomial string")
        tokens = re.findall(r"[A-Za-z_][A-Za-z_0-9]*|[0-9]+(?:/[0-9]+)?|\^|\*|\+|-", s)
        if "".join(tokens) != s:
            raise CoefficientError(f"bad polynomial literal: {text!r}")
        result = cls(params)
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
                    coeff = coeff * GaussianRational(_fraction(tok, text))
                    pos += 1
                elif tok == "i":
                    coeff = coeff * GR_I
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
            result = result + cls(params, {tuple(exps): coeff})
        return result

    # -- helpers -----------------------------------------------------

    def _check(self, other: "Poly"):
        if self.params != other.params:
            raise CoefficientError(
                f"parameter mismatch: {self.params} vs {other.params}"
            )

    def _coerce(self, x) -> "Poly":
        if isinstance(x, Poly):
            self._check(x)
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return Poly.constant(self.params, x)
        raise TypeError(f"cannot coerce {type(x).__name__} into Poly")

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            accumulate(terms, exps, c)
        return Poly(self.params, terms)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Poly(self.params, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        other = self._coerce(other)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Poly(self.params, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise CoefficientError("negative power of a polynomial")
        out = Poly.constant(self.params, 1)
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.constant(self.params, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self):
        return hash((self.params, tuple(sorted(self.terms.items()))))

    # -- queries -----------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_part(self, n: int) -> "Poly":
        if n < 0:
            raise CoefficientError("homogeneous part of negative degree")
        return Poly(self.params, {e: c for e, c in self.terms.items() if sum(e) == n})

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * len(self.params), GR_ZERO)

    def eval(self, point: dict) -> GaussianRational:
        """Exact evaluation; every parameter must be assigned."""
        missing = [p for p in self.params if p not in point]
        if missing:
            raise CoefficientError(f"missing assignment for parameters {missing}")
        values = [GaussianRational._coerce(point[p]) for p in self.params]
        total = GR_ZERO
        for exps, c in self.terms.items():
            v = c
            for val, e in zip(values, exps):
                for _ in range(e):
                    v = v * val
            total = total + v
        return total

    def conjugate(self) -> "Poly":
        """Conjugate the coefficients; parameters are treated as fixed names."""
        return Poly(self.params, {e: c.conjugate() for e, c in self.terms.items()})

    def truncated(self, order: int) -> "Jet":
        return Jet(self, order)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def monomial_split(self) -> dict[tuple[int, ...], GaussianRational]:
        return dict(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for exps, c in self.sorted_terms():
            mon = "*".join(
                f"{p}^{e}" if e > 1 else p
                for p, e in zip(self.params, exps)
                if e
            )
            if not mon:
                txt = str(c)
            elif c == GR_ONE:
                txt = mon
            elif c == -GR_ONE:
                txt = "-" + mon
            else:
                ctxt = str(c)
                if ("+" in ctxt[1:]) or ("-" in ctxt[1:]):
                    ctxt = f"({ctxt})"
                txt = f"{ctxt}*{mon}"
            if out and not txt.startswith("-"):
                out.append("+" + txt)
            else:
                out.append(txt)
        return "".join(out)

    def __repr__(self):
        return f"Poly({self})"


class Jet:
    """A polynomial truncated at a total-degree bound.

    Models functions on an infinitesimal neighborhood of the origin of the
    parameter space: arithmetic agrees with Poly arithmetic followed by
    discarding all monomials of total degree above ``order``.
    """

    __slots__ = ("base", "order")

    def __init__(self, base: Poly, order: int):
        if order < 0:
            raise CoefficientError("jet order must be nonnegative")
        object.__setattr__(
            self,
            "base",
            Poly(base.params, {e: c for e, c in base.terms.items() if sum(e) <= order}),
        )
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @property
    def params(self):
        return self.base.params

    @classmethod
    def constant(cls, params, c, order: int) -> "Jet":
        return cls(Poly.constant(params, c), order)

    def _coerce(self, x) -> "Jet":
        if isinstance(x, Jet):
            if x.params != self.params:
                raise CoefficientError(
                    f"parameter mismatch: {self.params} vs {x.params}"
                )
            if x.order != self.order:
                raise CoefficientError(f"jet order mismatch: {self.order} vs {x.order}")
            return x
        if isinstance(x, Poly):
            if x.params != self.params:
                raise CoefficientError(
                    f"parameter mismatch: {self.params} vs {x.params}"
                )
            return Jet(x, self.order)
        if isinstance(x, (int, Fraction, GaussianRational)):
            return Jet.constant(self.params, x, self.order)
        raise TypeError(f"cannot coerce {type(x).__name__} into Jet")

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.base + other.base, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.base - other.base, self.order)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Jet(-self.base, self.order)

    def __mul__(self, other):
        other = self._coerce(other)
        return Jet(self.base * other.base, self.order)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.base)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Poly)):
            try:
                other = self._coerce(other)
            except (TypeError, CoefficientError):
                return NotImplemented
        if not isinstance(other, Jet):
            return NotImplemented
        return self.order == other.order and self.base == other.base

    def __hash__(self):
        return hash((self.order, self.base))

    def degree(self) -> int:
        return self.base.degree()

    def homogeneous_part(self, n: int) -> Poly:
        return self.base.homogeneous_part(n)

    def constant_term(self) -> GaussianRational:
        return self.base.constant_term()

    def eval(self, point: dict) -> GaussianRational:
        return self.base.eval(point)

    def __str__(self):
        return str(self.base)

    def __repr__(self):
        return f"Jet({self.base}; order={self.order})"


# -- operation-style helpers mirroring the public API ------------------


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Truncated product of two jets over the same parameters and order."""
    if not isinstance(a, Jet) or not isinstance(b, Jet):
        raise TypeError("jet_mul expects Jet operands")
    return a * b


def jet_eval(a, point: dict) -> GaussianRational:
    """Exact evaluation of a Jet or Poly at a rational parameter point."""
    if isinstance(a, (Jet, Poly)):
        return a.eval(point)
    return GaussianRational._coerce(a)


def homogeneous_part(a, n: int) -> Poly:
    """Sum of the monomials of total degree exactly ``n``."""
    if isinstance(a, (Jet, Poly)):
        return a.homogeneous_part(n)
    raise TypeError("homogeneous_part expects Poly or Jet")


# -- ring unification ---------------------------------------------------

def unify(a, b):
    """Promote two coefficients into their smallest common ring.

    GaussianRational embeds into Poly which embeds into Jet.  Structured
    operands must agree on parameters (and, for two jets, on the order);
    a Poly meeting a Jet is truncated to the jet's order.
    """
    ta = isinstance(a, Jet) * 2 + isinstance(a, Poly)
    tb = isinstance(b, Jet) * 2 + isinstance(b, Poly)
    if ta == tb:
        return a, b
    if ta < tb:
        a2, b2 = unify(b, a)
        return b2, a2
    # a strictly larger
    return a, a._coerce(b)


def rmul(a, b):
    """Multiply coefficients from possibly different rings of the ladder."""
    if type(a) is not type(b):
        a, b = unify(a, b)
    return a * b


def radd(a, b):
    """Add coefficients from possibly different rings of the ladder."""
    if type(a) is not type(b):
        a, b = unify(a, b)
    return a + b


def accumulate(acc: dict, key, value) -> None:
    """Add ``value`` into ``acc[key]``, dropping the key when the sum is zero.

    The one sparse accumulation step behind every exact sum in the package:
    polynomial terms, form coefficients and elimination rows.
    """
    old = acc.get(key)
    s = value if old is None else radd(old, value)
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)
