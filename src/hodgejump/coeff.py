"""Exact coefficient arithmetic over the Gaussian rationals.

Three coefficient rings are provided, forming a ladder:

* ``GaussianRational``, the field Q(i), stored as an integer triple
  (a, b, d) meaning (a + b*i)/d over one common denominator d > 0, with
  gcd(a, b, d) == 1;
* ``Poly``, multivariate polynomials in a fixed ordered tuple of
  deformation parameters, with GaussianRational coefficients;
* ``Jet``, a Poly truncated at a total degree bound.  Multiplication
  discards every monomial of total degree above the bound.

Mixed-ring arithmetic is the operators: the smaller ring's operator returns
``NotImplemented`` for an operand of a larger ring, whose reflected operator
promotes it (Q(i) into Poly into Jet; a Poly meeting a Jet is truncated to
the jet's order).

All values are immutable: each value class, and the forms, specs and
matrices built from them, inherits ``_Immutable``.  Monomials are ordered
graded-lexicographically, which fixes the canonical text rendering and
hashing.

The public constructors and ``Poly.parse`` check and coerce every term.
Results of arithmetic on values that already passed those checks come
from ``Poly._trusted`` and ``Jet._trusted``, which skip them: use those
only for terms the package built itself (exponent tuples of ints >= 0,
one per parameter, and nonzero GaussianRational coefficients, in a dict
no one else holds) and, for a Jet, a base with no term above its order.
Nothing parsed from input reaches them unchecked.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

__all__ = [
    "GaussianRational",
    "Poly",
    "Jet",
    "GR",
]


class CoefficientError(ValueError):
    """Raised on malformed coefficient input or incompatible operands."""


class _Immutable:
    """Refuses to rebind or delete attributes once an instance is built.

    Constructors set attributes through ``object.__setattr__`` or the slot
    descriptors.  The empty ``__slots__`` keeps a slotted subclass free of
    a ``__dict__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _fraction(literal: str, text: str) -> Fraction:
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        raise CoefficientError(f"zero denominator in {text!r}") from None


_PART = re.compile(r"^([+-]?(?:[0-9]+(?:/[0-9]+)?)?)(\*?i)?$")


class GaussianRational(_Immutable):
    """An element (a + b*i)/d of Q(i), held as three ints.

    The triple is kept in normal form: d > 0 and gcd(a, b, d) == 1, so equal
    numbers have equal triples.  Each result costs one three-argument gcd;
    negation and conjugation need none.  ``re`` and ``im`` read the parts
    as ``Fraction`` values.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    # -- constructors ------------------------------------------------

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if type(x) is GaussianRational:
            return x
        if type(x) is int:
            return _raw(x, 0, 1)
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into Q(i)")

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
            m = _PART.match(chunk)
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

    # -- parts -------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- ring/field operations ---------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            if isinstance(other, (Poly, Jet)):
                return NotImplemented
            other = self._coerce(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            if isinstance(other, (Poly, Jet)):
                return NotImplemented
            other = self._coerce(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if isinstance(other, (Poly, Jet)):
                return NotImplemented
            other = self._coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def inv(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduced(d * a, -d * b, n)

    def conjugate(self) -> "GaussianRational":
        return _raw(self._a, -self._b, self._d)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self.re, self.im))

    def __str__(self):
        if not self:
            return "0"
        re, im = self.re, self.im
        parts = []
        if re:
            parts.append(str(re))
        if im:
            if im == 1:
                imtxt = "i"
            elif im == -1:
                imtxt = "-i"
            else:
                imtxt = f"{im}*i"
            if parts and not imtxt.startswith("-"):
                parts.append("+" + imtxt)
            else:
                parts.append(imtxt)
        return "".join(parts)

    def __repr__(self):
        return f"GR({self})"


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from a triple already in normal form."""
    x = _new(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d in normal form, for any d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


GR = GaussianRational


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class Poly(_Immutable):
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

    # -- constructors ------------------------------------------------

    @classmethod
    def _trusted(cls, params: tuple, terms: dict) -> "Poly":
        """A Poly from terms the package built (see the module docstring):
        the checks and coercions of ``__init__`` are skipped, and ``terms``
        is held as given, not copied."""
        x = _new(cls)
        _set_params(x, params)
        _set_terms(x, terms)
        return x

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
        return Poly._trusted(self.params, terms)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Poly._trusted(self.params, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational._coerce(other)
            # Q(i) is a field, so a nonzero scalar leaves every term nonzero
            return Poly._trusted(self.params, {e: v * c for e, v in self.terms.items()} if c else {})
        if isinstance(other, Jet):
            return NotImplemented
        other = self._coerce(other)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Poly._trusted(self.params, terms)

    __rmul__ = __mul__

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
        return Poly._trusted(self.params, {e: c for e, c in self.terms.items() if sum(e) == n})

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

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

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


_set_params = Poly.params.__set__
_set_terms = Poly.terms.__set__


class Jet(_Immutable):
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

    @classmethod
    def _trusted(cls, base: Poly, order: int) -> "Jet":
        """A Jet from a base the package built with no term above ``order``
        (see the module docstring): the truncation of ``__init__`` is
        skipped."""
        x = _new(cls)
        _set_base(x, base)
        _set_order(x, order)
        return x

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

    # sums, negations and scalar multiples of truncated bases stay truncated

    def __add__(self, other):
        other = self._coerce(other)
        return Jet._trusted(self.base + other.base, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet._trusted(self.base - other.base, self.order)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Jet._trusted(-self.base, self.order)

    def __mul__(self, other):
        """The product truncated at the order: pairs of terms whose degrees
        sum past it are skipped, not formed and then dropped."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Jet._trusted(self.base * other, self.order)
        other = self._coerce(other)
        order = self.order
        right = [(e, sum(e), c) for e, c in other.base.terms.items()]
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in self.base.terms.items():
            room = order - sum(e1)
            for e2, d2, c2 in right:
                if d2 <= room:
                    accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Jet._trusted(Poly._trusted(self.params, terms), order)

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


_set_base = Jet.base.__set__
_set_order = Jet.order.__set__


def accumulate(acc: dict, key, value) -> None:
    """Add ``value`` into ``acc[key]``, dropping the key when the sum is zero.

    The one sparse accumulation step behind every exact sum in the package:
    polynomial terms, form coefficients and elimination rows.
    """
    old = acc.get(key)
    s = value if old is None else old + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)
