"""Exact coefficient arithmetic over the Gaussian rationals.

Three coefficient rings are provided, forming a ladder:

* ``GaussianRational``, the field Q(i), stored as an integer triple
  (a, b, d) meaning (a + b*i)/d over one common denominator d > 0, with
  gcd(a, b, d) == 1;
* ``Poly``, multivariate polynomials in a fixed ordered tuple of
  deformation parameters, with GaussianRational coefficients;
* ``Jet``, a Poly with a truncation order: its arithmetic discards every
  monomial of total degree above the order.  An exact Poly has the order
  None.

Mixed-ring arithmetic is the operators: Q(i)'s operator returns
``NotImplemented`` for a Poly, whose reflected operator promotes the scalar
to a constant.  A Poly operand gives each result the order of the Jet among
the operands, so an exact Poly meeting a Jet is truncated to the jet's
order; two different orders are an error.

All values are immutable: each value class, and the forms, specs and
matrices built from them, inherits ``_Immutable``.  Monomials are ordered
graded-lexicographically, which fixes the order of the terms in the
canonical text; ``_sum_text`` is the one rule that writes that text, for
Q(i) values, polynomials, jets and the forms of ``exterior``.

``GaussianRational.parse`` and ``Poly.parse`` read exact literals (grammars
in the README) in one pass, each coefficient straight to an integer triple.

The public constructors check and coerce every term.  Results of
arithmetic on values that already passed those checks, and the terms
``Poly.parse`` builds from its grammar, come from ``Poly._trusted``, which
skips them: use it only for terms the package built itself (exponent
tuples of ints >= 0, one per parameter, and nonzero GaussianRational
coefficients, in a dict no one else holds) and, for a Jet, no term above
its order.  Nothing parsed from input reaches them unchecked.
"""

from __future__ import annotations

import re
import sys
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


class _Record:
    """A record whose fields are its annotated class attributes, in order.

    ``__init__`` sets them in that order from positional or keyword
    arguments; a field's class attribute is its default, copied if a list
    or dict.  ``==`` and ``repr`` read the fields (``repr`` skips those in
    ``_hidden``); attributes a subclass's ``__init__`` derives are not
    fields.  A record inheriting ``_Immutable`` is frozen and hashes its
    fields; any other is unhashable.
    """

    _hidden = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {key: cls.__dict__[key] for key in cls._fields if key in cls.__dict__}
        if not issubclass(cls, _Immutable):
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields, defaults = self._fields, self._defaults
        # a setter, not the instance __dict__, which once read slows every attribute read
        put = object.__setattr__ if isinstance(self, _Immutable) else setattr
        for key, value in zip(fields, args):
            put(self, key, value)
        for key in fields[len(args):]:
            if key in kwargs:
                value = kwargs.pop(key)
            elif key not in defaults:
                raise TypeError(f"{type(self).__name__}() missing argument {key!r}")
            elif isinstance(value := defaults[key], (list, dict)):
                value = value.copy()
            put(self, key, value)
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() got too many, unknown or repeated arguments")

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{key}={getattr(self, key)!r}" for key in self._fields if key not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"


def _int(digits: str, what: str) -> int:
    """The int of a string of ASCII digits; past Python's int digit limit, an error."""
    try:
        return int(digits)
    except ValueError:
        raise CoefficientError(f"number over {sys.get_int_max_str_digits()} digits in {what}") from None


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
            for x in (re, im):
                if not isinstance(x, (int, Fraction)):
                    raise TypeError(f"cannot coerce {type(x).__name__} into Q(i)")
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
        """Parse strings like ``-1/2``, ``i``, ``2/3*i`` or ``3/4+1/4i``: signed chunks
        ``n`` or ``n/m`` with an optional ``i`` or ``*i``, or ``i``; a chunk may end in a newline."""
        s = text.replace(" ", "").replace("−", "-")
        if not s:
            raise CoefficientError("empty coefficient string")
        a, b, d = 0, 0, 1
        # a chunk starts at each sign after the first character
        chunks = s.replace("-", "+-").split("+")
        if s[0] in "+-":
            del chunks[0]
        for chunk in chunks:
            if chunk[-1:] == "\n":
                chunk = chunk[:-1]
            neg = chunk[:1] == "-"
            body = chunk[1:] if neg else chunk
            imag = body[-1:] == "i"
            if imag:
                body = body[:-2] if body[-2:] == "*i" else body[:-1]
            num, slash, den = body.partition("/")
            if not body and imag:
                n = m = 1
            elif body.isascii() and num.isdigit() and (den.isdigit() or not slash):
                n, m = _int(num, "Q(i) literal"), _int(den, "Q(i) literal") if slash else 1
                if not m:
                    raise CoefficientError(f"zero denominator in {text!r}")
            else:
                raise CoefficientError(f"bad Q(i) literal: {text!r}")
            n = -n if neg else n
            if imag:
                a, b, d = a * m, b * m + n * d, d * m
            else:
                a, b, d = a * m + n * d, b * m, d * m
        return _reduced(a, b, d)

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
            if isinstance(other, Poly):
                return NotImplemented
            other = self._coerce(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Poly):
            return NotImplemented
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if isinstance(other, Poly):
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
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)  # in normal form, so triples compare
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self.re, self.im))

    def __str__(self):
        return _sum_text([(str(Fraction(x, self._d)), mon) for x, mon in ((self._a, ""), (self._b, "i"))
                          if x])

    def __repr__(self):
        return f"GR({self})"


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _sum_text(terms) -> str:
    """The canonical text of a sum of exact terms, given in order as
    (coefficient text, monomial text) pairs: every value class prints so.

    A coefficient ``1`` or ``-1`` leaves the monomial or its negation.  Any
    other is bracketed when it is compound (a ``+`` or ``-`` past its first
    character) and a monomial follows; a form's scalar monomial ``"1"`` is
    then dropped.  Terms join with ``+`` unless they start with ``-``; no
    terms print ``0``.
    """
    out = []
    for ctxt, mon in terms:
        if not mon:
            txt = ctxt
        elif ctxt in ("1", "-1"):
            txt = mon if ctxt == "1" else "-" + mon
        else:
            if "+" in ctxt[1:] or "-" in ctxt[1:]:
                ctxt = f"({ctxt})"
            txt = ctxt if mon == "1" else f"{ctxt}*{mon}"
        out.append("+" + txt if out and txt[0] != "-" else txt)
    return "".join(out) or "0"


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


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class Poly(_Immutable):
    """Multivariate polynomial over Q(i) in a fixed tuple of parameters.

    Terms map exponent vectors (one slot per parameter) to nonzero
    GaussianRational coefficients.  The zero polynomial has no terms.
    ``order`` is None: the polynomial is exact (a ``Jet`` sets it).
    """

    __slots__ = ("params", "terms")
    order = None

    def __init__(self, params, terms=None):
        object.__setattr__(self, "params", tuple(params))
        clean: dict[tuple[int, ...], GaussianRational] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.params):
                raise CoefficientError(
                    f"exponent vector {exps} does not match parameters {self.params}"
                )
            if any(type(e) is not int for e in exps):
                raise CoefficientError(f"exponent vector {exps} holds a non-integer")
            if any(e < 0 for e in exps):
                raise CoefficientError("negative exponent")
            c = GaussianRational._coerce(c)
            if c:
                clean[exps] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------

    @staticmethod
    def _trusted(params: tuple, terms: dict, order: int | None = None) -> "Poly":
        """A Poly, or with an ``order`` a Jet, from terms the package built
        (see the module docstring): the checks, coercions and truncation of
        the constructors are skipped, and ``terms`` is held as given, not
        copied."""
        if order is None:
            x = _new(Poly)
        else:
            x = _new(Jet)
            _set_order(x, order)
        _set_params(x, params)
        _set_terms(x, terms)
        return x

    @classmethod
    def constant(cls, params, c) -> "Poly":
        params = tuple(params)
        return cls(params, {(0,) * len(params): GaussianRational._coerce(c)})

    @staticmethod
    def variable(params, name: str) -> "Poly":
        """The exact polynomial ``name``, also when called through ``Jet``."""
        params = tuple(params)
        if name not in params:
            raise CoefficientError(f"unknown parameter {name!r} (have {params})")
        exps = tuple(1 if p == name else 0 for p in params)
        return Poly(params, {exps: GR_ONE})

    @staticmethod
    def parse(params, text: str) -> "Poly":
        """Parse an exact polynomial such as ``3*t^2-1/2*t`` or ``t11*t22``.

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
        terms: dict[tuple[int, ...], GaussianRational] = {}
        pos, end = 0, len(tokens)
        while pos < end:
            a, b, d = 1, 0, 1  # the term's coefficient (a + b*i)/d
            while pos < end and tokens[pos] in "+-":
                if tokens[pos] == "-":
                    a = -a
                pos += 1
            if pos == end:
                raise CoefficientError(f"dangling sign in {text!r}")
            exps = [0] * len(params)
            expect_factor = True
            while pos < end:
                tok = tokens[pos]
                if tok in "+-" and not expect_factor:
                    break
                pos += 1
                if tok == "*":
                    expect_factor = True
                    continue
                if not expect_factor:
                    raise CoefficientError(f"missing '*' in {text!r}")
                if tok[0].isdigit():
                    num, slash, den = tok.partition("/")
                    n, m = _int(num, "polynomial literal"), _int(den, "polynomial literal") if slash else 1
                    if not m:
                        raise CoefficientError(f"zero denominator in {text!r}")
                    a, b, d = a * n, b * n, d * m
                elif tok == "i":
                    a, b = -b, a
                elif tok in params:
                    power = 1
                    if pos < end and tokens[pos] == "^":
                        if pos + 1 == end or not tokens[pos + 1].isdigit():
                            raise CoefficientError(f"bad exponent in {text!r}")
                        power = _int(tokens[pos + 1], "polynomial literal")
                        pos += 2
                    exps[params.index(tok)] += power
                else:
                    raise CoefficientError(f"unknown symbol {tok!r} in {text!r}")
                expect_factor = False
            if expect_factor:
                raise CoefficientError(f"empty term in {text!r}")
            accumulate(terms, tuple(exps), _reduced(a, b, d))
        return Poly._trusted(params, terms)

    # -- arithmetic --------------------------------------------------

    def _operand(self, other) -> "tuple[Poly, int | None]":
        """``other`` as a Poly over this one's parameters (a scalar becomes a
        constant of this one's order), and the order of their result: the
        order of their Jet operand, None when both are exact."""
        if isinstance(other, Poly):
            if self.params != other.params:
                raise CoefficientError(f"parameter mismatch: {self.params} vs {other.params}")
            order = self.order
            if other.order != order:
                if order is not None and other.order is not None:
                    raise CoefficientError(f"jet order mismatch: {order} vs {other.order}")
                order = other.order if order is None else order
            return other, order
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational._coerce(other)
            return Poly._trusted(self.params, {(0,) * len(self.params): c} if c else {},
                                 self.order), self.order
        raise TypeError(f"cannot coerce {type(other).__name__} into {type(self).__name__}")

    def __add__(self, other):
        other, order = self._operand(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            accumulate(terms, exps, c)
        if self.order != other.order:  # an exact polynomial met a jet
            terms = {e: c for e, c in terms.items() if sum(e) <= order}
        return Poly._trusted(self.params, terms, order)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._operand(other)[0]

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Poly._trusted(self.params, {e: -c for e, c in self.terms.items()}, self.order)

    def __mul__(self, other):
        """The product; for a jet, pairs of terms whose degrees sum past
        its order are skipped, not formed and then dropped."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational._coerce(other)
            # Q(i) is a field, so a nonzero scalar leaves every term nonzero
            terms = {e: v * c for e, v in self.terms.items()} if c else {}
            return Poly._trusted(self.params, terms, self.order)
        other, order = self._operand(other)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        if order is None:
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        else:
            right = [(e, sum(e), c) for e, c in other.terms.items()]
            for e1, c1 in self.terms.items():
                room = order - sum(e1)
                for e2, d2, c2 in right:
                    if d2 <= room:
                        accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Poly._trusted(self.params, terms, order)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        """Equality in the ring of the result: a jet equals every polynomial
        that agrees with it up to its order."""
        try:
            other, order = self._operand(other)
        except (TypeError, CoefficientError):
            return NotImplemented
        if self.order == other.order:
            return self.terms == other.terms
        return ({e: c for e, c in self.terms.items() if sum(e) <= order}
                == {e: c for e, c in other.terms.items() if sum(e) <= order})

    def __hash__(self):
        # a jet of order 0 equals every polynomial with its constant term
        return hash(self.constant_term())

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
        """Exact evaluation; every parameter must be assigned.  A term with a
        positive power of a parameter valued 0 is skipped, not multiplied
        out."""
        missing = [p for p in self.params if p not in point]
        if missing:
            raise CoefficientError(f"missing assignment for parameters {missing}")
        values = [GaussianRational._coerce(point[p]) for p in self.params]
        total = GR_ZERO
        for exps, c in self.terms.items():
            v = c
            for val, e in zip(values, exps):
                if e and not val:
                    break
                for _ in range(e):
                    v = v * val
            else:
                total = total + v
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __str__(self):
        return _sum_text([
            (str(c), "*".join(f"{p}^{e}" if e > 1 else p for p, e in zip(self.params, exps) if e))
            for exps, c in self.sorted_terms()])

    def __repr__(self):
        return f"Poly({self})"


_set_params = Poly.params.__set__
_set_terms = Poly.terms.__set__


class Jet(Poly):
    """A polynomial truncated at a total-degree bound ``order``.

    Models functions on an infinitesimal neighborhood of the origin of the
    parameter space: arithmetic agrees with Poly arithmetic followed by
    discarding all monomials of total degree above ``order``, and a Jet
    meeting an exact Poly is a Jet.
    """

    __slots__ = ("order",)

    def __init__(self, base: Poly, order: int):
        if order < 0:
            raise CoefficientError("jet order must be nonnegative")
        super().__init__(base.params, {e: c for e, c in base.terms.items() if sum(e) <= order})
        _set_order(self, order)

    @classmethod
    def constant(cls, params, c, order: int) -> "Jet":
        return cls(Poly.constant(params, c), order)

    def __repr__(self):
        return f"Jet({self}; order={self.order})"


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


def _axpy(acc: dict, f, row: dict) -> None:
    """acc += f * row in place, dropping entries that cancel: the one scaled
    sparse row update, for Q(i), Poly and Jet factors and entries alike."""
    for j, x in row.items():
        accumulate(acc, j, f * x)
