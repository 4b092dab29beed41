import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgejump.coeff import (
    GR,
    CoefficientError,
    GaussianRational,
    Jet,
    Poly,
)

from .oracles import FractionPairQi

PARAMS = ("t11", "t12", "t21", "t22", "t31", "t32")


def pvar(name):
    return Poly.variable(PARAMS, name)


class TestFieldOps:
    def test_norm_of_one_plus_i(self):
        assert GR(1, 1) * GR(1, -1) == GR(2)

    def test_inverse_of_i(self):
        assert GR(0, 1).inv() == GR(0, -1)

    def test_fraction_addition(self):
        assert GR(Fraction(2, 3)) + GR(Fraction(1, 6)) == GR(Fraction(5, 6))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GR(1) / GR(0)
        with pytest.raises(ZeroDivisionError):
            GR(0).inv()

    def test_canonical_rendering(self):
        assert str(GR(Fraction(5, 6))) == "5/6"
        assert str(GR(Fraction(3, 4), Fraction(1, 4))) == "3/4+1/4*i"
        assert str(GR(0, -1)) == "-i"
        assert str(GR(0)) == "0"

    @pytest.mark.parametrize(
        "text", ["3", "-1/2", "i", "-i", "2i", "1/4*i", "3/4+1/4i", "1-i", "-1/2-3i"]
    )
    def test_parse_roundtrip(self, text):
        v = GaussianRational.parse(text)
        assert GaussianRational.parse(str(v)) == v

    @pytest.mark.parametrize("text", ["", "one", "1//2", "i*i", "+", "2x"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(CoefficientError):
            GaussianRational.parse(text)


grs = st.builds(
    GaussianRational,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


# wide enough that a missed reduction of the integer triple shows
wide_parts = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
wide_pairs = st.tuples(wide_parts, wide_parts)


def assert_matches(x, ref):
    """``x`` is in normal form and behaves as the reference value ``ref``."""
    a, b, d = x._a, x._b, x._d
    assert d > 0 and gcd(a, b, d) == 1
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.re, x.im) == (ref.re, ref.im)
    assert bool(x) == bool(ref)
    assert str(x) == str(ref)
    assert hash(x) == hash(ref)


class TestTripleAgainstFractionPair:
    @given(wide_pairs, wide_pairs)
    @settings(max_examples=300)
    def test_operations_match_reference(self, p, q):
        x, y = GR(*p), GR(*q)
        rx, ry = FractionPairQi(*p), FractionPairQi(*q)
        assert_matches(x, rx)
        assert_matches(x + y, rx + ry)
        assert_matches(x - y, rx - ry)
        assert_matches(x * y, rx * ry)
        assert_matches(-x, -rx)
        assert_matches(x.conjugate(), rx.conjugate())
        assert_matches(x - x, FractionPairQi())
        assert (x == y) == (rx == ry)
        assert x == GR(*p) and hash(x) == hash(GR(*p))
        if ry:
            assert_matches(x / y, rx / ry)
            assert_matches(y.inv(), ry.inv())
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
            with pytest.raises(ZeroDivisionError):
                y.inv()

    @given(wide_pairs, wide_parts, st.integers(-10**6, 10**6))
    @settings(max_examples=200)
    def test_mixed_operands_match_reference(self, p, f, n):
        x, rx, rf, rn = GR(*p), FractionPairQi(*p), FractionPairQi(f), FractionPairQi(n)
        assert_matches(x + f, rx + rf)
        assert_matches(f + x, rx + rf)
        assert_matches(x - n, rx - rn)
        assert_matches(n - x, rn - rx)
        assert_matches(x * f, rx * rf)
        assert_matches(n * x, rx * rn)
        if f:
            assert_matches(x / f, rx / rf)
        if rx:
            assert_matches(n / x, rn / rx)

    @given(wide_parts, st.integers(-10**6, 10**6))
    def test_real_values_agree_with_int_fraction_and_poly(self, f, n):
        for r in (f, n, Fraction(n)):
            x = GR(r)
            const = Poly.constant(("t",), r)
            assert x == r and r == x
            assert x == const and const == x
            assert hash(x) == hash(r) == hash(const.constant_term())
            assert x != r + 1 and x != GR(r, 1)

    def test_slots_are_read_only(self):
        x = GR(Fraction(3, 4), -2)
        for name in ("_a", "_b", "_d", "re", "im", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
        assert (x.re, x.im) == (Fraction(3, 4), -2)


@st.composite
def polys(draw, params=("a", "b")):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 3)) for _ in params)
        terms[exps] = draw(grs)
    return Poly(params, terms)


class TestRingAxioms:
    @given(grs, grs, grs)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if b:
            assert (a / b) * b == a

    @given(polys(), polys(), polys())
    @settings(max_examples=60)
    def test_poly_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(polys(), polys(), st.integers(0, 4))
    @settings(max_examples=60)
    def test_truncation_is_multiplicative(self, a, b, order):
        assert Jet(a * b, order) == Jet(a, order) * Jet(b, order)

    @given(polys(), polys())
    @settings(max_examples=40)
    def test_eval_is_ring_homomorphism(self, a, b):
        point = {"a": GR(Fraction(1, 2)), "b": GR(2, 1)}
        assert (a * b).eval(point) == a.eval(point) * b.eval(point)
        assert (a + b).eval(point) == a.eval(point) + b.eval(point)


def _ref_sum(x: Poly, y: Poly, sign: GR) -> Poly:
    """x + sign * y summed term by term, built by the checking constructor."""
    terms = dict(x.terms)
    for e, c in y.terms.items():
        terms[e] = terms.get(e, GR(0)) + sign * c
    return Poly(x.params, terms)


def _ref_product(x: Poly, y: Poly) -> Poly:
    """x * y summed pair by pair, built by the checking constructor."""
    terms: dict = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, GR(0)) + c1 * c2
    return Poly(x.params, terms)


def _assert_valid(x: Poly, order=None) -> None:
    """What the checking constructors guarantee, on a result that skipped them."""
    assert type(x) is Poly and type(x.params) is tuple
    for e, c in x.terms.items():
        assert type(e) is tuple and len(e) == len(x.params)
        assert all(type(k) is int and k >= 0 for k in e)
        assert type(c) is GaussianRational and c
        assert order is None or sum(e) <= order


class TestTrustedArithmetic:
    """Arithmetic results skip the constructor checks; they must equal the
    checked route and satisfy every invariant those checks enforce."""

    @given(polys(), polys(), grs, st.integers(0, 4))
    @settings(max_examples=120)
    def test_poly_and_jet_results_equal_the_checked_route(self, x, y, c, order):
        one = GR(1)
        for got, want in ((x + y, _ref_sum(x, y, one)), (x - y, _ref_sum(x, y, -one)),
                          (-x, _ref_sum(Poly(x.params), x, -one)), (x * y, _ref_product(x, y)),
                          (x * c, Poly(x.params, {e: v * c for e, v in x.terms.items()})),
                          (c * x, Poly(x.params, {e: c * v for e, v in x.terms.items()}))):
            _assert_valid(got)
            assert got == want
        jx, jy = Jet(x, order), Jet(y, order)
        for got, want in ((jx + jy, Jet(_ref_sum(jx.base, jy.base, one), order)),
                          (jx - jy, Jet(_ref_sum(jx.base, jy.base, -one), order)),
                          (-jx, Jet(_ref_sum(Poly(x.params), jx.base, -one), order)),
                          (jx * jy, Jet(_ref_product(jx.base, jy.base), order)),
                          (jx * c, Jet(_ref_product(jx.base, Poly.constant(x.params, c)), order)),
                          (jx * y, Jet(_ref_product(jx.base, y), order))):
            assert type(got) is Jet and got.order == order
            _assert_valid(got.base, order)
            assert got == want

    def test_results_share_no_terms_with_their_operands(self):
        x = Poly.parse(("a",), "a^2+1")
        for y in (x + 0, x * 1, -(-x), Jet(x, 3) * 1, x.homogeneous_part(2)):
            base = y.base if isinstance(y, Jet) else y
            assert base.terms is not x.terms


class TestJet:
    def test_degree_two_truncated_at_order_one(self):
        assert not Jet(pvar("t11"), 1) * Jet(pvar("t22"), 1)

    def test_difference_of_squares(self):
        one = Poly.constant(PARAMS, 1)
        t = pvar("t11")
        assert Jet(one + t, 2) * Jet(one - t, 2) == Jet(one - t * t, 2)

    def test_square_of_sum(self):
        s = Jet(pvar("t11") + pvar("t21"), 2)
        expected = (
            pvar("t11") * pvar("t11")
            + 2 * pvar("t11") * pvar("t21")
            + pvar("t21") * pvar("t21")
        )
        assert s * s == Jet(expected, 2)

    def test_order_mismatch_rejected(self):
        with pytest.raises(CoefficientError):
            Jet(pvar("t11"), 1) * Jet(pvar("t11"), 2)

    def test_param_mismatch_rejected(self):
        with pytest.raises(CoefficientError):
            Jet(pvar("t11"), 1) + Jet(Poly.variable(("s",), "s"), 1)


_ST = ("s", "t")
_s, _t, _u = Poly.variable(_ST, "s"), Poly.variable(_ST, "t"), Poly.variable(("u",), "u")
# the Poly has degree 3, above both jet orders, so truncation shows
OPERANDS = {
    "qi": GR(2, -1),
    "poly": _s * _t * _t + 3 * _s + GR(0, 1),
    "poly_u": _u + 1,
    "jet1": Jet(_s - _t + 1, 1),
    "jet2": Jet(_s * _s + _t, 2),
    "jet1_u": Jet(_u, 1),
}
# (left, right, ring of the result or the error mixing them raises)
PROMOTION = [
    ("qi", "qi", GaussianRational),
    ("qi", "poly", Poly),
    ("qi", "jet1", Jet),
    ("qi", "jet1_u", Jet),
    ("poly", "poly", Poly),
    ("poly", "jet1", Jet),
    ("poly", "jet2", Jet),
    ("jet1", "jet1", Jet),
    ("poly", "poly_u", CoefficientError),
    ("poly", "jet1_u", CoefficientError),
    ("jet1", "jet1_u", CoefficientError),
    ("jet1", "jet2", CoefficientError),
]


def _as_poly(x, params):
    """x in the ring Q(i)[params], without the promotion under test."""
    if isinstance(x, Jet):
        return x.base
    return Poly.constant(params, x) if isinstance(x, GaussianRational) else x


class TestPromotion:
    """Mixed operands promote along Q(i) < Poly < Jet, in either order."""

    @pytest.mark.parametrize("left, right, ring", PROMOTION,
                             ids=[f"{a}-{b}" for a, b, _ in PROMOTION])
    @pytest.mark.parametrize("op", [operator.mul, operator.add], ids=["mul", "add"])
    def test_promotion_table(self, left, right, ring, op):
        a, b = OPERANDS[left], OPERANDS[right]
        if ring is CoefficientError:
            for x, y in ((a, b), (b, a)):
                with pytest.raises(CoefficientError):
                    op(x, y)
            return
        ab, ba = op(a, b), op(b, a)
        assert ab == ba
        assert type(ab) is ring and type(ba) is ring
        if ring is GaussianRational:
            return
        params = next(x.params for x in (a, b) if not isinstance(x, GaussianRational))
        full = op(_as_poly(a, params), _as_poly(b, params))
        if ring is Poly:
            assert ab == full
        else:
            order = next(x.order for x in (a, b) if isinstance(x, Jet))
            if Poly in (type(a), type(b)):
                assert full.degree() > order
            assert ab.order == ba.order == order
            kept = {e: c for e, c in full.terms.items() if sum(e) <= order}
            assert ab.base == ba.base == Poly(params, kept)


class TestEvalAndParts:
    def full_point(self, **kw):
        pt = {p: GR(0) for p in PARAMS}
        pt.update({k: GR(v) for k, v in kw.items()})
        return pt

    def test_determinant_at_identity_direction(self):
        det = pvar("t11") * pvar("t22") - pvar("t21") * pvar("t12")
        assert det.eval(self.full_point(t11=1, t22=1)) == GR(1)

    def test_determinant_on_degenerate_stratum(self):
        det = pvar("t11") * pvar("t22") - pvar("t21") * pvar("t12")
        assert det.eval(self.full_point(t11=1)) == GR(0)

    def test_eval_zero(self):
        assert Poly(PARAMS).eval(self.full_point()) == GR(0)

    def test_missing_assignment_rejected(self):
        with pytest.raises(CoefficientError):
            pvar("t11").eval({"t11": GR(1)})

    def test_homogeneous_parts(self):
        q = Poly.constant(PARAMS, 3) + pvar("t11") + pvar("t11") * pvar("t22")
        assert q.homogeneous_part(1) == pvar("t11")
        assert (pvar("t11") * pvar("t22")).homogeneous_part(2) == pvar("t11") * pvar("t22")
        assert not pvar("t11").homogeneous_part(0)

    def test_poly_parse_and_render(self):
        p = Poly.parse(("t",), "3*t^2-1/2*t")
        assert str(p) == "3*t^2-1/2*t"
        q = Poly.parse(PARAMS, "t11*t22-t21*t12")
        assert str(q) == "t11*t22-t12*t21"  # graded-lex canonical order
        assert str(Poly.parse(("t",), "i*t")) == "i*t"
