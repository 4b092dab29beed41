import random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from hodgejump.coeff import GR, GR_ZERO, Jet, Poly
from hodgejump.deform import Dolbeault, dbar_vector
from hodgejump.exterior import (
    ComplexStructureSpec,
    InvariantForm,
    SpecError,
    VectorForm,
    _d_monomial,
    _indices,
    _mask,
    _shuffle,
    basis_monomials,
    contract,
    deformed_coframe,
    defect_is_zero,
    differential,
    validate_spec,
    wedge,
)

from .conftest import (
    IW_PARAMS,
    SPEC_NAMES,
    TEXT_GRS,
    random_form,
    random_gr,
    random_mixed_coeff,
    random_mixed_form,
    text_coeffs,
)
from . import oracles

def random_spec(rng, n):
    """A spec with sparse random tables on every index pair: not a Lie
    algebra in general, which the deformed coframe does not need."""
    A = {k: {(i, j): random_gr(rng, zero_ok=False) for i in range(1, n + 1)
             for j in range(i + 1, n + 1) if rng.random() < 0.2} for k in range(1, n + 1)}
    B = {k: {(i, j): random_gr(rng, zero_ok=False) for i in range(1, n + 1)
             for j in range(1, n + 1) if rng.random() < 0.15} for k in range(1, n + 1)}
    return ComplexStructureSpec(n, A, B)


def gen_f(spec, k):
    return InvariantForm.generator(spec, "f", k)


def gen_c(spec, k):
    return InvariantForm.generator(spec, "c", k)


class TestWedge:
    def test_square_is_zero(self, iwasawa):
        assert not wedge(gen_f(iwasawa, 1), gen_f(iwasawa, 1))

    def test_antisymmetry(self, iwasawa):
        assert wedge(gen_f(iwasawa, 2), gen_f(iwasawa, 1)) == InvariantForm.monomial(
            iwasawa, (1, 2), (), GR(-1)
        )

    def test_canonical_order(self, iwasawa):
        assert wedge(gen_f(iwasawa, 3), gen_c(iwasawa, 2)) == InvariantForm.monomial(
            iwasawa, (3,), (2,), GR(1)
        )

    @pytest.mark.parametrize("spec_name", SPEC_NAMES)
    def test_matches_oracle_on_random_forms(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        rng = random.Random(hash(spec_name) % 1000)
        for _ in range(30):
            p1, q1 = rng.randint(0, spec.n), rng.randint(0, spec.n)
            p2, q2 = rng.randint(0, spec.n), rng.randint(0, spec.n)
            a = random_form(spec, p1, q1, rng)
            b = random_form(spec, p2, q2, rng)
            got = wedge(a, b)
            assert oracles.form_to_raw(got) == oracles.naive_wedge(a, b)
            # mixed Q(i)/Poly/Jet coefficients; a^a cancels for odd degree
            a = random_mixed_form(spec, p1, q1, rng)
            b = random_mixed_form(spec, p2, q2, rng)
            for x, y in ((a, b), (a, a)):
                assert oracles.form_to_raw(wedge(x, y)) == oracles.naive_wedge(x, y)

    @pytest.mark.parametrize("spec_name", SPEC_NAMES)
    def test_bilinear_associative_graded_commutative(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        rng = random.Random(len(spec_name))
        for _ in range(25):
            pa, qa = rng.randint(0, 1), rng.randint(0, 1)
            pb, qb = rng.randint(0, 1), rng.randint(0, 1)
            pc, qc = rng.randint(0, 1), rng.randint(0, 1)
            a = random_form(spec, pa, qa, rng)
            b = random_form(spec, pb, qb, rng)
            c = random_form(spec, pc, qc, rng)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
            ab = wedge(a, b)
            ba = wedge(b, a)
            sign = (-1) ** ((pa + qa) * (pb + qb))
            assert ab == (ba if sign > 0 else -ba)
            s = random_gr(rng)
            assert wedge(a.scale(s), b) == wedge(a, b).scale(s)
            assert wedge(a + a, b) == wedge(a, b) + wedge(a, b)

    def test_spec_mismatch_rejected(self, iwasawa, torus3):
        with pytest.raises(SpecError):
            wedge(gen_f(iwasawa, 1), gen_f(torus3, 1))


INDEX_MASKS = st.sets(st.integers(1, 8)).map(_mask)


class TestSignRule:
    @given(st.lists(st.sampled_from((0, 1, 2)), min_size=8, max_size=8))
    def test_shuffle_is_the_parity_of_the_concatenation(self, sides):
        # each index 1..8 goes to a, to b or to neither, so a and b are disjoint
        a = [i for i, side in enumerate(sides, 1) if side == 1]
        b = [i for i, side in enumerate(sides, 1) if side == 2]
        r = _shuffle(_mask(a), _mask(b))
        assert r == sum(x > y for x in a for y in b)
        assert (-1) ** r == oracles.perm_sign(a + b)

    @given(st.integers(1, 8), INDEX_MASKS)
    def test_single_bit_case_is_the_inline_popcount(self, i, m):
        bit = 1 << i
        assert (m & (bit - 1)).bit_count() == _shuffle(bit, m)


class TestConstructorValidation:
    @pytest.mark.parametrize("p, q, key", [
        (1, 1, ((1, 2), (1,))),     # wrong bidegree
        (2, 0, ((2, 1), ())),       # not increasing
        (2, 0, ((1, 1), ())),       # repeated index
        (0, 2, ((), (3, 2))),       # not increasing, antiholomorphic side
        (1, 0, ((4,), ())),         # index above n
        (0, 1, ((), (0,))),         # index below 1
    ])
    def test_bad_key_rejected(self, iwasawa, p, q, key):
        with pytest.raises(SpecError):
            InvariantForm(iwasawa, p, q, {key: GR(1)})

    @pytest.mark.parametrize("build", [
        lambda s: ComplexStructureSpec(3, A={3: {(1.5, 2): GR(-1)}}),
        lambda s: ComplexStructureSpec(3, B={3: {(1, True): GR(1)}}),
        lambda s: ComplexStructureSpec(3, Abar={3: {(1, 2.0): GR(1)}}, Bbar={}),
        lambda s: InvariantForm(s, 1, 0, {((1.5,), ()): GR(1)}),
        lambda s: InvariantForm(s, 1, 1, {((1,), (True,)): GR(1)}),
        lambda s: VectorForm(s, 1, {(1.5, (1,)): GR(1)}),
        lambda s: VectorForm(s, 1, {(1, (True,)): GR(1)}),
    ], ids=["A-float", "B-bool", "Abar-float", "form-float", "form-bool", "vector-float", "vector-bool"])
    def test_non_integer_index_rejected(self, iwasawa, build):
        # a bool is refused like any non-int, as manifests refuse it; such an
        # index used to pass the constructor and fail later with a TypeError
        with pytest.raises(SpecError):
            build(iwasawa)

    @pytest.mark.parametrize("build, message", [
        (lambda: ComplexStructureSpec(0), "complex dimension must be at least 1"),
        (lambda: ComplexStructureSpec(3, A={3: {(1, 4): GR(1)}}), "generator index out of range in (1,4)"),
        (lambda: ComplexStructureSpec(3, B={2: {(0, 1): GR(1)}}), "generator index out of range in (0,1)"),
        (lambda: ComplexStructureSpec(3, A={3: {(2, 1): GR(1)}}),
         "2-form index pair (2,1) must be strictly increasing"),
        (lambda: ComplexStructureSpec(3, Abar={3: {(2, 2): GR(1)}}, Bbar={}),
         "2-form index pair (2,2) must be strictly increasing"),
    ], ids=["n-0", "A-above-n", "B-below-1", "A-decreasing", "Abar-repeated"])
    def test_spec_refusals(self, build, message):
        with pytest.raises(SpecError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda s, t: InvariantForm.monomial(s, (1,), ()) + InvariantForm.monomial(t, (1,), ()),
         "cannot add forms over different specs"),
        (lambda s, t: InvariantForm.monomial(s, (1,), ()) - InvariantForm.monomial(s, (), (1,)),
         "cannot add forms of different bidegree"),
        (lambda s, t: VectorForm.term(s, 1, (1,)) + VectorForm.term(s, 1, (1, 2)), "vector form mismatch"),
        (lambda s, t: VectorForm.term(s, 1, (1,)) - VectorForm.term(t, 1, (1,)), "vector form mismatch"),
        (lambda s, t: deformed_coframe(s, VectorForm.term(s, 1, (1, 2))),
         "deformed_coframe expects a (0,1) vector form"),
        (lambda s, t: deformed_coframe(s, VectorForm.term(t, 1, (1,))), "deformed_coframe: spec mismatch"),
    ], ids=["add-spec", "sub-bidegree", "vector-degree", "vector-spec", "coframe-degree", "coframe-spec"])
    def test_form_and_coframe_refusals(self, iwasawa, torus3, build, message):
        with pytest.raises(SpecError) as err:
            build(iwasawa, torus3)
        assert str(err.value) == message

    def test_vector_form_index_out_of_range_rejected(self, iwasawa):
        with pytest.raises(SpecError, match="bad vector-form key"):
            VectorForm(iwasawa, 1, {(1, (4,)): GR(1)})

    @pytest.mark.parametrize("p, q", [(-1, 0), (0, 4), (4, 0)])
    def test_bad_bidegree_rejected(self, iwasawa, p, q):
        with pytest.raises(SpecError):
            InvariantForm(iwasawa, p, q)

    def test_internal_results_match_validated_forms(self, iwasawa):
        rng = random.Random(7)
        for pa, qa, pb, qb in [(1, 0, 0, 1), (1, 1, 1, 0), (0, 1, 2, 1)]:
            a = random_form(iwasawa, pa, qa, rng)
            b = random_form(iwasawa, pb, qb, rng)
            for form in (wedge(a, b), a + a, a.scale(GR(0)), *differential(iwasawa, a)):
                assert form == InvariantForm(iwasawa, form.p, form.q, form.coeffs)
                assert all(form.coeffs.values())

    @pytest.mark.parametrize("spec_name", SPEC_NAMES)
    def test_internal_vector_forms_match_validated_ones(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        rng = random.Random(11)
        for q in range(spec.n + 1):
            psi = VectorForm(spec, q, {(i, J): random_mixed_coeff(rng)
                                       for i in range(1, spec.n + 1)
                                       for _, J in basis_monomials(spec.n, 0, q)})
            for form in (dbar_vector(spec, psi), psi + psi, -psi, psi.scale(GR(0)),
                         psi.eval_point({"t": GR(2)}), psi.homogeneous_part(1)):
                assert form == VectorForm(spec, form.q, form.coeffs)
                assert all(form.coeffs.values())

    def test_equality_needs_one_kind_and_degree(self, iwasawa):
        form, vec = InvariantForm.monomial(iwasawa, (1,), (1,)), VectorForm.term(iwasawa, 2, (1,))
        assert form.terms == vec.terms == {(2, 2): GR(1)}  # f1^c1 and theta_2 (x) c1
        assert form != vec and vec != form
        assert InvariantForm(iwasawa, 1, 0) != InvariantForm(iwasawa, 0, 1)
        assert VectorForm(iwasawa, 1) != VectorForm(iwasawa, 2)
        assert InvariantForm(iwasawa, 1, 0) == InvariantForm(iwasawa, 1, 0)
        assert VectorForm(iwasawa, 1) == VectorForm(iwasawa, 1)
        assert hash(form) == hash(InvariantForm(iwasawa, 1, 1, form.coeffs))
        assert hash(vec) == hash(VectorForm(iwasawa, 1, vec.coeffs))


@st.composite
def mask_key_cases(draw):
    """A spec with random sparse tables (the kernels need no Lie algebra),
    the coefficients of two forms and of a vector form, zeros among them."""
    n = draw(st.integers(1, 4))
    rng = range(1, n + 1)
    A = {k: draw(st.dictionaries(st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda ij: ij[0] < ij[1]), TEXT_GRS, max_size=2)) if n > 1 else {} for k in rng}
    B = {k: draw(st.dictionaries(st.tuples(st.integers(1, n), st.integers(1, n)), TEXT_GRS,
                                 max_size=2)) for k in rng}

    def monomials(p, q):
        return st.dictionaries(st.sampled_from(basis_monomials(n, p, q)), TEXT_GRS, max_size=4)

    degrees = [(draw(st.integers(0, n)), draw(st.integers(0, n))) for _ in range(2)]
    forms = [(p, q, draw(monomials(p, q))) for p, q in degrees]
    q = draw(st.integers(0, n))
    psi = draw(st.dictionaries(st.tuples(st.integers(1, n), st.sampled_from(
        [J for _, J in basis_monomials(n, 0, q)])), TEXT_GRS, max_size=4))
    return ComplexStructureSpec(n, A, B), forms, (q, psi)


class TestMaskKeys:
    """A form stores (I, J) mask keys in ``terms``; ``coeffs`` is their view
    keyed by index tuples, and a kernel result is the form the checking
    constructor builds from that view."""

    @settings(max_examples=60, deadline=None)
    @given(mask_key_cases())
    def test_constructor_view_and_kernels_agree(self, case):
        spec, forms, (q, psi_coeffs) = case
        a, b = (InvariantForm(spec, p, q, coeffs) for p, q, coeffs in forms)
        psi = VectorForm(spec, q, psi_coeffs)
        for form, (_, _, coeffs) in zip((a, b), forms):
            assert isinstance(form.coeffs, MappingProxyType)
            assert dict(form.coeffs) == {key: c for key, c in coeffs.items() if c}
            for (I, J), c in coeffs.items():
                assert form.coefficient(I, J) == c
                # masks alias these tuples; the coefficient of none is c
                for I2, J2 in ((I[::-1], J), (I, J[::-1]), (I[:1] + I, J), (I, J + J[-1:])):
                    if (I2, J2) != (I, J):
                        assert form.coefficient(I2, J2) == GR_ZERO
        assert dict(psi.coeffs) == {key: c for key, c in psi_coeffs.items() if c}
        for got in (wedge(a, b), *differential(spec, a), contract(psi, a)):
            want = InvariantForm(spec, got.p, got.q, got.coeffs)
            assert got == want and hash(got) == hash(want) and got.terms == want.terms
            assert all(got.terms.values())
        got = dbar_vector(spec, psi)
        want = VectorForm(spec, got.q, got.coeffs)
        assert got == want and hash(got) == hash(want) and got.terms == want.terms

    def test_coefficient_reads_zero_off_strictly_increasing_tuples(self, iwasawa):
        # (2, 1) and (1, 1, 2) have the mask of (1, 2)
        form = InvariantForm.monomial(iwasawa, (1, 2), (3,), GR(5))
        assert form.coefficient((1, 2), (3,)) == GR(5) and form.terms == {(0b110, 0b1000): GR(5)}
        for I, J in (((2, 1), (3,)), ((1, 1, 2), (3,)), ((1, 2), (3, 3))):
            assert form.coefficient(I, J) == GR_ZERO


class TestDifferential:
    def test_structure_equation(self, iwasawa):
        d, db = differential(iwasawa, gen_f(iwasawa, 3))
        assert d == InvariantForm.monomial(iwasawa, (1, 2), (), GR(-1))
        assert not db

    def test_conjugate_structure_equation(self, iwasawa):
        d, db = differential(iwasawa, gen_c(iwasawa, 3))
        assert db == InvariantForm.monomial(iwasawa, (), (1, 2), GR(-1))
        assert not d

    def test_leibniz_cancellation(self, iwasawa):
        d, db = differential(iwasawa, wedge(gen_f(iwasawa, 1), gen_f(iwasawa, 3)))
        assert not d and not db

    @pytest.mark.parametrize("spec_name", SPEC_NAMES + ["unordered_spec"])
    def test_matches_oracle(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        rng = random.Random(29 + len(spec_name))
        for _ in range(30):
            p, q = rng.randint(0, spec.n), rng.randint(0, spec.n)
            for a in (random_form(spec, p, q, rng), random_mixed_form(spec, p, q, rng)):
                d, db = differential(spec, a)
                got = oracles.raw_add(oracles.form_to_raw(d), oracles.form_to_raw(db))
                assert got == oracles.naive_d(spec, a)

    @pytest.mark.parametrize("spec_name", SPEC_NAMES + ["deformed_iwasawa"])
    def test_dbar_matrix_columns_match_oracle(self, spec_name, request):
        # deformed_iwasawa: the Iwasawa coframe deformed along the ray
        # s -> s psi1(point) of the symbolic first-order class, so its
        # structure constants are polynomials in s, read as jets of order 2:
        # column a*C + j is s^a times monomial j, and the s^b part of its
        # delbar lands in row block a+b
        order = 0
        if spec_name == "deformed_iwasawa":
            psi1 = request.getfixturevalue("iw_psi1").eval_point(
                {t: GR(k, 1) for k, t in enumerate(IW_PARAMS)})
            spec, _ = deformed_coframe(request.getfixturevalue("iwasawa"), VectorForm(
                psi1.spec, 1, {key: Poly(("s",), {(1,): c}) for key, c in psi1.coeffs.items()}))
            assert any(isinstance(c, Poly) for row in spec.B.values() for c in row.values())
            order = 2
        else:
            spec = request.getfixturevalue(spec_name)
        dol = Dolbeault(oracles.jet_twin(spec, order) if order else spec)
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                tgt = {key: r for r, key in enumerate(basis_monomials(spec.n, p, q + 1))}
                src = basis_monomials(spec.n, p, q)
                cols = dol.dbar_matrix(p, q).sparse_columns
                assert len(cols) == (order + 1) * len(src)
                for col_index, col in enumerate(cols):
                    a, j = divmod(col_index, len(src))
                    full = oracles.naive_d(spec, InvariantForm.monomial(spec, *src[j]))
                    expect = {}
                    for factors, c in full.items():
                        J = tuple(i for side, i in factors if side == 1)
                        if len(J) == q + 1:
                            r = tgt[(tuple(i for side, i in factors if side == 0), J)]
                            for (b,), x in (c.terms.items() if isinstance(c, Poly) else [((0,), c)]):
                                if a + b <= order:
                                    expect[(a + b) * len(tgt) + r] = x
                    assert dict(col) == expect

    @pytest.mark.parametrize("spec_name", SPEC_NAMES + ["unordered_spec", "deformed_iwasawa"])
    def test_dbar_vector_matches_oracle(self, spec_name, request):
        if spec_name == "deformed_iwasawa":
            spec, _ = deformed_coframe(request.getfixturevalue("iwasawa"),
                                       request.getfixturevalue("iw_psi1"))
        else:
            spec = request.getfixturevalue(spec_name)
        rng = random.Random(61 + len(spec_name))
        for q in range(spec.n + 1):
            keys = [(i, J) for i in range(1, spec.n + 1) for _, J in basis_monomials(spec.n, 0, q)]
            psis = [VectorForm.term(spec, *key) for key in keys]
            psis += [VectorForm(spec, q, {key: random_gr(rng) for key in keys if rng.random() < 0.5})
                     for _ in range(10)]
            for psi in psis:
                assert dbar_vector(spec, psi).coeffs == oracles.naive_dbar_vector(spec, psi)

    @pytest.mark.parametrize("spec_name", SPEC_NAMES)
    def test_leibniz_rule(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        rng = random.Random(31 + len(spec_name))
        for _ in range(20):
            pa, qa = rng.randint(0, spec.n - 1), rng.randint(0, spec.n - 1)
            pb, qb = rng.randint(0, spec.n - 1), rng.randint(0, spec.n - 1)
            a = random_form(spec, pa, qa, rng)
            b = random_form(spec, pb, qb, rng)
            dab = differential(spec, wedge(a, b))
            total_ab = oracles.raw_add(
                oracles.form_to_raw(dab[0]), oracles.form_to_raw(dab[1])
            )
            da = differential(spec, a)
            db = differential(spec, b)
            sign = GR((-1) ** (pa + qa))
            lhs: dict = {}
            for part in (wedge(da[0], b), wedge(da[1], b)):
                lhs = oracles.raw_add(lhs, oracles.form_to_raw(part))
            for part in (wedge(a, db[0]), wedge(a, db[1])):
                lhs = oracles.raw_add(lhs, oracles.raw_scale(oracles.form_to_raw(part), sign))
            assert lhs == total_ab

    @pytest.mark.parametrize("spec_name", SPEC_NAMES)
    def test_d_squared_identities_on_every_basis_form(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                for key in basis_monomials(spec.n, p, q):
                    a = InvariantForm.monomial(spec, *key)
                    d, db = differential(spec, a)
                    dd = differential(spec, d)
                    dbdb = differential(spec, db)
                    assert not dd[0]                      # del^2 = 0
                    assert not dbdb[1]                    # delbar^2 = 0
                    mixed = dd[1] + dbdb[0]
                    assert not mixed                      # del delbar + delbar del = 0


T_TERMS = st.dictionaries(st.tuples(st.integers(0, 2)), TEXT_GRS, min_size=1, max_size=2)
# Q(i), Q(i)[t] and jets of order 2 in t
RING_COEFFS = st.one_of(TEXT_GRS, T_TERMS.map(lambda terms: Poly(("t",), terms)),
                        T_TERMS.map(lambda terms: Jet(Poly(("t",), terms), 2)))


@st.composite
def generator_cases(draw):
    """A spec with all four tables drawn, the c-side explicit rather than
    conjugate (no Lie algebra in general, which d and the coframe do not
    need), f and c generators closed among them; a form and a (0,1) vector
    form; every coefficient from ``RING_COEFFS``."""
    n = draw(st.integers(1, 4))
    gens = list(range(1, n + 1))
    ordered = [(i, j) for i in gens for j in gens if i < j]
    mixed = [(i, j) for i in gens for j in gens]

    def table(pairs, closed):
        return {k: draw(st.dictionaries(st.sampled_from(pairs), RING_COEFFS, max_size=2))
                for k in gens if pairs and k not in closed}

    closed_f, closed_c = draw(st.sets(st.sampled_from(gens))), draw(st.sets(st.sampled_from(gens)))
    spec = ComplexStructureSpec(n, table(ordered, closed_f), table(mixed, closed_f),
                                Abar=table(ordered, closed_c), Bbar=table(mixed, closed_c))
    p, q = draw(st.integers(0, n)), draw(st.integers(0, n))
    coeffs = draw(st.dictionaries(st.sampled_from(basis_monomials(n, p, q)), RING_COEFFS, max_size=4))
    psi = draw(st.dictionaries(st.tuples(st.sampled_from(gens), st.sampled_from(gens).map(lambda j: (j,))),
                               RING_COEFFS, max_size=3))
    return spec, InvariantForm(spec, p, q, coeffs), VectorForm(spec, 1, psi)


def raw_of_masks(vec: dict) -> dict:
    """A mask-keyed sparse vector as an oracle raw dict."""
    return {tuple([(0, i) for i in _indices(mi)] + [(1, j) for j in _indices(mj)]): c
            for (mi, mj), c in vec.items()}


class TestGeneratorTable:
    """d and the deformed coframe read one table of generator differentials
    per spec; both match the oracles, which read the four structure tables."""

    @settings(max_examples=80, deadline=None)
    @given(generator_cases())
    def test_d_and_coframe_match_the_oracles(self, case):
        spec, a, psi = case
        d, db = differential(spec, a)
        assert oracles.raw_add(oracles.form_to_raw(d), oracles.form_to_raw(db)) == oracles.naive_d(spec, a)
        for (mi, mj), c in a.terms.items():
            monomial = (_indices(mi), _indices(mj))
            for coeff, want in ((None, oracles.naive_d(spec, InvariantForm.monomial(spec, *monomial))),
                                (c, oracles.naive_d(spec, InvariantForm.monomial(spec, *monomial, c)))):
                dl, dbar = {}, {}
                _d_monomial(spec._generator_d(), mi, mj, dbar, coeff)      # dl=None: delbar only
                _d_monomial(spec._generator_d(), mi, mj, None, coeff, dl)  # dbar=None: del only
                assert raw_of_masks(dl) == {k: v for k, v in want.items()
                                            if oracles.holomorphic_degree(k) == a.p + 1}
                assert raw_of_masks(dbar) == {k: v for k, v in want.items()
                                              if oracles.holomorphic_degree(k) == a.p}
        dspec, defect = deformed_coframe(spec, psi)
        got = {"A": dspec.A, "B": dspec.B, "Abar": dspec.Abar, "Bbar": dspec.Bbar, "defect": defect}
        for name, table in oracles.naive_deformed_coframe(spec, psi).items():
            assert {k: dict(row) for k, row in got[name].items()} == table, name

    @settings(max_examples=40, deadline=None)
    @given(generator_cases())
    def test_table_is_read_only_and_outside_equality(self, case):
        spec = case[0]
        twin = ComplexStructureSpec(spec.n, spec.A, spec.B, Abar=spec.Abar, Bbar=spec.Bbar)
        before = hash(twin), repr(twin)
        s, live, terms = table = spec._generator_d()
        assert spec._generator_d() is table
        assert twin._gen_d is None and twin == spec and (hash(spec), repr(spec)) == before
        assert s == spec.n + 1
        for k in range(1, spec.n + 1):
            for b, rows in ((1 << k, [(spec.A[k], True), (spec.B[k], False)]),
                            (1 << k + s, [(spec.Abar[k], True), (spec.Bbar[k], False)])):
                # table order, as (f mask, c mask, constant)
                f_side = b < 1 << s
                want = [((1 << i | 1 << j, 0) if pure and f_side else (0, 1 << i | 1 << j) if pure
                         else (1 << i, 1 << j)) + (c,) for row, pure in rows for (i, j), c in row.items()]
                assert [term[:3] for term in terms[b]] == want
                assert bool(live & b) == bool(want)
        assert live & ~sum(terms) == 0
        with pytest.raises(TypeError):
            terms[1 << 1] = ()
        with pytest.raises(AttributeError, match="immutable"):
            spec._gen_d = None


class TestContract:
    def test_middle_slot(self, iwasawa):
        psi = VectorForm.term(iwasawa, 2, (1,))
        got = contract(psi, wedge(gen_f(iwasawa, 2), gen_f(iwasawa, 3)))
        assert got == InvariantForm.monomial(iwasawa, (3,), (1,), GR(1))

    def test_no_holomorphic_factor_gives_zero(self, iwasawa):
        psi = VectorForm.term(iwasawa, 2, (1,))
        assert not contract(psi, gen_c(iwasawa, 1))

    def test_second_slot_sign(self, iwasawa):
        psi = VectorForm.term(iwasawa, 3, (1,))
        got = contract(psi, wedge(gen_f(iwasawa, 1), gen_f(iwasawa, 3)))
        assert got == InvariantForm.monomial(iwasawa, (1,), (1,), GR(-1))

    @pytest.mark.parametrize("spec_name", SPEC_NAMES)
    def test_matches_oracle(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        rng = random.Random(37)
        for _ in range(30):
            p, q = rng.randint(1, spec.n), rng.randint(0, spec.n - 1)
            a = random_form(spec, p, q, rng)
            coeffs = {}
            for i in range(1, spec.n + 1):
                for lam in range(1, spec.n + 1):
                    if rng.random() < 0.4:
                        coeffs[(i, (lam,))] = random_gr(rng)
            psi = VectorForm(spec, 1, coeffs)
            got = contract(psi, a)
            assert oracles.form_to_raw(got) == oracles.naive_contract(psi, a)
            # mixed Q(i)/Poly/Jet coefficients on both sides
            a = random_mixed_form(spec, p, q, rng)
            psi = VectorForm(spec, 1, {key: random_mixed_coeff(rng) for key in coeffs})
            got = contract(psi, a)
            assert oracles.form_to_raw(got) == oracles.naive_contract(psi, a)
            # a (0,2) direction, on forms of every antiholomorphic degree
            psi = VectorForm(spec, 2, {(i, J): random_mixed_coeff(rng)
                                       for i in range(1, spec.n + 1)
                                       for _, J in basis_monomials(spec.n, 0, 2)
                                       if rng.random() < 0.4})
            a = random_mixed_form(spec, p, rng.randint(0, spec.n), rng)
            got = contract(psi, a)
            assert oracles.form_to_raw(got) == oracles.naive_contract(psi, a)

    def test_bilinear_and_repeated_direction_vanishes(self, iwasawa):
        rng = random.Random(41)
        for _ in range(20):
            a = random_form(iwasawa, 2, 1, rng)
            psi = VectorForm.term(iwasawa, rng.randint(1, 3), (rng.randint(1, 3),))
            twice = contract(psi, contract(psi, a))
            assert not twice
            b = random_form(iwasawa, 2, 1, rng)
            assert contract(psi, a + b) == contract(psi, a) + contract(psi, b)


TEXT_SPEC = ComplexStructureSpec(3)


@st.composite
def text_forms(draw):
    """An invariant form at n = 3 of any bidegree, scalars included."""
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    keys = draw(st.lists(st.sampled_from(basis_monomials(3, p, q)), max_size=4, unique=True))
    return InvariantForm(TEXT_SPEC, p, q, {key: draw(text_coeffs()) for key in keys})


@st.composite
def text_vector_forms(draw):
    q = draw(st.integers(0, 3))
    keys = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from(basis_monomials(3, 0, q))),
                         max_size=4, unique=True))
    return VectorForm(TEXT_SPEC, q, {(i, J): draw(text_coeffs()) for i, (_, J) in keys})


class TestRendering:
    @given(text_forms())
    @settings(max_examples=200)
    def test_invariant_form_text_matches_seed_renderer(self, a):
        assert str(a) == oracles.seed_invariant_form_text(a)

    @given(text_vector_forms())
    def test_vector_form_text_matches_seed_renderer(self, psi):
        assert str(psi) == oracles.seed_vector_form_text(psi)

    def test_scalar_form_brackets_a_compound_coefficient(self, iwasawa):
        # unlike a constant polynomial, whose compound coefficient prints bare
        assert str(InvariantForm.scalar(iwasawa, GR(1, 1))) == "(1+i)"
        assert str(Poly.constant(("t",), GR(1, 1))) == "1+i"
        assert str(InvariantForm.scalar(iwasawa, GR(1))) == "1"
        assert str(InvariantForm.scalar(iwasawa, Poly.parse(("t",), "t-1"))) == "(t-1)"
        assert str(VectorForm(iwasawa, 0, {(2, ()): GR(Fraction(-1, 2), 1)})) == "(-1/2+i)*theta2"

    def test_canonical_form_strings(self, iwasawa):
        f = InvariantForm(
            iwasawa, 2, 1,
            {((1, 2), (1,)): -Poly.variable(IW_PARAMS, "t21"),
             ((1, 2), (2,)): -Poly.variable(IW_PARAMS, "t22")},
        )
        assert str(f) == "-t21*f1^f2^c1-t22*f1^f2^c2"
        assert str(InvariantForm(iwasawa, 1, 1, {((1,), (1,)): GR(1, 1)})) == "(1+i)*f1^c1"
        assert str(InvariantForm.scalar(iwasawa, GR(-2))) == "-2"
        assert str(InvariantForm(iwasawa, 1, 0, {})) == "0"


class TestValidateSpec:
    def test_iwasawa_valid(self, iwasawa):
        assert validate_spec(iwasawa) == []

    def test_torus_valid(self, torus3):
        assert validate_spec(torus3) == []

    def test_jacobi_violation_names_generator(self):
        # d f3 = f2^c1 with d f2 = f1^f2 makes d.d f3 nonzero
        spec = ComplexStructureSpec(
            3, A={2: {(1, 2): GR(1)}}, B={3: {(2, 1): GR(1)}}
        )
        diags = validate_spec(spec)
        assert any(d.severity == "error" and d.subject == "f3" for d in diags)

    def test_nilpotency_warning(self):
        spec = ComplexStructureSpec(2, A={1: {(1, 2): GR(1)}})
        diags = validate_spec(spec)
        assert any(d.severity == "warning" for d in diags)
        assert not any(d.severity == "error" for d in diags)


class TestDeformedCoframe:
    def test_zero_direction_returns_spec_unchanged(self, iwasawa):
        new, defect = deformed_coframe(iwasawa, VectorForm(iwasawa, 1, {}))
        assert new == iwasawa
        assert defect_is_zero(defect)

    def test_full_family_is_integrable_at_stratum_point(self, iwasawa):
        # psi at the degenerate sample point: t11 = 1, quadratic term vanishes
        psi = VectorForm(iwasawa, 1, {(1, (1,)): GR(1)})
        _, defect = deformed_coframe(iwasawa, psi)
        assert defect_is_zero(defect)

    def test_first_order_only_defect_off_stratum(self, iwasawa):
        psi = VectorForm(iwasawa, 1, {(1, (1,)): GR(1), (2, (2,)): GR(1)})
        _, defect = deformed_coframe(iwasawa, psi)
        assert defect[3][(1, 2)] == GR(-1)

    def test_quadratic_correction_restores_integrability(self, iwasawa):
        psi = VectorForm(
            iwasawa, 1,
            {(1, (1,)): GR(1), (2, (2,)): GR(1), (3, (3,)): GR(-1)},
        )
        dspec, defect = deformed_coframe(iwasawa, psi)
        assert defect_is_zero(defect)
        assert validate_spec(dspec) == []

    @pytest.mark.parametrize("case", ["iwasawa", "two_step5"] + [f"random{k}" for k in range(8)])
    def test_matches_oracle(self, case, iwasawa, iw_psi1):
        rng = random.Random(case)
        if case == "iwasawa":
            spec = iwasawa
        elif case == "two_step5":
            spec = ComplexStructureSpec(5, A={5: {(1, 2): GR(-1)}, 4: {(1, 3): GR(-1)}})
        else:
            spec = random_spec(rng, rng.randint(2, 5))
        n = spec.n
        params = ("s", "u")
        keys = [(i, (lam,)) for i in range(1, n + 1) for lam in range(1, n + 1)]
        constant = {key: random_gr(rng, zero_ok=False) for key in keys if rng.random() < 0.4}
        poly = {key: Poly(params, {(rng.randint(0, 2), rng.randint(0, 1)): random_gr(rng)
                                   for _ in range(2)})
                for key in keys if rng.random() < 0.4}
        psis = [VectorForm(spec, 1, constant), VectorForm(spec, 1, poly)]
        if case == "iwasawa":
            psis.append(iw_psi1)
        for psi in psis:
            dspec, defect = deformed_coframe(spec, psi)
            want = oracles.naive_deformed_coframe(spec, psi)
            got = {"A": dspec.A, "B": dspec.B, "Abar": dspec.Abar, "Bbar": dspec.Bbar,
                   "defect": defect}
            for name, table in want.items():
                assert {k: dict(row) for k, row in got[name].items()} == table, name

    def test_symbolic_family_structure_constants(self, iwasawa, iw_psi1):
        det = (
            Poly.variable(IW_PARAMS, "t11") * Poly.variable(IW_PARAMS, "t22")
            - Poly.variable(IW_PARAMS, "t21") * Poly.variable(IW_PARAMS, "t12")
        )
        psi = iw_psi1 + VectorForm(iwasawa, 1, {(3, (3,)): -det})
        dspec, defect = deformed_coframe(iwasawa, psi)
        assert defect_is_zero(defect)
        assert dspec.B[3][(1, 1)] == Poly.variable(IW_PARAMS, "t21")
        assert dspec.B[3][(2, 2)] == -Poly.variable(IW_PARAMS, "t12")
        assert dspec.A[3] == {(1, 2): Poly.constant(IW_PARAMS, -1)}
