import random

import pytest

from hodgejump.coeff import GR, Poly
from hodgejump.exterior import (
    ComplexStructureSpec,
    InvariantForm,
    SpecError,
    VectorForm,
    basis_monomials,
    contract,
    deformed_coframe,
    defect_is_zero,
    differential,
    validate_spec,
    wedge,
)

from .conftest import IW_PARAMS, random_form, random_gr, random_mixed_coeff, random_mixed_form
from . import oracles

SPEC_NAMES = ["iwasawa", "torus3", "mixed_spec"]


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

    @pytest.mark.parametrize("spec_name", SPEC_NAMES)
    def test_matches_oracle(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        rng = random.Random(29 + len(spec_name))
        for _ in range(30):
            p, q = rng.randint(0, spec.n), rng.randint(0, spec.n)
            for a in (random_form(spec, p, q, rng), random_mixed_form(spec, p, q, rng)):
                d, db = differential(spec, a)
                got = oracles.raw_add(oracles.form_to_raw(d), oracles.form_to_raw(db))
                assert got == oracles.naive_d(spec, a)

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

    def test_bilinear_and_repeated_direction_vanishes(self, iwasawa):
        rng = random.Random(41)
        for _ in range(20):
            a = random_form(iwasawa, 2, 1, rng)
            psi = VectorForm.term(iwasawa, rng.randint(1, 3), (rng.randint(1, 3),))
            twice = contract(psi, contract(psi, a))
            assert not twice
            b = random_form(iwasawa, 2, 1, rng)
            assert contract(psi, a + b) == contract(psi, a) + contract(psi, b)


class TestRendering:
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
