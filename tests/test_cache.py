"""Specs, matrices, forms and cached bases are immutable, and each spec owns
one cached cohomology."""

import pytest

from hodgejump import linalg
from hodgejump.coeff import GaussianRational as GR
from hodgejump.coeff import Poly
from hodgejump.deform import Dolbeault, extend_class, mc_extend, obstruction_o1
from hodgejump.exterior import ComplexStructureSpec, InvariantForm, VectorForm
from hodgejump.manifest import load_manifest, parse_manifest


class TestImmutability:
    def test_spec_attributes_cannot_be_rebound(self, iwasawa):
        with pytest.raises(AttributeError):
            iwasawa.n = 4
        with pytest.raises(AttributeError):
            iwasawa.A = {}

    def test_spec_tables_are_read_only(self, iwasawa):
        with pytest.raises(TypeError):
            iwasawa.A[3] = {}
        with pytest.raises(TypeError):
            iwasawa.A[3][(1, 2)] = GR(5)
        with pytest.raises(TypeError):
            iwasawa.Bbar[1][(1, 1)] = GR(1)
        assert iwasawa.A[3] == {(1, 2): GR(-1)}

    def test_matrix_cannot_be_changed(self):
        m = linalg.ExactMatrix(2, 2, [[1, 0], [0, 1]])
        with pytest.raises(AttributeError):
            m.rows = 3
        with pytest.raises(TypeError):
            m.entries[0][0] = GR(7)
        with pytest.raises(TypeError):
            m.entries[0] = (GR(7), GR(7))
        assert m == linalg.ExactMatrix.identity(2)

    @pytest.mark.parametrize("kind", ["invariant", "vector"])
    def test_form_cannot_be_changed(self, iwasawa, kind):
        if kind == "invariant":
            form = InvariantForm.monomial(iwasawa, (1,), (2,), GR(3))
            attrs, key = ("spec", "p", "q", "coeffs"), ((1,), (2,))
        else:
            form = VectorForm.term(iwasawa, 1, (2,), GR(3))
            attrs, key = ("spec", "q", "coeffs"), (1, (2,))
        before = str(form)
        for name in attrs:
            with pytest.raises(AttributeError):
                setattr(form, name, 5)
        with pytest.raises(TypeError):
            form.coeffs[key] = GR(7)
        assert str(form) == before

    def test_cached_basis_cannot_be_changed(self):
        spec = ComplexStructureSpec(3, A={3: {(1, 2): GR(-1)}})  # Iwasawa, unshared
        basis = Dolbeault.of(spec).basis(1, 1)
        assert str(basis.rep_form(spec, 0)) == "f1^c1"
        with pytest.raises(AttributeError):
            basis.monomials.reverse()
        with pytest.raises(AttributeError):
            basis.monomials = ()
        with pytest.raises(AttributeError):
            basis.cob.representatives = ()
        with pytest.raises(TypeError):
            basis.cob.representatives[0][0] = GR(0)
        assert Dolbeault.of(spec).basis(1, 1) is basis
        assert str(basis.rep_form(spec, 0)) == "f1^c1"

    def test_equal_specs_hash_equal(self):
        text = load_manifest("iwasawa").to_json()
        a, b = parse_manifest(text).spec, parse_manifest(text).spec
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert b in {a}

    def test_hash_agrees_with_cross_type_equality(self):
        # a constant Poly coefficient equals the same Q(i) constant
        const = ComplexStructureSpec(3, A={3: {(1, 2): Poly.constant(("t",), -1)}},
                                     Abar={3: {(1, 2): Poly.constant(("t",), -1)}}, Bbar={})
        plain = ComplexStructureSpec(3, A={3: {(1, 2): GR(-1)}})
        assert const == plain
        assert hash(const) == hash(plain)

    def test_hash_reads_coefficients(self, iwasawa):
        other = ComplexStructureSpec(3, A={3: {(1, 2): GR(2)}})
        assert other != iwasawa
        assert hash(other) != hash(iwasawa)

    def test_one_dolbeault_per_spec(self, iwasawa):
        assert Dolbeault.of(iwasawa) is Dolbeault.of(iwasawa)
        twin = ComplexStructureSpec(3, A={3: {(1, 2): GR(-1)}})
        assert twin == iwasawa and Dolbeault.of(twin) is not Dolbeault.of(iwasawa)


def test_extend_class_builds_each_cohomology_once(monkeypatch):
    # the n = 5 two-step structure d f5 = -f1^f2, d f4 = -f1^f3 along u theta1 (x) c1
    spec = ComplexStructureSpec(5, A={5: {(1, 2): GR(-1)}, 4: {(1, 3): GR(-1)}})
    psi = VectorForm(spec, 1, {(1, (1,)): Poly.variable(("u",), "u")})
    fam = mc_extend(spec, psi, 2)
    built = []
    real = linalg.cohomology

    def counting(d_in, d_out, label=""):
        built.append(label)
        return real(d_in, d_out, label=label)

    monkeypatch.setattr(linalg, "cohomology", counting)
    rep = obstruction_o1(spec, psi, 2, 1)
    for k in (0, 7, 29):
        extend_class(fam, rep.source.rep_form(spec, k), 2)
    assert built.count("H^2,2") == 1
    assert sorted(set(built)) == sorted(built)
