import itertools
import json
import random
import re
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgejump import linalg
from hodgejump.coeff import GR, CoefficientError, GaussianRational, Jet, Poly, accumulate
from hodgejump.deform import (
    Dolbeault,
    dbar_vector,
    extend_class,
    frolicher_d1,
    hodge_table,
    jump_report,
    mc_extend,
    o1_value,
    obstruction_o1,
    oracle_hodge_at_point,
    threefold_row,
    parallelisable_witness,
    second_class_subspace,
    validate_first_order,
)
from hodgejump.errors import InternalInvariantError, ValidationFailure
from hodgejump.exterior import (
    ComplexStructureSpec,
    InvariantForm,
    VectorForm,
    deformed_coframe,
    differential,
    validate_spec,
)
from hodgejump.manifest import load_manifest

from . import oracles
from .conftest import (
    IW_PARAMS,
    ROW_I,
    ROW_II,
    ROW_III,
    SPEC_NAMES,
    point_of,
    random_form,
    random_gr,
    random_vector_form,
)


DATA = Path(__file__).parent / "data"


def pv(name):
    return Poly.variable(IW_PARAMS, name)


def iw_det():
    return pv("t11") * pv("t22") - pv("t21") * pv("t12")


@pytest.fixture(scope="module")
def mixed4_spec() -> ComplexStructureSpec:
    # d f3 = f1^c1, d f4 = -1/2 f1^f2: mixed tables with nonzero o1 maps
    return ComplexStructureSpec(4, A={4: {(1, 2): GR(-1) / 2}}, B={3: {(1, 1): GR(1)}})


def project_monomial(basis, spec, I, J):
    return basis.project_constant_form(InvariantForm.monomial(spec, I, J))


class TestHodgeTable:
    def test_iwasawa_baseline(self, iwasawa):
        assert threefold_row(hodge_table(iwasawa)) == ROW_I

    def test_iwasawa_01_representatives(self, iwasawa):
        basis = Dolbeault(iwasawa).basis(0, 1)
        assert basis.dim == 2
        got = {tuple(sorted(f.coeffs)) for f in
               (basis.rep_form(iwasawa, k) for k in range(2))}
        assert got == {(((), (1,)),), (((), (2,)),)}

    def test_torus_is_binomial(self, torus3):
        table = hodge_table(torus3)
        for p in range(4):
            for q in range(4):
                assert table[(p, q)] == comb(3, p) * comb(3, q)

    def test_iwasawa_h11(self, iwasawa):
        assert hodge_table(iwasawa)[(1, 1)] == 6

    def test_elliptic_curve(self):
        table = hodge_table(ComplexStructureSpec(1))
        assert table == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_sakane_formula_on_parallelisable_structures(self, n):
        # holomorphic structure equations only (d f3 = -f1^f2, d f4 = -f1^f3,
        # d f5 = f1^f4, f6 closed): on a complex-parallelisable nilmanifold
        # h^{p,q} = C(n,p) h^{0,q} (Y. Sakane, Osaka J. Math. 13 (1976))
        spec = ComplexStructureSpec(n, A={
            3: {(1, 2): GR(-1)}, 4: {(1, 3): GR(-1)}, 5: {(1, 4): GR(1)},
        })
        assert not [d for d in validate_spec(spec) if d.severity == "error"]
        table = hodge_table(spec)
        assert table[(1, 0)] == n and table[(0, 1)] == n - 3   # c3, c4, c5 are not closed
        for p in range(n + 1):
            for q in range(n + 1):
                assert table[(p, q)] == comb(n, p) * table[(0, q)], (p, q)

    @pytest.mark.parametrize("n", [7, 8])
    def test_two_step_n7_is_symmetric_with_zero_row_sums(self, n):
        # d f_n = -f1^f2, d f_(n-1) = -f1^f3: Serre-type symmetry of the
        # invariant table, and each row's Euler characteristic
        # sum_q C(n,p) C(n,q) (-1)^q vanishes; n = 8 is read from its manifest
        if n == 8:
            spec = load_manifest(str(DATA / "two_step_n8.json")).spec
            assert spec == ComplexStructureSpec(n, A={8: {(1, 2): GR(-1)}, 7: {(1, 3): GR(-1)}})
        else:
            spec = ComplexStructureSpec(n, A={n: {(1, 2): GR(-1)}, n - 1: {(1, 3): GR(-1)}})
        table = hodge_table(spec)
        assert table[(1, 0)] == n and table[(0, 1)] == n - 2
        for p in range(n + 1):
            assert sum((-1) ** q * table[(p, q)] for q in range(n + 1)) == 0, p
            for q in range(n + 1):
                assert table[(p, q)] == table[(n - p, n - q)], (p, q)

    def test_table_keeps_the_chain_check(self):
        # d f2 = f1^c1, d f3 = f2^c2 is no complex (d.d != 0): the table
        # refuses it as the cohomology basis would
        spec = ComplexStructureSpec(3, B={2: {(1, 1): GR(1)}, 3: {(2, 2): GR(1)}})
        assert [d for d in validate_spec(spec) if d.severity == "error"]
        with pytest.raises(linalg.LinalgError, match="d_out . d_in nonzero on column 2"):
            hodge_table(spec)


S = Poly.variable(("s",), "s")
QI = st.builds(GR, st.integers(-2, 2), st.integers(-2, 2))
# mostly Q(i), sometimes a polynomial a*s + b in one parameter
MIXED = st.one_of(QI, QI, st.builds(lambda a, b: S * a + b, QI, QI))


@st.composite
def structure_specs(draw):
    """Structure tables up to n = 5 with entries on any indices, so d.d = 0
    often fails.  The c-side is conjugated from the f-side, or drawn on its
    own, with values that may be polynomials."""
    n = draw(st.integers(1, 5))
    index = st.integers(1, n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))

    def tables(ordered, values):
        if ordered and not pairs:
            return {}
        keys = st.sampled_from(pairs) if ordered else st.tuples(index, index)
        return draw(st.dictionaries(index, st.dictionaries(keys, values, max_size=3), max_size=n))

    if draw(st.booleans()):
        return ComplexStructureSpec(n, tables(True, QI), tables(False, QI))
    return ComplexStructureSpec(n, tables(True, MIXED), tables(False, MIXED),
                                Abar=tables(True, MIXED), Bbar=tables(False, MIXED))


def _assert_same_dbar_matrices(spec):
    dol = Dolbeault(spec)
    for p in range(-1, spec.n + 2):
        for q in range(-1, spec.n + 2):
            got, want = dol.dbar_matrix(p, q), oracles.monomial_dbar_matrix(spec, p, q)
            assert (got.rows, got.cols) == (want.rows, want.cols), (p, q)
            assert got == want, (p, q)
            assert got.is_polynomial() == want.is_polynomial(), (p, q)


class TestDbarAssembly:
    """The Leibniz assembly of ``dbar_matrix`` against one ``_d_monomial``
    call per basis monomial, out-of-range bidegrees included."""

    @given(structure_specs())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_monomial_assembly(self, spec):
        _assert_same_dbar_matrices(spec)

    @pytest.mark.parametrize("spec_name", SPEC_NAMES + ["unordered_spec", "deformed_iwasawa",
                                                        "cancelling"])
    def test_fixed_specs_match_per_monomial_assembly(self, spec_name, request):
        if spec_name == "deformed_iwasawa":
            spec, _ = deformed_coframe(request.getfixturevalue("iwasawa"),
                                       request.getfixturevalue("iw_psi1"))
        elif spec_name == "cancelling":
            # at (3,2) -> (3,3) one entry sums a B term (f1 -> f1^c3) and two
            # Abar terms, +-s, -+s and +-1: the per-monomial order drops the
            # zero partial sum and keeps a Q(i) value, while summing the two
            # Abar terms first would leave a constant Poly
            spec = ComplexStructureSpec(3, B={1: {(1, 3): S}},
                                        Abar={1: {(1, 3): -S}, 2: {(2, 3): GR(1)}}, Bbar={})
            assert not Dolbeault(spec).dbar_matrix(3, 2).is_polynomial()
        else:
            spec = request.getfixturevalue(spec_name)
        _assert_same_dbar_matrices(spec)

    def test_jet_tables_are_still_refused(self, iwasawa, iw_psi1):
        # a Jet never reaches the trusted Q(i) constructor
        with pytest.raises(TypeError, match=r"^cannot coerce Jet into Q\(i\)$"):
            hodge_table(mc_extend(iwasawa, iw_psi1, 2).deformed)

    def test_polynomial_tables_give_polynomial_matrices(self, iwasawa, iw_psi1):
        spec, _ = deformed_coframe(iwasawa, iw_psi1)
        dol = Dolbeault(spec)
        for p, q in ((1, 0), (1, 1), (2, 1)):
            m = dol.dbar_matrix(p, q)
            assert m.is_polynomial() and not m.is_zero(), (p, q)
        m = dol.dbar_matrix(1, 0)
        prod = linalg.ExactMatrix(m.cols, m.rows, m.sparse_columns).matmul(m)
        assert prod.is_polynomial() and not prod.is_zero()


class TestBeyondParallelisable:
    def test_kodaira_surface_hodge_numbers(self, mixed_spec):
        # d f2 = f1^c1 is the primary Kodaira surface; its invariant Hodge
        # numbers are classical
        table = hodge_table(mixed_spec)
        assert table[(1, 0)] == 1
        assert table[(0, 1)] == 2
        assert table[(1, 1)] == 2
        assert table[(2, 0)] == 1
        assert table[(0, 2)] == 1
        assert table[(2, 1)] == 2
        assert table[(1, 2)] == 1
        assert table[(2, 2)] == 1

    def test_mixed_table_first_order_directions(self, mixed_spec):
        from hodgejump.deform import dbar_vector

        # theta1 (x) c2 is not closed: the mixed table contributes
        assert dbar_vector(mixed_spec, VectorForm.term(mixed_spec, 1, (2,)))
        assert not dbar_vector(mixed_spec, VectorForm.term(mixed_spec, 1, (1,)))
        assert not dbar_vector(mixed_spec, VectorForm.term(mixed_spec, 2, (1,)))

    @pytest.mark.parametrize("spec_name", ["iwasawa", "mixed_spec", "mixed_n5"])
    def test_dbar_vector_squares_to_zero(self, spec_name, request):
        from hodgejump.deform import dbar_vector
        from hodgejump.exterior import basis_monomials

        if spec_name == "mixed_n5":
            # d f3 = f1^c1, d f4 = f1^f3, d f5 = f1^c3 + f2^c2
            spec = ComplexStructureSpec(5, A={4: {(1, 3): GR(1)}},
                                        B={3: {(1, 1): GR(1)}, 5: {(1, 3): GR(1), (2, 2): GR(1)}})
        else:
            spec = request.getfixturevalue(spec_name)
        rng = random.Random(53 + spec.n)
        nonzero_once = 0
        for q in range(spec.n):
            keys = [(i, J) for i in range(1, spec.n + 1)
                    for _, J in basis_monomials(spec.n, 0, q)]
            for _ in range(20):
                psi = VectorForm(spec, q, {key: random_gr(rng) for key in keys
                                           if rng.random() < 0.5})
                once = dbar_vector(spec, psi)
                nonzero_once += bool(once)
                assert not dbar_vector(spec, once)
        assert nonzero_once  # the identity is not checked on zeros only

    def test_mixed_spec_family_and_oracle_run(self, mixed_spec):
        params = ("s",)
        psi = VectorForm(mixed_spec, 1, {(2, (1,)): Poly.variable(params, "s")})
        fam = mc_extend(mixed_spec, psi, 2)
        assert all(not c for c in fam.corrections.values())
        point = {"s": GR(1)}
        oracle = oracle_hodge_at_point(mixed_spec, fam, point)
        predicted = jump_report(mixed_spec, psi, point).predicted_table()
        assert predicted == oracle

    def test_dimension_four_jump_agrees_with_oracle(self):
        # heisenberg x line: d f4 = -f1^f2 in complex dimension 4
        spec = ComplexStructureSpec(4, A={4: {(1, 2): GR(-1)}})
        params = ("u",)
        psi = VectorForm(spec, 1, {(1, (1,)): Poly.variable(params, "u")})
        fam = mc_extend(spec, psi, 2)
        point = {"u": GR(1)}
        table = jump_report(spec, psi, point)
        oracle = oracle_hodge_at_point(spec, fam, point)
        assert table.rows[(1, 0)].h0 == 4
        assert table.rows[(1, 0)].predicted == 3
        assert table.predicted_table() == oracle

    def test_first_order_prediction_can_undercount_and_order_two_closes_it(self):
        # two-step structure in dimension 5: d f5 = -f1^f2, d f4 = -f1^f3.
        # Along theta1 (x) c1 the first-order map on H^{2,1} is zero, yet the
        # fiber drops by 6; extending order by order finds exactly two
        # classes obstructed at order 2, which together with the four
        # second-class elements accounts for the oracle value.
        from hodgejump.exterior import deformed_coframe, defect_is_zero

        spec = ComplexStructureSpec(5, A={5: {(1, 2): GR(-1)}, 4: {(1, 3): GR(-1)}})
        params = ("u",)
        psi = VectorForm(spec, 1, {(1, (1,)): Poly.variable(params, "u")})
        fam = mc_extend(spec, psi, 2)
        point = {"u": GR(1)}
        rep = obstruction_o1(spec, psi, 2, 1)
        rep_in = obstruction_o1(spec, psi, 2, 0)
        h0 = rep.source.dim
        first = rep.rank_at(point)
        second = rep_in.rank_at(point)
        assert (h0, first, second) == (30, 0, 4)  # predicted 26, first-order only
        dspec, defect = deformed_coframe(spec, fam.psi.eval_point(point))
        assert defect_is_zero(defect)
        fiber = Dolbeault(dspec).basis(2, 1).dim
        assert fiber == 24
        counts = {1: 0, 2: 0, "ext": 0}
        for k in range(h0):
            res = extend_class(fam, rep.source.rep_form(spec, k), 2)
            if res.status == "obstructed":
                counts[res.order] += 1
            else:
                counts["ext"] += 1
        assert counts == {1: 0, 2: 2, "ext": 28}
        assert h0 - counts[2] - second == fiber


class TestValidateFirstOrder:
    def test_symbolic_family_is_valid(self, iwasawa, iw_psi1):
        assert validate_first_order(iwasawa, iw_psi1) == []

    def test_torus_constant_directions_are_valid(self, torus3):
        rng = random.Random(5)
        psi = random_vector_form(torus3, rng, closed=False)
        assert not [d for d in validate_first_order(torus3, psi) if d.severity == "error"]

    def test_non_closed_direction_fails(self, iwasawa):
        psi = VectorForm.term(iwasawa, 1, (3,))
        diags = validate_first_order(iwasawa, psi)
        assert any(d.severity == "error" and d.subject == "theta1" for d in diags)

    def test_inhomogeneous_coefficients_fail(self, iwasawa):
        psi = VectorForm(iwasawa, 1, {(1, (1,)): pv("t11") * pv("t11")})
        assert any(d.severity == "error" for d in validate_first_order(iwasawa, psi))


class TestObstructionO1:
    def test_20_values(self, iwasawa, iw_psi1):
        rep = obstruction_o1(iwasawa, iw_psi1, 2, 0)
        src, tgt = rep.source, rep.target
        c12 = project_monomial(src, iwasawa, (1, 2), ())
        c23 = project_monomial(src, iwasawa, (2, 3), ())
        c13 = project_monomial(src, iwasawa, (1, 3), ())
        lift = lambda v: [Poly.constant(IW_PARAMS, x) for x in v]
        assert all(not x for x in rep.matrix.apply(lift(c12)))
        got23 = rep.matrix.apply(lift(c23))
        want23 = oracles.project_form(
            tgt,
            InvariantForm(iwasawa, 2, 1, {((1, 2), (1,)): -pv("t21"),
                                          ((1, 2), (2,)): -pv("t22")}),
            params=IW_PARAMS,
        )
        assert got23 == want23
        got13 = rep.matrix.apply(lift(c13))
        want13 = oracles.project_form(
            tgt,
            InvariantForm(iwasawa, 2, 1, {((1, 2), (1,)): -pv("t11"),
                                          ((1, 2), (2,)): -pv("t12")}),
            params=IW_PARAMS,
        )
        assert got13 == want13

    def test_determinant_combination(self, iwasawa, iw_psi1):
        rep = obstruction_o1(iwasawa, iw_psi1, 2, 0)
        src = rep.source
        c23 = project_monomial(src, iwasawa, (2, 3), ())
        c13 = project_monomial(src, iwasawa, (1, 3), ())
        coords = [pv("t11") * Poly.constant(IW_PARAMS, a)
                  - pv("t21") * Poly.constant(IW_PARAMS, b)
                  for a, b in zip(c23, c13)]
        image = rep.matrix.apply(coords)
        det = iw_det()
        for entry in image:
            if entry:
                quotient = linalg._poly_exact_div(entry, det)
                assert quotient.degree() <= 0

    def test_30_is_zero(self, iwasawa, iw_psi1):
        rep = obstruction_o1(iwasawa, iw_psi1, 3, 0)
        assert rep.matrix.is_zero()

    def test_well_defined_on_cohomology(self, iwasawa, torus3, iw_psi1):
        rng = random.Random(17)
        for _ in range(40):
            spec = iwasawa if rng.random() < 0.5 else torus3
            psi1 = iw_psi1 if spec is iwasawa else random_vector_form(torus3, rng, closed=False)
            p = rng.randint(1, 3)
            q = rng.randint(1, 3)
            beta = random_form(spec, p, q - 1, rng)
            alpha = differential(spec, beta)[1]
            if not alpha:
                continue
            v = o1_value(spec, psi1, alpha)
            tgt = Dolbeault.of(spec).basis(p, q + 1)
            params = IW_PARAMS if spec is iwasawa else None
            coords = oracles.project_form(tgt, v, params=params)
            assert all(not x for x in coords)


    @pytest.mark.parametrize("spec_name", SPEC_NAMES + ["unordered_spec", "mixed4_spec"])
    def test_columns_match_oracle(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        n = spec.n
        rng = random.Random(43 + len(spec_name))
        closed = [(i, (lam,)) for i in range(1, n + 1) for lam in range(1, n + 1)
                  if not dbar_vector(spec, VectorForm.term(spec, i, (lam,)))]

        def linear():
            # two monomials, so each entry gathers several constant pieces
            return Poly(("s", "u"), {(1, 0): random_gr(rng, zero_ok=False), (0, 1): random_gr(rng)})

        psis = [random_vector_form(spec, rng), random_vector_form(spec, rng),
                VectorForm(spec, 1, {key: linear() for key in closed}),
                VectorForm(spec, 1, {key: Jet(linear(), 2) for key in closed})]
        dol = Dolbeault.of(spec)
        nonzero = 0
        for p in range(n + 1):
            for q in range(n + 1):
                try:
                    src, tgt = dol.basis(p, q), dol.basis(p, q + 1)
                except linalg.LinalgError:
                    continue  # unordered_spec has d.d != 0 and no cohomology here
                for psi in psis:
                    values = [oracles.naive_o1(spec, psi, src.rep_form(spec, k))
                              for k in range(src.dim)]
                    if any(oracles.holomorphic_degree(key) == p
                           for v in values if v
                           for key in oracles.naive_d(spec, oracles.raw_form(spec, p, q + 1, v))):
                        with pytest.raises(InternalInvariantError):
                            obstruction_o1(spec, psi, p, q)
                        continue
                    m = obstruction_o1(spec, psi, p, q).matrix
                    for k, v in enumerate(values):
                        want = oracles.project_form(
                            tgt, oracles.raw_form(spec, p, min(q + 1, n), v), params=psi.params())
                        assert m.column(k) == want
                        nonzero += bool(any(want))
        # del vanishes on the torus, and o1 on the cohomology of the two
        # small mixed structures
        assert bool(nonzero) == (spec_name in ("iwasawa", "mixed4_spec"))


class TestMaurerCartan:
    def test_iwasawa_order_two(self, iwasawa, iw_psi1):
        fam = mc_extend(iwasawa, iw_psi1, 2)
        assert fam.corrections[2] == VectorForm(iwasawa, 1, {(3, (3,)): -iw_det()})

    def test_iwasawa_order_three_correction_vanishes(self, iwasawa, iw_psi1):
        fam = mc_extend(iwasawa, iw_psi1, 3)
        assert not fam.corrections[3]

    def test_torus_all_corrections_vanish(self, torus3):
        psi = VectorForm(
            torus3, 1,
            {(i, (lam,)): pv(f"t{i}{lam}") for i in (1, 2, 3) for lam in (1, 2)},
        )
        fam = mc_extend(torus3, psi, 4)
        assert all(not c for c in fam.corrections.values())

    def test_family_defect_vanishes_exactly(self, iwasawa, iw_psi1):
        from hodgejump.exterior import deformed_coframe, defect_is_zero

        fam = mc_extend(iwasawa, iw_psi1, 3)
        _, defect = deformed_coframe(iwasawa, fam.psi)
        assert defect_is_zero(defect)

    def test_invalid_first_order_rejected(self, iwasawa):
        psi = VectorForm(iwasawa, 1, {(1, (3,)): pv("t11")})
        with pytest.raises(ValidationFailure):
            mc_extend(iwasawa, psi, 2)

    @pytest.mark.parametrize("key", [(1, (2,)), (2, (2,))])
    def test_constant_direction_rejected(self, iwasawa, key):
        # a Q(i) constant is not a first-order term, whether or not the
        # family would be integrable: (1, (2,)) keeps the defect zero,
        # (2, (2,)) does not
        psi = VectorForm(iwasawa, 1, {(1, (1,)): GR(1), key: pv("t11")})
        with pytest.raises(ValidationFailure, match="base point"):
            mc_extend(iwasawa, psi, 1)

    def test_deformed_coframe_built_once_per_order(self, iwasawa, iw_psi1, monkeypatch):
        from hodgejump import deform
        from hodgejump.exterior import deformed_coframe

        calls = []
        monkeypatch.setattr(deform, "deformed_coframe",
                            lambda *a: calls.append(a) or deformed_coframe(*a))
        fam = mc_extend(iwasawa, iw_psi1, 3)
        # one defect per order 2..3, then the family's own
        assert len(calls) == 3
        assert fam.deformed == deformed_coframe(iwasawa, fam.psi)[0]

    def test_failed_family_check_is_an_internal_breach(self, iwasawa, iw_psi1, monkeypatch):
        from hodgejump import deform

        monkeypatch.setattr(deform, "defect_is_zero", lambda defect: False)
        with pytest.raises(InternalInvariantError, match="left a nonzero defect"):
            mc_extend(iwasawa, iw_psi1, 2)

    def test_kodaira_spencer_pieces(self, iwasawa, iw_psi1):
        fam = mc_extend(iwasawa, iw_psi1, 2)
        ks1 = fam.kodaira_spencer(1)
        assert ks1.n == 1 and ks1.value == iw_psi1
        ks2 = fam.kodaira_spencer(2)
        assert ks2.value == fam.corrections[2]


class TestMcObstruction:
    """Heisenberg x C (d f4 = -f1^f2) with every closed first-order direction:
    order 2 is obstructed."""

    DOC = {
        "kind": "lie-algebra",
        "dimension": 4,
        "structure": [{"k": 4, "monomial": "f1^f2", "coefficient": "-1"}],
        "deformation": "symbolic",
    }

    def test_residual_at_order_two(self):
        from hodgejump.deform import McObstruction
        from hodgejump.manifest import parse_manifest

        man = parse_manifest(json.dumps(self.DOC))
        with pytest.raises(McObstruction) as info:
            mc_extend(man.spec, man.psi1, 2)
        assert info.value.order == 2
        # the t13*t22 term of -psi^1 ^ psi^2 with psi^i = sum t_il c_l has
        # no delbar-exact counterpart
        residual = {gen: str(form) for gen, form in info.value.residual.items() if form}
        assert residual == {4: "t13*t22*c2^c3"}

    @pytest.mark.parametrize("argv", [["mc"], ["jump", "--point", "t13=1"]])
    def test_cli_reports_obstruction(self, argv, tmp_path, capsys):
        from hodgejump.cli import main

        path = tmp_path / "heisenberg_c.json"
        path.write_text(json.dumps(self.DOC))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "obstructed: Maurer-Cartan obstruction at order 2\n"


class TestExtendClass:
    def test_f1f2_extends(self, iwasawa, iw_psi1):
        fam = mc_extend(iwasawa, iw_psi1, 2)
        res = extend_class(fam, InvariantForm.monomial(iwasawa, (1, 2), ()), 2)
        assert res.status == "extended" and res.order == 2

    def test_all_11_classes_extend_to_order_two(self, iwasawa, iw_psi1):
        # h^{1,1} drops only through a second-class element, so every class
        # still extends; the corrections genuinely mix parameter monomials
        fam = mc_extend(iwasawa, iw_psi1, 2)
        basis = Dolbeault(iwasawa).basis(1, 1)
        for k in range(basis.dim):
            res = extend_class(fam, basis.rep_form(iwasawa, k), 2)
            assert res.status == "extended" and res.order == 2

    def test_f1f3_obstructed_along_t11(self, iwasawa):
        psi = VectorForm(iwasawa, 1, {(1, (1,)): Poly.variable(("t11",), "t11")})
        fam = mc_extend(iwasawa, psi, 2)
        res = extend_class(fam, InvariantForm.monomial(iwasawa, (1, 3), ()), 2)
        assert res.status == "obstructed" and res.order == 1
        t11 = Poly.variable(("t11",), "t11")
        assert res.obstruction_form == InvariantForm(
            iwasawa, 2, 1, {((1, 2), (1,)): -t11}
        )

    def test_torus_everything_extends(self, torus3):
        psi = VectorForm(
            torus3, 1,
            {(i, (lam,)): pv(f"t{i}{lam}") for i in (1, 2, 3) for lam in (1, 2)},
        )
        fam = mc_extend(torus3, psi, 3)
        rng = random.Random(23)
        for _ in range(10):
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            alpha = random_form(torus3, p, q, rng)
            res = extend_class(fam, alpha, 3)
            assert res.status == "extended"

    def test_first_obstruction_equals_o1_matrix_everywhere(self, iwasawa, iw_psi1):
        fam = mc_extend(iwasawa, iw_psi1, 2)
        for p in range(4):
            for q in range(4):
                rep = obstruction_o1(iwasawa, iw_psi1, p, q)
                for k in range(rep.source.dim):
                    alpha = rep.source.rep_form(iwasawa, k)
                    column = [rep.matrix.entries[i][k] for i in range(rep.target.dim)]
                    res = extend_class(fam, alpha, 1)
                    if all(not x for x in column):
                        assert res.status == "extended", (p, q, k)
                    else:
                        assert res.status == "obstructed" and res.order == 1
                        assert res.obstruction_coords == column, (p, q, k)


TWO_STEP5 = ComplexStructureSpec(5, A={5: {(1, 2): GR(-1)}, 4: {(1, 3): GR(-1)}})


class TestExtendClassAgainstDenseOracle:
    """The sparse ``extend_class`` gives the same result, field by field,
    as the dense form-level extension in tests/oracles.py."""

    @pytest.mark.parametrize("max_order", [1, 2])
    def test_every_iwasawa_class(self, iwasawa, iw_psi1, max_order):
        fam = mc_extend(iwasawa, iw_psi1, 2)
        dol = Dolbeault.of(iwasawa)
        seen = set()
        for p in range(4):
            for q in range(4):
                basis = dol.basis(p, q)
                for k in range(basis.dim):
                    alpha = basis.rep_form(iwasawa, k)
                    got = extend_class(fam, alpha, max_order)
                    assert got == oracles.dense_extend_class(fam, alpha, max_order), (p, q, k)
                    seen.add((got.status, got.order))
        assert seen == {("obstructed", 1), ("extended", max_order)}

    def test_every_two_step5_21_class(self):
        # the undercount example: two classes are obstructed only at order 2
        psi = VectorForm(TWO_STEP5, 1, {(1, (1,)): Poly.variable(("u",), "u")})
        fam = mc_extend(TWO_STEP5, psi, 2)
        basis = Dolbeault.of(TWO_STEP5).basis(2, 1)
        assert basis.dim == 30
        seen = []
        for k in range(basis.dim):
            alpha = basis.rep_form(TWO_STEP5, k)
            got = extend_class(fam, alpha, 2)
            assert got == oracles.dense_extend_class(fam, alpha, 2), k
            seen.append((got.status, got.order))
        assert sorted(set(seen)) == [("extended", 2), ("obstructed", 2)]
        assert seen.count(("obstructed", 2)) == 2


class TestSparseProjection:
    """The trusted sparse projection agrees with the checked dense one."""

    @pytest.mark.parametrize("name", ["iwasawa", "two_step5"])
    def test_sparse_projection_equals_dense_projection(self, name, iwasawa):
        spec = iwasawa if name == "iwasawa" else TWO_STEP5
        dol = Dolbeault.of(spec)
        rng = random.Random(name)
        rejected = 0
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                basis = dol.basis(p, q)
                cob = basis.cob
                width = len(basis.monomials)
                image = dol.dbar_matrix(p, q - 1).sparse_columns if q else ()
                for _ in range(4):
                    v: dict = {}
                    for vec in cob.sparse_representatives + tuple(image):
                        c = random_gr(rng)
                        for j, x in vec.items():
                            accumulate(v, j, c * x)
                    dense = [v.get(j, GR(0)) for j in range(width)]
                    want = cob.project(dense)
                    assert cob.project_sparse(v) == {k: x for k, x in enumerate(want) if x}
                    form = InvariantForm(spec, p, q, dict(zip(basis.monomials, dense)))
                    assert basis.project_constant_form(form) == want
                # a vector with nonzero delbar is rejected by every path
                d_out = dol.dbar_matrix(p, q)
                for j in range(min(width, 6)):
                    if not any(d_out.column(j)):
                        continue
                    rejected += 1
                    unit = [GR(int(i == j)) for i in range(width)]
                    with pytest.raises(linalg.LinalgError, match="non-closed"):
                        cob.project(unit)
                    with pytest.raises(linalg.LinalgError, match="non-closed"):
                        basis.project_constant_form(
                            InvariantForm.monomial(spec, *basis.monomials[j]))
                    with pytest.raises(linalg.LinalgError, match="outside kernel"):
                        cob.project_sparse({j: GR(1)})
        assert rejected

    def test_projection_checks_length_and_bidegree(self, iwasawa):
        basis = Dolbeault.of(iwasawa).basis(1, 1)
        with pytest.raises(linalg.LinalgError, match="length mismatch"):
            basis.cob.project([GR(0)] * 3)
        width = len(basis.monomials)
        for index in (-1, width, width + basis.dim):  # a tag column is no vector index
            with pytest.raises(linalg.LinalgError, match="index out of range"):
                basis.cob.project_sparse({index: GR(1)})
        with pytest.raises(linalg.LinalgError, match=r"\(1,0\)-form onto H\^1,1"):
            basis.project_constant_form(InvariantForm.generator(iwasawa, "f", 1))
        with pytest.raises(TypeError, match="cannot coerce Poly"):
            basis.project_constant_form(InvariantForm.monomial(iwasawa, (1,), (1,), pv("t11")))

    def test_outside_kernel_plus_image_raises_through_project(self):
        # a hand-built basis whose coordinate echelon spans less than
        # Ker(d_out): a closed vector outside it is still rejected
        cob = linalg.cohomology(linalg.ExactMatrix.zeros(2, 0), linalg.ExactMatrix.zeros(0, 2))
        lopsided = linalg.CohomologyBasis(dim=1, sparse_representatives=cob.sparse_representatives[:1],
                                          d_out=cob.d_out, coords=linalg.Echelon(3, [{0: GR(1), 2: GR(1)}]))
        with pytest.raises(linalg.LinalgError, match="outside kernel"):
            lopsided.project([GR(0), GR(1)])
        assert lopsided.project([GR(2), GR(0)]) == [GR(2)]

    @pytest.mark.parametrize("name", ["iwasawa", "two_step5"])
    def test_rep_form_matches_the_validating_constructor(self, name, iwasawa):
        spec = iwasawa if name == "iwasawa" else TWO_STEP5
        dol = Dolbeault.of(spec)
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                basis = dol.basis(p, q)
                for k, rep in enumerate(basis.cob.representatives):
                    want = InvariantForm(spec, p, q, dict(zip(basis.monomials, rep)))
                    got = basis.rep_form(spec, k)
                    assert got == want and str(got) == str(want)
                    assert list(got.coeffs) == list(want.coeffs)

    def test_all_zero_parametric_o1_stays_polynomial(self, iwasawa, iw_psi1):
        m = obstruction_o1(iwasawa, iw_psi1, 0, 0).matrix
        assert (m.rows, m.cols) == (2, 1)
        assert m.is_zero() and m.is_polynomial()
        assert m.entries == ((Poly(IW_PARAMS),), (Poly(IW_PARAMS),))
        assert str(m) == "[[0], [0]]"
        # a constant psi gives Q(i) zeros
        q = obstruction_o1(iwasawa, iw_psi1.eval_point(point_of()), 0, 0).matrix
        assert q.is_zero() and not q.is_polynomial() and q.entries == ((GR(0),), (GR(0),))


class TestSecondClassAndJump:
    def test_second_class_11_is_o1_of_f3(self, iwasawa, iw_psi1, point_ii):
        sc = second_class_subspace(iwasawa, iw_psi1, 1, 1, point=point_ii)
        assert sc.generic_dim == 1
        assert sc.point_dim == 1
        value = o1_value(iwasawa, iw_psi1, InvariantForm.generator(iwasawa, "f", 3))
        coords = oracles.project_form(Dolbeault(iwasawa).basis(1, 1), value, params=IW_PARAMS)
        m = linalg.ExactMatrix.from_columns(
            len(coords), [sc.generic_image[0], coords]
        )
        assert linalg.generic_rank(m) == 1

    def test_second_class_21_at_class_iii_point(self, iwasawa, iw_psi1, point_iii):
        sc = second_class_subspace(iwasawa, iw_psi1, 2, 1, point=point_iii)
        assert sc.point_dim == 2
        # independent route: specialized rank of the o1 matrix from (2,0)
        assert sc.point_dim == linalg.specialized_rank(sc.o1.matrix, point_iii)

    def test_torus_second_class_trivial(self, torus3):
        psi = VectorForm(
            torus3, 1,
            {(i, (lam,)): pv(f"t{i}{lam}") for i in (1, 2, 3) for lam in (1, 2)},
        )
        for p in range(4):
            for q in range(1, 4):
                assert second_class_subspace(torus3, psi, p, q).generic_dim == 0

    def test_jump_rows(self, iwasawa, iw_psi1, point_ii, point_iii):
        assert jump_report(iwasawa, iw_psi1, point_ii).threefold_row() == ROW_II
        assert jump_report(iwasawa, iw_psi1, point_iii).threefold_row() == ROW_III
        assert jump_report(iwasawa, iw_psi1, point_of()).threefold_row() == ROW_I

    def test_jump_ranks_are_symbolic_ranks_at_the_point(self, iwasawa, iw_psi1):
        # jump_report evaluates psi first; the symbolic maps evaluate after
        reports = {(p, q): obstruction_o1(iwasawa, iw_psi1, p, q)
                   for p in range(4) for q in range(4)}
        rng = random.Random(71)
        values = ["0", "1", "-1", "2/3*i", "1/2", "i", "-2+i"]
        points = [{t: GaussianRational.parse(v) for t in IW_PARAMS} for v in ("0", "2/3*i")]
        points += [{t: GaussianRational.parse(rng.choice(values)) for t in IW_PARAMS}
                   for _ in range(28)]
        for point in points:
            table = jump_report(iwasawa, iw_psi1, point)
            for (p, q), row in table.rows.items():
                assert row.first == reports[(p, q)].rank_at(point)
                assert row.second == (reports[(p, q - 1)].rank_at(point) if q else 0)

    def test_point_missing_a_parameter_is_rejected(self, iwasawa, iw_psi1):
        point = {"t11": GR(1), "t22": GR(0, 1)}
        with pytest.raises(CoefficientError) as symbolic:
            obstruction_o1(iwasawa, iw_psi1, 1, 0).rank_at(point)
        with pytest.raises(CoefficientError, match=re.escape(str(symbolic.value))):
            jump_report(iwasawa, iw_psi1, point)

    def test_jump_accounting_at_11(self, iwasawa, iw_psi1, point_ii):
        table = jump_report(iwasawa, iw_psi1, point_ii)
        row = table.rows[(1, 1)]
        assert (row.h0, row.first, row.second, row.predicted) == (6, 0, 1, 5)


class TestOracle:
    def test_rows_at_sample_points(self, iwasawa, iw_psi1, point_ii, point_iii):
        fam = mc_extend(iwasawa, iw_psi1, 2)
        assert threefold_row(oracle_hodge_at_point(iwasawa, fam, point_ii)) == ROW_II
        assert threefold_row(oracle_hodge_at_point(iwasawa, fam, point_iii)) == ROW_III

    def test_baseline_at_zero(self, iwasawa, iw_psi1, point_of_zero=None):
        fam = mc_extend(iwasawa, iw_psi1, 2)
        assert threefold_row(oracle_hodge_at_point(iwasawa, fam, point_of())) == ROW_I

    def test_agreement_with_prediction_everywhere(self, iwasawa, iw_psi1, point_ii, point_iii):
        fam = mc_extend(iwasawa, iw_psi1, 2)
        for pt in (point_ii, point_iii):
            predicted = jump_report(iwasawa, iw_psi1, pt).predicted_table()
            oracle = oracle_hodge_at_point(iwasawa, fam, pt)
            assert predicted == oracle

    def test_truncation_insufficient_is_detected(self, iwasawa, iw_psi1, point_iii):
        # order-1 family misses the quadratic term needed off the stratum
        from hodgejump.coeff import Jet
        from hodgejump.deform import DeformationFamily

        psi_jets = VectorForm(
            iwasawa, 1,
            {key: Jet(c, 1) for key, c in iw_psi1.coeffs.items()},
        )
        fam1 = DeformationFamily(spec=iwasawa, psi=psi_jets, order=1)
        with pytest.raises(ValidationFailure):
            oracle_hodge_at_point(iwasawa, fam1, point_iii)


class TestFrolicherD1:
    def test_iwasawa_10_nonzero(self, iwasawa):
        m = frolicher_d1(iwasawa, 1, 0)
        assert not m.is_zero()
        # d1[f3] = [-f1^f2], a nonzero class in H^{2,0}
        dol = Dolbeault(iwasawa)
        src = dol.basis(1, 0)
        coords = src.project_constant_form(InvariantForm.generator(iwasawa, "f", 3))
        image = m.apply(coords)
        assert any(image)

    def test_iwasawa_01_zero(self, iwasawa):
        assert frolicher_d1(iwasawa, 0, 1).is_zero()

    def test_torus_identically_zero(self, torus3):
        for p in range(4):
            for q in range(4):
                assert frolicher_d1(torus3, p, q).is_zero()


class TestWitness:
    def test_iwasawa_witness(self, iwasawa):
        w = parallelisable_witness(iwasawa)
        assert w is not None
        assert (w.i, w.k, w.j) == (3, 1, 1)
        assert w.value == InvariantForm(iwasawa, 1, 1, {((2,), (1,)): GR(-1)})
        assert any(w.coords)

    def test_torus_has_none(self, torus3):
        assert parallelisable_witness(torus3) is None

    def test_non_parallelisable_rejected(self, mixed_spec):
        with pytest.raises(ValidationFailure):
            parallelisable_witness(mixed_spec)

    def test_every_parallelisable_with_nonzero_del_has_witness(self):
        # n = 4 variant: d f4 = f1^f2 + f1^f3
        spec = ComplexStructureSpec(4, A={4: {(1, 2): GR(1), (1, 3): GR(1)}})
        w = parallelisable_witness(spec)
        assert w is not None and any(w.coords)
