import random
import re
from math import comb

import pytest

from hodgejump import linalg
from hodgejump.coeff import GR, CoefficientError, GaussianRational, Jet, Poly
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
    differential,
    validate_spec,
)

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

    @pytest.mark.parametrize("n", [5, 6])
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

    def test_kodaira_spencer_pieces(self, iwasawa, iw_psi1):
        fam = mc_extend(iwasawa, iw_psi1, 2)
        ks1 = fam.kodaira_spencer(1)
        assert ks1.n == 1 and ks1.value == iw_psi1
        ks2 = fam.kodaira_spencer(2)
        assert ks2.value == fam.corrections[2]


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
