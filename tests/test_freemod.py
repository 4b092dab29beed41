import random
from collections import Counter
from pathlib import Path

import pytest

from hodgejump import linalg
from hodgejump.coeff import GR, Jet, Poly
from hodgejump.errors import InternalInvariantError, ValidationFailure
from hodgejump.freemod import (
    FreeComplex,
    JetCochain,
    LabObstruction,
    classify_first_class,
    classify_second_class,
    cohomology_at_zero,
    default_order_bound,
    extend_step,
    h_dims,
    jump_accounting,
    o_n_q,
    reduce_to_primitive,
    validate_complex,
)
from hodgejump.manifest import load_manifest

from .conftest import random_gr, random_lab_complex
from .oracles import dense_jet_matrix, rank_qi

T = ("t",)


def poly(text):
    return Poly.parse(T, text)


def mk(ranks, rows_list):
    diffs = []
    for q, rows in enumerate(rows_list):
        entries = [[poly(x) if isinstance(x, str) else x for x in row] for row in rows]
        diffs.append(linalg.ExactMatrix(ranks[q + 1], ranks[q], entries))
    return FreeComplex(param="t", ranks=tuple(ranks), diffs=tuple(diffs))


C_T = mk([1, 1], [[["t"]]])
C_T2 = mk([1, 1], [[["t^2"]]])
C_UNIT = mk([1, 1], [[["1"]]])
C_ZERO2 = mk([2, 2], [[["0", "0"], ["0", "0"]]])


class TestValidate:
    def test_two_term_ok(self):
        assert validate_complex(C_T) == []

    def test_nonzero_composition_flagged(self):
        bad = mk([1, 1, 1], [[["t"]], [["1"]]])
        assert validate_complex(bad)
        # d^1 . d^0 = [[0, 0], [0, t]]: the first nonzero entry is named
        late = mk([2, 1, 2], [[["0", "t"]], [["0"], ["1"]]])
        assert validate_complex(late) == ["d^1 . d^0 has nonzero entry at row 1, column 1"]

    def test_three_term_ok(self):
        ok = mk([1, 2, 1], [[["t"], ["0"]], [["0", "1"]]])
        assert validate_complex(ok) == []


class TestHDims:
    def test_multiplication_by_t(self):
        assert h_dims(C_T) == [(1, 0), (1, 0)]

    def test_zero_differentials(self):
        assert h_dims(C_ZERO2) == [(2, 2), (2, 2)]

    def test_multiplication_by_t_squared(self):
        assert h_dims(C_T2) == [(1, 0), (1, 0)]


class TestJetRows:
    @staticmethod
    def check(d, order, base=None):
        from hodgejump.freemod import _jet_rows

        sparse = None if base is None else [{j: x for j, x in enumerate(v) if x} for v in base]
        rows, width = _jet_rows(d, order, sparse)
        head = d.cols if base is None else len(base)
        assert width == head + order * d.cols
        assert len(rows) == d.rows * (order + 1)
        assert all(0 <= j < width and x for row in rows for j, x in row.items())
        dense = [[row.get(j, GR(0)) for j in range(width)] for row in rows]
        assert dense == dense_jet_matrix(d, order, base)

    def test_matches_dense_reference(self):
        rng = random.Random(31)
        for _ in range(12):
            cx, _ = random_lab_complex(rng)
            for d in cx.diffs:
                for order in range(4):
                    base = [[random_gr(rng) for _ in range(d.cols)]
                            for _ in range(rng.randint(0, 3))]
                    self.check(d, order)
                    self.check(d, order, base)

    def test_empty_shapes(self):
        no_cols = linalg.ExactMatrix.from_columns(2, [])
        no_rows = linalg.ExactMatrix(0, 2, [])
        for order in range(3):
            self.check(no_cols, order)
            self.check(no_cols, order, [[], []])
            self.check(no_rows, order)
            self.check(no_rows, order, [[GR(1), GR(2)]])

    def test_order_bound_zero(self):
        # jets of order 0 are the central fiber: every closed class extends
        self.check(C_T2.diff(0), 0)
        rep = classify_first_class(C_T, 0, order_bound=0)
        assert rep.dim == 0 and rep.extendable_dim == 1


class TestObstructionMap:
    def test_first_order_class_of_constant_section(self):
        alpha = JetCochain.from_constant(C_T, 0, [GR(1)], 0)
        ob = o_n_q(C_T, alpha, 1)
        assert ob and ob.coords == [GR(1)]

    def test_image_cochains_have_zero_class(self):
        # alpha = d(beta) for jets beta: class must vanish
        rng = random.Random(3)
        for _ in range(25):
            cx, _ = random_lab_complex(rng)
            if cx.ranks[0] == 0 or cx.ranks[1] == 0:
                continue
            n = rng.randint(1, 3)
            beta = [
                Poly(T, {(k,): GR(rng.randint(-2, 2)) for k in range(n)})
                for _ in range(cx.ranks[0])
            ]
            from hodgejump.freemod import _apply_poly

            alpha_polys = _apply_poly(cx.diff(0), beta, "t")
            alpha = JetCochain(
                degree=1, entries=[Jet(p, n - 1) for p in alpha_polys], order=n - 1
            )
            ob = o_n_q(cx, alpha, n)
            assert not ob

    def test_t2_first_order_vanishes_second_does_not(self):
        alpha = JetCochain.from_constant(C_T2, 0, [GR(1)], 0)
        assert not o_n_q(C_T2, alpha, 1)
        step = extend_step(C_T2, alpha)
        assert isinstance(step, JetCochain)
        assert o_n_q(C_T2, step, 2)

    def test_precondition_violation_reports_order(self):
        alpha = JetCochain.from_constant(C_UNIT, 0, [GR(1)], 0)
        with pytest.raises(ValidationFailure, match="order 0"):
            o_n_q(C_UNIT, alpha, 1)

    def test_well_definedness_under_perturbations(self):
        rng = random.Random(9)
        cases = 0
        while cases < 30:
            cx, _ = random_lab_complex(rng)
            if cx.ranks[0] == 0 or cx.ranks[1] == 0:
                continue
            n = rng.randint(1, 2)
            # build alpha with d(alpha) = 0 mod t^n from the jet kernel
            from hodgejump.freemod import _jet_rows

            rows, width = _jet_rows(cx.diff(0), n - 1)
            kernel = linalg.Echelon(width, rows).kernel()
            if not kernel:
                continue
            v = kernel[rng.randrange(len(kernel))]
            P0 = cx.ranks[0]
            alpha_polys = [
                Poly(T, {(k,): v[k * P0 + j] for k in range(n)}) for j in range(P0)
            ]
            alpha = JetCochain(degree=0, entries=[Jet(p, n - 1) for p in alpha_polys], order=n - 1)
            base = o_n_q(cx, alpha, n)
            # perturbing by t^n * gamma leaves the class fixed
            gamma = [GR(rng.randint(-2, 2)) for _ in range(P0)]
            shifted = [
                Jet(p + Poly(T, {(n,): g}), n) for p, g in zip(alpha_polys, gamma)
            ]
            pert = JetCochain(degree=0, entries=shifted, order=n)
            got = o_n_q(cx, pert, n)
            assert got.coords == base.coords
            cases += 1
        # so does perturbing degree-1 cochains by the image of jet cochains
        rng2 = random.Random(10)
        cases = 0
        while cases < 15:
            cx, _ = random_lab_complex(rng2)
            if cx.ranks[0] == 0 or cx.ranks[1] == 0 or cx.ranks[2] == 0:
                continue
            n = rng2.randint(1, 2)
            from hodgejump.freemod import _apply_poly, _jet_rows

            rows, width = _jet_rows(cx.diff(1), n - 1)
            kernel = linalg.Echelon(width, rows).kernel()
            if not kernel:
                continue
            v = kernel[rng2.randrange(len(kernel))]
            P1 = cx.ranks[1]
            alpha_polys = [
                Poly(T, {(k,): v[k * P1 + j] for k in range(n)}) for j in range(P1)
            ]
            alpha = JetCochain(degree=1, entries=[Jet(p, n - 1) for p in alpha_polys], order=n - 1)
            base = o_n_q(cx, alpha, n)
            beta = [
                Poly(T, {(k,): GR(rng2.randint(-2, 2)) for k in range(n)})
                for _ in range(cx.ranks[0])
            ]
            image = _apply_poly(cx.diff(0), beta, "t")
            pert = JetCochain(
                degree=1,
                entries=[Jet(p + w, n - 1) for p, w in zip(alpha_polys, image)],
                order=n - 1,
            )
            got = o_n_q(cx, pert, n)
            assert got.coords == base.coords
            cases += 1


class TestExtendStep:
    def test_obstructed_step(self):
        alpha = JetCochain.from_constant(C_T, 0, [GR(1)], 0)
        assert isinstance(extend_step(C_T, alpha), LabObstruction)

    def test_top_degree_extends_trivially(self):
        # H^2(E_0) of a two-term complex is zero, so nothing obstructs
        alpha = JetCochain.from_constant(C_T2, 1, [GR(1)], 0)
        assert not o_n_q(C_T2, alpha, 1)
        out = extend_step(C_T2, alpha)
        assert isinstance(out, JetCochain) and out.order == 1

    def test_zero_complex_extends_trivially(self):
        alpha = JetCochain.from_constant(C_ZERO2, 0, [GR(1), GR(0)], 0)
        out = extend_step(C_ZERO2, alpha)
        assert isinstance(out, JetCochain) and out.order == 1

    def test_killable_defect_via_unit_row(self):
        # d0 = [t; 1] with d1 = [1, -t]: every closed class extends
        cx = mk([1, 2, 1], [[["t"], ["1"]], [["1", "-t"]]])
        assert validate_complex(cx) == []
        assert classify_first_class(cx, 0).dim == 0
        assert classify_first_class(cx, 1).dim == 0


class TestClassification:
    def test_default_order_bound(self):
        assert default_order_bound(C_T) == 1 * 2 + 1
        assert default_order_bound(C_T2) == 2 * 2 + 1
        assert default_order_bound(C_ZERO2) == 1

    def test_first_class_for_t(self):
        rep = classify_first_class(C_T, 0)
        assert rep.dim == 1 and rep.extendable_dim == 0

    def test_first_class_empty_for_zero_differentials(self):
        rep = classify_first_class(C_ZERO2, 0)
        assert rep.dim == 0 and rep.extendable_dim == 2

    def test_first_class_for_t_squared_needs_order_two(self):
        assert classify_first_class(C_T2, 0, order_bound=1).dim == 0
        assert classify_first_class(C_T2, 0, order_bound=2).dim == 1
        assert classify_first_class(C_T2, 0).dim == 1

    def test_second_class_for_t(self):
        rep = classify_second_class(C_T, 1)
        assert rep.dim == 1 and rep.basis

    def test_second_class_empty_cases(self):
        assert classify_second_class(C_ZERO2, 1).dim == 0
        assert classify_second_class(C_UNIT, 1).dim == 0

    @pytest.mark.parametrize("call, q", [
        (classify_first_class, 5), (classify_first_class, -1),
        (classify_second_class, 2), (classify_second_class, 5),
    ])
    def test_degree_outside_the_complex_is_a_validation_failure(self, call, q):
        cx = load_manifest("lab-t2").complex
        with pytest.raises(ValidationFailure, match=f"degree {q} outside 0..1"):
            call(cx, q)
        # rejected before any per-degree invariant is computed
        assert all(kind == "issues" for kind, _ in cx._memo)


class TestReduceToPrimitive:
    def test_already_primitive(self):
        alpha = JetCochain.from_constant(C_T, 0, [GR(1)], 0)
        n, out = reduce_to_primitive(C_T, alpha, 1)
        assert n == 1 and out is alpha

    def test_t_squared_is_primitive_at_order_two(self):
        alpha = JetCochain.from_constant(C_T2, 0, [GR(1)], 0)
        step = extend_step(C_T2, alpha)
        n, out = reduce_to_primitive(C_T2, step, 2)
        assert n == 2

    def test_descent_when_leading_term_dies(self):
        # alpha = t over d0 = [t]: o_2 != 0 but o_{2,1} = 0, descend to order 1
        alpha = JetCochain(degree=0, entries=[Jet(poly("t"), 1)], order=1)
        assert o_n_q(C_T, alpha, 2).coords == [GR(1)]
        n, out = reduce_to_primitive(C_T, alpha, 2)
        assert n == 1
        assert o_n_q(C_T, out, 1)

    def test_stacked_variant(self):
        # d0 = [t; t^2] into rank 2: descent from order 2 terminates
        cx = mk([1, 2], [[["t"], ["t^2"]]])
        alpha = JetCochain(degree=0, entries=[Jet(poly("t"), 1)], order=1)
        ob = o_n_q(cx, alpha, 2)
        assert ob
        n, out = reduce_to_primitive(cx, alpha, 2)
        assert 1 <= n <= 2
        assert o_n_q(cx, out, n)


class TestRhoCompatibility:
    def test_shift_map_detects_jet_exactness(self):
        # over d0 = [t]: beta = 1 generates H^1(E_0) but t*beta = d(1) is
        # exact in jets, so the shifted class vanishes; over d0 = [t^2] the
        # same shift survives
        from hodgejump.freemod import _rho_is_zero

        assert _rho_is_zero(C_T, 1, [GR(1)], 1)
        assert not _rho_is_zero(C_T2, 1, [GR(1)], 1)
        assert not _rho_is_zero(C_T, 1, [GR(1)], 0)   # rho_0 is the identity

    def test_shifted_obstruction_matches_descent_branch(self):
        # o_{2,1} = rho_1 . o_2 on d0 = [t]: the order-2 obstruction of t*(1)
        # is nonzero in H^1(E_0) but its shift dies, which is exactly the
        # situation reduce_to_primitive resolves
        from hodgejump.freemod import _rho_is_zero

        alpha = JetCochain(degree=0, entries=[Jet(poly("t"), 1)], order=1)
        ob = o_n_q(C_T, alpha, 2)
        assert ob and _rho_is_zero(C_T, 1, ob.representative, 1)


class TestAccounting:
    def test_multiplication_by_t(self):
        r0 = jump_accounting(C_T, 0)
        assert r0.consistent and (r0.h_drop, r0.kernel_drop, r0.first_class_dim) == (1, 1, 1)
        r1 = jump_accounting(C_T, 1)
        assert r1.consistent and (r1.h_drop, r1.image_rise, r1.second_class_dim) == (1, 1, 1)

    def test_zero_differentials(self):
        for q in (0, 1):
            r = jump_accounting(C_ZERO2, q)
            assert r.consistent and r.h_drop == 0

    @pytest.mark.parametrize("bound", [0, 1, None])
    def test_too_small_order_bound_is_a_validation_failure(self, bound):
        # over d0 = [t] the jet search needs order 1 to reach t * 1 = d(1)
        if bound == 0:
            with pytest.raises(ValidationFailure, match="order_bound 0 is too small"):
                jump_accounting(C_T, 1, order_bound=bound)
        else:
            r = jump_accounting(C_T, 1, order_bound=bound)
            assert r.consistent and r.second_class_dim == r.image_rise == 1
            assert r.order_bound == (3 if bound is None else bound)

    @pytest.mark.parametrize("bound", [-1, -3])
    def test_negative_order_bound_is_a_validation_failure(self, bound):
        # a negative order has no jets to search, in any of the three entry points
        cx = FreeComplex("t", (1, 1), (linalg.ExactMatrix(1, 1, [[poly("t")]]),))
        for call in (jump_accounting, classify_first_class):
            with pytest.raises(ValidationFailure, match=f"order_bound must be at least 0, got {bound}"):
                call(cx, 0, order_bound=bound)
        with pytest.raises(ValidationFailure, match=f"order_bound must be at least 0, got {bound}"):
            classify_second_class(cx, 1, order_bound=bound)

    def test_disagreement_at_the_default_bound_is_internal(self, monkeypatch):
        from hodgejump import freemod
        from hodgejump.errors import InternalInvariantError

        monkeypatch.setattr(freemod, "_saturation_fiber", lambda m, param: [])
        with pytest.raises(InternalInvariantError, match="methods disagree"):
            classify_second_class(C_T, 1)

    def test_random_suite(self):
        rng = random.Random(101)
        checked = 0
        while checked < 25:
            cx, truth = random_lab_complex(rng)
            assert validate_complex(cx) == []
            dims = h_dims(cx)
            assert dims == truth["h"], (dims, truth)
            for q in range(3):
                acct = jump_accounting(cx, q, order_bound=4)
                assert acct.consistent, (q, acct.notes)
            checked += 1


def smith_exponents(cx, q):
    """Sorted local Smith exponents of d^q, read off ``_smith_counts``."""
    from hodgejump.freemod import _smith_counts

    d = cx.diff(q)
    counts = _smith_counts(d, linalg.generic_rank(d), default_order_bound(cx))
    return [k for k, n in enumerate(counts) for _ in range(n)]


# d^0 = U diag(1, t, t^2) V for unimodular U, V; d^1 has the exponent 1
C_SMITH012 = load_manifest(str(Path(__file__).parent / "data" / "lab_smith012.json")).complex


class TestSmithExponents:
    def test_match_the_block_structure_and_dense_jet_ranks(self):
        rng = random.Random(71)
        for _ in range(25):
            cx, truth = random_lab_complex(rng)
            for q, d in enumerate(cx.diffs):
                exps = truth["exponents"][q]
                assert smith_exponents(cx, q) == exps
                for k in range(4):
                    want = sum(max(0, k + 1 - e) for e in exps)
                    assert rank_qi(dense_jet_matrix(d, k)) == want

    def test_searches_at_each_bound_count_exponents_up_to_it(self):
        from hodgejump.freemod import _jet_search_span

        rng = random.Random(72)
        for _ in range(15):
            cx, _ = random_lab_complex(rng)
            for q in range(3):
                out, inn = smith_exponents(cx, q), smith_exponents(cx, q - 1)
                cob = cohomology_at_zero(cx, q)
                for k in range(4):
                    assert classify_first_class(cx, q, k).dim == sum(1 <= e <= k for e in out)
                    assert _jet_search_span(cx, q, cob, k).rank == sum(1 <= e <= k for e in inn)
                acct = jump_accounting(cx, q)
                assert acct.first_class_orders == Counter(e for e in out if e)
                assert acct.second_class_orders == Counter(e for e in inn if e)

    def test_scrambled_diagonal(self):
        assert smith_exponents(C_SMITH012, 0) == [0, 1, 2]
        assert smith_exponents(C_SMITH012, 1) == [1]
        bound = default_order_bound(C_SMITH012)
        for q in range(3):
            assert jump_accounting(C_SMITH012, q) == jump_accounting(C_SMITH012, q, bound)
        acct = jump_accounting(C_SMITH012, 1)
        assert acct.first_class_orders == {1: 1}
        assert acct.second_class_orders == {1: 1, 2: 1}
        assert (acct.first_class_dim, acct.second_class_dim, acct.order_bound) == (1, 2, bound)

    def test_explicit_bound_below_the_needed_order(self):
        with pytest.raises(ValidationFailure, match=(
                "order_bound 1 is too small to decide the second class at q=1: "
                "the jet search needs order 2")):
            classify_second_class(C_SMITH012, 1, order_bound=1)
        assert classify_second_class(C_SMITH012, 1, order_bound=2).dim == 2
        # the first class keeps truncating at the given bound
        assert [classify_first_class(C_SMITH012, 0, k).dim for k in range(4)] == [0, 1, 2, 2]

    def test_a_rank_the_jet_ranks_never_reach_is_internal(self):
        from hodgejump.freemod import _smith_counts

        assert _smith_counts(C_T2.diff(0), 1, 5) == [0, 0, 1]
        with pytest.raises(InternalInvariantError, match="generic rank 2 by order 5"):
            _smith_counts(C_T2.diff(0), 2, 5)
        with pytest.raises(InternalInvariantError, match="generic rank 1 by order 1"):
            _smith_counts(C_T2.diff(0), 1, 1)


class TestProp23Equivalence:
    def test_top_adjustment_solvability_matches_rho(self):
        # o_{n,0} trivial <=> top-coefficient extension exists (i = n case)
        rng = random.Random(55)
        cases = 0
        while cases < 20:
            cx, _ = random_lab_complex(rng)
            if cx.ranks[0] == 0 or cx.ranks[1] == 0:
                continue
            from hodgejump.freemod import _jet_rows

            n = rng.randint(1, 2)
            rows, width = _jet_rows(cx.diff(0), n - 1)
            kernel = linalg.Echelon(width, rows).kernel()
            if not kernel:
                continue
            v = kernel[rng.randrange(len(kernel))]
            P0 = cx.ranks[0]
            alpha = JetCochain(
                degree=0,
                entries=[
                    Jet(Poly(T, {(k,): v[k * P0 + j] for k in range(n)}), n - 1)
                    for j in range(P0)
                ],
                order=n - 1,
            )
            ob = o_n_q(cx, alpha, n)
            step = extend_step(cx, alpha)
            if ob:
                assert isinstance(step, LabObstruction)
            else:
                assert isinstance(step, JetCochain)
            cases += 1
