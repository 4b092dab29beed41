import random

import pytest

from hodgejump.coeff import GR, Poly
from hodgejump.linalg import (
    Echelon,
    ExactMatrix,
    LinalgError,
    cohomology,
    generic_rank,
    kernel_basis,
    kernel_basis_const,
    pivot_columns,
    rank_const,
    solve_const,
    specialized_rank,
)

from .conftest import random_gr
from .oracles import rank_qi, rref_qi

T = ("t",)
P4 = ("t11", "t12", "t21", "t22")


def tvar():
    return Poly.variable(T, "t")


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(ExactMatrix.identity(2)) == []

    def test_generic_kernel_of_multiplication_by_t(self):
        assert kernel_basis(ExactMatrix(1, 1, [[tvar()]])) == []

    def test_one_by_two_with_i(self):
        m = ExactMatrix(1, 2, [[GR(1), GR(0, 1)]])
        basis = kernel_basis(m)
        assert len(basis) == 1
        v = basis[0]
        assert all(not x for x in m.apply(v))
        # canonical: free coordinate normalized to 1, so v = (-i, 1)
        assert v == [GR(0, -1), GR(1)]

    def test_polynomial_kernel_vectors_annihilate(self):
        rng = random.Random(7)
        t = tvar()
        for _ in range(20):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 4)
            entries = [
                [
                    Poly(T, {(rng.randint(0, 2),): random_gr(rng)})
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ]
            m = ExactMatrix(rows, cols, entries)
            basis = kernel_basis(m)
            assert len(basis) == cols - generic_rank(m)
            for v in basis:
                assert all(not x for x in m.apply(v))


class TestRanks:
    def test_generic_rank_of_t(self):
        assert generic_rank(ExactMatrix(1, 1, [[tvar()]])) == 1

    def test_generic_rank_of_parameter_matrix(self):
        m = ExactMatrix(2, 2, [
            [Poly.variable(P4, "t11"), Poly.variable(P4, "t12")],
            [Poly.variable(P4, "t21"), Poly.variable(P4, "t22")],
        ])
        assert generic_rank(m) == 2

    def test_generic_rank_of_zero(self):
        assert generic_rank(ExactMatrix.zeros(3, 4)) == 0

    def test_specialized_rank_examples(self):
        assert specialized_rank(ExactMatrix(1, 1, [[tvar()]]), {"t": GR(0)}) == 0
        m = ExactMatrix(2, 2, [
            [Poly.variable(P4, "t11"), Poly.variable(P4, "t12")],
            [Poly.variable(P4, "t21"), Poly.variable(P4, "t22")],
        ])
        pt = {"t11": GR(1), "t12": GR(0), "t21": GR(0), "t22": GR(0)}
        assert specialized_rank(m, pt) == 1
        assert specialized_rank(ExactMatrix.identity(3), {}) == 3

    def test_semicontinuity_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(60):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            entries = [
                [Poly(T, {(rng.randint(0, 2),): random_gr(rng)}) for _ in range(cols)]
                for _ in range(rows)
            ]
            m = ExactMatrix(rows, cols, entries)
            g = generic_rank(m)
            for s in range(-2, 3):
                assert specialized_rank(m, {"t": GR(s)}) <= g

    def test_rank_matches_independent_elimination(self):
        rng = random.Random(13)
        for trial in range(80):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            if trial % 2:
                # delbar-like sparsity: a few nonzeros per row
                entries = [[GR(0)] * cols for _ in range(rows)]
                for row in entries:
                    for j in rng.sample(range(cols), rng.randint(0, min(2, cols))):
                        row[j] = random_gr(rng, zero_ok=False)
            else:
                entries = [[random_gr(rng) for _ in range(cols)] for _ in range(rows)]
            m = ExactMatrix(rows, cols, entries)
            assert rank_const(m) == rank_qi(entries)

            ref, pivots = rref_qi(entries)
            assert pivot_columns(m) == pivots
            free = [f for f in range(cols) if f not in pivots]
            expected_kernel = []
            for f in free:
                v = [GR(0)] * cols
                v[f] = GR(1)
                for row, c in zip(ref, pivots):
                    v[c] = -row[f]
                expected_kernel.append(v)
            assert kernel_basis_const(m) == expected_kernel

            rhs = [random_gr(rng) for _ in range(rows)]
            aug_ref, aug_pivots = rref_qi([row + [b] for row, b in zip(entries, rhs)])
            if cols in aug_pivots:
                assert solve_const(m, rhs) is None
            else:
                x = [GR(0)] * cols
                for row, c in zip(aug_ref, aug_pivots):
                    x[c] = row[cols]
                assert solve_const(m, rhs) == x

            shuffled = list(entries)
            rng.shuffle(shuffled)
            assert Echelon(cols, shuffled).rows() == Echelon(cols, entries).rows() == ref


class TestSolve:
    def test_solve_and_inconsistency(self):
        m = ExactMatrix(2, 2, [[GR(1), GR(2)], [GR(2), GR(4)]])
        assert solve_const(m, [GR(1), GR(2)]) == [GR(1), GR(0)]
        assert solve_const(m, [GR(1), GR(3)]) is None


class TestCohomology:
    def test_iwasawa_01_level_via_raw_matrices(self):
        # delbar on (0,1): c3 -> -c1^c2; kernel c1, c2; no image
        d_out = ExactMatrix(3, 3, [
            [GR(0), GR(0), GR(0)],
            [GR(0), GR(0), GR(0)],
            [GR(0), GR(0), GR(-1)],
        ])
        d_in = ExactMatrix(3, 1, [[GR(0)], [GR(0)], [GR(0)]])
        cb = cohomology(d_in, d_out)
        assert cb.dim == 2

    def test_composition_check_names_column(self):
        with pytest.raises(LinalgError, match="column 0"):
            cohomology(ExactMatrix(1, 1, [[GR(1)]]), ExactMatrix(1, 1, [[GR(1)]]))

    def test_projection_well_defined(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 5)
            rows_out = rng.randint(0, 3)
            d_out = ExactMatrix(rows_out, n, [
                [random_gr(rng) for _ in range(n)] for _ in range(rows_out)
            ])
            ker = kernel_basis_const(d_out)
            cols_in = rng.randint(0, 2)
            columns = []
            for _ in range(cols_in):
                combo = [GR(0)] * n
                for v in ker:
                    c = random_gr(rng)
                    combo = [a + c * b for a, b in zip(combo, v)]
                columns.append(combo)
            d_in = ExactMatrix.from_columns(n, columns)
            cb = cohomology(d_in, d_out)
            # dimension identity: dim ker - rank d_in
            assert cb.dim == len(ker) - rank_const(d_in)
            if cb.dim and cols_in:
                rep = cb.representatives[0]
                image_vec = d_in.column(0)
                shifted = [a + b for a, b in zip(rep, image_vec)]
                assert cb.project(shifted) == cb.project(rep)
            for k, rep in enumerate(cb.representatives):
                unit = [GR(1) if j == k else GR(0) for j in range(cb.dim)]
                assert cb.project(rep) == unit

    def test_projecting_non_closed_vector_fails(self):
        d_out = ExactMatrix(1, 2, [[GR(1), GR(0)]])
        d_in = ExactMatrix(2, 0, [[], []])
        cb = cohomology(d_in, d_out)
        with pytest.raises(LinalgError):
            cb.project([GR(1), GR(0)])
