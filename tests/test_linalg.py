import itertools
import random
from collections.abc import Mapping

import pytest

from hodgejump.coeff import GR, GaussianRational, Poly
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
from .oracles import (
    dense_apply,
    dense_column,
    dense_eq,
    dense_eval,
    dense_is_zero,
    dense_matmul,
    dense_str,
    rank_qi,
    rref_qi,
)

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
        # the first nonzero column, not the column of the first nonzero row
        swap = ExactMatrix(2, 2, [[0, 1], [1, 0]])
        with pytest.raises(LinalgError, match="column 0"):
            cohomology(swap, ExactMatrix.identity(2))

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


def _random_dense(rng, rows, cols, poly):
    """Entries as a caller may give them: about half zero (GR, int or, in a
    polynomial matrix, Poly zeros), the rest ints, Q(i) or Poly in t."""
    def entry():
        kind = rng.randrange(6)
        if kind < 3:
            return Poly(T) if poly and kind == 2 else (0 if kind == 1 else GR(0))
        if kind == 3:
            return rng.choice([-2, -1, 1, 3])
        if kind == 4 or not poly:
            return random_gr(rng, zero_ok=False)
        return Poly(T, {(rng.randint(1, 2),): random_gr(rng, zero_ok=False), (0,): random_gr(rng)})

    out = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        out[rng.randrange(rows)] = [GR(0)] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in out:
            row[j] = 0
    return out


class TestSparseMatrix:
    """ExactMatrix against the dense references in tests/oracles.py."""

    @staticmethod
    def check_types(got, given, poly):
        # gaps read as the matrix's zero; nonzeros keep the type they had
        for x, y in zip(got, given, strict=True):
            if x:
                assert isinstance(x, Poly) == isinstance(y, Poly)
            else:
                assert isinstance(x, Poly if poly else GaussianRational)

    def test_matches_dense_reference(self):
        rng = random.Random(17)
        point = {"t": GR(2, -1)}
        cancelled = 0
        for r, c, k in itertools.product(range(4), repeat=3):
            for _ in range(2):
                a = _random_dense(rng, r, c, rng.random() < 0.6)
                b = _random_dense(rng, c, k, rng.random() < 0.6)
                cancel = c >= 2 and k and rng.random() < 0.5
                if cancel:
                    # equal columns 0 and 1 of a against (1, -1, 0, ...) in b
                    for row in a:
                        row[1] = row[0]
                    for i, row in enumerate(b):
                        row[0] = (1, -1)[i] if i < 2 else 0
                m, mb = ExactMatrix(r, c, a), ExactMatrix(c, k, b)
                assert (m.rows, m.cols) == (r, c)
                assert dense_eq(m.entries, a) and str(m) == dense_str(a)
                assert m.is_polynomial() == any(isinstance(x, Poly) for row in a for x in row)
                for row, given in zip(m.entries, a):
                    self.check_types(row, given, m.is_polynomial())
                assert all(x for row in m.sparse_rows for x in row.values())
                for j in range(c):
                    assert dense_eq([m.column(j)], [dense_column(a, j)])
                    self.check_types(m.column(j), dense_column(a, j), m.is_polynomial())
                assert m.is_zero() == dense_is_zero(a)
                for twin in (ExactMatrix.from_columns(r, [dense_column(a, j) for j in range(c)]),
                             ExactMatrix.from_columns(r, m.sparse_columns),
                             ExactMatrix(r, c, m.sparse_rows)):
                    assert twin == m and dense_eq(twin.entries, a)
                assert (ExactMatrix.zeros(r, c) == m) == dense_is_zero(a)
                assert ExactMatrix.zeros(r, c + 1) != m and ExactMatrix.zeros(r + 1, c) != m

                prod = m.matmul(mb)
                assert (prod.rows, prod.cols) == (r, k)
                assert dense_eq(prod.entries, dense_matmul(a, b, k))
                assert all(x for row in prod.sparse_rows for x in row.values())
                if cancel:
                    assert not any(prod.column(0))
                    cancelled += 1
                vec = [random_gr(rng) for _ in range(c)]
                assert dense_eq([m.apply(vec)], [dense_apply(a, vec)])
                ev = m.eval_point(point)
                assert not ev.is_polynomial() and dense_eq(ev.entries, dense_eval(a, point))

                if r and c:
                    i, j = rng.randrange(r), rng.randrange(c)
                    changed = [list(row) for row in a]
                    changed[i][j] = rng.choice([GR(0), GR(1), Poly.variable(T, "t"), a[i][j]])
                    assert (ExactMatrix(r, c, changed) == m) == dense_eq(changed, a)
        assert cancelled > 5

    def test_rows_of_any_mapping_type(self):
        class Row(Mapping):
            def __init__(self, data):
                self._data = data

            def __getitem__(self, key):
                return self._data[key]

            def __iter__(self):
                return iter(self._data)

            def __len__(self):
                return len(self._data)

        class DictRow(dict):
            pass

        want = ExactMatrix(2, 3, [[GR(1), 0, GR(0, 2)], [0, 0, 0]])
        for kind in (Row, DictRow):
            rows = [kind({0: GR(1), 2: GR(0, 2)}), kind({})]
            assert ExactMatrix(2, 3, rows) == want
            assert ExactMatrix.from_columns(3, rows).entries == tuple(zip(*want.entries))
            assert Echelon(3, rows[:1]).rows() == [[GR(1), GR(0), GR(0, 2)]]
            with pytest.raises(LinalgError):
                ExactMatrix(1, 2, [kind({2: GR(1)})])

    def test_shape_errors(self):
        for build in (
            lambda: ExactMatrix(2, 2, [[1, 2], [3]]),
            lambda: ExactMatrix(2, 2, [[1, 2]]),
            lambda: ExactMatrix(1, 2, [{2: GR(1)}]),
            lambda: ExactMatrix(1, 2, [{-1: GR(1)}]),
            lambda: ExactMatrix.from_columns(2, [[GR(1)]]),
            lambda: ExactMatrix.from_columns(2, [{2: GR(1)}]),
            lambda: ExactMatrix(1, 2, [[1, 2]]).matmul(ExactMatrix.identity(1)),
            lambda: ExactMatrix(1, 2, [[1, 2]]).apply([GR(1)]),
        ):
            with pytest.raises(LinalgError):
                build()
