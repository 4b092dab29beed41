import itertools
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgejump.coeff import GR, GR_ONE, GaussianRational, Jet, Poly, accumulate
from hodgejump.linalg import (
    Echelon,
    ExactMatrix,
    LinalgError,
    _bareiss,
    _cohomology,
    _peel,
    cohomology,
    cohomology_dim,
    generic_rank,
    kernel_basis,
    kernel_basis_const,
    pivot_columns,
    rank_const,
    solve_const,
)

from .conftest import random_gr
from .oracles import (
    augmented_solve,
    cramer_kernel,
    dense_apply,
    dense_bareiss,
    dense_column,
    dense_eq,
    dense_eval,
    dense_is_zero,
    dense_matmul,
    dense_str,
    poly_entries,
    quotient_representatives,
    rank_qi,
    rref_kernel,
    rref_qi,
    scan_echelon_rows,
)

T = ("t",)
AB = ("a", "b")
P4 = ("t11", "t12", "t21", "t22")


def tvar():
    return Poly.variable(T, "t")


def nonzeros(v) -> dict:
    """A dense vector as the ``{index: value}`` mapping of its nonzeros."""
    return {j: x for j, x in enumerate(v) if x}


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(ExactMatrix(2, 2, [{0: GR_ONE}, {1: GR_ONE}])) == []

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


@st.composite
def mixed_poly_matrices(draw):
    """Polynomial matrices up to 5 x 6 in one or two parameters, entries
    mixing 0, Q(i) constants and Poly.  Some rows are zero and some are
    combinations of two rows, and up to two columns are zero, so ranks drop
    and pivots often need a row swap."""
    params = draw(st.sampled_from([T, AB]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    small = st.builds(GR, st.integers(-2, 2), st.integers(-1, 1))

    def poly():
        return Poly(params, {tuple(draw(st.integers(0, 2)) for _ in params): draw(small)
                             for _ in range(draw(st.integers(1, 2)))})

    def entry():
        kind = draw(st.integers(0, 2))
        return GR(0) if kind == 0 else draw(small) if kind == 1 else poly()

    dense = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            dense[i] = [GR(0)] * cols
        elif kind == 1:
            j, k = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            a, b = poly(), poly()
            dense[i] = [a * x + b * y for x, y in zip(dense[j], dense[k])]
    for c in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in dense:
            row[c] = GR(0)
    dense[-1][-1] = Poly(params) + dense[-1][-1]  # at least one Poly entry
    return ExactMatrix(rows, cols, dense)


# the swap at column 0 sends the empty first row to the pivot's place, so the
# rows (0,1,t) and (0,t,1) keep their order and (0,1,t) gives the next pivot
EMPTY_ROW_SWAP = ExactMatrix(4, 3, [[0, 0, 0], [0, 1, Poly.variable(T, "t")],
                                    [0, Poly.variable(T, "t"), 1], [1, 0, 0]])


class TestPolynomialElimination:
    @given(mixed_poly_matrices())
    @example(EMPTY_ROW_SWAP)
    @settings(max_examples=200, deadline=None)
    def test_sparse_bareiss_and_kernel_equal_the_dense_oracles(self, m):
        ech, pivots = _bareiss(m)
        want_ech, want_pivots = dense_bareiss(poly_entries(m))
        assert pivots == want_pivots
        assert [[row.get(j, m._zero) for j in range(m.cols)] for row in ech] == want_ech
        basis = kernel_basis(m)
        assert basis == cramer_kernel(m)
        assert all(isinstance(x, Poly) for v in basis for x in v)
        for v in basis:
            assert not any(m.apply(v))
        # the kernel pass leaves the pivots memo set
        assert m._pivots == tuple(pivots)


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
        assert rank_const(ExactMatrix(1, 1, [[tvar()]]).eval_point({"t": GR(0)})) == 0
        m = ExactMatrix(2, 2, [
            [Poly.variable(P4, "t11"), Poly.variable(P4, "t12")],
            [Poly.variable(P4, "t21"), Poly.variable(P4, "t22")],
        ])
        pt = {"t11": GR(1), "t12": GR(0), "t21": GR(0), "t22": GR(0)}
        assert rank_const(m.eval_point(pt)) == 1
        assert rank_const(ExactMatrix(3, 3, [{i: GR_ONE} for i in range(3)]).eval_point({})) == 3

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
                assert rank_const(m.eval_point({"t": GR(s)})) <= g

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
            assert kernel_basis_const(m) == rref_kernel(entries, cols)

            rhs = [random_gr(rng) for _ in range(rows)]
            want = augmented_solve(m, rhs)
            assert solve_const(m, nonzeros(rhs)) == (None if want is None else nonzeros(want))

            shuffled = [nonzeros(row) for row in entries]
            rng.shuffle(shuffled)
            assert (Echelon(cols, shuffled).rows() == Echelon(cols, m.sparse_rows).rows()
                    == [nonzeros(row) for row in ref])


@st.composite
def sparse_qi_rows(draw):
    """A width and up to 12 sparse Q(i) rows; some are combinations of two
    earlier rows, so reductions both fill in and cancel entries."""
    width = draw(st.integers(1, 8))
    value = st.builds(GR, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)
    rows: list[dict] = []
    for _ in range(draw(st.integers(0, 12))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = {j: x * draw(value) for j, x in a.items()}
            f = draw(value)
            for j, x in b.items():
                accumulate(row, j, f * x)
        else:
            row = draw(st.dictionaries(st.integers(0, width - 1), value, max_size=4))
        rows.append(row)
    return width, rows


class TestEchelonIndex:
    @given(sparse_qi_rows())
    @settings(max_examples=150, deadline=None)
    def test_index_and_rows_match_the_scan_oracle(self, case):
        width, vectors = case
        ech = Echelon(width)
        for v in vectors:
            ech.add(v)
            rebuilt: dict[int, set[int]] = {}
            for c, row in ech._rows.items():
                for j in row:
                    rebuilt.setdefault(j, set()).add(c)
            assert {j: held for j, held in ech._cols.items() if held} == rebuilt
        want = scan_echelon_rows(vectors)
        assert ech._rows == want
        assert Echelon(width, vectors[::-1])._rows == want
        ech.freeze()
        with pytest.raises(TypeError, match="frozen"):
            ech.add({0: GR(1)})
        assert ech._rows == want

    def test_empty_rows_are_skipped(self):
        seen = []

        class Counting(Echelon):
            def add(self, v):
                seen.append(v)
                return super().add(v)

        assert Counting(3, [{}, {1: GR(2)}, {}, {1: GR(1)}]).rows() == [{1: GR(1)}]
        assert seen == [{1: GR(2)}, {1: GR(1)}]

    def test_explicit_zeros_in_mappings_are_dropped(self):
        # a zero where the row would lead once divided by zero when made monic
        ech = Echelon(3, [{0: GR(0), 1: GR(1)}])
        assert ech.pivots == [1] and ech._rows == {1: {1: GR(1)}}
        assert ech.add({0: GR(0), 1: GR(0), 2: GR(2)}) is True
        assert ech._rows == {1: {1: GR(1)}, 2: {2: GR(1)}}
        assert ech.add({1: GR(3), 2: GR(0)}) is False
        assert ech.residue({0: GR(0), 1: GR(2), 2: GR(0)}) == {}
        assert ech.residue({0: GR(5), 1: GR(0)}) == {0: GR(5)}
        assert Echelon(2).residue({0: GR(0), 1: GR(0)}) == {}

    def test_indices_outside_the_width_are_refused(self):
        # rows in the span are in range, so an entry outside it never
        # cancels: the row it would add is refused, not kept for kernel()
        for vectors in ([{5: GR(1)}],                       # past the width
                        [{0: GR(1), 7: GR(2)}],             # in range only at the lead
                        [{-1: GR(1)}],                      # negative
                        [{0: GR(1)}, {0: GR(1), 2: GR(3)}]):  # out of range after reduction
            with pytest.raises(LinalgError, match="index out of range"):
                Echelon(2, vectors)
        ech = Echelon(2, [{0: GR(1)}])
        with pytest.raises(LinalgError, match="index out of range"):
            ech.add({0: GR(2), 2: GR(1)})
        assert ech.rows() == [{0: GR(1)}] and ech.kernel() == [{1: GR(1)}]


# nonzero Q(i) values, most of them not units
PEEL_VALUES = st.builds(lambda a, b, d: GR(Fraction(a, d), b),
                        st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3)).filter(bool)


@st.composite
def peel_patterns(draw):
    """A Q(i) matrix up to 12 x 12, block diagonal in shuffled rows and
    columns, from blocks that singleton peeling meets: a lone entry, a
    cascade (a bidiagonal chain that a last singleton unravels), the core
    [[a, a], [a, -a]] that no singleton opens, a dense block, empty rows
    and columns.  A few stray entries may couple the blocks and some rows
    may be repeated, scaled, so the rank drops."""
    rows: list[dict] = []
    cols = 0
    for kind in draw(st.lists(st.sampled_from(["lone", "cascade", "core", "dense", "empty"]),
                              max_size=3)):
        if kind == "lone":
            block, width = [{0: draw(PEEL_VALUES)}], 1
        elif kind == "cascade":
            width = draw(st.integers(2, 4))
            block = [{i: draw(PEEL_VALUES), i + 1: draw(PEEL_VALUES)} for i in range(width - 1)]
            block.append({width - 1: draw(PEEL_VALUES)})
        elif kind == "core":
            a = draw(PEEL_VALUES)
            block, width = [{0: a, 1: a}, {0: a, 1: -a}], 2
        elif kind == "dense":
            width = draw(st.integers(2, 3))
            entries = st.dictionaries(st.integers(0, width - 1), PEEL_VALUES, min_size=width - 1)
            block = [draw(entries) for _ in range(width)]
        else:
            width = draw(st.integers(0, 2))
            block = [{} for _ in range(draw(st.integers(0, 2)))]
        rows += [{cols + j: x for j, x in row.items()} for row in block]
        cols += width
    if rows and cols:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, cols - 1))
            rows[i][j] = draw(PEEL_VALUES)
        for _ in range(draw(st.integers(0, min(2, 12 - len(rows))))):
            f = draw(PEEL_VALUES)
            rows.append({j: f * x for j, x in draw(st.sampled_from(rows)).items()})
    row_order = draw(st.permutations(range(len(rows))))
    col_order = draw(st.permutations(range(cols)))
    return ExactMatrix(len(rows), cols,
                       [{col_order[j]: x for j, x in rows[i].items()} for i in row_order])


class TestStructuralRank:
    @given(peel_patterns())
    @example(ExactMatrix(0, 3, []))
    @example(ExactMatrix(3, 0, [{}, {}, {}]))
    @example(ExactMatrix(0, 0, []))
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_echelon_and_pivot_columns(self, m):
        want = Echelon(m.cols, m.sparse_rows).rank
        ranked_first = ExactMatrix(m.rows, m.cols, m.sparse_rows)
        assert rank_const(ranked_first) == want
        assert len(pivot_columns(ranked_first)) == want
        assert rank_const(ranked_first) == want
        pivots_first = ExactMatrix(m.rows, m.cols, m.sparse_rows)
        assert len(pivot_columns(pivots_first)) == want
        assert rank_const(pivots_first) == want

    def test_cascade_peels_to_nothing(self):
        a, b = GR(2, 1), GR(Fraction(-1, 3))
        m = ExactMatrix(4, 4, [{0: a, 1: b}, {1: a, 2: b}, {2: a, 3: b}, {3: a}])
        assert _peel(m.sparse_rows) == (4, {})
        assert rank_const(m) == 4 and m._pivots is None
        # no row singleton: the columns at either end open the chain
        m = ExactMatrix(3, 4, [{0: a, 1: b}, {1: b, 2: a}, {2: a, 3: a}])
        assert _peel(m.sparse_rows) == (3, {})
        assert rank_const(m) == 3 and m._pivots is None

    def test_core_without_singletons_is_eliminated_whole(self):
        # [[1, 1], [1, -1]] next to a row singleton that opens nothing
        m = ExactMatrix(3, 3, [{0: GR(1), 1: GR(1), 2: GR(3)}, {0: GR(1), 1: GR(-1)}, {2: GR(5)}])
        assert _peel(m.sparse_rows) == (1, {0: {0, 1}, 1: {0, 1}})
        assert rank_const(m) == 3 and m._pivots is None
        # with no singleton at all, the whole matrix is eliminated and its
        # pivots are kept for a later pivot_columns or solve_const
        core = ExactMatrix(2, 2, [{0: GR(1), 1: GR(1)}, {0: GR(1), 1: GR(-1)}])
        assert _peel(core.sparse_rows)[0] == 0
        assert rank_const(core) == 2 and core._pivots == (0, 1)

    def test_duplicate_singletons_count_once(self):
        m = ExactMatrix(4, 3, [{1: GR(2)}, {1: GR(0, 1)}, {}, {0: GR(1), 1: GR(1)}])
        assert rank_const(m) == 2


@st.composite
def solve_cases(draw):
    """A Q(i) matrix up to 5 x 6 and right-hand sides for it.  Some rows
    are combinations of two others and some columns are zero, so ranks
    drop; each right-hand side is either m x for a drawn x (solvable) or
    drawn outright (often not)."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    value = st.builds(GR, st.integers(-2, 2), st.integers(-1, 1))
    dense = [[draw(value) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        if rows >= 2 and draw(st.booleans()):
            j, k = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            a, b = draw(value), draw(value)
            dense[i] = [a * x + b * y for x, y in zip(dense[j], dense[k])]
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2)) if cols else set()
    dense = [[GR(0) if j in zero_cols else x for j, x in enumerate(row)] for row in dense]
    m = ExactMatrix(rows, cols, dense)
    rhs = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            x = [draw(value) for _ in range(cols)]
            rhs.append(dense_apply(dense, x))
        else:
            rhs.append([draw(value) for _ in range(rows)])
    return m, rhs


class TestSolve:
    def test_solve_and_inconsistency(self):
        m = ExactMatrix(2, 2, [[GR(1), GR(2)], [GR(2), GR(4)]])
        assert solve_const(m, {0: GR(1), 1: GR(2)}) == {0: GR(1)}
        assert solve_const(m, {0: GR(1), 1: GR(3)}) is None
        assert solve_const(m, {1: GR(3)}) is None
        assert solve_const(m, {}) == {}
        assert solve_const(m, {0: GR(0), 1: GR(0)}) == {}

    @given(solve_cases())
    @settings(max_examples=150, deadline=None)
    def test_memoized_solver_matches_the_augmented_rref(self, case):
        m, rhs_list = case
        for rhs in rhs_list:
            want = augmented_solve(m, rhs)
            assert solve_const(m, nonzeros(rhs)) == (None if want is None else nonzeros(want))

    def test_second_solve_runs_no_elimination(self, monkeypatch):
        m = ExactMatrix(3, 4, [[GR(1), GR(2), GR(0), GR(1)], [GR(2), GR(4), GR(1), GR(0)],
                               [GR(3), GR(6), GR(1), GR(1)]])
        steps = []
        real = Echelon._insert

        def counting(self, r):
            steps.append(r)
            return real(self, r)

        monkeypatch.setattr(Echelon, "_insert", counting)
        assert solve_const(m, {0: GR(1), 1: GR(1), 2: GR(2)}) == {0: GR(1), 2: GR(-1)}
        assert steps  # the pivots, then the solver
        del steps[:]
        assert solve_const(m, {0: GR(1), 2: GR(1)}) == {0: GR(1), 2: GR(-2)}
        assert solve_const(m, {2: GR(1)}) is None
        assert steps == []

    def test_polynomial_matrix_is_refused(self):
        m = ExactMatrix(1, 1, [[tvar()]])
        with pytest.raises(LinalgError, match="polynomial"):
            solve_const(m, {0: GR(1)})

    @pytest.mark.parametrize("rhs", [{2: GR(1)}, {-1: GR(1)}, {0: GR(1), 5: GR(2)}])
    def test_out_of_range_rhs_is_refused(self, rhs):
        m = ExactMatrix(2, 2, [[GR(1), GR(0)], [GR(0), GR(1)]])
        with pytest.raises(LinalgError, match="rhs"):
            solve_const(m, rhs)


def test_dense_vectors_are_refused():
    # {index: value} mappings are the one vector format of elimination,
    # solving and projection: a list raises instead of being read
    m = ExactMatrix(2, 2, [[GR(1), GR(0)], [GR(0), GR(1)]])
    cb = cohomology(ExactMatrix.zeros(2, 0), ExactMatrix.zeros(0, 2))
    ech = Echelon(2, [{0: GR(1)}])
    for call in (lambda: solve_const(m, [GR(1), GR(0)]),
                 lambda: cb.project([GR(1), GR(0)]),
                 lambda: Echelon(2, [[GR(1), GR(0)]]),
                 lambda: ech.add([GR(0), GR(1)]),
                 lambda: ech.residue([GR(0), GR(1)])):
        with pytest.raises(LinalgError, match="mapping"):
            call()
    assert ech.rows() == [{0: GR(1)}]


@st.composite
def qi_complexes(draw):
    """A Q(i) complex  . --d_in--> . --d_out--> .  on up to 8 coordinates:
    d_out's rows are drawn sparse-ish, and d_in's columns are combinations
    of d_out's kernel vectors, so the image is a drawn part of the kernel."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    value = st.builds(GR, st.sampled_from([0, 0, 0, 1, -1, 2]), st.sampled_from([0, 0, 1]))
    rows = [[draw(value) for _ in range(n)] for _ in range(m)]
    ker = rref_kernel(rows, n)
    cols = []
    for _ in range(draw(st.integers(0, len(ker)))):
        v = [GR(0)] * n
        for k in ker:
            c = draw(st.sampled_from([GR(0), GR(1), GR(-1), GR(3)]))
            v = [a + c * b for a, b in zip(v, k)]
        cols.append(v)
    d_in = ExactMatrix.from_columns(n, cols) if cols else ExactMatrix.zeros(n, 0)
    return d_in, ExactMatrix(m, n, rows), cols, ker


class TestCohomology:
    @given(qi_complexes())
    @settings(max_examples=150, deadline=None)
    def test_representatives_match_the_dense_quotient_oracle(self, case):
        # a representative is reduced once, when it is taken: later ones
        # must not reduce it further
        d_in, d_out, image, ker = case
        cob = cohomology(d_in, d_out)
        assert [dict(r) for r in cob.sparse_representatives] == quotient_representatives(image, ker)

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

    @pytest.mark.parametrize("homology", [cohomology, cohomology_dim])
    def test_composition_check_names_column(self, homology):
        with pytest.raises(LinalgError, match="column 0"):
            homology(ExactMatrix(1, 1, [[GR(1)]]), ExactMatrix(1, 1, [[GR(1)]]))
        # the first nonzero column, not the column of the first nonzero row
        swap = ExactMatrix(2, 2, [[0, 1], [1, 0]])
        with pytest.raises(LinalgError, match="column 0"):
            homology(swap, ExactMatrix(2, 2, [{0: GR_ONE}, {1: GR_ONE}]))

    @pytest.mark.parametrize("homology", [cohomology, cohomology_dim, _cohomology])
    def test_every_path_checks_entries_and_shapes(self, homology):
        # the product-free core skips d_out . d_in only
        t = Poly.variable(("t",), "t")
        with pytest.raises(LinalgError, match="cohomology expects constant matrices"):
            homology(ExactMatrix(1, 1, [[t]]), ExactMatrix.zeros(1, 1))
        with pytest.raises(LinalgError, match="chain shape mismatch"):
            homology(ExactMatrix.zeros(2, 1), ExactMatrix.zeros(1, 3))

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
            assert cb.dim == len(ker) - rank_const(d_in) == cohomology_dim(d_in, d_out)
            if cb.dim and cols_in:
                rep = cb.sparse_representatives[0]
                shifted = dict(rep)
                for i, x in d_in.sparse_columns[0].items():
                    accumulate(shifted, i, x)
                assert cb.project(shifted) == cb.project(rep)
            for k, rep in enumerate(cb.sparse_representatives):
                assert cb.project(rep) == {k: GR(1)}

    def test_projecting_non_closed_vector_fails(self):
        d_out = ExactMatrix(1, 2, [[GR(1), GR(0)]])
        d_in = ExactMatrix(2, 0, [[], []])
        cb = cohomology(d_in, d_out)
        with pytest.raises(LinalgError, match="outside kernel"):
            cb.project({0: GR(1)})


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

    def test_jet_entries_are_refused(self):
        # a Jet is a Poly, but ranks over truncated arithmetic are not the
        # generic ranks of a polynomial matrix
        t = Poly.variable(T, "t")
        for build in (lambda: ExactMatrix(1, 1, [[Jet(t, 1)]]),
                      lambda: ExactMatrix(1, 2, [{0: t, 1: Jet(t, 2)}]),
                      lambda: ExactMatrix.from_columns(1, [[Jet(t, 1)]])):
            with pytest.raises(TypeError, match=r"cannot coerce Jet into Q\(i\)"):
                build()

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
            assert Echelon(3, rows[:1]).rows() == [{0: GR(1), 2: GR(0, 2)}]
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
            lambda: ExactMatrix(1, 2, [[1, 2]]).matmul(ExactMatrix(1, 1, [{0: GR_ONE}])),
            lambda: ExactMatrix(1, 2, [[1, 2]]).apply([GR(1)]),
        ):
            with pytest.raises(LinalgError):
                build()
