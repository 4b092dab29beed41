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
    ray as deform_ray,
    parallelisable_witness,
    second_class_subspace,
    validate_first_order,
)
from hodgejump.errors import InternalInvariantError, ValidationFailure
from hodgejump.exterior import (
    ComplexStructureSpec,
    InvariantForm,
    VectorForm,
    _indices,
    basis_monomials,
    contract,
    deformed_coframe,
    differential,
    validate_spec,
    wedge,
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
    predicted,
    random_form,
    random_gr,
    random_vector_form,
    threefold_row,
)


DATA = Path(__file__).parent / "data"


def pv(name):
    return Poly.variable(IW_PARAMS, name)


def mixed_n5():
    # d f3 = f1^c1, d f4 = f1^f3, d f5 = f1^c3 + f2^c2
    return ComplexStructureSpec(5, A={4: {(1, 3): GR(1)}},
                                B={3: {(1, 1): GR(1)}, 5: {(1, 3): GR(1), (2, 2): GR(1)}})


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
IW_POINT = {"t11": GR(1), "t12": GR(2), "t21": GR(0, 1), "t22": GR(-1), "t31": GR(1), "t32": GR(0)}


def _poly_ray(psi1, point):
    """``deform.ray`` with polynomial coefficients: s -> s psi1(point)."""
    return VectorForm(psi1.spec, 1, {key: Poly(("s",), {(1,): c})
                                     for key, c in psi1.eval_point(point).coeffs.items()})

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


def _jet_matrix(m, order):
    """The Q(i) matrix of m on jets of the given order, block by block:
    block (k, a) is the s^(k-a) coefficient matrix of m for a <= k, and
    zero above the diagonal."""
    def coefficient(x, b):
        return x.terms.get((b,), GR(0)) if isinstance(x, Poly) else x if b == 0 else GR(0)

    rows = [{} for _ in range(m.rows * (order + 1))]
    for k in range(order + 1):
        for a in range(k + 1):
            for i, row in enumerate(m.sparse_rows):
                for j, x in row.items():
                    rows[k * m.rows + i][a * m.cols + j] = coefficient(x, k - a)
    return linalg.ExactMatrix(len(rows), m.cols * (order + 1), rows)


def _assert_same_dbar_matrices(spec, order=1):
    """``dbar_matrix`` of the spec's jet twin against the per-monomial
    matrices of the spec itself, on jets when the twin's delbar constants
    are (``_jet_matrix``)."""
    dol = Dolbeault(oracles.jet_twin(spec, order))
    for p in range(-1, spec.n + 2):
        for q in range(-1, spec.n + 2):
            got, want = dol.dbar_matrix(p, q), oracles.monomial_dbar_matrix(spec, p, q)
            if dol.order:
                want = _jet_matrix(want, order)
            assert (got.rows, got.cols) == (want.rows, want.cols), (p, q)
            assert got == want, (p, q)
            assert not got.is_polynomial(), (p, q)


class TestDbarAssembly:
    """The Leibniz assembly of ``dbar_matrix`` against one ``_d_monomial``
    call per basis monomial, out-of-range bidegrees included; a polynomial
    spec is assembled as its one-parameter jet twin."""

    @given(structure_specs(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_monomial_assembly(self, spec, order):
        _assert_same_dbar_matrices(spec, order)

    @pytest.mark.parametrize("spec_name", SPEC_NAMES + ["unordered_spec", "deformed_iwasawa",
                                                        "cancelling"])
    def test_fixed_specs_match_per_monomial_assembly(self, spec_name, request):
        if spec_name == "deformed_iwasawa":
            # the Iwasawa coframe deformed along a ray of the symbolic class
            spec, _ = deformed_coframe(request.getfixturevalue("iwasawa"),
                                       _poly_ray(request.getfixturevalue("iw_psi1"), IW_POINT))
            assert any(isinstance(c, Poly) for row in spec.B.values() for c in row.values())
        elif spec_name == "cancelling":
            # at (3,2) -> (3,3) one entry sums a B term (f1 -> f1^c3) and two
            # Abar terms, +-s, -+s and +-1: the jets cancel to a Q(i) value
            spec = ComplexStructureSpec(3, B={1: {(1, 3): S}},
                                        Abar={1: {(1, 3): -S}, 2: {(2, 3): GR(1)}}, Bbar={})
        else:
            spec = request.getfixturevalue(spec_name)
        for order in (1, 2):
            _assert_same_dbar_matrices(spec, order)

    def test_multi_parameter_families_are_refused(self, iwasawa, iw_psi1):
        # delbar constants lie in Q(i) or in the jets of one parameter; the
        # Iwasawa family in its six parameters, as polynomials and as jets,
        # is refused
        for spec in (deformed_coframe(iwasawa, iw_psi1)[0], mc_extend(iwasawa, iw_psi1, 2).deformed):
            for compute in (lambda: hodge_table(spec), lambda: Dolbeault(spec).dbar_matrix(1, 0)):
                with pytest.raises(linalg.LinalgError) as info:
                    compute()
                assert str(info.value) == "cohomology expects constant matrices"

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_ray_tables_are_jet_cohomology(self, iwasawa, iw_psi1, order):
        # a family along a ray has jets of one parameter: its table is
        # rank-nullity over the jet matrices of its polynomial twin, with
        # (K+1) C(n,p) C(n,q) cochains at (p, q), and it forms no basis
        fam = mc_extend(iwasawa, _poly_ray(iw_psi1, IW_POINT), order)
        poly, _ = deformed_coframe(iwasawa, VectorForm(
            iwasawa, 1, {key: Poly(c.params, c.terms) for key, c in fam.psi.coeffs.items()}))
        dol = Dolbeault(fam.deformed)
        assert dol.order == order
        table = dol.table()
        for p in range(4):
            for q in range(4):
                d_out = _jet_matrix(oracles.monomial_dbar_matrix(poly, p, q), order)
                d_in = _jet_matrix(oracles.monomial_dbar_matrix(poly, p, q - 1), order)
                assert dol.dbar_matrix(p, q) == d_out, (p, q)
                assert table[(p, q)] == linalg.cohomology_dim(d_in, d_out), (p, q)
        with pytest.raises(linalg.LinalgError, match="^cohomology expects constant matrices$"):
            dol.basis(1, 1)

    def test_factored_jet_tables_rank_the_p0_row(self):
        # no B terms and Abar in one parameter: on jets delbar_{p,q} is still
        # (-1)^p I_{C(n,p)} (x) delbar_{0,q}, up to the order of the cochains
        spec = ComplexStructureSpec(5, A={5: {(1, 2): GR(-1)}, 4: {(1, 3): GR(-1)}},
                                    Abar={5: {(1, 2): S - 1}, 4: {(1, 3): S * S - 1}}, Bbar={})
        dol = Dolbeault(oracles.jet_twin(spec, 2))
        assert dol._factorable() and dol.order == 2
        table = dol.table()
        assert {p for p, q in dol._matrices if (p, q) != (5, 4)} == {0}
        for p in range(6):
            for q in range(6):
                d_out = _jet_matrix(oracles.monomial_dbar_matrix(spec, p, q), 2)
                d_in = _jet_matrix(oracles.monomial_dbar_matrix(spec, p, q - 1), 2)
                assert table[(p, q)] == linalg.cohomology_dim(d_in, d_out), (p, q)


def _public_table(spec):
    """The Hodge table through the public ``linalg.cohomology_dim``, which
    forms d_out . d_in at every bidegree."""
    dol = Dolbeault(spec)
    out = {}
    for p in range(spec.n + 1):
        for q in range(spec.n + 1):
            d_out = dol.dbar_matrix(p, q)
            d_in = dol.dbar_matrix(p, q - 1) if q else linalg.ExactMatrix.zeros(d_out.cols, 0)
            out[(p, q)] = linalg.cohomology_dim(d_in, d_out)
    return out


def _outcome(compute):
    try:
        return compute()
    except (linalg.LinalgError, TypeError) as e:
        return type(e), str(e)


class TestGeneratorCheck:
    """d.d = 0 is checked once per spec on generator bitmasks, and stands
    in for the d_out . d_in product at every bidegree of a table."""

    @given(structure_specs())
    @settings(max_examples=150, deadline=None)
    def test_validate_spec_matches_the_form_oracle(self, spec):
        assert validate_spec(spec) == oracles.form_validate_spec(spec)

    @given(structure_specs())
    @settings(max_examples=150, deadline=None)
    def test_passing_specs_have_delbar_squared_zero_at_every_bidegree(self, spec):
        if [d for d in validate_spec(spec) if d.severity == "error"]:
            return
        # a polynomial spec as its jet twin: d.d = 0 holds modulo s^2
        dol = Dolbeault(oracles.jet_twin(spec, 1))
        for p in range(spec.n + 1):
            for q in range(1, spec.n + 1):
                assert dol.dbar_matrix(p, q).matmul(dol.dbar_matrix(p, q - 1)).is_zero(), (p, q)

    @given(structure_specs())
    @settings(max_examples=60, deadline=None)
    def test_table_refuses_exactly_what_the_chain_product_refuses(self, spec):
        assert _outcome(Dolbeault(spec).table) == _outcome(lambda: _public_table(spec))

    def test_tables_over_two_parameter_tuples_fall_back_to_the_products(self):
        # A in s and Bbar in t cannot be multiplied together, so d.d on the
        # generators raises; delbar has Q(i) entries and the table is the
        # one the per-bidegree products give
        s, t = Poly.variable(("s",), "s"), Poly.variable(("t",), "t")
        spec = ComplexStructureSpec(3, A={1: {(2, 3): s}}, Abar={3: {(1, 2): GR(-1)}},
                                    Bbar={2: {(1, 1): t}})
        with pytest.raises(CoefficientError):
            validate_spec(spec)
        assert hodge_table(spec) == _public_table(spec)


@st.composite
def two_step_specs(draw):
    """Two-step nilpotent structures up to n = 5: f_1..f_m closed and each
    other d f_k a Q(i) combination of f_i^f_j and f_i^c_j with i, j <= m,
    so d.d = 0 and the algebra is unimodular."""
    n = draw(st.integers(1, 5))
    closed = range(1, draw(st.integers(1, n)) + 1)
    pairs = list(itertools.combinations(closed, 2))
    A, B = {}, {}
    for k in range(len(closed) + 1, n + 1):
        if pairs:
            A[k] = draw(st.dictionaries(st.sampled_from(pairs), QI, max_size=3))
        B[k] = draw(st.dictionaries(st.tuples(st.sampled_from(closed), st.sampled_from(closed)),
                                    QI, max_size=3))
    return ComplexStructureSpec(n, A, B)


class TestSerreDuality:
    """delbar_{p,q} is a signed transpose of delbar_{n-p,n-1-q} once delbar
    is zero on (n, n-1)-forms, so a certified table ranks one of each pair."""

    @given(two_step_specs())
    @settings(max_examples=80, deadline=None)
    def test_certified_tables_equal_the_full_path(self, spec):
        n = spec.n
        dol = Dolbeault(spec)
        table = dol.table()
        assert dol._dd_ok() and dol.dbar_matrix(n, n - 1).is_zero()
        # one member of each of the n(n+1)/2 dual pairs, and the certificate
        assert len(dol._matrices) <= n * (n + 1) // 2 + 1
        assert table == _public_table(spec)

    @pytest.mark.parametrize("spec, pinned", [
        # d f1 = f1^c1
        (ComplexStructureSpec(1, B={1: {(1, 1): GR(1)}}),
         {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0}),
        # d f2 = f1^f2
        (ComplexStructureSpec(2, A={2: {(1, 2): GR(1)}}), {(0, 0): 1, (2, 2): 0}),
    ], ids=["n1", "n2"])
    def test_non_unimodular_specs_keep_the_full_path(self, spec, pinned):
        # d.d = 0 and Q(i) constants, but delbar != 0 on (n, n-1)-forms: the
        # table is not symmetric, and no rank is taken from a dual
        n = spec.n
        dol = Dolbeault(spec)
        table = dol.table()
        assert dol._dd_ok() and not dol.dbar_matrix(n, n - 1).is_zero()
        assert table.items() >= pinned.items()
        assert table == _public_table(spec)


@st.composite
def a_only_two_step_specs(draw):
    """Complex-parallelisable two-step structures, 2 <= n <= 6: f_1..f_m
    closed and each other d f_k a combination of f_i^f_j (i, j <= m) with
    seeded nonzero Q(i) coefficients, and no ``B`` terms."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    A = {k: {ij: random_gr(rng, zero_ok=False)
             for ij in rng.sample(pairs, rng.randint(1, min(3, len(pairs))))}
         for k in range(m + 1, n + 1)}
    return ComplexStructureSpec(n, A)


def _assert_bases_match_the_monomial_oracle(spec, rng):
    """Table, bases and projections of a fresh ``Dolbeault`` equal
    ``linalg.cohomology`` of the per-monomial delbar matrices, at every
    0 <= p <= n+1 and 0 <= q <= n."""
    n, dol = spec.n, Dolbeault(spec)
    table = dol.table()
    for p in range(n + 2):
        for q in range(n + 1):
            d_out = oracles.monomial_dbar_matrix(spec, p, q)
            d_in = (oracles.monomial_dbar_matrix(spec, p, q - 1) if q
                    else linalg.ExactMatrix.zeros(d_out.cols, 0))
            want, got = linalg.cohomology(d_in, d_out), dol.basis(p, q).cob
            assert got.dim == want.dim == table.get((p, q), 0), (p, q)
            assert got.sparse_representatives == want.sparse_representatives, (p, q)
            assert got.coords.width == want.coords.width, (p, q)
            assert got.coords.rows() == want.coords.rows(), (p, q)
            coeffs = [random_gr(rng) for _ in range(want.dim)]
            v = dict(enumerate(d_in.apply([random_gr(rng) for _ in range(d_in.cols)])))
            for c, rep in zip(coeffs, want.sparse_representatives):
                for j, x in rep.items():
                    accumulate(v, j, c * x)
            assert got.project(v) == want.project(v) == {k: c for k, c in enumerate(coeffs) if c}


class TestFactoredDolbeault:
    """With no ``B`` terms, Q(i) constants and d.d = 0, delbar_{p,q} =
    (-1)^p I_{C(n,p)} (x) delbar_{0,q}: ranks and bases at p >= 1 come from
    the (0, q) row, and equal the per-monomial cohomology."""

    @given(a_only_two_step_specs(), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_factored_bases_equal_the_monomial_cohomology(self, spec, seed):
        dol = Dolbeault(spec)
        assert dol._factorable()
        _assert_bases_match_the_monomial_oracle(spec, random.Random(seed))
        n = spec.n
        assert {p for p, q in dol._matrices if (p, q) != (n, n - 1)} <= {0, n + 1}

    @pytest.mark.parametrize("spec, factorable", [
        # d f2 = f1^f2, d f3 = -f1^f3: unimodular and solvable, not nilpotent
        (ComplexStructureSpec(3, A={2: {(1, 2): GR(1)}, 3: {(1, 3): GR(-1)}}), True),
        # d f5 = f1^f2 + f2^c3, d f4 = f1^f3 + f3^c2: B != 0, every basis eliminated
        (ComplexStructureSpec(5, A={5: {(1, 2): GR(1)}, 4: {(1, 3): GR(1)}},
                              B={5: {(2, 3): GR(1)}, 4: {(3, 2): GR(1)}}), False),
    ], ids=["solvable", "b_control"])
    def test_fixed_specs_equal_the_monomial_cohomology(self, spec, factorable):
        assert Dolbeault(spec)._factorable() is factorable
        _assert_bases_match_the_monomial_oracle(spec, random.Random(1))

    @pytest.mark.parametrize("spec, message", [
        # d.d != 0: d f2 = f1^c1, d f3 = f2^c2; and d f3 = f1^c1, d f4 = -f1^f2 + f3^c3
        (ComplexStructureSpec(3, B={2: {(1, 1): GR(1)}, 3: {(2, 2): GR(1)}}),
         "d_out . d_in nonzero on column 2"),
        (ComplexStructureSpec(4, A={4: {(1, 2): GR(-1)}},
                              B={3: {(1, 1): GR(1)}, 4: {(3, 3): GR(1)}}),
         "d_out . d_in nonzero on column 3"),
        # Poly structure constants, with and without B terms
        (ComplexStructureSpec(3, A={3: {(1, 2): GR(-1)}}, B={3: {(1, 1): S}},
                              Abar={3: {(1, 2): GR(-1)}}, Bbar={}),
         "cohomology expects constant matrices"),
        (ComplexStructureSpec(3, A={3: {(1, 2): S}}, Abar={3: {(1, 2): S}}, Bbar={}),
         "cohomology expects constant matrices"),
    ], ids=["dd_n3", "dd_n4", "poly_b", "poly_b_free"])
    def test_tables_keep_their_errors(self, spec, message):
        with pytest.raises(linalg.LinalgError) as info:
            hodge_table(spec)
        assert type(info.value) is linalg.LinalgError and str(info.value) == message


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
            spec = mixed_n5()
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
        assert predicted(jump_report(mixed_spec, psi, point)) == oracle

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
        assert predicted(table) == oracle

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
        assert fam.psi.homogeneous_part(1) == iw_psi1
        assert fam.psi.homogeneous_part(2) == fam.corrections[2]


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

    # jump's oracle extends the ray through the point alone: t13=1 extends,
    # and the ray through t13=1, t22=1 meets the t13*t22 residual
    @pytest.mark.parametrize("argv", [["mc"], ["jump", "--point", "t13=1,t22=1"]])
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

    @pytest.mark.parametrize("case, order, counts", [
        ("iwasawa", 2, (31, 9)), ("iwasawa_su.json", 3, (33, 7)), ("two_step_u_n6.json", 2, (2176, 320))])
    def test_extensions_are_closed_lifts_of_their_classes(self, case, order, counts, request):
        # every class of H^{p,q}, q < n: an extended class comes with a
        # delbar-closed form in the deformed coframe whose constant terms
        # are the class representative
        if case == "iwasawa":
            spec, psi1 = request.getfixturevalue("iwasawa"), request.getfixturevalue("iw_psi1")
        else:
            man = load_manifest(str(DATA / case))
            spec, psi1 = man.spec, man.psi1
        fam = mc_extend(spec, psi1, order)
        dol = Dolbeault.of(spec)
        extended = obstructed = 0
        for p in range(spec.n + 1):
            for q in range(spec.n):
                basis = dol.basis(p, q)
                for k in range(basis.dim):
                    alpha = basis.rep_form(spec, k)
                    res = extend_class(fam, alpha, order)
                    if res.status == "obstructed":
                        obstructed += 1
                        continue
                    extended += 1
                    ext = res.extension
                    assert ext.spec == fam.deformed and (ext.p, ext.q) == (p, q)
                    assert not differential(fam.deformed, ext)[1], (p, q, k)
                    constant = {key: c.constant_term() for key, c in ext.coeffs.items()}
                    assert {key: c for key, c in constant.items() if c} == dict(alpha.coeffs)
        assert (extended, obstructed) == counts

    def test_o1_refuses_a_direction_in_two_parameter_tuples(self, iwasawa):
        psi = VectorForm(iwasawa, 1, {(1, (1,)): Poly.variable(("s",), "s"),
                                      (2, (2,)): Poly.variable(("t",), "t")})
        with pytest.raises(CoefficientError, match=re.escape("parameter mismatch: ('s',) vs ('t',)")):
            obstruction_o1(iwasawa, psi, 1, 0)

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


def test_jet_ranks_along_the_ray_count_the_orders_of_obstruction():
    # the undercount example along s -> s theta1 (x) c1: delbar_{p,q} on jets
    # of order K has rank sum_i max(0, K+1-e_i) over the local Smith
    # exponents e_i of D(s), so going from order K-1 to K adds #{e_i <= K}.
    # Two exponents equal 2 out of (2,1), (2,3), (3,1) and (3,3), where the
    # first-order prediction misses the drop; four equal 1 out of (2,0)
    psi = VectorForm(TWO_STEP5, 1, {(1, (1,)): Poly.variable(("u",), "u")})
    ray = deform_ray(psi, {"u": GR(1)})
    dols = [Dolbeault.of(TWO_STEP5)] + [Dolbeault.of(mc_extend(TWO_STEP5, ray, k).deformed)
                                        for k in (1, 2, 3)]
    assert [dol.order for dol in dols] == [0, 1, 2, 3]
    ranks = {pq: [dol._rank(*pq) for dol in dols] for pq in ((2, 0), (2, 1), (2, 3), (3, 1), (3, 3))}
    assert ranks == {(2, 0): [0, 4, 8, 12], (2, 1): [20, 40, 62, 84], (2, 3): [20, 40, 62, 84],
                     (3, 1): [20, 40, 62, 84], (3, 3): [20, 40, 62, 84]}
    for r in ranks.values():
        at_most = [b - a for a, b in zip([0] + r, r)]  # #{e_i <= K} for K = 0..3
        counts = {k: b - a for k, (a, b) in enumerate(zip([0] + at_most, at_most)) if b - a}
        assert counts == ({1: 4} if r[0] == 0 else {0: 20, 2: 2})


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

    @pytest.mark.parametrize("max_order", [1, 2])
    def test_every_mixed_i_class(self, max_order):
        # d f3 = i f1^c1 has a B term; the 42 classes at q < 3 all extend
        man = load_manifest(str(DATA / "mixed_i.json"))
        spec = man.spec
        assert any(spec.B.values())
        fam = mc_extend(spec, man.psi1, 2)
        dol = Dolbeault.of(spec)
        seen = []
        for p in range(spec.n + 1):
            for q in range(spec.n):
                basis = dol.basis(p, q)
                for k in range(basis.dim):
                    alpha = basis.rep_form(spec, k)
                    got = extend_class(fam, alpha, max_order)
                    assert got == oracles.dense_extend_class(fam, alpha, max_order), (p, q, k)
                    seen.append((got.status, got.order))
        assert seen == [("extended", max_order)] * 42

    def test_seeded_two_step_u_n6_classes_of_each_outcome(self):
        # four classes drawn from each outcome the oracle reports at order 2
        man = load_manifest(str(DATA / "two_step_u_n6.json"))
        spec = man.spec
        fam = mc_extend(spec, man.psi1, 2)
        basis = Dolbeault.of(spec).basis(3, 2)
        alphas = [basis.rep_form(spec, k) for k in range(basis.dim)]
        by_outcome: dict = {}
        for alpha in alphas:
            want = oracles.dense_extend_class(fam, alpha, 2)
            by_outcome.setdefault((want.status, want.order), []).append((alpha, want))
        assert sorted(by_outcome) == [("extended", 2), ("obstructed", 1), ("obstructed", 2)]
        rng = random.Random(32)
        for outcome in sorted(by_outcome):
            for alpha, want in rng.sample(by_outcome[outcome], 4):
                got = extend_class(fam, alpha, 2)
                for field in type(got)._fields:
                    assert getattr(got, field) == getattr(want, field), (outcome, field)

    def test_a_sweep_builds_nothing_of_the_form_or_target_space(self, monkeypatch):
        # once the bases exist, a call reads no list of (2,1)-monomials, and
        # a class that extends reads no length h^{2,2} either
        from hodgejump import deform, exterior

        psi = VectorForm(TWO_STEP5, 1, {(1, (1,)): Poly.variable(("u",), "u")})
        fam = mc_extend(TWO_STEP5, psi, 2)
        basis = Dolbeault.of(TWO_STEP5).basis(2, 1)
        alphas = [basis.rep_form(TWO_STEP5, k) for k in range(basis.dim)]
        extend_class(fam, alphas[0], 2)
        monomial_lists, dim_reads = [], []
        assert not hasattr(deform, "basis_monomials")  # the layout is deform's one index
        monkeypatch.setattr(exterior, "basis_monomials",
                            lambda *a: monomial_lists.append(a) or basis_monomials(*a))
        dim = deform.DolbeaultBasis.dim
        monkeypatch.setattr(deform.DolbeaultBasis, "dim",
                            property(lambda b: dim_reads.append(b) or dim.fget(b)))
        extended = 0
        for alpha in alphas:
            dim_reads.clear()
            res = extend_class(fam, alpha, 2)
            if res.status == "extended":
                extended += 1
                assert dim_reads == []
        assert monomial_lists == [] and extended == 28


class TestSparseProjection:
    """Class coordinates of {index: value} vectors, and the rejections."""

    @pytest.mark.parametrize("name", ["iwasawa", "two_step5"])
    def test_projection_returns_the_drawn_class_coordinates(self, name, iwasawa):
        spec = iwasawa if name == "iwasawa" else TWO_STEP5
        dol = Dolbeault.of(spec)
        rng = random.Random(name)
        rejected = 0
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                basis = dol.basis(p, q)
                cob = basis.cob
                monomials = basis_monomials(spec.n, p, q)
                width = len(monomials)
                image = dol.dbar_matrix(p, q - 1).sparse_columns if q else ()
                for _ in range(4):
                    # v = sum_k c_k rep_k + an exact part: its coordinates are the c_k
                    v: dict = {}
                    want = {}
                    for k, vec in enumerate(cob.sparse_representatives + tuple(image)):
                        c = random_gr(rng)
                        if k < cob.dim and c:
                            want[k] = c
                        for j, x in vec.items():
                            accumulate(v, j, c * x)
                    assert cob.project(v) == want
                    form = InvariantForm(spec, p, q, {monomials[j]: x for j, x in v.items()})
                    assert basis.project_constant_form(form) == [want.get(k, GR(0))
                                                                 for k in range(cob.dim)]
                # a vector with nonzero delbar is rejected by every path
                d_out = dol.dbar_matrix(p, q)
                for j in range(min(width, 6)):
                    if not any(d_out.column(j)):
                        continue
                    rejected += 1
                    with pytest.raises(linalg.LinalgError, match="non-closed"):
                        basis.project_constant_form(
                            InvariantForm.monomial(spec, *monomials[j]))
                    with pytest.raises(linalg.LinalgError, match="outside kernel"):
                        cob.project({j: GR(1)})
        assert rejected

    def test_projection_checks_index_range_and_bidegree(self, iwasawa):
        basis = Dolbeault.of(iwasawa).basis(1, 1)
        width = len(basis_monomials(3, 1, 1))
        for index in (-1, width, width + basis.dim):  # a tag column is no vector index
            with pytest.raises(linalg.LinalgError, match="index out of range"):
                basis.cob.project({index: GR(1)})
        with pytest.raises(linalg.LinalgError, match=r"\(1,0\)-form onto H\^1,1"):
            basis.project_constant_form(InvariantForm.generator(iwasawa, "f", 1))
        with pytest.raises(TypeError, match="cannot coerce Poly"):
            basis.project_constant_form(InvariantForm.monomial(iwasawa, (1,), (1,), pv("t11")))

    def test_outside_kernel_plus_image_raises_through_project(self):
        # a hand-built basis whose coordinate echelon spans less than
        # Ker(d_out): a closed vector outside it is still rejected
        cob = linalg.cohomology(linalg.ExactMatrix.zeros(2, 0), linalg.ExactMatrix.zeros(0, 2))
        lopsided = linalg.CohomologyBasis(dim=1, sparse_representatives=cob.sparse_representatives[:1],
                                          coords=linalg.Echelon(3, [{0: GR(1), 2: GR(1)}]))
        with pytest.raises(linalg.LinalgError, match="outside kernel"):
            lopsided.project({1: GR(1)})
        assert lopsided.project({0: GR(2)}) == {0: GR(2)}

    @pytest.mark.parametrize("name", ["iwasawa", "two_step5"])
    def test_rep_form_matches_the_validating_constructor(self, name, iwasawa):
        spec = iwasawa if name == "iwasawa" else TWO_STEP5
        dol = Dolbeault.of(spec)
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                basis = dol.basis(p, q)
                monomials = basis_monomials(spec.n, p, q)
                for k, rep in enumerate(basis.cob.sparse_representatives):
                    dense = [rep.get(j, GR(0)) for j in range(len(monomials))]
                    want = InvariantForm(spec, p, q, dict(zip(monomials, dense)))
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


class TestMonomialLayout:
    """Every basis reads its complex's one layout of f_I ^ c_J, the order
    of ``basis_monomials``."""

    @pytest.mark.parametrize("name", ["iwasawa", "mixed_i.json", "two_step5", "two_step_u_n6.json"])
    def test_vector_keys_are_the_reference_monomials(self, name, iwasawa):
        spec = {"iwasawa": iwasawa, "two_step5": TWO_STEP5}.get(name)
        spec = spec or load_manifest(str(DATA / name)).spec
        dol = Dolbeault.of(spec)
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                basis, monomials = dol.basis(p, q), basis_monomials(spec.n, p, q)
                for k, rep in enumerate(basis.cob.sparse_representatives):
                    v = basis.vector(k)
                    assert [(_indices(I), _indices(J)) for I, J in v] == [monomials[j] for j in rep]
                    assert list(v.values()) == list(rep.values())
                    assert basis.positions(v) == rep
                    assert list(basis.rep_form(spec, k).coeffs) == [monomials[j] for j in rep]
                    assert basis.rep_form(spec, k).terms == v
        masks, index = dol.basis(0, 0).layout
        assert all([_indices(m) for m in masks[k]] == [I for I, _ in basis_monomials(spec.n, k, 0)]
                   and [index[m] for m in masks[k]] == list(range(len(masks[k]))) for k in masks)
        assert dol._factorable() == (name in ("iwasawa", "two_step5", "two_step_u_n6.json"))

    def test_bases_build_no_monomial_list(self, monkeypatch):
        from hodgejump import deform, exterior

        calls = []
        for module in (deform, exterior):  # raising=False: deform need not import it
            monkeypatch.setattr(module, "basis_monomials", lambda *a: calls.append(a) or basis_monomials(*a),
                                raising=False)
        spec = load_manifest(str(DATA / "two_step_u_n6.json")).spec
        dol = Dolbeault(spec)  # a fresh complex: nothing memoized
        dims = [dol.basis(p, q).dim for p in range(spec.n + 1) for q in range(spec.n + 1)]
        assert calls == [] and sum(dims) == sum(dol.table().values())

    def test_kernel_paths_decode_no_index_tuple(self, monkeypatch, iwasawa, iw_psi1):
        from hodgejump import exterior

        man = load_manifest(str(DATA / "two_step_u_n6.json"))
        fam = mc_extend(man.spec, man.psi1, 2)
        dol = Dolbeault.of(man.spec)
        basis, _ = dol.basis(3, 2), dol.basis(3, 3)
        for p, q in itertools.product(range(4), repeat=2):
            Dolbeault.of(iwasawa).basis(p, q)
        a = InvariantForm(iwasawa, 1, 1, {((1,), (1,)): GR(1), ((3,), (2,)): GR(2)})
        f3 = InvariantForm.generator(iwasawa, "f", 3)
        psi = VectorForm(iwasawa, 1, {(1, (2,)): GR(1), (3, (1,)): GR(-1)})
        calls = []
        monkeypatch.setattr(exterior, "_indices", lambda m, real=_indices: calls.append(m) or real(m))
        statuses = [extend_class(fam, basis.rep_form(man.spec, k), 2).status for k in range(basis.dim)]
        values = [wedge(a, f3), differential(iwasawa, f3)[0], contract(psi, a), contract(psi, f3),
                  o1_value(iwasawa, psi, f3), dbar_vector(iwasawa, VectorForm.term(iwasawa, 2, (3,)))]
        o1 = obstruction_o1(iwasawa, iw_psi1, 1, 0).matrix
        d1 = [frolicher_d1(iwasawa, p, q) for p, q in itertools.product(range(4), repeat=2)]
        witness = parallelisable_witness(iwasawa)
        assert calls == []
        assert {"extended", "obstructed"} <= set(statuses)
        assert all(values) and not o1.is_zero() and any(not m.is_zero() for m in d1) and witness


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
        # independent route: rank of the o1 matrix from (2,0) evaluated at the point
        assert sc.point_dim == linalg.rank_const(sc.o1.matrix.eval_point(point_iii))

    def test_torus_second_class_trivial(self, torus3):
        psi = VectorForm(
            torus3, 1,
            {(i, (lam,)): pv(f"t{i}{lam}") for i in (1, 2, 3) for lam in (1, 2)},
        )
        for p in range(4):
            for q in range(1, 4):
                assert second_class_subspace(torus3, psi, p, q).generic_dim == 0

    def test_jump_rows(self, iwasawa, iw_psi1, point_ii, point_iii):
        for point, row in ((point_ii, ROW_II), (point_iii, ROW_III), (point_of(), ROW_I)):
            assert threefold_row(predicted(jump_report(iwasawa, iw_psi1, point))) == row

    def test_jump_ranks_are_symbolic_ranks_at_the_point(self, iwasawa, iw_psi1):
        # jump_report ranks the jets of the deformed delbar at the point; the
        # independent route evaluates the symbolic o1 maps on cohomology bases
        def check(spec, psi1, points):
            n = spec.n
            reports = {(p, q): obstruction_o1(spec, psi1, p, q)
                       for p in range(n + 1) for q in range(n + 1)}
            for point in points:
                table = jump_report(spec, psi1, point)
                for (p, q), row in table.rows.items():
                    assert row.first == reports[(p, q)].rank_at(point), (point, p, q)
                    assert row.second == (reports[(p, q - 1)].rank_at(point) if q else 0)

        rng = random.Random(71)
        values = ["0", "1", "-1", "2/3*i", "1/2", "i", "-2+i"]
        points = [{t: GaussianRational.parse(v) for t in IW_PARAMS} for v in ("0", "2/3*i")]
        points += [{t: GaussianRational.parse(rng.choice(values)) for t in IW_PARAMS}
                   for _ in range(28)]
        check(iwasawa, iw_psi1, points)
        man = load_manifest(str(DATA / "two_step_u_n6.json"))
        check(man.spec, man.psi1, [{"u": GaussianRational.parse(v)} for v in ("1", "2/3", "i")])
        man = load_manifest(str(DATA / "mixed_i.json"))
        check(man.spec, man.psi1, [{t: GaussianRational.parse(rng.choice(values))
                                    for t in man.parameters} for _ in range(12)])
        # mixed_i's o1 maps all vanish; mixed_n5 along every closed
        # direction has B != 0 and o1 != 0
        spec = mixed_n5()
        keys = [(i, (lam,)) for i in range(1, 6) for lam in range(1, 6)
                if not dbar_vector(spec, VectorForm.term(spec, i, (lam,)))]
        params = tuple(f"t{i}{lam}" for i, (lam,) in keys)
        psi1 = VectorForm(spec, 1, {key: Poly.variable(params, t) for key, t in zip(keys, params)})
        check(spec, psi1, [{t: GaussianRational.parse(rng.choice(values)) for t in params}
                           for _ in range(8)])

    def test_dual_rows_equal_the_full_jet_ranks(self, iwasawa, iw_psi1):
        # jump_report takes first(p, q) from the dual pair (n-p, n-1-q) when
        # the ray spec is certified; here every bidegree's jet rank is taken
        # from the per-monomial matrices of the polynomial ray spec
        def check(spec, psi1, point):
            ray, _ = deformed_coframe(spec, _poly_ray(psi1, point))
            rows = jump_report(spec, psi1, point).rows
            for (p, q), row in rows.items():
                first = (linalg.rank_const(_jet_matrix(oracles.monomial_dbar_matrix(ray, p, q), 1))
                         - 2 * linalg.rank_const(oracles.monomial_dbar_matrix(spec, p, q)))
                assert row.first == first, (point, p, q)
                assert row.second == (rows[(p, q - 1)].first if q else 0)

        rng = random.Random(29)
        values = ["0", "1", "-1", "2/3*i", "1/2", "i", "-2+i"]
        for _ in range(10):
            check(iwasawa, iw_psi1, {t: GaussianRational.parse(rng.choice(values)) for t in IW_PARAMS})
        man = load_manifest(str(DATA / "two_step_u_n6.json"))
        check(man.spec, man.psi1, {"u": GR(1)})

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
            oracle = oracle_hodge_at_point(iwasawa, fam, pt)
            assert predicted(jump_report(iwasawa, iw_psi1, pt)) == oracle

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
