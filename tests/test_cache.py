"""Specs, matrices, forms and cached bases are immutable; each spec owns one
cached cohomology, and each matrix and free complex computes its invariants
once."""

import gc
import json
import random
import time
import weakref
from math import comb
from types import MappingProxyType
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hodgejump import cli, deform, freemod, linalg
from hodgejump.coeff import GaussianRational as GR
from hodgejump.coeff import GR_ONE, Jet, Poly
from hodgejump.deform import Dolbeault, extend_class, hodge_table, mc_extend, obstruction_o1
from hodgejump.exterior import ComplexStructureSpec, InvariantForm, VectorForm, validate_spec
from hodgejump.manifest import load_manifest, parse_manifest

from .conftest import random_lab_complex


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
        with pytest.raises(TypeError):
            m.sparse_rows[0][1] = GR(7)
        with pytest.raises(TypeError):
            del m.sparse_rows[1][1]
        with pytest.raises(TypeError):
            m.sparse_columns[0][1] = GR(7)
        assert m == linalg.ExactMatrix(2, 2, [{0: GR_ONE}, {1: GR_ONE}])
        assert m.sparse_rows == ({0: GR(1)}, {1: GR(1)})

    @pytest.mark.parametrize("kind", ["invariant", "vector"])
    def test_form_cannot_be_changed(self, iwasawa, kind):
        if kind == "invariant":
            form = InvariantForm.monomial(iwasawa, (1,), (2,), GR(3))
            attrs, key, mask_key = ("spec", "p", "q", "terms", "coeffs"), ((1,), (2,)), (0b10, 0b100)
        else:
            form = VectorForm.term(iwasawa, 1, (2,), GR(3))
            attrs, key, mask_key = ("spec", "q", "terms", "coeffs"), (1, (2,)), (1, 0b100)
        before = str(form)
        for name in attrs:
            with pytest.raises(AttributeError):
                setattr(form, name, 5)
        with pytest.raises(TypeError):
            form.coeffs[key] = GR(7)
        with pytest.raises(TypeError):
            form.terms[mask_key] = GR(7)
        assert form.terms == {mask_key: GR(3)} and form.coeffs == {key: GR(3)}
        assert str(form) == before

    @pytest.mark.parametrize("kind", ["gr", "poly", "jet", "form", "vector", "matrix", "spec"])
    def test_attributes_cannot_be_deleted(self, kind):
        spec = ComplexStructureSpec(3, A={3: {(1, 2): GR(-1)}})  # Iwasawa, unshared
        value, attrs = {
            "gr": (GR(1, 2), ("_a", "_b", "_d")),
            "poly": (Poly.variable(("t",), "t"), ("params", "terms")),
            "jet": (Jet(Poly.variable(("t",), "t"), 2), ("params", "terms", "order")),
            "form": (InvariantForm.monomial(spec, (1,), (2,), GR(3)), ("spec", "p", "q", "terms", "coeffs")),
            "vector": (VectorForm.term(spec, 1, (2,), GR(3)), ("spec", "q", "terms", "coeffs")),
            "matrix": (linalg.ExactMatrix(2, 2, [{0: GR_ONE}, {1: GR_ONE}]),
                       ("rows", "cols", "sparse_rows")),
            "spec": (spec, ("n", "A", "B", "Abar", "Bbar", "_hash", "_dolbeault", "_gen_d")),
        }[kind]
        before = str(value)
        for name in attrs:
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)
        assert str(value) == before
        if kind in ("gr", "poly", "jet"):
            assert value + value == value * 2

    def test_cached_basis_cannot_be_changed(self):
        spec = ComplexStructureSpec(3, A={3: {(1, 2): GR(-1)}})  # Iwasawa, unshared
        basis = Dolbeault.of(spec).basis(1, 1)
        assert str(basis.rep_form(spec, 0)) == "f1^c1"
        masks, index = basis.layout
        assert isinstance(masks, MappingProxyType) and sorted(masks) == [0, 1, 2, 3]
        assert all(type(level) is tuple for level in masks.values())
        with pytest.raises(TypeError):
            masks[1][0] = 0
        with pytest.raises(TypeError):
            masks[4] = ()
        assert masks[2] == (0b110, 0b1010, 0b1100)
        with pytest.raises(AttributeError):
            basis.layout = ()
        with pytest.raises(TypeError):
            basis.cores[(0, 1)] = None
        with pytest.raises(AttributeError):
            basis.cores[(0, 1)].sparse_representatives = ()
        with pytest.raises(TypeError):
            basis.cores[(0, 1)].sparse_representatives[0][0] = GR(0)
        assert Dolbeault.of(spec).basis(1, 1) is basis
        assert str(basis.rep_form(spec, 0)) == "f1^c1"

    def test_sparse_representatives_are_read_only(self):
        spec = ComplexStructureSpec(3, A={3: {(1, 2): GR(-1)}})  # Iwasawa, unshared
        cob = Dolbeault.of(spec).basis(1, 1).cores[(0, 1)]
        before = [dict(r) for r in cob.sparse_representatives]
        rep = cob.sparse_representatives[0]
        with pytest.raises(TypeError):
            rep[0] = GR(5)
        with pytest.raises(TypeError):
            rep[1] = GR(1)
        with pytest.raises(TypeError):
            del rep[0]
        with pytest.raises(TypeError):
            cob.sparse_representatives[0] = {}
        with pytest.raises(AttributeError):
            cob.sparse_representatives = ()
        index = Dolbeault.of(spec).basis(1, 1).layout[1]
        assert isinstance(index, MappingProxyType) and index[0b1000] == 2
        with pytest.raises(TypeError):
            index[0b1000] = 0
        with pytest.raises(TypeError):
            del index[0b10]
        assert index[0b1000] == 2 and len(index) == 8
        assert [dict(r) for r in cob.sparse_representatives] == before
        basis = Dolbeault.of(spec).basis(1, 1)
        assert str(basis.rep_form(spec, 0)) == "f1^c1"

    def test_cached_projection_echelon_cannot_grow(self):
        spec = ComplexStructureSpec(3, A={3: {(1, 2): GR(-1)}})  # Iwasawa, unshared
        basis = Dolbeault.of(spec).basis(1, 1)
        cob = basis.cores[(0, 1)]
        d_out = Dolbeault.of(spec).dbar_matrix(1, 1)
        closed = [basis.vector(k) for k in range(basis.dim)]
        # f_i ^ c_j sits at column 3(i-1) + (j-1) of delbar_{1,1}
        closed += [InvariantForm.monomial(spec, (i,), (j,)).terms for i in (1, 2, 3)
                   for j in (1, 2, 3) if not d_out.sparse_columns[3 * (i - 1) + j - 1]]
        before = [basis.project(v) for v in closed]
        with pytest.raises(TypeError):
            cob.coords.add({0: GR(1), 4: GR(5)})
        with pytest.raises(AttributeError):
            cob.coords.width = 3
        assert Dolbeault.of(spec).basis(1, 1).cores[(0, 1)] is cob
        assert [basis.project(v) for v in closed] == before
        assert basis.project(basis.vector(4)) == {4: GR(1)}

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

    def test_cached_dolbeault_dies_with_its_spec(self):
        # no reference cycle: reference counting alone frees the pair
        gc.disable()
        try:
            spec = load_manifest("iwasawa").spec
            dol = weakref.ref(Dolbeault.of(spec))
            assert Dolbeault.of(spec).table()[(1, 1)] == 6
            del spec
            assert dol() is None
        finally:
            gc.enable()

    def test_dolbeault_holds_no_spec(self):
        dol = Dolbeault.of(load_manifest("iwasawa").spec)
        dol.table()
        assert not [name for name, value in vars(dol).items()
                    if isinstance(value, ComplexStructureSpec)]

    @pytest.mark.parametrize("table_first", [True, False])
    def test_one_generator_table_per_spec(self, monkeypatch, table_first):
        # the complex reads d of the generators from the spec's own table, so
        # hodge_table and validate_spec build it once in either order
        built = []
        real = ComplexStructureSpec._generator_d

        def spy(spec):
            if spec._gen_d is None:
                built.append(spec)
            return real(spec)

        monkeypatch.setattr(ComplexStructureSpec, "_generator_d", spy)
        spec = ComplexStructureSpec(5, A={5: {(1, 2): GR(-1)}, 4: {(1, 3): GR(-1)}})
        calls = [hodge_table, validate_spec]
        for call in calls if table_first else calls[::-1]:
            call(spec)
        assert built == [spec]


def test_extend_class_builds_each_cohomology_once(monkeypatch):
    # the n = 5 two-step structure d f5 = -f1^f2, d f4 = -f1^f3 along u theta1 (x) c1:
    # it has no B terms, so each H^{p,q} with p >= 1 is a block copy of
    # H^{0,q} and only H^{0,q} is eliminated, once each
    spec = ComplexStructureSpec(5, A={5: {(1, 2): GR(-1)}, 4: {(1, 3): GR(-1)}})
    psi = VectorForm(spec, 1, {(1, (1,)): Poly.variable(("u",), "u")})
    fam = mc_extend(spec, psi, 2)
    built = []
    real = linalg._cohomology

    def counting(d_in, d_out, label=""):
        built.append(label)
        return real(d_in, d_out, label=label)

    monkeypatch.setattr(linalg, "_cohomology", counting)
    rep = obstruction_o1(spec, psi, 2, 1)
    for k in (0, 7, 29):
        extend_class(fam, rep.source.rep_form(spec, k), 2)
    assert built and all(label.startswith("H^0,") for label in built)
    assert sorted(set(built)) == sorted(built)
    assert {(2, 1), (2, 2)} <= set(Dolbeault.of(spec)._bases)


def test_extend_class_reuses_the_delbar_solver_and_builds_only_its_result(monkeypatch):
    # over all 30 H^{2,1} classes of the n = 5 two-step structure, delbar
    # on (2,1) is eliminated twice in all (its pivots, then its solver),
    # however many defects are solved, and each call builds one form: its
    # result
    spec = ComplexStructureSpec(5, A={5: {(1, 2): GR(-1)}, 4: {(1, 3): GR(-1)}})
    psi = VectorForm(spec, 1, {(1, (1,)): Poly.variable(("u",), "u")})
    fam = mc_extend(spec, psi, 2)
    dol = Dolbeault.of(spec)
    basis, _ = dol.basis(2, 1), dol.basis(2, 2)
    alphas = [basis.rep_form(spec, k) for k in range(basis.dim)]
    echelons, forms = [], []
    real_echelon, real_init = linalg.Echelon.__init__, InvariantForm.__init__
    real_trusted = InvariantForm._trusted.__func__

    def echelon(self, *args):
        echelons.append(args[0])
        real_echelon(self, *args)

    def init(self, *args, **kwargs):
        forms.append(args)
        real_init(self, *args, **kwargs)

    def trusted(cls, *args, **kwargs):
        forms.append(args)
        return real_trusted(cls, *args, **kwargs)

    monkeypatch.setattr(linalg.Echelon, "__init__", echelon)
    monkeypatch.setattr(InvariantForm, "__init__", init)
    monkeypatch.setattr(InvariantForm, "_trusted", classmethod(trusted))
    statuses = []
    for alpha in alphas:
        del forms[:]
        statuses.append(extend_class(fam, alpha, 2).status)
        assert len(forms) == 1
    assert dol.dbar_matrix(2, 1)._solver is not None
    assert len(echelons) == 2
    assert statuses.count("obstructed") == 2


def test_hodge_table_eliminates_each_delbar_matrix_once(monkeypatch):
    # the n = 5 two-step structure d f5 = -f1^f2, d f4 = -f1^f3, unshared:
    # it has no B terms, so every f is free and the core is c1..c5; the
    # table builds its delbar_{0,q}, the (0,4) one the certificate of Serre
    # duality, at most 5 matrices, ranks each at most once, and singleton
    # peeling empties every one of them, so no Echelon is built
    spec = ComplexStructureSpec(5, A={5: {(1, 2): GR(-1)}, 4: {(1, 3): GR(-1)}})
    built, ranked, echelons = [], [], []
    real_cohomology, real_peel = linalg._cohomology, linalg._peel

    def cohomology(d_in, d_out, label=""):
        built.append(label)
        return real_cohomology(d_in, d_out, label=label)

    def peel(rows):
        ranked.append(id(rows))
        rank, core = real_peel(rows)
        assert not core
        return rank, core

    class CountingEchelon(linalg.Echelon):
        def __init__(self, width, vectors=()):
            echelons.append(vectors)
            super().__init__(width, vectors)

    monkeypatch.setattr(linalg, "_cohomology", cohomology)
    monkeypatch.setattr(linalg, "_peel", peel)
    monkeypatch.setattr(linalg, "Echelon", CountingEchelon)
    table = hodge_table(spec)
    assert built == [] and echelons == []
    matrices = dict(Dolbeault.of(spec)._matrices)
    assert len(matrices) <= 5 and (0, 4) in matrices
    assert all(p == 0 for p, q in matrices)
    assert len(ranked) == len(set(ranked))
    assert set(ranked) <= {id(m.sparse_rows) for m in matrices.values()}
    for p in range(6):
        for q in range(6):
            assert Dolbeault.of(spec).basis(p, q).dim == table[(p, q)], (p, q)


def test_n10_table_builds_only_the_p0_row_and_the_certificate():
    # d f10 = -f1^f2, d f9 = -f1^f3: every f and c4..c8 are free, so the
    # table builds the delbar matrices of the core c1, c2, c3, c9, c10 alone,
    # its p = 0 row with the certificate delbar_{0,4}: 5 matrices at most,
    # none over C(5,2) = 10 rows, where ranking one member of each dual pair
    # of the whole complex took 55 of up to 63,504 rows
    spec = ComplexStructureSpec(10, A={10: {(1, 2): GR(-1)}, 9: {(1, 3): GR(-1)}})
    table = hodge_table(spec)
    matrices = Dolbeault.of(spec)._matrices
    assert len(matrices) <= 5 and (0, 4) in matrices
    assert max(m.rows for m in matrices.values()) <= 10
    assert table[(1, 0)] == 10 and table[(0, 1)] == 8
    assert all(table[(p, q)] == table[(10 - p, 10 - q)] for p, q in table)


def _timed_main(argv, capsys) -> tuple[str, float]:
    start = time.monotonic()
    assert cli.main(argv) == 0
    return capsys.readouterr().out, time.monotonic() - start


def test_limits_hodge_without_structure_constants_at_n40(tmp_path, capsys):
    # every generator is free: the table is (1+x)^40 (1+y)^40, counted, with
    # no monomial of the 2^80 formed
    path = tmp_path / "abelian_n40.json"
    path.write_text(json.dumps({"name": "abelian-n40", "kind": "lie-algebra", "dimension": 40,
                                "structure": []}))
    out, elapsed = _timed_main(["hodge", str(path), "--format", "json"], capsys)
    assert json.loads(out)["h"] == {f"{p},{q}": comb(40, p) * comb(40, q) for p in range(41) for q in range(41)}
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@pytest.mark.parametrize("argv, budget", [
    (["jump", "two_step_u_n12.json", "--point", "u=1"], 1.0),  # the ray's core has 4 f and 5 c
    (["hodge", "bterm_n10.json"], 5.0),                         # c3, c4, c5, c8, c9, c10 are free
], ids=["jump_ladder_n12", "hodge_bterm_n10"])
def test_limits_of_the_free_generator_split(argv, budget, capsys):
    argv = [argv[0], str(Path(__file__).parent / "data" / argv[1]), *argv[2:]]
    _, elapsed = _timed_main(argv, capsys)
    assert elapsed < budget, f"took {elapsed:.2f}s"


@pytest.mark.parametrize("manifest, assignment", [
    ("iwasawa", {"t11": GR(1), "t22": GR(1)}),
    (str(Path(__file__).parent / "data" / "two_step_u_n6.json"), {"u": GR(1)}),
], ids=["iwasawa", "two_step_u_n6"])
def test_jump_forms_no_class(monkeypatch, manifest, assignment):
    # jump reads delbar ranks alone: no cohomology basis, no o1 matrix and
    # no checked (polynomial) matrix, and the ray spec's jet matrices are
    # ranked at most once per Serre-dual pair; the class-level route, run
    # afterwards, trips every counter
    man = parse_manifest(load_manifest(manifest).to_json())  # unshared: no basis cached yet
    point = man.full_point(assignment)
    calls, built, ranked = [], {}, []
    real_cohomology, real_basis, real_o1 = linalg._cohomology, Dolbeault.basis, deform.obstruction_o1
    real_init, real_dbar, real_rank = linalg.ExactMatrix.__init__, Dolbeault._core_matrix, linalg.rank_const

    def init(self, *args):
        calls.append("ExactMatrix")
        real_init(self, *args)

    def core_matrix(self, p, q):
        m = real_dbar(self, p, q)
        built[id(m)] = (self.order, self._size, p, q)
        return m

    def rank_const(m):
        ranked.append(built.get(id(m)))
        return real_rank(m)

    def cohomology(*args, **kwargs):
        calls.append("_cohomology")
        return real_cohomology(*args, **kwargs)

    def basis(self, p, q):
        calls.append("basis")
        return real_basis(self, p, q)

    def o1(*args):
        calls.append("obstruction_o1")
        return real_o1(*args)

    monkeypatch.setattr(linalg, "_cohomology", cohomology)
    monkeypatch.setattr(Dolbeault, "basis", basis)
    monkeypatch.setattr(deform, "obstruction_o1", o1)
    monkeypatch.setattr(linalg.ExactMatrix, "__init__", init)
    monkeypatch.setattr(Dolbeault, "_core_matrix", core_matrix)
    monkeypatch.setattr(linalg, "rank_const", rank_const)
    deform.jump_report(man.spec, man.psi1, point)
    assert calls == []
    assert None not in ranked  # every rank is a delbar rank of the core
    # the ray core of a f and b c generators pairs (p, q) with (a-p, b-1-q)
    jets = [(size, p, q) for order, size, p, q in ranked if order]
    assert jets and len({frozenset({(p, q), (a - p, b - 1 - q)}) for (a, b), p, q in jets}) == len(jets)
    deform.second_class_subspace(man.spec, man.psi1, 1, 1, point)
    assert set(calls) == {"_cohomology", "basis", "obstruction_o1", "ExactMatrix"}


def test_hodge_table_and_bases_form_no_chain_products(monkeypatch):
    # the n = 5 two-step structure passes d.d = 0 on its generators, so
    # neither its table nor any of its 36 bases multiplies d_out . d_in;
    # the public cohomology still does
    spec = ComplexStructureSpec(5, A={5: {(1, 2): GR(-1)}, 4: {(1, 3): GR(-1)}})
    products = []
    real_matmul = linalg.ExactMatrix.matmul

    def matmul(self, other):
        products.append((self.rows, self.cols, other.cols))
        return real_matmul(self, other)

    monkeypatch.setattr(linalg.ExactMatrix, "matmul", matmul)
    table = hodge_table(spec)
    dol = Dolbeault.of(spec)
    dims = {(p, q): dol.basis(p, q).dim for p in range(6) for q in range(6)}
    assert products == []
    assert dims == table
    linalg.cohomology(dol.dbar_matrix(2, 0), dol.dbar_matrix(2, 1))
    assert products == [(100, 50, 10)]


@st.composite
def two_step_specs(draw):
    """Two-step structures in dimension n <= 4: f1..fm closed, and d of each
    higher f a combination of fi^fj and fi^cj with i, j <= m, with nonzero
    Q(i) coefficients."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    coeff = st.builds(GR, st.integers(-2, 2), st.integers(-2, 2)).filter(bool)
    low = range(1, m + 1)
    A, B = {}, {}
    for k in range(m + 1, n + 1):
        pure = [(i, j) for i in low for j in low if i < j]
        mixed = [(i, j) for i in low for j in low]
        A[k] = draw(st.dictionaries(st.sampled_from(pure), coeff, max_size=2)) if pure else {}
        B[k] = draw(st.dictionaries(st.sampled_from(mixed), coeff, max_size=2))
    return ComplexStructureSpec(n, A=A, B=B)


@given(two_step_specs())
@settings(max_examples=30, deadline=None)
def test_hodge_table_ranks_match_cohomology_bases(spec):
    assume(not [d for d in validate_spec(spec) if d.severity == "error"])
    table = Dolbeault.of(spec).table()
    fresh = Dolbeault(spec)
    assert table == {(p, q): fresh.basis(p, q).dim
                     for p in range(spec.n + 1) for q in range(spec.n + 1)}


def test_lab_computes_each_invariant_once(monkeypatch, capsys):
    path = str(Path(__file__).parent / "data" / "lab_smith012.json")
    man = load_manifest(path)
    cx = man.complex
    calls = {"bareiss": 0, "smith": [], "cohomology": []}
    real_bareiss, real_smith, real_cohomology = (
        linalg._bareiss, freemod._smith_counts, linalg._cohomology)

    def bareiss(entries):
        calls["bareiss"] += 1
        return real_bareiss(entries)

    def smith(d, rank, cap):
        calls["smith"].append(d)
        return real_smith(d, rank, cap)

    def cohomology(d_in, d_out, label=""):
        calls["cohomology"].append(label)
        return real_cohomology(d_in, d_out, label=label)

    def checked(d_in, d_out, label=""):
        raise AssertionError("H^q(E_0) formed the product d^q(0) . d^(q-1)(0)")

    monkeypatch.setattr(linalg, "_bareiss", bareiss)
    monkeypatch.setattr(freemod, "_smith_counts", smith)
    monkeypatch.setattr(linalg, "_cohomology", cohomology)
    monkeypatch.setattr(linalg, "_check_chain", checked)
    monkeypatch.setattr(cli, "load_manifest", lambda name: man)
    assert cli.main(["lab", path]) == 0
    capsys.readouterr()
    for q in range(len(cx.ranks)):
        assert freemod.jump_accounting(cx, q).consistent
    assert calls["bareiss"] == sum(d.is_polynomial() for d in cx.diffs) == 2
    # d^-1 .. d^N, the zero maps at both ends included, each once
    diffs = [cx.diff(q) for q in range(-1, cx.length + 1)]
    assert sorted(map(id, calls["smith"])) == sorted(map(id, diffs))
    assert calls["cohomology"] == [f"H^{q}(E_0)" for q in range(len(cx.ranks))]



def test_each_cohomology_basis_is_one_elimination(monkeypatch):
    # past the kernel of d_out, one echelon of width n + dim holds the image
    # of d_in and the tagged representatives; rank_const(d_in), which sizes
    # it, is held by the matrix once computed
    spec = ComplexStructureSpec(5, A={5: {(1, 2): GR(1)}, 4: {(1, 3): GR(1)}},
                                B={5: {(2, 3): GR(1)}, 4: {(3, 2): GR(1)}})
    dol = Dolbeault(spec)
    chains = [dol._chain(p, q) for p in range(6) for q in range(6)]
    plain = [linalg._cohomology(d_in, d_out) for d_in, d_out in chains]
    widths = []

    class CountingEchelon(linalg.Echelon):
        def __init__(self, width, vectors=()):
            widths.append(width)
            super().__init__(width, vectors)

    monkeypatch.setattr(linalg, "Echelon", CountingEchelon)
    for (d_in, d_out), want in zip(chains, plain):
        widths.clear()
        got = linalg._cohomology(d_in, d_out)
        assert got.sparse_representatives == want.sparse_representatives
        assert widths == [d_out.cols, d_out.cols + got.dim], widths


def test_first_class_search_eliminates_its_span_once(monkeypatch):
    # seed 0: H^0(E_0) has one obstructed and one extendable class, H^1(E_0)
    # one extendable; the complement is found by growing the extendable span
    # itself, so past the jet system's echelon one echelon of width
    # h^q(E_0) is built per search
    cx, _ = random_lab_complex(random.Random(0))
    for q in range(len(cx.ranks)):
        freemod.jump_accounting(cx, q)
    dims = [freemod.cohomology_at_zero(cx, q).dim for q in range(len(cx.ranks))]
    assert dims == [2, 1, 0]
    plain = [freemod.classify_first_class(cx, q) for q in range(len(cx.ranks))]
    widths = []

    class CountingEchelon(linalg.Echelon):
        def __init__(self, width, vectors=()):
            widths.append(width)
            super().__init__(width, vectors)

    monkeypatch.setattr(linalg, "Echelon", CountingEchelon)
    for q, h in enumerate(dims):
        widths.clear()
        assert freemod.classify_first_class(cx, q) == plain[q]
        if h:  # the jet system's echelon, then the span's
            assert len(widths) == 2 and widths[1] == h, (q, widths)
        else:
            assert widths == [], (q, widths)


def test_obstruct_eliminates_its_polynomial_o1_matrix_once(monkeypatch, capsys):
    # the kernel's Bareiss leaves the pivots that generic_rank reads, so
    # computing the kernel first eliminates the matrix once, not twice
    man = load_manifest("iwasawa")
    assert len(man.parameters) == 6
    assert obstruction_o1(man.spec, man.psi1, 1, 0).matrix.is_polynomial()
    calls = []
    real_bareiss = linalg._bareiss

    def bareiss(m):
        calls.append((m.rows, m.cols))
        return real_bareiss(m)

    monkeypatch.setattr(linalg, "_bareiss", bareiss)
    assert cli.main(["obstruct", "iwasawa", "--p", "1", "--q", "0", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kernel"] and report["generic_rank"] > 0
    assert len(calls) == 1


@pytest.mark.parametrize("d0, alpha", [
    # [[1, 1], [2, 2]] at t = 0: no singleton, so ranking eliminates it whole
    ([["1", "1+t"], ["2", "2+2*t"]], [GR(1), GR(-1)]),
    # [[1, 1], [0, 1]] at t = 0: peeled, so ranking builds no Echelon
    ([["1", "1+t"], ["t", "1"]], [GR(0), GR(0)]),
])
def test_t0_map_ranked_then_solved_is_eliminated_once(monkeypatch, d0, alpha):
    # h_dims ranks d^0 at t = 0, then extend_step solves against it: one
    # elimination of its rows between them, whichever of the two runs it
    params = ("t",)
    cx = freemod.FreeComplex("t", (2, 2), (linalg.ExactMatrix(2, 2, [
        [Poly.parse(params, x) for x in row] for row in d0]),))
    rows = [dict(r) for r in freemod._at_zero(cx, 0).sparse_rows if r]
    eliminated = []

    class CountingEchelon(linalg.Echelon):
        def __init__(self, width, vectors=()):
            vectors = list(vectors)
            if [dict(v) for v in vectors if v] == rows:
                eliminated.append(width)
            super().__init__(width, vectors)

    monkeypatch.setattr(linalg, "Echelon", CountingEchelon)
    freemod.h_dims(cx)
    step = freemod.extend_step(cx, freemod.JetCochain.from_constant(cx, 0, alpha, 0))
    assert isinstance(step, freemod.JetCochain)
    assert eliminated == [2]


T = ("t",)
AB = ("a", "b")


@st.composite
def poly_entries(draw, params, rows, cols):
    """A rows x cols list of sparse polynomials with small Q(i) coefficients."""
    def entry():
        terms = {}
        for _ in range(draw(st.integers(0, 2))):
            exps = tuple(draw(st.integers(0, 2 if len(params) == 1 else 1)) for _ in params)
            terms[exps] = GR(draw(st.integers(-2, 2)), draw(st.integers(-1, 1)))
        return Poly(params, terms)
    return [[entry() for _ in range(cols)] for _ in range(rows)]


@st.composite
def poly_matrices(draw, params=st.sampled_from([T, AB])):
    """Polynomial matrices up to 5 x 6 in one or two parameters; a third of
    them products through an inner dimension of 1 or 2, so of low rank (an
    all-zero product holds no Poly, so it is a Q(i) matrix)."""
    params = draw(params)
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    if draw(st.integers(0, 2)):
        return linalg.ExactMatrix(rows, cols, draw(poly_entries(params, rows, cols)))
    inner = draw(st.integers(1, 2))
    left = linalg.ExactMatrix(rows, inner, draw(poly_entries(params, rows, inner)))
    right = linalg.ExactMatrix(inner, cols, draw(poly_entries(params, inner, cols)))
    return left.matmul(right)


def _cold(m):
    """An equal matrix that has computed nothing yet."""
    return linalg.ExactMatrix(m.rows, m.cols, m.sparse_rows)


class TestInvariantMemos:
    @given(poly_matrices())
    @settings(max_examples=60, deadline=None)
    def test_pivot_memo_matches_fresh_elimination(self, m):
        cold = _cold(m)
        if m.is_polynomial():
            fresh = linalg._bareiss(m)[1]
        else:
            fresh = linalg.Echelon(m.cols, m.sparse_rows).pivots
        first = linalg.pivot_columns(m)
        assert first == fresh
        first.append(m.cols)
        first[:0] = [0]
        assert linalg.pivot_columns(m) == fresh
        assert linalg.generic_rank(m) == len(fresh)
        assert m == cold and hash(m) == hash(cold) and repr(m) == repr(cold)

    @given(poly_matrices(st.just(T)))
    @settings(max_examples=25, deadline=None)
    def test_warm_complex_equals_a_cold_one(self, m):
        def complex_of(d):
            return freemod.FreeComplex("t", (d.cols, d.rows), (d,))

        warm, cold = complex_of(m), complex_of(_cold(m))
        reports = [freemod.jump_accounting(warm, q) for q in range(2)]
        assert warm._memo and not cold._memo
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert [freemod.jump_accounting(cold, q) for q in range(2)] == reports
