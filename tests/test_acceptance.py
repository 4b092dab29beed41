"""Acceptance suite: one test per criterion, exact tolerances, short runtimes.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything is exact arithmetic; the only tolerances are the
stated wall-clock budgets.
"""

import json
import random
import time

from hodgejump import linalg
from hodgejump.cli import main
from hodgejump.coeff import GR, Poly
from hodgejump.deform import (
    Dolbeault,
    frolicher_d1,
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
from hodgejump.exterior import (
    InvariantForm,
    VectorForm,
    basis_monomials,
    differential,
    wedge,
)
from hodgejump.freemod import (
    JetCochain,
    classify_second_class,
    h_dims,
    jump_accounting,
    o_n_q,
    reduce_to_primitive,
    validate_complex,
)
from hodgejump.manifest import load_manifest

from .conftest import (
    IW_PARAMS,
    ROW_I,
    ROW_II,
    ROW_III,
    random_form,
    random_gr,
    random_lab_complex,
    random_vector_form,
)
from . import oracles


def report(num: int, text: str):
    print(f"\nACCEPTANCE {num:02d}: PASS - {text}")


def pv(name):
    return Poly.variable(IW_PARAMS, name)


def test_criterion_01_baseline_iwasawa_hodge_table(capsys):
    start = time.monotonic()
    assert main(["hodge", "iwasawa.json", "--format", "json"]) == 0
    elapsed = time.monotonic() - start
    doc = json.loads(capsys.readouterr().out)
    nine = tuple(
        doc["h"][k] for k in ("1,0", "0,1", "2,0", "1,1", "0,2", "3,0", "2,1", "1,2", "0,3")
    )
    assert nine == ROW_I
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        report(1, f"hodge iwasawa.json = {' '.join(map(str, nine))} in {elapsed:.2f}s")


def test_criterion_02_obstruction_values_at_20(iwasawa, iw_psi1):
    rep = obstruction_o1(iwasawa, iw_psi1, 2, 0)
    src, tgt = rep.source, rep.target

    def coords(I):
        v = src.project_constant_form(InvariantForm.monomial(iwasawa, I, ()))
        return [Poly.constant(IW_PARAMS, x) for x in v]

    assert all(not x for x in rep.matrix.apply(coords((1, 2))))
    want23 = tgt.project_form(
        InvariantForm(iwasawa, 2, 1, {((1, 2), (1,)): -pv("t21"), ((1, 2), (2,)): -pv("t22")}),
        params=IW_PARAMS,
    )
    assert rep.matrix.apply(coords((2, 3))) == want23
    combo = [pv("t11") * a - pv("t21") * b
             for a, b in zip(coords((2, 3)), coords((1, 3)))]
    det = pv("t11") * pv("t22") - pv("t21") * pv("t12")
    image = rep.matrix.apply(combo)
    assert any(image), "combination image should be a nonzero multiple of the determinant"
    for entry in image:
        if entry:
            assert linalg._poly_exact_div(entry, det).degree() <= 0
    report(2, "o1 at (2,0) matches the reference classes; combination is det-proportional")


def test_criterion_03_jump_rows(iwasawa, iw_psi1, point_ii, point_iii):
    start = time.monotonic()
    row2 = jump_report(iwasawa, iw_psi1, point_ii).threefold_row()
    t2 = time.monotonic() - start
    start = time.monotonic()
    row3 = jump_report(iwasawa, iw_psi1, point_iii).threefold_row()
    t3 = time.monotonic() - start
    assert row2 == ROW_II and t2 < 5.0
    assert row3 == ROW_III and t3 < 5.0
    report(3, f"jump rows ii={row2} ({t2:.2f}s), iii={row3} ({t3:.2f}s)")


def test_criterion_04_oracle_cross_check(iwasawa, iw_psi1, point_ii, point_iii):
    fam = mc_extend(iwasawa, iw_psi1, 2)
    assert threefold_row(oracle_hodge_at_point(iwasawa, fam, point_ii)) == ROW_II
    assert threefold_row(oracle_hodge_at_point(iwasawa, fam, point_iii)) == ROW_III
    report(4, "independent oracle reproduces rows ii and iii at the sample points")


def test_criterion_05_maurer_cartan(iwasawa, iw_psi1):
    det = pv("t11") * pv("t22") - pv("t21") * pv("t12")
    fam = mc_extend(iwasawa, iw_psi1, 3)
    assert fam.corrections[2] == VectorForm(iwasawa, 1, {(3, (3,)): -det})
    assert not fam.corrections[3]
    report(5, "psi_2 = -(t11 t22 - t21 t12) theta3(x)c3 and psi_3 = 0, exactly")


def test_criterion_06_second_class_at_11(iwasawa, iw_psi1, point_ii):
    sc = second_class_subspace(iwasawa, iw_psi1, 1, 1, point=point_ii)
    assert sc.generic_dim == 1
    value = o1_value(iwasawa, iw_psi1, InvariantForm.generator(iwasawa, "f", 3))
    coords = Dolbeault(iwasawa).basis(1, 1).project_form(value, params=IW_PARAMS)
    pair = linalg.ExactMatrix.from_columns(len(coords), [sc.generic_image[0], coords])
    assert linalg.generic_rank(pair) == 1, "image must be spanned by the class of o1(f3)"
    table = jump_report(iwasawa, iw_psi1, point_ii)
    row = table.rows[(1, 1)]
    assert row.first == 0 and row.second == 1 and (row.h0, row.predicted) == (6, 5)
    report(6, "second-class at (1,1) is the line of o1(f3); h^{1,1} drops 6 -> 5")


def test_criterion_07_parallelisable_witness(iwasawa, torus3):
    w = parallelisable_witness(iwasawa)
    assert w is not None and any(w.coords)
    assert parallelisable_witness(torus3) is None
    report(7, f"witness theta{w.k}(x)c{w.j} obstructs f{w.i}; torus has none")


def test_criterion_08_frolicher_d1_criterion(iwasawa, torus3):
    rng = random.Random(2024)
    for p in range(4):
        for q in range(4):
            assert frolicher_d1(torus3, p, q).is_zero()
    checked = 0
    while checked < 50:
        psi = random_vector_form(torus3, rng, closed=False)
        if not psi:
            continue
        assert not [d for d in validate_first_order(torus3, psi) if d.severity == "error"]
        for p in range(4):
            for q in range(4):
                assert obstruction_o1(torus3, psi, p, q).matrix.is_zero()
        checked += 1
    assert not frolicher_d1(iwasawa, 1, 0).is_zero()
    report(8, "d1 = 0 forces o1 = 0 (50 random torus directions); Iwasawa d1(1,0) != 0")


def test_criterion_09_invariant_suite(iwasawa, torus3, mixed_spec, iw_psi1):
    # d-squared identities on every basis form of every builtin spec
    for spec in (iwasawa, torus3, mixed_spec):
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                for key in basis_monomials(spec.n, p, q):
                    a = InvariantForm.monomial(spec, *key)
                    d, db = differential(spec, a)
                    assert not differential(spec, d)[0]
                    assert not differential(spec, db)[1]
                    assert not (differential(spec, d)[1] + differential(spec, db)[0])

    # o1 well-definedness on >= 100 random exact perturbations
    rng = random.Random(99)
    cases = 0
    while cases < 100:
        spec = iwasawa if rng.random() < 0.5 else torus3
        psi1 = iw_psi1 if spec is iwasawa else random_vector_form(torus3, rng, closed=False)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        beta = random_form(spec, p, q - 1, rng)
        alpha = differential(spec, beta)[1]
        if not alpha:
            continue
        v = o1_value(spec, psi1, alpha)
        params = IW_PARAMS if spec is iwasawa else None
        coords = Dolbeault.of(spec).basis(p, q + 1).project_form(v, params=params)
        assert all(not x for x in coords)
        cases += 1

    # Leibniz and antisymmetry on random pairs
    for spec in (iwasawa, torus3, mixed_spec):
        for _ in range(25):
            pa, qa = rng.randint(0, spec.n - 1), rng.randint(0, spec.n - 1)
            pb, qb = rng.randint(0, spec.n - 1), rng.randint(0, spec.n - 1)
            a = random_form(spec, pa, qa, rng)
            b = random_form(spec, pb, qb, rng)
            ab, ba = wedge(a, b), wedge(b, a)
            sign = (-1) ** ((pa + qa) * (pb + qb))
            assert ab == (ba if sign > 0 else -ba)
            dab = differential(spec, wedge(a, b))
            total = oracles.raw_add(oracles.form_to_raw(dab[0]), oracles.form_to_raw(dab[1]))
            da, db = differential(spec, a), differential(spec, b)
            lhs: dict = {}
            for part in (wedge(da[0], b), wedge(da[1], b)):
                lhs = oracles.raw_add(lhs, oracles.form_to_raw(part))
            s = GR((-1) ** (pa + qa))
            for part in (wedge(a, db[0]), wedge(a, db[1])):
                lhs = oracles.raw_add(lhs, oracles.raw_scale(oracles.form_to_raw(part), s))
            assert lhs == total

    # semicontinuity on >= 100 random composition-zero complexes
    rng2 = random.Random(123)
    for _ in range(100):
        cx, truth = random_lab_complex(rng2)
        assert validate_complex(cx) == []
        dims = h_dims(cx)
        assert dims == truth["h"]
        for h0, hg in dims:
            assert h0 >= hg
    report(9, "d^2 identities, 100 o1 well-definedness cases, Leibniz/antisymmetry, "
              "semicontinuity on 100 random complexes")


def test_criterion_10_lab_equivalences():
    rng = random.Random(7777)
    accounted = 0
    descended = 0
    while accounted < 40:
        cx, _ = random_lab_complex(rng)
        assert validate_complex(cx) == []
        # methods (a) and (b) agree inside classify_second_class; accounting
        # identity must hold on every instance
        for q in range(3):
            acct = jump_accounting(cx, q, order_bound=4)
            assert acct.consistent, (q, acct.notes)
        accounted += 1
        # descent: build a valid jet extension and reduce when obstructed
        if cx.ranks[0] and cx.ranks[1] and descended < 15:
            from hodgejump.freemod import _blocks, _jet_system
            from hodgejump.coeff import Jet

            n = rng.randint(1, 3)
            blocks = _blocks(cx.diff(0), n - 1, "t")
            kernel = linalg.kernel_basis_const(_jet_system(blocks, n - 1))
            if kernel:
                v = kernel[rng.randrange(len(kernel))]
                P0 = cx.ranks[0]
                alpha = JetCochain(
                    degree=0,
                    entries=[
                        Jet(Poly(("t",), {(k,): v[k * P0 + j] for k in range(n)}), n - 1)
                        for j in range(P0)
                    ],
                    order=n - 1,
                )
                ob = o_n_q(cx, alpha, n)
                if ob:
                    n2, alpha2 = reduce_to_primitive(cx, alpha, n)
                    assert 1 <= n2 <= n
                    lead = o_n_q(cx, alpha2, n2)
                    assert lead, "descent must end with a nonzero leading obstruction"
                    descended += 1
    assert descended >= 5, "random suite produced too few obstructed extensions"
    report(10, f"methods agree + accounting identity on {accounted} random complexes; "
               f"{descended} descents ended in nonzero leading obstructions")
