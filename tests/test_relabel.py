"""Relabelling the generators changes no invariant.

f'_s(k) = f_k and c'_s(k) = c_k for a permutation s of 1..n is a change of
coframe: it moves every structure constant, sign and monomial position but
leaves the complex structure, so every Hodge number, every first-order jump
and every rank of o1 at a point must come out the same.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgejump.coeff import GR
from hodgejump.deform import hodge_table, jump_report, obstruction_o1
from hodgejump.exterior import ComplexStructureSpec, VectorForm, validate_spec
from hodgejump.manifest import load_manifest

from .test_deform import two_step_specs

DATA = Path(__file__).parent / "data"


def relabel(spec: ComplexStructureSpec, s: dict) -> ComplexStructureSpec:
    """The spec in the coframe f'_s(k) = f_k: f_i^f_j becomes f_s(i)^f_s(j),
    re-sorted with the sign of the swap, and f_i^c_j becomes f_s(i)^c_s(j)."""
    A, B = {}, {}
    for k in range(1, spec.n + 1):
        A[s[k]] = {tuple(sorted((s[i], s[j]))): c if s[i] < s[j] else -c
                   for (i, j), c in spec.A[k].items()}
        B[s[k]] = {(s[i], s[j]): c for (i, j), c in spec.B[k].items()}
    return ComplexStructureSpec(spec.n, A, B)


def relabel_psi(spec: ComplexStructureSpec, psi: VectorForm, s: dict) -> VectorForm:
    """theta_i (x) c_l becomes theta_s(i) (x) c_s(l)."""
    return VectorForm(spec, 1, {(s[i], (s[lam],)): c for (i, (lam,)), c in psi.coeffs.items()})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_relabelled_two_step_tables_are_equal(data):
    spec = data.draw(two_step_specs())
    image = data.draw(st.permutations(range(1, spec.n + 1)))
    moved = relabel(spec, dict(zip(range(1, spec.n + 1), image)))
    assert not [d for d in validate_spec(moved) if d.severity == "error"]
    assert hodge_table(moved) == hodge_table(spec)


# every tests/data manifest with a deformation and n <= 7
MANIFESTS = ["iwasawa_su.json", "mixed_i.json", "mixed_n5.json", "two_step_symbolic_n5.json",
             "two_step_u_n6.json", "two_step_u_n7.json"]


@pytest.mark.parametrize("name", MANIFESTS)
def test_relabelled_manifests_keep_tables_and_jumps(name):
    man = load_manifest(str(DATA / name))
    spec, psi1 = man.spec, man.psi1
    rng, image = random.Random(name), list(range(1, spec.n + 1))
    rng.shuffle(image)
    s = dict(zip(range(1, spec.n + 1), image))
    moved = relabel(spec, s)
    moved_psi = relabel_psi(moved, psi1, s)
    assert not [d for d in validate_spec(moved) if d.severity == "error"]
    assert hodge_table(moved) == hodge_table(spec)
    point = {p: GR(rng.randint(-2, 2), rng.randint(-1, 1)) for p in man.parameters}
    rows = {pq: (r.h0, r.first, r.second) for pq, r in jump_report(spec, psi1, point).rows.items()}
    assert rows == {pq: (r.h0, r.first, r.second)
                    for pq, r in jump_report(moved, moved_psi, point).rows.items()}
    # o1 itself, through the contraction, in the new coframe: its rank at the
    # point is the first-order drop that jump_report reads off delbar ranks
    for (p, q), (_, first, _) in rows.items():
        if q < spec.n:
            assert obstruction_o1(moved, moved_psi, p, q).rank_at(point) == first
