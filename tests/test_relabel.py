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
from hodgejump.deform import Dolbeault, frolicher_d1, hodge_table, jump_report, obstruction_o1
from hodgejump.exterior import ComplexStructureSpec, VectorForm, validate_spec
from hodgejump.linalg import rank_const
from hodgejump.manifest import load_manifest

from .test_deform import bterm_spec, two_step_specs

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


# each free generator moved in between linked ones: bterm_n6's free c3, c4,
# c5 to c1, c3, c6 among its linked c1, c2, c6; mixed_n5's free f4 to f2 and
# free c5 to c4
MOVES = {"bterm_n6": {1: 2, 2: 5, 3: 1, 4: 3, 5: 6, 6: 4},
         "mixed_n5.json": {1: 1, 2: 3, 3: 5, 4: 2, 5: 4}}


@pytest.mark.parametrize("name", sorted(MOVES))
def test_free_generators_moved_between_linked_ones_keep_every_invariant(name):
    # bases read through free monomials carry the sign of sorting them
    # among the core generators, and d1 projects through those bases
    man = None if name == "bterm_n6" else load_manifest(str(DATA / name))
    spec, s = (man.spec if man else bterm_spec(6)), MOVES[name]
    moved = relabel(spec, s)
    free = Dolbeault.of(spec)._free
    assert any(free)
    assert Dolbeault.of(moved)._free == tuple(sum(1 << s[k] for k in s if side >> k & 1) for side in free)
    assert hodge_table(moved) == hodge_table(spec)
    for p in range(spec.n + 1):
        for q in range(spec.n + 1):
            assert rank_const(frolicher_d1(moved, p, q)) == rank_const(frolicher_d1(spec, p, q)), (p, q)
    if man:
        point = {p: GR(k + 1) for k, p in enumerate(man.parameters)}
        rows = jump_report(spec, man.psi1, point).rows
        assert jump_report(moved, relabel_psi(moved, man.psi1, s), point).rows == rows
