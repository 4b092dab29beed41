"""Exact freemod outputs on the lab manifests and Iwasawa second-class images.

``tests/data/golden_freemod.json`` holds every entry, as canonical strings,
of

* ``classify_first_class`` and ``classify_second_class`` at every degree of
  ``lab-t``, ``lab-t2``, ``tests/data/lab_smith012.json`` and the seeded
  scrambled complexes ``conftest.random_lab_complex`` builds for seeds
  0-15 (a degree the call rejects is pinned by its message);
* ``o_n_q``, ``extend_step`` and ``reduce_to_primitive`` on fixed cochains
  of the same complexes: each representative of H^q(E_0), their sum, and
  the sum moved by the first column of d^(q-1) at t = 0, extended step by
  step to order 4 or to the first obstruction;
* ``deform.second_class_subspace`` on Iwasawa at every bidegree with
  q >= 1, at the class ii and class iii points.

These are the canonical bases the reports print, so a change in the
elimination order that moves a basis vector shows here even when every
dimension stays the same.  Regenerate the file with
``python -m tests.test_golden_freemod`` only when an output is meant to
change.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from hodgejump import deform, freemod
from hodgejump.coeff import GR_ZERO, GaussianRational, Poly
from hodgejump.errors import ValidationFailure
from hodgejump.exterior import ComplexStructureSpec, VectorForm
from hodgejump.manifest import load_manifest

from .conftest import random_lab_complex

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "data" / "golden_freemod.json"

MANIFESTS = ["lab-t", "lab-t2", "tests/data/lab_smith012.json"]
NAMES = MANIFESTS + [f"seed {k}" for k in range(16)]
IW_PARAMS = ("t11", "t12", "t21", "t22", "t31", "t32")
IW_POINTS = {"ii": {"t11": 1}, "iii": {"t11": 1, "t22": 1}}
MAX_ORDER = 4


def _s(values) -> list:
    """Nested lists of exact values as nested lists of strings."""
    if isinstance(values, (list, tuple)):
        return [_s(v) for v in values]
    return str(values)


def _fields(report) -> dict:
    return {k: _s(v) for k, v in vars(report).items()}


def _complex(name: str) -> freemod.FreeComplex:
    if name.startswith("seed "):
        return random_lab_complex(random.Random(int(name[5:])))[0]
    return load_manifest(str(ROOT / name) if name.startswith("tests/") else name).complex


def _cochains(c: freemod.FreeComplex, q: int) -> list[list[GaussianRational]]:
    """The fixed order-0 cochains of degree q: every representative of
    H^q(E_0), their sum, and that sum moved by an exact vector."""
    width = c.ranks[q]
    reps = [[r.get(j, GR_ZERO) for j in range(width)]
            for r in freemod.cohomology_at_zero(c, q).sparse_representatives]
    out = list(reps)
    if reps:
        total = [sum(col, GR_ZERO) for col in zip(*reps)]
        out.append(total)
        if q > 0 and c.ranks[q - 1]:
            d0 = c.diff(q - 1)
            col = [x.constant_term() if isinstance(x, Poly) else x for x in d0.column(0)]
            out.append([a + b for a, b in zip(total, col)])
    return out


def _jet_run(c: freemod.FreeComplex, q: int, vector) -> list:
    """o_n_q and extend_step from an order-0 cochain up to ``MAX_ORDER``,
    then reduce_to_primitive at the first obstruction."""
    alpha = freemod.JetCochain.from_constant(c, q, vector, 0)
    steps = []
    for n in range(1, MAX_ORDER + 1):
        ob = freemod.o_n_q(c, alpha, n)
        step = {"n": n, "o_n": _fields(ob)}
        nxt = freemod.extend_step(c, alpha)
        if isinstance(nxt, freemod.LabObstruction):
            step["extend_step"] = {"obstruction": _fields(nxt)}
            m, prim = freemod.reduce_to_primitive(c, alpha, n)
            step["reduce_to_primitive"] = {"n": m, "order": prim.order,
                                           "entries": _s([Poly(e.params, e.terms) for e in prim.entries])}
            steps.append(step)
            break
        step["extend_step"] = {"order": nxt.order, "entries": _s([Poly(e.params, e.terms) for e in nxt.entries])}
        steps.append(step)
        alpha = nxt
    return steps


def _lab_record(name: str) -> dict:
    c = _complex(name)
    degrees = {}
    for q in range(len(c.ranks)):
        entry = {"first": _fields(freemod.classify_first_class(c, q))}
        try:
            entry["second"] = _fields(freemod.classify_second_class(c, q))
        except ValidationFailure as e:
            entry["second"] = {"error": str(e)}
        entry["cochains"] = [{"vector": _s(v), "steps": _jet_run(c, q, v)}
                             for v in _cochains(c, q)]
        degrees[str(q)] = entry
    return degrees


def _iwasawa_record() -> dict:
    spec = ComplexStructureSpec(3, A={3: {(1, 2): GaussianRational(-1)}})
    psi1 = VectorForm(spec, 1, {(i, (lam,)): Poly.variable(IW_PARAMS, f"t{i}{lam}")
                                for i in (1, 2, 3) for lam in (1, 2)})
    out = {}
    for label, values in IW_POINTS.items():
        point = {p: GaussianRational(values.get(p, 0)) for p in IW_PARAMS}
        for p in range(4):
            for q in range(1, 4):
                sc = deform.second_class_subspace(spec, psi1, p, q, point)
                out[f"{label} {p},{q}"] = {
                    "generic_dim": sc.generic_dim, "generic_image": _s(sc.generic_image),
                    "point_dim": sc.point_dim, "point_image": _s(sc.point_image),
                }
    return out


def record() -> dict:
    return {"lab": {name: _lab_record(name) for name in NAMES},
            "iwasawa_second_class": _iwasawa_record()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", NAMES)
def test_lab_classes_and_jet_steps_are_unchanged(name, recorded):
    assert _lab_record(name) == recorded["lab"][name]


def test_iwasawa_second_class_images_are_unchanged(recorded):
    assert _iwasawa_record() == recorded["iwasawa_second_class"]


def test_golden_covers_every_kind_of_step(recorded):
    # the cochains reach both an extension and an obstruction with descent
    steps = [s for degrees in recorded["lab"].values() for entry in degrees.values()
             for run in entry["cochains"] for s in run["steps"]]
    assert any("order" in s["extend_step"] for s in steps)
    assert any(s.get("reduce_to_primitive", {}).get("n", 0) > 1 for s in steps)
    assert any(s.get("reduce_to_primitive", {}).get("n") == 1 for s in steps)


if __name__ == "__main__":
    import re

    text = json.dumps(record(), indent=1, sort_keys=True)
    # one line per vector: exact values hold no quote, bracket or comma
    text = re.sub(r'\[\s+("[^"]*"(?:,\s+"[^"]*")*)\s+\]',
                  lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
