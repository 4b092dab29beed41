"""Byte-for-byte ``lab`` outputs on free complexes with known Smith exponents.

``tests/data/golden_lab.json`` holds, for every call below, the exact
stdout, stderr and exit code.  The manifests are

* ``lab-t`` and ``lab-t2`` (builtin): multiplication by t and by t^2, one
  class first obstructed at order 1 and at order 2;
* ``tests/data/lab_smith012.json``: d^0 = U diag(1, t, t^2) V, scrambled by
  unimodular U and V over Q(i)[t] (local Smith exponents 0, 1 and 2), into
  a d^1 with exponent 1.

The JSON output carries ``order_bound``, so the file pins the reported
bound as well as the dimensions.  Regenerate it with
``python -m tests.test_golden_lab`` only when an output is meant to change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from .test_golden_cli import run

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_lab.json"

MANIFESTS = ["lab-t", "lab-t2", "tests/data/lab_smith012.json"]


def calls() -> list[list[str]]:
    out = []
    for path in MANIFESTS:
        for fmt in ("text", "json"):
            out.append(["lab", path, "--format", fmt])
            for q in (0, 1, 2):
                out.append(["lab", path, "--q", str(q), "--format", fmt])
    out.append(["lab", "iwasawa"])
    return out


@pytest.fixture(scope="module")
def recorded() -> dict:
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_file_lists_every_call(recorded):
    assert list(recorded) == [tuple(argv) for argv in calls()]


@pytest.mark.parametrize("argv", calls(), ids=" ".join)
def test_lab_output_is_byte_identical(argv, recorded, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)
    assert run(argv) == recorded[tuple(argv)]


if __name__ == "__main__":
    import os

    os.chdir(Path(__file__).parent.parent)
    GOLDEN.write_text(json.dumps([run(argv) for argv in calls()], indent=1) + "\n",
                      encoding="utf-8")
