"""Byte-for-byte CLI outputs on two small manifests the benchmark does not run.

``tests/data/golden_cli.json`` holds, for every call below, the exact
stdout, stderr and exit code.  The calls cover ``obstruct`` at every
bidegree (with and without ``--point``), ``jump`` at three points and
``witness``, in text and JSON, on

* ``mixed_i.json``: d f3 = i*f1^c1 with the symbolic deformation, a
  non-parallelisable structure whose o1 maps have polynomial entries;
* ``iwasawa_su.json``: Iwasawa deformed along 2*s+i*u, s-u and 1/2*u,
  whose entries are multi-term polynomials with non-real coefficients.

Regenerate the file with ``python tests/test_golden_cli.py`` only when an
output is meant to change.

``tests/data/golden_jump_two_step_u_n6.json`` is the stdout of
``jump tests/data/two_step_u_n6.json --point u=1 --format json``, the
class-level path at a size where sparse storage matters; regenerate it by
running that command.  ``obstruct`` at (3,2) on the same manifest, a
polynomial o1 map with a kernel, is pinned by the sha256 of its JSON
stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from hodgejump import deform
from hodgejump.cli import main
from hodgejump.manifest import load_manifest

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_cli.json"
N6_OBSTRUCT_3_2_SHA256 = "c4453b9a618ad07ead8dd87ea9ecd2532b06ef849a68d79803c84a6343634bda"

POINTS = {
    "mixed_i.json": ["t11=1", "t21=1,t33=2/3*i", "t11=1/2,t22=i,t32=-1"],
    "iwasawa_su.json": ["s=1", "u=2/3*i", "s=1,u=-2"],
}


def calls() -> list[list[str]]:
    out = []
    for name, points in POINTS.items():
        path = f"tests/data/{name}"
        for fmt in ("text", "json"):
            for p in range(4):
                for q in range(4):
                    base = ["obstruct", path, "--p", str(p), "--q", str(q), "--format", fmt]
                    out.append(base)
                    out.append(base + ["--point", points[0]])
            for point in points:
                out.append(["jump", path, "--point", point, "--format", fmt])
            out.append(["witness", path, "--format", fmt])
    return out


def run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_file_lists_every_call(recorded):
    assert list(recorded) == [tuple(argv) for argv in calls()]


@pytest.mark.parametrize("argv", calls(), ids=" ".join)
def test_cli_output_is_byte_identical(argv, recorded, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)
    assert run(argv) == recorded[tuple(argv)]


def test_jump_on_the_one_direction_two_step_n6_is_byte_identical(monkeypatch):
    # d f6 = -f1^f2, d f5 = -f1^f3 deformed along u theta_1 (x) c_1: one o1
    # map per bidegree, on bases far larger than the two manifests above
    monkeypatch.chdir(Path(__file__).parent.parent)
    got = run(["jump", "tests/data/two_step_u_n6.json", "--point", "u=1", "--format", "json"])
    assert (got["exit"], got["stderr"]) == (0, "")
    assert got["stdout"] == (DATA / "golden_jump_two_step_u_n6.json").read_text(encoding="utf-8")


def test_obstruct_3_2_on_the_two_step_n6_is_pinned(monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)
    path = "tests/data/two_step_u_n6.json"
    got = run(["obstruct", path, "--p", "3", "--q", "2", "--format", "json"])
    assert (got["exit"], got["stderr"]) == (0, "")
    assert hashlib.sha256(got["stdout"].encode()).hexdigest() == N6_OBSTRUCT_3_2_SHA256
    man = load_manifest(path)
    rep = deform.obstruction_o1(man.spec, man.psi1, 3, 2)
    kernel = rep.kernel()
    assert kernel and [[str(x) for x in v] for v in kernel] == json.loads(got["stdout"])["kernel"]
    for v in kernel:
        assert not any(rep.matrix.apply(v))


if __name__ == "__main__":
    import os

    os.chdir(Path(__file__).parent.parent)
    GOLDEN.write_text(json.dumps([run(argv) for argv in calls()], indent=1) + "\n",
                      encoding="utf-8")
