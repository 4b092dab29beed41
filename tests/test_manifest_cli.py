import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hodgejump
from hodgejump.cli import main
from hodgejump.errors import ValidationFailure
from hodgejump.manifest import builtin_names, load_manifest, parse_manifest

from .conftest import ROW_I, ROW_II


class TestManifest:
    def test_builtins_present(self):
        assert set(builtin_names()) >= {
            "iwasawa.json", "torus3.json", "lab-t.json", "lab-t2.json"
        }

    def test_iwasawa_loads(self):
        man = load_manifest("iwasawa.json")
        assert man.kind == "lie-algebra"
        assert man.spec.n == 3
        assert man.spec.A[3] == {(1, 2): __import__("hodgejump").GaussianRational(-1)}
        assert man.psi1 is not None and len(man.psi1.coeffs) == 6
        assert man.order == 2
        assert set(man.points) == {"ii", "iii"}

    def test_torus_loads(self):
        man = load_manifest("torus3")
        assert all(not man.spec.A[k] for k in man.spec.A)

    def test_lab_manifests_load(self):
        man = load_manifest("lab-t.json")
        assert man.kind == "free-complex"
        assert man.complex.ranks == (1, 1)

    @pytest.mark.parametrize("name", ["iwasawa.json", "torus3.json", "lab-t.json", "lab-t2.json"])
    def test_roundtrip(self, name):
        man = load_manifest(name)
        again = parse_manifest(man.to_json())
        assert again.raw == man.raw
        assert again.kind == man.kind

    def test_unknown_field_rejected(self):
        doc = json.dumps({"kind": "lie-algebra", "dimension": 1, "mystery": 1})
        with pytest.raises(ValidationFailure, match="mystery"):
            parse_manifest(doc)

    @pytest.mark.parametrize("field", ["k", "i", "lambda", "order"])
    def test_bool_is_not_an_int(self, field):
        doc = {
            "kind": "lie-algebra", "dimension": 3, "parameters": ["t"],
            "structure": [{"k": 3, "monomial": "f1^f2", "coefficient": "-1"}],
            "deformation": [{"i": 3, "lambda": 2, "coefficient": "t"}],
            "options": {"order": 2},
        }
        parse_manifest(json.dumps(doc))
        target = {"k": doc["structure"][0], "order": doc["options"]}.get(
            field, doc["deformation"][0])
        target[field] = True
        with pytest.raises(ValidationFailure):
            parse_manifest(json.dumps(doc))

    def test_malformed_json_rejected_with_location(self):
        with pytest.raises(ValidationFailure, match="line"):
            parse_manifest("{not json")

    def test_jacobi_violation_rejected(self):
        doc = json.dumps({
            "kind": "lie-algebra",
            "dimension": 3,
            "structure": [
                {"k": 2, "monomial": "f1^f2", "coefficient": "1"},
                {"k": 3, "monomial": "f2^c1", "coefficient": "1"},
            ],
        })
        with pytest.raises(ValidationFailure, match="structure validation failed"):
            parse_manifest(doc)

    def test_non_nilpotent_loads_with_warning(self):
        # d f1 = f1^f2 is solvable, not nilpotent: accepted, but flagged
        doc = json.dumps({
            "kind": "lie-algebra",
            "dimension": 2,
            "structure": [{"k": 1, "monomial": "f1^f2", "coefficient": "1"}],
        })
        man = parse_manifest(doc)
        assert man.warnings and "nilpotent" in man.warnings[0]

    def test_symbolic_deformation(self):
        doc = json.dumps({
            "kind": "lie-algebra",
            "name": "iw-sym",
            "dimension": 3,
            "structure": [{"k": 3, "monomial": "f1^f2", "coefficient": "-1"}],
            "deformation": "symbolic",
        })
        man = parse_manifest(doc)
        assert sorted(man.parameters) == sorted(
            ["t11", "t12", "t21", "t22", "t31", "t32"]
        )
        assert len(man.psi1.coeffs) == 6

    def test_invalid_deformation_rejected(self):
        doc = json.dumps({
            "kind": "lie-algebra",
            "dimension": 3,
            "parameters": ["t11"],
            "structure": [{"k": 3, "monomial": "f1^f2", "coefficient": "-1"}],
            "deformation": [{"i": 1, "lambda": 3, "coefficient": "t11"}],
        })
        with pytest.raises(ValidationFailure, match="deformation validation failed"):
            parse_manifest(doc)

    def test_bad_free_complex_rejected(self):
        doc = json.dumps({
            "kind": "free-complex",
            "ranks": [1, 1, 1],
            "differentials": [[["t"]], [["1"]]],
        })
        with pytest.raises(ValidationFailure, match="complex validation failed"):
            parse_manifest(doc)

    def test_point_completion(self):
        man = load_manifest("iwasawa.json")
        pt = man.full_point(man.points["ii"])
        assert sorted(pt) == sorted(man.parameters)
        with pytest.raises(ValidationFailure):
            man.full_point({"bogus": __import__("hodgejump").GaussianRational(1)})


class TestCli:
    def test_hodge_text(self, capsys):
        assert main(["hodge", "iwasawa.json"]) == 0
        out = capsys.readouterr().out
        assert " ".join(map(str, ROW_I)) in out

    def test_hodge_json_matches_text(self, capsys):
        assert main(["hodge", "iwasawa.json"]) == 0
        text = capsys.readouterr().out
        assert main(["hodge", "iwasawa.json", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        nine = tuple(
            doc["h"][key] for key in ("1,0", "0,1", "2,0", "1,1", "0,2", "3,0", "2,1", "1,2", "0,3")
        )
        assert nine == ROW_I
        assert " ".join(map(str, nine)) in text

    def test_torus_hodge_binomial(self, capsys):
        assert main(["hodge", "torus3.json", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        from math import comb

        for p in range(4):
            for q in range(4):
                assert doc["h"][f"{p},{q}"] == comb(3, p) * comb(3, q)

    def test_jump_with_oracle_column(self, capsys):
        assert main(["jump", "iwasawa.json", "--point", "t11=1"]) == 0
        out = capsys.readouterr().out
        assert "predicted row: " + " ".join(map(str, ROW_II)) in out
        assert "oracle    row: " + " ".join(map(str, ROW_II)) in out
        assert "NO" not in out

    def test_jump_json(self, capsys):
        assert main(["jump", "iwasawa.json", "--point", "t11=1,t22=1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agree"] is True
        assert doc["rows"]["2,0"]["predicted"] == 1
        assert doc["rows"]["2,0"]["oracle"] == 1

    @pytest.mark.parametrize("command", ["jump", "obstruct"])
    @pytest.mark.parametrize("points", [["t11=1,t11=2"], ["t11=1", "t22=1,t11=2"]])
    def test_a_parameter_assigned_twice_is_refused(self, command, points, capsys):
        argv = [command, "iwasawa.json"] + [a for pt in points for a in ("--point", pt)]
        if command == "obstruct":
            argv += ["--p", "2", "--q", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation failure: parameter 't11' assigned twice\n"

    def test_mc_output(self, capsys):
        assert main(["mc", "iwasawa.json", "--order", "3"]) == 0
        out = capsys.readouterr().out
        assert "psi_2 = (-t11*t22+t12*t21)*theta3(x)c3" in out
        assert "psi_3 = 0" in out

    def test_obstruct(self, capsys):
        assert main(["obstruct", "iwasawa.json", "--p", "2", "--q", "0",
                     "--point", "t11=1"]) == 0
        out = capsys.readouterr().out
        assert "generic rank: 2" in out
        assert "rank at point: 1" in out

    def test_obstruct_echoes_a_point_off_the_unit_axis(self, capsys):
        # an imaginary part other than +-1 renders as "2/3*i", not "2/3i"
        assert main(["obstruct", "iwasawa", "--p", "1", "--q", "0",
                     "--point", "t11=2/3*i", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["point"]["t11"] == "2/3*i"
        assert doc["rank_at_point"] == 1

    def test_d1(self, capsys):
        assert main(["d1", "iwasawa.json", "--p", "1", "--q", "0"]) == 0
        assert "nonzero" in capsys.readouterr().out

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_mc_order_below_one_is_rejected(self, capsys, order):
        # 0 is a given order, not a missing one: it must not fall back to the
        # manifest's order
        assert main(["mc", "iwasawa", "--order", order]) == 2
        assert "target order must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_d1_needs_both_p_and_q_or_neither(self, capsys, flag):
        assert main(["d1", "iwasawa", flag, "1"]) == 1
        assert "both --p and --q" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["obstruct", "iwasawa", "--p", "9", "--q", "0"],
        ["obstruct", "iwasawa", "--p", "-1", "--q", "0"],
        ["obstruct", "iwasawa", "--p", "0", "--q", "-2"],
        ["d1", "iwasawa", "--p", "-1", "--q", "0"],
        ["d1", "iwasawa", "--p", "0", "--q", "4"],
    ])
    def test_bidegree_out_of_range_is_rejected(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of range for n=3" in captured.err

    def test_witness_commands(self, capsys):
        assert main(["witness", "iwasawa.json"]) == 0
        out = capsys.readouterr().out
        assert "theta1(x)c1" in out and "f3" in out
        assert main(["witness", "torus3.json"]) == 0
        assert "no witness" in capsys.readouterr().out

    def test_lab_command(self, capsys):
        assert main(["lab", "lab-t.json"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert main(["lab", "lab-t2.json", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["degrees"]["0"]["first_class_dim"] == 1

    @pytest.mark.parametrize("q", ["2", "-1"])
    def test_lab_degree_out_of_range(self, capsys, q):
        assert main(["lab", "lab-t.json", "--q", q]) == 2
        assert "outside 0..1" in capsys.readouterr().err

    def test_validate_command(self, capsys):
        assert main(["validate", "iwasawa.json"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_exit_codes(self, capsys, tmp_path):
        assert main(["hodge", "missing.json"]) == 2
        capsys.readouterr()
        assert main(["nonsense"]) == 1
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "lie-algebra", "dimension": 3,
            "structure": [
                {"k": 2, "monomial": "f1^f2", "coefficient": "1"},
                {"k": 3, "monomial": "f2^c1", "coefficient": "1"},
            ],
        }))
        assert main(["hodge", str(bad)]) == 2
        capsys.readouterr()
        zero_den = tmp_path / "zero_den.json"
        zero_den.write_text(json.dumps({
            "kind": "lie-algebra", "dimension": 3,
            "structure": [{"k": 3, "monomial": "f1^f2", "coefficient": "1/0"}],
        }))
        assert main(["hodge", str(zero_den)]) == 2
        assert "zero denominator" in capsys.readouterr().err
        zero_den_poly = tmp_path / "zero_den_poly.json"
        zero_den_poly.write_text(json.dumps({
            "kind": "free-complex", "ranks": [1, 1], "differentials": [[["1/0*t"]]],
        }))
        assert main(["lab", str(zero_den_poly)]) == 2
        assert "zero denominator" in capsys.readouterr().err
        list_points = tmp_path / "list_points.json"
        list_points.write_text(json.dumps({
            "kind": "lie-algebra", "dimension": 3,
            "structure": [{"k": 3, "monomial": "f1^f2", "coefficient": "1"}],
            "options": {"points": []},
        }))
        assert main(["hodge", str(list_points)]) == 2
        assert "options.points" in capsys.readouterr().err
        bool_dim = tmp_path / "bool_dim.json"
        bool_dim.write_text(json.dumps({"kind": "lie-algebra", "dimension": True}))
        assert main(["hodge", str(bool_dim)]) == 2
        assert "dimension" in capsys.readouterr().err
        bool_rank = tmp_path / "bool_rank.json"
        bool_rank.write_text(json.dumps({
            "kind": "free-complex", "ranks": [1, True], "differentials": [[["t"]]],
        }))
        assert main(["lab", str(bool_rank)]) == 2
        assert "ranks" in capsys.readouterr().err

    def test_unreadable_manifest_path_is_a_validation_failure(self, capsys, tmp_path):
        assert main(["hodge", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation failure: cannot read manifest") and err.count("\n") == 1

    def test_manifest_that_is_not_utf8_is_a_validation_failure(self, capsys, tmp_path):
        latin = tmp_path / "latin1.json"
        latin.write_bytes(b'{"kind": "lie-algebra", "name": "caf\xe9"}')
        assert main(["hodge", str(latin)]) == 2
        err = capsys.readouterr().err
        assert "is not UTF-8" in err and "at byte 36" in err and err.count("\n") == 1

    def test_elliptic_curve_deformation(self, capsys, tmp_path):
        # n = 1 with a deformation table: delbar of a (0,1) vector form is a
        # (0,2)-form, which is zero on a curve
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({
            "kind": "lie-algebra", "dimension": 1, "parameters": ["t"], "structure": [],
            "deformation": [{"i": 1, "lambda": 1, "coefficient": "t"}],
        }))
        assert main(["hodge", str(curve)]) == 0
        capsys.readouterr()
        assert main(["jump", str(curve), "--point", "t=1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agree"] is True
        assert {row["predicted"] for row in doc["rows"].values()} == {1}

    def test_calls_in_one_process_share_no_state(self, capsys):
        # the parser is built once per process; each call must start clean
        with_point = ["obstruct", "iwasawa.json", "--p", "2", "--q", "0", "--format", "json"]
        assert main(with_point + ["--point", "t11=1"]) == 0
        assert json.loads(capsys.readouterr().out)["rank_at_point"] == 1
        assert main(with_point) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "point" not in doc and "rank_at_point" not in doc
        assert main(["obstruct", "iwasawa.json", "--p", "2", "--q", "0"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("o1 at (2,0)") and "rank at point" not in text
        assert main(["obstruct", "iwasawa.json", "--p", "two", "--q", "0"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert main(["obstruct", "iwasawa.json", "--p", "2", "--q", "0"]) == 0
        assert capsys.readouterr().out == text
        assert main(["hodge", "iwasawa.json", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

    def test_deterministic_output(self, capsys):
        main(["jump", "iwasawa.json", "--point", "t11=1"])
        first = capsys.readouterr().out
        main(["jump", "iwasawa.json", "--point", "t11=1"])
        second = capsys.readouterr().out
        assert first == second


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_output_exits_1_without_traceback(fmt):
    # stdout is a pipe whose reader is already gone, as in `hodge ... | true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(hodgejump.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hodgejump.cli", "hodge", "iwasawa", "--format", fmt],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
