"""Command-line front end.

Subcommands: validate, hodge, obstruct, mc, jump, d1, witness, lab.
Output is an aligned text table by default; ``--format json`` switches to a
machine-readable report (tables keyed by "p,q" strings, exact values as
canonical strings).  Exit codes: 0 success, 1 usage error or closed output,
2 validation failure, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import deform, freemod, linalg
from .coeff import CoefficientError, GaussianRational
from .errors import InternalInvariantError, ValidationFailure
from .exterior import SpecError
from .manifest import Manifest, load_manifest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_point(values: list[str]) -> dict[str, GaussianRational]:
    out: dict[str, GaussianRational] = {}
    for item in ",".join(values).split(","):
        item = item.strip()
        if not item:
            continue
        name, eq, value = item.partition("=")
        if not eq:
            raise _UsageError("bad point assignment without '='; expected name=value")
        name = name.strip()
        if name in out:
            raise ValidationFailure(f"parameter {name!r} assigned twice")
        try:
            out[name] = GaussianRational.parse(value.strip())
        except CoefficientError as e:
            raise ValidationFailure(f"point value for {name}: {e}") from None
    return out


def _table_lines(rows: list[list], header: list[str]):
    """The lines of an aligned table of ``rows`` (cells printed with str) under ``header``."""
    data = [header] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(r[i]) for r in data) for i in range(len(header))]
    for k, row in enumerate(data):
        yield "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        if k == 0:
            yield "  ".join("-" * w for w in widths)


_SCALARS = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get,
            type(None): lambda x: "null"}


def _json_text(x, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)`` for a dict or list of dicts with str keys,
    lists, tuples and scalars of the exact types of ``_SCALARS``; ``pad`` precedes the
    closing bracket."""
    inner, get = pad + "  ", _SCALARS.get
    if isinstance(x, dict):
        items = [_quote(k) + ": " + (f(v) if (f := get(type(v))) else _json_text(v, inner))
                 for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(x, (list, tuple)):
        items = [f(v) if (f := get(type(v))) else _json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _emit(args, man: Manifest, report: dict, render):
    """Print ``report``, named after the manifest, as JSON or as the lines ``render`` yields."""
    report["name"] = man.name
    print(_json_text(report) if args.format == "json"
          else "\n".join(render(report, man, args.manifest)))


def _need(man: Manifest, need: str | None):
    """Refuse a manifest of another kind than ``need``; "deformation" is a lie-algebra with psi1."""
    if need == "free-complex" and man.kind != need:
        raise ValidationFailure("lab command needs a free-complex manifest")
    if need in ("lie-algebra", "deformation") and man.kind != "lie-algebra":
        raise ValidationFailure(f"command needs a lie-algebra manifest, got {man.kind}")
    if need == "deformation" and man.psi1 is None:
        raise ValidationFailure("manifest declares no deformation table")


def _matrix_strings(m: linalg.ExactMatrix) -> list[list[str]]:
    """m's rows as strings from its nonzeros; "0" (GR_ZERO's or Poly's) fills gaps."""
    out = [["0"] * m.cols for _ in m.sparse_rows]
    for row, entries in zip(out, m.sparse_rows):
        for j, x in entries.items():
            row[j] = str(x)
    return out


def cmd_validate(args, man: Manifest):
    _emit(args, man, {"kind": man.kind, "valid": True, "warnings": man.warnings}, _validate_text)


def _validate_text(report: dict, man: Manifest, path: str):
    yield f"{report['name'] or path}: {report['kind']} manifest is valid"
    yield from report["warnings"]


def cmd_hodge(args, man: Manifest):
    h = {f"{p},{q}": dim for (p, q), dim in deform.hodge_table(man.spec).items()}
    _emit(args, man, {"n": man.spec.n, "h": h}, _hodge_text)


def _hodge_text(report: dict, man: Manifest, path: str):
    n, h = report["n"], report["h"]
    rows = []
    for p in range(n + 1):
        rows.append([f"p={p}"] + [h[f"{p},{q}"] for q in range(n + 1)])
    yield from _table_lines(rows, ["h^{p,q}"] + [f"q={q}" for q in range(n + 1)])
    if n == 3:
        yield "(h^{1,0} h^{0,1} h^{2,0} h^{1,1} h^{0,2} h^{3,0} h^{2,1} h^{1,2} h^{0,3}) = " \
              + " ".join(str(h[f"{p},{q}"]) for p, q in deform.THREEFOLD_ROW)


def cmd_obstruct(args, man: Manifest):
    rep = deform.obstruction_o1(man.spec, man.psi1, args.p, args.q)
    report = {"p": args.p, "q": args.q, "source_dim": rep.source.dim, "target_dim": rep.target.dim}
    report["matrix"] = _matrix_strings(rep.matrix)
    # kernel first: its elimination leaves the pivots generic_rank reads; zeros print as "0"
    report["kernel"] = [[str(x) if x else "0" for x in v] for v in rep.kernel()]
    report["generic_rank"] = rep.generic_rank()
    if args.point:
        point = man.full_point(_parse_point(args.point))
        report["point"] = {k: str(v) for k, v in point.items()}
        report["rank_at_point"] = rep.rank_at(point)
    _emit(args, man, report, _obstruct_text)


def _obstruct_text(report: dict, man: Manifest, path: str):
    p, q = report["p"], report["q"]
    yield (f"o1 at ({p},{q}): H^{{{p},{q}}} (dim {report['source_dim']})"
           f" -> H^{{{p},{q + 1}}} (dim {report['target_dim']})")
    yield f"generic rank: {report['generic_rank']}"
    yield "matrix rows (target basis coordinates):"
    for row in report["matrix"]:
        yield "  [" + ", ".join(row) + "]"
    if report["kernel"]:
        yield "kernel basis (source coordinates):"
        for v in report["kernel"]:
            yield "  [" + ", ".join(v) + "]"
    if "rank_at_point" in report:
        yield f"rank at point: {report['rank_at_point']}"


def cmd_mc(args, man: Manifest):
    order = man.order if args.order is None else args.order
    fam = deform.mc_extend(man.spec, man.psi1, order)
    corrections = {}
    for k in range(2, order + 1):
        corr = fam.corrections.get(k)
        corrections[str(k)] = str(corr) if corr else "0"
    _emit(args, man, {"order": order, "corrections": corrections}, _mc_text)


def _mc_text(report: dict, man: Manifest, path: str):
    yield f"family extended to order {report['order']}"
    for k, txt in report["corrections"].items():
        yield f"psi_{k} = {txt}"


def cmd_jump(args, man: Manifest):
    point = man.full_point(_parse_point(args.point))
    table = deform.jump_report(man.spec, man.psi1, point)
    # the oracle's family runs along the prediction's ray alone, so a point
    # on a ray that extends is tabled even when the full family is obstructed
    ray = deform.ray(man.psi1, point)
    oracle = (deform.oracle_hodge_at_point(
        man.spec, deform.mc_extend(man.spec, ray, man.order), {"s": GaussianRational(1)})
        if ray else deform.hodge_table(man.spec))
    report = {"point": {k: str(v) for k, v in point.items()}, "label": table.label, "rows": {}}
    for (p, q), r in table.rows.items():
        o = oracle[(p, q)]
        report["rows"][f"{p},{q}"] = {
            "h0": r.h0, "first_class": r.first, "second_class": r.second,
            "predicted": r.predicted, "oracle": o, "agree": o == r.predicted,
        }
    report["agree"] = all(row["agree"] for row in report["rows"].values())
    _emit(args, man, report, _jump_text)


def _jump_text(report: dict, man: Manifest, path: str):
    rows = report["rows"]
    cells = []
    for pq, r in rows.items():
        cells.append([f"({pq})", r["h0"], r["first_class"], r["second_class"], r["predicted"],
                      r["oracle"], "yes" if r["agree"] else "NO"])
    yield from _table_lines(
        cells, ["(p,q)", "h(0)", "first", "second", "predicted", "oracle", "agree"])
    yield f"label: {report['label']}"
    if man.spec.n == 3:
        for field in ("predicted", "oracle"):  # "predicted row: ", "oracle    row: "
            yield f"{field:9} row: " + " ".join(
                str(rows[f"{p},{q}"][field]) for p, q in deform.THREEFOLD_ROW)
    if not report["agree"]:
        yield "WARNING: first-order prediction disagrees with the oracle at some bidegree"


def cmd_d1(args, man: Manifest):
    if (args.p is None) != (args.q is None):
        raise _UsageError("d1 takes both --p and --q, or neither")
    span = range(man.spec.n + 1)
    pq_list = [(args.p, args.q)] if args.p is not None else [(p, q) for p in span for q in span]
    maps = {}
    for p, q in pq_list:
        m = deform.frolicher_d1(man.spec, p, q)
        rank = linalg.rank_const(m) if m.rows and m.cols else 0
        maps[f"{p},{q}"] = {"rank": rank, "matrix": _matrix_strings(m)}
    _emit(args, man, {"maps": maps}, _d1_text)


def _d1_text(report: dict, man: Manifest, path: str):
    rows = []
    for pq, m in report["maps"].items():
        # d1 is a constant matrix, nonzero exactly when its rank is
        rows.append([f"({pq})", m["rank"], "nonzero" if m["rank"] else "0"])
    yield from _table_lines(rows, ["(p,q)", "rank", "d1"])


def cmd_witness(args, man: Manifest):
    w = deform.parallelisable_witness(man.spec)
    witness = None if w is None else {
        "form_index": w.i, "frame_index": w.k, "conjugate_index": w.j,
        "obstruction": str(w.value),
        "class_coordinates": [str(x) for x in w.coords],
    }
    _emit(args, man, {"witness": witness}, _witness_text)


def _witness_text(report: dict, man: Manifest, path: str):
    w = report["witness"]
    if w is None:
        yield "no witness: the holomorphic differential vanishes identically"
    else:
        i, k, j = w["form_index"], w["frame_index"], w["conjugate_index"]
        yield f"witness: deforming along theta{k}(x)c{j} obstructs f{i}"
        yield f"o1(f{i}) = {w['obstruction']} (nonzero class in H^{{1,1}})"


def cmd_lab(args, man: Manifest):
    cx = man.complex
    degrees = [args.q] if args.q is not None else list(range(len(cx.ranks)))
    report = {"ranks": list(cx.ranks), "degrees": {}}
    mismatched = []
    for q in degrees:
        acct = freemod.jump_accounting(cx, q)
        if not acct.consistent:
            mismatched.append(q)
        report["degrees"][str(q)] = {
            "h0": acct.h0, "h_generic": acct.h_generic,
            "kernel_drop": acct.kernel_drop, "image_rise": acct.image_rise,
            "first_class_dim": acct.first_class_dim,
            "second_class_dim": acct.second_class_dim,
            "order_bound": acct.order_bound,
            "consistent": acct.consistent,
            "notes": acct.notes,
        }
    _emit(args, man, report, _lab_text)
    if mismatched:
        raise InternalInvariantError(f"jump accounting mismatch at degrees {mismatched}")


def _lab_text(report: dict, man: Manifest, path: str):
    rows = []
    for q, d in report["degrees"].items():
        rows.append([f"q={q}", d["h0"], d["h_generic"], d["kernel_drop"], d["image_rise"],
                     d["first_class_dim"], d["second_class_dim"],
                     "ok" if d["consistent"] else "MISMATCH"])
    yield from _table_lines(
        rows, ["degree", "h(0)", "h(gen)", "ker-drop", "im-rise", "first", "second", "check"])


def build_parser() -> _Parser:
    parser = _Parser(prog="hodgejump", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, need, help_text):
        """Register ``name``, taking manifests of the kind ``need`` (see ``_need``)."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("manifest", help="manifest path or builtin name")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func, need=need)
        return p

    add("validate", cmd_validate, None, "parse and validate a manifest")
    add("hodge", cmd_hodge, "lie-algebra", "baseline Hodge table of the structure")
    p = add("obstruct", cmd_obstruct, "deformation", "first-order obstruction map at a bidegree")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--point", action="append", help="parameter assignments name=value[,name=value...]")
    p = add("mc", cmd_mc, "deformation", "order-by-order family extension")
    p.add_argument("--order", type=int, default=None)
    p = add("jump", cmd_jump, "deformation", "jump prediction with oracle cross-check")
    p.add_argument("--point", action="append", required=True,
                   help="parameter assignments name=value[,name=value...]")
    p = add("d1", cmd_d1, "lie-algebra", "first spectral differential on the baseline cohomology")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    add("witness", cmd_witness, "lie-algebra", "jump witness for parallelisable structures")
    p = add("lab", cmd_lab, "free-complex", "free-complex obstruction accounting")
    p.add_argument("--q", type=int, default=None)
    return parser


# parsing keeps no state in the parser, so one serves every call in a process
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        man = load_manifest(args.manifest)
        _need(man, args.need)
        args.func(args, man)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return EXIT_OK
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at exit prints nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationFailure, SpecError, CoefficientError, linalg.LinalgError) as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except deform.McObstruction as e:
        print(f"obstructed: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalInvariantError as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
