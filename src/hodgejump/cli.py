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
import json
import os
import sys

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
    for blob in values or []:
        for item in blob.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise _UsageError(f"bad point assignment {item!r}; expected name=value")
            name, _, value = item.partition("=")
            try:
                out[name.strip()] = GaussianRational.parse(value.strip())
            except CoefficientError as e:
                raise ValidationFailure(f"point value {item!r}: {e}") from None
    return out


def _table_text(rows: list[list[str]], header: list[str]) -> str:
    data = [header] + rows
    widths = [max(len(r[i]) for r in data) for i in range(len(header))]
    lines = []
    for k, row in enumerate(data):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _emit(args, payload: dict, text: str):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _need_lie(man: Manifest):
    if man.kind != "lie-algebra":
        raise ValidationFailure(f"command needs a lie-algebra manifest, got {man.kind}")


def _need_psi(man: Manifest):
    _need_lie(man)
    if man.psi1 is None:
        raise ValidationFailure("manifest declares no deformation table")


def _hodge_payload(n: int, table: dict) -> dict:
    return {f"{p},{q}": table[(p, q)] for p in range(n + 1) for q in range(n + 1)}


def cmd_validate(args) -> int:
    man = load_manifest(args.manifest)
    lines = [f"{man.name or args.manifest}: {man.kind} manifest is valid"]
    for w in man.warnings:
        lines.append(f"warning: {w}")
    payload = {"name": man.name, "kind": man.kind, "valid": True, "warnings": man.warnings}
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_hodge(args) -> int:
    man = load_manifest(args.manifest)
    _need_lie(man)
    n = man.spec.n
    table = deform.hodge_table(man.spec)
    rows = []
    for p in range(n + 1):
        rows.append([f"p={p}"] + [str(table[(p, q)]) for q in range(n + 1)])
    text = _table_text(rows, ["h^{p,q}"] + [f"q={q}" for q in range(n + 1)])
    if n == 3:
        nine = deform.threefold_row(table)
        text += "\n(h^{1,0} h^{0,1} h^{2,0} h^{1,1} h^{0,2} h^{3,0} h^{2,1} h^{1,2} h^{0,3}) = " \
                + " ".join(map(str, nine))
    _emit(args, {"name": man.name, "n": n, "h": _hodge_payload(n, table)}, text)
    return EXIT_OK


def cmd_obstruct(args) -> int:
    man = load_manifest(args.manifest)
    _need_psi(man)
    rep = deform.obstruction_o1(man.spec, man.psi1, args.p, args.q)
    m = rep.matrix
    entries = [[str(x) for x in row] for row in m.entries]
    kernel = [[str(x) for x in v] for v in rep.kernel()]
    payload = {
        "name": man.name,
        "p": args.p,
        "q": args.q,
        "source_dim": rep.source.dim,
        "target_dim": rep.target.dim,
        "matrix": entries,
        "generic_rank": rep.generic_rank(),
        "kernel": kernel,
    }
    lines = [
        f"o1 at ({args.p},{args.q}): H^{{{args.p},{args.q}}} (dim {rep.source.dim})"
        f" -> H^{{{args.p},{args.q + 1}}} (dim {rep.target.dim})",
        f"generic rank: {payload['generic_rank']}",
        "matrix rows (target basis coordinates):",
    ]
    for row in entries:
        lines.append("  [" + ", ".join(row) + "]")
    if kernel:
        lines.append("kernel basis (source coordinates):")
        for v in kernel:
            lines.append("  [" + ", ".join(v) + "]")
    if args.point:
        point = man.full_point(_parse_point(args.point))
        r = rep.rank_at(point)
        payload["point"] = {k: str(v) for k, v in point.items()}
        payload["rank_at_point"] = r
        lines.append(f"rank at point: {r}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_mc(args) -> int:
    man = load_manifest(args.manifest)
    _need_psi(man)
    order = man.order if args.order is None else args.order
    fam = deform.mc_extend(man.spec, man.psi1, order)
    lines = [f"family extended to order {order}"]
    payload = {"name": man.name, "order": order, "corrections": {}}
    for k in range(2, order + 1):
        corr = fam.corrections.get(k)
        txt = str(corr) if corr else "0"
        payload["corrections"][str(k)] = txt
        lines.append(f"psi_{k} = {txt}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_jump(args) -> int:
    man = load_manifest(args.manifest)
    _need_psi(man)
    point = man.full_point(_parse_point(args.point))
    table = deform.jump_report(man.spec, man.psi1, point)
    fam = deform.mc_extend(man.spec, man.psi1, man.order)
    oracle = deform.oracle_hodge_at_point(man.spec, fam, point)
    n = man.spec.n
    rows = []
    payload_rows = {}
    agree_all = True
    for p in range(n + 1):
        for q in range(n + 1):
            r = table.rows[(p, q)]
            o = oracle[(p, q)]
            agree = o == r.predicted
            agree_all = agree_all and agree
            rows.append([
                f"({p},{q})", str(r.h0), str(r.first), str(r.second),
                str(r.predicted), str(o), "yes" if agree else "NO",
            ])
            payload_rows[f"{p},{q}"] = {
                "h0": r.h0, "first_class": r.first, "second_class": r.second,
                "predicted": r.predicted, "oracle": o, "agree": agree,
            }
    text = _table_text(rows, ["(p,q)", "h(0)", "first", "second", "predicted", "oracle", "agree"])
    text += f"\nlabel: {table.label}"
    if n == 3:
        text += "\npredicted row: " + " ".join(map(str, table.threefold_row()))
        text += "\noracle    row: " + " ".join(
            str(oracle[pq]) for pq in deform.THREEFOLD_ROW
        )
    if not agree_all:
        text += "\nWARNING: first-order prediction disagrees with the oracle at some bidegree"
    payload = {
        "name": man.name,
        "point": {k: str(v) for k, v in point.items()},
        "label": table.label,
        "rows": payload_rows,
        "agree": agree_all,
    }
    _emit(args, payload, text)
    return EXIT_OK


def cmd_d1(args) -> int:
    man = load_manifest(args.manifest)
    _need_lie(man)
    n = man.spec.n
    payload = {"name": man.name, "maps": {}}
    rows = []
    if (args.p is None) != (args.q is None):
        raise _UsageError("d1 takes both --p and --q, or neither")
    pq_list = ([(args.p, args.q)] if args.p is not None
               else [(p, q) for p in range(n + 1) for q in range(n + 1)])
    for p, q in pq_list:
        m = deform.frolicher_d1(man.spec, p, q)
        nz = not m.is_zero()
        rank = linalg.rank_const(m) if m.rows and m.cols else 0
        payload["maps"][f"{p},{q}"] = {
            "rank": rank,
            "matrix": [[str(x) for x in row] for row in m.entries],
        }
        rows.append([f"({p},{q})", str(rank), "nonzero" if nz else "0"])
    text = _table_text(rows, ["(p,q)", "rank", "d1"])
    _emit(args, payload, text)
    return EXIT_OK


def cmd_witness(args) -> int:
    man = load_manifest(args.manifest)
    _need_lie(man)
    w = deform.parallelisable_witness(man.spec)
    if w is None:
        _emit(args, {"name": man.name, "witness": None},
              "no witness: the holomorphic differential vanishes identically")
        return EXIT_OK
    payload = {
        "name": man.name,
        "witness": {
            "form_index": w.i, "frame_index": w.k, "conjugate_index": w.j,
            "obstruction": str(w.value),
            "class_coordinates": [str(x) for x in w.coords],
        },
    }
    text = (
        f"witness: deforming along theta{w.k}(x)c{w.j} obstructs f{w.i}\n"
        f"o1(f{w.i}) = {w.value} (nonzero class in H^{{1,1}})"
    )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_lab(args) -> int:
    man = load_manifest(args.manifest)
    if man.kind != "free-complex":
        raise ValidationFailure("lab command needs a free-complex manifest")
    cx = man.complex
    degrees = [args.q] if args.q is not None else list(range(len(cx.ranks)))
    rows = []
    payload = {"name": man.name, "ranks": list(cx.ranks), "degrees": {}}
    mismatched = []
    for q in degrees:
        acct = freemod.jump_accounting(cx, q)
        if not acct.consistent:
            mismatched.append(q)
        rows.append([
            f"q={q}", str(acct.h0), str(acct.h_generic), str(acct.kernel_drop),
            str(acct.image_rise), str(acct.first_class_dim), str(acct.second_class_dim),
            "ok" if acct.consistent else "MISMATCH",
        ])
        payload["degrees"][str(q)] = {
            "h0": acct.h0, "h_generic": acct.h_generic,
            "kernel_drop": acct.kernel_drop, "image_rise": acct.image_rise,
            "first_class_dim": acct.first_class_dim,
            "second_class_dim": acct.second_class_dim,
            "order_bound": acct.order_bound,
            "consistent": acct.consistent,
            "notes": acct.notes,
        }
    text = _table_text(
        rows,
        ["degree", "h(0)", "h(gen)", "ker-drop", "im-rise", "first", "second", "check"],
    )
    _emit(args, payload, text)
    if mismatched:
        raise InternalInvariantError(f"jump accounting mismatch at degrees {mismatched}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="hodgejump", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("manifest", help="manifest path or builtin name")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "parse and validate a manifest")
    add("hodge", cmd_hodge, "baseline Hodge table of the structure")
    p = add("obstruct", cmd_obstruct, "first-order obstruction map at a bidegree")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--point", action="append", help="parameter assignments name=value[,name=value...]")
    p = add("mc", cmd_mc, "order-by-order family extension")
    p.add_argument("--order", type=int, default=None)
    p = add("jump", cmd_jump, "jump prediction with oracle cross-check")
    p.add_argument("--point", action="append", required=True,
                   help="parameter assignments name=value[,name=value...]")
    p = add("d1", cmd_d1, "first spectral differential on the baseline cohomology")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    add("witness", cmd_witness, "jump witness for parallelisable structures")
    p = add("lab", cmd_lab, "free-complex obstruction accounting")
    p.add_argument("--q", type=int, default=None)
    return parser


# parsing keeps no state in the parser, so one serves every call in a process
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    verbose = os.environ.get("HODGEJUMP_VERBOSE", "")
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at exit prints nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationFailure, SpecError, CoefficientError, linalg.LinalgError) as e:
        if verbose:
            raise
        print(f"validation failure: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except deform.McObstruction as e:
        print(f"obstructed: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalInvariantError as e:
        if verbose:
            raise
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
