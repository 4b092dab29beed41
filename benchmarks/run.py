"""hodgejump benchmark: seeded workloads, checked end-to-end timings and a
per-layer trace.

    python3 benchmarks/run.py --workload hodge-ladder --seed 3 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one table
    python3 benchmarks/run.py --record-baseline       # output digests at the default seed

One closed-loop client: passes run one after another, each in a fresh
interpreter (``passrun.py``), so nothing cached carries from one pass to the
next.  With ``--trace 0`` the run measures set-up several times, then runs
passes until ``--seconds`` would be exceeded (at least one) and reports
medians.  With ``--trace 1`` it runs one untraced, one traced and one
counting pass and reports the per-layer metrics.  Every task's output is
checked; a wrong answer counts as a failed task.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import workloads  # noqa: E402

BASELINE = BENCH_DIR / "baseline.json"
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170          # a run must end within 180 s
LAYER_FILES = ("coeff", "exterior", "linalg", "deform", "freemod", "manifest", "cli")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child(workdir: Path, mode: str, tag: str, deadline: float) -> dict:
    out = workdir / f"{tag}.json"
    cmd = [sys.executable, "-I", str(BENCH_DIR / "passrun.py"), str(ROOT),
           str(workdir / "job.json"), str(out), mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def load_digests() -> dict:
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def failures(workload, built, passes, digests, seed) -> dict:
    """Task id -> reason, over every pass; a task is counted once per pass."""
    bad = {}
    for k, res in enumerate(passes):
        outs = {t["id"]: t for t in res["tasks"]}
        for tid, why in workloads.check(workload, built, outs, digests, seed).items():
            bad[f"pass{k}:{tid}"] = why
    return bad


def outputs_equal(a: dict, b: dict) -> dict:
    """Task id -> reason, where pass ``b`` printed other bytes than pass ``a``."""
    return {t["id"]: "traced output differs from untraced output"
            for t, u in zip(a["tasks"], b["tasks"]) if (t["code"], t["out"]) != (u["code"], u["out"])}


def prepare(workload: str, seed: int, tag: str, tiny: bool = False):
    if not (ROOT / "src" / "hodgejump" / "__init__.py").is_file():
        raise BenchError(f"no hodgejump sources under {ROOT / 'src'}")
    built = workloads.build(workload, seed, tiny)
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    with open(workdir / "job.json", "w", encoding="utf-8") as fh:
        json.dump(built["job"], fh)
    return built, workdir


def run_end_to_end(workload, seed, seconds, digests, tiny=False):
    built, workdir = prepare(workload, seed, "e2e", tiny)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    child(workdir, "setup", "warmup", deadline)   # byte-compiles; not measured
    setup_runs = [child(workdir, "setup", f"setup{k}", deadline) for k in range(SETUP_SAMPLES)]
    passes, last = [], 0.0
    while not passes or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        passes.append(child(workdir, "plain", f"pass{len(passes)}", deadline))
        last = time.monotonic() - t
    bad = failures(workload, built, passes, digests, seed)
    setups = [r["setup_s"] for r in setup_runs + passes]
    # a task's latency is its median over the passes, which keeps one
    # disturbed sample out of the upper percentiles
    ms = sorted(statistics.median(task) for task in zip(*(
        [t["ms"] for t in res["tasks"]] for res in passes)))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in passes), "s"),
        "task_p50_ms": (statistics.median(ms), "ms"),
        "task_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8]
                        if len(ms) > 1 else ms[0], "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
    }
    raw = {
        "raw setup_s": statistics.median(r["setup_raw_s"] for r in setup_runs + passes),
        "raw wall_s": statistics.median(r["wall_raw_s"] for r in passes),
    }
    notes = {"passes": len(passes), "tasks per pass": len(ms), "setup samples": len(setups),
             **{k: round(v, 4) for k, v in raw.items()}}
    return metrics, len(ms) * len(passes), bad, notes


def run_traced(workload, seed, digests, tiny=False):
    built, workdir = prepare(workload, seed, "trace", tiny)
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = child(workdir, "plain", "plain", deadline)
    traced = child(workdir, "trace", "trace", deadline)
    counted = child(workdir, "count", "count", deadline)
    bad = failures(workload, built, [plain], digests, seed)
    for tag, res in (("trace", traced), ("count", counted)):
        for tid, why in outputs_equal(plain, res).items():
            bad[f"{tag}:{tid}"] = why
    units = dict(layers.metric_names())
    values = {**traced["layers"], **counted["layers"]}
    metrics = {name: (values[name], units[name]) for name in units}
    for name in LAYER_FILES:
        with open(ROOT / "src" / "hodgejump" / f"{name}.py", encoding="utf-8") as fh:
            metrics[f"{name}.src_lines"] = (sum(1 for _ in fh), "lines")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1, "ratio")
    attempted = 3 * len(plain["tasks"])
    notes = {"spans": str(workdir / "spans.jsonl")}
    return metrics, attempted, bad, notes


def report(workload, metrics, attempted, bad, notes) -> dict:
    print(f"== {workload}: " + ", ".join(f"{k} {v}" for k, v in notes.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':34s} {len(bad) / attempted:>14.6g} ratio"
          f"  ({len(bad)} of {attempted} tasks)")
    for tid, why in sorted(bad.items())[:10]:
        print(f"  FAILED {tid}: {why}", file=sys.stderr)
    return {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def record_baseline():
    """Write the sha256 of every task's output at the default seed."""
    seed = workloads.DEFAULT_SEED
    digests = {}
    for workload in workloads.WORKLOADS:
        built, workdir = prepare(workload, seed, "baseline")
        res = child(workdir, "plain", "pass", time.monotonic() + RUN_LIMIT_S)
        outs = {t["id"]: t for t in res["tasks"]}
        bad = workloads.check(workload, built, outs, {}, None)
        if bad:
            raise BenchError(f"{workload}: refusing to record failing outputs: {bad}")
        job = built["job"]
        for t in job["tasks"]:
            digests[workloads.task_key(workload, job, t)] = workloads.digest(outs[t["id"]]["out"])
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} output digests in {BASELINE}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-baseline", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record_baseline:
            record_baseline()
            return 0
        digests = load_digests()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in names:
            if args.trace:
                out = run_traced(workload, args.seed, digests)
            else:
                out = run_end_to_end(workload, args.seed, args.seconds, digests)
            results[workload] = report(workload, *out)
    except (BenchError, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
