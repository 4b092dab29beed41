"""One pass of a workload, in a fresh interpreter.

    python3 -I passrun.py ROOT TASKFILE OUTFILE MODE

MODE is ``setup`` (set up only), ``plain`` (tracing off), ``trace``
(spans around each layer's public functions) or ``count`` (coefficient
arithmetic counts).  Set-up is ``import hodgejump`` plus parsing and
validating every manifest the pass uses; the pass then runs the task list
in order.  Results are rendered to text only after the timed loop, and
everything is written to OUTFILE as JSON.

Timings are reported twice: raw, and normalised by a fixed reference loop
that a SIGALRM handler times every 0.1 s on the main thread (so the client
stays single-threaded), with the handler's time kept out of the tasks.  On
shared 2-vCPU virtual machines, Python was seen to change speed by up to
1.7x within tens of seconds, which no amount of averaging inside one run
removes; the ratio of a task to the reference loop run during it does not
drift.  A normalised time reads as the time on a machine where the
reference loop takes REFERENCE_NOMINAL_S.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_NOMINAL_S = 0.002


def _reference_work():
    """Exact elimination on an 8x8 shifted Hilbert matrix plus dict updates:
    the same kind of interpreter work as the program, none of its code."""
    n = 8
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if i != k:
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    counts = {}
    for i in range(600):
        counts[i % 89] = counts.get(i % 89, 0) + i
    return rows, counts


def reference_s() -> float:
    """Duration of the reference work, with the collector off so that the
    size of the program's heap cannot change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


class ReferenceClock:
    """Times the reference work every ``interval`` seconds from a SIGALRM
    handler, which runs on the main thread between bytecodes, and adds the
    handler's own time to ``spent`` so that task times can leave it out."""

    def __init__(self, interval=0.1):
        self.interval = interval
        self.samples = []      # (wall time the sample ended, its duration)
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        ref = reference_s()
        end = time.perf_counter()
        self.samples.append((end, ref))
        self.spent += end - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start, end, window=0.2):
        """REFERENCE_NOMINAL_S over the mean reference time from ``window``
        seconds before ``start`` to ``window`` after ``end``; samples over
        twice the median (a sample that was itself interrupted) are
        dropped."""
        near = [r for when, r in self.samples if start - window <= when <= end + window]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        cut = 2 * statistics.median(near)
        return REFERENCE_NOMINAL_S / statistics.mean(r for r in near if r <= cut)


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hodgejump

    if not os.path.abspath(hodgejump.__file__).startswith(os.path.join(src, "hodgejump")):
        raise ImportError(f"hodgejump imported from {hodgejump.__file__}, not from {src}")
    return hodgejump


class Context:
    """What the task executors share within one pass."""

    def __init__(self, hj, manifests):
        self.hj = hj
        self.manifests = manifests
        self.state = {}

    def point(self, man, label):
        return man.full_point(man.points[label])


def op_cli(ctx, t):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ctx.hj.cli.main(list(t["argv"]))
    return code, out.getvalue()


def op_hodge(ctx, t):
    return ctx.hj.hodge_table(ctx.manifests[t["manifest"]].spec)


def op_mc_extend(ctx, t):
    man = ctx.manifests[t["manifest"]]
    return ctx.hj.mc_extend(man.spec, man.psi1, t["order"])


def op_o1(ctx, t):
    man = ctx.manifests[t["manifest"]]
    rep = ctx.hj.obstruction_o1(man.spec, man.psi1, t["p"], t["q"])
    return rep, rep.rank_at(ctx.point(man, t["point"]))


def op_extend_class(ctx, t):
    man = ctx.manifests[t["manifest"]]
    rep, _ = ctx.state[t["source"]]
    alpha = rep.source.rep_form(man.spec, t["class"])
    return ctx.hj.extend_class(ctx.state[t["family"]], alpha, t["order"])


def op_oracle(ctx, t):
    man = ctx.manifests[t["manifest"]]
    return ctx.hj.oracle_hodge_at_point(
        man.spec, ctx.state[t["family"]], ctx.point(man, t["point"])
    )


def op_accounting(ctx, t):
    return ctx.hj.jump_accounting(ctx.manifests[t["manifest"]].complex, t["q"])


EXECUTORS = {
    "cli": op_cli,
    "hodge": op_hodge,
    "mc_extend": op_mc_extend,
    "o1": op_o1,
    "extend_class": op_extend_class,
    "oracle": op_oracle,
    "accounting": op_accounting,
}


def render(ctx, t, value) -> tuple[int, str]:
    """(exit code, output text) of a finished task."""
    op = t["op"]
    if op == "cli":
        return value
    if op in ("hodge", "oracle"):
        doc = {"h": {f"{p},{q}": h for (p, q), h in sorted(value.items())}}
    elif op == "mc_extend":
        doc = {"order": value.order, "psi": str(value.psi),
               "corrections": {str(k): str(v) for k, v in sorted(value.corrections.items())}}
    elif op == "o1":
        rep, rank = value
        doc = {"source_dim": rep.source.dim, "target_dim": rep.target.dim,
               "matrix": [[str(x) for x in row] for row in rep.matrix.entries],
               "rank_at_point": rank}
    elif op == "extend_class":
        coords = value.obstruction_coords
        doc = {"status": value.status, "order": value.order,
               "obstruction": None if coords is None else [str(c) for c in coords]}
    else:  # accounting
        doc = {k: getattr(value, k) for k in (
            "h0", "h_generic", "kernel_drop", "image_rise", "first_class_dim",
            "second_class_dim", "order_bound", "consistent", "notes")}
    return 0, json.dumps(doc, sort_keys=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


def run(root, task_file, out_file, mode):
    with open(task_file, encoding="utf-8") as fh:
        job = json.load(fh)
    tasks = job["tasks"]
    if mode in ("trace", "count"):
        sys.path.insert(0, BENCH_DIR)
        import layers
    ref_before = reference_s()
    t0 = time.perf_counter()
    hj = _import_program(root)
    if any(t["op"] == "cli" for t in tasks):
        import hodgejump.cli  # noqa: F401  (the CLI module is part of what a call loads)
    probe = None
    if mode == "trace":
        probe = layers.Tracer()
    elif mode == "count":
        probe = layers.Counter()
    if probe is not None:
        probe.install()
        probe.task = "setup"
    manifests = {name: hj.parse_manifest(text) for name, text in job["manifests"].items()}
    for name in job["builtins"]:
        hj.load_manifest(name)
    setup_s = time.perf_counter() - t0
    ref = reference_s()
    result = {"setup_raw_s": setup_s,
              "setup_s": setup_s * REFERENCE_NOMINAL_S * 2 / (ref_before + ref)}
    if mode != "setup":
        ctx = Context(hj, manifests)
        raw, scales = [], []
        clock = ReferenceClock()
        clock.samples.append((time.perf_counter(), ref))
        with clock:
            for t in tasks:
                if probe is not None:
                    probe.task = t["id"]
                start, spent = time.perf_counter(), clock.spent
                try:
                    value, error = EXECUTORS[t["op"]](ctx, t), None
                except (Exception, SystemExit) as e:  # a failed task is a result, not a crash
                    value, error = None, f"{type(e).__name__}: {e}"
                end = time.perf_counter()
                raw.append((end - start - (clock.spent - spent), value, error))
                ctx.state[t["id"]] = value
                scales.append((start, end))
            clock.sample()
        result["peak_rss_mb"] = _peak_rss_mb()
        scales = [clock.scale(start, end) for start, end in scales]
        result["wall_raw_s"] = sum(r[0] for r in raw)
        result["wall_s"] = sum(r[0] * k for r, k in zip(raw, scales))
        if probe is not None:
            result["layers"] = probe.finish(os.path.join(os.path.dirname(out_file), "spans.jsonl"))
        done = []
        for t, (elapsed, value, error), scale in zip(tasks, raw, scales):
            code, out = None, ""
            if not error:
                try:
                    code, out = render(ctx, t, value)
                except Exception as e:  # a result of the wrong shape is a failed task
                    error = f"rendering the result: {type(e).__name__}: {e}"
            done.append({"id": t["id"], "ms": elapsed * scale * 1e3, "raw_ms": elapsed * 1e3,
                         "code": code, "out": out, "error": error})
        result["tasks"] = done
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    run(*sys.argv[1:5])
