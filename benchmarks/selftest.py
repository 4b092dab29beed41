"""Self-test of the benchmark itself, at tiny sizes (about a minute).

    python3 benchmarks/selftest.py

Checks that every workload runs and passes its output checks, that a
deliberately corrupted output is counted as a failure, that traced and
counting passes print the same bytes as an untraced pass, that one seed
always makes the same inputs and the same coefficient counts, and that the
metric names agree with BENCHMARK.json.
"""

from __future__ import annotations

import json
import time
import unittest

import run
import workloads
from layers import metric_names

SEED = 2   # not the default seed, so no recorded digest is required


def tiny_pass(workload, mode="plain", seed=SEED):
    built, workdir = run.prepare(workload, seed, f"selftest-{mode}", tiny=True)
    res = run.child(workdir, mode, "pass", time.monotonic() + run.RUN_LIMIT_S)
    return built, res


def _bump_json(out, path, delta=1):
    doc = json.loads(out)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    return json.dumps(doc, sort_keys=True)


def _swap_ones_and_twos(out):
    return out.translate(str.maketrans("12", "21"))


# workload -> (task picked from the tiny pass, corruption of its output)
CORRUPTIONS = {
    "hodge-ladder": (lambda t: t["id"] == "heisxc",
                     lambda out: _bump_json(out, ["h", "1,2"])),
    "obstruction-n5": (lambda t: t["id"] == "oracle",
                       lambda out: _bump_json(out, ["h", "2,1"])),
    "lab-complexes": (lambda t: t["id"].endswith(":q0"),
                      lambda out: _bump_json(out, ["h0"])),
    "iwasawa-cli": (lambda t: t["out"].startswith("(p,q)  h(0)"), _swap_ones_and_twos),
}


class BenchmarkSelfTest(unittest.TestCase):
    def test_each_workload_runs_tiny_and_passes_its_checks(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics, attempted, bad, _ = run.run_end_to_end(workload, SEED, 0, {}, tiny=True)
                self.assertEqual(bad, {})
                self.assertGreater(attempted, 0)
                self.assertTrue(all(value > 0 for value, _ in metrics.values()), metrics)

    def test_corrupted_output_counts_as_failure(self):
        for workload, (pick, corrupt) in CORRUPTIONS.items():
            with self.subTest(workload=workload):
                built, res = tiny_pass(workload)
                self.assertEqual(run.failures(workload, built, [res], {}, SEED), {})
                victim = next(t for t in res["tasks"] if pick(t))
                victim["out"] = corrupt(victim["out"])
                bad = run.failures(workload, built, [res], {}, SEED)
                self.assertIn(f"pass0:{victim['id']}", bad)

    def test_recorded_digest_catches_any_changed_byte(self):
        built, res = tiny_pass("iwasawa-cli")
        job = built["job"]
        digests = {workloads.task_key("iwasawa-cli", job, t): workloads.digest(o["out"])
                   for t, o in zip(job["tasks"], res["tasks"])}
        self.assertEqual(run.failures("iwasawa-cli", built, [res], digests, SEED), {})
        res["tasks"][0]["out"] += " "
        bad = run.failures("iwasawa-cli", built, [res], digests, SEED)
        self.assertEqual(list(bad), [f"pass0:{res['tasks'][0]['id']}"])

    def test_traced_and_counting_passes_print_the_same_bytes(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics, _, bad, _ = run.run_traced(workload, SEED, {}, tiny=True)
                self.assertEqual(bad, {})
                for name, _ in metric_names():
                    self.assertIn(name, metrics)

    def test_same_seed_same_inputs_and_counts(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(workloads.build(workload, SEED), workloads.build(workload, SEED))
                self.assertNotEqual(workloads.build(workload, SEED)["job"],
                                    workloads.build(workload, SEED + 1)["job"])
                _, first = tiny_pass(workload, "count")
                _, second = tiny_pass(workload, "count")
                self.assertEqual(first["layers"], second["layers"])
                self.assertGreater(first["layers"]["coeff.gr_mul_calls"], 0)

    def test_metric_names_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
        metrics, _, _, _ = run.run_end_to_end("iwasawa-cli", SEED, 0, {}, tiny=True)
        self.assertEqual(sorted(m["name"] for m in declared["end_to_end"]), sorted(metrics))
        traced, _, _, _ = run.run_traced("iwasawa-cli", SEED, {}, tiny=True)
        self.assertEqual(sorted(m["name"] for m in declared["per_layer"]), sorted(traced))
        units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
        for name, (_, unit) in {**metrics, **traced}.items():
            self.assertEqual(units[name], unit, name)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
