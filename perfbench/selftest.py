"""Tests of the benchmark itself (not of the engine).

    python3 perfbench/selftest.py

The file name keeps it out of the engine's pytest collection; it is plain
unittest and also runs under `python3 -m pytest perfbench/selftest.py`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")


def _bindings(modules):
    """Every module attribute and class-dict entry of the engine, by identity."""
    out = {}
    for mod in modules:
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_engine()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_same_seed_gives_identical_instances(self):
        for name in workloads.WORKLOADS:
            a = [workloads.instance_bytes(t) for t in workloads.generate(name, 7, 2)]
            b = [workloads.instance_bytes(t) for t in workloads.generate(name, 7, 2)]
            c = [workloads.instance_bytes(t) for t in workloads.generate(name, 8, 2)]
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)

    def test_task_mix_is_fixed_across_seeds(self):
        def mix(name, seed):
            return [(t["rank"], t["degree"], t["modified"])
                    for t in workloads.generate(name, seed)]
        for name in workloads.WORKLOADS:
            self.assertEqual(mix(name, 1), mix(name, 99))

    def test_tracer_patches_reimported_names_and_restores_all(self):
        modules = tracer._engine_modules()
        before = _bindings(modules)
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        with tracer.Tracer():
            for mod, name in [("bundle", "h0"), ("scroll", "h0"), ("theorems", "h0"),
                              ("cli", "h0"), ("scroll", "normalized_series"),
                              ("theorems", "normalized_series"),
                              ("funcfield", "rr_basis"), ("bundle", "rr_basis"),
                              ("theorems", "rr_basis"), ("curve", "extension_of")]:
                self.assertIsNot(getattr(mods[mod], name), before[(f"scrollinflect.{mod}",
                                                                   name)], (mod, name))
            ctx = mods["scroll"].ScanContext
            self.assertIs(mods["theorems"].ScanContext, ctx)
            self.assertIs(mods["cli"].ScanContext, ctx)
            self.assertTrue(hasattr(ctx.__dict__["__init__"], "__wrapped__"))
        after = _bindings(modules)
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_self_times_fit_in_traced_wall_time(self):
        tasks = run.prepare(self.cli, "projection-scan", 3, 0, WORK)[:2]
        with tracer.Tracer() as tr:
            t0 = time.perf_counter()
            for i, (task, _, argv) in enumerate(tasks):
                tr.start_task(i)
                rec = run.execute(self.cli, "projection-scan", task, argv)
                tr.end_task()
                self.assertIsNone(rec["problem"])
            wall = time.perf_counter() - t0
        self.assertGreater(tr.calls("series.LaurentSeries.mul"), 0)
        self.assertGreater(tr.total_self_s(), 0)
        self.assertLessEqual(tr.total_self_s(), wall)
        self.assertEqual(tr.calls("cli.run_command"), len(tasks))
        self.assertEqual(tr.extension_built, 0)

    def test_forced_failure_is_counted(self):
        (good, _, argv), (bad, _, bad_argv) = run.prepare(
            self.cli, "projection-scan", 4, 0, WORK)[:2]
        bad = dict(bad, degree=bad["degree"] - 1)          # check must reject it
        records = [run.execute(self.cli, "projection-scan", good, argv),
                   run.execute(self.cli, "projection-scan", bad, bad_argv),
                   run.execute(self.cli, "projection-scan", good,
                               argv[:-1] + [argv[-1] + ".missing"])]
        self.assertIsNone(records[0]["problem"])
        self.assertIsNotNone(records[1]["problem"])
        self.assertEqual(records[2]["problem"], "exit code 1")
        metrics = run.end_to_end("projection-scan", records, [0.1], [0.1])
        result = run.summarize(records, metrics)
        self.assertEqual((result["attempted"], result["failed"]), (3, 2))
        self.assertFalse(result["correct"])
        total = sum(r["seconds"] for r in records)
        self.assertAlmostEqual(metrics["tasks_per_s"]["value"], 1 / total)

    def test_timed_run_covers_whole_passes(self):
        tasks = run.prepare(self.cli, "projection-scan", 5, 0, WORK)
        records = run.timed_run(self.cli, "projection-scan", 5, 0.01, tasks, WORK)
        self.assertEqual(len(records), len(tasks))
        self.assertTrue(all(r["problem"] is None for r in records))

    def test_normalised_scales_by_reference_speed(self):
        _, seconds, raw = run.normalised(run.reference_work)
        self.assertGreater(raw, 0)
        self.assertAlmostEqual(seconds / run.REFERENCE_S, 1, delta=0.5)

    def test_digest_mismatch_fails_the_task(self):
        first = {"task": {"name": "t"}, "digest": "a", "problem": None}
        run.compare_digests(first, {"digest": "b"}, "between repeated runs")
        self.assertIn("differs", first["problem"])

    def test_benchmark_json_names_the_emitted_metrics(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        records = [{"seconds": 1.0, "raw_seconds": 1.0, "problem": None}] * 2
        emitted = run.end_to_end("projection-scan", records, [0.1], [0.1])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: v["unit"] for k, v in emitted.items()})
        layers = run.per_layer(tracer.Tracer(), 1.0, 1.0)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: v["unit"] for k, v in layers.items()})
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(workloads.WORKLOADS))

    def test_without_engine_exits_nonzero_and_prints_no_result(self):
        bare = os.path.join(WORK, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(bare, "perfbench", "run.py"),
             "--workload", "projection-scan", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
