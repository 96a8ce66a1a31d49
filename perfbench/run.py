"""Fibre-scan benchmark: one workload, in one process, through the CLI entry point.

    python3 perfbench/run.py --workload threshold-verify --seed 1 --seconds 30 --trace 0

Each task is one `cli.run_command(argv)` call on an instance file generated
from the seed (see workloads.py), with stdout captured and checked.  Tasks
run back to back in a closed loop, one at a time, in whole passes over the
workload's schedule, until `--seconds` of scaled task time have been spent.
The engine is imported from `src/` next to this directory and nowhere else.

Every time is scaled to a fixed host speed with a reference computation
timed around it (see `normalised`); the unscaled figures go to stderr.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median of repeated fresh engine imports plus generating,
               writing and CLI-validating the first pass of instances
  tasks_per_s  tasks that passed every check, per second of task time
  task_p50_s   median task latency
  task_tail_s  a fixed high percentile of task latency per workload, chosen
               so that at least ten tasks lie beyond it (count printed)
  peak_rss_mb  peak resident memory of this process
--trace 1 runs a fixed prefix of the task stream, each task untraced and then
traced, and reports the per-layer counts and self times (see tracer.py)
together with trace.overhead_ratio.  Spans are written to perfbench/_out/.

Checked on every task: exit code 0, the workload's output checks, and the
SHA-256 of the task's stdout, which must repeat when the task is rerun and
between traced and untraced runs.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads
from tracer import TARGETS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PACKAGE = "scrollinflect"
SETUP_REPEATS = 9
# top-level layers whose call count is the task count
SELF_ONLY = {"cli.run_command", "cli.load_instance", "cli.emit",
             "theorems.verify_segre_threshold", "theorems.verify_projection"}
# layers whose time including everything beneath them shows the profile split
INCLUSIVE = ["scroll.scan_level", "bundle.h0", "funcfield.local_expansion",
             "scroll.subsheaf_witnesses", "scroll.ScanContext"]


# reference_work() takes about this long on the host the benchmark was tuned on
REFERENCE_S = 0.004


class BenchError(Exception):
    """The benchmark cannot run: engine missing, or a generated input rejected."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_engine():
    """A fresh import of the engine's CLI module from src/ of this checkout."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        cli = importlib.import_module(PACKAGE + ".cli")
    except ImportError as e:
        raise BenchError(f"cannot import the engine from {SRC}: {e}") from e
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"engine imported from {cli.__file__}, not from {SRC}")
    return cli


def reference_work():
    """Fixed pure-Python work, independent of the engine: mod-7 polynomial
    products over lists and ints, the engine's own kind of instruction mix."""
    a = [(3 * i + 1) % 7 for i in range(24)]
    total = 0
    for rep in range(80):
        b = [(5 * i + rep) % 7 for i in range(24)]
        out = [0] * 47
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % 7
        total += sum(out)
    return total


def reference_s():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def normalised(fn):
    """(fn(), seconds scaled to reference speed, raw seconds).

    The shared host this benchmark was tuned on changes speed by up to 1.7x
    for tens of seconds at a time, slowing all interpreted code alike.  The
    reference work timed just before and just after `fn` moves with it
    (correlation 0.90 with a repeated engine task), so seconds * REFERENCE_S /
    reference time estimates the time at one fixed host speed.
    """
    before = reference_s()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    after = reference_s()
    return result, raw * 2 * REFERENCE_S / (before + after), raw


def invoke(cli, argv):
    """(exit code, or None on an escaped exception; stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.run_command(argv)
        except Exception:               # the task failed; the benchmark goes on
            rc = None
            log(traceback.format_exc())
    return rc, buf.getvalue()


def prepare(cli, workload, seed, pass_no, workdir):
    """Generate and write one pass; every instance must be accepted by the CLI."""
    tasks = workloads.write_tasks(workload, workloads.generate(workload, seed, pass_no),
                                  workdir)
    for task, path, _ in tasks:
        rc, out = invoke(cli, ["curve-info", "--instance", path])
        if rc != 0:
            raise BenchError(f"generator bug: the CLI rejected {task['name']}: {out}")
    return tasks


def execute(cli, workload, task, argv):
    """Run one task and check its output; returns its record."""
    (rc, out), seconds, raw = normalised(lambda: invoke(cli, argv))
    problem = None
    if rc != 0:
        problem = f"exit code {rc}"
    else:
        try:
            problem = workloads.WORKLOADS[workload]["check"](task, json.loads(out))
        except (ValueError, KeyError, TypeError) as e:
            problem = f"unreadable output: {type(e).__name__}: {e}"
    if problem:
        log(f"FAILED {task['name']} ({' '.join(argv)}): {problem}")
    return {"task": task, "argv": argv, "seconds": seconds, "raw_seconds": raw,
            "digest": hashlib.sha256(out.encode()).hexdigest(), "problem": problem}


def compare_digests(first, again, what):
    """Mark `first` failed when a rerun printed different bytes."""
    if first["digest"] != again["digest"]:
        problem = f"stdout differs {what}"
        log(f"FAILED {first['task']['name']}: {problem}")
        first["problem"] = first["problem"] or problem


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(cli, workload, seed, seconds, tasks, workdir):
    """Closed loop over whole passes until `seconds` of scaled task time are spent.

    Each pass after the first has new instances, so no task repeats inside
    the timed loop; whole passes keep every shape of the schedule equally
    represented, and counting scaled time keeps the number of passes from
    changing with the host's speed.  The first task is rerun afterwards,
    untimed, to check that its stdout repeats byte for byte.
    """
    records = []
    spent = 0.0
    pass_no = 0
    while spent < seconds:
        if pass_no:
            tasks = prepare(cli, workload, seed, pass_no, workdir)
        for task, _, argv in tasks:
            records.append(execute(cli, workload, task, argv))
            spent += records[-1]["seconds"]
        pass_no += 1
    first = records[0]
    compare_digests(first, execute(cli, workload, first["task"], first["argv"]),
                    "between repeated runs")
    return records


def setup(workload, seed, workdir):
    """Repeated fresh engine imports plus the first pass of instances."""
    times, raw_times = [], []
    for _ in range(SETUP_REPEATS):
        def once():
            cli = import_engine()
            return cli, prepare(cli, workload, seed, 0, workdir)
        (cli, tasks), seconds, raw = normalised(once)
        times.append(seconds)
        raw_times.append(raw)
    return cli, tasks, times, raw_times


def end_to_end(workload, records, setup_times, raw_setup_times):
    pct = workloads.WORKLOADS[workload]["tail_pct"]
    passed = sum(1 for r in records if not r["problem"])

    def summary(seconds, setups):
        return {"setup_s": metric(statistics.median(setups), "s"),
                "tasks_per_s": metric(passed / sum(seconds), "1/s"),
                "task_p50_s": metric(statistics.median(seconds), "s"),
                "task_tail_s": metric(percentile(seconds, pct), "s")}

    seconds = [r["seconds"] for r in records]
    beyond = sum(1 for s in seconds if s > percentile(seconds, pct))
    log(f"task_tail_s is p{pct} of {len(seconds)} tasks, {beyond} beyond it")
    raw = summary([r["raw_seconds"] for r in records], raw_setup_times)
    for name, m in raw.items():
        log(f"unnormalised {name} = {m['value']:.6g} {m['unit']}")
    out = summary(seconds, setup_times)
    out["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return out


def traced_run(cli, workload, seed, tasks, workdir):
    """A fixed task prefix, each task untraced and then traced; per-layer records.

    Alternating the two runs task by task exposes both to the same machine
    state, so their time ratio is the tracing overhead.
    """
    count = workloads.WORKLOADS[workload]["trace_tasks"]
    subset = list(tasks)
    while len(subset) < count:
        subset += prepare(cli, workload, seed, len(subset) // len(tasks), workdir)
    untraced, traced = [], []
    tr = Tracer()
    for i, (task, _, argv) in enumerate(subset[:count]):
        untraced.append(execute(cli, workload, task, argv))
        tr.start_task(i)
        with tr:
            traced.append(execute(cli, workload, task, argv))
        tr.end_task()
        compare_digests(traced[-1], untraced[-1], "between traced and untraced runs")
    untraced_s = sum(r["seconds"] for r in untraced)
    traced_s = sum(r["seconds"] for r in traced)
    log(f"traced {count} tasks: unnormalised {sum(r['raw_seconds'] for r in traced):.3f} s"
        f" traced, {tr.total_self_s():.3f} s summed self time")
    return untraced + traced, tr, per_layer(tr, untraced_s, traced_s)


def per_layer(tr, untraced_s, traced_s):
    out = {}
    for _, _, name, _ in TARGETS:
        if name not in SELF_ONLY:
            out[f"{name}.calls"] = metric(tr.calls(name), "count")
        out[f"{name}.self_s"] = metric(tr.self_s(name), "s")
    for name in INCLUSIVE:
        out[f"{name}.incl_s"] = metric(tr.inclusive.get(name, 0.0), "s")
    out["fields.extension_of.built"] = metric(tr.extension_built, "count")
    expansions = tr.calls("funcfield.local_expansion")
    out["funcfield.local_expansion.repeat_ratio"] = metric(
        1 - tr.expansion_distinct / expansions if expansions else 0.0, "ratio")
    out["funcfield.local_expansion.retries"] = metric(
        tr.leaf_calls_under("curve.param_series", "funcfield.local_expansion")
        - expansions, "count")
    lookups = tr.calls("scroll.orders_at")
    out["scroll.orders_at.hit_ratio"] = metric(
        1 - tr.calls("scroll.order_matrices") / lookups if lookups else 0.0, "ratio")
    out["trace.overhead_ratio"] = metric(traced_s / untraced_s, "ratio")
    return out


def summarize(records, metrics):
    """The result object: every task attempted, failed if any check failed."""
    failed = sum(1 for r in records if r["problem"])
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        cli, tasks, setup_times, raw_setup_times = setup(args.workload, args.seed,
                                                         workdir)
        if args.trace:
            records, tr, metrics = traced_run(cli, args.workload, args.seed, tasks,
                                              workdir)
            outdir = os.path.join(HERE, "_out")
            os.makedirs(outdir, exist_ok=True)
            tr.dump(os.path.join(outdir, f"spans-{args.workload}-{args.seed}.json"))
        else:
            records = timed_run(cli, args.workload, args.seed, args.seconds, tasks,
                                workdir)
            metrics = end_to_end(args.workload, records, setup_times,
                                 raw_setup_times)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    result = summarize(records, metrics)
    log(f"failed_frac = {result['failed'] / result['attempted']:.4f} "
        f"({result['failed']}/{result['attempted']} tasks)")
    log("no waiting time is measured: one process, one thread, no queues")
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
