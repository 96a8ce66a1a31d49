"""Alternating parent/change benchmark pairs, written as BENCH_<N>.json.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_12.json \\
        --workloads threshold-verify witness-crosscheck projection-scan

The parent is exported from git (`git archive`) into a temporary directory;
the change is this checkout's working tree.  Every workload gets PAIRS = 10
pairs, the fewest on which a gain or a no-regression result can rest.  Each
pair runs `perfbench/run.py --trace 0` once in each checkout, one at a time,
on the same seed and for BENCHMARK.json's run_seconds (the run length is
the benchmark's, not the runner's); the side that runs first alternates
(parent first on even pair index), so a drift of host speed during a pair
hits both sides alike.  Pair i of the w-th workload listed uses seed
10000 + 100 w + i + 1.

After a workload's pairs, each side runs `perfbench/run.py --trace 1` once on
the first pair's seed; its per-layer counts and self times are kept under
`traced`, by workload, with that seed.

The output holds every run (`runs`, by workload and seed, with the result
object that run.py prints), the traced metrics, and a `summary` per
workload and metric: parent and change medians, their ratio, the number of
pairs the change won (by the metric's direction in BENCHMARK.json) and the
parent's interquartile range, upper minus lower quartile by
statistics.quantiles(n=4).  A claimed gain
should beat that range in the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_BASE = 10000
PAIRS = 10


def export(rev, dest):
    """The committed tree of rev, unpacked into dest; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    archive = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev],
                   cwd=ROOT, check=True)
    tree = os.path.join(dest, short)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return short, tree


def run_once(tree, workload, seed, seconds, trace):
    """The result object that one run.py call in the given tree prints."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs, directions):
    """Per metric: medians, ratio, pairs won by the change, parent IQR."""
    out = {"failed": {side: sum(r[side]["failed"] for r in runs.values())
                      for side in ("change", "parent")}}
    for name, better in directions.items():
        pairs = [(r["parent"]["metrics"][name]["value"],
                  r["change"]["metrics"][name]["value"]) for r in runs.values()]
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        won = sum(1 for p, c in pairs if (c > p if better == "higher" else c < p))
        q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [parent[0]] * 3
        out[name] = {"parent_median": round(statistics.median(parent), 4),
                     "change_median": round(statistics.median(change), 4),
                     "change_over_parent": round(statistics.median(change)
                                                 / statistics.median(parent), 3),
                     "pairs": len(pairs), "pairs_won_by_change": won,
                     "parent_iqr": round(q[2] - q[0], 4)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser.add_argument("--workloads", nargs="+", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--host", default="", help="a line describing the host")
    parser.add_argument("--what", default="", help="a line describing the change")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    doc = {"command": f"python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {seconds:g} --trace 0",
           "host": args.host,
           "order": "pairs alternate which side runs first "
                    "(parent first on even pair index)",
           "parent_iqr": "upper minus lower quartile of the parent's runs "
                         "(statistics.quantiles, n=4)",
           "what": args.what, "runs": {}, "summary": {}, "traced": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        doc["parent_commit"], parent = export(args.parent, tmp)
        for w, workload in enumerate(args.workloads):
            runs = doc["runs"][workload] = {}
            for i in range(PAIRS):
                seed = SEED_BASE + 100 * w + i + 1
                sides = [("parent", parent), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                runs[str(seed)] = {side: run_once(tree, workload, seed, seconds, 0)
                                   for side, tree in sides}
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {runs[str(seed)][side]['metrics']['tasks_per_s']['value']:.3f}"
                    for side, _ in sides) + " tasks/s", file=sys.stderr, flush=True)
            doc["summary"][workload] = summarize(runs, directions)
            seed = SEED_BASE + 100 * w + 1
            doc["traced"][workload] = {
                "seed": seed,
                **{side: run_once(tree, workload, seed, seconds, 1)["metrics"]
                   for side, tree in (("parent", parent), ("change", ROOT))}}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
