"""Seeded instance generator and workload definitions for the fibre-scan benchmark.

Every workload uses the curve y^2 = x^3 + 2 over F_7 (nine rational
points, so Pic^0 has nine classes).  A workload is a fixed schedule of
bundle shapes - rank, factor degrees, whether one elementary modification
is imposed - repeated in passes.  The seed and the pass number choose
everything else: which factor has an affine point in its support, that point
and its sign, the modification place and its codirection.  Two seeds
therefore differ in the bundles but not in the shape of the work.  The program under test sees only
the instance files and the CLI arguments.

Why each workload exists (profile shares measured with cProfile in process):

threshold-verify
    `verify mainA --ext 2`, the paper's main theorem on the shape of the
    curated acceptance family: degrees -9..-4, ranks 2 and 3, three in ten
    bundles modified.  About 95% of the time is under `scroll.scan_level`
    and 87% under `FunctionRep.local_expansion`; every (M, e) scan context
    rebuilds its curve over F_49 (and F_343 when a witness is searched
    there).  Memoised base change, Zech-log addition in F_{p^e} and faster
    series inversion move this workload.
    Bundles with a degree -1 summand are left out: E^* then has a base
    point, the first k = 0 scan finds it in 0.02 s, and such tasks would
    put the latency percentiles on the edge between two modes.
witness-crosscheck
    `osc --M all --k 2` with both cross-checks, over the prime field only,
    degrees -7..-3, two in five bundles modified.  About 59% of the time is
    under `bundle.h0` / `funcfield.rr_basis` (through `subsheaf_witnesses`)
    and 24% under `scan_level`; each function is expanded about 2.5 times at
    low precision.  An extension-field or base-change optimisation should
    leave it unchanged; an `h0` one should move it.
projection-scan
    `verify appendixA --m <-d-1> --seeds 8` on split bundles.  Every general
    draw builds a fresh `ScanContext` over a random section subsystem, so
    per-context caches fill once and are never reused; expansions are of new
    combination functions over F_7 only, and `linalg` self time is highest
    here.  It is the cache-fill-without-reuse counterpart to
    threshold-verify: a memoisation that wins there and costs here shows.
    Shapes for which some of 30 random split bundles gave a failing clause -
    (-2, -2), (-2, -4) and (-3, -3): the dimension hypothesis does not hold
    or the engineered projection does not inflect - are left out.

Run `python3 perfbench/workloads.py --workload NAME --seed N --out DIR` to
write one pass of instance files.
"""

from __future__ import annotations

import argparse
import json
import os
import random

P = 7
A4, A6 = 0, 2
AFFINE = sorted((x, y) for x in range(P) for y in range(P)
                if (y * y - (x ** 3 + A4 * x + A6)) % P == 0)
PIC0_SIZE = len(AFFINE) + 1
PROJECTION_SEEDS = 8


# --------------------------------------------------------------------------
# instance generation

def _divisor(rng, degree, affine):
    """A divisor of the given degree supported at O and, when `affine`, at one
    random affine point with multiplicity +-1."""
    if not affine:
        return [{"point": "O", "mult": degree}]
    x, y = rng.choice(AFFINE)
    mult = rng.choice([-1, 1])
    return [{"point": [str(x), str(y)], "mult": mult},
            {"point": "O", "mult": degree - mult}]


def _modification(rng, rank):
    cov = [0] * rank
    while not any(cov):
        cov = [rng.randrange(P) for _ in range(rank)]
    place = rng.choice(AFFINE + ["O"])
    point = "O" if place == "O" else [str(place[0]), str(place[1])]
    return {"point": point, "codirection": [str(c) for c in cov]}


def instance(rng, factor_degrees, modified):
    """One bundle of the given shape.  Exactly one factor, chosen by the seed,
    has an affine point in its support: the number of support points sets the
    size of every function built from the bundle and so most of a task's
    cost, and fixing it keeps tasks of one shape comparable across seeds.  The
    point, its sign and the modification vary the isomorphism class."""
    special = rng.randrange(len(factor_degrees))
    bundle = {"factors": [_divisor(rng, a, i == special)
                          for i, a in enumerate(factor_degrees)],
              "modifications": [_modification(rng, len(factor_degrees))] if modified
              else []}
    return {"field": {"kind": "prime", "p": P},
            "curve": {"a4": str(A4), "a6": str(A6)},
            "bundle": bundle, "M": [],
            "parameters": {"k": 0, "ext_degree": 1, "seed": 0, "m": None}}


# --------------------------------------------------------------------------
# output checks: None when the output is correct, else the reason

def _check_common(task, out, command):
    if out.get("command") != command:
        return f"command is {out.get('command')!r}"
    return None


def _check_theorem(task, out, command):
    problem = _check_common(task, out, command)
    if problem:
        return problem
    inputs = out["inputs"]
    if (inputs["rank"], inputs["degree"]) != (task["rank"], task["degree"]):
        return "reported rank/degree differ from the instance"
    if out["passed"] is not True:
        return "theorem verifier did not pass"
    return None


def check_threshold(task, out):
    problem = _check_theorem(task, out, "verify mainA")
    if problem:
        return problem
    # s1 = d - r a, and the universal bound at genus 1 is d mod r
    r, d, s1 = task["rank"], task["degree"], out["inputs"]["s1"]
    if s1 % r != d % r or s1 > d % r:
        return f"s1 = {s1} breaks s1 = d (mod r) or the universal bound"
    return None


def check_crosscheck(task, out):
    problem = _check_common(task, out, "osc")
    if problem:
        return problem
    reports = out["reports"]
    if len(reports) != PIC0_SIZE:
        return f"{len(reports)} twist classes scanned, expected {PIC0_SIZE}"
    for rep in reports:
        if rep["oracle_agreement"] is not True or rep["witness_match"] is not True:
            return "a cross-check disagreed"
        # every summand of E^* (x) M has degree >= 1, so h^1 = 0 and h^0 = -d
        if rep["n"] != -task["degree"] - 1 or rep["k"] != 2:
            return f"n = {rep['n']} at k = {rep['k']}, expected n = {-task['degree'] - 1}"
    return None


def check_projection(task, out):
    problem = _check_theorem(task, out, "verify appendixA")
    if problem:
        return problem
    match = [c for c in out["clauses"] if c["id"] == "random-projections-match"]
    if not match or match[0]["seeds"] != PROJECTION_SEEDS:
        return "projection clause missing or ran the wrong number of draws"
    return None


# --------------------------------------------------------------------------
# workloads: schedule of (factor degrees, modified), in run order

WORKLOADS = {
    "threshold-verify": {
        # cheap and dear shapes alternate, so the three traced tasks mix both
        "schedule": [((-2, -3), False), ((-3, -3), True), ((-3, -3), False),
                     ((-2, -3), True), ((-2, -2, -2), False), ((-3, -3, -3), False),
                     ((-2, -2), False), ((-3, -4), False), ((-2, -2), True),
                     ((-2, -3, -3), False)],
        "argv": lambda path, task: ["verify", "mainA", "--ext", "2",
                                    "--instance", path],
        "check": check_threshold,
        "tail_pct": 25,
        "trace_tasks": 3,
    },
    "witness-crosscheck": {
        "schedule": [((-1, -2), False), ((-2, -2), True), ((-2, -2), False),
                     ((-1, -3), True), ((-2, -3), False), ((-2, -3), True),
                     ((-3, -3), False), ((-1, -5), True), ((-3, -4), False),
                     ((-1, -2), True)],
        "argv": lambda path, task: ["osc", "--M", "all", "--k", "2",
                                    "--instance", path],
        "check": check_crosscheck,
        "tail_pct": 85,
        "trace_tasks": 10,
    },
    "projection-scan": {
        "schedule": [((-2, -3), False), ((-3, -4), False), ((-2, -2, -2), False),
                     ((-4, -4), False), ((-2, -2, -3), False), ((-1, -4), False)],
        "argv": lambda path, task: ["verify", "appendixA",
                                    "--m", str(-task["degree"] - 1),
                                    "--seeds", str(PROJECTION_SEEDS),
                                    "--instance", path],
        "check": check_projection,
        "tail_pct": 90,
        "trace_tasks": 24,
    },
}


def generate(workload, seed, pass_no=0):
    """One pass of a workload: [{name, rank, degree, modified, instance}]."""
    rng = random.Random(f"{workload}:{seed}:{pass_no}")
    tasks = []
    for i, (degrees, modified) in enumerate(WORKLOADS[workload]["schedule"]):
        tasks.append({"name": f"{workload}-p{pass_no:03d}-{i:02d}",
                      "rank": len(degrees), "degree": sum(degrees) - int(modified),
                      "modified": modified,
                      "instance": instance(rng, degrees, modified)})
    return tasks


def instance_bytes(task):
    return (json.dumps(task["instance"], sort_keys=True, indent=1) + "\n").encode()


def write_tasks(workload, tasks, directory):
    """Write each instance file; returns [(task, path, argv)]."""
    os.makedirs(directory, exist_ok=True)
    argv = WORKLOADS[workload]["argv"]
    out = []
    for task in tasks:
        path = os.path.join(directory, task["name"] + ".json")
        with open(path, "wb") as fh:
            fh.write(instance_bytes(task))
        out.append((task, path, argv(path, task)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-no", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    tasks = generate(args.workload, args.seed, args.pass_no)
    for _, path, argv in write_tasks(args.workload, tasks, args.out):
        print(" ".join(argv))


if __name__ == "__main__":
    main()
