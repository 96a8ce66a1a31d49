"""Byte-identity sweep: the stdout SHA-256 and exit code of 221 CLI commands.

    python3 tools/sweep.py                   # this checkout's working tree
    python3 tools/sweep.py --against HEAD    # and a committed revision, compared

The commands are, on each of the three `instances/` at `--ext` 1, 2 and 3:
`osc`, `scan` and `witnesses` with `--M all` at k = 0, 1, 2;
`segre --method bruteforce`; `sections --M all`; `project --m 3 --k 2`;
`curve-info`; `hypothesis-nilpotent`; and `verify` mainA, mainB, mainBmod,
mainC and `appendixA --m 3 --seeds 6` (171 commands).  Then `bounds`, which
reads no instance, on r = 2, 3, d = -9 .. -4 and g = 1, without and with
`--m 3` (24 commands).  Then the 26 perfbench tasks of seed 1, pass 0 (ten
threshold-verify, ten witness-crosscheck, six projection-scan), with the
argv their workload gives.

Each command runs in its own `python3 -m scrollinflect.cli` process with the
tree's `src/` on PYTHONPATH, one at a time.  Both sides read the same input
files: this checkout's `instances/` and perfbench instances written once by
this checkout's `perfbench/workloads.py`, so only the engine differs.  One
line per command is printed: exit code, SHA-256 of stdout, and the command.

With `--against REV`, REV is exported with `bench_pairs.export`, every
command runs on both sides, and the commands whose exit code or stdout
differ are listed; the exit status is 1 if any does, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INSTANCES = ("eflat", "esharp", "estar")
BENCH_SEED = 1


def instance_commands():
    """The 171 commands on the committed instances: (label, argv)."""
    out = []
    for name in INSTANCES:
        path = os.path.join(ROOT, "instances", name + ".json")
        for e in (1, 2, 3):
            tail = ["--instance", path, "--ext", str(e)]
            argvs = [[cmd, "--M", "all", "--k", str(k)]
                     for cmd in ("osc", "scan", "witnesses") for k in (0, 1, 2)]
            argvs += [["segre", "--method", "bruteforce"], ["sections", "--M", "all"],
                      ["project", "--m", "3", "--k", "2"], ["curve-info"],
                      ["hypothesis-nilpotent"]]
            argvs += [["verify", t] for t in ("mainA", "mainB", "mainBmod", "mainC")]
            argvs.append(["verify", "appendixA", "--m", "3", "--seeds", "6"])
            out += [(f"{name} ext {e}: {' '.join(a)}", a + tail) for a in argvs]
    return out


def bounds_commands():
    """The 24 `bounds` commands: (label, argv)."""
    out = []
    for r in (2, 3):
        for d in range(-9, -3):
            for tail in ([], ["--m", "3"]):
                argv = ["bounds", "--r", str(r), "--d", str(d), "--g", "1"] + tail
                out.append((" ".join(argv), argv))
    return out


def bench_commands(workdir):
    """The 26 pass-0 perfbench tasks of seed 1, instances written to workdir."""
    perfbench = os.path.join(ROOT, "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads
    out = []
    for workload in workloads.WORKLOADS:
        tasks = workloads.generate(workload, BENCH_SEED, 0)
        for task, _, argv in workloads.write_tasks(workload, tasks, workdir):
            out.append((f"perfbench {task['name']}: {' '.join(argv[:-2])}", argv))
    return out


def commands(workdir):
    return instance_commands() + bounds_commands() + bench_commands(workdir)


def run(tree, argv):
    """(exit code, SHA-256 of stdout) of one CLI call on the engine in tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "scrollinflect.cli"] + argv,
                          cwd=tree, env=env, capture_output=True)
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also run REV's engine and list every difference")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
        cmds = commands(os.path.join(tmp, "perfbench"))
        trees = [("change", ROOT)]
        if args.against:
            sys.path.insert(0, HERE)
            from bench_pairs import export
            short, parent = export(args.against, tmp)
            trees.insert(0, (short, parent))
        differ = []
        for label, argv_ in cmds:
            results = [run(tree, argv_) for _, tree in trees]
            for (side, _), (code, digest) in zip(trees, results):
                print(f"{code} {digest} {side} {label}", flush=True)
            if len(set(results)) > 1:
                differ.append(label)
    if args.against:
        print(f"{len(cmds) - len(differ)} of {len(cmds)} commands equal "
              f"{args.against} in exit code and stdout")
        for label in differ:
            print(f"DIFFERS: {label}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
