"""Byte-identity sweep: the stdout SHA-256 and exit code of 299 CLI commands.

    python3 tools/sweep.py                   # this checkout's working tree
    python3 tools/sweep.py --against HEAD    # and a committed revision, compared

The commands are, on each of the three `instances/` at `--ext` 1, 2 and 3:
`osc`, `scan` and `witnesses` with `--M all` at k = 0, 1, 2;
`segre --method bruteforce`; `sections --M all`; `project --m 3 --k 2`;
`curve-info`; `hypothesis-nilpotent`; and `verify` mainA, mainB, mainBmod,
mainC and `appendixA --m 3 --seeds 6`; at `--ext` 1 and 2 also
`osc --M all --k 4`, a context scanned directly at an order above 2 (177
commands).  Then `bounds`, which reads no instance, on r = 2, 3,
d = -9 .. -4 and g = 1, without and with `--m 3` (24 commands).  Then
`curve-info` on 49 malformed copies of estar: 47 with one fault each, one
per error branch of the instance decoders (a missing key, a value of the
wrong JSON type, a size limit, a point off the curve, a bad parameter or
twist selector, ...), and two with two faults, of which the decoders report
the first.  Then 22 commands off the prime fields (OFF_PRIME): 13 on estar
over F_49 (the scans, segre, mainA, mainB, mainC, project, and a base change
that exits 1); 8 on y^2 = x^3 - x over Q with O(-3O) + O(-2O - (0,0)), four
answered and four that exit 1 (osc, brute-force segre, mainA, mainC); and
`hypothesis-nilpotent` on O(-O) + O(-4O) there, which answers `exists`.
Then one argv error (`osc --k x`, exit 1).  Then the 26 perfbench tasks of
seed 1, pass 0 (ten threshold-verify, ten witness-crosscheck, six
projection-scan), with the argv their workload gives.

Each command runs in its own `python3 -m scrollinflect.cli` process with the
tree's `src/` on PYTHONPATH, one at a time.  Both sides read the same input
files: this checkout's `instances/`, the malformed and off-prime copies and
the perfbench instances, written once by this checkout's
`perfbench/workloads.py`, so only the engine differs.  One line per command
is printed: exit code, SHA-256 of stdout, and the command.

With `--against REV`, REV is exported with `bench_pairs.export`, every
command runs on both sides, and the commands whose exit code or stdout
differ are listed; the exit status is 1 if any does, else 0.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INSTANCES = ("eflat", "esharp", "estar")
BENCH_SEED = 1


def instance_commands():
    """The 177 commands on the committed instances: (label, argv)."""
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
            if e < 3:
                argvs.append(["osc", "--M", "all", "--k", "4"])
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


def _set(path, value):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _drop(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _both(first, second):
    def edit(doc):
        first(doc)
        second(doc)
    return edit


EXT = {"kind": "extension", "p": 7, "degree": 2}
MODS = ("bundle", "modifications")
# (label, edit of a copy of estar): one per error branch of the decoders,
# then two with two faults
MALFORMED = [
    ("no field", _drop("field")),
    ("field not an object", _set(("field",), [7])),
    ("unknown field kind", _set(("field",), {"kind": "finite", "p": 7})),
    ("no p", _set(("field",), {"kind": "prime"})),
    ("p a string", _set(("field",), {"kind": "prime", "p": "7"})),
    ("p not prime", _set(("field",), {"kind": "prime", "p": 6})),
    ("p above the order limit", _set(("field",), {"kind": "prime", "p": 1000003})),
    ("no degree", _set(("field",), {"kind": "extension", "p": 7})),
    ("degree a string", _set(("field",), dict(EXT, degree="2"))),
    ("degree 4", _set(("field",), dict(EXT, degree=4))),
    ("modulus a string", _set(("field",), dict(EXT, modulus="301"))),
    ("modulus entry a string", _set(("field",), dict(EXT, modulus=[3, "0", 1]))),
    ("modulus with a root", _set(("field",), dict(EXT, modulus=[0, 0, 1]))),
    ("modulus not monic", _set(("field",), dict(EXT, modulus=[3, 0, 2]))),
    ("no curve", _drop("curve")),
    ("curve not an object", _set(("curve",), "y^2")),
    ("no a4", _drop("curve", "a4")),
    ("a4 a list", _set(("curve", "a4"), [1, 2])),
    ("singular curve", _set(("curve", "a6"), "0")),
    ("no bundle", _drop("bundle")),
    ("no factors", _drop("bundle", "factors")),
    ("factors 5", _set(("bundle", "factors"), 5)),
    ("no factor", _set(("bundle", "factors"), [])),
    ("divisor 5", _set(("bundle", "factors", 0), 5)),
    ("record 'O'", _set(("bundle", "factors", 0), ["O"])),
    ("point ['3']", _set(("bundle", "factors", 1, 1, "point"), ["3"])),
    ("point off the curve", _set(("bundle", "factors", 1, 1, "point"), ["3", "2"])),
    ("mult 1.5", _set(("bundle", "factors", 1, 1, "mult"), 1.5)),
    ("record without mult", _set(("bundle", "factors", 0, 0), {"point": "O"})),
    ("record without point", _set(("bundle", "factors", 0, 0), {"mult": -3})),
    ("66 records", _set(("bundle", "factors", 0),
                        [{"point": "O", "mult": m} for _ in range(33) for m in (1, -1)])),
    ("total multiplicity 65", _set(("bundle", "factors", 0),
                                   [{"point": "O", "mult": -40}, {"point": "O", "mult": -25}])),
    ("modifications 5", _set(MODS, 5)),
    ("modification 'O'", _set(MODS, ["O"])),
    ("modification without point", _set(MODS, [{"codirection": ["1", "1"]}])),
    ("codirection '11'", _set(MODS, [{"point": "O", "codirection": "11"}])),
    ("two modifications at one place",
     _set(MODS, [{"point": "O", "codirection": ["1", "0"]},
                 {"point": "O", "codirection": ["0", "1"]}])),
    ("covector of the wrong length", _set(MODS, [{"point": "O", "codirection": ["1"]}])),
    ("zero covector", _set(MODS, [{"point": "O", "codirection": ["0", "0"]}])),
    ("modification off the curve",
     _set(MODS, [{"point": ["3", "2"], "codirection": ["1", "1"]}])),
    ("parameters 5", _set(("parameters",), 5)),
    ("k -1", _set(("parameters", "k"), -1)),
    ("k a string", _set(("parameters", "k"), "a")),
    ("ext_degree 4", _set(("parameters", "ext_degree"), 4)),
    ("seed 2.5", _set(("parameters", "seed"), 2.5)),
    ("M 0", _set(("M",), 0)),
    ("M of degree 1", _set(("M",), [{"point": "O", "mult": 1}])),
    # two faults: the first in the decoders' order is reported
    ("ext_degree 4 and seed 2.5", _both(_set(("parameters", "ext_degree"), 4),
                                        _set(("parameters", "seed"), 2.5))),
    ("M 0 and k -1", _both(_set(("M",), 0), _set(("parameters", "k"), -1))),
]


def malformed_commands(workdir):
    """`curve-info` on each MALFORMED copy of estar, written to workdir."""
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(ROOT, "instances", "estar.json")) as fh:
        estar = json.load(fh)
    out = []
    for i, (label, edit) in enumerate(MALFORMED):
        doc = copy.deepcopy(estar)
        edit(doc)
        path = os.path.join(workdir, f"malformed-{i:02d}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out.append((f"malformed estar, {label}: curve-info",
                    ["curve-info", "--instance", path]))
    return out


# (label, keys replaced in a copy of estar, argvs): estar over F_49, then two
# bundles on y^2 = x^3 - x over Q, where the commands that enumerate points
# exit 1; the last F_49 osc exits 1 too, for base change needs a prime field
RATIONALS = {"field": {"kind": "rationals"}, "curve": {"a4": "-1", "a6": "0"}, "M": []}
TRIVIAL = ["--M", "[]"]
OFF_PRIME = [
    ("estar over F_49", {"field": EXT},
     [["curve-info"], ["sections"] + TRIVIAL]
     + [[cmd] + TRIVIAL + ["--k", "1"] for cmd in ("osc", "scan", "witnesses")]
     + [["segre"], ["segre", "--method", "bruteforce"], ["hypothesis-nilpotent"],
        ["verify", "mainA", "--k", "1"], ["verify", "mainB"], ["verify", "mainC"],
        ["project"] + TRIVIAL + ["--m", "3", "--k", "1"],
        ["osc"] + TRIVIAL + ["--k", "1", "--ext", "2"]]),
    ("O(-3O) + O(-2O - (0,0)) over Q",
     dict(RATIONALS, bundle={"factors": [[{"point": "O", "mult": -3}],
                                         [{"point": "O", "mult": -2},
                                          {"point": ["0", "0"], "mult": -1}]],
                             "modifications": []}),
     [["curve-info"], ["sections"] + TRIVIAL, ["segre"], ["hypothesis-nilpotent"],
      ["osc"] + TRIVIAL + ["--k", "1"], ["segre", "--method", "bruteforce"],
      ["verify", "mainA", "--k", "1"], ["verify", "mainC"]]),
    ("O(-O) + O(-4O) over Q",
     dict(RATIONALS, bundle={"factors": [[{"point": "O", "mult": -1}],
                                         [{"point": "O", "mult": -4}]],
                             "modifications": []}),
     [["hypothesis-nilpotent"]]),
]


def off_prime_commands(workdir):
    """The 22 commands on the OFF_PRIME instances, written to workdir, and
    one argv error (`osc --k x`)."""
    os.makedirs(workdir, exist_ok=True)
    estar = os.path.join(ROOT, "instances", "estar.json")
    with open(estar) as fh:
        base = json.load(fh)
    out = []
    for i, (label, keys, argvs) in enumerate(OFF_PRIME):
        path = os.path.join(workdir, f"off-prime-{i}.json")
        with open(path, "w") as fh:
            json.dump(dict(base, **keys), fh)
        out += [(f"{label}: {' '.join(a)}", a + ["--instance", path]) for a in argvs]
    out.append(("argv error: osc --k x", ["osc", "--instance", estar, "--k", "x"]))
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
    return (instance_commands() + bounds_commands()
            + malformed_commands(os.path.join(workdir, "malformed"))
            + off_prime_commands(os.path.join(workdir, "off-prime"))
            + bench_commands(os.path.join(workdir, "perfbench")))


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
        cmds = commands(tmp)
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
