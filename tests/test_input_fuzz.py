"""Fuzz of the input contract: mutated copies of the committed instances
(and of esharp read over F_49), and mutated command lines, run in-process
through cli.run_command, exit 0 with one JSON object or exit 1 with one
JSON error object, and never raise.

A mutation of an instance drops a key of an object or swaps a value anywhere
in the instance for an int (huge ones included), a bool, null, a string, a
list or an object; each example applies one to three of them and runs one of
nine commands.  A mutation of a command line (one of the nine, or `bounds`)
drops a token, repeats a flag with its value, or replaces a flag's value
with one of the same values; `-h` and `--help` or its abbreviations, which
print plain text, are left out.  Out-of-range sizes (a divisor multiplicity of 2^40, a divisor
with -64 at each of three points, a divisor of 66 records, fields of order
1000003 and of a 19-digit prime order) are refused before any work that
grows with them.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrollinflect.cli import run_command

PATHS = sorted((Path(__file__).resolve().parent.parent / "instances").glob("*.json"))
INSTANCES = {path.stem: json.loads(path.read_text()) for path in PATHS}
INSTANCES["esharp-F49"] = dict(INSTANCES["esharp"],
                               field={"kind": "extension", "p": 7, "degree": 2})
COMMANDS = (("curve-info",), ("sections",), ("osc", "--k", "0"), ("segre",),
            ("witnesses", "--k", "0"), ("hypothesis-nilpotent",), ("scan", "--k", "1"),
            ("verify", "mainA", "--k", "1", "--ext", "1"),
            ("project", "--m", "3", "--k", "1"))
BOUNDS = ("bounds", "--r", "2", "--d", "-6", "--g", "1")
HUGE_MULT = 2 ** 40
PRIME_7_DIGITS = 1000003
PRIME_19_DIGITS = 10 ** 18 + 3

VALUES = st.one_of(
    st.integers(-12, 12),
    st.sampled_from([HUGE_MULT, -HUGE_MULT, PRIME_19_DIGITS, -10 ** 30]),
    st.booleans(),
    st.none(),
    st.sampled_from(["O", "all", "3", "-1", ""]),
    st.text(max_size=3),
    st.lists(st.integers(-3, 9), max_size=3),
    st.dictionaries(st.sampled_from(["point", "mult", "kind", "p"]),
                    st.integers(-3, 9), max_size=2),
)


def _paths(obj, at=()):
    """Every position below the root of a JSON tree."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield at + (key,)
        yield from _paths(value, at + (key,))


@st.composite
def mutated_instances(draw):
    inst = copy.deepcopy(INSTANCES[draw(st.sampled_from(sorted(INSTANCES)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(inst))))
        parent = inst
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    return inst


def _with(name, path, value):
    """The named instance with the value at path replaced."""
    inst = copy.deepcopy(INSTANCES[name])
    parent = inst
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return inst


HUGE_FACTOR = _with("estar", ("bundle", "factors", 0), [{"point": "O", "mult": HUGE_MULT}])
WIDE_FACTOR = _with("estar", ("bundle", "factors", 0),
                    [{"point": [x, "1"], "mult": -64} for x in ("3", "5", "6")])
BIG_PRIME = _with("estar", ("field",), {"kind": "prime", "p": PRIME_7_DIGITS})
HUGE_PRIME = _with("estar", ("field",), {"kind": "prime", "p": PRIME_19_DIGITS})
LONG_ELEMENT = _with("esharp-F49", ("bundle", "modifications", 0, "codirection"),
                     ["1", [0, 0, 1]])
HUGE_EXTENSION = _with("estar", ("field",),
                       {"kind": "extension", "p": PRIME_19_DIGITS, "degree": 2})


def _run(inst, command):
    """(exit code, the one JSON document printed) of a command on inst."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w") as fh:
            json.dump(inst, fh)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run_command([command[0], "--instance", path, *command[1:]])
    return code, json.loads(buf.getvalue())


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@example(inst=HUGE_FACTOR, command=("witnesses", "--k", "0"))
@example(inst=HUGE_FACTOR, command=("hypothesis-nilpotent",))
@example(inst=BIG_PRIME, command=("curve-info",))
@example(inst=HUGE_PRIME, command=("curve-info",))
@example(inst=HUGE_EXTENSION, command=("curve-info",))
@example(inst=LONG_ELEMENT, command=("osc", "--k", "0"))
@given(inst=mutated_instances(), command=st.sampled_from(COMMANDS))
def test_mutated_instances_exit_0_or_1_with_one_json_object(inst, command):
    _assert_one_report(*_run(inst, command))


def _assert_one_report(code, out):
    assert isinstance(out, dict)
    if code == 0:
        assert "error" not in out
    else:
        assert code == 1 and list(out) == ["error"]


ARGV_VALUES = VALUES.map(lambda v: v if isinstance(v, str) else json.dumps(v)).filter(
    lambda v: not v.startswith(("-h", "--h")))


@st.composite
def mutated_argv(draw):
    argv = list(draw(st.sampled_from(COMMANDS + (BOUNDS,))))
    if argv[0] != "bounds":
        argv += ["--instance", str(draw(st.sampled_from(PATHS)))]
    for _ in range(draw(st.integers(1, 3))):
        flags = [i for i, token in enumerate(argv[:-1]) if token.startswith("--")]
        how = draw(st.sampled_from(["drop", "repeat", "replace"] if flags else ["drop"]))
        if how == "drop" and argv:
            del argv[draw(st.integers(0, len(argv) - 1))]
        elif how == "repeat":
            i = draw(st.sampled_from(flags))
            argv += argv[i:i + 2]
        elif how == "replace":
            argv[draw(st.sampled_from(flags)) + 1] = draw(ARGV_VALUES)
    return argv


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(argv=mutated_argv())
def test_mutated_argv_exit_0_or_1_with_one_json_object(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(argv)
    _assert_one_report(code, json.loads(buf.getvalue()))


@pytest.mark.parametrize("inst, named", [
    (HUGE_FACTOR, f"divisor multiplicity {HUGE_MULT}"),
    (_with("estar", ("M",), [{"point": "O", "mult": 40}, {"point": "O", "mult": 25}]),
     "divisor multiplicity 65"),
    (WIDE_FACTOR, "divisor multiplicity 192"),
    (_with("estar", ("M",), [{"point": "O", "mult": m} for _ in range(33) for m in (1, -1)]),
     "divisor of 66 point records"),
    (BIG_PRIME, f"field order {PRIME_7_DIGITS}"),
    (HUGE_PRIME, f"field order {PRIME_19_DIGITS}"),
    (HUGE_EXTENSION, f"field order {PRIME_19_DIGITS ** 2}"),
], ids=["mult-2^40", "mult-65-summed", "mult-192-total", "records-66", "p-1000003",
        "p-19-digits", "extension-19-digits"])
def test_out_of_range_sizes_exit_1_naming_the_value(inst, named):
    code, out = _run(inst, ("curve-info",))
    assert code == 1
    assert named in out["error"]
