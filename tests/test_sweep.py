"""tools/sweep.py: the byte-identity sweep lists 323 commands, and a command
hashes the same stdout on a second run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import sweep  # noqa: E402


def test_sweep_lists_distinct_commands(tmp_path):
    cmds = sweep.commands(str(tmp_path))
    assert len(cmds) == 323
    assert len({label for label, _ in cmds}) == 323
    assert sum(1 for label, _ in cmds if label.startswith("perfbench ")) == 36
    assert sum(1 for label, _ in cmds if label.startswith("perfbench threshold-verify-")
               and label.endswith(": verify mainA --ext 3")) == 10
    assert sum(1 for label, _ in cmds if label.startswith("malformed estar, ")) == 49
    assert sum(1 for _, argv in cmds if argv[0] == "bounds") == 24
    assert sum(1 for label, _ in cmds if label.startswith("estar over F_49: ")) == 13
    assert sum(1 for label, _ in cmds if " over Q: " in label) == 9
    assert sum(1 for label, _ in cmds if " over F_7: " in label) == 7
    assert sum(1 for label, _ in cmds if " over F_7, modified at (1,0): " in label) == 7
    assert sum(1 for label, _ in cmds if label.startswith("argv error: ")) == 1
    assert sum(1 for _, argv in cmds if argv[0] == "curve-info") == 9 + 49 + 2
    assert sum(1 for _, argv in cmds if argv[0] == "hypothesis-nilpotent") == 9 + 3
    assert sum(1 for _, argv in cmds if argv[:5] == ["osc", "--M", "all", "--k", "4"]) == 6
    for _, argv in cmds:
        if argv[0] == "bounds":
            assert "--instance" not in argv
        else:
            assert Path(argv[argv.index("--instance") + 1]).is_file()


def test_a_cheap_command_hashes_the_same_twice(tmp_path):
    label, argv = next((label, argv) for label, argv in sweep.commands(str(tmp_path))
                       if label == "estar ext 1: osc --M all --k 0")
    first = sweep.run(sweep.ROOT, argv)
    assert first[0] == 0
    assert sweep.run(sweep.ROOT, argv) == first
