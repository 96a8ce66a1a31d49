"""Pinned stdout of four F_49 commands.

The hashes were recorded before the log/Zech-log arithmetic, the memoised
base change and the slack-free expansion went in; all three must leave
every output byte unchanged.
"""

import hashlib
from pathlib import Path

import pytest

import scrollinflect.cli as cli

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

GOLDEN = [
    (["osc", "--instance", "estar.json", "--k", "2", "--M", "all", "--ext", "2"],
     "34e5df9f67f984164ddfdf8d91cd10a9c6f1bc76abd21f6704b68381455fe0a4"),
    (["segre", "--instance", "esharp.json", "--method", "bruteforce", "--ext", "2"],
     "5282e068d7793f1e2f3a3b80b73ed984fc725cf9eef90e977c2f02e20dcdbe0d"),
    (["verify", "mainA", "--instance", "esharp.json", "--k", "1", "--ext", "2"],
     "286c466eabcab307dd20b904e2d031c580dc4479a05373852a1abd5df9cec337"),
    (["witnesses", "--instance", "esharp.json", "--k", "1", "--M", "all",
      "--ext", "2"],
     "ad23db3c44a13b00badf7dde205cda0b85745ea604f46ebef1d32050afadd1ad"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[g[0][0] for g in GOLDEN])
def test_extension_field_output_is_pinned(argv, digest, capsys):
    argv = [str(INSTANCES / a) if a.endswith(".json") else a for a in argv]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
