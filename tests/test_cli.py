import json
import subprocess
import sys
from pathlib import Path

import pytest

import scrollinflect.cli as cli
import scrollinflect.scroll as scroll

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def run_inproc(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "scrollinflect.cli"] + argv,
                          capture_output=True)
    return proc.returncode, proc.stdout


def test_bounds_command(capsys):
    code, out = run_inproc(["bounds", "--r", "2", "--n", "1", "--d", "-6",
                            "--g", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 0 and doc["delta"] == 0
    assert doc["system"]["k_prime"] == 2


def test_bounds_congruence_follows_the_bound_side(capsys):
    # delta is pinned by base + delta = nd mod r, so for r=2, n=1, d=-3, g=2
    # the base 1 is already congruent to nd = -3 and delta is 0, bound 1
    code, out = run_inproc(["bounds", "--r", "2", "--n", "1", "--d", "-3",
                            "--g", "2"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["delta"] == 0 and doc["bound"] == 1


def test_curve_info(capsys):
    code, out = run_inproc(["curve-info", "--instance",
                            str(INSTANCES / "estar.json")], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["group_order"] == 9


def test_sections_all_twists(capsys):
    code, out = run_inproc(["sections", "--instance",
                            str(INSTANCES / "estar.json"), "--M", "all"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert len(doc["reports"]) == 9
    assert all(rec["dimension"] == 6 for rec in doc["reports"])


def test_osc_all_twists_clean(capsys):
    code, out = run_inproc(["osc", "--instance", str(INSTANCES / "estar.json"),
                            "--k", "0", "--M", "all"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert len(doc["reports"]) == 9
    assert all(rec["deficient_points"] == [] for rec in doc["reports"])


def test_verify_mainA_eflat_witness(capsys):
    code, out = run_inproc(["verify", "mainA", "--instance",
                            str(INSTANCES / "eflat.json"), "--k", "0"], capsys)
    doc = json.loads(out)
    assert code == 0
    clause = doc["clauses"][0]
    assert clause["pass"] and not clause["inequality_holds"]
    assert clause["witness"]["point"] == "O"
    assert clause["witness"]["direction"] == ["1", "0"]


def test_verify_mainB_skips_orders_at_the_characteristic(tmp_path, capsys):
    # O(-8 O) + O(-8 O) over F_7: the open range reaches k = 6, where
    # k + 1 = p; that order is skipped, not used to size the scan contexts
    doc = json.loads((INSTANCES / "eflat.json").read_text())
    doc["bundle"]["factors"] = [[{"point": "O", "mult": -8}]] * 2
    path = tmp_path / "o8o8.json"
    path.write_text(json.dumps(doc))
    code, out = run_inproc(["verify", "mainB", "--instance", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_mainC_counts_each_scanned_degree_once(capsys):
    # at --ext 1 only F_7 is scanned: one count per twist class, and no
    # comparison of an F_7 count with the Hasse floor of F_49
    code, out = run_inproc(["verify", "mainC", "--instance",
                            str(INSTANCES / "estar.json"), "--ext", "1"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True
    top = next(c for c in doc["clauses"] if c["id"] == "c:top-locus")
    assert top["asserted"] is False
    assert len(top["counts_by_M"]) == 9
    assert all(len(counts) == 1 for counts in top["counts_by_M"].values())


def test_segre_and_nilpotent_commands(capsys):
    code, out = run_inproc(["segre", "--instance",
                            str(INSTANCES / "esharp.json"),
                            "--method", "bruteforce"], capsys)
    assert code == 0 and json.loads(out)["s1"] == 1
    code, out = run_inproc(["hypothesis-nilpotent", "--instance",
                            str(INSTANCES / "eflat.json")], capsys)
    assert code == 0 and json.loads(out)["exists"] is True


def test_witnesses_and_scan_and_project(capsys):
    code, out = run_inproc(["witnesses", "--instance",
                            str(INSTANCES / "estar.json"), "--k", "2",
                            "--M", "[]"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert len(doc["reports"][0]["fibers"]) == 9
    code, out = run_inproc(["scan", "--instance", str(INSTANCES / "estar.json"),
                            "--k", "1", "--M", "[]"], capsys)
    assert code == 0 and len(json.loads(out)["reports"]) == 2
    code, out = run_inproc(["project", "--instance",
                            str(INSTANCES / "estar.json"), "--m", "5",
                            "--seed", "3", "--k", "1", "--M", "[]"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["seed"] == 3


def test_input_errors_exit_1(tmp_path, capsys):
    code, out = run_inproc(["osc", "--instance", str(tmp_path / "nope.json"),
                            "--k", "0"], capsys)
    assert code == 1 and "error" in json.loads(out)
    bad = tmp_path / "bad.json"
    bad.write_text("{\"field\": {\"kind\": \"prime\", \"p\": 6}}")
    code, out = run_inproc(["curve-info", "--instance", str(bad)], capsys)
    assert code == 1
    doc = json.loads((INSTANCES / "estar.json").read_text())
    for mult in (1.5, True, "1"):
        doc["bundle"]["factors"][1][1]["mult"] = mult
        bad.write_text(json.dumps(doc))
        code, out = run_inproc(["segre", "--instance", str(bad)], capsys)
        assert code == 1 and "not an integer" in json.loads(out)["error"]
    # instance parameters, from the file and from the command line
    doc = json.loads((INSTANCES / "estar.json").read_text())
    for key, value in [("k", "a"), ("k", True), ("k", -1), ("m", 2.5),
                       ("m", False), ("seed", "x"), ("ext_degree", 0),
                       ("ext_degree", 4), ("ext_degree", 2.0)]:
        params = dict(doc["parameters"], **{key: value})
        bad.write_text(json.dumps(dict(doc, parameters=params)))
        code, out = run_inproc(["osc", "--instance", str(bad)], capsys)
        assert code == 1 and "parameter " + key in json.loads(out)["error"], key
    for flags in (["--ext", "4"], ["--ext", "0"], ["--k", "-1"]):
        code, out = run_inproc(["segre", "--instance", str(INSTANCES / "estar.json")]
                               + flags, capsys)
        assert code == 1 and "parameter" in json.loads(out)["error"], flags


def test_byte_determinism_across_processes():
    argv = ["osc", "--instance", str(INSTANCES / "estar.json"), "--k", "2",
            "--M", "[]"]
    c1, o1 = run_subprocess(argv)
    c2, o2 = run_subprocess(argv)
    assert c1 == c2 == 0
    assert o1 == o2
    argv = ["project", "--instance", str(INSTANCES / "estar.json"), "--m", "5",
            "--seed", "11", "--k", "0"]
    c1, o1 = run_subprocess(argv)
    c2, o2 = run_subprocess(argv)
    assert c1 == c2 == 0 and o1 == o2


@pytest.mark.parametrize("command", ["osc", "scan"])
def test_injected_oracle_fault_exits_2(command, monkeypatch, capsys):
    real = scroll.osc_dim_oracle

    def lying_oracle(E, M, x, k):
        return real(E, M, x, k) + 1

    monkeypatch.setattr(scroll, "osc_dim_oracle", lying_oracle)
    code, out = run_inproc([command, "--instance", str(INSTANCES / "estar.json"),
                            "--k", "0", "--M", "[]"], capsys)
    doc = json.loads(out)
    assert code == 2
    assert doc["kind"] == "invariant-violation"
    assert doc["error"].startswith("jet-rank and pole-counting osculating "
                                   "dimensions disagree")


def test_reports_reparse_under_schema(capsys):
    # every documented command emits one JSON object with a command tag
    for argv in [
        ["curve-info", "--instance", str(INSTANCES / "estar.json")],
        ["sections", "--instance", str(INSTANCES / "estar.json"), "--M", "[]"],
        ["osc", "--instance", str(INSTANCES / "estar.json"), "--k", "1",
         "--M", "[]"],
        ["segre", "--instance", str(INSTANCES / "estar.json")],
        ["bounds", "--r", "2", "--n", "1", "--d", "-6", "--g", "1"],
        ["hypothesis-nilpotent", "--instance", str(INSTANCES / "estar.json")],
    ]:
        code, out = run_inproc(argv, capsys)
        assert code == 0
        doc = json.loads(out)
        assert "command" in doc
