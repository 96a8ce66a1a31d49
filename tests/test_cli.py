import json
import subprocess
import sys
from pathlib import Path

import pytest

import scrollinflect.cli as cli
import scrollinflect.scroll as scroll
from scrollinflect.linalg import EchelonAccumulator

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


F5_ISOMORPHIC_FACTORS = {
    "field": {"kind": "prime", "p": 5}, "curve": {"a4": "1", "a6": "1"},
    "bundle": {"factors": [
        [{"point": "O", "mult": -4}, {"point": ["0", "1"], "mult": -1},
         {"point": ["3", "1"], "mult": 1}],
        [{"point": "O", "mult": -5}, {"point": ["2", "1"], "mult": 2},
         {"point": ["4", "2"], "mult": -1}]], "modifications": []}}
F7_WIDE_HOM = {
    "field": {"kind": "prime", "p": 7}, "curve": {"a4": "0", "a6": "2"},
    "bundle": {"factors": [[{"point": "O", "mult": -1}],
                           [{"point": "O", "mult": -7}]], "modifications": []}}


@pytest.mark.parametrize("doc, end_dim", [(F5_ISOMORPHIC_FACTORS, 4),
                                          (F7_WIDE_HOM, 8)], ids=["F5", "F7"])
def test_nilpotent_hypothesis_by_hom_dimension(doc, end_dim, tmp_path, capsys):
    # F5: no affine place gives every End(E) basis value by substitution;
    # F7: End(E) has dimension 8, one Hom block of dimension 6
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    code, out = run_inproc(["hypothesis-nilpotent", "--instance", str(path)], capsys)
    rep = json.loads(out)
    assert code == 0 and rep["exists"] is True and rep["end_dim"] == end_dim
    code, out = run_inproc(["verify", "mainC", "--instance", str(path)], capsys)
    rep = json.loads(out)
    assert code == 0 and rep["passed"] is False
    assert rep["clauses"] == [{"id": "hypothesis", "pass": False, "end_dim": end_dim,
                               "reason": "a rank-one nilpotent endomorphism exists"}]


CQ_FACTORS = {"wide": ([[{"point": "O", "mult": -1}], [{"point": "O", "mult": -4}]],
                       {"exists": True, "end_dim": 5,
                        "witness_coeffs": ["0", "1", "0", "0", "0"]}),
              "estar-shape": ([[{"point": "O", "mult": -3}],
                               [{"point": "O", "mult": -2},
                                {"point": ["0", "0"], "mult": -1}]],
                              {"exists": False, "end_dim": 2})}


@pytest.mark.parametrize("name", sorted(CQ_FACTORS))
def test_nilpotent_hypothesis_over_the_rationals(name, tmp_path, capsys):
    """hypothesis-nilpotent answers over Q (y^2 = x^3 - x); mainC, which
    enumerates Pic^0, still refuses an infinite field."""
    factors, want = CQ_FACTORS[name]
    path = tmp_path / "cq.json"
    path.write_text(json.dumps({"field": {"kind": "rationals"},
                                "curve": {"a4": "-1", "a6": "0"},
                                "bundle": {"factors": factors}, "M": []}))
    code, out = run_inproc(["hypothesis-nilpotent", "--instance", str(path)], capsys)
    assert code == 0 and json.loads(out) == dict(want, command="hypothesis-nilpotent")
    code, out = run_inproc(["verify", "mainC", "--instance", str(path)], capsys)
    assert code == 1 and "finite base field" in json.loads(out)["error"]


@pytest.mark.parametrize("k, code", [("9", 1), ("6", 1), ("5", 0)])
def test_verify_mainA_checks_an_explicit_jet_order(k, code, capsys):
    """An explicit --k is checked as osc checks it (k + 1 < p = 7), not cut
    to the orders below the characteristic."""
    got, out = run_inproc(["verify", "mainA", "--instance",
                           str(INSTANCES / "estar.json"), "--k", k], capsys)
    doc = json.loads(out)
    assert got == code
    if code:
        assert doc["error"] == (f"InputError: jet order {k} needs k + 1 < "
                                f"characteristic 7")
    else:
        assert [c["id"] for c in doc["clauses"]] == [f"k={j}" for j in range(6)]


@pytest.mark.parametrize("k", [None, "2"])
def test_verify_mainA_over_the_rationals_exits_1(k, tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(OVER_Q))
    argv = ["verify", "mainA", "--instance", str(path)]
    code, out = run_inproc(argv + (["--k", k] if k else []), capsys)
    assert code == 1 and "error" in json.loads(out)


@pytest.mark.parametrize("seeds, code", [("-1", 1), ("0", 1), ("1", 0),
                                         (str(cli._SEEDS_MAX + 1), 1)])
def test_appendixA_seed_count_is_bounded(seeds, code, capsys):
    got, out = run_inproc(["verify", "appendixA", "--instance",
                           str(INSTANCES / "estar.json"), "--m", "3",
                           "--seeds", seeds], capsys)
    assert got == code
    if code:
        assert json.loads(out)["error"] == (f"InputError: --seeds must be between 1 "
                                            f"and {cli._SEEDS_MAX}: {seeds}")
    else:
        assert json.loads(out)["clauses"][1]["seeds"] == 1


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


@pytest.mark.parametrize("command", [["scan"], ["project", "--m", "5"]],
                         ids=["scan", "project"])
def test_scan_and_project_expand_each_place_once(command, monkeypatch, capsys):
    """scan and project read every order up to --k = 3 from one context; the
    top order is scanned first, so each place of C(F_7) is expanded once,
    to depth 3, and the reports still come in the order of k."""
    depths = []

    def counted(E_spec, sections, place, k_max):
        depths.append(k_max)
        return expand(E_spec, sections, place, k_max)

    expand = scroll.order_matrices
    monkeypatch.setattr(scroll, "order_matrices", counted)
    code, out = run_inproc(command + ["--instance", str(INSTANCES / "estar.json"),
                                      "--k", "3", "--M", "[]"], capsys)
    assert code == 0 and depths == [3] * 9
    reports = json.loads(out)["reports"]
    if command[0] == "project":
        reports = reports[0]["reports"]
    assert [rep["k"] for rep in reports] == [0, 1, 2, 3]


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
    # malformed JSON shapes: a field and its integers, a curve coefficient,
    # the whole file, a point, a divisor and its records, the factor and
    # modification lists
    prime, ext = {"kind": "prime"}, {"kind": "extension", "p": 7, "degree": 2}
    for message, edit in [
            ("field", lambda d: d.update(field=[7])),
            ("p is not", lambda d: d.update(field=dict(prime, p="7"))),
            ("p is not", lambda d: d.update(field=dict(prime, p=7.0))),
            ("p is not", lambda d: d.update(field=dict(ext, p=True))),
            ("degree is not", lambda d: d.update(field=dict(ext, degree="2"))),
            ("degree -1", lambda d: d.update(field=dict(ext, degree=-1))),
            ("modulus entry", lambda d: d.update(field=dict(ext, modulus=[3, "0", 1]))),
            ("modulus is not", lambda d: d.update(field=dict(ext, modulus="301"))),
            ("[1, 2]", lambda d: d["curve"].update(a4=[1, 2])),
            ("JSON object", lambda d: [d]),
            ("point", lambda d: d["bundle"]["factors"][1][1].update(point=["3"])),
            ("divisor 5", lambda d: d.update(M=5)),
            ("divisor record 'O'", lambda d: d.update(M=["O"])),
            ("divisor 5", lambda d: d["bundle"].update(factors=[5])),
            ("must be lists", lambda d: d["bundle"].update(factors=5)),
            ("codirection list",
             lambda d: d["bundle"].update(modifications=[{"point": "O",
                                                          "codirection": "11"}]))]:
        doc = json.loads((INSTANCES / "estar.json").read_text())
        bad.write_text(json.dumps(edit(doc) or doc))
        code, out = run_inproc(["osc", "--instance", str(bad)], capsys)
        assert code == 1 and message in json.loads(out)["error"], message
    # a missing key is named, not reported as a KeyError
    for message, edit in [("no 'field' key", lambda d: d.pop("field")),
                          ("no 'p' key", lambda d: d.update(field={"kind": "prime"})),
                          ("no 'degree' key", lambda d: d.update(field={
                              "kind": "extension", "p": 7})),
                          ("no 'curve' key", lambda d: d.pop("curve")),
                          ("no 'bundle' key", lambda d: d.pop("bundle")),
                          ("no 'a4' key", lambda d: d["curve"].pop("a4")),
                          ("no 'a6' key", lambda d: d["curve"].pop("a6"))]:
        doc = json.loads((INSTANCES / "estar.json").read_text())
        edit(doc)
        bad.write_text(json.dumps(doc))
        code, out = run_inproc(["osc", "--instance", str(bad)], capsys)
        assert code == 1 and message in json.loads(out)["error"], message
    # the twist selector: only "all", [] or a degree-0 divisor list, checked
    # for every command (segre does not read it, but a bad one is an error)
    for selector in (0, {}, "", False, None, "some"):
        doc = dict(json.loads((INSTANCES / "estar.json").read_text()), M=selector)
        bad.write_text(json.dumps(doc))
        for command in ("osc", "segre"):
            code, out = run_inproc([command, "--instance", str(bad)], capsys)
            assert code == 1 and "not a list" in json.loads(out)["error"], selector
    degree_one = json.dumps([{"point": "O", "mult": 1}])
    for command in ("osc", "segre", "curve-info"):
        code, out = run_inproc([command, "--instance", str(INSTANCES / "estar.json"),
                                "--M", degree_one], capsys)
        assert code == 1 and "degree zero" in json.loads(out)["error"], command
    doc = json.loads((INSTANCES / "estar.json").read_text())
    del doc["M"]                              # a missing selector is the trivial class
    bad.write_text(json.dumps(doc))
    code, out = run_inproc(["osc", "--instance", str(bad)], capsys)
    assert code == 0 and [rec["M"] for rec in json.loads(out)["reports"]] == [[]]
    # a divisor record without its point or its mult, given by --M or as a
    # bundle factor, and a --M value that is not a list: the error names the
    # key or the flag
    estar = str(INSTANCES / "estar.json")
    for selector, message in [('[{"point": "O"}]', "has no 'mult' key"),
                              ('[{"mult": 1}]', "has no 'point' key"),
                              ("foo", "--M 'foo' is not JSON"),
                              ("0", "--M '0' is neither"),
                              ("{}", "--M '{}' is neither")]:
        code, out = run_inproc(["osc", "--instance", estar, "--k", "0", "--M", selector],
                               capsys)
        assert code == 1 and message in json.loads(out)["error"], selector
    for record, message in [({"point": "O"}, "has no 'mult' key"),
                            ({"mult": -3}, "has no 'point' key")]:
        doc = json.loads((INSTANCES / "estar.json").read_text())
        doc["bundle"]["factors"][0] = [record]
        bad.write_text(json.dumps(doc))
        code, out = run_inproc(["osc", "--instance", str(bad)], capsys)
        error = json.loads(out)["error"]
        assert code == 1 and error.startswith("InputError") and message in error, record
    # a bundle without factors, a modification without its point, and an
    # instance path that is a directory, missing, not UTF-8 or not JSON: one
    # InputError that names the key and its record, or the path
    for message, edit in [
            ("bundle {'modifications': []} has no 'factors' key",
             lambda d: d["bundle"].pop("factors")),
            ("has no 'point' key", lambda d: d["bundle"].update(
                modifications=[{"codirection": ["1", "1"]}]))]:
        doc = json.loads((INSTANCES / "estar.json").read_text())
        edit(doc)
        bad.write_text(json.dumps(doc))
        code, out = run_inproc(["osc", "--instance", str(bad)], capsys)
        error = json.loads(out)["error"]
        assert code == 1 and error.startswith("InputError") and message in error, message
    latin1, truncated = tmp_path / "latin1.json", tmp_path / "truncated.json"
    latin1.write_bytes(b'{"field": "\xe9"}')
    truncated.write_text('{"field": ')
    for path, message in [(tmp_path, "Is a directory"),
                          (tmp_path / "nope.json", "No such file"),
                          (latin1, "not UTF-8 JSON"),
                          (truncated, "not UTF-8 JSON")]:
        code, out = run_inproc(["osc", "--instance", str(path)], capsys)
        error = json.loads(out)["error"]
        assert code == 1 and error.startswith("InputError") and message in error \
            and repr(str(path)) in error, path
    # malformed argv: one JSON error and exit 1, not argparse's usage and exit 2
    for argv, message in [(["osc"], "required: --instance"),
                          (["osc", "--instance", estar, "--k", "x"], "--k: invalid int"),
                          (["nope"], "invalid choice: 'nope'"),
                          (["verify", "nope"], "invalid choice: 'nope'")]:
        code, out = run_inproc(argv, capsys)
        error = json.loads(out)["error"]
        assert code == 1 and error.startswith("InputError") and message in error, argv
    assert run_inproc(["osc", "--help"], capsys)[0] == 0


ESHARP = json.loads((INSTANCES / "esharp.json").read_text())
F49 = {"kind": "extension", "p": 7, "degree": 2}
# a curve over Q whose bundle has no affine point, so a coefficient read as
# a nearby number still gives a valid instance
OVER_Q = {"field": {"kind": "rationals"}, "curve": {"a4": "-1", "a6": "0"},
          "bundle": {"factors": [[{"point": "O", "mult": -2}]] * 2}, "M": []}


def _edited(doc, path, value, field=None):
    doc = json.loads(json.dumps(doc))
    if field is not None:
        doc["field"] = field
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


COD = ("bundle", "modifications", 0, "codirection")


def _assert_refused(doc, command, named, tmp_path, capsys):
    """An element is an integer (a JSON integer, not a bool, or a string of
    ASCII digits with an optional leading minus), over F_{p^e} also a list
    of at most e integers, over Q also a string "n/d"; anything else exits 1
    with an error that names the value instead of running on a nearby one."""
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(doc))
    code, out = run_inproc([command, "--instance", str(path)], capsys)
    assert code == 1 and json.loads(out)["error"] == "InputError: " + named


@pytest.mark.parametrize("doc, command, named", [
    # F_7: the parent ran a6 = 2.7 as 2, a4 = 0.5 as 0 and " 2" as 2 (exit 0);
    # true as 1 (a singular curve); "2_0" and the Arabic-Indic digit three as
    # 20 and 3 (a bundle point off the curve)
    (_edited(ESHARP, ("curve", "a6"), 2.7), "osc", "2.7"),
    (_edited(ESHARP, ("curve", "a4"), 0.5), "osc", "0.5"),
    (_edited(ESHARP, ("curve", "a4"), True), "osc", "True"),
    (_edited(ESHARP, ("curve", "a6"), " 2"), "osc", "' 2'"),
    (_edited(ESHARP, ("curve", "a6"), "2_0"), "osc", "'2_0'"),
    (_edited(ESHARP, ("curve", "a6"), "\u0663"), "osc", "'\u0663'"),
    # a point [5.9, 1] and a codirection [true, "1"] ran as (5, 1) and (1, 1)
    (_edited(ESHARP, ("bundle", "modifications", 0, "point"), [5.9, 1]), "osc", "5.9"),
    (_edited(ESHARP, COD, [True, "1"]), "osc", "True"),
], ids=["float", "half", "bool", "space", "underscore", "unicode-digit", "float-point",
        "bool-codirection"])
def test_prime_field_elements_decode_strictly(doc, command, named, tmp_path, capsys):
    _assert_refused(doc, command, f"{named} is not an element of F_7", tmp_path, capsys)


@pytest.mark.parametrize("doc, command, named", [
    # F_49: a list of more than two coefficients packed past 49 and ended
    # in an IndexError in the row reduction
    (_edited(ESHARP, COD, ["1", [0, 0, 1]], F49), "osc", "[0, 0, 1] is not an element of F_7^2"),
    (_edited(ESHARP, COD, [[1, 2, 3], "1"], F49), "osc", "[1, 2, 3] is not an element of F_7^2"),
    # Q: "0.5", "1e3" and true ran as 1/2, 1000 and 1 (exit 0)
    (_edited(OVER_Q, ("curve", "a4"), "0.5"), "curve-info", "'0.5' is not a rational number"),
    (_edited(OVER_Q, ("curve", "a4"), "1e3"), "curve-info", "'1e3' is not a rational number"),
    (_edited(OVER_Q, ("curve", "a4"), True), "curve-info", "True is not a rational number"),
], ids=["F49-three-coefficients", "F49-long-list", "Q-decimal", "Q-exponent", "Q-bool"])
def test_extension_and_rational_elements_decode_strictly(doc, command, named, tmp_path,
                                                         capsys):
    _assert_refused(doc, command, named, tmp_path, capsys)


def test_integer_spellings_decode_alike(tmp_path, capsys):
    """Integers are read mod p: "9" and -5 are 2 over F_7, "-6" and 8 are 1,
    and over F_49 the list [1] and [1, 0] are the constant 1.  Over Q, "-2/2"
    is -1.  Each spelling gives the same bytes as the canonical one."""
    def output(doc, command):
        path = tmp_path / "spelled.json"
        path.write_text(json.dumps(doc))
        code, out = run_inproc([command, "--instance", str(path), "--k", "1"], capsys)
        assert code == 0, out
        return out

    canonical = output(ESHARP, "osc")
    for spelled in (_edited(ESHARP, ("curve", "a6"), "9"),
                    _edited(ESHARP, ("curve", "a6"), -5),
                    _edited(ESHARP, COD, ["-6", 8])):
        assert output(spelled, "osc") == canonical
    canonical = output(_edited(ESHARP, COD, ["1", "1"], F49), "osc")
    assert output(_edited(ESHARP, COD, [[1], [1, 0]], F49), "osc") == canonical
    canonical = output(OVER_Q, "curve-info")
    assert output(_edited(OVER_Q, ("curve", "a4"), "-2/2"), "curve-info") == canonical
    assert output(_edited(OVER_Q, ("curve", "a4"), -1), "curve-info") == canonical


def test_bounds_refuses_a_degree_beyond_the_instance_limit(capsys):
    """|d| is at most 64 r, the largest |degree| the factors of a rank-r
    instance bundle reach; the system's tables grow with |d| / r."""
    code, out = run_inproc(["bounds", "--r", "2", "--d", "-200", "--g", "1"], capsys)
    assert code == 1 and "--d -200" in json.loads(out)["error"]
    code, out = run_inproc(["bounds", "--r", "2", "--d", "-128", "--g", "1"], capsys)
    assert code == 0 and json.loads(out)["system"]["k_prime"] == 63


def test_oversized_numbers_exit_1(tmp_path, capsys):
    """A jet order k above 63 puts a multiplicity above 64 into the witness
    divisors, and a JSON integer of 5000 digits is more than json converts:
    both exit 1 with a JSON error."""
    estar = str(INSTANCES / "estar.json")
    for command in (["witnesses"], ["verify", "mainA"], ["osc"]):
        code, out = run_inproc(command + ["--instance", estar, "--k", "64"], capsys)
        assert code == 1 and "parameter k = 64 exceeds 63" in json.loads(out)["error"]
    code, out = run_inproc(["witnesses", "--instance", estar, "--k", "63", "--M", "[]"],
                           capsys)
    assert code == 0
    big = tmp_path / "big.json"
    big.write_text((INSTANCES / "estar.json").read_text().replace('"0"', "1" * 5000, 1))
    code, out = run_inproc(["curve-info", "--instance", str(big)], capsys)
    assert code == 1 and "5000 digits" in json.loads(out)["error"]
    code, out = run_inproc(["curve-info", "--instance", estar, "--M",
                            '[{"point": "O", "mult": %s}]' % ("1" * 5000)], capsys)
    assert code == 1 and "5000 digits" in json.loads(out)["error"]


@pytest.mark.parametrize("key", ["modulus", "parameters"])
@pytest.mark.parametrize("value", [0, [], "", False, None],
                         ids=["0", "empty-list", "empty-string", "false", "null"])
def test_a_present_falsy_value_is_not_a_missing_key(key, value, tmp_path, capsys):
    """Only a missing modulus or parameters key means the default: a present
    value decodes like any other, so 0, [], "", false and null exit 1 with
    a JSON error, and the same file without the key exits 0."""
    doc = json.loads((INSTANCES / "estar.json").read_text())
    doc["field"] = {"kind": "extension", "p": 7, "degree": 2}
    owner = doc["field"] if key == "modulus" else doc
    message = "modulus is not a list" if key == "modulus" else "parameters must be an object"
    bad = tmp_path / "bad.json"
    owner[key] = value
    bad.write_text(json.dumps(doc))
    code, out = run_inproc(["curve-info", "--instance", str(bad)], capsys)
    assert code == 1 and message in json.loads(out)["error"]
    del owner[key]
    bad.write_text(json.dumps(doc))
    assert run_inproc(["curve-info", "--instance", str(bad)], capsys)[0] == 0


def test_bundle_rank_is_bounded(tmp_path, capsys):
    """A bundle has at most 6 factors, checked before any factor is read:
    verify mainB and mainBmod build its 2^r - 2 wedge factors at once.
    Decoding alone (curve-info) shows it; no verifier runs."""
    doc = json.loads((INSTANCES / "estar.json").read_text())
    bad = tmp_path / "bad.json"
    for factors, want in [([[{"point": "O", "mult": -2}]] * 6, 0),
                          ([[{"point": "O", "mult": -2}]] * 7, 1),
                          ([5] * 30, 1)]:
        doc["bundle"] = {"factors": factors}
        bad.write_text(json.dumps(doc))
        code, out = run_inproc(["curve-info", "--instance", str(bad)], capsys)
        assert code == want, len(factors)
        if want:
            assert (f"bundle of {len(factors)} factors exceeds rank 6"
                    in json.loads(out)["error"])


def test_rational_coefficients_that_do_not_parse_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for a4 in ("1/0", "x"):
        doc = dict(json.loads((INSTANCES / "estar.json").read_text()),
                   field={"kind": "rationals"}, M=[])
        doc["curve"] = {"a4": a4, "a6": "0"}
        bad.write_text(json.dumps(doc))
        code, out = run_inproc(["curve-info", "--instance", str(bad)], capsys)
        assert code == 1 and "not a rational number" in json.loads(out)["error"], a4


def test_division_by_zero_in_the_engine_is_not_an_input_error(monkeypatch, capsys):
    """A ZeroDivisionError raised inside principal_function is an engine bug:
    it propagates from run_command, with nothing on stdout, instead of
    ending in exit 1 with a JSON error."""
    import scrollinflect.funcfield as funcfield

    def dividing(curve, part):
        raise ZeroDivisionError("polynomial division by zero")

    monkeypatch.setattr(funcfield, "_accumulate", dividing)
    with pytest.raises(ZeroDivisionError):
        cli.run_command(["osc", "--instance", str(INSTANCES / "estar.json"),
                         "--k", "0", "--M", "[]"])
    assert capsys.readouterr().out == ""


def test_key_error_in_the_engine_is_not_an_input_error(monkeypatch, capsys):
    """A KeyError raised inside the engine is a bug, not malformed input: it
    propagates from run_command, with nothing on stdout."""
    import scrollinflect.funcfield as funcfield

    def missing(curve, part):
        raise KeyError("slot")

    monkeypatch.setattr(funcfield, "_accumulate", missing)
    with pytest.raises(KeyError):
        cli.run_command(["osc", "--instance", str(INSTANCES / "estar.json"),
                         "--k", "0", "--M", "[]"])
    assert capsys.readouterr().out == ""


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


def test_one_parser_serves_consecutive_commands(capsys):
    """The parser is built once per process: consecutive in-process calls
    with other subcommands and flags (an explicit --k, then its default,
    then an argv error) print what a fresh process prints for each."""
    estar = str(INSTANCES / "estar.json")
    argvs = [["osc", "--instance", estar, "--k", "3"], ["osc", "--instance", estar],
             ["curve-info", "--instance", estar, "--ext", "2"],
             ["osc", "--instance", estar, "--k", "x"]]
    got = [run_inproc(argv, capsys) for argv in argvs]
    assert [(code, out.encode()) for code, out in got] == \
        [run_subprocess(argv) for argv in argvs]
    assert [code for code, _ in got] == [0, 0, 0, 1]
    assert len({out for _, out in got}) == 4
    assert cli.build_parser() is cli.build_parser()


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


def _dropped_witnesses(real):
    def dropped(E, M, place, k):
        ws = real(E, M, place, k)
        empty = EchelonAccumulator(ws.span.field, ws.span.ncols)
        return scroll.WitnessSet(place, k, empty, ws.dimension)
    return dropped


def _filled_witnesses(real):
    def filled(E, M, place, k):
        ws = real(E, M, place, k)
        K = ws.span.field
        whole = EchelonAccumulator(K, ws.span.ncols)
        for row in scroll.standard_basis(K, ws.span.ncols):
            whole.insert(row)
        return scroll.WitnessSet(place, k, whole, ws.dimension)
    return filled


@pytest.mark.parametrize("fault, name, k", [
    (_dropped_witnesses, "eflat", 0), (_dropped_witnesses, "eflat", 1),
    (_dropped_witnesses, "eflat", 2), (_dropped_witnesses, "esharp", 2),
    (_dropped_witnesses, "estar", 2),
    (_filled_witnesses, "esharp", 0), (_filled_witnesses, "esharp", 1),
    (_filled_witnesses, "esharp", 2), (_filled_witnesses, "estar", 0),
    (_filled_witnesses, "estar", 1), (_filled_witnesses, "estar", 2),
    (_filled_witnesses, "eflat", 0), (_filled_witnesses, "eflat", 1)],
    ids=lambda v: getattr(v, "__name__", str(v)).strip("_"))
def test_injected_witness_fault_exits_2(fault, name, k, monkeypatch, capsys):
    # dropping every witness direction breaks completeness (at eflat, k = 2,
    # only the count h0(M^{-1}E(kp)) = dim V_k - rank W_k catches it);
    # filling the whole fibre breaks soundness
    monkeypatch.setattr(scroll, "subsheaf_witnesses", fault(scroll.subsheaf_witnesses))
    code, out = run_inproc(["osc", "--instance", str(INSTANCES / f"{name}.json"),
                            "--k", str(k), "--M", "all"], capsys)
    doc = json.loads(out)
    assert code == 2
    assert doc["kind"] == "invariant-violation"
    assert doc["error"].startswith("deficiency set and subsheaf witnesses disagree")


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
