"""Acceptance criteria, one test per criterion, tolerance zero throughout.

Each test prints a single [PASS]/[FAIL] line so the suite doubles as a
checklist: run `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import scrollinflect.cli as cli
import scrollinflect.scroll as scroll_mod
from conftest import random_bundle, random_direction, random_divisor
from scrollinflect.bundle import BundleSpec, Modification, h0
from scrollinflect.curve import Curve, Divisor, INFINITY, Place, single
from scrollinflect.fields import PrimeField
from scrollinflect.funcfield import peval, rr_basis
from scrollinflect.scroll import (ScanContext, ScrollPoint, osc_dim,
                                  osc_dim_oracle, scan_report)
from scrollinflect.theorems import (hirschowitz_bound, nilpotent_rank1_exists,
                                    quot_tangent_obstruction, segre1,
                                    verify_cohomological_stability,
                                    verify_generic_inflection,
                                    verify_projection, verify_segre_threshold,
                                    verify_semistability)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
P31 = Place(3, 1)
Q51 = Place(5, 1)
R61 = Place(6, 1)
M0 = Divisor()


def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def genus1_rr_dim(curve, D):
    if D.degree < 0:
        return 0
    if D.degree == 0:
        return 1 if curve.is_principal(D) else 0
    return D.degree


def pole_candidate_places(curve, f, D):
    """Places where div(f) + D >= 0 could fail: the support of D plus every
    rational zero of the denominator plus the point at infinity.  All basis
    constructions have rational pole support, so this set is complete."""
    out = set(D.support)
    out.add(INFINITY)
    K = curve.field
    for place in curve.points():
        if place.is_infinity:
            continue
        if peval(K, f.d0, place.x) == K.zero:
            out.add(place)
    return out


def test_criterion_1_riemann_roch_exactness():
    t0 = time.time()
    rng = random.Random(1001)
    curves = [Curve(PrimeField(7), 0, 2), Curve(PrimeField(11), 0, 4)]
    checked = 0
    for i in range(500):
        curve = curves[i % 2]
        D = random_divisor(curve, rng, rng.randint(-5, 8))
        basis = rr_basis(curve, D)
        assert len(basis) == genus1_rr_dim(curve, D), (D, len(basis))
        for f in basis:
            for place in pole_candidate_places(curve, f, D):
                assert f.ord_at(place) + D.mult(place) >= 0, (D, place)
        checked += 1
    elapsed = time.time() - t0
    report("criterion 1: Riemann-Roch exactness",
           checked == 500 and elapsed < 30,
           f"(500 divisors over F_7 and F_11, {elapsed:.1f}s)")


def test_criterion_2_jet_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(2002)
    curve = Curve(PrimeField(7), 0, 2)
    base_points = 0
    eflat = BundleSpec(curve, [single(INFINITY, -1), single(INFINITY, -5)])
    epeak = BundleSpec(curve, [single(P31, -1), single(INFINITY, -4)])
    cases = [(eflat, M0, ScrollPoint(curve.field, INFINITY, (1, 0)), k)
             for k in (0, 1, 2)]
    cases += [(epeak, M0, ScrollPoint(curve.field, P31, (1, 0)), 0),
              (epeak, M0, ScrollPoint(curve.field, P31, (1, 0)), 3)]
    while len(cases) < 200:
        E = random_bundle(curve, rng, ranks=(2, 3), deg_range=(-5, -1))
        M = rng.choice(curve.pic0_representatives())
        x = ScrollPoint(curve.field, rng.choice(curve.points()),
                        random_direction(curve.field, E.rank, rng))
        cases.append((E, M, x, rng.randint(0, 3)))
    for E, M, x, k in cases:
        d_jet = osc_dim(E, M, x, k)
        d_oracle = osc_dim_oracle(E, M, x, k)
        assert d_jet == d_oracle, (E, M, x.place, x.direction, k, d_jet, d_oracle)
        if d_jet == -1:
            base_points += 1
    elapsed = time.time() - t0
    report("criterion 2: jet/oracle equivalence",
           base_points >= 1 and elapsed < 120,
           f"(200 instances, {base_points} base points, {elapsed:.1f}s)")


def test_criterion_3_witness_roundtrip(estar, eflat, C7):
    rng = random.Random(3003)
    scans = 0
    for E in (estar, eflat):
        for M in C7.pic0_representatives():
            ctx = ScanContext(E, M, ext_degree=1, k_max=2)
            for k in range(3):
                rep = scan_report(ctx, k, cross_check=True)
                assert rep.witness_match is True, (E, M, k)
                assert rep.oracle_agreement is True
                scans += 1
        ctx2 = ScanContext(E, M0, ext_degree=2, k_max=2)
        for k in range(3):
            rep = scan_report(ctx2, k, cross_check=True)
            assert rep.witness_match is True and rep.oracle_agreement is True
            scans += 1
    for _ in range(10):
        E = random_bundle(C7, rng, ranks=(2, 3), deg_range=(-5, -2))
        for M in [M0, rng.choice(C7.pic0_representatives())]:
            ctx = ScanContext(E, M, ext_degree=1, k_max=2)
            for k in range(3):
                rep = scan_report(ctx, k, cross_check=True)
                assert rep.witness_match is True, (E.to_json(), M, k)
                scans += 1
    report("criterion 3: witness correspondence round trip", True,
           f"({scans} scans, zero mismatches)")


def _curated_family(C7):
    O = INFINITY
    mk = Modification.simple
    return [
        BundleSpec(C7, [single(O, -3), Divisor({O: -2, P31: -1})]),
        BundleSpec(C7, [single(O, -1), single(O, -5)]),
        BundleSpec(C7, [single(O, -3), single(O, -3)]),
        BundleSpec(C7, [single(O, -2), Divisor({O: -2, Q51: -1})]),
        BundleSpec(C7, [single(O, -2), single(P31, -2)], [mk(Q51, (1, 1))]),
        BundleSpec(C7, [single(O, -2), single(P31, -2)]),
        BundleSpec(C7, [single(O, -4), Divisor({O: -4, P31: -1})]),
        BundleSpec(C7, [single(O, -4), Divisor({O: -3, R61: -1})]),
        BundleSpec(C7, [single(O, -2), single(P31, -2), single(Q51, -2)]),
        BundleSpec(C7, [single(O, -1), single(O, -2), single(O, -3)]),
        BundleSpec(C7, [single(O, -3), single(P31, -3), single(Q51, -3)]),
        BundleSpec(C7, [single(O, -2), single(P31, -2), single(Q51, -2)],
                   [mk(R61, (1, 1, 1))]),
        BundleSpec(C7, [single(O, -3), single(P31, -3)], [mk(Place(6, 6), (1, 2))]),
    ]


def test_criterion_4_segre_threshold_family(C7):
    t0 = time.time()
    family = _curated_family(C7)
    assert len(family) >= 12
    assert any(not E.is_decomposable for E in family)
    assert any(E.rank == 3 for E in family)
    assert all(-9 <= E.degree <= -4 for E in family)
    failures = []
    for i, E in enumerate(family):
        rep = verify_segre_threshold(E, ext_degree=2, s1_method="bruteforce")
        if not rep.passed:
            failures.append((i, rep.to_json()))
    report("criterion 4: s1 threshold equivalence on curated family",
           not failures,
           f"({len(family)} bundles, k+1 < 7, e<=2 scans, "
           f"{time.time() - t0:.1f}s)" + (f" {failures}" if failures else ""))


def test_criterion_5_hirschowitz_bound(C7, estar):
    rng = random.Random(5005)
    tested = 0
    equality_seen = False
    bundles = [estar]
    for _ in range(34):
        bundles.append(random_bundle(C7, rng, ranks=(2, 3), allow_mod=False,
                                     deg_range=(-5, -1)))
    for _ in range(15):
        bundles.append(random_bundle(C7, rng, ranks=(2,), allow_mod=True,
                                     deg_range=(-4, -1)))
    for E in bundles:
        s1 = segre1(E, method="bruteforce").s1
        bound = hirschowitz_bound(E.rank, 1, E.degree, 1)[0]
        assert s1 <= bound, (E.to_json(), s1, bound)
        if s1 == bound:
            equality_seen = True
        tested += 1
    s1_star = segre1(estar, method="bruteforce").s1
    assert s1_star == 0 == hirschowitz_bound(2, 1, -6, 1)[0]
    report("criterion 5: universal bound on s1", tested >= 50 and equality_seen,
           f"({tested} bundles, equality attained)")


def test_criterion_6_stability_verifiers(estar, eflat, esharp):
    rep_star = verify_semistability(estar, ext_degree=1)
    rep_flat = verify_semistability(eflat, ext_degree=1)
    flat_eq = [c for c in rep_flat.clauses if c["id"] == "equivalence"][0]
    flat_scan = [c for c in rep_flat.clauses if c["id"] == "full-osculation-range"][0]
    base_point_witness = flat_scan["witness"]["k"] == 0
    s1_sharp = segre1(esharp, method="bruteforce").s1     # ground truth first
    rep_sharp = verify_cohomological_stability(esharp, ext_degree=1)
    ok = (rep_star.passed and rep_flat.passed
          and flat_eq["semistable"] is False and base_point_witness
          and s1_sharp == 1 and rep_sharp.passed
          and rep_sharp.clauses[0]["value"] is True)
    report("criterion 6: semistability and cohomological stability", ok,
           f"(s1(modified) = {s1_sharp} by enumeration)")


def test_criterion_7_generic_inflection(estar, eflat, edouble):
    rep = verify_generic_inflection(estar, ext_degree=2)
    by_id = {c["id"]: c for c in rep.clauses}
    ok_a = by_id["a:dimension"]["fraction"] == "9/9"
    ok_b = by_id["b:lower-loci-empty"]["pass"]
    ok_c = by_id["c:top-locus"]["pass"] and \
        by_id["c:top-locus"]["expected_dim"] == 0
    hyp_star = nilpotent_rank1_exists(estar)[0] is False
    hyp_flat = nilpotent_rank1_exists(eflat)[0] is True
    hyp_dbl = nilpotent_rank1_exists(edouble)[0] is True
    ok = rep.passed and ok_a and ok_b and ok_c and hyp_star and hyp_flat and hyp_dbl
    counts = by_id["c:top-locus"]["counts_by_M"]
    report("criterion 7: generic twists have expected inflection", ok,
           f"(dim |L_M| = 5 for 9/9 twists; top-locus counts e=1,2: "
           f"{sorted(set(tuple(v) for v in counts.values()))})")


def test_criterion_8_projections(estar):
    rep = verify_projection(estar, M0, 5, seeds=range(50), ext_degree=1)
    by_id = {c["id"]: c for c in rep.clauses}
    match = by_id["random-projections-match"]
    ok = rep.passed and match["seeds"] == 50 and \
        by_id["adversarial-projection-inflects"]["pass"]
    report("criterion 8: general projections preserve low-order loci", ok,
           f"({match['general']}/50 draws certified general, all matched; "
           "one adversarial draw forces an inflection)")


def _maximal_witness_classes(E):
    """All line classes of maximal subbundle degree with a nonvanishing map."""
    from scrollinflect.theorems import _nowhere_vanishing
    curve = E.curve
    rep = segre1(E, method="bruteforce")
    a = rep.witness["degree"]
    found = []
    for T in curve.points():
        L = single(INFINITY, a - 1).add(single(T)) if not T.is_infinity \
            else single(INFINITY, a)
        V = h0(E, L.neg())
        for vec in V.vectors:
            if _nowhere_vanishing(E, V, vec, curve):
                found.append({"class_divisor": L, "section": vec})
                break
    return found


def test_criterion_9_obstruction_vanishing(C7, estar, eflat, edouble):
    clean = [estar, BundleSpec(C7, [single(INFINITY, -2), single(P31, -2)])]
    dirty = [eflat, edouble,
             BundleSpec(C7, [single(INFINITY, -3), single(P31, -3)]),
             BundleSpec(C7, [single(INFINITY, -2), single(INFINITY, -4)])]
    for E in clean:
        assert nilpotent_rank1_exists(E)[0] is False
        witnesses = _maximal_witness_classes(E)
        assert witnesses
        for w in witnesses:
            h0_, h1_ = quot_tangent_obstruction(E, w)
            assert h1_ == 0, (E.to_json(), w["class_divisor"], h1_)
    exhibited = 0
    for E in dirty:
        assert nilpotent_rank1_exists(E)[0] is True
        if any(quot_tangent_obstruction(E, w)[1] > 0
               for w in _maximal_witness_classes(E)):
            exhibited += 1
    report("criterion 9: obstruction spaces vanish without nilpotents",
           exhibited == len(dirty),
           f"({len(clean)} clean bundles all h1 = 0; "
           f"{exhibited}/{len(dirty)} nilpotent bundles exhibit h1 > 0)")


def test_criterion_10_determinism_and_fault_path(monkeypatch, capsys):
    argv_sets = [
        ["osc", "--instance", str(INSTANCES / "estar.json"), "--k", "2",
         "--M", "[]"],
        ["verify", "mainA", "--instance", str(INSTANCES / "eflat.json"),
         "--k", "1"],
        ["project", "--instance", str(INSTANCES / "estar.json"), "--m", "5",
         "--seed", "7", "--k", "1"],
    ]
    deterministic = True
    for argv in argv_sets:
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "scrollinflect.cli"]
                                  + argv, capture_output=True)
            assert proc.returncode == 0
            outs.append(proc.stdout)
        deterministic = deterministic and outs[0] == outs[1]
    real = scroll_mod.osc_dim_oracle
    monkeypatch.setattr(scroll_mod, "osc_dim_oracle",
                        lambda E, M, x, k: real(E, M, x, k) + 1)
    code = cli.main(["osc", "--instance", str(INSTANCES / "estar.json"),
                     "--k", "0", "--M", "[]"])
    fault_doc = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    code_ok = cli.main(["osc", "--instance", str(INSTANCES / "estar.json"),
                        "--k", "0", "--M", "[]"])
    capsys.readouterr()
    ok = deterministic and code == 2 and \
        fault_doc["kind"] == "invariant-violation" and code_ok == 0
    report("criterion 10: determinism and fault isolation", ok,
           "(byte-identical reruns; exit 2 only under the injected fault)")
