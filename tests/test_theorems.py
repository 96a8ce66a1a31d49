import pytest

from scrollinflect.bundle import BundleSpec, h0
from scrollinflect.curve import Divisor, INFINITY, Place, single
from scrollinflect.errors import DomainError, InputError, Unsupported
from scrollinflect.theorems import (hirschowitz_bound,
                                    kprime_expected_dims, nilpotent_rank1_exists,
                                    quot_tangent_obstruction, segre1,
                                    specialcases_ranges,
                                    verify_cohomological_stability,
                                    verify_generic_inflection, verify_projection,
                                    verify_segre_threshold, verify_semistability)

P31 = Place(3, 1)


def brute_hirschowitz_delta(r, n, d, g):
    base = n * (r - n) * (g - 1)
    for delta in range(r):
        if (base + delta - n * d) % r == 0:
            return base + delta, delta
    raise AssertionError


def test_hirschowitz_examples_and_congruence_oracle():
    assert hirschowitz_bound(2, 1, -6, 1) == (0, 0)
    assert hirschowitz_bound(3, 2, -7, 1) == (1, 1)
    # the bound plus congruence determines delta uniquely; check against a
    # brute-force solver on a grid
    for r in (2, 3, 4):
        for n in range(1, r):
            for d in range(-9, 3):
                for g in (1, 2, 3):
                    assert hirschowitz_bound(r, n, d, g) == \
                        brute_hirschowitz_delta(r, n, d, g)
    with pytest.raises(InputError):
        hirschowitz_bound(2, 2, -6, 1)


def test_kprime_expected_dims_examples():
    rec = kprime_expected_dims(2, -6, 1)
    assert rec["n"] == 5 and rec["k_prime"] == 2
    assert rec["expected_dim"] == {0: -1, 1: -1, 2: 0}
    assert rec["quot_dim"][1] == -2
    rec = kprime_expected_dims(2, -6, 1, m=4)
    assert rec["k_prime_m"] == 2
    assert rec["projected_expected_dim"] == 1
    # an incomplete ambient system changes the numerology through n only
    rec = kprime_expected_dims(2, -6, 1, n_override=4)
    assert rec["k_prime"] == 2 and rec["expected_dim"][2] == 1
    with pytest.raises(InputError):
        kprime_expected_dims(2, 0, 1)


def test_segre_bruteforce_over_extension_serializes(esharp):
    rep = segre1(esharp, method="bruteforce", ext_degree=2)
    assert rep.s1 == 1
    doc = rep.to_json()
    assert doc["witness"]["degree"] == -3


def test_specialcases_examples():
    rec = specialcases_ranges(2, -8, 1)
    assert rec["a_k_max"] == 3 and rec["b_k_min"] == 3
    rec = specialcases_ranges(2, -6, 1)
    assert rec["a_k_max"] == 2 and rec["b_k_min"] == 2
    assert rec["generic_s1"] == 0
    rec = specialcases_ranges(2, -2, 1)       # boundary d = -r
    assert rec["a_k_max"] == 0
    with pytest.raises(DomainError):
        specialcases_ranges(2, -1, 1)


def test_segre_formula_examples(estar, eflat):
    assert segre1(eflat).s1 == -4
    assert segre1(estar).s1 == 0


def test_segre_formula_matches_bruteforce(C7, estar, eflat, rng):
    from conftest import random_bundle
    cases = [estar, eflat]
    for _ in range(6):
        cases.append(random_bundle(C7, rng, ranks=(2,), allow_mod=False,
                                   deg_range=(-4, -1)))
    for E in cases:
        assert segre1(E, "formula").s1 == segre1(E, "bruteforce").s1


def test_segre_twist_invariance(C7, estar, rng):
    for _ in range(20):
        T = rng.choice(C7.points())
        Z = single(T).add(single(INFINITY, -1)) if not T.is_infinity else Divisor()
        twisted = BundleSpec(estar.curve, [f.add(Z) for f in estar.factors],
                             estar.modifications)
        assert segre1(twisted, "bruteforce").s1 == 0


def test_segre_bruteforce_on_modified(esharp):
    rep = segre1(esharp, method="bruteforce")
    assert rep.s1 == 1
    assert rep.witness["degree"] == -3


def test_segre_witness_is_saturated_subbundle(estar):
    rep = segre1(estar, method="bruteforce")
    assert rep.s1 == estar.degree - estar.rank * rep.witness["degree"]


def test_nilpotent_examples(estar, eflat, edouble, esharp):
    assert nilpotent_rank1_exists(estar)[0] is False
    assert nilpotent_rank1_exists(eflat)[0] is True
    assert nilpotent_rank1_exists(edouble)[0] is True
    with pytest.raises(Unsupported):
        nilpotent_rank1_exists(esharp)       # End of a conditioned bundle


def test_quot_tangent_obstruction(estar, edouble, eflat):
    w = segre1(estar).witness
    assert quot_tangent_obstruction(estar, w) == (0, 0)
    w2 = segre1(edouble).witness
    assert quot_tangent_obstruction(edouble, w2) == (1, 1)
    w3 = segre1(eflat).witness
    h0_, h1_ = quot_tangent_obstruction(eflat, w3)
    assert h1_ > 0


def test_quot_tangent_rejects_vanishing_witness(C7, estar):
    # dropping the factor class by one extra point leaves a section that
    # vanishes there, so the subsheaf is not saturated
    T = Place(5, 1)
    bad_class = single(INFINITY, -2).add(single(P31, -1)).add(single(T, -1))
    V = h0(estar, bad_class.neg())
    vanishing = next(vec for vec in V.vectors if vec[0].is_zero())
    bad = {"class_divisor": bad_class, "section": vanishing}
    with pytest.raises(DomainError):
        quot_tangent_obstruction(estar, bad)


def test_main_threshold_verifier(estar, eflat):
    rep = verify_segre_threshold(estar, k_values=[0, 1, 2], ext_degree=1)
    assert rep.passed
    ineqs = [c["inequality_holds"] for c in rep.clauses]
    assert ineqs == [True, True, False]
    rep = verify_segre_threshold(eflat, k_values=[0], ext_degree=1)
    assert rep.passed
    assert rep.clauses[0]["witness"]["point"] == "O"
    assert rep.clauses[0]["witness"]["direction"] == ["1", "0"]


def test_threshold_inequality_is_downward_closed(estar, eflat, esharp):
    for E in (estar, eflat, esharp):
        s1 = segre1(E, "auto" if E.is_decomposable else "bruteforce").s1
        flags = [s1 > E.degree + E.rank * (1 + k) for k in range(6)]
        assert all(a or not b for a, b in zip(flags, flags[1:]))


def test_semistability_verifier(estar, eflat, C7):
    assert verify_semistability(estar, ext_degree=1).passed
    rep = verify_semistability(eflat, ext_degree=1)
    assert rep.passed
    eq = rep.clauses[-1]
    assert eq["semistable"] is False and eq["scan_clean"] is False
    boundary = BundleSpec(C7, [single(INFINITY, -1), single(INFINITY, -1)])
    with pytest.raises(DomainError):
        verify_semistability(boundary)


def test_cohomological_stability_verifier(estar, esharp):
    rep = verify_cohomological_stability(estar, ext_degree=1)
    assert rep.passed and rep.clauses[0]["value"] is False
    rep = verify_cohomological_stability(esharp, ext_degree=1)
    assert rep.passed and rep.clauses[0]["value"] is True


def test_generic_inflection_verifier(estar, eflat):
    rep = verify_generic_inflection(estar, ext_degree=2)
    assert rep.passed
    by_id = {c["id"]: c for c in rep.clauses}
    assert by_id["a:dimension"]["fraction"] == "9/9"
    assert by_id["c:top-locus"]["expected_dim"] == 0
    rep = verify_generic_inflection(eflat, ext_degree=1)
    assert not rep.passed
    assert rep.clauses[0]["id"] == "hypothesis" and not rep.clauses[0]["pass"]


def test_projection_verifier(estar):
    rep = verify_projection(estar, Divisor(), 5, seeds=range(12))
    assert rep.passed
    by_id = {c["id"]: c for c in rep.clauses}
    assert by_id["dimension-hypothesis"]["pass"]
    assert by_id["adversarial-projection-inflects"]["pass"]
