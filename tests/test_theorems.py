import random
from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest

from conftest import random_divisor
from references import quot_tangent_obstruction
from scrollinflect.bundle import BundleSpec, h0
from scrollinflect.curve import Curve, Divisor, INFINITY, Place, single
from scrollinflect.errors import DomainError, InputError, Unsupported
from scrollinflect.fields import PrimeField
from scrollinflect.funcfield import FunctionRep
from scrollinflect.scroll import _classify
from scrollinflect.theorems import (_ScanPool, endomorphism_basis, hirschowitz_bound,
                                    kprime_expected_dims, nilpotent_rank1_exists,
                                    segre1, verify_cohomological_stability,
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
    # n = 4 keeps k' = 2 and raises the top expected dimension to 1
    rec = kprime_expected_dims(2, -5, 1)
    assert rec["n"] == 4
    assert rec["k_prime"] == 2 and rec["expected_dim"][2] == 1
    with pytest.raises(InputError):
        kprime_expected_dims(2, 0, 1)


def test_segre_bruteforce_over_extension_serializes(esharp):
    rep = segre1(esharp, method="bruteforce", ext_degree=2)
    assert rep.s1 == 1
    doc = rep.to_json()
    assert doc["witness"]["degree"] == -3


def specialcases_ranges(r, d, g):
    """k-ranges where positivity of s_1 forces full osculation (a), where a
    deficiency is unavoidable (b), and the generic value for the converse (c)."""
    if d > r * (1 - 2 * g):
        raise DomainError("requires degree d <= r(1 - 2g)")
    mu_dual = Fraction(-d, r)
    a_k_max = floor(mu_dual - (2 * g - 1))
    b_k_min = ceil(mu_dual - Fraction((r + 1) * g - 1, r))
    generic_s1 = hirschowitz_bound(r, 1, d, g)[0]
    return {"a_k_max": a_k_max, "b_k_min": b_k_min, "generic_s1": generic_s1,
            "converse_needs_generic_s1": True}


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


def test_nilpotent_examples(estar, eflat, edouble, esharp, CQ):
    assert nilpotent_rank1_exists(estar)[0] is False
    assert nilpotent_rank1_exists(eflat)[0] is True
    assert nilpotent_rank1_exists(edouble)[0] is True
    with pytest.raises(Unsupported):
        nilpotent_rank1_exists(esharp)       # End of a conditioned bundle
    # the Hom-dimension criterion needs no finite field: y^2 = x^3 - x over Q
    QQ = CQ.field
    exists, details = nilpotent_rank1_exists(
        BundleSpec(CQ, [single(INFINITY, -1), single(INFINITY, -4)]))
    assert exists is True and details["dim"] == 5
    assert details["witness_coeffs"] == [QQ.zero, QQ.one, QQ.zero, QQ.zero, QQ.zero]
    exists, details = nilpotent_rank1_exists(BundleSpec(
        CQ, [single(INFINITY, -3), Divisor({INFINITY: -2, Place(QQ.zero, QQ.zero): -1})]))
    assert exists is False and details == {"dim": 2, "witness_coeffs": None}


def _rank_le1_and_square_zero(m, add, sub, mul, is_zero):
    """Whether the square matrix m has every 2x2 minor zero and m * m = 0,
    with entries in a commutative ring given by its operations."""
    r = len(m)
    for i1 in range(r):
        for i2 in range(i1 + 1, r):
            for j1 in range(r):
                for j2 in range(j1 + 1, r):
                    if not is_zero(sub(mul(m[i1][j1], m[i2][j2]),
                                       mul(m[i1][j2], m[i2][j1]))):
                        return False
    for i in range(r):
        for j in range(r):
            acc = mul(m[i][0], m[0][j])
            for k in range(1, r):
                acc = add(acc, mul(m[i][k], m[k][j]))
            if not is_zero(acc):
                return False
    return True


def _function_sub(f, g):
    K = f.curve.field
    return f.add(g.scalar_mul(K.neg(K.one)))


_FUNCTION_OPS = (FunctionRep.add, _function_sub, FunctionRep.mul,
                 FunctionRep.is_zero)


def _endomorphism(E, basis, coeffs):
    """The function matrix sum of c * f E_ij over the basis."""
    phi = [[FunctionRep.zero(E.curve)] * E.rank for _ in range(E.rank)]
    for c, (i, j, f) in zip(coeffs, basis):
        if c != E.curve.field.zero:
            phi[i][j] = phi[i][j].add(f.scalar_mul(c))
    return phi


def _value(f, place):
    """f at place, or None at a pole."""
    s = f.local_expansion(place, 1)
    if s.val < 0:
        return None
    return s.coeffs[0] if s.val == 0 else f.curve.field.zero


def _brute_nilpotent(E):
    """(exists, end_dim, first witness) by projective enumeration of End(E):
    a value prefilter at up to three places where no basis function has a
    pole, then the exact test on the function matrix."""
    K = E.curve.field
    basis = endomorphism_basis(E)
    samples = []
    for place in E.curve.points():
        values = [_value(f, place) for _, _, f in basis]
        if None not in values:
            samples.append(values)
        if len(samples) == 3:
            break
    field_ops = (K.add, K.sub, K.mul, lambda a: a == K.zero)
    elements = list(K.elements())
    for lead in range(len(basis)):
        for tail in product(elements, repeat=len(basis) - lead - 1):
            coeffs = [K.zero] * lead + [K.one] + list(tail)
            ok = True
            for values in samples:
                m = [[K.zero] * E.rank for _ in range(E.rank)]
                for c, v, (i, j, _) in zip(coeffs, values, basis):
                    m[i][j] = K.add(m[i][j], K.mul(c, v))
                if not _rank_le1_and_square_zero(m, *field_ops):
                    ok = False
                    break
            if ok and _rank_le1_and_square_zero(_endomorphism(E, basis, coeffs),
                                                *_FUNCTION_OPS):
                return True, len(basis), coeffs
    return False, len(basis), None


def _assert_witness(E):
    """The criterion's answer, with its witness checked as a function matrix."""
    exists, details = nilpotent_rank1_exists(E)
    coeffs = details["witness_coeffs"]
    assert exists is (coeffs is not None)
    assert exists is (details["dim"] > E.rank)
    if exists:
        phi = _endomorphism(E, endomorphism_basis(E), coeffs)
        assert any(not f.is_zero() for row in phi for f in row)
        assert _rank_le1_and_square_zero(phi, *_FUNCTION_OPS)
    return exists, details


def test_nilpotent_when_every_place_zeroes_a_denominator():
    # at each affine place of C(F_5) some basis function of End(E) has a
    # denominator (a polynomial in x) vanishing there, so no place gives
    # every basis value by substitution; L1 = L2, so both Hom blocks are 1
    C5 = Curve(PrimeField(5), 1, 1)              # y^2 = x^3 + x + 1
    L1 = Divisor({INFINITY: -4, Place(0, 1): -1, Place(3, 1): 1})
    L2 = Divisor({INFINITY: -5, Place(2, 1): 2, Place(4, 2): -1})
    exists, details = _assert_witness(BundleSpec(C5, [L1, L2]))
    assert exists is True and details["dim"] == 4


def test_nilpotent_criterion_has_no_dimension_budget(C7):
    E = BundleSpec(C7, [single(INFINITY, -1), single(INFINITY, -7)])
    exists, details = _assert_witness(E)
    assert exists is True and details["dim"] == 8
    assert details["witness_coeffs"] == [0, 1, 0, 0, 0, 0, 0, 0]


def test_nilpotent_witness_for_isomorphic_factors(edouble):
    exists, details = _assert_witness(edouble)
    assert details["witness_coeffs"] == [0, 1, 0, 0]


def _no_isomorphic_factors(E):
    """Whether no two factors are isomorphic, i.e. no Hom blocks (i, j) and
    (j, i) are both nonzero: then End(E) is block-triangular by degree with
    a constant diagonal, and the enumeration's first hit is the criterion's
    witness."""
    blocks = {(i, j) for i, j, _ in endomorphism_basis(E) if i != j}
    return all((j, i) not in blocks for i, j in blocks)


@pytest.mark.parametrize("p, a4, a6", [(5, 1, 1), (7, 0, 2), (11, 0, 4)],
                         ids=["F5", "F7", "F11"])
def test_nilpotent_criterion_matches_enumeration(p, a4, a6):
    curve = Curve(PrimeField(p), a4, a6)
    rng = random.Random(20261020 + p)
    checked = 0
    while checked < 20:
        r = rng.choice((1, 2, 2, 3, 3))
        E = BundleSpec(curve, [random_divisor(curve, rng, rng.randint(-4, -2))
                               for _ in range(r)])
        if p ** (len(endomorphism_basis(E)) - 1) > 20000:
            continue                             # enumeration too long
        checked += 1
        exists, details = _assert_witness(E)
        ref_exists, ref_dim, ref_coeffs = _brute_nilpotent(E)
        assert (exists, details["dim"]) == (ref_exists, ref_dim)
        if _no_isomorphic_factors(E):
            assert details["witness_coeffs"] == ref_coeffs


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


def _first_record(pool, M_list, k, e_list):
    """The first record of a classification at kr + 1 of its own, over the
    twist classes in order at each extension degree in turn."""
    for ctx in (pool.ctx(M, e) for e in e_list for M in M_list):
        for rec in _classify(ctx, ctx.scan_level(k), k * pool.E.rank + 1):
            return ctx, rec
    return None


def test_first_subfull_is_the_first_record_of_a_second_pass(scan_bundles, C7):
    """_ScanPool.first_subfull, which reads scan_report, finds the context
    and the record a second pass at kr + 1 finds first."""
    M_list = C7.pic0_representatives()
    for E in scan_bundles:
        pool = _ScanPool(E, 4)
        for k in range(5):
            got = pool.first_subfull(M_list, k, (1, 2))
            want = _first_record(pool, M_list, k, (1, 2))
            assert (got is None) == (want is None), (E.to_json(), k)
            if got is not None:
                (ctx, rec), (want_ctx, want_rec) = got, want
                assert ctx is want_ctx
                assert (rec.place, rec.mode, rec.basis, rec.directions) == \
                    (want_rec.place, want_rec.mode, want_rec.basis, want_rec.directions)
