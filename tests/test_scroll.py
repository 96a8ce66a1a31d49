import random
from collections import Counter
from itertools import product

import pytest

from scrollinflect.bundle import BundleSpec, dual_twist, h0, normalized_series
from scrollinflect.curve import Curve, Divisor, INFINITY, Place, single
from scrollinflect.errors import InputError, Unsupported
from scrollinflect.fields import extension_of
from scrollinflect.funcfield import FunctionRep
from scrollinflect.linalg import EchelonAccumulator, mat_rank_kernel, rref
from scrollinflect import scroll
from scrollinflect.scroll import (ScanContext, ScrollPoint, _combo_basis,
                                  adversarial_projection, alpha_series,
                                  frobenius_orbits, jet_matrix,
                                  order_matrices, osc_dim, osc_dim_oracle,
                                  project_system,
                                  projective_points, scan_report, standard_basis,
                                  subsheaf_witnesses, witness_sets)
from scrollinflect.theorems import verify_projection

P31 = Place(3, 1)
M0 = Divisor()


def _rank(K, rows):
    return mat_rank_kernel(K, rows, len(rows[0]))[0]


def test_base_point_jet_matrix_is_zero(eflat, F7):
    x = ScrollPoint(F7, INFINITY, (1, 0))
    jm = jet_matrix(eflat, M0, x, 0)
    assert len(jm) == 1 and len(jm[0]) == 6
    assert all(c == 0 for row in jm for c in row)
    assert osc_dim(eflat, M0, x, 0) == -1
    assert osc_dim_oracle(eflat, M0, x, 0) == -1


def test_generic_point_dimensions(estar, F7):
    x = ScrollPoint(F7, Place(5, 1), (1, 1))
    assert osc_dim(estar, M0, x, 0) == 0
    # one jet order: kr + 1 = 3 rows, full rank at a generic point
    jm = jet_matrix(estar, M0, x, 1)
    assert len(jm) == 3 and _rank(F7, jm) == 3
    assert osc_dim(estar, M0, x, 1) == 2
    assert osc_dim(estar, M0, x, 2) == 4


def test_rank_one_scroll_is_the_curve_model(C7, F7):
    E = BundleSpec(C7, [single(INFINITY, -3)])
    x = ScrollPoint(F7, Place(5, 1), (1,))
    assert osc_dim(E, M0, x, 1) == 1          # plane cubic model has tangent lines


def test_jet_order_must_stay_below_characteristic(estar, F7):
    x = ScrollPoint(F7, Place(5, 1), (1, 1))
    with pytest.raises(InputError):
        osc_dim(estar, M0, x, 6)


def test_direction_must_fit_the_fibre(estar, F7):
    for v in [(1,), (1, 1, 1)]:
        with pytest.raises(InputError, match="nonzero fibre vector"):
            jet_matrix(estar, M0, ScrollPoint(F7, Place(5, 1), v), 1)


def test_oracle_agreement_randomized(C7, eflat, rng):
    from conftest import random_bundle, random_direction
    base_points = 0
    # deterministic base-point cases first: degree -1 factors leave a base
    # point at the support of the dual factor
    seeded = [(eflat, M0, ScrollPoint(C7.field, INFINITY, (1, 0)), 0),
              (eflat, M0, ScrollPoint(C7.field, INFINITY, (1, 0)), 1)]
    for E, M, x, k in seeded:
        d_jet = osc_dim(E, M, x, k)
        assert d_jet == osc_dim_oracle(E, M, x, k)
        if d_jet == -1:
            base_points += 1
    for _ in range(60):
        E = random_bundle(C7, rng, ranks=(2, 3), deg_range=(-4, -1))
        M = rng.choice(C7.pic0_representatives())
        place = rng.choice(C7.points())
        v = random_direction(C7.field, E.rank, rng)
        k = rng.randint(0, 3)
        x = ScrollPoint(C7.field, place, v)
        d_jet = osc_dim(E, M, x, k)
        d_orc = osc_dim_oracle(E, M, x, k)
        assert d_jet == d_orc, (E, M, x.place, x.direction, k)
        if d_jet == -1:
            base_points += 1
    assert base_points >= 1


@pytest.mark.parametrize("name", ["estar", "esharp"])
def test_frame_independence(name, C7, rng, request):
    # the frame-adapted matrix (rows along v at orders <= k, along a random
    # completion w below k, order-j entries scaled by c^j as for the
    # uniformiser t/c) has rank osc_dim + 1; esharp's place (5,1) reads the
    # raised frame
    E = request.getfixturevalue(name)
    K = C7.field
    sections = h0(dual_twist(E, M0))
    for place in C7.points():
        for _ in range(2):
            v = (1, rng.randrange(7)) if rng.random() < 0.5 else (0, 1)
            w = v
            while K.sub(K.mul(v[0], w[1]), K.mul(v[1], w[0])) == K.zero:
                w = (rng.randrange(7), rng.randrange(7))
            c = 1 + rng.randrange(6)
            k = rng.randint(0, 2)
            alphas = alpha_series(E, sections, place, k)

            def row(u, j):
                return [K.mul(K.dot(u, [coords[j] for coords in alpha]), K.pow(c, j))
                        for alpha in alphas]

            adapted = [row(v, j) for j in range(k + 1)] + [row(w, j) for j in range(k)]
            x = ScrollPoint(K, place, v)
            assert _rank(K, adapted) == osc_dim(E, M0, x, k, sections=sections) + 1


def test_osc_dim_bounded_by_kr_and_n(estar, C7, rng):
    n = h0(dual_twist(estar, M0)).dimension - 1
    for _ in range(15):
        place = rng.choice(C7.points())
        x = ScrollPoint(C7.field, place, (1, rng.randrange(7)))
        k = rng.randint(0, 3)
        assert osc_dim(estar, M0, x, k) <= min(k * estar.rank, n)


def test_witness_examples(eflat, estar, C7):
    w = subsheaf_witnesses(eflat, M0, INFINITY, 0)
    assert w.directions == [(1, 0)]
    for place in C7.points():
        assert subsheaf_witnesses(estar, M0, place, 0).is_empty
    # s1 = 0 > d + r(1 + k) for k <= 1 forces empty witness sets everywhere
    for M in C7.pic0_representatives():
        for place in C7.points():
            assert subsheaf_witnesses(estar, M, place, 1).is_empty


@pytest.mark.parametrize("name", ["eflat", "esharp", "estar"])
def test_witness_rank_fits_the_exact_sequence(name, C7, request):
    # 0 -> M^{-1}E(kp) -> M^{-1}E((k+1)p) -> fibre at p: W_k is the image
    E = request.getfixturevalue(name)
    for M in C7.pic0_representatives()[:3]:
        for place in C7.points():
            for k in range(3):
                upper = h0(E, M.neg().add(single(place, k + 1))).dimension
                lower = h0(E, M.neg().add(single(place, k))).dimension
                w = subsheaf_witnesses(E, M, place, k)
                assert w.dimension == upper
                assert upper - w.span.rank == lower, (M, place, k)


def test_scan_examples(eflat, estar, C7):
    rep = scan_report(ScanContext(eflat, M0, ext_degree=1, k_max=0), 0)
    pts = rep.to_json()["deficient_points"]
    assert pts == [{"point": "O", "direction": ["1", "0"], "ext_degree": 1}]
    for M in C7.pic0_representatives():
        ctx = ScanContext(estar, M, ext_degree=1, k_max=0)
        assert not scan_report(ctx, 0).subfull
    rep2 = scan_report(ScanContext(estar, M0, ext_degree=1, k_max=2), 2)
    assert rep2.deficient_point_count() == 9
    assert rep2.witness_match and rep2.oracle_agreement


def test_scan_monotonicity(estar, eflat, C7):
    # deficiency fibres only grow with the jet order
    for E in (estar, eflat):
        ctx = ScanContext(E, M0, ext_degree=1, k_max=2)
        prev = set()
        for k in range(3):
            rep = scan_report(ctx, k, cross_check=False)
            cur = set()
            for rec in rep.subfull:
                if rec.mode == "all":
                    cur.add((repr(rec.place), "ALL"))
                else:
                    cur.update((repr(rec.place), d) for d in rec.directions)
            for key in prev:
                place, d = key
                if d == "ALL":
                    assert (place, "ALL") in cur
                else:
                    assert (place, "ALL") in cur or key in cur
            prev = cur


@pytest.mark.parametrize("name", ["estar", "esharp"])
def test_place_scan_is_independent_of_the_order_of_requests(name, request):
    # the flag of a place grows order by order; asking k = 2 first and then
    # lower orders must read the same prefixes a fresh context builds
    E = request.getfixturevalue(name)
    shared = ScanContext(E, M0, ext_degree=1, k_max=2)
    for k in (2, 0, 1):
        fresh = ScanContext(E, M0, ext_degree=1, k_max=2)
        for place in shared.places:
            got, want = shared.place_scan(place, k), fresh.place_scan(place, k)
            assert (got.base_rank, got.T, got.has_top) == \
                (want.base_rank, want.T, want.has_top)
            for threshold in range(2 * k + 2):
                assert got.deficient_classification(threshold) == \
                    want.deficient_classification(threshold)


def test_scan_agrees_with_pointwise(estar, C7, rng):
    ctx = ScanContext(estar, M0, ext_degree=1, k_max=2)
    scans = ctx.scan_level(2)
    for _ in range(10):
        place = rng.choice(ctx.places)
        d = (1, rng.randrange(7))
        x = ScrollPoint(C7.field, place, d)
        assert scans[place].rank_of(x.direction) - 1 == \
            osc_dim(estar, M0, x, 2, sections=ctx.sections)


def test_extension_scan(estar):
    rep = scan_report(ScanContext(estar, M0, ext_degree=2, k_max=2), 2)
    assert rep.ctx.curve.field.order == 49
    assert rep.deficient_point_count() == 9


def test_modified_bundle_oracle_over_extension(esharp, rng):
    # base change the conditioned bundle and compare both routes at the
    # modified place with genuinely quadratic direction coordinates
    E = esharp.base_change(2)
    K = E.curve.field
    Q = Place(5, 1)
    gen = 7                                  # packed generator of F_49 over F_7
    for d in [(K.one, gen), (K.one, K.add(gen, K.one)), (K.one, K.zero)]:
        for k in (0, 1, 2):
            x = ScrollPoint(K, Q, d)
            assert osc_dim(E, M0, x, k) == osc_dim_oracle(E, M0, x, k)


def _globally_generated(E):
    # the k = 0 flag has full rank at every rational place: no base point
    ctx = ScanContext(E, M0, ext_degree=1, k_max=0)
    return all(ctx.flag(place, 1)[1] == E.rank for place in ctx.places)


def test_global_generation(estar, eflat, C7):
    assert _globally_generated(estar)
    assert not _globally_generated(eflat)
    line = BundleSpec(C7, [single(INFINITY, -2)])
    assert _globally_generated(line)


def test_scan_requires_finite_field(CQ, QQ):
    E = BundleSpec(CQ, [single(INFINITY, -3), single(INFINITY, -3)])
    with pytest.raises(Unsupported):
        scan_report(ScanContext(E, Divisor(), ext_degree=1, k_max=0), 0)


def test_osc_dim_over_rationals(CQ, QQ):
    # spot check of the characteristic-zero claims on y^2 = x^3 - x
    E = BundleSpec(CQ, [single(INFINITY, -3), single(INFINITY, -3)])
    x = ScrollPoint(QQ, Place(QQ.from_int(0), QQ.from_int(0)),
                    (QQ.one, QQ.one))
    for k in range(3):
        assert osc_dim(E, Divisor(), x, k) == osc_dim_oracle(E, Divisor(), x, k)


def test_sample_scan_over_rationals(CQ, QQ):
    # full osculation at order 1 (dim Osc^1 = kr = 2) at sample points over Q
    E = BundleSpec(CQ, [single(INFINITY, -3), single(INFINITY, -3)])
    pts = [ScrollPoint(QQ, Place(QQ.from_int(a), QQ.from_int(0)), (QQ.one, d))
           for a in (0, 1) for d in (QQ.zero, QQ.one)]
    pts.append(ScrollPoint(QQ, INFINITY, (QQ.one, QQ.one)))
    for x in pts:
        assert osc_dim(E, Divisor(), x, 1) == 2, x


def test_projection_keeps_base_locus_for_wide_systems(estar, C7, rng):
    V = h0(dual_twist(estar, M0))
    for seed in range(8):
        W, rows = project_system(V, 5, seed)
        assert W.coeffs == _combo_basis(V, rows).coeffs
        ctx = ScanContext(estar, M0, ext_degree=1, k_max=0, sections=W)
        rep = scan_report(ctx, 0, cross_check=False)
        if not rep.subfull:
            continue
        # a base point of W must come from a centre on the image; rare but legal
        assert rep.deficient_point_count() <= 2


def test_projection_dimension_validation(estar):
    V = h0(dual_twist(estar, M0))
    with pytest.raises(InputError):
        project_system(V, 6, seed=0)
    with pytest.raises(InputError):
        project_system(V, 0, seed=0)


def test_adversarial_projection_forces_inflection(estar, C7):
    x = ScrollPoint(C7.field, Place(5, 1), (1, 1))
    W = adversarial_projection(estar, M0, x, 5)
    dim_w = osc_dim(estar, M0, x, 1, sections=W)
    ctx = ScanContext(estar, M0, ext_degree=1, k_max=1, sections=W)
    rep = scan_report(ctx, 1, cross_check=False)
    assert dim_w < rep.d_k


def test_projective_point_enumeration(F7):
    pts = projective_points(F7, standard_basis(F7, 2))
    assert len(pts) == 8
    assert len(set(pts)) == 8
    pts3 = projective_points(F7, standard_basis(F7, 3))
    assert len(pts3) == 57


@pytest.mark.parametrize("name", ["estar", "esharp"])
def test_section_series_is_linear_in_the_coefficients(name, request, C7, rng):
    """Combining the Riemann-Roch rows equals expanding the summed functions,
    over F_7 and, through the lifted bases, at a sample of F_49 places."""
    E = request.getfixturevalue(name)
    V = h0(dual_twist(E, M0))
    K = C7.field
    big = C7.base_change(2)
    for _ in range(3):
        rows = [[rng.randrange(K.order) for _ in range(V.dimension)]
                for _ in range(3)]
        W = _combo_basis(V, rows)
        assert W.bases is V.bases
        Wb = W.base_change(2)
        # lifted bases of one divisor share the extension curve's memo entry
        assert all(lifted._data is basis.base_change(2)._data
                   for lifted, basis in zip(Wb.bases, W.bases))
        for vec, vec_big in zip(W.vectors, Wb.vectors):
            assert [FunctionRep(big, f.n0, f.n1, f.d0) for f in vec] == list(vec_big)
        for basis, places in [(W, C7.points()), (Wb, rng.sample(big.points(), 6))]:
            for place in places:
                for prec in (6, 3):          # the second request truncates
                    coeffs = basis.section_coeffs(place, prec)
                    for vec, comps in zip(basis.vectors, coeffs):
                        for i, (f, comp) in enumerate(zip(vec, comps)):
                            shift = basis.bases[i].D.mult(place)
                            assert comp == normalized_series(f, place, shift, prec)


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("name", ["estar", "esharp", "eflat"])
def test_lifted_sections_equal_extension_h0(name, e, request, C7):
    """A scan over F_{q^e} lifts the base-field sections; computing H^0 of the
    base-changed bundle directly over F_{q^e} gives the same basis."""
    E = request.getfixturevalue(name)
    for M in C7.pic0_representatives():
        ctx = ScanContext(E, M, ext_degree=e)
        ref = h0(dual_twist(E.base_change(e), M))
        assert ref.spec.curve is C7.base_change(e)
        assert ctx.M is M
        assert ctx.sections.spec.curve is ref.spec.curve
        assert ctx.sections.coeffs == ref.coeffs
        assert ctx.sections.vectors == ref.vectors


def _request_orders(curve, e, top):
    """Lists of (place, k) requests to orders_at over C(F_{q^e}): ascending
    k = 0..top, top first, and (at e > 1) every image place asked for top,
    last image of each orbit first, while its orbit leader has been
    expanded only for k = 0."""
    places = curve.base_change(e).points()
    ascending = [(place, k) for k in range(top + 1) for place in places]
    out = [ascending, [(place, top) for place in places] + ascending]
    if e > 1:
        orbits = frobenius_orbits(curve, e)
        out.append([(orbit[0], 0) for orbit in orbits]
                   + [(image, top) for orbit in orbits for image in orbit[:0:-1]]
                   + ascending)
    return out


def _orders_mismatches(E, M, e, k_max):
    """(order of requests, place, k) where orders_at(place, k), on a fresh
    context per order of requests, returns k or fewer orders, or differs
    from order_matrices expanded at the place itself to k_max and cut to
    the returned length."""
    direct = {}
    out = []
    for i, requests in enumerate(_request_orders(E.curve, e, k_max)):
        ctx = ScanContext(E, M, ext_degree=e, k_max=k_max)
        for place, k in requests:
            got = ctx.orders_at(place, k)
            if place not in direct:
                direct[place] = order_matrices(ctx.E, ctx.sections, place, k_max)
            if len(got) <= k or got != direct[place][:len(got)]:
                out.append((i, place, k))
    return out


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("name", ["estar", "esharp", "eflat"])
def test_orbit_shared_orders_equal_direct_expansion(name, e, request, C7):
    """Order matrices read from the first place of a Frobenius orbit equal
    those expanded at the place itself, whatever order the depths are asked
    for in (k_max = 3, so the first request at k = 0 stops short and a
    later one re-expands); at e = 3 a map by sigma^-1 in place of sigma
    would differ."""
    E = request.getfixturevalue(name)
    for M in (M0, Divisor({P31: 1, INFINITY: -1})):
        assert _orders_mismatches(E, M, e, 3) == [], M


def _count_expansions(monkeypatch):
    """(sections, place, depth) of every order_matrices call from here on."""
    calls = []

    def counted(E_spec, sections, place, k_max):
        calls.append((sections, place, k_max))
        return expand(E_spec, sections, place, k_max)

    expand = scroll.order_matrices
    monkeypatch.setattr(scroll, "order_matrices", counted)
    return calls


def test_places_are_expanded_as_deep_as_they_are_scanned(estar, C7, monkeypatch):
    """The depth rule of ScanContext.orders_at: a first request at k expands
    to exactly k and a deeper one to k_max, each place once per depth,
    orbit leaders only; lower orders read prefixes."""
    leaders = [orbit[0] for orbit in frobenius_orbits(C7, 2)]
    assert len(leaders) == 36
    calls = _count_expansions(monkeypatch)
    ctx = ScanContext(estar, M0, ext_degree=2, k_max=5)
    ctx.scan_level(2)
    assert [(place, depth) for _, place, depth in calls] == [(p, 2) for p in leaders]
    for k in range(3):
        ctx.scan_level(k)
    assert len(calls) == 36
    ctx.scan_level(3)
    assert [(place, depth) for _, place, depth in calls[36:]] == \
        [(p, 5) for p in leaders]
    calls.clear()
    ctx = ScanContext(estar, M0, ext_degree=2, k_max=5)
    ctx.scan_level(0)
    ctx.scan_level(1)
    assert [(place, depth) for _, place, depth in calls] == \
        [(p, 0) for p in leaders] + [(p, 5) for p in leaders]
    calls.clear()
    ScanContext(estar, M0, ext_degree=2, k_max=5).scan_level(4)
    assert [(place, depth) for _, place, depth in calls] == [(p, 4) for p in leaders]


@pytest.mark.parametrize("degree, m_plus_1, k_top", [(-4, 7, 3), (-5, 9, 4)])
def test_projection_expands_each_place_of_each_context_once(degree, m_plus_1, k_top,
                                                            C7, monkeypatch):
    """verify_projection scans its full context at every order up to k_top
    and each accepted draw at every order below k_m, the top one first, so
    every context expands each place once (at m + 1 = 9 the draws are
    scanned up to k = 3, past the depth of a first request at k = 0).  The
    full system's sections (dimension -2 * degree) tell its calls from
    those of the subsystems, and it is expanded to k_top."""
    E = BundleSpec(C7, [single(INFINITY, degree), single(INFINITY, degree)])
    calls = _count_expansions(monkeypatch)
    verify_projection(E, M0, m_plus_1, range(2))
    expanded = Counter((id(sections), place) for sections, place, _ in calls)
    assert set(expanded.values()) == {1}
    full = [(sections, place, depth) for sections, place, depth in calls
            if sections.dimension == -2 * degree]
    assert len({id(sections) for sections, _, _ in full}) == 1
    assert sorted(depth for _, _, depth in full) == [k_top] * len(C7.points())
    assert {place for _, place, _ in full} == set(C7.points())


def test_scan_context_rejects_sections_on_another_curve(estar):
    lifted = h0(dual_twist(estar.base_change(2), M0))
    with pytest.raises(InputError):
        ScanContext(estar, M0, ext_degree=2, sections=lifted)


def _witness_mismatches(E, M, k, e=1):
    """Places of C(F_{q^e}) where witness_sets(E, M, k, e) differs from the
    witness set built at the place itself."""
    big = E.base_change(e)
    places = big.curve.points()
    shared = witness_sets(E, M, k, e)
    assert list(shared) == places
    out = []
    for place in places:
        direct = subsheaf_witnesses(big, M, place, k)
        got = shared[place]
        if (got.place, got.k, got.dimension, got.span.rows, got.span.pivot_cols) != \
                (place, k, direct.dimension, direct.span.rows, direct.span.pivot_cols):
            out.append(place)
    return out


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("name", ["estar", "esharp", "eflat"])
def test_orbit_shared_witness_sets_equal_direct_builds(name, e, request):
    """Witness sets read as Frobenius images equal those built at the place
    itself, echelon rows included, at every place of C(F_{7^e})."""
    E = request.getfixturevalue(name)
    for M in (M0, Divisor({P31: 1, INFINITY: -1})):
        for k in range(3):
            assert _witness_mismatches(E, M, k, e) == [], (M, k)


def test_no_orbits_are_formed_over_an_extension_base_field(F7):
    """On a curve over F_49 itself (an instance whose field is an extension,
    scanned at --ext 1) a twist (T) - (O) or a bundle factor may sit at a
    point that a -> a^7 moves, so the data at sigma(p) is not the image of
    the data at p: every witness set and order matrix must equal the one
    built at its place."""
    C49 = Curve(extension_of(F7, 2), 0, 2)
    moved = [T for T in C49.points() if C49.frobenius(T) != T]
    for E in (BundleSpec(C49, [single(INFINITY, -2), single(INFINITY, -2)]),
              BundleSpec(C49, [single(INFINITY, -1),
                               Divisor({INFINITY: -1, moved[0]: -1})])):
        for M in [M0] + [Divisor({T: 1, INFINITY: -1}) for T in moved[1:3]]:
            for k in range(3):
                assert _witness_mismatches(E, M, k) == [], (E.factors, M, k)
            assert _orders_mismatches(E, M, 1, 3) == [], (E.factors, M)


def test_witness_orbit_by_inverse_frobenius_is_caught(esharp, monkeypatch):
    """Stepping each orbit by sigma^-1 (= sigma^2 over F_343) while the rows
    are still mapped by sigma puts wrong witness sets at most places."""
    sigma = Curve.frobenius
    monkeypatch.setattr(Curve, "frobenius",
                        lambda curve, place: sigma(curve, sigma(curve, place)))
    assert len(_witness_mismatches(esharp, M0, 2, 3)) > 100


def _second_pass(ctx, k):
    """The subfull locus as a classification of its own at kr + 1."""
    return list(scroll._classify(ctx, ctx.scan_level(k), k * ctx.E.rank + 1))


def _records(recs):
    return [(rec.place, rec.mode, rec.basis, rec.directions, rec.fiber_size)
            for rec in recs]


def test_subfull_locus_is_read_off_d_k(scan_bundles, C7):
    """d_k <= kr, and scan_report's single classification gives the subfull
    locus a second pass at kr + 1 gives, on every twist class at e = 1, 2
    and k = 0..4: the relative locus when d_k = kr, every fibre whole when
    d_k < kr (k above n // r)."""
    seen = Counter()
    for E in scan_bundles:
        for e in (1, 2):
            for M in C7.pic0_representatives():
                ctx = ScanContext(E, M, ext_degree=e, k_max=4)
                for k in (4, 0, 1, 2, 3):
                    rep = scan_report(ctx, k, cross_check=False)
                    assert rep.d_k <= k * E.rank
                    seen[rep.d_k == k * E.rank] += 1
                    assert _records(rep.subfull) == _records(_second_pass(ctx, k)), \
                        (E.to_json(), M, e, k)
    assert seen[True] > 0 and seen[False] > 0


def _kernel_classification(scan, threshold):
    """deficient_classification by the left kernel of T at every fibre whose
    base rank is one below the threshold, with has_top read off T."""
    K = scan.field
    if scan.base_rank >= threshold:
        return "none", []
    if scan.base_rank + 1 < threshold or all(c == K.zero for row in scan.T for c in row):
        return "all", []
    basis = mat_rank_kernel(K, list(zip(*scan.T)), len(scan.T))[1]
    if not basis:
        return "none", []
    return "subspace", [tuple(v) for v in basis]


def test_rank_of_T_classification_equals_the_kernel_route(estar, esharp, eflat, C7,
                                                         monkeypatch):
    """At every place, at the thresholds d_k + 1 and kr + 1 for k = 0..2,
    e = 1, 2 and every twist class, deficient_classification equals the
    kernel route, rank T is T's rank, and a kernel is computed exactly
    where the base rank is one below the threshold and 0 < rank T < r."""
    kernels = []
    kernel = scroll.mat_rank_kernel

    def counted(K, rows, ncols):
        kernels.append(ncols)
        return kernel(K, rows, ncols)

    monkeypatch.setattr(scroll, "mat_rank_kernel", counted)
    modes = Counter()
    for E, e, M in product((estar, esharp, eflat), (1, 2), C7.pic0_representatives()):
        ctx = ScanContext(E, M, ext_degree=e, k_max=2)
        for k in (2, 0, 1):
            scans = ctx.scan_level(k)
            d_k = max(scan.max_rank() for scan in scans.values()) - 1
            for threshold in {d_k + 1, k * E.rank + 1}:
                for place, scan in scans.items():
                    assert scan.T_rank == _rank(scan.field, scan.T), place
                    assert scan.has_top == (scan.T_rank > 0)
                    del kernels[:]
                    got = scan.deficient_classification(threshold)
                    assert got == _kernel_classification(scan, threshold), (place, k)
                    modes[got[0]] += 1
                    assert bool(kernels) == (scan.base_rank + 1 == threshold
                                             and 0 < scan.T_rank < E.rank), (place, k)
    assert modes["none"] and modes["all"] and modes["subspace"], modes


def _flag_data(K, orders, k, ncols):
    """(echelon rows, pivots, base rank, T, rank T) at order k of the order
    matrices B_0.., formed as ScanContext.flag and place_scan form them."""
    acc = EchelonAccumulator(K, ncols)
    for B in orders[:k]:
        for row in B:
            acc.insert(row)
    T = [acc.residue(row) for row in orders[k]]
    return acc.rows, acc.pivot_cols, acc.rank, T, len(rref(K, T, ncols)[1])


def test_unit_frame_gives_the_flags_of_the_full_expansions(estar, esharp, eflat, C7):
    """order_matrices (the unit frame at an unconditioned place) and the
    order matrices of alpha_series (full expansions of 1/h) give identical
    flag echelon rows, pivots, base ranks, T and rank T at k = 0..3: for
    estar, esharp and eflat, every twist class, the full system and a
    random subsystem (_combo_basis), at every place of C7 and C7 over F_49
    and at eight drawn places over F_343.  The unit frame is not the full
    expansion itself at most of these places, so reading the units' values
    wrong (as 1, say) shows in T."""
    rng = random.Random(24)
    differ = 0
    for E, M in product((estar, esharp, eflat), C7.pic0_representatives()):
        full = h0(dual_twist(E, M))
        systems = [full, project_system(full, full.dimension - 1, 5)[0]]
        for e, sections in product((1, 2, 3), systems):
            big, lifted = E.base_change(e), sections.base_change(e)
            K = big.curve.field
            places = big.curve.points()
            if e == 3:
                places = rng.sample(places, 8)
            for place in places:
                unit = order_matrices(big, lifted, place, 3)
                alphas = alpha_series(big, lifted, place, 3)
                old = [[[alpha[i][j] for alpha in alphas] for i in range(E.rank)]
                       for j in range(4)]
                differ += unit != old
                for k in range(4):
                    assert _flag_data(K, unit, k, lifted.dimension) == \
                        _flag_data(K, old, k, lifted.dimension), (E, M, e, place, k)
    assert differ


@pytest.mark.parametrize("e", [2, 3])
def test_frobenius_image_scans_equal_direct_scans(e, estar, esharp, C7, monkeypatch):
    """scan_level runs place_scan once per Frobenius orbit, at its first
    place, and the scans it maps to the rest of the orbit equal place_scan
    run at each of those places on a fresh context; the scans come back in
    place order."""
    calls = []
    scan = ScanContext.place_scan

    def counted(ctx, place, k):
        calls.append(place)
        return scan(ctx, place, k)

    monkeypatch.setattr(ScanContext, "place_scan", counted)
    leaders = [orbit[0] for orbit in frobenius_orbits(C7, e)]
    for E, M in [(estar, M0), (esharp, M0), (estar, Divisor({P31: 1, INFINITY: -1}))]:
        ctx = ScanContext(E, M, ext_degree=e, k_max=2)
        fresh = ScanContext(E, M, ext_degree=e, k_max=2)
        for k in (1, 0, 2):
            del calls[:]
            scans = ctx.scan_level(k)
            assert calls == leaders and list(scans) == ctx.places, (E, M, k)
            for place, got in scans.items():
                want = scan(fresh, place, k)
                assert (got.place, got.base_rank, got.T, got.T_rank) == \
                    (want.place, want.base_rank, want.T, want.T_rank), (E, M, k, place)
