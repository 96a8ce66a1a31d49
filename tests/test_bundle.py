from math import comb

import pytest

from scrollinflect.bundle import (BundleSpec, Modification, chi_h1, dual_twist,
                                  elementary_transform, h0, normalized_series, wedge)
from scrollinflect.cli import _bundle
from scrollinflect.curve import Curve, Divisor, INFINITY, Place, single
from scrollinflect.errors import InputError, Unsupported
from scrollinflect.linalg import mat_rank_kernel

P31 = Place(3, 1)
Q51 = Place(5, 1)


def test_degree_and_rank_bookkeeping(estar, esharp):
    assert (estar.rank, estar.degree) == (2, -6)
    assert (esharp.rank, esharp.degree) == (2, -5)


def test_validation_rejects_bad_modifications(C7):
    with pytest.raises(InputError):
        BundleSpec(C7, [single(INFINITY, -1)], [Modification.simple(P31, (0,))])
    record = {"factors": [[{"point": "O", "mult": -1}], [{"point": "O", "mult": -2}]],
              "modifications": [{"point": ["3", "1"], "codirection": ["1", "0"]},
                                {"point": ["3", "1"], "codirection": ["0", "1"]}]}
    with pytest.raises(InputError, match="pairwise distinct"):
        _bundle(C7, record)


def test_dual_twist_of_decomposable(C7):
    E = BundleSpec(C7, [single(INFINITY, -3), Divisor({INFINITY: -2, P31: -1})])
    M = Divisor()
    D = dual_twist(E, M)
    assert [f.degree for f in D.factors] == [3, 3]
    assert D.factors[0] == single(INFINITY, 3)


def test_wedge_of_rank2_is_determinant(estar):
    W = wedge(estar, 2)
    assert W.rank == 1 and W.degree == -6


def test_wedge_degree_rank_exact(C7):
    E = BundleSpec(C7, [single(INFINITY, -1), single(INFINITY, -2),
                        single(P31, -3)])
    for n in (1, 2, 3):
        W = wedge(E, n)
        assert W.rank == comb(3, n)
        degs = sorted(f.degree for f in E.factors)
        assert W.degree == sum(sum(c) for c in _subsets(degs, n))


def _subsets(vals, n):
    from itertools import combinations
    return combinations(vals, n)


def test_wedge_rejects_modified(esharp):
    with pytest.raises(Unsupported):
        wedge(esharp, 2)


def test_h0_examples(C7, estar, eflat):
    assert h0(dual_twist(eflat, Divisor())).dimension == 6
    assert h0(dual_twist(estar, Divisor())).dimension == 6
    conditioned = BundleSpec(C7, [single(INFINITY, 3), single(INFINITY, 3)],
                             [Modification.simple(P31, (1, 6))])
    assert h0(conditioned).dimension == 5


def test_chi_h1_examples(C7):
    pos = BundleSpec(C7, [single(INFINITY, 3), single(INFINITY, 3)])
    assert chi_h1(pos) == (6, 0)
    nonprincipal = BundleSpec(C7, [Divisor({INFINITY: 1, P31: -1})])
    assert chi_h1(nonprincipal) == (0, 0)
    assert h0(nonprincipal).dimension == 0
    trivial = BundleSpec(C7, [Divisor()])
    assert chi_h1(trivial) == (0, 1)
    assert h0(trivial).dimension == 1


def test_elementary_transform_of_estar_at_infinity(estar):
    Et = elementary_transform(estar, INFINITY, (1, 0))
    assert Et.degree == estar.degree + 1
    assert Et.rank == 2
    # its twists feed the pole-counting route; sanity-check one Euler number
    assert chi_h1(Et, single(INFINITY, 3))[0] == Et.degree + 6
    # the transform gains exactly the section with a simple extra pole at the
    # place in the chosen direction
    twist = single(INFINITY, 2)
    assert h0(estar, twist).dimension == 0
    gained = h0(Et, twist)
    assert gained.dimension == 1
    assert gained.vectors[0][1].is_zero()     # pole points along e_1


def test_elementary_transform_degree_and_h0_steps(C7, estar, rng):
    from conftest import random_bundle, random_direction
    for _ in range(12):
        E = random_bundle(C7, rng, ranks=(2,), allow_mod=True, deg_range=(-4, -1))
        place = rng.choice(C7.points())
        v = random_direction(C7.field, 2, rng)
        try:
            Et = elementary_transform(E, place, v)
        except Unsupported:
            continue
        assert Et.degree == E.degree + 1
        twist = single(INFINITY, 4)
        step = h0(Et, twist).dimension - h0(E, twist).dimension
        assert step in (0, 1)


def test_h0_invariant_under_linear_equivalence(C7, rng):
    # replacing a factor by a linearly equivalent divisor preserves dimensions
    from conftest import random_divisor
    for _ in range(50):
        D = random_divisor(C7, rng, rng.randint(-4, 2))
        T, shift = C7.divisor_reduce(D)
        equivalent = single(T).add(single(INFINITY, shift))
        E1 = BundleSpec(C7, [D, single(INFINITY, -2)])
        E2 = BundleSpec(C7, [equivalent, single(INFINITY, -2)])
        twist = single(INFINITY, 3)
        assert h0(E1, twist).dimension == h0(E2, twist).dimension


def test_serre_duality_count(C7, rng):
    # at genus 1 the canonical class is trivial: h^1(E) = h^0(E^*)
    from conftest import random_bundle
    for _ in range(30):
        E = random_bundle(C7, rng, ranks=(2, 3), allow_mod=False,
                          deg_range=(-4, 3))
        h1 = chi_h1(E)[1]
        dual = dual_twist(E, Divisor())
        assert h1 == h0(dual).dimension


def test_section_basis_independence_certificate(estar):
    # the order-0 and order-1 coefficients at the rational places, stacked
    # per section, have full rank: the sections are linearly independent
    V = h0(dual_twist(estar, Divisor()))
    curve = V.spec.curve
    rows = [[] for _ in V.coeffs]
    for place in curve.points():
        for row, comps in zip(rows, V.section_coeffs(place, 2)):
            for comp in comps:
                row.extend(comp)
    rank = mat_rank_kernel(curve.field, rows, len(rows[0]))[0]
    assert rank == V.dimension


def test_bundle_json_roundtrip(C7, esharp):
    again = _bundle(C7, esharp.to_json())
    assert again.factors == esharp.factors
    assert [m.place for m in again.modifications] == \
        [m.place for m in esharp.modifications]


@pytest.mark.parametrize("name, M", [("estar", Divisor()), ("esharp", Divisor()),
                                     ("esharp", Divisor({P31: 1, INFINITY: -1})),
                                     ("eflat", Divisor({Q51: 1, INFINITY: -1}))],
                         ids=["estar-O", "esharp-O", "esharp-affine", "eflat-affine"])
def test_ambient_tables_equal_normalized_series(name, M, request, C7, rng):
    """SectionBasis.table, the ambient split bundle's rows read from the
    curve's Riemann-Roch memo, equals normalized_series of each basis
    function, at every C7 place and sampled F_49 places, for increasing and
    decreasing precision requests; the kept side grows and truncates one
    memo over all requests, the fresh side is built per request over a
    separate curve, so it reads no memo the kept side warmed."""
    E = request.getfixturevalue(name)
    sample = rng.sample(C7.base_change(2).points(), 8)

    def sections_over(curve, e):
        spec = BundleSpec(curve, E.factors, E.modifications)
        return h0(dual_twist(spec, M)).base_change(e)

    for order in ((1, 2, 4, 7), (7, 4, 2, 1)):
        kept_curve = Curve(C7.field, C7.a4, C7.a6)
        for e, places in ((1, C7.points()), (2, sample)):
            kept = sections_over(kept_curve, e)
            for prec in order:
                fresh = sections_over(Curve(C7.field, C7.a4, C7.a6), e)
                pairs = [(slot, f) for slot, basis in enumerate(fresh.bases)
                         for f in basis]
                for place in places:
                    want = [normalized_series(f, place,
                                              fresh.bases[slot].D.mult(place), prec)
                            for slot, f in pairs]
                    for sections in (kept, fresh):
                        assert [row[:prec] for row in sections.table(place, prec)] == want
