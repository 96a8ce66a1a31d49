from itertools import product

import pytest

from scrollinflect.bundle import normalized_series
from scrollinflect.curve import Curve, Divisor, INFINITY, Place, single
from scrollinflect.errors import DomainError, InputError, PrecisionError
from scrollinflect.fields import PrimeField
from scrollinflect.funcfield import (FunctionRep, principal_function, rr_basis,
                                     vertical_line)


def brute_point_count(p, a4, a6):
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, []).append(y)
    count = 1
    for x in range(p):
        count += len(squares.get((x ** 3 + a4 * x + a6) % p, []))
    return count


def test_curve_point_count_matches_enumeration_oracle(C7, C11):
    assert C7.group_order == brute_point_count(7, 0, 2) == 9
    assert C11.group_order == brute_point_count(11, 0, 4) == 12


def test_singular_curve_rejected(F7):
    with pytest.raises(InputError):
        Curve(F7, 0, 0)


def test_char_2_3_rejected():
    with pytest.raises(InputError):
        Curve(PrimeField(3), 1, 1)


def test_rational_curve_has_no_enumeration(CQ):
    with pytest.raises(InputError):
        CQ.points()


def test_group_law_hand_example(C7):
    assert C7.point_add(Place(3, 1), Place(5, 1)) == Place(6, 6)
    assert C7.point_add(Place(3, 1), INFINITY) == Place(3, 1)
    assert C7.point_add(Place(3, 1), Place(3, 6)) == INFINITY


def test_group_law_exhaustive_axioms(C7):
    pts = C7.points()
    for P in pts:
        assert C7.point_add(P, INFINITY) == P
        assert C7.point_add(P, C7.point_neg(P)) == INFINITY
    for P, Q, R in product(pts, repeat=3):
        assert C7.point_add(C7.point_add(P, Q), R) == \
            C7.point_add(P, C7.point_add(Q, R))


def test_divisor_reduce_examples(C7):
    D = Divisor({Place(3, 1): 1, Place(5, 1): 1, INFINITY: -2})
    T, shift = C7.divisor_reduce(D)
    assert T == Place(6, 6) and shift == -1
    T, shift = C7.divisor_reduce(single(INFINITY, 3))
    assert T == INFINITY and shift == 2
    assert C7.is_principal(Divisor())


def test_divisor_reduce_respects_group_law(C7):
    for P in C7.points():
        for Q in C7.points():
            D = single(P).add(single(Q)).add(single(INFINITY, -1))
            T, _ = C7.divisor_reduce(D)
            assert T == C7.point_add(P, Q)


def test_principal_function_vertical_line(C7):
    D = Divisor({Place(3, 1): 1, Place(3, 6): 1, INFINITY: -2})
    f = principal_function(C7, D)
    # must agree with x - 3 up to scalar
    v = vertical_line(C7, Place(3, 1))
    ratio = f.div(v)
    assert ratio.n1 == [] and len(ratio.n0) == 1 and ratio.d0 == [1]


def test_principal_function_torsion_triple(C7):
    # (3,1) is 3-torsion, so 3(P) - 3(O) is principal
    D = Divisor({Place(3, 1): 3, INFINITY: -3})
    f = principal_function(C7, D)
    assert f.ord_at(Place(3, 1)) == 3
    assert f.ord_at(INFINITY) == -3


def test_principal_function_rejects_nonprincipal(C7):
    with pytest.raises(DomainError):
        principal_function(C7, Divisor({Place(3, 1): 1, INFINITY: -1}))


def test_principal_function_chord_line(C7):
    # (P) + (Q) + (-(P+Q)) - 3(O) is the divisor of the chord through P and Q
    P, Q = Place(3, 1), Place(5, 1)
    S = C7.point_neg(C7.point_add(P, Q))
    D = Divisor({P: 1, Q: 1, S: 1, INFINITY: -3})
    f = principal_function(C7, D)
    assert f.ord_at(P) == 1 and f.ord_at(Q) == 1 and f.ord_at(S) == 1
    assert f.ord_at(INFINITY) == -3
    assert f.n1 != []          # a genuine chord involves y


def test_rr_classical_bases(C7):
    names = [[f.to_str() for f in rr_basis(C7, single(INFINITY, m))]
             for m in (1, 2, 3)]
    assert names[0] == ["1"]
    assert names[1] == ["1", "x"]
    assert names[2] == ["1", "x", "y"]
    assert len(rr_basis(C7, single(Place(3, 1)))) == 1
    assert rr_basis(C7, Divisor({INFINITY: 1, Place(3, 1): -1})) == []


def rr_expected_dim(curve, D):
    deg = D.degree
    if deg < 0:
        return 0
    if deg == 0:
        return 1 if curve.is_principal(D) else 0
    return deg


def test_rr_dimensions_randomized(C7, C11, rng):
    from conftest import random_divisor
    for curve in (C7, C11):
        for _ in range(40):
            D = random_divisor(curve, rng, rng.randint(-5, 8))
            basis = rr_basis(curve, D)
            assert len(basis) == rr_expected_dim(curve, D)


def test_rr_basis_respects_divisor_bound(C7, rng):
    from conftest import random_divisor
    for _ in range(10):
        D = random_divisor(C7, rng, rng.randint(1, 6))
        for f in rr_basis(C7, D):
            for place, mult in D.items_sorted():
                assert f.ord_at(place) + mult >= 0


def test_local_expansion_valuations(C7):
    x = FunctionRep.coordinate_x(C7)
    y = FunctionRep.coordinate_y(C7)
    assert x.local_expansion(INFINITY, 2).valuation() == -2
    assert y.local_expansion(INFINITY, 2).valuation() == -3
    v = vertical_line(C7, Place(3, 1))
    assert v.local_expansion(Place(3, 1), 3).valuation() == 1
    # ramified place: (6, 0) is not on this curve; use a 2-torsion point of C11
    # y^2 = x^3 + 4 mod 11 has (6, 0): 216 + 4 = 220 = 0 mod 11
    C11 = Curve(PrimeField(11), 0, 4)
    w = vertical_line(C11, Place(6, 0))
    assert w.local_expansion(Place(6, 0), 4).valuation() == 2


def test_local_expansion_precision_error(C7):
    x = FunctionRep.coordinate_x(C7)
    with pytest.raises(PrecisionError):
        x.local_expansion(INFINITY, -2)      # window ends at the valuation


def test_expansion_vanishing_past_the_precision_raises(C7):
    # vanishes to order 4 at O: no coefficient is visible modulo t^3
    B = C7.base_change(2)
    f = FunctionRep(B, [5, 6, 1], [4], [0, 4, 4, 3, 1])
    assert f.local_expansion(INFINITY, 5).valuation() == 4
    with pytest.raises(PrecisionError):
        f.local_expansion(INFINITY, 3)


@pytest.mark.parametrize("e", [1, 2, 3])
def test_frobenius_is_the_pth_power(C7, e):
    big = C7.base_change(e)
    K = big.field
    assert all(K.frobenius(a) == K.pow(a, 7) for a in K.elements())
    for place in big.points():
        image = big.frobenius(place)
        assert big.contains(image)
        orbit = [place]
        while image != place:
            orbit.append(image)
            image = big.frobenius(image)
        assert len(orbit) in (1, e)
        assert (len(orbit) == 1) == (place in C7.points())


def test_factored_rows_equal_direct_expansions(C7, rng):
    """RRBasis.normalized_rows (1/h expanded once, each monomial from the
    curve's memo) equals expanding every product b/h by itself, for degree-0
    (principal and not), low and high degree, affine support included."""
    from conftest import random_divisor
    P, Q = Place(3, 1), Place(5, 1)
    divisors = [Divisor(), Divisor({P: 1, C7.point_neg(P): 1, INFINITY: -2}),
                Divisor({P: 1, INFINITY: -1}), single(P), Divisor({P: 2, Q: -1}),
                single(INFINITY, 5), Divisor({P: -2, Q: 3, INFINITY: 4})]
    divisors += [random_divisor(C7, rng, rng.randint(0, 6)) for _ in range(6)]
    big = C7.base_change(2)
    for D in divisors:
        basis = rr_basis(C7, D)
        assert basis.D is D
        for b, places in [(basis, C7.points()),
                          (basis.base_change(2), rng.sample(big.points(), 6))]:
            for place in places:
                for prec in (5, 1, 3):
                    want = [normalized_series(f, place, D.mult(place), prec)
                            for f in b]
                    assert b.normalized_rows(place, prec) == want


def test_expansion_multiplicativity_random(C7, rng):
    from conftest import random_divisor
    pts = C7.points()
    pool = []
    for _ in range(12):
        D = random_divisor(C7, rng, rng.randint(1, 4))
        pool.extend(rr_basis(C7, D))
    for _ in range(100):
        f, g = rng.choice(pool), rng.choice(pool)
        if f.is_zero() or g.is_zero():
            continue
        place = rng.choice(pts)
        ef = f.local_expansion(place, 4)
        eg = g.local_expansion(place, 4)
        efg = f.mul(g).local_expansion(place, 4)
        assert efg.agrees_with(ef.mul(eg))


def test_curve_base_change_preserves_points(C7):
    big = C7.base_change(2)
    assert big.field.order == 49
    small_pts = {(p.x, p.y) for p in C7.points()}
    big_pts = {(p.x, p.y) for p in big.points()}
    assert small_pts <= big_pts
    assert len(big_pts) == 63


def test_curve_base_change_is_built_once(C7):
    assert C7.base_change(1) is C7
    assert C7.base_change(2) is C7.base_change(2)
    assert C7.base_change(3) is C7.base_change(3)
    assert C7.base_change(3) is not C7.base_change(2)


def test_place_divisor_serialization_roundtrip(C7):
    D = Divisor({Place(3, 1): 2, INFINITY: -2, Place(5, 6): 1})
    again = C7.divisor_from_json(C7.divisor_to_json(D))
    assert again == D
    assert C7.place_from_json("O") == INFINITY


def test_rational_curve_group_law(CQ, QQ):
    # 2-torsion points of y^2 = x^3 - x
    P = Place(QQ.from_int(0), QQ.from_int(0))
    Q = Place(QQ.from_int(1), QQ.from_int(0))
    R = CQ.point_add(P, Q)
    assert R == Place(QQ.from_int(-1), QQ.from_int(0))
    assert CQ.point_add(R, R) == INFINITY
