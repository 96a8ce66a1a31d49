import gc
import random
import weakref
from itertools import product

import pytest

import references
from references import chord_line, div, vertical_line
from scrollinflect import funcfield
from scrollinflect.bundle import normalized_series
from scrollinflect.cli import _divisor, _place
from scrollinflect.curve import Curve, Divisor, INFINITY, Place, single
from scrollinflect.errors import DomainError, InputError, InvariantViolation
from scrollinflect.fields import PrimeField, extension_of
from scrollinflect.funcfield import (FunctionRep, pmul,
                                     principal_function, rr_basis)
from scrollinflect.series import LaurentSeries


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
    ratio = div(f, v)
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
    assert len(rr_basis(C7, Divisor({INFINITY: 1, Place(3, 1): -1}))) == 0


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
    x = FunctionRep(C7, [0, 1], [], [1])
    y = FunctionRep(C7, [], [1], [1])
    assert x.local_expansion(INFINITY, 2).val == -2
    assert y.local_expansion(INFINITY, 2).val == -3
    v = vertical_line(C7, Place(3, 1))
    assert v.local_expansion(Place(3, 1), 3).val == 1
    # ramified place: (6, 0) is not on this curve; use a 2-torsion point of C11
    # y^2 = x^3 + 4 mod 11 has (6, 0): 216 + 4 = 220 = 0 mod 11
    C11 = Curve(PrimeField(11), 0, 4)
    w = vertical_line(C11, Place(6, 0))
    assert w.local_expansion(Place(6, 0), 4).val == 2


def test_local_expansion_precision_error(C7):
    x = FunctionRep(C7, [0, 1], [], [1])
    got = x.local_expansion(INFINITY, -2)    # window ends at the valuation
    assert (got.val, got.coeffs, got.prec) == (-2, [], -2)


def test_expansion_vanishing_past_the_precision_raises(C7):
    # vanishes to order 4 at O: no coefficient is visible modulo t^3; the
    # zero function is the same empty window at every place
    B = C7.base_change(2)
    f = FunctionRep(B, [5, 6, 1], [4], [0, 4, 4, 3, 1])
    assert f.local_expansion(INFINITY, 5).val == 4
    for g, place in [(f, INFINITY), (FunctionRep.zero(B), INFINITY),
                     (FunctionRep.zero(B), Place(3, 1))]:
        got = g.local_expansion(place, 3)
        assert (got.val, got.coeffs, got.prec) == (3, [], 3), (g, place)


# An expansion at one oversized precision, built straight from param_series
# by Horner's rule over series (references.peval_series), is the reference
# for ord_at and for local_expansion at every precision.
REFERENCE_PREC = 32


def reference_expansion(f, place):
    K = f.curve.field
    horner = references.peval_series
    xs, ys = f.curve.param_series(place, REFERENCE_PREC)
    num = horner(K, f.n0, xs)
    if f.n1:
        num = num.add(horner(K, f.n1, xs).mul(ys))
    ref = num.mul(horner(K, f.d0, xs).invert())
    # a nonempty window is the exact order; the one-pass test reads t^0..t^11
    assert ref.coeffs and ref.prec >= 12
    return ref


def _power(K, root, n):
    out = [K.one]
    for _ in range(n):
        out = pmul(K, out, root)
    return out


def order_test_functions(curve, place, affine, rng, n_random=4):
    """Functions whose order at the place is hard to read off a short
    expansion: random ones, numerators with common (x - x0) factors,
    squared chord lines through affine points (zero at P, not at -P), and
    denominators with a double root at x0."""
    K = curve.field

    def elt():
        return rng.randrange(K.order) if K.is_finite else K.from_int(rng.randint(-3, 3))

    def poly(deg):
        return [elt() for _ in range(deg + 1)]

    out = [FunctionRep(curve, poly(rng.randint(0, 3)), poly(rng.randint(-1, 2)),
                       poly(rng.randint(0, 3)) + [K.one])
           for _ in range(n_random)]
    if not place.is_infinity:
        root = [K.neg(place.x), K.one]
        root2 = FunctionRep(curve, _power(K, root, 2), [], [K.one])
        for a, b in [(1, 0), (1, 1), (2, 1), (0, 2)]:
            out.append(FunctionRep(curve, pmul(K, _power(K, root, a), poly(1)),
                                   pmul(K, _power(K, root, b), poly(1)),
                                   poly(1) + [K.one]))
        chords = [Q for Q in affine if Q.x != place.x][:2]
        if place.y != K.zero:
            chords.append(place)             # the tangent line
        for Q in chords:
            square = chord_line(curve, place, Q)
            square = square.mul(square)
            out += [square, div(square, root2)]
        double = pmul(K, _power(K, root, 2), poly(1) + [K.one])
        out += [FunctionRep(curve, poly(2), poly(1), double),
                FunctionRep(curve, root, [K.one], double)]
    return [f for f in out if not f.is_zero()]


def order_test_places(C7, C11, CQ, QQ):
    """(curve, place, affine points of the curve) for every place of C7, C11
    and C7 over F_49, and the rational 2-torsion of CQ."""
    out = []
    for curve in (C7, C11, C7.base_change(2)):
        affine = curve.points()[1:]
        out += [(curve, p, affine) for p in curve.points()]
    rationals = [Place(QQ.from_int(x), QQ.from_int(0)) for x in (-1, 0, 1)]
    return out + [(CQ, p, rationals) for p in rationals]


def test_param_series_lies_on_the_curve(C7, C11, CQ, QQ):
    """At every place of order_test_places and every precision 1..24, x(t)
    and y(t) satisfy the curve equation and the uniformiser identity
    (t = x - x0, t = y or t = x/y) modulo their precision, and have
    valuations -2 and -3 at O."""
    kinds = set()
    for curve, place, _ in order_test_places(C7, C11, CQ, QQ):
        K = curve.field
        kind = curve.uniformiser_kind(place)
        kinds.add(kind)
        for prec in range(1, 25):
            xs, ys = curve.param_series(place, prec)
            t = LaurentSeries.uniformiser(K, prec + 8)
            rhs = xs.mul(xs).mul(xs).add(xs.scalar_mul(curve.a4)) \
                .add(LaurentSeries.constant(K, curve.a6, prec))
            eq = ys.mul(ys).sub(rhs)
            # at O the t^-6 .. t^-3 terms cancel too, so the window is not vacuous
            assert not eq.coeffs and eq.prec >= prec - 4, (place, prec)
            if kind == "generic":
                ident = xs.sub(LaurentSeries.constant(K, place.x, prec)).sub(t)
            elif kind == "ramified":
                ident = ys.sub(t)
            else:
                ident = xs.sub(t.mul(ys))
                assert (xs.val, ys.val) == (-2, -3), prec
            assert not ident.coeffs and ident.prec == prec, (place, prec)
    assert kinds == {"generic", "ramified", "infinity"}


def test_ord_at_is_exact(C7, C11, CQ, QQ):
    """ord_at, read off the polynomials by the norm argument, equals the
    valuation of the oversized reference expansion at every place of C7,
    C11 (with 2-torsion) and C7 over F_49, and at the 2-torsion of CQ."""
    rng = random.Random(7)
    pairs = 0
    for curve, place, affine in order_test_places(C7, C11, CQ, QQ):
        for f in order_test_functions(curve, place, affine, rng):
            assert f.ord_at(place) == reference_expansion(f, place).val, (f, place)
            pairs += 1
    assert pairs > 1000


def test_local_expansion_is_one_pass(C7, C11, CQ, QQ, monkeypatch):
    """At every precision from -4 to 12, local_expansion equals the
    truncated reference, is the empty window exactly when the order
    reaches the precision, and calls param_series exactly once."""
    rng = random.Random(11)
    calls = []
    param_series = Curve.param_series

    def counted(curve, place, prec):
        calls.append(prec)
        return param_series(curve, place, prec)

    monkeypatch.setattr(Curve, "param_series", counted)
    expansions = empty = 0
    for curve, place, affine in order_test_places(C7, C11, CQ, QQ)[::3]:
        for f in order_test_functions(curve, place, affine, rng, n_random=2):
            ref = reference_expansion(f, place)
            for precision in range(-4, 13):
                del calls[:]
                expansions += 1
                if ref.val >= precision:
                    got = f.local_expansion(place, precision)
                    assert (got.val, got.coeffs, got.prec) == \
                        (precision, [], precision), (f, place, precision)
                    empty += 1
                else:
                    got = f.local_expansion(place, precision)
                    want = ref.truncate(precision)
                    assert (got.val, got.coeffs, got.prec) == \
                        (want.val, want.coeffs, precision), (f, place, precision)
                assert len(calls) == 1
    assert 0 < empty < expansions


def test_local_expansion_checks_the_series_against_the_order(F7, monkeypatch):
    """A param_series that comes out short, at an ordinary place, at O or at
    a ramified place, or out of step with its uniformiser (x(t) = x0 + t
    where t = x - x0, x(t) = t y(t) where t = x/y, y(t) = t where t = y),
    is a fault of the expansion, not a reason to retry.  Each call checks the series it is
    given, also where the place's table is already built.  So is an order
    that the leading coefficients contradict."""
    C7, C_ram = Curve(F7, 0, 2), Curve(F7, F7.neg(1), 0)     # y^2 = x^3 - x
    P, R = Place(3, 1), Place(0, 0)
    cases = [(C7, P, vertical_line(C7, P), [1]), (C7, INFINITY, vertical_line(C7, P), [1]),
             (C_ram, R, vertical_line(C_ram, R), [6])]      # x = -t^2 + ...
    for curve, place, f, lead in cases:
        assert f.local_expansion(place, 4).coeffs[:1] == lead
        assert place in curve._monomial_tables
    param_series = Curve.param_series

    def short(curve, place, prec):
        xs, ys = param_series(curve, place, prec)
        return xs.truncate(prec - 1), ys.truncate(prec - 1)

    def shifted(curve, place, prec):
        xs, ys = param_series(curve, place, prec)
        return xs.add(LaurentSeries.constant(curve.field, 1, xs.prec)), ys

    def scaled(curve, place, prec):
        xs, ys = param_series(curve, place, prec)
        return xs, ys.scalar_mul(curve.field.from_int(2))

    # where t = y the uniformiser fixes y(t) only, so a shifted x(t) there
    # would need the curve equation to show; where t = x - x0 it leaves y(t)
    faults = [(short, case) for case in cases] + [(shifted, case) for case in cases[:2]]
    faults += [(scaled, case) for case in cases[1:]]
    for fake, (curve, place, f, _) in faults:
        monkeypatch.setattr(Curve, "param_series", fake)
        for precision in (4, 2):
            with pytest.raises(InvariantViolation):
                f.local_expansion(place, precision)
    monkeypatch.undo()
    order = funcfield._order
    # an order of the numerator or of d0 off by one, above at every place,
    # below where it is positive: the leading window coefficients disagree
    faults = [(part, 1, case) for part in ("n0", "d0") for case in cases]
    faults += [("n0", -1, cases[0]), ("n0", -1, cases[2]),
               ("d0", -1, (C7, P, FunctionRep(C7, [1], [], [4, 1]), None))]   # 1/(x - 3)
    for part, shift, (curve, place, f, _) in faults:
        def wrong(curve, n0, n1, place, poly=getattr(f, part), shift=shift):
            return order(curve, n0, n1, place) + (shift if n0 is poly else 0)

        monkeypatch.setattr(funcfield, "_order", wrong)
        with pytest.raises(InvariantViolation):
            f.local_expansion(place, 4)
    monkeypatch.undo()
    for curve, place, f, lead in cases:
        assert f.local_expansion(place, 4).coeffs[:1] == lead


def test_ordinary_places_expand_by_taylor_shift(C7, C11, CQ, QQ, monkeypatch):
    """At every place of C7, C11, C7 over F_49 and C7 over F_343, and at O,
    ordinary places of y^2 = x^3 + 2 and the ramified places of
    y^2 = x^3 - x over Q, local_expansion equals the truncated Horner
    reference at every precision from -4 to 12.  The engine never runs that
    reference, nor any series product or inverse outside param_series: at
    every place kind the expansion is read off the place's table of X^i
    and X^i Y.  Over F_343 two of the order test functions are drawn at
    each place, to keep the test short."""
    rng = random.Random(23)
    horner, series_ops, depth = [], [], [0]
    peval, param_series = references.peval_series, Curve.param_series

    def counted(K, a, xs):
        horner.append(a)
        return peval(K, a, xs)

    def outer(curve, place, prec):
        depth[0] += 1
        try:
            return param_series(curve, place, prec)
        finally:
            depth[0] -= 1

    def watched(op):
        def run(*args):
            if not depth[0]:
                series_ops.append(op.__name__)
            return op(*args)
        return run

    monkeypatch.setattr(references, "peval_series", counted)
    monkeypatch.setattr(Curve, "param_series", outer)
    for name in ("mul", "invert"):
        monkeypatch.setattr(LaurentSeries, name, watched(getattr(LaurentSeries, name)))
    CQ2 = Curve(QQ, QQ.zero, QQ.from_int(2))
    P = Place(QQ.from_int(-1), QQ.one)
    rationals = [P, CQ2.point_neg(P), CQ2.point_add(P, P)]
    cases = [(CQ2, p, rationals, None) for p in [INFINITY] + rationals]
    torsion = [Place(QQ.from_int(x), QQ.zero) for x in (-1, 0, 1)]
    cases += [(CQ, p, torsion, None) for p in torsion]
    for curve, drawn in [(C7, None), (C11, None), (C7.base_change(2), None),
                         (C7.base_change(3), 2)]:
        affine = curve.points()[1:]
        cases += [(curve, p, affine, drawn) for p in curve.points()]
    kinds = set()
    for curve, place, affine, drawn in cases:
        kind = curve.uniformiser_kind(place)
        kinds.add((curve.field.is_finite, kind))
        functions = order_test_functions(curve, place, affine, rng, n_random=1)
        if drawn and len(functions) > drawn:
            functions = rng.sample(functions, drawn)
        for f in functions:
            ref = reference_expansion(f, place)
            assert horner and series_ops
            del horner[:], series_ops[:]
            for precision in range(-4, 13):
                got = f.local_expansion(place, precision)
                want = ref.truncate(precision) if ref.val < precision \
                    else LaurentSeries.zero(curve.field, precision)
                assert (got.val, got.coeffs, got.prec) == \
                    (want.val, want.coeffs, precision), (f, place, precision)
            assert not horner and not series_ops, (f, place)
    assert kinds == set(product((True, False), ("generic", "ramified", "infinity")))


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
        prod = ef.mul(eg)
        n = min(efg.prec, prod.prec)         # compare on the shared window
        efg, prod = efg.truncate(n), prod.truncate(n)
        assert (efg.val, efg.coeffs) == (prod.val, prod.coeffs)


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
    again = _divisor(C7, C7.divisor_to_json(D))
    assert again == D
    assert _place(C7, "O") == INFINITY


def test_rational_curve_group_law(CQ, QQ):
    # 2-torsion points of y^2 = x^3 - x
    P = Place(QQ.from_int(0), QQ.from_int(0))
    Q = Place(QQ.from_int(1), QQ.from_int(0))
    R = CQ.point_add(P, Q)
    assert R == Place(QQ.from_int(-1), QQ.from_int(0))
    assert CQ.point_add(R, R) == INFINITY


# --------------------------------------------------------------------------
# the Riemann-Roch memo kept on each curve


def _polys(f):
    return (f.n0, f.n1, f.d0)


def _small_divisors(curve):
    """Every divisor of degree -1..4 supported on at most two places, with
    multiplicities of absolute value at most 3 on a pair."""
    pts = curve.points()
    out = [Divisor()] + [single(P, d) for P in pts for d in (-1, 1, 2, 3, 4)]
    for i, P in enumerate(pts):
        for Q in pts[i + 1:]:
            for a, b in product(range(-3, 4), repeat=2):
                if a and b and -1 <= a + b <= 4:
                    out.append(Divisor({P: a, Q: b}))
    return out


def test_rr_memo_leaves_no_reference_cycle(F7):
    """With the cyclic garbage collector off, a curve whose memo h0,
    rr_basis and principal_function have filled is freed as soon as the
    last reference to it goes: the memo holds nothing that refers back to
    the curve."""
    from scrollinflect.bundle import BundleSpec, h0
    P = Place(3, 1)
    gc.disable()
    try:
        curve = Curve(F7, 0, 2)
        E = BundleSpec(curve, [single(INFINITY, 2), Divisor({P: 1, INFINITY: 1})])
        V = h0(E, Divisor({P: 1, INFINITY: -1}))
        V.section_coeffs(P, 3)
        big = curve.base_change(2)
        # the lifted rows, at O as at the place off C(F_7), fill the
        # extension curve's own memo
        off = next(Q for Q in big.points() if not Q.is_infinity and max(Q.x, Q.y) >= 7)
        for place in (INFINITY, off):
            V.base_change(2).section_coeffs(place, 3)
        vectors = V.vectors
        basis = rr_basis(curve, Divisor({P: 2, INFINITY: 1}))
        basis.normalized_rows(P, 4)
        funcs = list(basis)
        f = principal_function(curve, Divisor({P: 1, curve.point_neg(P): 1, INFINITY: -2}))
        assert curve._principal_functions and curve._rr_bases and big._rr_bases
        assert all(any(data.rows for data in c._rr_bases.values()) for c in (curve, big))
        refs = [weakref.ref(curve), weakref.ref(big)]
        del curve, big, off, E, V, vectors, basis, funcs, f
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_rr_memo_equals_a_fresh_build(F7):
    """On one curve, asked twice each, every divisor of degree -1..4 on at
    most two places of C7 gets the basis, expansion rows and principal
    function that a fresh, equal curve builds from nothing; the rows are
    read after a smaller and then a larger request filled the kept
    monomial expansions and rows, so the last request reads a prefix."""
    memo = Curve(F7, 0, 2)
    pts = memo.points()
    for D in _small_divisors(memo):
        fresh = Curve(F7, 0, 2)
        want = rr_basis(fresh, D)
        want_rows = [want.normalized_rows(place, 3) for place in pts]
        for _ in range(2):
            got = rr_basis(memo, D)
            assert len(got) == len(want), D
            assert [_polys(f) for f in got] == [_polys(f) for f in want], D
        for place in pts:
            got.normalized_rows(place, 1)
            got.normalized_rows(place, 5)
        assert [got.normalized_rows(place, 3) for place in pts] == want_rows, D
        if memo.is_principal(D):
            assert _polys(principal_function(memo, D)) == \
                _polys(principal_function(fresh, D)), D
    assert len(memo._rr_bases) > 100 and len(memo._principal_functions) > 100


def _lift_divisors(curve):
    """Divisors of degree -1..4: on O alone, on one affine place with O,
    and on two affine places, a degree-0 principal and a degree-0
    non-principal one among them."""
    P, Q = Place(3, 1), Place(5, 1)
    out = [single(INFINITY, d) for d in range(-1, 5)]
    out += [Divisor({P: d + 1, INFINITY: -1}) for d in range(-1, 5)]
    out += [Divisor({P: 2, Q: -1}), Divisor({P: 1, curve.point_neg(P): 1, INFINITY: -2}),
            Divisor({P: 1, Q: -1}), Divisor({P: 3, Q: 1})]
    assert sorted({D.degree for D in out}) == list(range(-1, 5))
    return out


@pytest.mark.parametrize("first", [1, 2])
def test_lifted_rows_equal_a_fresh_build(F7, first):
    """A basis lifted to F_49 and F_343 keeps its rows in the extension
    curve's memo, at the places of C(F_7) too.  Whichever scan asks first
    (e = 1 or e = 2), at precisions that rise and fall between the fields,
    the rows at every place of C(F_7), C(F_49) and C(F_343) equal those a
    fresh curve built over each field on its own gives."""
    fresh = {e: Curve(extension_of(F7, e), 0, 2) for e in (1, 2, 3)}
    shared = Curve(F7, 0, 2)
    order = [(first, 3), (3 - first, 4), (3, 2), (1, 2), (2, 5)]
    for D in _lift_divisors(shared):
        basis = rr_basis(shared, D)
        for e, prec in order:
            lifted = basis.base_change(e)
            want = rr_basis(fresh[e], D)
            for place in lifted.curve.points():
                assert lifted.normalized_rows(place, prec) == \
                    want.normalized_rows(place, prec), (D, e, place, prec)


def test_monomial_table_equals_local_expansion(F7, F11, monkeypatch):
    """funcfield._monomial_coeffs equals the Horner reference expansion of
    _monomial(curve, key) for x^i and x^i y of pole order up to 12 and for
    the simple-pole key of affine points T, at precisions 0..8 asked for
    rising and then falling on one curve (the table is built, grown,
    rebuilt larger and read by prefix), one key at a time and all keys in
    one call (the table sized once for the largest).  The places are every place of C7
    and C11 (one ramified place), and O, the ramified places and drawn
    ordinary places of C7 over F_49 (none ramified) and F_343 (three); the
    keys T are every affine point over F_7 and F_11, and over the
    extensions the points +-place and four drawn ones.  local_expansion
    runs only for the simple-pole key at O, at a ramified place and at the
    places +-T, and there at each kind of place."""
    rng = random.Random(24)
    expand = FunctionRep.local_expansion
    calls = []

    def counted(f, place, precision):
        calls.append(f)
        return expand(f, place, precision)

    monkeypatch.setattr(FunctionRep, "local_expansion", counted)
    precs = list(range(9)) + list(range(8, -1, -1))
    expanded = set()
    C7 = Curve(F7, 0, 2)
    for curve, drawn in [(C7, None), (Curve(F11, 0, 4), None),
                         (C7.base_change(2), 8), (C7.base_change(3), 6)]:
        K = curve.field
        affine = curve.points()[1:]
        places = curve.points()
        if drawn:
            special = [p for p in places if curve.uniformiser_kind(p) != "generic"]
            places = special + rng.sample([p for p in affine if p not in special], drawn)
        for place in places:
            kind = curve.uniformiser_kind(place)
            poles = affine
            if drawn:
                poles = [T for T in affine if T.x == place.x] + rng.sample(affine, 4)
            keys = [n for n in range(13) if n != 1] + poles
            refs = {key: reference_expansion(funcfield._monomial(curve, key), place)
                    for key in keys}
            for prec in precs:
                alone = []
                for key in keys:
                    del calls[:]
                    alone += funcfield._monomial_coeffs(curve, [key], place, prec)
                    pole = isinstance(key, Place) and (kind != "generic" or key.x == place.x)
                    assert pole or not calls, (curve, key, place, prec)
                    if calls:
                        expanded.add(kind)
                together = funcfield._monomial_coeffs(curve, keys, place, prec)
                for key, one, every in zip(keys, alone, together):
                    ref = refs[key]
                    want = ref.truncate(prec) if ref.val < prec \
                        else LaurentSeries.zero(K, prec)
                    for val, coeffs in (one, every):
                        got = LaurentSeries(K, val, coeffs, prec)
                        assert (got.val, got.coeffs, got.prec) == \
                            (want.val, want.coeffs, want.prec), (curve, key, place, prec)
    assert expanded == {"generic", "ramified", "infinity"}


def test_rr_memo_keeps_the_checks(F7, monkeypatch):
    """A divisor that is not principal raises on every call and is never
    kept; a wrong accumulated function raises InvariantViolation when first
    constructed, every time, and is never kept either."""
    import scrollinflect.funcfield as funcfield
    curve = Curve(F7, 0, 2)
    P = Place(3, 1)
    D = Divisor({P: 1, INFINITY: -1})
    for _ in range(2):
        with pytest.raises(DomainError):
            principal_function(curve, D)
    assert D.key() not in curve._principal_functions
    assert len(rr_basis(curve, D)) == 0 and len(rr_basis(curve, D.neg())) == 0
    assert not curve._principal_functions and not curve._rr_bases
    accumulate = funcfield._accumulate

    def wrong(curve, part):
        (a0, a1, ad), T = accumulate(curve, part)
        if any(place == P for place, _ in part):
            x = [F7.zero, F7.one]           # a stray factor of x
            a0, a1 = pmul(F7, a0, x), pmul(F7, a1, x)
        return (a0, a1, ad), T

    monkeypatch.setattr(funcfield, "_accumulate", wrong)
    principal = Divisor({P: 1, curve.point_neg(P): 1, INFINITY: -2})
    for _ in range(2):
        with pytest.raises(InvariantViolation):
            principal_function(curve, principal)
        with pytest.raises(InvariantViolation):
            rr_basis(curve, single(P, 3))
    assert not curve._principal_functions and not curve._rr_bases
    monkeypatch.undo()
    assert principal_function(curve, principal).ord_at(P) == 1
