"""Principal functions, 1/h and the polynomial helpers against independent
references.

principal_function accumulates Miller's chord and vertical lines as
unreduced polynomials and normalises once; the reference here builds the
same product one line at a time through FunctionRep, which normalises at
every step.  The polynomial helpers are checked against sympy's arithmetic
in GF(p)[x].
"""

import random
from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols

from scrollinflect.curve import Curve, Divisor, INFINITY, single
from scrollinflect.fields import PrimeField
from scrollinflect.funcfield import (FunctionRep, _root_mult, chord_line, pdivmod,
                                     pgcd, principal_function, rr_basis,
                                     vertical_line)


def _step_by_step(curve, D):
    """The function with divisor D by Miller's algorithm, every chord and
    vertical line a FunctionRep and every product normalised."""
    def accumulate(part):
        g, T = FunctionRep.one(curve), INFINITY
        for place, mult in part:
            for _ in range(mult):
                if T.is_infinity:
                    T = place
                    continue
                R = curve.point_add(T, place)
                if R.is_infinity:
                    g = g.mul(vertical_line(curve, place))
                else:
                    g = g.mul(chord_line(curve, T, place)).div(vertical_line(curve, R))
                T = R
        return g

    items = D.items_sorted()
    pos = accumulate([(p, m) for p, m in items if m > 0 and not p.is_infinity])
    neg = accumulate([(p, -m) for p, m in items if m < 0 and not p.is_infinity])
    return pos.div(neg)


def _polys(f):
    return (f.n0, f.n1, f.d0)


def _principal_divisors(curve, places, mults):
    """Every principal divisor supported on at most three of the places,
    with multiplicities from mults."""
    for size in (1, 2, 3):
        for support in combinations(places, size):
            for ms in product(mults, repeat=size):
                D = Divisor(dict(zip(support, ms)))
                if D.degree == 0 and curve.is_principal(D):
                    yield D


def _check_against_reference(curve, divisors):
    count = 0
    for D in divisors:
        f = principal_function(curve, D)
        assert _polys(f) == _polys(_step_by_step(curve, D)), D
        for place, mult in D.items_sorted():
            assert f.ord_at(place) == mult, (D, place)
        # leading coefficient 1 at O, the normalisation that makes f unique
        v = f.ord_at(INFINITY)
        assert f.local_expansion(INFINITY, v + 1).coeffs == [curve.field.one], D
        count += 1
    return count


def test_principal_function_equals_the_step_by_step_product(F7):
    curve = Curve(F7, 0, 2)
    mults = [m for m in range(-3, 4) if m]
    divisors = list(_principal_divisors(curve, curve.points(), mults))
    assert _check_against_reference(curve, divisors) == len(divisors) > 100


def test_principal_function_equals_the_step_by_step_product_over_f49(F7):
    """A seeded sample over F_49: a P + b Q + (R) - (a + b + 1)(O) with
    R = -(a P + b Q), so the support has up to four places."""
    curve = Curve(F7, 0, 2).base_change(2)
    pts = [p for p in curve.points() if not p.is_infinity]
    rng = random.Random(4901)
    divisors = []
    while len(divisors) < 60:
        P, Q = rng.sample(pts, 2)
        a, b = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-2, -1, 1, 2])
        R = curve.point_neg(curve.point_add(curve.point_mul(a, P), curve.point_mul(b, Q)))
        D = Divisor({P: a}).add(single(Q, b)).add(single(R)).add(single(INFINITY, -(a + b + 1)))
        assert curve.is_principal(D)
        divisors.append(D)
    assert _check_against_reference(curve, divisors) == 60


def test_rr_basis_inverse_factor_is_the_inverted_principal_function(F7):
    """rr_basis builds 1/h directly as the principal function of
    target - D; it equals the inverse of the one for D - target."""
    curve = Curve(F7, 0, 2)
    pts = curve.points()
    checked = 0
    for P, Q in combinations(pts, 2):
        for a, b in product(range(-3, 4), repeat=2):
            D = Divisor({P: a, Q: b})
            if D.degree < 0 or not rr_basis(curve, D):
                continue
            data = curve._rr_bases[D.key()]
            want = principal_function(curve, D.sub(data.target)).inverse()
            assert data.hinv == (tuple(want.n0), tuple(want.n1), tuple(want.d0)), D
            checked += 1
    assert checked > 500


# --------------------------------------------------------------------------
# polynomial helpers against sympy

X = symbols("x")


def _sympy(a, p):
    return Poly(list(reversed(a)) or [0], X, modulus=p)


def _ours(poly, p):
    out = [int(c) % p for c in reversed(poly.all_coeffs())]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_over(p, max_len=7):
    return st.lists(st.integers(0, p - 1), max_size=max_len).map(
        lambda cs: _trim(list(cs)))


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


@st.composite
def _prime_and_polys(draw, count=2):
    p = draw(st.sampled_from([7, 11]))
    return (p,) + tuple(draw(_poly_over(p)) for _ in range(count))


@settings(max_examples=200, deadline=None)
@given(_prime_and_polys())
def test_pdivmod_and_pgcd_agree_with_sympy(data):
    p, a, b = data
    K = PrimeField(p)
    ga = pgcd(K, a, b)
    assert ga == _ours(_sympy(a, p).gcd(_sympy(b, p)), p)
    if b:
        q, r = pdivmod(K, a, b)
        sq, sr = _sympy(a, p).div(_sympy(b, p))
        assert (q, r) == (_ours(sq, p), _ours(sr, p))


def _sympy_root_mult(poly, x0, p):
    """Largest m with (x - x0)^m | poly, and the quotient, by sympy."""
    root, m = Poly([1, -x0], X, modulus=p), 0
    while True:
        q, r = poly.div(root)
        if not r.is_zero:
            return m, poly
        poly, m = q, m + 1


@settings(max_examples=200, deadline=None)
@given(_prime_and_polys(), st.integers(0, 10), st.integers(0, 3), st.integers(0, 3))
def test_root_mult_agrees_with_sympy(data, x0, ea, eb):
    """_root_mult of one and of two polynomials, made divisible by
    (x - x0)^e so that high multiplicities occur."""
    p, a, b = data
    x0 %= p
    K = PrimeField(p)
    root = Poly([1, -x0], X, modulus=p)
    a = _ours(_sympy(a, p) * root ** ea, p)
    b = _ours(_sympy(b, p) * root ** eb, p)
    for polys in ([a], [a, b]):
        if not any(polys):
            continue
        refs = [_sympy_root_mult(_sympy(f, p), x0, p) for f in polys if f]
        m = min(mult for mult, _ in refs)
        quotients = [_ours(_sympy(f, p).div(root ** m)[0], p) for f in polys]
        assert _root_mult(K, polys, x0) == (m, quotients), (p, polys, x0)
