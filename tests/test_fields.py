import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Poly, symbols
from sympy.polys.galoistools import gf_pow_mod

from scrollinflect.cli import _field
from scrollinflect.errors import InputError
from scrollinflect.fields import (ExtensionField, PrimeField, RationalField,
                                  extension_of, find_irreducible)


def test_prime_field_basics():
    F = PrimeField(7)
    assert F.add(3, 5) == 1
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert F.sub(1, 3) == 5
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_prime_field_rejects_composites():
    with pytest.raises(InputError):
        PrimeField(6)
    with pytest.raises(InputError):
        PrimeField(1)


def test_extension_field_construction_and_tables():
    F49 = ExtensionField(7, [1, 0, 1])      # t^2 + 1, irreducible since -1 is not a square mod 7
    assert F49.order == 49
    t = 7                                    # packed representation of t
    assert F49.mul(t, t) == F49.neg(1)       # t^2 = -1
    for a in range(1, 49):
        assert F49.mul(a, F49.inv(a)) == F49.one


def test_extension_field_rejects_reducible():
    with pytest.raises(InputError):
        ExtensionField(7, [6, 0, 1])         # t^2 + 6 = (t - 1)(t + 1)
    with pytest.raises(InputError):
        ExtensionField(7, [2, 4, 1])         # t^2 + 4t + 2 = (t - 1)(t - 2)


def test_reducible_detection_catches_roots():
    # x^2 - 1 factors as (x-1)(x+1)
    with pytest.raises(InputError):
        ExtensionField(11, [10, 0, 1])


def test_find_irreducible_degrees():
    for p in (7, 11):
        for e in (2, 3):
            coeffs = find_irreducible(p, e)
            assert len(coeffs) == e + 1
            F = ExtensionField(p, coeffs)
            assert F.order == p ** e


def test_extension_embedding_and_serialization():
    F = extension_of(PrimeField(7), 2)
    # F_7 sits in F_49 as the packed ints 0..6, with the same arithmetic
    F7 = PrimeField(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == F7.add(a, b)
            assert F.mul(a, b) == F7.mul(a, b)
    a = F.elt_from_json([2, 5])
    assert F.elt_to_json(a) == [2, 5]
    assert F.add(a, F.neg(a)) == F.zero


def _digits(p, e, a):
    return [(a // p ** i) % p for i in range(e)]


def _undigits(p, ds):
    return sum(c * p ** i for i, c in enumerate(ds))


def _ref_add(p, e, a, b):
    return _undigits(p, [(x + y) % p for x, y in zip(_digits(p, e, a), _digits(p, e, b))])


def _ref_neg(p, e, a):
    return _undigits(p, [(-x) % p for x in _digits(p, e, a)])


def _ref_mul(p, modulus, a, b):
    e = len(modulus) - 1
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_digits(p, e, a)):
        for j, y in enumerate(_digits(p, e, b)):
            prod[i + j] += x * y
    for i in range(2 * e - 2, e - 1, -1):
        c = prod[i]
        for j in range(e + 1):
            prod[i - e + j] -= c * modulus[j]
    return _undigits(p, [c % p for c in prod[:e]])


def _check_pairs(F, pairs):
    p, e = F.p, F.degree
    for a, b in pairs:
        assert F.add(a, b) == _ref_add(p, e, a, b), (a, b)
        assert F.sub(a, b) == _ref_add(p, e, a, _ref_neg(p, e, b)), (a, b)
        assert F.mul(a, b) == _ref_mul(p, F.modulus, a, b), (a, b)


@pytest.mark.parametrize("p, e", [(7, 2), (7, 3)])
def test_extension_arithmetic_matches_digit_reference_exhaustively(p, e):
    F = ExtensionField(p, find_irreducible(p, e))
    for a in range(F.order):
        assert F.neg(a) == _ref_neg(p, e, a)
        if a:
            assert F.mul(a, F.inv(a)) == F.one
    _check_pairs(F, ((a, b) for a in range(F.order) for b in range(F.order)))


def test_extension_arithmetic_matches_digit_reference_sampled():
    F = ExtensionField(11, find_irreducible(11, 3))
    rng = random.Random(1331)
    elems = [0, 1, F.order - 1] + [rng.randrange(F.order) for _ in range(200)]
    for a in elems:
        assert F.neg(a) == _ref_neg(11, 3, a)
    _check_pairs(F, [(a, b) for a in elems for b in elems])


def test_characteristic_two_negation_is_identity():
    F4 = ExtensionField(2, [1, 1, 1])       # t^2 + t + 1
    for a in range(4):
        assert F4.neg(a) == a
        assert F4.add(a, a) == F4.zero
        assert F4.sub(a, 1) == F4.add(a, 1)


def test_rationals():
    Q = RationalField()
    a = Q.elt_from_json("3/4")
    b = Q.elt_from_json("-1/2")
    assert Q.add(a, b) == Fraction(1, 4)
    assert Q.elt_to_json(Q.mul(a, b)) == "-3/8"
    assert Q.inv(a) == Fraction(4, 3)


def test_field_from_desc_roundtrip():
    for desc in [{"kind": "prime", "p": 11},
                 {"kind": "extension", "p": 7, "degree": 2},
                 {"kind": "rationals"}]:
        F = _field(desc)
        assert _field(F.desc()) == F


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
def test_extension_field_axioms(a, b, c):
    F = ExtensionField(7, [1, 0, 1])
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_prime_and_rational_axioms(x, y, z):
    for F in (PrimeField(11), RationalField()):
        a, b, c = F.from_int(x), F.from_int(y), F.from_int(z)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


# --------------------------------------------------------------------------
# ExtensionField against sympy's GF(p)[t]/(m)

T = symbols("t")


@pytest.mark.parametrize("p, e", [(5, 2), (7, 2), (7, 3), (11, 2), (13, 3)])
def test_extension_field_agrees_with_sympy_quotient_ring(p, e):
    """add, mul and neg against Poly(.., modulus=p).rem(m), inv against
    Poly.invert(m) and frobenius against A**p rem m (gf_pow_mod); every
    element, and all pairs up to q = 49, 2,000 sampled pairs above."""
    modulus = find_irreducible(p, e)
    F = ExtensionField(p, modulus)
    m = Poly(list(reversed(modulus)), T, modulus=p)
    assert m.is_irreducible
    polys = {}

    def poly(a):
        if a not in polys:
            polys[a] = Poly(list(reversed(F.elt_to_json(a))), T, modulus=p)
        return polys[a]

    def packed(A):
        cs = [int(c) % p for c in reversed(A.rem(m).all_coeffs())]
        return F.elt_from_json(cs + [0] * (e - len(cs)))

    for a in F.elements():
        A = poly(a)
        assert F.neg(a) == packed(-A), a
        frob = Poly(gf_pow_mod(A.all_coeffs(), p, m.all_coeffs(), p, ZZ), T, modulus=p)
        assert F.frobenius(a) == packed(frob), a
        if a:
            assert F.inv(a) == packed(A.invert(m)), a
    if F.order <= 49:
        pairs = [(a, b) for a in F.elements() for b in F.elements()]
    else:
        rng = random.Random(p ** e)
        pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(2000)]
    for a, b in pairs:
        assert F.add(a, b) == packed(poly(a) + poly(b)), (a, b)
        assert F.mul(a, b) == packed(poly(a) * poly(b)), (a, b)
