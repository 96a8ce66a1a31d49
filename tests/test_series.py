import random

import pytest

from scrollinflect.errors import PrecisionError
from scrollinflect.fields import PrimeField, RationalField
from scrollinflect.series import LaurentSeries


def test_geometric_series_inverse():
    Q = RationalField()
    one_plus_t = LaurentSeries(Q, 0, [Q.one, Q.one], 3)
    inv = one_plus_t.invert()
    assert inv.val == 0
    assert inv.coeffs == [Q.from_int(1), Q.from_int(-1), Q.from_int(1)]


def test_monomial_cancellation():
    F = PrimeField(7)
    tinv = LaurentSeries(F, -1, [1], 5)
    t = LaurentSeries(F, 1, [1], 5)
    prod = tinv.mul(t)
    assert prod.val == 0 and prod.coeffs == [1]


def test_inverse_with_pole_normalization():
    # (t^-2 (1 + 2t))^-1 = t^2 (1 + 5t + 4t^2) over F_7
    F = PrimeField(7)
    a = LaurentSeries(F, -2, [1, 2], 1)      # three known coefficients
    inv = a.invert()
    assert inv.val == 2
    assert inv.coeffs == [1, 5, 4]


def test_inverse_of_invisible_series_raises():
    F = PrimeField(7)
    z = LaurentSeries.zero(F, 4)
    with pytest.raises(PrecisionError):
        z.invert()


def test_window_past_the_precision_is_empty():
    F = PrimeField(7)
    s = LaurentSeries(F, 4, [1, 2, 3, 4, 5], 3)
    assert s.coeffs == [] and s.val == s.prec == 3
    t = LaurentSeries(F, 1, [3, 4], 6).truncate(1)
    assert t.coeffs == [] and t.val == t.prec == 1


def test_mul_precision_rule():
    F = PrimeField(7)
    a = LaurentSeries(F, 1, [1, 1], 5)       # prec 5, val 1
    b = LaurentSeries(F, -2, [2], 2)         # prec 2, val -2
    prod = a.mul(b)
    assert prod.prec == min(5 + (-2), 2 + 1)
    assert prod.val == -1


def test_truncate():
    F = PrimeField(7)
    s = LaurentSeries(F, 0, [1, 2, 3], 3)
    t = s.truncate(2)
    assert t.prec == 2 and t.coeffs == [1, 2]


def test_invert_mul_roundtrip_200_random():
    F = PrimeField(11)
    rng = random.Random(42)
    for _ in range(200):
        val = rng.randint(-3, 3)
        length = rng.randint(1, 6)
        coeffs = [rng.randrange(1, 11)] + [rng.randrange(11) for _ in range(length - 1)]
        prec = val + length
        s = LaurentSeries(F, val, coeffs, prec)
        prod = s.mul(s.invert())
        assert (prod.val, prod.coeffs, prod.prec) == (0, [1], length)


