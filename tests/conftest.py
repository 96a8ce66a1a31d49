import os
import random
from pathlib import Path

import pytest

from scrollinflect.bundle import BundleSpec, Modification
from scrollinflect.curve import Curve, Divisor, INFINITY, Place, single
from scrollinflect.fields import PrimeField, RationalField

# CLI runs in a subprocess import the package from this checkout too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def F7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def C7(F7):
    return Curve(F7, 0, 2)          # y^2 = x^3 + 2, nine rational points


@pytest.fixture(scope="session")
def F11():
    return PrimeField(11)


@pytest.fixture(scope="session")
def C11(F11):
    return Curve(F11, 0, 4)         # y^2 = x^3 + 4, twelve rational points


@pytest.fixture(scope="session")
def QQ():
    return RationalField()


@pytest.fixture(scope="session")
def CQ(QQ):
    return Curve(QQ, QQ.from_int(-1), QQ.from_int(0))   # y^2 = x^3 - x


P31 = Place(3, 1)
Q51 = Place(5, 1)


@pytest.fixture(scope="session")
def estar(C7):
    return BundleSpec(C7, [single(INFINITY, -3), Divisor({INFINITY: -2, P31: -1})])


@pytest.fixture(scope="session")
def eflat(C7):
    return BundleSpec(C7, [single(INFINITY, -1), single(INFINITY, -5)])


@pytest.fixture(scope="session")
def esharp(C7):
    return BundleSpec(C7, [single(INFINITY, -2), single(P31, -2)],
                      [Modification.simple(Q51, (1, 1))])


@pytest.fixture(scope="session")
def edouble(C7):
    return BundleSpec(C7, [single(INFINITY, -3), single(INFINITY, -3)])


def random_divisor(curve, rng, degree):
    """A divisor of the given degree supported on rational points."""
    pts = [p for p in curve.points() if not p.is_infinity]
    D = Divisor()
    extra = rng.randint(0, 2)
    chosen = rng.sample(pts, min(extra, len(pts)))
    for T in chosen:
        D.add_place(T, rng.choice([-2, -1, 1, 2]))
    D.add_place(INFINITY, degree - D.degree)
    return D


def random_bundle(curve, rng, ranks=(2, 3), allow_mod=True, deg_range=(-5, -1)):
    r = rng.choice(list(ranks))
    factors = [random_divisor(curve, rng, rng.randint(*deg_range))
               for _ in range(r)]
    mods = []
    if allow_mod and rng.random() < 0.4:
        Q = rng.choice(curve.points())
        K = curve.field
        cov = [K.zero] * r
        while all(c == K.zero for c in cov):
            cov = [rng.randrange(K.order) for _ in range(r)]
        mods = [Modification.simple(Q, tuple(cov))]
    return BundleSpec(curve, factors, mods)


@pytest.fixture(scope="session")
def scan_bundles(C7, eflat):
    """eflat and seeded random bundles of rank 2 and 3 on C7, split and with
    one modification, for whole-scan comparisons."""
    rng = random.Random(21)
    out = [eflat]
    for r in (2, 2, 3, 3):
        modified = len(out) % 2 == 0
        E = None
        while E is None or len(E.modifications) != modified:
            E = random_bundle(C7, rng, ranks=(r,), allow_mod=modified, deg_range=(-3, -2))
        out.append(E)
    return out


def random_direction(field, r, rng, bias_first=0.25):
    if rng.random() < bias_first:
        return tuple([field.one] + [field.zero] * (r - 1))
    v = [field.zero] * r
    while all(c == field.zero for c in v):
        v = [rng.randrange(field.order) for _ in range(r)]
    return tuple(v)


@pytest.fixture
def rng():
    return random.Random(20260809)
