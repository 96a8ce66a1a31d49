"""Genus-1 curves in short Weierstrass form: points, divisors, group law.

Everything geometric downstream (function construction, section spaces,
fibre scans) reduces to the chord-tangent group law and to local power
series for x and y at a place, both provided here.  Over a finite field
the full rational point list is enumerated at construction.
"""

from __future__ import annotations

from .errors import InputError
from .fields import extension_of
from .series import LaurentSeries


class Place:
    """A rational point: the point at infinity O, or affine (x, y)."""

    __slots__ = ("x", "y", "_hash")

    def __init__(self, x=None, y=None):
        self.x = x
        self.y = y
        self._hash = hash((x, y))     # places are keys everywhere; none is mutated

    @property
    def is_infinity(self):
        return self.x is None

    def __eq__(self, other):
        return isinstance(other, Place) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "O" if self.is_infinity else f"({self.x},{self.y})"


INFINITY = Place()


class Divisor:
    """Formal Z-combination of places, held as a support map."""

    def __init__(self, support=None):
        self.support = {}
        if support:
            for place, mult in (support.items() if isinstance(support, dict) else support):
                self.add_place(place, mult)

    def add_place(self, place, mult):
        if mult == 0:
            return
        new = self.support.get(place, 0) + mult
        if new == 0:
            self.support.pop(place, None)
        else:
            self.support[place] = new

    def mult(self, place):
        return self.support.get(place, 0)

    @property
    def degree(self):
        return sum(self.support.values())

    def add(self, other):
        out = Divisor(dict(self.support))
        for place, mult in other.support.items():
            out.add_place(place, mult)
        return out

    def neg(self):
        return Divisor({p: -m for p, m in self.support.items()})

    def sub(self, other):
        return self.add(other.neg())

    def key(self):
        """The support as a frozenset of (place, mult) pairs: equal divisors
        have equal keys.  The divisor itself is mutable (add_place), so it
        is not hashable; memos and caches key on this instead."""
        return frozenset(self.support.items())

    def items_sorted(self):
        return sorted(self.support.items(), key=lambda pm: _place_key(pm[0]))

    def __eq__(self, other):
        return isinstance(other, Divisor) and other.support == self.support

    def __repr__(self):
        if not self.support:
            return "0"
        return " + ".join(f"{m}*({p!r})" for p, m in self.items_sorted())


def _place_key(place):
    if place.is_infinity:
        return (0,)
    return (1, _sortable(place.x), _sortable(place.y))


def _sortable(v):
    # ints sort directly; Fractions sort as (num, den) pairs via float-free key
    if isinstance(v, int):
        return (0, v, 1)
    return (0, v.numerator, v.denominator)


def single(place, mult=1):
    return Divisor({place: mult})


class Curve:
    """y^2 = x^3 + a4 x + a6 over a field of characteristic not 2 or 3."""

    def __init__(self, field, a4, a6):
        if field.char in (2, 3):
            raise InputError("characteristic 2 and 3 are not supported")
        a4 = field.validate(a4)
        a6 = field.validate(a6)
        K = field
        disc = K.neg(K.mul(K.from_int(16),
                           K.add(K.mul(K.from_int(4), K.pow(a4, 3)),
                                 K.mul(K.from_int(27), K.mul(a6, a6)))))
        if disc == K.zero:
            raise InputError("discriminant is zero; curve is singular")
        self.field = field
        self.a4 = a4
        self.a6 = a6
        self.discriminant = disc
        self._param_cache = {}
        # funcfield's Riemann-Roch memo; it holds plain data only, nothing
        # that refers back to this curve, so the curve has no reference cycle
        self._monomial_expansions = {}   # (place, pole T) -> (prec, series) off the table
        self._monomial_tables = {}       # place -> (X^i rows, X^i Y rows, X's terms)
        self._principal_functions = {}   # divisor key -> (n0, n1, d0)
        self._rr_bases = {}              # divisor key -> funcfield._RRData
        self._base_changes = {}
        self._points = None
        if field.is_finite:
            self._points = self._enumerate_points()

    # -- point set ----------------------------------------------------------
    def _enumerate_points(self):
        K = self.field
        roots = {}
        for y in K.elements():
            roots.setdefault(K.mul(y, y), []).append(y)
        pts = [INFINITY]
        for x in K.elements():
            for y in roots.get(self.rhs(x), ()):
                pts.append(Place(x, y))
        pts.sort(key=_place_key)
        return pts

    def points(self):
        if self._points is None:
            raise InputError("point enumeration requires a finite field")
        return list(self._points)

    @property
    def group_order(self):
        return len(self.points())

    def rhs(self, x):
        K = self.field
        return K.add(K.mul(x, K.add(K.mul(x, x), self.a4)), self.a6)

    def contains(self, place):
        if place.is_infinity:
            return True
        K = self.field
        return K.mul(place.y, place.y) == self.rhs(place.x)

    def check_place(self, place):
        if not place.is_infinity:
            self.field.validate(place.x)
            self.field.validate(place.y)
        if not self.contains(place):
            raise InputError(f"point {place!r} is not on the curve")
        return place

    # -- group law ------------------------------------------------------------
    def point_neg(self, P):
        if P.is_infinity:
            return P
        return Place(P.x, self.field.neg(P.y))

    def chord_slope(self, P, Q):
        """The slope of the line through affine P and Q (the tangent if
        P == Q), or None when that line is vertical (Q = -P)."""
        K = self.field
        if P.x == Q.x:
            if K.add(P.y, Q.y) == K.zero:
                return None
            num = K.add(K.mul(K.from_int(3), K.mul(P.x, P.x)), self.a4)
            return K.div(num, K.add(P.y, P.y))
        return K.div(K.sub(Q.y, P.y), K.sub(Q.x, P.x))

    def point_add(self, P, Q):
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        lam = self.chord_slope(P, Q)
        if lam is None:
            return INFINITY
        K = self.field
        x3 = K.sub(K.sub(K.mul(lam, lam), P.x), Q.x)
        y3 = K.sub(K.mul(lam, K.sub(P.x, x3)), P.y)
        return Place(x3, y3)

    def point_mul(self, n, P):
        if n < 0:
            return self.point_mul(-n, self.point_neg(P))
        acc, base = INFINITY, P
        while n:
            if n & 1:
                acc = self.point_add(acc, base)
            base = self.point_add(base, base)
            n >>= 1
        return acc

    def divisor_group_sum(self, D):
        acc = INFINITY
        for place, mult in D.items_sorted():
            acc = self.point_add(acc, self.point_mul(mult, place))
        return acc

    def divisor_reduce(self, D):
        """The unique point T with D ~ (T) + (deg D - 1)(O), plus that shift."""
        return self.divisor_group_sum(D), D.degree - 1

    def is_principal(self, D):
        return D.degree == 0 and self.divisor_group_sum(D).is_infinity

    def pic0_representatives(self):
        """One degree-0 divisor (T) - (O) per class; bijection T <-> class at genus 1."""
        reps = []
        for T in self.points():
            if T.is_infinity:
                reps.append(Divisor())
            else:
                reps.append(Divisor({T: 1, INFINITY: -1}))
        return reps

    # -- base change -----------------------------------------------------------
    def base_change(self, e):
        """The same curve over F_{q^e}: coefficients, places and divisors
        over this curve are valid over it unchanged.

        Built once per degree and kept on this curve, so every scan over
        F_{q^e} shares one field's tables and one param_series cache.
        """
        if e == 1:
            return self
        big = self._base_changes.get(e)
        if big is None:
            big = Curve(extension_of(self.field, e), self.a4, self.a6)
            self._base_changes[e] = big
        return big

    def frobenius(self, place):
        """(x^p, y^p): the Frobenius image of a place of a curve over F_p or
        an extension of it."""
        if place.is_infinity:
            return place
        K = self.field
        return Place(K.frobenius(place.x), K.frobenius(place.y))

    # -- local parametrisation ---------------------------------------------------
    def uniformiser_kind(self, place):
        """'infinity' (t = x/y), 'ramified' (t = y) or 'generic' (t = x - x0)."""
        if place.is_infinity:
            return "infinity"
        if place.y == self.field.zero:
            return "ramified"
        return "generic"

    def param_series(self, place, prec):
        """(x(t), y(t)) in the canonical uniformiser at the place, mod t^prec."""
        key = (place.x, place.y)
        cached = self._param_cache.get(key)
        if cached is not None and cached[0] >= prec:
            xs, ys = cached[1], cached[2]
            return xs.truncate(prec), ys.truncate(prec)
        xs, ys = self._compute_param(place, prec)
        self._param_cache[key] = (prec, xs, ys)
        return xs, ys

    def _compute_param(self, place, prec):
        K = self.field
        kind = self.uniformiser_kind(place)
        if kind == "infinity":
            # t = x/y; w = 1/y satisfies w = t^3 + a4 t w^2 + a6 w^3
            P = prec + 8
            t = LaurentSeries.uniformiser(K, P)
            t3 = LaurentSeries(K, 3, [K.one], P)
            w = t3
            # each pass gains at least 4 orders of agreement
            for _ in range(P // 4 + 2):
                w2 = w.mul(w)
                w = t3.add(t.mul(w2).scalar_mul(self.a4)).add(w2.mul(w).scalar_mul(self.a6))
                w = w.truncate(P)
            winv = w.invert()
            return t.mul(winv).truncate(prec), winv.truncate(prec)
        if kind == "generic":
            # t = x - x0; Newton for y with y(0) = y0 != 0
            P = prec
            xs = LaurentSeries(K, 0, [place.x, K.one], P)
            f = self._rhs_series(xs)
            y = LaurentSeries.constant(K, place.y, P)
            half = K.inv(K.from_int(2))
            n = 1
            while n < P:
                y = y.add(f.mul(y.invert())).scalar_mul(half)
                n *= 2
            return xs, y.truncate(prec)
        # ramified: t = y; Newton for x with simple root x0 of rhs(x) - t^2
        P = prec
        ys = LaurentSeries(K, 1, [K.one], P)
        t2 = ys.mul(ys)
        x = LaurentSeries.constant(K, place.x, P)
        n = 1
        while n < P:
            fx = self._rhs_series(x).sub(t2)
            dfx = self._rhs_derivative_series(x)
            x = x.sub(fx.mul(dfx.invert()))
            n *= 2
        return x.truncate(prec), ys

    def _rhs_series(self, xs):
        return xs.mul(xs).mul(xs).add(xs.scalar_mul(self.a4)) \
            .add(LaurentSeries.constant(self.field, self.a6, xs.prec))

    def _rhs_derivative_series(self, xs):
        K = self.field
        three = K.from_int(3)
        return xs.mul(xs).scalar_mul(three) \
            .add(LaurentSeries.constant(K, self.a4, xs.prec))

    # -- serialization --------------------------------------------------------
    def place_to_json(self, place):
        if place.is_infinity:
            return "O"
        K = self.field
        return [K.elt_to_json(place.x), K.elt_to_json(place.y)]

    def divisor_to_json(self, D):
        return [{"point": self.place_to_json(p), "mult": m} for p, m in D.items_sorted()]

    def __eq__(self, other):
        return (isinstance(other, Curve) and other.field == self.field
                and other.a4 == self.a4 and other.a6 == self.a6)

    def __repr__(self):
        return f"y^2 = x^3 + {self.a4}*x + {self.a6} over {self.field!r}"
