"""Function-field arithmetic on a short-Weierstrass curve.

Elements are fractions (n0(x) + n1(x) y) / d0(x) with the relation
y^2 = x^3 + a4 x + a6 folded in, so the y-degree never exceeds one and
denominators stay y-free (inverses are rationalised through the norm).
On top of the representation this module provides local expansions at a
place, divisor-prescribed function construction by chord/vertical-line
accumulation, and Riemann-Roch bases.

Orders are exact polynomial algebra, read off degrees at O and off root
multiplicities of the polynomials and of the norm at an affine place
(_order).  They size each local expansion, so it takes one pass.
"""

from __future__ import annotations

from .curve import INFINITY, Divisor, single
from .errors import DomainError, InputError, InvariantViolation, PrecisionError
from .series import LaurentSeries

# --------------------------------------------------------------------------
# dense univariate polynomial helpers (little-endian coefficient lists)


def pnorm(K, a):
    while a and a[-1] == K.zero:
        a.pop()
    return a


def padd(K, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else K.zero
        y = b[i] if i < len(b) else K.zero
        out.append(K.add(x, y))
    return pnorm(K, out)


def pneg(K, a):
    return [K.neg(c) for c in a]


def psub(K, a, b):
    return padd(K, a, pneg(K, b))


def pmul(K, a, b):
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == K.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = K.add(out[i + j], K.mul(x, y))
    return pnorm(K, out)


def pscal(K, c, a):
    if c == K.zero:
        return []
    return pnorm(K, [K.mul(c, v) for v in a])


def pdivmod(K, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [K.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = K.inv(b[-1])
    while len(a) >= len(b) and pnorm(K, list(a)):
        a = pnorm(K, a)
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        f = K.mul(a[-1], inv_lead)
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] = K.sub(a[shift + i], K.mul(f, c))
    return pnorm(K, q), pnorm(K, a)


def pgcd(K, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, pdivmod(K, a, b)[1]
    if a:
        a = pscal(K, K.inv(a[-1]), a)
    return a


def peval(K, a, x):
    acc = K.zero
    for c in reversed(a):
        acc = K.add(K.mul(acc, x), c)
    return acc


def peval_series(K, a, xs):
    if not a:
        return LaurentSeries.zero(K, xs.prec)
    big = xs.prec + abs(min(0, xs.val)) * len(a) + 4
    acc = LaurentSeries.constant(K, a[-1], big)
    for c in reversed(a[:-1]):
        acc = acc.mul(xs)
        if c != K.zero:
            acc = acc.add(LaurentSeries.constant(K, c, big))
    return acc


# --------------------------------------------------------------------------


class FunctionRep:
    """(n0 + n1*y)/d0 on a fixed curve, y-reduced, denominator y-free and monic."""

    __slots__ = ("curve", "n0", "n1", "d0")

    def __init__(self, curve, n0, n1, d0):
        K = curve.field
        n0, n1, d0 = pnorm(K, list(n0)), pnorm(K, list(n1)), pnorm(K, list(d0))
        if not d0:
            raise InputError("zero denominator")
        if not n0 and not n1:
            self.curve, self.n0, self.n1, self.d0 = curve, [], [], [K.one]
            return
        g = pgcd(K, pgcd(K, n0, n1), d0)
        if len(g) > 1:
            n0 = pdivmod(K, n0, g)[0]
            n1 = pdivmod(K, n1, g)[0]
            d0 = pdivmod(K, d0, g)[0]
        lead = K.inv(d0[-1])
        self.curve = curve
        self.n0 = pscal(K, lead, n0)
        self.n1 = pscal(K, lead, n1)
        self.d0 = pscal(K, lead, d0)

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, curve):
        return cls(curve, [], [], [curve.field.one])

    @classmethod
    def one(cls, curve):
        return cls(curve, [curve.field.one], [], [curve.field.one])

    @classmethod
    def coordinate_x(cls, curve):
        K = curve.field
        return cls(curve, [K.zero, K.one], [], [K.one])

    @classmethod
    def coordinate_y(cls, curve):
        K = curve.field
        return cls(curve, [], [K.one], [K.one])

    # -- predicates -----------------------------------------------------------
    def is_zero(self):
        return not self.n0 and not self.n1

    def __eq__(self, other):
        if not isinstance(other, FunctionRep) or other.curve != self.curve:
            return False
        return self.sub(other).is_zero()

    # -- arithmetic -------------------------------------------------------------
    def mul(self, other):
        K = self.curve.field
        c = _cubic(self.curve)
        n0 = padd(K, pmul(K, self.n0, other.n0),
                  pmul(K, pmul(K, self.n1, other.n1), c))
        n1 = padd(K, pmul(K, self.n0, other.n1), pmul(K, self.n1, other.n0))
        return FunctionRep(self.curve, n0, n1, pmul(K, self.d0, other.d0))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        K = self.curve.field
        # 1/(n0 + n1 y) = (n0 - n1 y)/(n0^2 - n1^2 (x^3 + a4 x + a6))
        return FunctionRep(self.curve, pmul(K, self.d0, self.n0),
                           pneg(K, pmul(K, self.d0, self.n1)),
                           _norm(self.curve, self.n0, self.n1))

    def div(self, other):
        return self.mul(other.inverse())

    def add(self, other):
        K = self.curve.field
        n0 = padd(K, pmul(K, self.n0, other.d0), pmul(K, other.n0, self.d0))
        n1 = padd(K, pmul(K, self.n1, other.d0), pmul(K, other.n1, self.d0))
        return FunctionRep(self.curve, n0, n1, pmul(K, self.d0, other.d0))

    def neg(self):
        K = self.curve.field
        return FunctionRep(self.curve, pneg(K, self.n0), pneg(K, self.n1), self.d0)

    def sub(self, other):
        return self.add(other.neg())

    def scalar_mul(self, c):
        K = self.curve.field
        return FunctionRep(self.curve, pscal(K, c, self.n0), pscal(K, c, self.n1), self.d0)

    def base_change(self, e):
        """The same function over F_{q^e}."""
        if e == 1:
            return self
        return FunctionRep(self.curve.base_change(e), self.n0, self.n1, self.d0)

    # -- evaluation and expansion --------------------------------------------------
    def evaluate(self, place):
        """Exact value at an affine place where the denominator does not vanish."""
        if place.is_infinity:
            raise DomainError("use local expansion at the point at infinity")
        K = self.curve.field
        d = peval(K, self.d0, place.x)
        if d == K.zero:
            raise DomainError("denominator vanishes at the place")
        n = K.add(peval(K, self.n0, place.x), K.mul(peval(K, self.n1, place.x), place.y))
        return K.div(n, d)

    def local_expansion(self, place, precision):
        """Expansion in the canonical uniformiser, correct modulo t^precision.

        One pass, sized by the exact orders vn of the numerator, vd of d0 and
        v = vn - vd.  Series products and inverses keep the smaller relative
        precision (prec - val), so with x(t), y(t) known mod t^P:
          * at an affine place x(t), y(t) have val >= 0, both halves are known
            mod t^P, and the quotient mod t^(v + P - max(vn, vd));
          * at O, x(t) = t^-2 (...) and y(t) = t^-3 (...) have relative
            precision P + 2 and P + 3, Horner's rule keeps P + 2 for both
            halves, and the quotient is known mod t^(v + P + 2).
        So P = precision - v + max(vn, vd), or precision - v - 2 at O, and at
        least 1.  A result short of that, or with valuation other than v, is
        an InvariantViolation.
        """
        if self.is_zero():
            raise DomainError("cannot expand the zero function")
        curve = self.curve
        curve.check_place(place)
        vn = _order(curve, self.n0, self.n1, place)
        vd = _order(curve, self.d0, [], place)
        v = vn - vd
        rel = -2 if place.is_infinity else max(vn, vd)
        # one param_series call per expansion, even the one that raises below,
        # keeps that call count equal to the expansion count
        xs, ys = curve.param_series(place, max(precision - v + rel, 1))
        if v >= precision:
            raise PrecisionError(
                f"requested precision {precision} does not exceed "
                f"the valuation {v} of the function")
        K = curve.field
        num = peval_series(K, self.n0, xs)
        if self.n1:
            num = num.add(peval_series(K, self.n1, xs).mul(ys))
        res = num.mul(peval_series(K, self.d0, xs).invert())
        if res.prec < precision or res.val != v:
            raise InvariantViolation(
                f"expansion at {place!r} has valuation {res.val} mod "
                f"t^{res.prec}; the order is {v} and {precision} was asked for")
        return res.truncate(precision)

    def ord_at(self, place):
        """Order of vanishing (negative for a pole) at the place: the order
        of the numerator minus that of d0, each exact (see _order)."""
        if self.is_zero():
            raise DomainError("the zero function has no order")
        self.curve.check_place(place)
        return (_order(self.curve, self.n0, self.n1, place)
                - _order(self.curve, self.d0, [], place))

    # -- io ---------------------------------------------------------------------
    def to_str(self):
        K = self.curve.field
        num = _poly_pair_str(K, self.n0, self.n1)
        den = _poly_pair_str(K, self.d0, [])
        return num if den == "1" else f"({num})/({den})"

    def __repr__(self):
        return self.to_str()


def _poly_pair_str(K, a0, a1):
    terms = []
    for i, c in enumerate(a0):
        if c != K.zero:
            terms.append(_term_str(K, c, i, ""))
    for i, c in enumerate(a1):
        if c != K.zero:
            terms.append(_term_str(K, c, i, "y"))
    return " + ".join(terms) if terms else "0"


def _term_str(K, c, i, suffix):
    xpart = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
    body = "*".join(filter(None, [xpart, suffix]))
    cs = K.elt_to_json(c)
    if body and cs == "1":
        return body
    return f"{cs}*{body}" if body else f"{cs}"


def _cubic(curve):
    return [curve.a6, curve.a4, curve.field.zero, curve.field.one]


def _norm(curve, n0, n1):
    """n0^2 - n1^2 (x^3 + a4 x + a6): (n0 + n1 y) times its conjugate."""
    K = curve.field
    return psub(K, pmul(K, n0, n0), pmul(K, pmul(K, n1, n1), _cubic(curve)))


def _root_mult(K, polys, x0):
    """(m, quotients): the largest m with (x - x0)^m dividing every one of
    polys (not all zero), and each divided by (x - x0)^m."""
    root, m = [K.neg(x0), K.one], 0
    while all(peval(K, a, x0) == K.zero for a in polys):
        polys = [pdivmod(K, a, root)[0] for a in polys]
        m += 1
    return m, polys


def _order(curve, n0, n1, place):
    """Order at the place of g = n0(x) + n1(x) y, not both zero.

    At O the terms have pole orders 2 deg n0 and 2 deg n1 + 3, of different
    parity, so the larger wins.  At P = (x0, y0) each common (x - x0) factor
    of n0 and n1 adds ord_P(x - x0): 2 where y0 = 0, else 1.  If what is left
    vanishes at P, add the root multiplicity of x0 in its norm N = g(P) g(-P),
    for ord_P N = ord_P g + ord_{-P} g equals:
      * ord_P g where y0 != 0, since g(-P) = 2 n0(x0) != 0 (n0(x0) = 0
        would force n1(x0) = 0, and that factor is gone);
      * 2 ord_P g where y0 = 0, since then P = -P, and ord_P(x - x0) = 2.
    """
    K = curve.field
    if place.is_infinity:
        return -max(2 * len(n0) - 2 if n0 else -1, 2 * len(n1) + 1 if n1 else -1)
    x0, y0 = place.x, place.y
    common, (n0, n1) = _root_mult(K, [n0, n1], x0)
    order = common * (2 if y0 == K.zero else 1)
    if K.add(peval(K, n0, x0), K.mul(peval(K, n1, x0), y0)) == K.zero:
        order += _root_mult(K, [_norm(curve, n0, n1)], x0)[0]
    return order


# --------------------------------------------------------------------------
# chord / vertical-line building blocks


def vertical_line(curve, P):
    """x - x_P, with divisor (P) + (-P) - 2(O)."""
    K = curve.field
    return FunctionRep(curve, [K.neg(P.x), K.one], [], [K.one])


def chord_line(curve, P, Q):
    """y - (lam x + nu) through P and Q (tangent if P == Q); not for vertical pairs."""
    K = curve.field
    if P.x == Q.x and K.add(P.y, Q.y) == K.zero:
        raise InputError("chord through a vertical pair; use vertical_line")
    if P == Q:
        num = K.add(K.mul(K.from_int(3), K.mul(P.x, P.x)), curve.a4)
        lam = K.div(num, K.add(P.y, P.y))
    else:
        lam = K.div(K.sub(Q.y, P.y), K.sub(Q.x, P.x))
    nu = K.sub(P.y, K.mul(lam, P.x))
    return FunctionRep(curve, [K.neg(nu), K.neg(lam)], [K.one], [K.one])


def _line_step(curve, P, Q):
    """(h, P+Q) with div(h) = (P) + (Q) - (P+Q) - (O)."""
    if P.is_infinity:
        return FunctionRep.one(curve), Q
    if Q.is_infinity:
        return FunctionRep.one(curve), P
    R = curve.point_add(P, Q)
    if R.is_infinity:
        return vertical_line(curve, P), R
    line = chord_line(curve, P, Q)
    return line.div(vertical_line(curve, R)), R


def _accumulate(curve, part):
    """For effective part = [(place, mult)], a function g and point T with
    div(g) = part - (T) - (deg - 1)(O)."""
    g = FunctionRep.one(curve)
    T = INFINITY
    first = True
    for place, mult in part:
        for _ in range(mult):
            if first:
                T = place
                first = False
                continue
            h, T = _line_step(curve, T, place)
            g = g.mul(h)
    return g, T


def principal_function(curve, D):
    """A function with divisor exactly D; requires D principal."""
    if not curve.is_principal(D):
        raise DomainError("divisor is not principal")
    pos = [(p, m) for p, m in D.items_sorted() if m > 0 and not p.is_infinity]
    neg = [(p, -m) for p, m in D.items_sorted() if m < 0 and not p.is_infinity]
    gp, tp = _accumulate(curve, pos)
    gn, tn = _accumulate(curve, neg)
    if tp != tn:
        raise InvariantViolation("principal divisor accumulated to mismatched points")
    f = gp.div(gn)
    for place, mult in D.items_sorted():
        if f.ord_at(place) != mult:
            raise InvariantViolation(
                f"constructed function has ord {f.ord_at(place)} != {mult} at {place!r}")
    return f


# --------------------------------------------------------------------------
# Riemann-Roch spaces


def _pole_basis_at_infinity(curve, m):
    """Basis of L(m(O)): monomials x^i and x^i y sorted by pole order, each
    paired with that pole order (2i or 2i + 3), which names it."""
    K = curve.field
    out = []
    for i in range(m // 2 + 1):
        if 2 * i <= m:
            xi = [K.zero] * i + [K.one]
            out.append((2 * i, FunctionRep(curve, xi, [], [K.one])))
    i = 0
    while 2 * i + 3 <= m:
        xi = [K.zero] * i + [K.one]
        out.append((2 * i + 3, FunctionRep(curve, [], xi, [K.one])))
        i += 1
    out.sort(key=lambda t: t[0])
    return out


def _simple_pole_function(curve, T):
    """(y + y_T)/(x - x_T): lies in L((T) + (O)) with an exact simple pole at T."""
    K = curve.field
    num = FunctionRep(curve, [T.y], [K.one], [K.one])
    return num.div(vertical_line(curve, T))


def _monomial_expansion(curve, key, b, place, prec):
    """b mod t^prec at the place, or None when b vanishes there to order
    >= prec.  Kept per (curve, place, key) at the largest precision asked
    for; smaller requests truncate it."""
    memo = curve._monomial_expansions
    got = memo.get((place, key))
    if got is None or got[0] < prec:
        try:
            exp = b.local_expansion(place, prec)
        except PrecisionError:
            exp = None
        got = (prec, exp)
        memo[(place, key)] = got
    exp = got[1]
    if exp is None or got[0] == prec:
        return exp
    exp = exp.truncate(prec)
    return exp if exp.coeffs else None


class RRBasis(list):
    """The basis b * hinv of L(D) that rr_basis returns, with its factors.

    `target` is an effective divisor linearly equivalent to D (m(O), or
    (T) + (m - 1)(O)), `monomials` the fixed basis of L(target) as
    (key, b) pairs, and hinv = 1/h for h with divisor D - target.  A key
    (pole order at O, or the pole T) names b on every curve, so expansions
    of b are shared by every basis on the curve (`_monomial_expansion`).
    """

    def __init__(self, curve, D, funcs=(), hinv=None, monomials=(), target=None):
        super().__init__(funcs)
        self.curve = curve
        self.D = D
        self.hinv = hinv
        self.monomials = list(monomials)
        self.target = target

    def base_change(self, e):
        """The same basis and factors over F_{q^e}."""
        if e == 1:
            return self
        if not self:
            return RRBasis(self.curve.base_change(e), self.D)
        return RRBasis(self.curve.base_change(e), self.D,
                       [f.base_change(e) for f in self], self.hinv.base_change(e),
                       [(key, b.base_change(e)) for key, b in self.monomials],
                       self.target)

    def normalized_rows(self, place, prec):
        """Per basis function f, the coefficients of t^0 .. t^(prec-1) of
        t^mult_place(D) * f, as bundle.normalized_series reads them.

        With a = mult_place(target) and v = a - mult_place(D) = ord(hinv),
        that series is (t^a b) * (t^-v hinv): a power series times a unit.
        So hinv is expanded once, mod t^(prec + v), each b mod t^(prec - a)
        (an expansion b lacks at that precision is a zero row), and each row
        is one truncated product.
        """
        K = self.curve.field
        zero = K.zero
        rows = [[zero] * prec for _ in self]
        if not self or prec <= 0:
            return rows
        a = self.target.mult(place)
        v = a - self.D.mult(place)
        unit = self.hinv.local_expansion(place, prec + v)
        if unit.val != v:
            raise InvariantViolation(
                f"1/h has order {unit.val} at {place!r}, its divisor says {v}")
        u = unit.coeffs
        for row, (key, b) in zip(rows, self.monomials):
            exp = _monomial_expansion(self.curve, key, b, place, prec - a)
            if exp is None:
                continue
            for i, c in enumerate(exp.coeffs, exp.val + a):
                if c == zero:
                    continue
                for j in range(min(len(u), prec - i)):
                    row[i + j] = K.add(row[i + j], K.mul(c, u[j]))
        return rows


def rr_basis(curve, D):
    """Basis of L(D) = {f : div(f) + D >= 0}; genus-1 dimensions are exact.

    The basis is b * hinv with b running through a fixed basis of L(target),
    target effective and linearly equivalent to D, and h = principal
    function of D - target.  The result is a list of those products, an
    RRBasis that also keeps hinv, the b and target, so expansions can be
    formed factor by factor (RRBasis.normalized_rows).
    """
    m = D.degree
    if m < 0:
        return RRBasis(curve, D)
    if m == 0:
        if curve.is_principal(D):
            f = principal_function(curve, D.neg())
            return RRBasis(curve, D, [f], f, [(0, FunctionRep.one(curve))], Divisor())
        return RRBasis(curve, D)
    T, shift = curve.divisor_reduce(D)
    s = m - 1
    if T.is_infinity:
        base = _pole_basis_at_infinity(curve, m)
        target = single(INFINITY, m)
    else:
        base = _pole_basis_at_infinity(curve, s)
        if s >= 1:
            base = base + [(T, _simple_pole_function(curve, T))]
        target = single(T).add(single(INFINITY, s))
    h = principal_function(curve, D.sub(target))
    hinv = h.inverse()
    return RRBasis(curve, D, [b.mul(hinv) for _, b in base], hinv, base, target)
