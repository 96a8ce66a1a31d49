"""Function-field arithmetic on a short-Weierstrass curve.

Elements are fractions (n0(x) + n1(x) y) / d0(x) with the relation
y^2 = x^3 + a4 x + a6 folded in, so the y-degree never exceeds one and
denominators stay y-free (inverses are rationalised through the norm).
On top of the representation this module provides local expansions at a
place, divisor-prescribed function construction by chord/vertical-line
accumulation, and Riemann-Roch bases.

principal_function multiplies Miller's lines as unreduced polynomials and
normalises once per divisor.  The output does not depend on where the
normalisation happens: every chord y - lam x - nu and vertical x - x_R has
leading coefficient 1 in t = x/y at O, so the function has the prescribed
divisor and leading coefficient 1, and only one function has both; its
reduced form with monic d0 is unique too (see principal_function).

Orders are exact polynomial algebra, read off degrees at O and off root
multiplicities of the polynomials and of the norm at an affine place
(_order).  They size each local expansion, so it takes one pass.

The Riemann-Roch layer is memoised on the curve that owns it, keyed by
`Divisor.key()` (the support as a frozenset of (place, mult) pairs):
principal_function builds and ord_at-verifies each distinct divisor's
function once, and rr_basis builds each L(D) once.  The basis monomials
and each L(D)'s normalized rows are expanded once per place, at the
largest precision asked for; smaller requests truncate them.  A basis
lifted to F_{p^e} (RRBasis.base_change) keeps its rows at the places of
C(F_p) in the base basis's memo, so the scans of one divisor over F_p,
F_{p^2} and F_{p^3} expand such a place once; its rows at every other
place stay in the extension curve's memo.  The memo keeps plain data
only: normalised polynomial tuples, monomial keys, the target divisor,
series and rows of field elements.  FunctionRep wrappers are rebuilt
from it by FunctionRep._wrap, which skips normalisation.  A memo value
that held the curve would put the curve in a reference cycle, and every
finished task's memo would then stay alive until a full garbage
collection.
"""

from __future__ import annotations

from .curve import INFINITY, Divisor, Place, single
from .errors import DomainError, InputError, InvariantViolation
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
    a = pnorm(K, list(a))
    q = [K.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = K.inv(b[-1])
    while len(a) >= len(b):
        shift = len(a) - len(b)
        f = K.mul(a[-1], inv_lead)
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] = K.sub(a[shift + i], K.mul(f, c))
        pnorm(K, a)
    return pnorm(K, q), a


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
    def _wrap(cls, curve, n0, n1, d0):
        """The function of polynomials that are already y-reduced, coprime
        and with d0 monic, taken as they are: no normalisation."""
        f = object.__new__(cls)
        f.curve, f.n0, f.n1, f.d0 = curve, list(n0), list(n1), list(d0)
        return f

    @classmethod
    def zero(cls, curve):
        return cls(curve, [], [], [curve.field.one])

    @classmethod
    def one(cls, curve):
        return cls(curve, [curve.field.one], [], [curve.field.one])

    # -- predicates -----------------------------------------------------------
    def is_zero(self):
        return not self.n0 and not self.n1

    def __eq__(self, other):
        """Equal normal forms: the constructor's form (no common factor, d0
        monic) is unique for each function (see principal_function)."""
        return (isinstance(other, FunctionRep) and other.curve == self.curve
                and (self.n0, self.n1, self.d0) == (other.n0, other.n1, other.d0))

    # -- arithmetic -------------------------------------------------------------
    def mul(self, other):
        K = self.curve.field
        c = _cubic(self.curve)
        n0 = padd(K, pmul(K, self.n0, other.n0),
                  pmul(K, pmul(K, self.n1, other.n1), c))
        n1 = padd(K, pmul(K, self.n0, other.n1), pmul(K, self.n1, other.n0))
        return FunctionRep(self.curve, n0, n1, pmul(K, self.d0, other.d0))

    def add(self, other):
        K = self.curve.field
        n0 = padd(K, pmul(K, self.n0, other.d0), pmul(K, other.n0, self.d0))
        n1 = padd(K, pmul(K, self.n1, other.d0), pmul(K, other.n1, self.d0))
        return FunctionRep(self.curve, n0, n1, pmul(K, self.d0, other.d0))

    def scalar_mul(self, c):
        K = self.curve.field
        return FunctionRep(self.curve, pscal(K, c, self.n0), pscal(K, c, self.n1), self.d0)

    # -- expansion --------------------------------------------------------------
    def local_expansion(self, place, precision):
        """Expansion in the canonical uniformiser, correct modulo t^precision.

        The zero function, and a function that vanishes to order >= precision
        at the place, give the empty window (valuation == precision, no
        coefficients): zero modulo t^precision is an answer, not an error.

        Otherwise one pass, sized by the exact orders vn of the numerator, vd
        of d0 and v = vn - vd.  Series products and inverses keep the smaller
        relative precision (prec - val), so with x(t), y(t) known mod t^P:
          * at an affine place x(t), y(t) have val >= 0, both halves are known
            mod t^P, and the quotient mod t^(v + P - max(vn, vd));
          * at O, x(t) = t^-2 (...) and y(t) = t^-3 (...) have relative
            precision P + 2 and P + 3, Horner's rule keeps P + 2 for both
            halves, and the quotient is known mod t^(v + P + 2).
        So P = precision - v + max(vn, vd), or precision - v - 2 at O, and at
        least 1.  A result short of that, or with valuation other than v, is
        an InvariantViolation.
        """
        curve = self.curve
        curve.check_place(place)
        K = curve.field
        if self.is_zero():
            return LaurentSeries.zero(K, precision)
        vn = _order(curve, self.n0, self.n1, place)
        vd = _order(curve, self.d0, [], place)
        v = vn - vd
        rel = -2 if place.is_infinity else max(vn, vd)
        # one param_series call per nonzero expansion, even an empty one,
        # keeps that call count equal to the expansion count
        xs, ys = curve.param_series(place, max(precision - v + rel, 1))
        if v >= precision:
            return LaurentSeries.zero(K, precision)
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
    polys (not all zero), and each divided by (x - x0)^m.  Each pass is one
    synthetic division per polynomial, whose remainder is its value at x0;
    the first nonzero remainder ends the search."""
    m = 0
    while True:
        quotients = []
        for a in polys:
            q, rem = _synthetic_div(K, a, x0)
            if rem != K.zero:
                return m, polys
            quotients.append(q)
        polys = quotients
        m += 1


def _synthetic_div(K, a, x0):
    """(q, a(x0)) with a = (x - x0) q + a(x0), by Horner's rule."""
    acc, q = K.zero, []
    for c in reversed(a):
        acc = K.add(K.mul(acc, x0), c)
        q.append(acc)
    rem = q.pop() if q else K.zero
    q.reverse()
    return q, rem


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


def _chord(curve, P, Q):
    """[-nu, -lam] for the line y = lam x + nu through P and Q (tangent if
    P == Q); not for vertical pairs."""
    lam = curve.chord_slope(P, Q)
    if lam is None:
        raise InputError("chord through a vertical pair")
    K = curve.field
    nu = K.sub(P.y, K.mul(lam, P.x))
    return [K.neg(nu), K.neg(lam)]


def _accumulate(curve, part):
    """For effective part = [(place, mult)] of affine places, unreduced
    polynomials (a0, a1, ad) and a point T with
    div((a0 + a1 y)/ad) = part - (T) - (deg - 1)(O).

    Each step from T to T + P multiplies by the chord y - lam x - nu over
    the vertical x - x_{T+P}, or by the vertical x - x_P when T + P = O
    (Miller's line functions); y^2 is folded into a0 as the cubic.  Every
    factor has leading coefficient 1 at O, and so has the product."""
    K = curve.field
    cubic = _cubic(curve)
    a0, a1, ad = [K.one], [], [K.one]
    T = INFINITY
    for place, mult in part:
        for _ in range(mult):
            if T.is_infinity:
                T = place
                continue
            R = curve.point_add(T, place)
            if R.is_infinity:
                vertical = [K.neg(place.x), K.one]
                a0, a1 = pmul(K, a0, vertical), pmul(K, a1, vertical)
            else:
                # (a0 + a1 y)(l0 + y) = a0 l0 + a1 cubic + (a0 + a1 l0) y
                l0 = _chord(curve, T, place)
                a0, a1 = (padd(K, pmul(K, a0, l0), pmul(K, a1, cubic)),
                          padd(K, a0, pmul(K, a1, l0)))
                ad = pmul(K, ad, [K.neg(R.x), K.one])
            T = R
    return (a0, a1, ad), T


def _plain(f):
    """f's polynomials as tuples, the form the curve's memo keeps."""
    return (tuple(f.n0), tuple(f.n1), tuple(f.d0))


def principal_function(curve, D):
    """A function with divisor exactly D and leading coefficient 1 at O;
    requires D principal.

    The two Miller products (a0 + a1 y)/a_d for the positive part and
    (b0 + b1 y)/b_d for the negative part are accumulated unreduced and
    divided as (a0 + a1 y) b_d (b0 - b1 y) / (a_d N(b)), N(b) the norm, so
    the FunctionRep constructor normalises once.  The result is the one
    reduced form of the one function with that divisor and leading
    coefficient 1: the d0 with f d0 in F[x] + F[x] y form an ideal of F[x],
    and the monic generator is the only d0 left coprime to n0 and n1.

    Built and ord_at-verified once per divisor, then kept on the curve as
    its polynomials; a divisor that is not principal raises every time."""
    key = D.key()
    got = curve._principal_functions.get(key)
    if got is not None:
        return FunctionRep._wrap(curve, *got)
    if not curve.is_principal(D):
        raise DomainError("divisor is not principal")
    pos = [(p, m) for p, m in D.items_sorted() if m > 0 and not p.is_infinity]
    neg = [(p, -m) for p, m in D.items_sorted() if m < 0 and not p.is_infinity]
    (a0, a1, ad), tp = _accumulate(curve, pos)
    (b0, b1, bd), tn = _accumulate(curve, neg)
    if tp != tn:
        raise InvariantViolation("principal divisor accumulated to mismatched points")
    K = curve.field
    n0 = psub(K, pmul(K, a0, b0), pmul(K, pmul(K, a1, b1), _cubic(curve)))
    n1 = psub(K, pmul(K, a1, b0), pmul(K, a0, b1))
    f = FunctionRep(curve, pmul(K, n0, bd), pmul(K, n1, bd),
                    pmul(K, ad, _norm(curve, b0, b1)))
    for place, mult in D.items_sorted():
        if f.ord_at(place) != mult:
            raise InvariantViolation(
                f"constructed function has ord {f.ord_at(place)} != {mult} at {place!r}")
    curve._principal_functions[key] = _plain(f)
    return f


# --------------------------------------------------------------------------
# Riemann-Roch spaces


def _pole_orders(m):
    """Keys of the basis of L(m(O)): the pole orders 0, 2, 3, .., m of the
    monomials x^i (order 2i) and x^i y (order 2i + 3), sorted."""
    return [n for n in range(m + 1) if n != 1]


def _monomial(curve, key):
    """The basis function a key names: x^i for the pole order 2i at O, x^i y
    for 2i + 3, and for a place T the simple-pole function
    (y + y_T)/(x - x_T), which lies in L((T) + (O)) with an exact simple
    pole at T.  Each is written down in normal form (n1 or d0 is 1)."""
    K = curve.field
    if isinstance(key, Place):
        return FunctionRep._wrap(curve, pnorm(K, [key.y]), [K.one],
                                 [K.neg(key.x), K.one])
    odd = key % 2
    xi = [K.zero] * ((key - 3 * odd) // 2) + [K.one]
    return FunctionRep._wrap(curve, [] if odd else xi, xi if odd else [], [K.one])


def _monomial_expansion(curve, key, place, prec):
    """The monomial named by key mod t^prec at the place (the empty window
    when it vanishes there to order >= prec).  Kept per (curve, place, key)
    at the largest precision asked for; smaller requests truncate it."""
    memo = curve._monomial_expansions
    got = memo.get((place, key))
    if got is None or got[0] < prec:
        got = (prec, _monomial(curve, key).local_expansion(place, prec))
        memo[(place, key)] = got
    return got[1] if got[0] == prec else got[1].truncate(prec)


class _RRData:
    """What the curve keeps of one nonzero L(D), as plain data: hinv = 1/h
    as normalised polynomial tuples (n0, n1, d0), the monomial keys, the
    target divisor and `rows`, place -> (prec, the normalized rows at the
    largest precision asked for there).  On an extension curve, base_rows
    is the `rows` of the F_p basis this one was lifted from (None if it
    was not lifted); it holds the rows at the places of C(F_p)."""

    __slots__ = ("hinv", "keys", "target", "rows", "base_rows")

    def __init__(self, hinv, keys, target):
        self.hinv = hinv
        self.keys = keys
        self.target = target
        self.rows = {}
        self.base_rows = None


class RRBasis:
    """The basis b * hinv of L(D) that rr_basis returns, read through its
    factors.

    The target is an effective divisor linearly equivalent to D (m(O), or
    (T) + (m - 1)(O)), the b run through a fixed basis of L(target), each
    named by a key (pole order at O, or the pole T) that names it on every
    curve, and hinv = 1/h for h with divisor D - target.  Those factors
    live in the curve's memo (_RRData).  The products b * hinv are formed
    only when the basis is iterated (functions); its length and its
    expansions (normalized_rows) need only the factors.
    """

    def __init__(self, curve, D, data=None):
        self.curve = curve
        self.D = D
        self._data = data
        self._functions = None

    def __len__(self):
        return 0 if self._data is None else len(self._data.keys)

    def __iter__(self):
        return iter(self.functions)

    @property
    def functions(self):
        """The products b * hinv, formed on first read."""
        if self._functions is None:
            self._functions = []
            if self._data is not None:
                hinv = FunctionRep._wrap(self.curve, *self._data.hinv)
                self._functions = [_monomial(self.curve, key).mul(hinv)
                                   for key in self._data.keys]
        return self._functions

    def base_change(self, e):
        """The same basis over F_{p^e}.  Its factors join that curve's memo,
        and its rows at the places of C(F_p) are kept in this basis's memo,
        shared by every e.

        Sound because fields.extension_of only extends a prime field and
        packs elements so that the ints 0..p-1 are F_p in every extension.
        So a place that is O or has both coordinates below p is a place of
        C(F_p); its uniformiser (x - x0, y or x/y), param_series, hinv and
        the monomials are defined over F_p, and the arithmetic is exact, so
        its rows are the same ints at every e.  The rows dict is not shared
        as a whole: a packed int of p or more names different elements of
        F_{p^2} and F_{p^3}, so one Place key can name two places.
        """
        if e == 1:
            return self
        big = self.curve.base_change(e)
        data = self._data
        if data is not None:
            data = big._rr_bases.setdefault(
                self.D.key(), _RRData(data.hinv, data.keys, data.target))
            data.base_rows = self._data.rows
        return RRBasis(big, self.D, data)

    def normalized_rows(self, place, prec):
        """Per basis function f, the coefficients of t^0 .. t^(prec-1) of
        t^mult_place(D) * f, as bundle.normalized_series reads them.

        With a = mult_place(target) and v = a - mult_place(D) = ord(hinv),
        that series is (t^a b) * (t^-v hinv): a power series times a unit.
        So hinv is expanded mod t^(prec + v) unless it is 1, each b mod
        t^(prec - a) (kept per curve and place; a b that vanishes to that
        order is the empty window, so its row stays zero), and each row is
        one truncated product.
        The memo keeps them per place at the largest precision asked for (a
        smaller request reads a prefix); callers share its lists, read-only.
        A lifted basis keeps them at the places of C(F_p) in the base
        basis's memo (base_change says why that is sound).
        """
        data = self._data
        if data is None or prec <= 0:
            return [[] for _ in range(len(self))]
        memo = data.rows
        if data.base_rows is not None and (
                place.is_infinity or max(place.x, place.y) < self.curve.field.p):
            memo = data.base_rows
        got = memo.get(place)
        if got is not None and got[0] >= prec:
            return got[1] if got[0] == prec else [row[:prec] for row in got[1]]
        K = self.curve.field
        zero = K.zero
        rows = [[zero] * prec for _ in range(len(self))]
        a = data.target.mult(place)
        if data.target == self.D:         # h = 1: the unit is 1, nothing to expand
            u = [K.one]
        else:
            v = a - self.D.mult(place)
            hinv = FunctionRep._wrap(self.curve, *data.hinv)
            unit = hinv.local_expansion(place, prec + v)
            if unit.val != v:
                raise InvariantViolation(
                    f"1/h has order {unit.val} at {place!r}, its divisor says {v}")
            u = unit.coeffs
        for row, key in zip(rows, data.keys):
            exp = _monomial_expansion(self.curve, key, place, prec - a)
            for i, c in enumerate(exp.coeffs, exp.val + a):
                if c == zero:
                    continue
                for j in range(min(len(u), prec - i)):
                    row[i + j] = K.add(row[i + j], K.mul(c, u[j]))
        memo[place] = (prec, rows)
        return rows


def rr_basis(curve, D):
    """Basis of L(D) = {f : div(f) + D >= 0}; genus-1 dimensions are exact.

    The basis is b * hinv with b running through a fixed basis of L(target),
    target effective and linearly equivalent to D, and h = principal
    function of D - target; hinv is built directly as the principal
    function of target - D.  The result is an RRBasis: it sizes and
    compares as the list of those products, and keeps hinv, the b and
    target in the curve's memo (built once per divisor), so expansions can
    be formed factor by factor (RRBasis.normalized_rows).
    """
    m = D.degree
    if m < 0:
        return RRBasis(curve, D)
    key = D.key()
    data = curve._rr_bases.get(key)
    if data is not None:
        return RRBasis(curve, D, data)
    if m == 0:
        if not curve.is_principal(D):
            return RRBasis(curve, D)
        keys, target = [0], Divisor()
    else:
        T, s = curve.divisor_reduce(D)
        if T.is_infinity:
            keys, target = _pole_orders(m), single(INFINITY, m)
        else:
            keys = _pole_orders(s) + ([T] if s >= 1 else [])
            target = single(T).add(single(INFINITY, s))
    hinv = principal_function(curve, target.sub(D))
    data = _RRData(_plain(hinv), tuple(keys), target)
    curve._rr_bases[key] = data
    return RRBasis(curve, D, data)
