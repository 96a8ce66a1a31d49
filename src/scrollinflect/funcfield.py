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

Every expansion takes one route.  At a place x = t^a X(t) and y = t^b Y(t)
with X, Y power series (_SHIFTS): (a, b) = (0, 0) at an ordinary place
(t = x - x0, so X = x0 + t), (0, 1) at a ramified one (t = y, so Y = 1)
and (-2, -3) at O (t = x/y).  So x^i y^odd is t^(a i + b odd) X^i Y^odd,
and the curve keeps one table per place of X^i and X^i Y mod t^n, grown by
multiplying by X.  A half n0 + n1 y of a function is a combination of its
rows from t^s, s its least shift; to precision the quotient needs
N = (precision - v) + (vn - s) of its coefficients from t^s, vn the order
of the half and v that of the function (local_expansion says why), and
one division.  At O, s = vn and N = precision - v, so x(t) is read mod
t^(precision - v - 2), as X = t^2 x.

The Riemann-Roch layer is memoised on the curve that owns it, keyed by
`Divisor.key()` (the support as a frozenset of (place, mult) pairs):
principal_function builds and ord_at-verifies each distinct divisor's
function once, and rr_basis builds each L(D) once.  Each L(D)'s rows are
expanded once per place, at the largest precision asked for; smaller
requests truncate them.  The monomials x^i and x^i y are read off the
place's table, and so is the simple-pole key at an ordinary place other
than +-T, by one division of Y by a linear factor; elsewhere that key is
expanded by local_expansion and kept.  Each L(D) keeps two kinds
of rows per place: the normalized rows (the unit 1/h expanded in full)
and the unit-frame rows (1/h read only by its value there), which the
fibre scans read (RRBasis.frame_rows).  The memo keeps plain data only:
normalised polynomial tuples, monomial keys, the target divisor, series
and rows of field elements.  FunctionRep wrappers are rebuilt
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

        Otherwise one pass, sized by the exact orders vn of the numerator
        n0 + n1 y, vd of d0 and v = vn - vd.  With x = t^a X(t) and
        y = t^b Y(t) (_SHIFTS), each half is t^s times a power series, s the
        least shift a i + b odd of its terms, read as a combination of the
        place's rows of X^i and X^i Y (_combine).  The quotient mod
        t^precision is t^v u/w mod t^m, m = precision - v, for u and w the
        halves over t^vn and t^vd, and u/w mod t^m needs m coefficients of
        each.  So the numerator is read for N = (precision - v) + (vn - s)
        coefficients from t^s, d0 likewise from its own s.  Each term's row
        enters from its start, so the table must hold the larger N, and one
        param_series call gives X and Y that far (_param_windows).  At O the
        top-degree terms of a half have pole orders of different parity, so
        s is its order, N = precision - v, and the call asks for x(t) mod
        t^(precision - v - 2), as X = t^2 x(t).  At an affine place s = 0,
        or 1 where t = y and n0 = 0.  A leading window coefficient that
        disagrees with vn or vd is an InvariantViolation.

        At an affine place vn = vd = 0 without _order when d0(x0) and
        n0(x0) + n1(x0) y0 are both nonzero: there the functions are
        regular, so an order is 0 exactly when the value is nonzero.
        """
        curve = self.curve
        curve.check_place(place)
        K = curve.field
        if self.is_zero():
            return LaurentSeries.zero(K, precision)
        n0, n1, d0 = self.n0, self.n1, self.d0
        x0 = place.x
        if (not place.is_infinity and peval(K, d0, x0) != K.zero
                and K.add(peval(K, n0, x0), K.mul(peval(K, n1, x0), place.y)) != K.zero):
            vn = vd = 0
        else:
            vn = _order(curve, n0, n1, place)
            vd = _order(curve, d0, [], place)
        a, b = _SHIFTS[curve.uniformiser_kind(place)]
        sn = min(a * (len(p) - 1) + b * odd for odd, p in enumerate((n0, n1)) if p)
        sd = a * (len(d0) - 1)
        m = precision - vn + vd
        ln, ld = vn - sn, vd - sd
        # one param_series call per nonzero expansion, even an empty one,
        # keeps that call count equal to the expansion count
        n = max(m + max(ln, ld), 1)
        table = _place_table(curve, place, n, _param_windows(curve, place, n))
        if m <= 0:
            return LaurentSeries.zero(K, precision)
        num = _combine(K, table, a, b, n0, n1, sn, m + ln)
        den = _combine(K, table, a, b, d0, [], sd, m + ld)
        if any(c != K.zero for c in num[:ln] + den[:ld]) or num[ln] == K.zero \
                or den[ld] == K.zero:
            raise InvariantViolation(
                f"expansion coefficients at {place!r} disagree with the orders {vn} and {vd}")
        return LaurentSeries(K, vn - vd, _series_div(K, num[ln:], den[ld:]), precision)

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


# (a, b) with x = t^a X(t), y = t^b Y(t), per Curve.uniformiser_kind
_SHIFTS = {"generic": (0, 0), "ramified": (0, 1), "infinity": (-2, -3)}


def _param_windows(curve, place, n):
    """(X, Y) mod t^n from one param_series call asking for x(t), y(t) mod
    t^P, P = n + max(a, b) (at least 1).  Series shorter than P, starting
    below t^a or t^b, or out of step with the uniformiser, are an
    InvariantViolation."""
    K = curve.field
    a, b = _SHIFTS[curve.uniformiser_kind(place)]
    P = max(n + max(a, b), 1)
    xs, ys = curve.param_series(place, P)
    if xs.prec < P or ys.prec < P or xs.val < a or ys.val < b:
        raise InvariantViolation(f"param_series at {place!r} is not x(t), y(t) mod t^{P}")
    X = ([K.zero] * (xs.val - a) + xs.coeffs + [K.zero] * n)[:n]
    Y = ([K.zero] * (ys.val - b) + ys.coeffs + [K.zero] * n)[:n]
    # t = x/y makes X = Y, t = y makes Y = 1, t = x - x0 makes X = x0 + t
    got, want = (X, Y) if a else (Y, [K.one]) if b else (X, [place.x, K.one])
    if got != (want + [K.zero] * n)[:n]:
        raise InvariantViolation(f"param_series at {place!r} is not in its uniformiser")
    return X, Y


def _place_table(curve, place, n, windows=None):
    """The place's table, at least n long: the rows X^0, X^1, .. and
    Y, X Y, .. mod t^n (see _row), and X's nonzero terms.  A shorter one is
    rebuilt from windows, the (X, Y) of one _param_windows call (made here
    when not given); a longer one is read by prefix."""
    got = curve._monomial_tables.get(place)
    if got is None or len(got[1][0]) < n:
        K = curve.field
        X, Y = windows or _param_windows(curve, place, n)
        got = ([[K.one]], [Y], [(k, c) for k, c in enumerate(X) if c != K.zero])
        curve._monomial_tables[place] = got
    return got


def _row(K, table, odd, i):
    """X^i Y^odd mod t^n, n = len(Y), from the table, which grows a power at
    a time by multiplying by X over its nonzero terms.  A row ends where it
    must be zero: X^i = (x0 + t)^i has i + 1 coefficients where t = x - x0."""
    rows, steps = table[odd], table[2]
    while len(rows) <= i:
        add, mul, n = K.add, K.mul, len(table[1][0])
        m = rows[-1]
        new = [K.zero] * min(n, len(m) + (steps[-1][0] if steps else 0))
        for k, c in steps:
            for j in range(k, min(len(new), len(m) + k)):
                new[j] = add(new[j], mul(c, m[j - k]))
        rows.append(new)
    return rows[i]


def _combine(K, table, a, b, p0, p1, s, n):
    """The coefficients of t^s .. t^(s+n-1) of p0(x) + p1(x) y: c x^i y^odd
    is c t^(a i + b odd) X^i Y^odd, and s is at most every term's shift."""
    zero, add, mul = K.zero, K.add, K.mul
    out = [zero] * n
    for odd, p in enumerate((p0, p1)):
        if p:
            _row(K, table, odd, len(p) - 1)         # grows the rows through deg p
        for i, c in enumerate(p):
            off = a * i + b * odd - s
            if c != zero and off < n:
                row = table[odd][i]
                for j in range(min(n - off, len(row))):
                    out[off + j] = add(out[off + j], mul(c, row[j]))
    return out


def _series_div(K, u, w):
    """u / w mod t^len(u), for coefficient windows with w[0] != 0."""
    zero = K.zero
    inv = K.inv(w[0])
    negw = [K.neg(c) for c in w]
    q = []
    for k, a in enumerate(u):
        for i in range(1, k + 1):
            if negw[i] != zero:
                a = K.add(a, K.mul(negw[i], q[k - i]))
        q.append(K.mul(a, inv))
    return q


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


def _monomial_coeffs(curve, keys, place, prec):
    """Per key, (val, coeffs): the monomial it names mod t^prec at the
    place, coeffs[i] the coefficient of t^(val + i), zero past the end of
    the list (empty when it vanishes there to order >= prec); callers share
    the lists, read-only.

    x^i y^odd, the pole order 2i + 3 odd at O, is t^(a i + b odd) times
    X^i Y^odd, a row of the place's table (_place_table), which is sized
    once for every key.  At an ordinary place the simple-pole key is one
    division of Y(t) + y_T by the linear factor (x0 - x_T) + t unless
    x0 = x_T.  O, the ramified places and the places +-T expand it by
    local_expansion, kept per (curve, place, key) at the largest precision
    asked for; smaller requests truncate it."""
    K = curve.field
    a, b = _SHIFTS[curve.uniformiser_kind(place)]
    n = prec
    if a < 0:
        # only at O is a shift negative: there x^i y^odd has shift -key
        n += max((key for key in keys if not isinstance(key, Place)), default=0)
    table = _place_table(curve, place, max(n, 1))
    out = []
    for key in keys:
        if not isinstance(key, Place):
            odd = key % 2
            i = key // 2 - odd
            val, rows = a * i + b * odd, table[odd]
            if prec <= val:
                row = []
            else:
                row = rows[i] if i < len(rows) else _row(K, table, odd, i)
            out.append((val, row if len(row) <= prec - val else row[:prec - val]))
        elif (a, b) == (0, 0) and place.x != key.x:
            # (c + t) q = Y(t) + y_T, c = x0 - x_T: c q_j = Y_j - q_(j-1), y_T
            # entering as -q_(-1)
            inv, prev, q = K.inv(K.sub(place.x, key.x)), K.neg(key.y), []
            Y = _row(K, table, 1, 0)
            for j in range(prec):
                prev = K.mul(K.sub(Y[j], prev), inv)
                q.append(prev)
            out.append((0, q))
        else:
            memo = curve._monomial_expansions
            got = memo.get((place, key))
            if got is None or got[0] < prec:
                got = (prec, _monomial(curve, key).local_expansion(place, prec))
                memo[(place, key)] = got
            exp = got[1] if got[0] == prec else got[1].truncate(prec)
            out.append((exp.val, exp.coeffs))
    return out


class _RRData:
    """What the curve keeps of one nonzero L(D), as plain data: hinv = 1/h
    as normalised polynomial tuples (n0, n1, d0), the monomial keys, the
    target divisor, and per place (prec, rows) at the largest precision
    asked for there: the normalized rows in `rows`, the unit-frame rows in
    `frame` (RRBasis.frame_rows)."""

    __slots__ = ("hinv", "keys", "target", "rows", "frame")

    def __init__(self, hinv, keys, target):
        self.hinv = hinv
        self.keys = keys
        self.target = target
        self.rows = {}
        self.frame = {}


class RRBasis:
    """The basis b * hinv of L(D) that rr_basis returns, read through its
    factors.

    The target is an effective divisor linearly equivalent to D (m(O), or
    (T) + (m - 1)(O)), the b run through a fixed basis of L(target), each
    named by a key (pole order at O, or the pole T) that names it on every
    curve, and hinv = 1/h for h with divisor D - target.  Those factors
    live in the curve's memo (_RRData).  The products b * hinv are formed
    only when the basis is iterated (functions); its length and its
    expansions (normalized_rows, frame_rows) need only the factors.
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
        """The same basis over F_{p^e}; its factors join that curve's memo.

        Sound because fields.extension_of only extends a prime field and
        packs elements so that the ints 0..p-1 are F_p in every extension:
        hinv, the keys and the target are the same data there."""
        if e == 1:
            return self
        big = self.curve.base_change(e)
        data = self._data
        if data is not None:
            data = big._rr_bases.setdefault(
                self.D.key(), _RRData(data.hinv, data.keys, data.target))
        return RRBasis(big, self.D, data)

    def normalized_rows(self, place, prec):
        """Per basis function f, the coefficients of t^0 .. t^(prec-1) of
        t^mult_place(D) * f, as bundle.normalized_series reads them.

        With a = mult_place(target) and v = a - mult_place(D) = ord(hinv),
        that series is (t^a b) * (t^-v hinv): a power series times a unit.
        So hinv is expanded mod t^(prec + v) unless it is 1, each b mod
        t^(prec - a) (_monomial_coeffs; a b that vanishes to that order is
        the empty window, so its row stays zero), and each row is one
        truncated product.
        The memo keeps them per place at the largest precision asked for (a
        smaller request reads a prefix); callers share its lists, read-only.
        """
        return self._rows("rows", place, prec, self._unit_series)

    def frame_rows(self, place, prec):
        """normalized_rows with the unit t^-v hinv replaced by its value u0
        at the place: per basis function, u0 times the coefficients of
        t^0 .. t^(prec-1) of t^a b.  Every function of L(D) shares the unit,
        so these are the normalized rows in another local frame of O(D),
        which scroll.order_matrices reads at an unconditioned place (it says
        why the flags are the same).

        Where v = 0 and d0(x0) != 0, u0 = (n0 + n1 y0)(x0) / d0(x0), which
        must be nonzero; elsewhere hinv is expanded mod t^(v + 1) and must
        have order v.  Kept per place like normalized_rows, in `frame`."""
        return self._rows("frame", place, prec, self._unit_value)

    def _unit_series(self, place, prec, v):
        """t^-v hinv mod t^prec, as its coefficient list."""
        unit = FunctionRep._wrap(self.curve, *self._data.hinv).local_expansion(
            place, prec + v)
        if unit.val != v:
            raise InvariantViolation(
                f"1/h has order {unit.val} at {place!r}, its divisor says {v}")
        return unit.coeffs

    def _unit_value(self, place, prec, v):
        """[u0]: the value at the place of t^-v hinv."""
        K = self.curve.field
        n0, n1, d0 = self._data.hinv
        if v == 0 and not place.is_infinity:
            den = peval(K, d0, place.x)
            if den != K.zero:
                num = K.add(peval(K, n0, place.x), K.mul(peval(K, n1, place.x), place.y))
                if num == K.zero:
                    raise InvariantViolation(
                        f"1/h vanishes at {place!r}, its divisor says order 0")
                return [K.mul(num, K.inv(den))]
        return self._unit_series(place, 1, v)

    def _rows(self, slot, place, prec, unit):
        """The rows of t^a b times unit(place, prec, v), kept in the _RRData
        memo named by slot."""
        data = self._data
        if data is None or prec <= 0:
            return [[] for _ in range(len(self))]
        memo = getattr(data, slot)
        got = memo.get(place)
        if got is not None and got[0] >= prec:
            return got[1] if got[0] == prec else [row[:prec] for row in got[1]]
        K = self.curve.field
        zero = K.zero
        a = data.target.mult(place)
        # h = 1 when D is its own target: the unit is 1, nothing to expand
        u = [K.one] if data.target == self.D else unit(place, prec, a - self.D.mult(place))
        add, mul = K.add, K.mul
        rows = []
        for val, coeffs in _monomial_coeffs(self.curve, data.keys, place, prec - a):
            row = [zero] * prec
            for i, c in enumerate(coeffs, val + a):
                if c != zero:
                    for j in range(min(len(u), prec - i)):
                        row[i + j] = add(row[i + j], mul(c, u[j]))
            rows.append(row)
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
