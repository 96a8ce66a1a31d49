"""Exact scalar arithmetic: prime fields, small extension fields, rationals.

Element values are raw Python objects (ints for finite fields, Fraction for
the rationals); every container pairs them with the Field object that knows
how to combine them.  This keeps the hot loops (series products, Gaussian
elimination, fibre scans) free of wrapper allocation.

Extension fields F_{p^e} are restricted to e <= 3: irreducibility of the
modulus is then equivalent to having no root in F_p, which we verify
exhaustively.  Elements are packed as integers in base p (little-endian
coefficients); arithmetic goes through log/Zech-log tables, one extension
curve per base curve (Curve.base_change keeps it), so the tables are built
once per base curve and degree.

An element c of F_p packs to the int c in every F_{p^e}: the prime-field
elements are the constants of the packed representation.  So a point,
divisor, polynomial or coefficient row over C(F_p) is, unchanged, one over
C(F_{p^e}); base change swaps the curve and converts no values.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

_EXT_DEGREE_MAX = 3
# Largest field order q, prime or extension: the log/Zech-log tables, a
# curve's point list and the root search take O(q) time and memory.
_FIELD_ORDER_MAX = 20000


# ASCII digits with an optional leading minus: "\d" would take any Unicode
# digit, as int() does
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(obj):
    """obj as an int if it is a JSON integer (not a bool) or the decimal
    string of one, else None."""
    if type(obj) is int:
        return obj
    if isinstance(obj, str) and _INTEGER.fullmatch(obj):
        try:
            return int(obj)
        except ValueError:          # more digits than int() converts
            pass
    return None


def _check_order(q):
    """Refuse a field of order q before any work that grows with q."""
    if q > _FIELD_ORDER_MAX:
        raise InputError(f"field order {q} exceeds table limit {_FIELD_ORDER_MAX}")


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """Common interface; subclasses implement the raw operations."""

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def dot(self, xs, ys):
        acc = self.zero
        for x, y in zip(xs, ys):
            acc = self.add(acc, self.mul(x, y))
        return acc

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc, base = self.one, a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    @property
    def is_finite(self):
        return self.order is not None

    def validate(self, a):
        """a, if it is an element of this finite field: an int in [0, order)."""
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise InputError(f"{a!r} is not a reduced element of {self!r}")
        return a


class PrimeField(Field):
    """F_p, p prime, p not in {2, 3}; elements are ints in [0, p)."""

    kind = "prime"

    def __init__(self, p):
        _check_order(p)
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self.degree = 1
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def from_int(self, n):
        return n % self.p

    def frobenius(self, a):
        """a^p, which is a itself in F_p."""
        return a

    def elements(self):
        return range(self.p)

    def elt_to_json(self, a):
        return str(a)

    def elt_from_json(self, obj):
        """An integer, read mod p (see _integer)."""
        n = _integer(obj)
        if n is None:
            raise InputError(f"{obj!r} is not an element of F_{self.p}")
        return n % self.p

    def desc(self):
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class ExtensionField(Field):
    """F_{p^e} = F_p[t]/(modulus), e <= 3, via packed-int elements.

    modulus is the little-endian coefficient list of a monic irreducible
    polynomial of the stated degree over F_p.
    """

    kind = "extension"

    def __init__(self, p, modulus):
        e = len(modulus) - 1
        if not (1 <= e <= _EXT_DEGREE_MAX):
            raise InputError(f"extension degree {e} outside supported range 1..{_EXT_DEGREE_MAX}")
        q = p ** e
        _check_order(q)
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        modulus = [c % p for c in modulus]
        if modulus[-1] != 1:
            raise InputError("modulus must be monic")
        if e >= 2 and any(_poly_eval_mod(modulus, x, p) == 0 for x in range(p)):
            raise InputError("modulus has a root in the prime field, not irreducible")
        self.p = p
        self.char = p
        self.degree = e
        self.order = q
        self.modulus = tuple(modulus)
        self.zero = 0
        self.one = 1
        self._build_tables()

    # -- packed representation helpers ------------------------------------
    def _unpack(self, a):
        p, out = self.p, []
        for _ in range(self.degree):
            out.append(a % p)
            a //= p
        return out

    def _pack(self, coeffs):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * self.p + (c % self.p)
        return acc

    def _raw_mul(self, a, b):
        p, e = self.p, self.degree
        ca, cb = self._unpack(a), self._unpack(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        mod = self.modulus
        for i in range(len(prod) - 1, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
        return self._pack(prod[:e])

    def _digit_add(self, a, b):
        p, acc, mult = self.p, 0, 1
        for _ in range(self.degree):
            acc += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return acc

    def _build_tables(self):
        q = self.order
        for g in range(2, q):
            seen = 1
            acc = g
            expt = [1]
            while acc != 1:
                expt.append(acc)
                acc = self._raw_mul(acc, g)
                seen += 1
                if seen > q:
                    raise InputError("modulus is not irreducible (unit group too small)")
            if seen == q - 1:
                self._set_tables(expt)
                return
        raise InputError("no multiplicative generator found; modulus not irreducible")

    def _set_tables(self, expt):
        """Log, exp and Zech-log tables for the generator g with powers expt.

        The exp table holds two periods of g^i followed by zeros, and zero's
        log points into those zeros, so a sum of two logs indexes it with no
        reduction mod q - 1 and a zero factor needs no branch.  zech[n] is
        log(1 + g^n), zero's log where 1 + g^n = 0; add indexes it by
        log b - log a, and a negative index wraps to the same power of g.
        -1 = g^half, with half = 0 in characteristic 2.  frob[a] is a^p,
        read as g^(p log a).
        """
        qm1 = self.order - 1
        zero_log = 2 * qm1
        log = [zero_log] * self.order
        for i, v in enumerate(expt):
            log[v] = i
        self._exp = expt + expt + [0] * (2 * qm1 + 1)
        self._log = log
        self._zech = [log[self._digit_add(1, v)] for v in expt]
        self._half = qm1 // 2 if self.p != 2 else 0
        self._frob = [0] + [expt[self.p * log[a] % qm1] for a in range(1, self.order)]

    # -- field operations --------------------------------------------------
    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def neg(self, a):
        return self._exp[self._log[a] + self._half]

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.order - 1 - self._log[a]]

    def from_int(self, n):
        return n % self.p

    def frobenius(self, a):
        """a^p: the automorphism generating Gal(F_{p^e}/F_p)."""
        return self._frob[a]

    def elements(self):
        return range(self.order)

    def elt_to_json(self, a):
        return self._unpack(a)

    def elt_from_json(self, obj):
        """An integer, a constant of F_p read mod p (see _integer), or a
        list of at most degree of them, the little-endian coefficients."""
        coeffs = [_integer(c) for c in obj] if isinstance(obj, list) else [_integer(obj)]
        if None in coeffs or len(coeffs) > self.degree:
            raise InputError(f"{obj!r} is not an element of {self!r}")
        return self._pack(coeffs)

    def desc(self):
        return {"kind": "extension", "p": self.p, "degree": self.degree,
                "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ext", self.p, self.modulus))

    def __repr__(self):
        return f"F_{self.p}^{self.degree}"


class RationalField(Field):
    """The rationals, via Fraction (gcd-normalized, exact)."""

    kind = "rationals"

    def __init__(self):
        self.char = 0
        self.order = None
        self.degree = 1
        self.p = None
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def from_int(self, n):
        return Fraction(n)

    def validate(self, a):
        if not isinstance(a, Fraction):
            raise InputError(f"{a!r} is not a Fraction")
        return a

    def elt_to_json(self, a):
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def elt_from_json(self, obj):
        """An integer (see _integer), or a string "n/d" of two, d nonzero."""
        num, sep, den = obj.partition("/") if isinstance(obj, str) else (obj, "", "")
        n, d = _integer(num), _integer(den) if sep else 1
        if n is None or not d:
            raise InputError(f"{obj!r} is not a rational number")
        return Fraction(n, d)

    def desc(self):
        return {"kind": "rationals"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


def _poly_eval_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def find_irreducible(p, degree):
    """Smallest monic irreducible of the given degree over F_p, by packed order."""
    if not 1 <= degree <= _EXT_DEGREE_MAX:
        raise InputError(f"degree {degree} outside supported range")
    _check_order(p ** degree)
    if degree == 1:
        return [0, 1]
    for packed in range(p ** degree):
        coeffs = [packed // p ** i % p for i in range(degree)] + [1]
        if all(_poly_eval_mod(coeffs, x, p) != 0 for x in range(p)):
            return coeffs
    raise InputError("no irreducible found")  # unreachable for prime p


def extension_of(field, e):
    """Degree-e extension of a prime field (identity when e == 1)."""
    if e == 1:
        return field
    if not isinstance(field, PrimeField):
        raise InputError("base change is only supported from a prime field")
    return ExtensionField(field.p, find_irreducible(field.p, e))
