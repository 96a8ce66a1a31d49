"""Truncated Laurent series in a local uniformiser, with tracked precision.

A series is (valuation, coefficient window, precision N): it is known
exactly modulo t^N.  The window starts at the valuation and its first
entry is nonzero; an empty window means "indistinguishable from zero at
this precision", stored with valuation == precision.
"""

from __future__ import annotations

from .errors import PrecisionError


class LaurentSeries:

    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field, val, coeffs, prec):
        z = field.zero
        coeffs = list(coeffs)
        # normalize: leading zeros advance the valuation; clip to precision
        while coeffs and coeffs[0] == z:
            coeffs.pop(0)
            val += 1
        if val + len(coeffs) > prec:
            # past the precision nothing is known: a valuation at or above it
            # leaves the window empty
            del coeffs[max(prec - val, 0):]
            while coeffs and coeffs[0] == z:
                coeffs.pop(0)
                val += 1
        while coeffs and coeffs[-1] == z:
            coeffs.pop()
        if not coeffs:
            val = prec
        self.field = field
        self.val = val
        self.coeffs = coeffs
        self.prec = prec

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, field, prec):
        return cls(field, prec, [], prec)

    @classmethod
    def constant(cls, field, c, prec):
        return cls(field, 0, [c], prec)

    @classmethod
    def uniformiser(cls, field, prec):
        return cls(field, 1, [field.one], prec)

    # -- arithmetic ----------------------------------------------------------
    def add(self, other):
        K = self.field
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val)
        if lo >= prec:
            return LaurentSeries.zero(K, prec)
        out = [K.zero] * (prec - lo)
        for i, c in enumerate(self.coeffs):
            j = self.val + i - lo
            if j < len(out):
                out[j] = c
        for i, c in enumerate(other.coeffs):
            j = other.val + i - lo
            if j < len(out):
                out[j] = K.add(out[j], c)
        return LaurentSeries(K, lo, out, prec)

    def neg(self):
        K = self.field
        return LaurentSeries(K, self.val, [K.neg(c) for c in self.coeffs], self.prec)

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        K = self.field
        prec = min(self.prec + other.val, other.prec + self.val)
        if not self.coeffs or not other.coeffs:
            return LaurentSeries.zero(K, prec)
        lo = self.val + other.val
        n = prec - lo
        if n <= 0:
            return LaurentSeries.zero(K, prec)
        a, b = self.coeffs, other.coeffs
        out = [K.zero] * n
        for i, x in enumerate(a):
            if x == K.zero or i >= n:
                continue
            top = min(len(b), n - i)
            for j in range(top):
                out[i + j] = K.add(out[i + j], K.mul(x, b[j]))
        return LaurentSeries(K, lo, out, prec)

    def scalar_mul(self, c):
        K = self.field
        if c == K.zero:
            return LaurentSeries.zero(K, self.prec)
        return LaurentSeries(K, self.val, [K.mul(c, v) for v in self.coeffs], self.prec)

    def invert(self):
        K = self.field
        if not self.coeffs:
            raise PrecisionError(
                f"cannot invert a series indistinguishable from 0 mod t^{self.prec}")
        m = self.prec - self.val
        u = self.coeffs + [K.zero] * (m - len(self.coeffs))
        u0inv = K.inv(u[0])
        v = [u0inv] + [K.zero] * (m - 1)
        for k in range(1, m):
            acc = K.zero
            for i in range(1, k + 1):
                if u[i] != K.zero:
                    acc = K.add(acc, K.mul(u[i], v[k - i]))
            v[k] = K.neg(K.mul(u0inv, acc))
        return LaurentSeries(K, -self.val, v, self.prec - 2 * self.val)

    def truncate(self, n):
        return LaurentSeries(self.field, self.val, self.coeffs, min(self.prec, n))

    def __repr__(self):
        K = self.field
        if not self.coeffs:
            return f"O(t^{self.prec})"
        terms = [f"{c}*t^{self.val + i}" for i, c in enumerate(self.coeffs) if c != K.zero]
        return " + ".join(terms) + f" + O(t^{self.prec})"

