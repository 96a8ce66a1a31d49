"""Vector bundles presented as conditioned direct sums of line bundles.

A bundle is an ambient split bundle ⊕ O(D_i) cut down by fiberwise linear
conditions at finitely many places.  A condition is a linear functional on
the truncated jet of the normalized component vector: the component for
factor D_i is multiplied by t^{mult_p(D_i + twist)} before coefficients
are read, which makes conditions stable under arbitrary twists.

User-supplied bundles carry at most one order-0 condition per place
(an elementary modification); duals and elementary transformations are
produced internally and may carry several higher-order conditions at a
place.  Twisted global sections are computed exactly: ambient sections
come from Riemann-Roch bases factor by factor, and each condition
contributes one linear row.

A SectionBasis is a coefficient matrix over the Riemann-Roch bases of
L(D_i + twist), one per factor, never a list of summed functions.  The
bases come from rr_basis in factored form: every function is b * (1/h)
with b a monomial x^i, x^i y or the simple-pole function.  Their
normalized expansions are rows of plain field elements, kept in the
curve's Riemann-Roch memo once per (divisor, place) at the largest
precision asked for (funcfield.RRBasis.normalized_rows); this module
keeps no cache of its own.  The products b * (1/h) are formed only where
functions are read (`SectionBasis.vectors`).  Every section's components
are exact linear combinations of those rows (`section_coeffs`), and the
fibre scans read them in that form, with no series object built;
subsystems (random or adversarial projections) share the bases, so they
read the rows the full system made.  Expansion is linear modulo t^prec,
so every coefficient read is the one the summed function gives.

Base change to F_{q^e} converts no values (fields.py): by flat base change
H^0 over F_{q^e} is the lift of H^0 over F_q, so an extension scan
computes the sections over the base curve and lifts them through one
`base_change(e)`, which BundleSpec, RRBasis and SectionBasis each
provide: it keeps every factor, condition, polynomial and coefficient row
and only swaps in `curve.base_change(e)`.  A lifted Riemann-Roch basis
keeps its rows at the places of C(F_p) in the base basis's memo
(funcfield.RRBasis.base_change).
"""

from __future__ import annotations

from itertools import combinations

from .curve import Divisor
from .errors import InputError, Unsupported
from .funcfield import FunctionRep, rr_basis
from .linalg import mat_inverse, mat_rank_kernel


class Modification:
    """One linear condition at a place: sum over (order, covector) terms of
    covector . (coefficient of t^order of the normalized component vector)."""

    def __init__(self, place, terms):
        terms = [(int(o), tuple(cov)) for o, cov in terms]
        if not terms:
            raise InputError("modification with no terms")
        self.place = place
        self.terms = terms

    @classmethod
    def simple(cls, place, codirection):
        return cls(place, [(0, tuple(codirection))])

    @property
    def is_simple(self):
        return len(self.terms) == 1 and self.terms[0][0] == 0

    @property
    def max_order(self):
        return max(o for o, _ in self.terms)

    def codirection(self):
        if not self.is_simple:
            raise Unsupported("condition is not a single order-0 covector")
        return self.terms[0][1]


class BundleSpec:
    """⊕ O(D_i) with fiberwise linear conditions; rank r, degree Σdeg - #conditions."""

    def __init__(self, curve, factors, modifications=()):
        if not factors:
            raise InputError("a bundle needs at least one factor")
        self.curve = curve
        self.factors = [f if isinstance(f, Divisor) else Divisor(f) for f in factors]
        self.modifications = list(modifications)
        K = curve.field
        for mod in self.modifications:
            curve.check_place(mod.place)
            for _, cov in mod.terms:
                if len(cov) != self.rank:
                    raise InputError("condition covector length differs from rank")
                if all(c == K.zero for c in cov):
                    raise InputError("condition covector is zero")

    @property
    def rank(self):
        return len(self.factors)

    @property
    def degree(self):
        return sum(f.degree for f in self.factors) - len(self.modifications)

    @property
    def is_decomposable(self):
        return not self.modifications

    def mods_at(self, place):
        return [m for m in self.modifications if m.place == place]

    def base_change(self, e):
        """The same factors and conditions over F_{q^e}."""
        if e == 1:
            return self
        return BundleSpec(self.curve.base_change(e), self.factors, self.modifications)

    # -- serialization ------------------------------------------------------
    def to_json(self):
        c = self.curve
        return {
            "factors": [c.divisor_to_json(f) for f in self.factors],
            "modifications": [
                {"point": c.place_to_json(m.place),
                 "codirection": [c.field.elt_to_json(v) for v in m.codirection()]}
                for m in self.modifications],
        }

    def __repr__(self):
        return (f"BundleSpec(r={self.rank}, d={self.degree}, "
                f"mods={len(self.modifications)})")


# --------------------------------------------------------------------------
# derived bundles


def dual_twist(spec, M):
    """The bundle E^* ⊗ O(M).

    For ⊕O(D_i) this is ⊕O(M - D_i); each order-0 condition of E turns into
    an elementary transformation of the dual along its own covector.
    """
    base = BundleSpec(spec.curve, [M.sub(f) for f in spec.factors])
    for mod in spec.modifications:
        base = elementary_transform(base, mod.place, mod.codirection())
    return base


def wedge(spec, n):
    """⊕_{|I|=n} O(Σ_{i in I} D_i); decomposable input only."""
    if not spec.is_decomposable:
        raise Unsupported("wedge powers are only computed for decomposable bundles")
    if not (1 <= n <= spec.rank):
        raise InputError("wedge degree out of range")
    factors = []
    for idx in combinations(range(spec.rank), n):
        acc = Divisor()
        for i in idx:
            acc = acc.add(spec.factors[i])
        factors.append(acc)
    return BundleSpec(spec.curve, factors)


def _complement_basis(field, covector):
    """Reduced-echelon basis of the hyperplane covector^perp; for a direction
    these are the covectors cutting 'value lies on the line through it'."""
    return mat_rank_kernel(field, [covector], len(covector))[1]


def fiber_frame(spec, place):
    """Frame data for the fibre E|_p.

    Returns None at an unconditioned place (standard normalized frame).
    At a place carrying one simple condition c it returns (B's columns,
    B^-1's rows): B's columns are b_1 with c.b_1 != 0 and a reduced basis
    b_2.. of c^perp, and E's trivializing frame there is [t*b_1, b_2, ..].
    """
    mods = spec.mods_at(place)
    if not mods:
        return None
    if len(mods) > 1 or not mods[0].is_simple:
        raise Unsupported("fibre frames need a single order-0 condition at the place")
    K = spec.curve.field
    c = mods[0].codirection()
    pivot = next(i for i, v in enumerate(c) if v != K.zero)
    cols = [[K.one if i == pivot else K.zero for i in range(spec.rank)]]
    cols.extend(_complement_basis(K, c))
    return cols, mat_inverse(K, list(zip(*cols)))


def elementary_transform(spec, place, direction):
    """Sections of E with at most a simple extra pole at the place, polar part
    along the given fibre direction; degree rises by exactly one.

    The direction is expressed in the normalized fibre frame of E at the
    place (the frame of fiber_frame when the place is conditioned).
    """
    K = spec.curve.field
    spec.curve.check_place(place)
    r = spec.rank
    direction = tuple(direction)
    if len(direction) != r or all(v == K.zero for v in direction):
        raise InputError("direction must be a nonzero fibre vector")
    bumped = [f.add(Divisor({place: 1})) for f in spec.factors]
    other = [m for m in spec.modifications if m.place != place]
    frame = fiber_frame(spec, place)
    new_mods = []
    if frame is None:
        for w in _complement_basis(K, direction):
            new_mods.append(Modification(place, [(0, w)]))
    else:
        _, row = frame                # the rows of B^-1
        # polar coefficient must stay proportional to the direction: one
        # membership condition plus the span conditions, both through B^{-1}
        new_mods.append(Modification(place, [(0, tuple(row[0]))]))
        for w in _complement_basis(K, direction):
            cov0 = [K.zero] * r
            for i in range(1, r):
                if w[i] != K.zero:
                    for j in range(r):
                        cov0[j] = K.add(cov0[j], K.mul(w[i], row[i][j]))
            terms = []
            if any(v != K.zero for v in cov0):
                terms.append((0, tuple(cov0)))
            if w[0] != K.zero:
                terms.append((1, tuple(K.mul(w[0], v) for v in row[0])))
            if terms:
                new_mods.append(Modification(place, terms))
    return BundleSpec(spec.curve, bumped, other + new_mods)


# --------------------------------------------------------------------------
# twisted global sections


def normalized_series(f, place, shift, prec):
    """The coefficients of t^0 .. t^(prec-1) of t^shift * f; all zero for the
    zero function or when f vanishes to order >= prec - shift at the place,
    whose expansion is then the empty window."""
    out = [f.curve.field.zero] * prec
    exp = f.local_expansion(place, prec - shift)
    for j, c in enumerate(exp.coeffs, exp.val + shift):
        if 0 <= j < prec:
            out[j] = c
    return out


class SectionBasis:
    """Basis of H^0 of a twisted bundle, as a coefficient matrix over the
    Riemann-Roch bases of its factors: bases[slot] spans L(D_slot + twist),
    `slots` gives the slot of each of their functions in order, and row c
    holds the coefficients of section c on those functions."""

    def __init__(self, spec, twist, bases, coeffs):
        self.spec = spec
        self.twist = twist
        self.bases = bases
        self.coeffs = coeffs
        self.slots = [slot for slot, basis in enumerate(bases) for _ in range(len(basis))]

    @property
    def dimension(self):
        return len(self.coeffs)

    @property
    def vectors(self):
        """Each section as a vector of functions, summed on each read from
        the products b * (1/h) of the bases."""
        K = self.spec.curve.field
        zero = FunctionRep.zero(self.spec.curve)
        pairs = [(slot, f) for slot, basis in enumerate(self.bases) for f in basis]
        out = []
        for row in self.coeffs:
            vec = [zero] * self.spec.rank
            for c, (slot, f) in zip(row, pairs):
                if c != K.zero:
                    vec[slot] = vec[slot].add(f.scalar_mul(c))
            out.append(tuple(vec))
        return out

    def table(self, place, prec):
        """The normalized rows of every basis function, slot by slot, read
        from the curve's Riemann-Roch memo (RRBasis.normalized_rows)."""
        return [row for basis in self.bases for row in basis.normalized_rows(place, prec)]

    def base_change(self, e):
        """The same coefficient rows over the bases lifted to F_{q^e}."""
        if e == 1:
            return self
        return SectionBasis(self.spec.base_change(e), self.twist,
                            [basis.base_change(e) for basis in self.bases], self.coeffs)

    def section_coeffs(self, place, prec):
        """Per section, the r normalized components as lists of their
        coefficients of t^0 .. t^(prec-1)."""
        K = self.spec.curve.field
        zero = K.zero
        table = self.table(place, prec)
        out = []
        for row in self.coeffs:
            comps = [[zero] * prec for _ in range(self.spec.rank)]
            for c, slot, coeffs in zip(row, self.slots, table):
                if c == zero:
                    continue
                acc = comps[slot]
                for j in range(prec):
                    if coeffs[j] != zero:
                        acc[j] = K.add(acc[j], K.mul(c, coeffs[j]))
            out.append(comps)
        return out

    def to_json(self):
        return {
            "dimension": self.dimension,
            "twist": self.spec.curve.divisor_to_json(self.twist),
            "basis": [[f.to_str() for f in vec] for vec in self.vectors],
        }


def h0(spec, twist=None):
    """Exact basis of H^0(C, E(twist)) for a presented bundle E: the kernel of
    the condition rows on the Riemann-Roch bases of the split bundle."""
    curve = spec.curve
    K = curve.field
    if twist is None:
        twist = Divisor()
    bases = [rr_basis(curve, factor.add(twist)) for factor in spec.factors]
    sections = SectionBasis(spec, twist, bases, [])
    slots = sections.slots
    if not slots:
        return sections
    rows = []
    for mod in spec.modifications:
        table = sections.table(mod.place, mod.max_order + 1)
        row = []
        for slot, coeffs in zip(slots, table):
            acc = K.zero
            for order, cov in mod.terms:
                if cov[slot] != K.zero:
                    acc = K.add(acc, K.mul(cov[slot], coeffs[order]))
            row.append(acc)
        rows.append(row)
    return SectionBasis(spec, twist, bases, mat_rank_kernel(K, rows, len(slots))[1])


def chi_h1(spec, twist=None):
    """(chi, h1) for the twisted bundle; chi = degree at genus 1."""
    if twist is None:
        twist = Divisor()
    chi = spec.degree + spec.rank * twist.degree
    h1 = h0(spec, twist).dimension - chi
    return chi, h1
