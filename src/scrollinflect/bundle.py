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

A SectionBasis is a coefficient matrix over that ambient basis, never a
list of summed functions.  The ambient functions are expanded once per
place, at the largest precision asked for, and kept as plain lists of
field elements.  Those tables are built in the factored form rr_basis
returns: every function of a factor's basis is b * (1/h) with b a
monomial x^i, x^i y or the simple-pole function, so each b is expanded
once per place and kept on the curve (funcfield's Riemann-Roch memo),
1/h is expanded once per table (unless it is 1), and each row is
their truncated product.  The products b * (1/h) are formed only where
functions are read (`SectionBasis.vectors`).  Every section's
components are exact linear combinations of those lists
(`section_coeffs`), and the fibre scans read them in that form, with no
series object built; subsystems (random or adversarial projections)
share the ambient basis and its expansions.  Expansion is linear modulo
t^prec, so every coefficient read is the one the summed function gives.

Base change to F_{q^e} converts no values (fields.py): by flat base change
H^0 over F_{q^e} is the lift of H^0 over F_q, so an extension scan
computes the sections over the base curve and lifts them through one
`base_change(e)`, which BundleSpec, RRBasis, AmbientBasis and
SectionBasis each provide: it keeps every factor, condition, polynomial
and coefficient row and only swaps in `curve.base_change(e)`.
"""

from __future__ import annotations

from itertools import combinations

from .curve import Divisor
from .errors import InputError, PrecisionError, Unsupported
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

    def validate_presentation(self):
        """User-facing invariants: simple conditions at pairwise distinct places."""
        seen = set()
        for mod in self.modifications:
            if not mod.is_simple:
                raise InputError("user bundles carry single order-0 conditions only")
            if mod.place in seen:
                raise InputError("modification places must be pairwise distinct")
            seen.add(mod.place)
        return self

    def twist(self, A):
        """The same conditions over factors D_i + A (the bundle E(A))."""
        return BundleSpec(self.curve, [f.add(A) for f in self.factors],
                          self.modifications)

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

    @classmethod
    def from_json(cls, curve, obj):
        K = curve.field
        if "factors" not in obj:
            raise InputError(f"bundle {obj!r} has no 'factors' key")
        factors, mods = obj["factors"], obj.get("modifications", [])
        if not isinstance(factors, list) or not isinstance(mods, list):
            raise InputError("bundle factors and modifications must be lists")
        for m in mods:
            if not isinstance(m, dict) or not isinstance(m.get("codirection"), list):
                raise InputError("a modification is an object with a codirection list")
            if "point" not in m:
                raise InputError(f"modification {m!r} has no 'point' key")
        factors = [curve.divisor_from_json(f) for f in factors]
        mods = [Modification.simple(curve.place_from_json(m["point"]),
                                    [K.elt_from_json(v) for v in m["codirection"]])
                for m in mods]
        return cls(curve, factors, mods).validate_presentation()

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
    zero function or when f vanishes to order >= prec - shift at the place."""
    out = [f.curve.field.zero] * prec
    if f.is_zero():
        return out
    try:
        exp = f.local_expansion(place, prec - shift)
    except PrecisionError:
        return out
    for j, c in enumerate(exp.coeffs, exp.val + shift):
        if 0 <= j < prec:
            out[j] = c
    return out


class AmbientBasis:
    """The (slot, f) pairs with f running through a Riemann-Roch basis of
    L(D_slot + twist), for each factor D_slot of a bundle; `bases` holds
    those bases, one per slot, in the factored form rr_basis returns, and
    `slots` the slot of each pair.  The functions f are formed only when
    `pairs` is read; the tables and h0 need only the slots.

    Normalized expansions are computed once per place, at the largest
    precision asked for so far, and truncated for smaller requests: the
    coefficient tables of t^0 .. t^(prec-1) are what every section basis
    over this ambient list combines.  A table is built factor by factor
    (funcfield.RRBasis.normalized_rows): each slot's 1/h is expanded once
    per table, each x^i, x^i y or simple-pole numerator comes from one
    expansion kept on the curve, and each row is their product.
    """

    def __init__(self, curve, factors, twist, bases):
        self.curve = curve
        self.factors = factors
        self.twist = twist
        self.bases = bases
        self.slots = [slot for slot, basis in enumerate(bases) for _ in range(len(basis))]
        self._tables = {}          # place -> (prec, one coefficient list per pair)
        self._base_changes = {}    # e -> the same pairs over F_{q^e}

    @property
    def pairs(self):
        """The (slot, f) pairs; reading them forms each product b * (1/h)."""
        return [(slot, f) for slot, basis in enumerate(self.bases) for f in basis]

    def shift(self, slot, place):
        return self.twist.mult(place) + self.factors[slot].mult(place)

    def table(self, place, prec):
        got = self._tables.get(place)
        if got is None or got[0] < prec:
            rows = [row for basis in self.bases
                    for row in basis.normalized_rows(place, prec)]
            got = (prec, rows)
            self._tables[place] = got
        return got[1]

    def base_change(self, e):
        """The same pairs over F_{q^e}, built once per degree."""
        if e == 1:
            return self
        lifted = self._base_changes.get(e)
        if lifted is None:
            lifted = AmbientBasis(self.curve.base_change(e), self.factors, self.twist,
                                  [basis.base_change(e) for basis in self.bases])
            self._base_changes[e] = lifted
        return lifted


class SectionBasis:
    """Basis of H^0 of a twisted bundle, as a coefficient matrix over an
    ambient basis: row c holds the coefficients of section c on the pairs."""

    def __init__(self, spec, ambient, coeffs):
        self.spec = spec
        self.ambient = ambient
        self.coeffs = coeffs
        self._vectors = None

    @property
    def dimension(self):
        return len(self.coeffs)

    @property
    def twist(self):
        return self.ambient.twist

    @property
    def vectors(self):
        """Each section as a vector of functions, summed on first use."""
        if self._vectors is None:
            K = self.spec.curve.field
            zero = FunctionRep.zero(self.spec.curve)
            pairs = self.ambient.pairs
            self._vectors = []
            for row in self.coeffs:
                vec = [zero] * self.spec.rank
                for c, (slot, f) in zip(row, pairs):
                    if c != K.zero:
                        vec[slot] = vec[slot].add(f.scalar_mul(c))
                self._vectors.append(tuple(vec))
        return self._vectors

    def component_shift(self, i, place):
        return self.ambient.shift(i, place)

    def base_change(self, e):
        """The same coefficient rows over the ambient basis lifted to F_{q^e}."""
        if e == 1:
            return self
        return SectionBasis(self.spec.base_change(e), self.ambient.base_change(e),
                            self.coeffs)

    def section_coeffs(self, place, prec):
        """Per section, the r normalized components as lists of their
        coefficients of t^0 .. t^(prec-1)."""
        K = self.spec.curve.field
        zero = K.zero
        table = self.ambient.table(place, prec)
        out = []
        for row in self.coeffs:
            comps = [[zero] * prec for _ in range(self.spec.rank)]
            for c, slot, coeffs in zip(row, self.ambient.slots, table):
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
    the condition rows on the ambient basis of the split bundle."""
    curve = spec.curve
    K = curve.field
    if twist is None:
        twist = Divisor()
    ambient = AmbientBasis(curve, spec.factors, twist,
                           [rr_basis(curve, factor.add(twist)) for factor in spec.factors])
    slots = ambient.slots
    if not slots:
        return SectionBasis(spec, ambient, [])
    rows = []
    for mod in spec.modifications:
        table = ambient.table(mod.place, mod.max_order + 1)
        row = []
        for slot, coeffs in zip(slots, table):
            acc = K.zero
            for order, cov in mod.terms:
                if cov[slot] != K.zero:
                    acc = K.add(acc, K.mul(cov[slot], coeffs[order]))
            row.append(acc)
        rows.append(row)
    return SectionBasis(spec, ambient, mat_rank_kernel(K, rows, len(slots))[1])


def chi_h1(spec, twist=None):
    """(chi, h1) for the twisted bundle; chi = degree at genus 1."""
    if twist is None:
        twist = Divisor()
    chi = spec.degree + spec.rank * twist.degree
    h1 = h0(spec, twist).dimension - chi
    return chi, h1
