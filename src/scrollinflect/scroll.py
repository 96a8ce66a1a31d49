"""Osculating dimensions and inflection loci of P(E) -> |O(1) (x) M|^*.

The model is evaluated through truncated Taylor data: for a point x in the
fibre over p with direction v, the order-(< k) coefficients of the twisted
dual sections in every fibre direction, together with their order-k
coefficients along v, span a space of dimension dim Osc + 1.  Two
independent routes are provided:

* jet route - expand each section at p, read those coefficients in the
  fibre frame and take their rank;
* transformation route - compare h^0 of twists of E against the bundle of
  sections with one extra pole at p along v.

Exhaustive fibre scans over F_{q^e} classify each fibre's deficient
directions as a projective-linear condition, so no per-direction rank
computation is needed.  A ScanContext has one sections path: H^0 of the
twisted dual over the base curve (or the subsystem it is given), lifted to
F_{q^e} through `base_change(e)`; the bundle and the twist class serve
over the extension as they are.  All of these are defined over F_q, so
the Taylor data at a conjugate place sigma(p) is the Frobenius image of
the data at p: an extension context expands the order matrices at one
place per Frobenius orbit and maps them entrywise to the rest of the
orbit (ScanContext).  Taylor data stays in one form from the
Riemann-Roch rows to the classification: plain lists of field elements,
put in the fibre frame by one helper (`_frame_coords`).  The
osculating spans Osc^0 ⊂ Osc^1 ⊂ ... of a fibre are nested, so a
ScanContext keeps one echelon accumulator per place, grown order by order
(`flag`); every jet order, the centre-avoidance test of projections and
the global generation check read prefixes of it.

The subsheaf-witness side reads only h^0 and fibre values, never the jet
flag.  Its level-k witness set W_k at p is the image of
V_k = H^0(M^{-1}E((k+1)p)) in the fibre, and the exact sequence
0 -> M^{-1}E(kp) -> M^{-1}E((k+1)p) -> fibre at p gives
rank W_k = dim V_k - h^0(M^{-1}E(kp)); so witnesses of some level below k
exist iff h^0(M^{-1}E(kp)) > h^0(M^{-1}E), one count in place of k
witness sets (`_witness_cross_check`).  Over F_{q^e}, e > 1, the witness
sets are built at one place per Frobenius orbit and read elsewhere as
images (`witness_sets`), for the reason the order matrices are: E, M and
the Riemann-Roch bases are defined over F_q.  Both take their orbits from
`frobenius_orbits`, which walks `Curve.frobenius` and forms no orbit at
e = 1, where the base field need not be prime.
"""

from __future__ import annotations

import random
from itertools import product

# normalized_series is imported, not called: perfbench/tracer.py wraps it
# under every engine name, and perfbench/selftest.py and
# tests/test_bench_bindings.py assert this binding (theorems imports it here)
from .bundle import (SectionBasis, dual_twist, elementary_transform,
                     fiber_frame, h0, normalized_series)
from .curve import single
from .errors import InputError, InvariantViolation, Unsupported
from .linalg import EchelonAccumulator, mat_rank_kernel

_ORACLE_SAMPLES = 2         # fibres on which scan_report runs the pole-counting route


def check_jet_order(field, k):
    if k < 0:
        raise InputError("jet order must be nonnegative")
    if field.char and k + 1 >= field.char:
        raise InputError(
            f"jet order {k} needs k + 1 < characteristic {field.char}")


def check_twist(M):
    if M.degree != 0:
        raise InputError("the twist class must have degree zero")


def normalize_direction(field, direction):
    direction = tuple(direction)
    for v in direction:
        field.validate(v)
    for i, v in enumerate(direction):
        if v != field.zero:
            inv = field.inv(v)
            return tuple(field.mul(inv, w) for w in direction)
    raise InputError("direction must be nonzero")


class ScrollPoint:
    """A point of P(E): a place of C plus a projective fibre direction.

    At a place carrying an elementary modification the coordinates refer to
    the modification-adapted frame (see bundle.fiber_frame); elsewhere they
    are the normalized split-frame coordinates.
    """

    __slots__ = ("place", "direction")

    def __init__(self, field, place, direction):
        self.place = place
        self.direction = normalize_direction(field, direction)

    def __eq__(self, other):
        return (isinstance(other, ScrollPoint) and other.place == self.place
                and other.direction == self.direction)

    def __hash__(self):
        return hash((self.place, self.direction))

    def __repr__(self):
        return f"({self.place!r}; {list(self.direction)})"


def projective_points(field, basis):
    """All projective points of the span, one normalized representative each."""
    if not basis:
        return []
    d = len(basis)
    pts = []
    for lead in range(d):
        for tail in product(list(field.elements()), repeat=d - lead - 1):
            coeffs = [field.zero] * lead + [field.one] + list(tail)
            vec = [field.zero] * len(basis[0])
            for lam, b in zip(coeffs, basis):
                if lam != field.zero:
                    for i, c in enumerate(b):
                        vec[i] = field.add(vec[i], field.mul(lam, c))
            pts.append(normalize_direction(field, vec))
    return pts


def standard_basis(field, r):
    return [tuple(field.one if j == i else field.zero for j in range(r))
            for i in range(r)]


# --------------------------------------------------------------------------
# frame coordinates of dual sections at a place


def _frame_coords(K, rows, comps, raised, violation):
    """The coordinates row . comps, one per row, of a fibre vector whose
    components are given as coefficient lists.  A coordinate whose index is
    in `raised` must vanish at t^0 (else InvariantViolation(violation)) and
    is read one order up."""
    n = min(len(comp) for comp in comps)
    out = []
    for i, row in enumerate(rows):
        acc = [K.zero] * n
        for a, comp in zip(row, comps):
            if a == K.zero:
                continue
            for j in range(n):
                if comp[j] != K.zero:
                    acc[j] = K.add(acc[j], K.mul(a, comp[j]))
        if i in raised:
            if acc[0] != K.zero:
                raise InvariantViolation(violation)
            acc = acc[1:]
        out.append(acc)
    return out


def alpha_series(E_spec, sections, place, k_max):
    """Per section, the r coordinate coefficient lists in the trivializing
    frame of the fibre at the place, each at least k_max + 1 long."""
    frame = fiber_frame(E_spec, place)
    if frame is None:
        return sections.section_coeffs(place, k_max + 1)
    raised = range(1, E_spec.rank)
    return [_frame_coords(E_spec.curve.field, frame[0], comps, raised,
                          "dual section has an illegal polar part at a modified place")
            for comps in sections.section_coeffs(place, k_max + 2)]


def lead_vectors(E_spec, place, coeffs):
    """Fibre value at the place of each section given by its normalized
    component coefficient lists (at least two coefficients), in the frame of
    bundle.fiber_frame: at a conditioned place the first coordinate is read
    one order up, where the carried condition leaves it."""
    frame = fiber_frame(E_spec, place)
    if frame is None:
        return [tuple(comp[0] for comp in comps) for comps in coeffs]
    return [tuple(z[0] for z in _frame_coords(
                E_spec.curve.field, frame[1], comps, (0,),
                "section violates the carried condition at a modified place"))
            for comps in coeffs]


def order_matrices(E_spec, sections, place, k_max):
    """B_j (r x dim V) for j = 0..k_max: B_j[i][c] = t^j-coefficient of the
    i-th frame coordinate of section c."""
    alphas = alpha_series(E_spec, sections, place, k_max)
    return [[[alpha[i][j] for alpha in alphas] for i in range(E_spec.rank)]
            for j in range(k_max + 1)]


# --------------------------------------------------------------------------
# single-point jets


def jet_matrix(E_spec, M, x, k, sections=None):
    """The (kr+1) x (n+1) Taylor-coefficient matrix at x, exact, as rows.

    Rows: the r frame coordinates of the sections at each order j < k, in
    order, then their order-k coefficients dotted with x's direction.  Its
    row space is Osc^k at x, which no choice of frame enters: the rank is
    dim Osc^k + 1.
    """
    K = E_spec.curve.field
    check_jet_order(K, k)
    check_twist(M)
    if sections is None:
        sections = h0(dual_twist(E_spec, M))
    if len(x.direction) != E_spec.rank:
        raise InputError("direction must be a nonzero fibre vector")
    alphas = alpha_series(E_spec, sections, x.place, k)
    rows = [[alpha[i][j] for alpha in alphas]
            for j in range(k) for i in range(E_spec.rank)]
    rows.append([K.dot(x.direction, [coords[k] for coords in alpha])
                 for alpha in alphas])
    return rows


def osc_dim(E_spec, M, x, k, sections=None):
    """dim Osc^k at x: the rank of jet_matrix less one (-1 when the point
    is a base point of the system)."""
    rows = jet_matrix(E_spec, M, x, k, sections=sections)
    return mat_rank_kernel(E_spec.curve.field, rows, len(rows[0]))[0] - 1


def osc_dim_oracle(E_spec, M, x, k):
    """Same dimension through pole-order counting, independent of jets:
    kr - [h^0(M^{-1} (x) Etilde(k p)) - h^0(M^{-1} (x) E)] at genus 1."""
    K = E_spec.curve.field
    check_jet_order(K, k)
    check_twist(M)
    Et = elementary_transform(E_spec, x.place, x.direction)
    h_base = h0(E_spec, M.neg()).dimension
    h_et = h0(Et, M.neg().add(single(x.place, k))).dimension
    return k * E_spec.rank - (h_et - h_base)


# --------------------------------------------------------------------------
# subsheaf witnesses (fibres of the incidence parameter space)


class WitnessSet:
    """Directions at a place reached by degree -(k+1) invertible subsheaves
    that embed as subbundles there."""

    def __init__(self, place, k, span, dimension):
        self.place = place
        self.k = k
        self.span = span            # EchelonAccumulator of the direction space
        self.dimension = dimension  # dim H^0(M^{-1}E((k+1)p))

    @property
    def directions(self):
        """Every projective direction of the span, enumerated on each read."""
        return projective_points(self.span.field, self.span.rows)

    @property
    def is_empty(self):
        return self.span.rank == 0

    def contains(self, direction):
        K = self.span.field
        return not any(c != K.zero for c in self.span.residue(direction))


def subsheaf_witnesses(E_spec, M, place, k):
    """The witness directions at the place: leading fibre vectors of maps
    O(-(k+1)p) -> M^{-1}E with a pole of order exactly k+1 at p."""
    check_twist(M)
    V = h0(E_spec, M.neg().add(single(place, k + 1)))
    acc = EchelonAccumulator(E_spec.curve.field, E_spec.rank)
    for lead in lead_vectors(E_spec, place, V.section_coeffs(place, 2)):
        acc.insert(lead)
    return WitnessSet(place, k, acc, V.dimension)


def frobenius_orbits(base_curve, ext_degree):
    """The points of base_curve over F_{q^e} as Frobenius orbits
    [p, sigma(p), sigma^2(p), ...], each from its first place in points()
    order; sigma is Curve.frobenius.

    Reading data at sigma(p) as the image of the data at p is sound only
    when everything it is computed from (curve, bundle, twist) is defined
    over F_q with sigma: a -> a^q.  Base change from e > 1 needs a prime
    base field (fields.extension_of), so there it holds; at e = 1 the
    curve may itself be over F_{p^d}, its points, factors and twists not
    fixed by a -> a^p, and every place is an orbit of its own."""
    curve = base_curve.base_change(ext_degree)
    if ext_degree == 1:
        return [[place] for place in curve.points()]
    orbits, seen = [], set()
    for place in curve.points():
        if place in seen:
            continue
        orbit, image = [place], curve.frobenius(place)
        while image != place:
            orbit.append(image)
            image = curve.frobenius(image)
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def _frobenius_rows(field, rows):
    """The entrywise images a -> a^p of a list of rows."""
    frob = field.frobenius
    return [[frob(a) for a in row] for row in rows]


def witness_sets(E_spec, M, k, ext_degree=1):
    """{place: W_k} over the points of E_spec's curve over F_{q^e}, in their
    order; E_spec and M live on the base curve.

    Over F_{q^e}, e > 1, W_k is built by subsheaf_witnesses only at the
    first place of each Frobenius orbit (frobenius_orbits).  V_k at
    sigma(p) is the image under sigma of V_k at p: sigma fixes E and M and
    maps the divisor M^{-1}((k+1)p) to M^{-1}((k+1)sigma(p)), and each
    Riemann-Roch basis function to the one built for the image divisor (the
    principal function with a given divisor and leading coefficient 1 at O
    is unique).  The fibre frames are defined over F_q, and the echelon
    steps commute with sigma, so the echelon rows of W_k at sigma(p) are
    the entrywise images a -> a^q of those at p, in the same order."""
    E = E_spec.base_change(ext_degree)
    K = E.curve.field
    built = {}
    for orbit in frobenius_orbits(E_spec.curve, ext_degree):
        ws = built[orbit[0]] = subsheaf_witnesses(E, M, orbit[0], k)
        for image in orbit[1:]:
            span = EchelonAccumulator(K, E.rank)
            for row in _frobenius_rows(K, ws.span.rows):
                span.insert(row)           # already reduced: each goes in as it is
            ws = built[image] = WitnessSet(image, k, span, ws.dimension)
    return {place: built[place] for place in E.curve.points()}


# --------------------------------------------------------------------------
# exhaustive fibre scans


class PlaceScan:
    """Rank data of one fibre: base rank of all rows below order k, and the
    residues T of the order-k rows against their span; the deficient
    directions are the left kernel of T."""

    def __init__(self, field, place, base_rank, T_rows):
        self.field = field
        self.place = place
        self.base_rank = base_rank
        self.T = T_rows                       # r x dim V
        self.has_top = any(c != field.zero for row in T_rows for c in row)

    def rank_of(self, direction):
        K = self.field
        top = any(K.dot(direction, col) != K.zero for col in zip(*self.T))
        return self.base_rank + (1 if top else 0)

    def max_rank(self):
        return self.base_rank + (1 if self.has_top else 0)

    def deficient_classification(self, threshold):
        """('none' | 'subspace' | 'all', basis) for rank(p, v) < threshold;
        a subspace is the left kernel of T."""
        if self.base_rank >= threshold:
            return "none", []
        if self.base_rank + 1 < threshold or not self.has_top:
            return "all", []
        basis = mat_rank_kernel(self.field, zip(*self.T), len(self.T))[1]
        if not basis:
            return "none", []
        return "subspace", [tuple(v) for v in basis]


class ScanContext:
    """Shared per-(E, M, extension) scan data: sections, order matrices and
    one nested osculating flag per place.

    Over F_{q^e}, e > 1, the order matrices are expanded only at the first
    place of each Frobenius orbit (frobenius_orbits); q is prime here
    (fields.extension_of) and sigma is a -> a^q.  This is sound because E,
    M, the sections (coefficient rows over F_q on a Riemann-Roch basis of
    the base curve) and the canonical uniformisers x - x0, y and x/y are
    all defined over F_q, and the frame changes and echelon steps commute
    with a field automorphism: at sigma(p) every Taylor coefficient is the
    image under sigma of the one at p, so orders_at(sigma(p)) is read
    entrywise from orders_at(p).  The sections must therefore live on the
    bundle's base curve, which the constructor checks.  At e = 1 no orbit
    is formed.

    k_max is the cap that check_jet_order checks, not the depth every
    place is expanded to: orders_at expands a place only as deep as it is
    scanned (its rule is there).  A caller that scans a context at every
    order up to some k asks for k first (scan_reports), so each place is
    expanded once.
    """

    def __init__(self, E_spec, M, ext_degree=1, k_max=0, sections=None):
        base_curve = E_spec.curve
        if not base_curve.field.is_finite:
            raise Unsupported("exhaustive scans need a finite base field; "
                              "supply sample points over infinite fields")
        check_jet_order(base_curve.field, k_max)
        check_twist(M)
        if sections is None:
            sections = h0(dual_twist(E_spec, M))
        elif sections.spec.curve != base_curve:
            raise InputError("the sections must live on the bundle's curve")
        self.base_curve = base_curve
        self.base_E = E_spec
        self.M = M
        self.ext_degree = ext_degree
        self.k_max = k_max
        self.curve = base_curve.base_change(ext_degree)
        self.E = E_spec.base_change(ext_degree)
        self.sections = sections.base_change(ext_degree)
        self.n = self.sections.dimension - 1
        self.places = self.curve.points()
        self._orders = {}
        self._flags = {}           # place -> (EchelonAccumulator, ranks by order)
        self._preimage = {image: prev
                          for orbit in frobenius_orbits(base_curve, ext_degree)
                          for prev, image in zip(orbit, orbit[1:])}

    def orders_at(self, place, k):
        """B_0..B_d at the place, d >= k (k <= k_max), under one depth rule:
        the first request expands to min(k + 2, k_max), a deeper one
        re-expands to k_max, and a Frobenius image is read from its
        preimage after asking the preimage for k.

        Why k + 2: an expansion costs more per call than per order, so a
        second expansion of a place costs more than the orders a shallow
        first one saved, and most contexts stop low.  Of the 180 contexts
        of the seed-1 pass-0 threshold-verify tasks (k_max = 5), 68 are
        scanned only at k = 0, 85 up to k = 1, 17 up to k = 2 and 10 up to
        k = 5; depth k + 2 expands each place of the first 170 once and of
        the last 10 twice.  Expanding to exactly k on the first request
        was slower."""
        got = self._orders.get(place)
        if got is None or len(got) <= k:
            prev = self._preimage.get(place)
            if prev is not None:
                got = [_frobenius_rows(self.curve.field, B)
                       for B in self.orders_at(prev, k)]
            else:
                depth = self.k_max if got is not None else min(k + 2, self.k_max)
                got = order_matrices(self.E, self.sections, place, depth)
            self._orders[place] = got
        return got

    def flag(self, place, k):
        """(acc, rank): the first `rank` echelon rows of acc span the rows of
        every order < k at the place.  The accumulator is grown order by
        order and shared by every k."""
        got = self._flags.get(place)
        if got is None:
            got = (EchelonAccumulator(self.curve.field, self.sections.dimension), [0])
            self._flags[place] = got
        acc, ranks = got
        if len(ranks) <= k:
            orders = self.orders_at(place, k - 1)
            while len(ranks) <= k:
                for row in orders[len(ranks) - 1]:
                    acc.insert(row)
                ranks.append(acc.rank)
        return acc, ranks[k]

    def place_scan(self, place, k):
        orders = self.orders_at(place, k)      # before the flag: one expansion to k
        acc, rank = self.flag(place, k)
        T = [acc.residue(row, rank) for row in orders[k]]
        return PlaceScan(self.curve.field, place, rank, T)

    def scan_level(self, k):
        if k > self.k_max:
            raise InputError("scan context was built for a smaller jet order")
        return {place: self.place_scan(place, k) for place in self.places}


class FiberDeficiency:
    def __init__(self, place, mode, basis, directions, fiber_size):
        self.place = place
        self.mode = mode                 # 'all' or 'subspace'
        self.basis = basis               # of the deficient directions
        self.directions = directions     # enumerated for 'subspace'
        self.fiber_size = fiber_size


def incidence_dim(n, r, k):
    """(k + 1) r - n - 1, for a system of dimension n and rank r at order k."""
    return (k + 1) * r - n - 1


def expected_dims(n, r):
    """(k', dims) for a complete system of dimension n and rank r: the top
    jet order k' = n // r, and for k = 0..k' the expected dimension of the
    k-th inflection locus, -1 (empty) below k' and incidence_dim at k'."""
    k_prime = n // r
    return k_prime, [-1] * k_prime + [incidence_dim(n, r, k_prime)]


class OscReport:
    """Scan outcome for one (M, k, extension degree)."""

    def __init__(self, ctx, k, scans, relative_deficiencies, subfull_deficiencies,
                 d_k, oracle_agreement=None, witness_match=None):
        self.ctx = ctx
        self.k = k
        self.scans = scans               # place -> PlaceScan at order k
        self.d_k = d_k
        self.relative = relative_deficiencies
        self.subfull = subfull_deficiencies
        self.oracle_agreement = oracle_agreement
        self.witness_match = witness_match

    @property
    def n(self):
        return self.ctx.n

    def deficient_point_count(self):
        """Number of subfull points (dim Osc^k < kr)."""
        return sum(rec.fiber_size if rec.mode == "all" else len(rec.directions)
                   for rec in self.subfull)

    def to_json(self):
        big = self.ctx.curve

        def recs_json(recs):
            out = []
            for rec in recs:
                if rec.mode == "all":
                    out.append({"point": big.place_to_json(rec.place),
                                "whole_fiber": True, "count": rec.fiber_size,
                                "ext_degree": self.ctx.ext_degree})
                else:
                    for d in rec.directions:
                        out.append({"point": big.place_to_json(rec.place),
                                    "direction": [big.field.elt_to_json(c) for c in d],
                                    "ext_degree": self.ctx.ext_degree})
            return out

        k_prime, dims = expected_dims(self.n, self.ctx.E.rank)
        return {
            "M": self.ctx.base_curve.divisor_to_json(self.ctx.M),
            "k": self.k,
            "ext_degree": self.ctx.ext_degree,
            "n": self.n,
            "d_k": self.d_k,
            "k_prime": k_prime,
            "expected_dim": dims[self.k] if self.k <= k_prime else None,
            "deficient_points": recs_json(self.relative),
            "subfull_points": recs_json(self.subfull),
            "oracle_agreement": self.oracle_agreement,
            "witness_match": self.witness_match,
        }


def _fiber_size(field, r):
    q = field.order
    return sum(q ** i for i in range(r))


def _classify(ctx, scans, threshold):
    """The fibres with rank(p, v) < threshold for some direction v, as
    FiberDeficiency records in place order; a subspace record enumerates its
    directions when it is built, that is when it is drawn."""
    K = ctx.curve.field
    size = _fiber_size(K, ctx.E.rank)
    whole = standard_basis(K, ctx.E.rank)
    for place in ctx.places:
        mode, basis = scans[place].deficient_classification(threshold)
        if mode == "all":
            yield FiberDeficiency(place, "all", whole, [], size)
        elif mode == "subspace":
            yield FiberDeficiency(place, "subspace", basis,
                                  projective_points(K, basis), size)


def scan_report(ctx, k, cross_check=True):
    """Full fibre classification at one jet order, with optional cross-checks.
    d_k <= kr: base_rank is the rank of the kr rows of order < k, and order k
    adds at most 1.  So one classification, at d_k + 1, gives the subfull
    locus (kr + 1) too: the relative one if d_k = kr, every fibre if d_k < kr."""
    scans = ctx.scan_level(k)
    d_k = max((scans[p].max_rank() for p in ctx.places), default=0) - 1
    kr = k * ctx.E.rank
    relative = list(_classify(ctx, scans, d_k + 1))
    subfull = relative if d_k == kr else list(_classify(ctx, scans, kr + 1))
    oracle_ok = None
    witness_ok = None
    if cross_check:
        oracle_ok = _oracle_cross_check(ctx, k, scans)
        witness_ok = _witness_cross_check(ctx, k, scans, subfull)
    return OscReport(ctx, k, scans, relative, subfull, d_k,
                     oracle_agreement=oracle_ok, witness_match=witness_ok)


def scan_reports(ctx, top, cross_check=True):
    """[scan_report(ctx, k, cross_check) for k = 0..top]; the top one is
    computed first, so each place is expanded once (ScanContext)."""
    if top < 0:
        return []
    last = scan_report(ctx, top, cross_check)
    return [scan_report(ctx, k, cross_check) for k in range(top)] + [last]


def _oracle_cross_check(ctx, k, scans):
    """Jet rank against the pole-counting route on the first fibres."""
    K = ctx.curve.field
    direction = standard_basis(K, ctx.E.rank)[0]
    for place in ctx.places[:_ORACLE_SAMPLES]:
        x = ScrollPoint(K, place, direction)
        jet_d = scans[place].rank_of(direction) - 1
        via_jet = osc_dim(ctx.E, ctx.M, x, k, sections=ctx.sections)
        if via_jet != jet_d:
            raise InvariantViolation(
                f"scan rank and jet rank disagree at {x!r}: {jet_d} vs {via_jet}")
        oracle_d = osc_dim_oracle(ctx.E, ctx.M, x, k)
        if oracle_d != via_jet:
            return False
    return True


def _witness_cross_check(ctx, k, scans, subfull):
    """Both directions of the parameter-space correspondence, from one W_k
    per place.  Soundness tests the echelon rows of W_k: the subfull
    directions of a fibre span a subspace with 0.  Completeness asks that
    W_k hold each subfull record, or else (exact sequence above) that
    h0(M^{-1}E(kp)) exceed h0(M^{-1}E) and equal dim V_k - rank W_k; the
    equality keeps faulty fibre values from passing as a lower witness."""
    E, M = ctx.E, ctx.M
    witnesses = witness_sets(ctx.base_E, M, k, ctx.ext_degree)
    for place, wk in witnesses.items():
        if any(scans[place].rank_of(row) > k * E.rank for row in wk.span.rows):
            return False
    h_base = None
    for rec in subfull:
        wk = witnesses[rec.place]
        if all(wk.contains(v) for v in rec.basis):
            continue
        if h_base is None:
            h_base = h0(E, M.neg()).dimension
        h_lower = h0(E, M.neg().add(single(rec.place, k))).dimension
        if h_lower != wk.dimension - wk.span.rank or h_lower <= h_base:
            return False
    return True


# --------------------------------------------------------------------------
# incomplete systems: seeded random and adversarial projections


def project_system(sections, m_plus_1, seed):
    """A reproducible random (m+1)-dimensional subsystem of the given basis,
    with the drawn rows (its sections' coordinates in that basis)."""
    n_plus_1 = sections.dimension
    if not (1 <= m_plus_1 < n_plus_1):
        raise InputError("projection dimension out of range")
    K = sections.spec.curve.field
    if not K.is_finite:
        raise Unsupported("random projections are drawn over finite fields")
    rng = random.Random(seed)
    elements = list(K.elements())
    while True:
        rows = [[rng.choice(elements) for _ in range(n_plus_1)]
                for _ in range(m_plus_1)]
        if mat_rank_kernel(K, rows, n_plus_1)[0] == m_plus_1:
            break
    return _combo_basis(sections, rows), rows


def _combo_basis(sections, rows):
    """The subsystem spanned by rows x sections: rows x coeffs over the same
    Riemann-Roch bases, so it reads the rows the full system's scans kept."""
    K = sections.spec.curve.field
    columns = list(zip(*sections.coeffs))
    coeffs = [[K.dot(row, col) for col in columns] for row in rows]
    return SectionBasis(sections.spec, sections.twist, sections.bases, coeffs)


def adversarial_projection(E_spec, M, x, m_plus_1, sections=None):
    """A subsystem containing every section vanishing to order >= 2 at x,
    padded to the requested dimension; it forces an inflection at x."""
    if sections is None:
        sections = h0(dual_twist(E_spec, M))
    K = E_spec.curve.field
    _, kernel = mat_rank_kernel(K, jet_matrix(E_spec, M, x, 1, sections=sections),
                                sections.dimension)
    if len(kernel) > m_plus_1:
        raise InputError("projection dimension too small to contain the kernel")
    rows = [list(v) for v in kernel]
    acc = EchelonAccumulator(K, sections.dimension)
    for rw in rows:
        acc.insert(rw)
    for e in standard_basis(K, sections.dimension):
        if len(rows) == m_plus_1:
            break
        if acc.insert(list(e)):
            rows.append(list(e))
    if len(rows) != m_plus_1:
        raise InvariantViolation("could not pad the adversarial system")
    return _combo_basis(sections, rows)
