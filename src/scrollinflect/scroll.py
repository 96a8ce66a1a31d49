"""Osculating dimensions and inflection loci of P(E) -> |O(1) (x) M|^*.

The model is evaluated through truncated Taylor data: for a point x in the
fibre over p with direction v, the order-(<= k) coefficient matrix of the
twisted dual sections in a fibre frame adapted to v has rank dim Osc + 1.
Two independent routes are provided:

* jet route - expand each section at p, change frame so the first column
  is v, read coefficients;
* transformation route - compare h^0 of twists of E against the bundle of
  sections with one extra pole at p along v.

Exhaustive fibre scans over F_{q^e} classify each fibre's deficient
directions as a projective-linear condition, so no per-direction rank
computation is needed.  Taylor data stays in one form from the ambient
expansion table to the classification: plain lists of field elements, put
in the fibre frame by one helper (`_frame_coords`).  The osculating spans
Osc^0 ⊂ Osc^1 ⊂ ... of a fibre are nested, so a ScanContext keeps one
echelon accumulator per place, grown order by order (`flag`); every jet
order, the centre-avoidance test of projections and the global generation
check read prefixes of it.
"""

from __future__ import annotations

from itertools import product

# normalized_series is re-exported: theorems expands explicit vectors with it
from .bundle import (SectionBasis, dual_twist, elementary_transform,
                     fiber_frame, h0, normalized_series)
from .curve import single
from .errors import InputError, InvariantViolation, Unsupported
from .linalg import EchelonAccumulator, ExactMatrix, mat_rank_kernel

_ORACLE_SAMPLES = 2         # fibres on which scan_report runs the pole-counting route


def check_jet_order(field, k):
    if k < 0:
        raise InputError("jet order must be nonnegative")
    if field.char and k + 1 >= field.char:
        raise InputError(
            f"jet order {k} needs k + 1 < characteristic {field.char}")


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
    columns = frame[0].transpose().data
    raised = range(1, E_spec.rank)
    return [_frame_coords(E_spec.curve.field, columns, comps, raised,
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
    rows = frame[1].data
    return [tuple(z[0] for z in _frame_coords(
                E_spec.curve.field, rows, comps, (0,),
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


class JetMatrix:
    """Coefficient matrix of the order-<=k operators at a scroll point.

    Rows: first the pure orders (j, 1) for 0 <= j <= k, then for each
    order 0 <= l <= k-1 the mixed rows over the completion directions.
    """

    def __init__(self, k, matrix, point):
        self.k = k
        self.matrix = matrix
        self.point = point

    @property
    def rank(self):
        return mat_rank_kernel(self.matrix)[0]


def jet_matrix(E_spec, M, x, k, sections=None, completion=None,
               uniformiser_scale=None):
    """The (kr+1) x (n+1) Taylor-coefficient matrix at x, exact."""
    curve = E_spec.curve
    K = curve.field
    check_jet_order(K, k)
    if M.degree != 0:
        raise InputError("the twist class must have degree zero")
    if sections is None:
        sections = h0(dual_twist(E_spec, M))
    r = E_spec.rank
    v = normalize_direction(K, x.direction)
    pivot = next(i for i, c in enumerate(v) if c != K.zero)
    if completion is None:
        completion = [tuple(K.one if j == i else K.zero for j in range(r))
                      for i in range(r) if i != pivot]
    if len(completion) != r - 1:
        raise InputError("completion must supply r - 1 directions")
    frame_rows = [list(v)] + [list(w) for w in completion]
    A = ExactMatrix.from_rows(K, frame_rows)
    if mat_rank_kernel(A)[0] != r:
        raise InputError("direction and completion do not form a frame")
    alphas = alpha_series(E_spec, sections, x.place, k)
    ncols = len(alphas)
    scale = uniformiser_scale

    def coeff(coords, j):
        c = coords[j]
        if scale is not None and c != K.zero:
            c = K.mul(c, K.pow(scale, j))
        return c

    combos = [_frame_coords(K, frame_rows, alpha, (), None) for alpha in alphas]
    rows = []
    for j in range(k + 1):
        rows.append([coeff(combos[c][0], j) for c in range(ncols)])
    for ell in range(k):
        for widx in range(1, r):
            rows.append([coeff(combos[c][widx], ell) for c in range(ncols)])
    mat = ExactMatrix.from_rows(K, rows) if rows else ExactMatrix(K, 0, ncols)
    return JetMatrix(k, mat, x)


def osc_dim(E_spec, M, x, k, sections=None):
    """dim Osc^k at x (-1 when the point is a base point of the system)."""
    return jet_matrix(E_spec, M, x, k, sections=sections).rank - 1


def osc_dim_oracle(E_spec, M, x, k):
    """Same dimension through pole-order counting, independent of jets:
    kr - [h^0(M^{-1} (x) Etilde(k p)) - h^0(M^{-1} (x) E)] at genus 1."""
    K = E_spec.curve.field
    check_jet_order(K, k)
    if M.degree != 0:
        raise InputError("the twist class must have degree zero")
    Et = elementary_transform(E_spec, x.place, x.direction)
    h_base = h0(E_spec, M.neg()).dimension
    h_et = h0(Et, M.neg().add(single(x.place, k))).dimension
    return k * E_spec.rank - (h_et - h_base)


# --------------------------------------------------------------------------
# subsheaf witnesses (fibres of the incidence parameter space)


class WitnessSet:
    """Directions at a place reached by degree -(k+1) invertible subsheaves
    that embed as subbundles there."""

    def __init__(self, place, k, span, directions):
        self.place = place
        self.k = k
        self.span = span            # EchelonAccumulator of the direction space
        self.directions = directions

    @property
    def is_empty(self):
        return self.span.rank == 0

    @property
    def is_whole_fiber(self):
        return self.span.rank == self.span.ncols

    def contains(self, direction):
        K = self.span.field
        return not any(c != K.zero for c in self.span.residue(direction))


def subsheaf_witnesses(E_spec, M, place, k):
    """The witness directions at the place: leading fibre vectors of maps
    O(-(k+1)p) -> M^{-1}E with a pole of order exactly k+1 at p."""
    curve = E_spec.curve
    K = curve.field
    if M.degree != 0:
        raise InputError("the twist class must have degree zero")
    V = h0(E_spec, M.neg().add(single(place, k + 1)))
    acc = EchelonAccumulator(K, E_spec.rank)
    for lead in lead_vectors(E_spec, place, V.section_coeffs(place, 2)):
        acc.insert(lead)
    directions = projective_points(K, acc.rows) if K.is_finite else []
    return WitnessSet(place, k, acc, directions)


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
        basis = mat_rank_kernel(ExactMatrix.from_rows(self.field, zip(*self.T)))[1]
        if not basis:
            return "none", []
        return "subspace", [tuple(v) for v in basis]


class ScanContext:
    """Shared per-(E, M, extension) scan data: sections, order matrices and
    one nested osculating flag per place."""

    def __init__(self, E_spec, M, ext_degree=1, k_max=0, sections=None):
        base_curve = E_spec.curve
        if not base_curve.field.is_finite:
            raise Unsupported("exhaustive scans need a finite base field; "
                              "supply sample points over infinite fields")
        check_jet_order(base_curve.field, k_max)
        if M.degree != 0:
            raise InputError("the twist class must have degree zero")
        self.base_curve = base_curve
        self.M = M
        self.ext_degree = ext_degree
        self.k_max = k_max
        big = base_curve.base_change(ext_degree)
        self.curve = big
        self.E = E_spec if ext_degree == 1 else E_spec.base_change(big)
        self.M_big = M if ext_degree == 1 else base_curve.embed_divisor(M, big)
        dual = dual_twist(self.E, self.M_big)
        if sections is None:
            self.sections = h0(dual)
        else:
            self.sections = embed_section_basis(sections, dual, big)
        self.n = self.sections.dimension - 1
        self.places = big.points()
        self._orders = {}
        self._flags = {}           # place -> (EchelonAccumulator, ranks by order)

    def orders_at(self, place):
        got = self._orders.get(place)
        if got is None:
            got = order_matrices(self.E, self.sections, place, self.k_max)
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
        while len(ranks) <= k:
            for row in self.orders_at(place)[len(ranks) - 1]:
                acc.insert(row)
            ranks.append(acc.rank)
        return acc, ranks[k]

    def place_scan(self, place, k):
        acc, rank = self.flag(place, k)
        T = [acc.residue(row, rank) for row in self.orders_at(place)[k]]
        return PlaceScan(self.curve.field, place, rank, T)

    def scan_level(self, k):
        if k > self.k_max:
            raise InputError("scan context was built for a smaller jet order")
        return {place: self.place_scan(place, k) for place in self.places}


def embed_section_basis(sections, dual_big, big_curve):
    """The sections as sections of dual_big.  Over the same curve they keep
    their ambient basis and its expansions; over an extension the ambient
    basis is lifted (once per curve) and the coefficients are embedded."""
    if big_curve is sections.spec.curve:
        return SectionBasis(dual_big, sections.ambient, sections.coeffs)
    ambient = sections.ambient.lift(big_curve)
    emb = big_curve.field.embed
    return SectionBasis(dual_big, ambient,
                        [[emb(c) for c in row] for row in sections.coeffs])


class FiberDeficiency:
    def __init__(self, place, mode, directions, fiber_size):
        self.place = place
        self.mode = mode                 # 'all' or 'subspace'
        self.directions = directions     # enumerated for 'subspace'
        self.fiber_size = fiber_size


class OscReport:
    """Scan outcome for one (M, k, extension degree)."""

    def __init__(self, ctx, k, relative_deficiencies, subfull_deficiencies,
                 d_k, oracle_agreement=None, witness_match=None):
        self.ctx = ctx
        self.k = k
        self.d_k = d_k
        self.relative = relative_deficiencies
        self.subfull = subfull_deficiencies
        self.oracle_agreement = oracle_agreement
        self.witness_match = witness_match

    @property
    def n(self):
        return self.ctx.n

    @property
    def k_prime(self):
        return self.n // self.ctx.E.rank

    @property
    def expected_dim(self):
        r = self.ctx.E.rank
        if self.k < self.k_prime:
            return -1
        if self.k == self.k_prime:
            return (self.k + 1) * r - self.n - 1
        return None

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

        return {
            "M": self.ctx.base_curve.divisor_to_json(self.ctx.M),
            "k": self.k,
            "ext_degree": self.ctx.ext_degree,
            "n": self.n,
            "d_k": self.d_k,
            "k_prime": self.k_prime,
            "expected_dim": self.expected_dim,
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
    directions only when it is drawn."""
    K = ctx.curve.field
    size = _fiber_size(K, ctx.E.rank)
    for place in ctx.places:
        mode, basis = scans[place].deficient_classification(threshold)
        if mode == "all":
            yield FiberDeficiency(place, "all", [], size)
        elif mode == "subspace":
            yield FiberDeficiency(place, "subspace", projective_points(K, basis), size)


def scan_report(ctx, k, cross_check=True):
    """Full fibre classification at one jet order, with optional cross-checks."""
    scans = ctx.scan_level(k)
    d_k_plus_1 = max((scans[p].max_rank() for p in ctx.places), default=0)
    d_k = d_k_plus_1 - 1
    relative = list(_classify(ctx, scans, d_k_plus_1))
    subfull = list(_classify(ctx, scans, k * ctx.E.rank + 1))
    oracle_ok = None
    witness_ok = None
    if cross_check:
        oracle_ok = _oracle_cross_check(ctx, k, scans)
        witness_ok = _witness_cross_check(ctx, k, scans, subfull)
    return OscReport(ctx, k, relative, subfull, d_k,
                     oracle_agreement=oracle_ok, witness_match=witness_ok)


def _oracle_cross_check(ctx, k, scans):
    """Jet rank against the pole-counting route on the first fibres."""
    K = ctx.curve.field
    count = 0
    for place in ctx.places:
        if count >= _ORACLE_SAMPLES:
            break
        ps = scans[place]
        basis = standard_basis(K, ctx.E.rank)
        direction = normalize_direction(K, basis[0])
        x = ScrollPoint(K, place, direction)
        jet_d = ps.rank_of(direction) - 1
        via_jet = osc_dim(ctx.E, ctx.M_big, x, k, sections=ctx.sections)
        if via_jet != jet_d:
            raise InvariantViolation(
                f"scan rank and jet rank disagree at {x!r}: {jet_d} vs {via_jet}")
        oracle_d = osc_dim_oracle(ctx.E, ctx.M_big, x, k)
        if oracle_d != via_jet:
            return False
        count += 1
    return True


def _witness_cross_check(ctx, k, scans, subfull):
    """Both directions of the parameter-space correspondence on this scan."""
    witness_cache = {}

    def witnesses(place, level):
        key = (place, level)
        if key not in witness_cache:
            witness_cache[key] = subsheaf_witnesses(ctx.E, ctx.M_big, place, level)
        return witness_cache[key]

    # completeness: every subfull point has a witness at its level or below
    for rec in subfull:
        lower_hit = any(not witnesses(rec.place, ell).is_empty for ell in range(k))
        if lower_hit:
            continue
        wk = witnesses(rec.place, k)
        if rec.mode == "all":
            if not wk.is_whole_fiber:
                return False
        else:
            if not all(wk.contains(d) for d in rec.directions):
                return False
    # soundness: every witness direction at level k is a subfull point
    for place in ctx.places:
        wk = witnesses(place, k)
        if wk.is_empty:
            continue
        ps = scans[place]
        threshold = k * ctx.E.rank + 1
        for d in wk.directions:
            if ps.rank_of(d) >= threshold:
                return False
    return True


def infl_scan(E_spec, M, k, ext_degree=1, sections=None, cross_check=True):
    """Exhaustive inflection scan of P(E) over F_{q^e} for one twist class."""
    ctx = ScanContext(E_spec, M, ext_degree=ext_degree, k_max=k, sections=sections)
    return scan_report(ctx, k, cross_check=cross_check)


def sample_scan(E_spec, M, k, points, sections=None):
    """Pointwise probe for infinite base fields: osculating dimensions at the
    supplied scroll points, with deficiencies relative to the sample maximum."""
    if sections is None:
        sections = h0(dual_twist(E_spec, M))
    dims = [(x, osc_dim(E_spec, M, x, k, sections=sections)) for x in points]
    d_k = max(d for _, d in dims)
    return {"k": k, "d_k": d_k,
            "dims": dims,
            "deficient": [x for x, d in dims if d < d_k],
            "subfull": [x for x, d in dims if d < k * E_spec.rank]}


def global_generation_check(E_spec, M):
    """True iff the twisted dual is globally generated over the rational points;
    equivalently the k = 0 scan finds no base point."""
    ctx = ScanContext(E_spec, M, ext_degree=1, k_max=0)
    return all(ctx.flag(place, 1)[1] == E_spec.rank for place in ctx.places)


# --------------------------------------------------------------------------
# incomplete systems: seeded random and adversarial projections


def project_system(sections, m_plus_1, seed):
    """A reproducible random (m+1)-dimensional subsystem of the given basis."""
    import random

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
        m = ExactMatrix.from_rows(K, rows)
        if mat_rank_kernel(m)[0] == m_plus_1:
            break
    return _combo_basis(sections, rows)


def _combo_basis(sections, rows):
    """The subsystem spanned by rows x sections: rows x coeffs over the same
    ambient basis, so it reads the expansions the full system made."""
    K = sections.spec.curve.field
    columns = list(zip(*sections.coeffs))
    coeffs = [[K.dot(row, col) for col in columns] for row in rows]
    out = SectionBasis(sections.spec, sections.ambient, coeffs)
    out.combo_rows = [list(r) for r in rows]
    return out


def adversarial_projection(E_spec, M, x, m_plus_1, sections=None):
    """A subsystem containing every section vanishing to order >= 2 at x,
    padded to the requested dimension; it forces an inflection at x."""
    if sections is None:
        sections = h0(dual_twist(E_spec, M))
    K = E_spec.curve.field
    jm = jet_matrix(E_spec, M, x, 1, sections=sections)
    _, kernel = mat_rank_kernel(jm.matrix)
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
