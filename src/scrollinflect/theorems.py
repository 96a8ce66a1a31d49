"""Segre invariants, closed-form bounds, and end-to-end theorem verifiers.

The verifiers operationalize "for all M" as exhaustive enumeration of the
finite Picard group of degree zero, and "for all x" as exhaustive fibre
scans over F_{q^e}; witnesses for failure directions are searched over
extensions before a violation is declared.  Each verifier returns a
TheoremReport with one pass/fail clause per checked statement.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import ceil, floor, isqrt

from .bundle import chi_h1, dual_twist, h0, wedge
from .curve import INFINITY, Divisor, single
from .errors import DomainError, InputError, InvariantViolation, Unsupported
from .funcfield import FunctionRep, rr_basis
from .linalg import mat_rank_kernel
from .scroll import (ScanContext, ScrollPoint, adversarial_projection, check_jet_order,
                     expected_dims, incidence_dim, lead_vectors, normalized_series,
                     osc_dim, project_system, scan_report, scan_reports)

# --------------------------------------------------------------------------
# closed-form calculators


def hirschowitz_bound(r, n, d, g):
    """Universal upper bound for the n-th Segre invariant: the unique value
    n(r-n)(g-1) + delta congruent to nd mod r with delta in {0..r-1}."""
    if not (1 <= n <= r - 1):
        raise InputError("need 1 <= n <= r - 1")
    if g < 1:
        raise InputError("genus must be at least 1")
    base = n * (r - n) * (g - 1)
    delta = (n * d - base) % r
    return base + delta, delta


def kprime_expected_dims(r, d, g, m=None):
    """Numerology of the complete system: n, the top jet order k', expected
    inflection dimensions, and the subsheaf/incidence parameter counts."""
    n = r * (1 - g) - d - 1
    if n < 1:
        raise InputError(f"system dimension n = {n} must be at least 1")
    k_prime, dims = expected_dims(n, r)
    expected = dict(enumerate(dims))
    quot_dims = {k: r * (k + 1) + d + (r + 1) * (g - 1) for k in range(k_prime + 1)}
    incidence_dims = {k: incidence_dim(n, r, k) for k in range(k_prime + 1)}
    out = {"n": n, "k_prime": k_prime, "expected_dim": expected,
           "quot_dim": quot_dims, "incidence_dim": incidence_dims}
    if m is not None:
        if not (0 < m < n):
            raise InputError("need 0 < m < n")
        k_m, dims_m = expected_dims(m, r)
        out["k_prime_m"] = k_m
        out["projected_expected_dim"] = dims_m[k_m]
    return out


def specialcases_ranges(r, d, g):
    """k-ranges where positivity of s_1 forces full osculation (a), where a
    deficiency is unavoidable (b), and the generic value for the converse (c).
    No command prints it yet; the tests check the paper's ranges through it."""
    if d > r * (1 - 2 * g):
        raise DomainError("requires degree d <= r(1 - 2g)")
    mu_dual = Fraction(-d, r)
    a_k_max = floor(mu_dual - (2 * g - 1))
    b_k_min = ceil(mu_dual - Fraction((r + 1) * g - 1, r))
    generic_s1 = hirschowitz_bound(r, 1, d, g)[0]
    return {"a_k_max": a_k_max, "b_k_min": b_k_min, "generic_s1": generic_s1,
            "converse_needs_generic_s1": True}


# --------------------------------------------------------------------------
# Segre invariant s_1


class SegreReport:
    def __init__(self, s1, method, window, witness, curve, ext_degree=1):
        self.s1 = s1
        self.method = method
        self.window = window
        self.witness = witness
        self.ext_degree = ext_degree
        self.curve = curve                 # curve the witness lives on

    def to_json(self):
        out = {"s1": self.s1, "method": self.method,
               "window": list(self.window), "ext_degree": self.ext_degree}
        if self.witness:
            out["witness"] = {
                "degree": self.witness["degree"],
                "class": self.curve.divisor_to_json(self.witness["class_divisor"]),
                "section": [f.to_str() for f in self.witness["section"]],
            }
        return out


def _nowhere_vanishing(E_spec, sections, vec, curve):
    """Whether a vector of functions, twisted like the sections, has a
    nonzero fibre value at every rational place."""
    zero = tuple([curve.field.zero] * E_spec.rank)
    for place in curve.points():
        comps = [normalized_series(f, place, sections.component_shift(i, place), 2)
                 for i, f in enumerate(vec)]
        if lead_vectors(E_spec, place, [comps])[0] == zero:
            return False
    return True


def _first_nowhere_vanishing(E_spec, sections, curve):
    """Index of the first basis section with a nonzero fibre value at every
    rational place, or None."""
    zero = tuple([curve.field.zero] * E_spec.rank)
    alive = list(range(sections.dimension))
    for place in curve.points():
        if not alive:
            break
        leads = lead_vectors(E_spec, place, sections.section_coeffs(place, 2))
        alive = [c for c in alive if leads[c] != zero]
    return alive[0] if alive else None


def segre1(E_spec, method="auto", ext_degree=1):
    """s_1(E) = d - r * (largest degree of a line subbundle), exactly.

    formula: decomposable bundles only (a nonzero map of line bundles cannot
    raise degree, so the best subbundle is the largest factor).
    bruteforce: scan line classes from the largest compatible degree down;
    at the first degree admitting a morphism, a nonvanishing one must exist,
    since any vanishing would saturate into an already-scanned degree.
    """
    r, d = E_spec.rank, E_spec.degree
    bound = hirschowitz_bound(r, 1, d, 1)[0]
    hi = max(f.degree for f in E_spec.factors)
    lo = ceil(Fraction(d - bound, r))
    if method == "auto":
        method = "formula" if E_spec.is_decomposable else "bruteforce"
    if method == "formula":
        if not E_spec.is_decomposable:
            raise Unsupported("the closed formula needs a decomposable bundle")
        best = max(range(r), key=lambda i: E_spec.factors[i].degree)
        unit = [FunctionRep.zero(E_spec.curve)] * r
        unit[best] = FunctionRep.one(E_spec.curve)
        witness = {"degree": hi, "class_divisor": E_spec.factors[best],
                   "section": tuple(unit)}
        return SegreReport(d - r * hi, "formula", (lo, hi), witness, E_spec.curve)
    if method != "bruteforce":
        raise InputError(f"unknown method {method!r}")
    if not E_spec.curve.field.is_finite:
        raise Unsupported("brute force requires a finite base field")
    spec = E_spec.base_change(ext_degree)
    curve = spec.curve
    if lo > hi:
        raise InputError("empty search window")
    for a in range(hi, lo - 1, -1):
        for T in curve.points():
            L = (single(INFINITY, a - 1).add(single(T)) if not T.is_infinity
                 else single(INFINITY, a))
            V = h0(spec, L.neg())
            c = _first_nowhere_vanishing(spec, V, curve)
            if c is not None:
                witness = {"degree": a, "class_divisor": L, "section": V.vectors[c]}
                return SegreReport(d - r * a, "bruteforce", (lo, hi), witness,
                                   curve, ext_degree)
            if V.dimension > 0:
                raise InvariantViolation(
                    "maximal-degree morphisms must embed as subbundles; "
                    "a vanishing one would saturate into an empty higher degree")
    raise InvariantViolation("no line subsheaf found above the universal bound")


# --------------------------------------------------------------------------
# rank-one nilpotent endomorphisms


def endomorphism_basis(E_spec):
    """Basis of Hom(E, E) for a decomposable bundle, as (row, col, function)."""
    if not E_spec.is_decomposable:
        raise Unsupported("endomorphism spaces are computed for decomposable bundles")
    curve = E_spec.curve
    basis = []
    for i, Di in enumerate(E_spec.factors):
        for j, Dj in enumerate(E_spec.factors):
            for f in rr_basis(curve, Di.sub(Dj)):
                basis.append((i, j, f))
    return basis


def nilpotent_rank1_exists(E_spec):
    """Whether some endomorphism has sheaf-map rank one and squares to zero:
    exactly when dim End(E) > r.  Returns (exists, details).

    End(E) is the diagonal blocks H^0(O), one constant each, plus the
    off-diagonal blocks Hom(L_j, L_i).  If some f != 0 lies in a block with
    i != j, then phi = f E_ij has one nonzero entry, so rank one, and
    phi^2 = 0 because i != j; the witness is the unit coefficient vector of
    the first such element of endomorphism_basis.  Otherwise End(E) is the
    diagonal constants, and the only nilpotent among them is 0.
    """
    K = E_spec.curve.field
    basis = endomorphism_basis(E_spec)
    exists = len(basis) > E_spec.rank
    coeffs = None
    if exists:
        coeffs = [K.zero] * len(basis)
        coeffs[next(n for n, (i, j, _) in enumerate(basis) if i != j)] = K.one
    return exists, {"dim": len(basis), "witness_coeffs": coeffs}


def quot_tangent_obstruction(E_spec, witness):
    """(h0, h1) of Hom(N, E/N) for a saturated line subbundle witness N.

    The quotient class is det(E) - 2N for rank two, so the obstruction space
    is the h^1 of a single line bundle class.  No command prints it yet; the
    obstruction-vanishing acceptance criterion checks it."""
    if E_spec.rank != 2:
        raise InputError("tangent/obstruction bookkeeping is for rank two")
    N_div = witness["class_divisor"]
    vec = witness["section"]
    curve = E_spec.curve
    V = h0(E_spec, N_div.neg())
    if all(f.is_zero() for f in vec):
        raise DomainError("witness section is zero")
    if not _nowhere_vanishing(E_spec, V, vec, curve):
        raise DomainError("witness section vanishes; the subsheaf is not saturated")
    det_div = Divisor()
    for f in E_spec.factors:
        det_div = det_div.add(f)
    for mod in E_spec.modifications:
        det_div = det_div.sub(single(mod.place))
    hom_class = det_div.sub(N_div.scale(2))
    h0_dim = len(rr_basis(curve, hom_class))
    chi = hom_class.degree
    return h0_dim, h0_dim - chi


# --------------------------------------------------------------------------
# theorem verifiers


class TheoremReport:
    def __init__(self, theorem, inputs, clauses, caveats):
        self.theorem = theorem
        self.inputs = inputs
        self.clauses = clauses
        self.caveats = caveats

    @property
    def passed(self):
        return all(c["pass"] for c in self.clauses)

    def to_json(self):
        return {"theorem": self.theorem, "inputs": self.inputs,
                "passed": self.passed, "clauses": self.clauses,
                "caveats": self.caveats}


class _ScanPool:
    """Cache of ScanContexts keyed by (twist class, extension degree).

    k_max is a cap, not a cost: each context expands a place only as deep
    as it is scanned (ScanContext.orders_at), so a pool built for the
    largest order asked for pays for it only where a scan gets there."""

    def __init__(self, E_spec, k_max):
        self.E = E_spec
        self.k_max = k_max
        self.cache = {}

    def ctx(self, M, e):
        key = (M.key(), e)
        got = self.cache.get(key)
        if got is None:
            got = ScanContext(self.E, M, ext_degree=e, k_max=self.k_max)
            self.cache[key] = got
        return got

    def first_subfull(self, M_list, k, e_list):
        """First (ScanContext, FiberDeficiency) with dim Osc^k < kr somewhere,
        or None."""
        for ctx in (self.ctx(M, e) for e in e_list for M in M_list):
            subfull = scan_report(ctx, k, cross_check=False).subfull
            if subfull:
                return ctx, subfull[0]
        return None


def _witness_json(found):
    """A first_subfull result as JSON: the twist class, the extension degree,
    the point, and its first deficient direction or the whole fibre."""
    if found is None:
        return None
    ctx, rec = found
    big = ctx.curve
    out = {"M": ctx.base_curve.divisor_to_json(ctx.M), "ext_degree": ctx.ext_degree,
           "point": big.place_to_json(rec.place)}
    if rec.mode == "all":
        out["whole_fiber"] = True
    else:
        out["direction"] = [big.field.elt_to_json(c) for c in rec.directions[0]]
    return out


def _bundle_inputs(E_spec):
    return {"rank": E_spec.rank, "degree": E_spec.degree,
            "bundle": E_spec.to_json(),
            "field": E_spec.curve.field.desc()}


_PROXY_CAVEATS = [
    "twist classes enumerated over the base field only",
    "fibre points scanned over extensions of bounded degree",
]


_WITNESS_EXT = 3            # F_{q^e} searched for a failure witness when s1 is small


def verify_segre_threshold(E_spec, k_values=None, ext_degree=2, s1_method="auto"):
    """The s_1 threshold criterion: s1 > d + r(1 + k) at genus one holds iff
    every fibre point osculates fully at order k, for every twist class."""
    curve = E_spec.curve
    if k_values is None:          # the default orders 0..5, cut to k + 1 < p
        k_values = [k for k in range(6) if k + 1 < curve.field.char]
    if not k_values:
        raise InputError("no admissible jet orders below the characteristic")
    for k in sorted(k_values, reverse=True):    # the largest first, as osc names it
        check_jet_order(curve.field, k)
    r, d = E_spec.rank, E_spec.degree
    s1 = segre1(E_spec, method=s1_method).s1
    pool = _ScanPool(E_spec, max(k_values))
    M_list = curve.pic0_representatives()
    clauses = []
    for k in k_values:
        ineq = s1 > d + r * (1 + k)
        if ineq:
            found = pool.first_subfull(M_list, k, range(1, ext_degree + 1))
            ok = found is None
        else:
            found = pool.first_subfull(M_list, k, range(1, max(_WITNESS_EXT,
                                                               ext_degree) + 1))
            ok = found is not None
        clauses.append({"id": f"k={k}", "inequality_holds": ineq,
                        "pass": ok, "witness": _witness_json(found)})
    inputs = _bundle_inputs(E_spec)
    inputs["s1"] = s1
    return TheoremReport("mainA", inputs, clauses, _PROXY_CAVEATS)


def _formula_sn(E_spec, n):
    """nd - r * (largest degree of a rank-n split subbundle); decomposable only."""
    degs = sorted((f.degree for f in E_spec.factors), reverse=True)
    return n * E_spec.degree - E_spec.rank * sum(degs[:n])


def _first_wedge_witness(E_spec, wedges, ext_degree):
    """The first fibre of a wedge-power scroll with dim Osc^k < kr, as
    {"wedge": n, "k": k, "witness": ...}, or None.  wedges lists (n, S_n,
    top_k): S_n is scanned at the orders 0..top_k with k + 1 < p, over every
    twist class and over F_{q^e} for e <= ext_degree."""
    curve = E_spec.curve
    M_list = curve.pic0_representatives()
    for n, Sn, top_k in wedges:
        ks = [k for k in range(top_k + 1) if k + 1 < curve.field.char]
        if not ks:
            continue
        pool = _ScanPool(Sn, max(ks))
        for k in ks:
            found = pool.first_subfull(M_list, k, range(1, ext_degree + 1))
            if found is not None:
                return {"wedge": n, "k": k, "witness": _witness_json(found)}
    return None


def verify_semistability(E_spec, ext_degree=1):
    """Semistability of a decomposable bundle of slope < -1 against full
    osculation of all wedge-power scrolls over the open jet range."""
    if not E_spec.is_decomposable:
        raise Unsupported("the wedge construction needs a decomposable bundle")
    r, d = E_spec.rank, E_spec.degree
    if not d < -r:
        raise DomainError("requires slope mu < -1 at genus one")
    semistable = all(_formula_sn(E_spec, n) >= 0 for n in range(1, r))
    mu_dual = Fraction(-d, r)
    # open range k < n mu(E*) - (2g-1)
    wedges = [(n, wedge(E_spec, n), ceil(n * mu_dual - 1) - 1)
              for n in range(1, r)]
    witness = _first_wedge_witness(E_spec, wedges, ext_degree)
    scan_clean = witness is None
    clauses = [{"id": "semistable", "pass": True, "value": semistable},
               {"id": "full-osculation-range", "pass": True,
                "value": scan_clean, "witness": witness},
               {"id": "equivalence", "pass": semistable == scan_clean,
                "semistable": semistable, "scan_clean": scan_clean}]
    return TheoremReport("mainB", _bundle_inputs(E_spec), clauses, _PROXY_CAVEATS)


def verify_cohomological_stability(E_spec, ext_degree=1):
    """Positivity of s_1 on every wedge power against full osculation over the
    closed jet range 0 <= k <= n mu(E*) - 1."""
    r, d = E_spec.rank, E_spec.degree
    if d > -r:
        raise DomainError("requires degree d <= -r at genus one")
    if E_spec.is_decomposable:
        s1_values = {n: _formula_sn(wedge(E_spec, n), 1) for n in range(1, r)}
    elif r == 2:
        s1_values = {1: segre1(E_spec, method="bruteforce").s1}
    else:
        raise Unsupported("wedge powers of modified bundles are out of scope")
    cohstable = all(v > 0 for v in s1_values.values())
    mu_dual = Fraction(-d, r)
    wedges = [(n, E_spec if not E_spec.is_decomposable else wedge(E_spec, n),
               floor(n * mu_dual - 1)) for n in range(1, r)]
    witness = _first_wedge_witness(E_spec, wedges, ext_degree)
    scan_clean = witness is None
    clauses = [
        {"id": "s1-positivity", "pass": True,
         "values": {str(n): v for n, v in s1_values.items()},
         "value": cohstable},
        {"id": "closed-range-scan", "pass": True, "value": scan_clean,
         "witness": witness},
        {"id": "equivalence", "pass": cohstable == scan_clean,
         "cohomologically_stable": cohstable, "scan_clean": scan_clean},
    ]
    return TheoremReport("mainBmod", _bundle_inputs(E_spec), clauses,
                         _PROXY_CAVEATS)


def _hasse_curve_floor(q):
    return q + 1 - 2 * isqrt(q)


def verify_generic_inflection(E_spec, ext_degree=2):
    """For bundles without rank-one nilpotents: the system has the expected
    dimension for general twists, lower inflection loci are empty, and the
    top one is empty or finite when its expected dimension is zero."""
    curve = E_spec.curve
    if not curve.field.is_finite:
        raise Unsupported("mainC enumerates Pic^0 and needs a finite base field")
    r, d = E_spec.rank, E_spec.degree
    exists, details = nilpotent_rank1_exists(E_spec)
    if exists:
        clauses = [{"id": "hypothesis", "pass": False,
                    "reason": "a rank-one nilpotent endomorphism exists",
                    "end_dim": details["dim"]}]
        return TheoremReport("mainC", _bundle_inputs(E_spec), clauses,
                             _PROXY_CAVEATS)
    n = -d - 1
    if n < 1:
        raise DomainError("system dimension must be positive")
    k_prime, dims = expected_dims(n, r)
    M_list = curve.pic0_representatives()
    passing = []
    for M in M_list:
        h1 = chi_h1(dual_twist(E_spec, M))[1]
        if h1 == 0:
            passing.append(M)
    clauses = [{"id": "hypothesis", "pass": True, "end_dim": details["dim"]},
               {"id": "a:dimension", "pass": bool(passing),
                "fraction": f"{len(passing)}/{len(M_list)}", "n": n}]
    expected_top = dims[k_prime]
    # the top locus is counted over F_q and, when asked for, over F_{q^2};
    # the finiteness probe compares the F_{q^2} count with that curve's
    # Hasse floor, so it runs only when e = 2 is scanned
    top_degrees = range(1, min(2, ext_degree) + 1)
    probed = expected_top <= 0 and 2 in top_degrees
    low_witness = None
    top_ok = True
    counts = {}
    d_top_ok = True
    for M in passing:
        pool = _ScanPool(E_spec, k_prime)     # shared by clauses b and c
        # clause c scans at k' first, so its places are expanded once
        # (ScanContext) and clause b reads prefixes of them
        per_e = []
        for e in top_degrees:
            rep = scan_report(pool.ctx(M, e), k_prime, cross_check=False)
            per_e.append(rep.deficient_point_count())
            if rep.d_k != k_prime * r:
                d_top_ok = False
        counts[_divisor_key(curve, M)] = per_e
        if probed and per_e[-1] >= _hasse_curve_floor(curve.field.order ** 2):
            top_ok = False
        for k in range(k_prime):
            if low_witness is not None:
                break
            low_witness = _witness_json(
                pool.first_subfull([M], k, range(1, ext_degree + 1)))
    clauses.append({"id": "b:lower-loci-empty", "pass": low_witness is None,
                    "k_range": list(range(k_prime)), "witness": low_witness})
    clauses.append({"id": "c:top-locus", "pass": top_ok and d_top_ok,
                    "expected_dim": expected_top,
                    "d_top_equals_kr": d_top_ok,
                    "asserted": probed,
                    "counts_by_M": counts})
    return TheoremReport("mainC", _bundle_inputs(E_spec), clauses, _PROXY_CAVEATS)


def _divisor_key(curve, D):
    return json.dumps(curve.divisor_to_json(D), sort_keys=True)


def _deficiency_set(report):
    out = set()
    for rec in report.relative:
        if rec.mode == "all":
            out.add((repr(rec.place), "ALL"))
        else:
            for dvec in rec.directions:
                out.add((repr(rec.place), tuple(dvec)))
    return out


def _center_avoids(ctx, k_m, coeff_rows):
    """Whether the one-point projection centre misses the osculating spans of
    every order < k_m at every scanned place.

    The centre is the kernel of the coefficient matrix in dual coordinates;
    it lies on a span when some kernel vector has zero residue against the
    context's flag at that order.
    """
    K = ctx.curve.field
    centers = mat_rank_kernel(K, coeff_rows, len(coeff_rows[0]))[1]
    for place in ctx.places:
        acc, rank = ctx.flag(place, k_m)
        if not all(any(c != K.zero for c in acc.residue(w, rank)) for w in centers):
            return False
    return True


def verify_projection(E_spec, M, m_plus_1, seeds, ext_degree=1):
    """Random subsystems keep the low-order inflection behaviour of the full
    system; an engineered subsystem shows the genericity hypothesis matters.

    The full system, every random draw and the adversarial system are
    coefficient rows over the same Riemann-Roch bases, so all of them read
    the same expansion rows.  A draw is accepted as general when its centre
    avoids the scanned osculating spans of all lower orders (the computable
    part of the dense open condition behind the statement): the centre's
    residues are tested against the full system's order-(< k_m) row space
    at each place, read from the full scan context's flag.  The acceptance
    fraction is reported and must stay above one half.  An accepted draw
    matches when place_scan ranks of its own order matrices give the full
    system's d_k and deficiency sets at every lower order.
    """
    full_sections = h0(dual_twist(E_spec, M))
    n = full_sections.dimension - 1
    if not (1 <= m_plus_1 <= n):
        raise InputError("projection dimension out of range")
    r = E_spec.rank
    k_m = (m_plus_1 - 1) // r
    k_top = max(k_m, 1)
    full_ctx = ScanContext(E_spec, M, ext_degree=ext_degree, k_max=k_top,
                           sections=full_sections)
    full_reports = scan_reports(full_ctx, k_top, cross_check=False)
    d_full = {k: rep.d_k for k, rep in enumerate(full_reports)}
    hyp_ok = True
    if k_m >= 1:
        hyp_ok = d_full[k_m - 1] <= d_full[k_m] - r
    clauses = [{"id": "dimension-hypothesis", "pass": hyp_ok,
                "d_values": {str(k): v for k, v in d_full.items()}}]
    all_match = True
    mismatch = None
    general_count = 0
    seeds = list(seeds)
    for seed in seeds:
        W, rows = project_system(full_sections, m_plus_1, seed)
        if not _center_avoids(full_ctx, k_m, rows):
            continue
        general_count += 1
        ctx = ScanContext(E_spec, M, ext_degree=ext_degree, k_max=max(k_m - 1, 0),
                          sections=W)
        for k, rep in enumerate(scan_reports(ctx, k_m - 1, cross_check=False)):
            if rep.d_k != d_full[k] or \
                    _deficiency_set(rep) != _deficiency_set(full_reports[k]):
                all_match = False
                mismatch = {"seed": seed, "k": k}
                break
        if not all_match:
            break
    fraction_ok = 2 * general_count > len(seeds)
    clauses.append({"id": "random-projections-match",
                    "pass": all_match and fraction_ok,
                    "seeds": len(seeds), "general": general_count,
                    "matched": all_match, "mismatch": mismatch})
    x = _generic_point(full_reports[1])
    W_adv = adversarial_projection(E_spec, M, x, m_plus_1, sections=full_sections)
    dim_at_x = osc_dim(E_spec, M, x, 1, sections=W_adv)
    adv_ctx = ScanContext(E_spec, M, ext_degree=1, k_max=1, sections=W_adv)
    adv_rep = scan_report(adv_ctx, 1, cross_check=False)
    forced = dim_at_x < adv_rep.d_k
    clauses.append({"id": "adversarial-projection-inflects", "pass": forced,
                    "point": full_ctx.curve.place_to_json(x.place),
                    "dim_at_point": dim_at_x, "d_k_W": adv_rep.d_k})
    return TheoremReport("appendixA", _bundle_inputs(E_spec), clauses,
                         _PROXY_CAVEATS)


def _generic_point(rep):
    """The all-ones direction at the first place where it reaches rank d_k + 1."""
    ctx, K = rep.ctx, rep.ctx.curve.field
    ones = tuple([K.one] * ctx.E.rank)
    for place in ctx.places:
        x = ScrollPoint(K, place, ones)
        if rep.scans[place].rank_of(x.direction) == rep.d_k + 1:
            return x
    return ScrollPoint(K, ctx.places[0], ones)
