"""Test-side references: constructions the tests compare the engine against,
which no command runs.

* Horner's rule over LaurentSeries (peval_series): a polynomial evaluated
  at the series x(t), the reference local expansions are built from.  The
  engine reads every expansion off its per-place tables instead.
* Miller's algorithm one line at a time: the chord and vertical lines as
  FunctionReps, and the inverse and quotient of functions, each product
  normalised by the FunctionRep constructor.  principal_function, which
  multiplies the same lines unreduced, is checked against it.
* The obstruction space Hom(N, E/N) of a maximal line subbundle N, and the
  nowhere-vanishing test behind it (criterion 9 of the acceptance suite).
* The Segre-threshold verifier clause by clause: every order scanned on its
  own, over F_{q^e} for each e in turn.  verify_segre_threshold, which
  decides the holding clauses with one scan at the top one, is checked
  against it.
"""

from scrollinflect.bundle import h0, normalized_series
from scrollinflect.curve import Divisor, single
from scrollinflect.errors import DomainError, InputError
from scrollinflect.funcfield import FunctionRep, _chord, _norm, pmul, pneg, rr_basis
from scrollinflect.scroll import check_jet_order, lead_vectors
from scrollinflect.series import LaurentSeries
from scrollinflect.theorems import (_PROXY_CAVEATS, _WITNESS_EXT, TheoremReport,
                                    _bundle_inputs, _ScanPool, _witness_json, segre1)

# --------------------------------------------------------------------------
# Horner's rule over series


def peval_series(K, a, xs):
    """The polynomial a evaluated at the series xs, with a working precision
    wide enough that the poles of xs (at O) lose nothing."""
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
# Miller's line functions


def vertical_line(curve, P):
    """x - x_P, with divisor (P) + (-P) - 2(O)."""
    K = curve.field
    return FunctionRep(curve, [K.neg(P.x), K.one], [], [K.one])


def chord_line(curve, P, Q):
    """y - (lam x + nu) through P and Q (tangent if P == Q); not for vertical
    pairs."""
    return FunctionRep(curve, _chord(curve, P, Q), [curve.field.one], [curve.field.one])


def inverse(f):
    """1/f for a nonzero function f."""
    if f.is_zero():
        raise ZeroDivisionError("inverse of the zero function")
    K = f.curve.field
    # 1/(n0 + n1 y) = (n0 - n1 y)/(n0^2 - n1^2 (x^3 + a4 x + a6))
    return FunctionRep(f.curve, pmul(K, f.d0, f.n0), pneg(K, pmul(K, f.d0, f.n1)),
                       _norm(f.curve, f.n0, f.n1))


def div(f, g):
    """f / g for a nonzero function g."""
    return f.mul(inverse(g))


# --------------------------------------------------------------------------
# line subbundles and their obstruction spaces


def nowhere_vanishing(E_spec, sections, vec, curve):
    """Whether a vector of functions, twisted like the sections, has a
    nonzero fibre value at every rational place."""
    zero = tuple([curve.field.zero] * E_spec.rank)
    for place in curve.points():
        comps = [normalized_series(f, place, sections.bases[i].D.mult(place), 2)
                 for i, f in enumerate(vec)]
        if lead_vectors(E_spec, place, [comps])[0] == zero:
            return False
    return True


def quot_tangent_obstruction(E_spec, witness):
    """(h0, h1) of Hom(N, E/N) for a saturated line subbundle witness N.

    The quotient class is det(E) - 2N for rank two, so the obstruction space
    is the h^1 of a single line bundle class."""
    if E_spec.rank != 2:
        raise InputError("tangent/obstruction bookkeeping is for rank two")
    N_div = witness["class_divisor"]
    vec = witness["section"]
    curve = E_spec.curve
    V = h0(E_spec, N_div.neg())
    if all(f.is_zero() for f in vec):
        raise DomainError("witness section is zero")
    if not nowhere_vanishing(E_spec, V, vec, curve):
        raise DomainError("witness section vanishes; the subsheaf is not saturated")
    det_div = Divisor()
    for f in E_spec.factors:
        det_div = det_div.add(f)
    for mod in E_spec.modifications:
        det_div = det_div.sub(single(mod.place))
    hom_class = det_div.sub(N_div.add(N_div))
    h0_dim = len(rr_basis(curve, hom_class))
    chi = hom_class.degree
    return h0_dim, h0_dim - chi


# --------------------------------------------------------------------------
# the Segre-threshold verifier, one scan per clause


def segre_threshold_per_clause(E_spec, k_values=None, ext_degree=2):
    """verify_segre_threshold with every clause scanned at its own order:
    a holding clause over e = 1..ext_degree, a failing one over e up to
    max(3, ext_degree) for its first witness."""
    curve = E_spec.curve
    if k_values is None:
        k_values = [k for k in range(6) if k + 1 < curve.field.char]
    for k in sorted(k_values, reverse=True):
        check_jet_order(curve.field, k)
    r, d = E_spec.rank, E_spec.degree
    s1 = segre1(E_spec).s1
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
