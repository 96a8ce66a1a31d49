"""Batch command-line frontend: JSON instance files in, one JSON report out.

Exit codes: 0 success, 1 input or validation error, 2 internal invariant
violation (the two osculating-dimension routes disagreeing, or a failed
witness correspondence).  Output is byte-stable for identical inputs and
seeds: keys are sorted and every number is emitted through the exact
serializers.

Each instance record is read and checked once, by the decoders after
Instance: JSON shapes, integers and size limits (docs/schema.md).  Elements
decode through the field's elt_from_json; the engine constructors keep the
mathematical checks (a prime p, a nonsingular curve, a point on it, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bundle import BundleSpec, Modification, dual_twist, h0
from .curve import INFINITY, Curve, Divisor, Place
from .errors import DomainError, InputError, InvariantViolation, Unsupported
from .fields import ExtensionField, PrimeField, RationalField, find_irreducible
from .scroll import ScanContext, project_system, scan_report, scan_reports, witness_sets
from .theorems import (hirschowitz_bound, kprime_expected_dims,
                       nilpotent_rank1_exists, segre1, verify_cohomological_stability,
                       verify_generic_inflection, verify_projection,
                       verify_segre_threshold, verify_semistability)


class Instance:
    """Parsed instance file: field, curve, bundle, twist classes, parameters,
    the flags in args overriding the file's parameters and selector.  Of
    several faults the first in this order is reported: field, curve,
    bundle, type of parameters, --M, parameter values, twist selector."""

    def __init__(self, obj, args):
        if not isinstance(obj, dict):
            raise InputError("an instance file must hold a JSON object")
        self.field = K = _field(_json_object(obj, "field"))
        cdesc = _json_object(obj, "curve")
        self.curve = Curve(K, K.elt_from_json(_required(cdesc, "a4", "curve")),
                           K.elt_from_json(_required(cdesc, "a6", "curve")))
        self.bundle = _bundle(self.curve, _json_object(obj, "bundle"))
        params = obj.get("parameters", {})
        if not isinstance(params, dict):
            raise InputError("parameters must be an object")
        selector = obj.get("M", []) if args.M is None else _twist_flag(args.M)
        for name, flag, default in (("k", "k", 0), ("ext_degree", "ext", 1),
                                    ("seed", "seed", 0), ("m", "m", None)):
            value = getattr(args, flag)
            if value is None:
                value = params.get(name, default)
            if value is not None or name != "m":
                _int(value, f"parameter {name} is not an integer: {{}}")
            setattr(self, name, value)
        if self.k < 0:
            raise InputError("parameter k must be nonnegative")
        if self.k >= _MULT_MAX:
            raise InputError(f"parameter k = {self.k} exceeds {_MULT_MAX - 1}")
        if not 1 <= self.ext_degree <= 3:
            raise InputError("parameter ext_degree must be 1, 2 or 3")
        self.twists = _twists(self.curve, selector)


# Largest sum of |multiplicity| over the points of a divisor read from input.
# It bounds each multiplicity and |deg D| (L(D) has deg D basis functions, and
# principal_function takes one Miller step per unit), a divisor's number of
# records (checked before any is read), k + 1 (a witness multiplicity) and
# |d| / r in `bounds`.  Committed inputs reach 8, 3 records and k = 5.
_MULT_MAX = 64
# Largest number of bundle factors (the rank r).  verify mainB and mainBmod
# build every wedge power of a split bundle at once, 2^r - 2 factors over
# 1 <= n < r; r <= 6 keeps them within _MULT_MAX (62, at most C(6, 3) = 20
# in one power).  Committed inputs reach r = 3.
_RANK_MAX = 6
# Largest `verify appendixA --seeds`: each seed draws and may scan a
# subsystem, so the count bounds that work.  The default is 50.
_SEEDS_MAX = 1000


def _required(obj, key, where="the instance"):
    if key not in obj:
        raise InputError(f"{where} has no {key!r} key")
    return obj[key]


def _json_object(obj, key):
    value = _required(obj, key)
    if not isinstance(value, dict):
        raise InputError(f"{key} must be a JSON object")
    return value


def _int(value, error):
    """value if it is a JSON integer (not a bool); else an InputError whose
    message is error with {} replaced by repr(value)."""
    if type(value) is not int:
        raise InputError(error.format(repr(value)))
    return value


def _field(desc):
    """F_p, F_{p^e} (by default modulo the smallest irreducible) or Q."""
    kind = desc.get("kind")
    if kind == "rationals":
        return RationalField()
    if kind not in ("prime", "extension"):
        raise InputError(f"unknown field kind {kind!r}")
    where = f"the {kind} field record"
    p = _int(_required(desc, "p", where), "field p is not an integer: {}")
    if kind == "prime":
        return PrimeField(p)
    degree = _int(_required(desc, "degree", where), "field degree is not an integer: {}")
    modulus = desc["modulus"] if "modulus" in desc else find_irreducible(p, degree)
    if not isinstance(modulus, list) or len(modulus) != degree + 1:
        raise InputError("modulus is not a list of degree + 1 coefficients")
    return ExtensionField(p, [_int(c, "field modulus entry is not an integer: {}")
                              for c in modulus])


def _place(curve, obj):
    """The point "O", or the two coordinates [x, y] of a point on the curve."""
    if obj == "O":
        return INFINITY
    if not isinstance(obj, list) or len(obj) != 2:
        raise InputError(f"point {obj!r} is neither \"O\" nor two coordinates")
    K = curve.field
    return curve.check_place(Place(K.elt_from_json(obj[0]), K.elt_from_json(obj[1])))


def _divisor(curve, obj):
    """A list of at most _MULT_MAX {"point", "mult"} records, summed per point."""
    if not isinstance(obj, list):
        raise InputError(f"divisor {obj!r} is not a list of point records")
    if len(obj) > _MULT_MAX:
        raise InputError(f"divisor of {len(obj)} point records exceeds "
                         f"{_MULT_MAX} records")
    D = Divisor()
    for rec in obj:
        if not isinstance(rec, dict):
            raise InputError(f"divisor record {rec!r} is not a JSON object")
        where = f"divisor record {rec!r}"
        _required(rec, "point", where)
        mult = _int(_required(rec, "mult", where), "divisor multiplicity {} is not an integer")
        D.add_place(_place(curve, rec["point"]), mult)
    total = sum(abs(m) for m in D.support.values())
    if total > _MULT_MAX:
        raise InputError(f"divisor multiplicity {total} (the sum of |mult| over its "
                         f"points) exceeds {_MULT_MAX}")
    return D


def _bundle(curve, obj):
    """At most _RANK_MAX split factors with single order-0 conditions at
    distinct places."""
    factors = _required(obj, "factors", f"bundle {obj!r}")
    mods = obj.get("modifications", [])
    if not isinstance(factors, list) or not isinstance(mods, list):
        raise InputError("bundle factors and modifications must be lists")
    if len(factors) > _RANK_MAX:
        raise InputError(f"bundle of {len(factors)} factors exceeds rank {_RANK_MAX}")
    for m in mods:
        if not isinstance(m, dict) or not isinstance(m.get("codirection"), list):
            raise InputError("a modification is an object with a codirection list")
        _required(m, "point", f"modification {m!r}")
    K = curve.field
    spec = BundleSpec(curve, [_divisor(curve, f) for f in factors],
                      [Modification.simple(_place(curve, m["point"]),
                                           [K.elt_from_json(v) for v in m["codirection"]])
                       for m in mods])
    if len({m.place for m in spec.modifications}) < len(mods):
        raise InputError("modification places must be pairwise distinct")
    return spec


def _twists(curve, selector):
    """All of Pic^0 for "all", else the one degree-0 divisor the selector
    lists ([] is the trivial class)."""
    if selector == "all":
        if not curve.field.is_finite:
            raise InputError("'all' twists need a finite field")
        return curve.pic0_representatives()
    D = _divisor(curve, selector)
    if D.degree != 0:
        raise InputError("twist class must have degree zero")
    return [D]


def _twist_flag(text):
    """The --M value: "all", or JSON for a list of point records (checked
    as a divisor by _twists); anything else is an error naming the value."""
    if text == "all":
        return text
    try:
        sel = json.loads(text)
    except ValueError as e:                  # an integer of too many digits too
        raise InputError(f"--M {text!r} is not JSON: {e}") from None
    if not isinstance(sel, list) and sel != "all":
        raise InputError(f"--M {text!r} is neither \"all\" nor a list of point records")
    return sel


def load_instance(path, overrides):
    """The Instance in the JSON file at path, with the flags in overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read instance {path!r}: {e.strerror}") from None
    except ValueError as e:     # not UTF-8, not JSON, or an integer of too many digits
        raise InputError(f"instance {path!r} is not UTF-8 JSON: {e}") from None
    return Instance(obj, overrides)


def emit(payload):
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


# -- commands -----------------------------------------------------------------


def cmd_curve_info(inst, args):
    c = inst.curve
    out = {"command": "curve-info", "field": c.field.desc(),
           "a4": c.field.elt_to_json(c.a4), "a6": c.field.elt_to_json(c.a6),
           "discriminant": c.field.elt_to_json(c.discriminant)}
    if c.field.is_finite:
        out["points"] = [c.place_to_json(p) for p in c.points()]
        out["group_order"] = c.group_order
    return out


def cmd_sections(inst, args):
    reports = []
    for M in inst.twists:
        V = h0(dual_twist(inst.bundle, M))
        rec = V.to_json()
        rec["M"] = inst.curve.divisor_to_json(M)
        reports.append(rec)
    return {"command": "sections", "reports": reports}


def _checked(rep):
    """A scan_report made with both cross-checks, as JSON; a disagreement
    between routes is an invariant violation (exit 2)."""
    if rep.oracle_agreement is False:
        raise InvariantViolation(
            "jet-rank and pole-counting osculating dimensions disagree: "
            + json.dumps(rep.to_json(), sort_keys=True))
    if rep.witness_match is False:
        raise InvariantViolation(
            "deficiency set and subsheaf witnesses disagree: "
            + json.dumps(rep.to_json(), sort_keys=True))
    return rep.to_json()


def cmd_osc(inst, args):
    reports = []
    for M in inst.twists:
        ctx = ScanContext(inst.bundle, M, ext_degree=inst.ext_degree, k_max=inst.k)
        reports.append(_checked(scan_report(ctx, inst.k)))
    return {"command": "osc", "k": inst.k, "reports": reports}


def cmd_scan(inst, args):
    out = []
    for M in inst.twists:
        ctx = ScanContext(inst.bundle, M, ext_degree=inst.ext_degree, k_max=inst.k)
        out.extend(_checked(rep) for rep in scan_reports(ctx, inst.k))
    return {"command": "scan", "reports": out}


def cmd_witnesses(inst, args):
    big = inst.curve.base_change(inst.ext_degree)
    out = []
    for M in inst.twists:
        recs = []
        for place, ws in witness_sets(inst.bundle, M, inst.k, inst.ext_degree).items():
            if ws.is_empty:
                continue
            recs.append({"point": big.place_to_json(place),
                         "directions": [[big.field.elt_to_json(c) for c in d]
                                        for d in ws.directions]})
        out.append({"M": inst.curve.divisor_to_json(M), "k": inst.k,
                    "ext_degree": inst.ext_degree, "fibers": recs})
    return {"command": "witnesses", "reports": out}


def cmd_project(inst, args):
    if inst.m is None:
        raise InputError("project needs --m (the projected dimension m + 1)")
    out = []
    for M in inst.twists:
        V = h0(dual_twist(inst.bundle, M))
        W, _ = project_system(V, inst.m, inst.seed)
        ctx = ScanContext(inst.bundle, M, ext_degree=inst.ext_degree,
                          k_max=inst.k, sections=W)
        reports = [rep.to_json()
                   for rep in scan_reports(ctx, inst.k, cross_check=False)]
        out.append({"M": inst.curve.divisor_to_json(M), "seed": inst.seed,
                    "m_plus_1": inst.m, "reports": reports})
    return {"command": "project", "seed": inst.seed, "reports": out}


def cmd_segre(inst, args):
    method = args.method or "auto"
    rep = segre1(inst.bundle, method=method, ext_degree=inst.ext_degree)
    out = rep.to_json()
    out["command"] = "segre"
    return out


def cmd_bounds(args):
    if args.r is None or args.d is None or args.g is None:
        raise InputError("bounds needs --r, --d, --g (and optionally --n, --m)")
    n = args.n if args.n is not None else 1
    bound, delta = hirschowitz_bound(args.r, n, args.d, args.g)
    if abs(args.d) > _MULT_MAX * args.r:     # the system's size grows with |d| / r
        raise InputError(f"bounds --d {args.d} exceeds {_MULT_MAX} * r = "
                         f"{_MULT_MAX * args.r} in absolute value")
    out = {"command": "bounds", "bound": bound, "delta": delta}
    try:
        out["system"] = _jsonable(kprime_expected_dims(args.r, args.d, args.g,
                                                       m=args.m))
    except InputError:
        out["system"] = None
    return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def cmd_hypothesis_nilpotent(inst, args):
    exists, details = nilpotent_rank1_exists(inst.bundle)
    out = {"command": "hypothesis-nilpotent", "exists": exists,
           "end_dim": details["dim"]}
    if details["witness_coeffs"] is not None:
        K = inst.field
        out["witness_coeffs"] = [K.elt_to_json(c) for c in details["witness_coeffs"]]
    return out


def cmd_verify(inst, args):
    name = args.theorem
    if name == "mainA":
        ks = None if args.k is None else list(range(args.k + 1))
        rep = verify_segre_threshold(inst.bundle, k_values=ks,
                                     ext_degree=inst.ext_degree)
    elif name == "mainB":
        rep = verify_semistability(inst.bundle, ext_degree=inst.ext_degree)
    elif name == "mainBmod":
        rep = verify_cohomological_stability(inst.bundle,
                                             ext_degree=inst.ext_degree)
    elif name == "mainC":
        rep = verify_generic_inflection(inst.bundle, ext_degree=inst.ext_degree)
    elif name == "appendixA":
        if inst.m is None:
            raise InputError("verify appendixA needs --m")
        if not 1 <= args.seeds <= _SEEDS_MAX:
            raise InputError(f"--seeds must be between 1 and {_SEEDS_MAX}: "
                             f"{args.seeds}")
        M = inst.twists[0]
        seeds = range(inst.seed, inst.seed + args.seeds)
        rep = verify_projection(inst.bundle, M, inst.m, seeds,
                                ext_degree=inst.ext_degree)
    else:
        raise InputError(f"unknown theorem id {name!r}")
    out = rep.to_json()
    out["command"] = f"verify {name}"
    out["seed"] = inst.seed
    return out


class _Parser(argparse.ArgumentParser):
    """An argument error is an InputError (exit 1, one JSON document), not
    argparse's usage text on stderr and exit 2; subparsers inherit it."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser():
    """The argument parser, built once per process (parse_args keeps no
    state in it): building it takes about 2 ms, a tenth or more of a
    small command run in process, as the tests and perfbench run them."""
    p = _Parser(prog="scroll-inflect", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--instance", required=True)
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--M", default=None)
        sp.add_argument("--ext", type=int, default=None)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--method", default=None)
        return sp

    for name in ["curve-info", "sections", "osc", "scan", "witnesses",
                 "project", "segre", "hypothesis-nilpotent"]:
        common(sub.add_parser(name))
    bounds = sub.add_parser("bounds")
    bounds.add_argument("--r", type=int)
    bounds.add_argument("--n", type=int)
    bounds.add_argument("--d", type=int)
    bounds.add_argument("--g", type=int)
    bounds.add_argument("--m", type=int, default=None)
    verify = common(sub.add_parser("verify"))
    verify.add_argument("theorem",
                        choices=["mainA", "mainB", "mainBmod", "mainC",
                                 "appendixA"])
    verify.add_argument("--seeds", type=int, default=50)
    return p


_DISPATCH = {
    "curve-info": cmd_curve_info,
    "sections": cmd_sections,
    "osc": cmd_osc,
    "scan": cmd_scan,
    "witnesses": cmd_witnesses,
    "project": cmd_project,
    "segre": cmd_segre,
    "hypothesis-nilpotent": cmd_hypothesis_nilpotent,
    "verify": cmd_verify,
}


def run_command(argv):
    """Parse, dispatch, emit; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "bounds":
            emit(cmd_bounds(args))
            return 0
        inst = load_instance(args.instance, args)
        emit(_DISPATCH[args.command](inst, args))
        return 0
    except SystemExit as e:                   # --help, printed by argparse
        return int(e.code or 0)
    except InvariantViolation as e:
        emit({"error": str(e), "kind": "invariant-violation"})
        return 2
    except (InputError, DomainError, Unsupported) as e:
        emit({"error": f"{type(e).__name__}: {e}"})
        return 1


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
