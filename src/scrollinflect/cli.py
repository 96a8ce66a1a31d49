"""Batch command-line frontend: JSON instance files in, one JSON report out.

Exit codes: 0 success, 1 input or validation error, 2 internal invariant
violation (the two osculating-dimension routes disagreeing, or a failed
witness correspondence).  Output is byte-stable for identical inputs and
seeds: keys are sorted and every number is emitted through the exact
serializers.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bundle import BundleSpec, dual_twist, h0
from .curve import Curve
from .errors import (DomainError, InputError, InvariantViolation, PrecisionError,
                     Unsupported)
from .fields import field_from_desc
from .scroll import ScanContext, project_system, scan_report, witness_sets
from .theorems import (hirschowitz_bound, kprime_expected_dims,
                       nilpotent_rank1_exists, segre1, verify_cohomological_stability,
                       verify_generic_inflection, verify_projection,
                       verify_segre_threshold, verify_semistability)


class Instance:
    """Parsed instance file: field, curve, bundle, twist selector, parameters."""

    def __init__(self, obj):
        if not isinstance(obj, dict):
            raise InputError("an instance file must hold a JSON object")
        self.field = field_from_desc(_json_object(obj, "field"))
        cdesc = _json_object(obj, "curve")
        a4 = self.field.elt_from_json(_required(cdesc, "a4", "curve"))
        a6 = self.field.elt_from_json(_required(cdesc, "a6", "curve"))
        self.curve = Curve(self.field, a4, a6)
        self.bundle = BundleSpec.from_json(self.curve, _json_object(obj, "bundle"))
        self.M_selector = obj.get("M", [])
        self.twists = None
        params = obj.get("parameters") or {}
        if not isinstance(params, dict):
            raise InputError("parameters must be an object")
        self.k = params.get("k", 0)
        self.ext_degree = params.get("ext_degree", 1)
        self.seed = params.get("seed", 0)
        self.m = params.get("m")

    def check_parameters(self):
        """k, ext_degree, seed and m (or null) must be ints, not bools, with
        k >= 0 and 1 <= ext_degree <= 3."""
        for name in ("k", "ext_degree", "seed", "m"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "m" and value is None):
                raise InputError(f"parameter {name} is not an integer: {value!r}")
        if self.k < 0:
            raise InputError("parameter k must be nonnegative")
        if not 1 <= self.ext_degree <= 3:
            raise InputError("parameter ext_degree must be 1, 2 or 3")

    def check_twists(self):
        """Set twists to the selected degree-0 classes: all of Pic^0 for
        "all", else the one divisor the selector lists ([] is the trivial
        class).  Any other selector, or a divisor of nonzero degree, is an
        input error."""
        sel = self.M_selector
        if sel == "all":
            if not self.field.is_finite:
                raise InputError("'all' twists need a finite field")
            self.twists = self.curve.pic0_representatives()
            return
        D = self.curve.divisor_from_json(sel)
        if D.degree != 0:
            raise InputError("twist class must have degree zero")
        self.twists = [D]


def _required(obj, key, where="the instance"):
    if key not in obj:
        raise InputError(f"{where} has no {key!r} key")
    return obj[key]


def _json_object(obj, key):
    value = _required(obj, key)
    if not isinstance(value, dict):
        raise InputError(f"{key} must be a JSON object")
    return value


def _twist_flag(text):
    """The --M value: "all", or JSON for a list of point records (checked
    as a divisor by Instance.check_twists).  Anything else is an input
    error that names the flag and its value."""
    if text == "all":
        return text
    try:
        sel = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"--M {text!r} is not JSON: {e}") from None
    if not isinstance(sel, list) and sel != "all":
        raise InputError(f"--M {text!r} is neither \"all\" nor a list of point records")
    return sel


def load_instance(path, overrides):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read instance {path!r}: {e.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputError(f"instance {path!r} is not UTF-8 JSON: {e}") from None
    inst = Instance(obj)
    if overrides.k is not None:
        inst.k = overrides.k
    if overrides.ext is not None:
        inst.ext_degree = overrides.ext
    if overrides.seed is not None:
        inst.seed = overrides.seed
    if overrides.m is not None:
        inst.m = overrides.m
    if overrides.M is not None:
        inst.M_selector = _twist_flag(overrides.M)
    inst.check_parameters()
    inst.check_twists()
    return inst


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


def _checked_report(ctx, k):
    """scan_report at order k as JSON, with both cross-checks; a disagreement
    between routes is an invariant violation (exit 2)."""
    rep = scan_report(ctx, k, cross_check=True)
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
    reports = [_checked_report(ScanContext(inst.bundle, M, ext_degree=inst.ext_degree,
                                           k_max=inst.k), inst.k)
               for M in inst.twists]
    return {"command": "osc", "k": inst.k, "reports": reports}


def cmd_scan(inst, args):
    out = []
    for M in inst.twists:
        ctx = ScanContext(inst.bundle, M, ext_degree=inst.ext_degree, k_max=inst.k)
        out.extend(_checked_report(ctx, k) for k in range(inst.k + 1))
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
        W = project_system(V, inst.m, inst.seed)
        ctx = ScanContext(inst.bundle, M, ext_degree=inst.ext_degree,
                          k_max=inst.k, sections=W)
        reports = [scan_report(ctx, k, cross_check=False).to_json()
                   for k in range(inst.k + 1)]
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
    out = {"command": "bounds"}
    if args.r is None or args.d is None or args.g is None:
        raise InputError("bounds needs --r, --d, --g (and optionally --n, --m)")
    n = args.n if args.n is not None else 1
    bound, delta = hirschowitz_bound(args.r, n, args.d, args.g)
    out["bound"] = bound
    out["delta"] = delta
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


def build_parser():
    p = _Parser(prog="scroll-inflect", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, instance=True):
        if instance:
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
    except (InputError, DomainError, Unsupported, PrecisionError) as e:
        emit({"error": f"{type(e).__name__}: {e}"})
        return 1


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
