"""Batch front-end: scenario files in, JSON-line reports out.

Exit codes: 0 all good, 1 an asserted identity failed, 2 schema error,
3 numerical resolution failure (refinement, root bracketing or the
spectral window).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from typing import Callable, Optional

import numpy as np

from . import model_dirac as md
from .errors import (
    BracketingFailure,
    RefinementExhausted,
    SchemaError,
    SymflowError,
    WindowEscape,
)
from .lagrangian_indices import (
    m_pairing,
    maslov,
    tau_mu,
    tsig,
    tsig_tau_mu_conversion,
)
from .serialization import (
    complex_to_json,
    hermitian_path_from_json,
    lagrangian_from_json,
    matrix_from_json,
    matrix_to_json,
    model_from_json,
    pair_path_from_json,
    require_fields,
    space_from_json,
    unitary_path_from_json,
)
from .spectral_flow import eta_finite, sf_eta_consistency, spectral_flow
from .symplectic_core import intersection_dim, subspace_distance
from .unitary_invariants import tau_w, tr_log, wind, wind_plus_inverse_check

RESOLUTION_ERRORS = (RefinementExhausted, BracketingFailure, WindowEscape)


def _crossing_log_json(log) -> list:
    return [{"t": c.t, "direction": c.direction,
             "phase_before": c.phase_before, "phase_after": c.phase_after}
            for c in log.crossings]


def _op_tr_log(inputs, tol):
    require_fields(inputs, ("U",), (), "tr_log inputs")
    val = tr_log(matrix_from_json(inputs["U"], "U"), tol)
    return {"value": complex_to_json(val)}


def _op_wind(inputs, tol):
    require_fields(inputs, ("path",), (), "wind inputs")
    r = wind(unitary_path_from_json(inputs["path"], tol), tol)
    return {"value": r.value, "log": _crossing_log_json(r.log)}


def _op_tau_w(inputs, tol):
    require_fields(inputs, ("U", "V"), (), "tau_w inputs")
    val = tau_w(matrix_from_json(inputs["U"], "U"), matrix_from_json(inputs["V"], "V"),
                tol)
    return {"value": val}


def _op_wind_inverse(inputs, tol):
    require_fields(inputs, ("path",), (), "wind_plus_inverse_check inputs")
    wf, wi, d0, d1 = wind_plus_inverse_check(unitary_path_from_json(inputs["path"], tol),
                                             tol)
    return {"value": [wf, wi, d0, d1], "pass": True}


def _triple_inputs(inputs, names, tol):
    space = space_from_json(inputs["space"], tol) if "space" in inputs else None
    return [lagrangian_from_json(inputs[k], space, tol) for k in names]


def _op_tau_mu(inputs, tol):
    require_fields(inputs, ("P", "Q", "R"), ("space",), "tau_mu inputs")
    p, q, r = _triple_inputs(inputs, ("P", "Q", "R"), tol)
    return {"value": tau_mu(p, q, r, tol)}


def _op_m(inputs, tol):
    require_fields(inputs, ("V", "W"), ("space",), "m inputs")
    v, w = _triple_inputs(inputs, ("V", "W"), tol)
    return {"value": m_pairing(v, w, tol)}


def _op_tsig(inputs, tol):
    require_fields(inputs, ("V", "W", "U"), ("space",), "tsig inputs")
    v, w, u = _triple_inputs(inputs, ("V", "W", "U"), tol)
    return {"value": tsig(v, w, u, tol)}


def _op_conversion(inputs, tol):
    require_fields(inputs, ("V", "W", "U"), ("space",), "conversion inputs")
    v, w, u = _triple_inputs(inputs, ("V", "W", "U"), tol)
    rec = tsig_tau_mu_conversion(v, w, u, tol)
    return {"value": rec, "pass": True}


def _op_intersection(inputs, tol):
    require_fields(inputs, ("L1", "L2"), ("space",), "intersection inputs")
    l1, l2 = _triple_inputs(inputs, ("L1", "L2"), tol)
    return {"value": intersection_dim(l1, l2, tol)}


def _op_maslov(inputs, tol):
    r = maslov(pair_path_from_json(inputs, tol), tol)
    return {"value": r.value, "log": _crossing_log_json(r.log)}


def _op_eta_finite(inputs, tol):
    require_fields(inputs, ("H",), (), "eta_finite inputs")
    h = matrix_from_json(inputs["H"], "H")
    try:
        eta, ker, red = eta_finite(h, tol)
    except ValueError as exc:  # not square or not Hermitian
        raise SchemaError(f"H: {exc}") from exc
    return {"value": {"eta": eta, "dim_ker": ker, "eta_tilde": red}}


def _op_spectral_flow(inputs, tol):
    require_fields(inputs, ("path",), (), "spectral_flow inputs")
    r = spectral_flow(hermitian_path_from_json(inputs["path"], tol))
    return {"value": r.value, "log": _crossing_log_json(r.log)}


def _op_sf_eta(inputs, tol):
    require_fields(inputs, ("path",), (), "sf_eta inputs")
    rec = sf_eta_consistency(hermitian_path_from_json(inputs["path"], tol))
    return {"value": rec, "pass": True}


OPS: dict[str, Callable] = {
    "tr_log": _op_tr_log,
    "wind": _op_wind,
    "tau_w": _op_tau_w,
    "wind_plus_inverse_check": _op_wind_inverse,
    "tau_mu": _op_tau_mu,
    "m": _op_m,
    "tsig": _op_tsig,
    "tsig_tau_mu_conversion": _op_conversion,
    "intersection_dim": _op_intersection,
    "maslov": _op_maslov,
    "eta_finite": _op_eta_finite,
    "spectral_flow": _op_spectral_flow,
    "sf_eta": _op_sf_eta,
}


def _parse_tol(value, what: str) -> float:
    """A tolerance from --tol, SYMFLOW_TOL or a scenario: a finite number > 0."""
    try:
        tol = float(value)
    except (TypeError, ValueError, OverflowError):
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise SchemaError(f"{what} must be a positive finite number, got {value!r}")
    return tol


def _default_tol(args) -> float:
    if args.tol is not None:
        return _parse_tol(args.tol, "--tol")
    env = os.environ.get("SYMFLOW_TOL")
    return _parse_tol(env, "SYMFLOW_TOL") if env else 1e-9


def run_scenario(scenario: dict, default_tol: float, timing: bool = False) -> dict:
    require_fields(scenario, ("name", "op", "inputs"),
                   ("seed", "tolerances"), "scenario")
    name = scenario["name"]
    op = scenario["op"]
    if not isinstance(op, str) or op not in OPS:
        raise SchemaError(f"unknown op {op!r}; available: {sorted(OPS)}")
    tolerances = scenario.get("tolerances", {})
    require_fields(tolerances, (), ("tol",), "tolerances")
    tol = (_parse_tol(tolerances["tol"], "tolerances.tol") if "tol" in tolerances
           else default_tol)
    t0 = time.perf_counter()
    report = {"name": name, "op": op, "tolerances": {"tol": tol}}
    report.update(OPS[op](scenario["inputs"], tol))
    report.setdefault("pass", True)
    if timing:
        report["wall_ms"] = round(1000.0 * (time.perf_counter() - t0), 3)
    return report


def _failure(exc: SymflowError, **ident) -> tuple[dict, int]:
    """The report and exit code of a failed scenario or model action: 2 for
    malformed input, 3 for a numerical resolution failure, 1 otherwise."""
    code = (2 if isinstance(exc, SchemaError) else
            3 if isinstance(exc, RESOLUTION_ERRORS) else 1)
    return {**ident, "error": type(exc).__name__, "detail": str(exc), "pass": False}, code


def _emit(reports, out_path: Optional[str], pretty: bool):
    text = "".join(
        json.dumps(r, indent=2 if pretty else None,
                   separators=None if pretty else (",", ":"), sort_keys=True,
                   default=_json_default) + "\n"
        for r in reports
    )
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return complex_to_json(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def cmd_run(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read scenario file: {exc}", file=sys.stderr)
        return 2
    if isinstance(doc, dict) and "scenarios" in doc:
        require_fields(doc, ("scenarios",), (), "scenario file")
        scenarios = doc["scenarios"]
        if not isinstance(scenarios, list):
            raise SchemaError(f"scenarios must be an array, got {scenarios!r}")
    elif isinstance(doc, list):
        scenarios = doc
    elif isinstance(doc, dict):
        scenarios = [doc]
    else:
        print("scenario file must hold an object or an array", file=sys.stderr)
        return 2
    default_tol = _default_tol(args)
    reports = []
    codes = {0}
    for sc in scenarios:
        try:
            reports.append(run_scenario(sc, default_tol, timing=args.timing))
            if not reports[-1].get("pass", True):
                codes.add(1)
        except SymflowError as exc:
            ident = sc if isinstance(sc, dict) else {}
            rec, code = _failure(exc, name=ident.get("name", "?"), op=ident.get("op", "?"))
            reports.append(rec)
            codes.add(code)
    _emit(reports, args.out, args.pretty)
    # a malformed scenario outranks every other failure in the batch
    return 2 if 2 in codes else max(codes)


def cmd_verify(args) -> int:
    # imported here: only `verify` needs the suites, so no other command loads them
    from . import verification

    try:
        reports = verification.run_suite(args.suite, seed=args.seed, count=args.count)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    lines = []
    ok = True
    for rep in reports:
        lines.extend(rep.lines())
        ok &= rep.ok
    lines.append(f"result: {'all identities verified' if ok else 'FAILURES PRESENT'} "
                 f"(seed {args.seed})")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def cmd_model(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read model file: {exc}", file=sys.stderr)
        return 2
    try:
        report = _model_report(args.what, model_from_json(doc, _default_tol(args)))
        code = 0
    except SymflowError as exc:
        report, code = _failure(exc, kind=args.what)
    _emit([report], args.out, args.pretty)
    return code


def _model_report(what: str, parsed: dict) -> dict:
    """The report of one `symflow model` action on a parsed model document."""
    op = parsed["op"]
    if what in ("cauchy", "stretch", "glue") and isinstance(op.geometry, md.Circle):
        raise SchemaError(f"model {what} needs an interval geometry")
    if what == "spectrum":
        if isinstance(op.geometry, md.Circle):
            lams = md.circle_spectrum(op, parsed["window"])
        else:
            if "p" not in parsed or "q" not in parsed:
                raise SchemaError("interval spectrum needs boundary P and Q")
            lams = md.interval_spectrum(op, parsed["p"], parsed["q"],
                                        parsed["window"])
        return {"kind": "spectrum", "window": parsed["window"],
                  "eigenvalues": [float(x) for x in lams]}
    elif what == "cauchy":
        lx = md.cauchy_data(op)
        return {"kind": "cauchy", "frame": matrix_to_json(lx.frame),
                  "phi": matrix_to_json(lx.phi)}
    elif what == "stretch":
        nu = parsed["stretch"]["nu"]
        lim = md.adiabatic_limit(op, nu=nu)
        dists = [
            {"length": r,
             "distance": subspace_distance(md.cauchy_data(op, side="+", length=r), lim)}
            for r in parsed["stretch"]["lengths"]
        ]
        return {"kind": "stretch", "nu": nu, "limit_frame":
                  matrix_to_json(lim.frame), "distances": dists}
    elif what == "glue":
        glue = parsed["glue"]
        if glue is None:
            raise SchemaError("model glue needs a 'glue' section")
        # the same operator at another length: it shares the blocks and the double space
        op_minus = dataclasses.replace(op, geometry=md.Interval(glue["length_minus"]))
        p = lagrangian_from_json(glue["P"], md.double_boundary(op).space)
        rec = md.glue_verify(op, op_minus, p, eta_tol=parsed["eta_tol"])
        return {"kind": "glue", **rec, "pass": True}
    raise SchemaError(f"unknown model action {what!r}")  # pragma: no cover


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process: parsing leaves it
    unchanged, so every call of ``main`` shares it."""
    parser = argparse.ArgumentParser(
        prog="symflow",
        description="symplectic spectral invariants: batch scenarios, "
                    "verification suites, and the solvable model operator")
    parser.add_argument("--tol", default=None,
                        help="default tolerance (overrides SYMFLOW_TOL)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--pretty", action="store_true")
    p_run.add_argument("--timing", action="store_true",
                       help="include wall-clock fields (breaks byte determinism)")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run a seeded verification suite")
    p_verify.add_argument("suite", help="a suite name or 'all'; an unknown name "
                                        "exits 2 and lists the suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_model = sub.add_parser("model", help="model-operator computations")
    p_model.add_argument("what", choices=["spectrum", "cauchy", "stretch", "glue"])
    p_model.add_argument("file")
    p_model.add_argument("--out", default=None)
    p_model.add_argument("--pretty", action="store_true")
    p_model.set_defaults(func=cmd_model)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
