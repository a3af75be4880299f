"""Spans at symflow's layer boundaries, recorded from outside the program.

``Tracer.install`` replaces each traced function with a wrapper at every
place it is looked up: its defining module, every ``symflow`` module that
imported the name (``symflow.cli.spectral_flow`` is a separate binding of
``symflow.spectral_flow.spectral_flow``), and the ``numpy.linalg`` /
``scipy.linalg`` attributes that symflow calls through.  Wrappers record
nothing outside an item, so the benchmark's own checks are not counted.
``uninstall`` restores every binding.

A span is ``[name, start, end, parent, item, info]``, kept in memory and
written out when the run ends.  Self time is a span's duration minus the
durations of its children; spans nest strictly because symflow is
single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute) -> span name.  "Class.method" patches the class.
SYMFLOW_TARGETS = {
    ("symflow.cli", "main"): "cli.main",
    ("symflow.serialization", "matrix_from_json"): "serialization.matrix_from_json",
    ("symflow.serialization", "space_from_json"): "serialization.space_from_json",
    ("symflow.serialization", "lagrangian_from_json"): "serialization.lagrangian_from_json",
    ("symflow.serialization", "unitary_path_from_json"): "serialization.unitary_path_from_json",
    ("symflow.serialization", "hermitian_path_from_json"): "serialization.hermitian_path_from_json",
    ("symflow.serialization", "model_from_json"): "serialization.model_from_json",
    ("symflow.symplectic_core", "lagrangian_from_frame"): "symplectic_core.lagrangian_from_frame",
    ("symflow.symplectic_core", "lagrangian_from_phi"): "symplectic_core.lagrangian_from_phi",
    ("symflow.symplectic_core", "intersection_dim"): "symplectic_core.intersection_dim",
    ("symflow.lagrangian_indices", "maslov"): "lagrangian_indices.maslov",
    ("symflow.lagrangian_indices", "tau_mu"): "lagrangian_indices.tau_mu",
    ("symflow.lagrangian_indices", "m_pairing"): "lagrangian_indices.m_pairing",
    ("symflow.lagrangian_indices", "tsig"): "lagrangian_indices.tsig",
    ("symflow.unitary_invariants", "wind"): "unitary_invariants.wind",
    ("symflow.unitary_invariants", "UnitaryPath.refined"): "unitary_invariants.refined",
    ("symflow.spectral_flow", "spectral_flow"): "spectral_flow.spectral_flow",
    ("symflow.spectral_flow", "HermitianPath.refined"): "spectral_flow.refined",
    ("symflow.spectral_flow", "eta_finite"): "spectral_flow.eta_finite",
    ("symflow.model_dirac", "interval_eta_tilde"): "model_dirac.interval_eta_tilde",
    ("symflow.model_dirac", "eta_truncated"): "model_dirac.eta_truncated",
    ("symflow.model_dirac", "interval_spectrum"): "model_dirac.spectrum",
    ("symflow.model_dirac", "circle_spectrum"): "model_dirac.spectrum",
    ("symflow.model_dirac", "boundary_spectrum"): "model_dirac.spectrum",
    ("symflow.model_dirac", "cauchy_data"): "model_dirac.cauchy_data",
    ("symflow.model_dirac", "adiabatic_limit"): "model_dirac.adiabatic_limit",
    ("symflow.model_dirac", "nicolaescu_verify"): "model_dirac.nicolaescu_verify",
}
LAPACK_TARGETS = {
    ("numpy.linalg", "eig"): "lapack.eig",
    ("numpy.linalg", "eigvals"): "lapack.eig",
    ("numpy.linalg", "eigh"): "lapack.eig",
    ("numpy.linalg", "eigvalsh"): "lapack.eig",
    ("numpy.linalg", "svd"): "lapack.svd",
    ("scipy.linalg", "expm"): "lapack.expm",
}

# info recorded on the span from the function's result
INFO = {
    "unitary_invariants.refined": lambda p: [int(p.size), len(p.times)],
    "spectral_flow.refined": lambda p: [int(p.size), len(p.times)],
    "model_dirac.eta_truncated": lambda e: int(e.n_used),
}

SAMPLE_SIZES = (2, 8, 32)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.item = None
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def begin(self, item: int) -> None:
        self.item = item
        self.stack = [len(self.spans)]
        self.spans.append(["item", perf_counter(), 0.0, -1, item, None])

    def end(self) -> None:
        self.spans[self.stack[0]][2] = perf_counter()
        self.item = None
        self.stack = []

    def _call(self, name, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self.stack[-1], self.item, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()
        info = INFO.get(name)
        if info is not None:
            rec[5] = info(out)
        return out

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _norm_wrapper(self, fn):
        # norm(M, 2) of a matrix runs an SVD through numpy's internal binding,
        # which a wrapper on numpy.linalg.svd never sees: count it as one
        @functools.wraps(fn)
        def wrapper(x, ord=None, *args, **kwargs):
            if self.item is None or ord != 2 or np.ndim(x) != 2:
                return fn(x, ord, *args, **kwargs)
            return self._call("lapack.svd", fn, (x, ord) + args, kwargs)
        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.linalg
        import scipy.linalg  # noqa: F401  (patched by name below)

        symflow_modules = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == "symflow" or n.startswith("symflow."))]
        targets = {**SYMFLOW_TARGETS, **LAPACK_TARGETS}
        for (modname, attr), name in targets.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrapper(name, getattr(cls, meth)))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrapper(name, fn)
            self._set(owner, attr, wrapped)
            for mod in symflow_modules:
                if mod is not owner and getattr(mod, attr, None) is fn:
                    self._set(mod, attr, wrapped)
        self._set(numpy.linalg, "norm", self._norm_wrapper(numpy.linalg.norm))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def write(self, path: Path, item_names: list) -> None:
        """One JSON list per span after a header line naming the fields;
        ``parent`` indexes the spans in file order from 0, -1 for the root
        span of an item."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "item", "info"]) + "\n")
            for name, t0, t1, parent, item, info in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, item_names[item], info]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _outermost(names, parents, wanted: set) -> np.ndarray:
    """Spans named in ``wanted`` with no ancestor named in ``wanted``."""
    inside = np.zeros(len(names), dtype=bool)
    for i, p in enumerate(parents):
        if p >= 0:
            inside[i] = inside[p] or names[p] in wanted
    return np.array([n in wanted for n in names]) & ~inside


def _nearest(names, parents, i: int, target: str) -> int:
    p = parents[i]
    while p >= 0 and names[p] != target:
        p = parents[p]
    return p


def layer_metrics(spans: list, n_items: int, engines: dict) -> dict:
    """Per-layer metrics from the spans of whole traced passes.

    ``n_items`` is the number of items those passes ran; ``_ms`` metrics
    without "per call" in their definition are per item (total / n_items).
    ``engines`` maps the index of each glue item to the engine its roots
    come from, "split" or "coupled".
    """
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    self_t = dur - child
    by_name = defaultdict(list)
    for i, n in enumerate(names):
        by_name[n].append(i)

    def total(name, times=dur):
        return float(np.sum(times[by_name[name]])) if by_name[name] else 0.0

    def per_item_ms(x):
        return 1e3 * x / n_items

    def per_call_us(mask):
        count = int(np.sum(mask))
        return 1e6 * float(np.sum(dur[mask])) / count if count else 0.0

    out = {}
    out["cli.self_ms"] = per_item_ms(total("cli.main", self_t))
    ser = {n for n in by_name if n.startswith("serialization.")}
    out["serialization.parse_ms"] = per_item_ms(float(np.sum(dur[_outermost(names, parents, ser)])))
    lag = {"symplectic_core.lagrangian_from_frame", "symplectic_core.lagrangian_from_phi"}
    out["symplectic_core.lagrangian_us"] = per_call_us(_outermost(names, parents, lag))
    out["symplectic_core.intersection_dim_us"] = per_call_us(
        _outermost(names, parents, {"symplectic_core.intersection_dim"}))
    point = {"lagrangian_indices.tau_mu", "lagrangian_indices.m_pairing", "lagrangian_indices.tsig"}
    out["lagrangian_indices.point_us"] = per_call_us(_outermost(names, parents, point))
    out["lagrangian_indices.maslov_ms"] = per_item_ms(float(np.sum(
        dur[_outermost(names, parents, {"lagrangian_indices.maslov"})])))

    for layer, top, refine in (("unitary_invariants", "unitary_invariants.wind",
                                "unitary_invariants.refined"),
                               ("spectral_flow", "spectral_flow.spectral_flow",
                                "spectral_flow.refined")):
        out[f"{layer}.refine_ms"] = per_item_ms(total(refine))
        self_name = "wind_ms" if layer == "unitary_invariants" else "flow_ms"
        out[f"{layer}.{self_name}"] = per_item_ms(total(top, self_t))
        samples = sum(spans[i][5][1] for i in by_name[refine])
        out[f"{layer}.samples"] = samples / n_items
        # cost per refined sample of the whole call (refinement + transport),
        # by matrix size
        per_k_time = defaultdict(float)
        per_k_samples = defaultdict(int)
        for i in by_name[refine]:
            k, s = spans[i][5]
            owner = _nearest(names, parents, i, top)
            if owner >= 0:
                per_k_time[k] += dur[owner]
                per_k_samples[k] += s
        for k in SAMPLE_SIZES:
            out[f"{layer}.us_per_sample.k{k}"] = (
                1e6 * per_k_time[k] / per_k_samples[k] if per_k_samples[k] else 0.0)
    out["spectral_flow.eta_finite_us"] = per_call_us(
        _outermost(names, parents, {"spectral_flow.eta_finite"}))

    for kind in ("eig", "svd"):
        out[f"lapack.{kind}_calls"] = len(by_name[f"lapack.{kind}"]) / n_items
        out[f"lapack.{kind}_ms"] = per_item_ms(total(f"lapack.{kind}"))
    out["lapack.expm_calls"] = len(by_name["lapack.expm"]) / n_items

    eta_t = {"split": 0.0, "coupled": 0.0}
    roots = {"split": 0, "coupled": 0}
    for i in by_name["model_dirac.interval_eta_tilde"]:
        eta_t[engines[spans[i][4]]] += dur[i]
    for i in by_name["model_dirac.eta_truncated"]:
        if _nearest(names, parents, i, "model_dirac.interval_eta_tilde") >= 0:
            roots[engines[spans[i][4]]] += spans[i][5]
    for engine in ("split", "coupled"):
        out[f"model_dirac.eta_ms.{engine}"] = per_item_ms(eta_t[engine])
        out[f"model_dirac.us_per_root.{engine}"] = (
            1e6 * eta_t[engine] / roots[engine] if roots[engine] else 0.0)
    out["model_dirac.roots"] = (roots["split"] + roots["coupled"]) / n_items
    out["model_dirac.spectrum_ms"] = per_item_ms(float(np.sum(
        dur[_outermost(names, parents, {"model_dirac.spectrum"})])))
    out["model_dirac.cauchy_data_us"] = per_call_us(
        _outermost(names, parents, {"model_dirac.cauchy_data"}))
    out["model_dirac.adiabatic_limit_ms"] = per_item_ms(total("model_dirac.adiabatic_limit"))
    out["model_dirac.nicolaescu_ms"] = per_item_ms(total("model_dirac.nicolaescu_verify"))
    return out
