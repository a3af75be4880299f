"""JSON wire formats: complex scalars as [re, im], matrices row-major,
Lagrangians by frame or graph unitary, paths by samples or parametric form.

Every parser validates shape and rejects unknown fields with SchemaError so
the CLI can map malformed input to its own exit code.  Every number a
document sets (sizes, sample counts, lengths, windows, truncations) is read
through ``number_from_json``, which also enforces the caps below.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from itertools import chain
from typing import Any, Optional

import numpy as np

from . import symplectic_core
from ._linalg import DEFAULT_TOL, principal_power
from .errors import SchemaError, SymflowError
from .lagrangian_indices import LagrangianPairPath
from .model_dirac import MAX_N_MAX, Circle, Interval, build_model
from .spectral_flow import ZERO_TOL, HermitianPath
from .symplectic_core import (
    Lagrangian,
    SymplecticSpace,
    graph_unitaries,
    lagrangian_from_frame,
    lagrangian_from_phi,
    space_from_gamma,
)
from .unitary_invariants import UnitaryPath

__all__ = [
    "complex_to_json", "complex_from_json", "matrix_to_json", "matrix_from_json",
    "space_from_json", "lagrangian_from_json", "unitary_path_from_json",
    "pair_path_from_json", "hermitian_path_from_json", "model_from_json", "require_fields",
]

# Caps on the numbers that set an allocation without a matching amount of
# document text: the half-dimension of "standard:n", the initial samples of a
# parametric path, and (``model_dirac.MAX_N_MAX``) the eta truncation N_max,
# glue n_max and the roots per block a model window may hold.
MAX_STANDARD_N = 512
MAX_SAMPLES = 100_000

# A batch names a few "standard:n" over and over; a SymplecticSpace is frozen
# with read-only arrays, so each n is built once and shared.  The bound keeps
# at most 8 spaces (32 MB each at MAX_STANDARD_N) alive.
standard_space = functools.lru_cache(maxsize=8)(symplectic_core.standard_space)


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def number_from_json(x, what: str, *, positive: bool = False,
                     integer_in: Optional[tuple[int, int]] = None):
    """A finite JSON number (never a bool) for the field ``what``.

    ``positive`` requires x > 0; ``integer_in=(lo, hi)`` requires an integral
    value in [lo, hi] and returns an int.  Anything else is a SchemaError.
    """
    if integer_in is not None:
        lo, hi = integer_in
        if _finite_number(x) and x == int(x) and lo <= x <= hi:
            return int(x)
        raise SchemaError(f"{what} must be an integer in [{lo}, {hi}], got {x!r}")
    if _finite_number(x) and (x > 0 or not positive):
        return float(x)
    kind = "a positive finite number" if positive else "a finite number"
    raise SchemaError(f"{what} must be {kind}, got {x!r}")


def _numbers_from_json(x, what: str) -> np.ndarray:
    if not isinstance(x, list) or not x:
        raise SchemaError(f"{what} must be a nonempty array of numbers, got {x!r}")
    return np.array([number_from_json(v, f"{what} entry") for v in x])


def complex_from_json(obj) -> complex:
    if _finite_number(obj):
        return complex(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(_finite_number(x) for x in obj)):
        return complex(obj[0], obj[1])
    raise SchemaError(f"complex scalar must be a finite number or [re, im], got {obj!r}")


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def _bulk_matrix(obj) -> Optional[np.ndarray]:
    """The matrix of a well-formed document in one numpy conversion, or None.

    Rows must be lists of one width, entries exact ints or floats or
    two-item lists of them, all finite.  Anything else (a bool, a subclass,
    a tuple, an int beyond the float range) gives None, for the per-entry
    parser to judge.  An int converts as float() rounds it, as complex()
    does in that parser.
    """
    if type(obj) is not list or not obj or set(map(type, obj)) != {list}:
        return None
    if len(set(map(len, obj))) != 1:
        return None
    entries = list(chain.from_iterable(obj))
    kinds = set(map(type, entries))
    if kinds != {list}:  # some plain numbers: each becomes [x, 0]
        if not kinds <= {int, float, list}:
            return None
        entries = [e if type(e) is list else (e, 0) for e in entries]
    if not set(map(len, entries)) <= {2}:
        return None
    numbers = list(chain.from_iterable(entries))
    if not set(map(type, numbers)) <= {int, float}:  # bool is a subclass of int
        return None
    try:
        values = np.array(numbers, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(values).all():
        return None
    return values.view(complex).reshape(len(obj), len(obj[0]))


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    """A complex matrix from nonempty rows of equal width, each entry a
    finite number or [re, im].  Documents that pass the bulk checks convert
    at once; the rest go entry by entry, which raises the SchemaError of the
    first fault in document order (or accepts what the bulk checks do not
    know, such as float subclasses)."""
    values = _bulk_matrix(obj)
    if values is not None:
        return values
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{what} must be a nonempty array of rows")
    rows = []
    width = None
    for row in obj:
        if not isinstance(row, list):
            raise SchemaError(f"{what} rows must be arrays")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{what} has ragged rows ({len(row)} vs {width})")
        rows.append([complex_from_json(z) for z in row])
    return np.array(rows, dtype=complex)


def require_fields(obj: dict, required: tuple, optional: tuple = (),
                   what: str = "object") -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{what} is missing fields {missing}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise SchemaError(f"{what} has unknown fields {unknown}")


def space_from_json(obj, tol: float = 1e-9) -> SymplecticSpace:
    if isinstance(obj, str):
        if obj.startswith("standard:"):
            try:
                n = int(obj.split(":", 1)[1])
            except ValueError as exc:
                raise SchemaError(f"bad standard space spec {obj!r}") from exc
            return standard_space(number_from_json(n, "standard:n",
                                                   integer_in=(1, MAX_STANDARD_N)))
        raise SchemaError(f"space string must be 'standard:n', got {obj!r}")
    return space_from_gamma(matrix_from_json(obj, "gamma"), tol)


def lagrangian_from_json(obj, space: Optional[SymplecticSpace] = None,
                         tol: float = 1e-9) -> Lagrangian:
    """{"space": ..., "frame": matrix} or {"space": ..., "phi": matrix};
    the space may be supplied externally instead."""
    require_fields(obj, (), ("space", "frame", "phi"), "Lagrangian")
    if "space" in obj:
        space = space_from_json(obj["space"], tol)
    if space is None:
        raise SchemaError("Lagrangian needs a space (inline or from context)")
    if ("frame" in obj) == ("phi" in obj):
        raise SchemaError("Lagrangian needs exactly one of 'frame' or 'phi'")
    if "frame" in obj:
        return lagrangian_from_frame(space, matrix_from_json(obj["frame"], "frame"), tol)
    return lagrangian_from_phi(space, matrix_from_json(obj["phi"], "phi"), tol)


def _sample_items(obj, what: str, form: tuple[str, ...]) -> list:
    """The [t, ...] items of a sampled path: at least two, each with one
    entry per name in ``form``, the first a finite time."""
    shape = f"[{', '.join(form)}]"
    if not isinstance(obj, list) or len(obj) < 2:
        raise SchemaError(f"{what} needs at least two {shape} samples")
    for item in obj:
        if not isinstance(item, list) or len(item) != len(form):
            raise SchemaError(f"{what} samples must be {shape}")
        if not _finite_number(item[0]):
            raise SchemaError(f"{what} sample time must be a finite number")
    return obj


def _samples_from_json(obj, what: str):
    return [(float(t), matrix_from_json(m, f"{what} sample"))
            for t, m in _sample_items(obj, what, ("t", "matrix"))]


def _initial_samples(par: dict, default: int) -> int:
    return number_from_json(par.get("samples", default), "parametric samples",
                            integer_in=(2, MAX_SAMPLES))


@contextmanager
def _path_errors(what: str):
    """Report a path the constructor rejects (too few samples, times out of
    order, a matrix of the wrong kind) as a schema error."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def unitary_path_from_json(obj, tol: float = DEFAULT_TOL) -> UnitaryPath:
    """{"samples": [[t, U], ...]} or {"parametric": {"kind": ..., ...}}.

    ``tol`` is the path tolerance: samples are checked for unitarity at it,
    and the exp-interp log takes its branch cut at it.
    """
    require_fields(obj, (), ("samples", "parametric"), "unitary path")
    if ("samples" in obj) == ("parametric" in obj):
        raise SchemaError("unitary path needs exactly one of 'samples' or 'parametric'")
    with _path_errors("unitary path"):
        if "samples" in obj:
            return UnitaryPath(_samples_from_json(obj["samples"], "unitary path"), tol=tol)
        par = obj["parametric"]
        if not isinstance(par, dict) or "kind" not in par:
            raise SchemaError("parametric path needs a 'kind'")
        kind = par["kind"]
        if kind == "exp-interp":
            require_fields(par, ("kind", "u0", "u1"), ("samples",), "exp-interp path")
            u0 = matrix_from_json(par["u0"], "u0")
            u1 = matrix_from_json(par["u1"], "u1")
            power = principal_power(u1 @ u0.conj().T, tol)
            return UnitaryPath.from_generator(lambda t: power(t) @ u0, broadcasts=True,
                                              initial_samples=_initial_samples(par, 17), tol=tol)
        if kind == "rotation":
            require_fields(par, ("kind", "phases", "rates"), ("frame", "samples"),
                           "rotation path")
            phases = _numbers_from_json(par["phases"], "rotation phases")
            rates = _numbers_from_json(par["rates"], "rotation rates")
            if phases.shape != rates.shape:
                raise SchemaError("rotation path needs equal-length phases and rates")
            v = (matrix_from_json(par["frame"], "frame") if "frame" in par
                 else np.eye(len(phases), dtype=complex))
            eye = np.eye(len(phases))

            def gen(t):
                d = np.exp(1j * (phases + rates * np.asarray(t)[..., None]))
                return v @ (d[..., :, None] * eye) @ v.conj().T

            return UnitaryPath.from_generator(gen, initial_samples=_initial_samples(par, 33),
                                              broadcasts=True, tol=tol)
        raise SchemaError(f"unknown parametric kind {kind!r}")


def pair_path_from_json(obj, tol: float = 1e-9) -> LagrangianPairPath:
    """{"space": ..., "samples": [[t, frame_f, frame_g], ...]}, the maslov inputs.

    Every frame_f and frame_g goes through one ``graph_unitaries``.  A path
    with a bad frame is read again one frame at a time, in document order,
    so it raises what its first bad frame raises alone."""
    require_fields(obj, ("space", "samples"), (), "maslov inputs")
    space = space_from_json(obj["space"], tol)
    items = _sample_items(obj["samples"], "maslov path", ("t", "frame_f", "frame_g"))
    try:
        phis = graph_unitaries(space, np.array([matrix_from_json(frame, "frame")
                                                for _, ff, fg in items for frame in (ff, fg)]),
                               tol)
    except (SymflowError, ValueError):
        for _, ff, fg in items:
            lagrangian_from_json({"frame": ff}, space, tol)
            lagrangian_from_json({"frame": fg}, space, tol)
        raise
    samples = [(float(t), Lagrangian(space, phi_f), Lagrangian(space, phi_g))
               for (t, _, _), phi_f, phi_g in zip(items, phis[0::2], phis[1::2])]
    with _path_errors("maslov path"):
        return LagrangianPairPath(samples)


def hermitian_path_from_json(obj, tol: float = ZERO_TOL) -> HermitianPath:
    """{"samples": [[t, H], ...]} or {"parametric": {"kind": "linear", ...}}.

    ``tol`` is the path tolerance: samples are checked for Hermiticity at it,
    and it is the zero threshold (relative to ||H||) for the flow and eta.
    """
    require_fields(obj, (), ("samples", "parametric"), "hermitian path")
    if ("samples" in obj) == ("parametric" in obj):
        raise SchemaError("hermitian path needs exactly one of 'samples' or 'parametric'")
    with _path_errors("hermitian path"):
        if "samples" in obj:
            return HermitianPath(_samples_from_json(obj["samples"], "hermitian path"),
                                 tol=tol)
        par = obj["parametric"]
        if not isinstance(par, dict) or par.get("kind") != "linear":
            raise SchemaError("hermitian parametric paths support kind 'linear'")
        require_fields(par, ("kind", "h0", "h1"), ("samples",), "linear path")
        h0 = matrix_from_json(par["h0"], "h0")
        h1 = matrix_from_json(par["h1"], "h1")

        def gen(t):
            t = np.asarray(t)[..., None, None]
            return (1 - t) * h0 + t * h1

        return HermitianPath.from_generator(gen, initial_samples=_initial_samples(par, 17),
                                            broadcasts=True, tol=tol)


def model_from_json(obj, tol: float = 1e-9) -> dict:
    """Parse the model document; returns the operator plus optional pieces.

    { "gamma": ..., "A": ..., "geometry": {"interval": L} | {"circle": C},
      "boundary": {"P": Lagrangian, "Q": Lagrangian}?, "window": ...?,
      "eta": {"N_max": ..., "tol": ...}?, "stretch": {"nu", "lengths"}?,
      "glue": {"length_minus", "P", "n_max"?}? }

    Every number is checked before the operator is built.  ``eta.N_max`` and
    ``glue.n_max`` change no result: they are range-checked and not kept.
    A missing ``stretch.lengths`` is [2, 5, 10, 20, 50]; an empty one is a
    SchemaError.  ``glue`` is None when the document has none; its "P" stays
    JSON, since it lives on the double boundary of the operator.
    """
    require_fields(obj, ("gamma", "A", "geometry"),
                   ("boundary", "window", "eta", "stretch", "glue"), "model")
    geo = obj["geometry"]
    require_fields(geo, (), ("interval", "circle"), "geometry")
    if ("interval" in geo) == ("circle" in geo):
        raise SchemaError("geometry needs exactly one of 'interval' or 'circle'")
    kind = "interval" if "interval" in geo else "circle"
    length = number_from_json(geo[kind], f"geometry.{kind}", positive=True)
    eta = obj.get("eta", {})
    require_fields(eta, (), ("N_max", "tol"), "eta")
    out: dict[str, Any] = {
        "window": number_from_json(obj.get("window", 10.0), "window", positive=True)}
    if "N_max" in eta:
        number_from_json(eta["N_max"], "eta.N_max", integer_in=(1, MAX_N_MAX))
    out["eta_tol"] = number_from_json(eta.get("tol", 1e-9), "eta.tol", positive=True)
    # the roots of a mode block lie about pi / length apart
    if out["window"] * length / np.pi > MAX_N_MAX:
        raise SchemaError(f"window {out['window']!r} holds more than {MAX_N_MAX} roots per "
                          f"block at geometry.{kind} = {length!r}")
    stretch = obj.get("stretch", {})
    require_fields(stretch, (), ("nu", "lengths"), "stretch")
    lengths = stretch.get("lengths", [2.0, 5.0, 10.0, 20.0, 50.0])
    if not (isinstance(lengths, list) and lengths):
        raise SchemaError(f"stretch.lengths must be a non-empty array, got {lengths!r}")
    out["stretch"] = {
        "nu": number_from_json(stretch.get("nu", 0.0), "stretch.nu"),
        "lengths": [number_from_json(r, "stretch.lengths entry", positive=True)
                    for r in lengths],
    }
    out["glue"] = None
    if "glue" in obj:
        glue = obj["glue"]
        require_fields(glue, ("length_minus", "P"), ("n_max",), "glue")
        length_minus = number_from_json(glue["length_minus"], "glue.length_minus", positive=True)
        if "n_max" in glue:
            number_from_json(glue["n_max"], "glue.n_max", integer_in=(1, MAX_N_MAX))
        out["glue"] = {"length_minus": length_minus, "P": glue["P"]}
    space = space_from_json(obj["gamma"], tol)
    a = matrix_from_json(obj["A"], "A")
    geometry = Interval(length) if kind == "interval" else Circle(length)
    out.update(op=build_model(space, a, geometry, tol), space=space)
    if "boundary" in obj:
        require_fields(obj["boundary"], (), ("P", "Q"), "boundary")
        if "P" in obj["boundary"]:
            out["p"] = lagrangian_from_json(obj["boundary"]["P"], space, tol)
        if "Q" in obj["boundary"]:
            out["q"] = lagrangian_from_json(obj["boundary"]["Q"], space, tol)
    return out
