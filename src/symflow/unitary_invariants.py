"""Winding number of unitary paths, the branch-fixed trace log, and the
double index tau_w.

Conventions, fixed once and used everywhere:

* the branch of log is cut just below -1: log(r e^{it}) = ln r + it with
  t in (-pi, pi], so eigenvalues at -1 take log = +i*pi;
* the winding number counts signed crossings of eigenphases through -1,
  counterclockwise positive;
* for a path whose endpoint spectra contain -1, the whole path is first
  multiplied by e^{-i*eps} with eps half the smallest circular distance to
  pi among the endpoint eigenphases not at -1 at ``tol`` (pi/2 when none
  exists); whether an eigenphase is at -1 is decided by ``_linalg.at_phase``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._linalg import (
    as_integer,
    at_phase,
    branch_log_unitary,
    branch_phases,
    crossing_signs,
    require_unitary,
    wrap_phase,
)
from .errors import MethodDisagreement, NonIntegerResult, RefinementExhausted

__all__ = [
    "SampledPath",
    "UnitaryPath",
    "Crossing",
    "CrossingLog",
    "WindResult",
    "tr_log",
    "wind",
    "tau_w",
    "wind_plus_inverse_check",
]

# step invariant: consecutive samples closer than sqrt(2) in operator norm,
# so no eigenphase can move by pi/2 or more within one step
STEP_NORM_BOUND = np.sqrt(2.0) * 0.95
MAX_ARC = 0.5 * np.pi * 0.98
# bisections allowed per initial step before refinement gives up
REFINE_LIMIT = 24


@dataclass(frozen=True)
class Crossing:
    t: float
    direction: int
    phase_before: float
    phase_after: float


@dataclass(frozen=True)
class CrossingLog:
    crossings: tuple[Crossing, ...] = ()

    @property
    def total(self) -> int:
        return sum(c.direction for c in self.crossings)


@dataclass(frozen=True)
class WindResult:
    value: int
    log: CrossingLog
    eps_shift: float

    def __int__(self) -> int:
        return self.value


def sample_times(samples: Sequence[tuple]) -> list[float]:
    """The times of (t, ...) samples; ValueError unless there are at least
    two and they strictly increase."""
    if len(samples) < 2:
        raise ValueError("a path needs at least two samples")
    ts = [float(s[0]) for s in samples]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("sample times must be strictly increasing")
    return ts


class SampledPath:
    """Sampled matrix path, optionally generator-backed.

    ``samples`` is a list of (t, M) with t strictly increasing (any real
    interval is accepted).  If ``generator`` is given it must be a pure
    function t -> matrix agreeing with the samples; ``refined`` bisects with
    it until every step meets the path kind's step invariant.

    A path kind supplies ``_checked`` (validate one matrix), ``_info``
    (per-sample data for the step test), ``_step_ok`` and ``NO_GENERATOR``,
    the reason given when a step fails and there is no generator.
    """

    def __init__(self, samples: Sequence[tuple[float, np.ndarray]],
                 generator: Optional[Callable[[float], np.ndarray]] = None):
        ts = sample_times(samples)
        mats = [self._checked(m, f"sample at t={t}") for t, m in samples]
        k = mats[0].shape[0]
        if any(m.shape[0] != k for m in mats):
            raise ValueError("all samples must have the same size")
        self.times = ts
        self.mats = mats
        self.generator = generator
        self.size = k

    @classmethod
    def from_generator(cls, generator: Callable[[float], np.ndarray],
                       t0: float = 0.0, t1: float = 1.0, initial_samples: int = 9,
                       **kwargs):
        """Sample ``generator`` at evenly spaced times; ``kwargs`` go to the constructor."""
        ts = np.linspace(t0, t1, initial_samples)
        return cls([(float(t), generator(float(t))) for t in ts], generator, **kwargs)

    def _like(self, samples, generator):
        """A path of the same kind and settings through other samples."""
        return type(self)(samples, generator)

    def reversed(self):
        t0, t1 = self.times[0], self.times[-1]
        gen = None
        if self.generator is not None:
            g = self.generator
            gen = lambda t: g(t0 + t1 - t)
        rev = [(t0 + t1 - t, m) for t, m in zip(self.times[::-1], self.mats[::-1])]
        return self._like(rev, gen)

    def refined(self):
        """Insert generator midpoints until every step meets the step invariant."""
        out_t = [self.times[0]]
        out_m = [self.mats[0]]

        def push(ta, ma, ia, tb, mb, ib, depth):
            if self._step_ok(ma, ia, mb, ib):
                out_t.append(tb)
                out_m.append(mb)
                return
            if self.generator is None:
                raise RefinementExhausted(f"samples at t={ta:.6g}, {tb:.6g} {self.NO_GENERATOR}")
            if depth >= REFINE_LIMIT:
                raise RefinementExhausted(
                    f"step invariant unreachable after {depth} bisections near t={ta:.6g}"
                )
            tm = 0.5 * (ta + tb)
            mm = self._checked(self.generator(tm), f"generator at t={tm}")
            im = self._info(mm)
            push(ta, ma, ia, tm, mm, im, depth + 1)
            push(tm, mm, im, tb, mb, ib, depth + 1)

        infos = [self._info(m) for m in self.mats]
        for i in range(len(self.times) - 1):
            push(self.times[i], self.mats[i], infos[i],
                 self.times[i + 1], self.mats[i + 1], infos[i + 1], 0)
        if len(out_t) == len(self.times):
            return self
        return self._like(list(zip(out_t, out_m)), self.generator)


class UnitaryPath(SampledPath):
    """Sampled path of unitary matrices, optionally generator-backed."""

    NO_GENERATOR = ("violate the step invariant and no generator is available "
                    "(interpolation would invent data)")

    @staticmethod
    def _checked(u, what: str) -> np.ndarray:
        return require_unitary(u, what=what)

    @staticmethod
    def _info(u) -> None:
        return None

    @staticmethod
    def _step_ok(ua, _ia, ub, _ib) -> bool:
        return np.linalg.norm(ub - ua, 2) < STEP_NORM_BOUND

    def pointwise_inverse(self) -> "UnitaryPath":
        gen = None
        if self.generator is not None:
            g = self.generator
            gen = lambda t: g(t).conj().T
        return UnitaryPath([(t, u.conj().T) for t, u in zip(self.times, self.mats)], gen)


def tr_log(u, tol: float = 1e-9) -> complex:
    """Trace of log(U) with the branch cut just below -1."""
    u = require_unitary(u, tol, what="tr_log argument")
    return branch_log_unitary(u, tol)


def _endpoint_shift(u0: np.ndarray, u1: np.ndarray, tol: float) -> float:
    """eps for the endpoint convention wind(f) := wind(f e^{-i eps})."""
    phases = np.concatenate([np.angle(np.linalg.eigvals(u0)),
                             np.angle(np.linalg.eigvals(u1))])
    dist = np.abs(wrap_phase(phases - np.pi))
    away = dist[~at_phase(phases, np.pi, tol)]
    if away.size == 0:
        return 0.5 * np.pi
    return 0.5 * float(np.min(away))


def _match_phases(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Permutation matching phases of consecutive samples on the circle."""
    from scipy.optimize import linear_sum_assignment

    diff = wrap_phase(cur[None, :] - prev[:, None])
    _, cols = linear_sum_assignment(np.abs(diff))
    return cols


def wind(path: UnitaryPath, tol: float = 1e-9) -> WindResult:
    """Winding number of a unitary path, computed two ways that must agree.

    (a) accumulated det-phase of step-relative unitaries, corrected by the
        endpoint branch logs; (b) per-step matched-eigenphase crossings of -1.
    The integer from (b) is returned with its crossing log; a disagreement
    raises MethodDisagreement (numerical breakdown, never silently resolved).
    """
    p = path.refined()
    eps = _endpoint_shift(p.mats[0], p.mats[-1], tol)
    shift = np.exp(-1j * eps)
    mats = [u * shift for u in p.mats]
    times = p.times

    # method (b): eigenphase transport
    crossings: list[Crossing] = []
    phases_prev = np.sort(np.angle(np.linalg.eigvals(mats[0])))
    for j in range(1, len(mats)):
        phases_cur = np.angle(np.linalg.eigvals(mats[j]))
        perm = _match_phases(phases_prev, phases_cur)
        matched = phases_cur[perm]
        arcs = wrap_phase(matched - phases_prev)
        if np.any(np.abs(arcs) > MAX_ARC):
            raise RefinementExhausted(
                f"eigenphase moved by {np.max(np.abs(arcs)):.3f} rad in one refined step "
                f"near t={times[j - 1]:.6g}; transport ambiguous"
            )
        u_prev = wrap_phase(phases_prev - np.pi)
        u_prev[np.abs(u_prev) <= 1e-9] = 0.0
        u_cur = u_prev + arcs
        u_cur[np.abs(u_cur) <= 1e-9] = 0.0
        dirs = crossing_signs(u_prev, u_cur)
        for i in np.flatnonzero(dirs):
            a, b = u_prev[i], u_cur[i]
            frac = abs(a) / max(abs(b - a), 1e-300)
            tc = times[j - 1] + frac * (times[j] - times[j - 1])
            crossings.append(Crossing(float(tc), int(dirs[i]), float(phases_prev[i]),
                                      float(matched[i])))
        phases_prev = np.sort(phases_cur)
    log = CrossingLog(tuple(sorted(crossings, key=lambda c: c.t)))
    by_counting = log.total

    # method (a): continuous arg det minus endpoint branch corrections; after
    # the shift no endpoint eigenphase is within 4*tol of -1, so np.angle is
    # already on the branch and no classification is needed
    arg_det = 0.0
    for j in range(1, len(mats)):
        rel = mats[j] @ mats[j - 1].conj().T
        arg_det += float(np.sum(np.angle(np.linalg.eigvals(rel))))
    by_det = (arg_det - np.sum(np.angle(np.linalg.eigvals(mats[-1])))
              + np.sum(np.angle(np.linalg.eigvals(mats[0])))) / (2.0 * np.pi)
    try:
        by_det_int = as_integer(by_det, 1e-6, what="winding (det method)")
    except NonIntegerResult as exc:
        raise MethodDisagreement(str(exc)) from exc
    if by_det_int != by_counting:
        raise MethodDisagreement(
            f"det-phase method gives {by_det_int}, crossing count gives {by_counting}"
        )
    return WindResult(by_counting, log, eps)


def _principal_log_matrix(u: np.ndarray, tol: float) -> np.ndarray:
    """Matrix log of a unitary with the (-pi, pi] branch (eigendecomposition)."""
    vals, vecs = np.linalg.eig(u)
    return (vecs * (1j * branch_phases(vals, tol))) @ np.linalg.inv(vecs)


def tau_w(u, v, tol: float = 1e-9, cross_check: bool = False) -> int:
    """Double index tau_w(U, V): the winding-additivity defect of (U, V).

    Evaluated by the closed trace-log formula
    (tr log UV - tr log U - tr log V) / (2 pi i); with ``cross_check`` the
    path definition wind(f) + wind(g) - wind(fg) along f = exp(s log U),
    g = exp(s log V) is computed as well and must agree.
    """
    u = require_unitary(u, tol, what="U")
    v = require_unitary(v, tol, what="V")
    raw = (branch_log_unitary(u @ v, tol) - branch_log_unitary(u, tol)
           - branch_log_unitary(v, tol)) / (2j * np.pi)
    value = as_integer(raw.real, 1e-8, what="tau_w")
    if abs(raw.imag) > 1e-8:
        raise NonIntegerResult(f"tau_w has imaginary residue {raw.imag:.3e}")
    if cross_check:
        lu = _principal_log_matrix(u, tol)
        lv = _principal_log_matrix(v, tol)
        from scipy.linalg import expm

        f = UnitaryPath.from_generator(lambda s: expm(s * lu), initial_samples=17)
        g = UnitaryPath.from_generator(lambda s: expm(s * lv), initial_samples=17)
        fg = UnitaryPath.from_generator(lambda s: expm(s * lu) @ expm(s * lv),
                                        initial_samples=17)
        by_path = wind(f, tol).value + wind(g, tol).value - wind(fg, tol).value
        if by_path != value:
            raise MethodDisagreement(
                f"tau_w trace-log formula gives {value}, path definition gives {by_path}"
            )
    return value


def wind_plus_inverse_check(path: UnitaryPath, tol: float = 1e-9):
    """wind(f) + wind(f^{-1}) = dim ker(f(0)+I) - dim ker(f(1)+I), asserted.

    Returns (wind(f), wind(f^{-1}), kernel dim at start, kernel dim at end).
    """
    from .errors import IdentityViolation

    wf = wind(path, tol).value
    wi = wind(path.pointwise_inverse(), tol).value

    def ker_dim(u):
        return int(np.sum(at_phase(np.angle(np.linalg.eigvals(u)), np.pi, tol)))

    d0 = ker_dim(path.mats[0])
    d1 = ker_dim(path.mats[-1])
    if wf + wi != d0 - d1:
        raise IdentityViolation(
            f"wind(f) + wind(f^-1) = {wf + wi} != {d0 - d1} = dim ker(f(0)+I) - dim ker(f(1)+I)"
        )
    return wf, wi, d0, d1
