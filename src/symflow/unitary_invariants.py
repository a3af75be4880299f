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

import copy
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._linalg import (
    DEFAULT_TOL,
    as_integer,
    at_phase,
    branch_log_unitary,
    crossing_signs,
    principal_power,
    require_unitary,
    unitary_mask,
    unitary_phases,
    widest_gap,
    wrap_phase,
)
from .errors import MethodDisagreement, NonIntegerResult, RefinementExhausted

__all__ = [
    "SampledPath",
    "UnitaryPath",
    "Crossing",
    "CrossingLog",
    "IndexResult",
    "tr_log",
    "wind",
    "tau_w",
    "wind_plus_inverse_check",
]

# cap on the eigenphase arc of a unitary step: ||U_b - U_a||_2 below
# 0.95 sqrt(2), so no eigenphase moves by pi/2 or more within one step
STEP_ARC_BOUND = 2.0 * np.arcsin(0.95 / np.sqrt(2.0))
# bisections allowed per initial step before refinement gives up
REFINE_LIMIT = 24
# failing steps bisected together in one round of refinement; it also bounds
# the work done on a path whose steps keep failing until REFINE_LIMIT
REFINE_BATCH = 256


@dataclass(frozen=True)
class Crossing:
    """One logged crossing: its interpolated time ``t``, its direction, and
    ``phase_before`` / ``phase_after``, the crossing curve's values at the
    ends of its certified step (matched eigenphases for ``wind``;
    eigenvalues for spectral flow, one of them inside the crossing window)."""
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

    @classmethod
    def from_steps(cls, times, dirs, before, after, logged=None) -> "CrossingLog":
        """The crossings of matched values along a sampled path, sorted by time.

        ``dirs``, ``before`` and ``after`` are (steps, k) arrays: the
        ``crossing_signs`` of each step and the values that move from
        ``before`` at times[j] to ``after`` at times[j + 1]; a crossing is
        timed where their linear interpolation meets zero.  ``logged`` is
        the (before, after) pair each crossing reports, by default the
        interpolated values themselves.
        """
        j, i = np.nonzero(dirs)
        a, b = before[j, i], after[j, i]
        frac = np.minimum(np.abs(a) / np.maximum(np.abs(b - a), 1e-300), 1.0)
        t = np.asarray(times)
        tc = t[j] + frac * (t[j + 1] - t[j])
        pb, pa = (before, after) if logged is None else logged
        crossings = [Crossing(float(c), int(d), float(x), float(y))
                     for c, d, x, y in zip(tc, dirs[j, i], pb[j, i], pa[j, i])]
        return cls(tuple(sorted(crossings, key=lambda c: c.t)))


@dataclass(frozen=True)
class IndexResult:
    """An integer path invariant (winding, spectral flow, Maslov index) with
    the crossings it counts."""
    value: int
    log: CrossingLog

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
    it until every step meets the path kind's step invariant.  ``tol`` is the
    path's tolerance: every sample is checked at it, and a path kind may use
    it for more (the zero threshold of a Hermitian path).

    A path kind supplies ``_checked`` (validate one matrix at ``tol``),
    ``_stack_checked`` (the same verdict on a stack, and the checked stack),
    ``_info`` (per-sample data of the step test, for a stack of samples),
    ``_steps_ok`` (the step test for stacks of step endpoints), or ``_steps``
    when the test has per-step data to keep, and ``NO_GENERATOR``, the
    reason given when a step fails and there is no generator; it may
    override ``_split`` (where a failing step gets its new sample).  ``info``
    and ``step_info`` hold the per-sample and per-step data of a path
    returned by ``refined``, else None.
    """

    def __init__(self, samples: Sequence[tuple[float, np.ndarray]],
                 generator: Optional[Callable[[float], np.ndarray]] = None,
                 tol: float = DEFAULT_TOL):
        self.tol = tol
        ts = sample_times(samples)
        mats = self._checked_all([m for _, m in samples],
                                 lambda i: f"sample at t={samples[i][0]}")
        k = mats[0].shape[0]
        if any(m.shape[0] != k for m in mats):
            raise ValueError("all samples must have the same size")
        self.times = ts
        self.mats = mats
        self.generator = generator
        self.size = k
        self.info = self.step_info = None

    @classmethod
    def from_generator(cls, generator: Callable[[float], np.ndarray],
                       initial_samples: int = 9, broadcasts: bool = False, **kwargs):
        """Sample ``generator`` at evenly spaced times of [0, 1], in one call if it
        ``broadcasts`` (each matrix of its stack bit for bit as alone); ``kwargs`` go
        to the constructor."""
        ts = np.linspace(0.0, 1.0, initial_samples)
        mats = generator(ts) if broadcasts else [generator(t) for t in ts.tolist()]
        return cls(list(zip(ts.tolist(), mats)), generator, **kwargs)

    def _checked_all(self, mats: list, what: Callable[[int], str]) -> list:
        """The matrices checked as ``_checked`` checks each, ``what(i)``
        naming matrix i: one stacked verdict (``_stack_checked``).  When it
        fails, or the matrices are not square of one size, they are checked
        one at a time, so the first that fails raises what it raises alone."""
        try:
            stack = np.asarray(mats, dtype=complex)
        except (TypeError, ValueError):
            stack = None
        if stack is not None and stack.ndim == 3 and stack.shape[1] == stack.shape[2]:
            ok, checked = self._stack_checked(stack)
            if ok.all():
                return list(checked)
        return [self._checked(m, what(i)) for i, m in enumerate(mats)]

    def _with(self, times, mats, generator, info=None, step_info=None):
        """A path of the same kind and settings through already checked samples."""
        new = copy.copy(self)
        new.times, new.mats, new.generator = times, mats, generator
        new.info, new.step_info = info, step_info
        return new

    def reversed(self):
        t0, t1 = self.times[0], self.times[-1]
        gen = None
        if self.generator is not None:
            g = self.generator
            gen = lambda t: g(t0 + t1 - t)
        return self._with([t0 + t1 - t for t in self.times[::-1]], self.mats[::-1], gen)

    def _split(self, ta: np.ndarray, tb: np.ndarray, info_a, info_b) -> np.ndarray:
        """The new sample times of failing steps (ta[i], tb[i]), each strictly
        inside its step; by default the midpoints.  ``info_a``, ``info_b`` are
        the ``_info`` rows at the step ends."""
        return 0.5 * (ta + tb)

    def _steps(self, a, info_a, b, info_b) -> tuple[np.ndarray, np.ndarray]:
        """``_steps_ok`` and the data kept of each step: by default none."""
        ok = self._steps_ok(a, info_a, b, info_b)
        return ok, np.empty((len(ok), 0))

    def refined(self):
        """Split steps at generator samples until every step meets the step invariant.

        Refinement runs in rounds.  A round takes the leftmost REFINE_BATCH
        failing steps, evaluates the generator at their split points
        (``_split``) and tests all new part steps at once, so while no more
        than REFINE_BATCH steps fail there is one round per splitting level.
        A step's verdict and split point depend only on its two endpoints and
        its own history, so the samples are those of splitting each failing
        step in turn.

        A split not at the midpoint counts log2(step / part) halvings on each
        part, and a part longer than half its step is next split at its
        midpoint; so a failing part raises RefinementExhausted at the same
        REFINE_LIMIT halvings as plain bisection, after at most twice as
        many splits.  A refined path is its own refinement.
        """
        if self.info is not None:
            return self
        ts = list(self.times)
        mats = list(self.mats)
        stack = np.array(mats)
        info = self._info(stack)
        infos = list(info)
        ok, data = self._steps(stack[:-1], info[:-1], stack[1:], info[1:])
        # the data of each accepted step, by its left sample
        kept = dict(zip(np.flatnonzero(ok).tolist(), data[ok]))
        # failing steps as (left sample, right sample, halvings so far, whether
        # _split may choose the point), the leftmost last
        pending = [(i, i + 1, 0.0, True) for i in np.flatnonzero(~ok)[::-1]]
        while pending:
            batch = pending[:-REFINE_BATCH - 1:-1]
            del pending[-REFINE_BATCH:]
            a, b, _, _ = batch[0]
            if self.generator is None:
                raise RefinementExhausted(
                    f"samples at t={ts[a]:.6g}, {ts[b]:.6g} {self.NO_GENERATOR}")
            deep = [step for step in batch if step[2] >= REFINE_LIMIT]
            if deep:
                a, _, depth, _ = deep[0]
                raise RefinementExhausted(
                    f"step invariant unreachable after {depth:g} bisections near t={ts[a]:.6g}"
                )
            left, right, _, free = zip(*batch)
            ta, tb = np.array([ts[a] for a in left]), np.array([ts[b] for b in right])
            info_a = np.array([infos[a] for a in left])
            info_b = np.array([infos[b] for b in right])
            mid = 0.5 * (ta + tb)
            t_new = np.where(free, self._split(ta, tb, info_a, info_b), mid)
            first = len(ts)
            ts += t_new.tolist()
            mids = np.array(self._checked_all([self.generator(t) for t in ts[first:]],
                                              lambda i: f"generator at t={ts[first + i]}"))
            mids_info = self._info(mids)
            mats += list(mids)
            infos += list(mids_info)
            ok, data = self._steps(
                np.concatenate([np.array([mats[a] for a in left]), mids]),
                np.concatenate([info_a, mids_info]),
                np.concatenate([mids, np.array([mats[b] for b in right])]),
                np.concatenate([mids_info, info_b]))
            parts = np.stack([t_new - ta, tb - t_new])
            halvings = np.where(t_new == mid, 1.0, np.log2((tb - ta) / parts))
            short = (t_new == mid) | (parts <= 0.5 * (tb - ta))
            n = len(batch)
            starts = np.concatenate([left, np.arange(first, first + n)])
            kept.update(zip(starts[ok].tolist(), data[ok]))
            for r in range(n - 1, -1, -1):
                a, b, depth, _ = batch[r]
                if not ok[n + r]:
                    pending.append((first + r, b, depth + halvings[1, r], bool(short[1, r])))
                if not ok[r]:
                    pending.append((a, first + r, depth + halvings[0, r], bool(short[0, r])))
        order = np.argsort(ts, kind="stable")
        return self._with([ts[i] for i in order], [mats[i] for i in order], self.generator,
                          np.array(infos)[order], np.array([kept[i] for i in order[:-1]]))


class UnitaryPath(SampledPath):
    """Sampled path of unitary matrices, optionally generator-backed.  A
    refined path keeps the ``unitary_phases`` of its samples (``info``) and
    of its negated step products -U_b U_a* (``step_info``)."""

    NO_GENERATOR = ("violate the step invariant and no generator is available "
                    "(interpolation would invent data)")

    def _checked(self, u, what: str) -> np.ndarray:
        return require_unitary(u, self.tol, what)

    def _stack_checked(self, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return unitary_mask(us, self.tol), us

    @staticmethod
    def _info(us: np.ndarray) -> np.ndarray:
        return unitary_phases(us)

    @staticmethod
    def _steps(ua, pa, ub, pb) -> tuple[np.ndarray, np.ndarray]:
        """Pass steps whose theta = max |arg lambda(U_b U_a*)| is below both
        STEP_ARC_BOUND and half the widest eigenphase gap of an end: along
        U_a exp(s log(U_b U_a*)) every spectrum stays within theta of either
        end's (Bhatia and Davis, Linear Multilinear Algebra 15, 1984), so no
        eigenphase reaches the middle of that gap, where ``wind`` cuts."""
        steps = unitary_phases(-(ub @ ua.conj().transpose(0, 2, 1)))
        theta = np.max(np.abs(wrap_phase(steps - np.pi)), axis=-1, initial=0.0)
        half = 0.5 * np.maximum(widest_gap(pa)[1], widest_gap(pb)[1])
        return theta < np.minimum(STEP_ARC_BOUND, half), steps


def tr_log(u, tol: float = 1e-9) -> complex:
    """Trace of log(U) with the branch cut just below -1."""
    u = require_unitary(u, tol, what="tr_log argument")
    return branch_log_unitary(u, tol)


def _endpoint_shift(phases: np.ndarray, tol: float) -> float:
    """eps for the endpoint convention wind(f) := wind(f e^{-i eps}), from
    the endpoint eigenphases."""
    dist = np.abs(wrap_phase(phases - np.pi))
    away = dist[~at_phase(phases, np.pi, tol)]
    if away.size == 0:
        return 0.5 * np.pi
    return 0.5 * float(np.min(away))


def _cut_matched(ordered: np.ndarray, info: np.ndarray, eps: float) -> np.ndarray:
    """Each next row of ``ordered``, the ``info`` of a refined unitary path
    turned by -eps and sorted, matched to the row before it in sorted order
    from the step's cut: the middle of the wider widest eigenphase gap of its
    ends, which its step test used.  The match is a cyclic shift by the
    difference of the two rows' counts of phases below the cut."""
    mid, width = widest_gap(info)
    cut = -wrap_phase(eps - np.where(width[:-1] >= width[1:], mid[:-1], mid[1:]))[:, None]
    shift = np.count_nonzero(ordered[1:] < cut, axis=1)
    shift -= np.count_nonzero(ordered[:-1] < cut, axis=1)
    k = ordered.shape[1]
    return np.take_along_axis(ordered[1:], (np.arange(k) + shift[:, None]) % k, axis=1)


def wind(path: UnitaryPath, tol: float = 1e-9) -> IndexResult:
    """Winding number of a unitary path, computed two ways that must agree.

    (a) accumulated det-phase of step-relative unitaries, corrected by the
        endpoint branch logs; (b) per-step matched-eigenphase crossings of -1.
    The integer from (b) is returned with its crossing log; a disagreement
    raises MethodDisagreement (numerical breakdown, never silently resolved).
    Both read the phases the refined path keeps: of the samples about the
    pole +1, so that they are most accurate at -1, and of the negated step
    products about -1.  The shift e^{-i eps} is a subtraction on the phases,
    on (-pi, pi] as np.angle gives them; it leaves the step products as they
    are.  Matched from a cut no eigenphase reaches (``_cut_matched``), every
    arc is at most the step's theta and the count is the step's exact net
    crossing of -1.
    """
    p = path.refined()
    eps = _endpoint_shift(wrap_phase(p.info[[0, -1]]), tol)
    phases = -wrap_phase(eps - p.info)

    # method (b): eigenphase transport, in coordinates u = phase - pi around -1
    ordered = np.sort(phases, axis=1)
    matched = _cut_matched(ordered, p.info, eps)
    u_prev = wrap_phase(ordered[:-1] - np.pi)
    u_prev[np.abs(u_prev) <= 1e-9] = 0.0
    u_cur = u_prev + wrap_phase(matched - ordered[:-1])
    u_cur[np.abs(u_cur) <= 1e-9] = 0.0
    log = CrossingLog.from_steps(p.times, crossing_signs(u_prev, u_cur), u_prev, u_cur,
                                 (ordered[:-1], matched))
    by_counting = log.total

    # method (a): continuous arg det minus endpoint branch corrections; after
    # the shift no endpoint eigenphase is within 4*tol of -1, so the phases
    # are already on the branch and no classification is needed.  A refined
    # step has theta < STEP_ARC_BOUND, so about -1 its Cayley eigenvalues
    # satisfy |lambda| < 0.91
    arg_det = float(np.sum(wrap_phase(p.step_info - np.pi)))
    by_det = (arg_det - np.sum(phases[-1]) + np.sum(phases[0])) / (2.0 * np.pi)
    try:
        by_det_int = as_integer(by_det, 1e-6, what="winding (det method)")
    except NonIntegerResult as exc:
        raise MethodDisagreement(str(exc)) from exc
    if by_det_int != by_counting:
        raise MethodDisagreement(
            f"det-phase method gives {by_det_int}, crossing count gives {by_counting}"
        )
    return IndexResult(by_counting, log)


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
        pu = principal_power(u, tol)
        pv = principal_power(v, tol)
        f = UnitaryPath.from_generator(pu, initial_samples=17, tol=tol)
        g = UnitaryPath.from_generator(pv, initial_samples=17, tol=tol)
        fg = UnitaryPath.from_generator(lambda s: pu(s) @ pv(s), initial_samples=17, tol=tol)
        by_path = wind(f, tol).value + wind(g, tol).value - wind(fg, tol).value
        if by_path != value:
            raise MethodDisagreement(
                f"tau_w trace-log formula gives {value}, path definition gives {by_path}"
            )
    return value


def wind_plus_inverse_check(path: UnitaryPath, tol: float = 1e-9):
    """wind(f) + wind(f^{-1}) = dim ker(f(0)+I) - dim ker(f(1)+I), asserted.

    f^{-1} is f's refined samples conjugate-transposed: ||U_b* - U_a*|| =
    ||U_b - U_a||, so no sample is checked or generated again.  Its sample
    and step-product eigenphases are f's negated, in reverse circular order
    (U_b* U_a is the adjoint of U_a* U_b, which is similar to U_b U_a*), so
    none is solved again either.  Returns (wind(f), wind(f^{-1}), kernel dim
    at start, kernel dim at end).
    """
    from .errors import IdentityViolation

    refined = path.refined()
    inverse = refined._with(refined.times, [u.conj().T for u in refined.mats], None,
                            -refined.info[:, ::-1], -refined.step_info[:, ::-1])
    wf, wi = wind(refined, tol).value, wind(inverse, tol).value

    ends = wrap_phase(refined.info[[0, -1]])
    d0, d1 = (int(np.count_nonzero(at_phase(row, np.pi, tol))) for row in ends)
    if wf + wi != d0 - d1:
        raise IdentityViolation(
            f"wind(f) + wind(f^-1) = {wf + wi} != {d0 - d1} = dim ker(f(0)+I) - dim ker(f(1)+I)"
        )
    return wf, wi, d0, d1
