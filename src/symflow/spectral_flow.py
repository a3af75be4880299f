"""Spectral flow of Hermitian matrix paths and the finite eta invariants.

The (-eps,-eps) convention is used throughout: the flow counts eigenvalues
moving from negative to nonnegative minus those moving from nonnegative to
negative, with zero eigenvalues belonging to the nonnegative side.  The zero
threshold |lambda| <= tol * max(1, ||H||), with ||H|| the largest |eigenvalue|
of the same solve, is shared between the flow and eta so the two can never
classify an eigenvalue differently.
"""

from __future__ import annotations

import numpy as np

from ._linalg import crossing_signs, norm_at_most, norms_below, sign_classes
from .errors import IdentityViolation
from .unitary_invariants import CrossingLog, IndexResult, SampledPath

__all__ = [
    "HermitianPath",
    "spectral_flow",
    "eta_finite",
    "sf_eta_consistency",
]

ZERO_TOL = 1e-9
# A step whose spectra reach this norm is tested scaled by an exact power of
# two to a norm near 2^256: squares and sums of such norms would overflow.
HUGE_NORM = 2.0 ** 500


def _require_hermitian(h: np.ndarray, tol: float, what: str) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if not np.isfinite(h).all():
        raise ValueError(f"{what} has a non-finite entry")
    ok, part = _hermitian_parts(h, tol)
    if not ok:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return part


def _hermitian_parts(h: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """For each square matrix of a stack (..., k, k): the verdict of
    ``_require_hermitian``, finite and ||h - h*||_2 <= 10 tol max(1,
    ||h||_2) (``norm_at_most``), and (h + h*)/2, meaningful where it holds.
    That sum is halved before it is formed, so it cannot overflow."""
    ht = h.conj().swapaxes(-1, -2)
    finite = np.isfinite(h).all(axis=(-2, -1))
    if finite.all():
        return norm_at_most(h - ht, tol * 10, scale=h), 0.5 * h + 0.5 * ht
    ok = np.zeros(finite.shape, dtype=bool)
    ok[finite] = norm_at_most(h[finite] - ht[finite], tol * 10, scale=h[finite])
    return ok, h


def _scale(vals: np.ndarray) -> np.ndarray:
    """max(1, ||H||) per sample, from the eigenvalues on the last axis; the
    zero threshold is tol times this."""
    return np.maximum(1.0, np.max(np.abs(vals), axis=-1, initial=0.0))


def _root(r: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The root m > 0 of 2 m^2 + r m = r d, (sqrt(r^2 + 8 r d) - r) / 4, for
    r > 0 without cancellation; infinite where d is."""
    return 0.25 * r * np.expm1(0.5 * np.log1p(8.0 * d / r))


def _cluster_gap(vals: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Per row, the distance from the ``held`` values, a run of consecutive
    sorted eigenvalues, to the others; infinite when either set is empty."""
    lo = np.min(np.where(held, vals, np.inf), axis=-1, keepdims=True)
    hi = np.max(np.where(held, vals, -np.inf), axis=-1, keepdims=True)
    return np.min(np.where(held, np.inf, np.maximum(lo - vals, vals - hi)),
                  axis=-1, initial=np.inf, keepdims=True)


class HermitianPath(SampledPath):
    """Sampled path of Hermitian matrices, optionally generator-backed.

    The path tolerance ``tol`` is also the zero threshold: eigenvalues with
    |lambda| <= tol * ||H|| are zero for the flow and the endpoint eta
    invariants.  The ``info`` of a refined path is its eigenvalues, one
    ascending row per sample.
    """

    NO_GENERATOR = "move eigenvalues across the spectral gap and no generator is available"

    def _checked(self, h, what: str) -> np.ndarray:
        return _require_hermitian(h, self.tol, what)

    def _stack_checked(self, hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _hermitian_parts(hs, self.tol)

    @staticmethod
    def _info(hs: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(hs)

    def _window(self, scale: np.ndarray) -> np.ndarray:
        """A sample's crossing window max(4*tol, 1e-4) * max(1, ||H||) from its
        ``_scale``: the eigenvalues in it are treated as "currently crossing",
        so refinement localizes a crossing to this resolution instead of
        chasing the vanishing gap at the crossing itself."""
        return np.maximum(4.0 * self.tol, 1e-4) * scale

    def _steps_ok(self, ha, va, hb, vb) -> np.ndarray:
        """Chord Weyl: D = ||hb - ha||_2 < max(w, g), w the larger crossing window
        of the two ends and g the least over the sorted curves j of

        * |va_j| + |vb_j| for a curve in the window at neither end, or 0 if
          it changes sign between them, where |va_j| + |vb_j| = |vb_j - va_j|
          <= D holds but for rounding;
        * max(|va_j|, |vb_j|, m(r, d)) for a curve in the window at an end, r
          the larger of |vb_j - va_j| and 8 w, d the smaller of its
          end-averaged gaps to curves j - 1 and j + 1, and m(r, d) the root
          m > 0 of 2 m^2 + r m = r d; and, if it is in the window at both
          ends, m(2 w, c / 2), c the larger over the two ends of the gap
          between the curves in the windows at both ends and the others.

        On the chord H_s = (1 - s) ha + s hb, Weyl gives |lambda_j(H_s) - va_j|
        <= s D and |lambda_j(H_s) - vb_j| <= (1 - s) D, so curve j can vanish
        on the chord only if |va_j| + |vb_j| <= D, and below max(|va_j|,
        |vb_j|) it keeps one strict sign.  The log counts the crossings of a
        step from the sign classes at its ends, so a curve in a window may
        cross zero on the chord once, but not twice outside the band of twice
        the window around zero:

        * below m(r, d) its gaps stay above d - D > 0, so by second-order
          perturbation |lambda_j''| <= K = 2 D^2 / (d - D) < r: the curve is
          monotone on the chord, or stays within K / 8 < w of the chord's
          linear interpolant;
        * below m(2 w, c / 2) the curves in the windows at both ends stay
          within D^2 / (c - 2 D) of the eigenvalues of A_s, the compression
          of H_s to their eigenspace at the end where c is taken (the
          quadratic residual bound of Li and Li, LAA 395, 2005).  A_s is
          linear in s, with eigenvalues within w of zero at that end and,
          by the same bound, within w + D^2 / (c - 2 D) at the other; the
          extreme eigenvalues of a linear family being convex and concave,
          the curves stay within w + 2 D^2 / (c - 2 D) < 2 w of zero;
        * below w a curve in a window moves less than w.

        A step ending near a crossing thus needs no shorter steps toward it,
        only short enough ones to keep the crossing curve monotone.

        Every term of the rule, the windows included, scales with the step,
        so a step past HUGE_NORM is tested on its ends scaled by an exact
        power of two, where no sum or square overflows; the others keep
        their bits.
        """
        sa, sb = _scale(va), _scale(vb)
        wa, wb = self._window(sa), self._window(sb)
        size = np.maximum(sa, sb)
        huge = size >= HUGE_NORM
        if np.count_nonzero(huge):
            f = np.where(huge, np.ldexp(1.0, 256 - np.frexp(size)[1]), 1.0)
            ha, hb = ha * f[:, None, None], hb * f[:, None, None]
            va, vb, wa, wb = va * f[:, None], vb * f[:, None], wa * f, wb * f
        w = np.maximum(wa, wb)[:, None]
        ma, mb = np.abs(va), np.abs(vb)
        in_a, in_b = ma <= wa[:, None], mb <= wb[:, None]
        up = 0.5 * (np.diff(va, axis=-1) + np.diff(vb, axis=-1))
        pad = np.full(up.shape[:-1] + (1,), np.inf)
        d = np.minimum(np.concatenate([up, pad], axis=-1), np.concatenate([pad, up], axis=-1))
        held = in_a & in_b
        logged = np.maximum(np.maximum(ma, mb), _root(np.maximum(np.abs(vb - va), 8.0 * w), d))
        if np.count_nonzero(held):  # else the held-cluster term is 0
            c = np.maximum(_cluster_gap(va, held), _cluster_gap(vb, held))
            logged = np.maximum(logged, np.where(held, _root(2.0 * w, 0.5 * c), 0.0))
        bound = np.where(in_a | in_b, logged, np.where(va * vb > 0, ma + mb, 0.0))
        return norms_below(ha, hb, np.maximum(w[:, 0], np.min(bound, axis=-1, initial=np.inf)),
                           hermitian=True)

    def _split(self, ta, tb, va, vb) -> np.ndarray:
        """Regula falsi for a step where exactly one sorted curve changes sign,
        from one side of the zero class to the other: where its chord meets
        zero, kept within [1/16, 15/16] of the step.  Every other step splits
        at its midpoint."""
        flips = (sign_classes(va, self.tol * _scale(va)[:, None])
                 * sign_classes(vb, self.tol * _scale(vb)[:, None])) < 0
        one = np.sum(flips, axis=1) == 1
        j = np.arange(len(ta)), np.argmax(flips, axis=1)
        a, b = va[j], vb[j]
        frac = np.divide(a, a - b, out=np.full(len(ta), 0.5), where=one)
        falsi = ta + np.clip(frac, 1.0 / 16.0, 15.0 / 16.0) * (tb - ta)
        return np.where(one, falsi, 0.5 * (ta + tb))


def spectral_flow(path: HermitianPath) -> IndexResult:
    """(-eps,-eps) spectral flow of a Hermitian path, with a crossing log.

    Counted per refined step from sorted-order matched eigenvalues: +1 when a
    matched eigenvalue moves from the negative class to the nonnegative one,
    -1 for the reverse.  Eigenvalues inside |lambda| <= tol*||H|| belong to
    the nonnegative side (zero class).
    """
    return _flow(path.refined())


def _flow(p: HermitianPath) -> IndexResult:
    """The flow of a refined path, from the eigenvalues it carries."""
    vals = p.info
    cls = sign_classes(vals, p.tol * _scale(vals)[:, None])
    # sorted-order matching is optimal for Hermitian spectra under small steps
    log = CrossingLog.from_steps(p.times, crossing_signs(cls[:-1], cls[1:]),
                                 vals[:-1], vals[1:])
    return IndexResult(log.total, log)


def _eta(vals: np.ndarray, tol: float) -> tuple[int, int, float]:
    cls = sign_classes(vals, tol * _scale(vals))
    eta = int(np.sum(cls))
    dim_ker = int(np.sum(cls == 0))
    return eta, dim_ker, 0.5 * (eta + dim_ker)


def eta_finite(h, tol: float = ZERO_TOL) -> tuple[int, int, float]:
    """(eta, dim ker, reduced eta) of a Hermitian matrix.

    eta = sum of sign(lambda) over nonzero eigenvalues, reduced eta =
    (eta + dim ker)/2; the kernel is |lambda| <= tol * ||H||.
    """
    h = _require_hermitian(h, tol, "eta_finite argument")
    return _eta(np.linalg.eigvalsh(h), tol)


def sf_eta_consistency(path: HermitianPath) -> dict:
    """Assert the finite-rank eta/flow identity along a path.

    For finite Hermitian families the derivative term of the continuous
    theory vanishes, so reduced eta at the endpoints must satisfy
    eta~(1) - eta~(0) = SF exactly.
    """
    p = path.refined()
    sf = _flow(p).value
    _, _, eta0 = _eta(p.info[0], p.tol)
    _, _, eta1 = _eta(p.info[-1], p.tol)
    delta = eta1 - eta0
    if abs(delta - sf) > 1e-12:
        raise IdentityViolation(f"eta~(1) - eta~(0) = {delta} != SF = {sf}")
    return {"sf": sf, "eta_tilde_start": eta0, "eta_tilde_end": eta1, "delta": delta}
