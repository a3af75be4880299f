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


def _require_hermitian(h: np.ndarray, tol: float, what: str) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if not norm_at_most(h - h.conj().T, tol * 10, scale=h):
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return 0.5 * (h + h.conj().T)


def _scale(vals: np.ndarray) -> np.ndarray:
    """max(1, ||H||) per sample, from the eigenvalues on the last axis; the
    zero threshold is tol times this."""
    return np.maximum(1.0, np.max(np.abs(vals), axis=-1, initial=0.0))


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

    @staticmethod
    def _info(hs: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(hs)

    def _steps_ok(self, ha, va, hb, vb) -> np.ndarray:
        """Weyl: each eigenvalue moves at most ||hb - ha||, kept below half the gap.

        A sample's crossing window max(4*tol, 1e-4) * max(1, ||H||) holds
        the eigenvalues treated as "currently crossing"; refinement localizes
        them to this resolution instead of chasing the vanishing gap at the
        crossing itself.  The gap is the smallest |eigenvalue| outside it.
        """
        def window_gap(vals):
            scale = _scale(vals)
            window = np.maximum(4.0 * self.tol * scale, 1e-4 * scale)
            mags = np.abs(vals)
            gap = np.min(np.where(mags > window[:, None], mags, np.inf), axis=-1, initial=np.inf)
            return window, gap

        wa, ga = window_gap(va)
        wb, gb = window_gap(vb)
        w = np.maximum(wa, wb)
        g = np.minimum(ga, gb)
        bound = np.where(np.isfinite(g), np.maximum(0.5 * g, w), np.inf)
        return norms_below(ha, hb, bound, hermitian=True)


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
