"""Spectral flow of Hermitian matrix paths and the finite eta invariants.

The (-eps,-eps) convention is used throughout: the flow counts eigenvalues
moving from negative to nonnegative minus those moving from nonnegative to
negative, with zero eigenvalues belonging to the nonnegative side.  The zero
threshold |lambda| <= tol * ||H|| is shared between the flow and eta so the
two can never classify an eigenvalue differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._linalg import crossing_signs, sign_classes
from .errors import IdentityViolation
from .unitary_invariants import Crossing, CrossingLog, SampledPath

__all__ = [
    "HermitianPath",
    "SpectralFlowResult",
    "spectral_flow",
    "eta_finite",
    "sf_eta_consistency",
]

ZERO_TOL = 1e-9


def _require_hermitian(h: np.ndarray, tol: float, what: str) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    scale = max(1.0, np.linalg.norm(h, 2))
    if np.linalg.norm(h - h.conj().T, 2) > tol * 10 * scale:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return 0.5 * (h + h.conj().T)


class HermitianPath(SampledPath):
    """Sampled path of Hermitian matrices, optionally generator-backed.

    Eigenvalues with |lambda| <= zero_tol * ||H|| are zero for the flow and
    the endpoint eta invariants.
    """

    NO_GENERATOR = "move eigenvalues across the spectral gap and no generator is available"

    def __init__(self, samples: Sequence[tuple[float, np.ndarray]],
                 generator: Optional[Callable[[float], np.ndarray]] = None,
                 zero_tol: float = ZERO_TOL):
        super().__init__(samples, generator)
        self.zero_tol = zero_tol

    def _like(self, samples, generator) -> "HermitianPath":
        return HermitianPath(samples, generator, self.zero_tol)

    @staticmethod
    def _checked(h, what: str) -> np.ndarray:
        return _require_hermitian(h, 1e-9, what)

    def _zero_threshold(self, h: np.ndarray) -> float:
        return self.zero_tol * max(1.0, np.linalg.norm(h, 2))

    def _info(self, h: np.ndarray) -> tuple[float, float]:
        """(crossing window, smallest |eigenvalue| outside it) of one sample.

        Eigenvalues inside the window are treated as "currently crossing";
        refinement localizes them to this resolution instead of chasing the
        vanishing gap at the crossing itself.
        """
        vals = np.linalg.eigvalsh(h)
        norm = float(np.max(np.abs(vals))) if vals.size else 0.0
        window = max(4.0 * self.zero_tol * max(1.0, norm), 1e-4 * max(1.0, norm))
        outside = np.abs(vals)[np.abs(vals) > window]
        gap = float(outside.min()) if outside.size else np.inf
        return window, gap

    @staticmethod
    def _step_ok(ha, ia, hb, ib) -> bool:
        """Weyl: each eigenvalue moves at most ||hb - ha||, kept below half the gap."""
        w = max(ia[0], ib[0])
        g = min(ia[1], ib[1])
        bound = max(0.5 * g, w) if np.isfinite(g) else np.inf
        return np.linalg.norm(hb - ha, 2) < bound


@dataclass(frozen=True)
class SpectralFlowResult:
    value: int
    log: CrossingLog

    def __int__(self) -> int:
        return self.value


def spectral_flow(path: HermitianPath) -> SpectralFlowResult:
    """(-eps,-eps) spectral flow of a Hermitian path, with a crossing log.

    Counted per refined step from sorted-order matched eigenvalues: +1 when a
    matched eigenvalue moves from the negative class to the nonnegative one,
    -1 for the reverse.  Eigenvalues inside |lambda| <= tol*||H|| belong to
    the nonnegative side (zero class).
    """
    p = path.refined()
    crossings: list[Crossing] = []
    vals_prev = np.linalg.eigvalsh(p.mats[0])
    cls_prev = sign_classes(vals_prev, p._zero_threshold(p.mats[0]))
    for j in range(1, len(p.mats)):
        vals_cur = np.linalg.eigvalsh(p.mats[j])
        cls_cur = sign_classes(vals_cur, p._zero_threshold(p.mats[j]))
        # sorted-order matching is optimal for Hermitian spectra under small steps
        dirs = crossing_signs(cls_prev, cls_cur)
        for i in np.flatnonzero(dirs):
            a, b = vals_prev[i], vals_cur[i]
            frac = abs(a) / max(abs(b - a), 1e-300)
            tc = p.times[j - 1] + min(frac, 1.0) * (p.times[j] - p.times[j - 1])
            crossings.append(Crossing(float(tc), int(dirs[i]), float(a), float(b)))
        vals_prev, cls_prev = vals_cur, cls_cur
    log = CrossingLog(tuple(sorted(crossings, key=lambda c: c.t)))
    return SpectralFlowResult(log.total, log)


def eta_finite(h, tol: float = ZERO_TOL) -> tuple[int, int, float]:
    """(eta, dim ker, reduced eta) of a Hermitian matrix.

    eta = sum of sign(lambda) over nonzero eigenvalues, reduced eta =
    (eta + dim ker)/2; the kernel is |lambda| <= tol * ||H||.
    """
    h = _require_hermitian(h, 1e-9, "eta_finite argument")
    vals = np.linalg.eigvalsh(h)
    threshold = tol * max(1.0, np.linalg.norm(h, 2))
    cls = sign_classes(vals, threshold)
    eta = int(np.sum(cls))
    dim_ker = int(np.sum(cls == 0))
    return eta, dim_ker, 0.5 * (eta + dim_ker)


def sf_eta_consistency(path: HermitianPath) -> dict:
    """Assert the finite-rank eta/flow identity along a path.

    For finite Hermitian families the derivative term of the continuous
    theory vanishes, so reduced eta at the endpoints must satisfy
    eta~(1) - eta~(0) = SF exactly.
    """
    sf = spectral_flow(path).value
    _, _, eta0 = eta_finite(path.mats[0], path.zero_tol)
    _, _, eta1 = eta_finite(path.mats[-1], path.zero_tol)
    delta = eta1 - eta0
    if abs(delta - sf) > 1e-12:
        raise IdentityViolation(f"eta~(1) - eta~(0) = {delta} != SF = {sf}")
    return {"sf": sf, "eta_tilde_start": eta0, "eta_tilde_end": eta1, "delta": delta}
