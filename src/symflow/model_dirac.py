"""Exactly solvable model operator D = gamma(d/dx + A) on intervals and circles.

The boundary space H carries gamma and a Hermitian A with gamma A = -A gamma.
H splits into 2-D mode blocks span(psi, gamma psi) per positive eigenvalue mu
of A (in-block A = diag(mu, -mu), gamma = [[0,-1],[1,0]]) plus a gamma-invariant
kernel block.  An interval [0, L] has the double boundary space H ⊕ H with
gamma~ = gamma ⊕ (-gamma) (the far end is parametrized inward), tangential
operator A~ = A ⊕ (-A), and Cauchy data space {(v, e^{-LA} v)}.

Boundary-condition conventions, fixed here and used by every verifier:

* a "boundary Lagrangian" P is the image of its projection, so the operator
  D_P constrains boundary data to ker proj(P) = gamma~ P;
* slot 0 of the double space is the x=0 end of the interval, slot 1 the x=L
  end.  A piece glued in from the far side is read through ``swap_ends``:
  its Cauchy data are ``swap_ends(op, cauchy_data(op))`` = {(e^{-LA} w, w)},
  and its spectrum, eta and kernel under a condition C are those of ``op``
  under ``swap_ends(op, C)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from ._linalg import (
    DEFAULT_TOL,
    INT_RESIDUE_TOL,
    as_complex_matrix,
    crossing_signs,
    intersect_subspaces,
    norm_at_most,
    orthonormal_columns,
    phase_fix_columns,
    readonly,
    sign_classes,
    unitary_phases,
    wrap_phase,
)
from .errors import (
    AnticommutationFailure,
    AsymmetricSpectrum,
    BracketingFailure,
    DimensionMismatch,
    GluingViolation,
    IdentityViolation,
    IncompatibleBoundary,
    NonIntegerResult,
    ResonanceViolation,
    SchemaError,
    SymflowError,
    WindowEscape,
)
from .lagrangian_indices import LagrangianPairPath, gamma_conjugate, maslov, tau_mu
from .symplectic_core import (
    Lagrangian,
    SymplecticSpace,
    _frame_distances,
    graph_frames,
    graph_unitaries,
    intersection_dim,
    lagrangian_from_frame,
    space_from_gamma,
    symplectic_reduce,
)
from .unitary_invariants import tr_log

__all__ = [
    "Interval",
    "Circle",
    "ModeBlock",
    "ModelOperator",
    "DoubleBoundarySpace",
    "build_model",
    "double_boundary",
    "transmission_lagrangian",
    "direct_sum_lagrangian",
    "swap_ends",
    "cauchy_data",
    "stretch_distances",
    "interval_spectrum",
    "circle_spectrum",
    "boundary_spectrum",
    "interval_kernel_dim",
    "eta_lattice",
    "eta_truncated",
    "EtaEstimate",
    "interval_eta_tilde",
    "p_theta",
    "caldconst_check",
    "adiabatic_limit",
    "glue_verify",
    "nicolaescu_verify",
    "sw_modz_check",
    "model_symmetry_check",
]

# The cap on the roots per block of a model window (and on eta N_max and glue
# n_max, which change no result), and the root-scan grid that a window holding
# MAX_N_MAX roots per half-line needs at a quarter of the root spacing.
MAX_N_MAX = 100_000
MAX_SCAN_POINTS = 8 * MAX_N_MAX
# A root with |lambda| at most this is a kernel mode: eta leaves it out and
# the reduced eta counts it through the Cauchy-data kernel dimension.
ZERO_ROOT = 1e-9
# Rounding bound on a contour eta: an arctan of rounded coefficients of order
# 1, a few ulps, times 2/pi; a slope coefficient n1 below it is taken as 0.
CONTOUR_ROUNDING = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class Interval:
    length: float

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("interval length must be positive")


@dataclass(frozen=True)
class Circle:
    circumference: float

    def __post_init__(self):
        if self.circumference <= 0:
            raise ValueError("circumference must be positive")


@dataclass(frozen=True)
class ModeBlock:
    """2-D block span(psi, gamma psi) for mu > 0, or the kernel block."""

    mu: float
    frame: np.ndarray  # 2n x 2 for mu > 0, 2n x 2m for the kernel block
    block_space: Optional[SymplecticSpace] = None  # kernel block only

    def __post_init__(self):
        object.__setattr__(self, "frame", readonly(self.frame))

    @property
    def is_kernel(self) -> bool:
        return self.mu == 0.0


@dataclass(frozen=True)
class ModelOperator:
    """D = gamma(d/dx + A) on ``geometry``, split into mode blocks.  An interval
    model also carries its double boundary space (``doubled``, built by
    ``build_model``); a piece of another length, ``dataclasses.replace(op,
    geometry=Interval(...))``, shares it."""

    space: SymplecticSpace
    a_matrix: np.ndarray
    geometry: Interval | Circle
    blocks: tuple[ModeBlock, ...]
    kernel: Optional[ModeBlock]
    doubled: Optional[DoubleBoundarySpace] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a_matrix", readonly(self.a_matrix))

    @property
    def length(self) -> float:
        return self.geometry.length if isinstance(self.geometry, Interval) \
            else self.geometry.circumference


def build_model(space: SymplecticSpace, a_matrix, geometry,
                tol: float = DEFAULT_TOL) -> ModelOperator:
    """Validate (gamma, A) and decompose H into mode blocks.

    Blocks are sorted by mu ascending with phase-fixed bases; the kernel
    block, when present, carries its own symplectic space in block
    coordinates.  An interval model gets its double boundary space here,
    at DEFAULT_TOL.
    """
    a = as_complex_matrix(a_matrix)
    if a.shape != (space.dim, space.dim):
        raise DimensionMismatch(f"A must be {space.dim} x {space.dim}")
    if not norm_at_most(a - a.conj().T, tol * 10, scale=a):
        raise AnticommutationFailure("A is not Hermitian within tolerance")
    anti = space.gamma @ a + a @ space.gamma
    if not norm_at_most(anti, tol * 100, scale=a):
        raise AnticommutationFailure(
            f"gamma A + A gamma has norm {np.linalg.norm(anti, 2):.3e}"
        )
    vals, vecs = np.linalg.eigh(a)
    zero_thr = tol * 100 * max(1.0, float(np.abs(vals).max()))
    pos = vals > zero_thr
    neg = vals < -zero_thr
    pos_vals = np.sort(vals[pos])
    neg_vals = np.sort(-vals[neg])
    if pos_vals.size != neg_vals.size or (
        pos_vals.size and np.abs(pos_vals - neg_vals).max() > zero_thr * 10
    ):
        raise AsymmetricSpectrum("spectrum of A is not symmetric about 0")

    blocks = []
    pos_vecs = phase_fix_columns(vecs[:, pos])
    for j, mu in enumerate(vals[pos]):
        psi = pos_vecs[:, [j]]
        frame = np.concatenate([psi, space.gamma @ psi], axis=1)
        blocks.append(ModeBlock(float(mu), frame))
    blocks.sort(key=lambda b: b.mu)
    kernel = None
    ker_mask = ~(pos | neg)
    if np.count_nonzero(ker_mask):
        kframe = phase_fix_columns(orthonormal_columns(vecs[:, ker_mask], tol))
        gamma_k = kframe.conj().T @ space.gamma @ kframe
        kernel = ModeBlock(0.0, kframe, space_from_gamma(gamma_k, tol))
    total = sum(b.frame.shape[1] for b in blocks) + (kernel.frame.shape[1] if kernel else 0)
    if total != space.dim:
        raise AsymmetricSpectrum(f"blocks span {total} of {space.dim} dimensions")
    doubled = (_double_boundary(space, a, blocks, kernel)
               if isinstance(geometry, Interval) else None)
    return ModelOperator(space, a, geometry, tuple(blocks), kernel, doubled)


# ---------------------------------------------------------------------------
# double boundary space


@dataclass(frozen=True)
class DoubledBlock:
    mu: float
    frame: np.ndarray       # (2 dim H) x (2k) embedding of the doubled block
    space: SymplecticSpace  # the doubled block in its own coordinates
    is_kernel: bool

    def __post_init__(self):
        object.__setattr__(self, "frame", readonly(self.frame))

    @cached_property
    def zero_graph(self) -> np.ndarray:
        """phi of the kernel block's solutions at lambda = 0: its transfer
        matrix is I on either side, so they are the diagonal {(x, x)}."""
        eye = np.eye(self.frame.shape[1] // 2)
        return lagrangian_from_frame(self.space, np.vstack([eye, eye])).phi


@dataclass(frozen=True)
class DoubleBoundarySpace:
    """H ⊕ H with gamma~ = gamma ⊕ (-gamma) and A~ = A ⊕ (-A)."""

    model_space: SymplecticSpace
    space: SymplecticSpace
    a_tilde: np.ndarray
    blocks: tuple[DoubledBlock, ...]

    def __post_init__(self):
        object.__setattr__(self, "a_tilde", readonly(self.a_tilde))

    @property
    def dim_single(self) -> int:
        return self.model_space.dim

    @cached_property
    def end_swap(self) -> np.ndarray:
        """R = b_-* sigma b_+ of ``swap_ends``, sigma exchanging the two ends."""
        return readonly(self.space.adjoint_minus @ np.roll(self.space.basis_plus,
                                                           self.dim_single, axis=0))


def _doubled(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """The block diagonal top ⊕ bottom of two matrices of one shape."""
    a, b = top.shape
    out = np.zeros((2 * a, 2 * b), dtype=complex)
    out[:a, :b], out[a:, b:] = top, bottom
    return out


def _double_boundary(space: SymplecticSpace, a: np.ndarray, blocks: list[ModeBlock],
                     kernel: Optional[ModeBlock]) -> DoubleBoundarySpace:
    """H ⊕ H of the interval model on ``space`` with tangential operator ``a``,
    its mode blocks and kernel block doubled, at DEFAULT_TOL.  Every mode
    block shares ``_mode_space``; the kernel block gets its own space."""
    gamma_tilde = _doubled(space.gamma, -space.gamma)
    doubled = [DoubledBlock(b.mu, _doubled(b.frame, b.frame), _mode_space(), False) for b in blocks]
    if kernel is not None:
        frame = _doubled(kernel.frame, kernel.frame)
        gk = frame.conj().T @ gamma_tilde @ frame
        doubled.append(DoubledBlock(0.0, frame, space_from_gamma(gk, DEFAULT_TOL), True))
    return DoubleBoundarySpace(space, space_from_gamma(gamma_tilde, DEFAULT_TOL),
                               _doubled(a, -a), tuple(doubled))


@cache
def _mode_space() -> SymplecticSpace:
    """The space of every doubled 2-D mode block, built on first use: in its
    coordinates (psi, gamma psi) at either end gamma~ = J ⊕ (-J), as psi and
    gamma psi are orthonormal with <psi, gamma psi> = 0."""
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    return space_from_gamma(_doubled(j, -j))


@cache
def _split_reference() -> np.ndarray:
    """phi in ``_mode_space`` of the reference B' of ``_triple_levels``."""
    return lagrangian_from_frame(_mode_space(), np.eye(4)[:, [0, 2]]).phi


def double_boundary(op: ModelOperator) -> DoubleBoundarySpace:
    """The double boundary space of an interval model, as ``build_model`` built it."""
    if op.doubled is None:
        raise ValueError("the double boundary space needs an interval model")
    return op.doubled


def transmission_lagrangian(dbs: DoubleBoundarySpace) -> Lagrangian:
    """The diagonal {(f, f)}; re-gluing uses the projection onto its complement."""
    d = dbs.dim_single
    frame = np.vstack([np.eye(d), np.eye(d)]) / np.sqrt(2.0)
    return lagrangian_from_frame(dbs.space, frame)


def direct_sum_lagrangian(dbs: DoubleBoundarySpace, l0: Lagrangian,
                          l1: Lagrangian) -> Lagrangian:
    """L0 at the x=0 slot plus L1 at the far slot (each a Lagrangian on H)."""
    return lagrangian_from_frame(dbs.space, _doubled(l0.frame, l1.frame))


def swap_ends(op: ModelOperator, lag: Lagrangian) -> Lagrangian:
    """sigma L, sigma(x, y) = (y, x): the Lagrangian ``lag`` of the double space
    of ``op`` with its two ends exchanged, an involution.  As sigma gamma~
    sigma = -gamma~, sigma maps E_i onto E_{-i}, so phi(sigma L) = R phi(L)*
    S* with R = b_-* sigma b_+ (``DoubleBoundarySpace.end_swap``) and S =
    b_+* sigma b_- = R*."""
    dbs = double_boundary(op)
    if not lag.space.same_space(dbs.space):
        raise DimensionMismatch("the Lagrangian must live in the double space of the model")
    r = dbs.end_swap
    return Lagrangian(dbs.space, r @ lag.phi.conj().T @ r)


def _cauchy_frames(op: ModelOperator, lengths) -> np.ndarray:
    """Spanning frames (m, 2 dim H, dim H) of the Cauchy data at each of the
    lengths: per mode block the columns (psi, e^{-L mu} psi) and (e^{-L mu}
    gamma psi, gamma psi), per kernel column (v, v), each column of unit norm
    (by the two dots of ``np.linalg.norm``) so arbitrarily long stretches
    stay well conditioned."""
    vecs = np.concatenate([b.frame for b in op.blocks]
                          + ([op.kernel.frame] if op.kernel is not None else []), axis=1).T
    rates = np.concatenate([[-b.mu, b.mu] for b in op.blocks]
                           + [np.zeros(op.space.dim - 2 * len(op.blocks))])
    logs = np.asarray(lengths, dtype=float)[:, None, None] * rates[:, None]
    # the end where a column decays carries the factor e^{-|log|}, the other 1
    small = np.exp(-np.abs(logs)) * vecs
    top, bot = np.where(logs <= 0, vecs, small), np.where(logs > 0, vecs, small)
    cols = np.concatenate([top, bot], axis=-1)
    norms = np.sqrt(np.vecdot(cols.real, cols.real) + np.vecdot(cols.imag, cols.imag))
    return (cols / norms[..., None]).swapaxes(-1, -2)


def cauchy_data(op: ModelOperator, length: Optional[float] = None) -> Lagrangian:
    """Cauchy data space {(v, e^{-LA} v)} of the interval model in the double
    space, its frame from ``_cauchy_frames``; ``length`` overrides the model
    length (used by adiabatic stretching)."""
    space = double_boundary(op).space
    ell = op.geometry.length if length is None else length
    return lagrangian_from_frame(space, _cauchy_frames(op, [ell])[0])


def stretch_distances(op: ModelOperator, lengths: Sequence[float], limit: Lagrangian) -> np.ndarray:
    """``subspace_distance(cauchy_data(op, length=r), limit)``, bit for bit, for
    every r of ``lengths``: one ``graph_unitaries`` and one stacked 2-norm."""
    space = double_boundary(op).space
    phis = graph_unitaries(space, _cauchy_frames(op, lengths))
    return _frame_distances(graph_frames(space, phis), limit.frame)


# ---------------------------------------------------------------------------
# boundary traces along mode blocks


def _block_family(block: DoubledBlock, frames: np.ndarray, tol: float) -> np.ndarray:
    """Graph unitaries (K, k, k), in the doubled block's own space, of what the
    constraints with orthonormal frames (K, 2 dim H, dim H) cut out of the
    block (the traces): one stacked SVD for the intersections with the
    block, as ``intersect_subspaces`` takes it, and one ``graph_unitaries``.

    A constraint must meet the block in half its dimension k, else
    IncompatibleBoundary.  A family that fails is taken again one member at
    a time, so it raises what its first failing member raises alone.
    """
    k = block.frame.shape[1] // 2
    block_h = block.frame.conj().T
    # combinations of each frame that projection onto the block's complement kills
    _, s, vh = np.linalg.svd(frames - block.frame @ (block_h @ frames), full_matrices=False)
    dims = (s <= tol * np.maximum(1.0, s[:, :1])).sum(axis=1)
    try:
        if np.count_nonzero(dims != k):
            first = int(np.argmax(dims != k))
            raise IncompatibleBoundary(
                f"constraint meets doubled block mu={block.mu:.6g} in dimension "
                f"{dims[first]}, expected {k}")
        # the singular values descend, so the intersection takes the last k
        return graph_unitaries(block.space,
                               block_h @ (frames @ vh[:, -k:].conj().swapaxes(-1, -2)), tol)
    except SymflowError:
        if len(frames) > 1:
            for member in range(len(frames)):
                _block_family(block, frames[member:member + 1], tol)
        raise


def _real_line_rep(vecs: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    """Real unit representatives of Lagrangian lines in a 2-D mode block, one
    per row of vecs (..., 2); IncompatibleBoundary if one is not realifiable.
    Each row is rotated by the phase of its entry of largest modulus (the
    first of two equal ones)."""
    size = np.abs(vecs)
    pivot = np.where(size[..., 1] > size[..., 0], vecs[..., 1], vecs[..., 0])[..., None]
    v = vecs * (pivot.conj() / np.hypot(pivot.real, pivot.imag))
    if np.count_nonzero(np.abs(v.imag) > tol):
        raise IncompatibleBoundary("block line is not realifiable; not a Lagrangian trace")
    v = v.real.copy()
    return v / np.sqrt(np.vecdot(v, v))[..., None]


# ---------------------------------------------------------------------------
# interval spectra: real 2x2 transfer calculus


def _transfer_terms(lam, mu: float, ell: float):
    """(c, s, e): e cosh(kappa L) and e sinh(kappa L)/kappa, kappa^2 = mu^2 - lambda^2,
    scaled by e = e^{-max(Re kappa, 0) L} > 0, so bounded at every mu L: in the gap
    |lambda| < mu, c = (1 + e^{-2 kappa L})/2 and s = (1 - e^{-2 kappa L})/(2 kappa)."""
    a = np.abs(np.asarray(lam, dtype=float))
    kappa = np.sqrt(np.abs((mu - a) * (mu + a)))
    x, gap = kappa * ell, a < mu
    em = np.expm1(-x)  # e - 1 in the gap
    shrink = -em * (2.0 + em)  # 1 - e^{-2 kappa L}
    c = np.where(gap, 1.0 - 0.5 * shrink, np.cos(x))
    s = np.divide(np.where(gap, 0.5 * shrink, np.sin(x)), kappa, out=np.full(kappa.shape, ell),
                  where=kappa > 0)
    return c, s, np.where(gap, 1.0 + em, 1.0)


def _block_coefficients(mu: float, p: np.ndarray, q: np.ndarray) -> tuple:
    """(<q_perp, p>, m_const, m_lin) of F(lambda) = <q_perp, T_L(lambda) p>, with
    q_perp = (-q_1, q_0) and p, q real unit lines of one 2-D block, or each
    of stacked pairs (..., 2); note <q_perp, p>^2 + m_lin^2 = 1."""
    qp0, qp1 = -q[..., 1], q[..., 0]
    m_const = -mu * qp0 * p[..., 0] + mu * qp1 * p[..., 1]
    m_lin = qp0 * p[..., 1] - qp1 * p[..., 0]
    dot = qp0 * p[..., 0] + qp1 * p[..., 1]
    return dot, m_const, m_lin


def _root_values(lam, coef: np.ndarray, mu: float, ell: float, split: bool = False) -> np.ndarray:
    """The scaled characteristic function G(lambda) = e k0 + c n0 + s (m +
    lambda n1), coef[..., 0:4] = (k0, n0, m, n1) broadcast against lam: its
    roots are the block's eigenvalues.  ``split`` (k0 = 0) drops e k0."""
    c, s, e = _transfer_terms(lam, mu, ell)
    head = c * coef[..., 1] if split else e * coef[..., 0] + c * coef[..., 1]
    return head + s * (coef[..., 2] + lam * coef[..., 3])


def _root_slopes(lam, coef: np.ndarray, mu: float, ell: float) -> np.ndarray:
    """e G'(lambda), G of ``_root_values``: a double root of G is a simple
    zero of it.  For C = cosh(kappa L), S = sinh(kappa L)/kappa, C' = -lambda
    L S and S' = lambda (L C - S)/omega^2 -> -lambda L^3/3 at omega = 0."""
    c, s, _ = _transfer_terms(lam, mu, ell)
    w2 = (lam - mu) * (lam + mu)
    ds = lam * np.divide(ell * c - s, w2, out=np.full(np.shape(w2), -ell**3 / 3.0), where=w2 != 0)
    return s * (coef[..., 3] - lam * ell * coef[..., 1]) + ds * (coef[..., 2] + lam * coef[..., 3])


def _contour_eta(mu: float, ell: float, k0: float, n0: float, m: float,
                 n1: float) -> EtaEstimate:
    """Eta of a 2-D block whose real characteristic function is G(lambda) =
    k0 + n0 cosh(kappa L) + (sinh(kappa L)/kappa)(m + lambda n1): -(2/pi)
    [arg G(i inf) - arg G(i0+)] (Kirsten and McKane, Ann. Phys. 308, 2003).
    The scaled e^{-kappa L} G(iy) = e k0 + c n0 + s (m + i y n1), (c, s, e)
    of ``_transfer_terms`` at kappa^2 = mu^2 + y^2, tends to (n0 + i n1)/2
    and its Im has the sign of n1 for all y > 0: the argument is principal.
    A root within ZERO_ROOT of 0 is a kernel mode, the contour starting at
    i0+; |n1| <= CONTOUR_ROUNDING makes G even, so eta is 0."""
    if abs(n1) <= CONTOUR_ROUNDING:
        return EtaEstimate(0.0, CONTOUR_ROUNDING, 0)
    c, s, e = _transfer_terms(0.0, mu, ell)
    g0 = e * k0 + c * n0 + s * m
    slope = s * abs(n1)  # |G'(0)|
    orient = -1.0 if n1 < 0 else 1.0  # conjugate into the upper half-plane
    start = 0.5 * np.pi if abs(g0) <= ZERO_ROOT * slope else (0.0 if g0 > 0 else np.pi)
    end = float(np.arctan2(abs(n1), n0))
    return EtaEstimate(-(2.0 / np.pi) * orient * (end - start), CONTOUR_ROUNDING, 0)


def _scan_grid(window: float, mu: float, ell: float) -> np.ndarray:
    """The root-scan grid on [-window, window], its step a quarter of the lattice
    spacing pi/L, finer for large mu; SchemaError past MAX_SCAN_POINTS."""
    step = min(np.pi / (4.0 * ell), 0.45 / max(mu, 1.0))
    if 2.0 * window / step > MAX_SCAN_POINTS:
        raise SchemaError(
            f"a root scan of [-{window:.6g}, {window:.6g}] at step {step:.3g} needs more than "
            f"{MAX_SCAN_POINTS} points: the window or ||A|| is too large")
    return np.arange(-window, window + step, step)


def _polish(lo, hi, flo, fhi, carry, at: Callable, tol: float) -> np.ndarray:
    """Midpoints of brackets [lo, hi] narrowed below ``tol`` by Illinois regula
    falsi (Dowell and Jarratt, BIT 11, 1971).  flo, fhi lie on the two sides
    of the crossing rule; ``at(x, carry)`` gives the values at x, read against
    the carries at lo, and the carries at x.  A falsi point moves tol/4 toward
    the midpoint, so a close one lands across the root; a bracket that two
    rounds have not halved is bisected.  Illinois halves only the weights.
    Each bracket stops once it is narrower than ``tol``, so its root does not
    depend on the brackets polished with it.
    """
    out, live = np.empty(lo.size), np.arange(lo.size)
    wlo, whi, bisect, before = flo, fhi, np.zeros(lo.size, dtype=bool), np.full(lo.size, np.inf)
    last = np.zeros(lo.size)  # +1 where the last falsi step moved lo, -1 hi
    for _ in range(128):
        width = hi - lo
        done = width < tol
        if np.count_nonzero(done):
            out[live[done]] = 0.5 * (lo[done] + hi[done])
            live, lo, hi, flo, wlo, whi, carry, last, bisect, before, width = (
                a[~done] for a in (live, lo, hi, flo, wlo, whi, carry, last, bisect, before, width))
        if live.size == 0:
            return out
        mid = 0.5 * (lo + hi)
        falsi = lo + width * wlo / (wlo - whi)
        nudge = np.minimum(np.maximum(mid - falsi, -0.25 * tol), 0.25 * tol)
        x = np.where(bisect, mid, falsi + nudge)
        fx, cx = at(x, carry)
        left = (fx < 0) == (flo < 0)
        # an end that two falsi steps in a row kept has its weight halved
        whi = np.where(left, np.where(last > 0, 0.5 * whi, whi), fx)
        wlo = np.where(left, fx, np.where(last < 0, 0.5 * wlo, wlo))
        lo, flo, hi = np.where(left, x, lo), np.where(left, fx, flo), np.where(left, hi, x)
        carry = np.where(left[:, None], cx, carry)
        last = np.where(bisect, last, np.where(left, 1.0, -1.0))
        bisect, before = hi - lo > 0.5 * before, width
    out[live] = 0.5 * (lo + hi)
    return out


def _certified_roots(scan: Callable, at: Callable, mu: float, ell: float, window: float,
                     tol: float, members: int = 1) -> list[np.ndarray]:
    """Roots on [-window, window] of one mode block for each of ``members``
    block constraints, each member's number certified.

    ``scan(grid, todo)`` gives, per bracket, its member (an index into the
    members ``todo``), its ends, the values there and the carries at lo, and
    per member of ``todo`` an independent root count over the grid.  A
    member whose brackets and count disagree is scanned again on the doubled
    grid, at most six times and within MAX_SCAN_POINTS, else
    BracketingFailure.  One ``_polish`` narrows the brackets of every member
    (a bracket of width 0 is a root already)."""
    grid, todo, kept = _scan_grid(window, mu, ell), np.arange(members), []
    for doublings in range(7):
        owner, lo, hi, flo, fhi, carry, count = scan(grid, todo)
        brackets = np.bincount(owner, minlength=todo.size)
        ok = brackets == count
        hit = ok[owner]
        kept.append((todo[owner[hit]], lo[hit], hi[hit], flo[hit], fhi[hit], carry[hit]))
        if ok.all():
            break
        first = int(np.argmin(ok))
        detail, todo = f"{brackets[first]} vs {count[first]} roots", todo[~ok]
        if doublings == 6 or 2 * grid.size - 1 > MAX_SCAN_POINTS:
            raise BracketingFailure(f"root scan of block mu={mu:.6g} not certified at "
                                    f"{grid.size} points: {detail}")
        grid = np.linspace(grid[0], grid[-1], 2 * grid.size - 1)
    owner, lo, hi, flo, fhi, carry = (np.concatenate(part) for part in zip(*kept))
    roots = _polish(lo, hi, flo, fhi, carry, at, tol)
    per_member = np.split(roots[np.lexsort((roots, owner))],
                          np.cumsum(np.bincount(owner, minlength=members))[:-1])
    return [r[np.abs(r) <= window + 1e-9] for r in per_member]


def _sturm_level(mu: float, ell: float, p: np.ndarray, q: np.ndarray, lam) -> np.ndarray:
    """Sturm level of the split constraint of real unit lines p, q (or stacked
    pairs (..., 2)) at lam, broadcast: G's roots in [lo, hi) number
    level(lo) - level(hi).

    u(x) = T_x p solves u' = M u, M = [[-mu, lambda], [-lambda, mu]]; its
    Pruefer angle obeys theta' = -lambda + mu sin 2 theta, so theta(L) is
    strictly decreasing in lambda, and G = 0 where theta(L) = psi_q mod pi.
    For |lambda| <= mu the orbit stays between the lines where theta' = 0:
    the sweep is the principal angle from p to T_L p.  For |lambda| > mu,
    u(x + pi/omega) = -u(x), omega^2 = lambda^2 - mu^2: it is k pi, k =
    floor(omega L/pi), plus the sweep of the rest, all of sign -sign(lambda).
    """
    p, q = np.asarray(p), np.asarray(q)
    psi_p, psi_q = np.arctan2(p[..., 1], p[..., 0]), np.arctan2(q[..., 1], q[..., 0])
    rate, tilt = mu * np.sin(2.0 * psi_p), mu * np.cos(2.0 * psi_p)  # theta'(0) + lambda, -<p, Mp>
    a = np.abs(lam)
    gap, omega = a <= mu, np.sqrt(np.abs((a - mu) * (a + mu)))
    k, r = np.divmod(omega * ell, np.pi)
    # in the gap the arguments over cosh(kappa L): tanh(kappa L)/kappa for s
    along = np.where(gap, np.divide(np.tanh(omega * ell), omega, out=np.full(np.shape(a), ell),
                                    where=omega > 0), np.sin(r))
    sweep = np.arctan2(along * (rate - lam), np.where(gap, 1.0, omega * np.cos(r)) - along * tilt)
    return np.floor((psi_p + sweep - np.where(gap, 0.0, np.sign(lam) * k * np.pi) - psi_q) / np.pi)


def _sturm_count(mu: float, ell: float, p: np.ndarray, q: np.ndarray,
                 lo: float, hi: float) -> np.ndarray:
    """Roots in [lo, hi) of the split constraint(s) p, q: ``_sturm_level``."""
    level = _sturm_level(mu, ell, p, q, np.reshape([lo, hi], (2,) + (1,) * (np.ndim(p) - 1)))
    return np.abs(level[0] - level[1]).astype(int)


def _lattice_in_window(offsets: np.ndarray, spacing: float, window: float) -> np.ndarray:
    out = []
    for a in np.atleast_1d(offsets):
        k0 = int(np.floor(-window / spacing - a)) - 1
        k1 = int(np.ceil(window / spacing - a)) + 1
        lams = (a + np.arange(k0, k1 + 1)) * spacing
        out.append(lams[np.abs(lams) <= window + 1e-12])
    return np.concatenate(out) if out else np.array([])


def circle_spectrum(op: ModelOperator, window: float) -> np.ndarray:
    """Closed-form circle spectrum in [-window, window], with multiplicity.

    Per 2-D block: +/-mu once (k = 0) and +/-sqrt(mu^2 + (2 pi k/C)^2) twice
    for k >= 1; kernel block: the lattice 2 pi k/C with multiplicity dim ker A.
    """
    if not isinstance(op.geometry, Circle):
        raise ValueError("circle_spectrum needs a circle model")
    c = op.geometry.circumference
    xi = 2.0 * np.pi / c
    out = []
    for b in op.blocks:
        if b.mu <= window:
            out.extend([b.mu, -b.mu])
        kmax = int(np.floor(np.sqrt(max(window**2 - b.mu**2, 0.0)) / xi))
        for k in range(1, kmax + 1):
            lam = float(np.hypot(b.mu, xi * k))
            if lam <= window:
                out.extend([lam, lam, -lam, -lam])
    if op.kernel is not None:
        mult = op.kernel.frame.shape[1]
        kmax = int(np.floor(window / xi))
        for k in range(-kmax, kmax + 1):
            out.extend([xi * k] * mult)
    return np.sort(np.array(out))


# -- coupled boundary conditions ---------------------------------------------


def _block_constraint(block: DoubledBlock, lag: Lagrangian, tol: float) -> Lagrangian:
    """The trace of ``lag`` on ``block``: ``_block_family`` of one."""
    return Lagrangian(block.space, _block_family(block, lag.frame[None], tol)[0])


@np.errstate(divide="ignore", invalid="ignore")
def _null_line(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit null vectors (K, 2) of 2x2 matrices (K, 2, 2), and the mask of
    those with exactly one singular value at most 1e-9 (the vectors of the
    others mean nothing).

    The SVD in closed form: s_max^2 is the larger eigenvalue of m*m,
    s_min = |det m| / s_max, and the null vector is the eigenvector of m*m
    for s_min^2, read off whichever row of m*m - s_min^2 I is longer.
    """
    h = m.conj().swapaxes(-1, -2) @ m
    a, c, b = h[:, 0, 0].real, h[:, 1, 1].real, h[:, 0, 1]
    s_max = np.sqrt(0.5 * (a + c) + np.hypot(0.5 * (a - c), np.abs(b)))
    s_min = np.abs(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) / s_max
    lam = s_min * s_min
    upper = a >= c
    v = np.empty((len(m), 2), dtype=complex)
    v[:, 0], v[:, 1] = np.where(upper, -b, c - lam), np.where(upper, a - lam, -b.conj())
    norm = np.sqrt(np.vecdot(v, v).real)
    return v / norm[:, None], (s_max > 1e-9) & ~(s_min > 1e-9)


def _block_lines(space: SymplecticSpace, phis: np.ndarray) -> tuple:
    """(lines, split) for 2-line block constraints with graph unitaries phis
    (K, 2, 2) in the block's space: split marks those that split into a line
    at each end, and lines[j] = (p, q) are its real unit lines, p at slot 0,
    where the transfer matrix starts, q at slot 1; the lines of a coupled
    constraint mean nothing.

    A line at slot 0 is what the frame gives on the null vector of its slot-1
    half, and the other way round: one ``_null_line`` and one
    ``_real_line_rep`` for both ends of every constraint.  A slot-0 line is
    checked for realifiability wherever it is found, a slot-1 line where the
    constraint splits, else IncompatibleBoundary.
    """
    halves = graph_frames(space, phis).reshape(-1, 2, 2)  # slot 0, slot 1, per constraint
    ns, found = _null_line(halves.reshape(-1, 2, 2, 2)[:, ::-1].reshape(-1, 2, 2))
    checked = found.reshape(-1, 2)
    split = checked[:, 0] & checked[:, 1]
    checked[:, 1] = split
    checked = checked.reshape(-1)
    lines = np.zeros((len(halves), 2))
    lines[checked] = _real_line_rep((halves[checked] @ ns[checked][:, :, None])[:, :, 0])
    return lines.reshape(-1, 2, 2), split


def _kernel_offsets(block: DoubledBlock, ell: float, phis: np.ndarray) -> np.ndarray:
    """Lattice offsets in [0, 1), in units of 2 pi / L, of the kernel doubled
    block, one row per block constraint of graph unitaries phis (K, k, k).

    The graph unitary is e^{-i lam L} times a constant, so each eigenphase
    branch is exactly linear with slope -L; eigenvalues form one lattice of
    spacing 2 pi / L per branch.
    """
    theta0 = np.angle(np.linalg.eigvals(block.zero_graph @ phis.conj().swapaxes(-1, -2)))
    return np.mod(theta0 / ell / (2.0 * np.pi / ell), 1.0)


def _characteristic(block: DoubledBlock, phis: np.ndarray) -> np.ndarray:
    """(k0, n0, m, n1) (K, 4) of G for constraints phis (K, 2, 2): roots are
    where det(M1 + M2 T) = 0, [M1 | M2] = phi(B)* b_-* - b_+*; as det T = 1
    that is G with k0 = det M1 + det M2, n0 = tr N, n1 = tr NJ, m = -mu tr
    NZ, N = adj(M1) M2, up to a phase, rotated away here."""
    mm = phis.conj().swapaxes(-1, -2) @ block.space.adjoint_minus - block.space.adjoint_plus
    m1, m2 = mm[..., :2], mm[..., 2:]
    n = m1[:, ::-1, ::-1].swapaxes(-1, -2) * np.array([[1, -1], [-1, 1]]) @ m2  # adj(M1) M2
    coef = np.stack([np.linalg.det(m1) + np.linalg.det(m2), n[:, 0, 0] + n[:, 1, 1],
                     n[:, 1, 0] - n[:, 0, 1], n[:, 0, 0] - n[:, 1, 1]], axis=-1)
    top = np.take_along_axis(coef, np.argmax(np.abs(coef), axis=-1)[:, None], axis=-1)
    k0, n0, n1, n2 = (coef * np.exp(-1j * np.angle(top))).real.T
    return np.stack([k0, n0, -block.mu * n2, n1], axis=-1)


def _solution_graphs(block: DoubledBlock, lam: np.ndarray, ell: float) -> np.ndarray:
    """Graph unitaries (..., 2, 2) of the block's solutions {(v, T v)} at each
    lam: the span of [T_h^{-1}; T_h], T = T_h^2 over L/2, whose Gram
    eigenvalues 2 (c^2 + s^2 (|lam| -+ mu)^2) keep the decaying solution at
    every mu L, which [I; T] loses."""
    c, s, _ = (t[..., None, None] for t in _transfer_terms(lam, block.mu, 0.5 * ell))
    k = lam[..., None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]]) - np.diag([block.mu, -block.mu])
    halves = (c * np.eye(2) - s * k, c * np.eye(2) + s * k)  # T_h^{-1}, T_h
    frames = np.concatenate(halves, axis=-2)
    phis = graph_unitaries(block.space, frames.reshape(-1, 4, 2))
    return phis.reshape(frames.shape[:-2] + (2, 2))


def _branch_sums(u: np.ndarray) -> np.ndarray:
    """Eigenphase sums on the branch (-pi, pi] of ``branch_log_unitary`` for
    a stack (..., 2, 2), with no ambiguity band: it would raise at x -+ tol/2
    of a double root."""
    return -wrap_phase(-unitary_phases(u.reshape(-1, 2, 2))).sum(axis=-1).reshape(u.shape[:-2])


def _triple_levels(block: DoubledBlock, phis: np.ndarray, ell: float) -> Callable:
    """lam, owner -> level Lambda(lam) of constraint phis[owner] (graph
    unitaries (K, 2, 2)): its roots in [lo, hi), with multiplicity, number
    Lambda(lo) - Lambda(hi).  With f(lam) the solutions' graph and B' the
    split constraint of the line (1, 0) at both ends, Mas(f, g) + Mas(g, h)
    - Mas(f, h) = tau_mu(f1, g1, h1) - tau_mu(f0, g0, h0) (Kirk and Lesch)
    at g = gamma B', h = gamma B carries the Sturm level of B' over: Lambda
    = level(B') + tau_mu(f, gamma B', gamma B), tau_mu by the trace-log
    formula of ``tau_mu``."""
    mu, line, ref = block.mu, np.array([1.0, 0.0]), _split_reference()
    inverse = phis.conj().swapaxes(-1, -2)
    middle = _branch_sums(ref @ inverse)  # tau_mu's term phi(gamma B') phi(gamma B)*

    def level(lam, owner):
        graphs = _solution_graphs(block, lam, ell)
        raw = (_branch_sums(-graphs @ ref.conj().T) + middle[owner]
               - _branch_sums(-graphs @ inverse[owner])) / (2.0 * np.pi)
        tau = np.rint(raw)
        if not np.all(np.abs(raw - tau) <= INT_RESIDUE_TOL):
            raise NonIntegerResult(f"tau_mu is off the integers in the level of block mu={mu:.6g}")
        return _sturm_level(mu, ell, line, line, lam).astype(int) + tau.astype(int)

    return level


def _block_characteristics(block: DoubledBlock, phis: np.ndarray, coupled: bool = False) -> tuple:
    """(coef, lines, split) for graph unitaries phis (K, 2, 2): G's
    coefficients (K, 4), shared by roots and eta, ``_block_coefficients``
    (k0 = 0) where ``_block_lines`` splits a constraint, else (or with
    ``coupled``) ``_characteristic``."""
    lines, split = _block_lines(block.space, phis)
    if coupled:
        split = np.zeros_like(split)
    coef = np.zeros((len(phis), 4))
    if split.any():
        coef[split, 1:] = np.stack(_block_coefficients(block.mu, lines[split, 0],
                                                       lines[split, 1]), axis=-1)
    if not split.all():
        coef[~split] = _characteristic(block, phis[~split])
    return coef, lines, split


def _block_roots(block: DoubledBlock, phis: np.ndarray, ell: float,
                 window: float, tol: float, coupled: bool = False) -> list[np.ndarray]:
    """Eigenvalues in [-window, window] from one doubled 2-D mode block, per
    block constraint (graph unitaries phis (K, 2, 2)): G's roots from one
    scan and polish (``_certified_roots``), counted by ``_sturm_count`` or,
    where a constraint couples (everywhere with ``coupled``, the second
    route of ``verify model-symmetry``), ``_triple_levels``.  A double root,
    where G only touches 0, is a zero x of G' in a step where G keeps its
    sign, over which the level drops by 2 within tol/2 of x.  Every count is
    certified: a root is never lost silently.
    """
    mu = block.mu
    coef, lines, split = _block_characteristics(block, phis, coupled)
    level = _triple_levels(block, phis, ell) if not split.all() else None
    plain = level is None  # every constraint splits: G has no term e k0

    def doubles(grid, members):
        vals, slopes = (f(grid, coef[members, None], mu, ell) for f in (_root_values, _root_slopes))
        row, idx = np.nonzero((crossing_signs(vals[:, :-1], vals[:, 1:]) == 0)
                              & (crossing_signs(slopes[:, :-1], slopes[:, 1:]) != 0))
        cf = coef[members[row]]
        x = _polish(grid[idx], grid[idx + 1], slopes[row, idx], slopes[row, idx + 1], cf,
                    lambda x, c: (_root_slopes(x, c, mu, ell), c), tol)
        edges = level(np.stack([x - 0.5 * tol, x + 0.5 * tol], axis=1), members[row, None])
        double = np.repeat(edges[:, 0] - edges[:, 1] == 2, 2)
        row, x, cf = np.repeat(row, 2)[double], np.repeat(x, 2)[double], np.repeat(cf, 2, 0)[double]
        gx = _root_values(x, cf, mu, ell)
        return row, x, x, gx, gx, cf  # each double root twice, a bracket of width 0

    def scan(grid, todo):
        found, chunk = [], max(1, MAX_SCAN_POINTS // grid.size)
        for k in range(0, todo.size, chunk):
            vals = _root_values(grid, coef[todo[k:k + chunk], None], mu, ell, plain)
            owner, idx = np.nonzero(crossing_signs(vals[:, :-1], vals[:, 1:]))
            found.append((k + owner, grid[idx], grid[idx + 1], vals[owner, idx],
                          vals[owner, idx + 1], coef[todo[k + owner]]))
        count = np.empty(todo.size, dtype=int)
        sturm, triple = split[todo], np.flatnonzero(~split[todo])
        count[sturm] = _sturm_count(mu, ell, lines[todo[sturm], 0], lines[todo[sturm], 1],
                                    grid[0], grid[-1])
        if triple.size:
            ends = level(grid[[0, -1]], todo[triple, None])
            count[triple] = ends[:, 0] - ends[:, 1]
            brackets = np.bincount(np.concatenate([part[0] for part in found]),
                                   minlength=todo.size)
            short = triple[brackets[triple] < count[triple]]
            if short.size:
                row, *rest = doubles(grid, todo[short])
                found.append((short[row], *rest))
        return (*(np.concatenate(part) for part in zip(*found)), count)

    return _certified_roots(scan, lambda x, cf: (_root_values(x, cf, mu, ell, plain), cf),
                            mu, ell, window, tol, len(phis))


def _block_etas(block: DoubledBlock, phis: np.ndarray, ell: float) -> list[EtaEstimate]:
    """Eta of one doubled 2-D mode block in closed form, one per block
    constraint of graph unitaries phis (K, 2, 2): ``_contour_eta`` of G with
    the coefficients of its roots (``_block_characteristics``)."""
    return [_contour_eta(block.mu, ell, *c) for c in _block_characteristics(block, phis)[0]]


def _block_spectra(op: ModelOperator, constraints: Sequence[Lagrangian], mode: Callable):
    """Per doubled block of the operator: (block, per constraint the kernel block's
    lattice offsets from ``_kernel_offsets``, or ``mode(block, phis)`` for a
    mode block, phis the graph unitaries of the block constraints of
    ``constraints``).  The whole family takes one ``_block_family`` per block.

    Raises IncompatibleBoundary when a constraint does not meet every
    doubled block in half its dimension.
    """
    frames = np.array([constraint.frame for constraint in constraints])
    for block in double_boundary(op).blocks:
        phis = _block_family(block, frames, DEFAULT_TOL)
        if block.is_kernel:
            yield block, _kernel_offsets(block, op.length, phis)
        else:
            yield block, mode(block, phis)


def _boundary_spectra(op: ModelOperator, constraints: Sequence[Lagrangian], window: float,
                      tol: float) -> list[np.ndarray]:
    """``boundary_spectrum`` of each Lagrangian of ``constraints``, the whole
    family solved block by block (``_block_roots``): the same arrays, bit for
    bit, as one constraint at a time.  A family that raises is solved again
    one constraint at a time, so it raises what its first failing constraint
    raises alone."""
    try:
        parts = [[] for _ in constraints]
        for block, found in _block_spectra(
                op, constraints, lambda b, phis: _block_roots(b, phis, op.length, window, tol)):
            for part, roots in zip(parts, found):
                part.append(_lattice_in_window(roots, 2.0 * np.pi / op.length, window)
                            if block.is_kernel else roots)
    except SymflowError:
        if len(constraints) > 1:
            for constraint in constraints:
                _boundary_spectra(op, [constraint], window, tol)
        raise
    return [np.sort(np.concatenate(part)) if part else np.array([]) for part in parts]


def boundary_spectrum(op: ModelOperator, constraint: Lagrangian, window: float,
                      tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of the interval operator whose boundary data is constrained
    to the Lagrangian ``constraint`` of the double space H ⊕ H.

    Mode blocks take ``_block_roots``, whose root count is checked against the
    Sturm count (split) or the triple-index count (coupled), else
    BracketingFailure; kernel blocks are exact lattices.  A family of one for
    ``_boundary_spectra``.
    """
    return _boundary_spectra(op, [constraint], window, tol)[0]


def interval_spectrum(op: ModelOperator, p: Lagrangian, q: Lagrangian,
                      window: float, tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues in [-window, window] of D_{P,Q} on the interval.

    D_{P,Q} constrains beta(0) to ker proj(P) = gamma P and beta(L) to
    im proj(Q) = Q, i.e. the boundary data to the Lagrangian gamma P ⊕ Q of
    the double space; both must be block-compatible Lagrangians on H.
    """
    return boundary_spectrum(op, direct_sum_lagrangian(double_boundary(op), gamma_conjugate(p), q),
                             window, tol=tol)


def interval_kernel_dim(op: ModelOperator, constraint: Lagrangian,
                        tol: float = DEFAULT_TOL) -> int:
    """dim ker of the interval operator = dim(Cauchy data ∩ constraint)."""
    return intersection_dim(cauchy_data(op), constraint, tol)


# ---------------------------------------------------------------------------
# eta


@dataclass(frozen=True)
class EtaEstimate:
    eta: float
    bound: float
    n_used: int


def eta_lattice(offset: float) -> tuple[float, int]:
    """(eta, dim ker) of the arithmetic progression {(offset + k) * spacing}.

    For offset in (0, 1) the regularized signature sum is 1 - 2*offset;
    offset 0 puts one eigenvalue at zero.
    """
    a = offset % 1.0
    if a < 1e-11 or a > 1 - 1e-11:
        return 0.0, 1
    return 1.0 - 2.0 * a, 0


def eta_truncated(eigenvalues, n_max: Optional[int] = None,
                  zero_tol: float = ZERO_ROOT) -> EtaEstimate:
    """Estimate eta = "sum" of sign(lambda) from a window-complete spectrum.

    Prefix sums over the |lambda|-sorted spectrum are pair-averaged; the
    reported bound is the observed oscillation plus drift of the averaged
    tail.  The edge term takes the median gap between levels of |lambda|:
    magnitudes closer than ``zero_tol`` or a thousandth of the mean gap are
    one level.  On a coupled block they come in pairs (a root and its
    mirror, or a double root split by rounding), and the median of all gaps
    would be rounding.  Exact lattices take ``eta_lattice`` instead.

    Tests check symflow's closed-form etas (``_block_etas``) against it.
    """
    lams = np.asarray(eigenvalues, dtype=float)
    lams = lams[np.abs(lams) > zero_tol]
    mags = np.sort(np.abs(lams))
    order = np.argsort(np.abs(lams))
    signs = np.sign(lams[order])
    if n_max is not None:
        signs = signs[: 2 * n_max]
        mags = mags[: 2 * n_max]
    if signs.size == 0:
        return EtaEstimate(0.0, 0.0, 0)
    # S(window) = sum of signs over |lambda| <= window is piecewise constant;
    # its window-length-weighted average over a trailing stretch converges to
    # the regularized eta (exactly 1 - 2a on an offset lattice), unlike the
    # count-weighted average of partial sums
    prefix = np.cumsum(signs)

    def trailing_average(frac: float) -> float:
        r_hi = mags[-1]
        r_lo = frac * r_hi
        i0 = int(np.searchsorted(mags, r_lo))
        if i0 >= mags.size - 1:
            return float(prefix[-1])
        knots = np.concatenate([[r_lo], mags[i0:], [r_hi]])
        values = np.concatenate([[prefix[i0 - 1] if i0 > 0 else 0.0], prefix[i0:]])
        widths = np.diff(knots)
        total = float(np.sum(values[: widths.size] * widths))
        return total / max(r_hi - r_lo, 1e-300)

    a_half = trailing_average(0.5)
    a_quarter = trailing_average(0.75)
    est = a_quarter
    gaps = np.diff(mags)
    levels = gaps[gaps > max(zero_tol, 1e-3 * float(np.mean(gaps)))] if mags.size > 4 else gaps[:0]
    spacing = float(np.median(levels)) if levels.size else float(mags[-1])
    edge = 4.0 * spacing / max(mags[-1] - 0.75 * mags[-1], 1e-300)
    bound = 2.0 * abs(a_half - a_quarter) + edge + 1e-12
    return EtaEstimate(est, bound, int(signs.size))


def interval_eta_tilde(op: ModelOperator, constraint: Lagrangian,
                       cauchy: Optional[Lagrangian] = None) -> tuple[float, float]:
    """(reduced eta, bound) of the constrained interval operator.

    Kernel-block branches use the exact lattice form (bound 0), every 2-D
    mode block the closed form of ``_block_etas`` (bound at rounding level).
    The kernel dimension entering reduced eta is exact: the intersection of
    the constraint with the Cauchy data, ``cauchy`` when the caller holds it
    (``cauchy_data(op)``).
    """
    eta = 0.0
    bound = 0.0
    for block, (found,) in _block_spectra(
            op, [constraint], lambda b, phis: _block_etas(b, phis, op.length)):
        if block.is_kernel:
            for offset in found:
                eta += eta_lattice(float(offset))[0]
        else:
            eta += found.eta
            bound += found.bound
    if cauchy is None:
        cauchy = cauchy_data(op)
    return 0.5 * (eta + intersection_dim(cauchy, constraint, DEFAULT_TOL)), 0.5 * bound


# ---------------------------------------------------------------------------
# the P(theta, P) family and the constancy of the glued kernel


def p_theta(p_matrix, theta: float) -> np.ndarray:
    """The interpolation between P ⊕ (I-P) and the transmission projection.

    Block form over (first copy, second copy):
    [[cos^2 P + sin^2 (I-P), -cos sin I], [-cos sin I, cos^2 (I-P) + sin^2 P]].
    """
    p = as_complex_matrix(p_matrix)
    d = p.shape[0]
    eye = np.eye(d)
    c2, s2, cs = np.cos(theta) ** 2, np.sin(theta) ** 2, np.cos(theta) * np.sin(theta)
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = c2 * p + s2 * (eye - p)
    out[d:, d:] = c2 * (eye - p) + s2 * p
    out[:d, d:] = -cs * eye
    out[d:, :d] = -cs * eye
    return out


def _null_space(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    u, s, vh = np.linalg.svd(m)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    return vh.conj().T[:, np.sum(s > tol * scale):]


def caldconst_check(op_plus: ModelOperator, op_minus: ModelOperator,
                    thetas: Optional[Sequence[float]] = None,
                    tol: float = DEFAULT_TOL) -> dict:
    """Constancy of dim(ker P(theta, P_+) ∩ (L_+ ⊕ L_-)) over theta in [0, pi/4]
    and its equality with dim(L_+ ∩ L_-), for the two Cauchy data spaces.

    Raises IdentityViolation if the dimension moves or misses the target.
    """
    if not op_plus.space.same_space(op_minus.space):
        raise DimensionMismatch("models must share the boundary space")
    l_plus = cauchy_data(op_plus)
    l_minus = swap_ends(op_minus, cauchy_data(op_minus))
    target = intersection_dim(l_plus, l_minus, tol)
    p_proj = l_plus.frame @ l_plus.frame.conj().T
    cut_image = _doubled(l_plus.frame, l_minus.frame)
    if thetas is None:
        thetas = np.linspace(0.0, np.pi / 4.0, 9)
    dims = []
    for th in thetas:
        ker = _null_space(p_theta(p_proj, float(th)), tol)
        dims.append(intersect_subspaces([ker, cut_image], tol).shape[1])
    if any(d != target for d in dims):
        raise IdentityViolation(
            f"kernel dimension along theta = {dims}, expected constant {target}"
        )
    return {"dims": dims, "target": target, "thetas": list(map(float, thetas))}


# ---------------------------------------------------------------------------
# adiabatic limit


def _eigenspaces(a: np.ndarray, tol: float = 1e-9):
    vals, vecs = np.linalg.eigh(a)
    groups = []
    i = 0
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and vals[j + 1] - vals[i] <= tol * 100 * scale:
            j += 1
        groups.append((float(np.mean(vals[i: j + 1])), vecs[:, i: j + 1]))
        i = j + 1
    return groups, scale


def adiabatic_limit(op: ModelOperator, l_x: Optional[Lagrangian] = None,
                    nu: float = 0.0, tol: float = DEFAULT_TOL) -> Lagrangian:
    """Limit of the stretched Cauchy data spaces in the double boundary space.

    Computes the symplectic reduction of L_X by F^-_nu ⊕ (middle band), then
    the filtered per-eigenvalue projections, and assembles
    (⊕_i L_{mu_i}) ⊕ F^+_nu.  Requires the non-resonance condition
    L_X ∩ F^-_nu = 0.
    """
    dbs = double_boundary(op)
    if l_x is None:
        l_x = cauchy_data(op)
    groups, scale = _eigenspaces(dbs.a_tilde, tol)
    thr = tol * 100 * scale
    f_minus = [v for mu, v in groups if mu < -nu - thr]
    middle = [(mu, v) for mu, v in groups if mu <= nu + thr and mu >= -nu - thr]
    f_plus = [v for mu, v in groups if mu > nu + thr]
    if f_minus:
        fm = np.hstack(f_minus)
        if intersect_subspaces([l_x.frame, fm], tol).shape[1] != 0:
            raise ResonanceViolation(
                f"L_X meets F^-_nu at nu={nu}; raise the non-resonance level"
            )
    parts = []
    if middle:
        u_frame = np.hstack(f_minus + [v for _, v in middle]) if f_minus \
            else np.hstack([v for _, v in middle])
        red = symplectic_reduce(l_x, u_frame, tol)
        r_frame = red.embedded_frame
        cumulative = []
        for mu, v in middle:
            cumulative.append(v)
            cum = np.hstack(cumulative)
            inter = intersect_subspaces([r_frame, cum], tol)
            if inter.shape[1]:
                proj = v @ (v.conj().T @ inter)
                piece = orthonormal_columns(proj, tol)
                if piece.shape[1]:
                    parts.append(piece)
    if f_plus:
        parts.append(np.hstack(f_plus))
    if not parts:
        raise ResonanceViolation("empty adiabatic limit; degenerate model")
    return lagrangian_from_frame(dbs.space, np.hstack(parts), tol)


# ---------------------------------------------------------------------------
# assembled verifiers


def glue_verify(op_plus: ModelOperator, op_minus: ModelOperator, p: Lagrangian,
                eta_tol: float = 1e-9) -> dict:
    """Verify the eta gluing identity on the circle glued from two intervals.

    eta~(circle) = eta~(D_P, M+) + eta~(D_{I-P}, M-) - tau_mu(I - P_-, P, P_+)
    with P a boundary Lagrangian of the double space, P_± the Cauchy data
    projections, M- being ``op_minus`` read from its far end (``swap_ends``).
    The circle side and kernel blocks are exact; interval mode blocks carry
    a rounding-level bound (``interval_eta_tilde``).  The
    identity must close within the bound and the integer part must equal the
    triple index exactly, else GluingViolation.
    """
    if not op_plus.space.same_space(op_minus.space):
        raise DimensionMismatch("models must share the boundary space")
    if p.space.dim != double_boundary(op_plus).space.dim:
        raise DimensionMismatch("boundary Lagrangian must live in the double space")
    l_plus, c_minus = cauchy_data(op_plus), cauchy_data(op_minus)
    l_minus = swap_ends(op_minus, c_minus)

    # closed manifold: symmetric spectrum, kernel = ker A at the zero Fourier mode
    dim_ker_a = op_plus.kernel.frame.shape[1] if op_plus.kernel is not None else 0
    eta_circle = 0.5 * dim_ker_a

    # D_P constrains boundary data to gamma P, D_{I-P} on the far piece to P
    eta_p, bound_p = interval_eta_tilde(op_plus, gamma_conjugate(p), l_plus)
    eta_m, bound_m = interval_eta_tilde(op_minus, swap_ends(op_minus, p), c_minus)
    triple = tau_mu(gamma_conjugate(l_minus), p, l_plus)
    bound = bound_p + bound_m
    delta = eta_circle - eta_p - eta_m
    nearest = round(delta)
    residue = abs(delta - nearest)
    report = {
        "eta_circle": eta_circle,
        "eta_plus": eta_p,
        "eta_minus": eta_m,
        "tau_mu": triple,
        "bound": bound,
        "delta": delta,
        "mod_z_residue": residue,
        "defect": abs(delta + triple),
    }
    if residue > bound + eta_tol:
        raise GluingViolation(
            f"eta~(M) - eta~+ - eta~- = {delta} is {residue:.3e} from an integer, "
            f"beyond bound {bound:.3e}"
        )
    if nearest != -triple:
        raise GluingViolation(
            f"integer part {nearest} != -tau_mu = {-triple}"
        )
    return report


def nicolaescu_verify(op: ModelOperator, family: Sequence[tuple[float, Lagrangian]],
                      window: float = 12.0, tol: float = 1e-10) -> dict:
    """Spectral flow along a boundary-condition path equals the Maslov index
    of (P(t), Cauchy data), both as exact integers.

    ``family`` samples t -> boundary Lagrangian in the double space.  The
    interval spectra of all samples come from one ``_boundary_spectra`` call
    (one scan and one polish per mode block for the whole family) and are
    compared step by step with the (-eps,-eps) counting rule.  Each step
    places a symmetric cut in the widest spectral gap of [0.5 window,
    0.97 window] over both samples; WindowEscape when that gap is under 1e-6,
    or when the two samples hold different numbers of eigenvalues inside it.
    """
    l_x = cauchy_data(op)
    spectra = _boundary_spectra(op, [gamma_conjugate(bnd) for _, bnd in family], window, tol)
    sf = 0
    zero_thr = 1e-8
    for a, b in zip(spectra[:-1], spectra[1:]):
        # per-step symmetric cut placed in the widest spectral gap of the
        # outer band, so both samples hold the same eigenvalues inside
        mags = np.sort(np.abs(np.concatenate([a, b])))
        lo_edge, hi_edge = 0.5 * window, 0.97 * window
        band = np.concatenate([[lo_edge], mags[(mags > lo_edge) & (mags < hi_edge)],
                               [hi_edge]])
        gaps = np.diff(band)
        k = int(np.argmax(gaps))
        cut = 0.5 * (band[k] + band[k + 1])
        if gaps[k] < 1e-6:
            raise WindowEscape(
                f"no clear spectral gap in [{lo_edge:.3g}, {hi_edge:.3g}]; "
                "enlarge the window"
            )
        aa = a[np.abs(a) <= cut]
        bb = b[np.abs(b) <= cut]
        if aa.size != bb.size:
            raise WindowEscape(
                f"an eigenvalue crossed the cut level {cut:.4g} within one step; "
                "sample the family more densely or enlarge the window"
            )
        sf += int(np.sum(crossing_signs(sign_classes(aa, zero_thr),
                                        sign_classes(bb, zero_thr))))
    pp = LagrangianPairPath([(t, bnd, l_x) for t, bnd in family])
    mas = maslov(pp, 1e-9).value
    if sf != mas:
        raise IdentityViolation(f"spectral flow {sf} != Maslov index {mas}")
    return {"sf": sf, "maslov": mas, "samples": len(family)}


def sw_modz_check(op: ModelOperator, p: Lagrangian, q: Optional[Lagrangian] = None,
                  tol: float = 1e-9) -> dict:
    """Boundary dependence of reduced eta against the boundary trace-log.

    Always checks the mod-Z form exp(2 pi i (eta~_P - eta~_Q)) =
    det(phi(P) phi(Q)*); with Q omitted the Calderon projector is used and
    the strengthened exact form eta~_P - eta~_X = tr log(phi(P) phi(X)*)/2 pi i
    is required (exact on zero-mode models, within the rounding-level eta
    bound otherwise).
    """
    exact = op.kernel is not None and len(op.blocks) == 0
    l_x = cauchy_data(op)
    strengthened = q is None
    q_eff = l_x if q is None else q
    eta_p, bound_p = interval_eta_tilde(op, gamma_conjugate(p), l_x)
    eta_q, bound_q = interval_eta_tilde(op, gamma_conjugate(q_eff), l_x)
    delta = eta_p - eta_q
    det = complex(np.linalg.det(p.phi @ q_eff.phi.conj().T))
    modz_defect = abs(np.exp(2j * np.pi * delta) - det)
    bound = bound_p + bound_q
    allowed = tol if exact else 2.0 * np.pi * bound + tol
    report = {"delta_eta": delta, "det": det, "modz_defect": modz_defect,
              "bound": bound, "exact_mode": exact}
    if modz_defect > allowed:
        raise IdentityViolation(
            f"mod-Z defect {modz_defect:.3e} beyond allowance {allowed:.3e}"
        )
    if strengthened:
        rhs = (tr_log(p.phi @ l_x.phi.conj().T) / (2j * np.pi)).real
        report["tr_log_side"] = rhs
        if abs(delta - rhs) > (tol if exact else bound + tol):
            raise IdentityViolation(
                f"eta~_P - eta~_X = {delta} != tr-log side {rhs}"
            )
    return report


def model_symmetry_check(op: ModelOperator, p: Lagrangian, q: Lagrangian,
                         window: float, tol: float = 1e-8) -> dict:
    """spec D_{P,Q} = -spec D_{Q,P} elementwise within tol."""
    s1 = interval_spectrum(op, p, q, window)
    s2 = interval_spectrum(op, q, p, window)
    if s1.size != s2.size:
        raise IdentityViolation(
            f"spectra sizes differ: {s1.size} vs {s2.size} in window {window}"
        )
    defect = float(np.max(np.abs(s1 + s2[::-1]))) if s1.size else 0.0
    if defect > tol:
        raise IdentityViolation(f"spectral symmetry defect {defect:.3e} > {tol:.1e}")
    return {"count": int(s1.size), "defect": defect}
