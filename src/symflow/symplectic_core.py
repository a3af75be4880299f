"""Finite-dimensional Hermitian symplectic spaces and Lagrangian subspaces.

A Hermitian symplectic space is C^{2n} with a unitary gamma satisfying
gamma^2 = -I, gamma* = -gamma and balanced +/-i eigenspaces; the symplectic
form is omega(x, y) = <x, gamma y>.  A Lagrangian subspace L satisfies
gamma(L) = L^perp and is stored as its graph unitary phi(L): E_i -> E_{-i},
expressed in the space's fixed eigenbases b_+, b_-, so that
L = { x + phi(L) x : x in E_i }.  Its frame (b_+ + b_- phi)/sqrt2 is derived
from phi and is orthonormal because phi is unitary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import (
    DEFAULT_TOL,
    QUIET,
    _frobenius,
    as_complex_matrix,
    at_phase,
    complement_within,
    conditioned_inverse,
    intersect_subspaces,
    nearest_unitary,
    norm_at_most,
    orthonormal_columns,
    phase_fix_columns,
    random_unitary,
    readonly,
    require_unitary,
)
from .errors import (
    DimensionMismatch,
    InvalidGamma,
    NotCoisotropic,
    NotLagrangian,
    ToleranceAmbiguity,
    UnbalancedEigenspaces,
)

__all__ = [
    "SymplecticSpace",
    "Lagrangian",
    "LagrangianProjection",
    "Reduction",
    "standard_space",
    "space_from_gamma",
    "lagrangian_from_frame",
    "graph_unitaries",
    "graph_frames",
    "lagrangian_from_phi",
    "projection_of",
    "intersection_dim",
    "symplectic_reduce",
    "subspace_distance",
    "gamma_rotate",
    "rebased_space",
]


@dataclass(frozen=True)
class SymplecticSpace:
    """C^{2n} with complex structure gamma and fixed orthonormal eigenbases.

    ``basis_plus`` spans ker(gamma - i), ``basis_minus`` spans ker(gamma + i);
    their columns are phase-fixed so results are reproducible bit-for-bit.
    """

    dim_half: int
    gamma: np.ndarray
    basis_plus: np.ndarray
    basis_minus: np.ndarray

    def __post_init__(self):
        for name in ("gamma", "basis_plus", "basis_minus"):
            object.__setattr__(self, name, readonly(getattr(self, name)))

    @property
    def dim(self) -> int:
        return 2 * self.dim_half

    @cached_property
    def adjoint_plus(self) -> np.ndarray:
        """b_+*, which maps a vector to its E_i coordinates."""
        return readonly(self.basis_plus.conj().T)

    @cached_property
    def adjoint_minus(self) -> np.ndarray:
        """b_-*, which maps a vector to its E_{-i} coordinates."""
        return readonly(self.basis_minus.conj().T)

    def same_space(self, other: "SymplecticSpace") -> bool:
        """Same eigenbases (so gamma) within 1e-12: phi is written in them."""
        return self is other or (
            self.dim == other.dim
            and np.allclose(self.basis_plus, other.basis_plus, rtol=0.0, atol=1e-12)
            and np.allclose(self.basis_minus, other.basis_minus, rtol=0.0, atol=1e-12))


@dataclass(frozen=True)
class Lagrangian:
    """Lagrangian subspace, the graph of its unitary phi: E_i -> E_{-i}."""

    space: SymplecticSpace
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", readonly(self.phi))

    @cached_property
    def frame(self) -> np.ndarray:
        """The orthonormal graph frame (b_+ + b_- phi)/sqrt2."""
        return readonly(graph_frames(self.space, self.phi))


def graph_frames(space: SymplecticSpace, phi: np.ndarray) -> np.ndarray:
    """The orthonormal graph frames (b_+ + b_- phi)/sqrt2 of graph unitaries
    phi, one n x n matrix or a stack (..., n, n)."""
    return (space.basis_plus + space.basis_minus @ phi) / np.sqrt(2.0)


@dataclass(frozen=True)
class LagrangianProjection:
    """Orthogonal projection P with P = P*, P^2 = P, gamma P gamma* = I - P."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", readonly(self.matrix))


@dataclass(frozen=True)
class Reduction:
    """Result of symplectic reduction.

    ``space`` is the reduced symplectic space in its own coordinates,
    ``embedding`` maps reduced coordinates isometrically into the ambient
    space (columns span U ∩ gamma U), ``lagrangian`` lives in ``space``.
    """

    space: SymplecticSpace
    embedding: np.ndarray
    lagrangian: Lagrangian

    def __post_init__(self):
        object.__setattr__(self, "embedding", readonly(self.embedding))

    @property
    def embedded_frame(self) -> np.ndarray:
        """Frame of the reduced Lagrangian expressed in the ambient space."""
        return self.embedding @ self.lagrangian.frame


def standard_space(n: int) -> SymplecticSpace:
    """The model space C^{2n} with gamma = [[0, -I], [I, 0]] in n x n blocks."""
    if n < 1:
        raise InvalidGamma(f"dim_half must be >= 1, got {n}")
    gamma = np.zeros((2 * n, 2 * n), dtype=complex)
    gamma[:n, n:] = -np.eye(n)
    gamma[n:, :n] = np.eye(n)
    # closed-form eigenvectors: (e_k, -i e_k)/sqrt2 for +i, (e_k, +i e_k)/sqrt2 for -i
    eye = np.eye(n, dtype=complex)
    basis_plus = np.vstack([eye, -1j * eye]) / np.sqrt(2.0)
    basis_minus = np.vstack([eye, 1j * eye]) / np.sqrt(2.0)
    return SymplecticSpace(n, gamma, basis_plus, basis_minus)


def space_from_gamma(gamma, tol: float = DEFAULT_TOL, *, _rng=None) -> SymplecticSpace:
    """Validate a complex structure and build deterministic eigenbases.

    Raises InvalidGamma if gamma is not skew-adjoint with gamma^2 = -I within
    tol, or if its eigenvalues are not within tol of +/-i (no silent repair);
    raises UnbalancedEigenspaces if the two eigenspace dimensions differ.
    """
    gamma = as_complex_matrix(gamma)
    d = gamma.shape[0]
    if gamma.shape[0] != gamma.shape[1] or d % 2 != 0 or d == 0:
        raise InvalidGamma(f"gamma must be square of even size, got {gamma.shape}")
    with np.errstate(**QUIET):  # an entry near the float maximum overflows: inf fails
        skew, square = gamma + gamma.conj().T, gamma @ gamma + np.eye(d)
    if not norm_at_most(skew, tol * 10, scale=gamma):
        raise InvalidGamma("gamma is not skew-adjoint within tolerance")
    if not norm_at_most(square, tol * 10, scale=gamma):
        raise InvalidGamma("gamma^2 != -I within tolerance")
    # -i*gamma is Hermitian with eigenvalues +1 on E_i and -1 on E_{-i}
    vals, vecs = np.linalg.eigh(-1j * gamma)
    if np.count_nonzero(np.abs(np.abs(vals) - 1.0) > max(tol * 100, 1e-7)):
        raise InvalidGamma("gamma has eigenvalues away from +/-i beyond tolerance")
    n = np.count_nonzero(vals > 0)
    if 2 * n != d:
        raise UnbalancedEigenspaces(f"dim ker(gamma - i) = {n} != {d - n} = dim ker(gamma + i)")
    basis_minus, basis_plus = vecs[:, :n], vecs[:, n:]
    if _rng is not None:
        # randomized re-basing hook: invariants must not depend on this choice
        basis_plus = basis_plus @ random_unitary(_rng, n)
        basis_minus = basis_minus @ random_unitary(_rng, n)
    return SymplecticSpace(n, gamma, phase_fix_columns(basis_plus),
                           phase_fix_columns(basis_minus))


def rebased_space(space: SymplecticSpace, rng) -> SymplecticSpace:
    """Same gamma, freshly randomized eigenbases (for invariance checks)."""
    return space_from_gamma(space.gamma, _rng=rng)


def lagrangian_from_frame(space: SymplecticSpace, frame, tol: float = DEFAULT_TOL) -> Lagrangian:
    """The Lagrangian spanned by n columns F, with gamma L = L^perp verified:
    ``graph_unitaries`` of a stack of one."""
    frame = as_complex_matrix(frame)
    return Lagrangian(space, graph_unitaries(space, frame[None], tol)[0])


@np.errstate(**QUIET)
def graph_unitaries(space: SymplecticSpace, frames, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Graph unitaries (m, n, n) of the Lagrangians spanned by a stack of
    frames (m, 2n, n), each as it is alone, bit for bit.

    With a_pm = b_pm* F, F spans a Lagrangian iff a_+ is invertible and
    phi = a_- a_+^{-1} is unitary.  For a Lagrangian span s(a_+) = s(F)/sqrt2,
    so a_+ carries the relative rank cut ``tol`` of F.  An orthonormal frame G
    of the span has G* gamma G = i A*(I - phi*phi)A with A*(I + phi*phi)A = I
    (A = b_+* G), so its isotropy defect is ||(I - phi*phi)(I + phi*phi)^{-1}||_2.
    As phi*phi >= 0, that defect is at most ||I - phi*phi||_F, so only the
    frames above the limit by that bound take the isotropy solve.  One
    stacked inverse, one stacked solve and Newton-Schulz steps on the stack;
    the rank cut, the isotropy verdict and the Newton-Schulz stop are decided
    per frame.  A stack raises what its first failing frame raises alone.
    """
    frames = np.asarray(frames, dtype=complex)
    if frames.shape[1] != space.dim:
        raise DimensionMismatch(f"frame has {frames.shape[1]} rows, space has dim {space.dim}")
    n = space.dim_half
    if frames.shape[2] != n:
        raise NotLagrangian(f"frame has {frames.shape[2]} columns, a Lagrangian has {n}")
    inv, ok = conditioned_inverse(space.adjoint_plus @ frames, tol)
    every = np.count_nonzero(ok) == ok.size
    # a rank-deficient frame's inverse is never used: it may overflow
    phi = space.adjoint_minus @ (frames if every else frames[ok]) @ (inv if every else inv[ok])
    gram = phi.conj().swapaxes(-1, -2) @ phi
    eye = np.eye(n)
    defect = gram - eye
    limit = tol * 100 * max(1, n)
    isotropic = _frobenius(defect) <= limit
    if np.count_nonzero(isotropic) != isotropic.size:
        loose = ~isotropic
        isotropic[loose] = norm_at_most(np.linalg.solve(eye + gram[loose], -defect[loose]), limit)
    if every and np.count_nonzero(isotropic) == isotropic.size:
        return nearest_unitary(phi, defect)
    bad = ~ok
    bad[ok] = ~isotropic
    first = int(np.argmax(bad))
    if not ok[first]:
        raise NotLagrangian("frame columns are linearly dependent or meet ker(gamma + i)")
    at = np.count_nonzero(ok[:first])
    size = np.linalg.norm(np.linalg.solve(eye + gram[at], -defect[at]), 2)
    raise NotLagrangian(f"gamma L is not orthogonal to L (defect {size:.3e})")


def lagrangian_from_phi(space: SymplecticSpace, phi, tol: float = DEFAULT_TOL) -> Lagrangian:
    """Lagrangian with the given graph unitary: span of basis_plus + basis_minus phi."""
    phi = require_unitary(phi, tol, what="phi")
    if phi.shape[0] != space.dim_half:
        raise DimensionMismatch(f"phi must be {space.dim_half} x {space.dim_half}")
    return Lagrangian(space, nearest_unitary(phi.copy()))


def projection_of(lag: Lagrangian) -> LagrangianProjection:
    """Orthogonal projection onto L; satisfies gamma P gamma* = I - P."""
    f = lag.frame
    return LagrangianProjection(f @ f.conj().T)


def intersection_dim(l1: Lagrangian, l2: Lagrangian, tol: float = DEFAULT_TOL) -> int:
    """dim(L1 ∩ L2) = multiplicity of +1 in spec(phi(L1) phi(L2)*).

    Cross-checked against the principal-angle count from the frames; a
    disagreement means the tolerance cannot separate the spectrum and is
    surfaced as ToleranceAmbiguity.
    """
    if not l1.space.same_space(l2.space):
        raise DimensionMismatch("Lagrangians live in different spaces")
    phases = np.angle(np.linalg.eigvals(l1.phi @ l2.phi.conj().T))
    by_phi = int(np.sum(at_phase(phases, 0.0, tol)))
    # principal angle alpha corresponds to eigenphase 2*alpha of phi1 phi2*;
    # the sines are the singular values of the residual (I - P1) F2, which
    # resolve small angles to machine precision, as in subspace_distance
    f1, f2 = l1.frame, l2.frame
    sines = np.linalg.svd(f2 - f1 @ (f1.conj().T @ f2), compute_uv=False)
    by_angles = int(np.sum(at_phase(2.0 * np.arcsin(np.clip(sines, 0.0, 1.0)), 0.0, tol)))
    if by_phi != by_angles:
        raise ToleranceAmbiguity(
            f"graph-unitary count {by_phi} disagrees with principal-angle "
            f"count {by_angles} at tol {tol:.1e}"
        )
    return by_phi


def subspace_distance(s1, s2) -> float:
    """Sine of the largest principal angle between equal-dimensional subspaces
    (Lagrangians or spanning frames); 0 iff the spans coincide.

    Computed as the residual norm ||(I - P1) F2||_2, which resolves small
    angles to machine precision (sqrt(1 - s^2) floors near ~1e-8).
    """
    f1, f2 = (s.frame if isinstance(s, Lagrangian) else orthonormal_columns(s) for s in (s1, s2))
    if f1.shape != f2.shape:
        raise DimensionMismatch(f"subspaces differ in shape: {f1.shape} vs {f2.shape}")
    return float(_frame_distances(f1, f2)) if f1.shape[1] else 0.0


def _frame_distances(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """``subspace_distance`` of orthonormal frames (..., 2n, k), k > 0,
    broadcast: one stacked 2-norm for each of the two residuals."""
    r12 = f2 - f1 @ (f1.conj().swapaxes(-1, -2) @ f2)
    r21 = f1 - f2 @ (f2.conj().swapaxes(-1, -2) @ f1)
    return np.maximum(np.linalg.norm(r12, 2, axis=(-2, -1)), np.linalg.norm(r21, 2, axis=(-2, -1)))


def symplectic_reduce(lag: Lagrangian, u_frame, tol: float = DEFAULT_TOL) -> Reduction:
    """Symplectic reduction of L with respect to a coisotropic subspace U.

    Requires Ann(U) = (gamma U)^perp ⊆ U; the reduced space is U ∩ gamma U
    with the restricted gamma, and the reduced Lagrangian is the orthogonal
    projection of L ∩ U onto it.
    """
    space = lag.space
    u = orthonormal_columns(u_frame, tol)
    if u.shape[0] != space.dim:
        raise DimensionMismatch("U has wrong ambient dimension")
    # Ann(U) = orthogonal complement of gamma U (orthonormal: gamma is unitary)
    ann = complement_within(space.gamma @ u, np.eye(space.dim, dtype=complex), tol)
    if not norm_at_most(ann - u @ (u.conj().T @ ann), tol * 100):
        raise NotCoisotropic("Ann(U) is not contained in U")
    # U = Ann(U) ⊥ (U ∩ gamma U), so the reduced space is the complement of Ann in U
    red_frame = complement_within(ann, u, tol)
    m2 = red_frame.shape[1]
    if m2 == 0 or m2 % 2 != 0:
        raise NotCoisotropic(f"U ∩ gamma U has dimension {m2}; not a symplectic subspace")
    red_space = space_from_gamma(red_frame.conj().T @ space.gamma @ red_frame, tol)
    # L ∩ U, projected into reduced coordinates
    red_lag_frame = orthonormal_columns(
        red_frame.conj().T @ intersect_subspaces([lag.frame, u], tol), tol)
    if red_lag_frame.shape[1] != m2 // 2:
        raise NotLagrangian(
            f"reduction of L has dimension {red_lag_frame.shape[1]}, expected {m2 // 2}"
        )
    return Reduction(red_space, red_frame, lagrangian_from_frame(red_space, red_lag_frame, tol))


def gamma_rotate(lag: Lagrangian, s: float) -> Lagrangian:
    """The rotated Lagrangian e^{s gamma} L, whose graph unitary is e^{-2is} phi."""
    return Lagrangian(lag.space, np.exp(-2j * s) * lag.phi)
