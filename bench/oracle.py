"""Answers computed apart from symflow: plain numpy/scipy on the planted data.

Nothing here imports symflow.  Each function states the convention it
reproduces (branch of log just below -1, zero counted as nonnegative,
crossings of -1 counted counterclockwise positive) so that a check compares
the program against the definition, not against a saved copy of its output.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

# Planted data keeps every classified quantity at least this far from its
# decision threshold, so a tolerance change inside the program cannot flip it.
MARGIN = 1e-3


def rand_unitary(rng, k: int) -> np.ndarray:
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conj_diag(v: np.ndarray, d) -> np.ndarray:
    return (v * np.asarray(d)) @ v.conj().T


def phases_away_from_pi(rng, k: int, gap: float = 0.05) -> np.ndarray:
    """Angles in (-pi, pi) at least ``gap`` from pi (mod 2 pi)."""
    return rng.uniform(-np.pi + gap, np.pi - gap, size=k)


# -- standard symplectic space C^{2n}, gamma = [[0, -I], [I, 0]] -------------


def standard_gamma(n: int) -> np.ndarray:
    g = np.zeros((2 * n, 2 * n), dtype=complex)
    g[:n, n:] = -np.eye(n)
    g[n:, :n] = np.eye(n)
    return g


def standard_bases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(E_{+i}, E_{-i}) eigenbases of the standard gamma."""
    eye = np.eye(n, dtype=complex)
    return (np.vstack([eye, -1j * eye]) / np.sqrt(2.0),
            np.vstack([eye, 1j * eye]) / np.sqrt(2.0))


def frame_from_phi(phi: np.ndarray, rng=None) -> np.ndarray:
    """A spanning frame of {x + phi x : x in E_i} in the standard space,
    mixed by a random invertible matrix when ``rng`` is given."""
    n = phi.shape[0]
    bp, bm = standard_bases(n)
    f = (bp + bm @ phi) / np.sqrt(2.0)
    if rng is not None:
        mix = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        f = f @ mix
    return f


def orthonormal(frame: np.ndarray) -> np.ndarray:
    u, _, _ = np.linalg.svd(frame, full_matrices=False)
    return u


def phi_in(gamma: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Graph unitary of span(frame) in eigenbases of gamma chosen here.

    Products phi(L1) phi(L2)* computed in one such basis have the spectrum of
    any other choice, which is all the index formulas below use.
    """
    vals, vecs = np.linalg.eigh(-1j * gamma)
    n = gamma.shape[0] // 2
    bm, bp = vecs[:, :n], vecs[:, n:]
    f = orthonormal(frame)
    return (bm.conj().T @ f) @ np.linalg.inv(bp.conj().T @ f)


# -- unitary invariants --------------------------------------------------------


def branch_phases(u: np.ndarray) -> np.ndarray:
    """Eigenphases in (-pi, pi], with values within 1e-9 of -1 put at +pi."""
    ph = np.angle(np.linalg.eigvals(u))
    ph[np.abs(np.abs(ph) - np.pi) <= 1e-9] = np.pi
    return ph


def trace_log_imag(u: np.ndarray) -> float:
    return float(np.sum(branch_phases(u)))


def tau_mu(phi_p, phi_q, phi_r) -> float:
    """(tr log(phi_P phi_Q*) + tr log(phi_Q phi_R*) - tr log(phi_P phi_R*)) / 2 pi i."""
    s = (trace_log_imag(phi_p @ phi_q.conj().T) + trace_log_imag(phi_q @ phi_r.conj().T)
         - trace_log_imag(phi_p @ phi_r.conj().T))
    return s / (2.0 * np.pi)


def m_pairing(phi_v, phi_w) -> float:
    """-(1/pi) * sum of eigenphases of -phi_V phi_W*, the eigenvalue -1 left out."""
    ph = np.angle(np.linalg.eigvals(-(phi_v @ phi_w.conj().T)))
    ph = ph[np.abs(np.abs(ph) - np.pi) > 1e-7]
    return float(-np.sum(ph) / np.pi)


def min_dist_to_minus_one(u: np.ndarray) -> float:
    ph = np.angle(np.linalg.eigvals(u))
    return float(np.min(np.abs(np.abs(ph) - np.pi)))


def min_dist_to_one(u: np.ndarray) -> float:
    return float(np.min(np.abs(np.angle(np.linalg.eigvals(u)))))


def crossings_of_minus_one(start, delta, eps: float = 1e-7) -> int:
    """Signed count of eigenphase curves start + s*delta (s in [0, 1]) passing
    -1, counterclockwise positive, after the endpoint shift by e^{-i eps}.

    Planted endpoint phases sit either exactly at pi or at least MARGIN from
    it, so any eps below MARGIN / 2 gives the count the convention defines.
    """
    a = np.asarray(start, dtype=float) - eps - np.pi
    b = a + np.asarray(delta, dtype=float)
    return int(np.sum(np.floor(b / (2 * np.pi)) - np.floor(a / (2 * np.pi))))


def wrap(x):
    """Wrap to (-pi, pi]."""
    out = np.mod(np.asarray(x, dtype=float) + np.pi, 2 * np.pi) - np.pi
    return np.where(out <= -np.pi + 1e-12, np.pi, out)


# -- Hermitian invariants --------------------------------------------------------


def inertia(h: np.ndarray) -> tuple[int, int, int]:
    """(n_+, n_-, n_0) with |lambda| <= 1e-7 * max(1, ||H||) counted as zero."""
    vals = np.linalg.eigvalsh(h)
    thr = 1e-7 * max(1.0, float(np.max(np.abs(vals))))
    return (int(np.sum(vals > thr)), int(np.sum(vals < -thr)),
            int(np.sum(np.abs(vals) <= thr)))


def spectral_flow_from_ends(h0: np.ndarray, h1: np.ndarray) -> int:
    """(-eps, -eps) spectral flow of any path from h0 to h1: n_-(h0) - n_-(h1)."""
    return inertia(h0)[1] - inertia(h1)[1]


def reduced_eta(h: np.ndarray) -> float:
    pos, neg, zero = inertia(h)
    return 0.5 * (pos - neg + zero)


# -- the model operator D = gamma (d/dx + A) ---------------------------------------


def transfer(a: np.ndarray, gamma: np.ndarray, lam: float, length: float) -> np.ndarray:
    """Solution operator u(0) -> u(length) of gamma (u' + A u) = lam u."""
    return expm(-length * (a + lam * gamma))


def interval_condition(a, gamma, lam, length, p_frame, q_frame) -> float:
    """Smallest relative singular value of the boundary condition at lam.

    u(0) lies in gamma P, u(length) in Q; lam is an eigenvalue exactly when
    Q_perp* T(lam) gamma P is singular.
    """
    start = orthonormal(gamma @ p_frame)
    q = orthonormal(q_frame)
    q_perp = np.linalg.svd(np.eye(q.shape[0]) - q @ q.conj().T)[0][:, : q.shape[0] - q.shape[1]]
    m = q_perp.conj().T @ transfer(a, gamma, lam, length) @ start
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1] / max(s[0], 1.0))


def periodic_nullity(a, gamma, lam, circumference, rel: float = 1e-7) -> int:
    """dim ker(T(lam) - I): the multiplicity of lam on the circle."""
    s = np.linalg.svd(transfer(a, gamma, lam, circumference) - np.eye(a.shape[0]),
                      compute_uv=False)
    return int(np.sum(s <= rel * max(1.0, s[0])))


def circle_spectrum(mus, kernel_dim: int, circumference: float, window: float) -> list:
    """Closed form: +-mu once, +-sqrt(mu^2 + (2 pi k / C)^2) twice per block,
    and the lattice 2 pi k / C with multiplicity dim ker A."""
    xi = 2.0 * np.pi / circumference
    out = []
    for mu in mus:
        if mu <= window:
            out += [mu, -mu]
        k = 1
        while np.hypot(mu, xi * k) <= window:
            lam = float(np.hypot(mu, xi * k))
            out += [lam, lam, -lam, -lam]
            k += 1
    kmax = int(np.floor(window / xi))
    for k in range(-kmax, kmax + 1):
        out += [xi * k] * kernel_dim
    return sorted(out)


def double_gamma(gamma: np.ndarray) -> np.ndarray:
    d = gamma.shape[0]
    g = np.zeros((2 * d, 2 * d), dtype=complex)
    g[:d, :d] = gamma
    g[d:, d:] = -gamma
    return g


def cauchy_frame(a: np.ndarray, length: float, side: str = "+") -> np.ndarray:
    """{(v, e^{-LA} v)} for side '+', {(e^{-LA} w, w)} for side '-'."""
    d = a.shape[0]
    t = expm(-length * a)
    return np.vstack([np.eye(d), t]) if side == "+" else np.vstack([t, np.eye(d)])


def subspace_gap(f1: np.ndarray, f2: np.ndarray) -> float:
    q1, q2 = orthonormal(f1), orthonormal(f2)
    return float(np.linalg.norm(q2 - q1 @ (q1.conj().T @ q2), 2))


def glue_tau_mu(a: np.ndarray, gamma: np.ndarray, length_plus: float,
                length_minus: float, p_frame: np.ndarray) -> float:
    """tau_mu(gamma~ L_-, P, L_+) in the double boundary space."""
    g2 = double_gamma(gamma)
    l_plus = cauchy_frame(a, length_plus, "+")
    l_minus_gamma = g2 @ cauchy_frame(a, length_minus, "-")
    return tau_mu(phi_in(g2, l_minus_gamma), phi_in(g2, p_frame), phi_in(g2, l_plus))
