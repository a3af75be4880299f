"""Maslov index of Lagrangian pair paths, the triple index tau_mu, the
antisymmetric pairing m, the Wall-type correction tsig, and the conversion
identities between them.

All invariants are evaluated through the graph unitaries phi(L); since the
spectra of products phi(L1) phi(L2)* are invariant under re-basing of the
+/-i eigenspaces, every output here is basis-independent.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ._linalg import as_integer, at_phase, branch_log_unitary
from .errors import DimensionMismatch, IdentityViolation
from .symplectic_core import Lagrangian, SymplecticSpace, intersection_dim
from .unitary_invariants import IndexResult, UnitaryPath, sample_times, wind

__all__ = [
    "LagrangianPairPath",
    "maslov",
    "maslov_orientation_check",
    "tau_mu",
    "m_pairing",
    "tsig",
    "tsig_tau_mu_conversion",
    "gamma_conjugate",
    "opposite_space",
]


class LagrangianPairPath:
    """Pair of Lagrangian paths (f_t, g_t) over a common parameter grid."""

    def __init__(self, samples: Sequence[tuple[float, Lagrangian, Lagrangian]],
                 generator: Optional[Callable[[float], tuple[Lagrangian, Lagrangian]]] = None):
        ts = sample_times(samples)
        space = samples[0][1].space
        # samples share a few space objects: compare each distinct one once
        spaces = {id(lag.space): lag.space for _, f, g in samples for lag in (f, g)}
        if not all(s.same_space(space) for s in spaces.values()):
            raise DimensionMismatch("all samples must live in one symplectic space")
        self.samples = [(t, f, g) for t, (_, f, g) in zip(ts, samples)]
        self.generator = generator
        self.space = space

    @classmethod
    def from_generator(cls, generator, initial_samples: int = 17):
        """Sample ``generator`` at evenly spaced times of [0, 1]."""
        ts = np.linspace(0.0, 1.0, initial_samples)
        return cls([(float(t), *generator(float(t))) for t in ts], generator)

    def induced_unitary_path(self) -> UnitaryPath:
        """t -> phi(f_t) phi(g_t)*, inheriting the generator when present."""
        gen = None
        if self.generator is not None:
            g = self.generator

            def gen(t):
                lf, lg = g(t)
                return lf.phi @ lg.phi.conj().T

        ts, fs, gs = zip(*self.samples)
        phi_f, phi_g = (np.array([lag.phi for lag in lags]) for lags in (fs, gs))
        return UnitaryPath(list(zip(ts, phi_f @ phi_g.conj().swapaxes(-1, -2))), gen)

    def endpoints(self):
        t0, f0, g0 = self.samples[0]
        t1, f1, g1 = self.samples[-1]
        return (f0, g0), (f1, g1)


def maslov(pp: LagrangianPairPath, tol: float = 1e-9) -> IndexResult:
    """Maslov index Mas(f, g) = -wind(phi(f) phi(g)*).

    Counts passages of gamma(f_t) = ker proj(f_t) through g_t; the crossing
    log reports the parameter values where the intersection dimension jumps.
    """
    w = wind(pp.induced_unitary_path(), tol)
    return IndexResult(-w.value, w.log)


def opposite_space(space: SymplecticSpace) -> SymplecticSpace:
    """The same Hilbert space with the opposite complex structure -gamma."""
    return SymplecticSpace(space.dim_half, -space.gamma,
                           space.basis_minus.copy(), space.basis_plus.copy())


def _in_opposite(lag: Lagrangian, opp: SymplecticSpace) -> Lagrangian:
    """L in the opposite space, where E_i and E_{-i} trade places: the graph of phi*."""
    return Lagrangian(opp, lag.phi.conj().T)


def gamma_conjugate(lag: Lagrangian) -> Lagrangian:
    """The orthogonal-complement Lagrangian gamma(L); phi flips sign."""
    return Lagrangian(lag.space, -lag.phi)


def _ker_cap_im(f: Lagrangian, g: Lagrangian, tol: float = 1e-9) -> int:
    """dim(ker proj(f) ∩ im proj(g)) = dim(gamma f ∩ g)."""
    return intersection_dim(gamma_conjugate(f), g, tol)


def maslov_orientation_check(pp: LagrangianPairPath, tol: float = 1e-9) -> dict:
    """Verify both orientation identities for a pair path.

    (1) Mas_{-gamma}(f, g) = Mas_gamma(g, f);
    (2) Mas(f, g) + Mas(g, f) = dim(ker f(1) ∩ im g(1)) - dim(ker f(0) ∩ im g(0)).
    Raises IdentityViolation on failure; returns the computed pieces.
    """
    mas_fg = maslov(pp, tol).value
    swapped = LagrangianPairPath([(t, g, f) for t, f, g in pp.samples],
                                 None if pp.generator is None else
                                 (lambda t, _g=pp.generator: _g(t)[::-1]))
    mas_gf = maslov(swapped, tol).value

    opp = opposite_space(pp.space)
    opp_samples = [(t, _in_opposite(f, opp), _in_opposite(g, opp)) for t, f, g in pp.samples]
    opp_gen = None
    if pp.generator is not None:
        base_gen = pp.generator

        def opp_gen(t):
            lf, lg = base_gen(t)
            return _in_opposite(lf, opp), _in_opposite(lg, opp)

    mas_opp = maslov(LagrangianPairPath(opp_samples, opp_gen), tol).value

    (f0, g0), (f1, g1) = pp.endpoints()
    d1 = _ker_cap_im(f1, g1, tol)
    d0 = _ker_cap_im(f0, g0, tol)
    if mas_opp != mas_gf:
        raise IdentityViolation(f"Mas_(-gamma)(f,g) = {mas_opp} != {mas_gf} = Mas(g,f)")
    if mas_fg + mas_gf != d1 - d0:
        raise IdentityViolation(
            f"Mas(f,g) + Mas(g,f) = {mas_fg + mas_gf} != {d1 - d0} = boundary dims"
        )
    return {"mas_fg": mas_fg, "mas_gf": mas_gf, "mas_opposite": mas_opp,
            "dim_end": d1, "dim_start": d0}


def tau_mu(p: Lagrangian, q: Lagrangian, r: Lagrangian, tol: float = 1e-9) -> int:
    """Triple index of an ordered Lagrangian triple (by their projections).

    Implemented by the trace-log formula
    (tr log(phi_P phi_Q*) + tr log(phi_Q phi_R*) - tr log(phi_P phi_R*)) / 2 pi i.
    """
    if not (p.space.same_space(q.space) and q.space.same_space(r.space)):
        raise DimensionMismatch("triple must live in one space")
    upq = p.phi @ q.phi.conj().T
    uqr = q.phi @ r.phi.conj().T
    upr = p.phi @ r.phi.conj().T
    raw = (branch_log_unitary(upq, tol) + branch_log_unitary(uqr, tol)
           - branch_log_unitary(upr, tol)) / (2j * np.pi)
    return as_integer(raw.real, 1e-8, what="tau_mu")


def m_pairing(v: Lagrangian, w: Lagrangian, tol: float = 1e-9) -> float:
    """Antisymmetric two-Lagrangian pairing m(V, W).

    -(1/pi) * sum of eigenphases of -phi(V) phi(W)* with the eigenvalue -1
    excluded; the excluded multiplicity is dim(V ∩ W), decided by the same
    ``at_phase`` policy as ``intersection_dim``.
    """
    if not v.space.same_space(w.space):
        raise DimensionMismatch("Lagrangians live in different spaces")
    phases = np.angle(np.linalg.eigvals(-(v.phi @ w.phi.conj().T)))
    return float(-np.sum(phases[~at_phase(phases, np.pi, tol)]) / np.pi)


def tsig(v: Lagrangian, w: Lagrangian, u: Lagrangian, tol: float = 1e-9) -> int:
    """Wall-type correction: the cyclic sum m(V,W) + m(W,U) + m(U,V), an integer."""
    total = m_pairing(v, w, tol) + m_pairing(w, u, tol) + m_pairing(u, v, tol)
    return as_integer(total, 1e-8, what="tsig")


def tsig_tau_mu_conversion(v: Lagrangian, w: Lagrangian, u: Lagrangian,
                           tol: float = 1e-9) -> dict:
    """Evaluate both conversion formulas between tsig and tau_mu; assert both.

    tsig(V,W,U) = tau_mu(V,W,U) - tau_mu(gV,W,U) - tau_mu(V,gW,U) - tau_mu(V,W,gU)
                  + dim(V∩W) + dim(W∩U) - dim(V∩U)
    tau_mu(V,W,U) = 1/4 (tsig(V,W,U) - tsig(gV,W,U) - tsig(V,gW,U) - tsig(V,W,gU)
                  + 2 dim(gV∩W) + 2 dim(W∩gU) - 2 dim(V∩gU))

    The signs carried by the first triple-index term and by the dim(V∩U)-type
    terms are forced by degenerate triples (they only matter when the slots
    intersect); both formulas are verified exact on large planted samples.
    """
    gv, gw, gu = gamma_conjugate(v), gamma_conjugate(w), gamma_conjugate(u)
    s = tsig(v, w, u, tol)
    t = tau_mu(v, w, u, tol)
    s_from_tau = (t - tau_mu(gv, w, u, tol)
                  - tau_mu(v, gw, u, tol) - tau_mu(v, w, gu, tol)
                  + intersection_dim(v, w, tol) + intersection_dim(w, u, tol)
                  - intersection_dim(v, u, tol))
    quad = (s - tsig(gv, w, u, tol) - tsig(v, gw, u, tol)
            - tsig(v, w, gu, tol)
            + 2 * intersection_dim(gv, w, tol) + 2 * intersection_dim(w, gu, tol)
            - 2 * intersection_dim(v, gu, tol))
    if quad % 4 != 0:
        raise IdentityViolation(f"tau_mu conversion sum {quad} is not divisible by 4")
    t_from_tsig = quad // 4
    if s_from_tau != s:
        raise IdentityViolation(f"tsig {s} != {s_from_tau} from tau_mu conversion")
    if t_from_tsig != t:
        raise IdentityViolation(f"tau_mu {t} != {t_from_tsig} from tsig conversion")
    return {"tsig": s, "tau_mu": t, "tsig_from_tau_mu": s_from_tau,
            "tau_mu_from_tsig": t_from_tsig}
