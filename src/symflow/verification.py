"""Seeded verification suites for every identity the library asserts.

Each suite draws all randomness from one counter-based stream keyed by the
user seed, runs a batch of checks, and reports per-identity pass counts.
The same batches back the acceptance test suite; suite headers name the
identity under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from . import model_dirac as md
from ._linalg import random_unitary
from .errors import SymflowError
from .lagrangian_indices import (
    LagrangianPairPath,
    gamma_conjugate,
    m_pairing,
    maslov,
    maslov_orientation_check,
    tau_mu,
    tsig,
    tsig_tau_mu_conversion,
)
from .spectral_flow import HermitianPath, eta_finite, sf_eta_consistency, spectral_flow
from .symplectic_core import (
    Lagrangian,
    SymplecticSpace,
    gamma_rotate,
    intersection_dim,
    lagrangian_from_frame,
    lagrangian_from_phi,
    projection_of,
    rebased_space,
    standard_space,
    subspace_distance,
    symplectic_reduce,
)
from .unitary_invariants import UnitaryPath, tau_w, tr_log, wind, wind_plus_inverse_check

__all__ = ["SuiteReport", "CheckResult", "SUITES", "run_suite", "rng_for",
           "random_unitary", "random_lagrangian", "random_symplectic",
           "planted_anticommuting", "random_block_line"]


# ---------------------------------------------------------------------------
# seeded randomness: one Philox stream per (seed, suite index)

_SUITE_STREAM = {
    "winding": 1, "tauw": 2, "maslov": 3, "triple": 4, "mtsig": 5, "sf": 6,
    "model-symmetry": 7, "nicolaescu": 8, "gluing": 9, "adiabatic": 10,
    "core": 11, "rebase": 12,
}


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator: one key per seed, one stream per consumer."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, stream]))


def unitary_with_minus_ones(rng, n: int, mult: int) -> np.ndarray:
    """Random unitary with exactly `mult` eigenvalues planted at -1."""
    phases = rng.uniform(-np.pi * 0.9, np.pi * 0.9, size=n)
    phases[:mult] = np.pi
    v = random_unitary(rng, n)
    return v @ np.diag(np.exp(1j * phases)) @ v.conj().T


def random_lagrangian(space: SymplecticSpace, rng) -> Lagrangian:
    return lagrangian_from_phi(space, random_unitary(rng, space.dim_half))


def random_symplectic(space: SymplecticSpace, rng, scale: float = 0.7) -> np.ndarray:
    """exp(gamma S) with S Hermitian is a (generally non-unitary) symplectic map."""
    n = space.dim
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = 0.5 * (s + s.conj().T) * scale / np.sqrt(n)
    return expm(space.gamma @ s)


def transport_lagrangian(space: SymplecticSpace, h: np.ndarray, lag: Lagrangian) -> Lagrangian:
    return lagrangian_from_frame(space, h @ lag.frame)


def random_block_line(rng) -> np.ndarray:
    a = rng.uniform(0, np.pi)
    return np.array([np.cos(a), np.sin(a)])


def planted_anticommuting(space: SymplecticSpace, mus, rng) -> np.ndarray:
    """A = sum mu (psi psi* - (gamma psi)(gamma psi)*) over isotropic unit psi.

    Each psi is drawn with equal +/-i gamma-components inside the unused
    gamma-invariant complement, which forces <psi, gamma psi> = 0; the
    construction is its own oracle for the block decomposition.
    """
    d = space.dim
    a = np.zeros((d, d), dtype=complex)
    used = np.zeros((d, 0), dtype=complex)
    p_plus = 0.5 * (np.eye(d) - 1j * space.gamma)
    for mu in mus:
        for _ in range(200):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v = v - used @ (used.conj().T @ v)
            up = p_plus @ v
            um = v - up
            if np.linalg.norm(up) < 1e-8 or np.linalg.norm(um) < 1e-8:
                continue
            psi = up / np.linalg.norm(up) / np.sqrt(2) + um / np.linalg.norm(um) / np.sqrt(2)
            gpsi = space.gamma @ psi
            a = a + mu * (np.outer(psi, psi.conj()) - np.outer(gpsi, gpsi.conj()))
            used = np.hstack([used, psi.reshape(-1, 1), gpsi.reshape(-1, 1)])
            break
        else:
            raise RuntimeError("could not plant an anticommuting block")
    return a


def random_model(rng, n_half_max: int = 3, allow_kernel: bool = True,
                 length: Optional[float] = None):
    """Seeded interval model with <= 3 mode blocks (plus optional kernel)."""
    n = int(rng.integers(1, n_half_max + 1))
    space = standard_space(n)
    max_blocks = n if not allow_kernel else int(rng.integers(0, n + 1))
    mus = sorted(rng.uniform(0.3, 2.5, size=max_blocks))
    a = planted_anticommuting(space, mus, rng)
    ell = float(length if length is not None else rng.uniform(0.6, 1.6))
    return md.build_model(space, a, md.Interval(ell)), list(mus)


def random_split_boundary(op, dbs, rng) -> Lagrangian:
    """Block-compatible boundary Lagrangian: one line per block per side, plus
    random kernel-block Lagrangians."""
    def side_lagrangian():
        cols = []
        for b in op.blocks:
            line = random_block_line(rng)
            cols.append(b.frame @ line.astype(complex))
        if op.kernel is not None:
            ksp = op.kernel.block_space
            lk = random_lagrangian(ksp, rng)
            cols.extend(list((op.kernel.frame @ lk.frame).T))
        return lagrangian_from_frame(op.space, np.array(cols).T)

    return md.direct_sum_lagrangian(dbs, side_lagrangian(), side_lagrangian())


def random_boundary_on_h(op, rng) -> Lagrangian:
    """Block-compatible Lagrangian on the single boundary space H."""
    cols = []
    for b in op.blocks:
        cols.append(b.frame @ random_block_line(rng).astype(complex))
    if op.kernel is not None:
        lk = random_lagrangian(op.kernel.block_space, rng)
        cols.extend(list((op.kernel.frame @ lk.frame).T))
    return lagrangian_from_frame(op.space, np.array(cols).T)


# ---------------------------------------------------------------------------
# reporting


@dataclass
class CheckResult:
    label: str
    passed: int
    total: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.passed == self.total


@dataclass
class SuiteReport:
    name: str
    header: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, label: str, passed: int, total: int, detail: str = ""):
        self.checks.append(CheckResult(label, passed, total, detail))

    def lines(self) -> list[str]:
        out = [f"suite {self.name}: {self.header}"]
        for c in self.checks:
            mark = "pass" if c.ok else "FAIL"
            extra = f"  ({c.detail})" if c.detail else ""
            out.append(f"  [{mark}] {c.label}: {c.passed}/{c.total}{extra}")
        return out


# ---------------------------------------------------------------------------
# suites


def suite_winding(seed: int, count: int = 200) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["winding"])
    rep = SuiteReport("winding", "winding-number conventions: endpoint rule, "
                                 "path additivity, inverse identity")
    eps = 0.3
    anchors = 0
    p_in = UnitaryPath.from_generator(lambda s: np.array([[-np.exp(-2j * (s * eps - eps))]]))
    anchors += wind(p_in).value == -1
    p_out = UnitaryPath.from_generator(lambda s: np.array([[-np.exp(-2j * s * eps)]]))
    anchors += wind(p_out).value == 0
    loop = UnitaryPath.from_generator(lambda s: np.array([[np.exp(2j * np.pi * s)]]))
    anchors += wind(loop).value == 1
    const = UnitaryPath([(0.0, -np.eye(2)), (1.0, -np.eye(2))])
    anchors += wind(const).value == 0
    rep.add("endpoint anchors (crossing in/out of -1, loop, constant)", anchors, 4)

    ok = tot = 0
    for _ in range(count // 4):
        k = int(rng.integers(1, 5))
        h1 = _herm(rng, k)
        h2 = _herm(rng, k)
        u0 = random_unitary(rng, k)
        f1 = UnitaryPath.from_generator(lambda t, u0=u0, h1=h1: expm(1j * t * h1) @ u0,
                                        initial_samples=17)
        mid = expm(1j * h1) @ u0
        f2 = UnitaryPath.from_generator(lambda t, mid=mid, h2=h2: expm(1j * t * h2) @ mid,
                                        initial_samples=17)
        joint = UnitaryPath.from_generator(
            lambda t, u0=u0, h1=h1, h2=h2, mid=mid:
            expm(2j * t * h1) @ u0 if t <= 0.5 else expm(1j * (2 * t - 1) * h2) @ mid,
            initial_samples=33)
        ok += wind(joint).value == wind(f1).value + wind(f2).value
        tot += 1
    rep.add("path additivity on seeded concatenations", ok, tot)

    ok = tot = 0
    for _ in range(count // 4):
        k = int(rng.integers(1, 4))
        h = _herm(rng, k, scale=2.5)
        u0 = random_unitary(rng, k)
        gen = lambda t, u0=u0, h=h: expm(1j * t * h) @ u0
        w1 = wind(UnitaryPath.from_generator(gen, initial_samples=9)).value
        w2 = wind(UnitaryPath.from_generator(gen, initial_samples=57)).value
        ok += w1 == w2
        tot += 1
    rep.add("invariance under resampling of the same generator", ok, tot)

    ok = tot = 0
    for _ in range(count // 2):
        k = int(rng.integers(1, 4))
        h = _herm(rng, k, scale=2.0)
        mult = int(rng.integers(0, min(k, 3) + 1))
        u_end = unitary_with_minus_ones(rng, k, mult)
        gen = lambda t, u=u_end, h=h: expm(1j * (1 - t) * h) @ u
        try:
            wind_plus_inverse_check(UnitaryPath.from_generator(gen, initial_samples=17))
            ok += 1
        except SymflowError:
            pass
        tot += 1
    rep.add("wind(f) + wind(f^-1) = kernel-dimension difference", ok, tot)
    return rep


def _herm(rng, k: int, scale: float = 1.0) -> np.ndarray:
    h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return 0.5 * (h + h.conj().T) * scale


def suite_tauw(seed: int, count: int = 200) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["tauw"])
    rep = SuiteReport("tauw", "double-index identities: tau_w(I,U) = tau_w(U,I) = 0, "
                              "tau_w(U, U^-1) = -dim ker(U+I)")
    ok_id = ok_inv = 0
    for _ in range(count):
        k = int(rng.integers(1, 9))
        mult = int(rng.integers(0, min(k, 3) + 1))
        u = unitary_with_minus_ones(rng, k, mult)
        eye = np.eye(k)
        ok_id += tau_w(eye, u) == 0 and tau_w(u, eye) == 0
        ok_inv += tau_w(u, u.conj().T) == -mult
    rep.add("tau_w(I,U) = tau_w(U,I) = 0", ok_id, count)
    rep.add("tau_w(U,U^-1) = -dim ker(U+I), planted multiplicities 0..3", ok_inv, count)

    ok = tot = 0
    for _ in range(max(10, count // 10)):
        k = int(rng.integers(1, 4))
        u = random_unitary(rng, k)
        v = random_unitary(rng, k)
        try:
            tau_w(u, v, cross_check=True)
            ok += 1
        except SymflowError:
            pass
        tot += 1
    rep.add("closed formula agrees with the path definition", ok, tot)

    ok = tot = 0
    for _ in range(max(10, count // 10)):
        k = int(rng.integers(1, 5))
        u = unitary_with_minus_ones(rng, k, int(rng.integers(0, k + 1)))
        w = random_unitary(rng, k)
        ok += abs(tr_log(w @ u @ w.conj().T) - tr_log(u)) < 1e-9 * k
        tot += 1
    rep.add("tr_log conjugation invariance", ok, tot)

    ok = tot = 0
    for _ in range(max(10, count // 10)):
        k = int(rng.integers(1, 4))
        h1, h2 = _herm(rng, k), _herm(rng, k)
        u0, v0 = random_unitary(rng, k), random_unitary(rng, k)
        f = lambda t: expm(1j * t * h1) @ u0
        g = lambda t: expm(1j * t * h2) @ v0
        wf = wind(UnitaryPath.from_generator(f, initial_samples=17)).value
        wg = wind(UnitaryPath.from_generator(g, initial_samples=17)).value
        wfg = wind(UnitaryPath.from_generator(lambda t: f(t) @ g(t), initial_samples=17)).value
        lhs = tau_w(f(1.0), g(1.0)) - tau_w(f(0.0), g(0.0))
        ok += lhs == wf + wg - wfg
        tot += 1
    rep.add("homotopy identity tau_w(f1,g1) - tau_w(f0,g0) = wind defect", ok, tot)
    return rep


def suite_maslov(seed: int, count: int = 200) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["maslov"])
    rep = SuiteReport("maslov", "Maslov index: rotation normalization, orientation "
                                "and opposite-structure identities")
    sp = standard_space(1)
    line = lagrangian_from_frame(sp, np.array([[1.0], [0.0]], dtype=complex))
    gline = gamma_conjugate(line)
    eps = 0.2
    pp = LagrangianPairPath.from_generator(
        lambda t: (gamma_rotate(line, -eps + 2 * eps * t), gline))
    rep.add("normalization Mas(e^{t gamma} L, gamma L) = dim overlap",
            int(maslov(pp).value == 1), 1)
    ppf = LagrangianPairPath.from_generator(
        lambda t: (gamma_rotate(line, np.pi * t), gline), initial_samples=33)
    rep.add("half-turn rotation gives index 1", int(maslov(ppf).value == 1), 1)

    ok = tot = 0
    for _ in range(count):
        n = int(rng.integers(1, 4))
        space = standard_space(n)
        h1, h2 = _herm(rng, n), _herm(rng, n)
        u1, u2 = random_unitary(rng, n), random_unitary(rng, n)
        gen = lambda t, u1=u1, u2=u2, h1=h1, h2=h2, space=space: (
            lagrangian_from_phi(space, expm(1j * t * h1) @ u1),
            lagrangian_from_phi(space, expm(1j * t * h2) @ u2))
        pp = LagrangianPairPath.from_generator(gen, initial_samples=17)
        try:
            maslov_orientation_check(pp)
            ok += 1
        except SymflowError:
            pass
        tot += 1
    rep.add("orientation identities on seeded pair paths", ok, tot)

    ok = tot = 0
    for _ in range(count // 10):
        n = int(rng.integers(1, 4))
        space = standard_space(n)
        h1, h2 = _herm(rng, n), _herm(rng, n)
        u1, u2 = random_unitary(rng, n), random_unitary(rng, n)
        gen = lambda t, u1=u1, u2=u2, h1=h1, h2=h2, space=space: (
            lagrangian_from_phi(space, expm(1j * t * h1) @ u1),
            lagrangian_from_phi(space, expm(1j * t * h2) @ u2))
        m1 = maslov(LagrangianPairPath.from_generator(gen, initial_samples=9)).value
        m2 = maslov(LagrangianPairPath.from_generator(gen, initial_samples=41)).value
        ok += m1 == m2
        tot += 1
    rep.add("invariance under refinement", ok, tot)

    ok = tot = 0
    for _ in range(count // 10):
        n = int(rng.integers(1, 4))
        space = standard_space(n)
        hs = [_herm(rng, n) for _ in range(3)]
        us = [random_unitary(rng, n) for _ in range(3)]
        paths = [lambda t, u=u, h=h, space=space: lagrangian_from_phi(space, expm(1j * t * h) @ u)
                 for u, h in zip(us, hs)]
        f, g, h = paths
        mfg = maslov(LagrangianPairPath.from_generator(lambda t: (f(t), g(t)),
                                                       initial_samples=17)).value
        mgh = maslov(LagrangianPairPath.from_generator(lambda t: (g(t), h(t)),
                                                       initial_samples=17)).value
        mfh = maslov(LagrangianPairPath.from_generator(lambda t: (f(t), h(t)),
                                                       initial_samples=17)).value
        lhs = mfg + mgh - mfh
        rhs = tau_mu(f(1.0), g(1.0), h(1.0)) - tau_mu(f(0.0), g(0.0), h(0.0))
        ok += lhs == rhs
        tot += 1
    rep.add("Mas(f,g) + Mas(g,h) - Mas(f,h) = triple-index difference of endpoints",
            ok, tot)
    return rep


def _planted_lagrangian(space: SymplecticSpace, rng) -> Lagrangian:
    """Random Lagrangian, sometimes with planted graph-unitary eigenphases at
    +1 or -1 so degenerate intersections actually occur."""
    n = space.dim_half
    u = random_unitary(rng, n)
    if rng.random() < 0.4:
        phases = np.exp(1j * rng.choice([0.0, np.pi, float(rng.uniform(-3, 3))], size=n))
        v = random_unitary(rng, n)
        u = v @ np.diag(phases) @ v.conj().T
    return lagrangian_from_phi(space, u)


def _ker_cap_im(a: Lagrangian, b: Lagrangian) -> int:
    return intersection_dim(gamma_conjugate(a), b)


def suite_triple(seed: int, count: int = 500) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["triple"])
    rep = SuiteReport("triple", "triple-index permutation and degeneracy relations")
    ok_deg = ok_perm = ok_swap = tot = 0
    for _ in range(count):
        n = int(rng.integers(1, 6))
        space = standard_space(n)
        p = _planted_lagrangian(space, rng)
        q = _planted_lagrangian(space, rng)
        r = _planted_lagrangian(space, rng)
        try:
            ok_deg += (tau_mu(p, p, q) == 0 and tau_mu(q, p, p) == 0
                       and tau_mu(p, q, p) == _ker_cap_im(p, q))
            t0 = tau_mu(p, q, r)
            ok_perm += (
                tau_mu(p, r, q) == -t0 + _ker_cap_im(q, r)
                and tau_mu(q, p, r) == -t0 + _ker_cap_im(p, q)
                and tau_mu(r, q, p) == -t0 + _ker_cap_im(p, q) + _ker_cap_im(q, r)
                - _ker_cap_im(p, r)
            )
            ok_swap += 1
        except SymflowError:
            pass
        tot += 1
    rep.add("tau_mu(P,P,Q) = tau_mu(Q,P,P) = 0 and tau_mu(P,Q,P) = overlap", ok_deg, tot)
    rep.add("all three permutation relations", ok_perm, tot)
    rep.add("no tolerance ambiguities on planted triples", ok_swap, tot)
    return rep


def suite_mtsig(seed: int, count: int = 200) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["mtsig"])
    rep = SuiteReport("mtsig", "pairing antisymmetry/additivity, Wall-correction "
                               "symmetry and invariance, index conversions")
    sp2 = standard_space(1)
    col = lambda v: np.array(v, dtype=complex).reshape(2, 1)
    v2 = lagrangian_from_frame(sp2, col((1, 0)))
    w2 = lagrangian_from_frame(sp2, col((1, 1)))
    u2 = lagrangian_from_frame(sp2, col((0, 1)))
    rep.add("standard C^2 triple has correction 1", int(tsig(v2, w2, u2) == 1), 1)
    rep.add("graph maps of the three standard lines are (1, -i, -1)",
            int(abs(v2.phi[0, 0] - 1) < 1e-12 and abs(w2.phi[0, 0] + 1j) < 1e-12
                and abs(u2.phi[0, 0] + 1) < 1e-12), 1)

    ok_anti = ok_sum = tot = 0
    for _ in range(count):
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 4))
        s1, s2 = standard_space(n1), standard_space(n2)
        a1, b1 = _planted_lagrangian(s1, rng), _planted_lagrangian(s1, rng)
        a2, b2 = _planted_lagrangian(s2, rng), _planted_lagrangian(s2, rng)
        try:
            ok_anti += abs(m_pairing(a1, b1) + m_pairing(b1, a1)) < 1e-9
            s12 = standard_space(n1 + n2)
            asum = _direct_sum_on_standard(s1, s2, s12, a1, a2)
            bsum = _direct_sum_on_standard(s1, s2, s12, b1, b2)
            ok_sum += abs(m_pairing(asum, bsum)
                          - m_pairing(a1, b1) - m_pairing(a2, b2)) < 1e-9
        except SymflowError:
            pass
        tot += 1
    rep.add("antisymmetry m(W,V) = -m(V,W)", ok_anti, tot)
    rep.add("additivity under direct sums", ok_sum, tot)

    ok_perm = ok_inv = tot2 = 0
    for _ in range(count // 2):
        n = int(rng.integers(1, 4))
        space = standard_space(n)
        v = _planted_lagrangian(space, rng)
        w = _planted_lagrangian(space, rng)
        u = _planted_lagrangian(space, rng)
        try:
            s0 = tsig(v, w, u)
            ok_perm += (tsig(w, v, u) == -s0 and tsig(v, u, w) == -s0
                        and tsig(w, u, v) == s0 and tsig(u, v, w) == s0)
            h = random_symplectic(space, rng)
            ok_inv += tsig(transport_lagrangian(space, h, v),
                           transport_lagrangian(space, h, w),
                           transport_lagrangian(space, h, u)) == s0
        except SymflowError:
            pass
        tot2 += 1
    rep.add("sign character under permutations", ok_perm, tot2)
    rep.add("invariance under symplectic automorphisms", ok_inv, tot2)

    ok_conv = tot3 = 0
    for _ in range(count // 2):
        n = int(rng.integers(1, 5))
        space = standard_space(n)
        try:
            tsig_tau_mu_conversion(_planted_lagrangian(space, rng),
                                   _planted_lagrangian(space, rng),
                                   _planted_lagrangian(space, rng))
            ok_conv += 1
        except SymflowError:
            pass
        tot3 += 1
    rep.add("both conversion formulas between the two indices", ok_conv, tot3)

    ok_cont = tot4 = 0
    for _ in range(10):
        n = int(rng.integers(1, 3))
        space = standard_space(n)
        v = random_lagrangian(space, rng)
        w = random_lagrangian(space, rng)
        s = _herm(rng, space.dim, scale=0.5)
        gen_h = lambda t, s=s, space=space: expm(t * (space.gamma @ s))
        ts = np.linspace(0.0, 1.0, 1001)
        vals = []
        jumpless = True
        dim0 = intersection_dim(v, w)
        for t in ts:
            h = gen_h(float(t))
            vt = transport_lagrangian(space, h, v)
            wt = transport_lagrangian(space, h, w)
            if intersection_dim(vt, wt) != dim0:
                jumpless = False
                break
            vals.append(m_pairing(vt, wt))
        if not jumpless:
            tot4 += 1  # hypothesis failed by construction; skip but count attempt
            ok_cont += 1
            continue
        diffs = np.abs(np.diff(vals))
        ok_cont += bool(np.max(diffs) < 0.05)
        tot4 += 1
    rep.add("continuity along constant-overlap automorphism orbits", ok_cont, tot4)
    return rep


def _direct_sum_on_standard(s1: SymplecticSpace, s2: SymplecticSpace,
                            s12: SymplecticSpace, a1: Lagrangian,
                            a2: Lagrangian) -> Lagrangian:
    """Embed L1 ⊕ L2 into the standard space of combined half-dimension.

    The standard gamma interleaves as [[0, -I], [I, 0]], so the embedding
    maps (x, y)-halves of each summand into stacked halves.
    """
    n1, n2 = s1.dim_half, s2.dim_half
    f1, f2 = a1.frame, a2.frame
    frame = np.zeros((2 * (n1 + n2), n1 + n2), dtype=complex)
    frame[:n1, :n1] = f1[:n1, :]
    frame[n1 + n2: 2 * n1 + n2, :n1] = f1[n1:, :]
    frame[n1: n1 + n2, n1:] = f2[:n2, :]
    frame[2 * n1 + n2:, n1:] = f2[n2:, :]
    return lagrangian_from_frame(s12, frame)


def suite_sf(seed: int, count: int = 100) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["sf"])
    rep = SuiteReport("sf", "spectral flow: eta~ difference identity, counting "
                            "rule against eigenvalue-tracking oracle")
    ok_eta = ok_oracle = tot = 0
    for _ in range(count):
        k = int(rng.integers(2, 9))
        a, b = _herm(rng, k), _herm(rng, k)
        path = HermitianPath.from_generator(lambda t, a=a, b=b: (1 - t) * a + t * b,
                                            initial_samples=33)
        try:
            r = sf_eta_consistency(path)
            ok_eta += 1
            ok_oracle += r["sf"] == _sf_tracking_oracle(
                lambda t, a=a, b=b: (1 - t) * a + t * b)
        except SymflowError:
            pass
        tot += 1
    rep.add("eta~(1) - eta~(0) = SF on seeded Hermitian paths", ok_eta, tot)
    rep.add("counting rule equals the tracking oracle", ok_oracle, tot)

    ok = tot2 = 0
    for _ in range(count // 5):
        k = int(rng.integers(2, 6))
        a, b = _herm(rng, k), _herm(rng, k)
        gen = lambda t, a=a, b=b: (1 - t) * a + t * b
        fwd = HermitianPath.from_generator(gen, initial_samples=33)
        ker0 = eta_finite(a)[1]
        ker1 = eta_finite(b)[1]
        if ker0 or ker1:
            ok += 1  # reversal identity only claimed for invertible endpoints
            tot2 += 1
            continue
        rev = fwd.reversed()
        ok += spectral_flow(fwd).value + spectral_flow(rev).value == 0
        tot2 += 1
    rep.add("flow of a path and its reverse cancels (invertible endpoints)", ok, tot2)

    planted = 0
    trials = 20
    for _ in range(trials):
        k = int(rng.integers(2, 5))
        v = random_unitary(rng, k)
        a0 = rng.uniform(-1.0, 1.0, size=k)
        slope = rng.uniform(-2.0, 2.0, size=k)
        lam = lambda t: a0 + slope * t

        def gen(t, v=v, lam=lam):
            return v @ np.diag(lam(float(t))) @ v.conj().T

        expected = 0
        for a0j, sj in zip(a0, slope):
            end = a0j + sj
            expected += int(a0j < 0 <= end) - int(end < 0 <= a0j)
        path = HermitianPath.from_generator(gen, initial_samples=41)
        planted += spectral_flow(path).value == expected
    rep.add("planted eigenvalue curves with known crossing counts", planted, trials)
    return rep


def _sf_tracking_oracle(gen: Callable[[float], np.ndarray], samples: int = 2001) -> int:
    """Independent flow count: dense sorted eigenvalue curves, crossings of -eps
    with eps half the smallest nonzero endpoint eigenvalue."""
    ts = np.linspace(0.0, 1.0, samples)
    curves = np.array([np.linalg.eigvalsh(gen(float(t))) for t in ts])
    ends = np.abs(np.concatenate([curves[0], curves[-1]]))
    nz = ends[ends > 1e-12]
    eps = 0.5 * float(np.min(nz)) if nz.size else 1e-9
    above = curves > -eps
    return int(np.sum(above[-1]) - np.sum(above[0]))


def suite_model_symmetry(seed: int, count: int = 50) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["model-symmetry"])
    rep = SuiteReport("model-symmetry", "interval spectra: swap antisymmetry, "
                                        "kernel counting, split-vs-coupled engines")
    ok_sym = ok_ker = ok_union = tot = 0
    for _ in range(count):
        op, _ = random_model(rng)
        p = random_boundary_on_h(op, rng)
        q = random_boundary_on_h(op, rng)
        try:
            md.model_symmetry_check(op, p, q, window=20.0, tol=1e-8)
            ok_sym += 1
        except SymflowError:
            pass
        dbs = md.double_boundary(op)
        constraint = md.direct_sum_lagrangian(dbs, gamma_conjugate(p), q)
        spec = md.interval_spectrum(op, p, q, 20.0)
        near_zero = int(np.sum(np.abs(spec) <= 1e-7))
        ok_ker += near_zero == md.interval_kernel_dim(op, constraint, dbs)
        coupled = md.boundary_spectrum(op, constraint, 8.0, dbs=dbs)
        split = spec[np.abs(spec) <= 8.0 + 1e-12]
        ok_union += (coupled.size == split.size
                     and (coupled.size == 0
                          or float(np.max(np.abs(coupled - split))) < 1e-7))
        tot += 1
    rep.add("spec D_{P,Q} = -spec D_{Q,P} elementwise", ok_sym, tot)
    rep.add("root count at zero equals Cauchy-data intersection", ok_ker, tot)
    rep.add("split and coupled engines agree", ok_union, tot)
    return rep


def suite_nicolaescu(seed: int, count: int = 30) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["nicolaescu"])
    rep = SuiteReport("nicolaescu", "spectral flow equals the Maslov index "
                                    "against the Cauchy data space")
    ok = tot = 0
    flows = []
    for i in range(count):
        op, _ = random_model(rng, n_half_max=2)
        dbs = md.double_boundary(op)
        turns = float(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
        q_side = random_boundary_on_h(op, rng)
        base = random_boundary_on_h(op, rng)

        def bnd(t, op=op, dbs=dbs, base=base, q_side=q_side, turns=turns):
            rot = expm(float(t) * turns * np.pi * np.asarray(op.space.gamma))
            moved = lagrangian_from_frame(op.space, rot @ base.frame)
            return md.direct_sum_lagrangian(dbs, moved, q_side)

        fam = [(float(t), bnd(float(t))) for t in np.linspace(0, 1, 33 + 16 * int(abs(turns)))]
        try:
            r = md.nicolaescu_verify(op, fam, window=14.0)
            ok += 1
            flows.append(r["sf"])
        except SymflowError:
            pass
        tot += 1
    span = sorted(set(flows))
    rep.add("SF = Mas on seeded boundary-condition paths", ok, tot,
            detail=f"flows seen: {span}")
    return rep


def suite_gluing(seed: int, count: int = 20) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["gluing"])
    rep = SuiteReport("gluing", "eta gluing across a circle: exact zero-mode "
                                "closure, truncation-bounded mixed closure, "
                                "integer triple-index part")
    ok_zero = tot_zero = 0
    for _ in range(count):
        n = int(rng.integers(1, 3))
        space = standard_space(n)
        a = np.zeros((space.dim, space.dim))
        op_p = md.build_model(space, a, md.Interval(float(rng.uniform(0.5, 2.0))))
        op_m = md.build_model(space, a, md.Interval(float(rng.uniform(0.5, 2.0))))
        dbs = md.double_boundary(op_p)
        choice = rng.random()
        if choice < 0.3:
            p = md.cauchy_data(op_p, dbs)
        elif choice < 0.5:
            p = gamma_conjugate(md.transmission_lagrangian(dbs))
        else:
            p = random_split_boundary(op_p, dbs, rng)
        try:
            r = md.glue_verify(op_p, op_m, p, eta_tol=1e-9)
            ok_zero += r["defect"] <= 1e-9
        except SymflowError:
            pass
        tot_zero += 1
    rep.add("zero-mode models close to 1e-9", ok_zero, tot_zero)

    ok_mix = tot_mix = 0
    bounds = []
    for _ in range(count // 2):
        op_p, mus = random_model(rng, n_half_max=2)
        op_m = md.build_model(op_p.space, op_p.a_matrix,
                              md.Interval(float(rng.uniform(0.5, 1.5))))
        dbs = md.double_boundary(op_p)
        p = random_split_boundary(op_p, dbs, rng)
        try:
            r = md.glue_verify(op_p, op_m, p, n_max=10_000)
            ok_mix += r["defect"] <= r["bound"] + 1e-9 and r["bound"] <= 5e-3
            bounds.append(r["bound"])
        except SymflowError:
            pass
        tot_mix += 1
    rep.add("mixed models close within the reported bound (and bound <= 5e-3)",
            ok_mix, tot_mix,
            detail=f"max bound {max(bounds):.2e}" if bounds else "")

    ok_cald = tot_cald = 0
    for _ in range(max(4, count // 4)):
        op_p, _ = random_model(rng, n_half_max=2)
        op_m = md.build_model(op_p.space, op_p.a_matrix,
                              md.Interval(float(rng.uniform(0.5, 1.5))))
        try:
            md.caldconst_check(op_p, op_m)
            ok_cald += 1
        except SymflowError:
            pass
        tot_cald += 1
    rep.add("glued-kernel dimension constant along the transmission family",
            ok_cald, tot_cald)
    return rep


def suite_adiabatic(seed: int, count: int = 20) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["adiabatic"])
    rep = SuiteReport("adiabatic", "stretched Cauchy data converges monotonically "
                                   "to the filtered-projection limit")
    ok = tot = 0
    for _ in range(count):
        op, mus = random_model(rng, n_half_max=2)
        if not mus:
            op, mus = random_model(rng, n_half_max=2, allow_kernel=False)
        dbs = md.double_boundary(op)
        try:
            lim = md.adiabatic_limit(op, nu=0.0, dbs=dbs)
        except SymflowError:
            tot += 1
            continue
        mu_min = min(mus)
        rs = np.linspace(2.0 / mu_min, 50.0 / mu_min, 7)
        dists = [subspace_distance(md.cauchy_data(op, dbs, side="+", length=float(r)), lim)
                 for r in rs]
        mono = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        ok += mono and dists[-1] < 1e-8
        tot += 1
    rep.add("distance decreasing over sampled stretches and < 1e-8 at 50/mu_min",
            ok, tot)
    return rep


def suite_core(seed: int, count: int = 500) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["core"])
    rep = SuiteReport("core", "symplectic-space plumbing: graph-map round trip, "
                              "projection identity, reduction, intersections")
    ok_rt = ok_proj = tot = 0
    for _ in range(count):
        n = int(rng.integers(1, 7))
        space = standard_space(n)
        lag = random_lagrangian(space, rng)
        back = lagrangian_from_phi(space, lag.phi)
        ok_rt += subspace_distance(lag, back) < 1e-10
        pmat = projection_of(lag).matrix
        g = space.gamma
        ok_proj += (np.linalg.norm(g @ pmat @ g.conj().T + pmat - np.eye(2 * n), 2)
                    < 1e-12 * 10 * n)
        tot += 1
    rep.add("phi round trip spans the same subspace", ok_rt, tot)
    rep.add("gamma P gamma* = I - P for every projection", ok_proj, tot)

    ok_int = tot_int = 0
    for _ in range(count // 5):
        n = int(rng.integers(2, 6))
        space = standard_space(n)
        k = int(rng.integers(0, n + 1))
        l1 = random_lagrangian(space, rng)
        # plant a k-dimensional overlap by reusing k graph directions
        u1 = l1.phi
        v = random_unitary(rng, n)
        d = np.exp(1j * np.concatenate([np.zeros(k), rng.uniform(0.3, 2.8, n - k)]))
        u2 = u1 @ v @ np.diag(d) @ v.conj().T
        l2 = lagrangian_from_phi(space, u2)
        try:
            ok_int += (intersection_dim(l1, l2) == k
                       and intersection_dim(l2, l1) == k)
        except SymflowError:
            pass
        tot_int += 1
    rep.add("planted intersection dimensions recovered symmetrically", ok_int, tot_int)

    ok_red = tot_red = 0
    for _ in range(count // 10):
        n = int(rng.integers(2, 5))
        space = standard_space(n)
        lag = random_lagrangian(space, rng)
        iso = random_lagrangian(space, rng).frame[:, : int(rng.integers(1, n))]
        giso = space.gamma @ iso
        rest = np.hstack([iso, giso])
        perp = np.eye(2 * n) - _proj(rest)
        u_frame = np.hstack([iso, perp])
        try:
            red = symplectic_reduce(lag, u_frame)
            ok_red += red.lagrangian.frame.shape[1] == red.space.dim_half
        except SymflowError:
            pass
        tot_red += 1
    rep.add("reduction by coisotropic subspaces yields reduced Lagrangians",
            ok_red, tot_red)
    return rep


def _proj(frame: np.ndarray) -> np.ndarray:
    from ._linalg import orthonormal_columns

    q = orthonormal_columns(frame)
    return q @ q.conj().T


def suite_rebase(seed: int, count: int = 50) -> SuiteReport:
    rng = rng_for(seed, _SUITE_STREAM["rebase"])
    rep = SuiteReport("rebase", "basis independence: integer invariants exact, "
                                "pairing within 1e-9, under eigenbasis re-phasing")
    ok = tot = 0
    for _ in range(count):
        n = int(rng.integers(1, 4))
        space = standard_space(n)
        other = rebased_space(space, rng)
        frames = [_planted_lagrangian(space, rng).frame for _ in range(3)]
        l_a = [lagrangian_from_frame(space, f) for f in frames]
        l_b = [lagrangian_from_frame(other, f) for f in frames]
        try:
            same = (
                intersection_dim(l_a[0], l_a[1]) == intersection_dim(l_b[0], l_b[1])
                and tau_mu(*l_a) == tau_mu(*l_b)
                and tsig(*l_a) == tsig(*l_b)
                and abs(m_pairing(l_a[0], l_a[1]) - m_pairing(l_b[0], l_b[1])) < 1e-9
            )
            ok += bool(same)
        except SymflowError:
            pass
        tot += 1
    rep.add("invariants agree across re-based eigenbases", ok, tot)
    return rep


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "core": suite_core,
    "winding": suite_winding,
    "tauw": suite_tauw,
    "maslov": suite_maslov,
    "triple": suite_triple,
    "mtsig": suite_mtsig,
    "sf": suite_sf,
    "model-symmetry": suite_model_symmetry,
    "nicolaescu": suite_nicolaescu,
    "gluing": suite_gluing,
    "adiabatic": suite_adiabatic,
    "rebase": suite_rebase,
}


def run_suite(name: str, seed: int = 0, count: Optional[int] = None) -> list[SuiteReport]:
    """Run one suite (or 'all'); returns the reports in registry order."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {list(SUITES)} or 'all'")
    out = []
    for nm in names:
        fn = SUITES[nm]
        out.append(fn(seed) if count is None else fn(seed, count))
    return out
