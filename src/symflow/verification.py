"""Seeded verification suites for every identity the library asserts.

Each suite draws all randomness from one counter-based stream keyed by the
user seed, and runs its cases through ``SuiteReport.run``, which reports
per-identity pass counts.  The same batches back the acceptance test suite;
suite headers name the identity under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Union

import numpy as np

from . import model_dirac as md
from ._linalg import DEFAULT_TOL, orthonormal_columns, random_unitary
from .errors import SchemaError, SymflowError
from .lagrangian_indices import (
    LagrangianPairPath,
    _ker_cap_im,
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
    space_from_gamma,
    standard_space,
    subspace_distance,
    symplectic_reduce,
)
from .unitary_invariants import UnitaryPath, tau_w, tr_log, wind, wind_plus_inverse_check

__all__ = ["SuiteReport", "CheckResult", "SUITES", "run_suite", "rng_for",
           "random_unitary", "random_lagrangian", "random_symplectic",
           "planted_anticommuting"]


# ---------------------------------------------------------------------------
# seeded randomness: one Philox stream per (seed, suite stream number)


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
    return _exp_flow(space.gamma @ s)(1.0)


def _exp_flow(m: np.ndarray) -> Callable[[float], np.ndarray]:
    """t -> exp(t m) from one eigendecomposition of a diagonalizable m."""
    vals, vecs = np.linalg.eig(m)
    inv = np.linalg.inv(vecs)
    return lambda t: (vecs * np.exp(t * vals)) @ inv


def _unitary_flow(h: np.ndarray) -> Callable[[float], np.ndarray]:
    """t -> exp(i t h) for Hermitian h, from one ``eigh``."""
    vals, vecs = np.linalg.eigh(h)
    return lambda t: (vecs * np.exp(1j * t * vals)) @ vecs.conj().T


def transport_lagrangian(space: SymplecticSpace, h: np.ndarray, lag: Lagrangian) -> Lagrangian:
    return lagrangian_from_frame(space, h @ lag.frame)


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


def random_model(rng, n_half_max: int = 3, allow_kernel: bool = True):
    """Seeded interval model with <= 3 mode blocks (plus optional kernel)."""
    n = int(rng.integers(1, n_half_max + 1))
    space = standard_space(n)
    max_blocks = n if not allow_kernel else int(rng.integers(0, n + 1))
    mus = sorted(rng.uniform(0.3, 2.5, size=max_blocks))
    a = planted_anticommuting(space, mus, rng)
    ell = float(rng.uniform(0.6, 1.6))
    return md.build_model(space, a, md.Interval(ell)), list(mus)


def random_split_boundary(op, rng) -> Lagrangian:
    """Block-compatible boundary Lagrangian: one line per block per side, plus
    random kernel-block Lagrangians."""
    return md.direct_sum_lagrangian(md.double_boundary(op), random_boundary_on_h(op, rng),
                                    random_boundary_on_h(op, rng))


def random_coupled_boundary(dbs, rng) -> Lagrangian:
    """Block-compatible boundary Lagrangian of the double space with a random
    Lagrangian (a random unitary phi) in every doubled block: on a mode block
    it couples the two ends."""
    return lagrangian_from_frame(dbs.space, np.hstack(
        [b.frame @ random_lagrangian(b.space, rng).frame for b in dbs.blocks]))


def random_boundary_on_h(op, rng) -> Lagrangian:
    """Block-compatible Lagrangian on the single boundary space H."""
    cols = []
    for b in op.blocks:
        a = rng.uniform(0, np.pi)
        cols.append(b.frame @ np.array([np.cos(a), np.sin(a)], dtype=complex))
    if op.kernel is not None:
        kframe = op.kernel.frame
        lk = random_lagrangian(space_from_gamma(kframe.conj().T @ op.space.gamma @ kframe), rng)
        cols.extend(list((kframe @ lk.frame).T))
    return lagrangian_from_frame(op.space, np.array(cols).T)


# ---------------------------------------------------------------------------
# reporting


@dataclass
class CheckResult:
    """One identity's tally: skipped cases count toward neither ``passed``
    nor ``total``; ``reasons`` holds the errors of the failed cases."""

    label: str
    passed: int = 0
    total: int = 0
    detail: str = ""
    skipped: int = 0
    reasons: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        # a check whose every case was skipped verified nothing
        return self.passed == self.total and (self.total > 0 or self.skipped == 0)


@dataclass
class SuiteReport:
    name: str
    header: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def run(self, labels: Union[str, tuple[str, ...]],
            cases: Iterable[Callable[[], object]]) -> None:
        """Run the cases in order and add one check per label.

        A case returns one truth value per label (a bare value for a single
        label), or ``None`` when its hypothesis fails, which skips it.  A
        ``SymflowError`` fails every label of its case and keeps
        ``"<ErrorName>: <message>"`` as the reason.
        """
        single = isinstance(labels, str)
        checks = [CheckResult(label) for label in ([labels] if single else labels)]
        for case in cases:
            try:
                value = case()
            except SymflowError as exc:
                for c in checks:
                    c.total += 1
                    c.reasons.append(f"{type(exc).__name__}: {exc}")
                continue
            if value is None:
                for c in checks:
                    c.skipped += 1
                continue
            for c, v in zip(checks, [value] if single else value, strict=True):
                c.total += 1
                c.passed += bool(v)
        self.checks.extend(checks)

    def lines(self) -> list[str]:
        out = [f"suite {self.name}: {self.header}"]
        for c in self.checks:
            notes = [c.detail] if c.detail else []
            if c.skipped:
                notes.append(f"{c.skipped} skipped")
            if c.reasons:
                notes.append(f"first error {c.reasons[0]}")
            extra = f"  ({'; '.join(notes)})" if notes else ""
            out.append(f"  [{'pass' if c.ok else 'FAIL'}] {c.label}: {c.passed}/{c.total}{extra}")
        return out


# ---------------------------------------------------------------------------
# suites: each takes its report, its seeded generator and a case count


def suite_winding(rep: SuiteReport, rng, count: int = 200) -> None:
    eps = 0.3
    rep.run("endpoint anchors (crossing in/out of -1, loop, constant)", [
        lambda: wind(UnitaryPath.from_generator(
            lambda s: np.array([[-np.exp(-2j * (s * eps - eps))]]))).value == -1,
        lambda: wind(UnitaryPath.from_generator(
            lambda s: np.array([[-np.exp(-2j * s * eps)]]))).value == 0,
        lambda: wind(UnitaryPath.from_generator(
            lambda s: np.array([[np.exp(2j * np.pi * s)]]))).value == 1,
        lambda: wind(UnitaryPath([(0.0, -np.eye(2)), (1.0, -np.eye(2))])).value == 0,
    ])

    def additivity():
        k = int(rng.integers(1, 5))
        h1 = _herm(rng, k)
        h2 = _herm(rng, k)
        u0 = random_unitary(rng, k)
        e1, e2 = _unitary_flow(h1), _unitary_flow(h2)
        f1 = UnitaryPath.from_generator(lambda t: e1(t) @ u0, initial_samples=17)
        mid = e1(1.0) @ u0
        f2 = UnitaryPath.from_generator(lambda t: e2(t) @ mid, initial_samples=17)
        joint = UnitaryPath.from_generator(
            lambda t: e1(2 * t) @ u0 if t <= 0.5 else e2(2 * t - 1) @ mid,
            initial_samples=33)
        return wind(joint).value == wind(f1).value + wind(f2).value
    rep.run("path additivity on seeded concatenations", [additivity] * (count // 4))

    def resampling():
        k = int(rng.integers(1, 4))
        h = _herm(rng, k, scale=2.5)
        u0 = random_unitary(rng, k)
        e = _unitary_flow(h)
        gen = lambda t: e(t) @ u0
        w1 = wind(UnitaryPath.from_generator(gen, initial_samples=9)).value
        return w1 == wind(UnitaryPath.from_generator(gen, initial_samples=57)).value
    rep.run("invariance under resampling of the same generator", [resampling] * (count // 4))

    def inverse_identity():
        k = int(rng.integers(1, 4))
        h = _herm(rng, k, scale=2.0)
        mult = int(rng.integers(0, min(k, 3) + 1))
        u_end = unitary_with_minus_ones(rng, k, mult)
        e = _unitary_flow(h)
        wind_plus_inverse_check(UnitaryPath.from_generator(
            lambda t: e(1 - t) @ u_end, initial_samples=17))
        return True
    rep.run("wind(f) + wind(f^-1) = kernel-dimension difference",
            [inverse_identity] * (count // 2))


def _herm(rng, k: int, scale: float = 1.0) -> np.ndarray:
    h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return 0.5 * (h + h.conj().T) * scale


def suite_tauw(rep: SuiteReport, rng, count: int = 200) -> None:
    def double_index():
        k = int(rng.integers(1, 9))
        mult = int(rng.integers(0, min(k, 3) + 1))
        u = unitary_with_minus_ones(rng, k, mult)
        eye = np.eye(k)
        return (tau_w(eye, u) == 0 and tau_w(u, eye) == 0,
                tau_w(u, u.conj().T) == -mult)
    rep.run(("tau_w(I,U) = tau_w(U,I) = 0",
             "tau_w(U,U^-1) = -dim ker(U+I), planted multiplicities 0..3"),
            [double_index] * count)
    few = max(10, count // 10)

    def cross_check():
        k = int(rng.integers(1, 4))
        u = random_unitary(rng, k)
        v = random_unitary(rng, k)
        tau_w(u, v, cross_check=True)
        return True
    rep.run("closed formula agrees with the path definition", [cross_check] * few)

    def conjugation():
        k = int(rng.integers(1, 5))
        u = unitary_with_minus_ones(rng, k, int(rng.integers(0, k + 1)))
        w = random_unitary(rng, k)
        return abs(tr_log(w @ u @ w.conj().T) - tr_log(u)) < 1e-9 * k
    rep.run("tr_log conjugation invariance", [conjugation] * few)

    def homotopy():
        k = int(rng.integers(1, 4))
        h1, h2 = _herm(rng, k), _herm(rng, k)
        u0, v0 = random_unitary(rng, k), random_unitary(rng, k)
        e1, e2 = _unitary_flow(h1), _unitary_flow(h2)
        f = lambda t: e1(t) @ u0
        g = lambda t: e2(t) @ v0
        wf = wind(UnitaryPath.from_generator(f, initial_samples=17)).value
        wg = wind(UnitaryPath.from_generator(g, initial_samples=17)).value
        wfg = wind(UnitaryPath.from_generator(lambda t: f(t) @ g(t), initial_samples=17)).value
        return tau_w(f(1.0), g(1.0)) - tau_w(f(0.0), g(0.0)) == wf + wg - wfg
    rep.run("homotopy identity tau_w(f1,g1) - tau_w(f0,g0) = wind defect", [homotopy] * few)


def _random_lagrangian_paths(rng, count: int) -> list:
    """``count`` seeded paths t -> L(t) in one standard space, L(t) having
    graph unitary exp(i t h) u."""
    n = int(rng.integers(1, 4))
    space = standard_space(n)
    hs = [_herm(rng, n) for _ in range(count)]
    us = [random_unitary(rng, n) for _ in range(count)]
    return [lambda t, e=_unitary_flow(h), u=u: lagrangian_from_phi(space, e(t) @ u)
            for h, u in zip(hs, us)]


def suite_maslov(rep: SuiteReport, rng, count: int = 200) -> None:
    sp = standard_space(1)
    line = lagrangian_from_frame(sp, np.array([[1.0], [0.0]], dtype=complex))
    gline = gamma_conjugate(line)
    eps = 0.2
    rep.run("normalization Mas(e^{t gamma} L, gamma L) = dim overlap", [
        lambda: maslov(LagrangianPairPath.from_generator(
            lambda t: (gamma_rotate(line, -eps + 2 * eps * t), gline))).value == 1])
    rep.run("half-turn rotation gives index 1", [
        lambda: maslov(LagrangianPairPath.from_generator(
            lambda t: (gamma_rotate(line, np.pi * t), gline), initial_samples=33)).value == 1])

    def orientation():
        f, g = _random_lagrangian_paths(rng, 2)
        maslov_orientation_check(LagrangianPairPath.from_generator(
            lambda t: (f(t), g(t)), initial_samples=17))
        return True
    rep.run("orientation identities on seeded pair paths", [orientation] * count)

    def refinement():
        f, g = _random_lagrangian_paths(rng, 2)
        gen = lambda t: (f(t), g(t))
        m1 = maslov(LagrangianPairPath.from_generator(gen, initial_samples=9)).value
        return m1 == maslov(LagrangianPairPath.from_generator(gen, initial_samples=41)).value
    rep.run("invariance under refinement", [refinement] * (count // 10))

    def triple_difference():
        f, g, h = _random_lagrangian_paths(rng, 3)
        mas = lambda a, b: maslov(LagrangianPairPath.from_generator(
            lambda t: (a(t), b(t)), initial_samples=17)).value
        lhs = mas(f, g) + mas(g, h) - mas(f, h)
        return lhs == tau_mu(f(1.0), g(1.0), h(1.0)) - tau_mu(f(0.0), g(0.0), h(0.0))
    rep.run("Mas(f,g) + Mas(g,h) - Mas(f,h) = triple-index difference of endpoints",
            [triple_difference] * (count // 10))


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


def suite_triple(rep: SuiteReport, rng, count: int = 500) -> None:
    def relations():
        n = int(rng.integers(1, 6))
        space = standard_space(n)
        p, q, r = [_planted_lagrangian(space, rng) for _ in range(3)]
        degenerate = (tau_mu(p, p, q) == 0 and tau_mu(q, p, p) == 0
                      and tau_mu(p, q, p) == _ker_cap_im(p, q))
        t0 = tau_mu(p, q, r)
        permuted = (
            tau_mu(p, r, q) == -t0 + _ker_cap_im(q, r)
            and tau_mu(q, p, r) == -t0 + _ker_cap_im(p, q)
            and tau_mu(r, q, p) == -t0 + _ker_cap_im(p, q) + _ker_cap_im(q, r)
            - _ker_cap_im(p, r)
        )
        return degenerate, permuted, True
    rep.run(("tau_mu(P,P,Q) = tau_mu(Q,P,P) = 0 and tau_mu(P,Q,P) = overlap",
             "all three permutation relations",
             "no tolerance ambiguities on planted triples"), [relations] * count)


def suite_mtsig(rep: SuiteReport, rng, count: int = 200) -> None:
    sp2 = standard_space(1)
    v2 = lagrangian_from_frame(sp2, np.array([[1], [0]], dtype=complex))
    w2 = lagrangian_from_frame(sp2, np.array([[1], [1]], dtype=complex))
    u2 = lagrangian_from_frame(sp2, np.array([[0], [1]], dtype=complex))
    rep.run("standard C^2 triple has correction 1", [lambda: tsig(v2, w2, u2) == 1])
    rep.run("graph maps of the three standard lines are (1, -i, -1)", [
        lambda: (abs(v2.phi[0, 0] - 1) < 1e-12 and abs(w2.phi[0, 0] + 1j) < 1e-12
                 and abs(u2.phi[0, 0] + 1) < 1e-12)])

    def pairing():
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 4))
        s1, s2 = standard_space(n1), standard_space(n2)
        a1, b1 = _planted_lagrangian(s1, rng), _planted_lagrangian(s1, rng)
        a2, b2 = _planted_lagrangian(s2, rng), _planted_lagrangian(s2, rng)
        antisymmetric = abs(m_pairing(a1, b1) + m_pairing(b1, a1)) < 1e-9
        s12 = standard_space(n1 + n2)
        asum = _direct_sum_on_standard(s1, s2, s12, a1, a2)
        bsum = _direct_sum_on_standard(s1, s2, s12, b1, b2)
        return antisymmetric, abs(m_pairing(asum, bsum)
                                  - m_pairing(a1, b1) - m_pairing(a2, b2)) < 1e-9
    rep.run(("antisymmetry m(W,V) = -m(V,W)", "additivity under direct sums"),
            [pairing] * count)

    def wall_correction():
        n = int(rng.integers(1, 4))
        space = standard_space(n)
        v, w, u = [_planted_lagrangian(space, rng) for _ in range(3)]
        s0 = tsig(v, w, u)
        permuted = (tsig(w, v, u) == -s0 and tsig(v, u, w) == -s0
                    and tsig(w, u, v) == s0 and tsig(u, v, w) == s0)
        h = random_symplectic(space, rng)
        return permuted, tsig(transport_lagrangian(space, h, v),
                              transport_lagrangian(space, h, w),
                              transport_lagrangian(space, h, u)) == s0
    rep.run(("sign character under permutations",
             "invariance under symplectic automorphisms"), [wall_correction] * (count // 2))

    def conversion():
        n = int(rng.integers(1, 5))
        space = standard_space(n)
        tsig_tau_mu_conversion(*[_planted_lagrangian(space, rng) for _ in range(3)])
        return True
    rep.run("both conversion formulas between the two indices", [conversion] * (count // 2))

    def continuity():
        n = int(rng.integers(1, 3))
        space = standard_space(n)
        v = random_lagrangian(space, rng)
        w = random_lagrangian(space, rng)
        s = _herm(rng, space.dim, scale=0.5)
        dim0 = intersection_dim(v, w)
        flow = _exp_flow(space.gamma @ s)
        vals = []
        for t in np.linspace(0.0, 1.0, 1001):
            h = flow(float(t))
            vt = transport_lagrangian(space, h, v)
            wt = transport_lagrangian(space, h, w)
            if intersection_dim(vt, wt) != dim0:
                return None  # the overlap jumped: the orbit is not constant-overlap
            vals.append(m_pairing(vt, wt))
        return np.max(np.abs(np.diff(vals))) < 0.05
    rep.run("continuity along constant-overlap automorphism orbits", [continuity] * 10)


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


def suite_sf(rep: SuiteReport, rng, count: int = 100) -> None:
    def eta_and_oracle():
        k = int(rng.integers(2, 9))
        a, b = _herm(rng, k), _herm(rng, k)
        gen = lambda t: (1 - t) * a + t * b
        r = sf_eta_consistency(HermitianPath.from_generator(gen, initial_samples=33))
        return True, r["sf"] == _sf_tracking_oracle(gen)
    rep.run(("eta~(1) - eta~(0) = SF on seeded Hermitian paths",
             "counting rule equals the tracking oracle"), [eta_and_oracle] * count)

    def reversal():
        k = int(rng.integers(2, 6))
        a, b = _herm(rng, k), _herm(rng, k)
        if eta_finite(a)[1] or eta_finite(b)[1]:
            return None  # the identity is claimed for invertible endpoints only
        fwd = HermitianPath.from_generator(lambda t: (1 - t) * a + t * b, initial_samples=33)
        return spectral_flow(fwd).value + spectral_flow(fwd.reversed()).value == 0
    rep.run("flow of a path and its reverse cancels (invertible endpoints)",
            [reversal] * (count // 5))

    def planted():
        k = int(rng.integers(2, 5))
        v = random_unitary(rng, k)
        a0 = rng.uniform(-1.0, 1.0, size=k)
        slope = rng.uniform(-2.0, 2.0, size=k)
        expected = 0
        for a0j, sj in zip(a0, slope):
            end = a0j + sj
            expected += int(a0j < 0 <= end) - int(end < 0 <= a0j)
        path = HermitianPath.from_generator(
            lambda t: v @ np.diag(a0 + slope * float(t)) @ v.conj().T, initial_samples=41)
        return spectral_flow(path).value == expected
    rep.run("planted eigenvalue curves with known crossing counts", [planted] * 20)


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


def _same_roots(a: np.ndarray, b: np.ndarray) -> bool:
    return a.size == b.size and (a.size == 0 or float(np.max(np.abs(a - b))) < 1e-7)


def suite_model_symmetry(rep: SuiteReport, rng, count: int = 50) -> None:
    def spectra():
        op, _ = random_model(rng)
        p = random_boundary_on_h(op, rng)
        q = random_boundary_on_h(op, rng)
        # the symmetry check raises on a violation; that fails its check only
        try:
            md.model_symmetry_check(op, p, q, window=20.0)
            symmetric = True
        except SymflowError:
            symmetric = False
        dbs = md.double_boundary(op)
        constraint = md.direct_sum_lagrangian(dbs, gamma_conjugate(p), q)
        near_zero = int(np.sum(np.abs(md.interval_spectrum(op, p, q, 20.0)) <= 1e-7))
        # a direct-sum constraint is counted by the Sturm count; the coupled
        # branch on each mode block (G from M1 and M2, counted by the triple
        # index) is the second route
        agree = True
        for block in dbs.blocks:
            if not block.is_kernel:
                bc = md._block_constraint(block, constraint, DEFAULT_TOL)
                split_block, coupled = (
                    md._block_roots(block, bc.phi[None], op.geometry.length, 8.0, 1e-10,
                                    coupled=forced)[0] for forced in (False, True))
                agree = agree and _same_roots(coupled, split_block)
        return symmetric, near_zero == md.interval_kernel_dim(op, constraint), agree
    rep.run(("spec D_{P,Q} = -spec D_{Q,P} elementwise",
             "root count at zero equals Cauchy-data intersection",
             "split and coupled engines agree"), [spectra] * count)


def suite_nicolaescu(rep: SuiteReport, rng, count: int = 30) -> None:
    flows = []

    def boundary_path():
        op, _ = random_model(rng, n_half_max=2)
        dbs = md.double_boundary(op)
        turns = float(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
        q_side = random_boundary_on_h(op, rng)
        base = random_boundary_on_h(op, rng)
        fam = []
        for t in np.linspace(0, 1, 33 + 16 * int(abs(turns))):
            moved = gamma_rotate(base, float(t) * turns * np.pi)
            fam.append((float(t), md.direct_sum_lagrangian(dbs, moved, q_side)))
        flows.append(md.nicolaescu_verify(op, fam, window=14.0)["sf"])
        return True
    rep.run("SF = Mas on seeded boundary-condition paths", [boundary_path] * count)
    rep.checks[-1].detail = f"flows seen: {sorted(set(flows))}"


def _glue_pair(rng):
    """A seeded interval model and the same operator at another length."""
    op_p, _ = random_model(rng, n_half_max=2)
    return op_p, replace(op_p, geometry=md.Interval(float(rng.uniform(0.5, 1.5))))


def suite_gluing(rep: SuiteReport, rng, count: int = 20) -> None:
    def zero_mode():
        n = int(rng.integers(1, 3))
        space = standard_space(n)
        a = np.zeros((space.dim, space.dim))
        op_p = md.build_model(space, a, md.Interval(float(rng.uniform(0.5, 2.0))))
        op_m = replace(op_p, geometry=md.Interval(float(rng.uniform(0.5, 2.0))))
        dbs = md.double_boundary(op_p)
        choice = rng.random()
        if choice < 0.3:
            p = md.cauchy_data(op_p)
        elif choice < 0.5:
            p = gamma_conjugate(md.transmission_lagrangian(dbs))
        else:
            p = random_split_boundary(op_p, rng)
        return md.glue_verify(op_p, op_m, p, eta_tol=1e-9)["defect"] <= 1e-9
    rep.run("zero-mode models close to 1e-9", [zero_mode] * count)
    bounds = []

    def mixed():
        op_p, op_m = _glue_pair(rng)
        p = random_split_boundary(op_p, rng)
        r = md.glue_verify(op_p, op_m, p)
        bounds.append(r["bound"])
        return r["defect"] <= r["bound"] + 1e-9 and r["bound"] <= 5e-3
    rep.run("mixed models close within the reported bound (and bound <= 5e-3)",
            [mixed] * (count // 2))
    if bounds:
        rep.checks[-1].detail = f"max bound {max(bounds):.2e}"

    def calderon():
        md.caldconst_check(*_glue_pair(rng))
        return True
    rep.run("glued-kernel dimension constant along the transmission family",
            [calderon] * max(4, count // 4))
    coupled_bounds = []

    def coupled():
        # drawn after the cases above, so their draws stay as they were
        op_p, op_m = _glue_pair(rng)
        dbs = md.double_boundary(op_p)
        kind = rng.random()
        if kind < 0.25:
            p = md.transmission_lagrangian(dbs)
        elif kind < 0.5:
            p = md.cauchy_data(op_p, length=float(rng.uniform(0.3, 3.0)))
        else:
            p = random_coupled_boundary(dbs, rng)
        r = md.glue_verify(op_p, op_m, p)
        coupled_bounds.append(r["bound"])
        return r["defect"] <= r["bound"] + 1e-9 and r["bound"] <= 5e-3
    rep.run("coupled boundary conditions close within the reported bound (and bound <= 5e-3)",
            [coupled] * (count // 2))
    if coupled_bounds:
        rep.checks[-1].detail = f"max bound {max(coupled_bounds):.2e}"

    def scott_wojciechowski(coupled_p: bool, explicit_q: bool):
        # drawn after every case above; Q, when drawn, is of P's kind
        op, _ = random_model(rng, n_half_max=2)
        dbs = md.double_boundary(op)
        draw = ((lambda: random_coupled_boundary(dbs, rng)) if coupled_p
                else (lambda: random_split_boundary(op, rng)))
        p = draw()
        md.sw_modz_check(op, p, draw() if explicit_q else None)
        return True
    kinds = (False, True) * max(1, count // 4)  # split and coupled P in turn
    for explicit_q, label in (
            (False, "Scott-Wojciechowski: eta~_P - eta~_X = tr log(phi(P) phi(X)*)/2 pi i "
                    "against the Calderon projector, split and coupled P"),
            (True, "Scott-Wojciechowski mod Z: exp(2 pi i (eta~_P - eta~_Q)) = "
                   "det(phi(P) phi(Q)*), split and coupled P")):
        rep.run(label, [lambda c=c, q=explicit_q: scott_wojciechowski(c, q) for c in kinds])


def suite_adiabatic(rep: SuiteReport, rng, count: int = 20) -> None:
    def stretches():
        op, mus = random_model(rng, n_half_max=2)
        if not mus:
            op, mus = random_model(rng, n_half_max=2, allow_kernel=False)
        lim = md.adiabatic_limit(op, nu=0.0)
        mu_min = min(mus)
        rs = np.linspace(2.0 / mu_min, 50.0 / mu_min, 7)
        dists = md.stretch_distances(op, rs, lim)
        return all(b <= a + 1e-12 for a, b in zip(dists, dists[1:])) and dists[-1] < 1e-8
    rep.run("distance decreasing over sampled stretches and < 1e-8 at 50/mu_min",
            [stretches] * count)


def suite_core(rep: SuiteReport, rng, count: int = 500) -> None:
    def graph_map():
        n = int(rng.integers(1, 7))
        space = standard_space(n)
        lag = random_lagrangian(space, rng)
        round_trip = subspace_distance(lag, lagrangian_from_phi(space, lag.phi)) < 1e-10
        pmat = projection_of(lag).matrix
        g = space.gamma
        return round_trip, (np.linalg.norm(g @ pmat @ g.conj().T + pmat - np.eye(2 * n), 2)
                            < 1e-12 * 10 * n)
    rep.run(("phi round trip spans the same subspace",
             "gamma P gamma* = I - P for every projection"), [graph_map] * count)

    def intersections():
        n = int(rng.integers(2, 6))
        space = standard_space(n)
        k = int(rng.integers(0, n + 1))
        l1 = random_lagrangian(space, rng)
        # plant a k-dimensional overlap by reusing k graph directions
        v = random_unitary(rng, n)
        d = np.exp(1j * np.concatenate([np.zeros(k), rng.uniform(0.3, 2.8, n - k)]))
        l2 = lagrangian_from_phi(space, l1.phi @ v @ np.diag(d) @ v.conj().T)
        return intersection_dim(l1, l2) == k and intersection_dim(l2, l1) == k
    rep.run("planted intersection dimensions recovered symmetrically",
            [intersections] * (count // 5))

    def reduction():
        n = int(rng.integers(2, 5))
        space = standard_space(n)
        lag = random_lagrangian(space, rng)
        iso = random_lagrangian(space, rng).frame[:, : int(rng.integers(1, n))]
        rest = orthonormal_columns(np.hstack([iso, space.gamma @ iso]))
        u_frame = np.hstack([iso, np.eye(2 * n) - rest @ rest.conj().T])
        red = symplectic_reduce(lag, u_frame)
        return red.lagrangian.frame.shape[1] == red.space.dim_half
    rep.run("reduction by coisotropic subspaces yields reduced Lagrangians",
            [reduction] * (count // 10))


def suite_rebase(rep: SuiteReport, rng, count: int = 50) -> None:
    def rebased():
        n = int(rng.integers(1, 4))
        space = standard_space(n)
        other = rebased_space(space, rng)
        frames = [_planted_lagrangian(space, rng).frame for _ in range(3)]
        l_a = [lagrangian_from_frame(space, f) for f in frames]
        l_b = [lagrangian_from_frame(other, f) for f in frames]
        return (intersection_dim(l_a[0], l_a[1]) == intersection_dim(l_b[0], l_b[1])
                and tau_mu(*l_a) == tau_mu(*l_b)
                and tsig(*l_a) == tsig(*l_b)
                and abs(m_pairing(l_a[0], l_a[1]) - m_pairing(l_b[0], l_b[1])) < 1e-9)
    rep.run("invariants agree across re-based eigenbases", [rebased] * count)


# name -> (stream number of rng_for, header naming the identities, suite body)
SUITES: dict[str, tuple[int, str, Callable[..., None]]] = {
    "core": (11, "symplectic-space plumbing: graph-map round trip, projection identity, "
                 "reduction, intersections", suite_core),
    "winding": (1, "winding-number conventions: endpoint rule, path additivity, "
                   "inverse identity", suite_winding),
    "tauw": (2, "double-index identities: tau_w(I,U) = tau_w(U,I) = 0, "
                "tau_w(U, U^-1) = -dim ker(U+I)", suite_tauw),
    "maslov": (3, "Maslov index: rotation normalization, orientation and "
                  "opposite-structure identities", suite_maslov),
    "triple": (4, "triple-index permutation and degeneracy relations", suite_triple),
    "mtsig": (5, "pairing antisymmetry/additivity, Wall-correction symmetry and "
                 "invariance, index conversions", suite_mtsig),
    "sf": (6, "spectral flow: eta~ difference identity, counting rule against "
              "eigenvalue-tracking oracle", suite_sf),
    "model-symmetry": (7, "interval spectra: swap antisymmetry, kernel counting, "
                          "split-vs-coupled engines", suite_model_symmetry),
    "nicolaescu": (8, "spectral flow equals the Maslov index against the Cauchy "
                      "data space", suite_nicolaescu),
    "gluing": (9, "eta gluing across a circle: exact zero-mode closure, "
                  "rounding-bounded mixed closure, integer triple-index part",
               suite_gluing),
    "adiabatic": (10, "stretched Cauchy data converges monotonically to the "
                      "filtered-projection limit", suite_adiabatic),
    "rebase": (12, "basis independence: integer invariants exact, pairing within 1e-9, "
                   "under eigenbasis re-phasing", suite_rebase),
}


def run_suite(name: str, seed: int = 0, count: Optional[int] = None) -> list[SuiteReport]:
    """Run one suite (or 'all'); returns the reports in registry order.
    ``seed`` keys the Philox streams, so it lies in [0, 2^128); ``count``
    (at least 1) replaces each suite's default case count."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise SchemaError(f"unknown suite {name!r}; choose from {list(SUITES)} or 'all'")
    if not 0 <= seed < 2**128:
        raise SchemaError(f"seed must lie in [0, 2^128), got {seed}")
    if count is not None and count < 1:
        raise SchemaError(f"count must be at least 1, got {count}")
    out = []
    for nm in names:
        stream, header, body = SUITES[nm]
        rep = SuiteReport(nm, header)
        rng = rng_for(seed, stream)
        body(rep, rng) if count is None else body(rep, rng, count)
        out.append(rep)
    return out
