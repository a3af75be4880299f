"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
pass lines; any assertion failure marks the criterion red.
"""

import time

import numpy as np
from scipy.linalg import expm

import symflow as sf
from symflow import model_dirac as md
from symflow.verification import (
    _planted_lagrangian,
    planted_anticommuting,
    random_boundary_on_h,
    random_lagrangian,
    random_model,
    random_split_boundary,
    random_symplectic,
    random_unitary,
    rng_for,
    transport_lagrangian,
    unitary_with_minus_ones,
)

SEED = 20260809


def report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def col(*entries):
    return np.array(entries, dtype=complex).reshape(-1, 1)


def c2_lines():
    sp = sf.standard_space(1)
    return (sp, sf.lagrangian_from_frame(sp, col(1, 0)),
            sf.lagrangian_from_frame(sp, col(1, 1)),
            sf.lagrangian_from_frame(sp, col(0, 1)))


def test_criterion_01_wall_correction_of_standard_triple():
    sp, v, w, u = c2_lines()
    sf.tsig(v, w, u)  # warm
    best = min(_timed(lambda: sf.tsig(v, w, u)) for _ in range(5))
    value = sf.tsig(v, w, u)
    assert value == 1
    assert best < 1e-3, f"tsig evaluation took {best * 1e3:.3f} ms"
    report(1, f"tsig(C(1,0), C(1,1), C(0,1)) = 1 exactly in {best * 1e6:.0f} us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_graph_map_values():
    sp, v, w, u = c2_lines()
    assert abs(v.phi[0, 0] - 1.0) < 1e-12
    assert abs(w.phi[0, 0] - (-1j)) < 1e-12
    assert abs(u.phi[0, 0] - (-1.0)) < 1e-12
    report(2, "graph maps of the three standard lines are (1, -i, -1) to 1e-12")


def test_criterion_03_double_index_identities():
    rng = rng_for(SEED, 3)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        mult = int(rng.integers(0, min(k, 3) + 1))
        u = unitary_with_minus_ones(rng, k, mult)
        eye = np.eye(k)
        assert sf.tau_w(eye, u) == 0
        assert sf.tau_w(u, eye) == 0
        assert sf.tau_w(u, u.conj().T) == -mult
    report(3, "tau_w(I,U) = tau_w(U,I) = 0 and tau_w(U,U^-1) = -dim ker(U+I) "
              "on 200 seeded unitaries, sizes 1..8, planted multiplicities 0..3")


def test_criterion_04_winding_endpoint_convention():
    eps = 0.37
    into = sf.UnitaryPath.from_generator(
        lambda s: np.array([[-np.exp(-2j * (s * eps - eps))]]))
    away = sf.UnitaryPath.from_generator(
        lambda s: np.array([[-np.exp(-2j * s * eps)]]))
    assert sf.wind(into).value == -1
    assert sf.wind(away).value == 0
    report(4, "wind(-e^{-2is}) = -1 arriving at -1 and 0 departing from it")


def test_criterion_05_triple_index_relations():
    t0 = time.perf_counter()
    rng = rng_for(SEED, 5)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        sp = sf.standard_space(n)
        p, q, r = (_planted_lagrangian(sp, rng) for _ in range(3))
        gp = sf.gamma_conjugate(p)
        gq = sf.gamma_conjugate(q)
        d_pq = sf.intersection_dim(gp, q)
        d_qr = sf.intersection_dim(gq, r)
        d_pr = sf.intersection_dim(gp, r)
        t = sf.tau_mu(p, q, r)
        assert sf.tau_mu(p, r, q) == -t + d_qr
        assert sf.tau_mu(q, p, r) == -t + d_pq
        assert sf.tau_mu(r, q, p) == -t + d_pq + d_qr - d_pr
        assert sf.tau_mu(p, p, q) == 0 and sf.tau_mu(q, p, p) == 0
        assert sf.tau_mu(p, q, p) == d_pq
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    report(5, f"all five triple-index relations exact on 500 seeded triples "
              f"(n <= 5) in {elapsed:.1f} s")


def test_criterion_06_orientation_and_inverse_identities():
    rng = rng_for(SEED, 6)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        sp = sf.standard_space(n)
        h1 = _herm(rng, n)
        h2 = _herm(rng, n)
        u1, u2 = random_unitary(rng, n), random_unitary(rng, n)
        pp = sf.LagrangianPairPath.from_generator(
            lambda t: (sf.lagrangian_from_phi(sp, expm(1j * t * h1) @ u1),
                       sf.lagrangian_from_phi(sp, expm(1j * t * h2) @ u2)),
            initial_samples=17)
        sf.maslov_orientation_check(pp)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        h = _herm(rng, k, 1.4)
        u_end = unitary_with_minus_ones(rng, k, int(rng.integers(0, k + 1)))
        path = sf.UnitaryPath.from_generator(
            lambda t: expm(1j * (1 - t) * h) @ u_end, initial_samples=17)
        sf.wind_plus_inverse_check(path)
    report(6, "orientation identities and wind(f) + wind(f^-1) bookkeeping "
              "exact on 200 seeded paths")


def _herm(rng, k, scale=1.0):
    h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return 0.5 * (h + h.conj().T) * scale


def test_criterion_07_index_conversion_formulas():
    rng = rng_for(SEED, 7)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        sp = sf.standard_space(n)
        sf.tsig_tau_mu_conversion(*(_planted_lagrangian(sp, rng) for _ in range(3)))
    report(7, "both conversion formulas between the correction and the triple "
              "index exact on 100 seeded triples (n <= 4)")


def test_criterion_08_pairing_properties_and_invariance():
    rng = rng_for(SEED, 8)
    for _ in range(200):
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 4))
        s1, s2 = sf.standard_space(n1), sf.standard_space(n2)
        a1, b1 = _planted_lagrangian(s1, rng), _planted_lagrangian(s1, rng)
        a2, b2 = _planted_lagrangian(s2, rng), _planted_lagrangian(s2, rng)
        assert abs(sf.m_pairing(a1, b1) + sf.m_pairing(b1, a1)) < 1e-9
        from symflow.verification import _direct_sum_on_standard

        s12 = sf.standard_space(n1 + n2)
        asum = _direct_sum_on_standard(s1, s2, s12, a1, a2)
        bsum = _direct_sum_on_standard(s1, s2, s12, b1, b2)
        assert abs(sf.m_pairing(asum, bsum)
                   - sf.m_pairing(a1, b1) - sf.m_pairing(a2, b2)) < 1e-9
    for _ in range(100):
        n = int(rng.integers(1, 4))
        sp = sf.standard_space(n)
        v, w, u = (_planted_lagrangian(sp, rng) for _ in range(3))
        h = random_symplectic(sp, rng)
        assert sf.tsig(transport_lagrangian(sp, h, v),
                       transport_lagrangian(sp, h, w),
                       transport_lagrangian(sp, h, u)) == sf.tsig(v, w, u)
    report(8, "pairing antisymmetry and direct-sum additivity within 1e-9 on "
              "200 pairs; correction invariant under 100 automorphisms")


def test_criterion_09_flow_eta_identity_and_oracle():
    from symflow.verification import _sf_tracking_oracle

    rng = rng_for(SEED, 9)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        a, b = _herm(rng, k), _herm(rng, k)
        gen = lambda t, a=a, b=b: (1 - t) * a + t * b
        path = sf.HermitianPath.from_generator(gen, initial_samples=33)
        rec = sf.sf_eta_consistency(path)
        assert rec["sf"] == _sf_tracking_oracle(gen)
    report(9, "reduced-eta difference equals the flow and matches the "
              "tracking oracle on 100 seeded Hermitian paths (k <= 8)")


def test_criterion_10_interval_spectral_symmetry():
    t0 = time.perf_counter()
    rng = rng_for(SEED, 10)
    for _ in range(50):
        op, _ = random_model(rng)
        p = random_boundary_on_h(op, rng)
        q = random_boundary_on_h(op, rng)
        md.model_symmetry_check(op, p, q, window=20.0, tol=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    report(10, f"swap antisymmetry of interval spectra within 1e-8 over "
               f"window 20 on 50 seeded models in {elapsed:.1f} s")


def test_criterion_11_flow_equals_maslov():
    rng = rng_for(SEED, 11)
    flows = set()
    count = 0
    while count < 30:
        op, _ = random_model(rng, n_half_max=2)
        dbs = md.double_boundary(op)
        turns = float(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
        q_side = random_boundary_on_h(op, rng)
        base = random_boundary_on_h(op, rng)

        def bnd(t):
            rot = expm(t * turns * np.pi * np.asarray(op.space.gamma))
            moved = sf.lagrangian_from_frame(op.space, rot @ base.frame)
            return md.direct_sum_lagrangian(dbs, moved, q_side)

        fam = [(float(t), bnd(float(t)))
               for t in np.linspace(0, 1, 33 + 16 * int(abs(turns)))]
        rec = md.nicolaescu_verify(op, fam, window=14.0)
        flows.add(rec["sf"])
        count += 1
    assert {-2, -1, 0, 1, 2} <= flows or {-2, -1, 1, 2} <= flows
    report(11, f"spectral flow equals the Maslov index on 30 seeded "
               f"boundary paths; flows observed {sorted(flows)}")


def test_criterion_12_glued_kernel_constancy():
    rng = rng_for(SEED, 12)
    sp = sf.standard_space(1)
    op0 = md.build_model(sp, np.zeros((2, 2)), md.Interval(np.pi))
    rec = md.caldconst_check(op0, op0)
    assert rec["target"] == 2 and all(d == 2 for d in rec["dims"])
    for _ in range(8):
        op_p, _ = random_model(rng, n_half_max=2)
        op_m = md.build_model(op_p.space, op_p.a_matrix,
                              md.Interval(float(rng.uniform(0.5, 1.5))))
        md.caldconst_check(op_p, op_m)
    report(12, "glued kernel dimension constant in theta and equal to the "
               "Cauchy-data intersection, exactly")


def test_criterion_13_eta_gluing():
    rng = rng_for(SEED, 13)
    max_bound = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        sp = sf.standard_space(n)
        a = np.zeros((sp.dim, sp.dim))
        op_p = md.build_model(sp, a, md.Interval(float(rng.uniform(0.5, 2.0))))
        op_m = md.build_model(sp, a, md.Interval(float(rng.uniform(0.5, 2.0))))
        p = (md.cauchy_data(op_p) if rng.random() < 0.3
             else random_split_boundary(op_p, rng))
        rec = md.glue_verify(op_p, op_m, p, eta_tol=1e-9)
        assert rec["defect"] <= 1e-9
    for _ in range(10):
        op_p, _ = random_model(rng, n_half_max=2)
        op_m = md.build_model(op_p.space, op_p.a_matrix,
                              md.Interval(float(rng.uniform(0.5, 1.5))))
        p = random_split_boundary(op_p, rng)
        rec = md.glue_verify(op_p, op_m, p)
        assert rec["defect"] <= rec["bound"] + 1e-9
        assert rec["bound"] <= 5e-3
        max_bound = max(max_bound, rec["bound"])
    report(13, f"eta gluing exact on zero-mode models, within bound on mixed "
               f"models (max bound {max_bound:.2e} <= 5e-3), integer part and "
               f"mod-Z congruence exact")


def test_criterion_14_adiabatic_limit():
    rng = rng_for(SEED, 14)
    done = 0
    while done < 20:
        op, mus = random_model(rng, n_half_max=2)
        if not mus:
            continue
        lim = md.adiabatic_limit(op, nu=0.0)
        mu_min = min(mus)
        dists = [sf.subspace_distance(
            md.cauchy_data(op, length=float(r)), lim)
            for r in np.linspace(2.0 / mu_min, 50.0 / mu_min, 7)]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-8
        done += 1
    report(14, "stretched Cauchy data within 1e-8 of the filtered-projection "
               "limit at 50/mu_min, decreasing along the stretch, 20 models")


def test_criterion_15_basis_independence():
    rng = rng_for(SEED, 15)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        sp = sf.standard_space(n)
        frames = [_planted_lagrangian(sp, rng).frame for _ in range(3)]
        base = [sf.lagrangian_from_frame(sp, f) for f in frames]
        other = sf.rebased_space(sp, rng)
        moved = [sf.lagrangian_from_frame(other, f) for f in frames]
        assert sf.intersection_dim(*base[:2]) == sf.intersection_dim(*moved[:2])
        assert sf.tau_mu(*base) == sf.tau_mu(*moved)
        assert sf.tsig(*base) == sf.tsig(*moved)
        assert abs(sf.m_pairing(*base[:2]) - sf.m_pairing(*moved[:2])) < 1e-9
    report(15, "integer invariants exact and pairing within 1e-9 under 50 "
               "seeded eigenbasis re-phasings")
