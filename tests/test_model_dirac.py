import dataclasses
import json
import warnings

import numpy as np
import pytest

import symflow as sf
from symflow import model_dirac as md
from symflow import serialization as ser
from symflow.cli import main
from symflow._linalg import intersect_subspaces
from symflow.errors import (
    AnticommutationFailure,
    BracketingFailure,
    IncompatibleBoundary,
    NotLagrangian,
    ResonanceViolation,
)
from symflow.model_dirac import _real_line_rep
from symflow.verification import (
    planted_anticommuting,
    random_boundary_on_h,
    random_coupled_boundary,
    random_lagrangian,
    random_model,
    random_split_boundary,
    random_unitary,
    rng_for,
)


def trace(lag, block_frame):
    """What a boundary Lagrangian on H cuts out of one block, in block
    coordinates: a line of a mode block, a Lagrangian of the kernel block."""
    return block_frame.conj().T @ intersect_subspaces([lag.frame, block_frame], 1e-9)


def _block_root_function(mu, ell, p, q):
    """F(lambda) = <q_perp, T_L(lambda) p> of one 2-D block, scaled and
    vectorized: its roots are the block's eigenvalues."""
    coef = np.array((0.0, *md._block_coefficients(mu, p, q)))
    return lambda lam: md._root_values(np.asarray(lam, dtype=float), coef, mu, ell)


def split_lines(bc):
    """The real unit lines (p, q) of a split block constraint, p at slot 0,
    where the transfer matrix starts; None for a coupled one."""
    lines, split = md._block_lines(bc.space, bc.phi[None])
    return (lines[0, 0], lines[0, 1]) if split[0] else None


def ends_swapped(bc):
    """A block constraint with its two ends exchanged, from its frame with
    the two halves of rows swapped: a route apart from ``swap_ends``."""
    return sf.lagrangian_from_frame(bc.space, np.roll(bc.frame, 2, axis=0))


def line(sp, angle):
    return sf.lagrangian_from_frame(
        sp, np.array([[np.cos(angle)], [np.sin(angle)]], dtype=complex))


@pytest.fixture(scope="module")
def mu_one_model():
    sp = sf.standard_space(1)
    return md.build_model(sp, np.diag([1.0, -1.0]), md.Interval(1.0))


@pytest.fixture(scope="module")
def zero_mode_model():
    sp = sf.standard_space(1)
    return md.build_model(sp, np.zeros((2, 2)), md.Interval(1.0))


class TestBuildModel:
    def test_single_block(self, mu_one_model):
        op = mu_one_model
        assert [b.mu for b in op.blocks] == [1.0]
        assert op.kernel is None

    def test_zero_tangential_operator_is_all_kernel(self):
        sp = sf.standard_space(2)
        op = md.build_model(sp, np.zeros((4, 4)), md.Interval(1.0))
        assert not op.blocks
        assert op.kernel.frame.shape == (4, 4)

    def test_planted_blocks_recovered(self):
        rng = rng_for(51, 30)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            sp = sf.standard_space(n)
            k = int(rng.integers(1, n + 1))
            mus = sorted(rng.uniform(0.3, 3.0, size=k))
            a = planted_anticommuting(sp, mus, rng)
            op = md.build_model(sp, a, md.Interval(1.0))
            np.testing.assert_allclose([b.mu for b in op.blocks], mus, atol=1e-9)
            ker_dim = 2 * (n - k)
            assert (op.kernel.frame.shape[1] if op.kernel else 0) == ker_dim

    def test_commuting_a_rejected(self):
        sp = sf.standard_space(1)
        with pytest.raises(AnticommutationFailure):
            md.build_model(sp, np.eye(2), md.Interval(1.0))

    def test_in_block_relations(self, mu_one_model):
        op = mu_one_model
        b = op.blocks[0]
        a_block = b.frame.conj().T @ op.a_matrix @ b.frame
        g_block = b.frame.conj().T @ op.space.gamma @ b.frame
        np.testing.assert_allclose(a_block, np.diag([1.0, -1.0]), atol=1e-12)
        np.testing.assert_allclose(g_block, np.array([[0, -1], [1, 0]]), atol=1e-12)


def _mode_models():
    """Seeded interval models: ``random_model`` draws, kernels included, and
    planted ones whose mu repeat."""
    rng = rng_for(70, 29)
    models = [random_model(rng)[0] for _ in range(20)]
    for n, mus in ((2, [0.8, 0.8]), (3, [0.5, 1.1, 1.1]), (3, [0.7, 0.7]),
                   (4, [1.3, 1.3, 1.3, 2.0])):
        sp = sf.standard_space(n)
        models.append(md.build_model(sp, planted_anticommuting(sp, mus, rng), md.Interval(1.2)))
    return models


def _space_per_block(op, monkeypatch):
    """``op`` with the space of each doubled mode block built from its own
    F~* gamma~ F~ by ``space_from_gamma``, and ``_triple_levels`` taking its
    reference B' in that space."""
    dbs = md.double_boundary(op)
    blocks = tuple(b if b.is_kernel else dataclasses.replace(
        b, space=sf.space_from_gamma(b.frame.conj().T @ dbs.space.gamma @ b.frame))
        for b in dbs.blocks)
    levels = md._triple_levels

    def own_reference(block, phis, ell):
        monkeypatch.setattr(md, "_split_reference", lambda: sf.lagrangian_from_frame(
            block.space, np.eye(4)[:, [0, 2]]).phi)
        return levels(block, phis, ell)

    monkeypatch.setattr(md, "_triple_levels", own_reference)
    return dataclasses.replace(op, doubled=dataclasses.replace(dbs, blocks=blocks))


class TestDoubleBoundary:
    """An interval model carries its double boundary space from
    ``build_model``; no model function builds one again."""

    def test_mode_blocks_share_one_space(self):
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        want = np.block([[j, np.zeros((2, 2))], [np.zeros((2, 2)), -j]])
        np.testing.assert_array_equal(md._mode_space().gamma, want)
        seen = 0
        for op in _mode_models():
            dbs = md.double_boundary(op)
            for b in dbs.blocks:
                if b.is_kernel:
                    assert b.space is not md._mode_space()
                    continue
                seen += 1
                assert b.space is md._mode_space()
                np.testing.assert_allclose(b.frame.conj().T @ dbs.space.gamma @ b.frame, want,
                                           rtol=0, atol=1e-14)
        assert seen > 20

    def test_results_as_with_a_space_per_block(self, monkeypatch):
        rng = rng_for(71, 29)
        cases = []
        for op in _mode_models():
            p, q = random_boundary_on_h(op, rng), random_boundary_on_h(op, rng)
            coupled = random_coupled_boundary(md.double_boundary(op), rng)
            cases.append((op, p, q, coupled))

        def results(op, p, q, coupled):
            minus = dataclasses.replace(op, geometry=md.Interval(0.9))
            return (md.interval_spectrum(op, p, q, 9.0),
                    md.boundary_spectrum(op, coupled, 9.0),
                    md.interval_eta_tilde(op, coupled),
                    md.interval_eta_tilde(op, md.direct_sum_lagrangian(
                        md.double_boundary(op), sf.gamma_conjugate(p), q)),
                    md.glue_verify(op, minus, coupled))

        got = [results(*case) for case in cases]
        for (op, *rest), (split, coupled, eta_c, eta_s, glue) in zip(cases, got):
            ref_split, ref_coupled, ref_eta_c, ref_eta_s, ref_glue = results(
                _space_per_block(op, monkeypatch), *rest)
            for a, b in ((split, ref_split), (coupled, ref_coupled)):
                assert a.shape == b.shape
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            np.testing.assert_allclose(eta_c, ref_eta_c, rtol=0, atol=1e-12)
            np.testing.assert_allclose(eta_s, ref_eta_s, rtol=0, atol=1e-12)
            assert glue.keys() == ref_glue.keys() and glue["tau_mu"] == ref_glue["tau_mu"]
            for key in glue:
                assert abs(glue[key] - ref_glue[key]) <= 1e-12, key

    def test_build_model_makes_one_space_without_a_kernel(self, monkeypatch):
        sp = sf.standard_space(3)
        a = planted_anticommuting(sp, [0.6, 1.1, 1.9], rng_for(72, 29))
        md.build_model(sp, a, md.Interval(1.0))  # the first model may build the shared space
        calls = []
        build = md.space_from_gamma
        monkeypatch.setattr(md, "space_from_gamma",
                            lambda *a, **k: calls.append(1) or build(*a, **k))
        md.build_model(sp, a, md.Interval(1.0))
        assert len(calls) == 1

    def test_a_piece_of_another_length_shares_it(self, mu_one_model):
        piece = dataclasses.replace(mu_one_model, geometry=md.Interval(0.7))
        assert md.double_boundary(piece) is md.double_boundary(mu_one_model)
        assert piece.blocks is mu_one_model.blocks
        assert md.double_boundary(piece).end_swap is md.double_boundary(mu_one_model).end_swap
        rebuilt = md.build_model(piece.space, piece.a_matrix, piece.geometry)
        np.testing.assert_array_equal(md.swap_ends(piece, md.cauchy_data(piece)).frame,
                                      md.swap_ends(rebuilt, md.cauchy_data(rebuilt)).frame)

    def test_a_circle_has_none(self):
        circle = md.build_model(sf.standard_space(1), np.diag([1.0, -1.0]), md.Circle(2.0))
        assert circle.doubled is None
        for ask in (md.double_boundary, md.cauchy_data, md.adiabatic_limit):
            with pytest.raises(ValueError, match="interval model"):
                ask(circle)

    def test_nicolaescu_on_a_parsed_operator_builds_no_space(self, monkeypatch):
        doc = {"gamma": "standard:1", "A": ser.matrix_to_json(np.diag([1.0, -1.0])),
               "geometry": {"interval": 1.0}}
        op = ser.model_from_json(doc)["op"]
        dbs = md.double_boundary(op)
        fam = [(float(t), md.direct_sum_lagrangian(dbs, line(op.space, 0.15 + t * np.pi),
                                                   line(op.space, 0.0)))
               for t in np.linspace(0, 1, 33)]
        calls = []
        build = md.space_from_gamma
        monkeypatch.setattr(md, "space_from_gamma",
                            lambda *a, **k: calls.append(1) or build(*a, **k))
        rec = md.nicolaescu_verify(op, fam, window=12.0)
        assert rec["sf"] == rec["maslov"]
        assert calls == []

    def test_model_glue_builds_one_model(self, tmp_path, capsys, monkeypatch, mu_one_model):
        doc = {"gamma": "standard:1", "A": ser.matrix_to_json(np.diag([1.0, -1.0])),
               "geometry": {"interval": 1.0},
               "glue": {"length_minus": 0.7,
                        "P": {"frame": ser.matrix_to_json(md.cauchy_data(mu_one_model).frame)}}}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(doc))
        calls = []
        build = md.build_model

        def counting(*a, **k):
            calls.append(1)
            return build(*a, **k)

        monkeypatch.setattr(md, "build_model", counting)
        monkeypatch.setattr(ser, "build_model", counting)
        assert main(["model", "glue", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        assert len(calls) == 1


class TestCauchyData:
    def test_zero_tangential_gives_diagonal(self, zero_mode_model):
        dbs = md.double_boundary(zero_mode_model)
        lx = md.cauchy_data(zero_mode_model)
        assert sf.subspace_distance(lx, md.transmission_lagrangian(dbs)) < 1e-12

    def test_single_block_graph_of_matrix_exponential(self, mu_one_model):
        from scipy.linalg import expm

        lx = md.cauchy_data(mu_one_model)
        raw = np.vstack([np.eye(2), expm(-mu_one_model.a_matrix)])
        from symflow._linalg import orthonormal_columns

        assert sf.subspace_distance(lx.frame, orthonormal_columns(raw)) < 1e-12

    def test_short_interval_approaches_diagonal(self, mu_one_model):
        dbs = md.double_boundary(mu_one_model)
        delta = md.transmission_lagrangian(dbs)
        dists = [sf.subspace_distance(
            md.cauchy_data(mu_one_model, length=ell), delta)
            for ell in (0.5, 0.1, 0.01, 0.001)]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 2e-3

    def test_always_lagrangian(self):
        rng = rng_for(52, 29)
        for _ in range(10):
            op, _ = random_model(rng)
            md.cauchy_data(op)  # raises NotLagrangian on any defect


def _far_cauchy_frame(op):
    """{(e^{-LA} w, w)} from ``np.linalg.eigh(A)``: for orthonormal
    eigenvectors v the columns (e^{-L a} v, v) are orthogonal, so normalizing
    each gives an orthonormal frame."""
    a = op.a_matrix
    assert np.allclose(a, a.conj().T, rtol=0.0, atol=1e-12)
    vals, vecs = np.linalg.eigh(a)
    cols = np.vstack([vecs * np.exp(-op.length * vals), vecs])
    return cols / np.linalg.norm(cols, axis=0)


def _swap_conditions(op, rng):
    """Conditions of the double space of ``op`` that meet the far Cauchy data
    in every dimension from 0 to dim H: split, coupled, transmission, Cauchy
    data of another length, the near and far Cauchy data and gamma of them."""
    dbs = md.double_boundary(op)
    near, far = md.cauchy_data(op), sf.lagrangian_from_frame(dbs.space, _far_cauchy_frame(op))
    p = random_boundary_on_h(op, rng)
    other = dataclasses.replace(op, geometry=md.Interval(float(rng.uniform(0.3, 2.0))))
    return [random_split_boundary(op, rng), md.direct_sum_lagrangian(dbs, p, p),
            random_coupled_boundary(dbs, rng), md.transmission_lagrangian(dbs),
            md.cauchy_data(other), near, far, sf.gamma_conjugate(far)]


class TestSwapEnds:
    def test_is_an_involution(self):
        rng = rng_for(52, 31)
        for _ in range(12):
            op, _ = random_model(rng)
            for c in _swap_conditions(op, rng):
                twice = md.swap_ends(op, md.swap_ends(op, c))
                assert twice.space is c.space
                assert np.max(np.abs(twice.phi - c.phi)) <= 1e-15

    def test_far_cauchy_data_from_eigh(self, mu_one_model, zero_mode_model):
        rng = rng_for(52, 32)
        ops = [mu_one_model, zero_mode_model] + [random_model(rng)[0] for _ in range(12)]
        for op in ops:
            far = md.swap_ends(op, md.cauchy_data(op))
            assert sf.subspace_distance(far.frame, _far_cauchy_frame(op)) <= 1e-12

    def test_kernel_dim_of_the_far_piece(self):
        # the far piece's kernel under C is the far Cauchy data meet C,
        # intersected here from the eigh frame; models with a kernel block
        rng = rng_for(52, 33)
        dims, checked = set(), 0
        while checked < 10:
            op, _ = random_model(rng)
            if op.kernel is None:
                continue
            checked += 1
            far = _far_cauchy_frame(op)
            for c in _swap_conditions(op, rng):
                want = intersect_subspaces([far, c.frame], md.DEFAULT_TOL).shape[1]
                assert md.interval_kernel_dim(op, md.swap_ends(op, c)) == want
                dims.add(want)
        assert len(dims) >= 3 and 0 in dims

    def test_rejects_a_foreign_lagrangian(self, mu_one_model):
        with pytest.raises(sf.errors.DimensionMismatch):
            md.swap_ends(mu_one_model, random_lagrangian(sf.standard_space(2),
                                                         rng_for(52, 34)))


class TestIntervalSpectrum:
    def test_aligned_kernel_block_is_pi_lattice(self, zero_mode_model):
        sp = zero_mode_model.space
        p = line(sp, 0.0)
        q = sf.gamma_conjugate(p)  # im Q = gamma p = ker P: theta = 0
        lams = md.interval_spectrum(zero_mode_model, p, q, 7.0)
        expected = np.array([-2, -1, 0, 1, 2]) * np.pi
        np.testing.assert_allclose(lams, expected, atol=1e-10)

    def test_rotated_kernel_block_offset(self, zero_mode_model):
        sp = zero_mode_model.space
        p = line(sp, 0.0)
        q = line(sp, 0.3)  # ker P at pi/2, im Q at 0.3: theta = pi/2 - 0.3
        lams = md.interval_spectrum(zero_mode_model, p, q, 7.0)
        theta = (np.pi / 2 - 0.3) % np.pi
        ms = np.arange(-3, 3)
        expected = np.sort([theta + m * np.pi for m in ms
                            if abs(theta + m * np.pi) <= 7.0])
        np.testing.assert_allclose(lams, expected, atol=1e-10)

    def test_dense_grid_scan_oracle(self, mu_one_model):
        op = mu_one_model
        rng = rng_for(53, 28)
        for _ in range(5):
            p = random_boundary_on_h(op, rng)
            q = random_boundary_on_h(op, rng)
            lams = md.interval_spectrum(op, p, q, 12.0)
            frame = op.blocks[0].frame
            f = _block_root_function(
                1.0, 1.0, _real_line_rep(trace(sf.gamma_conjugate(p), frame).ravel()),
                _real_line_rep(trace(q, frame).ravel()))
            grid = np.arange(-12.0, 12.0, 1e-4)
            vals = f(grid)
            brute = grid[:-1][np.sign(vals[:-1]) * np.sign(vals[1:]) < 0] + 5e-5
            assert lams.size == brute.size
            assert np.max(np.abs(lams - brute)) < 1e-4

    @pytest.mark.parametrize("n, mus", [(2, [0.8]), (3, [0.6, 1.7]), (2, [])],
                             ids=["kernel2", "kernel2-two-blocks", "kernel4"])
    def test_single_space_reference(self, n, mus):
        # the spectrum on H ⊕ H against the route on H alone: per block the
        # traces of gamma P and Q; a mode block's roots are the sign changes
        # of its transfer function, and the kernel block's eigenvalues are
        # (-beta_j/2 + pi k)/L with e^{i beta_j} the spectrum of
        # phi(gamma P_ker) phi(Q_ker)* in the kernel-block space
        rng = rng_for(57, 24 + n + len(mus))
        sp = sf.standard_space(n)
        op = md.build_model(sp, planted_anticommuting(sp, mus, rng), md.Interval(1.3))
        assert op.kernel.frame.shape[1] == 2 * n - 2 * len(mus)
        window = 9.0
        for _ in range(4):
            p = random_boundary_on_h(op, rng)
            q = random_boundary_on_h(op, rng)
            gp = sf.gamma_conjugate(p)
            expected = []
            for b in op.blocks:
                lp, lq = (_real_line_rep(trace(lag, b.frame).ravel()) for lag in (gp, q))
                block, bc, _, _ = _line_block(b.mu, 1.3, np.arctan2(lp[1], lp[0]),
                                              np.arctan2(lq[1], lq[0]))
                expected.append(md._block_roots(block, bc.phi[None], 1.3, window, 1e-10)[0])
            ksp = op.kernel.block_space
            lp = sf.lagrangian_from_frame(ksp, trace(gp, op.kernel.frame))
            lq = sf.lagrangian_from_frame(ksp, trace(q, op.kernel.frame))
            betas = np.angle(np.linalg.eigvals(lp.phi @ lq.phi.conj().T))
            ks = np.arange(-10, 11)
            lattice = ((-betas[:, None] / 2.0 + np.pi * ks) / 1.3).ravel()
            expected.append(lattice[np.abs(lattice) <= window])
            np.testing.assert_allclose(md.interval_spectrum(op, p, q, window),
                                       np.sort(np.concatenate(expected)), atol=1e-9)

    def test_spectral_symmetry_seeded(self):
        rng = rng_for(54, 27)
        for _ in range(10):
            op, _ = random_model(rng)
            p = random_boundary_on_h(op, rng)
            q = random_boundary_on_h(op, rng)
            md.model_symmetry_check(op, p, q, window=15.0, tol=1e-8)

    def test_incompatible_boundary_rejected(self):
        rng = rng_for(55, 26)
        sp = sf.standard_space(2)
        a = planted_anticommuting(sp, [0.7, 1.4], rng)
        op = md.build_model(sp, a, md.Interval(1.0))
        # generic Lagrangian mixes the blocks
        bad = random_lagrangian(sp, rng)
        good = random_boundary_on_h(op, rng)
        with pytest.raises(IncompatibleBoundary):
            md.interval_spectrum(op, bad, good, 5.0)

    def test_kernel_dim_matches_root_count(self):
        rng = rng_for(56, 25)
        for _ in range(10):
            op, _ = random_model(rng)
            dbs = md.double_boundary(op)
            p = random_boundary_on_h(op, rng)
            q = random_boundary_on_h(op, rng)
            spec = md.interval_spectrum(op, p, q, 10.0)
            constraint = md.direct_sum_lagrangian(dbs, sf.gamma_conjugate(p), q)
            assert (int(np.sum(np.abs(spec) < 1e-7))
                    == md.interval_kernel_dim(op, constraint))


class TestCircleSpectrum:
    def test_kernel_block_fourier_lattice(self):
        sp = sf.standard_space(1)
        op = md.build_model(sp, np.zeros((2, 2)), md.Circle(2 * np.pi))
        lams = md.circle_spectrum(op, 3.5)
        expected = np.sort(np.repeat(np.arange(-3, 4), 2)).astype(float)
        np.testing.assert_allclose(lams, expected, atol=1e-12)

    def test_gapped_block_minimum(self):
        sp = sf.standard_space(1)
        op = md.build_model(sp, np.diag([1.0, -1.0]), md.Circle(2.0))
        lams = md.circle_spectrum(op, 10.0)
        assert np.min(np.abs(lams)) == 1.0
        assert np.all(lams != 0)

    def test_symmetric_so_eta_vanishes(self):
        sp = sf.standard_space(1)
        op = md.build_model(sp, np.diag([1.5, -1.5]), md.Circle(1.7))
        lams = md.circle_spectrum(op, 25.0)
        np.testing.assert_allclose(lams, -lams[::-1], atol=1e-12)

    def test_transmission_condition_reproduces_circle(self):
        rng = rng_for(57, 24)
        for _ in range(5):
            n = int(rng.integers(1, 3))
            sp = sf.standard_space(n)
            k = int(rng.integers(0, n + 1))
            mus = sorted(rng.uniform(0.4, 2.0, size=k))
            a = planted_anticommuting(sp, mus, rng)
            c = float(rng.uniform(1.0, 2.5))
            circle = md.build_model(sp, a, md.Circle(c))
            interval = md.build_model(sp, a, md.Interval(c))
            dbs = md.double_boundary(interval)
            got = md.boundary_spectrum(interval, md.transmission_lagrangian(dbs), 9.0)
            want = md.circle_spectrum(circle, 9.0)
            assert got.size == want.size
            np.testing.assert_allclose(got, want, atol=1e-8)


class TestEtaTruncated:
    def test_lattice_closed_form_against_hurwitz_zeta(self):
        # eta of {(a + k) d} must match the analytic continuation
        # zeta(s, a) - zeta(s, 1-a) at s = 0
        mp = pytest.importorskip("mpmath")
        for a in (0.1, 0.25, 0.5, 0.8):
            eta, ker = md.eta_lattice(a)
            analytic = float(mp.zeta(0, a) - mp.zeta(0, 1 - a))
            assert abs(eta - analytic) < 1e-12
            assert ker == 0
        assert md.eta_lattice(0.0) == (0.0, 1)

    def test_symmetric_sum_estimator_on_lattices(self):
        for a in (0.1, 0.25, 0.4, 0.8):
            lams = (a + np.arange(-100_000, 100_000)) * 0.37
            est = md.eta_truncated(lams, n_max=100_000)
            assert abs(est.eta - (1 - 2 * a)) < 1e-3
            assert abs(est.eta - (1 - 2 * a)) <= est.bound

    def test_quarter_offset_matches_closed_form(self):
        lams = (0.25 + np.arange(-100_000, 100_000)) * np.pi
        est = md.eta_truncated(lams, n_max=100_000)
        eta_closed, _ = md.eta_lattice(0.25)
        assert abs(est.eta - eta_closed) < 1e-3

    def test_symmetric_spectrum_is_exact_zero(self):
        lams = np.concatenate([np.arange(1, 2000), -np.arange(1, 2000)]) * 0.618
        est = md.eta_truncated(lams)
        assert est.eta == 0.0

    def test_lattice_offsets_cancel_in_closed_form(self):
        # offsets a and 1 - a are mirror lattices: their etas cancel exactly
        assert md.eta_lattice(0.25)[0] + md.eta_lattice(0.75)[0] == 0.0
        assert md.eta_lattice(0.25) == (0.5, 0) and md.eta_lattice(0.75) == (-0.5, 0)

    def test_interval_eta_against_swap_symmetry(self):
        # eta~(D_{P,Q}) + eta~(D_{Q,P}) = dim ker (spectral antisymmetry)
        rng = rng_for(58, 23)
        for _ in range(6):
            op, _ = random_model(rng, n_half_max=2)
            dbs = md.double_boundary(op)
            p = random_boundary_on_h(op, rng)
            q = random_boundary_on_h(op, rng)
            c1 = md.direct_sum_lagrangian(dbs, sf.gamma_conjugate(p), q)
            c2 = md.direct_sum_lagrangian(dbs, sf.gamma_conjugate(q), p)
            e1, b1 = md.interval_eta_tilde(op, c1)
            e2, b2 = md.interval_eta_tilde(op, c2)
            ker = md.interval_kernel_dim(op, c1)
            assert abs((e1 + e2) - ker) <= b1 + b2 + 1e-9


    def test_coupled_bound_covers_the_transmission_block(self):
        # the transmission condition gives the circle's spectrum, symmetric
        # with every eigenvalue double: the coupled closed form must give
        # eta 0 within its bound, and the two-block glue must close
        sp = sf.standard_space(2)
        a = np.diag([0.5, 1.0, -0.5, -1.0])
        op_p = md.build_model(sp, a, md.Interval(1.0))
        op_m = md.build_model(sp, a, md.Interval(0.7))
        md.glue_verify(op_p, op_m, md.transmission_lagrangian(md.double_boundary(op_p)))
        op = md.build_model(sf.standard_space(1), np.diag([1.0, -1.0]), md.Interval(1.0))
        dbs = md.double_boundary(op)
        transmission = md.transmission_lagrangian(dbs)
        eta, bound = md.interval_eta_tilde(op, transmission)
        # a symmetric spectrum: the exact eta is 0
        assert abs(eta - 0.5 * md.interval_kernel_dim(op, transmission)) <= bound


def p_theta_kernel_membership(p_matrix, theta: float, xi: np.ndarray,
                              tol: float = 1e-9) -> bool:
    """Membership test for ker P(theta, P): cos(t) P xi_+ = sin(t) P xi_- and
    sin(t) (I-P) xi_+ = cos(t) (I-P) xi_-."""
    p = np.asarray(p_matrix, dtype=complex)
    d = p.shape[0]
    xi = np.asarray(xi, dtype=complex).ravel()
    xp, xm = xi[:d], xi[d:]
    eye = np.eye(d)
    r1 = np.cos(theta) * (p @ xp) - np.sin(theta) * (p @ xm)
    r2 = np.sin(theta) * ((eye - p) @ xp) - np.cos(theta) * ((eye - p) @ xm)
    scale = max(1.0, float(np.linalg.norm(xi)))
    return float(np.linalg.norm(r1) + np.linalg.norm(r2)) <= tol * 10 * scale


class TestPTheta:
    def test_endpoints(self):
        rng = rng_for(59, 22)
        sp = sf.standard_space(2)
        p = sf.projection_of(random_lagrangian(sp, rng)).matrix
        d = p.shape[0]
        at0 = md.p_theta(p, 0.0)
        np.testing.assert_allclose(at0[:d, :d], p, atol=1e-14)
        np.testing.assert_allclose(at0[d:, d:], np.eye(d) - p, atol=1e-14)
        np.testing.assert_allclose(at0[:d, d:], 0, atol=1e-14)
        at45 = md.p_theta(p, np.pi / 4)
        expected = 0.5 * np.block([[np.eye(d), -np.eye(d)], [-np.eye(d), np.eye(d)]])
        np.testing.assert_allclose(at45, expected, atol=1e-14)

    def test_projection_laws_along_theta(self):
        rng = rng_for(60, 21)
        sp = sf.standard_space(1)
        p = sf.projection_of(random_lagrangian(sp, rng)).matrix
        for theta in np.linspace(0, np.pi / 4, 20):
            m = md.p_theta(p, float(theta))
            np.testing.assert_allclose(m, m.conj().T, atol=1e-13)
            np.testing.assert_allclose(m @ m, m, atol=1e-13)

    def test_kernel_membership_characterization(self):
        rng = rng_for(61, 20)
        sp = sf.standard_space(2)
        p = sf.projection_of(random_lagrangian(sp, rng)).matrix
        d = p.shape[0]
        for theta in (0.0, 0.3, np.pi / 4):
            m = md.p_theta(p, theta)
            vals, vecs = np.linalg.eigh(m)
            for j in range(len(vals)):
                in_kernel = vals[j] < 0.5
                assert p_theta_kernel_membership(p, theta, vecs[:, j]) == in_kernel


class TestCaldconst:
    def test_zero_mode_equal_lengths(self):
        sp = sf.standard_space(1)
        op = md.build_model(sp, np.zeros((2, 2)), md.Interval(np.pi))
        rec = md.caldconst_check(op, op)
        assert rec["target"] == 2  # = dim ker A
        assert all(d == 2 for d in rec["dims"])

    def test_gapped_blocks_have_trivial_intersection(self):
        sp = sf.standard_space(1)
        a = np.diag([1.0, -1.0])
        op_p = md.build_model(sp, a, md.Interval(1.0))
        op_m = md.build_model(sp, a, md.Interval(0.8))
        rec = md.caldconst_check(op_p, op_m)
        assert rec["target"] == 0
        assert all(d == 0 for d in rec["dims"])

    def test_seeded_mixed_models(self):
        rng = rng_for(62, 19)
        for _ in range(5):
            op_p, _ = random_model(rng, n_half_max=2)
            op_m = md.build_model(op_p.space, op_p.a_matrix,
                                  md.Interval(float(rng.uniform(0.5, 1.5))))
            md.caldconst_check(op_p, op_m)


class TestAdiabaticLimit:
    def test_zero_tangential_limit_is_kernel_diagonal(self, zero_mode_model):
        dbs = md.double_boundary(zero_mode_model)
        lim = md.adiabatic_limit(zero_mode_model, nu=0.0)
        assert sf.subspace_distance(lim, md.transmission_lagrangian(dbs)) < 1e-10

    def test_single_block_limit_matches_stretched_graph(self, mu_one_model):
        lim = md.adiabatic_limit(mu_one_model, nu=0.0)
        far = md.cauchy_data(mu_one_model, length=50.0)
        assert sf.subspace_distance(far, lim) < 1e-8

    def test_filtered_projections_match_hand_construction(self):
        rng = rng_for(63, 18)
        sp = sf.standard_space(2)
        a = planted_anticommuting(sp, [0.9, 1.7], rng)
        op = md.build_model(sp, a, md.Interval(1.1))
        lim = md.adiabatic_limit(op, nu=0.0)
        # expected: per block, psi at slot 0 and gamma psi at slot 1 (the
        # positive tangential eigenspace of the doubled operator)
        cols = []
        d = sp.dim
        for b in op.blocks:
            c1 = np.zeros(2 * d, dtype=complex)
            c1[:d] = b.frame[:, 0]
            c2 = np.zeros(2 * d, dtype=complex)
            c2[d:] = b.frame[:, 1]
            cols.extend([c1, c2])
        expected = np.array(cols).T
        assert sf.subspace_distance(lim.frame, expected) < 1e-9

    def test_stacked_stretch_as_one_length_at_a_time(self):
        rng = rng_for(73, 29)
        for _ in range(20):
            op, mus = random_model(rng)
            if not mus:
                continue
            lim = md.adiabatic_limit(op, nu=0.0)
            rs = np.linspace(0.5, 60.0, 9) / min(mus)
            want = [sf.subspace_distance(md.cauchy_data(op, length=float(r)), lim) for r in rs]
            np.testing.assert_allclose(md.stretch_distances(op, rs, lim), want, rtol=0, atol=1e-15)

    def test_monotone_convergence_seeded(self):
        rng = rng_for(64, 17)
        for _ in range(5):
            op, mus = random_model(rng, n_half_max=2, allow_kernel=False)
            lim = md.adiabatic_limit(op, nu=0.0)
            mu_min = min(mus)
            dists = [sf.subspace_distance(
                md.cauchy_data(op, length=float(r)), lim)
                for r in np.linspace(2 / mu_min, 50 / mu_min, 6)]
            assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
            assert dists[-1] < 1e-8

    def test_resonance_detected(self, mu_one_model):
        dbs = md.double_boundary(mu_one_model)
        # the anti-graph {(v, -e^{L A} v)}-style Lagrangian meets F^-:
        # build one that contains the negative tangential directions
        d = mu_one_model.space.dim
        b = mu_one_model.blocks[0]
        frame = np.zeros((2 * d, 2), dtype=complex)
        frame[:d, 0] = b.frame[:, 1]        # gamma psi at slot 0: A~ = -mu
        frame[d:, 1] = b.frame[:, 0]        # psi at slot 1: A~ = -mu
        bad = sf.lagrangian_from_frame(dbs.space, frame)
        with pytest.raises(ResonanceViolation):
            md.adiabatic_limit(mu_one_model, l_x=bad, nu=0.0)


class TestGlueVerify:
    def test_zero_mode_closed_forms(self):
        sp = sf.standard_space(1)
        op_p = md.build_model(sp, np.zeros((2, 2)), md.Interval(np.pi))
        op_m = md.build_model(sp, np.zeros((2, 2)), md.Interval(np.pi))
        dbs = md.double_boundary(op_p)
        a, b = 0.9, 0.9 - np.pi / 4
        p = md.direct_sum_lagrangian(dbs, line(sp, a), line(sp, b))
        rec = md.glue_verify(op_p, op_m, p)
        assert rec["tau_mu"] == -1
        assert rec["defect"] <= 1e-12
        assert rec["eta_circle"] == 1.0

    def test_calderon_boundary_condition_splits_additively(self):
        rng = rng_for(65, 16)
        sp = sf.standard_space(1)
        op_p = md.build_model(sp, np.zeros((2, 2)), md.Interval(1.3))
        op_m = md.build_model(sp, np.zeros((2, 2)), md.Interval(0.9))
        lx = md.cauchy_data(op_p)
        rec = md.glue_verify(op_p, op_m, lx)
        assert rec["tau_mu"] == 0
        assert rec["defect"] <= 1e-12

    def test_mixed_model_within_truncation_bound(self):
        rng = rng_for(66, 15)
        sp = sf.standard_space(1)
        a = np.diag([1.0, -1.0])
        op_p = md.build_model(sp, a, md.Interval(1.0))
        op_m = md.build_model(sp, a, md.Interval(0.7))
        for _ in range(5):
            p = random_split_boundary(op_p, rng)
            rec = md.glue_verify(op_p, op_m, p)
            assert rec["defect"] <= rec["bound"] + 1e-9
            assert rec["bound"] <= 5e-3


def _split_block(rng, mu, ell):
    """A doubled mode block of one planted mu on standard:1 and a random
    split constraint of it: (model, block, block constraint)."""
    sp = sf.standard_space(1)
    op = md.build_model(sp, planted_anticommuting(sp, [mu], rng), md.Interval(ell))
    dbs = md.double_boundary(op)
    constraint = random_split_boundary(op, rng)
    (block,) = dbs.blocks
    return op, block, md._block_constraint(block, constraint, 1e-9)


def _root_sum_reference(block, bc, ell, n_max=10_000):
    """The eta of a split block by the route the contour replaces: bracket the
    roots in a window holding about n_max of them, then ``eta_truncated``."""
    assert split_lines(bc) is not None
    window = (n_max / 2.0) * np.pi / ell + 5.0 * block.mu + 5.0
    (roots,) = md._block_roots(block, bc.phi[None], ell, window, 1e-10)
    return md.eta_truncated(roots, n_max=n_max)


class TestContourEta:
    """The eta of a split mode block from the argument of F on the imaginary
    axis (``_block_etas``), against the root sum it replaces, against
    mpmath, and in the gluing identity at mu L where cosh overflows."""

    def test_agrees_with_the_root_sum_within_its_bound(self):
        rng = rng_for(91, 40)
        for _ in range(12):
            ell = float(rng.uniform(0.5, 2.0))
            _, block, bc = _split_block(rng, float(rng.uniform(0.1, 3.0)), ell)
            got = md._block_etas(block, bc.phi[None], ell)[0]
            ref = _root_sum_reference(block, bc, ell)
            assert abs(got.eta - ref.eta) <= ref.bound
            assert 0.0 < got.bound < 1e-14 and got.n_used == 0

    def test_split_blocks_sum_no_roots(self, monkeypatch):
        rng = rng_for(91, 41)
        op, _, _ = _split_block(rng, 0.9, 1.2)
        constraint = random_split_boundary(op, rng)
        want = md.interval_eta_tilde(op, constraint)

        def forbidden(*args, **kwargs):
            raise AssertionError("a split block summed roots for eta")

        monkeypatch.setattr(md, "_certified_roots", forbidden)
        monkeypatch.setattr(md, "eta_truncated", forbidden)
        assert md.interval_eta_tilde(op, constraint) == want

    @pytest.mark.parametrize("shift", [0.0, 1e-12, -1e-12], ids=["exact", "plus", "minus"])
    def test_a_root_within_zero_tol_is_a_kernel_mode(self, mu_one_model, shift):
        # a line a at x=0 and e^{-LA} a at x=L carry the zero mode e^{-xA} a;
        # turning the far line by ~1e-12 moves that root off 0 by ~1e-12, which
        # must not add +-1 to eta: it stays a kernel mode, as in eta_truncated
        op = mu_one_model
        dbs = md.double_boundary(op)
        ang = 0.4
        far = np.arctan2(np.e * np.sin(ang), np.cos(ang) / np.e) + shift
        constraint = md.direct_sum_lagrangian(dbs, line(op.space, ang), line(op.space, far))
        (block,) = dbs.blocks
        bc = md._block_constraint(block, constraint, 1e-9)
        p, q = split_lines(bc)
        f = _block_root_function(block.mu, 1.0, p, q)
        root = -f(0.0) / ((f(1e-6) - f(-1e-6)) / 2e-6)
        assert abs(root) < 1e-11 and (shift == 0.0 or root * shift < 0 and abs(root) > 1e-12)
        ker = md.interval_kernel_dim(op, constraint)
        assert ker == 1
        ref = _root_sum_reference(block, bc, 1.0)
        eta, bound = md.interval_eta_tilde(op, constraint)
        assert abs(eta - 0.5 * (ref.eta + ker)) <= 0.5 * ref.bound
        exact = md.direct_sum_lagrangian(dbs, line(op.space, ang),
                                         line(op.space, far - shift))
        assert abs(eta - md.interval_eta_tilde(op, exact)[0]) < 1e-9

    def test_split_glue_past_cosh_overflow(self):
        # mu L in [620, 960]: cosh(mu L) overflows; every draw must close to
        # 1e-9 with the integer part -tau_mu (a kernel pair gives tau_mu = -1)
        taus = set()
        for k in range(8):
            rng = rng_for(97, k)
            sp = sf.standard_space(2)
            mus = sorted(rng.uniform(40.0, 60.0, size=1 + k % 2))
            a = planted_anticommuting(sp, mus, rng)
            ell, ell_minus = rng.uniform(14.0, 18.0, size=2)
            op_p = md.build_model(sp, a, md.Interval(float(ell)))
            op_m = md.build_model(sp, a, md.Interval(float(ell_minus)))
            rec = md.glue_verify(op_p, op_m, random_split_boundary(op_p, rng))
            assert rec["defect"] <= 1e-9
            assert round(rec["delta"]) == -rec["tau_mu"]
            taus.add(rec["tau_mu"])
        assert taus == {0, -1}

    def test_mixed_split_glues_close_to_1e_9(self):
        # the draws of the gluing suite's mixed models
        rng = rng_for(98, 3)
        for _ in range(8):
            op_p, _ = random_model(rng, n_half_max=2)
            op_m = md.build_model(op_p.space, op_p.a_matrix,
                                  md.Interval(float(rng.uniform(0.5, 1.5))))
            p = random_split_boundary(op_p, rng)
            rec = md.glue_verify(op_p, op_m, p)
            assert rec["defect"] <= 1e-9
            assert rec["bound"] < 1e-13

    @pytest.mark.parametrize("mu, ell", [(50.0, 15.0), (60.0, 16.0), (48.0, 14.9)])
    def test_against_mpmath_past_cosh_overflow(self, mu, ell):
        # the continuous argument of the unscaled F(iy) at 30 digits, sampled
        # on y = 0 and a log grid with every step under pi/4, plus the tail
        # as one principal difference from a point within 1/4 of the limit
        mp = pytest.importorskip("mpmath")
        rng = rng_for(99, int(mu))
        for _ in range(3):
            a, b = rng.uniform(0.0, np.pi, size=2)
            p, q = np.array([np.cos(a), np.sin(a)]), np.array([np.cos(b), np.sin(b)])
            dot, m_const, m_lin = md._block_coefficients(mu, p, q)

            def big_f(y):
                kappa = mp.sqrt(mp.mpf(mu) ** 2 + mp.mpf(y) ** 2)
                return (mp.cosh(kappa * ell) * dot
                        + mp.sinh(kappa * ell) / kappa * (m_const + 1j * mp.mpf(y) * m_lin))

            ys = np.concatenate([[0.0], np.logspace(-8, 6, 1500)])
            with mp.workdps(30):
                args = [float(mp.arg(big_f(y))) for y in ys]
                kappa = mp.sqrt(mp.mpf(mu) ** 2 + mp.mpf(ys[-1]) ** 2)
                scaled_end = complex(big_f(ys[-1]) * mp.exp(-kappa * ell))
            steps = np.angle(np.exp(1j * np.diff(args)))
            assert np.max(np.abs(steps)) < np.pi / 4
            limit = complex(dot, m_lin) / 2
            assert abs(scaled_end - limit) < 0.25
            change = np.sum(steps) + np.angle(limit * np.exp(-1j * args[-1]))
            # the samples fix the number of turns; the endpoints fix the rest
            turns = round((change - (np.angle(limit) - args[0])) / (2.0 * np.pi))
            want = -(2.0 / np.pi) * (np.angle(limit) - args[0] + 2.0 * np.pi * turns)
            got = md._contour_eta(mu, ell, 0.0, *md._block_coefficients(mu, p, q))
            assert abs(got.eta - want) <= got.bound + 1e-15


def _coupled_block(rng, mu, ell, n=1):
    """A doubled mode block of one planted mu on standard:n and a random
    block constraint (a random unitary phi): (model, block, constraint)."""
    sp = sf.standard_space(n)
    op = md.build_model(sp, planted_anticommuting(sp, [mu], rng), md.Interval(ell))
    block = next(b for b in md.double_boundary(op).blocks if not b.is_kernel)
    return op, block, random_lagrangian(block.space, rng)


class TestCoupledContourEta:
    """The eta of a coupled mode block from the characteristic function
    det(M1 + M2 T) in closed form (``_block_etas``), against mpmath, against
    root sums, and on the conditions whose eta is known exactly."""

    @pytest.mark.parametrize("side", ["+", "-"])
    def test_against_mpmath(self, side):
        # the continuous argument of the unscaled det [F(iy) | B] at 40 digits,
        # F the graph frame over slot 0 (side +) or, for a far piece, slot 1:
        # a route through neither phi(B) nor M1, M2 and N; the far piece's eta
        # is that of B with its ends swapped.  The tail is one principal
        # difference from within 1/4 of the limit
        mp = pytest.importorskip("mpmath")
        rng = rng_for(101, 1 if side == "+" else 2)
        for _ in range(4):
            mu, ell = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.5, 2.0))
            _, block, bc = _coupled_block(rng, mu, ell)
            assert split_lines(bc) is None
            b_frame = mp.matrix(bc.frame.tolist())
            j, z = mp.matrix([[0, 1], [-1, 0]]), mp.matrix([[1, 0], [0, -1]])

            def det_with(t):
                top, bot = (mp.eye(2), t) if side == "+" else (t, mp.eye(2))
                full = mp.matrix(4, 4)
                for r in range(2):
                    for c in range(2):
                        full[r, c], full[r + 2, c] = top[r, c], bot[r, c]
                        full[r, c + 2], full[r + 2, c + 2] = b_frame[r, c], b_frame[r + 2, c]
                return mp.det(full)

            def big_g(y):
                kappa = mp.sqrt(mp.mpf(mu) ** 2 + mp.mpf(y) ** 2)
                t = mp.cosh(kappa * ell) * mp.eye(2) + mp.sinh(kappa * ell) / kappa * (
                    1j * mp.mpf(y) * j - mu * z)
                return det_with(t)

            # det T = 1 cancels terms of e^{2 kappa L} in det [F | B]: kappa L stays
            # under 40, and 40 digits keep what is left to 1e-22 of e^{kappa L}
            ys = np.concatenate([[0.0], np.logspace(-8, np.log10(40.0 / ell), 400)])
            with mp.workdps(40):
                args = [float(mp.arg(big_g(y))) for y in ys]
                # T ~ (e^{kappa L}/2)(I + iJ) and det(I + iJ) = 0, so G e^{-kappa L}
                # tends to half the part of det [F | B] linear in T
                limit = complex(det_with(mp.eye(2) + 1j * j) - det_with(mp.zeros(2, 2))) / 2
                kappa = mp.sqrt(mp.mpf(mu) ** 2 + mp.mpf(ys[-1]) ** 2)
                scaled_end = complex(big_g(ys[-1]) * mp.exp(-kappa * ell))
            steps = np.angle(np.exp(1j * np.diff(args)))
            assert np.max(np.abs(steps)) < np.pi / 4
            assert abs(scaled_end - limit) < 0.25 * abs(limit)
            change = np.sum(steps) + np.angle(limit * np.exp(-1j * args[-1]))
            turns = round((change - (np.angle(limit) - args[0])) / (2.0 * np.pi))
            want = -(2.0 / np.pi) * (np.angle(limit) - args[0] + 2.0 * np.pi * turns)
            near = bc if side == "+" else ends_swapped(bc)
            got = md._block_etas(block, near.phi[None], ell)[0]
            assert abs(got.eta - want) <= got.bound + 1e-15
            assert got.bound == md.CONTOUR_ROUNDING and got.n_used == 0

    def test_agrees_with_root_sums_within_their_bounds(self):
        # the roots of the triple-index scan in a window holding about 2e4
        # of them, summed by eta_truncated
        rng = rng_for(101, 3)
        n_max = 20_000
        for _ in range(4):
            mu, ell = float(rng.uniform(0.2, 2.5)), float(rng.uniform(0.5, 2.0))
            _, block, bc = _coupled_block(rng, mu, ell)
            window = (n_max / 2.0) * np.pi / ell + 5.0 * mu + 5.0
            for cond in (bc, ends_swapped(bc)):
                (roots,) = md._block_roots(block, cond.phi[None], ell, window, 1e-10)
                ref = md.eta_truncated(roots, n_max=n_max)
                got = md._block_etas(block, cond.phi[None], ell)[0]
                assert abs(got.eta - ref.eta) <= ref.bound < 5e-3

    def test_coupled_blocks_sum_no_roots(self, monkeypatch):
        rng = rng_for(101, 4)
        op, _, _ = _coupled_block(rng, 0.9, 1.2, n=2)
        constraint = sf.gamma_conjugate(md.cauchy_data(op, length=0.4))
        want = md.interval_eta_tilde(op, constraint)

        def forbidden(*args, **kwargs):
            raise AssertionError("a coupled block summed roots for eta")

        monkeypatch.setattr(md, "_certified_roots", forbidden)
        monkeypatch.setattr(md, "eta_truncated", forbidden)
        assert md.interval_eta_tilde(op, constraint) == want

    @pytest.mark.parametrize("side", ["+", "-"])
    def test_transmission_block_is_exactly_zero(self, side):
        op = md.build_model(sf.standard_space(1), np.diag([1.0, -1.0]), md.Interval(1.0))
        dbs = md.double_boundary(op)
        (block,) = dbs.blocks
        for lag in (md.transmission_lagrangian(dbs),
                    sf.gamma_conjugate(md.transmission_lagrangian(dbs))):
            bc = md._block_constraint(block, lag, 1e-9)
            if side == "-":
                bc = ends_swapped(bc)
            assert split_lines(bc) is None
            assert md._block_etas(block, bc.phi[None], 1.0)[0].eta == 0.0

    def test_foreign_cauchy_data_land_in_the_symmetric_band(self, monkeypatch):
        # Cauchy data of another length make the spectrum symmetric: n1 is
        # rounding, and the closed form gives eta 0 exactly
        seen = []
        contour = md._contour_eta
        monkeypatch.setattr(md, "_contour_eta", lambda *a: seen.append(a[-1]) or contour(*a))
        for seed in range(1, 9):
            block, bc, ell = TestCoupledBlockRoots.foreign_cauchy_block(seed)
            for cond in (bc, ends_swapped(bc)):
                assert md._block_etas(block, cond.phi[None], ell)[0].eta == 0.0
            roots = md._block_roots(block, bc.phi[None], ell, 10.0, 1e-10)[0]
            np.testing.assert_allclose(roots, -roots[::-1], atol=1e-8)
        assert len(seen) == 16 and max(map(abs, seen)) <= md.CONTOUR_ROUNDING

    @pytest.mark.parametrize("side", ["+", "-"])
    def test_a_kernel_mode_starts_at_half_pi(self, side):
        # B = V graph(0) with V = Q diag(e^{i alpha}, e^{i theta}) Q*: W(0) has
        # the eigenvalue e^{-i alpha}, so alpha = 0 puts a root at 0 and alpha =
        # +-1e-6 moves it off 0 to either side; the kernel mode must count as
        # neither, the mean of the two.  On side - the solutions' graph sits
        # over slot 1, and the eta is that of B with its ends swapped
        rng = rng_for(101, 5 if side == "+" else 6)
        for _ in range(4):
            mu, ell = float(rng.uniform(0.2, 2.5)), float(rng.uniform(0.5, 2.0))
            _, block, _ = _coupled_block(rng, mu, ell)
            c, s, e = md._transfer_terms(0.0, mu, ell)
            t0 = np.diag([c - mu * s, c + mu * s])
            frame = np.vstack([e * np.eye(2), t0]) if side == "+" else np.vstack([t0, e * np.eye(2)])
            graph = sf.lagrangian_from_frame(block.space, frame)
            q, theta = random_unitary(rng, 2), float(rng.uniform(0.5, 5.5))

            def eta_at(alpha):
                v = q @ np.diag(np.exp(1j * np.array([alpha, theta]))) @ q.conj().T
                bc = sf.lagrangian_from_phi(block.space, v @ graph.phi)
                assert split_lines(bc) is None
                near = bc if side == "+" else ends_swapped(bc)
                return md._block_etas(block, near.phi[None], ell)[0].eta

            kernel, above, below = eta_at(0.0), eta_at(1e-6), eta_at(-1e-6)
            assert abs(abs(above - below) - 2.0) < 1e-4
            assert abs(kernel - 0.5 * (above + below)) < 1e-4

    def test_coupled_glue_past_cosh_overflow(self):
        # mu L in [620, 960], where a frame [e^{-kappa L} I; e^{-kappa L} T]
        # underflows: random coupled conditions must close to 1e-9 with
        # integer part -tau_mu
        taus = set()
        for k in range(8):
            rng = rng_for(102, k)
            sp = sf.standard_space(2)
            mus = sorted(rng.uniform(40.0, 60.0, size=1 + k % 2))
            a = planted_anticommuting(sp, mus, rng)
            ell, ell_minus = rng.uniform(14.0, 18.0, size=2)
            op_p = md.build_model(sp, a, md.Interval(float(ell)))
            op_m = md.build_model(sp, a, md.Interval(float(ell_minus)))
            dbs = md.double_boundary(op_p)
            rec = md.glue_verify(op_p, op_m, random_coupled_boundary(dbs, rng))
            assert rec["defect"] <= 1e-9 and rec["bound"] <= 1e-12
            assert round(rec["delta"]) == -rec["tau_mu"]
            taus.add(rec["tau_mu"])
        assert len(taus) > 1


class TestSplitLines:
    @staticmethod
    def svd_lines(bc):
        """The lines of a split block constraint by full SVDs of its halves."""
        top, bot = bc.frame[:2, :], bc.frame[2:, :]
        out = []
        for part, other in ((top, bot), (bot, top)):
            _, s, vh = np.linalg.svd(other)
            ns = vh.conj().T[:, np.sum(s > 1e-9):]
            if ns.shape[1] != 1:
                return None
            out.append(_real_line_rep((part @ ns).ravel()))
        return out

    def test_match_the_svd_route_up_to_sign(self):
        rng = rng_for(92, 8)
        for _ in range(10):
            op, _ = random_model(rng, n_half_max=3)
            dbs = md.double_boundary(op)
            for constraint, split in ((random_split_boundary(op, rng), True),
                                      (sf.gamma_conjugate(md.cauchy_data(op)), False)):
                for block in dbs.blocks:
                    if block.is_kernel:
                        continue
                    bc = md._block_constraint(block, constraint, 1e-9)
                    want = self.svd_lines(bc)
                    got = split_lines(bc)
                    assert (want is not None) == (got is not None) == split
                    for g, w in zip(got or (), want or ()):
                        assert min(np.linalg.norm(g - w), np.linalg.norm(g + w)) < 1e-12
                    if split:
                        # the ends swapped give the same lines the other way round
                        for g, w in zip(split_lines(ends_swapped(bc)), got[::-1]):
                            assert min(np.linalg.norm(g - w), np.linalg.norm(g + w)) < 1e-12

    def test_boundary_spectrum_takes_one_svd_per_block(self, monkeypatch):
        # the one stacked SVD of the block traces in _block_family; finding
        # the lines of a split block takes none
        rng = rng_for(92, 9)
        sp = sf.standard_space(3)
        op = md.build_model(sp, planted_anticommuting(sp, [0.6, 1.7], rng), md.Interval(1.1))
        dbs = md.double_boundary(op)
        constraint = random_split_boundary(op, rng)
        family = [constraint] + [random_split_boundary(op, rng) for _ in range(4)]
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        md.boundary_spectrum(op, constraint, 6.0)
        assert len(dbs.blocks) == 3 and len(calls) == 3
        # a family of F constraints: one stacked SVD per block as well
        calls.clear()
        md._boundary_spectra(op, family, 6.0, 1e-10)
        assert len(calls) == 3


class TestCoupledBlockRoots:
    """Roots of a coupled mode block against the second route of flow = Maslov:
    the eigenvalues are the lam where W(lam) = phi(graph(lam)) phi(B)* has the
    eigenvalue 1, and these crossings all have one sign, so their number in a
    window is |wind(lam -> -W(lam))|."""

    @staticmethod
    def foreign_cauchy_block(seed):
        # one mode block plus a kernel pair, glued with the Cauchy data of
        # another length: a condition that couples the two ends of the block
        rng = rng_for(seed, 77)
        sp = sf.standard_space(2)
        mu = float(rng.uniform(0.2, 1.0))
        a = planted_anticommuting(sp, [mu], rng)
        ell = float(rng.uniform(1.5, 2.5))
        rng.uniform(1.5, 2.5)  # the length of the other piece
        op = md.build_model(sp, a, md.Interval(ell))
        dbs = md.double_boundary(op)
        p = md.cauchy_data(op, length=float(rng.uniform(0.3, 0.8)))
        block = next(b for b in dbs.blocks if not b.is_kernel)
        bc = md._block_constraint(block, sf.gamma_conjugate(p), 1e-9)
        return block, bc, ell

    @pytest.mark.parametrize("window", [10.0, 30.0])
    def test_one_root_per_eigenphase_crossing(self, window):
        block, bc, ell = self.foreign_cauchy_block(1)
        assert abs(block.mu - 0.250) < 1e-3 and abs(ell - 2.187) < 1e-3
        (roots,) = md._block_roots(block, bc.phi[None], ell, window, 1e-10)

        def minus_w(t):
            lam = window * (2.0 * t - 1.0)
            c, s, e = md._transfer_terms(lam, block.mu, ell)
            t_lam = np.array([[c - block.mu * s, s * lam], [-s * lam, c + block.mu * s]])
            graph = sf.lagrangian_from_frame(block.space, np.vstack([e * np.eye(2), t_lam]))
            return -graph.phi @ bc.phi.conj().T

        path = sf.UnitaryPath.from_generator(minus_w, initial_samples=int(16 * window) + 1)
        assert roots.size == abs(sf.wind(path).value)
        # both branches cross 0 in the scan step [9.969, 10.328], at 9.9773
        # and at 10.1428: two roots, one per crossing
        assert np.min(np.abs(roots - 9.9773)) < 1e-3


    def test_double_eigenphases_keep_full_accuracy(self):
        # the transmission condition on one mode block is the circle, whose
        # eigenvalues +-sqrt(mu^2 + (2 pi k / L)^2) are double: the two
        # eigenphases of W meet at every root
        rng = rng_for(15, 1)
        for _ in range(60):
            sp = sf.standard_space(2)
            mu, ell = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.5, 2.5))
            a = planted_anticommuting(sp, [mu], rng)
            interval = md.build_model(sp, a, md.Interval(ell))
            dbs = md.double_boundary(interval)
            got = md.boundary_spectrum(interval, md.transmission_lagrangian(dbs), 20.0)
            want = md.circle_spectrum(md.build_model(sp, a, md.Circle(ell)), 20.0)
            assert got.size == want.size
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    def test_transmission_past_the_frame_underflow(self):
        # mu L = 800, where e^{-kappa L} underflows near lambda = 0: the graphs
        # of the solutions come from the frame [T_h^{-1}; T_h], which does not
        # lose the decaying solution, so the transmission condition gives the
        # circle's spectrum, double roots included, and Cauchy data of
        # another length a symmetric one, with no numpy warning
        sp = sf.standard_space(2)
        a = planted_anticommuting(sp, [50.0], rng_for(15, 2))
        op = md.build_model(sp, a, md.Interval(16.0))
        dbs = md.double_boundary(op)
        block = next(b for b in dbs.blocks if not b.is_kernel)
        p = md.cauchy_data(op, length=0.7 * 16.0)
        bc = md._block_constraint(block, sf.gamma_conjugate(p), 1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (roots,) = md._block_roots(block, bc.phi[None], 16.0, 60.0, 1e-10)
            got = md.boundary_spectrum(op, md.transmission_lagrangian(dbs), 60.0)
        assert roots.size > 100 and np.max(np.abs(roots + roots[::-1])) < 1e-9
        want = md.circle_spectrum(md.build_model(sp, a, md.Circle(16.0)), 60.0)
        assert got.size == want.size
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def _line_block(mu, ell, a, b):
    """The doubled block of one planted mu on standard:1 with the split
    constraint of frame columns (p, 0) and (0, q), p = (cos a, sin a) and
    q = (cos b, sin b) in the block basis: (block, block constraint, p, q)."""
    sp = sf.standard_space(1)
    op = md.build_model(sp, planted_anticommuting(sp, [mu], rng_for(1, 1)), md.Interval(ell))
    (block,) = md.double_boundary(op).blocks
    p, q = np.array([np.cos(a), np.sin(a)]), np.array([np.cos(b), np.sin(b)])
    frame = np.zeros((4, 2), dtype=complex)
    frame[:2, 0], frame[2:, 1] = p, q
    return block, sf.lagrangian_from_frame(block.space, frame), p, q


def _scaled_sign_changes(mu, ell, p, q, window, points=200_001):
    """Sign changes of e^{-max(Re kappa, 0) L} F on a uniform grid, with the
    scaled terms written out apart from ``_transfer_terms``."""
    dot, m_const, m_lin = md._block_coefficients(mu, p, q)
    lam = np.linspace(-window, window, points)
    omega = np.sqrt(np.abs(lam**2 - mu**2))
    gap = np.abs(lam) < mu
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(gap, (1.0 + np.exp(-2.0 * omega * ell)) / 2.0, np.cos(omega * ell))
        s = np.where(gap, (1.0 - np.exp(-2.0 * omega * ell)) / (2.0 * omega),
                     np.sin(omega * ell) / omega)
    vals = c * dot + s * (m_const + lam * m_lin)
    return int(np.sum((vals[:-1] < 0) != (vals[1:] < 0)))


# two gap eigenvalues (|lambda| < mu) in one scan step: (mu, L, a, b, roots in
# the window 14, the close pair)
CLOSE_PAIRS = [(2.89266, 2.73705, 0.11846, 1.45107, 24, (0.6782, 0.6868)),
               (1.87014, 2.45753, 2.99472, 1.75280, 22, (-0.6808, -0.5290))]


class TestCertifiedRoots:
    """Every mode block's bracket count must equal an independent count: the
    closed-form Sturm count for a split block, the triple-index count for a
    coupled one; the scan densifies until they agree, else BracketingFailure."""

    @pytest.mark.parametrize("mu, ell, a, b, count, pair", CLOSE_PAIRS, ids=["gap1", "gap2"])
    def test_close_gap_pairs_are_not_lost(self, mu, ell, a, b, count, pair):
        block, bc, p, q = _line_block(mu, ell, a, b)
        (roots,) = md._block_roots(block, bc.phi[None], ell, 14.0, 1e-10)
        assert roots.size == count == _scaled_sign_changes(mu, ell, p, q, 14.0, 2_000_001)
        # the coupled branch on the same constraint: G from M1 and M2, counted
        # by the triple index
        (coupled,) = md._block_roots(block, bc.phi[None], ell, 14.0, 1e-10, coupled=True)
        assert np.max(np.abs(roots - coupled)) < 1e-9
        assert all(np.min(np.abs(roots - r)) < 1e-3 for r in pair)

    @pytest.mark.parametrize("mu, ell, a, b, count, pair", CLOSE_PAIRS, ids=["gap1", "gap2"])
    def test_a_coarse_split_scan_densifies(self, mu, ell, a, b, count, pair):
        # the first grid holds both roots of the pair in one step, so its sign
        # changes fall short of the Sturm count, which sees them
        p, q = np.array([np.cos(a), np.sin(a)]), np.array([np.cos(b), np.sin(b)])
        grid = md._scan_grid(14.0, mu, ell)
        vals = _block_root_function(mu, ell, p, q)(grid)
        coarse = int(np.sum((vals[:-1] < 0) != (vals[1:] < 0)))
        assert coarse == count - 2
        assert md._sturm_count(mu, ell, p, q, grid[0], grid[-1]) == count
        block, bc, _, _ = _line_block(mu, ell, a, b)
        assert md._block_roots(block, bc.phi[None], ell, 14.0, 1e-10)[0].size == count

    def test_sturm_count_against_a_dense_sign_count(self):
        rng = rng_for(93, 1)
        for _ in range(40):
            mu, ell = rng.uniform(0.2, 3.0), rng.uniform(0.5, 3.0)
            a, b = rng.uniform(0.0, np.pi, size=2)
            p, q = np.array([np.cos(a), np.sin(a)]), np.array([np.cos(b), np.sin(b)])
            assert md._sturm_count(mu, ell, p, q, -14.0, 14.0) == \
                _scaled_sign_changes(mu, ell, p, q, 14.0)

    def test_split_spectra_past_cosh_overflow(self):
        # mu L in [560, 1080]: no numpy warning, and as many roots as the
        # scaled F changes sign
        for seed in range(1, 21):
            rng = rng_for(seed, 91)
            sp = sf.standard_space(1)
            mu, ell = rng.uniform(40.0, 60.0), rng.uniform(14.0, 18.0)
            op = md.build_model(sp, planted_anticommuting(sp, [mu], rng), md.Interval(ell))
            p, q = random_boundary_on_h(op, rng), random_boundary_on_h(op, rng)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lams = md.interval_spectrum(op, p, q, 30.0)
            dbs = md.double_boundary(op)
            bc = md._block_constraint(
                dbs.blocks[0], md.direct_sum_lagrangian(dbs, sf.gamma_conjugate(p), q), 1e-9)
            lines = split_lines(bc)
            assert lams.size == _scaled_sign_changes(op.blocks[0].mu, ell, *lines, 30.0), seed

    @pytest.mark.parametrize("engine", ["split", "coupled"])
    def test_a_lost_crossing_raises(self, monkeypatch, engine):
        if engine == "split":
            block, bc, _, _ = _line_block(1.3, 1.7, 0.4, 2.1)
            ell = 1.7
        else:
            block, bc, ell = TestCoupledBlockRoots.foreign_cauchy_block(1)
        assert md._block_roots(block, bc.phi[None], ell, 10.0, 1e-10)[0].size > 0
        crossing_signs = md.crossing_signs

        def lossy(before, after):
            signs = crossing_signs(before, after).copy()
            hit = np.flatnonzero(signs)
            signs.reshape(-1)[hit[:1]] = 0
            return signs

        monkeypatch.setattr(md, "crossing_signs", lossy)
        with pytest.raises(sf.errors.BracketingFailure):
            md._block_roots(block, bc.phi[None], ell, 10.0, 1e-10)

    def test_a_lost_double_root_raises(self, monkeypatch):
        # the transmission condition's roots past mu are double, where G only
        # touches 0: a G' that never changes sign finds none of them
        op = md.build_model(sf.standard_space(1), np.diag([1.0, -1.0]), md.Interval(1.0))
        dbs = md.double_boundary(op)
        (block,) = dbs.blocks
        bc = md._block_constraint(block, md.transmission_lagrangian(dbs), 1e-9)
        (roots,) = md._block_roots(block, bc.phi[None], 1.0, 10.0, 1e-10)
        double = np.hypot(1.0, 2.0 * np.pi)
        np.testing.assert_allclose(roots, [-double, -double, -1.0, 1.0, double, double],
                                   rtol=0.0, atol=1e-10)
        slopes = md._root_slopes
        monkeypatch.setattr(md, "_root_slopes", lambda *args: np.abs(slopes(*args)))
        with pytest.raises(BracketingFailure, match="not certified"):
            md._block_roots(block, bc.phi[None], 1.0, 10.0, 1e-10)

    @pytest.mark.parametrize("side", ["+", "-"])
    def test_triple_level_drops_as_the_sturm_level(self, side):
        # split constraints other than B' (the line (1, 0) at both ends): over
        # every grid step the triple-index level drops as the closed-form
        # Sturm level does, which pins the sign of tau_mu in the level; on
        # side - the constraint has its ends swapped, and the Sturm level
        # takes its lines the other way round
        rng = rng_for(93, 3 if side == "+" else 4)
        for _ in range(10):
            mu, ell = rng.uniform(0.2, 3.0), rng.uniform(0.5, 3.0)
            block, bc, _, _ = _line_block(mu, ell, *rng.uniform(0.0, np.pi, size=2))
            p, q = split_lines(bc) if side == "+" else split_lines(bc)[::-1]
            if side == "-":
                bc = ends_swapped(bc)
            grid = md._scan_grid(14.0, block.mu, ell)
            level = md._triple_levels(block, bc.phi[None], ell)(grid, 0)
            np.testing.assert_array_equal(np.diff(level),
                                          np.diff(md._sturm_level(block.mu, ell, p, q, grid)))
            count = md._sturm_count(block.mu, ell, p, q, grid[0], grid[-1])
            assert level[0] - level[-1] == count > 0

    def test_polished_roots_agree_with_bisection(self):
        tol = 1e-10

        def bisect(g, lo, hi):
            glo = g(lo)
            while hi - lo >= tol:
                mid = 0.5 * (lo + hi)
                if (g(mid) < 0) == (glo < 0):
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        rng = rng_for(93, 2)
        for _ in range(6):
            mu, ell = rng.uniform(0.2, 3.0), rng.uniform(0.5, 3.0)
            a, b = rng.uniform(0.0, np.pi, size=2)
            block, bc, p, q = _line_block(mu, ell, a, b)
            f = _block_root_function(mu, ell, p, q)
            for r in md._block_roots(block, bc.phi[None], ell, 10.0, tol)[0]:
                assert abs(bisect(lambda x: float(f(x)), r - 1e-6, r + 1e-6) - r) <= tol
        for seed in range(1, 4):
            block, bc, ell = TestCoupledBlockRoots.foreign_cauchy_block(seed)
            (roots,) = md._block_roots(block, bc.phi[None], ell, 10.0, tol)
            assert roots.size and np.min(np.diff(roots)) > 1e-5

            def phase(x):  # the eigenphase of W nearest 0 crosses it at a simple root
                c, s, e = md._transfer_terms(x, block.mu, ell)
                t = np.array([[c - block.mu * s, s * x], [-s * x, c + block.mu * s]])
                graph = sf.lagrangian_from_frame(block.space, np.vstack([e * np.eye(2), t]))
                ph = np.angle(np.linalg.eigvals(graph.phi @ bc.phi.conj().T))
                return float(ph[np.argmin(np.abs(ph))])

            for r in roots:
                assert abs(bisect(phase, r - 1e-6, r + 1e-6) - r) <= tol


class TestNicolaescu:
    def test_rotation_flows(self, zero_mode_model):
        op = zero_mode_model
        dbs = md.double_boundary(op)
        sp = op.space
        qfix = line(sp, 0.0)
        for turns, expected in ((1.0, 1), (-1.0, -1), (2.0, 2)):
            fam = [(float(t), md.direct_sum_lagrangian(
                dbs, line(sp, 0.15 + t * np.pi * turns), qfix))
                for t in np.linspace(0, 1, 33 + 16 * int(abs(turns)))]
            rec = md.nicolaescu_verify(op, fam, window=12.0)
            assert rec["sf"] == rec["maslov"] == expected

    def test_constant_path(self, mu_one_model):
        rng = rng_for(67, 14)
        bnd = random_split_boundary(mu_one_model, rng)
        fam = [(t, bnd) for t in np.linspace(0, 1, 5)]
        rec = md.nicolaescu_verify(mu_one_model, fam, window=10.0)
        assert rec["sf"] == rec["maslov"] == 0


def _rotation_constraints(op, rng, turns):
    """The constraints of a ``suite_nicolaescu`` path: the x = 0 condition
    gamma-rotated by turns * pi against a fixed condition at x = L."""
    base, q_side = random_boundary_on_h(op, rng), random_boundary_on_h(op, rng)
    dbs = md.double_boundary(op)
    return [sf.gamma_conjugate(md.direct_sum_lagrangian(
                dbs, sf.gamma_rotate(base, float(t) * turns * np.pi), q_side))
            for t in np.linspace(0, 1, 33 + 16 * int(abs(turns)))]


def _planted(n, mus, seed, ell=1.3):
    sp = sf.standard_space(n)
    return md.build_model(sp, planted_anticommuting(sp, mus, rng_for(seed, 3)), md.Interval(ell))


class TestFamilySpectra:
    """``_boundary_spectra`` solves a family of constraints one mode block at
    a time: one scan and one polish for all its split constraints, each
    constraint's root count certified on its own."""

    @staticmethod
    def assert_as_alone(op, constraints, window):
        got = md._boundary_spectra(op, constraints, window, 1e-10)
        assert len(got) == len(constraints)
        for spectrum, constraint in zip(got, constraints):
            assert np.array_equal(spectrum, md.boundary_spectrum(op, constraint, window))

    def test_rotation_flow_families_as_alone(self, zero_mode_model):
        # the families of TestNicolaescu.test_rotation_flows
        op = zero_mode_model
        dbs = md.double_boundary(op)
        qfix = line(op.space, 0.0)
        for turns in (1.0, -1.0, 2.0):
            self.assert_as_alone(op, [sf.gamma_conjugate(md.direct_sum_lagrangian(
                dbs, line(op.space, 0.15 + t * np.pi * turns), qfix))
                for t in np.linspace(0, 1, 33 + 16 * int(abs(turns)))], 12.0)

    @pytest.mark.parametrize("n, mus", [(2, [0.7]), (3, [0.5, 1.9]), (2, [0.4, 2.2])],
                             ids=["kernel2", "kernel2-two-blocks", "no-kernel"])
    def test_seeded_rotation_families_as_alone(self, n, mus):
        op = _planted(n, mus, 1)
        rng = rng_for(16, n + len(mus))
        for turns in (-2.0, 0.5, 1.0):
            self.assert_as_alone(op, _rotation_constraints(op, rng, turns), 14.0)

    def test_split_and_coupled_family_as_alone(self):
        op = _planted(2, [0.6], 2, ell=1.9)
        dbs = md.double_boundary(op)
        split = _rotation_constraints(op, rng_for(16, 4), 1.0)[:8]
        coupled = [md.transmission_lagrangian(dbs),
                   sf.gamma_conjugate(md.cauchy_data(op, length=0.7))]
        self.assert_as_alone(op, split[:3] + coupled[:1] + split[3:6] + coupled[1:] + split[6:],
                             14.0)

    def test_a_family_scan_stacks_at_most_max_scan_points(self, monkeypatch):
        op = _planted(2, [0.6], 2, ell=1.9)
        family = _rotation_constraints(op, rng_for(16, 7), -1.0)
        want = [md.boundary_spectrum(op, c, 10.0) for c in family]
        cap = 5 * md._scan_grid(10.0, op.blocks[0].mu, 1.9).size
        monkeypatch.setattr(md, "MAX_SCAN_POINTS", cap)
        scans = []
        root_values = md._root_values

        def values(lam, coef, mu, ell, *split):
            out = root_values(lam, coef, mu, ell, *split)
            if out.ndim == 2:
                scans.append(out.size)
            return out

        monkeypatch.setattr(md, "_root_values", values)
        got = md._boundary_spectra(op, family, 10.0, 1e-10)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert len(scans) >= len(family) // 5 and max(scans) <= cap

    @pytest.mark.parametrize("engine", ["split", "coupled"])
    def test_a_bracket_polishes_as_alone(self, monkeypatch, engine):
        # each bracket stops once narrower than tol: polishing [A, B] gives A
        # bit for bit as [A] does, with G's coefficients as the carries, of
        # split brackets (from several constraints) and of coupled ones
        calls = []
        polish = md._polish
        monkeypatch.setattr(md, "_polish", lambda *args: calls.append(args) or polish(*args))
        if engine == "split":
            op = _planted(2, [0.6], 2, ell=1.9)
            md._boundary_spectra(op, _rotation_constraints(op, rng_for(16, 5), 1.0)[::8],
                                 10.0, 1e-10)
        else:
            block, bc, ell = TestCoupledBlockRoots.foreign_cauchy_block(1)
            md._block_roots(block, bc.phi[None], ell, 10.0, 1e-10)
        lo, hi, flo, fhi, carry, at, tol = calls[-1]  # the polish of every bracket comes last
        pick = np.linspace(0, lo.size - 1, 8).astype(int)
        if engine == "split":
            assert np.unique(carry[pick], axis=0).shape[0] > 1
        alone = {a: polish(lo[[a]], hi[[a]], flo[[a]], fhi[[a]], carry[[a]], at, tol)[0]
                 for a in pick}
        for a in pick:
            for b in pick:
                both = polish(lo[[a, b]], hi[[a, b]], flo[[a, b]], fhi[[a, b]], carry[[a, b]],
                              at, tol)
                assert both[0].tobytes() == alone[a].tobytes()

    def test_one_sample_counted_one_root_more_raises(self, monkeypatch):
        op = _planted(3, [0.5, 1.9], 3)
        dbs = md.double_boundary(op)
        family = _rotation_constraints(op, rng_for(16, 6), 0.5)[::4]
        md._boundary_spectra(op, family, 10.0, 1e-10)
        blocks = [b for b in dbs.blocks if not b.is_kernel]
        sturm = md._sturm_count

        def lines(j, block):
            return split_lines(md._block_constraint(block, family[j], md.DEFAULT_TOL))

        def one_more_at(marks):
            def count(mu, ell, p, q, lo, hi):
                extra = sum((mu == block.mu) & np.all(p == lp, axis=-1) & np.all(q == lq, axis=-1)
                            for block, (lp, lq) in marks)
                return sturm(mu, ell, p, q, lo, hi) + extra
            return count

        # the extra root of sample 4 in the second block is never bracketed
        monkeypatch.setattr(md, "_sturm_count", one_more_at([(blocks[1], lines(4, blocks[1]))]))
        with pytest.raises(BracketingFailure, match=f"mu={blocks[1].mu:.6g} not certified"):
            md._boundary_spectra(op, family, 10.0, 1e-10)
        rest = family[:4] + family[5:]
        assert all(np.array_equal(a, b) for a, b in zip(
            md._boundary_spectra(op, rest, 10.0, 1e-10),
            [md.boundary_spectrum(op, c, 10.0) for c in rest]))
        # two failing samples: the error is the first sample's, as alone,
        # though a later sample fails in an earlier block
        monkeypatch.setattr(md, "_sturm_count", one_more_at(
            [(blocks[1], lines(2, blocks[1])), (blocks[0], lines(5, blocks[0]))]))
        with pytest.raises(BracketingFailure) as family_error:
            md._boundary_spectra(op, family, 10.0, 1e-10)
        with pytest.raises(BracketingFailure) as alone_error:
            md.boundary_spectrum(op, family[2], 10.0)
        assert str(family_error.value) == str(alone_error.value)
        assert f"mu={blocks[1].mu:.6g}" in str(family_error.value)


class TestSwModZ:
    def test_equal_conditions_vanish(self, zero_mode_model):
        p = md.cauchy_data(zero_mode_model)
        rec = md.sw_modz_check(zero_mode_model, p, p)
        assert rec["delta_eta"] == 0.0

    def test_rotating_condition_linear_law(self, zero_mode_model):
        op = zero_mode_model
        dbs = md.double_boundary(op)
        sp = op.space
        qfix = line(sp, 0.2)
        angles = np.linspace(0.3, 1.2, 7)  # stays clear of the kernel crossing
        deltas = []
        for ang in angles:
            p = md.direct_sum_lagrangian(dbs, line(sp, ang), qfix)
            rec = md.sw_modz_check(op, p)
            deltas.append(rec["delta_eta"])
        diffs = np.diff(deltas)
        # eta~ changes linearly in the rotation angle with slope -1/pi
        step = angles[1] - angles[0]
        np.testing.assert_allclose(diffs, -step / np.pi, atol=1e-9)

    def test_seeded_zero_mode_multiline(self):
        rng = rng_for(68, 13)
        sp = sf.standard_space(2)
        op = md.build_model(sp, np.zeros((4, 4)), md.Interval(1.2))
        for _ in range(10):
            p = random_split_boundary(op, rng)
            md.sw_modz_check(op, p)

    def test_mixed_model_within_bound(self, mu_one_model):
        rng = rng_for(69, 12)
        p = random_split_boundary(mu_one_model, rng)
        rec = md.sw_modz_check(mu_one_model, p)
        assert rec["modz_defect"] <= 2 * np.pi * rec["bound"] + 1e-9


class TestFamilyErrors:
    """A family with a failing member raises exactly what that member raises
    alone, wherever it stands."""

    def test_incompatible_member_in_the_middle(self):
        op = _planted(3, [0.5, 1.9], 4)
        dbs = md.double_boundary(op)
        family = _rotation_constraints(op, rng_for(16, 8), 1.0)[::6]
        bad = random_lagrangian(dbs.space, rng_for(16, 9))
        with pytest.raises(IncompatibleBoundary) as alone:
            md.boundary_spectrum(op, bad, 10.0)
        with pytest.raises(IncompatibleBoundary) as family_error:
            md._boundary_spectra(op, family[:4] + [bad] + family[4:], 10.0, 1e-10)
        assert str(family_error.value) == str(alone.value)

    def test_non_lagrangian_block_trace_in_the_middle(self):
        # a member whose trace on the first mode block is that block's
        # slot-0 plane: half the block's dimension, but not Lagrangian
        op = _planted(2, [0.6], 5, ell=1.9)
        dbs = md.double_boundary(op)
        rng = rng_for(16, 10)
        good = [random_coupled_boundary(dbs, rng) for _ in range(7)]
        block = next(b for b in dbs.blocks if not b.is_kernel)
        pieces = [b.frame[:, :2] if b is block else b.frame @ random_lagrangian(b.space, rng).frame
                  for b in dbs.blocks]
        frames = np.array([lag.frame for lag in good[:3]] + [np.hstack(pieces)]
                          + [lag.frame for lag in good[3:]])
        with pytest.raises(NotLagrangian) as alone:
            md._block_family(block, frames[3:4], md.DEFAULT_TOL)
        with pytest.raises(NotLagrangian) as family_error:
            md._block_family(block, frames, md.DEFAULT_TOL)
        assert str(family_error.value) == str(alone.value)
        kept = np.delete(frames, 3, axis=0)
        for frame, phi in zip(kept, md._block_family(block, kept, md.DEFAULT_TOL)):
            alone = md._block_family(block, frame[None], md.DEFAULT_TOL)[0]
            assert phi.tobytes() == alone.tobytes()
