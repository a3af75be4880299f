import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symflow as sf
from symflow._linalg import (
    QUIET,
    _frobenius,
    conditioned_inverse,
    nearest_unitary,
    norm_at_most,
    random_unitary,
    require_unitary,
    unitary_mask,
)
from symflow.errors import (
    DimensionMismatch,
    InvalidGamma,
    NotCoisotropic,
    NotLagrangian,
    NotUnitary,
    UnbalancedEigenspaces,
)
from symflow.lagrangian_indices import _in_opposite
from symflow.verification import planted_anticommuting, random_lagrangian, rng_for


def col(*entries):
    return np.array(entries, dtype=complex).reshape(-1, 1)


class TestStandardSpace:
    def test_gamma_block_form(self):
        sp = sf.standard_space(1)
        np.testing.assert_allclose(sp.gamma, np.array([[0, -1], [1, 0]], dtype=complex))

    def test_plus_eigenvector_n1(self):
        sp = sf.standard_space(1)
        v = sp.basis_plus[:, 0] * np.sqrt(2)
        np.testing.assert_allclose(v, np.array([1, -1j]), atol=1e-14)

    def test_gamma_squares_to_minus_identity(self):
        sp = sf.standard_space(2)
        np.testing.assert_allclose(sp.gamma @ sp.gamma, -np.eye(4), atol=0)

    def test_bases_orthonormal_and_eigen(self):
        sp = sf.standard_space(3)
        b = np.hstack([sp.basis_plus, sp.basis_minus])
        np.testing.assert_allclose(b.conj().T @ b, np.eye(6), atol=1e-14)
        np.testing.assert_allclose(sp.gamma @ sp.basis_plus, 1j * sp.basis_plus, atol=1e-14)
        np.testing.assert_allclose(sp.gamma @ sp.basis_minus, -1j * sp.basis_minus, atol=1e-14)


class TestSpaceFromGamma:
    def test_standard_matrix_accepted(self):
        sp = sf.space_from_gamma(np.array([[0, -1], [1, 0]], dtype=complex))
        assert sp.dim_half == 1

    def test_both_eigenvalues_plus_i_rejected(self):
        with pytest.raises(UnbalancedEigenspaces):
            sf.space_from_gamma(np.diag([1j, 1j]))

    def test_non_skew_rejected(self):
        with pytest.raises(InvalidGamma):
            sf.space_from_gamma(np.eye(2))

    def test_odd_size_rejected(self):
        with pytest.raises(InvalidGamma):
            sf.space_from_gamma(1j * np.eye(3))

    def test_conjugated_structure_round_trips(self):
        rng = rng_for(7, 99)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(z)
        gamma = q @ np.diag([1j, 1j, -1j, -1j]) @ q.conj().T
        sp = sf.space_from_gamma(gamma)
        assert sp.dim_half == 2
        np.testing.assert_allclose(sp.gamma @ sp.gamma, -np.eye(4), atol=1e-12)
        # eigenbases diagonalize gamma again
        np.testing.assert_allclose(sp.gamma @ sp.basis_plus, 1j * sp.basis_plus, atol=1e-10)


def isotropy_defect(space, frame):
    """||G* gamma G||_2 for an orthonormal frame G of span(frame)."""
    g, _ = np.linalg.qr(frame)
    return np.linalg.norm(g.conj().T @ space.gamma @ g, 2)


@pytest.fixture()
def svd_calls(monkeypatch):
    """Number of np.linalg.svd calls and of norm(M, 2) calls on a matrix."""
    calls = [0]
    svd, norm = np.linalg.svd, np.linalg.norm

    def counting_svd(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        calls[0] += ord == 2 and np.ndim(x) == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    return calls


class TestLagrangian:
    def test_graph_map_values_of_the_three_standard_lines(self):
        sp = sf.standard_space(1)
        for vec, phi in (((1, 0), 1.0), ((1, 1), -1j), ((0, 1), -1.0)):
            lag = sf.lagrangian_from_frame(sp, col(*vec))
            assert abs(lag.phi[0, 0] - phi) < 1e-12

    def test_gamma_eigenline_is_not_lagrangian(self):
        sp = sf.standard_space(1)
        with pytest.raises(NotLagrangian):
            sf.lagrangian_from_frame(sp, col(1, 1j))

    def test_wrong_dimension_rejected(self):
        sp = sf.standard_space(2)
        with pytest.raises(NotLagrangian):
            sf.lagrangian_from_frame(sp, col(1, 0, 0, 0))

    def test_phi_constructor_inverts_extraction(self):
        sp = sf.standard_space(1)
        phi = np.array([[1.0]], dtype=complex)
        lag = sf.lagrangian_from_phi(sp, phi)
        assert sf.subspace_distance(lag.frame, col(1, 0)) < 1e-12
        # the Lagrangian keeps its own read-only phi, not the caller's array
        assert phi.flags.writeable and not lag.phi.flags.writeable

    def test_phi_round_trip_on_random_lagrangians(self):
        rng = rng_for(2, 98)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            sp = sf.standard_space(n)
            lag = random_lagrangian(sp, rng)
            again = sf.lagrangian_from_phi(sp, lag.phi)
            assert sf.subspace_distance(lag, again) < 1e-10

    def test_phi_identity_unwinds_to_plus_basis_graph(self):
        sp = sf.standard_space(2)
        lag = sf.lagrangian_from_phi(sp, np.eye(2))
        expected = (sp.basis_plus + sp.basis_minus) / np.sqrt(2)
        assert sf.subspace_distance(lag.frame, expected) < 1e-12

    def test_derived_frame_is_orthonormal_and_spans_the_input(self):
        rng = rng_for(12, 88)
        for n in (1, 3, 6):
            sp = sf.rebased_space(sf.standard_space(n), rng)
            frame = random_lagrangian(sp, rng).frame @ (np.eye(n) + 0.4 * rng.normal(size=(n, n)))
            lag = sf.lagrangian_from_frame(sp, frame)
            np.testing.assert_allclose(lag.frame.conj().T @ lag.frame, np.eye(n), atol=1e-14)
            assert sf.subspace_distance(lag.frame, frame) < 1e-13
            assert not lag.frame.flags.writeable

    def test_dependent_columns_rejected(self):
        sp = sf.standard_space(2)
        v = random_lagrangian(sp, rng_for(13, 87)).frame[:, :1]
        with pytest.raises(NotLagrangian):
            sf.lagrangian_from_frame(sp, np.hstack([v, 2.0 * v]))

    def test_constructors_and_gamma_maps_take_no_svd(self, svd_calls):
        # a frame, a phi, and the three gamma-maps, on standard and re-based
        # spaces: the Lagrangian is phi, and nothing here needs an SVD
        rng = rng_for(14, 86)
        made = []
        for n in (1, 3, 6):
            for sp in (sf.standard_space(n), sf.rebased_space(sf.standard_space(n), rng)):
                lag = sf.lagrangian_from_phi(sp, random_unitary(rng, n))
                frame = lag.frame @ (np.eye(n) + 0.4 * rng.normal(size=(n, n)))
                again = sf.lagrangian_from_frame(sp, frame)
                made.append((lag, again, sf.gamma_rotate(again, 0.3),
                             sf.gamma_conjugate(again),
                             _in_opposite(again, sf.opposite_space(sp))))
        assert all(lg.frame.shape == (2 * lg.phi.shape[0], lg.phi.shape[0])
                   for row in made for lg in row)
        assert svd_calls[0] == 0
        for lag, again, rotated, conj, opposite in made:
            sp = lag.space
            np.testing.assert_allclose(again.phi, lag.phi, atol=1e-13)
            rot = np.cos(0.3) * np.eye(sp.dim) + np.sin(0.3) * sp.gamma
            assert sf.subspace_distance(rotated.frame, rot @ lag.frame) < 1e-13
            assert sf.subspace_distance(conj.frame, sp.gamma @ lag.frame) < 1e-13
            assert sf.subspace_distance(opposite.frame, lag.frame) < 1e-13
            np.testing.assert_allclose(
                sf.lagrangian_from_frame(opposite.space, lag.frame).phi, opposite.phi,
                atol=1e-13)

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
    def test_isotropy_band_is_the_tolerance_asked_for(self, tol, factor, accepted):
        # one singular value s of phi moved off 1 gives the isotropy defect
        # (s^2 - 1)/(s^2 + 1); place it at factor x the band tol * 100 * n
        rng = rng_for(15, 85)
        for n in (1, 2, 4):
            sp = sf.rebased_space(sf.standard_space(n), rng)
            delta = factor * tol * 100 * n
            v = random_unitary(rng, n)
            stretch = np.ones(n)
            stretch[0] = np.sqrt((1 + delta) / (1 - delta))
            phi = random_unitary(rng, n) @ v @ np.diag(stretch) @ v.conj().T
            frame = (sp.basis_plus + sp.basis_minus @ phi) @ (
                np.eye(n) + 0.3 * rng.normal(size=(n, n)))
            assert isotropy_defect(sp, frame) == pytest.approx(delta, rel=1e-4)
            if accepted:
                sf.lagrangian_from_frame(sp, frame, tol)
            else:
                with pytest.raises(NotLagrangian):
                    sf.lagrangian_from_frame(sp, frame, tol)

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("factor, accepted", [(2.0, True), (0.5, False)])
    def test_rank_cut_is_the_tolerance_asked_for(self, tol, factor, accepted):
        # singular values (1, ..., 1, r) with r = factor x tol: the columns are
        # independent exactly when r > tol, as for orthonormal_columns
        r = factor * tol
        frames = []
        for n in (2, 3):
            # exact: the Lagrangian of the first n coordinates, last column scaled
            frame = np.zeros((2 * n, n), dtype=complex)
            frame[:n] = np.diag(np.r_[np.ones(n - 1), r])
            frames.append((sf.standard_space(n), frame))
        if tol > 1e-8:
            rng = rng_for(16, 84)
            for n in (2, 4):
                sp = sf.rebased_space(sf.standard_space(n), rng)
                scale = np.diag(np.r_[np.ones(n - 1), r])
                frames.append((sp, random_lagrangian(sp, rng).frame
                               @ random_unitary(rng, n) @ scale @ random_unitary(rng, n)))
        for sp, frame in frames:
            s = np.linalg.svd(frame, compute_uv=False)
            assert s[-1] / s[0] == pytest.approx(r, rel=1e-6)
            if accepted:
                sf.lagrangian_from_frame(sp, frame, tol)
            else:
                with pytest.raises(NotLagrangian):
                    sf.lagrangian_from_frame(sp, frame, tol)


class TestNearestUnitary:
    def test_newton_schulz_reaches_the_polar_factor(self):
        rng = rng_for(17, 83)
        for n in (1, 4, 16):
            u = random_unitary(rng, n) + 0.2 * rng.normal(size=(n, n)) / np.sqrt(n)
            w, _, vh = np.linalg.svd(u)
            np.testing.assert_allclose(nearest_unitary(u), w @ vh, atol=1e-13)
        # singular values outside (0, sqrt 3) are scaled into it first
        far = random_unitary(rng, 3) @ np.diag([3.0, 1e-3, 1.0]) @ random_unitary(rng, 3)
        w, _, vh = np.linalg.svd(far)
        np.testing.assert_allclose(nearest_unitary(far), w @ vh, atol=1e-13)

    def test_unitary_input_is_returned_as_it_is(self):
        u = random_unitary(rng_for(18, 82), 5)
        assert nearest_unitary(u) is u

    def test_singular_input_has_no_polar_factor(self):
        with pytest.raises(NotUnitary):
            nearest_unitary(np.diag([1.0, 0.0]))


class TestFrobenius:
    @pytest.mark.parametrize("shape", [(3, 2), (1, 3, 3), (7, 2, 3), (1, 5, 2, 2), (2, 3, 4, 4)])
    def test_each_matrix_as_one_blas_dot(self, shape):
        rng = rng_for(19, 52)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        norms = _frobenius(x)
        assert np.shape(norms) == shape[:-2]
        flat = x.reshape((-1,) + shape[-2:])
        want = np.array([np.sqrt(np.vdot(m, m).real) for m in flat]).reshape(shape[:-2])
        assert np.asarray(norms).tobytes() == want.tobytes()

    def test_overflow_is_infinite(self):
        x = np.array([[[1e200, 0.0]], [[3.0, 4.0]]], dtype=complex)
        with np.errstate(**QUIET):
            assert list(_frobenius(x)) == [np.inf, 5.0]

    def test_checks_of_outside_matrices_overflow_silently(self):
        huge = np.diag([1e200, 1.0]).astype(complex)
        sp = sf.space_from_gamma(np.diag([1j, 1j, -1j, -1j]))  # b_+ = (e_1, e_2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not norm_at_most(huge, 1.0)
            assert not unitary_mask(huge[None])[0]
            with pytest.raises(NotUnitary, match="entry of modulus"):
                require_unitary(huge)
            assert not conditioned_inverse(np.diag([1e200, 1e-200]).astype(complex)[None])[1][0]
            # phi = 1e150 I: its Gram defect 1e300 I has no finite Frobenius norm
            with pytest.raises(NotLagrangian, match="not orthogonal"):
                sf.graph_unitaries(sp, [np.vstack([1e-150 * np.eye(2), np.eye(2)])])


class TestProjection:
    def test_line_projection_matrix(self):
        sp = sf.standard_space(1)
        p = sf.projection_of(sf.lagrangian_from_frame(sp, col(1, 0)))
        np.testing.assert_allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_defining_identity_for_random_lagrangians(self):
        rng = rng_for(3, 97)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            sp = sf.standard_space(n)
            p = sf.projection_of(random_lagrangian(sp, rng)).matrix
            lhs = sp.gamma @ p @ sp.gamma.conj().T
            np.testing.assert_allclose(lhs + p, np.eye(2 * n), atol=1e-12)

    def test_transmission_projection_block_form(self):
        # projection onto the complement of the diagonal in H + H
        d = np.vstack([np.eye(2), np.eye(2)]) / np.sqrt(2)
        p_delta = np.eye(4) - d @ d.conj().T
        expected = 0.5 * np.block([[np.eye(2), -np.eye(2)], [-np.eye(2), np.eye(2)]])
        np.testing.assert_allclose(p_delta, expected, atol=1e-14)


class TestIntersection:
    def test_equal_lagrangians(self):
        sp = sf.standard_space(3)
        lag = random_lagrangian(sp, rng_for(4, 96))
        assert sf.intersection_dim(lag, lag) == 3

    def test_transverse_lines(self):
        sp = sf.standard_space(1)
        l1 = sf.lagrangian_from_frame(sp, col(1, 0))
        l2 = sf.lagrangian_from_frame(sp, col(0, 1))
        assert sf.intersection_dim(l1, l2) == 0

    def test_planted_overlap_dimensions(self):
        rng = rng_for(5, 95)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            sp = sf.standard_space(n)
            k = int(rng.integers(0, n + 1))
            l1 = random_lagrangian(sp, rng)
            v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, _ = np.linalg.qr(v)
            d = np.exp(1j * np.concatenate([np.zeros(k), rng.uniform(0.4, 2.7, n - k)]))
            l2 = sf.lagrangian_from_phi(sp, l1.phi @ q @ np.diag(d) @ q.conj().T)
            assert sf.intersection_dim(l1, l2) == k
            assert sf.intersection_dim(l2, l1) == k


class TestSubspaceDistance:
    def test_equal_gives_zero(self):
        f = col(1, 2) / np.sqrt(5)
        assert sf.subspace_distance(f, f) == 0.0

    def test_orthogonal_lines_give_one(self):
        assert abs(sf.subspace_distance(col(1, 0), col(0, 1)) - 1.0) < 1e-14

    @given(st.floats(min_value=-1.5, max_value=1.5))
    @settings(max_examples=40, deadline=None)
    def test_rotated_line_closed_form(self, t):
        f = col(np.cos(t), np.sin(t))
        assert abs(sf.subspace_distance(col(1, 0), f) - abs(np.sin(t))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sf.subspace_distance(col(1, 0), np.eye(2))


class TestSymplecticReduce:
    def test_full_space_reduction_is_identity(self):
        sp = sf.standard_space(2)
        lag = random_lagrangian(sp, rng_for(6, 94))
        red = sf.symplectic_reduce(lag, np.eye(4))
        assert red.space.dim == 4
        assert sf.subspace_distance(red.embedded_frame, lag.frame) < 1e-10

    def test_not_coisotropic_rejected(self):
        sp = sf.standard_space(2)
        lag = random_lagrangian(sp, rng_for(7, 93))
        # a Lagrangian plane is isotropic, not coisotropic, in dim 4
        with pytest.raises(NotCoisotropic):
            sf.symplectic_reduce(lag, random_lagrangian(sp, rng_for(8, 92)).frame)

    def test_blockwise_product_reduces_blockwise(self):
        # three-block toy space; reduce by (one block's Lagrangian direction
        # + the other two blocks); the result is the product of the pieces
        sp = sf.standard_space(3)
        rng = rng_for(9, 91)
        lag1 = random_lagrangian(sf.standard_space(1), rng)
        lag2 = random_lagrangian(sf.standard_space(2), rng)
        # embed into the interleaved standard space: block 1 = coords (0, 3),
        # block 2 = coords (1, 2, 4, 5)
        frame = np.zeros((6, 3), dtype=complex)
        frame[[0, 3], 0] = lag1.frame[:, 0]
        frame[[1, 4], 1] = lag2.frame[[0, 2], 0]
        frame[[2, 5], 1] += lag2.frame[[1, 3], 0]
        frame[[1, 4], 2] = lag2.frame[[0, 2], 1]
        frame[[2, 5], 2] += lag2.frame[[1, 3], 1]
        big = sf.lagrangian_from_frame(sp, frame)
        # coisotropic U = (isotropic line inside block 1) + block 2
        iso = np.zeros((6, 1), dtype=complex)
        iso[[0, 3], 0] = lag1.frame[:, 0]
        rest = np.zeros((6, 4), dtype=complex)
        rest[1, 0] = rest[2, 1] = rest[4, 2] = rest[5, 3] = 1.0
        red = sf.symplectic_reduce(big, np.hstack([iso, rest]))
        assert red.space.dim == 4
        # the reduction equals the block-2 factor, embedded
        expect = np.zeros((6, 2), dtype=complex)
        expect[[1, 4], 0] = lag2.frame[[0, 2], 0]
        expect[[2, 5], 0] += lag2.frame[[1, 3], 0]
        expect[[1, 4], 1] = lag2.frame[[0, 2], 1]
        expect[[2, 5], 1] += lag2.frame[[1, 3], 1]
        assert sf.subspace_distance(red.embedded_frame, expect) < 1e-9

    def test_reduction_of_cylinder_cauchy_data_is_kernel_diagonal(self):
        # R_0 of the interval Cauchy data equals the diagonal of the doubled
        # kernel block (the limiting-value Lagrangian)
        from symflow import model_dirac as md

        rng = rng_for(10, 90)
        sp = sf.standard_space(2)
        a = planted_anticommuting(sp, [1.3], rng)
        op = md.build_model(sp, a, md.Interval(0.9))
        dbs = md.double_boundary(op)
        lx = md.cauchy_data(op)
        vals, vecs = np.linalg.eigh(dbs.a_tilde)
        u_frame = vecs[:, vals <= 1e-9]
        red = sf.symplectic_reduce(lx, u_frame)
        kf = op.kernel.frame
        diag = np.vstack([kf, kf]) / np.sqrt(2)
        assert sf.subspace_distance(red.embedded_frame, diag) < 1e-9


class TestSameSpace:
    def test_equal_gamma_with_other_eigenbases_is_another_space(self):
        # e^{t gamma} commutes with gamma, so the rotated gamma equals the
        # standard one to rounding, but eigh picks other eigenbases for it
        sp = sf.standard_space(2)
        rot = np.cos(1e-6) * np.eye(4) + np.sin(1e-6) * sp.gamma
        other = sf.space_from_gamma(rot @ sp.gamma @ rot.conj().T)
        assert np.max(np.abs(other.gamma - sp.gamma)) < 1e-15
        assert np.max(np.abs(other.basis_plus - sp.basis_plus)) > 0.1
        assert not sp.same_space(other) and not other.same_space(sp)
        rng = rng_for(19, 81)
        p = random_lagrangian(sp, rng)
        q, r = random_lagrangian(other, rng), random_lagrangian(other, rng)
        with pytest.raises(DimensionMismatch):
            sf.tau_mu(p, q, r)
        with pytest.raises(DimensionMismatch):
            sf.intersection_dim(p, q)

    def test_spaces_with_equal_bases_are_one_space(self):
        gamma = sf.standard_space(3).gamma
        a, b = sf.space_from_gamma(gamma), sf.space_from_gamma(gamma)
        assert a is not b and a.same_space(b) and a.same_space(a)
        assert not a.same_space(sf.opposite_space(a))


class TestBasisIndependence:
    def test_invariants_stable_under_rebasing(self):
        rng = rng_for(11, 89)
        sp = sf.standard_space(2)
        frames = [random_lagrangian(sp, rng).frame for _ in range(2)]
        base = [sf.lagrangian_from_frame(sp, f) for f in frames]
        d0 = sf.intersection_dim(*base)
        for _ in range(10):
            other = sf.rebased_space(sp, rng)
            moved = [sf.lagrangian_from_frame(other, f) for f in frames]
            assert sf.intersection_dim(*moved) == d0
            # phi itself is allowed to change
            assert moved[0].phi.shape == base[0].phi.shape


class TestGraphUnitaries:
    """``graph_unitaries`` decides each frame of a stack as it decides it
    alone (``lagrangian_from_frame`` is its stack of one), bit for bit."""

    @staticmethod
    def band_frames(rng, sp, count, tol):
        """Lagrangian frames F = G C, G orthonormal: a_+ = b_+* F = C / sqrt 2,
        with cond C from 10 up to just under the rank cut 1/tol, so that the
        Frobenius product of ``conditioned_inverse`` falls below, and for
        the larger ones inside, its band [1/tol, n/tol)."""
        frames, products = [], []
        for kappa in np.geomspace(10.0, 0.99 / tol, count):
            g = random_lagrangian(sp, rng).frame
            c = (random_unitary(rng, sp.dim_half)
                 @ np.diag(np.r_[np.ones(sp.dim_half - 1), 1.0 / kappa])
                 @ random_unitary(rng, sp.dim_half))
            frames.append(g @ c)
            products.append(np.linalg.norm(c) * np.linalg.norm(np.linalg.inv(c)))
        return np.array(frames), np.array(products)

    @staticmethod
    def rescale_frames(rng, sp, count):
        """Frames (b_+ + b_- phi)/sqrt2 of non-unitary phi with ||phi*phi - I||_F
        on both sides of 1, the Newton-Schulz rescale, each isotropic within
        tol = 1e-3 (defect at most 1/3 <= 100 n tol)."""
        frames, defects = [], []
        for sq in np.linspace(1.25, 2.0, count):
            phi = (random_unitary(rng, sp.dim_half)
                   @ np.diag(np.sqrt(np.r_[sq, np.ones(sp.dim_half - 1)] if sq < 1.6 else
                                     np.full(sp.dim_half, sq)))
                   @ random_unitary(rng, sp.dim_half))
            frames.append((sp.basis_plus + sp.basis_minus @ phi) / np.sqrt(2.0))
            defects.append(np.linalg.norm(phi.conj().T @ phi - np.eye(sp.dim_half)))
        return np.array(frames), np.array(defects)

    @pytest.mark.parametrize("m", [1, 49])
    def test_stack_is_bit_identical_to_each_frame_alone(self, m):
        rng = rng_for(19, m)
        sp = sf.standard_space(4)
        tol = 1e-6
        frames, products = self.band_frames(rng, sp, m, tol)
        if m > 1:
            assert np.any(products < 1.0 / tol) and np.any(products >= 1.0 / tol)
        phis = sf.graph_unitaries(sp, frames, tol)
        assert phis.shape == (m, 4, 4)
        for frame, phi in zip(frames, phis):
            assert phi.tobytes() == sf.lagrangian_from_frame(sp, frame, tol).phi.tobytes()
        frames, defects = self.rescale_frames(rng, sp, m)
        if m > 1:
            assert np.any(defects < 1.0) and np.any(defects >= 1.0)
        phis = sf.graph_unitaries(sp, frames, 1e-3)
        for frame, phi in zip(frames, phis):
            assert phi.tobytes() == sf.lagrangian_from_frame(sp, frame, 1e-3).phi.tobytes()
            np.testing.assert_allclose(phi.conj().T @ phi, np.eye(4), atol=1e-14)

    def test_newton_schulz_stack_stops_per_matrix(self):
        rng = rng_for(19, 50)
        us = np.array([random_unitary(rng, 3) @ np.diag([s, 1.0, 1.0]) @ random_unitary(rng, 3)
                       for s in (1.0 + 1e-17, 1.001, 1.2, 1.7, 3.0, 1e-3)])
        stacked = nearest_unitary(us)
        for u, w in zip(us, stacked):
            assert w.tobytes() == nearest_unitary(u).tobytes()

    @pytest.mark.parametrize("first", ["rank", "isotropy"])
    def test_stack_raises_what_its_first_failing_frame_raises(self, first):
        rng = rng_for(19, 51)
        sp = sf.standard_space(3)
        frames = np.array([random_lagrangian(sp, rng).frame for _ in range(9)])
        v = frames[0][:, :1]
        rank_deficient = np.hstack([v, 2.0 * v, frames[0][:, 2:]])
        non_isotropic = (sp.basis_plus + 1.5 * sp.basis_minus) / np.sqrt(2.0)
        frames[4], frames[6] = ((rank_deficient, non_isotropic) if first == "rank"
                                else (non_isotropic, rank_deficient))
        with pytest.raises(NotLagrangian) as alone:
            sf.lagrangian_from_frame(sp, frames[4])
        with pytest.raises(NotLagrangian) as stacked:
            sf.graph_unitaries(sp, frames)
        assert str(stacked.value) == str(alone.value)
        assert ("linearly dependent" in str(alone.value)) == (first == "rank")
