import warnings

import numpy as np
import pytest

import symflow as sf
from symflow.errors import RefinementExhausted
from symflow.verification import random_unitary, rng_for


def one_by_one(fn):
    return lambda t: np.array([[fn(t)]])


class TestHermitianCheck:
    def test_huge_skew_matrix_fails_without_a_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not Hermitian"):
                sf.eta_finite([[0, 1e308], [-1e308, 0]])


class TestSpectralFlow:
    def test_upward_crossing(self):
        path = sf.HermitianPath.from_generator(one_by_one(lambda t: t - 0.5))
        assert sf.spectral_flow(path).value == 1

    def test_downward_crossing(self):
        path = sf.HermitianPath.from_generator(one_by_one(lambda t: 0.5 - t))
        assert sf.spectral_flow(path).value == -1

    def test_constant_invertible(self):
        path = sf.HermitianPath([(0.0, np.eye(2)), (1.0, np.eye(2))])
        assert sf.spectral_flow(path).value == 0

    def test_touch_from_below_and_return(self):
        path = sf.HermitianPath.from_generator(one_by_one(lambda t: -abs(t - 0.5)),
                                               initial_samples=21)
        assert sf.spectral_flow(path).value == 0

    def test_crossing_time_in_log(self):
        path = sf.HermitianPath.from_generator(one_by_one(lambda t: t - 0.5))
        (crossing,) = sf.spectral_flow(path).log.crossings
        assert abs(crossing.t - 0.5) < 0.05
        assert crossing.direction == 1

    def test_endpoint_zero_counts_as_nonnegative(self):
        # eigenvalue ends exactly at 0 coming from below: gain of one
        path = sf.HermitianPath.from_generator(one_by_one(lambda t: t - 1.0))
        assert sf.spectral_flow(path).value == 1
        # and leaving 0 downward at the start: loss of one
        path2 = sf.HermitianPath.from_generator(one_by_one(lambda t: -t))
        assert sf.spectral_flow(path2).value == -1

    def test_planted_curves(self):
        rng = rng_for(41, 60)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            v = random_unitary(rng, k)
            start = rng.uniform(-1, 1, size=k)
            slope = rng.uniform(-2, 2, size=k)

            def gen(t, v=v, start=start, slope=slope):
                return v @ np.diag(start + slope * t) @ v.conj().T

            expected = sum(
                int(a < 0 <= a + s) - int(a + s < 0 <= a)
                for a, s in zip(start, slope))
            path = sf.HermitianPath.from_generator(gen, initial_samples=41)
            assert sf.spectral_flow(path).value == expected

    def test_additivity_under_concatenation(self):
        rng = rng_for(42, 59)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            a, b, c = (_herm(rng, k) for _ in range(3))
            p1 = sf.HermitianPath.from_generator(lambda t: (1 - t) * a + t * b,
                                                 initial_samples=21)
            p2 = sf.HermitianPath.from_generator(lambda t: (1 - t) * b + t * c,
                                                 initial_samples=21)
            joint = sf.HermitianPath.from_generator(
                lambda t: (1 - 2 * t) * a + 2 * t * b if t <= 0.5
                else (2 - 2 * t) * b + (2 * t - 1) * c,
                initial_samples=41)
            assert (sf.spectral_flow(joint).value
                    == sf.spectral_flow(p1).value + sf.spectral_flow(p2).value)


def _herm(rng, k, scale=1.0):
    h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return 0.5 * (h + h.conj().T) * scale


class TestEtaFinite:
    def test_small_example(self):
        assert sf.eta_finite(np.diag([1.0, -2.0, 0.0])) == (0, 1, 0.5)

    def test_identity_matrix(self):
        for k in (1, 3, 6):
            assert sf.eta_finite(np.eye(k)) == (k, 0, k / 2)

    def test_negation_flips_eta_keeps_kernel(self):
        rng = rng_for(43, 58)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            h = _herm(rng, k)
            eta_p, ker_p, _ = sf.eta_finite(h)
            eta_m, ker_m, _ = sf.eta_finite(-h)
            assert eta_p == -eta_m
            assert ker_p == ker_m


class TestSfEta:
    def test_single_crossing_path(self):
        path = sf.HermitianPath.from_generator(one_by_one(lambda t: t - 0.5))
        rec = sf.sf_eta_consistency(path)
        assert rec["sf"] == 1
        assert rec["eta_tilde_start"] == -0.5
        assert rec["eta_tilde_end"] == 0.5

    def test_constant_kernel_dimension_means_no_flow(self):
        rng = rng_for(44, 57)
        k = 4
        base = _herm(rng, k) + 3 * np.eye(k)  # positive definite: kernel constant 0
        bump = _herm(rng, k, 0.2)
        path = sf.HermitianPath.from_generator(
            lambda t: base + np.sin(np.pi * t) * bump, initial_samples=21)
        rec = sf.sf_eta_consistency(path)
        assert rec["sf"] == 0 and rec["delta"] == 0

    def test_seeded_random_paths(self):
        rng = rng_for(45, 56)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            a, b = _herm(rng, k), _herm(rng, k)
            path = sf.HermitianPath.from_generator(lambda t: (1 - t) * a + t * b,
                                                   initial_samples=33)
            sf.sf_eta_consistency(path)

    def test_reverse_cancels_for_invertible_endpoints(self):
        rng = rng_for(46, 55)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            a, b = _herm(rng, k), _herm(rng, k)
            if sf.eta_finite(a)[1] or sf.eta_finite(b)[1]:
                continue
            path = sf.HermitianPath.from_generator(lambda t: (1 - t) * a + t * b,
                                                   initial_samples=33)
            assert (sf.spectral_flow(path).value
                    + sf.spectral_flow(path.reversed()).value) == 0

    def test_sample_only_gap_violation_is_an_error(self):
        # a big jump across the spectral gap with no generator must not be
        # silently interpolated
        path = sf.HermitianPath([(0.0, np.diag([1.0, -1.0])),
                                 (1.0, np.diag([-1.0, 1.0]))])
        with pytest.raises(RefinementExhausted):
            sf.spectral_flow(path)


class TestNearTheFloatMaximum:
    """The step rule's sums and squares of norms near 1e308 would overflow;
    those steps are tested scaled by an exact power of two."""

    @staticmethod
    def linear(h0, h1):
        return sf.HermitianPath.from_generator(lambda t: (1 - t) * h0 + t * h1,
                                               initial_samples=5)

    def test_flow_without_a_runtime_warning(self):
        # at the unscaled rule, |va| + |vb| and the Frobenius norm of the
        # step overflow (RuntimeWarnings, errors here)
        path = self.linear(np.diag([-1e300, 1e308]), np.diag([1e300, 1e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = sf.spectral_flow(path)
            assert sf.sf_eta_consistency(path)["sf"] == 1
        assert res.value == 1
        assert [(c.t, c.direction) for c in res.log.crossings] == [(0.5, 1)]

    @pytest.mark.parametrize("big", [1e20, 1e308])
    def test_collapsing_norm_runs_without_a_runtime_warning(self, big):
        # ||H|| falls from big to 1 over the last step: whatever the step
        # rule decides there, no sum or square of the norms may overflow
        path = self.linear(np.diag([-1.0, big]), np.diag([1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                sf.spectral_flow(path)
            except RefinementExhausted:
                pass    # the open defect of the next test

    @pytest.mark.xfail(strict=True, raises=RefinementExhausted,
                       reason="the crossing windows are relative to max(1, ||H||) of the "
                              "larger end, so the last step fails at every depth once the "
                              "norm collapses by much more than 1e8 (FOUND in CHANGES.md)")
    @pytest.mark.parametrize("big", [1e20, 1e308])
    def test_collapsing_norm_gets_its_flow(self, big):
        path = self.linear(np.diag([-1.0, big]), np.diag([1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert sf.spectral_flow(path).value == 1