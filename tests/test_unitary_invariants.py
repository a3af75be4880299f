import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

import symflow as sf
from symflow._linalg import ARC_TIE_TOL, least_arc_matching, wrap_phase
from symflow.errors import (
    IdentityViolation,
    MethodDisagreement,
    NotUnitary,
    RefinementExhausted,
)
from symflow.unitary_invariants import MAX_ARC
from symflow.verification import random_unitary, rng_for, unitary_with_minus_ones

EPS = 0.3


def one_by_one(fn):
    return lambda s: np.array([[fn(s)]])


class TestTrLog:
    def test_identity(self):
        assert sf.tr_log(np.eye(3)) == 0

    def test_minus_one_takes_plus_i_pi(self):
        assert abs(sf.tr_log(np.array([[-1.0]])) - 1j * np.pi) < 1e-14

    def test_two_eigenvalue_sum(self):
        val = sf.tr_log(np.diag([1j, np.exp(-2j * np.pi / 3)]))
        assert abs(val - (-1j * np.pi / 6)) < 1e-13

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            sf.tr_log(np.diag([2.0, 1.0]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_conjugation_invariance(self, seed):
        rng = rng_for(seed, 50)
        k = int(rng.integers(1, 5))
        u = unitary_with_minus_ones(rng, k, int(rng.integers(0, k + 1)))
        w = random_unitary(rng, k)
        assert abs(sf.tr_log(w @ u @ w.conj().T) - sf.tr_log(u)) < 1e-9 * k


class TestWind:
    def test_crossing_into_minus_one_counts_minus_one(self):
        path = sf.UnitaryPath.from_generator(
            one_by_one(lambda s: -np.exp(-2j * (s * EPS - EPS))))
        assert sf.wind(path).value == -1

    def test_departing_minus_one_counts_zero(self):
        path = sf.UnitaryPath.from_generator(
            one_by_one(lambda s: -np.exp(-2j * s * EPS)))
        assert sf.wind(path).value == 0

    def test_constant_path(self):
        path = sf.UnitaryPath([(0.0, np.eye(2)), (1.0, np.eye(2))])
        assert sf.wind(path).value == 0

    def test_full_loop(self):
        path = sf.UnitaryPath.from_generator(one_by_one(lambda s: np.exp(2j * np.pi * s)))
        r = sf.wind(path)
        assert r.value == 1
        assert r.log.total == 1

    def test_crossing_log_direction_and_time(self):
        path = sf.UnitaryPath.from_generator(one_by_one(lambda s: np.exp(2j * np.pi * s)))
        (crossing,) = sf.wind(path).log.crossings
        assert crossing.direction == 1
        assert 0.0 < crossing.t < 1.0

    def test_planted_multi_eigenvalue_crossings(self):
        # diagonal phases with known signed crossings of pi
        rng = rng_for(21, 49)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            v = random_unitary(rng, k)
            theta0 = rng.uniform(-2.8, 2.8, size=k)
            rate = rng.uniform(-4.0, 4.0, size=k)

            def gen(t, v=v, theta0=theta0, rate=rate):
                return v @ np.diag(np.exp(1j * (theta0 + rate * t))) @ v.conj().T

            expected = 0
            for a, b in zip(theta0, theta0 + rate):
                # signed crossings of the ray at angle pi (mod 2 pi)
                lo, hi = min(a, b), max(a, b)
                count = len([m for m in range(-4, 5)
                             if lo < np.pi + 2 * np.pi * m <= hi])
                expected += count if b > a else -count
            path = sf.UnitaryPath.from_generator(gen, initial_samples=33)
            assert sf.wind(path).value == expected

    def test_sample_only_violation_is_an_error(self):
        path = sf.UnitaryPath([(0.0, np.eye(1)), (1.0, -np.eye(1))])
        with pytest.raises(RefinementExhausted):
            sf.wind(path)

    def test_refinement_reaches_invariant_with_generator(self):
        gen = one_by_one(lambda s: np.exp(2j * np.pi * s))
        # the middle sample violates the step invariant; the generator fills in
        path = sf.UnitaryPath([(0.0, gen(0.0)), (0.5, gen(0.5)), (1.0, gen(1.0))],
                              generator=gen)
        assert sf.wind(path).value == 1

    def test_resampling_invariance(self):
        rng = rng_for(22, 48)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = 0.5 * (h + h.conj().T) * 2
        u0 = random_unitary(rng, 3)
        gen = lambda t: expm(1j * t * h) @ u0
        w1 = sf.wind(sf.UnitaryPath.from_generator(gen, initial_samples=9)).value
        w2 = sf.wind(sf.UnitaryPath.from_generator(gen, initial_samples=65)).value
        assert w1 == w2

    @pytest.mark.parametrize("k", [64, 96])
    def test_large_rotation_family_against_its_closed_form(self, k):
        # rotation paths on a Haar frame: each eigenphase theta + rate t
        # crosses -1 once for every odd multiple of pi it passes
        rng = rng_for(11, k)
        q = random_unitary(rng, k)
        theta = rng.uniform(-np.pi, np.pi, k)
        rate = rng.uniform(-3.0, 3.0, k)
        closed = int(np.sum(np.floor((theta + rate - np.pi) / (2 * np.pi))
                            - np.floor((theta - np.pi) / (2 * np.pi))))
        path = sf.UnitaryPath.from_generator(
            lambda t: (q * np.exp(1j * (theta + rate * t))) @ q.conj().T, initial_samples=33)
        assert closed != 0
        assert sf.wind(path).value == closed


class TestTauW:
    def test_identity_slots_vanish(self):
        rng = rng_for(23, 47)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            u = unitary_with_minus_ones(rng, k, int(rng.integers(0, min(k, 3) + 1)))
            assert sf.tau_w(np.eye(k), u) == 0
            assert sf.tau_w(u, np.eye(k)) == 0

    def test_inverse_counts_minus_one_eigenvalues(self):
        u = np.diag([-1.0, -1.0, 1j])
        assert sf.tau_w(u, u.conj().T) == -2

    def test_scalar_cube_root_example(self):
        w = np.exp(2j * np.pi / 3)
        assert sf.tau_w(np.array([[w]]), np.array([[w]])) == -1

    def test_path_definition_cross_check(self):
        rng = rng_for(24, 46)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            sf.tau_w(random_unitary(rng, k), random_unitary(rng, k), cross_check=True)

    def test_path_definition_cross_check_at_k32(self):
        # the principal_power paths start at U = I, on the pole of the samples
        rng = rng_for(24, 32)
        u, v = random_unitary(rng, 32), random_unitary(rng, 32)
        assert sf.tau_w(u, v, cross_check=True) == sf.tau_w(u, v)


class TestWindPlusInverse:
    def test_anchor_tuple(self):
        path = sf.UnitaryPath.from_generator(
            one_by_one(lambda s: -np.exp(-2j * (s * EPS - EPS))))
        assert sf.wind_plus_inverse_check(path) == (-1, 0, 0, 1)

    def test_constant_minus_identity(self):
        path = sf.UnitaryPath([(0.0, -np.eye(2)), (1.0, -np.eye(2))])
        assert sf.wind_plus_inverse_check(path) == (0, 0, 2, 2)

    def test_closed_loop_winds_cancel(self):
        path = sf.UnitaryPath.from_generator(one_by_one(lambda s: np.exp(2j * np.pi * s)))
        wf, wi, d0, d1 = sf.wind_plus_inverse_check(path)
        assert (d0, d1) == (0, 0)
        assert wf == -wi == 1

    def test_seeded_paths(self):
        rng = rng_for(25, 45)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            h = (h + h.conj().T) * 0.9
            u1 = unitary_with_minus_ones(rng, k, int(rng.integers(0, k + 1)))
            gen = lambda t, u1=u1, h=h: expm(1j * (1 - t) * h) @ u1
            sf.wind_plus_inverse_check(
                sf.UnitaryPath.from_generator(gen, initial_samples=17))

    def test_no_more_generator_calls_than_wind(self):
        # f^{-1} takes f's refined samples, conjugate-transposed: a k = 4
        # rotation path from 3 samples refines once, not once per direction
        v = random_unitary(rng_for(25, 47), 4)
        phases, rates = np.array([0.3, 1.9, -2.2, 3.0]), np.array([3.0, -2.5, 2.0, -1.0])
        calls = []

        def gen(t):
            calls.append(t)
            return (v * np.exp(1j * (phases + rates * t))) @ v.conj().T

        path = sf.UnitaryPath.from_generator(gen, initial_samples=3)
        calls.clear()
        wf = sf.wind(path).value
        by_wind = len(calls)
        calls.clear()
        assert sf.wind_plus_inverse_check(path)[0] == wf
        assert by_wind > 0 and len(calls) <= by_wind


class TestPathAdditivity:
    def test_concatenations(self):
        rng = rng_for(26, 44)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            h1 = (lambda m: (m + m.conj().T))(rng.normal(size=(k, k))
                                              + 1j * rng.normal(size=(k, k)))
            h2 = (lambda m: (m + m.conj().T))(rng.normal(size=(k, k))
                                              + 1j * rng.normal(size=(k, k)))
            u0 = random_unitary(rng, k)
            mid = expm(1j * h1) @ u0
            f1 = sf.UnitaryPath.from_generator(lambda t: expm(1j * t * h1) @ u0,
                                               initial_samples=17)
            f2 = sf.UnitaryPath.from_generator(lambda t: expm(1j * t * h2) @ mid,
                                               initial_samples=17)
            glue = sf.UnitaryPath.from_generator(
                lambda t: expm(2j * t * h1) @ u0 if t <= 0.5
                else expm(1j * (2 * t - 1) * h2) @ mid,
                initial_samples=33)
            assert sf.wind(glue).value == sf.wind(f1).value + sf.wind(f2).value


def reference_least_arc_matching(prev, nxt):
    """``least_arc_matching`` with one pass per cyclic shift."""
    k = prev.shape[1]
    best = np.zeros(len(prev), dtype=int)
    if k:
        costs = np.array([np.sum(np.abs(wrap_phase(np.roll(nxt, -shift, axis=1) - prev)), axis=1)
                          for shift in range(k)])
        best = np.argmax(costs <= np.min(costs, axis=0) + ARC_TIE_TOL, axis=0)
    matched = np.take_along_axis(nxt, (np.arange(k) + best[:, None]) % k, axis=1)
    return matched, wrap_phase(matched - prev)


class TestLeastArcMatching:
    """The eigenphase transport of ``wind`` matches consecutive samples by the
    cyclic shift of least total |arc|, which is a minimum-cost assignment."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 8, 33])
    def test_all_shifts_at_once_as_one_pass_per_shift(self, k):
        # the same matching as the loop over shifts, bit for bit, ties
        # included: rows of equally spaced phases turned by half their
        # spacing cost the same, up to rounding, under two shifts
        rng = rng_for(23, k)
        prev = np.sort(rng.uniform(-np.pi, np.pi, (40, k)), axis=1)
        nxt = np.sort(wrap_phase(prev + rng.normal(0.0, 0.4, (40, k))), axis=1)
        spaced = np.sort(wrap_phase(rng.uniform(-np.pi, np.pi, (8, 1))
                                    + 2.0 * np.pi * np.arange(k) / max(k, 1)), axis=1)
        turn = np.pi / max(k, 1) * rng.choice([-1.0, 1.0], (8, 1))
        prev[:8], nxt[:8] = spaced, np.sort(wrap_phase(spaced + turn), axis=1)
        got, want = least_arc_matching(prev, nxt), reference_least_arc_matching(prev, nxt)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @settings(max_examples=400, deadline=None)
    @given(k=st.integers(1, 12), data=st.data())
    def test_total_arc_is_the_assignment_optimum(self, k, data):
        phase = st.floats(-np.pi, np.pi, exclude_max=True)
        # duplicates come from a small pool, long arcs from near MAX_ARC and pi
        pool = data.draw(st.lists(phase, min_size=1, max_size=k))
        prev = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(pool), phase), min_size=k, max_size=k)))
        move = st.one_of(st.floats(-np.pi, np.pi),
                         st.sampled_from([0.0, MAX_ARC, -MAX_ARC, np.pi]),
                         st.floats(0.99 * MAX_ARC, MAX_ARC),
                         st.floats(-MAX_ARC, -0.99 * MAX_ARC))
        nxt = wrap_phase(prev + np.array(data.draw(st.lists(move, min_size=k, max_size=k))))
        rows = np.sort(np.array([prev, nxt]), axis=1)
        matched, arcs = least_arc_matching(rows[:1], rows[1:])
        assert sorted(matched[0]) == sorted(rows[1])
        cost = np.abs(wrap_phase(rows[1][None, :] - rows[0][:, None]))
        r, c = linear_sum_assignment(cost)
        assert abs(np.sum(np.abs(arcs)) - cost[r, c].sum()) <= 1e-12

    def test_rounding_level_tie_goes_to_the_smallest_shift(self):
        # both matchings cost 1.91; in floating point the swap is 8e-16 cheaper
        prev, nxt = np.array([[-0.51, -0.11]]), np.array([[0.36, 0.93]])
        matched, arcs = least_arc_matching(prev, nxt)
        assert matched.tolist() == [[0.36, 0.93]]
        assert arcs == pytest.approx(np.array([[0.87, 1.04]]), abs=1e-12)

    def test_tied_curves_crossing_log(self):
        # Both curves move by 0.3 through -1 and every next phase lies past
        # every previous one, so both matchings cost 0.6 up to rounding.  The
        # one chosen gives each curve its own arc; the other would log the
        # crossings at t = 11/14 and 0.9.
        def u(t):
            return np.diag(np.exp(1j * (np.pi + np.array([-0.25, -0.2]) + 0.3 * t)))

        r = sf.wind(sf.UnitaryPath([(0.0, u(0.0)), (1.0, u(1.0))]))
        eps = 0.025  # half the distance from -1 of the endpoint phase pi + 0.05
        assert r.value == 2
        got = [(c.t, c.direction, c.phase_before, c.phase_after) for c in r.log.crossings]
        want = [(0.75, 1, np.pi - 0.2 - eps, 0.1 - eps - np.pi),
                (0.275 / 0.3, 1, np.pi - 0.25 - eps, 0.05 - eps - np.pi)]
        assert got == [pytest.approx(w, abs=1e-12) for w in want]
