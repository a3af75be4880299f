import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import symflow as sf
from symflow._linalg import unitary_phases, wrap_phase
from symflow.errors import (
    IdentityViolation,
    MethodDisagreement,
    NotUnitary,
    RefinementExhausted,
)
from symflow.unitary_invariants import _cut_matched
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

    def test_empty_path(self):
        # 0 x 0 samples have no eigenphase: the whole circle is their gap
        empty = np.zeros((0, 0))
        assert sf.wind(sf.UnitaryPath([(0.0, empty), (1.0, empty)])).value == 0

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
        path, closed = _rotation_path(rng_for(11, k), k, 3.0, initial_samples=33)
        assert closed != 0
        assert sf.wind(path).value == closed

    @pytest.mark.parametrize("k", [64, 96])
    def test_large_rotation_family_from_five_samples(self, k):
        # the same paths from 5 samples: each initial step moves eigenphases
        # by up to 3/4 rad, against a spacing near 2 pi / k
        path, closed = _rotation_path(rng_for(11, k), k, 3.0, initial_samples=5)
        assert sf.wind(path).value == closed

    def test_one_sign_rotation_family_at_k8(self):
        # rates of one sign in [1.5 pi, 3 pi] from 5 samples: every eigenphase
        # moves by 3 pi / 8 to 3 pi / 4 in each initial step, all one way
        wrong = []
        for seed in range(1, 31):
            rng = np.random.default_rng(seed)
            path, closed = _rotation_path(rng, 8, (1.5 * np.pi, 3.0 * np.pi), initial_samples=5)
            got = sf.wind(path).value
            if got != closed:
                wrong.append((seed, got, closed))
        assert not wrong


def _rotation_path(rng, k, rates, initial_samples):
    """t -> Q diag(e^{i(theta + rate t)}) Q* on a Haar frame Q, theta uniform
    in [-pi, pi], and its winding in closed form.  ``rates`` is r for rates
    uniform in [-r, r], or (lo, hi) for rates in [lo, hi] of one random sign."""
    q = random_unitary(rng, k)
    theta = rng.uniform(-np.pi, np.pi, k)
    if np.ndim(rates):
        rate = rng.choice([-1.0, 1.0]) * rng.uniform(*rates, k)
    else:
        rate = rng.uniform(-rates, rates, k)
    closed = int(np.sum(np.floor((theta + rate - np.pi) / (2 * np.pi))
                        - np.floor((theta - np.pi) / (2 * np.pi))))
    path = sf.UnitaryPath.from_generator(
        lambda t: (q * np.exp(1j * (theta + rate * t))) @ q.conj().T,
        initial_samples=initial_samples)
    return path, closed


def _step_pairs(rng, k, count, i):
    """Steps (U_a, U_b).  Even i: U_b = V e^{i s H} V* U_a, U_a Haar or, for
    i = 2 mod 4, with half its eigenphases in [-0.3, 0.3], ||H||_2 = 1 and
    s over two decades.  Odd i: U_a = Q diag(e^{i phi}) Q* with phi evenly
    spread but for one gap of width w in [0.5, 3], and U_b = Q diag(e^{i(phi
    + delta)}) Q*, every |delta| up to 1.5: curves that leave the edges of
    the gap can make the other end's widest gap narrow and put it elsewhere."""
    q = np.array([random_unitary(rng, k) for _ in range(count)])
    if i % 2:
        w = rng.uniform(0.5, 3.0, (count, 1))
        phi = rng.uniform(-np.pi, np.pi, (count, 1)) + (2.0 * np.pi - w) * np.arange(k) / max(k - 1, 1)
        delta = rng.uniform(-1.0, 1.0, (count, k)) * rng.uniform(0.3, 1.5, (count, 1))
        return tuple((q * np.exp(1j * f)[:, None, :]) @ q.conj().transpose(0, 2, 1)
                     for f in (phi, phi + delta))
    if i % 4 == 2:
        phi = rng.uniform(-np.pi, np.pi, (count, k))
        phi[:, : k // 2] = rng.uniform(-0.3, 0.3, (count, k // 2))
        q = (q * np.exp(1j * phi)[:, None, :]) @ q.conj().transpose(0, 2, 1)
    h = rng.normal(size=(count, k, k)) + 1j * rng.normal(size=(count, k, k))
    vals, vecs = np.linalg.eigh(h + h.conj().transpose(0, 2, 1))
    s = 10.0 ** rng.uniform(-1.5, 0.5, (count, 1)) / np.max(np.abs(vals), axis=1, keepdims=True)
    return q, ((vecs * np.exp(1j * s * vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)) @ q


def test_cut_matched_arcs_stay_within_theta():
    # on every step that the step test accepts, matched from its cut under a
    # random turn of the circle, no arc exceeds theta, the largest
    # |arg lambda(U_b U_a*)|, and the arcs add up to the step's det phase:
    # the matched pairs are the step's own curves
    rng = rng_for(24, 60)
    seen = {"accepted": 0, "rejected": 0, "shifted": 0, "narrow end": 0}
    for i, k in enumerate(np.repeat([1, 2, 3, 5, 8, 13, 32], 4)):
        ua, ub = _step_pairs(rng, k, 40, i)
        pa, pb = unitary_phases(ua), unitary_phases(ub)
        ok, steps = sf.UnitaryPath._steps(ua, pa, ub, pb)
        theta = np.max(np.abs(wrap_phase(steps - np.pi)), axis=1)
        for j in np.flatnonzero(ok):
            info = np.array([pa[j], pb[j]])
            eps = rng.uniform(-np.pi, np.pi)
            ordered = np.sort(-wrap_phase(eps - info), axis=1)
            matched = _cut_matched(ordered, info, eps)
            arcs = wrap_phase(matched - ordered[:1])
            assert np.max(np.abs(arcs)) <= theta[j] + 1e-12
            assert abs(np.sum(arcs) - np.sum(wrap_phase(steps[j] - np.pi))) <= 1e-9
            seen["shifted"] += not np.array_equal(matched[0], ordered[1])
            halves = [0.5 * np.max(np.diff(p, append=p[0] + 2.0 * np.pi)) for p in info]
            seen["narrow end"] += int(min(halves) <= theta[j])
        seen["accepted"] += int(np.count_nonzero(ok))
        seen["rejected"] += int(np.count_nonzero(~ok))
    assert min(seen.values()) > 20, seen


def reference_cut_matched(ordered, info, eps):
    """``_cut_matched`` one step at a time: the cut is the middle of the
    widest gap of the step's end with the wider one (the first on a tie), and
    both ends are paired in their order counted from the cut."""
    k = ordered.shape[1]
    matched = np.empty_like(ordered[1:])
    for j in range(len(ordered) - 1 if k else 0):
        best = (-1.0, 0.0)
        for p in info[j : j + 2]:
            gaps = np.mod(np.roll(p, -1) - p, 2.0 * np.pi) if k > 1 else np.array([2.0 * np.pi])
            i = int(np.argmax(gaps))
            if gaps[i] > best[0]:
                best = (gaps[i], p[i] + 0.5 * gaps[i])
        cut = best[1] - eps
        a = np.argsort(np.mod(ordered[j] - cut, 2.0 * np.pi), kind="stable")
        b = np.argsort(np.mod(ordered[j + 1] - cut, 2.0 * np.pi), kind="stable")
        matched[j, a] = ordered[j + 1, b]
    return matched


@pytest.mark.parametrize("k", [0, 1, 2, 3, 8, 33])
def test_cut_matching_as_one_pass_per_step(k):
    # the stacked shifts pair each step's ends as the loop over steps does,
    # bit for bit: a random walk of eigenphases (steps that keep their
    # curves) and then independent rows (steps that need not)
    rng = rng_for(25, k)
    walk = np.cumsum(rng.normal(0.0, 0.4, (30, k)), axis=0) + rng.uniform(-np.pi, np.pi, k)
    info = np.sort(wrap_phase(np.concatenate([walk, rng.uniform(-np.pi, np.pi, (10, k))])), axis=1)
    eps = rng.uniform(-np.pi, np.pi)
    ordered = np.sort(-wrap_phase(eps - info), axis=1)
    got = _cut_matched(ordered, info, eps)
    assert got.tobytes() == reference_cut_matched(ordered, info, eps).tobytes()
    assert k < 2 or not np.array_equal(got, ordered[1:])


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

    def test_inverse_phases_wind_as_the_inverse_samples(self):
        # the check's f^{-1} reuses f's eigenphases, negated in reverse
        # order; the inverse samples wound from scratch give the same integer,
        # with eigenphases planted at -1 at either end
        rng = rng_for(25, 48)
        for _ in range(60):
            k = int(rng.integers(1, 9))
            q = random_unitary(rng, k)
            theta = rng.uniform(-np.pi, np.pi, k)
            rate = rng.uniform(-3.0, 3.0, k)
            theta[: int(rng.integers(0, k + 1)) // 2] = np.pi
            end = int(rng.integers(0, k))
            rate[end] = np.pi - theta[end] + 2.0 * np.pi * float(rng.integers(-1, 2))
            path = sf.UnitaryPath.from_generator(
                lambda t, q=q, theta=theta, rate=rate:
                    (q * np.exp(1j * (theta + rate * t))) @ q.conj().T,
                initial_samples=5)
            refined = path.refined()
            inverse = sf.UnitaryPath([(t, u.conj().T) for t, u in
                                      zip(refined.times, refined.mats)])
            assert sf.wind_plus_inverse_check(path)[1] == sf.wind(inverse).value

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


class TestLeastArcMatching:
    """Curves that every matching moves by the same total arc."""

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
