"""The shared eigenphase classification policy: an eigenphase within tol of
+1 or -1 is there, one in the band (tol, 10 tol] is a ToleranceAmbiguity,
one farther out is not there, at every site that asks."""

import numpy as np
import pytest

import symflow as sf
from symflow import _linalg
from symflow._linalg import (
    DEFAULT_TOL,
    at_phase,
    crossing_signs,
    sign_classes,
    unitary_phases,
    wrap_phase,
)
from symflow.errors import ToleranceAmbiguity
from symflow.verification import random_unitary, rng_for

POLICY_TOL = 5e-8
SPACE = sf.standard_space(1)


def _phi(theta):
    return np.array([[np.exp(1j * theta)]])


def _lag(theta):
    return sf.lagrangian_from_phi(SPACE, _phi(theta))


# site -> (tolerance, value with one eigenphase at distance d from +1 or -1,
#          value when it is counted as there, value when it is not)
POLICY_SITES = {
    "intersection_dim": (POLICY_TOL, lambda d: sf.intersection_dim(_lag(d), _lag(0.0),
                                                                   POLICY_TOL), 1, 0),
    # at the default tol the principal-angle cross-check shares the band:
    # d = 2e-8, 1e-7 and 1.9e-7 are not intersections, 5e-9 is ambiguous
    "intersection_dim_default_tol": (DEFAULT_TOL,
                                     lambda d: sf.intersection_dim(_lag(d), _lag(0.0)), 1, 0),
    "m_pairing": (POLICY_TOL, lambda d: sf.m_pairing(_lag(d), _lag(0.0), POLICY_TOL), 0.0, 1.0),
    "tr_log": (POLICY_TOL, lambda d: sf.tr_log(_phi(-np.pi + d), POLICY_TOL).imag / np.pi,
               1.0, -1.0),
    "tau_mu": (POLICY_TOL, lambda d: sf.tau_mu(_lag(-np.pi + d), _lag(0.0), _lag(-0.5 * np.pi),
                                               POLICY_TOL), 1, 0),
}


@pytest.mark.parametrize("factor", [0.5, 5.0, 20.0, 100.0, 190.0])
@pytest.mark.parametrize("site", sorted(POLICY_SITES))
def test_one_classification_policy(site, factor):
    tol, value_at, counted, not_counted = POLICY_SITES[site]
    if factor == 5.0:
        with pytest.raises(ToleranceAmbiguity):
            value_at(factor * tol)
    else:
        expected = counted if factor < 1 else not_counted
        assert value_at(factor * tol) == pytest.approx(expected, abs=1e-5)


def _start_near_minus_one(offset):
    """t -> diag(e^{i(pi - offset - t)}, 1): leaves the neighbourhood of -1."""
    return sf.UnitaryPath.from_generator(
        lambda t: np.diag([np.exp(1j * (np.pi - offset - t)), 1.0]))


def test_inverse_check_start_within_tol_of_minus_one():
    assert sf.wind_plus_inverse_check(_start_near_minus_one(5e-10)) == (0, 1, 1, 0)


def test_inverse_check_honours_tol():
    assert sf.wind_plus_inverse_check(_start_near_minus_one(5e-8), 1e-7) == (0, 1, 1, 0)


def test_tau_w_cross_check_near_the_cut():
    u = np.array([[np.exp(1j * (-np.pi + 5e-10))]])
    assert sf.tau_w(u, u.conj().T, cross_check=True) == -1


def test_wind_endpoint_shift_needs_no_second_classification():
    # 1.5e-8 from -1 is outside the band, so the endpoint shift is half of it;
    # the shifted eigenphase then lies inside the band and must not be
    # classified again
    c = np.diag([np.exp(1j * (-np.pi + 1.5e-8)), 1.0])
    assert sf.wind(sf.UnitaryPath([(0.0, c), (1.0, c)])).value == 0


def test_crossing_rule_counts_zero_as_nonnegative():
    before = [-1.0, 0.0, 1.0, -1.0, 0.0, -2.0]
    after = [0.0, -1.0, -1.0, -2.0, 0.0, 3.0]
    assert list(crossing_signs(before, after)) == [1, -1, -1, 0, 0, 1]
    assert list(crossing_signs(sign_classes(np.array(before), 0.5),
                               sign_classes(np.array(after), 1.0))) == [1, 0, 0, 0, 0, 1]


# -- the Cayley eigenphase kernel ---------------------------------------------

def _with_phases(q, theta):
    return (q * np.exp(1j * np.asarray(theta))) @ q.conj().T


def _circular_gap(got, want):
    """Largest circular distance from a phase of either row to the nearest
    phase of the other (rows of distinct phases, any representation)."""
    d = np.abs(wrap_phase(got[:, None] - want[None, :]))
    return max(d.min(axis=1).max(), d.min(axis=0).max())


@pytest.mark.parametrize("k", [1, 2, 8, 32, 96])
def test_kernel_agrees_with_eigvals_on_haar_stacks(k):
    rng = rng_for(21, k)
    stack = np.array([random_unitary(rng, k) for _ in range(12)])
    got = unitary_phases(stack)
    want = np.sort(np.angle(np.linalg.eigvals(stack)), axis=1)
    for g, w in zip(got, want):
        assert np.all(np.diff(g) >= 0.0)
        assert _circular_gap(g, w) <= 1e-12 * k


def _recording_cayley(monkeypatch):
    """The stacks handed to the Cayley transform, in call order."""
    seen = []
    cayley = _linalg._cayley

    def recording(v):
        seen.append(v)
        return cayley(v)

    monkeypatch.setattr(_linalg, "_cayley", recording)
    return seen


def test_identity_moves_the_pole(monkeypatch):
    # an exact U = I makes the first inverse singular
    seen = _recording_cayley(monkeypatch)
    got = unitary_phases(np.eye(3)[None])
    assert len(seen) == 2 and not np.allclose(seen[1], np.eye(3))
    assert np.max(np.abs(wrap_phase(got))) <= 1e-15


def test_eigenvalue_next_to_the_pole_moves_it(monkeypatch):
    q = random_unitary(rng_for(21, 0), 6)
    theta = np.array([1e-14, 0.7, -1.9, 2.5, -0.2, 3.1])
    seen = _recording_cayley(monkeypatch)
    got = unitary_phases(_with_phases(q, theta)[None])[0]
    assert len(seen) == 2
    assert _circular_gap(got, theta) <= 1e-14
    # the new pole p is the middle of the largest gap, (0.7, 2.5), as the
    # first solve places it (its phases are off by 1e-2 there): V = e^{-ip} U
    pole = -np.angle(np.trace(seen[1][0] @ _with_phases(q, -theta)))
    assert abs(pole - 1.6) < 0.02


def test_sign_convention():
    theta = np.array([0.3, -2.0, 3.0])
    u = np.diag(np.exp(1j * theta))[None]
    assert np.allclose(_linalg._cayley(u)[0], np.sort(-1.0 / np.tan(0.5 * theta)), atol=1e-14)
    # counterclockwise from just after the pole
    assert np.allclose(unitary_phases(u)[0], [0.3, 3.0, 2 * np.pi - 2.0], atol=1e-15)
    # -U puts the pole at -1: its phases are those of U plus pi
    assert np.allclose(unitary_phases(-u)[0], [np.pi - 2.0, np.pi + 0.3, np.pi + 3.0],
                       atol=1e-15)


def test_cluster_at_minus_one_is_classified_as_before():
    tol = DEFAULT_TOL
    q = random_unitary(rng_for(21, 1), 8)
    cluster = [np.pi - 0.5 * tol, np.pi, -np.pi + 0.5 * tol]
    rest = [0.4, -1.1, 2.2, -2.9, 1.3]
    phases = wrap_phase(unitary_phases(_with_phases(q, cluster + rest)[None])[0])
    assert np.count_nonzero(at_phase(phases, np.pi, tol)) == 3
    murky = wrap_phase(unitary_phases(_with_phases(q, cluster + [np.pi - 5 * tol] + rest[1:])[None])[0])
    with pytest.raises(ToleranceAmbiguity):
        at_phase(murky, np.pi, tol)
    # the kernel dimensions of the inverse check, from the same phases
    path = sf.UnitaryPath.from_generator(
        lambda t: _with_phases(q, np.array(cluster + rest) - t))
    wf, wi, d0, d1 = sf.wind_plus_inverse_check(path)
    assert (d0, d1) == (3, 0) and wf + wi == 3


def test_each_member_is_decided_as_it_is_alone():
    rng = rng_for(21, 2)
    q = random_unitary(rng, 5)
    stack = np.array([random_unitary(rng, 5), np.eye(5),
                      _with_phases(q, [1e-13, 1.0, 2.0, -1.0, -2.5]),
                      random_unitary(rng, 5), -np.eye(5)])
    for sign in (1.0, -1.0):
        together = unitary_phases(sign * stack)
        for i, member in enumerate(sign * stack):
            assert np.array_equal(together[i], unitary_phases(member[None])[0])


def test_unitary_step_at_length_two_fails():
    # an eigenvalue -1 of b a* makes the Cayley inverse about -1 singular:
    # the pole moves, and the step moves an eigenphase by pi
    a, b = np.eye(8)[None], np.diag([-1.0] + [1.0] * 7)[None]
    ok, steps = sf.UnitaryPath._steps(a, unitary_phases(a), b, unitary_phases(b))
    assert not ok[0]
    assert np.max(np.abs(wrap_phase(steps[0] - np.pi))) == pytest.approx(np.pi, abs=1e-12)
