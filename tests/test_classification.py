"""The shared eigenphase classification policy: an eigenphase within tol of
+1 or -1 is there, one in the band (tol, 10 tol] is a ToleranceAmbiguity,
one farther out is not there, at every site that asks."""

import numpy as np
import pytest

import symflow as sf
from symflow._linalg import DEFAULT_TOL, crossing_signs, sign_classes
from symflow.errors import ToleranceAmbiguity

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
