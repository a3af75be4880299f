"""The sampled-path core shared by unitary and Hermitian paths."""

import numpy as np
import pytest

import symflow as sf
from symflow._linalg import require_unitary
from symflow.errors import NotUnitary, RefinementExhausted
from symflow.spectral_flow import _require_hermitian
from symflow.unitary_invariants import REFINE_LIMIT
from symflow.verification import random_unitary, rng_for


def _unitary_jump(t):
    return np.eye(1) if t < 1 / 3 else -np.eye(1)


def _hermitian_jump(t):
    return -np.eye(1) if t < 1 / 3 else np.eye(1)


@pytest.mark.parametrize("cls, gen", [(sf.UnitaryPath, _unitary_jump),
                                      (sf.HermitianPath, _hermitian_jump)],
                         ids=["unitary", "hermitian"])
def test_jump_exhausts_refinement_at_limit(cls, gen):
    # 1/3 is no dyadic point, so bisection never isolates the jump
    path = cls.from_generator(gen, initial_samples=2)
    with pytest.raises(RefinementExhausted, match=f"after {REFINE_LIMIT} bisections"):
        path.refined()


def test_reversed_unitary_path_negates_winding():
    v = random_unitary(rng_for(3, 0), 3)
    phases = np.array([0.3, -2.0, 2.5])
    rates = np.array([4.0, -3.0, 1.5])

    def gen(t):
        return v @ np.diag(np.exp(1j * (phases + rates * t))) @ v.conj().T

    # three samples are too coarse, so both directions refine through the generator
    path = sf.UnitaryPath.from_generator(gen, initial_samples=3)
    w = sf.wind(path).value
    assert w == 1
    assert sf.wind(path.reversed()).value == -w


@pytest.mark.parametrize("kind", ["unitary", "hermitian"])
def test_stacked_sample_check_names_the_failing_sample(kind):
    # all samples are checked as one stack; the 7th fails, and the message
    # is the one its own check gives, naming its t
    rng = rng_for(3, 1)
    ts = np.linspace(0.0, 1.0, 11)
    if kind == "unitary":
        mats = [random_unitary(rng, 3) for _ in ts]
        mats[6] = 1.001 * mats[6]
        cls, check = sf.UnitaryPath, lambda m, what: require_unitary(m, 1e-9, what)
    else:
        mats = [np.diag(rng.normal(size=3)).astype(complex) for _ in ts]
        mats[6][0, 1] = 1e-3
        cls, check = sf.HermitianPath, lambda m, what: _require_hermitian(m, 1e-9, what)
    with pytest.raises((NotUnitary, ValueError)) as alone:
        check(mats[6], f"sample at t={ts[6]}")
    with pytest.raises(type(alone.value)) as stacked:
        cls(list(zip(ts, mats)))
    assert str(stacked.value) == str(alone.value)
    assert f"t={ts[6]}" in str(stacked.value)
