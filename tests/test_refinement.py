"""The step certificate and the sampled-path core.

Every norm test first tries a Frobenius bound, which can only give the exact
answer, and takes the exact 2-norm when that bound cannot decide; a refined
path is validated and eigen-solved once per sample, and each bisection level
is one stacked eigen-solve.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symflow as sf
from symflow import model_dirac as md
from symflow._linalg import norm_at_most, norms_below, require_unitary, unitary_phases
from symflow.spectral_flow import HUGE_NORM, _cluster_gap, _root, _scale
from symflow.unitary_invariants import REFINE_LIMIT, STEP_ARC_BOUND
from symflow.errors import NotUnitary, RefinementExhausted
from symflow.verification import (
    planted_anticommuting,
    random_boundary_on_h,
    random_unitary,
    rng_for,
)

K = 8


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), rank=st.integers(1, 8),
       hermitian=st.booleans(), ratio=st.floats(0.5, 2.0))
def test_step_test_is_the_exact_two_norm_test(seed, k, rank, hermitian, ratio):
    # A Hermitian step d: ratio = ||d||_2 / bound in [0.5, 2]; the rank
    # spreads the Frobenius norm over [||d||_2, sqrt(k) ||d||_2], so all
    # three verdict paths of norms_below are taken.  A unitary step u1 =
    # exp(i H) u0, H of the given rank and ||H||_2 = ratio * STEP_ARC_BOUND:
    # it passes when theta = ||H||_2 is below the cap and below half the
    # widest eigenphase gap of an end, here from eigvals.  Within rounding
    # of the bound two ways of computing a norm may round apart, so the
    # bound stays clear of it.
    assume(abs(ratio - 1.0) > 1e-9)
    rng = np.random.default_rng(seed)
    rank = min(rank, k)
    v = random_unitary(rng, k)
    spectrum = np.zeros(k)
    spectrum[:rank] = rng.uniform(-1.0, 1.0, rank)
    if hermitian:
        d = (v * spectrum) @ v.conj().T
        norm = np.linalg.norm(d, 2)
        if norm == 0.0:
            return
        bound = norm / ratio
        assert norms_below(np.zeros_like(d)[None], d[None], bound)[0] == (norm < bound)
        return
    u0 = random_unitary(rng, k)
    theta = ratio * STEP_ARC_BOUND
    u1 = ((v * np.exp(1j * theta * spectrum / np.max(np.abs(spectrum)))) @ v.conj().T) @ u0
    half = 0.0
    for u in (u0, u1):
        phases = np.sort(np.angle(np.linalg.eigvals(u)))
        half = max(half, 0.5 * np.max(np.diff(phases, append=phases[0] + 2.0 * np.pi)))
    limit = min(STEP_ARC_BOUND, half)
    assume(abs(theta / limit - 1.0) > 1e-9)
    ends = np.array([u0, u1])
    p = unitary_phases(ends)
    assert sf.UnitaryPath._steps(ends[:1], p[:1], ends[1:], p[1:])[0][0] == (theta < limit)


def _equal_singular_defect(size):
    """i*size/2 * I_K: h - h* = i*size*I has K equal singular values, so its
    Frobenius norm is sqrt(K) = 2.8 times its 2-norm."""
    return 0.5j * size * np.eye(K)


def test_hermitian_check_accepts_through_the_fallback():
    h = _equal_singular_defect(5e-9)
    skew = h - h.conj().T
    assert np.linalg.norm(skew, 2) < 1e-8 < np.linalg.norm(skew)
    assert sf.eta_finite(h) == (0, K, K / 2)


def test_hermitian_check_rejects_just_above_ten_tol():
    with pytest.raises(ValueError, match="not Hermitian"):
        sf.eta_finite(_equal_singular_defect(1.01e-8))


def _scaled_identity(defect):
    """(1 + eps) I_K with ||U*U - I||_2 = defect, equal singular values."""
    return np.sqrt(1.0 + defect) * np.eye(K, dtype=complex)


def test_unitary_check_accepts_through_the_fallback():
    u = _scaled_identity(5e-8)      # the limit is 10 * tol * K = 8e-8
    gram = u.conj().T @ u - np.eye(K)
    assert np.linalg.norm(gram, 2) < 8e-8 < np.linalg.norm(gram)
    assert require_unitary(u) is not None


def test_unitary_check_rejects_just_above_its_limit():
    with pytest.raises(NotUnitary, match="fails unitarity by 8.1"):
        require_unitary(_scaled_identity(8.1e-8))


def test_unitary_check_rejects_overflowing_entries_quietly():
    # the Gram product of an entry near 1e200 would overflow (two numpy
    # RuntimeWarnings, then a NaN defect); such a matrix fails on its
    # Frobenius norm before that product is formed
    u = np.eye(3, dtype=complex)
    u[0, 1] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnitary, match=r"entry of modulus 1\.000e\+200"):
            require_unitary(u)


def _of_rank(rng, rows, cols, rank, norm, flat=False):
    """A rows x cols matrix of the given rank and 2-norm; ``flat``: all its
    nonzero singular values equal, so the Frobenius norm is sqrt(rank) times
    the 2-norm."""
    sv = np.ones(rank) if flat else np.sort(rng.uniform(0.05, 1.0, rank))[::-1]
    sv[0] = 1.0
    u = random_unitary(rng, rows)[:, :rank]
    v = random_unitary(rng, cols)[:, :rank]
    return norm * (u * sv) @ v.conj().T


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), cols=st.integers(1, 6),
       rank=st.integers(1, 6), flat=st.booleans(), ratio=st.floats(0.5, 2.0),
       scale_norm=st.one_of(st.none(), st.floats(0.2, 5.0)))
def test_nearness_test_is_the_exact_two_norm_test(seed, rows, cols, rank, flat, ratio,
                                                  scale_norm):
    # ratio = ||x||_2 over the limit, which is c or c * max(1, ||S||_2); the
    # ranks spread both Frobenius norms, so every verdict path is taken
    assume(abs(ratio - 1.0) > 1e-9)
    rng = np.random.default_rng(seed)
    x = _of_rank(rng, rows, cols, min(rank, rows, cols), 1.0, flat)
    scale = None
    limit = 1.0 / ratio
    if scale_norm is not None:
        scale = _of_rank(rng, rows, rows, int(rng.integers(1, rows + 1)), scale_norm)
        limit /= max(1.0, np.linalg.norm(scale, 2))
    assert norm_at_most(x, limit, scale) == (ratio < 1.0)


@pytest.mark.parametrize("k", range(1, 9))
def test_nearness_test_is_tight_on_equal_singular_values(k):
    # ||I_k||_F = sqrt(k) ||I_k||_2: the Frobenius lower bound is the 2-norm
    eye = np.eye(k, dtype=complex)
    assert norm_at_most(eye, 1.0 + 1e-9) and not norm_at_most(eye, 1.0 - 1e-9)
    assert norm_at_most(eye, (1.0 + 1e-9) / 3.0, scale=3.0 * eye)
    assert not norm_at_most(eye, (1.0 - 1e-9) / 3.0, scale=3.0 * eye)


def test_nearness_test_overflows_to_the_exact_norm():
    # entries of 1e200 overflow the Frobenius sum of squares; the verdict
    # comes from the exact 2-norm, without a RuntimeWarning
    huge = 1e200 * np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not norm_at_most(huge, 1e199)
        assert norm_at_most(huge, 2e-9, scale=5e208 * np.eye(3))
        assert not norm_at_most(huge, 1e-9, scale=5e208 * np.eye(3))


@pytest.fixture()
def two_norms(monkeypatch):
    """Number of norm(M, 2) calls on a matrix, each an SVD."""
    calls = [0]
    norm = np.linalg.norm

    def counting_norm(x, ord=None, *args, **kwargs):
        calls[0] += ord == 2 and np.ndim(x) == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    return calls


def test_validation_of_well_formed_input_takes_no_two_norm(two_norms):
    # a model, its double space, Cauchy data, an interval spectrum, the
    # adiabatic limit (a symplectic reduction), a Hermitian and a unitary
    # check: every nearness test is settled by the Frobenius bounds
    rng = rng_for(58, 23)
    sp = sf.standard_space(3)
    op = md.build_model(sp, planted_anticommuting(sp, [0.5, 1.5], rng), md.Interval(1.2))
    p, q = random_boundary_on_h(op, rng), random_boundary_on_h(op, rng)
    assert md.interval_spectrum(op, p, q, 10.0).size
    md.adiabatic_limit(op, nu=0.6)
    sf.eta_finite(np.diag([1.0, -2.0, 3.0]))
    require_unitary(random_unitary(rng, 4))
    assert two_norms[0] == 0


# -- one validation and one eigen-solve per sample ---------------------------

V = random_unitary(rng_for(7, 0), K)
START = np.linspace(0.5, 4.0, K)
SLOPE = np.array([-0.45, 1.0, -0.5, 0.3, 0.0, -1.0, 0.5, 1.0])
PHASES = np.linspace(-3.0, 3.0, K)
RATES = np.linspace(-4.0, 5.0, K)


def _hermitian_path():
    return sf.HermitianPath.from_generator(
        lambda t: V @ np.diag(START + SLOPE * t) @ V.conj().T, initial_samples=3)


def _unitary_path(initial_samples=3):
    return sf.UnitaryPath.from_generator(
        lambda t: V @ np.diag(np.exp(1j * (PHASES + RATES * t))) @ V.conj().T,
        initial_samples=initial_samples)


# the sample sets of recursive midpoint bisection under the current step
# rules; the Hermitian path has no crossing, so every split is a midpoint
HERMITIAN_TIMES = [0.0, 0.5, 0.75, 0.875, 1.0]
UNITARY_TIMES = [0.0, 0.0625, 0.125, 0.1875, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]


def test_refined_samples_are_those_of_recursive_bisection():
    assert _hermitian_path().refined().times == HERMITIAN_TIMES
    assert _unitary_path().refined().times == UNITARY_TIMES


@pytest.fixture()
def lapack_calls(monkeypatch):
    """Calls of the eigen-solvers, SVDs and inverses numpy offers; norm(., 2)
    of a matrix counts as an SVD, which numpy runs through an internal binding."""
    calls = {"svd": 0, "eigvalsh": 0, "eigvals": 0, "inv": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "eigvals", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    norm = np.linalg.norm

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            calls["svd"] += 1
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    return calls


def _rounds(times) -> int:
    """Rounds of level-order bisection behind a sample set: the initial one
    plus one per level, 0.5 / 2**levels being the finest step."""
    return 1 + int(round(np.log2(0.5 / np.min(np.diff(times)))))


@pytest.mark.parametrize("run", [sf.spectral_flow, sf.sf_eta_consistency],
                         ids=["spectral_flow", "sf_eta_consistency"])
def test_hermitian_hot_path_counts(lapack_calls, run):
    path = _hermitian_path()
    lapack_calls.update(svd=0, eigvalsh=0)
    result = run(path)
    assert lapack_calls["svd"] == 0
    # one stacked solve of the new samples per round, at most one of fallbacks
    assert lapack_calls["eigvalsh"] <= 2 * _rounds(HERMITIAN_TIMES)
    assert (result.value if run is sf.spectral_flow else result["sf"]) == 0


def _wind_calls(lapack_calls, samples):
    path = _unitary_path(initial_samples=samples)
    lapack_calls.update(svd=0, eigvals=0, eigvalsh=0, inv=0)
    assert sf.wind(path).value == 1
    assert lapack_calls["svd"] == 0
    assert lapack_calls["eigvals"] == 0
    assert lapack_calls["eigvalsh"] == lapack_calls["inv"]
    return lapack_calls["eigvalsh"]


def test_wind_hot_path_counts(lapack_calls):
    # steps of at most 5/16 rad pass the step test.  No sample has an
    # eigenphase near +1: one stacked Cayley inverse and eigvalsh of the
    # samples (pole +1) and one of the negated step products (pole -1 of the
    # products), which the refined path keeps for wind
    assert _wind_calls(lapack_calls, 17) == 2


def test_wind_pole_move_counts(lapack_calls):
    # at 33 samples the phase 3 + 5t is 1.9e-3 from +1 at t = 21/32, where
    # |lambda| = 1035 passes CAYLEY_BOUND: that sample alone is solved again
    # about the middle of its largest eigenphase gap
    assert _wind_calls(lapack_calls, 33) == 3


def test_inverse_check_solves_as_much_as_wind(lapack_calls):
    # f^{-1} takes f's sample and step-product eigenphases, negated in
    # reverse order: the check solves what wind solves on the same path
    by_wind = _wind_calls(lapack_calls, 17)
    lapack_calls.update(eigvalsh=0, inv=0)
    assert sf.wind_plus_inverse_check(_unitary_path(initial_samples=17))[0] == 1
    assert lapack_calls["eigvalsh"] == by_wind == 2


def test_bisecting_wind_takes_no_svd(lapack_calls):
    # every initial step of the 3-sample path fails and is bisected; each
    # step is decided from the eigenphases of its step product
    path = _unitary_path()
    lapack_calls.update(svd=0)
    assert sf.wind(path).value == 1
    assert lapack_calls["svd"] == 0


# -- the chord-Weyl step rule and the falsi split -----------------------------

def _herm(rng, k):
    h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return 0.5 * (h + h.conj().T)


def test_accepted_steps_keep_the_sign_of_every_curve_outside_the_windows():
    # steps between ha and ha + d with eigenvalues near zero and ||d|| spread
    # over three decades, so that both verdicts occur.  A third of the steps
    # has one eigenvalue of ha in the crossing window; another third has a
    # kernel of dimension 1 or 2 that d moves only through its coupling to the
    # other eigenvectors, so that it often stays in the windows at both ends
    # while the chord bends it away.  Along the chord of every accepted step,
    # at 257 points, a sorted curve in the window at neither end keeps its
    # sign; a curve in the window at an end crosses zero at most once,
    # counting the sign classes at the ends and the chord values more than
    # twice the window from zero
    rng = rng_for(15, 1)
    path = sf.HermitianPath([(0.0, np.eye(1)), (1.0, np.eye(1))])
    accepted = rejected = 0
    planted = {"one end": 0, "both ends": 0}
    for i in range(900):
        k = int(rng.integers(2, 9))
        v = random_unitary(rng, k)
        lam = rng.uniform(-1.0, 1.0, k) ** 3
        d = _herm(rng, k)
        if i % 3 == 1:
            lam[rng.integers(k)] = rng.choice([0.0, 1.0, -1.0]) * rng.uniform(0.0, 1e-4)
        elif i % 3 == 2:
            kernel = int(rng.integers(1, min(k, 3)))
            lam[:kernel] = 0.0
            d[:kernel, :kernel] = 0.0
        ha = (v * lam) @ v.conj().T
        hb = ha + v @ d @ v.conj().T * 10.0 ** rng.uniform(-3.0, 0.0) / np.linalg.norm(d, 2)
        if rng.uniform() < 0.5:
            ha, hb = hb, ha
        va, vb = np.linalg.eigvalsh(ha), np.linalg.eigvalsh(hb)
        if not path._steps_ok(ha[None], va[None], hb[None], vb[None])[0]:
            rejected += 1
            continue
        accepted += 1
        wa, wb = path._window(_scale(va)), path._window(_scale(vb))
        in_a, in_b = np.abs(va) <= wa, np.abs(vb) <= wb
        chord = np.linalg.eigvalsh([(1 - s) * ha + s * hb for s in np.linspace(0, 1, 257)])
        away = ~in_a & ~in_b
        assert np.all(np.sign(chord[:, away]) == np.sign(va[away]))
        for j in np.flatnonzero(~away):
            planted["both ends" if in_a[j] and in_b[j] else "one end"] += 1
            inner = chord[1:-1, j]
            nonneg = np.concatenate([[va[j] >= -path.tol * max(1.0, np.max(np.abs(va)))],
                                     inner[np.abs(inner) > 2 * max(wa, wb)] >= 0,
                                     [vb[j] >= -path.tol * max(1.0, np.max(np.abs(vb)))]])
            assert np.sum(nonneg[1:] != nonneg[:-1]) <= 1
    assert accepted > 100 and rejected > 100 and min(planted.values()) > 30


def reference_steps_ok(path, ha, va, hb, vb):
    """``HermitianPath._steps_ok`` with every term evaluated on every step:
    each end's window from its eigenvalues and the held-cluster term masked,
    not skipped, where no curve is in the windows at both ends."""
    wa, wb = (np.maximum(4.0 * path.tol, 1e-4) * _scale(v) for v in (va, vb))
    size = np.maximum(_scale(va), _scale(vb))
    huge = size >= HUGE_NORM
    if np.count_nonzero(huge):
        f = np.where(huge, np.ldexp(1.0, 256 - np.frexp(size)[1]), 1.0)
        ha, hb = ha * f[:, None, None], hb * f[:, None, None]
        va, vb, wa, wb = va * f[:, None], vb * f[:, None], wa * f, wb * f
    w = np.maximum(wa, wb)[:, None]
    ma, mb = np.abs(va), np.abs(vb)
    in_a, in_b = ma <= wa[:, None], mb <= wb[:, None]
    up = 0.5 * (np.diff(va, axis=-1) + np.diff(vb, axis=-1))
    pad = np.full(up.shape[:-1] + (1,), np.inf)
    d = np.minimum(np.concatenate([up, pad], axis=-1), np.concatenate([pad, up], axis=-1))
    held = in_a & in_b
    c = np.maximum(_cluster_gap(va, held), _cluster_gap(vb, held))
    logged = np.maximum(np.maximum(ma, mb), _root(np.maximum(np.abs(vb - va), 8.0 * w), d))
    logged = np.maximum(logged, np.where(held, _root(2.0 * w, 0.5 * c), 0.0))
    bound = np.where(in_a | in_b, logged, np.where(va * vb > 0, ma + mb, 0.0))
    return norms_below(ha, hb, np.maximum(w[:, 0], np.min(bound, axis=-1, initial=np.inf)))


def _step_stack(rng, k, steps, near_zero):
    """Seeded steps (ha, hb), ||hb - ha||_2 spread over [1e-4, 2].
    ``near_zero`` eigenvalues of ha lie within 1e-5 of zero and the step
    barely moves them but through their coupling to the others, so that they
    often stay in the windows at both ends; the other eigenvalues are at
    least 0.05 from zero.  The windows grow with ||H||: half the steps are
    scaled by up to 1e3, and a third moved by up to 600."""
    ha, hb = [], []
    for i in range(steps):
        v = random_unitary(rng, k)
        lam = rng.choice([-1.0, 1.0], k) * rng.uniform(0.05, 1.0, k)
        d = _herm(rng, k)
        d *= 10.0 ** rng.uniform(-4.0, 0.3) / np.linalg.norm(d, 2)
        if i % 2:
            lam[near_zero:] *= 10.0 ** rng.uniform(0.0, 3.0)
        if i % 3 == 2:  # ||hb|| up to 300 ||ha||: the windows of the two ends differ
            d *= 10.0 ** rng.uniform(0.0, 2.5)
        lam[:near_zero] = rng.uniform(-1e-5, 1e-5, near_zero)
        d[:near_zero, :near_zero] *= 1e-3
        a = (v * lam) @ v.conj().T
        ha.append(a)
        hb.append(a + v @ d @ v.conj().T)
    return np.array(ha), np.array(hb)


@pytest.mark.parametrize("k", [1, 2, 8, 32])
def test_step_rule_keeps_its_verdicts(k):
    # the step rule takes the held-cluster term only where some curve is in
    # the windows at both ends; its verdicts are those of the rule evaluated
    # in full, on stacks with and without held curves, each with one step
    # past HUGE_NORM, and each step decides alone as in its stack
    rng = rng_for(23, k)
    path = sf.HermitianPath([(0.0, np.eye(1)), (1.0, np.eye(1))])
    window = np.maximum(4.0 * path.tol, 1e-4)
    seen = {"held": 0, "passed": 0, "failed": 0}
    for near_zero in (0, 1, min(2, k)):
        ha, hb = _step_stack(rng, k, 60, near_zero)
        ha[7], hb[7] = ha[7] * 2.0 ** 600, hb[7] * 2.0 ** 600
        va, vb = np.linalg.eigvalsh(ha), np.linalg.eigvalsh(hb)
        held = ((np.abs(va) <= window * _scale(va)[:, None])
                & (np.abs(vb) <= window * _scale(vb)[:, None])).any(axis=1)
        assert held.any() == (near_zero > 0)
        got = path._steps_ok(ha, va, hb, vb)
        assert np.array_equal(got, reference_steps_ok(path, ha, va, hb, vb))
        for i in range(60):
            one = slice(i, i + 1)
            assert path._steps_ok(ha[one], va[one], hb[one], vb[one])[0] == got[i]
        seen["held"] += int(np.count_nonzero(held))
        seen["passed"] += int(np.count_nonzero(got))
        seen["failed"] += int(np.count_nonzero(~got))
    assert min(seen.values()) > 5, seen


@pytest.mark.parametrize("curve", [lambda t: np.exp(12.0 * t) - 2.0,
                                   lambda t: (t - 0.3) ** 3,
                                   lambda t: np.tanh(200.0 * (t - 0.61))],
                         ids=["exp", "cube", "tanh"])
@pytest.mark.parametrize("initial_samples", [2, 3, 9])
def test_falsi_lands_one_crossing(curve, initial_samples):
    # a convex curve (falsi keeps one end), a triple root and a steep step:
    # the split falls back to midpoints where falsi does not halve a step
    path = sf.HermitianPath.from_generator(lambda t: np.array([[curve(t)]]),
                                           initial_samples=initial_samples)
    result = sf.spectral_flow(path)
    assert result.value == 1 and len(result.log.crossings) == 1


def test_falsi_splits_keep_the_refinement_limit():
    # values -1 and 100 put every falsi point at the 1/16 clip; a jump is never
    # certified, and refinement still gives up after REFINE_LIMIT halvings,
    # having evaluated the generator at most twice per halving
    calls = []

    def jump(t):
        calls.append(t)
        return np.array([[-1.0 if t < 1 / 3 else 100.0]])

    path = sf.HermitianPath.from_generator(jump, initial_samples=2)
    calls.clear()
    with pytest.raises(RefinementExhausted, match=r"after 2[4-9](\.\d+)? bisections"):
        path.refined()
    assert REFINE_LIMIT < len(calls) <= 2 * REFINE_LIMIT


def test_bench7_family_at_k64_takes_few_samples():
    # t -> (1 - t) A + t B with A, B from rng_for(11, 64), 5 initial samples:
    # bisection to 2 ||dH|| < min |lambda| took 1362 samples
    rng = rng_for(11, 64)
    a, b = _herm(rng, 64), _herm(rng, 64)
    path = sf.HermitianPath.from_generator(lambda t: (1 - t) * a + t * b, initial_samples=5)
    refined = path.refined()
    assert len(refined.times) <= 400
    inertia = int(np.sum(np.linalg.eigvalsh(a) < 0) - np.sum(np.linalg.eigvalsh(b) < 0))
    assert sf.spectral_flow(path).value == inertia


def test_planted_commuting_crossings_are_timed_exactly():
    # V diag(a0 + (a1 - a0) t) V*: a0, a1 in +-[0.2, 1], the first `crossings`
    # curves change sign, one path in four starts with a kernel; each planted
    # crossing is logged at a0 / (a0 - a1), in its direction
    rng = rng_for(15, 2)
    for i in range(60):
        k, crossings = [(2, 1), (8, 2), (32, 4)][i % 3]
        v = random_unitary(rng, k)
        s0 = rng.choice([-1.0, 1.0], size=k)
        s1 = s0.copy()
        s1[:crossings] *= -1.0
        a0 = s0 * rng.uniform(0.2, 1.0, size=k)
        a1 = s1 * rng.uniform(0.2, 1.0, size=k)
        if i % 4 == 0:
            a0[-1] = 0.0
        path = sf.HermitianPath.from_generator(lambda t: (v * (a0 + (a1 - a0) * t)) @ v.conj().T,
                                               initial_samples=5)
        signs = (a0 < 0).astype(int) - (a1 < 0)
        order = np.argsort(a0 / (a0 - a1))
        want = [(a0[j] / (a0[j] - a1[j]), signs[j]) for j in order if signs[j]]
        got = [(c.t, c.direction) for c in sf.spectral_flow(path).log.crossings]
        assert [d for _, d in got] == [d for _, d in want]
        assert np.allclose([t for t, _ in got], [t for t, _ in want], rtol=0.0, atol=1e-9)


def _bend(t, lift):
    sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    return (lift - np.sqrt(200.0) + 5.0 * t) * np.eye(2) + 10.0 * sz + 10.0 * (1 - 2 * t) * sx


BEND_UP = (400.0 - 10.0 * np.sqrt(200.0)) / 375.0


# corner: a curve leaves the kernel downward at t = 0 while another rises
# through 0 at t ~ 0.226; in the first step the sorted curve in the window
# only goes from 0 to +0.025.  The two curves meet at t ~ 0.15, where the
# sorted curve has a corner and the step rule cannot certify it monotone on
# a step across it.  bend: (lift - sqrt(200) + 5t) I + 10 sz + 10 (1 - 2t) sx
# on its one initial step, ||dH|| = 25: the upper curve runs from `lift`
# down to -1.64 at t = 0.5 and back up through 0 at t ~ 0.6895, the lower
# one from -28.3 to -23.3; the step is below the lower curve's gap but not
# below what keeps the upper curve monotone.  From 0 or from +5e-5, inside
# the window, the upper curve hides a pair of crossings unless refined
@pytest.mark.parametrize("gen, initial_samples, want, atol", [
    (lambda t: np.diag([-0.48 * t, -0.2348 + 1.04 * t, 0.9]), 5,
     [(0.0, -1), (0.2348 / 1.04, 1)], 1e-9),
    (lambda t: _bend(t, 0.0), 2, [(0.0, -1), (BEND_UP, 1)], 1e-5),
    (lambda t: _bend(t, 5e-5), 2, [(5e-5 / (np.sqrt(200.0) - 5.0), -1), (BEND_UP, 1)], 1e-5),
], ids=["corner", "bend-from-kernel", "bend-in-window"])
def test_a_pair_hidden_behind_a_curve_in_the_window_is_logged(gen, initial_samples, want, atol):
    result = sf.spectral_flow(sf.HermitianPath.from_generator(gen, initial_samples=initial_samples))
    got = [(c.t, c.direction) for c in result.log.crossings]
    assert result.value == 0 and [d for _, d in got] == [d for _, d in want]
    assert np.allclose([t for t, _ in got], [t for t, _ in want], rtol=0.0, atol=atol)
