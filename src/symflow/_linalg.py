"""Shared dense linear-algebra helpers.

Everything here operates on plain ndarrays.  Tolerance policy:

* singular values below ``tol * largest`` count as zero;
* ``at_phase`` is the one answer to "is this eigenphase at +1 (or at -1)?":
  circular distance at most ``tol`` is a hit, and a distance in the band
  (tol, AMBIGUITY_FACTOR*tol] raises ToleranceAmbiguity.  Intersection
  dimensions, the log branch cut (``branch_phases``), the pairing m, the
  winding endpoint shift and the kernel dimensions of the inverse check all
  use it;
* ``sign_classes`` and ``crossing_signs`` are the (-eps,-eps) rule of
  spectral flow and winding: zero counts as nonnegative;
* ``unitary_phases`` is the one eigenphase solver of paths: a Cayley
  transform about a pole, one ``inv`` and one ``eigvalsh`` per stack, the
  pole moved into the ``widest_gap`` of any matrix with an eigenphase too
  close to it;
* ``norm_at_most`` and ``norms_below`` (Hermitian steps) decide a 2-norm
  bound from the Frobenius bounds and take the exact 2-norm only when those
  leave it open;
  ``conditioned_inverse`` decides the rank cut of a square matrix the same
  way, so no Lagrangian constructor takes an SVD;
* the checks and kernels take stacks (..., n, n) and decide each matrix on
  its own, bit for bit as they decide it alone: one matrix is a stack of one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonIntegerResult, NotUnitary, ToleranceAmbiguity

DEFAULT_TOL = 1e-9
INT_RESIDUE_TOL = 1e-8
# Values in (tol, AMBIGUITY_FACTOR*tol] are neither clearly zero nor clearly
# nonzero; classification there raises ToleranceAmbiguity instead of guessing.
AMBIGUITY_FACTOR = 10.0
# A unitary has ||u||_F = sqrt(n).  Past this Frobenius norm the unitarity
# defect is at least ||u||_F^2 / n - 1 ~ 1e300, which no tolerance admits;
# below it the Gram product of ``require_unitary`` cannot overflow.
UNITARY_FROBENIUS_CAP = 1e150
# Checks of outside matrices run under this: a Frobenius norm or product of
# norms that overflows is inf and decides the check, without a warning.
QUIET = dict(over="ignore", invalid="ignore")
# Newton-Schulz stops once ||u*u - I||_F is at most this times n (rounding level).
UNITARY_ROUNDING = 8 * np.finfo(float).eps
# A Cayley transform whose largest |lambda| passes max(CAYLEY_BOUND, k) has
# an eigenphase within about 2/|lambda| of its pole and moves the pole: the
# phases carry an error of a few eps times |lambda|max.  The middle of the
# largest eigenphase gap of a k x k unitary is at least pi/k from its
# spectrum, where |lambda| < 2k/pi, so that pole always passes.
CAYLEY_BOUND = 1e3
# A singular inverse moves its pole by this irrational angle, which no
# floating-point rotation of a matrix with an exact eigenvalue lands on again.
GOLDEN_ANGLE = np.pi * (3.0 - math.sqrt(5.0))


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def phase_fix_columns(m: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry of largest modulus is real positive."""
    m = np.asarray(m, dtype=complex)
    piv = m[np.abs(m).argmax(axis=0), np.arange(m.shape[1])]
    return m * np.divide(piv.conjugate(), np.abs(piv), out=np.ones(piv.shape, dtype=complex),
                         where=piv != 0)


def orthonormal_columns(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column span, rank-revealed by SVD."""
    m = as_complex_matrix(m)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :int(np.sum(s > tol * s[0]))] if s.size else m[:, :0]


def _gram(u: np.ndarray) -> np.ndarray:
    """u* u for each matrix of a stack (..., a, b)."""
    return u.conj().swapaxes(-1, -2) @ u


def _all(mask) -> bool:
    """mask.all() of a bool or of a boolean array, at a third of its cost on
    the small masks of this module."""
    return mask if type(mask) is bool else np.count_nonzero(mask) == mask.size


def require_unitary(u: np.ndarray, tol: float = 1e-9, what: str = "matrix") -> np.ndarray:
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise NotUnitary(f"{what} is not square: {u.shape}")
    if not unitary_mask(u, tol):
        with np.errstate(**QUIET):
            huge = not _frobenius(u) <= UNITARY_FROBENIUS_CAP
        if huge:
            raise NotUnitary(f"{what} fails unitarity: it has an entry of modulus "
                             f"{float(np.max(np.abs(u))):.3e}, a unitary has none above 1")
        raise NotUnitary(f"{what} fails unitarity by "
                         f"{_two_norm(_gram(u) - np.eye(u.shape[0])):.3e}")
    return u


@np.errstate(**QUIET)
def unitary_mask(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """The verdict of ``require_unitary`` on each square matrix of a stack
    (..., n, n): ||u*u - I||_2 <= 10 tol max(1, n), by ``norm_at_most``.  A
    matrix past UNITARY_FROBENIUS_CAP fails before its Gram product, which
    could overflow, is formed."""
    n = u.shape[-1]
    limit = tol * 10 * max(1, n)
    capped = _frobenius(u) <= UNITARY_FROBENIUS_CAP
    if _all(capped):
        return norm_at_most(_gram(u) - np.eye(n), limit)
    ok = np.zeros(np.shape(capped), dtype=bool)
    ok[capped] = norm_at_most(_gram(u[capped]) - np.eye(n), limit)
    return ok


def _frobenius(x: np.ndarray) -> np.ndarray:
    """||x||_F of each matrix of a stack (..., a, b), from one BLAS dot each
    (a 0-d array for one matrix).  A sum of squares that overflows is inf,
    with numpy's overflow warning unless the caller silences it, as the
    checks here that take outside matrices do (``QUIET``)."""
    flat = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
    return np.sqrt(np.vecdot(flat, flat).real)


def _two_norm(x: np.ndarray) -> np.ndarray:
    """The exact ||x||_2 of each matrix of a stack (..., a, b): an SVD each."""
    return np.linalg.norm(x, 2, axis=(-2, -1))


@np.errstate(**QUIET)
def norm_at_most(x: np.ndarray, limit: float, scale: np.ndarray | None = None) -> np.ndarray:
    """Exact verdict of ``||x||_2 <= limit``, or of ``<= limit * max(1, ||scale||_2)``,
    for each matrix of a stack (..., a, b) and its scale (..., c, c); a bool,
    or a 0-d array, for one matrix.

    The rule of ``norms_below``: a Frobenius norm at or below the limit
    passes, one above sqrt(rank) times the limit fails, and only the case in
    between takes the exact 2-norm (an SVD).  The scale is bracketed by its
    Frobenius norm the same way and taken exactly only when that decides.
    An overflowing sum of squares (silent) takes the exact 2-norm.
    """
    x_hi = _frobenius(x)
    ok = x_hi <= limit
    if _all(ok):
        return ok
    shape = np.shape(ok)
    x = x.reshape((-1,) + x.shape[-2:])
    x_hi = np.reshape(x_hi, -1)
    x_lo = x_hi / math.sqrt(max(1, min(x.shape[-2:])))
    overflow = ~np.isfinite(x_hi)
    if np.count_nonzero(overflow):
        x_lo[overflow] = x_hi[overflow] = _two_norm(x[overflow])
    lo = hi = np.full(x_hi.shape, float(limit))
    if scale is not None:
        scale = scale.reshape((-1,) + scale.shape[-2:])
        s_hi = _frobenius(scale)
        s_lo = s_hi / math.sqrt(max(1, min(scale.shape[-2:])))
        wide = ~np.isfinite(s_hi)
        if np.count_nonzero(wide):
            s_lo[wide] = s_hi[wide] = _two_norm(scale[wide])
        lo, hi = limit * np.maximum(1.0, s_lo), limit * np.maximum(1.0, s_hi)
    open_ = (lo < x_hi) & (x_lo <= hi)
    if np.count_nonzero(open_):
        x_hi[open_] = _two_norm(x[open_])
        if scale is not None:
            rescale = open_ & (lo < x_hi) & (x_hi <= hi)
            if np.count_nonzero(rescale):
                lo[rescale] = limit * np.maximum(1.0, _two_norm(scale[rescale]))
    return (x_hi <= lo).reshape(shape)


def _stacked_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(inverses, regular) of a stack (m, n, n): one ``np.linalg.inv``, regular
    None; if a member is singular, one inverse per member, each decided and
    computed as alone, zero for a singular one, which regular marks False."""
    try:
        return np.linalg.inv(a), None
    except np.linalg.LinAlgError:
        inv, regular = np.zeros_like(a), np.ones(len(a), dtype=bool)
        for i, member in enumerate(a):
            try:
                inv[i] = np.linalg.inv(member)
            except np.linalg.LinAlgError:
                regular[i] = False
        return inv, regular


@np.errstate(**QUIET)
def conditioned_inverse(a: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(a^{-1}, ok) for a stack (m, n, n): ok where s_min(a) > tol * s_max(a),
    the rank cut of ``orthonormal_columns``; the inverse of a singular
    member is zero.  As cond(a) <= ||a||_F ||a^{-1}||_F <= n cond(a), only a
    product in [1/tol, n/tol) (or an overflow) takes the singular values."""
    inv, regular = _stacked_inverse(a)
    product = _frobenius(a) * _frobenius(inv)
    ok = product < 1.0 / tol
    if regular is not None:
        ok &= regular
    if _all(ok):
        return inv, ok
    open_ = ~ok & ~(np.isfinite(product) & (product >= a.shape[-1] / tol))
    if regular is not None:
        open_ &= regular
    if np.count_nonzero(open_):
        s = np.linalg.svd(a[open_], compute_uv=False)
        ok[open_] = s[:, -1] > tol * s[:, 0]
    return inv, ok


def norms_below(a: np.ndarray, b: np.ndarray, bounds) -> np.ndarray:
    """Mask of ``||b[i] - a[i]||_2 < bounds[i]`` over stacks of Hermitian matrices.

    With ||X||_2 <= ||X||_F <= sqrt(k) ||X||_2, a Frobenius norm below the
    bound passes and one at or above sqrt(k) times the bound fails; only the
    steps in between get an exact 2-norm, the largest |eigenvalue| of the
    difference.
    """
    diffs = b - a
    bounds = np.broadcast_to(np.asarray(bounds, dtype=float), diffs.shape[:1])
    fro = _frobenius(diffs)
    ok = fro < bounds
    open_ = ~ok & ~(fro >= np.sqrt(diffs.shape[-1]) * bounds)
    if np.any(open_):
        exact = np.max(np.abs(np.linalg.eigvalsh(diffs[open_])), axis=1)
        ok[open_] = exact < bounds[open_]
    return ok


def _cayley(v: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the Cayley transforms H = i (I - V)^{-1} (I + V)
    of a stack of unitaries (m, k, k), each symmetrised to (H + H*)/2: an
    eigenvalue e^{i phi} of V gives lambda = -cot(phi / 2).  With
    Y = (I - V)^{-1}, H = i (2Y - I) and (H + H*)/2 = i (Y - Y*), so one
    inverse serves.  A member whose inverse is singular (an eigenvalue 1)
    gets a row of inf."""
    y, regular = _stacked_inverse(np.eye(v.shape[-1]) - v)
    y -= y.conj().swapaxes(-1, -2)
    lam = np.linalg.eigvalsh(1j * y)
    if regular is not None:
        lam[~regular] = np.inf
    return lam


def _largest(lam: np.ndarray) -> np.ndarray:
    """max |lambda| of each row."""
    return np.abs(lam).max(axis=-1, initial=0.0)


def unitary_phases(u: np.ndarray) -> np.ndarray:
    """Eigenphases of each unitary of a stack (m, k, k), in circular order
    from just after its pole e^{ip}: p + pi + 2 arctan(lambda), ascending in
    (p, p + 2 pi), with lambda the eigenvalues of the Cayley transform of
    V = e^{-ip} U (``_cayley``).  The pole is +1 (p = 0); -U puts it at -1.

    As ||(I - V)^{-1}||_2 = sqrt(1 + lambda_max^2) / 2, the largest |lambda|
    certifies how far the spectrum is from the pole, and the phase error is
    a few eps times it, smallest opposite the pole.  A member past
    max(CAYLEY_BOUND, k) is solved again with p in the middle of its largest
    eigenphase gap, a singular one with p moved by GOLDEN_ANGLE; each member
    is decided as it is alone, and one that no pole admits raises NotUnitary.
    """
    bound = max(CAYLEY_BOUND, u.shape[-1])
    lam = _cayley(u)
    phases = np.pi + 2.0 * np.arctan(lam)
    poor = ~(_largest(lam) <= bound)
    if not np.count_nonzero(poor):
        return phases
    live = np.flatnonzero(poor)
    lam, poles = lam[live], np.zeros(len(live))
    for _ in range(2):
        poles = np.where(np.isinf(lam[:, 0]), poles + GOLDEN_ANGLE, widest_gap(phases[live])[0])
        lam = _cayley(u[live] * np.exp(-1j * poles)[:, None, None])
        phases[live] = poles[:, None] + np.pi + 2.0 * np.arctan(lam)
        poor = ~(_largest(lam) <= bound)
        if not np.count_nonzero(poor):
            return phases
        live, lam, poles = live[poor], lam[poor], poles[poor]
    raise NotUnitary(f"no pole of the Cayley transform admits matrix {int(live[0])} of the stack: "
                     f"its eigenvalues are not on the unit circle")


def widest_gap(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(middle, width) of the widest circular gap of each row of eigenphases
    (..., k), listed in circular order as ``unitary_phases`` gives them; a
    row without phases has the whole circle, 2 pi wide."""
    if not rows.shape[-1]:
        return np.full(rows.shape[:-1], np.pi), np.full(rows.shape[:-1], 2.0 * np.pi)
    gaps = np.diff(rows, axis=-1, append=rows[..., :1] + 2.0 * np.pi)
    j = np.argmax(gaps, axis=-1)[..., None]
    width = np.take_along_axis(gaps, j, axis=-1)[..., 0]
    return np.take_along_axis(rows, j, axis=-1)[..., 0] + 0.5 * width, width


def random_unitary(rng, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary drawn from ``rng`` (QR with phase fix)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def nearest_unitary(u: np.ndarray, defect: np.ndarray | None = None) -> np.ndarray:
    """The polar factor of u, or of each matrix of a stack (..., n, n), by
    Newton-Schulz steps u <- u(3I - u*u)/2 until ||u*u - I||_F <= 8 n eps
    (rounding level), each matrix stopping on its own.  They converge
    quadratically from every u whose singular values lie in (0, sqrt 3), as
    after a unitarity check; a u with ||u*u - I||_F >= 1 is first scaled to
    ||u||_F = 1 to put them there.  A u already at rounding level is returned
    as it is.  ``defect`` is u*u - I, when the caller has it."""
    n = u.shape[-1]
    stop = UNITARY_ROUNDING * n
    stack = u.reshape((-1, n, n))
    defect = _gram(stack) - np.eye(n) if defect is None else defect.reshape(stack.shape)
    size = _frobenius(defect)
    if np.count_nonzero(size <= stop) == size.size:
        return u
    eye = np.eye(n)
    far = size >= 1.0
    if np.count_nonzero(far):
        stack, defect = stack.copy(), defect.copy()
        stack[far] = stack[far] / _frobenius(stack[far])[:, None, None]
        defect[far] = _gram(stack[far]) - eye
        size[far] = _frobenius(defect[far])
    out = live = None
    for _ in range(64):
        done = size <= stop
        finished = np.count_nonzero(done)
        if finished == done.size and out is None:
            return stack.reshape(u.shape)
        if finished:
            if out is None:
                out, live = np.empty_like(stack), np.arange(len(stack))
            out[live[done]] = stack[done]
            if finished == done.size:
                return out.reshape(u.shape)
            live, stack, defect = live[~done], stack[~done], defect[~done]
        stack = stack - 0.5 * (stack @ defect)
        defect = _gram(stack) - eye
        size = _frobenius(defect)
    raise NotUnitary("Newton-Schulz steps do not reach the unitary group")


def wrap_phase(x) -> np.ndarray:
    """Angles wrapped elementwise to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def at_phase(phases, target: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Mask of the eigenphases (in [-pi, pi]) whose eigenvalue is e^{i*target}.

    ``target`` is 0 (the eigenvalue +1) or pi (the eigenvalue -1), where the
    circular distance is ||theta| - target| exactly.  Distance <= tol is a
    hit; a distance in (tol, AMBIGUITY_FACTOR*tol] raises ToleranceAmbiguity.
    """
    dist = np.abs(np.abs(phases) - target)
    hit = dist <= tol
    murky = (~hit) & (dist <= AMBIGUITY_FACTOR * tol)
    if np.any(murky):
        raise ToleranceAmbiguity(
            f"eigenphase at distance {dist[murky].min():.3e} from {'-1' if target else '+1'} "
            f"is inside the ambiguity band (tol={tol:.1e})"
        )
    return hit


def branch_phases(vals, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Arguments of eigenvalues on the branch (-pi, pi]: those at -1 take +pi."""
    phases = np.angle(vals)
    phases[at_phase(phases, np.pi, tol)] = np.pi
    return phases


def branch_log_unitary(u: np.ndarray, tol: float = DEFAULT_TOL) -> complex:
    """Sum of eigenvalue logs with the branch cut just below -1 (arg in (-pi, pi])."""
    vals = np.linalg.eigvals(as_complex_matrix(u))
    return complex(np.sum(np.log(np.abs(vals))) + 1j * np.sum(branch_phases(vals, tol)))


def principal_power(u: np.ndarray, tol: float = DEFAULT_TOL):
    """s -> U^s on the branch of ``branch_phases``: V diag(e^{i s phi}) V^{-1}
    from one eigendecomposition U = V diag(e^{i phi}) V^{-1}; for an array
    of s, the stack of them."""
    vals, vecs = np.linalg.eig(u)
    phases = branch_phases(vals, tol)
    inv = np.linalg.inv(vecs)
    return lambda s: (vecs * np.exp(1j * np.asarray(s)[..., None, None] * phases)) @ inv


def sign_classes(vals, threshold: float) -> np.ndarray:
    """-1 / 0 / +1 per eigenvalue; |lambda| <= threshold is the zero class."""
    cls = np.sign(vals).astype(int)
    cls[np.abs(vals) <= threshold] = 0
    return cls


def crossing_signs(before, after) -> np.ndarray:
    """(-eps,-eps) rule for matched values: +1 for a move from < 0 to >= 0,
    -1 for the reverse, 0 otherwise (zero belongs to the nonnegative side)."""
    before = np.asarray(before)
    after = np.asarray(after)
    return ((before < 0) & (after >= 0)).astype(int) - ((after < 0) & (before >= 0)).astype(int)


def intersect_subspaces(frames: list[np.ndarray], tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal frame of the intersection of the spans of orthonormal frames."""
    if not frames:
        raise DimensionMismatch("need at least one subspace")
    cur = frames[0]
    dim = cur.shape[0]
    for nxt in frames[1:]:
        if nxt.shape[0] != dim:
            raise DimensionMismatch("ambient dimensions differ")
        if cur.shape[1] == 0 or nxt.shape[1] == 0:
            return np.zeros((dim, 0), dtype=complex)
        # combinations of cur that projection onto the complement of nxt kills
        _, s, vh = np.linalg.svd(cur - nxt @ (nxt.conj().T @ cur), full_matrices=False)
        cur = cur @ vh.conj().T[:, s <= tol * max(1.0, s[0])]
    return cur


def complement_within(sub: np.ndarray, amb: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal frame of the orthogonal complement of `sub` inside span(amb).

    Both inputs are orthonormal frames, so true complement directions carry
    singular value ~1; the rank cut is therefore absolute, not relative
    (a numerically zero residual must yield an empty frame).
    """
    if sub.shape[1] == 0:
        return amb
    u, s, _ = np.linalg.svd(amb - sub @ (sub.conj().T @ amb), full_matrices=False)
    return u[:, :int(np.sum(s > max(10 * tol, 1e-8)))]


def as_integer(x: float, tol: float = INT_RESIDUE_TOL, what: str = "value") -> int:
    """Round a claimed-integer float, raising NonIntegerResult beyond tolerance."""
    r = round(float(x))
    if abs(x - r) > tol:
        raise NonIntegerResult(f"{what} = {x!r} has residue {abs(x - r):.3e} > {tol:.1e}")
    return int(r)
