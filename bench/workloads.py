"""Seeded inputs for the three workloads, each with the answer it must give.

A workload is a fixed list of items.  An item is one call into symflow:
``symflow.cli.main([...])`` on a generated file, or, for the Nicolaescu
check, ``symflow.model_dirac.nicolaescu_verify`` on objects parsed from a
generated document.  Every item carries a check that compares the program's
output with an answer computed in ``oracle`` from the planted data, or with
a property the method must have.

The item counts per stratum are fixed; the seed only moves the numbers
inside each stratum.  That keeps the cost of a pass nearly the same from
seed to seed, which is what lets two sets of runs on different seeds agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracle as orc

STREAMS = {"refine": 1, "batch": 2, "model": 3}

# (op, k, count): generator-backed paths.  Every k = 32 flow plants four
# crossings, k = 8 two, k = 2 one; one item in four plants an endpoint kernel.
REFINE_MIX = [
    ("spectral_flow", 2, 22), ("spectral_flow", 8, 12), ("spectral_flow", 32, 3),
    ("sf_eta", 2, 6), ("sf_eta", 8, 4), ("sf_eta", 32, 1),
    ("wind/exp-interp", 2, 10), ("wind/exp-interp", 8, 6), ("wind/exp-interp", 32, 2),
    ("wind/rotation", 2, 10), ("wind/rotation", 8, 6), ("wind/rotation", 32, 2),
    ("wind_plus_inverse_check/rotation", 2, 6), ("wind_plus_inverse_check/exp-interp", 2, 4),
    ("wind_plus_inverse_check/rotation", 8, 4), ("wind_plus_inverse_check/exp-interp", 32, 2),
]
REFINE_CROSSINGS = {2: 1, 8: 2, 32: 4}
REFINE_INITIAL_SAMPLES = 5
# Unitary paths start dense enough (steps under 0.2 rad) that refinement
# never bisects: with coarser steps symflow's eigenphase matching pairs the
# wrong curves and wind fails on some seeds (see CHANGES.md).
ROTATION_RATE = 2.0 * np.pi
UNITARY_INITIAL_SAMPLES = {"rotation": 33, "exp-interp": 17}

# batch: run files of light scenarios; path files carry one dense sample-only
# path plus two point scenarios.
BATCH_POINT_FILES = 56
BATCH_POINT_SCENARIOS = 8
BATCH_RELATION_FILES = 28
BATCH_PATH_SAMPLES = 70     # unitary and pair paths: steps of at most 0.09 rad
BATCH_PATHS = [("wind", 16, 6), ("wind", 8, 3), ("spectral_flow", 12, 4),
               ("spectral_flow", 6, 3), ("maslov", 8, 6), ("maslov", 4, 3)]

# model: (kind, count); glue items carry the engine their roots come from.
# Shapes (n, mode blocks) and Nicolaescu turns cycle by item index, so every
# seed has the same number of items of each cost class; n - blocks is the
# number of kernel pairs.  Split glue always has two mode blocks, so its cost
# (set by the root grid) is the same on every seed, and the 90th percentile
# falls inside that class.
MODEL_MIX = [
    ("spectrum/circle", 16), ("spectrum/interval", 24), ("cauchy", 20), ("stretch", 16),
    ("glue/split", 12), ("glue/coupled", 4), ("nicolaescu", 8),
]
MODEL_SHAPES = [(1, 1), (2, 2), (2, 1)]
SPLIT_GLUE_SHAPES = [(2, 2), (3, 2)]
NICOLAESCU_TURNS = [-1.0, -0.5, 0.5, 1.0]
NICOLAESCU_WINDOW = 14.0
GLUE_SPLIT_N_MAX = 10_000
GLUE_COUPLED_N_MAX = 1_000


@dataclass
class Item:
    """One call into symflow and the check of its result.

    ``argv`` is a ``symflow`` command line whose report goes to ``out``;
    ``call`` is used instead when the entry point is a library function.
    ``check(code, payload)`` returns None when the output is right, else why.
    """

    name: str
    group: str
    check: Callable[[int, object], Optional[str]]
    argv: Optional[list] = None
    out: Optional[Path] = None
    call: Optional[Callable[[], object]] = None
    engine: Optional[str] = None    # glue items: "split" or "coupled" roots


def mat(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _int_close(x, want, what: str) -> Optional[str]:
    if not isinstance(x, int) or isinstance(x, bool) or x != want:
        return f"{what}: got {x!r}, expected {want}"
    return None


def _float_close(x, want, tol: float, what: str) -> Optional[str]:
    if not isinstance(x, (int, float)) or abs(float(x) - want) > tol:
        return f"{what}: got {x!r}, expected {want!r} within {tol:g}"
    return None


def _first_error(*errs) -> Optional[str]:
    return next((e for e in errs if e), None)


def _run_item(name: str, group: str, d: Path, scenarios: list, checks: list,
              relation: Optional[Callable] = None) -> Item:
    """A ``symflow run`` item: the scenario file, and per-report checks."""
    src = d / "in" / f"{name}.json"
    out = d / "out" / f"{name}.jsonl"
    _write(src, {"scenarios": scenarios})

    def check(code, reports):
        if code != 0:
            return f"exit code {code}"
        if len(reports) != len(scenarios):
            return f"{len(reports)} reports for {len(scenarios)} scenarios"
        for sc, rep, fn in zip(scenarios, reports, checks):
            if rep.get("name") != sc["name"] or rep.get("pass") is not True:
                return f"{sc['name']}: report {rep}"
            err = fn(rep["value"])
            if err:
                return f"{sc['name']}: {err}"
        return relation([r["value"] for r in reports]) if relation else None

    return Item(name, group, check, argv=["run", str(src), "--out", str(out)], out=out)


# ---------------------------------------------------------------------------
# refine: generator-backed paths at k = 2, 8, 32


def _hermitian_linear(rng, k: int, crossings: int, endpoint_kernel: bool):
    """h0, h1 = V diag(a0) V*, V diag(a1) V*: exactly ``crossings`` eigenvalue
    curves change sign along the segment; optionally one starts at zero."""
    v = orc.rand_unitary(rng, k)
    s0 = rng.choice([-1.0, 1.0], size=k)
    s1 = s0.copy()
    s1[:crossings] *= -1.0
    a0 = s0 * rng.uniform(0.2, 1.0, size=k)
    a1 = s1 * rng.uniform(0.2, 1.0, size=k)
    if endpoint_kernel:
        a0[-1] = 0.0
    return orc.conj_diag(v, a0), orc.conj_diag(v, a1)


def _unitary_path(rng, kind: str, k: int, plant_ends: bool):
    """(parametric JSON, start phases, total phase change, kernels at 0 and 1).

    Both kinds keep all eigenphase curves in one eigenbasis V, so the winding
    number is a closed-form count; planted endpoints sit exactly at -1.
    """
    v = orc.rand_unitary(rng, k)
    start = orc.phases_away_from_pi(rng, k)
    d0 = d1 = 0
    if plant_ends:
        start[0] = np.pi
        d0 = 1
    if kind == "rotation":
        delta = rng.uniform(-ROTATION_RATE, ROTATION_RATE, size=k)
        if plant_ends and k > 1:
            # end at -1: move the total change by less than pi
            turns = np.round((start[-1] + delta[-1] - np.pi) / (2 * np.pi))
            delta[-1] = np.pi + 2 * np.pi * turns - start[-1]
            d1 = 1
        par = {"kind": "rotation", "phases": start.tolist(), "rates": delta.tolist(),
               "frame": mat(v), "samples": UNITARY_INITIAL_SAMPLES[kind]}
    else:
        # exp-interp follows the principal log of u1 u0*, so each curve moves
        # by less than pi; keep it away from pi so the branch is unambiguous
        delta = rng.uniform(-np.pi + 0.1, np.pi - 0.1, size=k)
        if plant_ends and k > 1:
            delta[-1] = np.sign(delta[-1]) * max(abs(delta[-1]), 0.5)
            start[-1] = np.pi - delta[-1]
            d1 = 1
        u0 = orc.conj_diag(v, np.exp(1j * start))
        u1 = orc.conj_diag(v, np.exp(1j * (start + delta)))
        par = {"kind": "exp-interp", "u0": mat(u0), "u1": mat(u1),
               "samples": UNITARY_INITIAL_SAMPLES[kind]}
    return par, start, delta, d0, d1


def build_refine(rng, d: Path) -> list[Item]:
    items = []
    for op_kind, k, count in REFINE_MIX:
        op, _, path_kind = op_kind.partition("/")
        for i in range(count):
            name = f"{op.replace('_', '-')}-{path_kind or 'linear'}-k{k}-{i:02d}"
            group = f"{op_kind}.k{k}"
            if op in ("spectral_flow", "sf_eta"):
                h0, h1 = _hermitian_linear(rng, k, REFINE_CROSSINGS[k], i % 4 == 3)
                path = {"parametric": {"kind": "linear", "h0": mat(h0), "h1": mat(h1),
                                       "samples": REFINE_INITIAL_SAMPLES}}
                want = orc.spectral_flow_from_ends(h0, h1)
                if op == "spectral_flow":
                    def fn(value, want=want):
                        return _int_close(value, want, "spectral flow")
                else:
                    eta0, eta1 = orc.reduced_eta(h0), orc.reduced_eta(h1)

                    def fn(value, want=want, eta0=eta0, eta1=eta1):
                        return _first_error(
                            _int_close(value.get("sf"), want, "sf"),
                            _float_close(value.get("eta_tilde_start"), eta0, 1e-12, "eta~(0)"),
                            _float_close(value.get("eta_tilde_end"), eta1, 1e-12, "eta~(1)"),
                            _float_close(value.get("delta"), want, 1e-12, "eta~ difference"))
            else:
                plant = op == "wind_plus_inverse_check"
                par, start, delta, d0, d1 = _unitary_path(rng, path_kind, k, plant)
                path = {"parametric": par}
                wf = orc.crossings_of_minus_one(start, delta)
                if op == "wind":
                    def fn(value, wf=wf):
                        return _int_close(value, wf, "winding number")
                else:
                    wi = orc.crossings_of_minus_one(-start, -delta)

                    def fn(value, want=[wf, wi, d0, d1]):
                        return None if value == want else f"got {value}, expected {want}"
            sc = {"name": name, "op": op, "inputs": {"path": path}}
            items.append(_run_item(name, group, d, [sc], [fn]))
    return items


# ---------------------------------------------------------------------------
# batch: point invariants, relation sets, dense sample-only paths


def _generic_phis(rng, n: int, count: int) -> list:
    """Graph unitaries whose pairwise products keep every eigenphase MARGIN
    away from 0 and pi, so no pair intersects and no index is ambiguous."""
    while True:
        phis = [orc.rand_unitary(rng, n) for _ in range(count)]
        ok = all(orc.min_dist_to_minus_one(a @ b.conj().T) > orc.MARGIN
                 and orc.min_dist_to_one(a @ b.conj().T) > orc.MARGIN
                 for i, a in enumerate(phis) for b in phis[i + 1:])
        if ok:
            return phis


def _lagrangian_json(rng, phi, as_frame: bool) -> dict:
    if as_frame:
        return {"frame": mat(orc.frame_from_phi(phi, rng))}
    return {"phi": mat(phi)}


def _point_scenario(rng, kind: str, name: str):
    """(scenario, check) for one light point invariant with planted answer."""
    if kind == "tr_log":
        k = int(rng.integers(1, 17))
        th = orc.phases_away_from_pi(rng, k)
        th[: int(rng.integers(0, min(k, 2) + 1))] = np.pi
        u = orc.conj_diag(orc.rand_unitary(rng, k), np.exp(1j * th))
        want = float(np.sum(th))
        sc = {"name": name, "op": "tr_log", "inputs": {"U": mat(u)}}
        return sc, lambda v, w=want: _first_error(
            _float_close(v[0], 0.0, 1e-8, "Re tr log"), _float_close(v[1], w, 1e-7, "Im tr log"))
    if kind == "tau_w":
        k = int(rng.integers(1, 17))
        v = orc.rand_unitary(rng, k)
        if rng.random() < 0.5:
            th = orc.phases_away_from_pi(rng, k)
            mult = int(rng.integers(0, min(k, 3) + 1))
            th[:mult] = np.pi
            u = orc.conj_diag(v, np.exp(1j * th))
            sc = {"name": name, "op": "tau_w", "inputs": {"U": mat(u), "V": mat(u.conj().T)}}
            want = -mult
        else:
            a = orc.phases_away_from_pi(rng, k)
            b = orc.phases_away_from_pi(rng, k)
            bad = np.abs(np.abs(orc.wrap(a + b)) - np.pi) < orc.MARGIN
            b[bad] -= 0.1
            want = int(round(float(np.sum(orc.wrap(a + b) - a - b)) / (2 * np.pi)))
            sc = {"name": name, "op": "tau_w",
                  "inputs": {"U": mat(orc.conj_diag(v, np.exp(1j * a))),
                             "V": mat(orc.conj_diag(v, np.exp(1j * b)))}}
        return sc, lambda x, w=want: _int_close(x, w, "tau_w")
    if kind == "eta_finite":
        k = int(rng.integers(1, 17))
        lam = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.1, 2.0, size=k)
        zeros = int(rng.integers(0, min(k, 2) + 1))
        lam[:zeros] = 0.0
        h = orc.conj_diag(orc.rand_unitary(rng, k), lam)
        eta = int(np.sum(lam > 0) - np.sum(lam < 0))
        want = {"eta": eta, "dim_ker": zeros, "eta_tilde": 0.5 * (eta + zeros)}
        sc = {"name": name, "op": "eta_finite", "inputs": {"H": mat(h)}}
        return sc, lambda v, w=want: None if v == w else f"got {v}, expected {w}"
    if kind == "intersection_dim":
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(0, n + 1))
        th = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.3, np.pi - 0.05, size=n)
        th[:dim] = 0.0
        phi1 = orc.rand_unitary(rng, n)
        phi2 = orc.conj_diag(orc.rand_unitary(rng, n), np.exp(1j * th)) @ phi1
        sc = {"name": name, "op": "intersection_dim",
              "inputs": {"space": f"standard:{n}", "L1": _lagrangian_json(rng, phi1, True),
                         "L2": _lagrangian_json(rng, phi2, False)}}
        return sc, lambda v, w=dim: _int_close(v, w, "intersection dimension")
    n = int(rng.integers(1, 9))
    if kind == "tau_mu":
        phis = _generic_phis(rng, n, 3)
        want = int(round(orc.tau_mu(*phis)))
        ins = dict(zip("PQR", (_lagrangian_json(rng, p, j != 1) for j, p in enumerate(phis))))
        sc = {"name": name, "op": "tau_mu", "inputs": {"space": f"standard:{n}", **ins}}
        return sc, lambda v, w=want: _int_close(v, w, "tau_mu")
    phis = _generic_phis(rng, n, 2)
    want = orc.m_pairing(*phis)
    ins = dict(zip("VW", (_lagrangian_json(rng, p, j == 0) for j, p in enumerate(phis))))
    sc = {"name": name, "op": "m", "inputs": {"space": f"standard:{n}", **ins}}
    return sc, lambda v, w=want: _float_close(v, w, 1e-7, "m")


POINT_KINDS = ["tr_log", "tau_w", "eta_finite", "intersection_dim", "tau_mu", "m"]


def _relation_set(rng, name: str):
    """Scenarios on one generic triple whose values must obey the permutation
    and antisymmetry relations, and equal the values computed here."""
    n = int(rng.integers(1, 9))
    phis = _generic_phis(rng, n, 3)
    lag = {key: _lagrangian_json(rng, p, key != "Q") for key, p in zip("PQR", phis)}
    tau = int(round(orc.tau_mu(*phis)))
    m_pq = orc.m_pairing(phis[0], phis[1])
    ts = int(round(m_pq + orc.m_pairing(phis[1], phis[2]) + orc.m_pairing(phis[2], phis[0])))
    space = f"standard:{n}"

    def sc(i, op, slots, keys):
        ins = {"space": space, **{s: lag[k] for s, k in zip(slots, keys)}}
        return {"name": f"{name}-{i:02d}", "op": op, "inputs": ins}

    rows = [
        (sc(0, "tau_mu", "PQR", "PQR"), lambda v: _int_close(v, tau, "tau_mu(P,Q,R)")),
        (sc(1, "tau_mu", "PQR", "QRP"), lambda v: _int_close(v, tau, "tau_mu(Q,R,P)")),
        (sc(2, "tau_mu", "PQR", "QPR"), lambda v: _int_close(v, -tau, "tau_mu(Q,P,R)")),
        (sc(3, "tau_mu", "PQR", "PRQ"), lambda v: _int_close(v, -tau, "tau_mu(P,R,Q)")),
        (sc(4, "tau_mu", "PQR", "PPQ"), lambda v: _int_close(v, 0, "tau_mu(P,P,Q)")),
        (sc(5, "m", "VW", "PQ"), lambda v: _float_close(v, m_pq, 1e-7, "m(P,Q)")),
        (sc(6, "m", "VW", "QP"), lambda v: _float_close(v, -m_pq, 1e-7, "m(Q,P)")),
        (sc(7, "tsig", "VWU", "PQR"), lambda v: _int_close(v, ts, "tsig(P,Q,R)")),
        (sc(8, "tsig", "VWU", "QRP"), lambda v: _int_close(v, ts, "tsig(Q,R,P)")),
        (sc(9, "tsig", "VWU", "QPR"), lambda v: _int_close(v, -ts, "tsig(Q,P,R)")),
        (sc(10, "tsig_tau_mu_conversion", "VWU", "PQR"),
         lambda v: None if (v.get("tsig"), v.get("tau_mu")) == (ts, tau) else f"got {v}"),
    ]

    def relation(values):
        # relations among the program's own outputs, whatever the planted values
        t, s, m = values[0], values[7], values[5]
        if not (values[1] == t and values[2] == values[3] == -t and values[4] == 0):
            return f"tau_mu permutation relations fail: {values[:5]}"
        if abs(values[6] + m) > 1e-9 or not (values[8] == s and values[9] == -s):
            return f"m / tsig antisymmetry fails: {values[5:10]}"
        if (values[10]["tsig"], values[10]["tau_mu"]) != (s, t):
            return "conversion disagrees with the tsig and tau_mu scenarios"
        return None

    return [r[0] for r in rows], [r[1] for r in rows], relation


def _hermitian_samples(lam0: np.ndarray, slope: np.ndarray) -> list[float]:
    """Sample times on [0, 1] for the commuting path lam0 + slope * t that
    keep every step inside symflow's documented step invariant:
    ||H(b) - H(a)|| below half the gap to zero outside the crossing window
    1e-4 * ||H||, or below that window.  Each zero of a curve is a sample.
    """
    s_max = float(np.max(np.abs(slope)))

    def gap_window(t):
        lam = lam0 + slope * t
        norm = max(1.0, float(np.max(np.abs(lam))))
        w = 1e-4 * norm
        out = np.abs(lam)[np.abs(lam) > w]
        return (float(out.min()) if out.size else np.inf), w

    zeros = sorted({float(-a / s) for a, s in zip(lam0, slope)
                    if s != 0 and 0.0 < -a / s < 1.0})
    times = [0.0]
    for stop in zeros + [1.0]:
        t = times[-1]
        while t < stop:
            h = stop - t
            ga, wa = gap_window(t)
            while True:
                gb, wb = gap_window(t + h)
                if s_max * h <= 0.8 * max(0.5 * min(ga, gb), wa, wb):
                    break
                h *= 0.7
            t = stop if stop - (t + h) < 1e-12 else t + h
            times.append(t)
    return times


def _path_scenario(rng, kind: str, k: int, name: str):
    if kind == "wind":
        v = orc.rand_unitary(rng, k)
        start = orc.phases_away_from_pi(rng, k)
        delta = rng.uniform(-ROTATION_RATE, ROTATION_RATE, size=k)
        ts = np.linspace(0.0, 1.0, BATCH_PATH_SAMPLES)
        samples = [[float(t), mat(orc.conj_diag(v, np.exp(1j * (start + delta * t))))]
                   for t in ts]
        want = orc.crossings_of_minus_one(start, delta)
        sc = {"name": name, "op": "wind", "inputs": {"path": {"samples": samples}}}
        return sc, lambda x, w=want: _int_close(x, w, "winding number")
    if kind == "spectral_flow":
        v = orc.rand_unitary(rng, k)
        s0 = rng.choice([-1.0, 1.0], size=k)
        lam0 = s0 * rng.uniform(0.3, 1.0, size=k)
        lam1 = s0 * rng.uniform(0.3, 1.0, size=k)
        lam1[:2] *= -1.0
        slope = lam1 - lam0
        samples = [[t, mat(orc.conj_diag(v, lam0 + slope * t))]
                   for t in _hermitian_samples(lam0, slope)]
        want = int(np.sum(lam0 < 0) - np.sum(lam1 < 0))
        sc = {"name": name, "op": "spectral_flow", "inputs": {"path": {"samples": samples}}}
        return sc, lambda x, w=want: _int_close(x, w, "spectral flow")
    # maslov: phi(f_t) = W diag(e^{i(a + r t)}) W* phi(g), g fixed
    n = k
    w = orc.rand_unitary(rng, n)
    start = orc.phases_away_from_pi(rng, n)
    delta = rng.uniform(-ROTATION_RATE, ROTATION_RATE, size=n)
    phi_g = orc.rand_unitary(rng, n)
    frame_g = mat(orc.frame_from_phi(phi_g, rng))
    ts = np.linspace(0.0, 1.0, int(np.ceil(ROTATION_RATE / 0.15)) + 1)
    samples = [[float(t),
                mat(orc.frame_from_phi(orc.conj_diag(w, np.exp(1j * (start + delta * t))) @ phi_g,
                                       rng)),
                frame_g] for t in ts]
    want = -orc.crossings_of_minus_one(start, delta)
    sc = {"name": name, "op": "maslov", "inputs": {"space": f"standard:{n}", "samples": samples}}
    return sc, lambda x, w=want: _int_close(x, w, "Maslov index")


def build_batch(rng, d: Path) -> list[Item]:
    items = []
    for i in range(BATCH_POINT_FILES):
        name = f"points-{i:02d}"
        pairs = [_point_scenario(rng, POINT_KINDS[(i + j) % len(POINT_KINDS)], f"{name}-{j}")
                 for j in range(BATCH_POINT_SCENARIOS)]
        items.append(_run_item(name, "points", d, [p[0] for p in pairs], [p[1] for p in pairs]))
        if i % 2 == 1 and i // 2 < BATCH_RELATION_FILES:
            name = f"relations-{i // 2:02d}"
            scs, fns, rel = _relation_set(rng, name)
            items.append(_run_item(name, "relations", d, scs, fns, relation=rel))
    for kind, k, count in BATCH_PATHS:
        for i in range(count):
            name = f"samples-{kind.replace('_', '-')}-k{k}-{i:02d}"
            pairs = [_path_scenario(rng, kind, k, f"{name}-path")]
            pairs += [_point_scenario(rng, POINT_KINDS[j], f"{name}-{j}") for j in (0, 4)]
            items.append(_run_item(name, f"samples-{kind}.k{k}", d, [p[0] for p in pairs],
                                   [p[1] for p in pairs]))
    return items


# ---------------------------------------------------------------------------
# model: the solvable operator D = gamma (d/dx + A)


@dataclass
class PlantedModel:
    n: int
    mus: list
    a: np.ndarray
    gamma: np.ndarray
    u: np.ndarray   # unitary commuting with gamma: block j spans U e_j, U e_{n+j}

    @property
    def kernel_pairs(self) -> int:
        return self.n - len(self.mus)

    def doc(self, geometry: dict, **extra) -> dict:
        return {"gamma": f"standard:{self.n}", "A": mat(self.a), "geometry": geometry, **extra}

    def split_lagrangian(self, rng) -> np.ndarray:
        """A real line cos a psi + sin a gamma psi per block, plus a random
        Lagrangian of the kernel block: block-compatible by construction."""
        n, nb = self.n, len(self.mus)
        eye = np.eye(2 * n)
        cols = []
        for j in range(nb):
            a = rng.uniform(0.0, np.pi)
            cols.append(self.u @ (np.cos(a) * eye[:, j] + np.sin(a) * eye[:, n + j]))
        kp = self.kernel_pairs
        if kp:
            f = orc.frame_from_phi(orc.rand_unitary(rng, kp))
            emb = np.hstack([eye[:, nb:n], eye[:, n + nb:]])
            cols.extend((self.u @ emb @ f).T)
        return np.array(cols).T


def planted_model(rng, n: int, blocks: int) -> PlantedModel:
    """A = U diag(D, -D) U* with U commuting with gamma, D = (mu_1..mu_b, 0..)."""
    gap = 0.0
    while gap < 0.1:
        mus = sorted(rng.uniform(0.3, 1.0, size=blocks))
        gap = float(np.min(np.diff(mus))) if blocks > 1 else 1.0
    dvals = np.zeros(n)
    dvals[:blocks] = mus
    bp, bm = orc.standard_bases(n)
    u = bp @ orc.rand_unitary(rng, n) @ bp.conj().T + bm @ orc.rand_unitary(rng, n) @ bm.conj().T
    a = orc.conj_diag(u, np.concatenate([dvals, -dvals]))
    return PlantedModel(n, list(map(float, mus)), 0.5 * (a + a.conj().T), orc.standard_gamma(n), u)


def _direct_sum(f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    d = f0.shape[0]
    out = np.zeros((2 * d, f0.shape[1] + f1.shape[1]), dtype=complex)
    out[:d, : f0.shape[1]] = f0
    out[d:, f0.shape[1]:] = f1
    return out


def _model_item(name, group, d, what, doc, check, engine=None) -> Item:
    src = d / "in" / f"{name}.json"
    out = d / "out" / f"{name}.jsonl"
    _write(src, doc)

    def wrapped(code, reports):
        if code != 0:
            return f"exit code {code}"
        if len(reports) != 1 or "error" in reports[0]:
            return f"report {reports}"
        return check(reports[0])

    return Item(name, group, wrapped, argv=["model", what, str(src), "--out", str(out)],
                out=out, engine=engine)


def _check_interval(pm: PlantedModel, length, p, q, window):
    def check(rep):
        lams = rep.get("eigenvalues", [])
        if not lams or lams != sorted(lams) or max(abs(x) for x in lams) > window + 1e-9:
            return f"eigenvalues not sorted inside the window: {lams[:5]}"
        worst = max(orc.interval_condition(pm.a, pm.gamma, lam, length, p, q) for lam in lams)
        return None if worst < 1e-6 else f"an eigenvalue misses the boundary condition by {worst:.2e}"
    return check


def _check_circle(pm: PlantedModel, circumference, window):
    vals = np.linalg.eigvalsh(pm.a)
    mus = sorted(float(x) for x in vals if x > 1e-7)
    kdim = int(np.sum(np.abs(vals) <= 1e-7))
    want = orc.circle_spectrum(mus, kdim, circumference, window)

    def check(rep):
        got = rep.get("eigenvalues", [])
        if len(got) != len(want) or np.max(np.abs(np.subtract(got, want)), initial=0.0) > 1e-9:
            return f"{len(got)} eigenvalues, closed form gives {len(want)}"
        for lam in sorted(set(np.round(got, 9))):
            mult = int(np.sum(np.abs(np.subtract(got, lam)) < 1e-8))
            if orc.periodic_nullity(pm.a, pm.gamma, lam, circumference) != mult:
                return f"transmission condition at {lam} disagrees with multiplicity {mult}"
        return None
    return check


def _check_cauchy(pm: PlantedModel, length):
    want = orc.cauchy_frame(pm.a, length)

    def check(rep):
        frame = np.array(rep["frame"])[..., 0] + 1j * np.array(rep["frame"])[..., 1]
        phi = np.array(rep["phi"])[..., 0] + 1j * np.array(rep["phi"])[..., 1]
        gap = orc.subspace_gap(frame, want)
        unit = np.linalg.norm(phi.conj().T @ phi - np.eye(phi.shape[0]), 2)
        ortho = np.linalg.norm(frame.conj().T @ frame - np.eye(frame.shape[1]), 2)
        if max(gap, unit, ortho) > 1e-8:
            return f"Cauchy data off by {gap:.2e} (unitarity {unit:.1e}, frame {ortho:.1e})"
        return None
    return check


def _check_stretch(rep):
    dist = [x["distance"] for x in rep.get("distances", [])]
    if not dist or any(b > a + 1e-12 for a, b in zip(dist, dist[1:])) or dist[-1] >= 1e-8 \
            or dist[0] <= dist[-1]:
        return f"stretch distances do not decrease below 1e-8: {dist}"
    return None


def _check_glue(pm: PlantedModel, length, length_minus, p_frame):
    tau = orc.glue_tau_mu(pm.a, pm.gamma, length, length_minus, p_frame)
    want_tau = int(round(tau))
    want_circle = 0.5 * 2 * pm.kernel_pairs

    def check(rep):
        if rep.get("pass") is not True:
            return f"report {rep}"
        return _first_error(
            _float_close(rep.get("eta_circle"), want_circle, 0.0, "eta~ of the circle"),
            _int_close(rep.get("tau_mu"), want_tau, "tau_mu(gamma L_-, P, L_+)"),
            _float_close(rep["delta"] + want_tau, 0.0, rep["bound"] + 1e-9,
                         "eta~(M) - eta~+ - eta~- + tau_mu"))
    return check


def build_model(rng, d: Path, parse: Callable, nicolaescu: Callable) -> list[Item]:
    """``parse(doc, frames)`` turns a model document and a list of double-space
    frames into program objects for the Nicolaescu items, which call
    ``nicolaescu(op, family, window)``."""
    items = []
    for kind, count in MODEL_MIX:
        for i in range(count):
            name = f"{kind.replace('/', '-')}-{i:02d}"
            shapes = SPLIT_GLUE_SHAPES if kind == "glue/split" else MODEL_SHAPES
            n, nb = shapes[i % len(shapes)]
            pm = planted_model(rng, n, nb)
            length = float(rng.uniform(1.8, 2.5))
            if kind == "spectrum/circle":
                window = float(rng.uniform(8.0, 12.0))
                doc = pm.doc({"circle": length}, window=window)
                items.append(_model_item(name, kind, d, "spectrum", doc,
                                         _check_circle(pm, length, window)))
            elif kind == "spectrum/interval":
                window = float(rng.uniform(8.0, 12.0))
                p, q = pm.split_lagrangian(rng), pm.split_lagrangian(rng)
                doc = pm.doc({"interval": length}, window=window,
                             boundary={"P": {"frame": mat(p)}, "Q": {"frame": mat(q)}})
                items.append(_model_item(name, kind, d, "spectrum", doc,
                                         _check_interval(pm, length, p, q, window)))
            elif kind == "cauchy":
                doc = pm.doc({"interval": length})
                items.append(_model_item(name, kind, d, "cauchy", doc, _check_cauchy(pm, length)))
            elif kind == "stretch":
                mu = min(pm.mus)
                doc = pm.doc({"interval": length},
                             stretch={"nu": 0.0,
                                      "lengths": list(np.linspace(1.0, 24.0, 6) / mu)})
                items.append(_model_item(name, kind, d, "stretch", doc, _check_stretch))
            elif kind.startswith("glue"):
                length_minus = float(rng.uniform(1.8, 2.5))
                if kind == "glue/split":
                    p = _direct_sum(pm.split_lagrangian(rng), pm.split_lagrangian(rng))
                    n_max = GLUE_SPLIT_N_MAX
                else:
                    # the piece's own Cauchy data couples the two ends in every
                    # block: the eigenphase-tracking engine.  Cauchy data of
                    # another length, or the transmission condition, make the
                    # identity fail on some seeds (see CHANGES.md).
                    p = orc.cauchy_frame(pm.a, length)
                    n_max = GLUE_COUPLED_N_MAX
                doc = pm.doc({"interval": length},
                             glue={"length_minus": length_minus, "P": {"frame": mat(p)},
                                   "n_max": n_max})
                items.append(_model_item(name, kind, d, "glue", doc,
                                         _check_glue(pm, length, length_minus, p),
                                         engine=kind.split("/")[1]))
            else:
                turns = NICOLAESCU_TURNS[i % len(NICOLAESCU_TURNS)]
                base, q_side = pm.split_lagrangian(rng), pm.split_lagrangian(rng)
                ts = np.linspace(0.0, 1.0, 33 + 16 * int(abs(turns)))
                frames = []
                for t in ts:
                    s = float(t) * turns * np.pi
                    rot = np.cos(s) * np.eye(2 * n) + np.sin(s) * pm.gamma
                    frames.append(_direct_sum(rot @ base, q_side))
                op, family = parse(pm.doc({"interval": length}), frames)
                family = list(zip(map(float, ts), family))
                items.append(Item(name, kind, _check_nicolaescu,
                                  call=lambda op=op, family=family: nicolaescu(
                                      op, family, NICOLAESCU_WINDOW)))
    return items


def _check_nicolaescu(code, rec):
    if code != 0:
        return f"raised {rec!r}"
    if not isinstance(rec.get("sf"), int) or rec.get("sf") != rec.get("maslov"):
        return f"spectral flow {rec.get('sf')} != Maslov index {rec.get('maslov')}"
    return None


def build(workload: str, seed: int, d: Path, parse: Callable, nicolaescu: Callable) -> list[Item]:
    rng = np.random.default_rng([seed, STREAMS[workload]])
    (d / "in").mkdir(parents=True, exist_ok=True)
    (d / "out").mkdir(parents=True, exist_ok=True)
    if workload == "refine":
        return build_refine(rng, d)
    if workload == "batch":
        return build_batch(rng, d)
    return build_model(rng, d, parse, nicolaescu)
