import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symflow as sf
from symflow import serialization as ser
from symflow._linalg import branch_phases
from symflow.cli import main
from symflow.errors import SchemaError
from symflow.verification import random_unitary, rng_for


@pytest.fixture(autouse=True)
def _no_ambient_tol(monkeypatch):
    # The CLI reads SYMFLOW_TOL; keep the caller's value out of every test
    # (subprocesses inherit os.environ), so only a test that sets it sees it.
    monkeypatch.delenv("SYMFLOW_TOL", raising=False)


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "symflow.cli", *args],
                          capture_output=True, text=True, **kw)


class TestMatrixJson:
    def test_round_trip(self):
        m = np.array([[1 + 2j, 0], [3, -1j]])
        again = ser.matrix_from_json(ser.matrix_to_json(m))
        np.testing.assert_allclose(again, m)

    def test_ragged_rejected(self):
        with pytest.raises(SchemaError):
            ser.matrix_from_json([[[1, 0], [0, 0]], [[0, 0]]])

    def test_scalar_forms(self):
        assert ser.complex_from_json(2) == 2
        assert ser.complex_from_json([1, -1]) == 1 - 1j
        with pytest.raises(SchemaError):
            ser.complex_from_json("1+i")


def _reference_finite(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _reference_complex(z) -> complex:
    if _reference_finite(z):
        return complex(z)
    if isinstance(z, (list, tuple)) and len(z) == 2 and all(map(_reference_finite, z)):
        return complex(z[0], z[1])
    raise SchemaError(f"complex scalar must be a finite number or [re, im], got {z!r}")


def reference_matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    """The per-entry matrix parser, two Python calls per entry: the reference
    the bulk parser must match bit for bit and error for error."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{what} must be a nonempty array of rows")
    rows = []
    width = None
    for row in obj:
        if not isinstance(row, list):
            raise SchemaError(f"{what} rows must be arrays")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{what} has ragged rows ({len(row)} vs {width})")
        rows.append([_reference_complex(z) for z in row])
    return np.array(rows, dtype=complex)


def _outcome(parse, doc, what):
    """("ok", dtype, shape, bytes) of a parsed matrix, or ("error", message)."""
    try:
        m = parse(doc, what)
    except SchemaError as exc:
        return ("error", str(exc))
    return ("ok", m.dtype.str, m.shape, m.tobytes())


# ints at the edges of exact float and int64 conversion
EDGE_INTS = [2**53 + 1, -(2**53) - 1, 2**63 - 1, 2**63, 2**63 + 1, -(2**63) - 1,
             2**64 + 1, 3**40, 2**1023 + 2**970]
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from(EDGE_INTS),
)
ENTRIES = st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2))
# entries every parser must reject: bools, strings, null, the NaN and
# Infinity tokens, ints beyond the float range, pairs holding those, and
# entries of the wrong length
BAD_ENTRIES = st.sampled_from([
    True, False, [True, 0], [1.0, False], [0, True], "1", "1+2j", None, [None, 0],
    float("nan"), float("inf"), -float("inf"), [float("nan"), 0.0], [0.0, -float("inf")],
    10**400, -(10**400), 2**1024, [10**400, 0], [0, 2**1024],
    [1, 2, 3], [1], [], [[1, 0], 0], {"re": 1, "im": 0},
])


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    width = draw(st.integers(0, 4))
    return [[draw(ENTRIES) for _ in range(width)] for _ in range(n)]


@st.composite
def damaged_matrices(draw):
    """A matrix with one to three faults: bad entries, ragged or non-list
    rows, in any order (a bad entry may come before a ragged row)."""
    doc = draw(matrices())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(doc) - 1))
        fault = draw(st.sampled_from(["entry", "longer", "shorter", "row"]))
        if not isinstance(doc[i], list):
            continue
        if fault == "entry" and doc[i]:
            doc[i][draw(st.integers(0, len(doc[i]) - 1))] = draw(BAD_ENTRIES)
        elif fault == "longer":
            doc[i].append(draw(ENTRIES))
        elif fault == "shorter" and doc[i]:
            doc[i].pop()
        elif fault == "row":
            doc[i] = draw(st.sampled_from([None, 1.0, "row", {"row": []}, (1, 2)]))
    return doc


def _wire(doc):
    """The document as json.load gives it back (NaN and Infinity as tokens)."""
    return json.loads(json.dumps(doc))


class TestBulkMatrixParser:
    @settings(max_examples=400, deadline=None)
    @given(doc=matrices(), what=st.sampled_from(["matrix", "U", "frame"]))
    def test_accepted_documents_parse_bit_for_bit(self, doc, what):
        doc = _wire(doc)
        expected = _outcome(reference_matrix_from_json, doc, what)
        assert expected[0] == "ok"
        assert _outcome(ser.matrix_from_json, doc, what) == expected

    @settings(max_examples=400, deadline=None)
    @given(doc=damaged_matrices(), what=st.sampled_from(["matrix", "H", "gamma"]))
    def test_damaged_documents_fail_with_the_same_message(self, doc, what):
        doc = _wire(doc)
        assert (_outcome(ser.matrix_from_json, doc, what)
                == _outcome(reference_matrix_from_json, doc, what))

    @pytest.mark.parametrize("doc", [
        [[[1, 0], [True, 0]], [[1, 0]]],       # bad entry in row 0, row 1 ragged
        [[[1, 0], "x"], [[1, 0], [0, 0]], 3],  # bad entry, then a row not a list
        [[[1.0, False]]], [[True, 0]], [[None]], [["1"]],
        [[[1, 2, 3]]], [[10**400]], [[[0, 10**400]]],
        [], {}, [[1], [1, 2]], [[1], 1],
    ])
    def test_first_fault_in_document_order(self, doc):
        with pytest.raises(SchemaError) as bulk:
            ser.matrix_from_json(doc, "M")
        with pytest.raises(SchemaError) as ref:
            reference_matrix_from_json(doc, "M")
        assert str(bulk.value) == str(ref.value)

    def test_json_non_finite_tokens_rejected(self):
        for text in ("[[NaN]]", "[[[0, Infinity]]]", "[[-Infinity]]"):
            with pytest.raises(SchemaError, match="finite number"):
                ser.matrix_from_json(json.loads(text))

    def test_float_subclasses_take_the_entry_loop(self):
        m = ser.matrix_from_json([[np.float64(1.5), (np.float64(0.0), 2.0)]])
        assert m.tobytes() == np.array([[1.5, 2j]]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(doc=matrices())
    def test_emit_matches_per_entry_emit(self, doc):
        m = reference_matrix_from_json(_wire(doc))
        per_entry = [[[complex(z).real, complex(z).imag] for z in row] for row in m]
        assert json.dumps(ser.matrix_to_json(m)) == json.dumps(per_entry)


class TestLagrangianJson:
    def test_frame_form(self):
        lag = ser.lagrangian_from_json(
            {"space": "standard:1", "frame": [[[1, 0]], [[0, 0]]]})
        assert abs(lag.phi[0, 0] - 1) < 1e-12

    def test_phi_form(self):
        lag = ser.lagrangian_from_json({"space": "standard:1", "phi": [[[-1, 0]]]})
        assert sf.subspace_distance(
            lag.frame, np.array([[0], [1]], dtype=complex)) < 1e-12

    def test_needs_exactly_one_of_frame_phi(self):
        with pytest.raises(SchemaError):
            ser.lagrangian_from_json({"space": "standard:1"})

    def test_gamma_matrix_space(self):
        lag = ser.lagrangian_from_json(
            {"space": [[[0, 0], [-1, 0]], [[1, 0], [0, 0]]],
             "frame": [[[1, 0]], [[1, 0]]]})
        assert abs(lag.phi[0, 0] + 1j) < 1e-12


class TestPathJson:
    def test_samples_form(self):
        path = ser.unitary_path_from_json(
            {"samples": [[0.0, [[[1, 0]]]], [1.0, [[[0, 1]]]]]})
        assert path.size == 1

    def test_rotation_form_winds(self):
        path = ser.unitary_path_from_json(
            {"parametric": {"kind": "rotation", "phases": [0.0],
                            "rates": [2 * np.pi]}})
        assert sf.wind(path).value == 1

    def test_exp_interp_endpoints(self):
        u0 = np.eye(2)
        u1 = np.diag([1j, -1j])
        path = ser.unitary_path_from_json(
            {"parametric": {"kind": "exp-interp",
                            "u0": ser.matrix_to_json(u0),
                            "u1": ser.matrix_to_json(u1)}})
        np.testing.assert_allclose(path.mats[0], u0, atol=1e-12)
        np.testing.assert_allclose(path.mats[-1], u1, atol=1e-12)

    def test_exp_interp_generator_endpoints(self):
        # the relative unitary u1 u0* has an eigenvalue at -1, on the branch cut
        rng = rng_for(3, 0)
        u0 = random_unitary(rng, 4)
        v = random_unitary(rng, 4)
        u1 = (v * np.exp(1j * np.array([np.pi, 2.0, -1.0, 0.5]))) @ v.conj().T @ u0
        path = ser.unitary_path_from_json(
            {"parametric": {"kind": "exp-interp", "u0": ser.matrix_to_json(u0),
                            "u1": ser.matrix_to_json(u1)}})
        np.testing.assert_allclose(path.generator(0.0), u0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(path.generator(1.0), u1, rtol=0, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            ser.unitary_path_from_json({"parametric": {"kind": "spline"}})


def _parametric_docs():
    """(id, parse, kind, parametric document) for every parametric kind, at
    k = 1 and larger; one rotation has an eigenphase at -1 for all t."""
    rng = rng_for(23, 1)

    def herm(k):
        h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        return ser.matrix_to_json(0.5 * (h + h.conj().T))

    def unit(k):
        return ser.matrix_to_json(random_unitary(rng, k))

    hermitian, unitary = ser.hermitian_path_from_json, ser.unitary_path_from_json
    docs = [
        ("linear-k1", hermitian, sf.HermitianPath,
         {"kind": "linear", "h0": [[[-0.5, 0]]], "h1": [[[2.0, 0]]], "samples": 7}),
        ("linear-k5", hermitian, sf.HermitianPath,
         {"kind": "linear", "h0": herm(5), "h1": herm(5)}),
        ("exp-interp-k1", unitary, sf.UnitaryPath,
         {"kind": "exp-interp", "u0": [[[0.6, 0.8]]], "u1": [[[-1.0, 0]]], "samples": 5}),
        ("exp-interp-k6", unitary, sf.UnitaryPath,
         {"kind": "exp-interp", "u0": unit(6), "u1": unit(6), "samples": 9}),
        ("rotation-k1", unitary, sf.UnitaryPath,
         {"kind": "rotation", "phases": [0.3], "rates": [-7.0]}),
        ("rotation-k4-at-minus-one", unitary, sf.UnitaryPath,
         {"kind": "rotation", "phases": [np.pi, 0.5, -2.0, 1.0],
          "rates": [0.0, 3.0, -1.5, 6.0], "frame": unit(4), "samples": 11}),
        ("rotation-k3-no-frame", unitary, sf.UnitaryPath,
         {"kind": "rotation", "phases": [1.0, -1.0, 2.5], "rates": [2.0, 0.25, -4.0]}),
    ]
    return [pytest.param(parse, kind, par, id=name) for name, parse, kind, par in docs]


class TestParametricStacks:
    """A parametric path samples its initial times in one call of its
    generator on all of them; every sample has the bits of the generator
    called at that time alone, as refinement calls it."""

    @pytest.mark.parametrize("parse, kind, par", _parametric_docs())
    def test_stacked_samples_are_those_of_one_time_at_a_time(self, parse, kind, par):
        tol = 1e-9
        path = parse({"parametric": par}, tol)
        n = len(path.times)
        alone = kind.from_generator(path.generator, initial_samples=n, tol=tol)
        assert path.times == alone.times
        assert all(a.tobytes() == b.tobytes() for a, b in zip(path.mats, alone.mats))
        ts = np.linspace(0.0, 1.0, n)
        stacked = path.generator(ts)
        assert stacked.shape == (n, path.size, path.size)
        assert all(m.tobytes() == path.generator(t).tobytes()
                   for m, t in zip(stacked, ts.tolist()))

    def test_each_kind_stacks_its_formula(self):
        # row j of the stacked generator has the bits of the kind's formula
        # at time t_j alone: the rotation diagonal as v diag(d) v*, not (v * d) v*
        rng = rng_for(23, 2)
        v, u0, u1 = (random_unitary(rng, 5) for _ in range(3))
        h0, h1 = (m + m.conj().T
                  for m in rng.normal(size=(2, 5, 5)) + 1j * rng.normal(size=(2, 5, 5)))
        phases, rates = rng.uniform(-np.pi, np.pi, 5), rng.uniform(-6.0, 6.0, 5)
        vals, vecs = np.linalg.eig(u1 @ u0.conj().T)
        log_phases = branch_phases(vals, 1e-9)
        formulas = [
            (ser.hermitian_path_from_json({"parametric": {
                "kind": "linear", "h0": ser.matrix_to_json(h0), "h1": ser.matrix_to_json(h1)}}),
             lambda t: (1 - t) * h0 + t * h1),
            (ser.unitary_path_from_json({"parametric": {
                "kind": "exp-interp", "u0": ser.matrix_to_json(u0), "u1": ser.matrix_to_json(u1)}}),
             lambda t: (vecs * np.exp(1j * t * log_phases)) @ np.linalg.inv(vecs) @ u0),
            (ser.unitary_path_from_json({"parametric": {
                "kind": "rotation", "phases": phases.tolist(), "rates": rates.tolist(),
                "frame": ser.matrix_to_json(v)}}),
             lambda t: v @ np.diag(np.exp(1j * (phases + rates * t))) @ v.conj().T),
        ]
        for path, formula in formulas:
            stacked = path.generator(np.array(path.times))
            assert all(m.tobytes() == formula(t).tobytes() for m, t in zip(stacked, path.times))


class TestRunCommand:
    def test_scenarios_stream(self, tmp_path):
        scen = {"scenarios": [
            {"name": "c2-triple", "op": "tsig",
             "inputs": {"space": "standard:1",
                        "V": {"frame": [[[1, 0]], [[0, 0]]]},
                        "W": {"frame": [[[1, 0]], [[1, 0]]]},
                        "U": {"frame": [[[0, 0]], [[1, 0]]]}}},
            {"name": "tauw-left-identity", "op": "tau_w",
             "inputs": {"U": [[[1, 0]]], "V": [[[-1, 0]]]}},
        ]}
        f = tmp_path / "scen.json"
        f.write_text(json.dumps(scen))
        r = run_cli("run", str(f))
        assert r.returncode == 0
        lines = [json.loads(l) for l in r.stdout.strip().splitlines()]
        assert lines[0]["value"] == 1
        assert lines[1]["value"] == 0

    def test_malformed_matrix_exits_2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"scenarios": [{
            "name": "bad", "op": "tr_log",
            "inputs": {"U": [[[1, 0], [0, 0]], [[0, 0]]]}}]}))
        assert run_cli("run", str(f)).returncode == 2

    def test_unknown_scenario_field_exits_2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"scenarios": [{
            "name": "x", "op": "tr_log", "inputs": {"U": [[[1, 0]]]},
            "extra": True}]}))
        assert run_cli("run", str(f)).returncode == 2

    def test_refinement_failure_exits_3(self, tmp_path):
        # sample-only path violating the step invariant
        f = tmp_path / "coarse.json"
        f.write_text(json.dumps({"scenarios": [{
            "name": "coarse", "op": "wind",
            "inputs": {"path": {"samples": [[0.0, [[[1, 0]]]],
                                            [1.0, [[[-1, 0]]]]]}}}]}))
        r = run_cli("run", str(f))
        assert r.returncode == 3

    def test_overflowing_sample_is_a_quiet_not_unitary_record(self, tmp_path):
        u = random_unitary(rng_for(61, 3), 3)
        bad = u.copy()
        bad[0, 1] = 1e200
        f = tmp_path / "big.json"
        f.write_text(json.dumps({"scenarios": [{
            "name": "big", "op": "wind",
            "inputs": {"path": {"samples": [[0.0, ser.matrix_to_json(bad)],
                                            [1.0, ser.matrix_to_json(u)]]}}}]}))
        r = run_cli("run", str(f))
        assert r.stderr == ""
        rec = json.loads(r.stdout)
        assert rec["error"] == "NotUnitary" and "modulus 1.000e+200" in rec["detail"]
        # a sample off the unitary group fails its scenario (exit 1) at any
        # distance, as in test_run_tolerance_reaches_the_sample_checks[wind]
        assert r.returncode == 1

    def test_tolerance_priority(self, tmp_path, monkeypatch):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"scenarios": [{
            "name": "t", "op": "tr_log", "inputs": {"U": [[[1, 0]]]}}]}))
        r = run_cli("--tol", "1e-7", "run", str(f))
        assert r.returncode == 0, r.stderr
        rec = json.loads(r.stdout.strip())
        assert rec["tolerances"]["tol"] == 1e-7
        # extend the inherited environment rather than replace it, so the
        # child still finds symflow (e.g. through PYTHONPATH)
        monkeypatch.setenv("SYMFLOW_TOL", "1e-6")
        r2 = run_cli("run", str(f))
        assert r2.returncode == 0, r2.stderr
        rec2 = json.loads(r2.stdout.strip())
        assert rec2["tolerances"]["tol"] == 1e-6
        # the flag wins over the environment variable
        r3 = run_cli("--tol", "1e-7", "run", str(f))
        assert r3.returncode == 0, r3.stderr
        rec3 = json.loads(r3.stdout.strip())
        assert rec3["tolerances"]["tol"] == 1e-7

    @pytest.mark.parametrize("source, value", [
        ("flag", "nan"), ("flag", "-1"), ("env", "abc"), ("env", "inf"),
        ("scenario", 0), ("scenario", "abc"),
    ])
    def test_bad_tolerance_exits_2(self, tmp_path, monkeypatch, source, value):
        scenario = {"name": "t", "op": "tr_log", "inputs": {"U": [[[1, 0]]]}}
        if source == "scenario":
            scenario["tolerances"] = {"tol": value}
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"scenarios": [scenario]}))
        argv = ["run", str(f)]
        if source == "flag":
            argv = ["--tol", value] + argv
        if source == "env":
            monkeypatch.setenv("SYMFLOW_TOL", value)
        assert main(argv) == 2

    def test_scenario_tolerance_is_the_zero_threshold(self, tmp_path, capsys):
        # at tol 1e-2 the start eigenvalue -1e-3 counts as zero (nonnegative
        # side), so nothing crosses; at the default 1e-9 it crosses once
        path = {"parametric": {"kind": "linear", "h0": [[[-0.001, 0]]], "h1": [[[1, 0]]]}}
        loose = {"tol": 0.01}
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"scenarios": [
            {"name": "sf", "op": "spectral_flow", "inputs": {"path": path},
             "tolerances": loose},
            {"name": "sf-eta", "op": "sf_eta", "inputs": {"path": path},
             "tolerances": loose},
            {"name": "sf-default", "op": "spectral_flow", "inputs": {"path": path}},
        ]}))
        assert main(["run", str(f)]) == 0
        sf_rec, eta_rec, default_rec = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert sf_rec["tolerances"]["tol"] == 0.01
        assert sf_rec["value"] == 0
        assert eta_rec["value"]["sf"] == 0
        assert default_rec["value"] == 1

    # Inputs off by about 7e-8, as if printed to 7 decimals: the run
    # tolerance 1e-5 accepts them, the default 1e-9 does not.
    ROUNDED_TURN = {"samples": [
        [j / 8, [[[round(np.cos(np.pi * j / 4), 7), round(np.sin(np.pi * j / 4), 7)]]]]
        for j in range(9)]}
    ROUNDED_H = [[[1.0, 0], [0.5 + 7e-8, 0]], [[0.5, 0], [-2.0, 0]]]

    @pytest.mark.parametrize("op, inputs, default_code, value", [
        ("wind", {"path": ROUNDED_TURN}, 1, 1),
        ("spectral_flow", {"path": {"parametric": {
            "kind": "linear", "h0": ROUNDED_H,
            "h1": [[[3.0, 0], [0.5 + 7e-8, 0]], [[0.5, 0], [2.0, 0]]]}}}, 2, 1),
        ("eta_finite", {"H": ROUNDED_H}, 2, {"eta": 0, "dim_ker": 0, "eta_tilde": 0.0}),
    ], ids=["wind", "spectral_flow", "eta_finite"])
    def test_run_tolerance_reaches_the_sample_checks(self, tmp_path, capsys, op, inputs,
                                                     default_code, value):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"name": op, "op": op, "inputs": inputs}))
        assert main(["run", str(f)]) == default_code
        capsys.readouterr()
        assert main(["--tol", "1e-5", "run", str(f)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["tolerances"]["tol"] == 1e-5
        assert rec["value"] == value

    @pytest.mark.parametrize("path", [
        {"parametric": {"kind": "linear", "h0": [[[-1, 0]]], "h1": [[[1, 0]]],
                        "samples": 1}},
        {"samples": [[1.0, [[[-1, 0]]]], [0.0, [[[1, 0]]]]]},
        {"samples": [[0.0, [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
                     [1.0, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]]},
        {"samples": [[0.0, [[float("nan")]]], [1.0, [[[1, 0]]]]]},
    ], ids=["one-sample", "decreasing-times", "non-hermitian", "nan-entry"])
    def test_malformed_path_exits_2(self, tmp_path, path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"scenarios": [{
            "name": "bad", "op": "spectral_flow", "inputs": {"path": path}}]}))
        r = run_cli("run", str(f))
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("samples", [
        [[1.0, [[[1, 0]], [[0, 0]]], [[[0, 0]], [[1, 0]]]],
         [0.0, [[[1, 0]], [[0, 0]]], [[[0, 0]], [[1, 0]]]]],
        [[0.0, [[[1, 0]], [[0, 0]]], [[[0, 0]], [[1, 0]]]]],
        [["a", [[[1, 0]], [[0, 0]]], [[[0, 0]], [[1, 0]]]],
         [1.0, [[[1, 0]], [[0, 0]]], [[[0, 0]], [[1, 0]]]]],
        [[float("nan"), [[[1, 0]], [[0, 0]]], [[[0, 0]], [[1, 0]]]],
         [1.0, [[[1, 0]], [[0, 0]]], [[[0, 0]], [[1, 0]]]]],
    ], ids=["decreasing-times", "one-sample", "string-time", "nan-time"])
    def test_malformed_maslov_samples_exit_2(self, tmp_path, samples):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"scenarios": [{
            "name": "bad", "op": "maslov",
            "inputs": {"space": "standard:1", "samples": samples}}]}))
        r = run_cli("run", str(f))
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("samples", [None, [3], 1, 2.5, True, float("inf")],
                             ids=["null", "array", "one", "fraction", "bool", "inf"])
    @pytest.mark.parametrize("op, par", [
        ("spectral_flow", {"kind": "linear", "h0": [[[-1, 0]]], "h1": [[[1, 0]]]}),
        ("wind", {"kind": "rotation", "phases": [0.0], "rates": [1.0]}),
        ("wind", {"kind": "exp-interp", "u0": [[[1, 0]]], "u1": [[[0, 1]]]}),
    ], ids=["linear", "rotation", "exp-interp"])
    def test_bad_parametric_samples_keep_the_batch(self, tmp_path, capsys, op, par, samples):
        bad = {"name": "bad", "op": op,
               "inputs": {"path": {"parametric": {**par, "samples": samples}}}}
        good = {"name": "t", "op": "tr_log", "inputs": {"U": [[[1, 0]]]}}
        f = tmp_path / "s.json"
        f.write_text(json.dumps([bad, good]))
        assert main(["run", str(f)]) == 2
        bad_rec, good_rec = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert bad_rec["error"] == "SchemaError"
        assert "parametric samples" in bad_rec["detail"]
        assert good_rec["pass"] is True

    def test_bad_scenario_does_not_hide_the_rest(self, tmp_path, capsys):
        good = {"name": "t", "op": "tr_log", "inputs": {"U": [[[1, 0]]]}}
        f = tmp_path / "s.json"
        f.write_text(json.dumps([good, {"op": "nope"}, good]))
        assert main(["run", str(f)]) == 2
        first, bad, last = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert first["value"] == last["value"] == [0.0, 0.0]
        assert bad["error"] == "SchemaError"
        assert bad["pass"] is False
        assert (bad["name"], bad["op"]) == ("?", "nope")
        assert bad["detail"]

    def test_out_file_and_pretty(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"scenarios": [{
            "name": "t", "op": "tr_log", "inputs": {"U": [[[1, 0]]]}}]}))
        out = tmp_path / "report.json"
        r = run_cli("run", str(f), "--out", str(out), "--pretty")
        assert r.returncode == 0
        assert json.loads(out.read_text())["value"] == [0.0, 0.0]


class TestVerifyCommand:
    def test_deterministic_bytes(self):
        a = run_cli("verify", "triple", "--seed", "42", "--count", "20")
        b = run_cli("verify", "triple", "--seed", "42", "--count", "20")
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_import_leaves_scipy_linalg_out(self):
        r = subprocess.run([sys.executable, "-c", "import sys, symflow.cli; "
                            "print('scipy.linalg' in sys.modules)"],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"

    def test_run_and_model_load_no_scipy(self, tmp_path):
        # winding, the inverse check, Maslov, exp-interp paths and a model
        # spectrum all run on numpy alone
        u1 = ser.matrix_to_json(np.diag([-1.0, 1j]))
        turn = {"parametric": {"kind": "rotation", "phases": [0.0, 1.0],
                               "rates": [2 * np.pi, -1.0]}}
        line = [[[1, 0]], [[0, 0]]]
        scenarios = [
            {"name": "w", "op": "wind", "inputs": {"path": turn}},
            {"name": "wi", "op": "wind_plus_inverse_check", "inputs": {"path": turn}},
            {"name": "x", "op": "wind", "inputs": {"path": {"parametric": {
                "kind": "exp-interp", "u0": ser.matrix_to_json(np.eye(2)), "u1": u1}}}},
            {"name": "m", "op": "maslov", "inputs": {"space": "standard:1", "samples": [
                [j / 8, [[[np.cos(np.pi * j / 8), 0]], [[np.sin(np.pi * j / 8), 0]]], line]
                for j in range(9)]}},
        ]
        run_doc = tmp_path / "s.json"
        run_doc.write_text(json.dumps(scenarios))
        model_doc = tmp_path / "m.json"
        model_doc.write_text(json.dumps({
            "gamma": "standard:1", "A": ser.matrix_to_json(np.diag([1.0, -1.0])),
            "geometry": {"circle": 1.0}, "window": 6.0}))
        out = tmp_path / "out.json"
        script = (
            "import json, sys\n"
            "from symflow.cli import main\n"
            f"codes = [main(['run', {str(run_doc)!r}, '--out', {str(out)!r}]),\n"
            f"         main(['model', 'spectrum', {str(model_doc)!r}, '--out', {str(out)!r}])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules\n"
            "                                if m.split('.')[0] == 'scipy')]))\n")
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == [[0, 0], []]

    def test_verify_loads_no_scipy(self):
        # every suite, with one case per identity, on numpy alone
        script = (
            "import contextlib, io, json, sys\n"
            "from symflow.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['verify', 'all', '--seed', '3', '--count', '1'])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules\n"
            "                               if m.split('.')[0] == 'scipy')]))\n")
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)[1] == []

    def test_unknown_suite_exits_2(self):
        r = run_cli("verify", "nonsense")
        assert r.returncode == 2

    def test_all_runs_every_suite(self):
        r = run_cli("verify", "all", "--seed", "7", "--count", "6")
        assert r.returncode == 0
        from symflow.verification import SUITES

        for name in SUITES:
            assert f"suite {name}:" in r.stdout


class TestModelCommand:
    @pytest.fixture()
    def model_doc(self):
        return {
            "gamma": "standard:1",
            "A": ser.matrix_to_json(np.diag([1.0, -1.0])),
            "geometry": {"interval": 1.0},
            "boundary": {
                "P": {"frame": [[[1, 0]], [[0, 0]]]},
                "Q": {"frame": [[[0, 0]], [[1, 0]]]},
            },
            "window": 6.0,
        }

    def test_interval_spectrum(self, tmp_path, model_doc):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(model_doc))
        r = run_cli("model", "spectrum", str(f))
        assert r.returncode == 0
        rec = json.loads(r.stdout)
        lams = np.array(rec["eigenvalues"])
        assert lams.size > 0
        # independent check against the library
        sp = sf.standard_space(1)
        op = sf.build_model(sp, np.diag([1.0, -1.0]), sf.Interval(1.0))
        p = sf.lagrangian_from_frame(sp, np.array([[1], [0]], dtype=complex))
        q = sf.lagrangian_from_frame(sp, np.array([[0], [1]], dtype=complex))
        np.testing.assert_allclose(lams, sf.interval_spectrum(op, p, q, 6.0),
                                   atol=1e-9)

    def test_circle_spectrum(self, tmp_path, model_doc):
        model_doc["geometry"] = {"circle": 2.0}
        del model_doc["boundary"]
        f = tmp_path / "m.json"
        f.write_text(json.dumps(model_doc))
        r = run_cli("model", "spectrum", str(f))
        assert r.returncode == 0, r.stderr
        rec = json.loads(r.stdout)
        assert min(abs(x) for x in rec["eigenvalues"]) == 1.0

    @pytest.mark.parametrize("what", ["cauchy", "stretch", "glue"])
    def test_interval_action_on_a_circle_exits_2(self, tmp_path, capsys, model_doc, what):
        # a well-formed circle document has no double boundary space, so
        # these actions take it as malformed input, not a traceback
        lx = sf.cauchy_data(sf.build_model(sf.standard_space(1), np.diag([1.0, -1.0]),
                                           sf.Interval(1.0)))
        model_doc["geometry"] = {"circle": 2.0}
        del model_doc["boundary"]
        model_doc["glue"] = {"length_minus": 0.7, "P": {"frame": ser.matrix_to_json(lx.frame)}}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(model_doc))
        assert main(["model", what, str(f)]) == 2
        rec = json.loads(capsys.readouterr().out)
        assert (rec["kind"], rec["error"], rec["pass"]) == (what, "SchemaError", False)

    def test_stretch(self, tmp_path, model_doc):
        model_doc["stretch"] = {"nu": 0.0, "lengths": [2.0, 20.0, 60.0]}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(model_doc))
        r = run_cli("model", "stretch", str(f))
        assert r.returncode == 0, r.stderr
        rec = json.loads(r.stdout)
        dists = [d["distance"] for d in rec["distances"]]
        assert dists[0] > dists[1] > dists[2] or dists[2] < 1e-12

    def test_glue(self, tmp_path, model_doc):
        lx = sf.cauchy_data(
            sf.build_model(sf.standard_space(1), np.diag([1.0, -1.0]),
                           sf.Interval(1.0)))
        model_doc["glue"] = {"length_minus": 0.7,
                             "P": {"frame": ser.matrix_to_json(lx.frame)},
                             "n_max": 2000}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(model_doc))
        r = run_cli("model", "glue", str(f))
        assert r.returncode == 0
        rec = json.loads(r.stdout)
        assert rec["tau_mu"] == 0
        assert rec["defect"] <= rec["bound"] + 1e-9

    @pytest.mark.parametrize("what, field, value", [
        ("spectrum", "geometry", {"interval": "abc"}),
        ("spectrum", "geometry", {"interval": -1.0}),
        ("spectrum", "geometry", {"circle": float("nan")}),
        ("spectrum", "window", "x"),
        ("spectrum", "window", 0),
        ("spectrum", "eta", {"N_max": None}),
        ("spectrum", "eta", {"N_max": 0}),
        ("spectrum", "eta", {"tol": True}),
        ("stretch", "stretch", {"lengths": ["a"]}),
        ("stretch", "stretch", {"lengths": 5.0}),
        ("stretch", "stretch", {"nu": "x"}),
        ("glue", "glue", {"length_minus": None, "P": {"frame": [[[1, 0]]]}}),
        ("glue", "glue", {"length_minus": 0.7, "P": {"frame": [[[1, 0]]]}, "n_max": 2.5}),
    ], ids=["interval-string", "interval-negative", "circle-nan", "window-string",
            "window-zero", "N_max-null", "N_max-zero", "eta-tol-bool", "lengths-string",
            "lengths-scalar", "nu-string", "length_minus-null", "n_max-fraction"])
    def test_malformed_number_exits_2(self, tmp_path, capsys, model_doc, what, field, value):
        model_doc[field] = value
        f = tmp_path / "m.json"
        f.write_text(json.dumps(model_doc))
        assert main(["model", what, str(f)]) == 2
        rec = json.loads(capsys.readouterr().out)
        assert rec["error"] == "SchemaError"
        assert rec["pass"] is False

    def test_schema_error_exits_2(self, tmp_path, model_doc):
        model_doc["bogus"] = 1
        f = tmp_path / "m.json"
        f.write_text(json.dumps(model_doc))
        assert run_cli("model", "spectrum", str(f)).returncode == 2


class TestCaps:
    """Each cap is checked before anything is allocated: the constructor is
    replaced by a stub that records its argument, and no call reaches numpy."""

    def test_standard_space_cap(self, monkeypatch):
        built = []
        monkeypatch.setattr(ser, "standard_space", built.append)
        ser.space_from_json(f"standard:{ser.MAX_STANDARD_N}")
        for spec in (f"standard:{ser.MAX_STANDARD_N + 1}", "standard:0", "standard:-2"):
            with pytest.raises(SchemaError):
                ser.space_from_json(spec)
        assert built == [ser.MAX_STANDARD_N]

    def test_parametric_samples_cap(self, monkeypatch):
        built = []

        class Stub:
            @staticmethod
            def from_generator(gen, initial_samples, **kw):
                built.append(initial_samples)

        monkeypatch.setattr(ser, "HermitianPath", Stub)
        par = {"kind": "linear", "h0": [[[1, 0]]], "h1": [[[1, 0]]]}
        ser.hermitian_path_from_json({"parametric": {**par, "samples": ser.MAX_SAMPLES}})
        with pytest.raises(SchemaError):
            ser.hermitian_path_from_json(
                {"parametric": {**par, "samples": ser.MAX_SAMPLES + 1}})
        assert built == [ser.MAX_SAMPLES]

    @pytest.mark.parametrize("section", [
        {"eta": {"N_max": ser.MAX_N_MAX + 1}},
        {"glue": {"length_minus": 1.0, "P": {}, "n_max": ser.MAX_N_MAX + 1}},
    ], ids=["eta-N_max", "glue-n_max"])
    def test_truncation_cap(self, monkeypatch, section):
        monkeypatch.setattr(ser, "build_model", lambda *a: pytest.fail("model built"))
        doc = {"gamma": "standard:1", "A": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
               "geometry": {"interval": 1.0}, **section}
        with pytest.raises(SchemaError):
            ser.model_from_json(doc)


class TestWindowAndScanCaps:
    """A model window holds at most MAX_N_MAX roots per block, and a root scan
    at most MAX_SCAN_POINTS grid points: a large window, a large ||A|| (which
    shrinks the scan step 0.45/mu) or a tiny length exits 2 at once.  Glue
    scans no roots, so it takes any ||A||."""

    GLUE_P = {"frame": [[[-0.938507899795, 0], [0, 0]], [[0, 0], [-0.345257761712, 0]],
                        [[-0.345257761712, 0], [0, 0]], [[0, 0], [-0.938507899795, 0]]]}

    @pytest.mark.parametrize("what, change", [
        ("spectrum", {"geometry": {"circle": 1.0}, "boundary": None, "window": 1e12}),
        ("spectrum", {"window": 1e12}),
        ("spectrum", {"window": 1e6, "geometry": {"interval": 1e-9}}),
        ("spectrum", {"A": ser.matrix_to_json(np.diag([1e7, -1e7]))}),
    ], ids=["circle-window", "interval-window", "tiny-length", "large-A"])
    def test_exits_2_within_a_second(self, tmp_path, capsys, what, change):
        doc = {"gamma": "standard:1", "A": ser.matrix_to_json(np.diag([1.0, -1.0])),
               "geometry": {"interval": 1.0},
               "boundary": {"P": {"frame": [[[1, 0]], [[0, 0]]]},
                            "Q": {"frame": [[[0, 0]], [[1, 0]]]}}}
        doc.update(change)
        doc = {k: v for k, v in doc.items() if v is not None}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["model", what, str(f)]) == 2
        assert time.perf_counter() - t0 < 1.0
        rec = json.loads(capsys.readouterr().out)
        assert rec["error"] == "SchemaError"
        assert rec["pass"] is False

    @pytest.mark.parametrize("mu, length", [(1e7, 1.0), (50.0, 16.0)],
                             ids=["large-A-glue", "past-708"])
    def test_coupled_glue_closes_within_a_second(self, tmp_path, capsys, mu, length):
        # GLUE_P couples the two ends of the one mode block; its eta is a
        # closed form at every mu L (1e7 and 800 here), so no root scan, no
        # scan cap and no underflowing frame
        doc = {"gamma": "standard:1", "A": ser.matrix_to_json(np.diag([mu, -mu])),
               "geometry": {"interval": length},
               "glue": {"length_minus": 0.7, "P": self.GLUE_P, "n_max": 200}}
        f = tmp_path / "m.json"
        f.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["model", "glue", str(f)]) == 0
        assert time.perf_counter() - t0 < 1.0
        rec = json.loads(capsys.readouterr().out)
        assert rec["pass"] is True
        assert rec["defect"] <= rec["bound"] <= 1e-12


class TestMainEntry:
    def test_in_process_run(self, tmp_path, capsys):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"scenarios": [{
            "name": "t", "op": "eta_finite",
            "inputs": {"H": ser.matrix_to_json(np.diag([1.0, -2.0, 0.0]))}}]}))
        assert main(["run", str(f)]) == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["value"] == {"eta": 0, "dim_ker": 1, "eta_tilde": 0.5}

    def test_reused_main_matches_fresh_processes(self, tmp_path, capsys, monkeypatch):
        """One process calls ``main`` back to back with and without each flag
        and with SYMFLOW_TOL changing; every call prints what a fresh
        ``python -m symflow.cli`` prints, so nothing leaks between calls."""
        run_doc = tmp_path / "s.json"
        run_doc.write_text(json.dumps({"scenarios": [
            {"name": "eta", "op": "eta_finite",
             "inputs": {"H": ser.matrix_to_json(np.diag([1.0, -2.0, 0.0]))}},
            {"name": "tr", "op": "tr_log", "inputs": {"U": [[[0, 1]]]}}]}))
        model_doc = tmp_path / "m.json"
        model_doc.write_text(json.dumps({
            "gamma": "standard:1", "A": ser.matrix_to_json(np.diag([1.0, -1.0])),
            "geometry": {"interval": 1.0}, "window": 6.0,
            "boundary": {"P": {"frame": [[[1, 0]], [[0, 0]]]},
                         "Q": {"frame": [[[0, 0]], [[1, 0]]]}}}))
        out = str(tmp_path / "out.jsonl")
        calls = [
            (None, ["run", str(run_doc)]),
            (None, ["--tol", "1e-6", "run", str(run_doc), "--pretty"]),
            (None, ["run", str(run_doc)]),
            ("1e-7", ["run", str(run_doc), "--timing"]),
            ("1e-7", ["run", str(run_doc), "--out", out]),
            ("1e-7", ["run", str(run_doc)]),
            ("1e-7", ["--tol", "1e-8", "model", "spectrum", str(model_doc), "--pretty"]),
            (None, ["model", "spectrum", str(model_doc)]),
            ("1e-7", ["--tol", "-1", "run", str(run_doc)]),
            ("bad", ["run", str(run_doc)]),
            (None, ["run", str(run_doc), "--timing", "--pretty"]),
            (None, ["run", str(run_doc)]),
        ]

        for env_tol, argv in calls:
            if env_tol is None:
                monkeypatch.delenv("SYMFLOW_TOL", raising=False)
            else:
                monkeypatch.setenv("SYMFLOW_TOL", env_tol)
            code = main(argv)
            got = capsys.readouterr()
            got_file = _take(out)
            child = run_cli(*argv, env=dict(os.environ))
            assert (code, got.err) == (child.returncode, child.stderr), argv
            assert got_file == _take(out), argv
            if "--timing" in argv:
                # wall times differ between processes; all else must not
                assert _timed_reports(got.out) == _timed_reports(child.stdout), argv
            else:
                assert got.out == child.stdout, argv


def _take(path) -> str | None:
    """The text of an --out file, removed so the next call writes it anew."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(path)
    return text


def _timed_reports(text: str) -> list:
    """The JSON reports a --timing call printed (compact lines or pretty
    blocks), each with its wall_ms taken out."""
    decoder = json.JSONDecoder()
    reports = []
    rest = text.lstrip()
    while rest:
        rec, end = decoder.raw_decode(rest)
        assert isinstance(rec.pop("wall_ms"), float)
        reports.append(rec)
        rest = rest[end:].lstrip()
    return reports


class TestPairPathFrames:
    """``pair_path_from_json`` builds every frame through one stacked
    ``graph_unitaries``; a bad frame raises what it raises alone, the first
    in document order."""

    @staticmethod
    def doc(rng, count=9):
        sp = sf.standard_space(2)
        samples = []
        for t in np.linspace(0.0, 1.0, count):
            ff, fg = (sf.lagrangian_from_phi(sp, random_unitary(rng, 2)).frame
                      @ random_unitary(rng, 2) for _ in range(2))
            samples.append([float(t), ser.matrix_to_json(ff), ser.matrix_to_json(fg)])
        return {"space": "standard:2", "samples": samples}

    def test_frames_as_alone(self):
        doc = self.doc(rng_for(30, 1))
        pp = ser.pair_path_from_json(doc)
        for (t, f, g), (t_doc, ff, fg) in zip(pp.samples, doc["samples"]):
            assert t == t_doc
            for lag, frame in ((f, ff), (g, fg)):
                alone = ser.lagrangian_from_json({"frame": frame}, lag.space)
                assert lag.phi.tobytes() == alone.phi.tobytes()

    @pytest.mark.parametrize("faults, first", [
        ({(3, 2): "rank", (5, 1): "string"}, (3, 2)),
        ({(2, 1): "string", (4, 2): "rank"}, (2, 1)),
        ({(4, 1): "isotropy", (4, 2): "string"}, (4, 1)),
        ({(6, 2): "rows"}, (6, 2)),
    ], ids=["rank-first", "schema-first", "isotropy-before-schema", "wrong-rows"])
    def test_first_bad_frame_in_document_order(self, faults, first):
        doc = self.doc(rng_for(30, 2))
        bad = {"rank": [[[1, 0], [2, 0]], [[0, 1], [0, 2]], [[1, 0], [2, 0]], [[0, 0], [0, 0]]],
               "isotropy": ser.matrix_to_json(np.vstack([np.eye(2), 3j * np.eye(2)])),
               "string": [[[1, 0], "x"], [[0, 0], [1, 0]], [[0, 0], [0, 0]], [[1, 0], [0, 0]]],
               "rows": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
        for (i, slot), kind in faults.items():
            doc["samples"][i][slot] = bad[kind]
        space = ser.space_from_json("standard:2")
        with pytest.raises(sf.errors.SymflowError) as alone:
            ser.lagrangian_from_json({"frame": doc["samples"][first[0]][first[1]]}, space)
        with pytest.raises(sf.errors.SymflowError) as whole:
            ser.pair_path_from_json(doc)
        assert type(whole.value) is type(alone.value)
        assert str(whole.value) == str(alone.value)
