"""Fuzzing the input boundary: mutated `run` and `model` documents.

Each example takes a valid document, drops fields, swaps in values of the
wrong type, or puts non-finite or huge numbers where numbers go, and runs
``cli.main`` in-process.  Whatever the document, the exit code is one of
0, 1, 2, 3, no exception escapes (so no traceback is printed), and `run`
prints one record per scenario.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symflow.cli import main

P = {"frame": [[[1, 0]], [[0, 0]]]}
Q = {"frame": [[[0, 0]], [[1, 0]]]}
R = {"phi": [[[0, 1]]]}


def _turn(a):
    return [[[1.0 - a, 0]], [[a, 0]]]


RUN_SCENARIOS = [
    {"name": "tr_log", "op": "tr_log", "inputs": {"U": [[[1, 0]]]}},
    {"name": "tau_w", "op": "tau_w", "inputs": {"U": [[[1, 0]]], "V": [[[-1, 0]]]}},
    {"name": "wind", "op": "wind", "inputs": {"path": {"parametric": {
        "kind": "rotation", "phases": [0.0, 1.0], "rates": [4.0, -2.0]}}}},
    {"name": "wind-exp", "op": "wind", "inputs": {"path": {"parametric": {
        "kind": "exp-interp", "u0": [[[1, 0]]], "u1": [[[0, 1]]], "samples": 9}}}},
    {"name": "wind-inverse", "op": "wind_plus_inverse_check", "inputs": {"path": {"samples": [
        [0.0, [[[1, 0]]]], [0.5, [[[0.6, 0.8]]]], [1.0, [[[0, 1]]]]]}}},
    {"name": "tau_mu", "op": "tau_mu", "inputs": {"space": "standard:1", "P": P, "Q": Q, "R": R}},
    {"name": "m", "op": "m", "inputs": {"space": "standard:1", "V": P, "W": R}},
    {"name": "tsig", "op": "tsig", "inputs": {"space": "standard:1", "V": P, "W": Q, "U": R}},
    {"name": "conversion", "op": "tsig_tau_mu_conversion",
     "inputs": {"space": "standard:1", "V": P, "W": Q, "U": R}},
    {"name": "intersection", "op": "intersection_dim",
     "inputs": {"space": "standard:1", "L1": P, "L2": P}},
    {"name": "maslov", "op": "maslov", "inputs": {"space": "standard:1", "samples": [
        [t, _turn(a), Q["frame"]] for t, a in ((0.0, 0.0), (0.5, 0.3), (1.0, 0.6))]}},
    {"name": "eta", "op": "eta_finite", "inputs": {"H": [[[1, 0], [0, 0]], [[0, 0], [-2, 0]]]}},
    {"name": "sf", "op": "spectral_flow", "tolerances": {"tol": 1e-9},
     "inputs": {"path": {"parametric": {
         "kind": "linear", "h0": [[[-1, 0], [0, 0]], [[0, 0], [2, 0]]],
         "h1": [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]], "samples": 5}}}},
    {"name": "sf-eta", "op": "sf_eta", "inputs": {"path": {"samples": [
        [0.0, [[[1, 0]]]], [0.5, [[[1.2, 0]]]], [1.0, [[[1.5, 0]]]]]}}},
]

MODEL_DOC = {
    "gamma": "standard:1",
    "A": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
    "geometry": {"interval": 1.0},
    "boundary": {"P": P, "Q": Q},
    "window": 6.0,
    "eta": {"N_max": 200, "tol": 1e-9},
    "stretch": {"nu": 0.0, "lengths": [2.0, 20.0]},
    "glue": {"length_minus": 0.7, "n_max": 200, "P": {"frame": [
        [[-0.938507899795, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.345257761712, 0.0]],
        [[-0.345257761712, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.938507899795, 0.0]]]}},
}

WRONG_TYPES = [None, "x", True, [], {}, [1], 2.5]
BAD_NUMBERS = [float("nan"), float("inf"), -float("inf"), 0, -1, 1e12, -1e12, 1e308,
               10 ** 400, 1e-300]


def _locations(doc, prefix=()):
    """Every (path, value) inside a JSON document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,), value
        yield from _locations(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        spots = list(_locations(doc))
        if not spots:
            break
        path, value = draw(st.sampled_from(spots))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["drop", "type", "number"]))
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "type" or not isinstance(value, (int, float)):
            # a copy: a later mutation may edit inside it
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
        else:
            parent[path[-1]] = draw(st.sampled_from(BAD_NUMBERS))
    return doc


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


def _call(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (code, out, err)
    assert "Traceback" not in err
    return out


@pytest.mark.parametrize("index", range(len(RUN_SCENARIOS)),
                         ids=[s["name"] for s in RUN_SCENARIOS])
def test_each_seed_scenario_runs(tmp_path, capsys, index):
    f = tmp_path / "run.json"
    f.write_text(json.dumps([RUN_SCENARIOS[index]]))
    assert main(["run", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


@FUZZ
@given(doc=mutated({"scenarios": RUN_SCENARIOS}))
def test_mutated_run_document(tmp_path, capsys, doc):
    f = tmp_path / "run.json"
    f.write_text(json.dumps(doc))
    out = _call(["run", str(f)], capsys)
    scenarios = doc.get("scenarios") if isinstance(doc, dict) else None
    if isinstance(scenarios, list) and set(doc) == {"scenarios"}:
        assert len(out.splitlines()) == len(scenarios)
        for line in out.splitlines():
            assert isinstance(json.loads(line), dict)


@pytest.mark.parametrize("what", ["spectrum", "cauchy", "stretch", "glue"])
def test_seed_model_document(tmp_path, capsys, what):
    f = tmp_path / "model.json"
    f.write_text(json.dumps(MODEL_DOC))
    assert main(["model", what, str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == what


@FUZZ
@given(what=st.sampled_from(["spectrum", "cauchy", "stretch", "glue"]),
       doc=mutated(MODEL_DOC))
def test_mutated_model_document(tmp_path, capsys, what, doc):
    f = tmp_path / "model.json"
    f.write_text(json.dumps(doc))
    out = _call(["model", what, str(f)], capsys)
    if isinstance(doc, dict):
        assert len(out.splitlines()) == 1
        assert isinstance(json.loads(out), dict)


def _with_huge_entry(name, *path):
    """The seed scenario ``name`` with the number at ``path`` set to 1e308,
    finite, but twice it is not."""
    sc = copy.deepcopy(next(s for s in RUN_SCENARIOS if s["name"] == name))
    parent = sc["inputs"]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = 1e308
    return sc


@pytest.mark.parametrize("scenario", [
    _with_huge_entry("sf", "path", "parametric", "h0", 1, 1, 0),
    _with_huge_entry("eta", "H", 1, 1, 0),
    _with_huge_entry("sf-eta", "path", "samples", 1, 1, 0, 0, 0),
], ids=["sf", "eta", "sf-eta"])
def test_huge_hermitian_entry(tmp_path, capsys, scenario):
    f = tmp_path / "run.json"
    f.write_text(json.dumps([scenario]))
    out = _call(["run", str(f)], capsys)
    assert len(out.splitlines()) == 1
