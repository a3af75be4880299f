"""The benchmark tracer's contract with symflow.

``bench/tracing.py`` looks up every ``SYMFLOW_TARGETS`` attribute when it is
installed, and its metrics index the results of ``refined`` (``.size``,
``.times``) and ``eta_truncated`` (``.n_used``).  A renamed target or a
changed result kills every ``bench/run.py --trace 1`` run, so this test runs
benchmark items under the tracer.  It reads ``bench/`` and writes nothing
there: inputs go to a temporary directory, and no bytecode is written.
"""

import json
import math
import sys
from pathlib import Path

import pytest

import symflow.cli
import symflow.errors  # noqa: F401  (the modules bench/run.py loads before tracing)
import symflow.model_dirac as md
import symflow.serialization as ser

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def bench(monkeypatch):
    pytest.importorskip("scipy.linalg")  # the tracer patches scipy.linalg.expm
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads
    return tracing, workloads


def _parse(doc, frames):
    op = ser.model_from_json(doc)["op"]
    space = md.double_boundary(op).space
    return op, [ser.lagrangian_from_json({"frame": f}, space) for f in frames]


def test_traced_items_keep_the_tracer_contract(bench, tmp_path):
    tracing, workloads = bench
    refine = workloads.build("refine", 1, tmp_path / "refine", None, None)
    model = workloads.build("model", 1, tmp_path / "model",
                            lambda doc, frames: _parse(doc, map(workloads.mat, frames)),
                            # looked up at call time, so the traced wrapper runs
                            lambda op, family, window: md.nicolaescu_verify(op, family, window))
    items = ([next(it for it in refine if it.group == g)
              for g in ("spectral_flow.k2", "wind/rotation.k2")]
             + [next(it for it in model if it.group == g)
                for g in ("glue/split", "glue/coupled", "spectrum/interval", "nicolaescu")])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, it in enumerate(items):
            tracer.begin(i)
            try:
                # a Nicolaescu item calls the library, as bench/run.py does
                code, payload = (symflow.cli.main(it.argv), None) if it.call is None \
                    else (0, it.call())
            finally:
                tracer.end()
            if it.call is None:
                payload = [json.loads(line) for line in it.out.read_text().splitlines()]
            assert it.check(code, payload) is None, it.name
    finally:
        tracer.uninstall()
    assert not hasattr(md.eta_truncated, "__wrapped__")
    engines = {i: it.engine for i, it in enumerate(items) if it.engine}
    metrics = tracing.layer_metrics(tracer.spans, len(items), engines)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["unitary_invariants.samples"] > 0 and metrics["spectral_flow.samples"] > 0
    assert metrics["model_dirac.eta_ms.split"] > 0 and metrics["model_dirac.eta_ms.coupled"] > 0
    # eta takes a closed form on split and coupled blocks alike: no block
    # sums roots through eta_truncated any more
    assert metrics["model_dirac.us_per_root.split"] == 0.0
    assert metrics["model_dirac.roots"] == 0
    assert metrics["model_dirac.spectrum_ms"] > 0 and metrics["model_dirac.nicolaescu_ms"] > 0
