"""How the cost of spectral flow and of the winding number grows with the
matrix size k.

    python3 tools/flow_growth.py

Run it from the root of a checkout; symflow is imported from ``src/`` beside
this directory.  For each k in 2 4 8 16 32 64 96 it prints three lines (one
BLAS thread):

* ``flow``: the family of ``BENCH_7.json``, t -> (1 - t) A + t B, with A and
  B random complex Hermitian k x k matrices drawn from ``rng_for(11, k)``,
  sampled at 5 initial points: the wall seconds of one ``spectral_flow``
  call, the samples of the refined path, the flow, the inertia flow
  n_-(A) - n_-(B) (equal to the flow by the telescoping identity) and the
  logged crossings;
* ``wind``, twice: rotation paths t -> Q diag(e^{i(theta + rate t)}) Q* on
  a Haar frame Q, with theta uniform in [-pi, pi] and rate in [-3, 3],
  drawn from ``rng_for(11, k)``, sampled at 33 and then at 5 initial
  points: the initial samples, the wall seconds of the fastest of three
  ``wind`` calls, the samples of the refined path, the winding number (or
  the error ``wind`` raised) and its closed form, the signed count of the
  odd multiples of pi that each theta + rate t passes;

then the whole table as one JSON object,
``{"flow": {k: row}, "wind": {k: row}, "wind_5": {k: row}}``, ``wind_5``
holding the rows from 5 initial samples.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (2, 4, 8, 16, 32, 64, 96)


def _herm(rng, k: int) -> np.ndarray:
    h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return 0.5 * (h + h.conj().T)


def growth_row(k: int) -> dict:
    from symflow import HermitianPath, spectral_flow
    from symflow.verification import rng_for

    rng = rng_for(11, k)
    a, b = _herm(rng, k), _herm(rng, k)
    path = HermitianPath.from_generator(lambda t: (1 - t) * a + t * b, initial_samples=5)
    start = time.perf_counter()
    result = spectral_flow(path)
    seconds = time.perf_counter() - start
    inertia = int(np.sum(np.linalg.eigvalsh(a) < 0) - np.sum(np.linalg.eigvalsh(b) < 0))
    return {"seconds": round(seconds, 4), "samples": len(path.refined().times),
            "flow": result.value, "inertia_flow": inertia,
            "crossings": len(result.log.crossings)}


def wind_row(k: int, initial_samples: int) -> dict:
    from symflow import UnitaryPath, wind
    from symflow.errors import SymflowError
    from symflow.verification import random_unitary, rng_for

    rng = rng_for(11, k)
    q = random_unitary(rng, k)
    theta = rng.uniform(-np.pi, np.pi, k)
    rate = rng.uniform(-3.0, 3.0, k)
    closed = int(np.sum(np.floor((theta + rate - np.pi) / (2 * np.pi))
                        - np.floor((theta - np.pi) / (2 * np.pi))))
    row = {"initial_samples": initial_samples}
    path = UnitaryPath.from_generator(
        lambda t: (q * np.exp(1j * (theta + rate * t))) @ q.conj().T,
        initial_samples=initial_samples)
    seconds = []
    try:
        for _ in range(3):
            start = time.perf_counter()
            result = wind(path)
            seconds.append(time.perf_counter() - start)
    except SymflowError as exc:
        return {**row, "error": type(exc).__name__, "closed_form": closed}
    return {**row, "seconds": round(min(seconds), 4), "samples": len(path.refined().times),
            "wind": result.value, "closed_form": closed}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    table = {"flow": {}, "wind": {}, "wind_5": {}}
    rows = (("flow", "flow", growth_row), ("wind", "wind", lambda k: wind_row(k, 33)),
            ("wind", "wind_5", lambda k: wind_row(k, 5)))
    for k in SIZES:
        for kind, key, row_of in rows:
            row = table[key][str(k)] = row_of(k)
            print(f"k={k:3d}  {kind}  " + "  ".join(f"{name} {value}" for name, value in row.items()),
                  flush=True)
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
