"""How the cost of spectral flow grows with the matrix size k.

    python3 tools/flow_growth.py

Run it from the root of a checkout; symflow is imported from ``src/`` beside
this directory.  For each k in 2 4 8 16 32 64 96 it takes the family
of ``BENCH_7.json``: t -> (1 - t) A + t B, with A and B random complex
Hermitian k x k matrices drawn from ``rng_for(11, k)``, sampled at 5 initial
points.  It prints one line per k: the wall seconds of one ``spectral_flow``
call (one BLAS thread), the samples of the refined path, the flow, the
inertia flow n_-(A) - n_-(B) (equal to the flow by the telescoping identity)
and the logged crossings; then the whole table as one JSON object.
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


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    table = {}
    for k in SIZES:
        row = table[str(k)] = growth_row(k)
        print(f"k={k:3d}  " + "  ".join(f"{name} {value}" for name, value in row.items()),
              flush=True)
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
