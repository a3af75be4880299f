#!/usr/bin/env python3
"""symflow benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload refine|batch|model --seed N --seconds S --trace 0|1

Run from the root of a checkout: symflow is imported from ``src/`` beside
this directory, never from an installed copy, and the command fails with
exit code 2 when ``src/symflow`` is missing.  Inputs, reports and traces go
to ``.bench_out/`` in the checkout.

With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s`` (median
wall time of fresh ``python -m symflow.cli`` processes running the first
item, the first spawn discarded), then, after one untimed warm-up pass,
whole timed passes over the item list for about ``--seconds``:
``items_per_s``, ``item_p50_ms`` and ``item_p90_ms`` (over the per-item
median latencies) and ``peak_rss_mb``.  With ``--trace 1`` it alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object; every item's output is checked.

Item times are reported at the host's reference speed.  The shared host
this benchmark was tuned on runs the same code up to 1.5x slower for
stretches from a tenth of a second to minutes, so a raw wall time says as
much about the host as about the program.  A fixed calibration kernel (``probe_s``) is
timed before and after every item, and the item's wall time is multiplied
by ``PROBE_REF_S`` over the mean of those two probe times.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every child; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# An ambient default tolerance would change what the items compute.
os.environ.pop("SYMFLOW_TOL", None)

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 6          # the first is discarded: it fills caches and writes bytecode
IMPORTTIME_SPAWNS = 4     # likewise
SPAWN_TIMEOUT_S = 60
# The calibration kernel's time at the host's fast speed (its 1st percentile
# over many runs on a 2-vCPU Firecracker VM).  A constant: it only sets the
# unit of the reported times, so it must not change between commits.
PROBE_REF_S = 0.25e-3
_PROBE_MATRIX = np.cos(np.add.outer(np.arange(16.0), np.arange(16.0)) ** 1.5)
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.T
_eigvalsh = np.linalg.eigvalsh    # bound here, so a traced pass times the probe unwrapped


def probe_s() -> float:
    """Wall time of a fixed kernel of the program's kind of work: small
    dense eigen-solves and an interpreted loop."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(10):
        _eigvalsh(_PROBE_MATRIX)
        for j in range(100):
            acc += j * j
    return time.perf_counter() - t0


def probe_median_s(count: int = 5) -> float:
    return statistics.median(probe_s() for _ in range(count))


def import_symflow():
    if not (SRC / "symflow" / "__init__.py").is_file():
        print(f"benchmark: no symflow sources under {SRC}; run it from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import symflow.cli
    import symflow.errors
    import symflow.model_dirac
    import symflow.serialization

    if Path(symflow.__file__).resolve().parent != SRC / "symflow":
        print(f"benchmark: symflow imported from {symflow.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return symflow


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def read_payload(item):
    """The item's reports: the JSON lines it wrote, [] if it wrote none."""
    if item.out is None or not item.out.exists():
        return []
    return [json.loads(line) for line in item.out.read_text(encoding="utf-8").splitlines()
            if line.strip()]


class Runner:
    def __init__(self, sf, items):
        self.sf = sf
        self.items = items
        self.verdicts = {}    # (item, output) -> error or None: outputs repeat exactly
        self.host_factors = []    # per pass: median probe time over PROBE_REF_S

    def run_pass(self, tracer=None):
        """Call every item once.

        Returns (wall seconds, per-item latency at reference speed, per-item
        (exit code, payload)).  The payload is the item's reports, read back
        after the call, outside its timing.  The probes that scale each
        latency run outside the item's timing and span.
        """
        gc.collect()
        main = self.sf.cli.main
        latencies = []
        probes = [probe_s()]
        results = []
        start = time.perf_counter()
        for i, it in enumerate(self.items):
            if it.out is not None:
                it.out.unlink(missing_ok=True)
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.begin(i)
            try:
                res = (main(it.argv), None) if it.argv is not None else (0, it.call())
            except self.sf.errors.SymflowError as exc:
                res = (1, repr(exc))
            except Exception as exc:  # a traceback is a failed item, not a dead run
                res = (-1, f"{type(exc).__name__}: {exc}")
            finally:
                if tracer is not None:
                    tracer.end()
            latencies.append(time.perf_counter() - t0)
            probes.append(probe_s())
            if it.argv is not None and res[0] != -1:
                res = (res[0], read_payload(it))
            results.append(res)
        wall = time.perf_counter() - start
        latencies = [lat * 2.0 * PROBE_REF_S / (before + after)
                     for lat, before, after in zip(latencies, probes, probes[1:])]
        self.host_factors.append(statistics.median(probes) / PROBE_REF_S)
        return wall, latencies, results

    def check_pass(self, results):
        """Per item: None when right, else (wrong answer?, reason)."""
        out = []
        for i, (it, (code, payload)) in enumerate(zip(self.items, results)):
            if code == -1:
                out.append((False, f"{it.name}: {payload}"))
                continue
            key = (i, code, json.dumps(payload, sort_keys=True, default=repr))
            if key not in self.verdicts:
                try:
                    err = it.check(code, payload)
                except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
                    err = f"malformed output ({type(exc).__name__}: {exc})"
                self.verdicts[key] = err
            err = self.verdicts[key]
            # a wrong answer reported as success makes the run incorrect;
            # an error the program reported is a failed item
            out.append(None if err is None else (code == 0, f"{it.name}: {err}"))
        return out


def setup_seconds(item) -> tuple[float, list, bool]:
    """Median wall time, at reference speed, of fresh CLI processes running
    ``item``: each spawn is scaled by the probe medians taken just before
    and just after it."""
    out = item.out.with_suffix(".setup.jsonl")
    argv = [sys.executable, "-m", "symflow.cli"] + [
        str(out) if a == str(item.out) else a for a in item.argv]
    times = []
    ok = True
    for _ in range(SETUP_SPAWNS):
        before = probe_median_s()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SPAWN_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * 2.0 * PROBE_REF_S / (before + probe_median_s()))
        payload = [json.loads(x) for x in out.read_text().splitlines()] if out.exists() else []
        ok &= proc.returncode == 0 and item.check(proc.returncode, payload) is None
    return statistics.median(times[1:]), times, ok


def import_times_ms() -> tuple[float, float]:
    """Median cumulative import time of symflow.cli and of scipy.optimize,
    from ``python -X importtime``."""
    cli_ms, opt_ms = [], []
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import symflow.cli"],
                              cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=SPAWN_TIMEOUT_S)
        top = 0.0
        opt = 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative = int(parts[1])
            name = parts[2].rstrip()
            # unindented lines are the modules the import statement loaded itself
            if name.strip() in ("symflow", "symflow.cli") and name == " " + name.strip():
                top += cumulative
            if name.strip() == "scipy.optimize":
                opt = cumulative
        cli_ms.append(top / 1e3)
        opt_ms.append(opt / 1e3)
    return statistics.median(cli_ms[1:]), statistics.median(opt_ms[1:])


def unit_of(metric: str) -> str:
    if metric.endswith("_us") or ".us_per_" in metric:
        return "us"
    if metric.endswith("_ms") or "_ms." in metric:
        return "ms"
    return "%" if metric.endswith("_pct") else "count"


def parse_for_nicolaescu(sf):
    ser, md = sf.serialization, sf.model_dirac

    def parse(doc, frames):
        op = ser.model_from_json(doc)["op"]
        space = md.double_boundary(op).space
        return op, [ser.lagrangian_from_json({"frame": workloads.mat(f)}, space)
                    for f in frames]

    def nicolaescu(op, family, window):
        # looked up at call time, so a traced run sees its wrapper
        return md.nicolaescu_verify(op, family, window=window)

    return parse, nicolaescu


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t_start = time.perf_counter()
    sf = import_symflow()
    work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    items = workloads.build(args.workload, args.seed, work, *parse_for_nicolaescu(sf))
    runner = Runner(sf, items)
    correct = True
    t_inputs = time.perf_counter()

    if args.trace == 0:
        setup_s, spawns, ok = setup_seconds(items[0])
        correct &= ok
    t_spawns = time.perf_counter()
    runner.check_pass(runner.run_pass()[2])        # warm-up: lazy imports, caches
    t_warm = time.perf_counter()

    walls = {False: [], True: []}      # per pass, raw: what the run length counts
    latencies = {False: [], True: []}  # per pass, per item, at reference speed
    checked = []
    tracer = tracing.Tracer() if args.trace else None
    traced = False
    while True:
        if traced:
            tracer.install()
        try:
            wall, lat, results = runner.run_pass(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        latencies[traced].append(lat)
        checked += runner.check_pass(results)
        spent = sum(walls[False]) + sum(walls[True])
        mean_pass = spent / (len(walls[False]) + len(walls[True]))
        done = spent + 0.5 * mean_pass >= args.seconds
        if args.trace:
            traced = not traced
            done = done and len(walls[True]) > 0 and not traced
        if done:
            break

    attempted = len(checked)
    failed = sum(1 for c in checked if c is not None)
    wrong = [c[1] for c in checked if c is not None and c[0]]
    correct &= not wrong
    for c in sorted({c[1] for c in checked if c is not None})[:5]:
        print(f"failed item: {c}", file=sys.stderr)

    n = len(items)

    def items_per_s(traced):
        return n * len(walls[traced]) / float(np.sum(latencies[traced]))

    ips_untraced = items_per_s(False)
    if args.trace == 0:
        per_item = np.median(np.array(latencies[False]), axis=0)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": ips_untraced, "unit": "1/s"},
            "item_p50_ms": {"value": 1e3 * float(np.percentile(per_item, 50)), "unit": "ms"},
            "item_p90_ms": {"value": 1e3 * float(np.percentile(per_item, 90)), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        print(f"setup spawns (s): {', '.join(f'{t:.3f}' for t in spawns)}")
    else:
        engines = {i: it.engine for i, it in enumerate(items) if it.engine}
        layers = tracing.layer_metrics(tracer.spans, n * len(walls[True]), engines)
        import_ms, scipy_opt_ms = import_times_ms()
        layers["setup.import_ms"] = import_ms
        layers["setup.scipy_optimize_ms"] = scipy_opt_ms
        layers["trace.overhead_pct"] = 100.0 * (ips_untraced / items_per_s(True) - 1.0)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
        trace_file = OUT / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write(trace_file, [it.name for it in items])
        print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    print(f"phases (s): inputs {t_inputs - t_start:.1f}, spawns {t_spawns - t_inputs:.1f}, "
          f"warm-up {t_warm - t_spawns:.1f}, passes and checks {time.perf_counter() - t_warm:.1f}")
    print(f"workload {args.workload} seed {args.seed}: {n} items x "
          f"{len(walls[False])} untraced + {len(walls[True])} traced passes; "
          f"attempted {attempted}, failed {failed}")
    factors = runner.host_factors[1:]
    print(f"host slowness (median probe / PROBE_REF_S) over the timed passes: median "
          f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}; "
          f"raw untraced items/s {n * len(walls[False]) / sum(walls[False]):.3f}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
