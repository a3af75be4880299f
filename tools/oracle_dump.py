"""Write symflow's observable behaviour to a directory, for ``diff -r``.

    python3 tools/oracle_dump.py OUTDIR

Run it from the root of a checkout; symflow is imported from ``src/`` beside
this directory.  It writes

* ``OUTDIR/verify-all-s42.txt``: the stdout and exit code of
  ``symflow verify all --seed 42``;
* ``OUTDIR/verify-draws-s42.txt``: one line per verification suite, its name
  and a sha256 over the bytes of every value the suite drew from its
  ``verification.rng_for`` streams at seed 42, in draw order (pass counts
  alone cannot show that a suite still draws the same cases);
* ``OUTDIR/<workload>/<document>.out``: the stdout, the exit code and the last
  line of any escaped traceback of ``symflow run DOC`` (workloads ``refine``
  and ``batch``) or ``symflow model WHAT DOC`` (workload ``model``; ``WHAT``
  is the document name up to its first ``-``), for every document in
  ``.bench_out/<workload>-s1-t0/in/``;
* ``OUTDIR/model/nicolaescu-NN.out``: for each Nicolaescu family of the
  seed-1 ``model`` workload (built again in a temporary directory with
  ``bench/workloads.py``, which has no documents for them), one JSON line
  with the ``nicolaescu_verify`` record, or its error, and the interval
  spectrum of every sample, then its exit code (0, or 1 on an error), so
  that ``oracle_diff.py`` tells rounding drift of the spectra from a change.

Generate those documents first with
``python3 bench/run.py --workload W --seed 1 --seconds 1`` for each
workload.  Two checkouts behave the same on this oracle when
``diff -r`` of their two output directories is empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("refine", "batch", "model")


def _call(main, argv: list[str]) -> str:
    """stdout, exit code and escaped exception of one in-process CLI call."""
    out = io.StringIO()
    escaped = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped traceback is behaviour too
            code = 1
            escaped = f"traceback: {type(exc).__name__}: {exc}\n"
    return f"{out.getvalue()}exit: {code}\n{escaped}"


class _RecordingGenerator:
    """A ``numpy.random.Generator`` stand-in that feeds the bytes of every
    value it returns into one running hash."""

    def __init__(self, gen, digest):
        self._gen = gen
        self._digest = digest

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def draw(*args, **kwargs):
            value = attr(*args, **kwargs)
            self._digest.update(np.asarray(value).tobytes())
            return value

        return draw


def _draw_digests(seed: int) -> str:
    """Per suite, the sha256 of everything it draws from ``rng_for``."""
    from symflow import verification

    original = verification.rng_for
    lines = []
    try:
        for name in verification.SUITES:
            digest = hashlib.sha256()
            verification.rng_for = lambda s, stream: _RecordingGenerator(
                original(s, stream), digest)
            verification.run_suite(name, seed=seed)
            lines.append(f"{name} {digest.hexdigest()}\n")
    finally:
        verification.rng_for = original
    return "".join(lines)


def _nicolaescu_outputs() -> dict[str, str]:
    """Per seed-1 ``model`` Nicolaescu family, its ``.out`` text: the
    families are parsed as ``bench/run.py`` parses them, and each sample's
    spectrum is ``_boundary_spectra`` of its constraint, as
    ``nicolaescu_verify`` takes it."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from symflow import model_dirac as md, serialization as ser
    from symflow.errors import SymflowError

    def parse(doc, frames):
        op = ser.model_from_json(doc)["op"]
        space = md.double_boundary(op).space
        return op, [ser.lagrangian_from_json({"frame": workloads.mat(f)}, space)
                    for f in frames]

    def nicolaescu(op, family, window):
        try:
            rec, code = md.nicolaescu_verify(op, family, window=window), 0
        except SymflowError as exc:
            rec, code = {"error": type(exc).__name__, "detail": str(exc)}, 1
        constraints = [md._constraint_of(bnd) for _, bnd in family]
        spectra = md._boundary_spectra(op, constraints, window, "+", 1e-10)
        rec["spectra"] = [s.tolist() for s in spectra]
        return f"{json.dumps(rec, sort_keys=True)}\nexit: {code}\n"

    with tempfile.TemporaryDirectory() as tmp:
        items = workloads.build("model", 1, Path(tmp), parse, nicolaescu)
        return {it.name: it.call() for it in items if it.group == "nicolaescu"}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    sys.path.insert(0, str(ROOT / "src"))
    from symflow.cli import main as cli_main

    missing = [w for w in WORKLOADS if not (ROOT / ".bench_out" / f"{w}-s1-t0" / "in").is_dir()]
    if missing:
        print(f"no bench documents for {missing}; run "
              "python3 bench/run.py --workload W --seed 1 --seconds 1 first", file=sys.stderr)
        return 2
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "verify-all-s42.txt").write_text(
        _call(cli_main, ["verify", "all", "--seed", "42"]), encoding="utf-8")
    (outdir / "verify-draws-s42.txt").write_text(_draw_digests(42), encoding="utf-8")
    for w in WORKLOADS:
        (outdir / w).mkdir(exist_ok=True)
        for doc in sorted((ROOT / ".bench_out" / f"{w}-s1-t0" / "in").glob("*.json")):
            cmd = ["model", doc.stem.split("-", 1)[0]] if w == "model" else ["run"]
            (outdir / w / f"{doc.stem}.out").write_text(
                _call(cli_main, cmd + [str(doc)]), encoding="utf-8")
    for name, text in _nicolaescu_outputs().items():
        (outdir / "model" / f"{name}.out").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
