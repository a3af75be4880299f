"""Time each item group of one benchmark workload in process.

    python3 tools/ab_strata.py --workload model --seed 1 --passes 20

Run it from the root of a checkout; symflow is imported from ``src/`` beside
this directory, through ``bench/run.py``.  The script builds the workload's
items for one seed with ``bench/workloads.py`` (into
``.bench_out/strata-<workload>-s<seed>/``), runs one untimed warm-up pass and
then ``--passes`` timed passes with ``bench/run.py``'s ``Runner``, checks every
pass, and prints one line per item group: its item count and the median and
the minimum over the passes of the group's summed item latencies, in
milliseconds per pass at the benchmark's reference speed.  The last line is
the same for the whole pass.

To compare two checkouts, run the script in each in turn, on the same seed,
and alternate which goes first: the end-to-end benchmark shows whether a
change is faster, this shows in which group the time went.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run as bench  # noqa: E402  (sets one BLAS thread before numpy loads)
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=20)
    args = ap.parse_args()
    if args.passes < 1:
        ap.error("--passes must be at least 1")

    sf = bench.import_symflow()
    work = bench.OUT / f"strata-{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    items = workloads.build(args.workload, args.seed, work, *bench.parse_for_nicolaescu(sf))
    runner = bench.Runner(sf, items)
    failed = sum(c is not None for c in runner.check_pass(runner.run_pass()[2]))
    per_group = defaultdict(list)  # group -> per pass, its summed latency in ms
    for _ in range(args.passes):
        _, latencies, results = runner.run_pass()
        failed += sum(c is not None for c in runner.check_pass(results))
        sums = defaultdict(float)
        for it, lat in zip(items, latencies):
            sums[it.group] += 1e3 * lat
        for group, ms in sums.items():
            per_group[group].append(ms)
    counts = defaultdict(int)
    for it in items:
        counts[it.group] += 1
    totals = [sum(ms) for ms in zip(*per_group.values())]
    print(f"workload {args.workload} seed {args.seed}: {len(items)} items, {args.passes} passes, "
          f"{failed} failed item calls (warm-up included)")
    print(f"{'group':<20} {'items':>5} {'median ms':>10} {'min ms':>10}")
    for group, ms in list(per_group.items()) + [("pass", totals)]:
        print(f"{group:<20} {counts.get(group, len(items)):>5} {statistics.median(ms):>10.2f} "
              f"{min(ms):>10.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
