"""Benchmark of the betamix engines: one seeded workload per invocation.

    python3 bench/run.py --workload slope_fit --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/``; no
install is needed.  Each invocation measures in fresh processes:

* ``setup_s``: from spawning a process until its inputs are ready (the
  interpreter, the imports and the study generation).  Two set-up-only
  processes and the measuring process give three samples; the median is
  reported.
* ``wall_s``: the median time of one round of the workload's operations.
  Rounds repeat until the next one would end past ``--seconds`` from the
  start of the invocation; there is always at least one.
* ``peak_rss_mb``: peak resident memory of the measuring process after its
  first round, before the output checks run.

The first round's outputs are checked against computations made apart from
the package; later rounds must reproduce them bit for bit.  An operation
that raises or fails a check counts as failed.

With ``--trace 1`` the measuring process wraps the calls between the
package's modules, writes the spans and counts to
``.bench_out/trace_<workload>_seed<seed>.json``, prints the per-layer table
and reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("slope_fit", "scan_wide", "mcmc_wide", "ml_profile")
SETUP_SAMPLES = 2
#: every invocation must end within 180 s
TIME_LIMIT = 170.0


class ChildFailed(RuntimeError):
    pass


def child(args: list[str], timeout: float) -> tuple[float, dict, list[str]]:
    """Run worker.py; return its spawn time, its JSON record and its other output."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker timed out after {exc.timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    started = time.monotonic()
    give_up = started + TIME_LIMIT
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        for _ in range(SETUP_SAMPLES):
            spawned, rec, _ = child([*common, "--setup-only"], give_up - time.monotonic())
            setup.append(rec["ready_at"] - spawned)
        work_args = [*common, "--deadline", str(started + args.seconds),
                     "--trace", str(args.trace)]
        trace_file = ROOT / ".bench_out" / f"trace_{args.workload}_seed{args.seed}.json"
        if args.trace:
            work_args += ["--trace-file", str(trace_file)]
        spawned, rec, text = child(work_args, give_up - time.monotonic())
        setup.append(rec["ready_at"] - spawned)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rounds = rec["round_s"]
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} round(s), "
          f"{rec['attempted']} operation(s) attempted, {rec['failed']} failed")
    print("round wall s: " + " ".join(f"{r:.3f}" for r in rounds))
    print("setup s: " + " ".join(f"{s:.3f}" for s in setup))
    print(f"invocation s: {time.monotonic() - started:.1f}")
    print(f"calibration s: {rec['calibration_s']:.4f} (a fixed computation outside "
          "betamix; a slow reading marks a slow spell of the machine)")
    for problem in rec["problems"]:
        print(f"check failed: {problem}")
    for line in text:
        print(line)

    if args.trace:
        print(f"trace written to {trace_file.relative_to(ROOT)}")
        metrics = rec["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
