"""Benchmark entry point: run one workload and print its figures.

Usage, from the repository root::

    python3 perfbench/run.py --workload tpch-scan-grid --seed 1 --seconds 20 --trace 0

Workloads: ``tpch-scan-grid``, ``tpcc-cold-ingest``, ``tenant-load``
(``README.md`` in this directory documents each, and every metric).

This process prepares the inputs for ``--seed`` (untimed: it fills the
benchmark's own trace cache and records the reference counts), then runs
the workload in one fresh child process (``suite.py``) and reads that
child's peak resident set size from ``getrusage(RUSAGE_CHILDREN)`` once it
has exited.  It prints one line per metric, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The exit status is 0 only when every output was
correct.

All files the benchmark writes go under ``perfbench/.state`` (trace cache,
reference counts, ingest directories, span dumps).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = BENCH_DIR / ".state"

#: The child is killed (and the run fails) after this many seconds on top of
#: the requested measuring time.
CHILD_GRACE_SECONDS = 100


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be between 1 and 600")
    return args


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ["REPRO_TRACE_CACHE"] = str(STATE / "traces")
    sys.path.insert(0, str(SRC))
    import suite

    args = parse_args(argv, sorted(suite.WORKLOADS))
    suite.prepare(suite.WORKLOADS[args.workload], args.seed, STATE)

    STATE.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=STATE, suffix=".json", delete=False) as handle:
        out = Path(handle.name)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    command = [
        sys.executable,
        str(BENCH_DIR / "suite.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--state", str(STATE),
        "--out", str(out),
    ]
    try:
        try:
            child = subprocess.run(command, env=env, timeout=args.seconds + CHILD_GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            print("error: workload process timed out and was killed", file=sys.stderr)
            return 1
        if child.returncode != 0:
            print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)

    metrics = result["metrics"]
    if not args.trace:
        # Linux reports ru_maxrss in KiB.
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}

    info = dict(
        result["info"],
        workload=args.workload,
        seed=args.seed,
        jobs=suite.JOBS,
        usable_cpus=len(os.sched_getaffinity(0)),
    )
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for key, value in info.items():
        print(f"#   {key}: {value}")
    for error in result["errors"]:
        print(f"# MISMATCH {error}")
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>18.6f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
