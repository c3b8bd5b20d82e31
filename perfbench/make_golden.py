"""Regenerate ``golden.json``: the default seed's reference figures.

For every workload, at :data:`suite.DEFAULT_SEED`, this records

* the per-cell counts of an object-path (``columnar=False``) replay, which
  the benchmark compares every default-seed replay against, and
* the open-loop arrival rate: ``arrival_fraction`` times the modeled
  capacity (requests/s served back to back) of CLIC unified at 3,600 pages
  under the workload's HDD write-through cost model.  The rate is derived
  once, here, and is a constant for every seed afterwards.

Run from the repository root (takes about a minute; the traces are
generated into a temporary directory)::

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import re
import sys
import tempfile

from repro.simulation.engine import ParallelSweepRunner, SweepCell
from repro.trace.cache import TraceCache, set_default_trace_cache

import suite


def capacity_rps(workload: suite.Workload, source: object) -> float:
    spec = workload.policy_spec("CLIC", suite.REPORT_CAPACITY, 1)
    runner = ParallelSweepRunner(
        source, jobs=suite.JOBS, columnar=True, cost_model=workload.cost_model(suite.DEFAULT_SEED)
    )
    sweep = runner.run([SweepCell(x=suite.REPORT_CAPACITY, specs=(spec,))], parameter="capacity")
    return sweep.series[spec.label][0].result.latency.throughput_rps


def main() -> int:
    seed = suite.DEFAULT_SEED
    golden: dict = {"seed": seed, "count_fields": list(suite.COUNT_FIELDS), "workloads": {}}
    with tempfile.TemporaryDirectory() as directory:
        set_default_trace_cache(TraceCache(directory))
        for name, workload in suite.WORKLOADS.items():
            spec = workload.spec(seed)
            spec.ensure()
            source = spec.open()
            capacity = capacity_rps(workload, source)
            golden["workloads"][name] = {
                "requests": workload.requests,
                "capacity_rps": capacity,
                "arrival_fraction": workload.arrival_fraction,
                "arrival_rate_rps": workload.arrival_fraction * capacity,
                "cells": suite.object_reference(workload, source, seed),
            }
            print(f"{name}: capacity {capacity:.3f} rps", file=sys.stderr)
    text = json.dumps(golden, indent=1, sort_keys=True)
    # One line per cell: collapse the lists of counts.
    text = re.sub(r"\[\s+([-\d,\s]+?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    suite.GOLDEN_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
