"""Microbenchmark: on-disk trace cache + streaming replay vs. the old path.

Before the trace cache, every run (and every sweep worker) regenerated its
synthetic traces from scratch — the repository's biggest fixed cost.  This
benchmark measures one figure-sized trace (default: 60k requests) three
ways and checks the properties the streaming pipeline promises:

1. **cold**  — generate the trace and stream it into the binary cache file
               (what the first run of a figure pays);
2. **warm**  — stream the same trace back out of the cache (what every
               subsequent run and every sweep worker pays);
3. **replay**— a policy sweep over the cached trace, run from the
               materialized request list and from the lazy streamed source,
               at ``jobs=1`` and ``jobs>1`` — all four must produce
               bit-identical hit-ratio curves.

It also compares peak memory of a streamed replay against the footprint of
the materialized request list, to demonstrate that streaming never holds
the full trace in memory, and checks that cold generation of the growing
TPC-C database (DB2_C300) stays linear: the per-request cost at 80k
requests is compared with the cost at 10k.

Run it standalone (CI runs this as a smoke test)::

    PYTHONPATH=src python benchmarks/bench_trace_cache.py --requests 60000

PASS requires a cold/warm speedup of at least 2x, a streamed replay peak
under half the materialized-list footprint, and DB2_C300 generation at 80k
requests costing at most 1.25x the per-request time at 10k.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
import tracemalloc
from collections import deque
from pathlib import Path

from repro.cache.registry import create_policy
from repro.simulation.engine import MultiPolicySimulator
from repro.simulation.sweep import sweep_cache_sizes
from repro.trace.cache import (
    CACHE_ENV_VAR,
    TraceCache,
    TraceSpec,
    set_default_trace_cache,
)
from repro.workloads.standard import StandardTraceStream

DEFAULT_POLICIES = ("LRU", "ARC", "TQ")
DEFAULT_SIZES = (900, 1_800, 3_600)

#: Linear-generation gate: a trace whose tables grow with every request,
#: timed at a short and a long length (best of SCALING_ROUNDS each).
SCALING_TRACE = "DB2_C300"
SCALING_SIZES = (10_000, 80_000)
SCALING_ROUNDS = 3
MAX_SCALING_RATIO = 1.25


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="DB2_C300", help="standard trace name")
    parser.add_argument("--requests", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--no-check", action="store_true",
        help="report timings only; skip the pass/fail thresholds",
    )
    args = parser.parse_args(argv)

    spec = TraceSpec(args.trace, seed=args.seed, target_requests=args.requests)
    with tempfile.TemporaryDirectory(prefix="bench-trace-cache-") as tmp:
        cache = TraceCache(root=Path(tmp))
        set_default_trace_cache(cache)
        # Also point the environment at the temp dir: spawn-start-method
        # platforms re-resolve the default cache from the env in each sweep
        # worker, and must not touch the user's real cache.
        previous_env = os.environ.get(CACHE_ENV_VAR)
        os.environ[CACHE_ENV_VAR] = tmp
        try:
            return _run(args, spec, cache)
        finally:
            set_default_trace_cache(None)
            if previous_env is None:
                os.environ.pop(CACHE_ENV_VAR, None)
            else:
                os.environ[CACHE_ENV_VAR] = previous_env


def _run(args, spec: TraceSpec, cache: TraceCache) -> int:
    # --- cold: generate + stream into the cache file (first figure run).
    started = time.perf_counter()
    path = cache.ensure(spec)
    cold = time.perf_counter() - started
    size = path.stat().st_size
    print(
        f"trace={args.trace} requests={args.requests} "
        f"cache file {size / 1024:.0f} KiB ({size / args.requests:.1f} B/request)"
    )

    # --- warm: stream the trace back out (every later run / sweep worker).
    started = time.perf_counter()
    streamed_count = sum(len(chunk) for chunk in spec.open().iter_chunks())
    warm = time.perf_counter() - started
    assert streamed_count == args.requests, "cache returned a different trace length"
    speedup = cold / warm if warm > 0 else float("inf")

    print(f"\n{'path':<28} {'seconds':>8}")
    print(f"{'cold (generate + write)':<28} {cold:>8.3f}")
    print(f"{'warm (stream from cache)':<28} {warm:>8.3f}")
    print(f"cold/warm speedup: {speedup:.1f}x")

    # --- memory: streamed replay must not materialize the request list.
    tracemalloc.start()
    requests = spec.load().requests()
    list_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    tracemalloc.start()
    policy = create_policy("LRU", capacity=1_800)
    MultiPolicySimulator([policy]).run(spec)
    stream_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(
        f"\npeak memory: materialized list {list_peak / 1e6:.1f} MB, "
        f"streamed replay {stream_peak / 1e6:.1f} MB "
        f"({stream_peak / list_peak:.1%} of the list footprint)"
    )

    # --- equivalence: list vs streamed source, serial vs jobs=N.
    curves = {}
    for label, source, jobs in (
        ("list jobs=1", requests, 1),
        ("spec jobs=1", spec, 1),
        (f"list jobs={args.jobs}", requests, args.jobs),
        (f"spec jobs={args.jobs}", spec, args.jobs),
    ):
        sweep = sweep_cache_sizes(source, DEFAULT_SIZES, DEFAULT_POLICIES, jobs=jobs)
        curves[label] = {name: sweep.curve(name) for name in DEFAULT_POLICIES}
    reference = curves["list jobs=1"]
    for label, curve in curves.items():
        assert curve == reference, f"{label} diverged from the list jobs=1 sweep"
    print("hit-ratio output: identical across list/streamed x serial/parallel")

    short_us, long_us = _generation_us_per_request(args.seed)
    scaling = long_us / short_us
    print(
        f"\n{SCALING_TRACE} generation: {short_us:.1f} us/request at "
        f"{SCALING_SIZES[0]} requests, {long_us:.1f} at {SCALING_SIZES[1]} "
        f"({scaling:.2f}x)"
    )

    if args.no_check:
        return 0
    ok = True
    if scaling > MAX_SCALING_RATIO:
        print(
            f"FAIL: {SCALING_TRACE} generation is superlinear: {scaling:.2f}x the "
            f"per-request time at {SCALING_SIZES[1]} requests vs {SCALING_SIZES[0]} "
            f"(limit {MAX_SCALING_RATIO}x)"
        )
        ok = False
    if speedup < 2.0:
        print(f"FAIL: cold/warm speedup {speedup:.1f}x below the 2x threshold")
        ok = False
    if args.requests < 40_000:
        # Streamed peak is ~constant (one decoded block + policy state); the
        # materialized list is O(n).  Below a few blocks' worth of requests
        # the two are not meaningfully apart, so only the long-trace runs
        # enforce the ratio.
        print(f"note: memory-bound check skipped below 40000 requests "
              f"(got {args.requests})")
    elif stream_peak >= list_peak / 2:
        print(
            f"FAIL: streamed replay peak {stream_peak / 1e6:.1f} MB not bounded "
            f"(>= half the materialized list footprint {list_peak / 1e6:.1f} MB)"
        )
        ok = False
    if ok:
        print(f"PASS: speedup {speedup:.1f}x, streamed peak "
              f"{stream_peak / list_peak:.1%} of the list footprint, "
              f"generation scaling {scaling:.2f}x")
    return 0 if ok else 1


def _generation_us_per_request(seed: int) -> tuple[float, float]:
    """Best-of-N microseconds per request of in-memory cold generation of
    SCALING_TRACE at each of SCALING_SIZES (the sizes alternate per round,
    so drift in machine load hits both alike)."""
    best = {requests: float("inf") for requests in SCALING_SIZES}
    for _ in range(SCALING_ROUNDS):
        for requests in SCALING_SIZES:
            started = time.perf_counter()
            deque(StandardTraceStream(SCALING_TRACE, seed=seed, target_requests=requests), maxlen=0)
            best[requests] = min(best[requests], time.perf_counter() - started)
    short, long = SCALING_SIZES
    return best[short] * 1e6 / short, best[long] * 1e6 / long


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
