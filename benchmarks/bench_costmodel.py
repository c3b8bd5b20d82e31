"""Microbenchmark: cost-model accounting overhead and correctness gates.

Replays one standard trace through the shared-replay engine three ways —
cost model off, priced against a position-independent device (SSD) and
priced against the seek-aware HDD profile — and reports replay throughput
for each.  Two gates make this a CI smoke test:

* **overhead gate** — with the cost model *off* the engine must stay within
  noise of a hand-rolled baseline replay loop (the pre-cost-model fast
  path, inlined here), proving the opt-in accounting pass costs nothing
  when not requested;
* **correctness gate** — for a position-independent device the per-request
  accumulator must price the run *exactly* like the analytic derivation
  from the final hit/miss counts (``CostModel.latency_from_stats``);
* **HDD identity gate** — the fused replay's seek-priced
  :class:`LatencyStats` (column head walk) must equal the ``columnar=False``
  reference's (scalar per-request walk) field for field, for the unified
  policy and for a 4-shard hash cluster (one head per shard);
* **HDD throughput gate** — the hdd-priced replay must reach at least
  ``HDD_THROUGHPUT_GATE`` of the cost-off replay's throughput: pricing
  seeks on whole columns keeps the seek-aware observer off the critical
  path.

Run it standalone::

    PYTHONPATH=src python benchmarks/bench_costmodel.py --requests 20000
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import deque

from repro.cache.registry import create_policy
from repro.experiments.common import ExperimentSettings, generate_trace
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import MultiPolicySimulator

#: The engine-off path may trail the hand-inlined loop by at most this
#: factor (it additionally chunks the stream and scans chunk client ids).
OVERHEAD_GATE = 1.35

#: Minimum hdd-priced / cost-off replay throughput ratio.
HDD_THROUGHPUT_GATE = 0.75

#: Shards of the cluster the HDD identity gate prices (one head each).
IDENTITY_SHARDS = 4


def reference_replay(policy, requests) -> float:
    """The pre-cost-model fast path, inlined: one deque-driven map pass."""
    started = time.perf_counter()
    deque(map(policy.access, requests, range(len(requests))), maxlen=0)
    return time.perf_counter() - started


def engine_replay(policy, requests, cost_model=None, columnar=True):
    started = time.perf_counter()
    result = MultiPolicySimulator(
        [policy], cost_model=cost_model, columnar=columnar
    ).run(requests)[0]
    return result, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="DB2_C300", help="standard trace name")
    parser.add_argument("--requests", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--policy", default="LRU", help="policy to replay")
    parser.add_argument("--capacity", type=int, default=3_600, help="cache pages")
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="time each configuration as the best of N repeats (default: 3)",
    )
    args = parser.parse_args(argv)

    settings = ExperimentSettings(target_requests=args.requests, seed=args.seed)
    trace = generate_trace(args.trace, settings)
    requests = trace.requests()
    page_span = trace.metadata.get("database_pages") or (
        max(request.page for request in requests) + 1
    )
    print(
        f"trace={args.trace} requests={len(requests)} policy={args.policy} "
        f"capacity={args.capacity}"
    )

    def build():
        return create_policy(args.policy, capacity=args.capacity)

    repeats = max(1, args.repeat)
    reference_best = min(reference_replay(build(), requests) for _ in range(repeats))

    def timed(cost_model):
        best, result = None, None
        for _ in range(repeats):
            result, elapsed = engine_replay(build(), requests, cost_model)
            best = elapsed if best is None else min(best, elapsed)
        return result, best

    ssd_model = CostModel("ssd")
    hdd_model = CostModel("hdd", page_span=page_span)
    off_result, off_best = timed(None)
    ssd_result, ssd_best = timed(ssd_model)
    hdd_result, hdd_best = timed(hdd_model)

    baseline = len(requests) / reference_best
    print(f"\n{'configuration':<22} {'req/s':>12} {'relative':>9}")
    rows = [
        ("reference loop", reference_best),
        ("engine, cost off", off_best),
        ("engine, ssd pricing", ssd_best),
        ("engine, hdd pricing", hdd_best),
    ]
    for label, best in rows:
        throughput = len(requests) / best
        print(f"{label:<22} {throughput:>12,.0f} {throughput / baseline:>8.2f}x")
    print(
        f"\nssd: mean read {ssd_result.latency.mean_read_us:,.1f}us "
        f"p99 {ssd_result.latency.p99_read_us:,.1f}us | "
        f"hdd: mean read {hdd_result.latency.mean_read_us:,.1f}us "
        f"p99 {hdd_result.latency.p99_read_us:,.1f}us"
    )

    ok = True
    if off_best > reference_best * OVERHEAD_GATE:
        print(
            f"FAIL: cost-model-off replay is {off_best / reference_best:.2f}x the "
            f"reference loop (gate: {OVERHEAD_GATE}x) — the fast path regressed"
        )
        ok = False
    if off_result.latency is not None:
        print("FAIL: cost-model-off replay attached latency stats")
        ok = False
    analytic = ssd_model.latency_from_stats(ssd_result.stats)
    if ssd_result.latency.as_dict() != analytic.as_dict():
        print(
            "FAIL: ssd accumulator diverged from the analytic derivation\n"
            f"  accumulator: {ssd_result.latency.as_dict()}\n"
            f"  analytic:    {analytic.as_dict()}"
        )
        ok = False
    if ssd_result.read_hit_ratio != off_result.read_hit_ratio:
        print("FAIL: pricing changed the replay's hit ratio")
        ok = False

    hdd_ratio = off_best / hdd_best
    if hdd_ratio < HDD_THROUGHPUT_GATE:
        print(
            f"FAIL: hdd-priced replay runs at {hdd_ratio:.2f}x the cost-off "
            f"replay's throughput (gate: >= {HDD_THROUGHPUT_GATE}x)"
        )
        ok = False
    for label, policy_factory in (
        ("unified", build),
        (
            f"{IDENTITY_SHARDS}-shard hash cluster",
            lambda: create_policy(
                "SHARDED",
                capacity=args.capacity,
                policy=args.policy,
                shards=IDENTITY_SHARDS,
                router="hash",
            ),
        ),
    ):
        fused, _ = engine_replay(policy_factory(), requests, hdd_model)
        reference, _ = engine_replay(policy_factory(), requests, hdd_model, columnar=False)
        if fused.latency != reference.latency or fused.shard_latency != reference.shard_latency:
            print(
                f"FAIL: {label} hdd pricing differs between the fused and the "
                f"columnar=False replay\n  fused:     {fused.latency.as_dict()}\n"
                f"  reference: {reference.latency.as_dict()}"
            )
            ok = False

    if ok:
        print(
            "\nPASS: cost-off within the overhead gate; ssd pricing matches "
            "the analytic derivation; hdd pricing is identical to the "
            f"reference (unified and {IDENTITY_SHARDS} shards) at "
            f"{hdd_ratio:.2f}x the cost-off throughput"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
