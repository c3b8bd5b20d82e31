"""Microbenchmark + gate: observer-pipeline replay vs. the seed path.

The seed implementation of ``sweep_cache_sizes`` replayed the request stream
once per (policy, cache-size) cell, strictly serially, with each policy
mutating its own counters inline.  After the kernel/observer refactor the
policies are pure (``access`` returns an :class:`AccessOutcome`) and all
accounting happens in observers driven by one replay loop.  This benchmark
runs the same 4-policy x 4-size grid four ways and verifies they produce
identical read hit ratios:

1. ``seed serial``    — a faithful replica of the seed path: a hand-rolled
                        per-request loop per cell (``policy.access`` +
                        ``CacheStats.record_outcome`` inline), no engine, no
                        observers;
2. ``pipeline serial``— one :class:`CacheSimulator` pass per cell: the same
                        per-cell structure, but replayed through the
                        observer pipeline (stats observer only);
3. ``engine serial``  — the shared-replay engine (``jobs=1``): one trace
                        pass feeds every policy of the grid, with the OPT
                        future-read index built once and shared;
4. ``engine jobs=N``  — the same grid fanned out over worker processes.

Gates (exit non-zero on violation):

* **observer dispatch** — (2) must stay within 5% of (1): feeding outcomes
  to observers in chunk batches must not tax the hot path relative to the
  seed's inline counter mutation;
* **shared replay** — (3) must stay within 5% of (2): driving the whole
  grid from one loop must never be worse than per-cell runs (it amortises
  trace iteration and the shared OPT index);
* **speedup floor** — CPU-scaled.  With >= 2 usable CPUs the best engine
  path must beat the seed loop outright (2.0x at >= 4 CPUs, 1.2x at 2-3).
  On a single CPU there is no parallelism to win and — unlike the
  pre-refactor bench, whose "seed" baseline was the old slow per-cell
  ``CacheSimulator`` loop — the hand-rolled baseline here is as lean as
  the engine's own hot path, so the floor only demands that no path is
  materially (>10%) slower than the seed loop.

The run also writes ``BENCH_6.json`` (repo root by default, ``--json`` to
move or ``--json ''`` to skip) recording the measured timings next to the
pre-refactor baseline captured on the machine that ran the refactor, so the
perf trajectory of the replay core is tracked in version control.

A second, columnar four-way follows: the batch-kernel grid (LRU / FIFO /
CLOCK plus the hint-aware and adaptive kernels added since — ARC, CAR and
CLIC) is swept four ways over the same cached binary trace — object serial,
object ``jobs=N``, columnar serial, columnar ``jobs=N`` — with two gates.
The "object" rows run the engine's reference mode (``columnar=False``:
the scalar ``access()`` loop and per-outcome observer folds inside the
same chunked replay loop); the "columnar" rows run the fused batch
kernels and observers (``columnar=True``).  The row names are kept so the
``BENCH_9.json`` trajectory stays comparable.

* **columnar identity** — all four paths must produce identical per-point
  hit/miss stats: the columnar path is a pure fast path, never a fork;
* **columnar speedup (full grid)** — columnar serial must replay the
  full grid at >= ``--columnar-gate`` (default 2.0x) the object-serial
  throughput.  The hint-aware/adaptive kernels are intrinsically
  sequential state machines (every request reads state the previous one
  wrote), so their batch loops win ~1.5-2.5x over scalar replay — they
  bound the full-grid aggregate far below the infra-only number, and the
  gate is set accordingly (measured value in ``BENCH_9.json``);
* **columnar core speedup** — the LRU/FIFO/CLOCK subset, where batching
  eliminates nearly all per-request engine overhead, must replay at >=
  ``--columnar-core-gate`` (default 3.5x, raised from the 3.0x the grid
  first shipped with).  This continues the metric the original
  ``BENCH_9.json`` recorded, so the perf trajectory stays comparable.

``--jobs`` is clamped to the usable CPU count before any sweep runs
(over-subscribing a 1-CPU runner just adds fork cost while the record
claims parallelism); both the requested and the effective counts land in
the JSON records.

The columnar section writes ``BENCH_9.json`` (``--json9``, same
conventions) via :func:`bench_common.emit_bench_json`.

Run it standalone (CI runs this as a smoke test)::

    PYTHONPATH=src python benchmarks/bench_engine.py --requests 20000
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from bench_common import effective_jobs, emit_bench_json, usable_cpus

from repro.cache.base import CacheStats
from repro.cache.registry import create_policy
from repro.experiments.common import ExperimentSettings, generate_trace, trace_spec
from repro.simulation.engine import ParallelSweepRunner, PolicySpec, SweepCell
from repro.simulation.simulator import CacheSimulator
from repro.simulation.sweep import sweep_cache_sizes

DEFAULT_POLICIES = ("OPT", "LRU", "ARC", "TQ")
DEFAULT_SIZES = (450, 900, 1_800, 3_600)
#: The columnar four-way grid: every policy with a fused batch kernel.
COLUMNAR_POLICIES = ("LRU", "FIFO", "CLOCK", "ARC", "CAR", "CLIC")
#: The engine-overhead-dominated subset whose aggregate the original
#: BENCH_9.json gated at 3.0x; kept as its own metric so the number stays
#: comparable across PRs now that the heavy kernels joined the grid.
COLUMNAR_CORE_POLICIES = ("LRU", "FIFO", "CLOCK")
#: Full-grid columnar-speedup gate.  The hint-aware/adaptive kernels (ARC,
#: CAR, CLIC) are sequential state machines whose batch loops win ~1.5-2.5x
#: over scalar replay; they dominate the grid's columnar time and cap the
#: aggregate (measured ~2.4x on the 1-CPU reference box) far below the
#: core subset's number.
COLUMNAR_SPEEDUP_GATE = 2.0
#: Core-subset gate, raised from the original 3.0 (measured ~4.1x).
COLUMNAR_CORE_SPEEDUP_GATE = 3.5

#: The last pre-refactor run of this benchmark (policies owned their stats,
#: CacheSimulator had its own replay loop), captured with the CI settings
#: ``--requests 20000 --repeat 2`` on the refactor machine.  Kept in the
#: BENCH_6.json output as the fixed reference point of the perf trajectory —
#: not used by the gates, which always compare paths measured in-run.
PRE_REFACTOR_BASELINE = {
    "requests": 20_000,
    "repeat": 2,
    "usable_cpus": 1,
    "seed_serial_seconds": 0.577,
    "engine_serial_seconds": 0.437,
    "engine_jobs4_seconds": 0.607,
}

#: Observer-dispatch gate: pipeline serial must stay within this factor of
#: the hand-rolled seed loop.
OVERHEAD_GATE = 1.05


def seed_serial_sweep(requests, cache_sizes, policies):
    """The seed path: a hand-rolled per-request loop per cell.

    No engine, no observers — ``access`` plus inline stats accounting, the
    way the seed's ``CacheSimulator`` worked before the refactor.  This is
    the baseline the observer pipeline is gated against.
    """
    curves = {}
    for name in policies:
        curves[name] = []
        for capacity in cache_sizes:
            policy = create_policy(name, capacity=capacity)
            if policy.offline:
                policy.prepare(requests, 0)
            stats = CacheStats()
            record = stats.record_outcome
            access = policy.access
            for seq, request in enumerate(requests):
                record(request, access(request, seq))
            curves[name].append((float(capacity), stats.read_hit_ratio))
    return curves


def pipeline_serial_sweep(requests, cache_sizes, policies):
    """One observer-pipeline (CacheSimulator) pass per cell, stats only."""
    curves = {}
    for name in policies:
        curves[name] = []
        for capacity in cache_sizes:
            policy = create_policy(name, capacity=capacity)
            result = CacheSimulator(policy).run(requests)
            curves[name].append((float(capacity), result.read_hit_ratio))
    return curves


def engine_sweep(requests, cache_sizes, policies, jobs):
    sweep = sweep_cache_sizes(requests, cache_sizes, policies, jobs=jobs)
    return {name: sweep.curve(name) for name in policies}


def _grid_cells(cache_sizes, policies):
    return [
        SweepCell(
            x=float(capacity),
            specs=tuple(
                PolicySpec(label=name, name=name, capacity=capacity)
                for name in policies
            ),
        )
        for capacity in cache_sizes
    ]


def _time_paths(spec, cells, paths, repeat):
    timings, sweeps = {}, {}
    for label, options in paths.items():
        best = None
        for _ in range(max(1, repeat)):
            runner = ParallelSweepRunner(requests=spec, **options)
            started = time.perf_counter()
            sweep = runner.run(cells, parameter="capacity")
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best:
                best, sweeps[label] = elapsed, sweep
        timings[label] = best
    return timings, sweeps


def columnar_four_way(spec, cache_sizes, policies, jobs, repeat):
    """Sweep the batch-kernel grid reference/fused x serial/jobs=N.

    Returns ``(timings, sweeps)``: best-of-*repeat* seconds and the
    :class:`SweepResult` per path, all replayed from the same cached binary
    trace so the columnar path decodes straight into arrays.
    """
    paths = {
        "object serial": dict(jobs=1, columnar=False),
        f"object jobs={jobs}": dict(jobs=jobs, columnar=False),
        "columnar serial": dict(jobs=1, columnar=True),
        f"columnar jobs={jobs}": dict(jobs=jobs, columnar=True),
    }
    return _time_paths(spec, _grid_cells(cache_sizes, policies), paths, repeat)


def columnar_serial_pair(spec, cache_sizes, policies, repeat):
    """Time reference-serial vs fused-serial over a (sub)grid.

    Used for the core LRU/FIFO/CLOCK subset, whose speedup is gated
    separately from the full grid (see module docstring).
    """
    paths = {
        "core object serial": dict(jobs=1, columnar=False),
        "core columnar serial": dict(jobs=1, columnar=True),
    }
    timings, _ = _time_paths(spec, _grid_cells(cache_sizes, policies), paths, repeat)
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="DB2_C300", help="standard trace name")
    parser.add_argument("--requests", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--policies", default=",".join(DEFAULT_POLICIES),
        help="comma-separated policy names",
    )
    parser.add_argument(
        "--sizes", default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated cache sizes (pages)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="time each path as the best of N repeats (default: 3)",
    )
    parser.add_argument(
        "--json", default=str(Path(__file__).resolve().parent.parent / "BENCH_6.json"),
        help="where to write the timing record (empty string to skip)",
    )
    parser.add_argument(
        "--json9",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_9.json"),
        help="where to write the columnar four-way record (empty string to skip)",
    )
    parser.add_argument(
        "--columnar-gate", type=float, default=COLUMNAR_SPEEDUP_GATE,
        help="columnar serial must be this multiple of object serial over "
             f"the full batch-kernel grid (default: {COLUMNAR_SPEEDUP_GATE})",
    )
    parser.add_argument(
        "--columnar-core-gate", type=float, default=COLUMNAR_CORE_SPEEDUP_GATE,
        help="same gate over the LRU/FIFO/CLOCK core subset "
             f"(default: {COLUMNAR_CORE_SPEEDUP_GATE})",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="report timings only; skip the gates",
    )
    args = parser.parse_args(argv)
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    if not policies:
        parser.error("--policies must name at least one policy")
    if not sizes:
        parser.error("--sizes must name at least one cache size")

    jobs = effective_jobs(args.jobs)
    if jobs != args.jobs:
        print(f"jobs: requested {args.jobs}, clamped to {jobs} usable CPU(s)")

    settings = ExperimentSettings(target_requests=args.requests, seed=args.seed)
    requests = generate_trace(args.trace, settings).requests()
    print(
        f"trace={args.trace} requests={len(requests)} "
        f"grid={len(policies)} policies x {len(sizes)} sizes "
        f"({', '.join(policies)})"
    )

    def timed(fn):
        best, curves = None, None
        for _ in range(max(1, args.repeat)):
            started = time.perf_counter()
            curves = fn()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best, curves

    timings = {}
    timings["seed serial"], seed_curves = timed(
        lambda: seed_serial_sweep(requests, sizes, policies)
    )
    timings["pipeline serial"], pipeline_curves = timed(
        lambda: pipeline_serial_sweep(requests, sizes, policies)
    )
    timings["engine serial"], engine_curves = timed(
        lambda: engine_sweep(requests, sizes, policies, jobs=1)
    )
    timings[f"engine jobs={jobs}"], parallel_curves = timed(
        lambda: engine_sweep(requests, sizes, policies, jobs=jobs)
    )

    # --- Correctness: all four paths must agree exactly.
    for name in policies:
        assert pipeline_curves[name] == seed_curves[name], (
            f"{name}: observer pipeline diverged from the seed path"
        )
        assert engine_curves[name] == seed_curves[name], (
            f"{name}: engine serial diverged from the seed path"
        )
        assert parallel_curves[name] == seed_curves[name], (
            f"{name}: engine jobs={jobs} diverged from the seed path"
        )
    print("hit-ratio output: identical across all four paths")

    baseline = timings["seed serial"]
    print(f"\n{'path':<20} {'seconds':>8} {'speedup':>8}")
    for path, seconds in timings.items():
        print(f"{path:<20} {seconds:>8.3f} {baseline / seconds:>7.2f}x")

    overhead = timings["pipeline serial"] / baseline
    shared_overhead = timings["engine serial"] / timings["pipeline serial"]
    best_speedup = baseline / min(
        timings["engine serial"], timings[f"engine jobs={jobs}"]
    )
    cpus = usable_cpus()
    print(f"\nusable CPUs: {cpus}")
    print(f"observer dispatch overhead: {overhead:.3f}x of the seed loop "
          f"(gate {OVERHEAD_GATE:.2f}x)")

    emit_bench_json(
        args.json,
        "bench_engine",
        {
            "trace": args.trace,
            "requests": len(requests),
            "policies": list(policies),
            "sizes": list(sizes),
            "repeat": args.repeat,
            "jobs_requested": args.jobs,
            "jobs_effective": jobs,
        },
        timings,
        observer_dispatch_overhead=round(overhead, 4),
        overhead_gate=OVERHEAD_GATE,
        shared_replay_overhead=round(shared_overhead, 4),
        best_speedup=round(best_speedup, 4),
        pre_refactor_baseline=PRE_REFACTOR_BASELINE,
    )

    # --- Columnar four-way: the batch-kernel grid, object vs columnar.
    spec = trace_spec(args.trace, settings)
    spec.ensure()
    columnar_policies = tuple(p for p in COLUMNAR_POLICIES)
    col_timings, col_sweeps = columnar_four_way(
        spec, sizes, columnar_policies, jobs, args.repeat
    )

    # Hard identity gate: every path yields identical per-point stats.
    reference_label = "object serial"
    reference = col_sweeps[reference_label]
    columnar_identical = True
    for label, sweep in col_sweeps.items():
        if sweep.labels() != reference.labels():
            print(f"FAIL: {label!r} swept different policies than the object path")
            columnar_identical = False
            continue
        for name in reference.labels():
            if sweep.curve(name) != reference.curve(name):
                print(f"FAIL: {label!r} {name} hit-ratio curve diverged")
                columnar_identical = False
            for a, b in zip(sweep.series[name], reference.series[name]):
                if a.result.stats.as_dict() != b.result.stats.as_dict():
                    print(f"FAIL: {label!r} {name} x={a.x:g} stats diverged")
                    columnar_identical = False
    if columnar_identical:
        print("\ncolumnar output: identical across all four paths")

    col_baseline = col_timings[reference_label]
    print(f"\n{'path':<20} {'seconds':>8} {'speedup':>8}   (columnar grid: "
          f"{len(columnar_policies)} policies x {len(sizes)} sizes)")
    for path, seconds in col_timings.items():
        print(f"{path:<20} {seconds:>8.3f} {col_baseline / seconds:>7.2f}x")
    columnar_speedup = col_baseline / col_timings["columnar serial"]
    print(f"columnar serial speedup: {columnar_speedup:.2f}x "
          f"(gate >= {args.columnar_gate:.2f}x)")

    core_policies = tuple(
        p for p in COLUMNAR_CORE_POLICIES if p in columnar_policies
    )
    core_timings = columnar_serial_pair(spec, sizes, core_policies, args.repeat)
    columnar_core_speedup = (
        core_timings["core object serial"] / core_timings["core columnar serial"]
    )
    print(f"columnar core speedup ({'/'.join(core_policies)}): "
          f"{columnar_core_speedup:.2f}x (gate >= {args.columnar_core_gate:.2f}x)")

    emit_bench_json(
        args.json9,
        "bench_engine_columnar",
        {
            "trace": args.trace,
            "requests": len(requests),
            "policies": list(columnar_policies),
            "core_policies": list(core_policies),
            "sizes": list(sizes),
            "repeat": args.repeat,
            "jobs_requested": args.jobs,
            "jobs_effective": jobs,
        },
        {**col_timings, **core_timings},
        columnar_identical=columnar_identical,
        columnar_speedup=round(columnar_speedup, 4),
        columnar_speedup_gate=args.columnar_gate,
        columnar_core_speedup=round(columnar_core_speedup, 4),
        columnar_core_speedup_gate=args.columnar_core_gate,
    )

    if args.no_check:
        return 0

    ok = True
    if overhead > OVERHEAD_GATE:
        print(f"FAIL: observer pipeline is {overhead:.3f}x the seed loop, "
              f"above the {OVERHEAD_GATE:.2f}x gate")
        ok = False
    if shared_overhead > OVERHEAD_GATE:
        print(f"FAIL: shared replay is {shared_overhead:.3f}x the per-cell "
              f"pipeline, above the {OVERHEAD_GATE:.2f}x gate")
        ok = False
    if cpus >= 4:
        threshold = 2.0
    elif cpus >= 2:
        threshold = 1.2
    else:
        # Single-CPU machine: process-level parallelism cannot reduce
        # wall-clock, and the hand-rolled seed loop is as lean as the
        # engine's hot path — demand only that nothing got materially
        # slower than the seed loop.
        threshold = 0.90
    if best_speedup < threshold:
        print(f"FAIL: best speedup {best_speedup:.2f}x below {threshold:.2f}x "
              f"threshold for {cpus} CPU(s)")
        ok = False
    if not columnar_identical:
        print("FAIL: fused (columnar) replay diverged from the reference (object)")
        ok = False
    if columnar_speedup < args.columnar_gate:
        print(f"FAIL: columnar serial speedup {columnar_speedup:.2f}x below "
              f"the {args.columnar_gate:.2f}x gate")
        ok = False
    if columnar_core_speedup < args.columnar_core_gate:
        print(f"FAIL: columnar core speedup {columnar_core_speedup:.2f}x "
              f"below the {args.columnar_core_gate:.2f}x gate")
        ok = False
    if ok:
        print(f"PASS: best speedup {best_speedup:.2f}x "
              f"(threshold {threshold:.2f}x for {cpus} CPU(s)), "
              f"observer overhead {overhead:.3f}x <= {OVERHEAD_GATE:.2f}x")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
