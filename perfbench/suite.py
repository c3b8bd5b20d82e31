"""The benchmark's workloads, and the child-process entry point that runs one.

``run.py`` prepares a workload's inputs in its own process (untimed) and
then runs this module in a fresh child process, which measures the workload
for the requested number of seconds and writes its figures to a JSON file.
Everything here drives ``repro`` through its public API only; the optional
traced run wraps those calls from outside (:mod:`tracer`).

Workloads (see ``README.md`` for why each was chosen):

* ``tpch-scan-grid`` — the six fused-kernel policies at the five DB2 sweep
  sizes over a warm DB2_H400 trace, stats observer only;
* ``tpcc-cold-ingest`` — generate DB2_C300 into an empty trace cache, then
  ten short CLIC+LRU check passes over the new file;
* ``tenant-load`` — CLIC/ARC/LRU unified and as 4-shard hash clusters over
  the warm two-tenant ``tenant`` phase plan, priced by an HDD write-through
  cost model and an open-loop Poisson queue, with rolling windows.

Every replay is a closed loop: the next repetition starts when the previous
one returned.  Arrivals in ``tenant-load`` are open-loop, but in modeled time
inside the replay.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import shutil
import statistics
import sys
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, ContextManager

from repro.cache.base import CachePolicy
from repro.experiments.common import ExperimentSettings, clic_kwargs
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import ParallelSweepRunner, PolicySpec, SweepCell
from repro.simulation.metrics import SweepResult
from repro.simulation.queueing import QueueingModel
from repro.trace.cache import TraceCache, TraceSpec, set_default_trace_cache
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.phased import build_phase_plan, default_page_stride
from repro.workloads.standard import STANDARD_TRACES
from tracer import KERNEL_SPANS, OBSERVER_SPANS, Tracer

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: The seed whose per-cell counts are recorded in ``golden.json``; any other
#: seed is checked against an object-path replay instead.
DEFAULT_SEED = 17

#: Worker processes of every sweep: one, so each workload is a single
#: process on any machine and its figures do not depend on the core count.
JOBS = 1

#: Cache size (pages) of the CLIC cell whose read hit ratio and modeled
#: sojourn are reported.
REPORT_CAPACITY = 3_600

#: Every timed loop runs at least this many repetitions, however short
#: ``--seconds`` is, so every median has several samples.
MIN_REPETITIONS = 3

#: Set-ups per repetition on the warm workloads (each takes well under a
#: millisecond; the policies of the last one are replayed).
SETUP_REPEATS = 10

#: Check passes per ingest on ``tpcc-cold-ingest``: one pass takes ~0.1-0.2 s
#: against ~6 s per ingest, so several per ingest give its replay rate enough
#: samples.
CHECK_REPEATS = 10

#: Steps of the two calibration loops (:func:`calibrate`), and the time
#: both take at the reference host speed: a quiet host of the 2-vCPU machine
#: the benchmark was built on.  Every timed sample is scaled by this
#: reference over the loops' time around the sample, so timings read as
#: seconds at the reference speed.
CALIBRATION_LRU_STEPS = 40_000
CALIBRATION_FLOAT_STEPS = 60_000
CALIBRATION_REFERENCE_S = 0.018

#: Stats fields compared per cell, in ``golden.json`` order.
COUNT_FIELDS = (
    "read_requests",
    "read_hits",
    "write_requests",
    "write_hits",
    "evictions",
    "admissions",
    "bypasses",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its trace, its policy cells and its pricing."""

    name: str
    requests: int
    #: ``(policy, capacity, shards)`` per cell; ``shards=1`` is unified.
    cells: tuple[tuple[str, int, int], ...]
    #: The trace stays in the cache between runs (False: every repetition
    #: starts from an empty cache directory).
    warm: bool
    #: Open-loop arrival rate as a fraction of CLIC's modeled capacity at
    #: :data:`DEFAULT_SEED`; the resulting rate is a constant in golden.json.
    arrival_fraction: float
    #: Whether the timed replay itself carries the cost, queueing and
    #: rolling-window observers (otherwise a separate untimed pricing pass
    #: supplies the modeled sojourn).
    priced_replay: bool = False
    #: Replay each policy instance in a pass of its own (otherwise the
    #: instances of one capacity share a pass).  Every pass is timed on its
    #: own, so shorter passes give a run more samples.
    pass_per_instance: bool = False

    def spec(self, seed: int) -> TraceSpec:
        if self.name == "tpch-scan-grid":
            return TraceSpec("DB2_H400", seed=seed, target_requests=self.requests)
        if self.name == "tpcc-cold-ingest":
            return TraceSpec("DB2_C300", seed=seed, target_requests=self.requests)
        return TraceSpec.for_plan(build_phase_plan("tenant", self.requests, seed=seed))

    def page_span(self, seed: int) -> int:
        """Page-id span HDD seeks are scaled to."""
        spec = self.spec(seed)
        if spec.plan is None:
            return STANDARD_TRACES[spec.name].database_pages
        return default_page_stride(spec.plan) * len(spec.plan.distinct_clients())

    def cost_model(self, seed: int) -> CostModel:
        return CostModel(
            device="hdd", write_policy="write-through", page_span=self.page_span(seed)
        )

    def queueing_model(self, seed: int, rate_rps: float) -> QueueingModel:
        return QueueingModel(
            arrivals=PoissonArrivals(rate_rps=rate_rps, seed=seed),
            device="hdd",
            write_policy="write-through",
            page_span=self.page_span(seed),
        )

    def clic_kwargs(self) -> dict:
        return clic_kwargs(ExperimentSettings(target_requests=self.requests))

    def policy_spec(self, policy: str, capacity: int, shards: int) -> PolicySpec:
        kwargs = self.clic_kwargs() if policy == "CLIC" else {}
        label = cell_label(policy, capacity, shards)
        if shards == 1:
            return PolicySpec(label=label, name=policy, capacity=capacity, kwargs=kwargs)
        sharded: dict[str, object] = {"policy": policy, "shards": shards, "router": "hash"}
        if kwargs:
            sharded["policy_kwargs"] = kwargs
        return PolicySpec(label=label, name="SHARDED", capacity=capacity, kwargs=sharded)

    def build_policies(self) -> list[tuple[str, int, CachePolicy]]:
        """Construct one fresh policy per cell: ``(label, capacity, policy)``."""
        return [
            (cell_label(p, c, s), c, self.policy_spec(p, c, s).build())
            for p, c, s in self.cells
        ]


def cell_label(policy: str, capacity: int, shards: int) -> str:
    name = policy if shards == 1 else f"{policy} x{shards}"
    return f"{name}@{capacity}"


_GRID_SIZES = STANDARD_TRACES["DB2_H400"].cache_sweep

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="tpch-scan-grid",
            requests=60_000,
            cells=tuple(
                (policy, size, 1)
                for size in _GRID_SIZES
                for policy in ("LRU", "FIFO", "CLOCK", "ARC", "CAR", "CLIC")
            ),
            warm=True,
            arrival_fraction=0.9,
        ),
        Workload(
            name="tpcc-cold-ingest",
            requests=40_000,
            cells=(("CLIC", REPORT_CAPACITY, 1), ("LRU", REPORT_CAPACITY, 1)),
            warm=False,
            # 0.9 sits on this stationary trace's saturation knee, where the
            # mean sojourn swings by a quarter between seeds; 0.7 does not.
            arrival_fraction=0.7,
        ),
        Workload(
            name="tenant-load",
            requests=60_000,
            cells=tuple(
                (policy, REPORT_CAPACITY, shards)
                for shards in (1, 4)
                for policy in ("CLIC", "ARC", "LRU")
            ),
            warm=True,
            arrival_fraction=0.9,
            priced_replay=True,
            pass_per_instance=True,
        ),
    )
}


# --------------------------------------------------------------- replaying
def _prebuilt(policy: CachePolicy) -> CachePolicy:
    return policy


def sweep_cells(
    workload: Workload, policies: list[tuple[str, int, CachePolicy]]
) -> list[SweepCell]:
    """Sweep cells that replay already-constructed policies (one cell per
    capacity, or per instance with ``pass_per_instance``), so construction
    stays in set-up."""
    by_pass: dict[object, tuple[int, list[PolicySpec]]] = {}
    for label, capacity, policy in policies:
        key = label if workload.pass_per_instance else capacity
        by_pass.setdefault(key, (capacity, []))[1].append(
            PolicySpec(label=label, factory=partial(_prebuilt, policy))
        )
    return [SweepCell(x=c, specs=tuple(specs)) for c, specs in by_pass.values()]


def pass_key(cell: SweepCell) -> object:
    """Name of a replay pass: its capacity, or its policy's label when the
    pass replays one instance."""
    return cell.specs[0].label if len(cell.specs) == 1 else cell.x


def replay(
    workload: Workload,
    source: Any,
    cells: list[SweepCell],
    seed: int,
    rate_rps: float,
    columnar: bool = True,
) -> SweepResult:
    """One shared replay of *cells* over *source* through the sweep runner."""
    priced: dict[str, Any] = {}
    if workload.priced_replay:
        priced = {
            "cost_model": workload.cost_model(seed),
            "queueing": workload.queueing_model(seed, rate_rps),
            "rolling_window": workload.clic_kwargs()["config"].window_size,
        }
    runner = ParallelSweepRunner(source, jobs=JOBS, columnar=columnar, **priced)
    return runner.run(cells, parameter="capacity")


def cell_counts(sweep: SweepResult) -> dict[str, list[int]]:
    """``label -> [COUNT_FIELDS...]`` for every cell of *sweep*."""
    counts = {}
    for label, points in sweep.series.items():
        for point in points:
            stats = point.result.stats
            counts[label] = [getattr(stats, field) for field in COUNT_FIELDS]
    return counts


def object_reference(workload: Workload, source: Any, seed: int) -> dict[str, list[int]]:
    """Per-cell counts from an object-path (``columnar=False``) replay."""
    cells = sweep_cells(workload, workload.build_policies())
    return cell_counts(replay(workload, source, cells, seed, 1.0, columnar=False))


def modeled_sojourn_ms(workload: Workload, source: Any, seed: int, rate_rps: float) -> float:
    """Mean modeled sojourn of CLIC unified at :data:`REPORT_CAPACITY` under
    the workload's HDD write-through pricing and Poisson arrivals."""
    spec = workload.policy_spec("CLIC", REPORT_CAPACITY, 1)
    runner = ParallelSweepRunner(
        source,
        jobs=JOBS,
        columnar=True,
        cost_model=workload.cost_model(seed),
        queueing=workload.queueing_model(seed, rate_rps),
    )
    sweep = runner.run([SweepCell(x=REPORT_CAPACITY, specs=(spec,))], parameter="capacity")
    return sweep.series[spec.label][0].result.queueing.mean_sojourn_us / 1000.0


# ---------------------------------------------------------------- golden
def load_golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def arrival_rate(workload: Workload, golden: dict) -> float:
    return float(golden["workloads"][workload.name]["arrival_rate_rps"])


def golden_reference(workload: Workload, golden: dict) -> dict[str, list[int]]:
    entry = golden["workloads"][workload.name]
    if entry["requests"] != workload.requests:
        raise RuntimeError(
            f"golden.json records {workload.name} at {entry['requests']} requests, "
            f"the workload replays {workload.requests}; regenerate it with make_golden.py"
        )
    return entry["cells"]


def reference_path(state: Path, workload: Workload, seed: int) -> Path:
    return state / "references" / f"{workload.name}-{workload.requests}-seed{seed}.json"


def prepare(workload: Workload, seed: int, state: Path) -> None:
    """Untimed preparation (run in the parent): fill the warm trace cache for
    *seed* and, off the default seed, record the object-path reference."""
    if not workload.warm:
        return
    spec = workload.spec(seed)
    spec.ensure()
    path = reference_path(state, workload, seed)
    if seed == DEFAULT_SEED or path.exists():
        return
    reference = object_reference(workload, spec.open(), seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(reference, sort_keys=True))
    tmp.replace(path)


# --------------------------------------------------------------- measuring
class Checker:
    """Counts attempted and failed cells against a reference."""

    def __init__(self, reference: dict[str, list[int]] | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, counts: dict[str, list[int]], labels: list[str]) -> None:
        for label in labels:
            self.attempted += 1
            expected = None if self.reference is None else self.reference.get(label)
            if counts.get(label) != expected:
                self.failed += 1
                self.errors.append(f"{label}: got {counts.get(label)}, expected {expected}")

    def fail(self, message: str) -> None:
        self.errors.append(message)


def calibrate() -> float:
    """Seconds two fixed pure-Python loops take right now: an LRU over an
    ``OrderedDict`` and a float recurrence, the two kinds of work the
    kernels and the cost and queueing models do.

    The loops are the benchmark's own code, so no change to the program
    moves them; what moves them is how fast the host runs Python at the
    moment, which other tenants of a shared machine change over seconds to
    minutes.  Together they track the replay passes' slowdown more closely
    than either alone."""
    started = time.perf_counter()
    resident: OrderedDict[int, int] = OrderedDict()
    for i in range(CALIBRATION_LRU_STEPS):
        key = (i * 7919) % 3001
        if key in resident:
            resident.move_to_end(key)
        else:
            resident[key] = i
            if len(resident) > 2048:
                resident.popitem(last=False)
    x = 0.0
    for i in range(CALIBRATION_FLOAT_STEPS):
        x = x * 0.999 + math.sqrt(i) / (1.0 + (i % 7))
    return time.perf_counter() - started


class HostClock:
    """Brackets consecutive timed samples with calibrations; the calibration
    after one sample is the one before the next."""

    def __init__(self) -> None:
        self.before = calibrate()

    def scale(self) -> float:
        """Factor that turns the sample timed since the last call into
        seconds at the reference host speed."""
        after = calibrate()
        scale = 2 * CALIBRATION_REFERENCE_S / (self.before + after)
        self.before = after
        return scale


@dataclass
class Samples:
    """Timings of one run and its modeled outputs.

    ``setup_s`` and ``replay_s`` are in seconds at the reference host speed
    (see :class:`HostClock`); ``raw_replay_s`` and ``traced_replay_s`` are
    as measured.  A repetition replays its cells in one or more passes;
    ``replay_s`` keeps the untraced times of each pass, keyed by pass (the
    capacity or the policy instance on the warm workloads, ``"check"`` on
    the ingest), so a pass is only ever compared with the same work."""

    instances: int
    setup_s: list[float] = field(default_factory=list)
    replay_s: dict[object, list[float]] = field(default_factory=dict)
    raw_replay_s: list[float] = field(default_factory=list)
    traced_replay_s: list[float] = field(default_factory=list)
    #: Host slowdown (1 / scale) of every scaled sample.
    slowdowns: list[float] = field(default_factory=list)
    traced_repetitions: int = 0
    hit_ratio: float = 0.0
    sojourn_ms: float = 0.0
    bytes_per_request: float = 0.0

    def add_setups(self, seconds: list[float], scale: float) -> None:
        self.setup_s.extend(value * scale for value in seconds)
        self.slowdowns.append(1 / scale)

    def add_replay(self, key: object, seconds: float, scale: float, traced: bool) -> None:
        if traced:
            self.traced_replay_s.append(seconds)
            return
        self.replay_s.setdefault(key, []).append(seconds * scale)
        self.raw_replay_s.append(seconds)
        self.slowdowns.append(1 / scale)

    def replay_s_per_repetition(self) -> float:
        """Replay time of one repetition's work: the sum over its passes of
        each pass's median."""
        return sum(statistics.median(times) for times in self.replay_s.values())


def _spread(values: list[float]) -> list[float]:
    return [min(values), statistics.median(values), max(values)] if values else []


def _scope(tracer: Tracer | None, traced: bool, name: str) -> ContextManager[None]:
    return tracer.span(name) if tracer is not None and traced else nullcontext()


def run_warm(
    workload: Workload,
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    checker: Checker,
    rate: float,
) -> Samples:
    """Set up and replay *workload* repeatedly for *seconds*."""
    spec = workload.spec(seed)
    labels = [cell_label(*cell) for cell in workload.cells]
    hit_label = cell_label("CLIC", REPORT_CAPACITY, 1)
    samples = Samples(instances=len(labels))
    sojourns: set[float] = set()
    started_run = time.perf_counter()
    repetition = 0
    while repetition < MIN_REPETITIONS or time.perf_counter() - started_run < seconds:
        traced = tracer is not None and repetition % 2 == 1
        gc.collect()  # garbage of earlier repetitions is not this one's
        with tracer.installed(repetition) if traced else nullcontext():
            setups = []
            clock = HostClock()
            for _ in range(SETUP_REPEATS):
                started = time.perf_counter()
                with _scope(tracer, traced, "setup"):
                    source = spec.open()
                    policies = workload.build_policies()
                setups.append(time.perf_counter() - started)
            samples.add_setups(setups, clock.scale())
            counts: dict[str, list[int]] = {}
            for cell in sweep_cells(workload, policies):
                started = time.perf_counter()
                with _scope(tracer, traced, "simulation.replay"):
                    sweep = replay(workload, source, [cell], seed, rate)
                elapsed = time.perf_counter() - started
                samples.add_replay(pass_key(cell), elapsed, clock.scale(), traced)
                counts.update(cell_counts(sweep))
                if hit_label in sweep.series:
                    result = sweep.series[hit_label][0].result
        samples.traced_repetitions += traced
        checker.check(counts, labels)
        samples.hit_ratio = result.read_hit_ratio
        if workload.priced_replay:
            sojourns.add(result.queueing.mean_sojourn_us / 1000.0)
        repetition += 1
    if len(sojourns) > 1:
        checker.fail(f"modeled sojourn differs between repetitions: {sorted(sojourns)}")
    if workload.priced_replay:
        samples.sojourn_ms = sojourns.pop()
    elif tracer is None:
        samples.sojourn_ms = modeled_sojourn_ms(workload, source, seed, rate)
    samples.bytes_per_request = source.path.stat().st_size / len(source)
    return samples


def run_cold(
    workload: Workload,
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    checker: Checker,
    rate: float,
    state: Path,
) -> Samples:
    """Generate the trace into an empty cache and check-replay it, repeatedly."""
    spec = workload.spec(seed)
    labels = [cell_label(*cell) for cell in workload.cells]
    hit_label = cell_label("CLIC", REPORT_CAPACITY, 1)
    samples = Samples(instances=len(labels))
    digests: set[str] = set()
    root = state / "ingest"
    started_run = time.perf_counter()
    repetition = 0
    while repetition < MIN_REPETITIONS or time.perf_counter() - started_run < seconds:
        directory = root / f"repetition-{repetition}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        set_default_trace_cache(TraceCache(directory))
        traced = tracer is not None and repetition % 2 == 1
        gc.collect()
        with tracer.installed(repetition) if traced else nullcontext():
            clock = HostClock()
            started = time.perf_counter()
            spec.ensure()
            elapsed = time.perf_counter() - started
            samples.add_setups([elapsed], clock.scale())
            source = spec.open()
            sweeps = []
            for _ in range(CHECK_REPEATS):
                cells = sweep_cells(workload, workload.build_policies())
                started = time.perf_counter()
                with _scope(tracer, traced, "simulation.replay"):
                    sweeps.append(replay(workload, source, cells, seed, rate))
                elapsed = time.perf_counter() - started
                samples.add_replay("check", elapsed, clock.scale(), traced)
        if len(source) != workload.requests:
            checker.fail(f"ingested file holds {len(source)} requests, not {workload.requests}")
        samples.traced_repetitions += traced
        if checker.reference is None:
            # Off the default seed: the object path over the same file is the
            # reference (untimed, once per run — every repetition ingests
            # the same bytes, which the digest check below enforces).
            checker.reference = object_reference(workload, source, seed)
        for sweep in sweeps:
            counts = cell_counts(sweep)
            checker.check(counts, labels)
            for label in labels:
                decoded = counts[label][0] + counts[label][2]
                if decoded != workload.requests:
                    checker.fail(f"{label} replayed {decoded} requests, not {workload.requests}")
        digests.add(hashlib.sha256(source.path.read_bytes()).hexdigest())
        samples.hit_ratio = sweeps[0].series[hit_label][0].result.read_hit_ratio
        samples.bytes_per_request = source.path.stat().st_size / len(source)
        if tracer is None and repetition == 0:
            samples.sojourn_ms = modeled_sojourn_ms(workload, source, seed, rate)
        shutil.rmtree(directory)
        repetition += 1
    if len(digests) != 1:
        checker.fail(f"ingests of one seed produced {len(digests)} different files")
    return samples


# --------------------------------------------------------------- reporting
def end_to_end_metrics(samples: Samples, requests: int) -> dict[str, tuple[float, str]]:
    """Timings are medians of samples in seconds at the reference host
    speed (:class:`HostClock`)."""
    return {
        "replay_rps": (
            requests * samples.instances / samples.replay_s_per_repetition(),
            "1/s",
        ),
        "setup_s": (statistics.median(samples.setup_s), "s"),
        "read_hit_ratio": (samples.hit_ratio, "ratio"),
        "mean_sojourn_ms": (samples.sojourn_ms, "ms"),
    }


def per_layer_metrics(tracer: Tracer, samples: Samples) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced repetitions, per repetition.

    Times are self times (a span minus its child spans), so the engine's
    self time plus every layer inside the replay adds up to
    ``simulation.replay_s``."""
    reps = max(1, samples.traced_repetitions)
    self_s = tracer.self_times()
    counts = tracer.counts

    def per_rep(name: str) -> float:
        return self_s.get(name, 0.0) / reps

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    generated = counts[("workloads.generate", "items")]
    opens = len(tracer.durations("trace.open"))
    replays = tracer.durations("simulation.replay")
    metrics: dict[str, tuple[float, str]] = {
        "workloads.generate_s": (per_rep("workloads.generate"), "s"),
        "workloads.us_per_request": (
            ratio(self_s.get("workloads.generate", 0.0) * 1e6, generated),
            "us",
        ),
        "workloads.requests": (generated / reps, "count"),
        "trace.encode_s": (per_rep("trace.encode"), "s"),
        "trace.bytes_per_request": (samples.bytes_per_request, "B"),
        "trace.open_s": (ratio(self_s.get("trace.open", 0.0), opens), "s"),
        "trace.decode_s": (per_rep("trace.decode"), "s"),
        "trace.chunks": (counts[("trace.decode", "items")] / reps, "count"),
    }
    for name in KERNEL_SPANS.values():
        accesses = counts[(name, "accesses")]
        metrics[f"{name}.kernel_s"] = (per_rep(name), "s")
        metrics[f"{name}.ns_per_access"] = (
            ratio(self_s.get(name, 0.0) * 1e9, accesses),
            "ns",
        )
        metrics[f"{name}.evictions"] = (counts[(name, "evictions")] / reps, "count")
    metrics["core.CLIC.bypass_ratio"] = (
        ratio(counts[("core.CLIC", "bypasses")], counts[("core.CLIC", "accesses")]),
        "ratio",
    )
    for name in OBSERVER_SPANS.values():
        metrics[f"{name}_s"] = (per_rep(name), "s")
    metrics["simulation.materialized_chunks"] = (
        counts[("simulation", "materialized_chunks")] / reps,
        "count",
    )
    metrics["simulation.cluster.self_s"] = (per_rep("simulation.cluster"), "s")
    metrics["simulation.replay_s"] = (sum(replays) / reps, "s")
    metrics["simulation.engine_self_s"] = (per_rep("simulation.replay"), "s")
    metrics["tracing.overhead_ratio"] = (
        ratio(statistics.mean(replays), statistics.mean(samples.raw_replay_s)),
        "ratio",
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload (child process).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--state", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    golden = load_golden()
    rate = arrival_rate(workload, golden)
    if args.seed == DEFAULT_SEED:
        reference = golden_reference(workload, golden)
    elif workload.warm:
        reference = json.loads(reference_path(args.state, workload, args.seed).read_text())
    else:
        reference = None  # computed from the first ingested file
    checker = Checker(reference)

    tracer = Tracer() if args.trace else None
    if workload.warm:
        samples = run_warm(workload, args.seed, args.seconds, tracer, checker, rate)
    else:
        samples = run_cold(workload, args.seed, args.seconds, tracer, checker, rate, args.state)

    if tracer is None:
        metrics = end_to_end_metrics(samples, workload.requests)
    else:
        metrics = per_layer_metrics(tracer, samples)
        tracer.write_csv(args.state / "spans" / f"{workload.name}.csv")
    out = {
        "correct": checker.failed == 0 and not checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": {
            "requests": workload.requests,
            "policy_instances": samples.instances,
            "untraced_replay_passes": len(samples.raw_replay_s),
            "traced_replay_passes": len(samples.traced_replay_s),
            "setups": len(samples.setup_s),
            **{
                f"replay_s_min_median_max[{key}]": _spread(times)
                for key, times in samples.replay_s.items()
            },
            "setup_s_min_median_max": _spread(samples.setup_s),
            "host_slowdown_min_median_max": _spread(samples.slowdowns),
            "arrival_rate_rps": rate,
            "arrival_fraction": workload.arrival_fraction,
            "reference": "golden.json" if args.seed == DEFAULT_SEED else "object path",
        },
    }
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
