"""Shared-replay simulation engine: one trace pass, many policies.

Every figure in the paper's evaluation is a family of curves produced by
replaying the same trace once per (policy, cache-size) cell.  The seed
implementation walked the request stream once per cell, strictly serially —
a 5-policy x 8-size sweep iterated the trace 40 times.  This module provides
the two building blocks that every sweep now runs through:

* :class:`MultiPolicySimulator` iterates the request stream **once** and
  feeds each request to N independent policies, amortising trace iteration,
  per-client statistics bookkeeping and offline preparation (OPT's
  future-read index is built once and shared by every OPT instance) across
  the policies.
* :class:`ParallelSweepRunner` fans (policy, parameter) cells out over a
  ``concurrent.futures.ProcessPoolExecutor`` and merges the results back
  into a :class:`~repro.simulation.metrics.SweepResult` in deterministic
  cell order.  With the default ``jobs=1`` everything runs in-process and
  the output is identical to the serial path, bit for bit; cells that share
  a request stream are then folded into a single shared replay pass.

Policies are described by :class:`PolicySpec` (a registry name plus
constructor arguments, or an arbitrary zero-argument factory) so that cells
can be pickled to worker processes; specs whose factories cannot be pickled
make the runner fall back to the serial path with a warning rather than
fail.

Request streams come in two shapes, unified by the *request-source
protocol*:

* plain sequences (lists/tuples of :class:`IORequest`), lifted into
  columnar chunks slice by slice;
* **lazy sources** — any object with a re-iterable ``iter_requests()``
  method, e.g. :class:`repro.trace.cache.TraceSpec` or
  :class:`repro.trace.binio.StreamedTrace` — replayed chunk-by-chunk with
  bounded memory (the full request list is never materialized); those with
  ``iter_columnar()`` decode straight into chunks.  A lazy source that is
  also cheaply picklable is what ``jobs > 1`` ships to worker processes:
  each worker opens the trace itself instead of receiving millions of
  pickled request objects.
"""

from __future__ import annotations

import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from repro.cache.base import AccessOutcomeBatch, CachePolicy, CacheStats
from repro.cache.registry import create_policy
from repro.simulation.costmodel import CostModel
from repro.simulation.metrics import (
    SimulationResult,
    SweepResult,
    validate_rolling_window,
)
from repro.simulation.observers import (
    CostObserver,
    ReplayObserver,
    RollingObserver,
    StatsObserver,
    shard_observer_for,
)
from repro.simulation.queueing import QueueingModel
from repro.simulation.request import IORequest
from repro.trace.columnar import COLUMNAR_CHUNK_REQUESTS, ColumnarChunk, columnar_chunks

__all__ = [
    "MultiPolicySimulator",
    "PolicySpec",
    "SweepCell",
    "ParallelSweepRunner",
    "RequestSource",
]

class LazyRequestSource(Protocol):
    """A re-iterable request stream the engine can replay without
    materializing it (e.g. :class:`repro.trace.cache.TraceSpec` or
    :class:`repro.trace.binio.StreamedTrace`)."""

    def iter_requests(self) -> Iterator[IORequest]: ...


#: Anything the engine can replay: a request sequence or a lazy source.
RequestSource = Sequence[IORequest] | LazyRequestSource


def _as_request_source(requests: Iterable[IORequest]) -> RequestSource:
    """Normalize to a sequence or a re-iterable lazy source.

    One-shot iterables (plain generators) are materialized, because replay
    may need several passes (offline preparation + the replay itself).
    """
    if isinstance(requests, (list, tuple)):
        return requests
    if hasattr(requests, "iter_requests"):
        return requests
    return list(requests)


def _iter_columnar_chunks(
    source: RequestSource, start_seq: int
) -> Iterator[ColumnarChunk]:
    """Yield *source* as columnar chunks.

    Sources exposing ``iter_columnar()`` (:class:`StreamedTrace`,
    :class:`~repro.trace.cache.TraceSpec`) decode straight into arrays;
    request sequences and ``iter_requests()`` streams are cut into chunks of
    :data:`COLUMNAR_CHUNK_REQUESTS` and lifted with
    :meth:`ColumnarChunk.from_requests`, which memoises the original request
    objects for scalar consumers.
    """
    if hasattr(source, "iter_columnar"):
        return source.iter_columnar()
    requests = source if isinstance(source, (list, tuple)) else source.iter_requests()
    return columnar_chunks(requests, start_seq)


def _split_at_windows(
    chunks: Iterator[ColumnarChunk], window: int, start_seq: int
) -> Iterator[ColumnarChunk]:
    """Re-chunk a stream so no chunk crosses a window boundary.

    Replay results never depend on chunk boundaries, so splitting is free of
    observable effect on hit/miss outcomes; it only guarantees that the
    replay loop sees every ``seq % window == 0`` crossing between chunks,
    where rolling snapshots are taken.  Slices are array views.
    """
    seq = start_seq
    for chunk in chunks:
        offset, length = 0, len(chunk)
        while offset < length:
            room = window - (seq % window)
            take = min(room, length - offset)
            if offset == 0 and take == length:
                yield chunk
            else:
                yield chunk.slice(offset, offset + take)
            seq += take
            offset += take


def _fused_kernel(policy: CachePolicy) -> Callable[[ColumnarChunk], AccessOutcomeBatch]:
    """The policy's ``batch_access``, unless a subclass overrides ``access``
    below the class that defines it (e.g. a recording wrapper around LRU):
    the inherited kernel would bypass the override, so the scalar lift runs
    instead."""
    mro = type(policy).__mro__

    def depth(name: str) -> int:
        return next(i for i, cls in enumerate(mro) if name in cls.__dict__)

    if depth("access") < depth("batch_access"):
        return partial(CachePolicy.batch_access, policy)
    return policy.batch_access


class MultiPolicySimulator:
    """Drives N independent cache policies with a single pass over a stream.

    Feeding every policy from one loop is equivalent to N separate
    :class:`~repro.simulation.simulator.CacheSimulator` runs — the policies
    never interact — but pays the trace iteration, the per-client lookup and
    the read/write classification once per request instead of once per
    request per policy.  Offline policies exposing ``build_read_index`` /
    ``adopt_read_index`` (OPT) additionally share one future-read index.

    All accounting is observers (:mod:`repro.simulation.observers`) over the
    outcome stream the policies emit: a :class:`StatsObserver` per policy
    always; a :class:`ShardStatsObserver` when the policy is a sharded
    cluster; a :class:`CostObserver` when ``cost_model`` prices the replay;
    a :class:`RollingObserver` when ``rolling_window`` opts into windowed
    time series.  ``observer_factories`` attaches arbitrary extra observers:
    each factory is called ``factory(policy, start_seq)`` once per policy
    per run, and the caller keeps its own references to the instances it
    built (the engine only drives them).
    """

    def __init__(
        self,
        policies: Sequence[CachePolicy],
        cost_model: CostModel | None = None,
        rolling_window: int | None = None,
        queueing_model: QueueingModel | None = None,
        observer_factories: Sequence[
            Callable[[CachePolicy, int], ReplayObserver]
        ] = (),
        columnar: bool = True,
    ):
        self._policies = list(policies)
        self._cost_model = cost_model
        self._rolling_window = validate_rolling_window(rolling_window)
        #: Optional open-loop queueing accounting
        #: (:mod:`repro.simulation.queueing`): one QueueingObserver per
        #: policy, fed from the same outcome stream as everything else.
        self._queueing_model = queueing_model
        self._observer_factories = tuple(observer_factories)
        #: Which implementation runs inside the replay loop: ``True`` takes
        #: every policy's and observer's batch override (the fused numpy
        #: kernels); ``False`` is the reference — the base-class
        #: ``CachePolicy.batch_access`` (the scalar ``access()`` loop) and
        #: ``ReplayObserver.on_batch`` (materialise, fold per outcome).  The
        #: two are bit-identical; this is purely a throughput switch.
        self._columnar = columnar

    @property
    def policies(self) -> list[CachePolicy]:
        return list(self._policies)

    #: Requests per chunk when lifting sources without a columnar decoder
    #: (the binary trace BLOCK size; read-only alias of
    #: :data:`COLUMNAR_CHUNK_REQUESTS`).  Within a chunk each policy runs in
    #: its own tight loop, so a policy's data structures stay hot for a
    #: whole chunk instead of being evicted N-1 times per request by the
    #: other policies.
    CHUNK_SIZE = COLUMNAR_CHUNK_REQUESTS

    def run(
        self,
        requests: Iterable[IORequest],
        start_seq: int = 0,
    ) -> list[SimulationResult]:
        """Replay *requests* once through every policy.

        The policies never interact, so the engine is free to reorder work
        across them; it replays chunk-by-chunk, each policy consuming a whole
        chunk at a time, which is observably identical to N independent
        request-by-request runs.  Returns one :class:`SimulationResult` per
        policy, in policy order.  ``elapsed_seconds`` reports the duration of
        the shared pass and is therefore the same for every result.

        ``requests`` may be a sequence or a lazy source (the request-source
        protocol, see the module docstring).  A lazy source is replayed with
        bounded memory — at most one chunk of requests is alive at a time —
        and produces results bit-identical to replaying the materialized
        list.
        """
        policies = self._policies
        if not policies:
            return []
        source = _as_request_source(requests)
        if any(policy.offline for policy in policies):
            self._prepare_offline(source, start_seq)

        n = len(policies)
        cost_model = self._cost_model
        rolling = self._rolling_window

        # One observer pipeline per policy.  Stats are always reconstructed
        # (they are the result); everything else is opt-in.  Observers are
        # fresh per run, so every result counts exactly this run.
        stats_obs: list[StatsObserver] = []
        shard_obs: list = []
        cost_obs: list = []
        rolling_obs: list = []
        queueing_obs: list = []
        queueing_model = self._queueing_model
        # All policies replay identical chunks in sequence, so their
        # queueing observers share one arrival tape: each chunk's arrival
        # timestamps are drawn once and reused N times.
        queueing_tape = (
            queueing_model.tape(start_seq) if queueing_model is not None else None
        )
        pipelines: list[list[ReplayObserver]] = []
        for policy in policies:
            pipeline: list[ReplayObserver] = []
            observer = StatsObserver()
            stats_obs.append(observer)
            pipeline.append(observer)
            shard = shard_observer_for(policy)
            shard_obs.append(shard)
            if shard is not None:
                pipeline.append(shard)
            cost = CostObserver(cost_model.accumulator_for(policy)) if cost_model else None
            cost_obs.append(cost)
            if cost is not None:
                pipeline.append(cost)
            roll = RollingObserver(rolling, start_seq) if rolling else None
            rolling_obs.append(roll)
            if roll is not None:
                pipeline.append(roll)
            queueing = (
                queueing_model.observer_for(policy, start_seq, tape=queueing_tape)
                if queueing_model is not None
                else None
            )
            queueing_obs.append(queueing)
            if queueing is not None:
                pipeline.append(queueing)
            for factory in self._observer_factories:
                pipeline.append(factory(policy, start_seq))
            pipelines.append(pipeline)

        # Observers declaring a boundary interval get chunks aligned to it:
        # splitting at the gcd of all intervals guarantees no chunk crosses a
        # multiple of any individual interval.
        boundary = 0
        for pipeline in pipelines:
            for observer in pipeline:
                interval = observer.boundary_interval
                if interval:
                    boundary = gcd(boundary, interval)

        kernels: list[Callable[[ColumnarChunk], AccessOutcomeBatch]]
        folds: list[list[Callable[[ColumnarChunk, AccessOutcomeBatch], None]]]
        if self._columnar:
            kernels = [_fused_kernel(policy) for policy in policies]
            folds = [[observer.on_batch for observer in pipeline] for pipeline in pipelines]
        else:
            kernels = [partial(CachePolicy.batch_access, policy) for policy in policies]
            folds = [
                [partial(ReplayObserver.on_batch, observer) for observer in pipeline]
                for pipeline in pipelines
            ]

        # client_id -> [read_requests, write_requests, read hits per policy,
        # write hits per policy]: the request counts are policy-independent,
        # so they are counted once per chunk and shared by all N results.
        per_client: dict[str, list] = {}
        seq_base = start_seq
        started = time.perf_counter()  # lintkit: ignore[wall-clock] elapsed_seconds is runtime telemetry, never replay state
        chunks = _iter_columnar_chunks(source, start_seq)
        if boundary:
            chunks = _split_at_windows(chunks, boundary, start_seq)
        for chunk in chunks:
            if chunk.seq_base != seq_base:
                # Sources number chunks from their own origin (0 for a
                # decoded trace); the engine's numbering wins.
                chunk = chunk.rebase(seq_base)
            write = chunk.write
            client_rows = []
            for client_id, mask in chunk.present_clients():
                row = per_client.get(client_id)
                if row is None:
                    row = [0, 0, [0] * n, [0] * n]
                    per_client[client_id] = row
                read_mask = mask & ~write
                write_mask = mask & write
                row[0] += int(np.count_nonzero(read_mask))
                row[1] += int(np.count_nonzero(write_mask))
                client_rows.append((row, read_mask, write_mask))
            for j in range(n):
                batch = kernels[j](chunk)
                hit = batch.hit
                for row, read_mask, write_mask in client_rows:
                    row[2][j] += int(np.count_nonzero(hit & read_mask))
                    row[3][j] += int(np.count_nonzero(hit & write_mask))
                for fold in folds[j]:
                    fold(chunk, batch)
            seq_base += len(chunk)
            for pipeline in pipelines:
                for observer in pipeline:
                    observer.on_chunk_end(seq_base)
        elapsed = time.perf_counter() - started  # lintkit: ignore[wall-clock] elapsed_seconds is runtime telemetry, never replay state
        return self._assemble_results(
            per_client, elapsed, stats_obs, shard_obs, cost_obs, rolling_obs, queueing_obs
        )

    def _assemble_results(
        self,
        per_client: dict[str, list],
        elapsed: float,
        stats_obs: list[StatsObserver],
        shard_obs: list,
        cost_obs: list,
        rolling_obs: list,
        queueing_obs: list,
    ) -> list[SimulationResult]:
        """Fold the observer pipelines into one result per policy."""
        cost_model = self._cost_model
        results = []
        for j, policy in enumerate(self._policies):
            client_stats = {
                client_id: CacheStats(
                    read_requests=row[0],
                    read_hits=row[2][j],
                    write_requests=row[1],
                    write_hits=row[3][j],
                )
                for client_id, row in per_client.items()
            }
            stats = stats_obs[j].finalize()
            # Back-compat: the deprecated ``policy.stats`` shim reports this
            # run's accounting until the policy's next reset.
            policy._stats_view = stats
            shard = shard_obs[j]
            per_shard = shard.finalize() if shard is not None else ()
            latency = None
            shard_latency: tuple = ()
            cost = cost_obs[j]
            if cost is not None:
                latency = cost.finalize()
                if per_shard:
                    # Seek-aware cluster accumulators price each shard
                    # exactly; otherwise derive analytically (exact for
                    # position-independent devices).
                    shard_latency = cost.shard_latencies() or (
                        cost_model.shard_latencies(per_shard)
                    )
            roll = rolling_obs[j]
            queueing = queueing_obs[j]
            results.append(
                SimulationResult(
                    policy_name=policy.name,
                    capacity=policy.capacity,
                    stats=stats,
                    per_client=client_stats,
                    elapsed_seconds=elapsed,
                    per_shard=per_shard,
                    latency=latency,
                    shard_latency=shard_latency,
                    rolling=roll.finalize() if roll is not None else None,
                    queueing=queueing.finalize() if queueing is not None else None,
                )
            )
        return results

    def _prepare_offline(self, source: RequestSource, start_seq: int) -> None:
        """Prepare offline policies, sharing one future index per index builder.

        OPT-style policies (``build_read_index``/``adopt_read_index``) are
        fed a streaming pass, so a lazy source never has to materialize; a
        generic ``prepare`` contract expects a sequence, so only that legacy
        path materializes a lazy source (once).  The shared-index cache is
        keyed by the builder function itself, so types that delegate to the
        same builder (``ShardedCache`` reuses OPT's) share one index with it
        instead of each indexing the stream.
        """
        shared_indexes: dict[object, object] = {}
        materialized: Sequence[IORequest] | None = None
        for policy in self._policies:
            if not policy.offline:
                continue
            cls = type(policy)
            if hasattr(cls, "build_read_index") and hasattr(policy, "adopt_read_index"):
                builder = cls.build_read_index
                index = shared_indexes.get(builder)
                if index is None:
                    stream = (
                        source
                        if isinstance(source, (list, tuple))
                        else source.iter_requests()
                    )
                    index = builder(stream, start_seq)
                    shared_indexes[builder] = index
                policy.adopt_read_index(index)
            else:
                if materialized is None:
                    materialized = (
                        source
                        if isinstance(source, (list, tuple))
                        else list(source.iter_requests())
                    )
                policy.prepare(materialized, start_seq)


@dataclass(frozen=True)
class PolicySpec:
    """A picklable description of one policy instance in a sweep cell.

    Either ``name``/``capacity`` (resolved through the policy registry, with
    ``kwargs`` forwarded to the constructor) or an arbitrary zero-argument
    ``factory``.  Factories must be picklable (module-level functions or
    :func:`functools.partial` of them) to run under ``jobs > 1``; otherwise
    the runner falls back to the serial path.
    """

    label: str
    name: str | None = None
    capacity: int | None = None
    kwargs: Mapping[str, object] = field(default_factory=dict)
    factory: Callable[[], CachePolicy] | None = None

    def build(self) -> CachePolicy:
        if self.factory is not None:
            return self.factory()
        if self.name is None or self.capacity is None:
            raise ValueError(
                f"PolicySpec {self.label!r} needs either a factory or name+capacity"
            )
        return create_policy(self.name, capacity=self.capacity, **dict(self.kwargs))


@dataclass(frozen=True)
class SweepCell:
    """One x-coordinate of a sweep: the policies that share a replay pass.

    ``requests`` overrides the runner's shared stream for this cell (used by
    sweeps whose cells replay different streams, e.g. the noise-injection
    experiment); ``None`` means the runner's stream.  Either may be a
    sequence or a lazy request source (e.g. a
    :class:`repro.trace.cache.TraceSpec`).

    ``queueing`` overrides the runner's queueing model for this cell (used
    by the ``load`` experiment, whose cells sweep offered load over one
    stream); ``None`` means the runner's model (which may itself be
    ``None`` — queueing off).  Cells replay their stream whole inside one
    worker, so queueing stats are bit-identical at any ``jobs=`` count.
    """

    x: float
    specs: tuple[PolicySpec, ...]
    requests: RequestSource | None = None
    queueing: QueueingModel | None = None


# Per-worker copy of the runner's shared request stream (or the lazy source
# the worker opens itself), installed once per worker process by the pool
# initializer instead of being pickled per cell.
_WORKER_REQUESTS: RequestSource | None = None


def _init_worker(requests: RequestSource | None) -> None:
    global _WORKER_REQUESTS
    _WORKER_REQUESTS = requests


def _stream_group_key(stream: RequestSource) -> object:
    """Group key for folding same-stream cells into one replay pass.

    Hashable lazy sources (e.g. :class:`~repro.trace.cache.TraceSpec`) group
    by *equality*, so two equal specs share one pass even if they are
    distinct objects (or were pickled separately); everything else groups by
    identity.
    """
    if hasattr(stream, "iter_requests"):
        try:
            hash(stream)
        except TypeError:
            return id(stream)
        return stream
    return id(stream)


def _run_cells(
    cells: Sequence[SweepCell],
    default_requests: RequestSource | None,
    cost_model: CostModel | None = None,
    rolling_window: int | None = None,
    queueing_model: QueueingModel | None = None,
    columnar: bool = True,
) -> list[list[SimulationResult]]:
    """Run *cells*, folding same-stream cells into one shared replay pass.

    Cells are grouped by (request-stream identity, queueing model) — stream
    equality for hashable lazy sources: all their policies are independent,
    so one :class:`MultiPolicySimulator` pass per distinct group covers
    every cell of that group.  Cells with different queueing models (e.g.
    different offered loads over one stream) need separate passes because
    the queueing observer is per-run state.  Used both by the serial path
    (with all cells) and inside each worker process (with that worker's
    batch of cells).
    """
    groups: dict[object, list[int]] = {}
    streams: dict[object, RequestSource] = {}
    queueings: dict[object, QueueingModel | None] = {}
    for index, cell in enumerate(cells):
        stream = cell.requests if cell.requests is not None else default_requests
        if stream is None:
            raise ValueError(
                "sweep cell has no request stream (set ParallelSweepRunner("
                "requests=...) or SweepCell(requests=...))"
            )
        queueing = cell.queueing if cell.queueing is not None else queueing_model
        key = (_stream_group_key(stream), queueing)
        groups.setdefault(key, []).append(index)
        streams[key] = stream
        queueings[key] = queueing

    outcomes: list[list[SimulationResult]] = [[] for _ in cells]
    for group_key, cell_indices in groups.items():
        policies = [
            spec.build() for index in cell_indices for spec in cells[index].specs
        ]
        results = MultiPolicySimulator(
            policies,
            cost_model=cost_model,
            rolling_window=rolling_window,
            queueing_model=queueings[group_key],
            columnar=columnar,
        ).run(streams[group_key])
        offset = 0
        for index in cell_indices:
            width = len(cells[index].specs)
            outcomes[index] = results[offset : offset + width]
            offset += width
    return outcomes


def _ensure_streams(streams: Iterable[RequestSource | None]) -> None:
    """Call ``ensure()`` once per *distinct* lazy source, skipping ``None``.

    Wide sweeps hand the runner one equal :class:`~repro.trace.cache
    .TraceSpec` per cell; ensuring each would re-stat (and on a cold cache,
    race to re-generate) the same trace once per cell.  Hashable sources
    dedup by equality — matching :func:`_stream_group_key`, so exactly the
    streams that will fold into one replay pass share one ``ensure()`` —
    and unhashable ones by identity.
    """
    seen: set[object] = set()
    seen_ids: set[int] = set()
    for stream in streams:
        if stream is None:
            continue
        ensure = getattr(stream, "ensure", None)
        if not callable(ensure):
            continue
        try:
            if stream in seen:
                continue
            seen.add(stream)
        except TypeError:
            if id(stream) in seen_ids:
                continue
            seen_ids.add(id(stream))
        ensure()


def _run_cell_batch(
    cells: Sequence[SweepCell],
    cost_model: CostModel | None = None,
    rolling_window: int | None = None,
    queueing_model: QueueingModel | None = None,
    columnar: bool = True,
) -> list[list[SimulationResult]]:
    """Worker entry point: run one batch of cells against the worker stream."""
    return _run_cells(
        cells,
        _WORKER_REQUESTS,
        cost_model,
        rolling_window,
        queueing_model,
        columnar,
    )


class ParallelSweepRunner:
    """Runs a grid of sweep cells, serially or across worker processes.

    The merge order is deterministic: results enter the
    :class:`SweepResult` in cell order, then spec order within each cell,
    regardless of which worker finishes first — so ``jobs=1`` and ``jobs=N``
    produce identical sweeps (worker scheduling only affects wall-clock).
    """

    def __init__(
        self,
        requests: RequestSource | None = None,
        jobs: int | None = 1,
        cost_model: CostModel | None = None,
        rolling_window: int | None = None,
        queueing: QueueingModel | None = None,
        columnar: bool = True,
    ):
        self._requests = requests
        self._jobs = 1 if jobs is None else int(jobs)
        #: Fused (``True``) or reference (``False``) implementations for
        #: every cell's replay (see :class:`MultiPolicySimulator`): a plain
        #: bool, so it ships to workers with the cells; both are
        #: bit-identical.
        self._columnar = columnar
        #: Optional service-time pricing applied to every cell's replay
        #: (:mod:`repro.simulation.costmodel`).  Cost models are plain
        #: picklable objects, so they ship to worker processes with the
        #: cells; ``jobs=1`` and ``jobs=N`` produce identical latency stats.
        self._cost_model = cost_model
        #: Optional windowed time series on every result (an int, so it
        #: ships to workers like the cost model; each cell's policy replays
        #: its stream whole inside one worker, so the series are complete
        #: and identical at any job count).
        self._rolling_window = validate_rolling_window(rolling_window)
        #: Optional open-loop queueing on every cell's replay (a frozen
        #: picklable value object, so it ships to workers with the cells;
        #: per-cell ``SweepCell.queueing`` overrides it).  Arrival clocks
        #: and queue state are deterministic functions of the stream, so
        #: ``jobs=1`` and ``jobs=N`` produce identical queueing stats.
        self._queueing = queueing

    def run(self, cells: Iterable[SweepCell], parameter: str) -> SweepResult:
        cells = list(cells)
        jobs = min(self._jobs, len(cells))
        if jobs > 1 and not self._specs_picklable(cells):
            warnings.warn(
                "sweep cells are not picklable (non-module-level policy "
                "factory?); falling back to the serial path",
                RuntimeWarning,
                stacklevel=2,
            )
            jobs = 1
        if jobs > 1:
            try:
                outcomes = self._run_parallel(cells, jobs)
            except Exception as error:
                # Anything that breaks the worker pool (most likely an
                # unpicklable request stream) degrades to the serial path
                # rather than failing the sweep: workers build all state
                # themselves, so a failed parallel attempt leaves nothing
                # behind.
                warnings.warn(
                    f"parallel sweep failed ({type(error).__name__}: {error}); "
                    "falling back to the serial path",
                    RuntimeWarning,
                    stacklevel=2,
                )
                outcomes = self._run_serial(cells)
        else:
            outcomes = self._run_serial(cells)

        sweep = SweepResult(parameter=parameter)
        for cell, results in zip(cells, outcomes):
            for spec, result in zip(cell.specs, results):
                sweep.add(spec.label, cell.x, result)
        return sweep

    # ----------------------------------------------------------- execution
    def _run_serial(self, cells: Sequence[SweepCell]) -> list[list[SimulationResult]]:
        return _run_cells(
            cells,
            self._requests,
            self._cost_model,
            self._rolling_window,
            self._queueing,
            self._columnar,
        )

    def _run_parallel(
        self, cells: Sequence[SweepCell], jobs: int
    ) -> list[list[SimulationResult]]:
        # Lazy sources get materialized on disk once, up front, so N workers
        # opening the same spec hit the trace cache instead of racing to
        # generate the trace N times.
        _ensure_streams(
            [self._requests] + [cell.requests for cell in cells]
        )
        # Split the grid into one contiguous batch per worker: neighbouring
        # cells usually share a request stream, so each batch still folds
        # into shared replay passes inside its worker — jobs>1 keeps both
        # the amortisation and the parallelism.
        chunk = -(-len(cells) // jobs)  # ceil division
        batches = [cells[start : start + chunk] for start in range(0, len(cells), chunk)]
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(self._requests,)
        ) as executor:
            futures = [
                executor.submit(
                    _run_cell_batch,
                    batch,
                    self._cost_model,
                    self._rolling_window,
                    self._queueing,
                    self._columnar,
                )
                for batch in batches
            ]
            batch_outcomes = [future.result() for future in futures]
        return [cell_results for batch in batch_outcomes for cell_results in batch]

    def _specs_picklable(self, cells: Sequence[SweepCell]) -> bool:
        """Probe only the specs: the realistic pickling hazard is a closure
        factory, and probing full cells would serialize every per-cell
        request stream twice."""
        try:
            pickle.dumps([cell.specs for cell in cells])
            return True
        except Exception:
            return False
