"""Composable replay observers: all accounting, fed from one replay loop.

Policies are pure kernels (:mod:`repro.cache.base`): ``access`` returns an
:class:`~repro.cache.base.AccessOutcome` event and mutates nothing but
replacement state.  Everything the simulation reports — hit/miss statistics,
per-shard breakdowns, service-time pricing, rolling time series — is an
observer over the outcome stream, attached by the single replay orchestrator
(:class:`~repro.simulation.engine.MultiPolicySimulator`).

The observer contract (:class:`ReplayObserver`):

* :meth:`~ReplayObserver.on_batch` — fold one columnar chunk and the
  policy's batched outcomes.  This is the engine's hook: every chunk of
  every replay reaches every observer through it.
* :meth:`~ReplayObserver.on_outcome` — fold one ``(request, seq, outcome)``
  event.  This is the reference definition of what an observer counts;
  the default ``on_batch`` materialises the chunk and folds it event by
  event (via :meth:`~ReplayObserver.on_chunk`), so a batch-native
  ``on_batch`` override must produce exactly what ``on_outcome`` would.
  The engine's ``columnar=False`` mode runs every observer through that
  default, which is how the overrides are checked.  Every built-in
  observer — the seek-priced HDD cost and queueing observers included —
  overrides ``on_batch``, so a fused replay materialises no request or
  outcome object.
* :meth:`~ReplayObserver.on_chunk_end` — the loop crossed a chunk boundary
  at sequence number ``seq_end`` (exclusive).  Observers declaring a
  :attr:`~ReplayObserver.boundary_interval` are guaranteed a call at every
  multiple of it (the loop re-chunks the stream so no chunk crosses one).
* :meth:`~ReplayObserver.merge` — absorb the observer of the *directly
  following* replay segment, so segmented replays (``jobs=N`` work splits,
  service-mode restarts) compose into one run's accounting.
* :meth:`~ReplayObserver.finalize` — the accounting product.  Non-
  destructive: safe to call more than once.

Writing an observer: subclass :class:`ReplayObserver`, implement
``on_outcome`` (override ``on_batch`` only if profiling says so), ``merge``
and ``finalize``, then attach instances via the simulators'
``observer_factories`` hook.  Observers must not call back into the policy's
``access`` and must not mutate requests or outcomes — many observers share
one outcome stream.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cache.base import AccessOutcome, CacheStats

if TYPE_CHECKING:  # imported for type annotations only
    from repro.cache.base import AccessOutcomeBatch
    from repro.simulation.cluster import ShardedCache
    from repro.simulation.costmodel import (
        CostAccumulator,
        LatencyStats,
        ShardedCostAccumulator,
    )
    from repro.simulation.metrics import RollingMetrics
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = [
    "ReplayObserver",
    "StatsObserver",
    "ShardStatsObserver",
    "CostObserver",
    "RollingObserver",
    "shard_observer_for",
]


class ReplayObserver(abc.ABC):
    """Protocol for accounting fed from the replay loop's outcome stream."""

    #: When not ``None``, the replay loop re-chunks the stream so a chunk
    #: never crosses a multiple of this sequence-number interval, and
    #: :meth:`on_chunk_end` therefore fires at every such multiple.
    boundary_interval: int | None = None

    @abc.abstractmethod
    def on_outcome(self, request: IORequest, seq: int, outcome: AccessOutcome) -> None:
        """Fold one replayed request's outcome event."""

    def on_chunk(
        self,
        requests: Sequence[IORequest],
        seq_base: int,
        outcomes: Sequence[AccessOutcome],
    ) -> None:
        """Fold one chunk of consecutive outcomes (requests[i] has sequence
        number ``seq_base + i``).  Default: loop over :meth:`on_outcome`."""
        on_outcome = self.on_outcome
        seq = seq_base
        for request, outcome in zip(requests, outcomes):
            on_outcome(request, seq, outcome)
            seq += 1

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        """Fold one columnar chunk of batched outcomes (the engine's hook).
        Default — the reference: materialise the chunk's requests and the
        batch's scalar outcomes and fold them through :meth:`on_chunk`, so
        any observer is correct out of the box; batch-native overrides are
        purely a performance fast path."""
        self.on_chunk(chunk.requests(), chunk.seq_base, batch.outcomes())

    def on_chunk_end(self, seq_end: int) -> None:
        """The replay crossed a chunk boundary; ``seq_end`` is exclusive."""

    @abc.abstractmethod
    def merge(self, other: "ReplayObserver") -> None:
        """Absorb *other*, the observer of the directly following segment."""

    @abc.abstractmethod
    def finalize(self) -> object:
        """Return the accounting product (non-destructive)."""


class StatsObserver(ReplayObserver):
    """Reconstructs :class:`CacheStats` from the outcome stream.

    One counting rule for every policy: requests/hits split by read/write,
    one admission per ``outcome.admitted``, one bypass per
    ``outcome.bypassed``, ``len(outcome.evicted)`` evictions.
    """

    __slots__ = (
        "read_requests",
        "read_hits",
        "write_requests",
        "write_hits",
        "evictions",
        "admissions",
        "bypasses",
    )

    def __init__(self):
        self.read_requests = 0
        self.read_hits = 0
        self.write_requests = 0
        self.write_hits = 0
        self.evictions = 0
        self.admissions = 0
        self.bypasses = 0

    def on_outcome(self, request: IORequest, seq: int, outcome: AccessOutcome) -> None:
        if request.is_read:
            self.read_requests += 1
            if outcome.hit:
                self.read_hits += 1
        else:
            self.write_requests += 1
            if outcome.hit:
                self.write_hits += 1
        if outcome.admitted:
            self.admissions += 1
        if outcome.bypassed:
            self.bypasses += 1
        if outcome.evicted:
            self.evictions += len(outcome.evicted)

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        # Batch-native: whole-column popcounts replace the per-outcome loop.
        write = chunk.write
        hit = batch.hit
        wr = int(np.count_nonzero(write))
        wh = int(np.count_nonzero(hit & write))
        self.read_requests += len(chunk) - wr
        self.read_hits += int(np.count_nonzero(hit)) - wh
        self.write_requests += wr
        self.write_hits += wh
        self.evictions += batch.eviction_count
        self.admissions += int(np.count_nonzero(batch.admitted))
        self.bypasses += int(np.count_nonzero(batch.bypassed))

    def merge(self, other: "StatsObserver") -> None:
        self.read_requests += other.read_requests
        self.read_hits += other.read_hits
        self.write_requests += other.write_requests
        self.write_hits += other.write_hits
        self.evictions += other.evictions
        self.admissions += other.admissions
        self.bypasses += other.bypasses

    def finalize(self) -> CacheStats:
        return CacheStats(
            read_requests=self.read_requests,
            read_hits=self.read_hits,
            write_requests=self.write_requests,
            write_hits=self.write_hits,
            evictions=self.evictions,
            admissions=self.admissions,
            bypasses=self.bypasses,
        )


class ShardStatsObserver(ReplayObserver):
    """Per-shard :class:`CacheStats` for sharded clusters.

    Routes every outcome with the cluster's own router — after the access,
    exactly like the sharded cost accumulator, so stateful routers have
    already made their assignment and re-routing is a pure lookup.  The
    cluster facade returns the routed shard's outcome unchanged, so
    attributing the whole event to that shard reconstructs what the shard's
    own accounting used to report.
    """

    __slots__ = ("_route", "_router", "_shards")

    def __init__(self, cluster: "ShardedCache"):
        self._router = cluster.router
        self._route = self._router.route
        self._shards = [CacheStats() for _ in range(cluster.shard_count)]

    def on_outcome(self, request: IORequest, seq: int, outcome: AccessOutcome) -> None:
        self._shards[self._route(request)].record_outcome(request, outcome)

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        # Batch-native: re-route the whole chunk with the router's column
        # kernel (post-access, so stateful routers resolve to pure lookups),
        # then fold per-shard masked popcounts.
        shard_ids = self._router.route_batch(chunk)
        write = chunk.write
        hit = batch.hit
        admitted = batch.admitted
        bypassed = batch.bypassed
        eviction_counts = np.diff(batch.evicted_offsets)
        for s, stats in enumerate(self._shards):
            mask = shard_ids == s
            total = int(np.count_nonzero(mask))
            if not total:
                continue
            wr = int(np.count_nonzero(mask & write))
            wh = int(np.count_nonzero(hit & mask & write))
            stats.read_requests += total - wr
            stats.read_hits += int(np.count_nonzero(hit & mask)) - wh
            stats.write_requests += wr
            stats.write_hits += wh
            stats.admissions += int(np.count_nonzero(admitted & mask))
            stats.bypasses += int(np.count_nonzero(bypassed & mask))
            stats.evictions += int(eviction_counts[mask].sum())

    def merge(self, other: "ShardStatsObserver") -> None:
        self._shards = [
            mine.merge(theirs) for mine, theirs in zip(self._shards, other._shards)
        ]

    def finalize(self) -> tuple[CacheStats, ...]:
        from dataclasses import replace

        return tuple(replace(stats) for stats in self._shards)


def shard_observer_for(policy: object) -> ShardStatsObserver | None:
    """A :class:`ShardStatsObserver` for sharded clusters, else ``None``.

    Duck-types the cluster surface (``router`` + ``shard_count``), matching
    :meth:`CostModel.accumulator_for`, so any policy exposing it gets the
    per-shard breakdown on its results.
    """
    router = getattr(policy, "router", None)
    if (
        router is not None
        and hasattr(router, "route")
        and getattr(policy, "shard_count", 0) >= 1
    ):
        return ShardStatsObserver(policy)
    return None


class CostObserver(ReplayObserver):
    """Service-time pricing as an observer, wrapping a cost accumulator.

    The accumulator (:class:`~repro.simulation.costmodel.CostAccumulator` or
    its sharded variant) stays the pricing kernel.  The reference feed
    (``on_outcome``) charges it one ``(request, hit)`` event at a time;
    :meth:`on_batch` hands it whole columns (``charge_batch``), which walk
    the seek head over each chunk's device accesses and record the same
    floats bit for bit, on every device.  Segment merging folds the
    finalized :class:`LatencyStats` — exact for position-independent
    devices; on seek devices each segment's first access is priced at the
    nominal seek (the same convention as any fresh run).
    """

    __slots__ = ("_accumulator", "_merged")

    def __init__(self, accumulator: "CostAccumulator | ShardedCostAccumulator"):
        self._accumulator = accumulator
        self._merged: list[CostObserver] = []

    def on_outcome(self, request: IORequest, seq: int, outcome: AccessOutcome) -> None:
        self._accumulator.charge(request, outcome.hit)

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        self._accumulator.charge_batch(chunk, batch.hit)

    def merge(self, other: "CostObserver") -> None:
        self._merged.append(other)

    def finalize(self) -> "LatencyStats":
        latency = self._accumulator.finalize()
        for observer in self._merged:
            latency = latency.merge(observer._accumulator.finalize())
        return latency

    def shard_latencies(self) -> tuple["LatencyStats", ...]:
        """Per-shard latency breakdown (after :meth:`finalize`); empty for
        single-device accumulators."""
        own = self._accumulator.shard_latencies()
        if not own or not self._merged:
            return own
        merged = list(own)
        for observer in self._merged:
            for index, shard in enumerate(observer._accumulator.shard_latencies()):
                merged[index] = merged[index].merge(shard)
        return tuple(merged)


class RollingObserver(ReplayObserver):
    """Windowed time series (:class:`RollingMetrics`) from outcome counts.

    Windows are aligned to absolute sequence numbers (window *i* covers
    ``[i*W, (i+1)*W)``); the first and last windows of a segment may be
    partial, and :meth:`merge` rejoins halves split across segments — the
    same mergeability contract :class:`RollingMetrics` pins.  Declares
    ``boundary_interval = window`` so the replay loop aligns its chunks and
    every boundary crossing reaches :meth:`on_chunk_end`.
    """

    __slots__ = ("_window", "_start", "_seq", "_counts", "_windows")

    def __init__(self, window: int, start_seq: int = 0):
        from repro.simulation.metrics import validate_rolling_window

        self._window = validate_rolling_window(window)
        self.boundary_interval = self._window
        self._start = start_seq
        self._seq = start_seq
        # [read_requests, read_hits, write_requests, write_hits, evictions]
        self._counts = [0, 0, 0, 0, 0]
        self._windows: list = []

    def _close(self, boundary: int) -> None:
        from repro.simulation.metrics import RollingWindow

        rr, rh, wr, wh, ev = self._counts
        self._windows.append(
            RollingWindow(
                start=self._start,
                requests=rr + wr,
                read_requests=rr,
                read_hits=rh,
                write_requests=wr,
                write_hits=wh,
                evictions=ev,
            )
        )
        self._counts = [0, 0, 0, 0, 0]
        self._start = boundary

    def on_outcome(self, request: IORequest, seq: int, outcome: AccessOutcome) -> None:
        boundary = seq - (seq % self._window)
        if boundary > self._start:
            self._close(boundary)
        counts = self._counts
        if request.is_read:
            counts[0] += 1
            if outcome.hit:
                counts[1] += 1
        else:
            counts[2] += 1
            if outcome.hit:
                counts[3] += 1
        if outcome.evicted:
            counts[4] += len(outcome.evicted)
        self._seq = seq + 1

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        # Batch-native: the chunk is cut at window boundaries (the engine
        # aligns chunks to them, direct drivers may not) and each segment is
        # folded by column popcounts.
        window = self._window
        length = len(chunk)
        write = chunk.write
        hit = batch.hit
        offsets = batch.evicted_offsets
        seq_base = chunk.seq_base
        offset = 0
        while offset < length:
            seq = seq_base + offset
            boundary = seq - (seq % window)
            if boundary > self._start:
                self._close(boundary)
            take = min(window - (seq % window), length - offset)
            end = offset + take
            write_seg = write[offset:end]
            hit_seg = hit[offset:end]
            wr = int(np.count_nonzero(write_seg))
            wh = int(np.count_nonzero(hit_seg & write_seg))
            counts = self._counts
            counts[0] += take - wr
            counts[1] += int(np.count_nonzero(hit_seg)) - wh
            counts[2] += wr
            counts[3] += wh
            counts[4] += int(offsets[end] - offsets[offset])
            offset = end
            self._seq = seq + take

    def on_chunk_end(self, seq_end: int) -> None:
        if seq_end % self._window == 0 and seq_end > self._start:
            self._close(seq_end)

    def merge(self, other: "RollingObserver") -> None:
        combined = self.finalize().merge(other.finalize())
        self._windows = list(combined.windows)
        self._counts = [0, 0, 0, 0, 0]
        self._start = other._seq
        self._seq = other._seq

    def finalize(self) -> "RollingMetrics":
        from repro.simulation.metrics import RollingMetrics

        windows = list(self._windows)
        if self._seq > self._start:
            rr, rh, wr, wh, ev = self._counts
            from repro.simulation.metrics import RollingWindow

            windows.append(
                RollingWindow(
                    start=self._start,
                    requests=rr + wr,
                    read_requests=rr,
                    read_hits=rh,
                    write_requests=wr,
                    write_hits=wh,
                    evictions=ev,
                )
            )
        return RollingMetrics(window=self._window, windows=tuple(windows))
