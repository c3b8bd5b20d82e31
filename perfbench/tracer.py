"""Span recorder for the traced benchmark run.

The traced run records a span around every call the benchmark makes into a
layer of ``repro``: trace-cache ensure/open, workload-generator steps, trace
encoding and columnar decode steps, every policy kernel's ``batch_access``,
the sharded cluster's ``batch_access`` and every observer callback.  The
spans are recorded by wrapping those class attributes from outside the
package for the duration of one traced repetition (:meth:`Tracer.installed`)
and restoring the originals afterwards, so the untraced repetitions of the
same run execute the unmodified classes.

Kernel wrappers replace only methods a class defines itself.  The engine
picks the batch path with ``type(policy).batch_access is not
CachePolicy.batch_access``; a class that inherits the default stays
inheriting it, and a class with a kernel keeps a distinct one, so the
wrappers never change which path the engine takes.

Spans are kept in memory as ``(span_id, name, start_ns, end_ns, parent_id,
run_id)`` tuples and written out once, at the end of the run
(:meth:`Tracer.write_csv`).  A span's self time is its duration minus the
durations of its direct children; because calls nest strictly, the self
times of all spans under a replay add up to the replay's duration.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.cache.arc import ARCPolicy
from repro.cache.base import AccessOutcomeBatch, CachePolicy
from repro.cache.car import CARPolicy
from repro.cache.clock import ClockPolicy
from repro.cache.fifo import FIFOPolicy
from repro.cache.lru import LRUPolicy
from repro.core.clic import CLICPolicy
from repro.simulation.cluster import ShardedCache
from repro.simulation.observers import (
    CostObserver,
    RollingObserver,
    ShardStatsObserver,
    StatsObserver,
)
from repro.simulation.queueing import QueueingObserver
from repro.trace.binio import BinaryTraceWriter, StreamedTrace
from repro.trace.cache import TraceCache, TraceSpec
from repro.trace.columnar import ColumnarChunk
from repro.workloads.phased import PhasedTraceStream
from repro.workloads.standard import StandardTraceStream

#: Span name of each wrapped policy kernel (the layer it belongs to).
KERNEL_SPANS: dict[type, str] = {
    LRUPolicy: "cache.LRU",
    FIFOPolicy: "cache.FIFO",
    ClockPolicy: "cache.CLOCK",
    ARCPolicy: "cache.ARC",
    CARPolicy: "cache.CAR",
    CLICPolicy: "core.CLIC",
}

#: Span name of each wrapped observer class.
OBSERVER_SPANS: dict[type, str] = {
    StatsObserver: "simulation.observers.stats",
    ShardStatsObserver: "simulation.observers.shard",
    CostObserver: "simulation.observers.cost",
    RollingObserver: "simulation.observers.rolling",
    QueueingObserver: "simulation.observers.queueing",
}

#: Observer callbacks the engine drives; ``finalize`` is included because
#: the queueing observer does its vectorised Lindley pass there.
OBSERVER_METHODS = ("on_batch", "on_chunk", "on_chunk_end", "finalize")

Span = tuple[int, str, int, int, int, int]


def _batch_kernels() -> dict[type, bool]:
    """The engine's kernel detection for every wrapped policy class."""
    return {
        cls: cls.batch_access is not CachePolicy.batch_access
        for cls in (*KERNEL_SPANS, ShardedCache)
    }


class Tracer:
    """In-memory span and counter recorder (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Counts taken at the same boundaries as the spans, keyed by
        #: ``(span name, counter)``.
        self.counts: defaultdict[tuple[str, str], int] = defaultdict(int)
        self.run_id = 0
        #: Open spans, innermost last, as ``(span_id, name)``.
        self._stack: list[tuple[int, str]] = [(0, "")]
        self._next_id = 1

    # ------------------------------------------------------------ recording
    def _open(self, name: str) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name))
        return span_id

    def _close(self, span_id: int, name: str, start: int, end: int) -> None:
        self._stack.pop()
        self.spans.append((span_id, name, start, end, self._stack[-1][0], self.run_id))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (used around the benchmark's
        own top-level calls, e.g. one whole replay)."""
        span_id = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(span_id, name, start, time.perf_counter_ns())

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """*fn* recording one span per call; ``after(result)`` takes counts
        once the span is closed."""
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span_id, name, start, clock())
            if after is not None:
                after(result)
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* (returning an iterable) whose every ``next()`` is a span.

        Items are counted as ``(name, "items")`` only at the outermost
        level, so a generator composed of same-layer generators (a phased
        stream over standard streams) counts each item once."""
        tracer = self
        clock = time.perf_counter_ns
        items = (name, "items")

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = iter(fn(*args, **kwargs))
            while True:
                outermost = tracer._stack[-1][1] != name
                span_id = tracer._open(name)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(span_id, name, start, clock())
                if outermost:
                    tracer.counts[items] += 1
                yield item

        return traced

    # ------------------------------------------------------------- patching
    def _patches(self) -> list[tuple[type, str, Callable[..., Any]]]:
        """``(class, attribute, replacement)`` for every wrapped call."""
        counts = self.counts
        patches: list[tuple[type, str, Callable[..., Any]]] = [
            (TraceSpec, "ensure", self.wrap("trace.ensure", TraceSpec.ensure)),
            (TraceCache, "open", self.wrap("trace.open", TraceCache.open)),
            (BinaryTraceWriter, "write", self.wrap("trace.encode", BinaryTraceWriter.write)),
            (BinaryTraceWriter, "close", self.wrap("trace.encode", BinaryTraceWriter.close)),
            (
                StandardTraceStream,
                "__iter__",
                self.wrap_iter("workloads.generate", StandardTraceStream.__iter__),
            ),
            (
                PhasedTraceStream,
                "__iter__",
                self.wrap_iter("workloads.generate", PhasedTraceStream.__iter__),
            ),
            (
                StreamedTrace,
                "iter_columnar",
                self.wrap_iter("trace.decode", StreamedTrace.iter_columnar),
            ),
        ]

        def materializing(fn: Callable[..., Any]) -> Callable[..., Any]:
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[("simulation", "materialized_chunks")] += 1
                return fn(*args, **kwargs)

            return counted

        for owner, method in ((ColumnarChunk, "requests"), (AccessOutcomeBatch, "outcomes")):
            patches.append((owner, method, materializing(owner.__dict__[method])))

        kernels = {**KERNEL_SPANS, ShardedCache: "simulation.cluster"}
        for cls, name in kernels.items():
            if "batch_access" not in cls.__dict__:
                continue  # inherits the scalar default: leave detection alone
            patches.append(
                (
                    cls,
                    "batch_access",
                    self.wrap(name, cls.__dict__["batch_access"], self._kernel_counter(name)),
                )
            )
        for cls, name in OBSERVER_SPANS.items():
            for method in OBSERVER_METHODS:
                patches.append((cls, method, self.wrap(name, getattr(cls, method))))
        return patches

    def _kernel_counter(self, name: str) -> Callable[[AccessOutcomeBatch], None]:
        counts = self.counts
        accesses, evictions, bypasses = (
            (name, "accesses"),
            (name, "evictions"),
            (name, "bypasses"),
        )

        def after(batch: AccessOutcomeBatch) -> None:
            counts[accesses] += len(batch)
            counts[evictions] += batch.eviction_count
            counts[bypasses] += int(batch.bypassed.sum())

        return after

    @contextmanager
    def installed(self, run_id: int) -> Iterator[None]:
        """Wrap every traced call for the enclosed block, then restore the
        classes exactly as they were (including attributes that were only
        inherited before)."""
        self.run_id = run_id
        saved: list[tuple[type, str, Any]] = []
        detected = _batch_kernels()
        try:
            for owner, attribute, replacement in self._patches():
                saved.append((owner, attribute, owner.__dict__.get(attribute)))
                setattr(owner, attribute, replacement)
            if _batch_kernels() != detected:
                raise RuntimeError("tracing changed which policies the engine runs as batch kernels")
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                if original is None:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)

    # ------------------------------------------------------------ reporting
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, summed over all spans."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            child_ns[parent] += end - start
        totals: defaultdict[str, int] = defaultdict(int)
        for span_id, name, start, end, _, _ in self.spans:
            totals[name] += end - start - child_ns[span_id]
        return {name: ns / 1e9 for name, ns in totals.items()}

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called *name* (for names that never nest)."""
        return [
            (end - start) / 1e9
            for _, span_name, start, end, _, _ in self.spans
            if span_name == name
        ]

    def write_csv(self, path: Path) -> None:
        """Write every recorded span, one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["run_id", "span_id", "parent_id", "name", "start_ns", "end_ns"])
            for span_id, name, start, end, parent, run_id in self.spans:
                writer.writerow([run_id, span_id, parent, name, start, end])
