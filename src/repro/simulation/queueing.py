"""Open-loop queueing simulation: latency under offered load.

The cost model (:mod:`repro.simulation.costmodel`) prices each request in
isolation — a *closed-loop* view with no contention.  This module adds the
*open-loop* view: requests arrive on their own clock (an
:class:`~repro.workloads.arrivals.ArrivalProcess`), each storage shard is
an FCFS queue in front of ``servers_per_shard`` servers, and a request's
latency is its **sojourn time** — the queueing delay it spends waiting for
a free server plus the service time the cost model already charges.  As
offered load approaches a shard's service capacity, delays blow up: the
saturation knee the ``load`` experiment sweeps.

The simulation is event-driven but needs no event loop: with FCFS service
and arrival-ordered admission, each arrival is resolved by the Lindley
recursion ``start = max(arrival, earliest_free_server)``.  All event
arithmetic runs on an **integer nanosecond** clock: integer addition and
``max`` are exact and associative, so totals never depend on chunk
boundaries, worker counts, or whether the vectorised pass below is taken —
results are bit-identical across processes and ``jobs=`` counts
by construction, not by accumulation-order discipline.

Two accounting identities replace per-event integral bookkeeping: the
fully drained number-in-system integral equals ``sum(sojourn_i)``
exactly, and the integral cut at the last arrival ``T`` (the ``L``
numerator of Little's law) is ``sum(sojourn_i) - sum(max(0, d_i - T))``
over departure times ``d_i`` — so the hot loop only records departures.

``on_batch`` prices each chunk as whole columns — the cost accumulators'
``price_batch``, which walks each shard's seek head over the chunk's device
accesses on HDD — and converts the service times to the integer clock.
Single-server replays, on every device, then run the Lindley recursion
vectorised: with service prefix sums ``S_i`` the recursion unrolls to
``depart_i = S_i + max(busy_0, max_{j<=i}(t_j - S_{j-1}))`` — a cumsum
plus a running maximum, exact in ``int64``.  Multi-server shards admit the
priced column through the scalar queues.  The per-event walk
(``on_chunk``/``on_outcome``: scalar ``price`` and scalar admission) is
the reference and produces the same integers bit for bit.

It is packaged as a :class:`ReplayObserver` (:class:`QueueingObserver`):
the replay loop feeds it the outcome stream, it prices each outcome with
its **own** cost accumulators (one per shard, so seek devices keep one
head per shard exactly like :class:`~repro.simulation.costmodel
.ShardedCostAccumulator`) and never touches the policy or the requests —
attaching it cannot change hit/miss stats or service-time accounting.
Sharded clusters are re-routed with the cluster's own router, matching
:class:`~repro.simulation.observers.ShardStatsObserver`.  Observers of
one replay run share an :class:`arrival tape <_ArrivalTape>`: the engine
feeds every policy identical chunks in order, so the chunk's arrival
timestamps are drawn once and reused by all policies.

Segment merging (``merge``) follows the :class:`~repro.simulation
.observers.CostObserver` convention: the arrival clock continues exactly
(arrival times are absolute functions of the sequence number), but each
segment's queues start idle — the same "fresh run" approximation the cost
observer uses for its seek head.  Whole-stream replays (every sweep cell
runs inside one worker) never merge, so the ``load`` experiment is exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from heapq import heapreplace
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.simulation.costmodel import (
    HISTOGRAM_BUCKET_BOUNDS_US,
    CostModel,
    DeviceProfile,
)
from repro.simulation.cluster import HashRouter
from repro.simulation.observers import ReplayObserver
from repro.workloads.arrivals import ArrivalProcess

if TYPE_CHECKING:  # imported for type annotations only
    from repro.cache.base import AccessOutcome, AccessOutcomeBatch, CachePolicy
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = [
    "QueueingModel",
    "QueueingObserver",
    "QueueingStats",
]

_LAST_BUCKET = len(HISTOGRAM_BUCKET_BOUNDS_US) - 1
#: The shared bucket bounds on the integer nanosecond clock.  Strictly
#: increasing (the bounds grow 1.3x from 500ns), so bucketisation by
#: ``bisect_left`` over integers matches the microsecond convention.
_BOUNDS_NS: tuple[int, ...] = tuple(
    int(bound * 1000.0 + 0.5) for bound in HISTOGRAM_BUCKET_BOUNDS_US
)
_BOUNDS_NS_ARRAY = np.array(_BOUNDS_NS, dtype=np.int64)

def _histogram_percentile(histogram: Sequence[int], count: int, quantile: float) -> float:
    """Bucket-bound quantile, same convention as ``LatencyStats``: the upper
    bound of the bucket the quantile falls in; 0.0 with nothing recorded."""
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    if count == 0:
        return 0.0
    rank = quantile * count
    cumulative = 0
    for index, bucket in enumerate(histogram):
        cumulative += bucket
        if cumulative >= rank and bucket:
            return HISTOGRAM_BUCKET_BOUNDS_US[index]
    return HISTOGRAM_BUCKET_BOUNDS_US[_LAST_BUCKET]


def _fresh_histogram() -> list[int]:
    return [0] * len(HISTOGRAM_BUCKET_BOUNDS_US)


@dataclass
class QueueingStats:
    """Queueing accounting for one simulation run of one policy.

    Times are integer nanoseconds on the arrival clock (0 = stream start);
    every reporting accessor converts to microseconds.  ``servers`` is the
    fleet total (shards x servers per shard).  The two histograms share
    the cost model's bucketisation
    (:data:`~repro.simulation.costmodel.HISTOGRAM_BUCKET_BOUNDS_US`),
    whose leading exact-zero bucket keeps "no queueing" reporting as 0.0.

    The fully drained number-in-system integral is identically
    ``total_sojourn_ns`` (work conservation — every request contributes
    exactly its sojourn to the area under ``N(t)``);
    ``area_at_last_arrival_ns`` is the same integral cut at the last
    arrival, the ``L`` numerator of Little's law over the observed window.
    """

    request_count: int = 0
    servers: int = 1
    total_delay_ns: int = 0
    total_sojourn_ns: int = 0
    total_service_ns: int = 0
    first_arrival_ns: int = 0
    last_arrival_ns: int = 0
    last_departure_ns: int = 0
    area_at_last_arrival_ns: int = 0
    delay_histogram: list[int] = field(default_factory=_fresh_histogram)
    sojourn_histogram: list[int] = field(default_factory=_fresh_histogram)

    # ------------------------------------------------------------- accessors
    @property
    def total_delay_us(self) -> float:
        return self.total_delay_ns / 1000.0

    @property
    def total_sojourn_us(self) -> float:
        return self.total_sojourn_ns / 1000.0

    @property
    def total_service_us(self) -> float:
        return self.total_service_ns / 1000.0

    @property
    def first_arrival_us(self) -> float:
        return self.first_arrival_ns / 1000.0

    @property
    def last_arrival_us(self) -> float:
        return self.last_arrival_ns / 1000.0

    @property
    def last_departure_us(self) -> float:
        return self.last_departure_ns / 1000.0

    @property
    def area_at_last_arrival_us(self) -> float:
        return self.area_at_last_arrival_ns / 1000.0

    @property
    def mean_queue_delay_us(self) -> float:
        if self.request_count == 0:
            return 0.0
        return self.total_delay_ns / self.request_count / 1000.0

    @property
    def mean_sojourn_us(self) -> float:
        if self.request_count == 0:
            return 0.0
        return self.total_sojourn_ns / self.request_count / 1000.0

    @property
    def mean_service_us(self) -> float:
        if self.request_count == 0:
            return 0.0
        return self.total_service_ns / self.request_count / 1000.0

    def delay_percentile(self, quantile: float) -> float:
        return _histogram_percentile(self.delay_histogram, self.request_count, quantile)

    def sojourn_percentile(self, quantile: float) -> float:
        return _histogram_percentile(
            self.sojourn_histogram, self.request_count, quantile
        )

    @property
    def p50_queue_delay_us(self) -> float:
        return self.delay_percentile(0.50)

    @property
    def p99_queue_delay_us(self) -> float:
        return self.delay_percentile(0.99)

    @property
    def p50_sojourn_us(self) -> float:
        return self.sojourn_percentile(0.50)

    @property
    def p99_sojourn_us(self) -> float:
        return self.sojourn_percentile(0.99)

    @property
    def arrival_rate_rps(self) -> float:
        """Measured arrival rate over the observed window (requests/second)."""
        if self.request_count == 0 or self.last_arrival_ns <= 0:
            return 0.0
        return self.request_count / self.last_arrival_ns * 1e9

    @property
    def utilization(self) -> float:
        """Mean fraction of the fleet's servers busy until the last departure."""
        if self.request_count == 0 or self.last_departure_ns <= 0:
            return 0.0
        return self.total_service_ns / (self.servers * self.last_departure_ns)

    @property
    def mean_in_system(self) -> float:
        """Time-average number of requests in the system up to the last
        arrival — the ``L`` of Little's law (``L = lambda W``)."""
        if self.request_count == 0 or self.last_arrival_ns <= 0:
            return 0.0
        return self.area_at_last_arrival_ns / self.last_arrival_ns

    # ------------------------------------------------------------ composition
    def merge(self, other: "QueueingStats") -> "QueueingStats":
        """Aggregate two segments (or shards) into one stats object.

        Counts, sums, histograms and areas add (exactly — everything is an
        integer); the window is the union.  Segment merges inherit the
        idle-at-segment-start convention of the producing observers (see
        the module docstring).
        """
        if self.servers != other.servers:
            raise ValueError(
                f"cannot merge QueueingStats with different server counts "
                f"({self.servers} vs {other.servers})"
            )
        if len(self.delay_histogram) != len(other.delay_histogram):
            raise ValueError(
                "cannot merge QueueingStats with different histogram sizes "
                f"({len(self.delay_histogram)} vs {len(other.delay_histogram)})"
            )
        if self.request_count == 0:
            first_arrival = other.first_arrival_ns
        elif other.request_count == 0:
            first_arrival = self.first_arrival_ns
        else:
            first_arrival = min(self.first_arrival_ns, other.first_arrival_ns)
        return QueueingStats(
            request_count=self.request_count + other.request_count,
            servers=self.servers,
            total_delay_ns=self.total_delay_ns + other.total_delay_ns,
            total_sojourn_ns=self.total_sojourn_ns + other.total_sojourn_ns,
            total_service_ns=self.total_service_ns + other.total_service_ns,
            first_arrival_ns=first_arrival,
            last_arrival_ns=max(self.last_arrival_ns, other.last_arrival_ns),
            last_departure_ns=max(self.last_departure_ns, other.last_departure_ns),
            area_at_last_arrival_ns=(
                self.area_at_last_arrival_ns + other.area_at_last_arrival_ns
            ),
            delay_histogram=[
                a + b for a, b in zip(self.delay_histogram, other.delay_histogram)
            ],
            sojourn_histogram=[
                a + b for a, b in zip(self.sojourn_histogram, other.sojourn_histogram)
            ],
        )

    def report_columns(self) -> dict:
        """The queueing columns every row-level surface emits, next to the
        cost model's service-time columns."""
        return {
            "arrival_rate_rps": self.arrival_rate_rps,
            "mean_queue_delay_us": self.mean_queue_delay_us,
            "p50_queue_delay_us": self.p50_queue_delay_us,
            "p99_queue_delay_us": self.p99_queue_delay_us,
            "p50_sojourn_us": self.p50_sojourn_us,
            "p99_sojourn_us": self.p99_sojourn_us,
            "utilization": self.utilization,
        }

    def as_dict(self) -> dict:
        row = self.report_columns()
        row["requests"] = self.request_count
        row["servers"] = self.servers
        row["mean_sojourn_us"] = self.mean_sojourn_us
        row["mean_service_us"] = self.mean_service_us
        row["last_departure_us"] = self.last_departure_us
        return row


@dataclass(frozen=True)
class QueueingModel:
    """Picklable, hashable configuration of one open-loop queueing run.

    Carries the arrival process plus the cost-model *parameters* (not a
    :class:`CostModel` instance — those are mutable), so sweep cells can
    hash and ship it to worker processes exactly like a
    :class:`~repro.trace.cache.TraceSpec`.  Each shard of a sharded
    cluster gets ``servers_per_shard`` servers and its own device (and,
    for seek devices, its own head); an unsharded policy is one shard.
    """

    arrivals: ArrivalProcess
    device: str | DeviceProfile = "ssd"
    write_policy: str = "write-through"
    page_span: int | None = None
    servers_per_shard: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.arrivals, ArrivalProcess):
            raise TypeError(
                f"arrivals must be an ArrivalProcess, got {type(self.arrivals).__name__}"
            )
        servers = self.servers_per_shard
        if isinstance(servers, bool) or not isinstance(servers, int):
            raise TypeError(
                f"servers_per_shard must be an int, got {type(servers).__name__}"
            )
        if servers < 1:
            raise ValueError(f"servers_per_shard must be >= 1, got {servers}")
        # Building the pricer validates the device, the write policy and the
        # page span here, not when an observer is built inside a worker.
        self.cost_model()

    def cost_model(self) -> CostModel:
        """A fresh service-time pricer with this model's parameters."""
        return CostModel(
            device=self.device,
            write_policy=self.write_policy,
            page_span=self.page_span,
        )

    def scaled(self, factor: float) -> "QueueingModel":
        """The same model with the offered load dialed by *factor*."""
        return replace(self, arrivals=self.arrivals.scaled(factor))

    def tape(self, start_seq: int = 0) -> "_ArrivalTape":
        """An arrival tape all observers of one replay run should share."""
        return _ArrivalTape(self.arrivals, start_seq)

    def observer_for(
        self,
        policy: "CachePolicy",
        start_seq: int = 0,
        tape: "_ArrivalTape | None" = None,
    ) -> "QueueingObserver":
        return QueueingObserver(self, policy, start_seq, tape=tape)


def _mix_column(pages: Any) -> Any:
    """Murmur-mix a ``uint64`` page column (exactly the scalar ``_mix_page``
    pipeline of :class:`~repro.simulation.cluster.HashRouter`, wrapping)."""
    pages = (pages ^ (pages >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    pages = (pages ^ (pages >> np.uint64(33))) * np.uint64(0xC4CEB9FE1A85EC53)
    return pages ^ (pages >> np.uint64(33))


class _ArrivalTape:
    """Per-run cache of each chunk's arrival column.

    The replay engine feeds every policy the same chunks in sequence, so
    all :class:`QueueingObserver` instances of one run share one arrival
    clock: the first observer to see a chunk draws its arrival timestamps
    on the integer nanosecond clock, and the rest reuse them.
    Sequence-indexed arrival processes make the sharing exact; observers
    created without an explicit tape get a private one and behave
    identically.
    """

    __slots__ = ("_times", "_next_seq", "_chunk_seq", "_arrivals_ns", "_mixed_pages")

    def __init__(self, arrivals: ArrivalProcess, start_seq: int = 0):
        self._times = arrivals.times(start_seq)
        self._next_seq = start_seq
        self._chunk_seq = -1
        self._arrivals_ns: Any = None
        self._mixed_pages: Any = None

    def arrivals_ns(self, seq_base: int, n: int) -> Any:
        """The ``int64`` arrival column of the chunk ``[seq_base, seq_base+n)``."""
        if seq_base == self._chunk_seq and len(self._arrivals_ns) == n:
            return self._arrivals_ns
        if seq_base != self._next_seq:
            raise ValueError(
                "observers sharing an arrival tape must consume identical "
                f"chunks in order (expected seq {self._next_seq}, got {seq_base})"
            )
        # Elementwise multiply/add then truncate: per value exactly
        # ``int(t * 1000.0 + 0.5)``, the clock's one microsecond conversion.
        times_us = np.fromiter(self._times, np.float64, n)
        self._arrivals_ns = (times_us * 1000.0 + 0.5).astype(np.int64)
        self._mixed_pages = None
        self._chunk_seq = seq_base
        self._next_seq = seq_base + n
        return self._arrivals_ns

    def mixed_pages(self, chunk: "ColumnarChunk") -> Any:
        """The murmur-mixed page ids of *chunk* (``uint64``).

        :class:`~repro.simulation.cluster.HashRouter` routes via
        ``mix(page) % shards``; the mix is shard-count-independent, so one
        shared column serves every hash-routed cluster in the run.  The
        wrapping uint64 pipeline is exact — identical to the scalar
        ``_mix_page``.  The tape is first moved to *chunk* (drawing its
        arrivals if no observer has yet), so the cached column always
        belongs to the chunk asked about."""
        self.arrivals_ns(chunk.seq_base, len(chunk))
        if self._mixed_pages is None:
            self._mixed_pages = _mix_column(chunk.page.astype(np.uint64))
        return self._mixed_pages


def _lindley_departures(arrivals_ns: Any, service_ns: Any) -> Any:
    """Departure times of one single-server FCFS queue starting idle: the
    unrolled Lindley recursion of the module docstring (``busy_0 = 0``)."""
    prefix = np.cumsum(service_ns)
    running = np.maximum.accumulate(arrivals_ns - prefix + service_ns)
    return prefix + np.maximum(running, 0)


class _SingleServerQueue:
    """One FCFS shard with a single server: scalar Lindley recursion."""

    __slots__ = ("busy_ns",)
    servers = 1

    def __init__(self):
        self.busy_ns = 0

    def admit(self, t_ns: int, service_ns: int) -> int:
        """Admit an arrival at *t_ns* needing *service_ns*; return its
        queueing delay (ns)."""
        busy = self.busy_ns
        start = busy if busy > t_ns else t_ns
        self.busy_ns = start + service_ns
        return start - t_ns

    def last_departure_ns(self) -> int:
        return self.busy_ns


class _MultiServerQueue:
    """One FCFS shard with ``c`` servers: min-heap of busy-until times.

    Arrivals are assigned to the earliest-free server in arrival order
    (G/G/c FCFS).  Always the scalar walk: multi-server recursions do not
    unroll into prefix scans.
    """

    __slots__ = ("servers", "busy")

    def __init__(self, servers: int):
        self.servers = servers
        self.busy = [0] * servers

    def admit(self, t_ns: int, service_ns: int) -> int:
        earliest = self.busy[0]
        start = earliest if earliest > t_ns else t_ns
        heapreplace(self.busy, start + service_ns)
        return start - t_ns

    def last_departure_ns(self) -> int:
        return max(self.busy)


class QueueingObserver(ReplayObserver):
    """Feeds the outcome stream through per-shard FCFS queues.

    Per outcome, in stream order: read the arrival timestamp from the
    (possibly shared) arrival tape, price the service time with the routed
    shard's own cost accumulator, resolve the Lindley recursion against
    that shard's servers, and record queueing delay + sojourn into the
    shared-bucket histograms.  Never mutates requests, outcomes or the
    policy.

    The reference feed (:meth:`on_chunk`) prices and admits event by
    event.  :meth:`on_batch` prices each chunk as one column (the
    accumulators' ``price_batch``, seek head walk included) and routes it
    with ``route_batch``; single-server observers bank the service and
    shard columns for one vectorised Lindley pass at finalize time, and
    multi-server ones admit the priced column through the scalar queues.
    Both feeds produce identical integers.  One single-server observer is
    fed one way or the other, never both.
    """

    __slots__ = (
        "_model",
        "_route",
        "_router",
        "_shard_count",
        "_tape",
        "_queues",
        "_pricers",
        "_seek_priced",
        "_vector",
        "_arrival_chunks",
        "_service_chunks",
        "_shard_chunks",
        "_departs",
        "_count",
        "_total_delay_ns",
        "_total_sojourn_ns",
        "_total_service_ns",
        "_first_ns",
        "_last_ns",
        "_delay_hist",
        "_sojourn_hist",
        "_merged",
        "_finalized",
    )

    def __init__(
        self,
        model: QueueingModel,
        policy: "CachePolicy",
        start_seq: int = 0,
        tape: "_ArrivalTape | None" = None,
    ):
        self._model = model
        cost_model = model.cost_model()
        router = getattr(policy, "router", None)
        if (
            router is not None
            and hasattr(router, "route")
            and getattr(policy, "shard_count", 0) >= 1
        ):
            self._shard_count = policy.shard_count
            self._route = router.route
            self._router = router
        else:
            self._shard_count = 1
            self._route = None
            self._router = None
        shard_count = self._shard_count
        servers = model.servers_per_shard
        # One accumulator (seek head) per shard; position-independent
        # devices have no head, so their pricers are interchangeable.
        self._pricers = [cost_model.accumulator() for _ in range(shard_count)]
        self._seek_priced = cost_model.profile.position_dependent
        #: Whether on_batch banks columns for the vectorised pass.
        self._vector = servers == 1
        if servers == 1:
            self._queues = [_SingleServerQueue() for _ in range(shard_count)]
        else:
            self._queues = [_MultiServerQueue(servers) for _ in range(shard_count)]
        self._delay_hist = _fresh_histogram()
        self._sojourn_hist = _fresh_histogram()
        self._arrival_chunks: list = []
        self._service_chunks: list = []
        self._shard_chunks: list = []
        self._tape = tape if tape is not None else _ArrivalTape(model.arrivals, start_seq)
        self._departs: list = []
        self._count = 0
        self._total_delay_ns = 0
        self._total_sojourn_ns = 0
        self._total_service_ns = 0
        self._first_ns: int | None = None
        self._last_ns = 0
        self._merged: list[QueueingObserver] = []
        self._finalized: QueueingStats | None = None

    def on_outcome(self, request: "IORequest", seq: int, outcome: "AccessOutcome") -> None:
        self.on_chunk((request,), seq, (outcome,))

    def on_chunk(
        self,
        requests: Sequence["IORequest"],
        seq_base: int,
        outcomes: Sequence["AccessOutcome"],
    ) -> None:
        """The reference feed: route and price each event on its own."""
        if not requests:
            return
        route = self._route
        if route is None:
            shards = [0] * len(requests)
        else:
            shards = [route(request) for request in requests]
        pricers = self._pricers
        service_ns = [
            int(pricers[shard].price(request, outcome.hit) * 1000.0 + 0.5)
            for request, outcome, shard in zip(requests, outcomes, shards)
        ]
        self._admit(self._tape.arrivals_ns(seq_base, len(requests)), service_ns, shards)

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        n = len(chunk)
        if not n:
            return
        if self._route is None:
            shard_ids = None
        elif type(self._router) is HashRouter:
            # mix(page) % shards on the tape's shared mixed pages; uint64
            # modulo matches the scalar route() bit for bit.
            mixed = self._tape.mixed_pages(chunk)
            shard_ids = (mixed % np.uint64(self._shard_count)).astype(np.int64)
        else:
            shard_ids = self._router.route_batch(chunk)
        service_ns = self._service_column(chunk, batch.hit, shard_ids)
        arrivals_ns = self._tape.arrivals_ns(chunk.seq_base, n)
        if not self._vector:
            shards = [0] * n if shard_ids is None else shard_ids.tolist()
            self._admit(arrivals_ns, service_ns.tolist(), shards)
            return
        # The integer Lindley recursion is chunk-boundary-free, so nothing
        # per-chunk depends on queue state: bank the columns (the arrival
        # column is a shared reference to the tape's array) and run the
        # recursion, totals and histograms once over the whole series in
        # :meth:`_finalize_own`.
        if self._first_ns is None:
            self._first_ns = int(arrivals_ns[0])
        self._arrival_chunks.append(arrivals_ns)
        self._service_chunks.append(service_ns)
        if shard_ids is not None:
            self._shard_chunks.append(shard_ids)
        self._count += n
        self._last_ns = int(arrivals_ns[-1])

    # ------------------------------------------------------------ chunk paths
    def _service_column(self, chunk: "ColumnarChunk", hit: Any, shard_ids: Any) -> Any:
        """The chunk's ``int64`` service times (ns), priced as columns by
        the routed shards' accumulators — per value exactly
        ``int(price(request, hit) * 1000.0 + 0.5)``."""
        page = chunk.page
        write = chunk.write
        if shard_ids is None or not self._seek_priced:
            service_us = self._pricers[0].price_batch(page, write, hit)
        else:
            service_us = np.empty(len(chunk), np.float64)
            for shard, pricer in enumerate(self._pricers):
                mask = shard_ids == shard
                service_us[mask] = pricer.price_batch(page[mask], write[mask], hit[mask])
        return (service_us * 1000.0 + 0.5).astype(np.int64)

    def _admit(
        self,
        arrivals: Any,
        service_ns: Sequence[int],
        shards: Sequence[int],
    ) -> None:
        """Admit one priced chunk through the scalar queues, event by event
        (the reference for the vector pass: same integers)."""
        if self._first_ns is None:
            self._first_ns = int(arrivals[0])
        self._count += len(service_ns)
        self._last_ns = int(arrivals[-1])
        queues = self._queues
        bounds = _BOUNDS_NS
        last_bucket = _LAST_BUCKET
        bisect = bisect_left
        delay_hist = self._delay_hist
        sojourn_hist = self._sojourn_hist
        departs_append = self._departs.append
        total_delay = 0
        total_sojourn = 0
        total_service = 0
        for t_ns, service, shard in zip(arrivals.tolist(), service_ns, shards):
            delay = queues[shard].admit(t_ns, service)
            sojourn = delay + service
            departs_append(t_ns + sojourn)
            total_delay += delay
            total_sojourn += sojourn
            total_service += service
            index = bisect(bounds, delay)
            delay_hist[index if index < last_bucket else last_bucket] += 1
            index = bisect(bounds, sojourn)
            sojourn_hist[index if index < last_bucket else last_bucket] += 1
        self._total_delay_ns += total_delay
        self._total_sojourn_ns += total_sojourn
        self._total_service_ns += total_service

    # ------------------------------------------------------------ composition
    def merge(self, other: "QueueingObserver") -> None:
        if other._model != self._model:
            raise ValueError("cannot merge QueueingObservers of different models")
        self._merged.append(other)

    def _replay_vector(self) -> tuple[Any, Any, Any, Any]:
        """The banked chunks through the int64 Lindley recursion, whole.

        Returns ``(delay, sojourn, depart, service)`` arrays over the full
        segment in stream order; each shard's recursion runs over its own
        sub-stream.  The banks are consumed: :meth:`_finalize_own` caches
        its result, so they are never read again.
        """
        arrivals = np.concatenate(self._arrival_chunks)
        service = np.concatenate(self._service_chunks)
        self._arrival_chunks.clear()
        self._service_chunks.clear()
        if self._route is None:
            depart = _lindley_departures(arrivals, service)
        else:
            shard_ids = np.concatenate(self._shard_chunks)
            self._shard_chunks.clear()
            depart = np.empty_like(arrivals)
            for shard in range(self._shard_count):
                mask = shard_ids == shard
                if mask.any():
                    depart[mask] = _lindley_departures(arrivals[mask], service[mask])
        sojourn = depart - arrivals
        return sojourn - service, sojourn, depart, service

    def _finalize_own(self) -> QueueingStats:
        """Fold this segment into stats via the two accounting identities
        (cached so finalize stays repeatable)."""
        if self._finalized is not None:
            return self._finalized
        delay_hist = self._delay_hist
        sojourn_hist = self._sojourn_hist
        if self._count:
            # Departures after the last arrival T contribute only [t_i, T]
            # to the N(t) integral cut at T: subtract their overhang from
            # the total-sojourn identity.
            last_arrival = self._last_ns
            if self._arrival_chunks:
                if self._departs:
                    raise ValueError(
                        "QueueingObserver was fed through both on_chunk and "
                        "on_batch; one replay must use one feed"
                    )
                delay, sojourn, departs, service = self._replay_vector()
                # Each single-server shard departs in arrival order, so the
                # maximum is the last shard-local departure.
                last_departure = int(departs.max())
                self._total_delay_ns = int(delay.sum())
                self._total_sojourn_ns = int(sojourn.sum())
                self._total_service_ns = int(service.sum())
                overhang = int((departs[departs > last_arrival] - last_arrival).sum())
                bounds = _BOUNDS_NS_ARRAY
                indexes = np.minimum(
                    np.searchsorted(bounds, delay, side="left"), _LAST_BUCKET
                )
                delay_hist = np.bincount(indexes, minlength=len(_BOUNDS_NS)).tolist()
                indexes = np.minimum(
                    np.searchsorted(bounds, sojourn, side="left"), _LAST_BUCKET
                )
                sojourn_hist = np.bincount(indexes, minlength=len(_BOUNDS_NS)).tolist()
            else:
                overhang = sum(
                    depart - last_arrival
                    for depart in self._departs
                    if depart > last_arrival
                )
                last_departure = max(queue.last_departure_ns() for queue in self._queues)
            area_at_last_arrival = self._total_sojourn_ns - overhang
        else:
            area_at_last_arrival = 0
            last_departure = 0
        self._finalized = QueueingStats(
            request_count=self._count,
            servers=self._shard_count * self._model.servers_per_shard,
            total_delay_ns=self._total_delay_ns,
            total_sojourn_ns=self._total_sojourn_ns,
            total_service_ns=self._total_service_ns,
            first_arrival_ns=self._first_ns if self._first_ns is not None else 0,
            last_arrival_ns=self._last_ns,
            last_departure_ns=last_departure,
            area_at_last_arrival_ns=area_at_last_arrival,
            delay_histogram=[int(count) for count in delay_hist],
            sojourn_histogram=[int(count) for count in sojourn_hist],
        )
        return self._finalized

    def finalize(self) -> QueueingStats:
        stats = self._finalize_own()
        for observer in self._merged:
            stats = stats.merge(observer._finalize_own())
        return stats
