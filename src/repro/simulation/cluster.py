"""Sharded storage-server cluster simulation.

The paper evaluates one storage server shared by several DBMS clients
(Section 6.4); a production deployment serves the same traffic from a
*fleet* of cache servers with the page space partitioned across them.  This
module models that fleet as a single composite policy:

* :class:`ShardedCache` implements the :class:`~repro.cache.base.CachePolicy`
  interface by routing each request to one of S independent per-shard policy
  instances, so a cluster composes transparently with the existing engine
  (:class:`~repro.simulation.engine.MultiPolicySimulator`), the sweep
  drivers, and ``jobs=`` parallelism — a cluster is just another policy.
* Routers (:class:`HashRouter`, :class:`PageRangeRouter`,
  :class:`ClientAffinityRouter`) decide which shard owns a request.  All
  routing is a pure function of the request, so replay is deterministic:
  the same stream produces the same per-shard sub-streams in every process
  and at every ``jobs=`` count.

Determinism guarantees:

* ``shards=1`` routes every request to the single shard, which therefore
  sees exactly the request/sequence stream the unsharded policy would see —
  results are bit-identical to the wrapped policy.
* Shard capacities come from
  :func:`~repro.simulation.multiclient.partition_capacity`, so the cluster's
  total capacity always equals the unified cache it is compared against
  (generalizing the paper's Figure 11 static partitioning).

The cluster is registered in the policy registry as ``"SHARDED"``; sweep
cells describe it with plain picklable kwargs::

    PolicySpec(label="LRU x4", name="SHARDED", capacity=3_600,
               kwargs={"policy": "LRU", "shards": 4, "router": "hash"})
"""

from __future__ import annotations

import abc
import copy
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

import numpy as np

from repro.cache.base import AccessOutcome, AccessOutcomeBatch, CachePolicy
from repro.cache.opt import OPTPolicy
from repro.simulation.multiclient import partition_capacity

if TYPE_CHECKING:  # imported for type annotations only
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = [
    "ShardRouter",
    "HashRouter",
    "PageRangeRouter",
    "ClientAffinityRouter",
    "ROUTER_NAMES",
    "make_router",
    "ShardedCache",
]


def _validate_shards(shards: int) -> int:
    if not isinstance(shards, int):
        raise TypeError(f"shards must be an int, got {type(shards).__name__}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return shards


class ShardRouter(abc.ABC):
    """Maps each request to the shard that owns it.

    Routing must be a pure function of the request (never of arrival order
    or any mutable replay state), so that the same stream shards identically
    in every worker process and at every ``jobs=`` count.
    """

    #: Short name used by :func:`make_router` and in experiment output.
    name: str = "base"

    def __init__(self, shards: int):
        self.shards = _validate_shards(shards)

    @abc.abstractmethod
    def route(self, request: IORequest) -> int:
        """Return the shard index in ``range(self.shards)`` for *request*."""

    def route_batch(self, chunk: "ColumnarChunk") -> Any:
        """Vector route: one shard index per request of *chunk* (int64).

        Must agree element-for-element with :meth:`route` applied to the
        chunk's requests in order.  The default implementation *is* that
        scalar loop; subclasses override it where the routing function
        vectorises.
        """
        route = self.route
        return np.fromiter(
            (route(request) for request in chunk.requests()),
            np.int64,
            len(chunk),
        )

    def reset(self) -> None:
        """Drop any per-stream routing state (for stateless routers: no-op).

        :meth:`ShardedCache.reset` calls this so a reset cluster routes
        exactly like a freshly built one.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(shards={self.shards})"


def _mix_page(page: int) -> int:
    """Deterministic 64-bit integer mix (murmur3 fmix64 finalizer).

    Plain ``page % shards`` would alias the strided access patterns of the
    synthetic workloads onto single shards; the mix spreads any page-id
    structure uniformly.  Pure arithmetic — stable across processes and
    Python versions (unlike ``hash`` for strings).
    """
    page &= 0xFFFFFFFFFFFFFFFF
    page = ((page ^ (page >> 33)) * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    page = ((page ^ (page >> 33)) * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    return page ^ (page >> 33)


class HashRouter(ShardRouter):
    """Uniform page-hash routing: shard = mix(page) mod S."""

    name = "hash"

    def route(self, request: IORequest) -> int:
        return _mix_page(request.page) % self.shards

    def route_batch(self, chunk: "ColumnarChunk") -> Any:
        # The wrapping uint64 pipeline is exact — identical to the scalar
        # _mix_page — so vector and scalar routing always agree.
        pages = chunk.page.astype(np.uint64)
        pages ^= pages >> np.uint64(33)
        pages *= np.uint64(0xFF51AFD7ED558CCD)
        pages ^= pages >> np.uint64(33)
        pages *= np.uint64(0xC4CEB9FE1A85EC53)
        pages ^= pages >> np.uint64(33)
        return (pages % np.uint64(self.shards)).astype(np.int64)


class PageRangeRouter(ShardRouter):
    """Contiguous page-range routing: shard i owns pages [i*span/S, (i+1)*span/S).

    ``span`` is the total page-id space (pages 0..span-1); ids outside it
    clamp to the edge shards so a mis-estimated span degrades to imbalance
    instead of an error.  Range routing preserves spatial locality per shard
    — and concentrates skewed workloads, which is exactly the imbalance the
    cluster experiment measures.
    """

    name = "range"

    def __init__(self, shards: int, span: int):
        super().__init__(shards)
        if span < 1:
            raise ValueError(f"span must be >= 1, got {span}")
        self.span = span

    def route(self, request: IORequest) -> int:
        shard = request.page * self.shards // self.span
        if shard < 0:
            return 0
        if shard >= self.shards:
            return self.shards - 1
        return shard

    def route_batch(self, chunk: "ColumnarChunk") -> Any:
        page = chunk.page
        if len(page) and int(page.max()) > (2**63 - 1) // self.shards:
            # page * shards would overflow an int64 lane; the scalar loop
            # carries arbitrary-precision Python ints.
            return ShardRouter.route_batch(self, chunk)
        # numpy's int64 floor division rounds toward -inf exactly like
        # Python's //, so clamping matches the scalar branches.
        return np.clip(page * self.shards // self.span, 0, self.shards - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageRangeRouter(shards={self.shards}, span={self.span})"


class ClientAffinityRouter(ShardRouter):
    """Route every request of a client to one shard.

    Clients are assigned shards round-robin in order of first appearance, so
    with as many shards as clients every client gets a private cache — the
    paper's Figure 11 static partitioning rebuilt from cluster parts; with
    fewer shards clients share, with more some shards idle, and both show up
    in the load-imbalance statistic.  First-appearance order is a property
    of the stream (not of scheduling), so routing is deterministic in every
    process and at every ``jobs=`` count.
    """

    name = "client"

    def __init__(self, shards: int):
        super().__init__(shards)
        self._assignments: dict[str, int] = {}

    def route(self, request: IORequest) -> int:
        client_id = request.client_id
        shard = self._assignments.get(client_id)
        if shard is None:
            shard = len(self._assignments) % self.shards
            self._assignments[client_id] = shard
        return shard

    def route_batch(self, chunk: "ColumnarChunk") -> Any:
        # Same first-appearance round-robin as route(), driven from the
        # client-index column (no request materialisation).
        assignments = self._assignments
        clients = chunk.clients
        shards = self.shards
        out = np.empty(len(chunk), np.int64)
        for i, cidx in enumerate(chunk.client_idx.tolist()):
            client_id = clients[cidx]
            shard = assignments.get(client_id)
            if shard is None:
                shard = len(assignments) % shards
                assignments[client_id] = shard
            out[i] = shard
        return out

    def reset(self) -> None:
        self._assignments.clear()


#: Router names accepted by :func:`make_router` (and the cluster experiment).
ROUTER_NAMES: tuple[str, ...] = ("hash", "range", "client")


def make_router(
    router: str | ShardRouter, shards: int, page_span: int | None = None
) -> ShardRouter:
    """Build a router from a name (``"hash"``, ``"range"``, ``"client"``).

    A ready-made :class:`ShardRouter` instance passes through unchanged
    (its shard count must match).  ``page_span`` is required by ``"range"``.
    """
    if isinstance(router, ShardRouter):
        if router.shards != shards:
            raise ValueError(
                f"router is built for {router.shards} shards, cluster has {shards}"
            )
        return router
    if router == "hash":
        return HashRouter(shards)
    if router == "client":
        return ClientAffinityRouter(shards)
    if router == "range":
        if page_span is None:
            raise ValueError("PageRangeRouter needs page_span (total page-id space)")
        return PageRangeRouter(shards, span=page_span)
    raise ValueError(f"unknown router {router!r}; available: {ROUTER_NAMES}")


class ShardedCache(CachePolicy):
    """S independent per-shard policies behind one :class:`CachePolicy` facade.

    Each request is routed to exactly one shard, which processes it with the
    request's original (global) sequence number; the other shards never see
    it.  The facade returns the routed shard's :class:`AccessOutcome`
    unchanged, so one outcome stream describes the whole cluster; the
    per-shard breakdown surfaced as ``per_shard`` on results is rebuilt by
    the replay loop's shard observer (:class:`~repro.simulation.observers
    .ShardStatsObserver`), which routes each outcome with the cluster's own
    router.

    The total ``capacity`` is split across shards with
    :func:`~repro.simulation.multiclient.partition_capacity` (any remainder
    goes to the first shards), so a cluster always competes against a
    unified cache of the same total size.

    Offline support: a cluster of OPT shards is itself offline.  The shared
    future-read index is global (page -> read positions in global sequence
    numbers), so every shard adopts the same index and consults only the
    pages routed to it.
    """

    hint_aware = False  # refined per instance from the wrapped policy

    def __init__(
        self,
        capacity: int,
        policy: str = "LRU",
        shards: int = 1,
        router: str | ShardRouter = "hash",
        policy_kwargs: Mapping[str, object] | None = None,
        page_span: int | None = None,
    ):
        from repro.cache.registry import create_policy

        super().__init__(capacity)
        shards = _validate_shards(shards)
        self._router = make_router(router, shards, page_span=page_span)
        kwargs = dict(policy_kwargs or {})
        self._shards: list[CachePolicy] = [
            create_policy(policy, capacity=size, **kwargs)
            for size in partition_capacity(capacity, shards)
        ]
        inner = self._shards[0]
        self.name = f"{inner.name}x{shards}[{self._router.name}]"
        self.hint_aware = inner.hint_aware

    # ------------------------------------------------------------------ API
    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def shards(self) -> list[CachePolicy]:
        """The per-shard policy instances, in shard order."""
        return list(self._shards)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def offline(self) -> bool:  # type: ignore[override]
        return any(shard.offline for shard in self._shards)

    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        return self._shards[self._router.route(request)].access(request, seq)

    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        """Batch kernel: route the whole chunk, then batch per shard.

        Each shard receives its requests as a gathered sub-chunk in original
        order, carrying the original (global) sequence numbers — exactly the
        sub-stream the scalar loop would feed it — and the per-shard batches
        are scattered back into request order.  When any shard policy lacks
        a batch fast path the whole cluster falls back to the scalar-loop
        default (per-shard gathering would only add overhead).
        """
        base = CachePolicy.batch_access
        if any(type(shard).batch_access is base for shard in self._shards):
            return base(self, chunk)
        shard_ids = self._router.route_batch(chunk)
        n = len(chunk)
        hit = np.zeros(n, np.bool_)
        admitted = np.zeros(n, np.bool_)
        bypassed = np.zeros(n, np.bool_)
        counts = np.zeros(n, np.int64)
        evicting: list[tuple[Any, AccessOutcomeBatch]] = []
        for s, shard in enumerate(self._shards):
            idx = np.flatnonzero(shard_ids == s)
            if not idx.size:
                continue
            batch = shard.batch_access(chunk.take(idx))
            hit[idx] = batch.hit
            admitted[idx] = batch.admitted
            bypassed[idx] = batch.bypassed
            counts[idx] = np.diff(batch.evicted_offsets)
            if batch.eviction_count:
                evicting.append((idx, batch))
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        pages = np.zeros(int(offsets[-1]), np.int64)
        for idx, batch in evicting:
            sub_offsets = batch.evicted_offsets
            sub_counts = np.diff(sub_offsets)
            for local in np.flatnonzero(sub_counts).tolist():
                request_i = int(idx[local])
                start = int(offsets[request_i])
                sub_start = int(sub_offsets[local])
                span = int(sub_counts[local])
                pages[start : start + span] = batch.evicted_pages[
                    sub_start : sub_start + span
                ]
        return AccessOutcomeBatch(hit, admitted, bypassed, pages, offsets)

    def contains(self, page: int) -> bool:
        return any(shard.contains(page) for shard in self._shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def cached_pages(self) -> Iterator[int]:
        for shard in self._shards:
            yield from shard.cached_pages()

    def reset(self) -> None:
        super().reset()
        for shard in self._shards:
            shard.reset()
        self._router.reset()

    # --------------------------------------------------------- snapshotting
    def snapshot(self) -> Mapping[str, object]:
        """Delegate to the shards (each applies its own snapshot policy,
        e.g. OPT shards carry the shared future-read index by reference)."""
        return {
            "shards": tuple(shard.snapshot() for shard in self._shards),
            "router": copy.deepcopy(self._router),
        }

    def restore(self, state: Mapping[str, object]) -> None:
        for shard, shard_state in zip(self._shards, state["shards"]):
            shard.restore(shard_state)
        self._router = copy.deepcopy(state["router"])

    # ------------------------------------------------------- offline support
    def prepare(self, requests: Sequence[IORequest], start_seq: int = 0) -> None:
        """Hand offline shards the full stream (global sequence numbering).

        Each shard only ever looks up the pages routed to it, so sharing the
        full-stream index is equivalent to indexing its sub-stream.  Shards
        supporting ``adopt_read_index`` (OPT) share **one** index built in a
        single pass; only offline shards without that hook pay their own
        ``prepare`` pass over the stream.
        """
        shared_index = None
        for shard in self._shards:
            if not shard.offline:
                continue
            if hasattr(shard, "adopt_read_index"):
                if shared_index is None:
                    shared_index = self.build_read_index(requests, start_seq)
                shard.adopt_read_index(shared_index)
            else:
                shard.prepare(requests, start_seq)

    #: The global future-read index builder.  Deliberately the *same
    #: function object* as ``OPTPolicy.build_read_index`` so the engine's
    #: shared-index cache (keyed by builder identity) hands one index to a
    #: unified OPT and every OPT-backed cluster in the same pass.
    build_read_index = staticmethod(OPTPolicy.build_read_index)

    def adopt_read_index(self, read_positions: dict[int, list[int]]) -> None:
        """Forward a pre-built future-read index to the offline shards."""
        for shard in self._shards:
            if not shard.offline:
                continue
            adopt = getattr(shard, "adopt_read_index", None)
            if adopt is None:
                raise NotImplementedError(
                    f"offline shard policy {shard.name!r} does not support "
                    "adopt_read_index; replay it through prepare() instead"
                )
            adopt(read_positions)
