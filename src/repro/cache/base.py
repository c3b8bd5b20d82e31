"""Common interface for storage-server cache replacement policies.

Every policy in this package (and :class:`repro.core.clic.CLICPolicy`)
implements :class:`CachePolicy`.  The trace-driven replay loop feeds a policy
one :class:`~repro.simulation.request.IORequest` at a time, in arrival order,
together with the request's server-assigned sequence number; the policy
returns a structured :class:`AccessOutcome` describing what happened
(hit/miss, admission, bypass, evicted pages).

Policies are **pure kernels**: they own only their replacement state (which
pages are cached, in what order/priority), never any accounting.  All
statistics — including the paper's *read hit ratio* metric — are derived
from the outcome events by replay observers
(:mod:`repro.simulation.observers`); :class:`CacheStats` is the accounting
container those observers produce.
"""

from __future__ import annotations

import abc
import copy
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Mapping, Sequence

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = [
    "AccessOutcome",
    "AccessOutcomeBatch",
    "HIT",
    "MISS_ADMIT",
    "MISS_BYPASS",
    "CacheStats",
    "CachePolicy",
    "validate_capacity",
]


def validate_capacity(capacity: int) -> int:
    """Validate a cache capacity expressed in pages."""
    if not isinstance(capacity, int):
        raise TypeError(f"capacity must be an int, got {type(capacity).__name__}")
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    return capacity


class AccessOutcome:
    """What one :meth:`CachePolicy.access` call did, as a value object.

    The outcome is the policy's *only* output channel: replay observers fold
    outcome streams into statistics, so one counting rule holds for every
    policy.  The fields mirror the accounting events the old in-policy
    bookkeeping mutated:

    * ``hit`` — the requested page was cached when the request arrived;
    * ``admitted`` — the page was inserted into the cache by this access;
    * ``bypassed`` — the policy consciously declined to admit a missed page;
    * ``evicted`` — pages removed from the cache by this access, in eviction
      order.  Usually empty or one page; an eviction may accompany a *hit*
      (OPT drops pages it proves dead on their final read).

    Hot-path note: the three common cases are interned as module singletons
    (:data:`HIT`, :data:`MISS_ADMIT`, :data:`MISS_BYPASS`) so the replay
    loop allocates only for evicting outcomes.
    """

    __slots__ = ("hit", "admitted", "bypassed", "evicted")

    def __init__(
        self,
        hit: bool,
        admitted: bool = False,
        bypassed: bool = False,
        evicted: tuple[int, ...] = (),
    ):
        self.hit = hit
        self.admitted = admitted
        self.bypassed = bypassed
        self.evicted = evicted

    def __bool__(self) -> bool:
        """Truthiness is the hit flag (``if policy.access(...)`` reads as
        "if it hit", matching the historical bool return)."""
        return self.hit

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessOutcome):
            return NotImplemented
        return (
            self.hit == other.hit
            and self.admitted == other.admitted
            and self.bypassed == other.bypassed
            and self.evicted == other.evicted
        )

    def __hash__(self) -> int:
        return hash((self.hit, self.admitted, self.bypassed, self.evicted))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = [f"hit={self.hit}"]
        if self.admitted:
            flags.append("admitted")
        if self.bypassed:
            flags.append("bypassed")
        if self.evicted:
            flags.append(f"evicted={self.evicted}")
        return f"AccessOutcome({', '.join(flags)})"


#: The requested page was cached; nothing else changed.
HIT = AccessOutcome(True)
#: Miss, page admitted, nothing evicted (the cache had room).
MISS_ADMIT = AccessOutcome(False, admitted=True)
#: Miss, page deliberately not admitted.
MISS_BYPASS = AccessOutcome(False, bypassed=True)


class AccessOutcomeBatch:
    """One :class:`AccessOutcome` per request of a chunk, as columns.

    The batch-kernel analogue of :class:`AccessOutcome`: ``hit``,
    ``admitted`` and ``bypassed`` are numpy bool arrays (one lane per
    request), and evictions are stored CSR-style — ``evicted_pages`` holds
    every evicted page in request order, ``evicted_offsets`` (length
    ``n + 1``) delimits request *i*'s evictions as
    ``evicted_pages[evicted_offsets[i]:evicted_offsets[i + 1]]``.

    :meth:`outcomes` reconstructs the exact per-request outcome objects
    (memoised), so scalar consumers see the same event stream either way;
    :meth:`from_outcomes` lifts a scalar outcome list into a batch (the
    default :meth:`CachePolicy.batch_access` fallback uses it).
    """

    __slots__ = ("hit", "admitted", "bypassed", "evicted_pages", "evicted_offsets", "_outcomes")

    def __init__(
        self,
        hit: Any,
        admitted: Any,
        bypassed: Any,
        evicted_pages: Any,
        evicted_offsets: Any,
    ):
        self.hit = hit
        self.admitted = admitted
        self.bypassed = bypassed
        self.evicted_pages = evicted_pages
        self.evicted_offsets = evicted_offsets
        self._outcomes: list[AccessOutcome] | None = None

    def __len__(self) -> int:
        return len(self.hit)

    @property
    def eviction_count(self) -> int:
        """Total pages evicted across the batch."""
        return len(self.evicted_pages)

    @classmethod
    def from_outcomes(cls, outcomes: Sequence[AccessOutcome]) -> "AccessOutcomeBatch":
        """Lift a scalar outcome list into a batch (memoising the list)."""
        n = len(outcomes)
        hit = np.fromiter([outcome.hit for outcome in outcomes], np.bool_, n)
        admitted = np.fromiter([outcome.admitted for outcome in outcomes], np.bool_, n)
        bypassed = np.fromiter([outcome.bypassed for outcome in outcomes], np.bool_, n)
        evicted = [outcome.evicted for outcome in outcomes]
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(np.fromiter(map(len, evicted), np.int64, n), out=offsets[1:])
        pages = np.fromiter(chain.from_iterable(evicted), np.int64, int(offsets[-1]))
        batch = cls(hit, admitted, bypassed, pages, offsets)
        batch._outcomes = list(outcomes)
        return batch

    def outcome(self, i: int) -> AccessOutcome:
        """Reconstruct request *i*'s scalar outcome."""
        start = int(self.evicted_offsets[i])
        stop = int(self.evicted_offsets[i + 1])
        hit = bool(self.hit[i])
        admitted = bool(self.admitted[i])
        bypassed = bool(self.bypassed[i])
        if start == stop:
            if hit and not admitted and not bypassed:
                return HIT
            if admitted and not hit and not bypassed:
                return MISS_ADMIT
            if bypassed and not hit and not admitted:
                return MISS_BYPASS
            return AccessOutcome(hit, admitted=admitted, bypassed=bypassed)
        evicted = tuple(int(page) for page in self.evicted_pages[start:stop])
        return AccessOutcome(hit, admitted=admitted, bypassed=bypassed, evicted=evicted)

    def outcomes(self) -> list[AccessOutcome]:
        """Materialise the equivalent scalar outcome list (memoised)."""
        if self._outcomes is None:
            self._outcomes = [self.outcome(i) for i in range(len(self))]
        return self._outcomes


def _admit_batch(
    hit_flags: bytearray, evict_pos: list[int], evicted: list[int]
) -> AccessOutcomeBatch:
    """Assemble a batch for always-admit kernels (LRU/FIFO/CLOCK shape).

    ``hit_flags`` holds 0/1 per request; every miss admits, nothing is
    bypassed, and request ``evict_pos[k]`` evicted page ``evicted[k]`` (at
    most one eviction per access).
    """
    n = len(hit_flags)
    hit = np.frombuffer(bytes(hit_flags), dtype=np.bool_)
    bypassed = np.zeros(n, np.bool_)
    offsets = np.zeros(n + 1, np.int64)
    if evicted:
        counts = np.zeros(n, np.int64)
        counts[evict_pos] = 1
        np.cumsum(counts, out=offsets[1:])
        pages = np.array(evicted, np.int64)
    else:
        pages = np.zeros(0, np.int64)
    return AccessOutcomeBatch(hit, ~hit, bypassed, pages, offsets)


def _mixed_batch(
    hit_flags: bytearray,
    admit_flags: bytearray,
    bypass_flags: bytearray,
    evict_pos: list[int],
    evicted: list[int],
) -> AccessOutcomeBatch:
    """Assemble a batch for kernels that may bypass (the CLIC shape).

    Explicit 0/1 flags per request for hit/admitted/bypassed, plus at most
    one eviction per access (``evict_pos[k]`` evicted ``evicted[k]``).
    """
    n = len(hit_flags)
    hit = np.frombuffer(bytes(hit_flags), dtype=np.bool_)
    admitted = np.frombuffer(bytes(admit_flags), dtype=np.bool_)
    bypassed = np.frombuffer(bytes(bypass_flags), dtype=np.bool_)
    offsets = np.zeros(n + 1, np.int64)
    if evicted:
        counts = np.zeros(n, np.int64)
        counts[evict_pos] = 1
        np.cumsum(counts, out=offsets[1:])
        pages = np.array(evicted, np.int64)
    else:
        pages = np.zeros(0, np.int64)
    return AccessOutcomeBatch(hit, admitted, bypassed, pages, offsets)


def _all_hit_batch(n: int) -> AccessOutcomeBatch:
    """Assemble the batch for a chunk where every request hit (no state
    change other than recency/reference updates)."""
    return AccessOutcomeBatch(
        np.ones(n, np.bool_),
        np.zeros(n, np.bool_),
        np.zeros(n, np.bool_),
        np.zeros(0, np.int64),
        np.zeros(n + 1, np.int64),
    )


@dataclass
class CacheStats:
    """Hit/miss accounting for one simulation run of a single policy.

    Produced by the stats observer (:class:`repro.simulation.observers
    .StatsObserver`) from a policy's outcome stream; policies themselves no
    longer carry one.
    """

    read_requests: int = 0
    read_hits: int = 0
    write_requests: int = 0
    write_hits: int = 0
    evictions: int = 0
    admissions: int = 0
    bypasses: int = 0

    @property
    def requests(self) -> int:
        return self.read_requests + self.write_requests

    @property
    def read_hit_ratio(self) -> float:
        """Read hits / read requests (the paper's metric).  0.0 if no reads."""
        if self.read_requests == 0:
            return 0.0
        return self.read_hits / self.read_requests

    @property
    def overall_hit_ratio(self) -> float:
        if self.requests == 0:
            return 0.0
        return (self.read_hits + self.write_hits) / self.requests

    def record(self, request: IORequest, hit: bool) -> None:
        """Record the hit/miss outcome of one request."""
        if request.is_read:
            self.read_requests += 1
            if hit:
                self.read_hits += 1
        else:
            self.write_requests += 1
            if hit:
                self.write_hits += 1

    def record_outcome(self, request: IORequest, outcome: AccessOutcome) -> None:
        """Fold one full :class:`AccessOutcome` event into the counters."""
        self.record(request, outcome.hit)
        if outcome.admitted:
            self.admissions += 1
        if outcome.bypassed:
            self.bypasses += 1
        if outcome.evicted:
            self.evictions += len(outcome.evicted)

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return a new :class:`CacheStats` aggregating *self* and *other*."""
        return CacheStats(
            read_requests=self.read_requests + other.read_requests,
            read_hits=self.read_hits + other.read_hits,
            write_requests=self.write_requests + other.write_requests,
            write_hits=self.write_hits + other.write_hits,
            evictions=self.evictions + other.evictions,
            admissions=self.admissions + other.admissions,
            bypasses=self.bypasses + other.bypasses,
        )

    def as_dict(self) -> dict:
        return {
            "read_requests": self.read_requests,
            "read_hits": self.read_hits,
            "read_hit_ratio": self.read_hit_ratio,
            "write_requests": self.write_requests,
            "write_hits": self.write_hits,
            "evictions": self.evictions,
            "admissions": self.admissions,
            "bypasses": self.bypasses,
        }


class CachePolicy(abc.ABC):
    """Abstract base class for storage-server cache replacement policies.

    Subclasses implement the **policy kernel contract**:

    * :meth:`access` processes one request, mutates only replacement state,
      and reports everything it did as an :class:`AccessOutcome` — it must
      never count anything itself;
    * the number of cached pages stays at or below ``capacity`` after every
      access;
    * the evicted pages reported in outcomes are exactly the pages that left
      the cache, so ``admissions - evictions == len(policy)`` holds at all
      times (one admission per residency);
    * kernel state is fully captured by :meth:`snapshot` / :meth:`restore`:
      restoring a snapshot and replaying the same tail produces identical
      outcomes.
    """

    #: Short name used by the policy registry and in experiment output.
    name: str = "base"

    #: Whether the policy reads hints from requests.  Purely informational.
    hint_aware: bool = False

    #: Whether the policy requires the full future request stream up front
    #: (:meth:`prepare`) before simulation.  Only OPT sets this.
    offline: bool = False

    #: Instance attributes excluded from :meth:`snapshot`: anything that is
    #: not kernel state (the replay loop's bookkeeping hooks).
    _SNAPSHOT_EXCLUDE: frozenset[str] = frozenset({"_stats_view"})

    #: Names of attributes shared by reference across snapshots instead of
    #: being deep-copied: immutable-by-contract structures that may be
    #: shared between policy instances (OPT's future-read index).
    _SNAPSHOT_SHARED: tuple[str, ...] = ()

    def __init__(self, capacity: int):
        self._capacity = validate_capacity(capacity)
        #: Stats of the policy's most recent simulation run, installed by the
        #: replay loop for the deprecated :attr:`stats` shim.  Not kernel
        #: state; never read it from within a policy.
        self._stats_view: CacheStats | None = None

    # ------------------------------------------------------------------ API
    @property
    def capacity(self) -> int:
        """Cache capacity in pages."""
        return self._capacity

    @property
    def stats(self) -> CacheStats:
        """Deprecated: stats of the policy's most recent simulation run.

        Policies are pure kernels and no longer do their own accounting;
        read statistics from :attr:`SimulationResult.stats` (or attach a
        :class:`~repro.simulation.observers.StatsObserver`) instead.  This
        shim returns the stats the last replay installed — empty if the
        policy has only been driven directly, outside a simulator.
        """
        warnings.warn(
            "CachePolicy.stats is deprecated: policies no longer own "
            "accounting; read SimulationResult.stats (or attach a "
            "StatsObserver) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        view = self._stats_view
        return view if view is not None else CacheStats()

    def prepare(self, requests: Sequence[IORequest], start_seq: int = 0) -> None:
        """Give offline policies (OPT) the full request stream in advance.

        Online policies ignore this.  The simulator calls it once before the
        first :meth:`access` when the policy declares ``offline = True``.
        ``start_seq`` is the sequence number the simulator will assign to
        ``requests[0]``; offline policies must index future positions in the
        same numbering that :meth:`access` will see.
        """

    @abc.abstractmethod
    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        """Process one request; return what happened as an outcome event.

        ``seq`` is the server-assigned sequence number (0-based position of
        the request in the stream).  Implementations mutate only their
        replacement state and report every admission, bypass and eviction in
        the returned :class:`AccessOutcome`; all statistics are derived from
        outcomes by the replay observers.
        """

    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        """Process one columnar chunk of requests; return batched outcomes.

        **Batch kernel contract**: the returned batch must be
        outcome-for-outcome identical to calling :meth:`access` on each of
        the chunk's requests in order (with the chunk's own sequence
        numbers), and must leave the policy in the identical state.  The
        default implementation *is* that scalar loop — it materialises the
        chunk's requests and folds the outcomes — so overriding is purely a
        performance fast path, never a semantic one.  Every override must be
        covered by the scalar==batch equivalence suite
        (``tests/cache/test_batch_parity.py``); lintkit's
        ``batch-kernel-parity`` rule enforces this.
        """
        requests = chunk.requests()
        outcomes = list(map(self.access, requests, chunk.seq_list()))
        return AccessOutcomeBatch.from_outcomes(outcomes)

    @abc.abstractmethod
    def contains(self, page: int) -> bool:
        """Return whether *page* is currently cached (no side effects)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of pages currently cached."""

    def cached_pages(self) -> Iterable[int]:
        """Iterate over the currently cached page ids (order unspecified).

        The default implementation raises ``NotImplementedError``; concrete
        policies in this package all override it, and tests rely on it to
        check invariants.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all cached pages (capacity is kept).

        Also forgets the last run's stats view (the deprecated shim), so a
        reset policy looks freshly built.
        """
        self._stats_view = None

    # ---------------------------------------------------------- snapshotting
    def snapshot(self) -> Mapping[str, object]:
        """Capture the kernel state as an opaque, reusable snapshot.

        The default implementation deep-copies every instance attribute
        except :attr:`_SNAPSHOT_EXCLUDE`; attributes named in
        :attr:`_SNAPSHOT_SHARED` are carried by reference (read-only shared
        structures such as OPT's future-read index).  Snapshots are
        insulated from further mutation of the policy and may be restored
        any number of times (service-mode checkpointing, crash recovery).
        """
        memo: dict[int, object] = {}
        for name in self._SNAPSHOT_SHARED:
            value = self.__dict__.get(name)
            if value is not None:
                memo[id(value)] = value
        state = {
            name: value
            for name, value in self.__dict__.items()
            if name not in self._SNAPSHOT_EXCLUDE
        }
        return copy.deepcopy(state, memo)

    def restore(self, state: Mapping[str, object]) -> None:
        """Restore kernel state captured by :meth:`snapshot`.

        The snapshot itself stays pristine (it is deep-copied back in), so
        one snapshot can seed many restores deterministically.
        """
        memo: dict[int, object] = {}
        for name in self._SNAPSHOT_SHARED:
            value = state.get(name)
            if value is not None:
                memo[id(value)] = value
        self.__dict__.update(copy.deepcopy(dict(state), memo))

    # -------------------------------------------------------------- helpers
    def _check_invariant(self) -> None:
        """Assert the capacity invariant.  Cheap; used by tests."""
        if len(self) > self._capacity:
            raise AssertionError(
                f"{self.name}: cached pages {len(self)} exceed capacity {self._capacity}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(capacity={self._capacity}, cached={len(self)})"
