"""First-tier (client) buffer pool simulation.

The paper's traces come from instrumented DBMSs; the storage server only
sees the I/O that *escapes* the first-tier buffer cache, annotated with
hints.  This module reproduces that filtering effect: a buffer pool absorbs
logical page accesses and emits second-tier I/O events:

* **regular reads** when a logical access misses in the pool;
* **prefetch reads** when a sequential scan faults pages in;
* **replacement writes** when the asynchronous page cleaner flushes dirty
  pages near the cold end of the pool (they are about to be evicted);
* **synchronous writes** when a dirty page must be flushed on the eviction
  path itself because the cleaner did not get to it in time;
* **recovery writes** when the periodic checkpoint persists hot dirty pages
  that remain cached (and therefore are unlikely to be read back soon).

These are exactly the request classes behind the DB2/MySQL ``request_type``
hints of Figure 2, and their correlation with future reads is what TQ's
hard-coded heuristic and CLIC's learned priorities both feed on.
"""

from __future__ import annotations

import enum
import random
from collections import OrderedDict
from dataclasses import dataclass

from repro.workloads.dbmodel import DatabaseObject

__all__ = ["IOClass", "PoolIO", "FirstTierBufferPool"]


class IOClass(enum.Enum):
    """Second-tier I/O classes emitted by the first-tier buffer pool."""

    REGULAR_READ = "regular_read"
    PREFETCH_READ = "prefetch_read"
    RECOVERY_WRITE = "recovery_write"
    REPLACEMENT_WRITE = "replacement_write"
    SYNCHRONOUS_WRITE = "synchronous_write"

    @property
    def is_read(self) -> bool:
        return self in (IOClass.REGULAR_READ, IOClass.PREFETCH_READ)

    @property
    def is_write(self) -> bool:
        return not self.is_read


@dataclass(frozen=True, slots=True)
class PoolIO:
    """One I/O request issued by the buffer pool to the storage server."""

    page: int
    io_class: IOClass
    obj: DatabaseObject
    txn: int = 0
    #: Number of concurrent fixes of the page at emission time (MySQL hint).
    fix_count: int = 0


class _Frame:
    __slots__ = ("obj", "scan_only")

    def __init__(self, obj: DatabaseObject, scan_only: bool):
        self.obj = obj
        self.scan_only = scan_only


class FirstTierBufferPool:
    """An LRU buffer pool with an asynchronous page cleaner and checkpoints.

    Parameters
    ----------
    capacity:
        Pool size in pages (the paper's "DBMS Buffer Size").
    cleaner_interval:
        Run the asynchronous page cleaner every this many logical accesses.
    cleaner_batch:
        Maximum number of cold dirty pages the cleaner flushes per run.
    checkpoint_interval:
        Emit recovery writes every this many logical accesses (0 disables).
    checkpoint_batch:
        Maximum number of dirty pages persisted per checkpoint.
    scan_resistant:
        Insert sequentially scanned pages of *large* objects at the cold end
        of the pool so their scans do not flush the working set (what real
        DBMS pools do).  Objects smaller than ``scan_threshold_fraction`` of
        the pool are cached normally — a DBMS happily keeps a table resident
        when it fits.
    scan_threshold_fraction:
        An object is treated as "large" (scan-resistant handling) when its
        page count exceeds this fraction of the pool capacity.  The default
        (0.95) means a table is only bypassed when it genuinely cannot be
        kept resident, which is how DBMS sequential-detection heuristics
        behave.
    """

    def __init__(
        self,
        capacity: int,
        rng: random.Random | None = None,
        cleaner_interval: int = 200,
        cleaner_batch: int = 32,
        checkpoint_interval: int = 4_000,
        checkpoint_batch: int = 64,
        scan_resistant: bool = True,
        scan_threshold_fraction: float = 0.95,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if cleaner_interval < 1:
            raise ValueError("cleaner_interval must be >= 1")
        if checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        self._capacity = capacity
        # The pool's replacement behaviour is fully deterministic; the rng is
        # accepted for client adapters that share one stream.  A missing rng
        # must not fall back to OS entropy — default to the fixed seed 0.
        self._rng = rng if rng is not None else random.Random(0)
        self._cleaner_interval = cleaner_interval
        self._cleaner_batch = cleaner_batch
        self._checkpoint_interval = checkpoint_interval
        self._checkpoint_batch = checkpoint_batch
        self._scan_resistant = scan_resistant
        if not 0.0 < scan_threshold_fraction <= 1.0:
            raise ValueError("scan_threshold_fraction must be in (0, 1]")
        self._scan_threshold = scan_threshold_fraction
        # LRU order: cold (least recently used) first.
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        # The dirty pages, kept in the same relative order as their frames,
        # so the cleaner and the checkpoint pop their batches from either end
        # without walking the clean frames in between.
        self._dirty: OrderedDict[int, None] = OrderedDict()
        self._accesses = 0
        self.logical_hits = 0
        self.logical_misses = 0

    # ------------------------------------------------------------ properties
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, page: int) -> bool:
        return page in self._frames

    @property
    def hit_ratio(self) -> float:
        total = self.logical_hits + self.logical_misses
        return self.logical_hits / total if total else 0.0

    def dirty_pages(self) -> int:
        return len(self._dirty)

    # ------------------------------------------------------- background work
    def _maybe_background_io(self, ios: list[PoolIO], txn: int) -> None:
        """Run the page cleaner and checkpointer on their schedules."""
        if self._accesses % self._cleaner_interval == 0:
            self._run_cleaner(ios, txn)
        if self._checkpoint_interval and self._accesses % self._checkpoint_interval == 0:
            self._run_checkpoint(ios, txn)

    def _run_cleaner(self, ios: list[PoolIO], txn: int) -> None:
        """Asynchronously flush cold dirty pages (replacement writes)."""
        self._flush_batch(ios, txn, self._cleaner_batch, IOClass.REPLACEMENT_WRITE, cold_end=True)

    def _run_checkpoint(self, ios: list[PoolIO], txn: int) -> None:
        """Persist hot dirty pages for recoverability (recovery writes)."""
        # From the hot end: checkpoints target pages that stay cached.
        self._flush_batch(ios, txn, self._checkpoint_batch, IOClass.RECOVERY_WRITE, cold_end=False)

    def _flush_batch(
        self, ios: list[PoolIO], txn: int, batch: int, io_class: IOClass, cold_end: bool
    ) -> None:
        """Clean up to *batch* dirty pages, starting from one end of the LRU order."""
        dirty = self._dirty
        frames = self._frames
        for _ in range(min(batch, len(dirty))):
            page = dirty.popitem(last=not cold_end)[0]
            ios.append(PoolIO(page=page, io_class=io_class, obj=frames[page].obj, txn=txn))

    # --------------------------------------------------------------- access
    def _evict_one(self, ios: list[PoolIO], txn: int) -> None:
        """Evict the coldest page; flush it synchronously if still dirty."""
        page, frame = self._frames.popitem(last=False)
        if page in self._dirty:
            del self._dirty[page]
            ios.append(
                PoolIO(page=page, io_class=IOClass.SYNCHRONOUS_WRITE, obj=frame.obj, txn=txn)
            )

    def _insert(self, page: int, obj: DatabaseObject, dirty: bool, scan_only: bool) -> None:
        self._frames[page] = _Frame(obj=obj, scan_only=scan_only)
        if dirty:
            self._dirty[page] = None
        if scan_only and self._scan_resistant and len(self._frames) > 1:
            # Place scanned pages at the cold end so they are evicted first.
            self._move(page, hot_end=False)

    def _move(self, page: int, hot_end: bool) -> None:
        """Move a cached page to one end of the LRU order (and its dirty entry with it)."""
        self._frames.move_to_end(page, last=hot_end)
        if page in self._dirty:
            self._dirty.move_to_end(page, last=hot_end)

    def access(
        self,
        obj: DatabaseObject,
        page_index: int,
        write: bool = False,
        txn: int = 0,
        is_new_page: bool = False,
    ) -> list[PoolIO]:
        """Perform one logical page access; return the second-tier I/O it caused."""
        page = obj.page(page_index)
        ios: list[PoolIO] = []
        self._accesses += 1
        self._maybe_background_io(ios, txn)

        frame = self._frames.get(page)
        if frame is not None:
            self.logical_hits += 1
            frame.scan_only = False
            self._move(page, hot_end=True)
            if write and page not in self._dirty:
                self._dirty[page] = None
            return ios

        self.logical_misses += 1
        if len(self._frames) >= self._capacity:
            self._evict_one(ios, txn)
        if not is_new_page:
            # The page must be fetched from the storage server before use;
            # freshly appended pages are created in the pool without a read.
            ios.append(PoolIO(page=page, io_class=IOClass.REGULAR_READ, obj=obj, txn=txn))
        self._insert(page, obj, dirty=write, scan_only=False)
        return ios

    def scan(
        self,
        obj: DatabaseObject,
        start_index: int,
        length: int,
        txn: int = 0,
    ) -> list[PoolIO]:
        """Sequentially read *length* pages of *obj*, using prefetch reads."""
        if length < 0:
            raise ValueError("length must be >= 0")
        ios: list[PoolIO] = []
        end = min(start_index + length, obj.page_count)
        # Only treat the scan as cache-polluting when the object is too large
        # to keep resident; small tables are cached like any other access.
        large_object = (
            self._scan_resistant and obj.page_count > self._scan_threshold * self._capacity
        )
        for index in range(start_index, end):
            page = obj.page(index)
            self._accesses += 1
            self._maybe_background_io(ios, txn)
            frame = self._frames.get(page)
            if frame is not None:
                self.logical_hits += 1
                # Scanned-only pages stay at the cold end even when re-scanned.
                self._move(page, hot_end=not (large_object and frame.scan_only))
                continue
            self.logical_misses += 1
            if len(self._frames) >= self._capacity:
                self._evict_one(ios, txn)
            ios.append(PoolIO(page=page, io_class=IOClass.PREFETCH_READ, obj=obj, txn=txn))
            self._insert(page, obj, dirty=False, scan_only=large_object)
        return ios

    def flush_all(self, txn: int = 0) -> list[PoolIO]:
        """Flush every dirty page (used at end-of-trace / shutdown checkpoints)."""
        ios: list[PoolIO] = []
        self._flush_batch(ios, txn, len(self._dirty), IOClass.RECOVERY_WRITE, cold_end=True)
        return ios
