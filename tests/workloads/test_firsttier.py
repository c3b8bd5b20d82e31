"""Tests for the first-tier buffer pool simulation."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.dbmodel import SyntheticDatabase
from repro.workloads.firsttier import FirstTierBufferPool, IOClass, PoolIO


def make_db(pages: int = 100):
    db = SyntheticDatabase()
    obj = db.add_object("T", pages=pages)
    return db, obj


class TestBasicCaching:
    def test_miss_emits_regular_read(self):
        _, obj = make_db()
        pool = FirstTierBufferPool(capacity=10, checkpoint_interval=0)
        ios = pool.access(obj, 0)
        assert [io.io_class for io in ios] == [IOClass.REGULAR_READ]
        assert ios[0].page == obj.page(0)

    def test_hit_emits_nothing(self):
        _, obj = make_db()
        pool = FirstTierBufferPool(capacity=10, checkpoint_interval=0)
        pool.access(obj, 0)
        assert pool.access(obj, 0) == []
        assert pool.hit_ratio == pytest.approx(0.5)

    def test_new_page_write_needs_no_read(self):
        _, obj = make_db()
        pool = FirstTierBufferPool(capacity=10, checkpoint_interval=0)
        ios = pool.access(obj, 0, write=True, is_new_page=True)
        assert ios == []
        assert obj.page(0) in pool

    def test_capacity_respected(self):
        _, obj = make_db(100)
        pool = FirstTierBufferPool(capacity=8, checkpoint_interval=0)
        for index in range(50):
            pool.access(obj, index)
        assert len(pool) <= 8

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FirstTierBufferPool(capacity=0)
        with pytest.raises(ValueError):
            FirstTierBufferPool(capacity=5, cleaner_interval=0)
        with pytest.raises(ValueError):
            FirstTierBufferPool(capacity=5, scan_threshold_fraction=0.0)


class TestWriteHints:
    def test_clean_eviction_is_silent(self):
        _, obj = make_db(100)
        pool = FirstTierBufferPool(capacity=4, cleaner_interval=10_000, checkpoint_interval=0)
        ios = []
        for index in range(10):
            ios.extend(pool.access(obj, index))      # clean reads only
        assert all(io.io_class is IOClass.REGULAR_READ for io in ios)

    def test_dirty_eviction_emits_synchronous_write(self):
        _, obj = make_db(100)
        pool = FirstTierBufferPool(capacity=2, cleaner_interval=10_000, checkpoint_interval=0)
        pool.access(obj, 0, write=True)
        pool.access(obj, 1)
        ios = pool.access(obj, 2)
        classes = [io.io_class for io in ios]
        assert IOClass.SYNCHRONOUS_WRITE in classes
        sync = next(io for io in ios if io.io_class is IOClass.SYNCHRONOUS_WRITE)
        assert sync.page == obj.page(0)

    def test_cleaner_emits_replacement_writes_for_cold_dirty_pages(self):
        _, obj = make_db(100)
        pool = FirstTierBufferPool(
            capacity=20, cleaner_interval=5, cleaner_batch=4, checkpoint_interval=0
        )
        ios = []
        for index in range(10):
            ios.extend(pool.access(obj, index, write=True))
        replacement = [io for io in ios if io.io_class is IOClass.REPLACEMENT_WRITE]
        assert replacement, "the page cleaner should have flushed some dirty pages"
        # Cleaned pages stay resident in the pool.
        for io in replacement:
            assert io.page in pool

    def test_cleaned_page_not_rewritten_on_eviction(self):
        _, obj = make_db(100)
        pool = FirstTierBufferPool(
            capacity=4, cleaner_interval=1, cleaner_batch=8, checkpoint_interval=0
        )
        ios = []
        for index in range(12):
            ios.extend(pool.access(obj, index, write=True))
        # Every dirty page is cleaned immediately (interval 1, generous batch),
        # so no synchronous writes should ever be needed.
        assert not [io for io in ios if io.io_class is IOClass.SYNCHRONOUS_WRITE]

    def test_checkpoint_emits_recovery_writes_for_hot_dirty_pages(self):
        _, obj = make_db(100)
        pool = FirstTierBufferPool(
            capacity=50, cleaner_interval=10_000, checkpoint_interval=10, checkpoint_batch=8
        )
        ios = []
        for round_ in range(4):
            for index in range(5):
                ios.extend(pool.access(obj, index, write=True))
        recovery = [io for io in ios if io.io_class is IOClass.RECOVERY_WRITE]
        assert recovery
        for io in recovery:
            assert io.page in pool            # checkpointed pages stay cached

    def test_flush_all_writes_remaining_dirty_pages(self):
        _, obj = make_db()
        pool = FirstTierBufferPool(capacity=10, cleaner_interval=10_000, checkpoint_interval=0)
        pool.access(obj, 0, write=True)
        pool.access(obj, 1, write=True)
        ios = pool.flush_all()
        assert len(ios) == 2
        assert all(io.io_class is IOClass.RECOVERY_WRITE for io in ios)
        assert pool.dirty_pages() == 0


class TestScans:
    def test_scan_emits_prefetch_reads(self):
        _, obj = make_db(50)
        pool = FirstTierBufferPool(capacity=100, checkpoint_interval=0)
        ios = pool.scan(obj, 0, 10)
        assert len(ios) == 10
        assert all(io.io_class is IOClass.PREFETCH_READ for io in ios)

    def test_small_object_scan_is_cached(self):
        # Objects below the scan threshold are kept resident: the second scan
        # is absorbed entirely by the first tier.
        _, obj = make_db(20)
        pool = FirstTierBufferPool(capacity=100, checkpoint_interval=0)
        first = pool.scan(obj, 0, 20)
        second = pool.scan(obj, 0, 20)
        assert len(first) == 20
        assert second == []

    def test_large_object_scan_does_not_flush_working_set(self):
        db = SyntheticDatabase()
        hot = db.add_object("HOT", pages=10)
        big = db.add_object("BIG", pages=400)
        pool = FirstTierBufferPool(capacity=40, checkpoint_interval=0, scan_threshold_fraction=0.5)
        for index in range(10):
            pool.access(hot, index)
        pool.scan(big, 0, 400)
        # The hot pages must still be resident after the big scan.
        resident = sum(1 for index in range(10) if hot.page(index) in pool)
        assert resident >= 8

    def test_large_object_rescan_reaches_server_again(self):
        db = SyntheticDatabase()
        big = db.add_object("BIG", pages=200)
        pool = FirstTierBufferPool(capacity=50, checkpoint_interval=0)
        first = pool.scan(big, 0, 200)
        second = pool.scan(big, 0, 200)
        # Scan-resistant handling means the pool retains almost none of the
        # scan, so the re-scan misses (and reaches the storage server) again.
        assert len(second) >= 150
        assert len(first) == 200

    def test_scan_clipped_to_object_end(self):
        _, obj = make_db(10)
        pool = FirstTierBufferPool(capacity=100, checkpoint_interval=0)
        ios = pool.scan(obj, 5, 50)
        assert len(ios) == 5

    def test_negative_length_rejected(self):
        _, obj = make_db(10)
        pool = FirstTierBufferPool(capacity=10)
        with pytest.raises(ValueError):
            pool.scan(obj, 0, -1)


class _FrameWalkPool:
    """Reference pool that finds dirty pages by walking every frame.

    A deliberately simple restatement of the pool's LRU, cleaner and
    checkpoint rules: each frame carries its own dirty bit, the cleaner walks
    the frames from the cold end and the checkpoint from the hot end.  The
    real pool must emit exactly the same I/O.
    """

    def __init__(self, capacity, cleaner_interval, cleaner_batch,
                 checkpoint_interval, checkpoint_batch):
        self.capacity = capacity
        self.cleaner_interval = cleaner_interval
        self.cleaner_batch = cleaner_batch
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_batch = checkpoint_batch
        self.frames = OrderedDict()           # page -> [obj, dirty, scan_only]
        self.accesses = 0

    def _flush(self, ios, txn, pages, batch, io_class):
        flushed = 0
        for page in pages:
            if flushed >= batch:
                break
            frame = self.frames[page]
            if frame[1]:
                frame[1] = False
                ios.append(PoolIO(page=page, io_class=io_class, obj=frame[0], txn=txn))
                flushed += 1

    def _background(self, ios, txn):
        self.accesses += 1
        if self.accesses % self.cleaner_interval == 0:
            self._flush(ios, txn, list(self.frames), self.cleaner_batch,
                        IOClass.REPLACEMENT_WRITE)
        if self.checkpoint_interval and self.accesses % self.checkpoint_interval == 0:
            self._flush(ios, txn, list(reversed(self.frames)), self.checkpoint_batch,
                        IOClass.RECOVERY_WRITE)

    def _miss(self, ios, txn, page, obj, dirty, scan_only):
        if len(self.frames) >= self.capacity:
            victim, (victim_obj, victim_dirty, _) = self.frames.popitem(last=False)
            if victim_dirty:
                ios.append(PoolIO(page=victim, io_class=IOClass.SYNCHRONOUS_WRITE,
                                  obj=victim_obj, txn=txn))
        self.frames[page] = [obj, dirty, scan_only]
        if scan_only and len(self.frames) > 1:
            self.frames.move_to_end(page, last=False)

    def access(self, obj, index, write, txn, is_new_page):
        page = obj.page(index)
        ios = []
        self._background(ios, txn)
        frame = self.frames.get(page)
        if frame is not None:
            frame[1] = frame[1] or write
            frame[2] = False
            self.frames.move_to_end(page)
            return ios
        self._miss(ios, txn, page, obj, write, False)
        if not is_new_page:
            ios.append(PoolIO(page=page, io_class=IOClass.REGULAR_READ, obj=obj, txn=txn))
        return ios

    def scan(self, obj, start, length, txn, large):
        ios = []
        for index in range(start, min(start + length, obj.page_count)):
            page = obj.page(index)
            self._background(ios, txn)
            frame = self.frames.get(page)
            if frame is not None:
                self.frames.move_to_end(page, last=not (large and frame[2]))
                continue
            self._miss(ios, txn, page, obj, False, large)
            ios.append(PoolIO(page=page, io_class=IOClass.PREFETCH_READ, obj=obj, txn=txn))
        return ios

    def flush_all(self, txn):
        ios = []
        self._flush(ios, txn, list(self.frames), len(self.frames), IOClass.RECOVERY_WRITE)
        return ios

    def dirty_pages(self):
        return sum(1 for frame in self.frames.values() if frame[1])


_OBJECT_PAGES = {"BIG": 30, "A": 4, "B": 7}      # BIG exceeds the scan threshold
_CAPACITY = 12

_access_op = st.tuples(
    st.just("access"),
    st.sampled_from(sorted(_OBJECT_PAGES)),
    st.integers(min_value=0, max_value=29),
    st.booleans(),
    st.booleans(),
)
_scan_op = st.tuples(
    st.just("scan"),
    st.sampled_from(sorted(_OBJECT_PAGES)),
    st.integers(min_value=0, max_value=29),
    st.integers(min_value=0, max_value=20),
)
# Mostly single-page accesses, so dirty pages pile up between cleaner runs.
_pool_ops = st.lists(
    st.one_of(_access_op, _access_op, _access_op, _access_op, _scan_op, st.just(("flush",))),
    min_size=20,
    max_size=200,
)


@pytest.mark.property
class TestDirtyIndexEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=_pool_ops,
        cleaner_interval=st.integers(min_value=1, max_value=12),
        cleaner_batch=st.integers(min_value=0, max_value=4),
        checkpoint_interval=st.integers(min_value=0, max_value=12),
        checkpoint_batch=st.integers(min_value=1, max_value=5),
    )
    def test_matches_frame_walk(
        self, ops, cleaner_interval, cleaner_batch, checkpoint_interval, checkpoint_batch
    ):
        db = SyntheticDatabase()
        objects = {name: db.add_object(name, pages=n) for name, n in _OBJECT_PAGES.items()}
        knobs = dict(
            cleaner_interval=cleaner_interval,
            cleaner_batch=cleaner_batch,
            checkpoint_interval=checkpoint_interval,
            checkpoint_batch=checkpoint_batch,
        )
        pool = FirstTierBufferPool(capacity=_CAPACITY, **knobs)
        reference = _FrameWalkPool(capacity=_CAPACITY, **knobs)
        for txn, op in enumerate(ops):
            if op[0] == "access":
                _, name, index, write, is_new_page = op
                obj = objects[name]
                index %= obj.page_count
                got = pool.access(obj, index, write=write, txn=txn, is_new_page=is_new_page)
                want = reference.access(obj, index, write, txn, is_new_page)
            elif op[0] == "scan":
                _, name, start, length = op
                obj = objects[name]
                got = pool.scan(obj, start, length, txn=txn)
                large = obj.page_count > 0.95 * _CAPACITY
                want = reference.scan(obj, start, length, txn, large)
            else:
                got = pool.flush_all(txn=txn)
                want = reference.flush_all(txn)
            assert got == want
            assert pool.dirty_pages() == reference.dirty_pages()
            assert len(pool) == len(reference.frames)
            assert all(page in pool for page in reference.frames)
        assert pool.flush_all() == reference.flush_all(0)
        assert pool.dirty_pages() == 0
