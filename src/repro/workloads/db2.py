"""DB2-like storage client: emits the five DB2 hint types of Figure 2.

Every I/O request carries a hint set ``(pool id, object id, object type id,
request type, buffer priority)``.  The client organises its buffer into one
first-tier pool per ``pool_id`` used by the database layout (two pools for
the TPC-C layout, five for TPC-H, matching the domain cardinalities the
paper reports), splitting the configured buffer size across pools in
proportion to the pages they serve.
"""

from __future__ import annotations

from repro.core.hints import HintSchema, HintSet
from repro.trace.schema import RequestType, db2_schema
from repro.workloads.client import DBMSClient
from repro.workloads.dbmodel import SyntheticDatabase
from repro.workloads.firsttier import FirstTierBufferPool, IOClass, PoolIO

__all__ = ["DB2Client", "DB2_REQUEST_TYPE_BY_IO_CLASS"]


#: How buffer-pool I/O classes map onto the DB2 ``request_type`` hint values.
DB2_REQUEST_TYPE_BY_IO_CLASS = {
    IOClass.REGULAR_READ: RequestType.READ,
    IOClass.PREFETCH_READ: RequestType.PREFETCH_READ,
    IOClass.RECOVERY_WRITE: RequestType.RECOVERY_WRITE,
    IOClass.REPLACEMENT_WRITE: RequestType.REPLACEMENT_WRITE,
    IOClass.SYNCHRONOUS_WRITE: RequestType.SYNCHRONOUS_WRITE,
}


class DB2Client(DBMSClient):
    """A synthetic stand-in for the paper's instrumented DB2 storage client."""

    def __init__(
        self,
        database: SyntheticDatabase,
        buffer_pages: int,
        client_id: str = "db2",
        seed: int = 0,
        cleaner_interval: int = 200,
        checkpoint_interval: int = 4_000,
    ):
        self._schema: HintSchema | None = None
        # Hint sets depend only on (object, I/O class) and are immutable, so
        # each distinct pair is built once and shared by every request.
        self._hint_sets: dict[tuple[int, IOClass], HintSet] = {}
        super().__init__(
            client_id=client_id,
            database=database,
            buffer_pages=buffer_pages,
            seed=seed,
            cleaner_interval=cleaner_interval,
            checkpoint_interval=checkpoint_interval,
        )
        self._schema = db2_schema(
            client_id=client_id,
            num_pools=max(database.pool_ids()) + 1,
            num_objects=database.object_count(),
            num_object_types=6,
            num_priorities=4,
        )

    @property
    def schema(self) -> HintSchema:
        assert self._schema is not None
        return self._schema

    # ----------------------------------------------------------- pool set-up
    def _build_pools(self) -> dict[int, FirstTierBufferPool]:
        pool_ids = sorted(self.database.pool_ids())
        pages_per_pool = {
            pool_id: sum(obj.page_count for obj in self.database.objects_in_pool(pool_id))
            for pool_id in pool_ids
        }
        total_pages = sum(pages_per_pool.values()) or 1
        pools: dict[int, FirstTierBufferPool] = {}
        for pool_id in pool_ids:
            share = pages_per_pool[pool_id] / total_pages
            pools[pool_id] = self._make_pool(int(self.buffer_pages * share))
        return pools

    # --------------------------------------------------------------- mapping
    def hint_set_for(self, io: PoolIO) -> HintSet:
        obj = io.obj
        key = (obj.object_id, io.io_class)
        hints = self._hint_sets.get(key)
        if hints is None:
            hints = self._hint_sets[key] = self.schema.make_hint_set(
                {
                    "pool_id": obj.pool_id,
                    "object_id": obj.object_id,
                    "object_type_id": obj.object_type_id,
                    "request_type": DB2_REQUEST_TYPE_BY_IO_CLASS[io.io_class],
                    "buffer_priority": obj.buffer_priority,
                }
            )
        return hints
