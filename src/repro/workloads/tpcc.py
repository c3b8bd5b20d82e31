"""TPC-C-like OLTP workload model.

The paper traces DB2 running TPC-C at scale factor 25 (about 600K 4KB pages).
We reproduce the *structure* of that workload rather than the benchmark
itself: the standard table mix (WAREHOUSE, DISTRICT, CUSTOMER, STOCK, ITEM,
ORDERS, NEW_ORDER, ORDER_LINE, HISTORY plus indexes), the standard
transaction mix (New-Order, Payment, Order-Status, Delivery, Stock-Level),
skewed customer/stock access, and database growth through inserts.

The model emits *logical* page operations; the DBMS client adapters run them
through a first-tier buffer pool to produce the hinted storage-server trace.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator

from repro.workloads.access import AppendCursor, HotSpotSampler, LogicalOp, PageAccess
from repro.workloads.dbmodel import ObjectType, SyntheticDatabase

__all__ = ["TPCCWorkload", "TPCC_TRANSACTION_MIX"]


#: The standard TPC-C transaction mix (fractions sum to 1).
TPCC_TRANSACTION_MIX = {
    "new_order": 0.45,
    "payment": 0.43,
    "order_status": 0.04,
    "delivery": 0.04,
    "stock_level": 0.04,
}


class TPCCWorkload:
    """Generates TPC-C-like logical page operations over a synthetic database.

    Parameters
    ----------
    total_pages:
        Approximate initial database size in pages (the layout scales every
        table proportionally, mirroring TPC-C's relative table sizes).
    seed:
        RNG seed; two workloads with the same seed generate identical streams.
    """

    def __init__(self, total_pages: int = 12_000, seed: int = 0, delivery_backlog: int = 1_500):
        if total_pages < 200:
            raise ValueError("total_pages must be at least 200")
        if delivery_backlog < 0:
            raise ValueError("delivery_backlog must be >= 0")
        self._rng = random.Random(seed)
        #: Deferred-delivery depth: Delivery transactions only process orders
        #: once at least this many are queued, so delivered orders are read
        #: back a while after they were inserted (and after their pages have
        #: typically left the first-tier buffer).
        self._delivery_backlog = delivery_backlog
        self.database = SyntheticDatabase(name="tpcc")
        self._build_layout(total_pages)
        # Customer selection follows TPC-C's NURand: mildly skewed but covering
        # the whole table; stock item selection is essentially uniform, which
        # is what makes STOCK cycle through the first-tier buffer (and its
        # replacement writes informative, cf. the paper's Figure 3).
        self._customer_sampler = HotSpotSampler(hot_fraction=0.3, hot_probability=0.6)
        self._stock_sampler = HotSpotSampler(hot_fraction=0.5, hot_probability=0.55)
        self._item_sampler = HotSpotSampler(hot_fraction=0.1, hot_probability=0.8)
        self._orders_append = AppendCursor(self.database["ORDERS"], rows_per_page=40)
        self._orderline_append = AppendCursor(self.database["ORDER_LINE"], rows_per_page=30)
        self._history_append = AppendCursor(self.database["HISTORY"], rows_per_page=60)
        self._neworder_append = AppendCursor(self.database["NEW_ORDER"], rows_per_page=80)
        self._txn_counter = 0
        #: Recently inserted order positions, consumed by Delivery transactions.
        self._undelivered: deque[int] = deque()

    # ---------------------------------------------------------------- layout
    def _build_layout(self, total_pages: int) -> None:
        """Create the TPC-C tables and indexes with proportional sizes.

        Proportions roughly follow a populated TPC-C database, in which STOCK,
        CUSTOMER and ORDER_LINE dominate.  Two buffer pools are used, as in
        the paper's DB2 TPC-C configuration (Figure 2 reports a pool-id domain
        of cardinality 2): pool 0 for tables, pool 1 for indexes.
        """
        db = self.database
        unit = total_pages / 100.0

        def pages(percent: float) -> int:
            return max(1, int(percent * unit))

        # Tables (pool 0).
        db.add_object("WAREHOUSE", pages(0.2), ObjectType.TABLE, pool_id=0, buffer_priority=3)
        db.add_object("DISTRICT", pages(0.3), ObjectType.TABLE, pool_id=0, buffer_priority=3)
        db.add_object("CUSTOMER", pages(18.0), ObjectType.TABLE, pool_id=0, buffer_priority=2)
        db.add_object("STOCK", pages(35.0), ObjectType.TABLE, pool_id=0, buffer_priority=1)
        db.add_object("ITEM", pages(4.0), ObjectType.TABLE, pool_id=0, buffer_priority=2)
        db.add_object("ORDERS", pages(4.0), ObjectType.TABLE, pool_id=0, buffer_priority=1)
        db.add_object("NEW_ORDER", pages(0.5), ObjectType.TABLE, pool_id=0, buffer_priority=1)
        db.add_object("ORDER_LINE", pages(20.0), ObjectType.TABLE, pool_id=0, buffer_priority=0)
        db.add_object("HISTORY", pages(2.0), ObjectType.TABLE, pool_id=0, buffer_priority=0)
        # Indexes (pool 1) — higher buffer priority, as DBMSs favour index pages.
        db.add_object("WAREHOUSE_PK", pages(0.05), ObjectType.INDEX, pool_id=1, buffer_priority=3)
        db.add_object("DISTRICT_PK", pages(0.05), ObjectType.INDEX, pool_id=1, buffer_priority=3)
        db.add_object("CUSTOMER_PK", pages(2.0), ObjectType.INDEX, pool_id=1, buffer_priority=3)
        db.add_object("CUSTOMER_NAME_IDX", pages(2.0), ObjectType.INDEX, pool_id=1, buffer_priority=2)
        db.add_object("STOCK_PK", pages(3.5), ObjectType.INDEX, pool_id=1, buffer_priority=2)
        db.add_object("ITEM_PK", pages(0.5), ObjectType.INDEX, pool_id=1, buffer_priority=3)
        db.add_object("ORDERS_PK", pages(0.8), ObjectType.INDEX, pool_id=1, buffer_priority=2)
        db.add_object("ORDERS_CUST_IDX", pages(0.8), ObjectType.INDEX, pool_id=1, buffer_priority=2)
        db.add_object("NEW_ORDER_PK", pages(0.1), ObjectType.INDEX, pool_id=1, buffer_priority=2)
        db.add_object("ORDER_LINE_PK", pages(4.0), ObjectType.INDEX, pool_id=1, buffer_priority=1)
        db.add_object("HISTORY_PK", pages(0.4), ObjectType.INDEX, pool_id=1, buffer_priority=1)
        db.add_object("CATALOG", pages(0.5), ObjectType.CATALOG, pool_id=0, buffer_priority=3)

    # ----------------------------------------------------------- transactions
    def _index_lookup(self, index_name: str, sampler: HotSpotSampler, txn: int) -> list[PageAccess]:
        """B-tree descent: a root/internal page plus a skew-sampled leaf page."""
        index = self.database[index_name]
        root = PageAccess(index, 0, write=False, txn=txn)
        leaf = PageAccess(index, sampler.sample(index, self._rng), write=False, txn=txn)
        return [root, leaf]

    def _new_order(self, txn: int) -> list[LogicalOp]:
        rng = self._rng
        db = self.database
        ops: list[LogicalOp] = []
        ops.extend(self._index_lookup("WAREHOUSE_PK", self._item_sampler, txn))
        ops.append(PageAccess(db["WAREHOUSE"], db["WAREHOUSE"].random_page_index(rng), txn=txn))
        ops.extend(self._index_lookup("DISTRICT_PK", self._item_sampler, txn))
        ops.append(PageAccess(db["DISTRICT"], db["DISTRICT"].random_page_index(rng), write=True, txn=txn))
        ops.extend(self._index_lookup("CUSTOMER_PK", self._customer_sampler, txn))
        ops.append(PageAccess(db["CUSTOMER"], self._customer_sampler.sample(db["CUSTOMER"], rng), txn=txn))
        # 5-15 order lines, each touching ITEM and updating STOCK.
        for _ in range(rng.randint(5, 15)):
            ops.extend(self._index_lookup("ITEM_PK", self._item_sampler, txn))
            ops.append(PageAccess(db["ITEM"], self._item_sampler.sample(db["ITEM"], rng), txn=txn))
            ops.extend(self._index_lookup("STOCK_PK", self._stock_sampler, txn))
            ops.append(PageAccess(db["STOCK"], self._stock_sampler.sample(db["STOCK"], rng), write=True, txn=txn))
            ops.extend(self._orderline_append.append(db, 1))
            ops.append(PageAccess(db["ORDER_LINE_PK"], db["ORDER_LINE_PK"].last_page_index(), write=True, txn=txn))
        ops.extend(self._orders_append.append(db, 1))
        ops.append(PageAccess(db["ORDERS_PK"], db["ORDERS_PK"].last_page_index(), write=True, txn=txn))
        ops.extend(self._neworder_append.append(db, 1))
        self._undelivered.append(db["ORDERS"].page_count - 1)
        return ops

    def _payment(self, txn: int) -> list[LogicalOp]:
        rng = self._rng
        db = self.database
        ops: list[LogicalOp] = []
        ops.append(PageAccess(db["WAREHOUSE"], db["WAREHOUSE"].random_page_index(rng), write=True, txn=txn))
        ops.append(PageAccess(db["DISTRICT"], db["DISTRICT"].random_page_index(rng), write=True, txn=txn))
        # 60% of payments select the customer by last name (secondary index).
        if rng.random() < 0.6:
            ops.extend(self._index_lookup("CUSTOMER_NAME_IDX", self._customer_sampler, txn))
        ops.extend(self._index_lookup("CUSTOMER_PK", self._customer_sampler, txn))
        ops.append(PageAccess(db["CUSTOMER"], self._customer_sampler.sample(db["CUSTOMER"], rng), write=True, txn=txn))
        ops.extend(self._history_append.append(db, 1))
        return ops

    def _order_status(self, txn: int) -> list[LogicalOp]:
        rng = self._rng
        db = self.database
        ops: list[LogicalOp] = []
        ops.extend(self._index_lookup("CUSTOMER_PK", self._customer_sampler, txn))
        ops.append(PageAccess(db["CUSTOMER"], self._customer_sampler.sample(db["CUSTOMER"], rng), txn=txn))
        ops.extend(self._index_lookup("ORDERS_CUST_IDX", self._customer_sampler, txn))
        # Read the customer's most recent order.  A random customer's last
        # order can be arbitrarily old, so this re-reads pages inserted long
        # ago (the "ORDERLINE reads" hint sets of the paper's Figure 3).
        order_page = db["ORDERS"].random_page_index(rng)
        ops.append(PageAccess(db["ORDERS"], order_page, txn=txn))
        line_ratio = max(1, db["ORDER_LINE"].page_count // max(1, db["ORDERS"].page_count))
        line_page = min(order_page * line_ratio, db["ORDER_LINE"].page_count - 1)
        for offset in range(2):
            ops.append(PageAccess(db["ORDER_LINE"], max(0, line_page - offset), txn=txn))
        return ops

    def _delivery(self, txn: int) -> list[LogicalOp]:
        rng = self._rng
        db = self.database
        ops: list[LogicalOp] = []
        ops.extend(self._index_lookup("NEW_ORDER_PK", self._item_sampler, txn))
        ops.append(PageAccess(db["NEW_ORDER"], db["NEW_ORDER"].random_page_index(rng), write=True, txn=txn))
        # Deliver up to 10 of the oldest undelivered orders (read & update
        # them), but only once a backlog has built up — so delivered orders
        # are old enough to have aged out of the first-tier buffer.
        deliverable = max(0, len(self._undelivered) - self._delivery_backlog)
        for _ in range(min(10, deliverable)):
            order_page = self._undelivered.popleft()
            order_page = min(order_page, db["ORDERS"].page_count - 1)
            ops.append(PageAccess(db["ORDERS"], order_page, write=True, txn=txn))
            line_page = min(order_page * 5, db["ORDER_LINE"].page_count - 1)
            ops.append(PageAccess(db["ORDER_LINE"], line_page, write=True, txn=txn))
        ops.extend(self._index_lookup("CUSTOMER_PK", self._customer_sampler, txn))
        ops.append(PageAccess(db["CUSTOMER"], self._customer_sampler.sample(db["CUSTOMER"], rng), write=True, txn=txn))
        return ops

    def _stock_level(self, txn: int) -> list[LogicalOp]:
        rng = self._rng
        db = self.database
        ops: list[LogicalOp] = []
        ops.append(PageAccess(db["DISTRICT"], db["DISTRICT"].random_page_index(rng), txn=txn))
        # Examine the most recent order lines and the stock of their items.
        tail = db["ORDER_LINE"].page_count - 1
        for offset in range(rng.randint(4, 8)):
            ops.append(PageAccess(db["ORDER_LINE"], max(0, tail - offset), txn=txn))
            ops.extend(self._index_lookup("STOCK_PK", self._stock_sampler, txn))
            ops.append(PageAccess(db["STOCK"], self._stock_sampler.sample(db["STOCK"], rng), txn=txn))
        return ops

    # --------------------------------------------------------------- driving
    def next_transaction(self) -> list[LogicalOp]:
        """Generate the logical operations of one transaction."""
        self._txn_counter += 1
        txn = self._txn_counter
        roll = self._rng.random()
        threshold = 0.0
        for name, fraction in TPCC_TRANSACTION_MIX.items():
            threshold += fraction
            if roll < threshold:
                return getattr(self, f"_{name}")(txn)
        return self._stock_level(txn)

    def operations(self, transactions: int) -> Iterator[LogicalOp]:
        """Yield the logical operations of *transactions* consecutive transactions."""
        for _ in range(transactions):
            yield from self.next_transaction()

    @property
    def transactions_generated(self) -> int:
        return self._txn_counter
