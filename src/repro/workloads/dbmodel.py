"""Synthetic database model: objects (tables/indexes) laid out over pages.

The paper's storage clients are database systems; their hint values (pool id,
object id, object type, file id) describe the database object each page
belongs to.  This module models a database as a collection of named objects
sharing one flat page address space.  Each object keeps a page table: the
absolute page ids it owns, in logical order.  Objects can grow over time (the
TPC-C tables grow during a run, as the paper notes under Figure 5); growth
allocates fresh pages at the end of the address space, so a grown object's
pages are not contiguous, but its page table still answers ``page(i)`` in
constant time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["ObjectType", "DatabaseObject", "SyntheticDatabase"]


class ObjectType:
    """Object type identifiers used for the DB2 ``object_type_id`` hint."""

    TABLE = 0
    INDEX = 1
    LOB = 2
    TEMP = 3
    CATALOG = 4
    LOG = 5

    NAMES = {
        TABLE: "table",
        INDEX: "index",
        LOB: "lob",
        TEMP: "temp",
        CATALOG: "catalog",
        LOG: "log",
    }


@dataclass
class DatabaseObject:
    """One database object (a table, an index, ...) and the pages it owns."""

    name: str
    object_id: int
    object_type_id: int
    pool_id: int
    file_id: int
    buffer_priority: int = 1
    #: Absolute page ids in logical order (the object's page table).
    page_table: list[int] = field(default_factory=list, repr=False)

    @property
    def page_count(self) -> int:
        return len(self.page_table)

    @property
    def object_type_name(self) -> str:
        return ObjectType.NAMES.get(self.object_type_id, str(self.object_type_id))

    def page(self, index: int) -> int:
        """Absolute page id of the object's *index*-th page (0-based)."""
        if index < 0:
            raise IndexError(f"negative page index {index}")
        try:
            return self.page_table[index]
        except IndexError:
            raise IndexError(
                f"{self.name}: page index {index} out of range ({self.page_count} pages)"
            ) from None

    def pages(self) -> list[int]:
        """All absolute page ids of the object, in logical order."""
        return list(self.page_table)

    def random_page_index(self, rng: random.Random) -> int:
        """Uniformly random logical page index."""
        if self.page_count == 0:
            raise ValueError(f"{self.name} has no pages")
        return rng.randrange(self.page_count)

    def last_page_index(self) -> int:
        if self.page_count == 0:
            raise ValueError(f"{self.name} has no pages")
        return self.page_count - 1


class SyntheticDatabase:
    """A collection of database objects sharing one flat page address space."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._objects: dict[str, DatabaseObject] = {}
        self._next_page = 0
        self._next_object_id = 0
        self._next_file_id = 0

    # ------------------------------------------------------------- creation
    def add_object(
        self,
        name: str,
        pages: int,
        object_type_id: int = ObjectType.TABLE,
        pool_id: int = 0,
        file_id: int | None = None,
        buffer_priority: int = 1,
    ) -> DatabaseObject:
        """Create an object with an initial allocation of *pages* pages."""
        if name in self._objects:
            raise ValueError(f"object {name!r} already exists")
        if pages < 0:
            raise ValueError("pages must be >= 0")
        obj = DatabaseObject(
            name=name,
            object_id=self._next_object_id,
            object_type_id=object_type_id,
            pool_id=pool_id,
            file_id=self._next_file_id if file_id is None else file_id,
            buffer_priority=buffer_priority,
        )
        self._next_object_id += 1
        if file_id is None:
            self._next_file_id += 1
        self._allocate(obj, pages)
        self._objects[name] = obj
        return obj

    def grow(self, obj: DatabaseObject, pages: int) -> None:
        """Append *pages* freshly allocated pages to *obj* (TPC-C growth)."""
        if pages <= 0:
            raise ValueError("pages must be positive")
        if obj.name not in self._objects:
            raise KeyError(f"object {obj.name!r} does not belong to this database")
        self._allocate(obj, pages)

    def _allocate(self, obj: DatabaseObject, pages: int) -> None:
        """Append *pages* fresh pages from the end of the address space to *obj*."""
        obj.page_table.extend(range(self._next_page, self._next_page + pages))
        self._next_page += pages

    # ------------------------------------------------------------ inspection
    def __getitem__(self, name: str) -> DatabaseObject:
        return self._objects[name]

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def objects(self) -> list[DatabaseObject]:
        return list(self._objects.values())

    def object_count(self) -> int:
        return len(self._objects)

    @property
    def total_pages(self) -> int:
        """Total number of allocated pages (the paper's "DB Size (pages)")."""
        return self._next_page

    def pool_ids(self) -> set[int]:
        return {obj.pool_id for obj in self._objects.values()}

    def objects_in_pool(self, pool_id: int) -> list[DatabaseObject]:
        return [obj for obj in self._objects.values() if obj.pool_id == pool_id]

    def describe(self) -> list[dict]:
        """Tabular description of the layout (useful in examples and docs)."""
        return [
            {
                "object": obj.name,
                "object_id": obj.object_id,
                "type": obj.object_type_name,
                "pool_id": obj.pool_id,
                "file_id": obj.file_id,
                "pages": obj.page_count,
            }
            for obj in self._objects.values()
        ]
