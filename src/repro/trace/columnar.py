"""Columnar batch representation of a request stream.

A :class:`ColumnarChunk` carries one decoded trace block as parallel numpy
arrays — page, op, hint-dictionary id, client-id index, sequence number —
instead of a list of :class:`~repro.simulation.request.IORequest` objects.
It is the unit of work of the columnar replay path: the binary trace reader
(:meth:`repro.trace.binio.StreamedTrace.iter_columnar`) decodes straight
into chunks, batch policy kernels (:meth:`repro.cache.base.CachePolicy.
batch_access`) consume them, and batch-aware observers
(:meth:`repro.simulation.observers.ReplayObserver.on_batch`) account them
without materialising per-request objects.

Chunks are the engine's only unit of replay.  Sources without a columnar
decoder (request lists, plain ``iter_requests()`` streams) are lifted with
:func:`columnar_chunks` / :meth:`ColumnarChunk.from_requests`, and
:meth:`ColumnarChunk.requests` materialises the exact equivalent request
list (memoised, so at most one materialisation per chunk serves every
scalar consumer).  The scalar ``access()``/``on_outcome`` loops over those
requests remain the bit-identical reference; batch kernels and batch
observers must never change a single counter.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.core.hints import EMPTY_HINT_SET, HintSet
from repro.simulation.request import IORequest, RequestKind

__all__ = [
    "COLUMNAR_CHUNK_REQUESTS",
    "ColumnarChunk",
    "columnar_chunks",
]

#: Requests per chunk produced by :func:`columnar_chunks`; matches the
#: binary trace BLOCK size so lifted and decoded sources batch identically.
COLUMNAR_CHUNK_REQUESTS = 4096

#: Column arrays (numpy ndarrays) are annotated loosely.
Array = Any

_EMPTY_IDENTITY = ("", (), ())


class ColumnarChunk:
    """One batch of requests as parallel columns.

    Columns (all the same length):

    ``page``
        int64 — page number of each request.
    ``write``
        bool — the op column; True for writes, False for reads.
    ``hint_id``
        int64 — index into ``hint_sets``; 0 is always the empty hint set.
    ``client_idx``
        int64 — index into ``clients``.
    ``seq``
        int64 — global sequence number of each request.  Engine-produced
        chunks are contiguous (``seq[i] = seq_base + i``); gathered
        sub-chunks (e.g. per-shard splits) are not.

    ``hint_sets`` and ``clients`` are lookup tables shared across every
    chunk of a stream; they may contain entries a particular chunk never
    references.
    """

    __slots__ = (
        "page",
        "write",
        "hint_id",
        "client_idx",
        "seq",
        "hint_sets",
        "clients",
        "_requests",
        "_seq_list",
    )

    def __init__(
        self,
        page: Array,
        write: Array,
        hint_id: Array,
        client_idx: Array,
        seq: Array,
        hint_sets: tuple[HintSet, ...],
        clients: tuple[str, ...],
    ):
        self.page = page
        self.write = write
        self.hint_id = hint_id
        self.client_idx = client_idx
        self.seq = seq
        self.hint_sets = hint_sets
        self.clients = clients
        self._requests: list[IORequest] | None = None
        self._seq_list: list[int] | None = None

    # ------------------------------------------------------------- properties
    def __len__(self) -> int:
        return len(self.page)

    @property
    def seq_base(self) -> int:
        """Sequence number of the first request (0 for an empty chunk)."""
        return int(self.seq[0]) if len(self.seq) else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarChunk({len(self)} requests, seq_base={self.seq_base}, "
            f"{len(self.clients)} clients, {len(self.hint_sets)} hint sets)"
        )

    # ------------------------------------------------------------- converters
    @classmethod
    def from_requests(
        cls, requests: Sequence[IORequest], start_seq: int = 0
    ) -> "ColumnarChunk":
        """Lift a request list into a chunk (the object-side converter).

        The resulting chunk memoises *requests* itself, so a follow-up
        :meth:`requests` call returns the original objects at zero cost.
        """
        n = len(requests)
        write_kind = RequestKind.WRITE
        page = np.fromiter([request.page for request in requests], np.int64, n)
        write = np.fromiter(
            [request.kind is write_kind for request in requests], np.bool_, n
        )
        # Hint sets dedupe by object first (C-speed dict passes), then the
        # few distinct objects dedupe by value, the empty set pinned to 0.
        hints = [request.hints for request in requests]
        object_ids = list(map(id, hints))
        first_object = dict(zip(object_ids, hints))
        position = {object_id: k for k, object_id in enumerate(first_object)}
        hint_sets: list[HintSet] = [EMPTY_HINT_SET]
        hint_index: dict[tuple, int] = {_EMPTY_IDENTITY: 0}
        remap = np.empty(len(first_object), np.int64)
        for k, hint_set in enumerate(first_object.values()):
            identity = hint_set.identity()
            idx = hint_index.get(identity)
            if idx is None:
                idx = hint_index[identity] = len(hint_sets)
                hint_sets.append(hint_set)
            remap[k] = idx
        hint_id = remap[np.fromiter(map(position.__getitem__, object_ids), np.int64, n)]
        client_ids = [request.client_id for request in requests]
        clients = {client: k for k, client in enumerate(dict.fromkeys(client_ids))}
        client_idx = np.fromiter(map(clients.__getitem__, client_ids), np.int64, n)
        seq = np.arange(start_seq, start_seq + n, dtype=np.int64)
        chunk = cls(
            page, write, hint_id, client_idx, seq, tuple(hint_sets), tuple(clients)
        )
        chunk._requests = list(requests)
        return chunk

    def requests(self) -> list[IORequest]:
        """Materialise the equivalent request list (memoised).

        The list is identical — field for field — to what the scalar
        decoder produces for the same records, so every scalar consumer
        (the scalar ``access()`` lift, per-outcome observer folds) sees
        exactly the reference inputs.
        """
        if self._requests is None:
            read_kind = RequestKind.READ
            write_kind = RequestKind.WRITE
            hint_sets = self.hint_sets
            clients = self.clients
            self._requests = [
                IORequest(
                    page=page,
                    kind=write_kind if write else read_kind,
                    hints=hint_sets[hint],
                    client_id=clients[client],
                )
                for page, write, hint, client in zip(
                    self.page.tolist(),
                    self.write.tolist(),
                    self.hint_id.tolist(),
                    self.client_idx.tolist(),
                )
            ]
        return self._requests

    def seq_list(self) -> list[int]:
        """The seq column as a Python list (memoised).

        The scalar-lifting default ``batch_access`` zips this with
        :meth:`requests`; memoising it at the chunk means N fallback
        policies sharing one chunk convert the column once, not N times.
        """
        if self._seq_list is None:
            self._seq_list = self.seq.tolist()
        return self._seq_list

    # ---------------------------------------------------------------- slicing
    def slice(self, start: int, stop: int) -> "ColumnarChunk":
        """Contiguous sub-chunk ``[start:stop)`` (array views, no copies)."""
        chunk = ColumnarChunk(
            self.page[start:stop],
            self.write[start:stop],
            self.hint_id[start:stop],
            self.client_idx[start:stop],
            self.seq[start:stop],
            self.hint_sets,
            self.clients,
        )
        if self._requests is not None:
            chunk._requests = self._requests[start:stop]
        if self._seq_list is not None:
            chunk._seq_list = self._seq_list[start:stop]
        return chunk

    def take(self, indices: Array) -> "ColumnarChunk":
        """Gathered sub-chunk (e.g. one shard's requests, original order)."""
        chunk = ColumnarChunk(
            self.page[indices],
            self.write[indices],
            self.hint_id[indices],
            self.client_idx[indices],
            self.seq[indices],
            self.hint_sets,
            self.clients,
        )
        if self._requests is not None:
            requests = self._requests
            chunk._requests = [requests[i] for i in indices.tolist()]
        return chunk

    def rebase(self, start_seq: int) -> "ColumnarChunk":
        """Copy with contiguous sequence numbers starting at *start_seq*.

        Requests carry no sequence number, so the memoised list (if any)
        stays valid and is shared.
        """
        chunk = ColumnarChunk(
            self.page,
            self.write,
            self.hint_id,
            self.client_idx,
            np.arange(start_seq, start_seq + len(self), dtype=np.int64),
            self.hint_sets,
            self.clients,
        )
        chunk._requests = self._requests
        return chunk

    # ------------------------------------------------------------- accounting
    def present_clients(self) -> list[tuple[str, Array]]:
        """Clients appearing in this chunk, in first-appearance order.

        Returns ``(client_id, mask)`` pairs where ``mask`` is the boolean
        row-selector for that client — the per-client accounting primitive
        of the columnar engine loop.
        """
        unique, first = np.unique(self.client_idx, return_index=True)
        order = np.argsort(first, kind="stable")
        out: list[tuple[str, Array]] = []
        for position in order.tolist():
            idx = int(unique[position])
            out.append((self.clients[idx], self.client_idx == idx))
        return out


def columnar_chunks(
    requests: Iterable[IORequest], start_seq: int = 0
) -> Iterator[ColumnarChunk]:
    """Lift a request stream into consecutive chunks of at most
    :data:`COLUMNAR_CHUNK_REQUESTS` requests, numbered from *start_seq*."""
    iterator = iter(requests)
    seq = start_seq
    while True:
        chunk = list(islice(iterator, COLUMNAR_CHUNK_REQUESTS))
        if not chunk:
            return
        yield ColumnarChunk.from_requests(chunk, seq)
        seq += len(chunk)
