"""Binary trace serialization: compact, streamable, dictionary-encoded.

This is the storage format behind the on-disk trace cache
(:mod:`repro.trace.cache`).  Like the text format (:mod:`repro.trace.io`) it
dictionary-encodes hint sets — a trace has millions of requests but only tens
or hundreds of distinct hint sets — but it stores requests as varint-packed
binary records grouped into length-prefixed blocks, so that

* a :class:`BinaryTraceWriter` can stream requests to disk as a workload
  generator produces them, without ever materializing the request list; and
* a :class:`StreamedTrace` can replay the file chunk-by-chunk with bounded
  memory, re-iterably, which is what the shared-replay engine consumes.

The precise byte layout (header, hint-set dictionary, block records, footer,
versioning) is specified in ``docs/trace-format.md``.  In short::

    magic "CLICBT" + version       header
    0x01 META                      JSON metadata (may repeat; later wins)
    0x02 HINTSET                   one dictionary entry per distinct hint set
    0x03 BLOCK                     a length-prefixed group of request records
    0x04 END                       request count + final metadata
    footer                         offset of END + trailing magic

The END/footer pair makes truncation detectable and lets a reader fetch the
trace's name, metadata and request count without scanning the blocks.
"""

from __future__ import annotations

import io as _io
import json
import struct
from pathlib import Path
from types import TracebackType
from typing import Any, BinaryIO, Iterable, Iterator

import numpy as np

from repro.core.hints import EMPTY_HINT_SET, HintSet
from repro.simulation.request import IORequest, RequestKind
from repro.trace.columnar import ColumnarChunk
from repro.trace.io import (
    TraceFormatError,
    _decode_hint_set as _decode_hint_set_json,
    _encode_hint_set as _encode_hint_set_json,
)
from repro.trace.records import Trace

__all__ = [
    "BinaryTraceWriter",
    "StreamedTrace",
    "write_trace_binary",
    "read_trace_binary",
    "open_trace_binary",
    "FORMAT_VERSION",
]

#: Version byte of the on-disk layout; bump on any incompatible change.
FORMAT_VERSION = 1

_MAGIC = b"CLICBT"                      # header: magic + version byte
_TRAILER_MAGIC = b"CLICEND\x00"
_FOOTER = struct.Struct("<Q8s")          # END-record offset + trailer magic

_TAG_META = 0x01
_TAG_HINTSET = 0x02
_TAG_BLOCK = 0x03
_TAG_END = 0x04

#: Requests per BLOCK record; also the reader's natural chunk size.
BLOCK_REQUESTS = 4096

_FLAG_WRITE = 0x01          # request is a write (reads have the bit clear)
_FLAG_CLIENT_ID = 0x02      # an explicit client id string follows the record


def _encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise ValueError(f"varint fields must be non-negative, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _encode_hint_set(hints: HintSet) -> bytes:
    # Same JSON payload as the text format (one codec for both formats).
    return _encode_hint_set_json(hints).encode("utf-8")


def _decode_hint_set(payload: bytes, offset: int) -> HintSet:
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"byte {offset}: malformed hint set definition: {payload[:80]!r}"
        ) from exc
    return _decode_hint_set_json(text, f"byte {offset}")


class BinaryTraceWriter:
    """Streams I/O requests into a binary trace file.

    Usage::

        with BinaryTraceWriter(path, name="DB2_C60", metadata={...}) as writer:
            for request in generator:
                writer.write(request)
            writer.update_metadata({"first_tier_hit_ratio": ratio})

    Requests are buffered into BLOCK records of :data:`BLOCK_REQUESTS`
    requests; hint-set dictionary entries are emitted on first use, before the
    block that references them.  ``update_metadata`` merges keys into the
    final META payload stored in the END record, so metadata only known after
    generation (e.g. the first-tier hit ratio) still lands in the file
    without a second pass.
    """

    def __init__(self, path: str | Path, name: str = "", metadata: dict | None = None):
        self._path = Path(path)
        self._handle = self._path.open("wb")
        self._handle.write(_MAGIC + bytes([FORMAT_VERSION]))
        self._hint_ids: dict[tuple, int] = {}
        self._pending: list[IORequest] = []
        self._count = 0
        self._closed = False
        self._final_metadata: dict = {}
        self._write_meta({"name": name, **(metadata or {})})

    # ------------------------------------------------------------------ write
    def write(self, request: IORequest) -> None:
        self._pending.append(request)
        self._count += 1
        if len(self._pending) >= BLOCK_REQUESTS:
            self._flush_block()

    def write_all(self, requests: Iterable[IORequest]) -> int:
        """Write every request of *requests*; returns the number written."""
        before = self._count
        for request in requests:
            self.write(request)
        return self._count - before

    def update_metadata(self, metadata: dict) -> None:
        """Merge *metadata* into the final META record written at close."""
        self._final_metadata.update(metadata)

    @property
    def request_count(self) -> int:
        return self._count

    # ------------------------------------------------------------------ close
    def close(self) -> None:
        if self._closed:
            return
        self._flush_block()
        end_offset = self._handle.tell()
        meta_payload = json.dumps(
            self._final_metadata, separators=(",", ":"), default=str
        ).encode("utf-8")
        self._handle.write(bytes([_TAG_END]))
        self._handle.write(_encode_varint(self._count))
        self._handle.write(_encode_varint(len(meta_payload)))
        self._handle.write(meta_payload)
        self._handle.write(_FOOTER.pack(end_offset, _TRAILER_MAGIC))
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if exc_type is not None:
            # Abandon a half-written file rather than sealing it with a
            # footer: readers must never mistake it for a complete trace.
            self._handle.close()
            self._closed = True
            self._path.unlink(missing_ok=True)
        else:
            self.close()

    # --------------------------------------------------------------- encoding
    def _write_meta(self, payload: dict) -> None:
        data = json.dumps(payload, separators=(",", ":"), default=str).encode("utf-8")
        self._handle.write(bytes([_TAG_META]) + _encode_varint(len(data)) + data)

    def _hint_ref(self, hints: HintSet) -> int:
        # identity(), not key(): the key omits hint names (they are implied
        # by a client's schema at simulation time), but the serialized
        # dictionary must distinguish sets that differ only in their names.
        key = hints.identity()
        if key == ("", (), ()):
            return 0
        hint_id = self._hint_ids.get(key)
        if hint_id is None:
            hint_id = len(self._hint_ids)
            self._hint_ids[key] = hint_id
            payload = _encode_hint_set(hints)
            # Dictionary entries precede the block that first references them.
            self._handle.write(
                bytes([_TAG_HINTSET])
                + _encode_varint(hint_id)
                + _encode_varint(len(payload))
                + payload
            )
        return hint_id + 1

    def _flush_block(self) -> None:
        if not self._pending:
            return
        encode_varint = _encode_varint
        body = bytearray()
        for request in self._pending:
            flags = 0 if request.is_read else _FLAG_WRITE
            client_bytes = b""
            if request.client_id != request.hints.client_id:
                flags |= _FLAG_CLIENT_ID
                client_bytes = request.client_id.encode("utf-8")
            hint_ref = self._hint_ref(request.hints)
            body.append(flags)
            body += encode_varint(request.page)
            body += encode_varint(hint_ref)
            if flags & _FLAG_CLIENT_ID:
                body += encode_varint(len(client_bytes))
                body += client_bytes
        self._handle.write(
            bytes([_TAG_BLOCK])
            + encode_varint(len(self._pending))
            + encode_varint(len(body))
        )
        self._handle.write(body)
        self._pending.clear()


def write_trace_binary(trace: Trace, path: str | Path) -> None:
    """Write an in-memory :class:`Trace` to *path* in the binary format."""
    with BinaryTraceWriter(path, name=trace.name, metadata=dict(trace.metadata)) as writer:
        writer.write_all(trace)


class StreamedTrace:
    """A re-iterable, chunked view of a binary trace file.

    Opening the file parses only the header and the END/footer records, so
    the name, metadata and request count are available immediately;
    iterating replays the BLOCK records one at a time, decoding at most one
    block (:data:`BLOCK_REQUESTS` requests) into memory at once.  Each
    iteration opens a fresh file handle, so the same object can feed an
    offline policy's preparation pass and the replay pass.

    The shared-replay engine recognises this object through its
    ``iter_requests`` method (the lazy request-source protocol).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.name: str = self.path.stem
        self.metadata: dict = {}
        self._request_count = 0
        self._read_summary()

    # ----------------------------------------------------------- introspection
    def __len__(self) -> int:
        return self._request_count

    @property
    def request_count(self) -> int:
        return self._request_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamedTrace({self.name!r}, {self._request_count} requests, "
            f"path={str(self.path)!r})"
        )

    # -------------------------------------------------------------- iteration
    def iter_requests(self) -> Iterator[IORequest]:
        """Yield every request in order, decoding one block at a time."""
        for chunk in self.iter_chunks():
            yield from chunk

    def __iter__(self) -> Iterator[IORequest]:
        return self.iter_requests()

    def iter_chunks(self) -> Iterator[list[IORequest]]:
        """Yield the trace as successive lists of requests (one per block)."""
        with self.path.open("rb") as handle:
            self._check_header(handle)
            hint_sets: dict[int, HintSet] = {}
            count = 0
            while True:
                offset = handle.tell()
                tag_byte = handle.read(1)
                if not tag_byte:
                    raise TraceFormatError(
                        f"{self.path.name}: unexpected end of file at byte {offset} "
                        "(missing END record — truncated trace?)"
                    )
                tag = tag_byte[0]
                if tag == _TAG_META:
                    length = _read_varint(handle, offset)
                    _read_exact(handle, length, offset)
                elif tag == _TAG_HINTSET:
                    hint_id = _read_varint(handle, offset)
                    length = _read_varint(handle, offset)
                    payload = _read_exact(handle, length, offset)
                    if hint_id != len(hint_sets):
                        raise TraceFormatError(
                            f"byte {offset}: hint set ids must be dense and "
                            f"ascending (got {hint_id}, expected {len(hint_sets)})"
                        )
                    hint_sets[hint_id] = _decode_hint_set(payload, offset)
                elif tag == _TAG_BLOCK:
                    expected = _read_varint(handle, offset)
                    length = _read_varint(handle, offset)
                    body = _read_exact(handle, length, offset)
                    chunk = _decode_block(body, expected, hint_sets, offset)
                    count += len(chunk)
                    yield chunk
                elif tag == _TAG_END:
                    declared = _read_varint(handle, offset)
                    if declared != count:
                        raise TraceFormatError(
                            f"byte {offset}: END declares {declared} requests "
                            f"but {count} were decoded"
                        )
                    return
                else:
                    raise TraceFormatError(
                        f"byte {offset}: unknown record tag 0x{tag:02x}"
                    )

    def iter_columnar(self) -> Iterator[ColumnarChunk]:
        """Yield the trace as :class:`ColumnarChunk` batches (one per BLOCK).

        The common block layout (no explicit client-id records) decodes
        straight into numpy arrays without materialising ``IORequest``
        objects; blocks carrying explicit client ids — and structurally
        suspect blocks — fall back to the scalar decoder and are lifted via
        :meth:`ColumnarChunk.from_requests`, so malformed traces raise the
        exact same :class:`TraceFormatError` as :meth:`iter_chunks` and
        well-formed ones decode to identical requests either way.
        """
        with self.path.open("rb") as handle:
            self._check_header(handle)
            hint_sets: dict[int, HintSet] = {}
            # Lookup tables shared by every chunk of this pass.  Position 0
            # of the hint table is the empty hint set, so the on-wire
            # hint_ref is usable as a table index directly.
            hint_table: tuple[HintSet, ...] = (EMPTY_HINT_SET,)
            clients: list[str] = [""]
            client_index: dict[str, int] = {"": 0}
            hint_client: list[int] = [0]
            hint_client_arr: Any = None
            client_table: tuple[str, ...] = ("",)
            count = 0
            while True:
                offset = handle.tell()
                tag_byte = handle.read(1)
                if not tag_byte:
                    raise TraceFormatError(
                        f"{self.path.name}: unexpected end of file at byte {offset} "
                        "(missing END record — truncated trace?)"
                    )
                tag = tag_byte[0]
                if tag == _TAG_META:
                    length = _read_varint(handle, offset)
                    _read_exact(handle, length, offset)
                elif tag == _TAG_HINTSET:
                    hint_id = _read_varint(handle, offset)
                    length = _read_varint(handle, offset)
                    payload = _read_exact(handle, length, offset)
                    if hint_id != len(hint_sets):
                        raise TraceFormatError(
                            f"byte {offset}: hint set ids must be dense and "
                            f"ascending (got {hint_id}, expected {len(hint_sets)})"
                        )
                    hints = _decode_hint_set(payload, offset)
                    hint_sets[hint_id] = hints
                    hint_table = hint_table + (hints,)
                    cidx = client_index.get(hints.client_id)
                    if cidx is None:
                        cidx = len(clients)
                        client_index[hints.client_id] = cidx
                        clients.append(hints.client_id)
                        client_table = tuple(clients)
                    hint_client.append(cidx)
                    hint_client_arr = None
                elif tag == _TAG_BLOCK:
                    expected = _read_varint(handle, offset)
                    length = _read_varint(handle, offset)
                    body = _read_exact(handle, length, offset)
                    columns = _decode_block_columnar(body, expected, offset)
                    if columns is None:
                        # Scalar fallback: explicit client ids (or a garbled
                        # block, which raises here exactly like iter_chunks).
                        requests = _decode_block(body, expected, hint_sets, offset)
                        chunk = ColumnarChunk.from_requests(requests, count)
                    else:
                        page, hint_ref, write = columns
                        if len(hint_ref) and int(hint_ref.max()) >= len(hint_table):
                            bad = int(hint_ref[hint_ref >= len(hint_table)][0])
                            raise TraceFormatError(
                                f"byte {offset}: block references undefined "
                                f"hint set id {bad - 1}"
                            )
                        if hint_client_arr is None:
                            hint_client_arr = np.array(hint_client, np.int64)
                        chunk = ColumnarChunk(
                            page,
                            write,
                            hint_ref,
                            hint_client_arr[hint_ref],
                            np.arange(count, count + expected, dtype=np.int64),
                            hint_table,
                            client_table,
                        )
                    count += len(chunk)
                    yield chunk
                elif tag == _TAG_END:
                    declared = _read_varint(handle, offset)
                    if declared != count:
                        raise TraceFormatError(
                            f"byte {offset}: END declares {declared} requests "
                            f"but {count} were decoded"
                        )
                    return
                else:
                    raise TraceFormatError(
                        f"byte {offset}: unknown record tag 0x{tag:02x}"
                    )

    # ----------------------------------------------------------------- loading
    def load(self) -> Trace:
        """Materialize the whole file as an in-memory :class:`Trace`."""
        requests: list[IORequest] = []
        for chunk in self.iter_chunks():
            requests.extend(chunk)
        return Trace(name=self.name, requests_list=requests, metadata=dict(self.metadata))

    # ---------------------------------------------------------------- parsing
    def _check_header(self, handle: BinaryIO) -> None:
        header = handle.read(len(_MAGIC) + 1)
        if len(header) < len(_MAGIC) + 1 or header[: len(_MAGIC)] != _MAGIC:
            raise TraceFormatError(f"{self.path.name}: not a binary trace (bad magic)")
        version = header[len(_MAGIC)]
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"{self.path.name}: unsupported binary trace version {version} "
                f"(this reader supports version {FORMAT_VERSION})"
            )

    def _read_summary(self) -> None:
        """Parse header, META records and the END record (via the footer)."""
        with self.path.open("rb") as handle:
            self._check_header(handle)
            handle.seek(0, _io.SEEK_END)
            size = handle.tell()
            if size < len(_MAGIC) + 1 + _FOOTER.size:
                raise TraceFormatError(f"{self.path.name}: truncated binary trace")
            handle.seek(size - _FOOTER.size)
            end_offset, trailer = _FOOTER.unpack(handle.read(_FOOTER.size))
            if trailer != _TRAILER_MAGIC:
                raise TraceFormatError(
                    f"{self.path.name}: bad trailer magic (truncated or not a "
                    "binary trace)"
                )
            if not (len(_MAGIC) + 1 <= end_offset < size - _FOOTER.size):
                raise TraceFormatError(
                    f"{self.path.name}: END offset {end_offset} out of range"
                )
            handle.seek(end_offset)
            tag = _read_exact(handle, 1, end_offset)[0]
            if tag != _TAG_END:
                raise TraceFormatError(
                    f"byte {end_offset}: footer does not point at an END record"
                )
            self._request_count = _read_varint(handle, end_offset)
            length = _read_varint(handle, end_offset)
            final_meta = _decode_meta(_read_exact(handle, length, end_offset), end_offset)

            # Initial META records sit between the header and the first
            # hint-set/block record; read them for the name + generation
            # metadata, then overlay the final metadata from the END record.
            handle.seek(len(_MAGIC) + 1)
            metadata: dict = {}
            while True:
                offset = handle.tell()
                peek = handle.read(1)
                if not peek or peek[0] != _TAG_META:
                    break
                length = _read_varint(handle, offset)
                metadata.update(_decode_meta(_read_exact(handle, length, offset), offset))
            metadata.update(final_meta)
            # The name lives in self.name only, so self.metadata matches the
            # metadata dict of the equivalent materialized Trace exactly.
            self.name = metadata.pop("name", self.path.stem) or self.path.stem
            self.metadata = metadata


def _decode_meta(payload: bytes, offset: int) -> dict:
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"byte {offset}: malformed metadata JSON") from exc
    if not isinstance(data, dict):
        raise TraceFormatError(f"byte {offset}: metadata must be a JSON object")
    return data


def _read_exact(handle: BinaryIO, length: int, offset: int) -> bytes:
    data = handle.read(length)
    if len(data) != length:
        raise TraceFormatError(
            f"byte {offset}: unexpected end of file (wanted {length} bytes, "
            f"got {len(data)} — truncated trace?)"
        )
    return data


def _read_varint(handle: BinaryIO, offset: int) -> int:
    result = 0
    shift = 0
    while True:
        byte = handle.read(1)
        if not byte:
            raise TraceFormatError(
                f"byte {offset}: unexpected end of file inside a varint"
            )
        value = byte[0]
        result |= (value & 0x7F) << shift
        if not value & 0x80:
            return result
        shift += 7
        if shift > 63:
            raise TraceFormatError(f"byte {offset}: varint longer than 9 bytes")


def _decode_block(
    body: bytes, expected: int, hint_sets: dict[int, HintSet], offset: int
) -> list[IORequest]:
    """Decode one BLOCK payload into a list of requests."""
    requests: list[IORequest] = []
    append = requests.append
    read_kind = RequestKind.READ
    write_kind = RequestKind.WRITE
    pos = 0
    end = len(body)
    try:
        while pos < end:
            flags = body[pos]
            pos += 1
            # Inline varint decode: the two-field common case stays tight.
            page = 0
            shift = 0
            while True:
                byte = body[pos]
                pos += 1
                page |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
            hint_ref = 0
            shift = 0
            while True:
                byte = body[pos]
                pos += 1
                hint_ref |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
            if hint_ref == 0:
                hints = EMPTY_HINT_SET
            else:
                hints = hint_sets[hint_ref - 1]
            if flags & _FLAG_CLIENT_ID:
                length = 0
                shift = 0
                while True:
                    byte = body[pos]
                    pos += 1
                    length |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                if pos + length > end:
                    raise IndexError(pos)
                client_id = body[pos : pos + length].decode("utf-8")
                pos += length
            else:
                client_id = hints.client_id
            append(
                IORequest(
                    page=page,
                    kind=write_kind if flags & _FLAG_WRITE else read_kind,
                    hints=hints,
                    client_id=client_id,
                )
            )
    except KeyError as exc:
        raise TraceFormatError(
            f"byte {offset}: block references undefined hint set id {exc.args[0]}"
        ) from exc
    except IndexError as exc:
        raise TraceFormatError(
            f"byte {offset}: garbled block record (ran off the end of the block)"
        ) from exc
    if pos != end or len(requests) != expected:
        raise TraceFormatError(
            f"byte {offset}: block declared {expected} requests in {end} bytes "
            f"but decoded {len(requests)} using {pos}"
        )
    return requests


def _decode_varint_column(arr: Any, starts: Any, ends: Any) -> Any:
    """Decode one varint per ``[start, end]`` span of *arr* into int64.

    Returns None when any varint exceeds 8 bytes (56 bits of payload): the
    value might not fit an int64 lane, so the caller must use the scalar
    decoder, which carries arbitrary-precision Python ints.
    """
    lengths = ends - starts + 1
    max_len = int(lengths.max())
    if max_len > 8:
        return None
    values = (arr[starts] & 0x7F).astype(np.int64)
    for position in range(1, max_len):
        mask = lengths > position
        values[mask] |= (
            arr[starts[mask] + position].astype(np.int64) & 0x7F
        ) << (7 * position)
    return values


def _decode_block_columnar(
    body: bytes, expected: int, offset: int
) -> tuple[Any, Any, Any] | None:
    """Vectorised BLOCK decode into ``(page, hint_ref, write)`` columns.

    Exploits the record grammar: the flags byte and every varint terminator
    byte have bit 7 clear, while varint continuation bytes have it set.  A
    record without :data:`_FLAG_CLIENT_ID` is therefore exactly three
    "units" — flags, page, hint_ref — whose last bytes are the block's
    clear-bit positions, three per record, with each record's first unit
    (the flags byte, a unit of length one) starting right after the
    previous record.  Any block violating that shape — explicit client-id
    records, truncated records, oversized varints — returns None and is
    handled by the scalar decoder (which raises the canonical
    :class:`TraceFormatError` for genuinely garbled input).
    """
    if expected == 0 or not body:
        return None
    arr = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(arr < 0x80)
    if ends.size != 3 * expected:
        return None
    flags_pos = ends[0::3]
    page_end = ends[1::3]
    hint_end = ends[2::3]
    starts = np.empty_like(flags_pos)
    starts[0] = 0
    starts[1:] = hint_end[:-1] + 1
    if int(hint_end[-1]) != arr.size - 1 or not np.array_equal(flags_pos, starts):
        return None
    flags = arr[flags_pos]
    if bool((flags & _FLAG_CLIENT_ID).any()):
        return None
    page = _decode_varint_column(arr, flags_pos + 1, page_end)
    if page is None:
        return None
    hint_ref = _decode_varint_column(arr, page_end + 1, hint_end)
    if hint_ref is None:
        return None
    write = (flags & _FLAG_WRITE) != 0
    return page, hint_ref, write


def open_trace_binary(path: str | Path) -> StreamedTrace:
    """Open a binary trace for streaming replay (see :class:`StreamedTrace`)."""
    return StreamedTrace(path)


def read_trace_binary(path: str | Path) -> Trace:
    """Read a binary trace fully into memory as a :class:`Trace`."""
    return StreamedTrace(path).load()
