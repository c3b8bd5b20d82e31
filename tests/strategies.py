"""Shared hypothesis strategies for the whole test suite.

One home for the generators that property tests across the suite used to
re-implement ad hoc: hint sets, I/O requests, request streams, traces, CLIC
configurations and policy capacities.  Import from here instead of copying —
a richer generator improves every property test at once, and shrinking
behaviour stays consistent across files.

Two families of hint-set/request strategies exist on purpose:

* the **simple** ones (:func:`hint_sets`, :func:`io_requests`,
  :func:`request_streams`) draw from small fixed domains, which is what
  policy/statistics invariants want — small page and hint spaces force
  collisions, evictions and re-references;
* the **rich** ones (:func:`rich_hint_sets`, :func:`rich_io_requests`,
  :func:`traces`) explore serialization-facing edge cases — empty hint
  sets, unicode values, huge page ids, explicit client-id overrides.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.config import CLICConfig
from repro.core.hints import EMPTY_HINT_SET, HintSet
from repro.simulation.request import IORequest, RequestKind, read_request, write_request
from repro.trace.columnar import ColumnarChunk
from repro.trace.records import Trace

__all__ = [
    "capacities",
    "chunked",
    "clic_configs",
    "hint_sets",
    "hint_values",
    "io_requests",
    "page_hint_event_streams",
    "priced_streams",
    "request_streams",
    "rich_hint_sets",
    "rich_hint_values",
    "rich_io_requests",
    "traces",
]

#: Small mixed-type hint values: collisions are likely, which is what the
#: statistics/policy invariants need.
hint_values = st.one_of(
    st.integers(min_value=0, max_value=5), st.sampled_from(["read", "write", "x"])
)

#: Serialization-facing hint values: negatives, large ints, text, booleans.
rich_hint_values = st.one_of(
    st.integers(min_value=-5, max_value=10_000),
    st.text(max_size=8),
    st.booleans(),
)

#: Cache capacities small enough that generated streams overflow them.
capacities = st.integers(min_value=1, max_value=20)


@st.composite
def hint_sets(
    draw,
    clients: tuple[str, ...] = ("a", "b"),
    names: tuple[str, ...] = ("kind", "obj"),
    values=hint_values,
) -> HintSet:
    """A small-domain hint set (fixed hint names, tiny value space)."""
    return HintSet(
        client_id=draw(st.sampled_from(clients)),
        names=tuple(names),
        values=tuple(draw(values) for _ in names),
    )


@st.composite
def rich_hint_sets(draw) -> HintSet:
    """A serialization-facing hint set (variable names, rich values, EMPTY)."""
    client = draw(st.sampled_from(["db2", "mysql", "c-0", ""]))
    if client == "":
        return EMPTY_HINT_SET
    names = draw(
        st.lists(
            st.sampled_from(["pool_id", "object_id", "request_type", "fix_count"]),
            unique=True,
            max_size=4,
        )
    )
    values = tuple(draw(rich_hint_values) for _ in names)
    return HintSet(client_id=client, names=tuple(names), values=values)


@st.composite
def io_requests(draw, max_page: int = 40, hints=None) -> IORequest:
    """A small-domain request: page ids collide, reads and writes mix."""
    return IORequest(
        page=draw(st.integers(min_value=0, max_value=max_page)),
        kind=draw(st.sampled_from([RequestKind.READ, RequestKind.WRITE])),
        hints=draw(hints if hints is not None else hint_sets()),
    )


@st.composite
def rich_io_requests(draw) -> IORequest:
    """A serialization-facing request: huge pages, client-id overrides."""
    hints = draw(rich_hint_sets())
    return IORequest(
        page=draw(st.integers(min_value=0, max_value=2**40)),
        kind=draw(st.sampled_from([RequestKind.READ, RequestKind.WRITE])),
        hints=hints,
        client_id=draw(st.sampled_from(["", "override-client"])),
    )


def request_streams(
    min_size: int = 1, max_size: int = 300, max_page: int = 40
) -> st.SearchStrategy[list[IORequest]]:
    """Lists of small-domain requests (the standard policy-invariant input)."""
    return st.lists(io_requests(max_page=max_page), min_size=min_size, max_size=max_size)


def traces(max_requests: int = 60) -> st.SearchStrategy[Trace]:
    """In-memory traces for round-trip tests (rich requests + metadata)."""
    return st.builds(
        Trace,
        name=st.text(min_size=1, max_size=12),
        requests_list=st.lists(rich_io_requests(), max_size=max_requests),
        metadata=st.dictionaries(
            st.text(min_size=1, max_size=8).filter(lambda k: k != "name"),
            st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
            max_size=4,
        ),
    )


@st.composite
def clic_configs(draw) -> CLICConfig:
    """Small CLIC configurations: short windows force priority re-estimates."""
    return CLICConfig(
        window_size=draw(st.integers(min_value=5, max_value=50)),
        decay=draw(st.sampled_from([1.0, 0.9, 0.5])),
        outqueue_factor=draw(st.sampled_from([1.0, 2.0, 5.0])),
        charge_metadata=False,
    )


def page_hint_event_streams(
    max_page: int = 11,
    hint_count: int = 3,
    min_size: int = 1,
    max_size: int = 250,
) -> st.SearchStrategy[list[tuple[int, int, bool]]]:
    """Streams of ``(page, hint index, is_read)`` events.

    For tests that build their requests from a fixed palette of hint sets
    (e.g. pinning CLIC's victim selection against a reference scan): the
    tuple form keeps shrinking readable.
    """
    events = st.tuples(
        st.integers(min_value=0, max_value=max_page),
        st.integers(min_value=0, max_value=hint_count - 1),
        st.booleans(),
    )
    return st.lists(events, min_size=min_size, max_size=max_size)


@st.composite
def priced_streams(draw, max_page: int = 320, max_size: int = 120):
    """``(requests, hits, cuts)`` for pricing and queueing properties.

    A read/write stream over three clients (so client routing has work),
    its hit bits — drawn independently of any cache, and sometimes all
    hits, so whole chunks never reach the device — and sorted chunk cut
    points for :func:`chunked` (repeated cuts give empty chunks).
    """
    n = draw(st.integers(min_value=0, max_value=max_size))
    pages = draw(st.lists(st.integers(0, max_page), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    clients = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    if draw(st.booleans()):
        hits = [True] * n
    else:
        hits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    requests = [
        (write_request if write else read_request)(page=page, client_id=client)
        for page, write, client in zip(pages, writes, clients)
    ]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    return requests, hits, cuts


def chunked(requests: list[IORequest], hits: list[bool], cuts: list[int]):
    """``(offset, chunk, hit column)`` per chunk of *requests* split at
    *cuts* (chunk sequence numbers continue from 0)."""
    bounds = [0, *cuts, len(requests)]
    for start, stop in zip(bounds, bounds[1:]):
        chunk = ColumnarChunk.from_requests(requests[start:stop], start)
        yield start, chunk, np.array(hits[start:stop], dtype=np.bool_)
