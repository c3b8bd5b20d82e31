"""Byte-level pin on the cold trace generator.

Trace generation (workload model, first-tier buffer pools, hint mapping and
the binary encoder) is meant to be a pure function of the trace spec.  These
digests pin the exact cache-file bytes of three representative traces, so a
speed-up anywhere in that pipeline cannot silently change the traces every
experiment replays.  If a change is *supposed* to alter generated traces,
bump ``CACHE_KEY_VERSION`` in ``repro.trace.cache`` and update the digests.
"""

from __future__ import annotations

from hashlib import sha256

import pytest

from repro.trace.cache import TraceCache, TraceSpec

#: sha256 of each cache file at seed 3, 2,000 requests.
PINNED_DIGESTS = {
    # TPC-C on DB2: growing tables, two pools, cleaner and checkpoint writes.
    "DB2_C300": "dd681b0ce8586b441d9b4289a50c8dd56bf272a229b05d1dd1adc0024124a7dc",
    # The largest TPC-C configuration, with the longest warm-up.
    "DB2_C540": "de48284c5914ff0a9c1a3001a3d364a7937d86b32b046c74e3b59e2afd14394e",
    # TPC-H on MySQL: scans, single pool, MySQL hint schema.
    "MY_H65": "3c3d9afcef14dca17ae484a6297702e8a25a0acbe38dcf18d8b33283deb6fa6b",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_generated_trace_bytes_are_pinned(name, tmp_path):
    path = TraceCache(root=tmp_path).ensure(TraceSpec(name, seed=3, target_requests=2_000))
    assert sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS[name]
