"""Shared machinery for the golden experiment snapshots.

Every experiment in :mod:`repro.experiments.registry` is pinned by a tiny-N
golden fixture: the exact rows its runner reports under
:data:`GOLDEN_SETTINGS`, stored as JSON under ``tests/experiments/golden/``.
The test suite (``test_golden.py``) recomputes the rows and compares them
byte-for-byte after a JSON round trip, so *any* engine/statistics refactor
that changes reported numbers fails loudly instead of silently shifting the
science.

When a change is *supposed* to move the numbers (a bug fix, a new column),
regenerate the fixtures and review the diff like any other code change::

    PYTHONPATH=src python tools/regen_golden.py

(regenerate a subset with ``... regen_golden.py fig6 adaptivity``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.cli import render_result
from repro.experiments.common import ExperimentSettings
from repro.experiments.registry import get_experiment

__all__ = ["GOLDEN_DIR", "GOLDEN_SETTINGS", "compute_rows", "fixture_path"]

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small enough that the whole registry replays in seconds, large enough
#: that every experiment produces non-degenerate rows.  ``target_requests``
#: and ``seed`` deliberately match the experiment end-to-end tests' TINY
#: settings, so one pytest session generates each standard trace once (the
#: DB2_C540 trace, warm-up included, takes ~6 s) and every consumer shares it via
#: the session trace cache.  Changing anything here invalidates every
#: fixture — regenerate and review the diff.
GOLDEN_SETTINGS = ExperimentSettings(
    target_requests=4_000,
    seed=5,
    jobs=1,
    shard_counts=(1, 2),
)


def fixture_path(experiment_id: str) -> Path:
    return GOLDEN_DIR / f"{experiment_id}.json"


def compute_rows(experiment_id: str) -> list:
    """The experiment's reported rows under the golden settings.

    Uses the same rendering path as the CLI (:func:`render_result`), then
    normalizes through a JSON round trip so fixture comparison is exact
    (tuples become lists, floats keep their repr).
    """
    experiment = get_experiment(experiment_id)
    if experiment_id == "fig2":
        result = experiment.runner()
    else:
        result = experiment.runner(settings=GOLDEN_SETTINGS)
    _, rows = render_result(experiment_id, result)
    return json.loads(json.dumps(rows))
