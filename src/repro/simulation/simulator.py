"""Trace-driven storage-server cache simulator (paper Section 6).

:class:`CacheSimulator` is the single-policy entry point: it numbers every
arriving request with a sequence number, feeds it to one
:class:`~repro.cache.base.CachePolicy`, and reports hit/miss statistics —
overall and per storage client.  The paper's headline metric is the server
cache *read hit ratio*: read hits / read requests.

There is exactly **one** replay loop in the codebase —
:class:`~repro.simulation.engine.MultiPolicySimulator` — and this class is a
thin wrapper over it for the N=1 case.  All accounting (stats, per-shard
breakdowns, service-time pricing, rolling series, custom observers) is the
engine's observer pipeline (:mod:`repro.simulation.observers`), so the two
entry points cannot drift: a :class:`CacheSimulator` run is *defined* as a
one-policy engine run.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.cache.base import CachePolicy
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import MultiPolicySimulator
from repro.simulation.metrics import SimulationResult
from repro.simulation.observers import ReplayObserver
from repro.simulation.queueing import QueueingModel
from repro.simulation.request import IORequest

__all__ = ["CacheSimulator", "simulate"]


class CacheSimulator:
    """Drives one cache policy with a stream of I/O requests.

    ``cost_model`` opts the run into service-time pricing
    (:mod:`repro.simulation.costmodel`): the result's ``latency`` (and, for
    sharded clusters, ``shard_latency``) fields are filled.

    ``rolling_window`` opts the run into windowed time-series accounting:
    the result's ``rolling`` field carries the per-window hit-ratio and
    eviction series (:class:`~repro.simulation.metrics.RollingMetrics`).

    ``queueing_model`` opts the run into open-loop queueing
    (:mod:`repro.simulation.queueing`): the result's ``queueing`` field
    carries queueing-delay / sojourn / utilization accounting under the
    model's arrival process.

    ``observer_factories`` attaches custom observers
    (:class:`~repro.simulation.observers.ReplayObserver`): each factory is
    called ``factory(policy, start_seq)`` once per run; keep your own
    reference to the instance it returns to read it after the run.
    """

    def __init__(
        self,
        policy: CachePolicy,
        cost_model: CostModel | None = None,
        rolling_window: int | None = None,
        queueing_model: QueueingModel | None = None,
        observer_factories: Sequence[
            Callable[[CachePolicy, int], ReplayObserver]
        ] = (),
        columnar: bool = True,
    ):
        self._policy = policy
        self._engine = MultiPolicySimulator(
            [policy],
            cost_model=cost_model,
            rolling_window=rolling_window,
            queueing_model=queueing_model,
            observer_factories=observer_factories,
            columnar=columnar,
        )

    @property
    def policy(self) -> CachePolicy:
        return self._policy

    def run(
        self,
        requests: Iterable[IORequest],
        start_seq: int = 0,
    ) -> SimulationResult:
        """Replay *requests* through the policy and return the result.

        ``start_seq`` sets the sequence number of the first request; requests
        are numbered consecutively from there.
        """
        return self._engine.run(requests, start_seq)[0]


def simulate(
    policy: CachePolicy,
    requests: Iterable[IORequest],
    cost_model: CostModel | None = None,
    rolling_window: int | None = None,
    queueing_model: QueueingModel | None = None,
    columnar: bool = True,
) -> SimulationResult:
    """Convenience wrapper: ``CacheSimulator(policy).run(requests)``."""
    return CacheSimulator(
        policy,
        cost_model=cost_model,
        rolling_window=rolling_window,
        queueing_model=queueing_model,
        columnar=columnar,
    ).run(requests)
