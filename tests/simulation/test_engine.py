"""Tests for the shared-replay multi-policy engine and the parallel runner."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.cache.registry import available_policies, create_policy
from repro.core.config import CLICConfig
from repro.simulation.engine import (
    MultiPolicySimulator,
    ParallelSweepRunner,
    PolicySpec,
    SweepCell,
)
from repro.simulation.simulator import CacheSimulator
from repro.simulation.sweep import sweep_cache_sizes

from repro.core.hints import make_hint_set
from repro.simulation.costmodel import CostModel
from repro.simulation.queueing import QueueingModel
from repro.simulation.request import IORequest, RequestKind
from repro.workloads.arrivals import PoissonArrivals


def _mixed_trace(rng: random.Random, clients=("alpha",), n=4000):
    """Reads and writes over hot/cold pages, optionally from several clients."""
    requests = []
    hints_by_client = {
        c: (make_hint_set(c, object_id="hot"), make_hint_set(c, object_id="cold"))
        for c in clients
    }
    for i in range(n):
        client = clients[i % len(clients)]
        hot, cold = hints_by_client[client]
        if rng.random() < 0.6:
            page, hints = rng.randrange(60), hot
        else:
            page, hints = 60 + rng.randrange(1200), cold
        kind = RequestKind.READ if rng.random() < 0.8 else RequestKind.WRITE
        requests.append(IORequest(page=page, kind=kind, hints=hints))
    return requests


def _build_all_policies(capacity: int):
    return [create_policy(name, capacity=capacity) for name in available_policies()]


class TestMultiPolicySimulator:
    @pytest.mark.parametrize("clients", [("alpha",), ("alpha", "beta", "gamma")])
    def test_identical_to_independent_runs_for_every_policy(self, rng, clients):
        """The defining property: one shared pass == N independent simulations."""
        requests = _mixed_trace(rng, clients=clients)
        names = list(available_policies())

        independent = {}
        for name in names:
            policy = create_policy(name, capacity=80)
            independent[name] = CacheSimulator(policy).run(requests)

        shared = MultiPolicySimulator(_build_all_policies(80)).run(requests)

        for name, result in zip(names, shared):
            expected = independent[name]
            assert result.policy_name == expected.policy_name
            assert result.capacity == expected.capacity
            assert result.stats == expected.stats, name
            assert result.per_client == expected.per_client, name

    def test_same_policy_at_many_capacities_shares_one_pass(self, rng):
        """OPT instances share one future-read index without diverging."""
        requests = _mixed_trace(rng)
        capacities = [20, 40, 80, 160]
        independent = [
            CacheSimulator(create_policy("OPT", capacity=c)).run(requests)
            for c in capacities
        ]
        shared = MultiPolicySimulator(
            [create_policy("OPT", capacity=c) for c in capacities]
        ).run(requests)
        for expected, result in zip(independent, shared):
            assert result.stats == expected.stats
            assert result.per_client == expected.per_client

    def test_start_seq_matches_single_policy_simulator(self, rng):
        requests = _mixed_trace(rng, n=1500)
        expected = CacheSimulator(create_policy("OPT", capacity=50)).run(
            requests, start_seq=777
        )
        (result,) = MultiPolicySimulator([create_policy("OPT", capacity=50)]).run(
            requests, start_seq=777
        )
        assert result.stats == expected.stats

    def test_empty_policy_list(self, rng):
        assert MultiPolicySimulator([]).run(_mixed_trace(rng, n=10)) == []

    @pytest.mark.parametrize("boundary_offset", [0, 1])
    def test_second_client_appearing_at_chunk_boundary(self, rng, boundary_offset):
        """Per-client rows stay exact when a new client appears at a chunk edge.

        The replay loop counts per-client rows chunk by chunk.  Build a
        stream whose second client first appears exactly at the CHUNK_SIZE
        boundary (and, for contrast, one request after it): the shared pass
        must attribute every request to the right client, matching one
        CacheSimulator run per policy.
        """
        chunk = MultiPolicySimulator.CHUNK_SIZE
        alpha = _mixed_trace(rng, clients=("alpha",), n=chunk + boundary_offset)
        beta = _mixed_trace(rng, clients=("beta",), n=700)
        requests = alpha + beta

        names = ["LRU", "OPT", "CLIC"]
        shared = MultiPolicySimulator(
            [create_policy(name, capacity=80) for name in names]
        ).run(requests)
        for name, result in zip(names, shared):
            expected = CacheSimulator(create_policy(name, capacity=80)).run(requests)
            assert result.stats == expected.stats, name
            assert set(result.per_client) == {"alpha", "beta"}
            assert result.per_client == expected.per_client, name

    def test_accepts_iterator_streams(self, rng):
        requests = _mixed_trace(rng, n=1000)
        expected = CacheSimulator(create_policy("LRU", capacity=50)).run(requests)
        (result,) = MultiPolicySimulator([create_policy("LRU", capacity=50)]).run(
            iter(requests)
        )
        assert result.stats == expected.stats


class TestReferenceVsFused:
    """``columnar=False`` (scalar ``access()`` loops, per-outcome observer
    folds) and ``columnar=True`` (fused batch kernels and observers) are
    one simulation: every field of every result is identical."""

    @pytest.mark.parametrize("queue_device", ["ssd", "hdd"])
    def test_full_results_identical(self, rng, queue_device):
        # The client mix changes mid-run and mid-chunk: alpha alone, then
        # alpha and beta interleaved, then beta alone; 1,000-request
        # rolling windows cross every chunk.
        chunk = MultiPolicySimulator.CHUNK_SIZE
        requests = (
            _mixed_trace(rng, clients=("alpha",), n=chunk + 500)
            + _mixed_trace(rng, clients=("alpha", "beta"), n=3_000)
            + _mixed_trace(rng, clients=("beta",), n=1_700)
        )
        labels = ["LRU", "CLIC", "LFU", "OPT", "SHARDED[ARC]x2"]

        def build():
            return [create_policy(name, capacity=120) for name in labels[:-1]] + [
                create_policy("SHARDED", capacity=120, policy="ARC", shards=2)
            ]

        # An ssd queue takes the vectorised Lindley pass when fused; an hdd
        # queue is seek-priced and walks event by event either way.
        queueing = QueueingModel(
            arrivals=PoissonArrivals(rate_rps=15_000.0, seed=5), device=queue_device
        )
        runs = {
            columnar: MultiPolicySimulator(
                build(),
                cost_model=CostModel(device="hdd", page_span=1_300),
                rolling_window=1_000,
                queueing_model=queueing,
                columnar=columnar,
            ).run(requests)
            for columnar in (False, True)
        }
        for label, reference, fused in zip(labels, runs[False], runs[True]):
            assert set(fused.per_client) == {"alpha", "beta"}, label
            assert fused.rolling is not None and len(fused.rolling.windows) == 10
            assert dataclasses.replace(fused, elapsed_seconds=0.0) == (
                dataclasses.replace(reference, elapsed_seconds=0.0)
            ), label


class TestParallelSweepRunner:
    def test_jobs_do_not_change_results(self, rng):
        """jobs=1 and jobs=4 sweeps must be identical, point for point."""
        requests = _mixed_trace(rng, n=2000)
        serial = sweep_cache_sizes(
            requests, cache_sizes=[25, 50], policies=["LRU", "OPT", "CLIC"], jobs=1
        )
        parallel = sweep_cache_sizes(
            requests, cache_sizes=[25, 50], policies=["LRU", "OPT", "CLIC"], jobs=4
        )
        assert serial.labels() == parallel.labels()
        for label in serial.labels():
            assert serial.xs(label) == parallel.xs(label)
            for p_serial, p_parallel in zip(serial.series[label], parallel.series[label]):
                assert p_serial.result.stats == p_parallel.result.stats
                assert p_serial.result.per_client == p_parallel.result.per_client

    def test_cells_may_carry_their_own_streams(self, rng):
        stream_a = _mixed_trace(rng, n=800)
        stream_b = _mixed_trace(rng, n=800)
        spec = PolicySpec(label="LRU", name="LRU", capacity=40)
        cells = [
            SweepCell(x=0.0, specs=(spec,), requests=stream_a),
            SweepCell(x=1.0, specs=(spec,), requests=stream_b),
        ]
        sweep = ParallelSweepRunner(jobs=1).run(cells, parameter="stream")
        expected_a = CacheSimulator(create_policy("LRU", capacity=40)).run(stream_a)
        expected_b = CacheSimulator(create_policy("LRU", capacity=40)).run(stream_b)
        points = sweep.series["LRU"]
        assert points[0].result.stats == expected_a.stats
        assert points[1].result.stats == expected_b.stats

    def test_missing_stream_is_an_error(self):
        spec = PolicySpec(label="LRU", name="LRU", capacity=4)
        with pytest.raises(ValueError):
            ParallelSweepRunner(jobs=1).run(
                [SweepCell(x=0.0, specs=(spec,))], parameter="x"
            )

    def test_unpicklable_factory_falls_back_to_serial(self, rng):
        requests = _mixed_trace(rng, n=500)
        spec = PolicySpec(
            label="LRU", factory=lambda: create_policy("LRU", capacity=30)
        )
        runner = ParallelSweepRunner(requests, jobs=4)
        cells = [SweepCell(x=0.0, specs=(spec,)), SweepCell(x=1.0, specs=(spec,))]
        with pytest.warns(RuntimeWarning, match="serial"):
            sweep = runner.run(cells, parameter="x")
        expected = CacheSimulator(create_policy("LRU", capacity=30)).run(requests)
        assert sweep.series["LRU"][0].result.stats == expected.stats

    def test_unpicklable_stream_falls_back_to_serial(self, rng):
        """A stream the pool cannot pickle degrades to serial, not a crash."""
        requests = _mixed_trace(rng, n=400)
        poisoned = requests + [
            IORequest(
                page=1,
                kind=RequestKind.READ,
                hints=make_hint_set("c", f=lambda: None),  # unpicklable value
            )
        ]
        spec = PolicySpec(label="LRU", name="LRU", capacity=30)
        cells = [
            SweepCell(x=0.0, specs=(spec,), requests=poisoned),
            SweepCell(x=1.0, specs=(spec,), requests=poisoned),
        ]
        with pytest.warns(RuntimeWarning, match="serial"):
            sweep = ParallelSweepRunner(jobs=2).run(cells, parameter="x")
        assert len(sweep.series["LRU"]) == 2

    def test_clic_config_cells_survive_pickling(self, rng):
        """CLIC cells (config kwargs) run under worker processes."""
        requests = _mixed_trace(rng, n=600)
        config = CLICConfig(window_size=300, charge_metadata=False)
        spec = PolicySpec(
            label="CLIC", name="CLIC", capacity=30, kwargs={"config": config}
        )
        sweep = ParallelSweepRunner(requests, jobs=2).run(
            [SweepCell(x=0.0, specs=(spec,)), SweepCell(x=1.0, specs=(spec,))],
            parameter="x",
        )
        assert len(sweep.series["CLIC"]) == 2
        assert sweep.series["CLIC"][0].result.stats == sweep.series["CLIC"][1].result.stats


class TestPolicySpec:
    def test_requires_factory_or_name(self):
        with pytest.raises(ValueError):
            PolicySpec(label="broken").build()

    def test_builds_from_registry(self):
        policy = PolicySpec(label="LRU", name="LRU", capacity=7).build()
        assert policy.capacity == 7


class TestEnsureStreams:
    """Pre-materialization dedup: equal lazy sources are ensured once."""

    class CountingSpec:
        """A hashable stand-in for TraceSpec: equal keys share one ensure()."""

        calls: dict[str, int] = {}

        def __init__(self, key: str):
            self.key = key

        def __eq__(self, other):
            return isinstance(other, type(self)) and self.key == other.key

        def __hash__(self):
            return hash(self.key)

        def iter_requests(self):  # pragma: no cover - never replayed here
            return iter(())

        def ensure(self):
            type(self).calls[self.key] = type(self).calls.get(self.key, 0) + 1

    def setup_method(self):
        self.CountingSpec.calls = {}

    def test_equal_specs_are_ensured_once(self):
        from repro.simulation.engine import _ensure_streams

        specs = [self.CountingSpec("a") for _ in range(5)]
        specs += [self.CountingSpec("b"), None, None]
        _ensure_streams(specs)
        assert self.CountingSpec.calls == {"a": 1, "b": 1}

    def test_unhashable_streams_dedup_by_identity(self):
        from repro.simulation.engine import _ensure_streams

        class UnhashableSpec(self.CountingSpec):
            __hash__ = None

        first, second = UnhashableSpec("u1"), UnhashableSpec("u2")
        _ensure_streams([first, first, second])
        assert self.CountingSpec.calls == {"u1": 1, "u2": 1}

    def test_plain_request_lists_are_skipped(self):
        from repro.simulation.engine import _ensure_streams

        _ensure_streams([[], None])  # nothing with ensure(): no error, no calls
        assert self.CountingSpec.calls == {}
