"""Tests for the trace-driven cache simulator."""

from __future__ import annotations

import pytest

from repro.cache.lru import LRUPolicy
from repro.cache.opt import OPTPolicy
from repro.simulation.simulator import CacheSimulator, simulate

from tests.conftest import hint, rd, wr


class TestCacheSimulator:
    def test_read_hit_ratio_computed(self):
        requests = [rd(1), rd(1), rd(2), rd(1)]
        result = CacheSimulator(LRUPolicy(2)).run(requests)
        assert result.stats.read_requests == 4
        assert result.stats.read_hits == 2
        assert result.read_hit_ratio == pytest.approx(0.5)

    def test_sequence_numbers_are_consecutive(self):
        seen = []

        class Recorder(LRUPolicy):
            def access(self, request, seq):
                seen.append(seq)
                return super().access(request, seq)

        CacheSimulator(Recorder(4)).run([rd(1), rd(2), rd(3)])
        assert seen == [0, 1, 2]

    def test_start_seq_offsets_numbering(self):
        seen = []

        class Recorder(LRUPolicy):
            def access(self, request, seq):
                seen.append(seq)
                return super().access(request, seq)

        CacheSimulator(Recorder(4)).run([rd(1), rd(2)], start_seq=100)
        assert seen == [100, 101]

    def test_offline_policy_gets_prepared(self):
        requests = [rd(1), rd(2), rd(1)]
        result = CacheSimulator(OPTPolicy(1)).run(requests)
        assert result.stats.read_hits == 1

    def test_per_client_statistics(self):
        a = hint("client-a", t="x")
        b = hint("client-b", t="x")
        requests = [rd(1, a), rd(1, a), rd(100, b), rd(200, b)]
        result = CacheSimulator(LRUPolicy(4)).run(requests)
        assert result.client_read_hit_ratio("client-a") == pytest.approx(0.5)
        assert result.client_read_hit_ratio("client-b") == 0.0
        assert result.client_read_hit_ratio("unknown") == 0.0

    def test_result_reports_policy_and_capacity(self):
        result = simulate(LRUPolicy(7), [rd(1), wr(2)])
        assert result.policy_name == "LRU"
        assert result.capacity == 7
        assert result.requests == 2

    def test_result_as_dict_and_str(self):
        result = simulate(LRUPolicy(2), [rd(1), rd(1)])
        d = result.as_dict()
        assert d["policy"] == "LRU"
        assert "read_hit_ratio" in d
        assert "LRU" in str(result)

    def test_empty_request_stream(self):
        result = simulate(LRUPolicy(2), [])
        assert result.requests == 0
        assert result.read_hit_ratio == 0.0

    def test_generator_input_accepted(self):
        result = simulate(LRUPolicy(2), (rd(i % 3) for i in range(10)))
        assert result.requests == 10
