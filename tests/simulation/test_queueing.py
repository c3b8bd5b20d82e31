"""Queueing-theory property tests for the open-loop simulation.

Two kinds of pinning:

* **closed forms** — the simulated queues must agree with textbook
  queueing theory where it applies: Little's law ``L = lambda W`` on a
  stationary Poisson stream, the M/D/1 mean wait
  ``Wq = rho s / (2 (1 - rho))``, exactly zero delay as the offered load
  vanishes, and pathwise-monotone delays in the offered load;
* **structural laws** — properties that hold for *every* stream, checked
  against independent in-test reference implementations: the Lindley
  recursion per shard (which is also what makes per-shard FCFS order
  checkable), work conservation (the drained ``N(t)`` integral equals the
  sojourn sum identically), and segment-merge/composition contracts.

Closed-form tolerances are calibrated, not guessed: the M/D/1 finite-run
bias at ``n = 40k`` requests is about -3% at ``rho = 0.3`` and ``-4%`` at
``rho = 0.6`` (it grows sharply toward saturation, which is why the test
stops at 0.6 with a 12% band).
"""

from __future__ import annotations

import math
import pickle
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.base import HIT, MISS_ADMIT, AccessOutcomeBatch
from repro.cache.registry import create_policy
from repro.simulation.costmodel import HISTOGRAM_BUCKET_BOUNDS_US, CostModel
from repro.simulation.queueing import QueueingModel, QueueingObserver, QueueingStats
from repro.simulation.request import RequestKind, read_request
from repro.simulation.simulator import simulate
from repro.workloads.arrivals import PoissonArrivals

from tests.strategies import chunked, priced_streams, request_streams

#: SSD pricing classes under write-through (see DEVICE_PROFILES["ssd"]):
#: the independent reference prices from these constants, not the cost model.
_READ_HIT_US = 5.0
_READ_MISS_US = 90.0
_WRITE_US = 90.0


def _reference_price_ns(request, hit: bool) -> int:
    """Service time on the production integer nanosecond clock."""
    if request.kind is RequestKind.READ:
        return 5_000 if hit else 90_000
    return 90_000


def _quantize_ns(t_us: float) -> int:
    """The production arrival quantisation: microseconds -> integer ns."""
    return int(t_us * 1000.0 + 0.5)


class _NoPolicy:
    """Stand-in policy for driving a QueueingObserver directly (no router)."""


def _drive(model: QueueingModel, requests, outcomes, start_seq: int = 0):
    """Feed synthetic (request, outcome) pairs through a fresh observer."""
    observer = QueueingObserver(model, _NoPolicy(), start_seq)
    observer.on_chunk(requests, start_seq, outcomes)
    return observer


def _all_miss_reads(n: int):
    """Distinct pages: every read misses against any demand-filled cache."""
    return [read_request(page=page) for page in range(n)]


def _poisson_model(rate_rps: float, seed: int = 11, **kwargs) -> QueueingModel:
    return QueueingModel(arrivals=PoissonArrivals(rate_rps, seed=seed), **kwargs)


def _run_all_miss(n: int, rate_rps: float, **model_kwargs) -> QueueingStats:
    requests = _all_miss_reads(n)
    observer = _drive(
        _poisson_model(rate_rps, **model_kwargs), requests, [MISS_ADMIT] * n
    )
    return observer.finalize()


class TestClosedForms:
    @pytest.mark.slow
    def test_littles_law_stationary_poisson(self):
        """L = lambda W on a stationary all-miss Poisson stream.

        L is the time-average number in system (the ``N(t)`` area cut at
        the last arrival); lambda and W are measured from the same run.
        Exact only in the infinite horizon — at n=20k the edge effects are
        well under 1%.
        """
        service_s = _READ_MISS_US * 1e-6
        stats = _run_all_miss(20_000, rate_rps=0.6 / service_s)
        lam = stats.arrival_rate_rps * 1e-6  # requests per microsecond
        expected = lam * stats.mean_sojourn_us
        assert stats.mean_in_system == pytest.approx(expected, rel=0.01)

    @pytest.mark.slow
    @pytest.mark.parametrize("rho", [0.3, 0.6])
    def test_md1_mean_wait_matches_closed_form(self, rho):
        """M/D/1: Wq = rho s / (2 (1 - rho)) for deterministic service.

        An all-miss read stream on SSD is exactly M/D/1 (every service
        takes ``_READ_MISS_US``).  Finite runs bias a few percent low
        (the empty-queue start and the cut at the last arrival), so the
        band is 12% and rho stays well below saturation.
        """
        service_s = _READ_MISS_US * 1e-6
        stats = _run_all_miss(40_000, rate_rps=rho / service_s)
        expected_wq = rho * _READ_MISS_US / (2.0 * (1.0 - rho))
        assert stats.mean_queue_delay_us == pytest.approx(expected_wq, rel=0.12)
        assert stats.utilization == pytest.approx(rho, rel=0.05)
        # Sojourn = wait + deterministic service, by construction.
        assert stats.mean_sojourn_us == pytest.approx(
            stats.mean_queue_delay_us + _READ_MISS_US
        )

    def test_vanishing_load_has_exactly_zero_delay(self):
        """As the offered load vanishes, every request finds an idle
        server: queueing delay is *exactly* 0.0 — including the p99,
        which is what the leading zero histogram bucket guarantees."""
        stats = _run_all_miss(300, rate_rps=1.0)  # mean gap 1s >> 90us service
        assert stats.total_delay_us == 0.0
        assert stats.mean_queue_delay_us == 0.0
        assert stats.p50_queue_delay_us == 0.0
        assert stats.p99_queue_delay_us == 0.0
        assert stats.total_sojourn_us == pytest.approx(stats.total_service_us)

    def test_delays_pathwise_monotone_in_offered_load(self):
        """scaled() keeps the underlying uniforms, so each request's delay
        is monotone in the load factor pathwise — the saturation knee is
        exact, not a sampling artifact."""
        n = 2_000
        requests = _all_miss_reads(n)
        base = _poisson_model(0.3 / (_READ_MISS_US * 1e-6))
        previous = None
        for factor in (0.5, 1.0, 2.0, 4.0):
            stats = _drive(base.scaled(factor), requests, [MISS_ADMIT] * n).finalize()
            if previous is not None:
                assert stats.total_delay_us >= previous.total_delay_us
                assert stats.utilization >= previous.utilization - 1e-12
            previous = stats

    def test_more_servers_never_increase_delay(self):
        """G/G/c FCFS: doubling the servers (at the same arrivals and
        services) can only reduce waiting."""
        n = 4_000
        requests = _all_miss_reads(n)
        rate = 1.4 / (_READ_MISS_US * 1e-6)  # overloads c=1, fine for c=2
        single = _drive(_poisson_model(rate), requests, [MISS_ADMIT] * n).finalize()
        double = _drive(
            _poisson_model(rate, servers_per_shard=2), requests, [MISS_ADMIT] * n
        ).finalize()
        assert single.servers == 1 and double.servers == 2
        assert double.total_delay_us < single.total_delay_us
        assert double.utilization < single.utilization


#: Arrival rates spanning light load to past single-server saturation.
_RATES = st.sampled_from([500.0, 4_000.0, 9_000.0, 15_000.0])


@pytest.mark.property
class TestStructuralLaws:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams(max_size=200), rate=_RATES, seed=st.integers(0, 5))
    def test_single_shard_matches_naive_lindley(self, stream, rate, seed):
        """The observer's totals equal an explicit Lindley recursion priced
        from the documented SSD constants — for any stream and load.
        Integer event clock: the agreement is exact, not approximate."""
        policy = create_policy("LRU", capacity=8)
        outcomes = [policy.access(request, seq) for seq, request in enumerate(stream)]
        model = _poisson_model(rate, seed=seed)
        observer = _drive(model, stream, outcomes)
        stats = observer.finalize()

        busy = 0
        total_delay = total_sojourn = 0
        departures = []
        for t_us, request, outcome in zip(model.arrivals.times(), stream, outcomes):
            t = _quantize_ns(t_us)
            service = _reference_price_ns(request, outcome.hit)
            start = busy if busy > t else t
            busy = start + service
            departures.append(busy)
            total_delay += start - t
            total_sojourn += busy - t
        assert stats.request_count == len(stream)
        assert stats.total_delay_ns == total_delay
        assert stats.total_sojourn_ns == total_sojourn
        assert stats.last_departure_ns == departures[-1]
        # Single-server FCFS: departures leave in arrival order.
        assert departures == sorted(departures)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams(max_size=200), rate=_RATES, seed=st.integers(0, 5))
    def test_fifo_per_shard_in_a_cluster(self, stream, rate, seed):
        """Each shard of a hash-routed cluster is its own FCFS queue: the
        cluster's totals decompose exactly into per-shard Lindley
        recursions over the routed sub-streams, in sub-stream order."""
        cluster = create_policy("SHARDED", capacity=9, policy="LRU", shards=3)
        outcomes = [cluster.access(request, seq) for seq, request in enumerate(stream)]
        model = _poisson_model(rate, seed=seed)
        replay = create_policy("SHARDED", capacity=9, policy="LRU", shards=3)
        observer = QueueingObserver(model, replay, 0)
        for seq, (request, outcome) in enumerate(zip(stream, outcomes)):
            replay.access(request, seq)
            observer.on_outcome(request, seq, outcome)
        stats = observer.finalize()

        busy: dict[int, int] = defaultdict(int)
        per_shard_departs: dict[int, list[int]] = defaultdict(list)
        total_delay = total_sojourn = 0
        route = cluster.router.route
        for t_us, request, outcome in zip(model.arrivals.times(), stream, outcomes):
            t = _quantize_ns(t_us)
            shard = route(request)
            service = _reference_price_ns(request, outcome.hit)
            start = busy[shard] if busy[shard] > t else t
            busy[shard] = start + service
            per_shard_departs[shard].append(busy[shard])
            total_delay += start - t
            total_sojourn += busy[shard] - t
        assert stats.servers == 3
        assert stats.total_delay_ns == total_delay
        assert stats.total_sojourn_ns == total_sojourn
        for departs in per_shard_departs.values():
            assert departs == sorted(departs)
        if per_shard_departs:
            assert stats.last_departure_ns == max(
                departs[-1] for departs in per_shard_departs.values()
            )

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        stream=request_streams(max_size=200),
        rate=_RATES,
        servers=st.sampled_from([1, 2, 3]),
    )
    def test_work_conservation_area_matches_event_sweep(self, stream, rate, servers):
        """Little's-law numerator cross-check: the production
        ``area_at_last_arrival_ns`` (computed from the sojourn-sum identity
        minus the departure overhang) equals an *independent* event-sweep
        integral of ``N(t)`` — step through +1/-1 marks of a reference
        G/G/c Lindley recursion and integrate the step function up to the
        last arrival.  Exact, for any stream, load and server count."""
        policy = create_policy("LRU", capacity=8)
        outcomes = [policy.access(request, seq) for seq, request in enumerate(stream)]
        model = _poisson_model(rate, servers_per_shard=servers)
        stats = _drive(model, stream, outcomes).finalize()

        import heapq

        busy = [0] * servers
        pairs: list[tuple[int, int]] = []  # (arrival_ns, departure_ns)
        for t_us, request, outcome in zip(model.arrivals.times(), stream, outcomes):
            t = _quantize_ns(t_us)
            service = _reference_price_ns(request, outcome.hit)
            earliest = busy[0]
            start = earliest if earliest > t else t
            heapq.heapreplace(busy, start + service)
            pairs.append((t, start + service))
        if pairs:
            last_arrival = pairs[-1][0]
            marks = sorted(
                [(t, 1) for t, _ in pairs] + [(depart, -1) for _, depart in pairs]
            )
            area = in_system = 0
            previous = 0
            for time_ns, delta in marks:
                clipped = time_ns if time_ns < last_arrival else last_arrival
                if clipped > previous:
                    area += in_system * (clipped - previous)
                    previous = clipped
                in_system += delta
            assert stats.area_at_last_arrival_ns == area
            assert stats.total_sojourn_ns == sum(d - t for t, d in pairs)
        assert stats.area_at_last_arrival_ns <= stats.total_sojourn_ns
        assert stats.first_arrival_us <= stats.last_arrival_us
        assert stats.last_departure_us >= stats.last_arrival_us
        assert 0.0 <= stats.utilization <= 1.0 + 1e-12
        assert sum(stats.delay_histogram) == stats.request_count
        assert sum(stats.sojourn_histogram) == stats.request_count

    @pytest.mark.parametrize("sharded", [False, True], ids=["plain", "sharded"])
    def test_vector_and_scalar_paths_produce_identical_integers(self, sharded):
        """The vectorised Lindley pass (fed through on_batch) and the scalar
        per-event walk (fed through on_chunk) are the same simulation: every
        field of the finalized stats — totals, histograms, areas — is
        bit-identical, fed chunk by chunk."""
        from repro.simulation.request import write_request
        from repro.trace.columnar import ColumnarChunk

        stream = [
            read_request(page=(seq * 7) % 101)
            if seq % 4
            else write_request(page=seq % 13)
            for seq in range(3_000)
        ]
        if sharded:
            policy = create_policy("SHARDED", capacity=60, policy="LRU", shards=4)
        else:
            policy = create_policy("LRU", capacity=60)
        outcomes = [policy.access(request, seq) for seq, request in enumerate(stream)]
        model = _poisson_model(11_000.0)
        bases = range(0, len(stream), 700)  # uneven chunk boundaries

        scalar = QueueingObserver(model, policy, 0)
        for base in bases:
            scalar.on_chunk(stream[base : base + 700], base, outcomes[base : base + 700])

        vector = QueueingObserver(model, policy, 0)
        for base in bases:
            vector.on_batch(
                ColumnarChunk.from_requests(stream[base : base + 700], base),
                AccessOutcomeBatch.from_outcomes(outcomes[base : base + 700]),
            )

        assert vector.finalize() == scalar.finalize()
        assert scalar.finalize().request_count == len(stream)

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        stream=priced_streams(),
        write_policy=st.sampled_from(["write-through", "write-back"]),
        routing=st.sampled_from([None, "hash", "range", "client"]),
        shards=st.integers(1, 4),
        servers=st.sampled_from([1, 2]),
    )
    def test_seek_priced_batch_feed_matches_reference(
        self, stream, write_policy, routing, shards, servers
    ):
        """HDD pricing (one seek head per shard, carried across chunks)
        through on_batch equals the per-event reference walk, integer for
        integer — for the banked vector pass and the multi-server queues."""
        requests, hits, cuts = stream
        model = _poisson_model(
            3_000.0,
            device="hdd",
            write_policy=write_policy,
            page_span=64,
            servers_per_shard=servers,
        )

        def observer():
            if routing is None:
                return QueueingObserver(model, _NoPolicy(), 0)
            kwargs = {"page_span": 321} if routing == "range" else {}
            cluster = create_policy(
                "SHARDED", capacity=8, policy="LRU", shards=shards, router=routing, **kwargs
            )
            return QueueingObserver(model, cluster, 0)

        reference, fused = observer(), observer()
        outcomes = [HIT if hit else MISS_ADMIT for hit in hits]
        for offset, chunk, hit in chunked(requests, hits, cuts):
            stop = offset + len(chunk)
            reference.on_chunk(requests[offset:stop], offset, outcomes[offset:stop])
            fused.on_batch(chunk, AccessOutcomeBatch.from_outcomes(outcomes[offset:stop]))
        assert fused.finalize() == reference.finalize()

    def test_one_observer_takes_one_feed(self):
        """Mixing the two feeds in one observer would splice two queue
        states; finalize refuses instead of reporting either."""
        from repro.trace.columnar import ColumnarChunk

        requests = _all_miss_reads(20)
        outcomes = [MISS_ADMIT] * 20
        observer = QueueingObserver(_poisson_model(2_000.0), _NoPolicy(), 0)
        observer.on_chunk(requests[:10], 0, outcomes[:10])
        observer.on_batch(
            ColumnarChunk.from_requests(requests[10:], 10),
            AccessOutcomeBatch.from_outcomes(outcomes[10:]),
        )
        with pytest.raises(ValueError, match="one feed"):
            observer.finalize()


class TestSegmentsAndComposition:
    def test_merge_continues_the_arrival_clock(self):
        """Segment B's arrivals are absolute functions of the sequence
        number: splitting a stream at any point and merging reproduces the
        whole run's arrival window and totals exactly for light load (no
        queue carryover), and exactly the counts/clock regardless."""
        n, cut = 600, 251
        requests = _all_miss_reads(n)
        outcomes = [MISS_ADMIT] * n
        model = _poisson_model(2_000.0)

        whole = _drive(model, requests, outcomes).finalize()
        head = _drive(model, requests[:cut], outcomes[:cut])
        tail = _drive(model, requests[cut:], outcomes[cut:], start_seq=cut)
        head.merge(tail)
        merged = head.finalize()

        assert merged.request_count == whole.request_count
        assert merged.first_arrival_us == whole.first_arrival_us
        assert merged.last_arrival_us == whole.last_arrival_us
        assert merged.total_service_us == pytest.approx(whole.total_service_us)
        # Idle-at-segment-start can only shed queueing carried across the cut.
        assert merged.total_delay_us <= whole.total_delay_us + 1e-9

    def test_finalize_is_repeatable(self):
        observer = _drive(_poisson_model(8_000.0), _all_miss_reads(50), [MISS_ADMIT] * 50)
        first = observer.finalize()
        second = observer.finalize()
        assert first.as_dict() == second.as_dict()

    def test_merge_rejects_mismatched_models(self):
        a = _drive(_poisson_model(1_000.0), _all_miss_reads(5), [MISS_ADMIT] * 5)
        b = _drive(_poisson_model(2_000.0), _all_miss_reads(5), [MISS_ADMIT] * 5)
        with pytest.raises(ValueError, match="different models"):
            a.merge(b)

    def test_stats_merge_rejects_mismatched_servers(self):
        with pytest.raises(ValueError, match="server counts"):
            QueueingStats(servers=1).merge(QueueingStats(servers=2))

    def test_stats_merge_rejects_mismatched_histograms(self):
        other = QueueingStats()
        other.delay_histogram = other.delay_histogram + [0]
        with pytest.raises(ValueError, match="histogram sizes"):
            QueueingStats().merge(other)

    def test_sharded_single_shard_equals_plain_policy(self):
        """A 1-shard cluster is the unified cache: identical queueing."""
        stream = [read_request(page=(seq * 13) % 40) for seq in range(500)]
        model = _poisson_model(9_000.0)
        plain = simulate(create_policy("LRU", capacity=8), stream, queueing_model=model)
        sharded = simulate(
            create_policy("SHARDED", capacity=8, policy="LRU", shards=1),
            stream,
            queueing_model=model,
        )
        assert plain.queueing.as_dict() == sharded.queueing.as_dict()


class TestModelAndPlumbing:
    def test_model_validation(self):
        arrivals = PoissonArrivals(1_000.0)
        with pytest.raises(TypeError, match="ArrivalProcess"):
            QueueingModel(arrivals=1_000.0)
        with pytest.raises(ValueError, match="servers_per_shard"):
            QueueingModel(arrivals=arrivals, servers_per_shard=0)
        with pytest.raises(ValueError, match="write policy"):
            QueueingModel(arrivals=arrivals, write_policy="write-around")
        with pytest.raises(ValueError, match="unknown device"):
            QueueingModel(arrivals=arrivals, device="floppy")

    @pytest.mark.parametrize("page_span", [0, -5])
    def test_model_rejects_empty_page_span_at_construction(self, page_span):
        """Regression: a non-positive page span used to pass construction
        and raise only when an observer built its pricer (possibly inside
        a sweep worker)."""
        with pytest.raises(ValueError, match="seek_span"):
            QueueingModel(arrivals=PoissonArrivals(1_000.0), page_span=page_span)

    @pytest.mark.parametrize("servers", [1.5, True, "2"])
    def test_model_rejects_non_int_servers(self, servers):
        """Regression: ``servers_per_shard=1.5`` used to pass construction
        and fail later with a TypeError in the multi-server queue."""
        with pytest.raises(TypeError, match="servers_per_shard"):
            QueueingModel(arrivals=PoissonArrivals(1_000.0), servers_per_shard=servers)

    def test_model_hashable_and_picklable(self):
        model = _poisson_model(3_000.0, device="nvme", servers_per_shard=2)
        assert hash(model) == hash(pickle.loads(pickle.dumps(model)))
        assert pickle.loads(pickle.dumps(model)) == model
        assert model.scaled(2.0) != model
        assert model.scaled(2.0).arrivals.mean_rate_rps == pytest.approx(6_000.0)

    def test_model_cost_model_round_trip(self):
        model = _poisson_model(1_000.0, device="hdd", page_span=512)
        cost = model.cost_model()
        assert cost.profile.name == "hdd"
        assert cost.profile.seek_span == 512

    def test_simulation_result_carries_queueing_columns(self):
        stream = _all_miss_reads(200)
        result = simulate(
            create_policy("LRU", capacity=8),
            stream,
            queueing_model=_poisson_model(9_000.0),
        )
        row = result.as_dict()
        for column in QueueingStats().report_columns():
            assert column in row
        assert row["utilization"] == result.queueing.utilization

    def test_hash_clusters_sharing_a_tape_route_every_chunk(self):
        """Hash-routed clusters of one replay share the tape's mixed-page
        column; every chunk must be routed on its own pages.  Regression:
        an observer that asked for the column before any observer had drawn
        the chunk's arrivals got the previous chunk's pages."""
        from repro.simulation.engine import MultiPolicySimulator
        from repro.simulation.request import write_request

        stream = [
            write_request(page=(seq * 7) % 500)
            if seq % 6 == 0
            else read_request(page=(seq * 31) % 500)
            for seq in range(9_000)  # three engine chunks, the last one short
        ]
        model = _poisson_model(3_000.0, device="hdd", page_span=500)

        def run(columnar):
            policies = [
                create_policy("SHARDED", capacity=40, policy="LRU", shards=shards)
                for shards in (4, 2, 3)
            ]
            simulator = MultiPolicySimulator(
                policies, queueing_model=model, columnar=columnar
            )
            return [result.queueing for result in simulator.run(stream)]

        assert run(True) == run(False)

    def test_observer_histograms_use_shared_buckets(self):
        stats = QueueingStats()
        assert len(stats.delay_histogram) == len(HISTOGRAM_BUCKET_BOUNDS_US)
        assert HISTOGRAM_BUCKET_BOUNDS_US[0] == 0.0

    def test_hits_price_cheaper_than_misses(self):
        """The queue consumes the cost model's pricing: an all-hit stream
        spends less server time than an all-miss one."""
        n = 300
        requests = _all_miss_reads(n)
        model = _poisson_model(5_000.0)
        hits = _drive(model, requests, [HIT] * n).finalize()
        misses = _drive(model, requests, [MISS_ADMIT] * n).finalize()
        assert hits.total_service_us == pytest.approx(n * _READ_HIT_US)
        assert misses.total_service_us == pytest.approx(n * _READ_MISS_US)
        assert hits.total_delay_us <= misses.total_delay_us
