"""Delay accounting: configured totals, measured components, additivity."""

from __future__ import annotations

import dataclasses

import pytest

from gridshield import substation as sub
from gridshield.delay import COMPONENT_NAMES, DelayComponents, measure, total, walk_hops
from gridshield.netsim import EventLog, SimEvent
from gridshield.scenarios import load_scenario, run_scenario


class TestTotal:
    def test_all_zero_components_sum_to_zero(self):
        zeros = DelayComponents(0, 0, 0, 0, 0, 0, 0, 0)
        assert total(zeros, with_ids=False) == total(zeros, with_ids=True) == 0

    def test_default_split_without_inspection_is_23ms(self):
        assert total(DelayComponents(), with_ids=False) == 23_000

    def test_default_split_with_inspection_is_27ms(self):
        assert total(DelayComponents(), with_ids=True) == 27_000

    def test_inspection_term_counted_only_when_active(self):
        c = DelayComponents(t_ids=9_000)
        assert total(c, with_ids=True) - total(c, with_ids=False) == 9_000

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            DelayComponents(t_mu=-1)


@pytest.fixture(scope="module")
def baseline_result():
    return run_scenario(load_scenario("baseline"))


@pytest.fixture(scope="module")
def with_ids_result():
    return run_scenario(load_scenario("baseline", {"with_ids": True}))


class TestMeasure:
    def test_measured_total_equals_configured_total(self, baseline_result):
        spec = load_scenario("baseline")
        report = measure(baseline_result.log)
        assert report.total_us == total(spec.delays, spec.with_ids) == 23_000

    def test_each_component_matches_configuration(self, baseline_result):
        spec = load_scenario("baseline")
        report = measure(baseline_result.log)
        expected = dataclasses.asdict(spec.delays)
        expected["t_ids"] = 0  # module transparent in the baseline
        assert report.components == expected

    def test_additivity_is_exact(self, baseline_result, with_ids_result):
        for result in (baseline_result, with_ids_result):
            report = measure(result.log)
            assert sum(report.components.values()) == report.total_us
            assert report.checks["additivity_exact"]

    def test_differential_isolates_the_inspection_term(self, baseline_result, with_ids_result):
        base = measure(baseline_result.log)
        with_ids = measure(with_ids_result.log)
        assert with_ids.components["t_ids"] == with_ids.total_us - base.total_us == 4_000

    def test_log_without_trip_raises(self):
        result = run_scenario(load_scenario("attack1"))
        assert measure(result.log) is None

    def test_empty_log_raises(self):
        assert measure(EventLog()) is None

    def test_log_without_its_banner_is_unmeasured(self, baseline_result):
        assert measure(baseline_result.log[1:]) is None

    def test_budget_checks(self, baseline_result, with_ids_result):
        base = measure(baseline_result.log)
        assert base.checks["baseline_is_23ms"]
        withm = measure(with_ids_result.log)
        assert withm.checks["with_ids_leq_27ms"]
        assert withm.checks["ids_added_leq_4ms"]
        assert withm.checks["ids_added_leq_quarter_cycle"]

    def test_report_json_is_stable(self, baseline_result):
        a = measure(baseline_result.log).to_json()
        b = measure(baseline_result.log).to_json()
        assert a == b and '"total_us": 23000' in a

    @pytest.mark.parametrize("with_ids", [False, True])
    def test_each_component_matches_another_split(self, with_ids):
        """A split off the default moves every derived link latency."""
        overrides = {"t_mu": 0, "t_sv": 3, "t_gs": 5, "with_ids": with_ids}
        spec = load_scenario("baseline", overrides)
        expected = dataclasses.asdict(spec.delays)
        if not with_ids:
            expected["t_ids"] = 0
        assert measure(run_scenario(spec).log).components == expected


# Hop times of baseline's chain at the default split: the trigger sample,
# ticked at 2,000,000 us, then the trip frame, and the trip at 2,023,000 us.
BASELINE_HOP_TIMES = (
    2_003_000, 2_004_000, 2_005_000, 2_006_000,
    2_016_000, 2_016_500, 2_017_500, 2_018_000, 2_018_000, 2_019_000,
)


BASELINE_BANNER = SimEvent(
    0, 0, "ControlMsg", sub.IDS, None, None,
    "run scenario=baseline with_ids=0 expected_total_us=23000 settle_us=2000",
)


def hop(row, time, digest, note=None):
    node, port, direction = row[:3]
    kind = "FrameDeparture" if direction == "out" else "FrameArrival"
    return SimEvent(time, 0, kind, node, port, digest, note)


def baseline_chain():
    """The ten hops of baseline's trip chain and the trip, as its log holds them."""
    events = [
        hop(row, time, "sample" if i < 4 else "goose")
        for i, (row, time) in enumerate(zip(sub.TRIP_PATH, BASELINE_HOP_TIMES))
    ]
    events[0] = events[0]._replace(note="tick_us=2000000")
    events[4] = events[4]._replace(note="trip trigger=sample")
    trip = SimEvent(2_023_000, 0, "BreakerTrip", sub.OMICRON, None, "goose", "breaker=open")
    return events + [trip]


class TestTripPath:
    def test_terms_along_the_path_are_the_components(self):
        terms = [row[3] for row in sub.TRIP_PATH] + [sub.BREAKER_TERM]
        assert sorted(set(terms)) == sorted(COMPONENT_NAMES)

    def test_the_chain_is_the_one_that_ends_at_the_trip(self):
        """A copy of the trigger sample one second earlier, as when samples
        repeat each second, does not move the fault sample."""
        early = [
            hop(row, time - 1_000_000, "sample")
            for row, time in zip(sub.TRIP_PATH[:4], BASELINE_HOP_TIMES)
        ]
        early[0] = early[0]._replace(note="tick_us=1000000")
        chain = [BASELINE_BANNER, *early, *baseline_chain()]
        events = [ev._replace(seq=i) for i, ev in enumerate(chain)]
        report = measure(events)
        assert report.total_us == 23_000
        assert report.fault_sample_us == 2_000_000


def hop_event(seq, node, port, kind, digest="d1"):
    return SimEvent(seq * 100, seq, kind, node, port, digest, None)


HOPS = (("a", 1, "out"), ("b", 2, "in"), ("b", 3, "out"))


class TestWalkHops:
    def test_in_order_match_returns_the_events(self):
        events = [
            hop_event(0, "a", 1, "FrameDeparture"),
            hop_event(1, "b", 2, "FrameArrival", digest="other"),
            hop_event(2, "b", 2, "FrameArrival"),
            hop_event(3, "b", 2, "FrameArrival"),
            hop_event(4, "b", 3, "FrameDeparture"),
        ]
        assert walk_hops(events, "d1", HOPS) == [events[0], events[2], events[4]]

    def test_missing_hop_returns_none(self):
        events = [
            hop_event(0, "a", 1, "FrameDeparture"),
            hop_event(1, "b", 3, "FrameDeparture"),
        ]
        assert walk_hops(events, "d1", HOPS) is None

    def test_hop_seen_only_before_its_predecessor_is_not_matched(self):
        events = [
            hop_event(0, "b", 2, "FrameArrival"),
            hop_event(1, "a", 1, "FrameDeparture"),
            hop_event(2, "b", 3, "FrameDeparture"),
        ]
        assert walk_hops(events, "d1", HOPS) is None
