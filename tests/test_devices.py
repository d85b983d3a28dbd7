"""Device behavior: sampling cadence, overcurrent latch, breaker
idempotence, publication sequencing, and ground-truth injection."""

from __future__ import annotations

import pytest

from gridshield import substation as sub
from gridshield.codec import SvFrame, decode_goose, decode_sv, encode_sv
from gridshield.devices import InjectionPlan, MuDevice, OmicronDevice, PiedDevice, inject
from gridshield.netsim import PortRef, TopologySpec, build_topology, events_of_kind
from gridshield.scenarios import ScenarioError, load_scenario
from tests.test_codec import golden_goose_frame
from gridshield.codec import encode_goose


def mini_process_bus():
    """mu -> pied over one wire, no switch, for endpoint-only tests."""
    net = build_topology(
        TopologySpec(
            nodes={"mu": 1, "pied": 3, "sink": 2},
            links=(
                ("mu", 1, "pied", 1, 1_000),
                ("pied", 2, "sink", 1, 1_000),
                ("pied", 3, "sink", 2, 1_000),
            ),
        )
    )
    return net


class _Capture:
    def __init__(self):
        self.frames = []

    def on_frame(self, port, raw, at):
        self.frames.append((port, raw, at))


class TestMuDevice:
    def test_smp_cnt_increments_and_wraps(self):
        net = mini_process_bus()
        cap = _Capture()
        net.register("pied", cap)
        MuDevice(net, samples_per_second=1_000, t_mu=3_000)
        net.run_until(3_000_000)
        counts = [decode_sv(raw).smp_cnt for _, raw, _ in cap.frames]
        assert counts[:3] == [0, 1, 2]
        assert max(counts) == 999 and counts.count(0) >= 2  # wrapped

    def test_fault_sample_propagates_intact(self):
        net = mini_process_bus()
        cap = _Capture()
        net.register("pied", cap)
        MuDevice(net, samples_per_second=1_000, t_mu=3_000, fault_at_us=5_000)
        net.run_until(10_000)
        samples = [decode_sv(raw) for _, raw, _ in cap.frames]
        faulted = [sv for sv in samples if sv.currents[0] == sub.FAULT_PHASE_A_MA]
        assert faulted and faulted[0].voltages == sub.NOMINAL_VOLTAGES_MV

    def test_equal_samples_depart_as_one_encoded_frame(self):
        net = mini_process_bus()
        cap = _Capture()
        net.register("pied", cap)
        mu = MuDevice(net, samples_per_second=1_000, t_mu=3_000, fault_at_us=1_250_000)
        net.run_until(2_504_000)  # 2.5 s of ticks, each arriving 4 ms later
        nominal, fault = sub.NOMINAL_CURRENTS_MA, sub.FAULT_PHASE_A_MA
        by_sample = {}
        for _, raw, at in cap.frames:
            tick = at - 4_000
            currents = (fault, *nominal[1:]) if tick >= 1_250_000 else nominal
            smp_cnt = tick // mu.period_us % 1_000
            fresh = encode_sv(SvFrame(
                sub.SV_DST, sub.MU_MAC, sub.SV_ID, smp_cnt, currents, sub.NOMINAL_VOLTAGES_MV
            ))
            assert raw.data == fresh.data
            by_sample.setdefault((smp_cnt, currents), set()).add(id(raw))
        assert len(cap.frames) == 2_501
        assert all(len(ids) == 1 for ids in by_sample.values())
        # every count recurs, and the fault step gives each count a new frame
        before = {cnt: ids for (cnt, currents), ids in by_sample.items() if currents == nominal}
        after = {cnt: ids for (cnt, currents), ids in by_sample.items() if currents[0] == fault}
        assert set(before) == set(after) == set(range(1_000))
        assert all(before[cnt].isdisjoint(after[cnt]) for cnt in before)
        assert len(mu._frames) == 2 * 1_000

    def test_departure_is_tick_plus_internal_delay(self):
        net = mini_process_bus()
        MuDevice(net, samples_per_second=1_000, t_mu=3_000)
        log = net.run_until(2_500)  # only the t=0 tick departs within this window
        dep = events_of_kind(log, "FrameDeparture")
        assert not dep
        log = net.run_until(3_000)
        dep = events_of_kind(log, "FrameDeparture")
        assert dep and dep[0].time == 3_000 and dep[0].note == "tick_us=0"

    def test_rate_must_divide_microseconds(self):
        """The loader refuses a rate whose tick is not a whole microsecond."""
        with pytest.raises(ScenarioError, match="divide 1e6"):
            load_scenario("baseline", {"samples_per_second": 333})


class TestPiedDevice:
    def _run(self, fault_at_us=None, until=2_000_000, toggle_at=None, silence_at=None):
        net = mini_process_bus()
        cap = _Capture()
        net.register("sink", cap)
        MuDevice(net, samples_per_second=1_000, t_mu=3_000, fault_at_us=fault_at_us)
        pied = PiedDevice(net, publish_interval_us=1_000_000, t_pied=10_000)
        if toggle_at is not None:
            pied.toggle_at(toggle_at)
        if silence_at is not None:
            pied.silence_at(silence_at)
        log = net.run_until(until)
        return net, cap, pied, log

    def test_no_trip_below_pickup(self):
        _, cap, pied, _ = self._run()
        trips = [raw for _, raw, _ in cap.frames if decode_goose(raw).trip]
        assert not trips and not pied.latched

    def test_trip_departs_protection_delay_after_fault_arrival(self):
        net, cap, pied, log = self._run(fault_at_us=100_000)
        assert pied.latched
        # fault tick at 100ms; sample departs mu at +3ms, arrives +1ms wire
        arrival = 100_000 + 3_000 + 1_000
        trip_deps = [
            ev for ev in events_of_kind(log, "FrameDeparture")
            if ev.node == "pied" and ev.note and ev.note.startswith("trip")
        ]
        assert trip_deps and trip_deps[0].time == arrival + 10_000
        assert {ev.port for ev in trip_deps} == {2, 3}

    def test_latch_prevents_second_trip_state_change(self):
        _, cap, _, _ = self._run(fault_at_us=100_000)
        decoded = [decode_goose(raw) for port, raw, _ in cap.frames if port == 1]
        trip_states = {f.st_num for f in decoded if f.trip}
        assert len(trip_states) == 1  # retransmissions only, one state change

    def test_heartbeats_increment_sq(self):
        _, cap, _, _ = self._run(until=3_500_000)
        decoded = [decode_goose(raw) for port, raw, _ in cap.frames if port == 1]
        assert [f.sq_num for f in decoded[:4]] == [0, 1, 2, 3]
        assert len({f.st_num for f in decoded}) == 1

    def test_toggle_changes_state_number_not_trip(self):
        _, cap, _, _ = self._run(until=3_000_000, toggle_at=1_500_000)
        decoded = [decode_goose(raw) for port, raw, _ in cap.frames if port == 1]
        assert {f.st_num for f in decoded} == {1, 2}
        toggled = [f for f in decoded if f.st_num == 2]
        assert toggled[0].sq_num == 0 and toggled[0].all_data == (False, True)

    def test_silence_stops_publications(self):
        _, cap, _, _ = self._run(until=5_000_000, silence_at=1_500_000)
        last_pub = max(at for _, _, at in cap.frames)
        assert last_pub < 1_500_000

    @pytest.mark.parametrize("toggle, silence", [(1_500_000, 2_500_000), (1_000_000, 2_000_000)])
    def test_inputs_given_to_a_running_relay_land_as_if_given_first(self, toggle, silence):
        """A trunk's branch gives the relay its toggle and silence after it
        has run. The relay then sends the frames, at the times, that it
        sends when given them before its first tick, also when the inputs
        fall on its publication instants."""
        _, first, _, first_log = self._run(until=4_000_000, toggle_at=toggle, silence_at=silence)
        net, cap, pied, _ = self._run(until=toggle - 1)
        pied.toggle_at(toggle)
        pied.silence_at(silence)
        log = net.run_until(4_000_000)
        assert cap.frames == first.frames
        assert log == first_log
        decoded = [decode_goose(raw) for port, raw, _ in cap.frames if port == 1]
        assert {f.st_num for f in decoded} == {1, 2}
        assert max(at for _, _, at in cap.frames) < silence


class TestOmicronDevice:
    def _net(self):
        net = build_topology(
            TopologySpec(nodes={"src": 1, "omicron": 1}, links=(("src", 1, "omicron", 1, 500),))
        )
        return net

    def _trip_raw(self):
        frame = golden_goose_frame()
        from gridshield.codec import GooseFrame

        return encode_goose(GooseFrame(**{**frame.__dict__, "all_data": (True,)}))

    def test_trip_frame_opens_breaker_after_internal_delay(self):
        net = self._net()
        om = OmicronDevice(net, t_oc=4_000)
        net.send(PortRef("src", 1), self._trip_raw(), at=0)
        log = net.run_until(100_000)
        trips = events_of_kind(log, "BreakerTrip")
        assert om.breaker_open
        assert trips[0].time == 500 + 4_000

    def test_non_trip_frame_ignored(self):
        from gridshield.codec import GooseFrame

        net = self._net()
        om = OmicronDevice(net, t_oc=4_000)
        heartbeat = GooseFrame(**{**golden_goose_frame().__dict__, "all_data": (False,)})
        net.send(PortRef("src", 1), encode_goose(heartbeat), at=0)
        net.run_until(100_000)
        assert not om.breaker_open

    def test_second_trip_is_idempotent(self):
        net = self._net()
        om = OmicronDevice(net, t_oc=4_000)
        net.send(PortRef("src", 1), self._trip_raw(), at=0)
        net.send(PortRef("src", 1), self._trip_raw(), at=0)  # duplicated copy
        net.send(PortRef("src", 1), self._trip_raw(), at=50_000)
        log = net.run_until(100_000)
        assert len(events_of_kind(log, "BreakerTrip")) == 1
        assert om.breaker_open


class TestInject:
    def test_ingress_injection_marks_ground_truth(self):
        net = build_topology(TopologySpec(nodes={"sw": 6}, links=()))
        cap = _Capture()
        net.register("sw", cap)
        plan = InjectionPlan(
            port=PortRef("sw", 6),
            mode="ingress",
            template=golden_goose_frame(),
        )
        for at in (1_000, 2_000, 3_000):
            inject(net, plan, at)
        log = net.run_until(10_000)
        injected = [ev for ev in events_of_kind(log, "FrameArrival") if ev.note == "injected"]
        assert [ev.time for ev in injected] == [1_000, 2_000, 3_000]
        assert len(cap.frames) == 3

    def test_egress_injection_travels_the_wire(self):
        net = build_topology(
            TopologySpec(nodes={"pied": 3, "sw": 6}, links=(("pied", 2, "sw", 4, 500),))
        )
        cap = _Capture()
        net.register("sw", cap)
        plan = InjectionPlan(
            port=PortRef("pied", 2),
            mode="egress",
            template=golden_goose_frame(),
        )
        inject(net, plan, 1_000)
        log = net.run_until(10_000)
        deps = [ev for ev in events_of_kind(log, "FrameDeparture") if ev.note == "injected"]
        assert deps and deps[0].time == 1_000
        assert cap.frames and cap.frames[0][2] == 1_500

    def test_injection_on_disabled_port_reaches_nothing(self):
        net = build_topology(TopologySpec(nodes={"sw": 6}, links=()))
        cap = _Capture()
        net.register("sw", cap)
        net.disable_port(PortRef("sw", 6), at=0)
        plan = InjectionPlan(
            port=PortRef("sw", 6),
            mode="ingress",
            template=golden_goose_frame(),
        )
        inject(net, plan, 1_000)
        log = net.run_until(10_000)
        assert not events_of_kind(log, "FrameArrival")
        assert not cap.frames
