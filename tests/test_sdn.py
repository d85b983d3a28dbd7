"""Flow-table semantics: multi-match duplication, coalescing, purity,
switch timing, the flow cache against a decision per frame, and every
decision of the panel's tables."""

from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshield import substation as sub
from gridshield.codec import (
    GOOSE_ETHERTYPE,
    MacAddress,
    RawFrame,
    encode_goose,
    encode_sv,
)
from gridshield.delay import DelayComponents
from gridshield.netsim import PortRef, TopologySpec, build_topology, events_of_kind
from gridshield.sdn import FlowEntry, SwitchNode, match_frame
from tests.test_codec import golden_goose_frame, golden_sv_frame

GOOSE_RAW = encode_goose(golden_goose_frame())
OTHER_MAC = MacAddress.parse("AA:BB:CC:00:00:01")


class TestMatchFrame:
    def test_multi_match_forwards_to_both_ports(self):
        table = (FlowEntry(6, None, (3,)), FlowEntry(6, None, (7,)))
        assert match_frame(table, GOOSE_RAW, ingress=6) == (3, 7)

    def test_no_match_falls_back_to_default(self):
        table = (FlowEntry(6, None, (3,)),)
        assert match_frame(table, GOOSE_RAW, ingress=1) is None

    def test_duplicate_forward_port_coalesced(self):
        table = (FlowEntry(6, None, (5,)), FlowEntry(6, GOOSE_ETHERTYPE, (5,)))
        assert match_frame(table, GOOSE_RAW, ingress=6) == (5,)

    def test_priority_orders_emissions(self):
        # A row's place in the table is its priority: earlier rows emit first.
        first, second = FlowEntry(6, None, (1,)), FlowEntry(6, None, (2,))
        assert match_frame((first, second), GOOSE_RAW, ingress=6) == (1, 2)
        assert match_frame((second, first), GOOSE_RAW, ingress=6) == (2, 1)

    def test_equal_priorities_keep_insertion_order(self):
        table = (
            FlowEntry(6, None, (3,)),
            FlowEntry(6, GOOSE_ETHERTYPE, (1, 3)),
            FlowEntry(6, None, (2,)),
        )
        assert match_frame(table, GOOSE_RAW, ingress=6) == (3, 1, 2)

    def test_unparseable_frame_matches_only_ingress_ethertype(self):
        blob = RawFrame(b"\x00" * 13)  # too short to carry an ethertype
        table = (
            FlowEntry(2, None, (1,)),
            FlowEntry(2, 0x0000, (3,)),
        )
        assert match_frame(table, blob, ingress=2) == (1,)


def switch_net(table, processing_delay=1000):
    net = build_topology(
        TopologySpec(
            nodes={"sw": 8, "x": 1, "y": 1, "z": 1},
            links=(
                ("sw", 3, "x", 1, 100),
                ("sw", 7, "y", 1, 100),
                ("sw", 5, "z", 1, 100),
            ),
        )
    )
    sw = SwitchNode(net, "sw", table, processing_delay)
    return net, sw


class TestSwitchNode:
    def test_duplication_emits_one_copy_per_port(self):
        table = (
            FlowEntry(6, None, (3,)),
            FlowEntry(6, None, (7,)),
            FlowEntry(6, GOOSE_ETHERTYPE, (7,)),
        )
        net, _ = switch_net(table)
        net.inject_ingress(PortRef("sw", 6), GOOSE_RAW, at=0)
        log = net.run_until(10_000)
        departures = events_of_kind(log, "FrameDeparture")
        assert sorted((d.node, d.port) for d in departures) == [("sw", 3), ("sw", 7)]
        assert len({d.digest for d in departures}) == 1

    def test_departure_time_is_arrival_plus_processing_delay(self):
        net, _ = switch_net((FlowEntry(6, None, (5,)),), processing_delay=777)
        net.inject_ingress(PortRef("sw", 6), GOOSE_RAW, at=100)
        log = net.run_until(10_000)
        dep = events_of_kind(log, "FrameDeparture")[0]
        assert dep.time == 877

    def test_unmatched_frame_dropped_once(self):
        net, _ = switch_net(())
        net.inject_ingress(PortRef("sw", 6), GOOSE_RAW, at=0)
        log = net.run_until(10_000)
        assert not events_of_kind(log, "FrameDeparture")
        drops = [ev for ev in events_of_kind(log, "Drop") if ev.note == "no_forwarding_entry"]
        assert len(drops) == 1

    def test_explicit_drop_is_logged_as_a_flow_drop(self):
        table = (FlowEntry(6, None, ()), FlowEntry(3, None, (5,)))
        net, _ = switch_net(table)
        net.inject_ingress(PortRef("sw", 6), GOOSE_RAW, at=0)
        net.inject_ingress(PortRef("sw", 4), GOOSE_RAW, at=100)
        log = net.run_until(10_000)
        assert not events_of_kind(log, "FrameDeparture")
        assert [(ev.port, ev.note) for ev in events_of_kind(log, "Drop")] == [
            (6, "flow_drop"), (4, "no_forwarding_entry")
        ]

    def test_forward_to_nonexistent_port_rejected(self):
        from gridshield.netsim import UnknownPort

        with pytest.raises(UnknownPort):
            switch_net((FlowEntry(6, None, (99,)),))

    def test_data_frames_never_mutate_the_table(self):
        table = (FlowEntry(6, None, (5,)),)
        net, sw = switch_net(table)
        before = sw.table
        for t in range(0, 5_000, 500):
            net.inject_ingress(PortRef("sw", 6), GOOSE_RAW, at=t)
        net.run_until(50_000)
        assert sw.table is before and sw.table == table


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

tables = st.lists(
    st.builds(
        FlowEntry,
        st.integers(1, 8),
        st.none() | st.sampled_from([GOOSE_ETHERTYPE, 0x0800]),
        st.lists(st.integers(1, 8), max_size=3).map(tuple),
    ),
    max_size=8,
).map(tuple)


class TestFlowProperties:
    @given(tables, st.integers(1, 8))
    def test_match_frame_is_pure(self, table, ingress):
        first = match_frame(table, GOOSE_RAW, ingress)
        second = match_frame(table, GOOSE_RAW, ingress)
        assert first == second

    @given(tables, st.integers(1, 8))
    def test_forward_ports_are_distinct(self, table, ingress):
        ports = match_frame(table, GOOSE_RAW, ingress) or ()
        assert len(ports) == len(set(ports))


# ---------------------------------------------------------------------------
# The flow cache against a decision per frame
# ---------------------------------------------------------------------------


class PerFrameSwitch(SwitchNode):
    """A switch without its flow cache: ``match_frame`` on every frame."""

    def process_frame(self, raw, ingress, at):
        ports = match_frame(self.table, raw, ingress)
        for port in ports or ():
            self.net.send(PortRef(self.node_id, port), raw, at + self.processing_delay)
        if not ports:
            reason = "no_forwarding_entry" if ports is None else "flow_drop"
            self.net.log_event("Drop", self.node_id, ingress, raw.digest, reason)


FLOW_MACS = (MacAddress.parse("00:30:A7:00:00:01"), OTHER_MAC)
# 0x08B8 differs from the GOOSE ethertype in its high byte alone
FLOW_ETHERTYPES = (GOOSE_ETHERTYPE, 0x88BA, 0x08B8, 0x0800)

flow_entries = st.builds(
    FlowEntry,
    st.integers(1, 3),
    st.none() | st.sampled_from(FLOW_ETHERTYPES),
    st.lists(st.integers(1, 8), max_size=3).map(tuple),
)

# A frame is its header fields, a body and the length it is cut to; the
# cuts are every length that changes what the ethertype bytes hold, and
# most frames are whole. The source MAC and app id are read by no match,
# so frames that differ only in them share a flow.
frame_fields = st.fixed_dictionaries({
    "src": st.sampled_from(FLOW_MACS),
    "ethertype": st.sampled_from(FLOW_ETHERTYPES),
    "app_id": st.integers(1, 2),
    "body": st.binary(max_size=3),
    "cut": st.sampled_from([0, 5, 12, 13, 14, 15, 16, 20, 20, 20, 20, 20, 20]),
})


def flow_frame(f: dict) -> RawFrame:
    header = bytes(6) + f["src"].octets + struct.pack(">HH", f["ethertype"], f["app_id"])
    return RawFrame((header + f["body"])[: f["cut"]])


@st.composite
def switch_runs(draw):
    """A table, and the sweeps fed to the switch: every frame of a pool
    arrives on each of three ports, in a drawn order."""
    table = tuple(draw(st.lists(flow_entries, max_size=6)))
    # a frame, the frames that differ from it in one header field, and any
    # other frame
    base = draw(frame_fields)
    other_ethertype = st.sampled_from(FLOW_ETHERTYPES).filter(lambda e: e != base["ethertype"])
    pool = [flow_frame(f) for f in (
        base,
        {**base, "app_id": 3 - base["app_id"]},
        {**base, "src": FLOW_MACS[base["src"] == FLOW_MACS[0]]},
        {**base, "ethertype": draw(other_ethertype)},
        draw(frame_fields),
    )]
    arrivals = [(port, raw) for port in (1, 2, 3) for raw in pool]
    sweeps = draw(st.lists(st.permutations(arrivals), min_size=1, max_size=6))
    return table, sweeps


def run_switch(cls, table, sweeps):
    nodes = {"sw": 8, **{f"h{p}": 1 for p in range(1, 9)}}
    links = tuple(("sw", p, f"h{p}", 1, 10) for p in range(1, 9))
    net = build_topology(TopologySpec(nodes=nodes, links=links))
    cls(net, "sw", table, 100)
    for i, sweep in enumerate(sweeps):
        for j, (port, raw) in enumerate(sweep):
            net.inject_ingress(PortRef("sw", port), raw, at=i * 1_000 + j * 10)
    return net.run_until(len(sweeps) * 1_000 + 1_000)


class TestFlowCache:
    @settings(max_examples=200)
    @given(switch_runs())
    def test_cached_decisions_log_what_matching_every_frame_logs(self, run):
        table, sweeps = run
        assert run_switch(SwitchNode, table, sweeps) == run_switch(PerFrameSwitch, table, sweeps)

    def test_a_flow_is_matched_once(self, monkeypatch):
        """Frames that differ only in fields no match reads share a decision."""
        import gridshield.sdn as sdn

        calls = []
        monkeypatch.setattr(sdn, "match_frame", lambda *a: calls.append(a) or match_frame(*a))
        net, _ = switch_net((FlowEntry(6, None, (5,)),))
        other_src = encode_goose(dataclasses.replace(golden_goose_frame(), src=OTHER_MAC, app_id=2))
        for t in range(0, 5_000, 500):
            net.inject_ingress(PortRef("sw", 6), other_src if t % 1_000 else GOOSE_RAW, at=t)
        net.inject_ingress(PortRef("sw", 3), GOOSE_RAW, at=5_000)
        net.run_until(50_000)
        assert len(calls) == 2
        departures = events_of_kind(net.log, "FrameDeparture")
        assert len(departures) == 10 and {d.port for d in departures} == {5}


# ---------------------------------------------------------------------------
# Every decision of the panel's tables
# ---------------------------------------------------------------------------

PANEL_FRAMES = {
    "goose": encode_goose(sub.RELAY_PUBLICATION),
    "sv": encode_sv(golden_sv_frame()),
    "ipv4": RawFrame(bytes(12) + struct.pack(">H", 0x0800) + bytes(20)),
    "runt": RawFrame(bytes(13)),  # too short to carry an ethertype
}
ALL_KINDS = tuple(PANEL_FRAMES)

# switch -> {ingress port: (frame kinds, egress ports, drop note)}; every
# other frame on every other port is a no_forwarding_entry drop
PANEL_DECISIONS = {
    "station_bus": {
        sub.SBS_LOOP_IN: (ALL_KINDS, (sub.SBS_LOOP_OUT,), None),
        sub.SBS_PIED: (ALL_KINDS, (sub.SBS_TO_IDS,), None),
        sub.SBS_INJECT: (ALL_KINDS, (sub.SBS_TO_IDS, sub.SBS_LOOP_OUT), None),
    },
    "process_bus": {
        sub.PBS_FROM_MU: (("sv",), (sub.PBS_PIED, sub.PBS_IDS_TAP), None),
    },
    "ids_with_module": {
        sub.IDS_SV_TAP: (ALL_KINDS, (), "flow_drop"),
        sub.IDS_MAIN_FEED: (("goose",), (sub.IDS_LOOP_OUT, sub.IDS_DELIVERY), None),
        sub.IDS_PIED_FEED: (("goose",), (sub.IDS_DELIVERY,), None),
        sub.IDS_LOOP_RETURN: (ALL_KINDS, (), "flow_drop"),
    },
    "ids_without_module": {
        sub.IDS_SV_TAP: (ALL_KINDS, (), "flow_drop"),
        sub.IDS_MAIN_FEED: (("goose",), (sub.IDS_DELIVERY,), None),
        sub.IDS_PIED_FEED: (("goose",), (sub.IDS_DELIVERY,), None),
        sub.IDS_LOOP_RETURN: (ALL_KINDS, (), "flow_drop"),
    },
}

PANEL_SWITCHES = {
    "station_bus": (sub.STATION_BUS, sub.station_bus_flow_table),
    "process_bus": (sub.PROCESS_BUS, sub.process_bus_flow_table),
    "ids_with_module": (sub.IDS, lambda: sub.ids_flow_table(with_ids=True)),
    "ids_without_module": (sub.IDS, lambda: sub.ids_flow_table(with_ids=False)),
}


@pytest.mark.parametrize("switch", list(PANEL_SWITCHES))
def test_panel_tables_decide_every_ingress_port_and_frame_kind(switch):
    """Four frame kinds on every ingress port of each switch: the egress
    ports in order, and the drop note when there are none."""
    node, table = PANEL_SWITCHES[switch]
    net = build_topology(sub.default_topology(DelayComponents()))
    sw = SwitchNode(net, node, table(), 0)
    seen, expected = {}, {}
    for port in range(1, net.nodes[node] + 1):
        kinds, egress, note = PANEL_DECISIONS[switch].get(port, ((), (), None))
        for kind, raw in PANEL_FRAMES.items():
            before = len(net.log)
            ports = tuple(p.port for p in sw.process_frame(raw, port, 0))
            notes = tuple(ev.note for ev in list(net.log)[before:] if ev.kind == "Drop")
            seen[port, kind] = ports, notes
            if kind in kinds:
                expected[port, kind] = egress, (note,) if note else ()
            else:
                expected[port, kind] = (), ("no_forwarding_entry",)
    assert seen == expected
