"""Flow-table semantics: multi-match duplication, coalescing, purity,
switch timing, and the flow cache against a decision per frame."""

from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshield.codec import (
    GOOSE_ETHERTYPE,
    MacAddress,
    RawFrame,
    encode_goose,
)
from gridshield.netsim import PortRef, TopologySpec, build_topology, events_of_kind
from gridshield.sdn import (
    Drop,
    DuplicateEntry,
    FlowEntry,
    FlowTable,
    FlowTableError,
    Forward,
    MatchFields,
    SwitchNode,
    match_frame,
)
from tests.test_codec import golden_goose_frame

GOOSE_RAW = encode_goose(golden_goose_frame())
OTHER_MAC = MacAddress.parse("AA:BB:CC:00:00:01")


def entry(priority, actions, **match):
    return FlowEntry(priority=priority, match=MatchFields(**match), actions=tuple(actions))


class TestMatchFrame:
    def test_multi_match_forwards_to_both_ports(self):
        table = FlowTable(
            entries=(
                entry(100, [Forward(3)], ingress_port=6),
                entry(90, [Forward(7)], ingress_port=6),
            )
        )
        actions = match_frame(table, GOOSE_RAW, ingress=6)
        assert actions == [Forward(3), Forward(7)]

    def test_no_match_falls_back_to_default(self):
        table = FlowTable(entries=(entry(100, [Forward(3)], ingress_port=6),))
        assert match_frame(table, GOOSE_RAW, ingress=1) == [Drop()]

    def test_duplicate_forward_port_coalesced(self):
        table = FlowTable(
            entries=(
                entry(100, [Forward(5)], ingress_port=6),
                entry(90, [Forward(5)], ethertype=GOOSE_ETHERTYPE),
            )
        )
        assert match_frame(table, GOOSE_RAW, ingress=6) == [Forward(5)]

    def test_priority_orders_emissions(self):
        table = FlowTable(
            entries=(
                entry(10, [Forward(1)], ingress_port=6),
                entry(200, [Forward(2)], ingress_port=6),
            )
        )
        assert match_frame(table, GOOSE_RAW, ingress=6) == [Forward(2), Forward(1)]

    def test_equal_priorities_keep_insertion_order(self):
        table = FlowTable(
            entries=(
                entry(50, [Forward(3)], ingress_port=6),
                entry(50, [Forward(1)], ethertype=GOOSE_ETHERTYPE),
                entry(60, [Forward(2)], ingress_port=6, ethertype=GOOSE_ETHERTYPE),
            )
        )
        assert match_frame(table, GOOSE_RAW, ingress=6) == [Forward(2), Forward(3), Forward(1)]

    def test_unparseable_frame_matches_only_ingress_ethertype(self):
        blob = RawFrame(b"\x00" * 13)  # too short to carry an ethertype
        table = FlowTable(
            entries=(
                entry(100, [Forward(1)], ingress_port=2),
                entry(100, [Forward(2)], ethertype=0x0000),
                entry(100, [Forward(3)], ingress_port=2, ethertype=0x0000),
            )
        )
        assert match_frame(table, blob, ingress=2) == [Forward(1)]

    def test_match_needs_at_least_one_field(self):
        with pytest.raises(FlowTableError):
            MatchFields()


class TestFlowTable:
    def test_table_rejects_duplicate_keys_at_build(self):
        e = entry(100, [Forward(1)], ingress_port=1)
        with pytest.raises(DuplicateEntry):
            FlowTable(entries=(e, entry(100, [Forward(2)], ingress_port=1)))


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
        table = FlowTable(
            entries=(
                entry(100, [Forward(3)], ingress_port=6),
                entry(90, [Forward(7)], ingress_port=6),
                entry(80, [Forward(7)], ethertype=GOOSE_ETHERTYPE),
            )
        )
        net, _ = switch_net(table)
        net.inject_ingress(PortRef("sw", 6), GOOSE_RAW, at=0)
        log = net.run_until(10_000)
        departures = events_of_kind(log, "FrameDeparture")
        assert sorted((d.node, d.port) for d in departures) == [("sw", 3), ("sw", 7)]
        assert len({d.digest for d in departures}) == 1

    def test_departure_time_is_arrival_plus_processing_delay(self):
        table = FlowTable(entries=(entry(100, [Forward(5)], ingress_port=6),))
        net, _ = switch_net(table, processing_delay=777)
        net.inject_ingress(PortRef("sw", 6), GOOSE_RAW, at=100)
        log = net.run_until(10_000)
        dep = events_of_kind(log, "FrameDeparture")[0]
        assert dep.time == 877

    def test_unmatched_frame_dropped_once(self):
        net, _ = switch_net(FlowTable())
        net.inject_ingress(PortRef("sw", 6), GOOSE_RAW, at=0)
        log = net.run_until(10_000)
        assert not events_of_kind(log, "FrameDeparture")
        drops = [ev for ev in events_of_kind(log, "Drop") if ev.note == "no_forwarding_entry"]
        assert len(drops) == 1

    def test_explicit_drop_is_logged_as_a_flow_drop(self):
        table = FlowTable(entries=(
            entry(100, [Drop()], ingress_port=6),
            entry(90, [Forward(5)], ingress_port=3),
        ))
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

        table = FlowTable(entries=(entry(100, [Forward(99)], ingress_port=6),))
        with pytest.raises(UnknownPort):
            switch_net(table)

    def test_data_frames_never_mutate_the_table(self):
        table = FlowTable(entries=(entry(100, [Forward(5)], ingress_port=6),))
        net, sw = switch_net(table)
        before = sw.table
        for t in range(0, 5_000, 500):
            net.inject_ingress(PortRef("sw", 6), GOOSE_RAW, at=t)
        net.run_until(50_000)
        assert sw.table is before and sw.table == table


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

action_lists = st.lists(
    st.one_of(st.builds(Forward, st.integers(1, 8)), st.just(Drop())),
    min_size=1,
    max_size=3,
).map(tuple)

matches = st.one_of(
    st.builds(MatchFields, ingress_port=st.integers(1, 8)),
    st.builds(MatchFields, ethertype=st.sampled_from([GOOSE_ETHERTYPE, 0x0800])),
    st.builds(
        MatchFields,
        ingress_port=st.integers(1, 8),
        ethertype=st.sampled_from([GOOSE_ETHERTYPE, 0x0800]),
    ),
)

entries = st.builds(
    FlowEntry,
    priority=st.integers(0, 0xFFFF),
    match=matches,
    actions=action_lists,
)


def tables():
    def dedupe(es):
        seen, out = set(), []
        for e in es:
            if (e.priority, e.match) not in seen:
                seen.add((e.priority, e.match))
                out.append(e)
        return FlowTable(entries=tuple(out))

    return st.lists(entries, max_size=8).map(dedupe)


class TestFlowProperties:
    @given(tables(), st.integers(1, 8))
    def test_match_frame_is_pure(self, table, ingress):
        first = match_frame(table, GOOSE_RAW, ingress)
        second = match_frame(table, GOOSE_RAW, ingress)
        assert first == second

    @given(tables(), st.integers(1, 8))
    def test_forward_ports_are_distinct(self, table, ingress):
        actions = match_frame(table, GOOSE_RAW, ingress)
        ports = [a.port for a in actions if isinstance(a, Forward)]
        assert len(ports) == len(set(ports))


# ---------------------------------------------------------------------------
# The flow cache against a decision per frame
# ---------------------------------------------------------------------------


class PerFrameSwitch(SwitchNode):
    """A switch without its flow cache: ``match_frame`` on every frame."""

    def process_frame(self, raw, ingress, at):
        emitted = False
        for action in match_frame(self.table, raw, ingress):
            if isinstance(action, Forward):
                self.net.send(PortRef(self.node_id, action.port), raw, at + self.processing_delay)
                emitted = True
        if not emitted:
            matched = any(e.match.matches(raw, ingress) for e in self.table.entries)
            reason = "flow_drop" if matched else "no_forwarding_entry"
            self.net.log_event("Drop", self.node_id, ingress, raw.digest, reason)


FLOW_MACS = (MacAddress.parse("00:30:A7:00:00:01"), OTHER_MAC)
# 0x08B8 differs from the GOOSE ethertype in its high byte alone
FLOW_ETHERTYPES = (GOOSE_ETHERTYPE, 0x88BA, 0x08B8, 0x0800)

flow_entries = st.builds(
    FlowEntry,
    priority=st.integers(0, 3),
    match=st.tuples(st.none() | st.integers(1, 3), st.none() | st.sampled_from(FLOW_ETHERTYPES))
    .filter(lambda fields: fields != (None, None))
    .map(lambda f: MatchFields(*f)),
    actions=st.lists(
        st.one_of(st.builds(Forward, st.integers(1, 8)), st.just(Drop())), min_size=1, max_size=3
    ).map(tuple),
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
    entries = draw(st.lists(flow_entries, max_size=6))
    table = FlowTable(entries=tuple({(e.priority, e.match): e for e in entries}.values()))
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
        net, _ = switch_net(FlowTable(entries=(entry(100, [Forward(5)], ingress_port=6),)))
        other_src = encode_goose(dataclasses.replace(golden_goose_frame(), src=OTHER_MAC, app_id=2))
        for t in range(0, 5_000, 500):
            net.inject_ingress(PortRef("sw", 6), other_src if t % 1_000 else GOOSE_RAW, at=t)
        net.inject_ingress(PortRef("sw", 3), GOOSE_RAW, at=5_000)
        net.run_until(50_000)
        assert len(calls) == 2
        departures = events_of_kind(net.log, "FrameDeparture")
        assert len(departures) == 10 and {d.port for d in departures} == {5}
