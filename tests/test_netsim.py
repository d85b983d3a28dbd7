"""Engine tests: topology validation, latency arithmetic, port-state
semantics, determinism, causality and conservation over the event log."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridshield.codec import RawFrame
from gridshield.netsim import (
    DanglingPort,
    DuplicateLink,
    EventLog,
    Network,
    PortRef,
    SimEvent,
    TopologySpec,
    UnknownNode,
    UnknownPort,
    UnlinkedPort,
    _LINE_RE,
    build_topology,
    events_of_kind,
)
from gridshield.util import frame_digest

# Arbitrary text plus the cases JSON escapes specially: quotes,
# backslashes, control characters, non-ASCII and a lone surrogate.
LOG_TEXT = st.text() | st.sampled_from(
    ['q"uote', "back\\slash", "tab\there\n", "\x00\x1f\x7f", "é€😀", "\ud800"]
)

EVENTS = st.builds(
    SimEvent,
    time=st.integers(min_value=0, max_value=2**63),
    seq=st.integers(min_value=0, max_value=2**63),
    kind=LOG_TEXT,
    node=LOG_TEXT,
    port=st.none() | st.integers(),
    digest=st.none() | LOG_TEXT,
    note=st.none() | LOG_TEXT,
)
LOGS = st.lists(EVENTS, min_size=1, max_size=5).map(EventLog)


def compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def json_reference_reader(text: str) -> list[SimEvent]:
    """The events of a canonical log, read by ``json.loads``."""
    keys = ("t", "seq", "kind", "node", "port", "digest", "note")
    return [SimEvent(*(json.loads(line)[k] for k in keys)) for line in text.split("\n")[:-1]]


def _on_line(edit):
    """A mutation that applies ``edit`` to one line of a log text."""

    def mutate(text: str, where: int) -> str:
        lines = text.split("\n")
        i = where % (len(lines) - 1)
        lines[i] = edit(lines[i])
        return "\n".join(lines)

    return mutate


def _blank_line(text: str, where: int) -> str:
    lines = text.split("\n")
    lines.insert(where % len(lines), "")
    return "\n".join(lines)


# Edits of a canonical log into other JSON layouts of the same values, or
# into other JSON values. A key's first occurrence in a line is the key:
# the integers before it hold no quote, and a quote inside a string is
# escaped.
MUTATIONS = {
    "space_after_colon": _on_line(lambda line: line.replace('"seq":', '"seq": ', 1)),
    "space_after_comma": _on_line(lambda line: line.replace(',"seq":', ', "seq":', 1)),
    "blank_line": _blank_line,
    "no_final_newline": lambda text, where: text[:-1],
    "raw_non_ascii": _on_line(lambda line: line.replace('"kind":"', '"kind":"\u00e9', 1)),
    "escaped_solidus": _on_line(lambda line: line.replace('"kind":"', '"kind":"\\/', 1)),
    "escaped_letter": _on_line(lambda line: line.replace('"kind":"', '"kind":"\\u0041', 1)),
    "leading_zero": _on_line(lambda line: line.replace('{"t":', '{"t":0', 1)),
    "negative_zero": _on_line(lambda line: re.sub(r'"seq":-?[0-9]+', '"seq":-0', line, count=1)),
    "float": _on_line(lambda line: re.sub(r'^\{"t":-?[0-9]+', r"\g<0>.0", line)),
    "boolean": _on_line(lambda line: re.sub(r'"port":(null|-?[0-9]+)', '"port":true', line, count=1)),
}

FRAME = RawFrame(b"\x00" * 20)
FRAME2 = RawFrame(b"\x01" * 20)


def two_node_net(latency=100) -> Network:
    net = build_topology(
        TopologySpec(nodes={"a": 2, "b": 2}, links=(("a", 1, "b", 1, latency),))
    )
    return net


class TestBuildTopology:
    def test_link_to_missing_node(self):
        spec = TopologySpec(nodes={"a": 2}, links=(("a", 1, "ghost", 1, 10),))
        with pytest.raises(UnknownNode):
            build_topology(spec)

    def test_link_to_port_beyond_count(self):
        spec = TopologySpec(nodes={"a": 2, "ids": 8}, links=(("a", 1, "ids", 9, 10),))
        with pytest.raises(DanglingPort):
            build_topology(spec)

    def test_two_links_sharing_a_port(self):
        spec = TopologySpec(
            nodes={"a": 2, "b": 2, "c": 2},
            links=(("a", 1, "b", 1, 10), ("c", 1, "a", 1, 10)),
        )
        with pytest.raises(DuplicateLink):
            build_topology(spec)

    def test_node_roles_in_spec_are_kept(self):
        spec = TopologySpec(nodes={"x": 1, "y": 3}, links=())
        net = build_topology(spec)
        assert set(net.nodes) == {"x", "y"}
        assert net.nodes["y"] == 3


class TestSend:
    def test_arrival_after_link_latency(self):
        net = two_node_net(latency=100)
        net.send(PortRef("a", 1), FRAME, at=0)
        log = net.run_until(1_000)
        arrivals = events_of_kind(log, "FrameArrival")
        assert len(arrivals) == 1
        assert (arrivals[0].node, arrivals[0].port, arrivals[0].time) == ("b", 1, 100)

    def test_send_from_unlinked_port(self):
        net = two_node_net()
        with pytest.raises(UnlinkedPort):
            net.send(PortRef("a", 2), FRAME, at=0)

    def test_far_port_disabled_drops(self):
        net = two_node_net()
        net.set_port_state(PortRef("b", 1), False, at=0)
        net.send(PortRef("a", 1), FRAME, at=10)
        log = net.run_until(1_000)
        assert not events_of_kind(log, "FrameArrival")
        drops = events_of_kind(log, "Drop")
        assert len(drops) == 1 and drops[0].note == "rx_port_disabled"

    def test_two_sends_same_time_keep_insertion_order(self):
        net = two_node_net()
        net.send(PortRef("a", 1), FRAME, at=5)
        net.send(PortRef("b", 1), FRAME2, at=5)
        log = net.run_until(1_000)
        arrivals = events_of_kind(log, "FrameArrival")
        assert [ev.node for ev in arrivals] == ["b", "a"]
        assert [ev.digest for ev in arrivals] == [frame_digest(FRAME), frame_digest(FRAME2)]


class TestRunUntil:
    def test_empty_network_empty_log(self):
        net = build_topology(TopologySpec(nodes={"a": 1}, links=()))
        assert list(net.run_until(10_000)) == []

    def test_t_end_before_first_event(self):
        net = two_node_net()
        net.send(PortRef("a", 1), FRAME, at=500)
        assert list(net.run_until(499)) == []

    def test_identical_runs_identical_logs(self):
        def build_and_run():
            net = two_node_net()
            net.send(PortRef("a", 1), FRAME, at=5)
            net.send(PortRef("b", 1), FRAME2, at=5)
            net.set_port_state(PortRef("a", 1), False, at=50)
            net.send(PortRef("b", 1), FRAME, at=60)
            return net.run_until(10_000).to_jsonl()

        assert build_and_run() == build_and_run()


class TestPortState:
    def test_disable_then_inject_yields_no_arrivals(self):
        net = two_node_net()
        net.set_port_state(PortRef("a", 1), False, at=0)
        net.inject_ingress(PortRef("a", 1), FRAME, at=10)
        log = net.run_until(1_000)
        assert not events_of_kind(log, "FrameArrival")
        assert any(ev.note == "ingress_port_disabled" for ev in events_of_kind(log, "Drop"))

    def test_enable_already_enabled_is_idempotent(self):
        net = two_node_net()
        net.set_port_state(PortRef("a", 1), True, at=0)
        log = net.run_until(1_000)
        changes = events_of_kind(log, "PortStateChange")
        assert len(changes) == 1
        assert net.port_enabled(PortRef("a", 1))

    def test_in_flight_frame_survives_disable(self):
        # frame departs at 10, flies 100us; both ports disabled at 11
        net = two_node_net(latency=100)
        net.send(PortRef("a", 1), FRAME, at=10)
        net.set_port_state(PortRef("a", 1), False, at=11)
        net.set_port_state(PortRef("b", 1), False, at=11)
        log = net.run_until(1_000)
        arrivals = events_of_kind(log, "FrameArrival")
        assert len(arrivals) == 1 and arrivals[0].time == 110

    def test_unknown_port_rejected(self):
        net = two_node_net()
        with pytest.raises(UnknownPort):
            net.set_port_state(PortRef("a", 7), False, at=0)

    def test_state_change_ordered_with_sends(self):
        # disable processed at t=10 before a send scheduled later at t=10
        net = two_node_net()
        net.set_port_state(PortRef("a", 1), False, at=10)
        net.send(PortRef("a", 1), FRAME, at=10)
        log = net.run_until(1_000)
        assert not events_of_kind(log, "FrameArrival")


class TestLogInvariants:
    def _busy_log(self):
        net = build_topology(
            TopologySpec(
                nodes={"a": 2, "b": 2, "c": 1},
                links=(("a", 1, "b", 1, 100), ("a", 2, "c", 1, 250)),
            )
        )
        for t in range(0, 1000, 90):
            net.send(PortRef("a", 1), FRAME, at=t)
            net.send(PortRef("a", 2), FRAME2, at=t + 1)
        net.set_port_state(PortRef("b", 1), False, at=400)
        net.inject_ingress(PortRef("c", 1), FRAME, at=500)
        return net, net.run_until(5_000)

    def test_log_sorted_by_time_then_seq(self):
        _, log = self._busy_log()
        keys = [(ev.time, ev.seq) for ev in log]
        assert keys == sorted(keys)

    def test_causality_every_arrival_has_departure(self):
        net, log = self._busy_log()
        departures = events_of_kind(log, "FrameDeparture")
        for arr in events_of_kind(log, "FrameArrival"):
            if arr.note == "injected":
                continue
            far = PortRef(arr.node, arr.port)
            near, latency = net.links[far]
            assert any(
                dep.node == near.node
                and dep.port == near.port
                and dep.digest == arr.digest
                and arr.time - dep.time == latency
                for dep in departures
            )

    def test_conservation_departures_equal_arrivals_plus_drops(self):
        _, log = self._busy_log()
        departures = len(events_of_kind(log, "FrameDeparture"))
        link_arrivals = len(
            [ev for ev in events_of_kind(log, "FrameArrival") if ev.note != "injected"]
        )
        tx_drops = len(
            [ev for ev in events_of_kind(log, "Drop") if ev.note in ("tx_port_disabled", "rx_port_disabled")]
        )
        assert departures == link_arrivals + tx_drops


class TestJsonl:
    def test_roundtrip(self):
        _, log = TestLogInvariants()._busy_log()
        text = log.to_jsonl()
        again = EventLog.from_jsonl(text)
        assert list(again) == list(log)
        assert again.to_jsonl() == text

    def test_event_json_field_order_is_stable(self):
        ev = SimEvent(1, 2, "Drop", "a", 1, "ab", None)
        assert ev.to_json() == '{"t":1,"seq":2,"kind":"Drop","node":"a","port":1,"digest":"ab","note":null}'

    def test_line_pattern_has_no_python_3_11_syntax(self):
        """The package supports Python 3.10, whose ``re`` has no possessive
        quantifiers or atomic groups."""
        assert not re.search(r"[*+?}]\+|\(\?>", _LINE_RE.pattern)

    @given(EVENTS)
    def test_template_line_equals_compact_json_dumps(self, ev):
        reference = json.dumps(
            {
                "t": ev.time,
                "seq": ev.seq,
                "kind": ev.kind,
                "node": ev.node,
                "port": ev.port,
                "digest": ev.digest,
                "note": ev.note,
            },
            separators=(",", ":"),
        )
        assert ev.to_json() == reference
        assert EventLog([ev]).to_jsonl() == reference + "\n"
        assert SimEvent.from_json(ev.to_json()) == ev

    @pytest.mark.parametrize(
        "field, value",
        [("t", 1.5), ("seq", True), ("kind", 3), ("node", None), ("port", 1.0),
         ("port", False), ("digest", 7), ("note", ["x"]), (None, [1, 2]), (None, "text")],
    )
    def test_line_that_is_not_an_event_is_rejected(self, field, value):
        """A mistyped value, or a line that is not a JSON object at all, in
        the compact layout that a well-typed line is accepted in."""
        line = SimEvent(1, 2, "Drop", "a", 1, "ab", None).to_json()
        assert compact(json.loads(line)) == line
        obj = json.loads(line)
        if field is None:
            obj = value
        else:
            obj[field] = value
        with pytest.raises(ValueError):
            EventLog.from_jsonl(compact(obj) + "\n")

    @given(LOGS)
    def test_reader_agrees_with_json_loads(self, log):
        text = log.to_jsonl()
        assert text == "".join(ev.to_json() + "\n" for ev in log)
        parsed = EventLog.from_jsonl(text)
        assert parsed == json_reference_reader(text)
        assert parsed.to_jsonl() == text

    @given(LOGS, st.sampled_from(sorted(MUTATIONS)), st.integers(min_value=0))
    def test_other_layouts_are_rejected_or_exact(self, log, mutation, where):
        """Whatever the reader accepts, it writes back byte for byte."""
        text = MUTATIONS[mutation](log.to_jsonl(), where)
        assert text != log.to_jsonl()
        try:
            parsed = EventLog.from_jsonl(text)
        except ValueError:
            return
        assert parsed.to_jsonl() == text
