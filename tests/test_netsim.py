"""Engine tests: topology validation, latency arithmetic, port-state
semantics, determinism, causality and conservation over the event log."""

from __future__ import annotations

import io
import json
import re
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridshield import netsim
from gridshield.codec import RawFrame
from gridshield.netsim import (
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
        with pytest.raises(UnknownPort):
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
        net.disable_port(PortRef("b", 1), at=0)
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
            net.disable_port(PortRef("a", 1), at=50)
            net.send(PortRef("b", 1), FRAME, at=60)
            return net.run_until(10_000).to_jsonl()

        assert build_and_run() == build_and_run()

    def test_an_input_added_between_runs_lands_as_if_scheduled_first(self):
        """b's send is an input: in the microsecond of the arrival that the
        run itself scheduled, it comes first, whether it was scheduled
        before the run started or between two ``run_until`` calls."""
        def run(split: bool):
            net = two_node_net(latency=100)
            net.send(PortRef("a", 1), FRAME, at=0)  # its arrival at b, at 100, is the run's
            if split:
                net.run_until(50)
            net.send(PortRef("b", 1), FRAME2, at=100)
            return net.run_until(1_000)

        log = run(split=True)
        assert [(ev.kind, ev.node) for ev in log if ev.time == 100] == [
            ("FrameDeparture", "b"), ("FrameArrival", "b")
        ]
        assert log.to_jsonl() == run(split=False).to_jsonl()


class TestPortState:
    def test_disable_then_inject_yields_no_arrivals(self):
        net = two_node_net()
        net.disable_port(PortRef("a", 1), at=0)
        net.inject_ingress(PortRef("a", 1), FRAME, at=10)
        log = net.run_until(1_000)
        assert not events_of_kind(log, "FrameArrival")
        assert any(ev.note == "ingress_port_disabled" for ev in events_of_kind(log, "Drop"))

    def test_in_flight_frame_survives_disable(self):
        # frame departs at 10, flies 100us; both ports disabled at 11
        net = two_node_net(latency=100)
        net.send(PortRef("a", 1), FRAME, at=10)
        net.disable_port(PortRef("a", 1), at=11)
        net.disable_port(PortRef("b", 1), at=11)
        log = net.run_until(1_000)
        arrivals = events_of_kind(log, "FrameArrival")
        assert len(arrivals) == 1 and arrivals[0].time == 110

    def test_unknown_port_rejected(self):
        net = two_node_net()
        with pytest.raises(UnknownPort):
            net.disable_port(PortRef("a", 7), at=0)

    def test_state_change_ordered_with_sends(self):
        # disable processed at t=10 before a send scheduled later at t=10
        net = two_node_net()
        net.disable_port(PortRef("a", 1), at=10)
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
        net.disable_port(PortRef("b", 1), at=400)
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
        again = EventLog.from_jsonl(text.encode())
        assert list(again) == list(log)
        assert again.to_jsonl() == text

    def test_event_json_field_order_is_stable(self):
        ev = SimEvent(1, 2, "Drop", "a", 1, "ab", None)
        assert EventLog([ev]).to_jsonl() == '{"t":1,"seq":2,"kind":"Drop","node":"a","port":1,"digest":"ab","note":null}\n'

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
        assert EventLog([ev]).to_jsonl() == reference + "\n"
        assert EventLog.from_jsonl((reference + "\n").encode()) == [ev]

    @pytest.mark.parametrize(
        "field, value",
        [("t", 1.5), ("seq", True), ("kind", 3), ("node", None), ("port", 1.0),
         ("port", False), ("digest", 7), ("note", ["x"]), (None, [1, 2]), (None, "text")],
    )
    def test_line_that_is_not_an_event_is_rejected(self, field, value):
        """A mistyped value, or a line that is not a JSON object at all, in
        the compact layout that a well-typed line is accepted in."""
        line = EventLog([SimEvent(1, 2, "Drop", "a", 1, "ab", None)]).to_jsonl()[:-1]
        assert compact(json.loads(line)) == line
        obj = json.loads(line)
        if field is None:
            obj = value
        else:
            obj[field] = value
        with pytest.raises(ValueError):
            EventLog.from_jsonl((compact(obj) + "\n").encode())

    @given(LOGS)
    def test_reader_agrees_with_json_loads(self, log):
        text = log.to_jsonl()
        assert text == "".join(EventLog([ev]).to_jsonl() for ev in log)
        parsed = EventLog.from_jsonl(text.encode())
        assert parsed == json_reference_reader(text)
        assert parsed.to_jsonl() == text

    @given(LOGS, st.sampled_from(sorted(MUTATIONS)), st.integers(min_value=0))
    def test_other_layouts_are_rejected_or_exact(self, log, mutation, where):
        """Whatever the reader accepts, it writes back byte for byte."""
        text = MUTATIONS[mutation](log.to_jsonl(), where)
        assert text != log.to_jsonl()
        try:
            parsed = EventLog.from_jsonl(text.encode())
        except ValueError:
            return
        assert parsed.to_jsonl() == text


def chunks(events: int = netsim.WRITE_CHUNK_EVENTS, size: int = netsim.READ_CHUNK_BYTES):
    """Write ``events`` events and read about ``size`` bytes at a time."""
    return mock.patch.multiple(netsim, WRITE_CHUNK_EVENTS=events, READ_CHUNK_BYTES=size)


def written(log: EventLog) -> bytes:
    stream = io.BytesIO()
    log.write_jsonl(stream)
    return stream.getvalue()


def parsed_or_error(data: bytes) -> list[SimEvent] | str:
    try:
        return EventLog.from_jsonl(data)
    except ValueError as exc:
        return str(exc)


def numbered_log(n: int) -> EventLog:
    """``n`` events whose lines all have the same length."""
    return EventLog(SimEvent(i, i, "Drop", "a", 1, "ab", None) for i in range(n))


class TestJsonlChunks:
    """With the chunks shrunk to a few events or bytes, writing and
    reading cross a chunk boundary at every position of a small log, and
    the bytes and events are those of the log in one piece."""

    @given(LOGS, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=400))
    def test_reader_and_writer_agree_with_json_loads(self, log, events, size):
        text = log.to_jsonl()
        with chunks(events, size):
            assert written(log) == text.encode()
            parsed = EventLog.from_jsonl(text.encode())
        assert parsed == json_reference_reader(text)
        assert parsed.to_jsonl() == text

    @given(LOGS, st.sampled_from(sorted(MUTATIONS)), st.integers(min_value=0),
           st.integers(min_value=1, max_value=400))
    def test_other_layouts_are_read_as_in_one_piece(self, log, mutation, where, size):
        text = MUTATIONS[mutation](log.to_jsonl(), where)
        whole = parsed_or_error(text.encode())
        with chunks(size=size):
            assert parsed_or_error(text.encode()) == whole
        if not isinstance(whole, str):
            assert whole.to_jsonl() == text

    def test_empty_log(self):
        with chunks(1, 1):
            assert written(EventLog()) == b""
            assert EventLog.from_jsonl(b"") == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_logs_around_one_chunk_of_events(self, n):
        log = numbered_log(n)
        text = log.to_jsonl()
        line = len(text) // n
        for size in (3 * line - 1, 3 * line, 3 * line + 1):
            with chunks(3, size):
                assert written(log) == text.encode()
                assert EventLog.from_jsonl(text.encode()) == log

    def test_writer_writes_one_chunk_of_events_at_a_time(self):
        stream = mock.Mock()
        with chunks(events=3):
            numbered_log(7).write_jsonl(stream)
        line = len(numbered_log(1).to_jsonl())
        assert [len(c.args[0]) for c in stream.write.call_args_list] == [3 * line, 3 * line, line]

    def test_escape_at_every_boundary(self):
        log = numbered_log(3)
        log[1] = log[1]._replace(note='q"uote\\', node="é")
        data = log.to_jsonl().encode()
        assert b"\\u00e9" in data
        for size in range(1, len(data) + 2):
            with chunks(size=size):
                assert EventLog.from_jsonl(data) == log

    @pytest.mark.parametrize(
        "bad, error",
        [
            ('{"t":1, "seq":1}', "not an events.jsonl line: '{\"t\":1, \"seq\":1}'"),
            ("", "not an events.jsonl line: ''"),
            (b'{"t":\xff}', "not UTF-8 at byte"),
        ],
        ids=["layout", "blank", "not_utf8"],
    )
    def test_malformed_line_at_every_boundary(self, bad, error):
        lines = numbered_log(3).to_jsonl().encode().split(b"\n")
        lines[1] = bad if isinstance(bad, bytes) else bad.encode()
        data = b"\n".join(lines)
        whole = parsed_or_error(data)
        assert whole.startswith(error)
        for size in range(1, len(data) + 2):
            with chunks(size=size):
                assert parsed_or_error(data) == whole
