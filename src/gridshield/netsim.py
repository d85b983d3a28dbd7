"""Deterministic discrete-event network engine.

Nodes are named and carry numbered ports (1-based, matching front-panel
numbering); point-to-point links join two ports with a fixed latency. A
single global queue orders work by time, so two runs of the same inputs
produce byte-identical event logs. Within one microsecond, the run's
*inputs* (work scheduled from outside ``run_until``, such as a device's
first tick or an injection) come before every event the run scheduled
itself, and each of the two keeps its insertion order. So an input added
between two ``run_until`` calls lands where it would have landed had it
been scheduled before the first. Times are integer microseconds
throughout.

The engine logs an append-only :class:`EventLog` of observable events
(frame departures/arrivals, drops, control messages, port state changes,
alerts, verdicts, breaker trips). Internal bookkeeping such as device
timers is scheduled on the same queue but never logged.

Ports are only ever disabled, as the mitigation's port mod does: a
disable takes effect when its queued change is processed, and frames
already in flight on a link are still delivered (links are wires, not
buffers that can be flushed).
"""

from __future__ import annotations

import heapq
import json
import re
from json.encoder import encode_basestring_ascii as _json_str
from typing import BinaryIO, Callable, Iterable, NamedTuple, Protocol

from gridshield.codec import RawFrame

SimTime = int  # microseconds

EVENT_KINDS = (
    "FrameDeparture",
    "FrameArrival",
    "Drop",
    "ControlMsg",
    "PortStateChange",
    "AlertRaised",
    "VerdictReached",
    "BreakerTrip",
)


class TopologyError(Exception):
    pass


class UnknownNode(TopologyError):
    pass


class DuplicateLink(TopologyError):
    pass


class UnknownPort(TopologyError):
    pass


class UnlinkedPort(TopologyError):
    pass


class PortRef(NamedTuple):
    """One numbered port of a node; a plain tuple, so hashing is cheap."""

    node: str
    port: int

    def __str__(self) -> str:
        return f"{self.node}/p{self.port}"


# The line layout that ``EventLog.to_jsonl`` writes, as a pattern, and the
# only one read back. A string is printable ASCII other than '"' and '\',
# or a backslash and the printable character after it; strings with
# escapes are decoded by json and must re-encode to the same bytes.
_INT = r"(0|-?[1-9][0-9]*)"  # no "-0": json.dumps never writes it
_STR = r'([ !#-\[\]-~]*(?:\\[ -~][ !#-\[\]-~]*)*)'
_LINE_RE = re.compile(
    rf'\{{"t":{_INT},"seq":{_INT},"kind":"{_STR}","node":"{_STR}",'
    rf'"port":(?:null|{_INT}),"digest":(?:null|"{_STR}"),"note":(?:null|"{_STR}")\}}'
)


# events.jsonl is written and read a bounded piece at a time, so the log's
# I/O never holds a second copy of the whole file.
WRITE_CHUNK_EVENTS = 4096  # events formatted per write
READ_CHUNK_BYTES = 1 << 18  # bytes decoded and split per parse step

_new_tuple = tuple.__new__  # skips the generated __new__'s argument binding


def _unescape(body: str | None) -> str | None:
    if body is None or "\\" not in body:
        return body
    quoted = '"' + body + '"'
    value = json.loads(quoted)
    if _json_str(value) != quoted:
        raise ValueError(f"non-canonical string escape: {quoted[:120]}")
    return value


class SimEvent(NamedTuple):
    """One observable simulation event, ordered by (time, seq)."""

    time: SimTime
    seq: int
    kind: str
    node: str
    port: int | None
    digest: str | None
    note: str | None


class EventLog(list):
    """Append-only list of SimEvent, sorted by (time, seq)."""

    def to_jsonl(self) -> str:
        """One line per event, each ending in a newline: the compact
        ``json.dumps`` form of its fields in this key order, with ASCII-only
        string escapes."""
        return "".join([
            f'{{"t":{t},"seq":{seq},"kind":{_json_str(kind)},"node":{_json_str(node)},'
            f'"port":{"null" if port is None else port},'
            f'"digest":{"null" if digest is None else _json_str(digest)},'
            f'"note":{"null" if note is None else _json_str(note)}}}\n'
            for t, seq, kind, node, port, digest, note in self
        ])

    def write_jsonl(self, stream: BinaryIO, start: int = 0) -> None:
        """Write ``to_jsonl()`` of the events from ``start`` on as bytes,
        WRITE_CHUNK_EVENTS events at a time."""
        step = WRITE_CHUNK_EVENTS
        for first in range(start, len(self), step):
            stream.write(EventLog(self[first:first + step]).to_jsonl().encode())

    @classmethod
    def from_jsonl(cls, data: bytes) -> EventLog:
        """Parse ``to_jsonl`` output as UTF-8 bytes: one line per event, each
        ending in a newline, no blank lines;
        ``from_jsonl(text.encode()).to_jsonl() == text``.

        The input is decoded and split about READ_CHUNK_BYTES at a time, at
        a newline, which never occurs inside a UTF-8 sequence. Equal strings
        share one object across the log."""
        if data and data[-1:] != b"\n":
            raise ValueError("log does not end with a newline")
        log = cls()
        append = log.append
        share = {}.setdefault
        fullmatch = _LINE_RE.fullmatch
        start = 0
        while start < len(data):
            end = data.find(b"\n", start + READ_CHUNK_BYTES - 1) + 1 or len(data)
            try:
                chunk = data[start:end].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"not UTF-8 at byte {start + exc.start}") from None
            lines = chunk.split("\n")
            lines.pop()
            for line in lines:
                m = fullmatch(line)
                if m is None:
                    raise ValueError(f"not an events.jsonl line: {line[:120]!r}")
                t, seq, kind, node, port, digest, note = m.groups()
                if "\\" in line:
                    kind, node, digest, note = map(_unescape, (kind, node, digest, note))
                append(_new_tuple(SimEvent, (
                    int(t),
                    int(seq),
                    share(kind, kind),
                    share(node, node),
                    None if port is None else int(port),
                    share(digest, digest),
                    share(note, note),
                )))
            start = end
        return log


class TopologySpec(NamedTuple):
    """Declarative description of nodes, port counts, and wired links."""

    nodes: dict[str, int]
    links: tuple[tuple[str, int, str, int, SimTime], ...]


class NodeHandler(Protocol):
    def on_frame(self, port: int, raw: RawFrame, at: SimTime) -> None: ...


class Network:
    """Topology, port states, event queue and log for one simulation run."""

    def __init__(self) -> None:
        self.nodes: dict[str, int] = {}
        self.handlers: dict[str, NodeHandler] = {}
        self.links: dict[PortRef, tuple[PortRef, SimTime]] = {}
        self._disabled: set[PortRef] = set()
        self._heap: list[tuple[SimTime, int, Callable[..., None], tuple]] = []
        # the insertion counter _schedule uses, and the other one: inputs
        # count up from far below every count of the run's own events
        self._sched = -(1 << 62)
        self._other_sched = 0
        self.now: SimTime = 0
        self.log = EventLog()

    # -- construction ------------------------------------------------------

    def add_node(self, node: str, ports: int) -> None:
        if ports < 1:
            raise TopologyError(f"node {node} needs at least one port")
        self.nodes[node] = ports

    def add_link(self, a: PortRef, b: PortRef, latency: SimTime) -> None:
        self.check_port(a)
        self.check_port(b)
        if a == b:
            raise TopologyError(f"link endpoints must differ, got {a} twice")
        for ref in (a, b):
            if ref in self.links:
                raise DuplicateLink(f"{ref} already belongs to a link")
        self.links[a] = (b, latency)
        self.links[b] = (a, latency)

    def register(self, node: str, handler: NodeHandler) -> None:
        if node not in self.nodes:
            raise UnknownNode(f"no such node {node}")
        self.handlers[node] = handler

    # -- port state --------------------------------------------------------

    def check_port(self, port: PortRef) -> None:
        if port.node not in self.nodes:
            raise UnknownNode(f"no such node {port.node}")
        if not 1 <= port.port <= self.nodes[port.node]:
            raise UnknownPort(f"{port} beyond the node's port count")

    def disable_port(self, port: PortRef, at: SimTime) -> None:
        """Schedule a port disable; effective once processed."""
        self.check_port(port)
        self._schedule(at, self._disable, (port,))

    def _disable(self, port: PortRef) -> None:
        self._disabled.add(port)
        self.log_event("PortStateChange", port.node, port.port, note="disabled")

    # -- frame movement ----------------------------------------------------

    def send(self, from_port: PortRef, raw: RawFrame, at: SimTime, note: str | None = None) -> None:
        """Emit a frame out of a linked port at time ``at``.

        Port states are checked at the moment of departure; a frame that
        makes it onto the wire is delivered even if a port is disabled
        while it is in flight.
        """
        if from_port not in self.links:
            self.check_port(from_port)
            raise UnlinkedPort(f"{from_port} has no link")
        self._schedule(at, self._depart, (from_port, raw, note))

    def _depart(self, from_port: PortRef, raw: RawFrame, note: str | None) -> None:
        digest = raw.digest
        self.log_event("FrameDeparture", from_port.node, from_port.port, digest, note)
        far, latency = self.links[from_port]
        if from_port in self._disabled:
            self.log_event("Drop", from_port.node, from_port.port, digest, "tx_port_disabled")
            return
        if far in self._disabled:
            self.log_event("Drop", far.node, far.port, digest, "rx_port_disabled")
            return
        self._schedule(self.now + latency, self._arrive, (far, raw, None))

    def inject_ingress(self, port: PortRef, raw: RawFrame, at: SimTime, note: str = "injected") -> None:
        """Make a frame appear as ingress at a port, without a wire.

        This models ground-truth attack injection; the arrival is logged
        with the given note so detection can be scored against it.
        """
        self.check_port(port)
        self._schedule(at, self._arrive, (port, raw, note, True))

    def _arrive(self, port: PortRef, raw: RawFrame, note: str | None, check_enabled: bool = False) -> None:
        digest = raw.digest
        if check_enabled and port in self._disabled:
            self.log_event("Drop", port.node, port.port, digest, "ingress_port_disabled")
            return
        self.log_event("FrameArrival", port.node, port.port, digest, note)
        handler = self.handlers.get(port.node)
        if handler is not None:
            handler.on_frame(port.port, raw, self.now)

    # -- scheduling & logging ----------------------------------------------

    def call(self, at: SimTime, fn: Callable[..., None], *args) -> None:
        """Schedule an internal (unlogged) callback, ``fn(*args)`` at ``at``."""
        self._schedule(at, fn, args)

    def _schedule(self, at: SimTime, fn: Callable[..., None], args: tuple) -> None:
        if at < self.now:
            raise ValueError(f"cannot schedule at {at} before now={self.now}")
        self._sched += 1
        heapq.heappush(self._heap, (at, self._sched, fn, args))

    def log_event(
        self,
        kind: str,
        node: str,
        port: int | None = None,
        digest: str | None = None,
        note: str | None = None,
    ) -> None:
        assert kind in EVENT_KINDS, kind
        ev = _new_tuple(SimEvent, (self.now, len(self.log), kind, node, port, digest, note))
        self.log.append(ev)

    def run_until(self, t_end: SimTime) -> EventLog:
        """Process every queued item with time <= t_end, in (time, seq) order."""
        heap = self._heap
        heappop = heapq.heappop
        # while it runs, what is scheduled is the run's own events
        self._sched, self._other_sched = self._other_sched, self._sched
        try:
            while heap and heap[0][0] <= t_end:
                at, _seq, fn, args = heappop(heap)
                self.now = at
                fn(*args)
        finally:
            self._sched, self._other_sched = self._other_sched, self._sched
        self.now = max(self.now, t_end)
        return self.log


def build_topology(spec: TopologySpec) -> Network:
    """Instantiate a network from a topology description.

    Raises UnknownNode / UnknownPort / DuplicateLink when a link refers
    to a missing node, a port beyond a node's port count, or a port that
    is already wired.
    """
    net = Network()
    for node, ports in spec.nodes.items():
        net.add_node(node, ports)
    for node_a, port_a, node_b, port_b, latency in spec.links:
        net.add_link(PortRef(node_a, port_a), PortRef(node_b, port_b), latency)
    return net


# -- log analysis helpers ----------------------------------------------------


def events_of_kind(log: Iterable[SimEvent], kind: str) -> list[SimEvent]:
    return [ev for ev in log if ev.kind == kind]


def note_fields(note: str | None, head: str | None = None) -> dict[str, str]:
    """The ``key=value`` words of a log note, by key, after its first word
    ``head`` when one is given. Raises ValueError for any other note: one
    without that first word, or with a word that is no ``key=value``, a key
    given twice or two spaces in a row."""
    words = note.split(" ") if note else []
    if head is not None:
        if words[:1] != [head]:
            raise ValueError(f"note {note!r} does not start with {head!r}")
        words = words[1:]
    fields: dict[str, str] = {}
    for word in words:
        key, sep, value = word.partition("=")
        if not sep or not key or key in fields:
            raise ValueError(f"note {note!r}: {word!r} is no key=value field, or repeats a key")
        fields[key] = value
    return fields
