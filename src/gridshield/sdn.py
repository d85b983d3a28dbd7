"""Static flow tables matched on ingress port and ethertype, with duplication.

A frame is matched against *every* entry whose set fields all equal the
frame's values; the union of the matching entries' actions is applied,
with duplicate forwards to the same port coalesced into a single
emission. This collect-all behavior is what lets one ingress frame be
replicated to several monitor ports at once. A frame that matches only
explicit ``Drop`` actions is dropped as ``flow_drop``; an unmatched frame
is dropped as ``no_forwarding_entry``.

A switch's table is fixed when it is built; there is no controller
channel. The only port-disable path is the inspector's mitigation
(``ids.IdsNode``), which schedules ``Network.set_port_state``.

A :class:`SwitchNode` decides each flow once, as an OpenFlow switch's flow
cache does. A decision depends only on the ingress port and the
ethertype bytes (a frame too short to carry an ethertype has fewer than
two of them, and no entry with an ethertype matches it), so the node
caches the egress ports of ``match_frame``, and the reason it logs when
there are none, under that key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gridshield.codec import RawFrame
from gridshield.netsim import Network, PortRef, SimTime, UnknownPort


class FlowTableError(Exception):
    pass


class DuplicateEntry(FlowTableError):
    pass


@dataclass(frozen=True)
class MatchFields:
    """Wildcard match: unset fields match anything, set fields must equal."""

    ingress_port: int | None = None
    ethertype: int | None = None

    def __post_init__(self) -> None:
        if self.ingress_port is None and self.ethertype is None:
            raise FlowTableError("a match needs at least one set field")

    def matches(self, raw: RawFrame, ingress: int) -> bool:
        if self.ingress_port is not None and self.ingress_port != ingress:
            return False
        return self.ethertype is None or self.ethertype == raw.ethertype


@dataclass(frozen=True)
class Forward:
    port: int


@dataclass(frozen=True)
class Drop:
    pass


Action = Forward | Drop


@dataclass(frozen=True)
class FlowEntry:
    priority: int
    match: MatchFields
    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        if not self.actions:
            raise FlowTableError("entry needs actions; use an explicit Drop")
        if not 0 <= self.priority <= 0xFFFF:
            raise FlowTableError(f"priority {self.priority} outside u16")


@dataclass(frozen=True)
class FlowTable:
    entries: tuple[FlowEntry, ...] = ()  # insertion order
    # highest priority first, equal priorities in insertion order
    by_priority: tuple[FlowEntry, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keys = [(e.priority, e.match) for e in self.entries]
        if len(keys) != len(set(keys)):
            raise DuplicateEntry("two entries share (priority, match)")
        order = sorted(self.entries, key=lambda e: -e.priority)  # stable
        object.__setattr__(self, "by_priority", tuple(order))


def match_frame(table: FlowTable, raw: RawFrame, ingress: int) -> list[Action]:
    """Collect the actions of all matching entries (``[Drop()]`` if none match).

    Actions are ordered by entry priority (highest first, then insertion
    order); forwards to the same port appear once.
    """
    matching = [e for e in table.by_priority if e.match.matches(raw, ingress)]
    if not matching:
        return [Drop()]
    out: list[Action] = []
    seen_ports: set[int] = set()
    for entry in matching:
        for action in entry.actions:
            if isinstance(action, Forward):
                if action.port in seen_ports:
                    continue
                seen_ports.add(action.port)
                out.append(action)
            elif action not in out:
                out.append(action)
    return out


class SwitchNode:
    """A switch attached to the engine; forwards per its flow table.

    Each Forward action becomes a departure ``processing_delay`` after the
    frame's arrival; a frame with no emission is logged as a Drop, with the
    reason ``flow_drop`` when an entry matched it and ``no_forwarding_entry``
    when none did.
    """

    def __init__(self, net: Network, node_id: str, table: FlowTable, processing_delay: SimTime):
        self.net = net
        self.node_id = node_id
        net.register(node_id, self)
        port_count = net.nodes[node_id]
        for entry in table.entries:
            for action in entry.actions:
                if isinstance(action, Forward) and not 1 <= action.port <= port_count:
                    raise UnknownPort(
                        f"entry forwards to port {action.port}, but {node_id} has {port_count} ports"
                    )
        self.table = table
        self.processing_delay = processing_delay
        # (ingress, ethertype bytes) -> egress ports, and the drop reason
        # when there are none
        self._decisions: dict[tuple[int, bytes], tuple[tuple[PortRef, ...], str | None]] = {}

    def on_frame(self, port: int, raw: RawFrame, at: SimTime) -> None:
        self.process_frame(raw, port, at)

    def process_frame(self, raw: RawFrame, ingress: int, at: SimTime) -> tuple[PortRef, ...]:
        """Apply the flow's decision to one frame; return its egress ports."""
        key = (ingress, raw.data[12:14])  # the ethertype's bytes
        decision = self._decisions.get(key)
        if decision is None:
            decision = self._decisions[key] = self._flow_decision(raw, ingress)
        egress, drop_reason = decision
        if drop_reason is not None:
            self.net.log_event("Drop", self.node_id, ingress, raw.digest, drop_reason)
        depart = at + self.processing_delay
        for port in egress:
            self.net.send(port, raw, depart)
        return egress

    def _flow_decision(self, raw: RawFrame, ingress: int) -> tuple[tuple[PortRef, ...], str | None]:
        """The egress ports of the frame's flow, and its drop reason if none."""
        egress = tuple(
            PortRef(self.node_id, a.port)
            for a in match_frame(self.table, raw, ingress)
            if isinstance(a, Forward)
        )
        if egress:
            return egress, None
        if any(e.match.matches(raw, ingress) for e in self.table.entries):
            return egress, "flow_drop"
        return egress, "no_forwarding_entry"
