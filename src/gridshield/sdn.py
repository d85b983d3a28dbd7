"""OpenFlow-style switching: priority-matched flow tables with duplication.

A frame is matched against *every* entry whose set fields all equal the
frame's values; the union of the matching entries' actions is applied,
with duplicate forwards to the same port coalesced into a single
emission. This collect-all behavior is what lets one ingress frame be
replicated to several monitor ports at once. Unmatched frames fall back
to the table's default action.

The controller channel is modeled in-simulation: packet-ins, FlowMod and
PortMod land in the event log as ControlMsg entries, so rule updates and
port disables are timestamped alongside the traffic they affect.

A :class:`SwitchNode` decides each flow once, as an OpenFlow switch's flow
cache does. A decision depends only on the ingress port, the first 16
header bytes and the current table: those bytes hold every field a
:class:`MatchFields` reads (a shorter frame's shorter key records its
length, which decides which fields it has), so the node caches the
egress ports and packet-in flag of ``match_frame`` under that key and
drops the cache whenever its table is replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from gridshield.codec import GOOSE_ETHERTYPE, SV_ETHERTYPE, MacAddress, RawFrame
from gridshield.netsim import Network, PortRef, SimTime, UnknownPort


# dst MAC, src MAC, ethertype and app id: every header field a match reads
FLOW_KEY_LEN = 16


class FlowTableError(Exception):
    pass


class DuplicateEntry(FlowTableError):
    pass


class NotFound(FlowTableError):
    pass


@dataclass(frozen=True)
class MatchFields:
    """Wildcard match: unset fields match anything, set fields must equal."""

    ingress_port: int | None = None
    ethertype: int | None = None
    src_mac: MacAddress | None = None
    app_id: int | None = None

    def __post_init__(self) -> None:
        if all(
            v is None
            for v in (self.ingress_port, self.ethertype, self.src_mac, self.app_id)
        ):
            raise FlowTableError("a match needs at least one set field")

    def matches(self, raw: RawFrame, ingress: int) -> bool:
        if self.ingress_port is not None and self.ingress_port != ingress:
            return False
        if self.ethertype is not None and self.ethertype != raw.ethertype:
            return False
        # src/app id are only available on frames long enough to carry them;
        # short or foreign frames match on ingress/ethertype alone.
        if self.src_mac is not None and self.src_mac != raw.src_mac:
            return False
        if self.app_id is not None:
            if raw.ethertype not in (GOOSE_ETHERTYPE, SV_ETHERTYPE):
                return False
            if self.app_id != raw.app_id:
                return False
        return True


@dataclass(frozen=True)
class Forward:
    port: int


@dataclass(frozen=True)
class Drop:
    pass


@dataclass(frozen=True)
class ToController:
    pass


Action = Forward | Drop | ToController


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
    default_action: Action = field(default_factory=Drop)
    # highest priority first, equal priorities in insertion order
    by_priority: tuple[FlowEntry, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keys = [(e.priority, e.match) for e in self.entries]
        if len(keys) != len(set(keys)):
            raise DuplicateEntry("two entries share (priority, match)")
        order = sorted(self.entries, key=lambda e: -e.priority)  # stable
        object.__setattr__(self, "by_priority", tuple(order))


# -- controller messages -----------------------------------------------------


@dataclass(frozen=True)
class FlowMod:
    switch: str
    add: bool  # False removes the entry
    entry: FlowEntry


@dataclass(frozen=True)
class PortMod:
    switch: str
    port: int
    enable: bool


# -- operations ---------------------------------------------------------------


def match_frame(table: FlowTable, raw: RawFrame, ingress: int) -> list[Action]:
    """Collect the actions of all matching entries (default if none match).

    Actions are ordered by entry priority (highest first, then insertion
    order); forwards to the same port appear once.
    """
    matching = [e for e in table.by_priority if e.match.matches(raw, ingress)]
    if not matching:
        return [table.default_action]
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


def apply_flow_mod(table: FlowTable, mod: FlowMod) -> FlowTable:
    """Return a new table with the entry added or removed."""
    key = (mod.entry.priority, mod.entry.match)
    if mod.add:
        if any((e.priority, e.match) == key for e in table.entries):
            raise DuplicateEntry(f"entry {key} already present")
        return replace(table, entries=table.entries + (mod.entry,))
    kept = tuple(e for e in table.entries if (e.priority, e.match) != key)
    if len(kept) == len(table.entries):
        raise NotFound(f"no entry with {key}")
    return replace(table, entries=kept)


class SwitchNode:
    """A switch attached to the engine; forwards per its flow table.

    Each Forward action becomes a departure ``processing_delay`` after the
    frame's arrival. ToController logs a ``packet_in`` control message; a
    frame with no emission is logged as a Drop.
    """

    def __init__(self, net: Network, node_id: str, table: FlowTable, processing_delay: SimTime):
        self.net = net
        self.node_id = node_id
        net.register(node_id, self)
        self._check_forward_ports(table)
        self.table = table
        self.processing_delay = processing_delay
        # (ingress, header) -> (egress ports, packet-in), for the current table
        self._decisions: dict[tuple[int, bytes], tuple[tuple[PortRef, ...], bool]] = {}

    def _check_forward_ports(self, table: FlowTable) -> None:
        port_count = self.net.nodes[self.node_id]
        for entry in table.entries:
            for action in entry.actions:
                if isinstance(action, Forward) and not 1 <= action.port <= port_count:
                    raise UnknownPort(
                        f"entry forwards to port {action.port}, but {self.node_id} has {port_count} ports"
                    )

    def on_frame(self, port: int, raw: RawFrame, at: SimTime) -> None:
        self.process_frame(raw, port, at)

    def process_frame(self, raw: RawFrame, ingress: int, at: SimTime) -> tuple[PortRef, ...]:
        """Apply the flow's decision to one frame; return its egress ports."""
        key = (ingress, raw.data[:FLOW_KEY_LEN])
        decision = self._decisions.get(key)
        if decision is None:
            decision = self._decisions[key] = self._decide_flow(raw, ingress)
        egress, packet_in = decision
        if packet_in:
            self.net.log_event("ControlMsg", self.node_id, ingress, raw.digest, note="packet_in")
        if not egress:
            self.net.log_event(
                "Drop", self.node_id, ingress, raw.digest, "no_forwarding_entry"
            )
        depart = at + self.processing_delay
        for port in egress:
            self.net.send(port, raw, depart)
        return egress

    def _decide_flow(self, raw: RawFrame, ingress: int) -> tuple[tuple[PortRef, ...], bool]:
        actions = match_frame(self.table, raw, ingress)
        egress = tuple(PortRef(self.node_id, a.port) for a in actions if isinstance(a, Forward))
        return egress, any(isinstance(a, ToController) for a in actions)

    def apply_flow_mod(self, mod: FlowMod, at: SimTime) -> None:
        """Schedule a table update; forwarding changes exactly at ``at``."""
        if mod.add:
            self._check_forward_ports(FlowTable(entries=(mod.entry,)))
        self.net.call(at, self._apply_flow_mod, mod)

    def _apply_flow_mod(self, mod: FlowMod) -> None:
        self.net.log_event(
            "ControlMsg", self.node_id, None, None,
            note=f"flow_mod {'add' if mod.add else 'remove'} prio={mod.entry.priority}",
        )
        self.table = apply_flow_mod(self.table, mod)
        self._decisions.clear()

    def apply_port_mod(self, mod: PortMod, at: SimTime) -> None:
        """Log the control message and delegate to the engine's port state."""
        port = PortRef(self.node_id, mod.port)
        if not 1 <= mod.port <= self.net.nodes[self.node_id]:
            raise UnknownPort(f"{port} beyond the switch's port count")
        self.net.call(at, self._announce_port_mod, mod)
        self.net.set_port_state(port, mod.enable, at)

    def _announce_port_mod(self, mod: PortMod) -> None:
        self.net.log_event(
            "ControlMsg", self.node_id, mod.port, None,
            note=f"port_mod {'enable' if mod.enable else 'disable'}",
        )
