"""Static flow tables: ordered rows matched on ingress port and ethertype.

A flow table is a tuple of :class:`FlowEntry` rows. A row matches a frame
that arrives on its ingress port and, when the row names an ethertype,
carries that ethertype. The frame leaves by the egress ports of *every*
matching row, in table order, each port once. This collect-all behavior
is what lets one ingress frame be replicated to several monitor ports at
once. A row with no egress port is an explicit drop: a frame whose
matching rows name no egress port is dropped as ``flow_drop``, and a
frame no row matches is dropped as ``no_forwarding_entry``.

A switch's table is fixed when it is built; there is no controller
channel. The only port-disable path is the inspector's mitigation
(``ids.IdsNode``), which schedules ``Network.disable_port``.

A :class:`SwitchNode` decides each flow once, as an OpenFlow switch's flow
cache does. A decision depends only on the ingress port and the
ethertype bytes (a frame too short to carry an ethertype has fewer than
two of them, and no row with an ethertype matches it), so the node
caches the egress ports of ``match_frame``, and the reason it logs when
there are none, under that key.
"""

from __future__ import annotations

from typing import NamedTuple

from gridshield.codec import RawFrame
from gridshield.netsim import Network, PortRef, SimTime


class FlowEntry(NamedTuple):
    """Frames arriving on ``ingress_port`` with ``ethertype`` (any, when it
    is None) leave by the ``egress`` ports; an empty ``egress`` drops them."""

    ingress_port: int
    ethertype: int | None
    egress: tuple[int, ...]


FlowTable = tuple[FlowEntry, ...]  # rows in emission order


def match_frame(table: FlowTable, raw: RawFrame, ingress: int) -> tuple[int, ...] | None:
    """The distinct egress ports of every row matching the frame, in table
    order, or None when no row matches it."""
    wanted = (None, raw.ethertype)
    rows = [row.egress for row in table if row.ingress_port == ingress and row.ethertype in wanted]
    if not rows:
        return None
    return tuple(dict.fromkeys(port for egress in rows for port in egress))


class SwitchNode:
    """A switch attached to the engine; forwards per its flow table.

    Each egress port of a frame's matching rows gets a departure
    ``processing_delay`` after the frame's arrival; a frame with no
    emission is logged as a Drop, with the reason ``flow_drop`` when a row
    matched it and ``no_forwarding_entry`` when none did.
    """

    def __init__(self, net: Network, node_id: str, table: FlowTable, processing_delay: SimTime):
        self.net = net
        self.node_id = node_id
        net.register(node_id, self)
        for row in table:
            for port in row.egress:
                net.check_port(PortRef(node_id, port))
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
            ports = match_frame(self.table, raw, ingress)
            reason = "no_forwarding_entry" if ports is None else None if ports else "flow_drop"
            egress = tuple(PortRef(self.node_id, port) for port in ports or ())
            decision = self._decisions[key] = (egress, reason)
        egress, drop_reason = decision
        if drop_reason is not None:
            self.net.log_event("Drop", self.node_id, ingress, raw.digest, drop_reason)
        depart = at + self.processing_delay
        for port in egress:
            self.net.send(port, raw, depart)
        return egress
