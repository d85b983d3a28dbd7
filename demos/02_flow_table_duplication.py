#!/usr/bin/env python3
"""Flow-table semantics: multi-row duplication.

A frame matching several rows is replicated to every distinct egress port
at once, in table order; that is how one ingress frame reaches both
monitor feeds of the inspection device simultaneously.

Run:  python3 demos/02_flow_table_duplication.py
"""

from gridshield.codec import GooseFrame, MacAddress, encode_goose
from gridshield.netsim import PortRef, TopologySpec, build_topology, events_of_kind
from gridshield.sdn import FlowEntry, SwitchNode, match_frame

raw = encode_goose(
    GooseFrame(
        dst=MacAddress.parse("01:0C:CD:01:00:01"),
        src=MacAddress.parse("00:30:A7:00:00:01"),
        app_id=0x0001,
        gocb_ref="PIED/LLN0$GO$gcb1",
        time_allowed_to_live=2000,
        st_num=1,
        sq_num=0,
        test=False,
        timestamp=0,
        dataset_ref="PIED/LLN0$dataset1",
        all_data=(False, False),
    )
)

table = (
    FlowEntry(6, None, (2,)),
    FlowEntry(6, None, (3,)),
    FlowEntry(6, 0x88B8, (2,)),  # GOOSE only; port 2 coalesces
)

print("Egress ports for a GOOSE frame arriving on port 6:")
print(f"  {match_frame(table, raw, ingress=6)}")
print("(three matching rows, but port 2 is emitted only once)\n")

net = build_topology(
    TopologySpec(
        nodes={"sw": 8, "x": 1, "y": 1},
        links=(("sw", 2, "x", 1, 100), ("sw", 3, "y", 1, 100)),
    )
)
SwitchNode(net, "sw", table, processing_delay=1_000)
net.inject_ingress(PortRef("sw", 6), raw, at=0)
log = net.run_until(10_000)
print("On the wire, one ingress frame becomes one departure per port:")
for dep in events_of_kind(log, "FrameDeparture"):
    print(f"  t={dep.time}us  {dep.node} port {dep.port}")
