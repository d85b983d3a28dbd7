"""gridshield: deterministic digital-substation network simulator.

A small library that reproduces GOOSE-injection attacks on an IEC 61850
substation network, the localization decision of an IDS-integrated SDN
device, the port-disabling mitigation, and the end-to-end trip-delay
budget, all on a deterministic discrete-event engine.
"""

from gridshield.codec import (
    GooseFrame,
    MacAddress,
    RawFrame,
    SvFrame,
    decode_goose,
    decode_sv,
    encode_goose,
    encode_sv,
    next_publication,
)
from gridshield.delay import DelayComponents, DelayReport, measure, total
from gridshield.ids import (
    Alert,
    Inconclusive,
    LocalizationVerdict,
    ObservationRecord,
    Origin,
    SubscriptionState,
    inspect,
    localize,
    mitigate,
)
from gridshield.netsim import (
    EventLog,
    Network,
    PortRef,
    SimEvent,
    TopologySpec,
    build_topology,
)
from gridshield.scenarios import (
    ScenarioResult,
    ScenarioSpec,
    load_scenario,
    run_scenario,
    score,
    verify_forwarding_trace,
)
from gridshield.sdn import (
    FlowEntry,
    FlowTable,
    MatchFields,
    match_frame,
)
from gridshield.util import frame_digest

__version__ = "0.1.0"

__all__ = [
    "Alert",
    "DelayComponents",
    "DelayReport",
    "EventLog",
    "FlowEntry",
    "FlowTable",
    "GooseFrame",
    "Inconclusive",
    "LocalizationVerdict",
    "MacAddress",
    "MatchFields",
    "Network",
    "ObservationRecord",
    "Origin",
    "PortRef",
    "RawFrame",
    "ScenarioResult",
    "ScenarioSpec",
    "SimEvent",
    "SubscriptionState",
    "SvFrame",
    "TopologySpec",
    "build_topology",
    "decode_goose",
    "decode_sv",
    "encode_goose",
    "encode_sv",
    "frame_digest",
    "inspect",
    "load_scenario",
    "localize",
    "match_frame",
    "measure",
    "mitigate",
    "next_publication",
    "run_scenario",
    "score",
    "total",
    "verify_forwarding_trace",
]
