"""Default substation layout: six node roles and their port wiring.

The inspection device (``ids``) owns eight numbered ports:

    p1  <- process-bus switch tap (sampled values, monitored passively)
    p2     spare
    p3  <- station-bus switch, main monitored feed
    p4  -> station-bus switch p1, re-forward loop out
    p5  -> test set (breaker), delivery port
    p6  <- protection relay, direct monitored feed
    p7  <- station-bus switch p3, loop return feed
    p8     spare

The station-bus switch faces the relay on its p4 and the injection point
on its p6; the process-bus switch faces the relay on its p5. The relay is
dual-homed on the station-bus side: its GOOSE publications leave both its
switch-facing port and its direct inspection feed.

Link latencies are free parameters constrained only by the configured
aggregate communication delays, so they are derived here from the delay
split: the sampled-value legs sum to ``t_sv`` and the trip-path GOOSE legs
sum to ``t_gs``. The relay's direct feed is calibrated to equal the
switch path (relay->switch latency + switch processing + switch->inspector
latency) so that the duplicate delivery to the breaker arrives at the same
microsecond via either path and the measured end-to-end budget stays
exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from gridshield.codec import GOOSE_ETHERTYPE, SV_ETHERTYPE, GooseFrame, MacAddress
from gridshield.netsim import TopologySpec
from gridshield.sdn import FlowEntry, FlowTable

if TYPE_CHECKING:
    from gridshield.delay import DelayComponents

# Node identifiers (the six roles of the testbed).
OMICRON = "omicron"
MU = "mu"
PIED = "pied"
PROCESS_BUS = "process_bus_switch"
STATION_BUS = "station_bus_switch"
IDS = "ids"

ALL_NODES = (OMICRON, MU, PIED, PROCESS_BUS, STATION_BUS, IDS)

# IDS front panel.
IDS_PORTS = tuple(range(1, 9))
IDS_SV_TAP = 1
IDS_MAIN_FEED = 3
IDS_LOOP_OUT = 4
IDS_DELIVERY = 5
IDS_PIED_FEED = 6
IDS_LOOP_RETURN = 7
IDS_MONITORED = (IDS_MAIN_FEED, IDS_PIED_FEED, IDS_LOOP_RETURN)
IDS_KEEP_ENABLED = (IDS_DELIVERY, IDS_PIED_FEED)

# Station-bus switch ports.
SBS_LOOP_IN = 1       # from ids p4
SBS_TO_IDS = 2        # to ids p3
SBS_LOOP_OUT = 3      # to ids p7
SBS_PIED = 4          # relay's switch-facing GOOSE port
SBS_INJECT = 6        # unwired; scenario-1 injection point

# Process-bus switch ports.
PBS_FROM_MU = 1
PBS_IDS_TAP = 2       # to ids p1
PBS_PIED = 5          # sampled values toward the relay

# Relay (PIED) ports.
PIED_SV_IN = 1
PIED_STATION = 2      # toward station-bus switch p4
PIED_IDS_DIRECT = 3   # toward ids p6

OMICRON_PORT = 1
MU_PORT = 1

# Device identities.
PIED_MAC = MacAddress.parse("00:30:A7:00:00:01")
MU_MAC = MacAddress.parse("00:30:A7:00:00:02")
GOOSE_DST = MacAddress.parse("01:0C:CD:01:00:01")
SV_DST = MacAddress.parse("01:0C:CD:04:00:01")

GOCB_REF = "PIED/LLN0$GO$gcb1"
DATASET_REF = "PIED/LLN0$dataset1"
PIED_APP_ID = 0x0001
PIED_TTL_MS = 2_000
SV_ID = "MU01"

# The relay's first publication, before its timestamp is set: the identity
# every relay frame carries, at the first state and sequence number, with
# its two points (trip, supervision flag) clear.
RELAY_PUBLICATION = GooseFrame(
    dst=GOOSE_DST, src=PIED_MAC, app_id=PIED_APP_ID, gocb_ref=GOCB_REF,
    time_allowed_to_live=PIED_TTL_MS, st_num=1, sq_num=0, test=False, timestamp=0,
    dataset_ref=DATASET_REF, all_data=(False, False),
)

# The test set's steady per-phase magnitudes and the phase-A current of the
# fault step, the relay's overcurrent pickup, and the time from a port-mod
# command to the port state change.
NOMINAL_CURRENTS_MA = (500, 500, 500)
NOMINAL_VOLTAGES_MV = (120_000, 120_000, 120_000)
FAULT_PHASE_A_MA = 5_000
PICKUP_MA = 2_000
CONTROLLER_LATENCY_US = 1_000

# Monitored-feed split of the aggregate link budgets (microseconds).
SV_LEG_MU_TO_PBS = 1_000
GOOSE_LEG_PIED_TO_SBS = 500
GOOSE_LEG_SBS_TO_IDS = 500
LOOP_LEG_LATENCY = 500
IDS_TAP_LATENCY = 500


def default_topology(delays: DelayComponents) -> TopologySpec:
    """Wire the six roles; latencies derive from the configured delay split."""
    sv_leg_pbs_to_pied = delays.t_sv - SV_LEG_MU_TO_PBS
    goose_leg_ids_to_omicron = (
        delays.t_gs - GOOSE_LEG_PIED_TO_SBS - GOOSE_LEG_SBS_TO_IDS
    )
    if sv_leg_pbs_to_pied < 0 or goose_leg_ids_to_omicron < 0:
        raise ValueError("aggregate link budgets below the fixed first legs")
    # Calibrated so both breaker paths measure identically (see module doc).
    pied_direct = GOOSE_LEG_PIED_TO_SBS + delays.t_ss + GOOSE_LEG_SBS_TO_IDS
    return TopologySpec(
        nodes={
            OMICRON: 1,
            MU: 1,
            PIED: 3,
            PROCESS_BUS: 6,
            STATION_BUS: 6,
            IDS: 8,
        },
        links=(
            (MU, MU_PORT, PROCESS_BUS, PBS_FROM_MU, SV_LEG_MU_TO_PBS),
            (PROCESS_BUS, PBS_PIED, PIED, PIED_SV_IN, sv_leg_pbs_to_pied),
            (PROCESS_BUS, PBS_IDS_TAP, IDS, IDS_SV_TAP, IDS_TAP_LATENCY),
            (PIED, PIED_STATION, STATION_BUS, SBS_PIED, GOOSE_LEG_PIED_TO_SBS),
            (STATION_BUS, SBS_TO_IDS, IDS, IDS_MAIN_FEED, GOOSE_LEG_SBS_TO_IDS),
            (IDS, IDS_DELIVERY, OMICRON, OMICRON_PORT, goose_leg_ids_to_omicron),
            (PIED, PIED_IDS_DIRECT, IDS, IDS_PIED_FEED, pied_direct),
            (IDS, IDS_LOOP_OUT, STATION_BUS, SBS_LOOP_IN, LOOP_LEG_LATENCY),
            (STATION_BUS, SBS_LOOP_OUT, IDS, IDS_LOOP_RETURN, LOOP_LEG_LATENCY),
        ),
    )


def station_bus_flow_table() -> FlowTable:
    """Relay traffic goes to the main inspection feed; loop traffic returns
    on the loop feed; unexpected ingress is mirrored to both monitor feeds."""
    return (
        FlowEntry(SBS_PIED, None, (SBS_TO_IDS,)),
        FlowEntry(SBS_LOOP_IN, None, (SBS_LOOP_OUT,)),
        FlowEntry(SBS_INJECT, None, (SBS_TO_IDS, SBS_LOOP_OUT)),
    )


def process_bus_flow_table() -> FlowTable:
    """Sampled values fan out to the relay and to the inspection tap."""
    return (FlowEntry(PBS_FROM_MU, SV_ETHERTYPE, (PBS_PIED, PBS_IDS_TAP)),)


def ids_flow_table(with_ids: bool) -> FlowTable:
    """Forwarding rules of the inspection device itself.

    With the module active, main-feed GOOSE is duplicated to the loop and
    to the delivery port; the direct relay feed goes straight to delivery.
    Without the module the device is a transparent wire on both feeds.
    The loop return and the sampled-value tap are terminal monitor ports.
    """
    main_feed = (IDS_LOOP_OUT, IDS_DELIVERY) if with_ids else (IDS_DELIVERY,)
    return (
        FlowEntry(IDS_MAIN_FEED, GOOSE_ETHERTYPE, main_feed),
        FlowEntry(IDS_PIED_FEED, GOOSE_ETHERTYPE, (IDS_DELIVERY,)),
        FlowEntry(IDS_LOOP_RETURN, None, ()),
        FlowEntry(IDS_SV_TAP, None, ()),
    )


# The measured sampled-value -> trip chain, in order, as (node, port,
# "in"|"out", term) rows: the first four hops follow the triggering sample,
# the last six the tripping GOOSE frame. A row's term is the delay component
# of the interval that ends at its hop; the first interval starts at the
# sample's tick. The breaker's own interval, from the delivery's arrival to
# the trip, closes BREAKER_TERM.
TRIP_PATH = (
    (MU, MU_PORT, "out", "t_mu"),
    (PROCESS_BUS, PBS_FROM_MU, "in", "t_sv"),
    (PROCESS_BUS, PBS_PIED, "out", "t_sp"),
    (PIED, PIED_SV_IN, "in", "t_sv"),
    (PIED, PIED_STATION, "out", "t_pied"),
    (STATION_BUS, SBS_PIED, "in", "t_gs"),
    (STATION_BUS, SBS_TO_IDS, "out", "t_ss"),
    (IDS, IDS_MAIN_FEED, "in", "t_gs"),
    (IDS, IDS_DELIVERY, "out", "t_ids"),
    (OMICRON, OMICRON_PORT, "in", "t_gs"),
)
BREAKER_TERM = "t_oc"

# Hops of a main-feed GOOSE frame around the inspection loop: in on the
# main feed, out to the station-bus switch, and back on the loop return.
MONITOR_LOOP = (
    (IDS, IDS_MAIN_FEED, "in"),
    (IDS, IDS_LOOP_OUT, "out"),
    (STATION_BUS, SBS_LOOP_IN, "in"),
    (STATION_BUS, SBS_LOOP_OUT, "out"),
    (IDS, IDS_LOOP_RETURN, "in"),
)
