"""End-to-end trip-delay accounting.

The fault-to-trip chain is summed from eight component delays: merging
unit internal (t_mu), sampled-value communication (t_sv), process-bus
switch (t_sp), relay protection computation (t_pied), station-bus switch
(t_ss), GOOSE communication (t_gs), test-set internal (t_oc), and, when
the inspection module is active, its routing/processing term (t_ids).

``measure`` reconstructs every component from an event log alone by
walking ``substation.TRIP_PATH`` with ``walk_hops``: its last six hops
follow the tripping GOOSE frame, and its first four the sampled-value
frame that triggered it. The reported total is exactly the breaker-trip
time minus the fault sample time, and additivity holds to the
microsecond.

The default split is one admissible decomposition of the configured
aggregates (any split with the same sums would do); it is pinned here and
in the shipped scenario configs:

    t_mu=3ms t_sv=2ms t_sp=1ms t_pied=10ms t_ss=1ms t_gs=2ms t_oc=4ms
    -> 23ms without inspection, plus t_ids=4ms -> 27ms with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from gridshield import substation as sub
from gridshield.netsim import EventLog, SimEvent, SimTime, note_fields

MS = 1_000  # microseconds per millisecond

BASELINE_TOTAL_US = 23_000
WITH_IDS_CAP_US = 27_000
IDS_ADDED_CAP_US = 4_000
QUARTER_CYCLE_60HZ_US = 4_167

COMPONENT_NAMES = ("t_mu", "t_sv", "t_sp", "t_pied", "t_ss", "t_gs", "t_oc", "t_ids")


class NoTripFound(Exception):
    pass


class IncompleteTrace(Exception):
    pass


@dataclass(frozen=True)
class DelayComponents:
    """The eight component delays, in microseconds."""

    t_mu: SimTime = 3 * MS
    t_sv: SimTime = 2 * MS
    t_sp: SimTime = 1 * MS
    t_pied: SimTime = 10 * MS
    t_ss: SimTime = 1 * MS
    t_gs: SimTime = 2 * MS
    t_oc: SimTime = 4 * MS
    t_ids: SimTime = 4 * MS

    def __post_init__(self) -> None:
        for name in COMPONENT_NAMES:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def total(c: DelayComponents, with_ids: bool) -> SimTime:
    """Sum of the seven base terms, plus the inspection term when active."""
    base = c.t_mu + c.t_sv + c.t_sp + c.t_pied + c.t_ss + c.t_gs + c.t_oc
    return base + (c.t_ids if with_ids else 0)


@dataclass(frozen=True)
class DelayReport:
    """Per-component delays measured from one fault-to-trip chain."""

    components: dict[str, SimTime]
    total_us: SimTime
    fault_sample_us: SimTime
    breaker_trip_us: SimTime
    with_ids: bool
    checks: dict[str, bool] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "components_us": self.components,
                "total_us": self.total_us,
                "fault_sample_us": self.fault_sample_us,
                "breaker_trip_us": self.breaker_trip_us,
                "with_ids": self.with_ids,
                "checks": self.checks,
            },
            indent=2,
        )


_HOP_KINDS = {"in": "FrameArrival", "out": "FrameDeparture"}


def walk_hops(
    events: Iterable[SimEvent], digest: str, hops: Iterable[tuple[str, int, str]]
) -> list[SimEvent] | None:
    """Match ``(node, port, "in"|"out")`` hops of one frame, in order.

    Each hop takes the first arrival or departure of ``digest`` at its
    node and port that comes after the previous hop's match. Returns the
    matched events, or None if some hop has no such event.
    """
    want = iter(hops)
    hop = next(want, None)
    found: list[SimEvent] = []
    for ev in events:
        if hop is None:
            break
        node, port, direction = hop
        if (
            ev.digest == digest
            and ev.node == node
            and ev.port == port
            and ev.kind == _HOP_KINDS[direction]
        ):
            found.append(ev)
            hop = next(want, None)
    return found if hop is None else None


def measure(log: EventLog | Iterable[SimEvent]) -> DelayReport:
    """Attribute every hop and processing interval of the trip chain.

    Requires a log holding a breaker trip; the first one is measured.
    Raises NoTripFound otherwise, and IncompleteTrace if the chain's hops
    are missing.
    """
    events = list(log)
    trips = [ev for ev in events if ev.kind == "BreakerTrip"]
    if not trips:
        raise NoTripFound("log holds no breaker trip")
    trip_event = trips[0]
    trip_digest = trip_event.digest
    if trip_digest is None:
        raise IncompleteTrace("breaker trip carries no frame digest")

    # GOOSE side of the chain.
    goose_hops = walk_hops(events, trip_digest, sub.TRIP_PATH[4:])
    if goose_hops is None:
        raise IncompleteTrace(f"the log misses a GOOSE hop of trip frame {trip_digest}")
    pied_dep, sbs_arr, sbs_dep, ids_arr, ids_dep, omicron_arr = goose_hops

    # Sampled-value side: the trip departure names its triggering sample.
    try:
        trigger_digest = note_fields(pied_dep.note, "trip")["trigger"]
    except (KeyError, ValueError) as exc:
        raise IncompleteTrace("trip departure names no triggering sample") from exc
    sv_hops = walk_hops(events, trigger_digest, sub.TRIP_PATH[:4])
    if sv_hops is None:
        raise IncompleteTrace(f"the log misses a hop of triggering sample {trigger_digest}")
    mu_dep, pbs_arr, pbs_dep, pied_sv_arr = sv_hops

    try:
        fault_sample = int(note_fields(mu_dep.note)["tick_us"])
    except (KeyError, ValueError) as exc:
        raise IncompleteTrace("sample departure names no tick time") from exc

    components = {
        "t_mu": mu_dep.time - fault_sample,
        "t_sv": (pbs_arr.time - mu_dep.time) + (pied_sv_arr.time - pbs_dep.time),
        "t_sp": pbs_dep.time - pbs_arr.time,
        "t_pied": pied_dep.time - pied_sv_arr.time,
        "t_ss": sbs_dep.time - sbs_arr.time,
        "t_gs": (sbs_arr.time - pied_dep.time)
        + (ids_arr.time - sbs_dep.time)
        + (omicron_arr.time - ids_dep.time),
        "t_oc": trip_event.time - omicron_arr.time,
        "t_ids": ids_dep.time - ids_arr.time,
    }
    total_us = trip_event.time - fault_sample
    with_ids = components["t_ids"] > 0
    checks = {
        "additivity_exact": sum(components.values()) == total_us,
        "baseline_is_23ms": (not with_ids) and total_us == BASELINE_TOTAL_US,
        "with_ids_leq_27ms": total_us <= WITH_IDS_CAP_US,
        "ids_added_leq_4ms": components["t_ids"] <= IDS_ADDED_CAP_US,
        "ids_added_leq_quarter_cycle": components["t_ids"] <= QUARTER_CYCLE_60HZ_US,
    }
    return DelayReport(
        components=components,
        total_us=total_us,
        fault_sample_us=fault_sample,
        breaker_trip_us=trip_event.time,
        with_ids=with_ids,
        checks=checks,
    )
