"""End-to-end trip-delay accounting.

The fault-to-trip chain is summed from eight component delays: merging
unit internal (t_mu), sampled-value communication (t_sv), process-bus
switch (t_sp), relay protection computation (t_pied), station-bus switch
(t_ss), GOOSE communication (t_gs), test-set internal (t_oc), and, when
the inspection module is active, its routing/processing term (t_ids).

``measure`` reconstructs every component from an event log alone. Each
row of ``substation.TRIP_PATH`` names a hop and the term of the interval
that ends there, so the measured chain is a list of event times, from the
fault sample's tick through the ten hops to the breaker trip, and each
consecutive pair adds to one term. The terms telescope: their sum is
exactly the breaker-trip time minus the fault sample time, to the
microsecond. The chain is walked back from the log's first breaker trip,
so it is the one that explains that trip; a log without one measures
as None.

The default split is one admissible decomposition of the configured
aggregates (any split with the same sums would do); it is pinned here and
in the shipped scenario configs:

    t_mu=3ms t_sv=2ms t_sp=1ms t_pied=10ms t_ss=1ms t_gs=2ms t_oc=4ms
    -> 23ms without inspection, plus t_ids=4ms -> 27ms with it.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence

from gridshield import substation as sub
from gridshield.netsim import SimEvent, SimTime, note_fields

MS = 1_000  # microseconds per millisecond

BASELINE_TOTAL_US = 23_000
WITH_IDS_CAP_US = 27_000
IDS_ADDED_CAP_US = 4_000
QUARTER_CYCLE_60HZ_US = 4_167


class _Delays(NamedTuple):
    t_mu: SimTime = 3 * MS
    t_sv: SimTime = 2 * MS
    t_sp: SimTime = 1 * MS
    t_pied: SimTime = 10 * MS
    t_ss: SimTime = 1 * MS
    t_gs: SimTime = 2 * MS
    t_oc: SimTime = 4 * MS
    t_ids: SimTime = 4 * MS


class DelayComponents(_Delays):
    """The eight component delays, in microseconds, none negative."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DelayComponents:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so ``_replace`` checks too


COMPONENT_NAMES = DelayComponents._fields


def total(c: DelayComponents, with_ids: bool) -> SimTime:
    """Sum of the seven base terms, plus the inspection term when active."""
    base = c.t_mu + c.t_sv + c.t_sp + c.t_pied + c.t_ss + c.t_gs + c.t_oc
    return base + (c.t_ids if with_ids else 0)


class DelayReport(NamedTuple):
    """Per-component delays measured from one fault-to-trip chain."""

    components: dict[str, SimTime]
    total_us: SimTime
    fault_sample_us: SimTime
    breaker_trip_us: SimTime
    with_ids: bool
    checks: dict[str, bool]

    def as_dict(self) -> dict:
        return {
            "components_us": self.components,
            "total_us": self.total_us,
            "fault_sample_us": self.fault_sample_us,
            "breaker_trip_us": self.breaker_trip_us,
            "with_ids": self.with_ids,
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


_HOP_KINDS = {"in": "FrameArrival", "out": "FrameDeparture"}
_TERMS = tuple(row[3] for row in sub.TRIP_PATH) + (sub.BREAKER_TERM,)


def walk_hops(
    events: Iterable[SimEvent], digest: str, hops: Iterable[tuple]
) -> list[SimEvent] | None:
    """Match the ``(node, port, "in"|"out", ...)`` hops of one frame, in order.

    Each hop takes the first arrival or departure of ``digest`` at its
    node and port that comes after the previous hop's match. Returns the
    matched events, or None if some hop has no such event. An iterator
    ``events`` is consumed only up to the last match, so another walk can
    go on from there.
    """
    events = iter(events)
    found: list[SimEvent] = []
    for node, port, direction, *_term in hops:
        kind = _HOP_KINDS[direction]
        hop = next(
            (ev for ev in events
             if ev.digest == digest and ev.node == node and ev.port == port and ev.kind == kind),
            None,
        )
        if hop is None:
            return None
        found.append(hop)
    return found


def measure(log: Sequence[SimEvent]) -> DelayReport | None:
    """Attribute every interval of the first breaker trip's chain to its term.

    The GOOSE rows of ``substation.TRIP_PATH`` are walked back from the
    trip, and the sampled-value rows back from the relay's trip departure
    that walk found, so the chain is the one that ends at this trip
    whatever digests repeat earlier in the log. Whether the inspection
    module ran is read from the run banner. Returns None when the log
    holds no trip, the trip names no frame, or the banner or a hop or note
    of its chain is missing.
    """
    end = next((i for i, ev in enumerate(log) if ev.kind == "BreakerTrip"), None)
    if end is None or log[end].digest is None:
        return None
    trip = log[end]
    earlier = (log[i] for i in range(end - 1, -1, -1))  # both walks go back from the trip
    goose = walk_hops(earlier, trip.digest, reversed(sub.TRIP_PATH[4:]))
    if goose is None:
        return None
    try:
        with_ids = note_fields(log[0].note, "run")["with_ids"] == "1"
        # the trip departure names its triggering sample, and the sample's
        # departure its tick
        trigger = note_fields(goose[-1].note, "trip")["trigger"]
        sv = walk_hops(earlier, trigger, reversed(sub.TRIP_PATH[:4]))
        if sv is None:
            return None
        fault_sample = int(note_fields(sv[-1].note)["tick_us"])
    except (KeyError, ValueError):
        return None

    times = [fault_sample, *(ev.time for ev in reversed(goose + sv)), trip.time]
    components = dict.fromkeys(COMPONENT_NAMES, 0)
    for term, start, stop in zip(_TERMS, times, times[1:]):
        components[term] += stop - start
    total_us = trip.time - fault_sample
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
        breaker_trip_us=trip.time,
        with_ids=with_ids,
        checks=checks,
    )
