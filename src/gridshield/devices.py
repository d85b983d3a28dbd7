"""Endpoint behaviors: merging unit, protection relay, test set, injector.

The merging unit samples a configured three-phase waveform on a fixed
tick and publishes one sampled-value frame per tick (internal delay
``t_mu`` before departure). The waveform is a step and the sample count
wraps every second, so samples repeat: the merging unit encodes each
distinct (count, currents, voltages) sample once and sends the same
``RawFrame`` every time it recurs. SV digests therefore repeat every
second by design, and the relay parses each distinct sample once.

The relay latches on the first sample whose phase-current magnitude
reaches pickup and publishes a state-changed trip GOOSE after its
protection-computation delay ``t_pied``; it also heartbeats
retransmissions on a fixed interval, out of both its station-bus port
and its direct inspection feed. The test set closes the loop: a trip
command received on its port opens the breaker after its internal delay
``t_oc``.

The injector is the attack ground truth: it enters crafted frames into
the network on an exact schedule, marked ``injected`` in the log, either
as ingress into a switch pipeline (a compromised switch generating
traffic on one of its own ports) or as egress from a device port (a
compromised relay transmitting on its interface).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from gridshield import substation as sub
from gridshield.codec import (
    CodecError,
    GooseFrame,
    RawFrame,
    SvFrame,
    decode_goose,
    decode_sv,
    encode_goose,
    encode_sv,
    next_publication,
)
from gridshield.netsim import Network, PortRef, SimTime


class MuDevice:
    """Samples the waveform and streams sampled-value frames.

    The waveform is the nominal per-phase magnitudes, with phase A stepping
    to the fault current (``substation.py``) from ``fault_at_us`` on. Each
    tick reads ``fault_at_us``, so it may be set on a running unit before
    the first tick it changes.
    """

    def __init__(self, net: Network, *, samples_per_second: int, t_mu: SimTime,
                 fault_at_us: SimTime | None = None):
        self.net = net
        self.samples_per_second = samples_per_second
        self.t_mu = t_mu
        self.fault_at_us = fault_at_us
        self.port = PortRef(sub.MU, sub.MU_PORT)
        self.smp_cnt = 0
        self.period_us = 1_000_000 // samples_per_second
        # (smp_cnt, currents) -> its encoded frame; at most
        # samples_per_second entries per waveform level
        self._frames: dict[tuple, RawFrame] = {}
        net.call(0, self._tick)

    def _tick(self) -> None:
        at = self.net.now
        currents = sub.NOMINAL_CURRENTS_MA
        if self.fault_at_us is not None and at >= self.fault_at_us:
            currents = (sub.FAULT_PHASE_A_MA, currents[1], currents[2])
        key = (self.smp_cnt, currents)
        raw = self._frames.get(key)
        if raw is None:
            frame = SvFrame(
                dst=sub.SV_DST,
                src=sub.MU_MAC,
                sv_id=sub.SV_ID,
                smp_cnt=self.smp_cnt,
                currents=currents,
                voltages=sub.NOMINAL_VOLTAGES_MV,
            )
            raw = encode_sv(frame, smp_cnt_modulus=self.samples_per_second)
            self._frames[key] = raw
        self.net.send(self.port, raw, at + self.t_mu, note=f"tick_us={at}")
        self.smp_cnt = (self.smp_cnt + 1) % self.samples_per_second
        self.net.call(at + self.period_us, self._tick)


class PiedDevice:
    """Overcurrent protection: latches on pickup, publishes the trip.

    Publications carry two boolean points: point 0 is the trip command,
    point 1 a supervision flag used for benign state changes. Every
    publication leaves both GOOSE ports, toward the station-bus switch and
    the inspector's direct feed, at the same instant. A benign data change
    (the supervision point toggles) gives the stream a second state
    number, and a compromised relay's legitimate publications stop. Both
    are inputs of the run: ``toggle_at`` and ``silence_at`` schedule them,
    on a new relay or on one that is already running.
    """

    GOOSE_PORTS = (PortRef(sub.PIED, sub.PIED_STATION), PortRef(sub.PIED, sub.PIED_IDS_DIRECT))

    def __init__(self, net: Network, *, publish_interval_us: SimTime, t_pied: SimTime):
        self.net = net
        self.publish_interval_us = publish_interval_us
        self.t_pied = t_pied
        self.latched = False
        self.current: GooseFrame | None = None
        self._next_pub_at: SimTime = 0
        self._silenced = False
        net.register(sub.PIED, self)
        net.call(0, self._pump)

    def toggle_at(self, at: SimTime) -> None:
        self.net.call(at, self._toggle_point)

    def silence_at(self, at: SimTime) -> None:
        self.net.call(at, self._silence)

    # -- reception -----------------------------------------------------------

    def on_frame(self, port: int, raw: RawFrame, at: SimTime) -> None:
        if port != sub.PIED_SV_IN or self.latched:
            return
        try:
            sv = decode_sv(raw)
        except CodecError:
            return
        if any(abs(i) >= sub.PICKUP_MA for i in sv.currents):
            self.latched = True
            self._publish(
                state_changed=True,
                trip=True,
                at=at + self.t_pied,
                note=f"trip trigger={raw.digest}",
            )

    # -- publication ---------------------------------------------------------

    def _silence(self) -> None:
        self._silenced = True

    def _publish(self, state_changed: bool, at: SimTime, trip: bool = False,
                 toggle: bool = False, note: str | None = None) -> None:
        if self._silenced:
            return
        prev = self.current
        points = (sub.RELAY_PUBLICATION if prev is None else prev).all_data
        if trip or toggle:
            trip_point, flag_point = points
            points = (trip_point or trip, flag_point != toggle)
        if prev is None:
            frame = replace(sub.RELAY_PUBLICATION, timestamp=at, all_data=points)
        else:
            frame = next_publication(prev, state_changed, now=at, all_data=points)
        self.current = frame
        raw = encode_goose(frame)
        for port in self.GOOSE_PORTS:
            self.net.send(port, raw, at, note=note)
        # a publication restarts the retransmission timer
        self._next_pub_at = at + self.publish_interval_us

    def _pump(self) -> None:
        if self._silenced:
            return
        at = self.net.now
        if at >= self._next_pub_at:
            self._publish(state_changed=False, at=at)
        self.net.call(self._next_pub_at, self._pump)

    def _toggle_point(self) -> None:
        self._publish(state_changed=True, toggle=True, at=self.net.now)


class OmicronDevice:
    """The test set: waveform source stand-in and circuit-breaker sink.

    The sourcing side lives in the merging unit's configured waveform; this
    node closes the loop by acting on every trip command that reaches its
    port. It shares no state with the inspection device: keeping injected
    trips away from the breaker is the job of the inspector's port-disable
    mitigation, as in the paper.
    """

    def __init__(self, net: Network, t_oc: SimTime):
        self.net = net
        self.t_oc = t_oc
        self.breaker_open = False
        self._trip_pending = False
        net.register(sub.OMICRON, self)

    def on_frame(self, port: int, raw: RawFrame, at: SimTime) -> None:
        if self.breaker_open or self._trip_pending:
            return
        try:
            frame = decode_goose(raw)
        except CodecError:
            return
        if not frame.trip:
            return
        self._trip_pending = True
        self.net.call(at + self.t_oc, self._open_breaker, raw.digest)

    def _open_breaker(self, digest: str) -> None:
        self.breaker_open = True
        self._trip_pending = False
        self.net.log_event("BreakerTrip", sub.OMICRON, None, digest, note="breaker=open")


@dataclass(frozen=True)
class InjectionPlan:
    """What an attack injects and where. When is an input of the run,
    scheduled with one ``inject`` call per time."""

    port: PortRef
    mode: str  # "ingress" into a switch pipeline, "egress" from a device port
    template: GooseFrame

    def __post_init__(self) -> None:
        if self.mode not in ("ingress", "egress"):
            raise ValueError(f"unknown injection mode {self.mode!r}")


def inject(net: Network, plan: InjectionPlan, at: SimTime) -> None:
    """Schedule one injection of the plan at ``at``, marked in the log."""
    raw = encode_goose(plan.template)
    if plan.mode == "ingress":
        net.inject_ingress(plan.port, raw, at, note="injected")
    else:
        net.send(plan.port, raw, at, note="injected")
