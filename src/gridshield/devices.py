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


@dataclass(frozen=True)
class Waveform:
    """The nominal per-phase magnitudes, with an optional step of phase A
    to the fault current (``substation.py``)."""

    fault_at_us: SimTime | None = None

    def sample(self, at: SimTime) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        currents = sub.NOMINAL_CURRENTS_MA
        if self.fault_at_us is not None and at >= self.fault_at_us:
            currents = (sub.FAULT_PHASE_A_MA, currents[1], currents[2])
        return currents, sub.NOMINAL_VOLTAGES_MV


@dataclass(frozen=True)
class MuConfig:
    samples_per_second: int = 1_000
    internal_delay_us: SimTime = 3_000  # t_mu

    def __post_init__(self) -> None:
        if self.samples_per_second <= 0:
            raise ValueError("samples_per_second must be positive")
        if 1_000_000 % self.samples_per_second:
            raise ValueError("samples_per_second must divide 1e6 for exact ticks")


class MuDevice:
    """Samples the waveform and streams sampled-value frames."""

    def __init__(self, net: Network, config: MuConfig, waveform: Waveform):
        self.net = net
        self.config = config
        self.waveform = waveform
        self.port = PortRef(sub.MU, sub.MU_PORT)
        self.smp_cnt = 0
        self.period_us = 1_000_000 // config.samples_per_second
        # (smp_cnt, currents, voltages) -> its encoded frame; at most
        # samples_per_second entries per waveform level
        self._frames: dict[tuple, RawFrame] = {}
        net.register(sub.MU, self)
        net.call(0, self._tick)

    def on_frame(self, port: int, raw: RawFrame, at: SimTime) -> None:
        pass  # nothing talks to the merging unit

    def _tick(self) -> None:
        at = self.net.now
        currents, voltages = self.waveform.sample(at)
        key = (self.smp_cnt, currents, voltages)
        raw = self._frames.get(key)
        if raw is None:
            frame = SvFrame(
                dst=sub.SV_DST,
                src=sub.MU_MAC,
                sv_id=sub.SV_ID,
                smp_cnt=self.smp_cnt,
                currents=currents,
                voltages=voltages,
            )
            raw = encode_sv(frame, smp_cnt_modulus=self.config.samples_per_second)
            self._frames[key] = raw
        self.net.send(self.port, raw, at + self.config.internal_delay_us, note=f"tick_us={at}")
        self.smp_cnt = (self.smp_cnt + 1) % self.config.samples_per_second
        self.net.call(at + self.period_us, self._tick)


@dataclass(frozen=True)
class PiedConfig:
    publish_interval_us: SimTime = 1_000_000
    protection_delay_us: SimTime = 10_000  # t_pied
    # benign data change (supervision point toggles) giving the stream a
    # second state number; None disables it
    toggle_point_at_us: SimTime | None = None
    # compromised-relay semantics: legitimate publications stop here
    silence_at_us: SimTime | None = None

    def __post_init__(self) -> None:
        # a zero interval would republish at the same instant forever
        if self.publish_interval_us <= 0:
            raise ValueError("publish interval must be positive")


@dataclass
class BreakerState:
    position: str = "Closed"  # or "Open"
    last_trip_time: SimTime | None = None


class PiedDevice:
    """Overcurrent protection: latches on pickup, publishes the trip.

    Publications carry two boolean points: point 0 is the trip command,
    point 1 a supervision flag used for benign state changes. Every
    publication leaves both GOOSE ports, toward the station-bus switch and
    the inspector's direct feed, at the same instant.
    """

    GOOSE_PORTS = (PortRef(sub.PIED, sub.PIED_STATION), PortRef(sub.PIED, sub.PIED_IDS_DIRECT))

    def __init__(self, net: Network, config: PiedConfig):
        self.net = net
        self.config = config
        self.latched = False
        self.current: GooseFrame | None = None
        self._next_pub_at: SimTime = 0
        self._silenced = False
        net.register(sub.PIED, self)
        net.call(0, self._pump)
        if config.toggle_point_at_us is not None:
            net.call(config.toggle_point_at_us, self._toggle_point)
        if config.silence_at_us is not None:
            net.call(config.silence_at_us, self._silence)

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
                at=at + self.config.protection_delay_us,
                note=f"trip trigger={raw.digest}",
            )

    def reset_latch(self) -> None:
        self.latched = False

    # -- publication ---------------------------------------------------------

    def _silence(self) -> None:
        self._silenced = True

    def _build_first(self, now: SimTime) -> GooseFrame:
        return GooseFrame(
            dst=sub.GOOSE_DST,
            src=sub.PIED_MAC,
            app_id=sub.PIED_APP_ID,
            gocb_ref=sub.GOCB_REF,
            time_allowed_to_live=sub.PIED_TTL_MS,
            st_num=1,
            sq_num=0,
            test=False,
            timestamp=now,
            dataset_ref=sub.DATASET_REF,
            all_data=(False, False),
        )

    def _publish(self, state_changed: bool, at: SimTime, trip: bool = False,
                 toggle: bool = False, note: str | None = None) -> None:
        if self._silenced:
            return
        if self.current is None:
            frame = self._build_first(at)
        else:
            frame = next_publication(self.current, state_changed, now=at)
        trip_point, flag_point = frame.all_data
        points = (trip_point or trip, flag_point != toggle)
        if points != frame.all_data:
            frame = replace(frame, all_data=points)
        self.current = frame
        raw = encode_goose(frame)
        for port in self.GOOSE_PORTS:
            self.net.send(port, raw, at, note=note)
        # a publication restarts the retransmission timer
        self._next_pub_at = at + self.config.publish_interval_us

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
    """Waveform source stand-in and circuit-breaker sink.

    The sourcing side lives in the merging unit's configured waveform; this
    node closes the loop by acting on every trip command that reaches its
    port. It shares no state with the inspection device: keeping injected
    trips away from the breaker is the job of the inspector's port-disable
    mitigation, as in the paper.
    """

    def __init__(self, net: Network, internal_delay_us: SimTime = 4_000):  # t_oc
        self.net = net
        self.internal_delay_us = internal_delay_us
        self.breaker = BreakerState()
        self._trip_pending = False
        net.register(sub.OMICRON, self)

    def on_frame(self, port: int, raw: RawFrame, at: SimTime) -> None:
        if self.breaker.position == "Open" or self._trip_pending:
            return
        try:
            frame = decode_goose(raw)
        except CodecError:
            return
        if not frame.trip:
            return
        self._trip_pending = True
        self.net.call(at + self.internal_delay_us, self._open_breaker, raw.digest)

    def _open_breaker(self, digest: str) -> None:
        self.breaker.position = "Open"
        self.breaker.last_trip_time = self.net.now
        self._trip_pending = False
        self.net.log_event("BreakerTrip", sub.OMICRON, None, digest, note="breaker=open")


@dataclass(frozen=True)
class InjectionPlan:
    """Ground-truth attack schedule for one scenario."""

    port: PortRef
    mode: str  # "ingress" into a switch pipeline, "egress" from a device port
    template: GooseFrame
    times_us: tuple[SimTime, ...]

    def __post_init__(self) -> None:
        if self.mode not in ("ingress", "egress"):
            raise ValueError(f"unknown injection mode {self.mode!r}")


def inject(net: Network, plan: InjectionPlan) -> None:
    """Schedule every injection of the plan, marked in the log."""
    raw = encode_goose(plan.template)
    for at in plan.times_us:
        if plan.mode == "ingress":
            net.inject_ingress(plan.port, raw, at, note="injected")
        else:
            net.send(plan.port, raw, at, note="injected")
