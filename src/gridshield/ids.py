"""Rule-based GOOSE inspection, source localization and mitigation.

The inspection device watches three of its ports: the main feed from the
station-bus switch, the relay's direct feed, and the loop return. Each
relay publication reaches it up to three times (on the direct and main
feeds, then on the loop return), at most once per port, so the device
inspects a digest on its first sighting: the five fixed rules (sequence
regression, sequence skip, TTL bounds, publisher whitelist, rate limit),
whose ids and bounds are the constants below, run over the decoded frame
and update the subscription state. Frames received on the main feed are
re-forwarded onto a loop through the station-bus switch and come back on
the loop return port. The device keeps one memory per digest, for the
loop window: its last inspection, the ports that have seen it since,
and its departures round the loop. A loop-return arrival inside a
departure's window is the device's own echo (``loop=True``); anything
else on that port was put there by the switch itself. An echo, however
long after the inspection it comes back, and an arrival within the
inspection's window on a port that has not seen the digest yet, are
copies of the same publication: neither decoded nor counted again, they
take the last inspection's rules. Any other arrival on a port that
already saw it is a new one, as in a flood of identical frames, and is
inspected and counted again. Every sighting of an abnormal digest,
copies included, is alerted and becomes an :class:`ObservationRecord`
of its port, echo flag and time. The only legitimate publisher is the
relay, whose control block reference and source address are the
``substation.py`` identities; the whitelist rule is the one place they
are checked, because a frame's sender sets both.

Localization reads where each abnormal sighting came in and whether it
was an echo, never what the frame claims to be:

  (a) an abnormal loop-return sighting that is not an echo names the
      station-bus switch;
  (b) otherwise, an abnormal sighting first seen on the main feed names
      the relay.

``localize`` returns the culprit of the first row that holds, or None
when neither does; the device then logs the evidence as inconclusive and
never guesses.
Mitigation is a list of port-disable commands: for a compromised switch,
every inspection port except the delivery and direct-relay ports; for a
compromised relay, the two switch ports that face it.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from gridshield import substation as sub
from gridshield.codec import (
    CodecError,
    GOOSE_ETHERTYPE,
    GooseFrame,
    RawFrame,
    decode_goose,
)
from gridshield.netsim import Network, PortRef, SimTime
from gridshield.sdn import FlowTable, SwitchNode


class Origin(enum.Enum):
    """The two candidate sources of injected traffic."""

    STATION_BUS_SWITCH = "StationBusSwitch"
    PIED = "PIED"


# The five rules, in the order ``inspect`` checks them and their alerts are
# logged, and the rule id of an undecodable frame.
SEQ_REGRESSION = "seq_regression"
SEQ_SKIP = "seq_skip"
TTL_BOUND = "ttl_bound"
PUBLISHER_WHITELIST = "publisher_whitelist"
RATE_LIMIT = "rate_limit"
MALFORMED_RULE_ID = "malformed"

# Their bounds: the largest sqNum step within one stNum, the accepted
# timeAllowedToLive, and the most publications of one publisher per window
# beyond those its declared heartbeat accounts for.
MAX_SQ_GAP = 1
TTL_MIN_MS = 1
TTL_MAX_MS = 60_000
RATE_MAX_FRAMES = 10
RATE_WINDOW_US = 100_000


@dataclass
class _PublisherState:
    """One publisher's sequencing position and its recent arrival times."""

    last_st: int = 0  # 0 until a clean frame is seen
    last_sq: int = 0
    arrivals: deque = field(default_factory=deque)  # times, for the rate rule

    def record_arrival(self, at: SimTime) -> int:
        """Count a publication; return those within RATE_WINDOW_US of it."""
        arrivals = self.arrivals
        arrivals.append(at)
        while arrivals[0] < at - RATE_WINDOW_US:
            arrivals.popleft()
        return len(arrivals)

    def advance(self, frame: GooseFrame) -> None:
        self.last_st = frame.st_num
        self.last_sq = frame.sq_num


class SubscriptionState:
    """Per-publisher sequencing state; poisoning-resistant.

    Sequencing fields advance only on frames that break no sequence, TTL or
    whitelist rule, so an attacker's stale or foreign frames cannot push
    the state and make subsequent legitimate traffic look anomalous. A
    frame that breaks the rate rule alone still advances it. Each
    inspected frame feeds the rate rule, whose bound is the
    ``RATE_MAX_FRAMES`` floor plus the publications that the subscribed
    heartbeat ``heartbeat_us`` (a substation configuration declares it)
    puts in one ``RATE_WINDOW_US``.
    """

    def __init__(self, heartbeat_us: SimTime) -> None:
        self._by_gocb: dict[str, _PublisherState] = {}
        self.rate_max_frames = RATE_MAX_FRAMES - (-RATE_WINDOW_US // heartbeat_us)  # ceil

    def publisher(self, gocb_ref: str) -> _PublisherState:
        pub = self._by_gocb.get(gocb_ref)
        if pub is None:
            pub = self._by_gocb[gocb_ref] = _PublisherState()
        return pub


class ObservationRecord(NamedTuple):
    """One abnormal sighting: the port it came in on, whether it was the
    device's own loop echo, and when.

    ``localize`` checks that the port is one of the device's eight.
    """

    ingress_port: int
    loop: bool
    time: SimTime


# ---------------------------------------------------------------------------
# Rule evaluation
# ---------------------------------------------------------------------------


_PIED_OCTETS = sub.PIED_MAC.octets


def inspect(
    frame: GooseFrame, state: SubscriptionState, at: SimTime
) -> tuple[SubscriptionState, list[str]]:
    """Run the five rules over one decoded frame arriving at ``at``; update
    state; return it with the ids of the rules the frame breaks, in rule
    order.

    Each call is one arrival towards the rate rule (the device calls it
    once per arrival, not per copy on another port); the sequencing state
    advances unless a sequence, TTL or whitelist rule fired.
    """
    fired: list[str] = []
    pub = state.publisher(frame.gocb_ref)
    last_st = pub.last_st
    if last_st > 0:
        st, sq, last_sq = frame.st_num, frame.sq_num, pub.last_sq
        if st < last_st or (st == last_st and sq < last_sq):
            fired.append(SEQ_REGRESSION)
        # a new stNum restarts sqNum at 0
        if (st == last_st and sq - last_sq > MAX_SQ_GAP) or (
            st > last_st and sq > MAX_SQ_GAP - 1
        ):
            fired.append(SEQ_SKIP)
    if not TTL_MIN_MS <= frame.time_allowed_to_live <= TTL_MAX_MS:
        fired.append(TTL_BOUND)
    if frame.gocb_ref != sub.GOCB_REF or frame.src.octets != _PIED_OCTETS:
        fired.append(PUBLISHER_WHITELIST)
    if not fired:
        pub.advance(frame)
    if pub.record_arrival(at) > state.rate_max_frames:
        fired.append(RATE_LIMIT)
    return state, fired


# ---------------------------------------------------------------------------
# Localization and mitigation
# ---------------------------------------------------------------------------


def localize(observations: Iterable[ObservationRecord]) -> Origin | None:
    """Apply the two-row decision table to the abnormal observations.

    The observations are taken in time order (ties keep their given order),
    and each must be on one of the device's eight ports. Returns the
    culprit of the first row that holds, or None when neither does; never
    guesses.
    """
    obs = tuple(sorted(observations, key=lambda o: o.time))
    if not obs:
        raise ValueError("localization needs at least one abnormal observation")
    for o in obs:
        if o.ingress_port not in sub.IDS_PORTS:
            raise ValueError(f"ingress port {o.ingress_port} outside 1..8")
    if any(o.ingress_port == sub.IDS_LOOP_RETURN and not o.loop for o in obs):
        return Origin.STATION_BUS_SWITCH
    if obs[0].ingress_port == sub.IDS_MAIN_FEED:
        return Origin.PIED
    return None


def mitigate(culprit: Origin) -> list[PortRef]:
    """The ports to disable once ``culprit`` is convicted.

    A compromised station-bus switch loses every link to the inspection
    device: all inspection ports are disabled except the delivery port and
    the relay's direct feed, which keep protection traffic alive. A
    compromised relay is cut off at the two switch ports facing it. The
    scorer checks a run's disabled ports against this same plan.
    """
    if culprit is Origin.STATION_BUS_SWITCH:
        return [PortRef(sub.IDS, port) for port in sub.IDS_PORTS if port not in sub.IDS_KEEP_ENABLED]
    return [PortRef(sub.STATION_BUS, sub.SBS_PIED), PortRef(sub.PROCESS_BUS, sub.PBS_PIED)]


# ---------------------------------------------------------------------------
# The device
# ---------------------------------------------------------------------------


# How long the device remembers a digest's inspection and its departures
# round the loop: longer than the loop's round trip (out, through the
# station-bus switch, and back).
LOOP_WINDOW_US = 10_000


@dataclass(slots=True)
class _Recent:
    """What the device remembers of a digest."""

    inspected: SimTime  # when it was last inspected
    notes: tuple[str, ...]  # that inspection's alert notes, in rule order
    ports: set[int]  # the monitored ports that have seen it since
    loops: list[SimTime]  # its departures round the loop, inside the window


class IdsNode(SwitchNode):
    """The IDS-integrated SDN device: a switch that also inspects.

    It is the ``sub.IDS`` node, and its monitored, loop-out and
    loop-return ports are the ``substation.py`` panel constants that
    ``localize`` and ``mitigate`` read too. Each monitored GOOSE arrival
    that is not a copy is inspected against the relay's declared
    heartbeat ``heartbeat_us``, and every arrival is then forwarded by the
    ordinary switch path. All the device remembers of a digest is one
    ``_Recent`` record, forgotten once its every window has closed.
    Abnormal arrivals, copies included, accumulate as observations. The
    first abnormal observation arms a decision timer (long enough for the
    loop echo and any in-flight forwards to land); when it fires, the
    decision table either names a culprit, which is logged with the count
    and ports of the observations it was decided on and whose ``mitigate``
    ports are disabled, or the evidence is logged as inconclusive and the
    timer re-arms on the next abnormal sighting. Once a culprit is named,
    alerts are still logged but no longer observed.
    """

    def __init__(
        self,
        net: Network,
        table: FlowTable,
        *,
        processing_delay: SimTime,
        decision_window_us: SimTime,
        heartbeat_us: SimTime,
    ):
        super().__init__(net, sub.IDS, table, processing_delay)
        self.state = SubscriptionState(heartbeat_us)
        self.decision_window_us = decision_window_us
        self.observations: list[ObservationRecord] = []
        self.culprit: Origin | None = None
        self._decision_armed = False
        self._loop_out = PortRef(sub.IDS, sub.IDS_LOOP_OUT)
        self._recent: dict[str, _Recent] = {}
        # (start of a window, digest) for every inspection and departure,
        # about oldest first: departures are a fixed delay ahead
        self._expiry: deque[tuple[SimTime, str]] = deque()

    def on_frame(self, port: int, raw: RawFrame, at: SimTime) -> None:
        self._forget(at)
        if port in sub.IDS_MONITORED and raw.ethertype == GOOSE_ETHERTYPE:
            self._inspect_arrival(port, raw, at)
        if self._loop_out in self.process_frame(raw, port, at):
            # only the main feed goes round the loop, so the frame has a record
            departs = at + self.processing_delay
            rec = self._recent[raw.digest]
            rec.loops = [t for t in rec.loops if t + LOOP_WINDOW_US >= departs] + [departs]
            self._expiry.append((departs, raw.digest))

    def _forget(self, now: SimTime) -> None:
        """Drop the records whose every window closed before ``now``; time
        does not decrease, so no later arrival could match them."""
        expiry, recent = self._expiry, self._recent
        while expiry and expiry[0][0] + LOOP_WINDOW_US < now:
            digest = expiry.popleft()[1]
            rec = recent.get(digest)
            if rec is not None and max([rec.inspected, *rec.loops]) + LOOP_WINDOW_US < now:
                del recent[digest]

    # -- inspection ----------------------------------------------------------

    def _inspect_arrival(self, port: int, raw: RawFrame, at: SimTime) -> None:
        digest = raw.digest
        rec = self._recent.get(digest)
        fresh = rec is not None and rec.inspected + LOOP_WINDOW_US >= at
        # the echo of a frame the device sent round the loop; a loop-return
        # arrival that is not one names the switch in ``localize``
        echo = port == sub.IDS_LOOP_RETURN and rec is not None and any(
            t <= at <= t + LOOP_WINDOW_US for t in rec.loops
        )
        if echo or (fresh and port not in rec.ports):
            rec.ports.add(port)  # a copy: a publication reaches each port once
        else:
            # a first sighting, or a repeat that no copy explains: a new arrival
            notes = self._inspect_frame(raw, at)
            ports = rec.ports if fresh else {port}
            loops = [] if rec is None else rec.loops
            rec = self._recent[digest] = _Recent(at, notes, ports, loops)
            self._expiry.append((at, digest))
        if not rec.notes:
            return
        for note in rec.notes:
            self.net.log_event("AlertRaised", self.node_id, port, digest, note)
        self._observe(port, echo, at)

    def _inspect_frame(self, raw: RawFrame, at: SimTime) -> tuple[str, ...]:
        """Decode and inspect one arrival; return its alert notes."""
        try:
            frame = decode_goose(raw)
        except CodecError:
            return (f"rule={MALFORMED_RULE_ID} gocb=",)
        _, rule_ids = inspect(frame, self.state, at)
        return tuple(f"rule={rule_id} gocb={frame.gocb_ref}" for rule_id in rule_ids)

    def _observe(self, port: int, loop: bool, at: SimTime) -> None:
        if self.culprit is not None:
            return  # nothing reads observations once the culprit is named
        self.observations.append(ObservationRecord(port, loop, at))
        if not self._decision_armed:
            self._decision_armed = True
            self.net.call(at + self.decision_window_us, self._decide)

    # -- decision ------------------------------------------------------------

    def _decide(self) -> None:
        # ``_observe`` arms the timer only while no culprit is named
        self._decision_armed = False
        at = self.net.now
        observations = self.observations
        culprit = localize(observations)
        if culprit is None:
            self.net.log_event(
                "ControlMsg", self.node_id, None, None,
                note=f"localization_inconclusive observations={len(observations)}",
            )
            return
        self.culprit = culprit
        ports = sorted({o.ingress_port for o in observations})
        self.net.log_event(
            "VerdictReached", self.node_id, None, None,
            note=f"culprit={culprit.value} evidence={len(observations)} "
            f"ports={','.join(str(p) for p in ports)}",
        )
        for port in mitigate(culprit):
            self.net.log_event("ControlMsg", port.node, port.port, None, note="port_mod disable")
            self.net.disable_port(port, at + sub.CONTROLLER_LATENCY_US)
