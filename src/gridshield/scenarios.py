"""Executable case-study fixtures with pass/fail scoring.

Three fixtures share one topology and differ only in traffic:

* ``baseline``: no attack; a phase-A fault steps the waveform, the relay
  trips, and the breaker opens exactly the configured delay budget after
  the fault sample. Runs with the inspection module transparent
  (``with_ids: false``) to reproduce the no-module budget, or active to
  show the added inspection delay.
* ``attack1``: stale GOOSE replays are generated inside the station-bus
  switch on its unwired port 6 while the relay keeps publishing. The
  switch's mirror entries duplicate the injected frames to both monitor
  feeds, the inspector convicts the switch, and mitigation leaves only
  the delivery and direct-relay ports enabled.
* ``attack2``: the relay is compromised mid-run (its legitimate publisher
  goes silent) and replays stale frames out its station-bus interface.
  The loop correlation shows every loop-return sighting to be the
  inspector's own echo, the relay is convicted, and the two switch ports
  facing it are disabled, isolating it while sampled values still reach
  the inspection tap.

Scoring is a pure function of the event log: a saved log re-scores to the
identical result. The first log line is a control-channel banner naming
the scenario and the few config-derived expectations, and the last line
is a completion record carrying the event count, which lets a replay
detect truncation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import islice
from pathlib import Path

from gridshield import substation as sub
from gridshield.codec import MAX_U32, MAX_U64, CodecError, MacAddress
from gridshield.delay import (
    BASELINE_TOTAL_US,
    COMPONENT_NAMES,
    MS,
    DelayComponents,
    DelayReport,
    measure,
    total,
    walk_hops,
)
from gridshield.devices import InjectionPlan, MuDevice, OmicronDevice, PiedDevice, inject
from gridshield.ids import LOOP_WINDOW_US, IdsNode, Origin, mitigate
from gridshield.netsim import (
    EventLog,
    Network,
    PortRef,
    SimEvent,
    TopologyError,
    TopologySpec,
    UnknownPort,
    build_topology,
    note_fields,
)
from gridshield.sdn import SwitchNode

SCENARIO_IDS = ("baseline", "attack1", "attack2")

RECALL_WINDOW_US = 50 * MS

# The most sample and publication ticks a run may schedule; a config above
# it would run for hours and grow its log without bound.
MAX_SCHEDULED_TICKS = 1_000_000

# The device an attack must be pinned on, by the node where its first
# injected frame entered the network, and the monitor ports its
# conviction must cite.
_CULPRIT_AT = {sub.STATION_BUS: Origin.STATION_BUS_SWITCH, sub.PIED: Origin.PIED}
_EVIDENCE_PORTS = {
    Origin.STATION_BUS_SWITCH: (sub.IDS_MAIN_FEED, sub.IDS_LOOP_RETURN),
    Origin.PIED: (sub.IDS_MAIN_FEED,),
}


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one run needs; shipped as YAML, overridable per key.

    The wiring, flow tables and device identities always come from
    ``substation.py``, with link latencies derived from the delay split.
    A config sets delays, traffic and the injection; the inspector's rules
    are the ``ids.py`` constants. Each device reads its settings from here.
    """

    id: str
    duration_us: int
    with_ids: bool
    delays: DelayComponents
    decision_window_us: int
    samples_per_second: int
    publish_interval_us: int
    toggle_point_at_us: int | None
    silence_at_us: int | None
    fault_at_us: int | None
    injection: InjectionPlan | None
    injection_times_us: tuple[int, ...] = ()

    def topology(self) -> TopologySpec:
        return sub.default_topology(self.delays)

    def expected_total_us(self) -> int:
        return total(self.delays, self.with_ids)

    def settle_us(self) -> int:
        return max(lat for *_ignored, lat in self.topology().links)


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    passed: bool
    reasons: tuple[str, ...]
    verdict_culprit: str | None
    verdict_evidence_ports: tuple[int, ...]
    alerts: int
    injected: int
    injected_alerted: int
    enabled_ids_ports: tuple[int, ...]
    disabled_ports: dict[str, tuple[int, ...]]
    breaker_trips: int
    trace_ok: bool | None
    delay: DelayReport | None
    log: EventLog = field(repr=False, compare=False)

    @property
    def recall(self) -> float:
        return self.injected_alerted / self.injected if self.injected else 1.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "scenario": self.scenario,
                "pass": self.passed,
                "reasons": list(self.reasons),
                "verdict": {
                    "culprit": self.verdict_culprit,
                    "evidence_ports": list(self.verdict_evidence_ports),
                },
                "alerts": self.alerts,
                "injected": self.injected,
                "injected_alerted": self.injected_alerted,
                "recall": self.recall,
                "enabled_ids_ports": list(self.enabled_ids_ports),
                "disabled_ports": {k: list(v) for k, v in sorted(self.disabled_ports.items())},
                "breaker_trips": self.breaker_trips,
                "trace_ok": self.trace_ok,
                "delay": self.delay.as_dict() if self.delay else None,
            },
            indent=2,
        )


# ---------------------------------------------------------------------------
# Fixture loading
# ---------------------------------------------------------------------------


def _builtin_config_text(scenario_id: str) -> str:
    ref = resources.files("gridshield.configs").joinpath(f"{scenario_id}.yaml")
    return ref.read_text()


def load_scenario(name_or_path: str, overrides: dict | None = None) -> ScenarioSpec:
    """Load a shipped fixture by id, or any scenario YAML by path;
    ``overrides`` maps ``--override`` names to values that replace the
    config's."""
    if name_or_path in SCENARIO_IDS:
        text = _builtin_config_text(name_or_path)
    else:
        path = Path(name_or_path)
        try:
            found = path.is_file()
        except OSError as exc:  # a name the system cannot look up, such as one too long
            raise ScenarioError(f"cannot read scenario {name_or_path!r}: {exc.strerror}") from exc
        if not found:
            raise ScenarioError(f"unknown scenario {name_or_path!r}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read {path}: {exc}") from exc
    import yaml  # here, not at module level: replay never parses YAML

    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"bad scenario config: {exc}") from exc
    by_path = {}
    for key, value in (overrides or {}).items():
        if key not in _OVERRIDE_KEYS:
            raise ScenarioError(f"unknown override {key!r}")
        by_path[_OVERRIDE_KEYS[key]] = value
    return _spec_from_tree(tree, by_path)


# Readers of config values: each takes the value and its path in the
# config, and returns what the spec holds or raises ValueError naming the
# path. Nothing is coerced.


def _ms(value, where: str) -> int:
    """Milliseconds as whole microseconds: a finite number, not negative; a
    bool or a string is no number."""
    if type(value) not in (int, float):
        raise ValueError(f"{where} must be a number of milliseconds, not {value!r}")
    try:
        us = int(round(float(value) * MS))
    except (OverflowError, ValueError) as exc:  # infinite, or not a number
        raise ValueError(f"{where}: {exc}") from exc
    if us < 0:
        raise ValueError(f"{where}: {value!r} ms is negative")
    return us


def _timestamp(value, where: str) -> int:
    """A frame timestamp: a time that fits the frame's u64 of microseconds."""
    us = _ms(value, where)
    if us > MAX_U64:
        last_ms = MAX_U64 // MS
        raise ValueError(f"{where}: {value!r} ms is past the frame's last timestamp, {last_ms} ms")
    return us


def _times(value, where: str) -> tuple[int, ...]:
    """A YAML list of at least one time."""
    if type(value) is not list:
        raise ValueError(f"{where} must be a list of times, not {value!r}")
    if not value:
        raise ValueError(f"{where} names no injection time")
    return tuple(_ms(t, where) for t in value)


def _typed(kind: type):
    """The reader of a value whose type is exactly ``kind``: a bool is no
    whole number, and neither a string nor a number is a bool."""
    what = {bool: "true or false", int: "a whole number", str: "a string"}[kind]

    def read(value, where: str):
        if type(value) is not kind:
            raise ValueError(f"{where} must be {what}, not {value!r}")
        return value

    return read


def _whole(low: int, high: int):
    """The reader of a whole number from ``low`` to ``high``; a bool is none."""

    def read(value, where: str) -> int:
        if type(value) is not int or not low <= value <= high:
            raise ValueError(f"{where} must be a whole number from {low} to {high}, not {value!r}")
        return value

    return read


def _one_of(*choices: str):
    """The reader of a string that is one of ``choices``."""

    def read(value, where: str) -> str:
        if value not in choices:
            raise ValueError(f"{where} must be one of {', '.join(choices)}, not {value!r}")
        return value

    return read


def _name(value, where: str) -> str:
    """A scenario name, safe as one directory component: lowercase letters,
    digits and underscores."""
    if type(value) is not str or not re.fullmatch(r"[a-z0-9_]+", value):
        raise ValueError(f"{where} must be lowercase letters, digits and underscores, not {value!r}")
    return value


def _mac(value, where: str) -> MacAddress:
    """A MAC address string, such as ``01:0C:CD:01:00:01``."""
    try:
        return MacAddress.parse(_typed(str)(value, where))
    except CodecError as exc:
        raise ValueError(f"{where}: {exc}") from exc


_REQUIRED = object()  # the default of a key that every config sets

# Every key a scenario config may hold (docs/SCHEMAS.md), by its path: the
# name it is read into, its reader, and its default. A key the table does
# not name is an error, not a silently ignored setting, and so is a
# missing _REQUIRED one; a null value takes a default of None. Values are
# read in this order once every mapping's keys are checked, and the first
# fault found is reported.
_SCHEMA = {
    ("scenario",): ("id", _name, _REQUIRED),
    ("duration_ms",): ("duration_us", _ms, _REQUIRED),
    ("with_ids",): ("with_ids", _typed(bool), _REQUIRED),
    **{("delays_ms", name): (name, _ms, _REQUIRED) for name in COMPONENT_NAMES},
    ("decision_window_ms",): ("decision_window_us", _ms, 15),
    ("mu", "samples_per_second"): ("samples_per_second", _typed(int), 1000),
    ("pied", "publish_interval_ms"): ("publish_interval_us", _ms, 1000),
    ("pied", "toggle_point_at_ms"): ("toggle_point_at_us", _ms, None),
    ("pied", "silence_at_ms"): ("silence_at_us", _ms, None),
    ("waveform", "fault_at_ms"): ("fault_at_us", _ms, None),
    ("injection", "template", "src_mac"): ("src", _mac, None),  # None: the relay's
    ("injection", "template", "gocb_ref"): ("gocb_ref", _typed(str), sub.GOCB_REF),
    ("injection", "template", "st_num"): ("st_num", _whole(1, MAX_U32), _REQUIRED),
    ("injection", "template", "sq_num"): ("sq_num", _whole(0, MAX_U32), _REQUIRED),
    ("injection", "template", "timestamp_ms"): ("timestamp", _timestamp, 0),
    ("injection", "template", "trip"): ("trip", _typed(bool), False),
    ("injection", "node"): ("node", _one_of(*_CULPRIT_AT), _REQUIRED),
    ("injection", "times_ms"): ("injection_times_us", _times, _REQUIRED),
    ("injection", "port"): ("port", _typed(int), _REQUIRED),
    ("injection", "mode"): ("mode", _one_of("ingress", "egress"), _REQUIRED),
}

# The paths of the config's mappings, each after the one holding it: the
# config itself, its sections and the injection's template.
_MAPPINGS = tuple(dict.fromkeys(path[:depth] for path in _SCHEMA for depth in range(len(path))))

# ``--override`` names: every key but the scenario id and the injection's,
# so the top-level scalars and each key of the one-setting-per-key sections.
_OVERRIDE_KEYS = {path[-1]: path for path in _SCHEMA if path[0] not in ("scenario", "injection")}


def _read(tree, overrides: dict) -> dict:
    """The value of each ``_SCHEMA`` key in the config ``tree``, by the name
    it is read into; ``overrides`` maps a path to the value that replaces
    the tree's. The injection is read when its section is a non-empty
    mapping."""
    mappings: dict[tuple, dict] = {}
    for at in _MAPPINGS:
        node = mappings[at[:-1]].get(at[-1]) if at else tree
        where = ".".join(at) or "the config"
        if at and node is None:  # an absent or null section is empty
            node = {}
        if not isinstance(node, dict):
            raise ValueError(f"{where} is not a mapping of keys")
        allowed = {path[len(at)] for path in _SCHEMA if path[:len(at)] == at}
        unknown = sorted(set(node) - allowed, key=str)
        if unknown:
            raise ScenarioError(f"unknown config keys {unknown} in {where}")
        mappings[at] = node
    got = {}
    for path, (name, read, default) in _SCHEMA.items():
        if path[0] == "injection" and not mappings[path[:1]]:
            continue
        where = ".".join(path)
        value = overrides.get(path, mappings[path[:-1]].get(path[-1], default))
        if value is _REQUIRED:
            raise ValueError(f"missing key {where}")
        got[name] = None if value is None and default is None else read(value, where)
    return got


def _spec_from_tree(tree, overrides: dict) -> ScenarioSpec:
    try:
        got = _read(tree, overrides)
        delays = DelayComponents(**{name: got.pop(name) for name in COMPONENT_NAMES})
        injection = _injection(got)
        spec = ScenarioSpec(delays=delays, injection=injection, **got)
        if spec.duration_us <= 0:
            raise ValueError("duration_ms must be positive")
        # a zero interval would republish at the same instant forever
        if spec.publish_interval_us <= 0:
            raise ValueError("pied.publish_interval_ms: a publish interval must be positive")
        if spec.samples_per_second <= 0 or 1_000_000 % spec.samples_per_second:
            raise ValueError(
                "mu.samples_per_second must be positive and divide 1e6 for exact ticks"
            )
        ticks = (
            spec.duration_us * spec.samples_per_second // 1_000_000
            + spec.duration_us // spec.publish_interval_us
        )
        if ticks > MAX_SCHEDULED_TICKS:
            raise ValueError(
                f"the run schedules about {ticks} sample and publication ticks, "
                f"above the cap of {MAX_SCHEDULED_TICKS}"
            )
        # the echo window is fixed: past it, the inspector would take its own
        # echoes for frames that the switch put on the loop
        loop_us = 2 * sub.LOOP_LEG_LATENCY + spec.delays.t_ss
        if spec.with_ids and loop_us > LOOP_WINDOW_US:
            raise ValueError(
                f"delays_ms.t_ss: the inspection loop's round trip of {loop_us / MS:g} ms "
                f"outlasts the inspector's {LOOP_WINDOW_US / MS:g} ms echo window"
            )
        # wiring, ports and schedules fail here, before anything runs or is written
        try:
            _build(spec)
        except UnknownPort as exc:  # the wiring is fixed: only the injection names a port
            raise ValueError(f"injection.port: {exc}") from exc
        return spec
    except (KeyError, TypeError, ValueError, OverflowError, TopologyError, CodecError) as exc:
        raise ScenarioError(f"bad scenario config: {exc}") from exc


def _injection(got: dict) -> InjectionPlan | None:
    """The plan whose values ``_read`` put in ``got``, taking them out; None
    for a config without an injection."""
    if "node" not in got:
        return None
    src = got.pop("src")
    template = replace(
        sub.RELAY_PUBLICATION,
        src=sub.PIED_MAC if src is None else src,
        gocb_ref=got.pop("gocb_ref"),
        st_num=got.pop("st_num"),
        sq_num=got.pop("sq_num"),
        timestamp=got.pop("timestamp"),
        all_data=(got.pop("trip"), False),
    )
    return InjectionPlan(
        port=PortRef(got.pop("node"), got.pop("port")),
        mode=got.pop("mode"),
        template=template,
    )


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


# The spec fields that only time a run's inputs, name it or end it. Specs
# equal in every other field can share a trunk (``trunks``).
_TIMED = ("id", "duration_us", "toggle_point_at_us", "silence_at_us", "fault_at_us",
          "injection", "injection_times_us")


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Build the network, run the traffic, and score the log."""
    trunk = Trunk([spec])
    trunk.run()
    return trunk.branch(spec)


def trunks(specs: list[ScenarioSpec]) -> list[list[int]]:
    """The indices of ``specs`` grouped by the trunk they can share: specs
    equal in every field but the ``_TIMED`` ones, in order of first
    appearance."""
    groups: dict[ScenarioSpec, list[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(replace(spec, **dict.fromkeys(_TIMED)), []).append(index)
    return list(groups.values())


def _inputs(spec: ScenarioSpec) -> list[tuple[int, object]]:
    """The run's timed inputs after its first tick and first publication,
    in the order the build schedules them, as ``(time, what)``: the toggle,
    the silence, and the injection plan at each injection time."""
    inputs: list[tuple[int, object]] = []
    if spec.toggle_point_at_us is not None:
        inputs.append((spec.toggle_point_at_us, "toggle"))
    if spec.silence_at_us is not None:
        inputs.append((spec.silence_at_us, "silence"))
    inputs += [(at, spec.injection) for at in spec.injection_times_us]
    return inputs


def _schedule(net: Network, inputs: list[tuple[int, object]]) -> None:
    relay = net.handlers[sub.PIED]
    for at, what in inputs:
        if what == "toggle":
            relay.toggle_at(at)
        elif what == "silence":
            relay.silence_at(at)
        else:
            inject(net, what, at)


def _banner(spec: ScenarioSpec) -> str:
    return (
        f"run scenario={spec.id} with_ids={int(spec.with_ids)} "
        f"expected_total_us={spec.expected_total_us()} settle_us={spec.settle_us()}"
    )


class Trunk:
    """The part of a run that a group of specs from ``trunks`` shares.

    The trunk is built with the first spec's banner, the longest prefix of
    the specs' ``_inputs`` that they all share, and their common fault
    time, if they have one. ``run`` takes it up to the microsecond before
    ``diverge_us``, the first of: the time of any input after that prefix,
    any fault time when the specs' fault times differ (the merging unit
    reads it at every tick), and the end of the shortest run.

    ``branch`` then makes it one spec's run: it puts in that spec's banner,
    fault time and remaining inputs, and the engine orders those as if they
    had been scheduled at the build (``netsim``). So a branch's log is the
    spec's log run alone, byte for byte. A trunk branches once in a
    process; forking it branches it again.
    """

    def __init__(self, specs: list[ScenarioSpec]) -> None:
        inputs = [_inputs(spec) for spec in specs]
        shared = 0
        for column in zip(*inputs):
            if column.count(column[0]) < len(column):
                break
            shared += 1
        faults = {spec.fault_at_us for spec in specs}
        ends = [spec.duration_us for spec in specs]
        ends += [at for other in inputs for at, _what in other[shared:]]
        if len(faults) > 1:
            ends += [at for at in faults if at is not None]
        self.diverge_us = min(ends)
        self._shared = shared
        self._failure: Exception | None = None

        spec = specs[0]
        self.net = net = build_topology(spec.topology())
        net.log_event("ControlMsg", sub.IDS, None, None, note=_banner(spec))
        SwitchNode(net, sub.PROCESS_BUS, sub.process_bus_flow_table(), spec.delays.t_sp)
        SwitchNode(net, sub.STATION_BUS, sub.station_bus_flow_table(), spec.delays.t_ss)
        if spec.with_ids:
            IdsNode(
                net,
                sub.ids_flow_table(with_ids=True),
                processing_delay=spec.delays.t_ids,
                decision_window_us=spec.decision_window_us,
                heartbeat_us=spec.publish_interval_us,
            )
        else:
            SwitchNode(net, sub.IDS, sub.ids_flow_table(with_ids=False), 0)
        self._mu = MuDevice(
            net,
            samples_per_second=spec.samples_per_second,
            t_mu=spec.delays.t_mu,
            fault_at_us=faults.pop() if len(faults) == 1 else None,
        )
        PiedDevice(net, publish_interval_us=spec.publish_interval_us, t_pied=spec.delays.t_pied)
        OmicronDevice(net, spec.delays.t_oc)
        _schedule(net, inputs[0][:shared])

    def run(self) -> None:
        """Run up to the microsecond before the specs diverge; an error that
        stops it is kept for each branch to report as its own."""
        try:
            self.net.run_until(self.diverge_us - 1)
        except (TopologyError, CodecError) as exc:
            self._failure = exc

    def branch(self, spec: ScenarioSpec) -> ScenarioResult:
        """Continue the trunk as ``spec``'s run to its end, and score it."""
        net = self.net
        try:
            if self._failure is not None:
                raise self._failure
            net.log[0] = net.log[0]._replace(note=_banner(spec))
            self._mu.fault_at_us = spec.fault_at_us
            _schedule(net, _inputs(spec)[self._shared:])
            net.run_until(spec.duration_us)
        except (TopologyError, CodecError) as exc:
            # what the load-time build cannot see: a forward to an unlinked
            # port, or a delay so large that a frame's timestamp leaves its field
            raise ScenarioError(f"scenario {spec.id} cannot run: {exc}") from exc
        net.log_event(
            "ControlMsg", sub.IDS, None, None, note=f"run_complete events={len(net.log) + 1}"
        )
        return score(net.log)


def _build(spec: ScenarioSpec) -> Network:
    """Wire the network, its devices and the injections, ready to run."""
    return Trunk([spec]).net


# ---------------------------------------------------------------------------
# Scoring (pure over the log)
# ---------------------------------------------------------------------------


def check_complete(log: EventLog) -> bool:
    """True iff the log ends in a completion record that counts it."""
    if not log or log[-1].kind != "ControlMsg":
        return False
    try:
        return int(note_fields(log[-1].note, "run_complete")["events"]) == len(log)
    except (KeyError, ValueError):
        return False


def _by_node(ports) -> dict[str, tuple[int, ...]]:
    """``(node, port)`` pairs as sorted port tuples keyed by node."""
    out: dict[str, tuple[int, ...]] = {}
    for node, port in sorted(ports):
        out[node] = out.get(node, ()) + (port,)
    return out


def score(log: EventLog) -> ScenarioResult:
    """Re-derive the scenario outcome purely from an event log.

    The log's ground truth picks the checks: a log with injected frames is
    scored as an attack by the device where the first of them entered, any
    other log as a fault-only run. The banner's scenario id is reported,
    never consulted.
    """
    if not log or log[0].kind != "ControlMsg":
        raise ScenarioError("log carries no run banner")
    try:
        banner = note_fields(log[0].note, "run")
        scenario = banner["scenario"]
        with_ids = banner["with_ids"] == "1"
        expected_total_us = int(banner["expected_total_us"])
        settle_us = int(banner["settle_us"])
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"malformed run banner {log[0].note!r}: {exc!r}") from exc
    reasons: list[str] = []

    alert_times: dict[str, list[int]] = {}
    injected: list[SimEvent] = []
    disabled: dict[tuple[str, int], int] = {}  # each disabled port, and when
    trips = 0
    culprit, evidence_ports = None, ()
    for ev in log:
        if ev.kind == "AlertRaised":
            alert_times.setdefault(ev.digest, []).append(ev.time)
        elif ev.kind == "PortStateChange":
            if ev.note != "disabled" or ev.port is None:
                raise ScenarioError(
                    f"port state change {ev.note!r} at {ev.node} port {ev.port}: "
                    "a numbered port is only ever disabled"
                )
            disabled[(ev.node, ev.port)] = ev.time
        elif ev.kind == "BreakerTrip":
            trips += 1
        elif ev.kind == "VerdictReached" and culprit is None:
            try:
                verdict = note_fields(ev.note)
                culprit = verdict["culprit"]
                evidence_ports = tuple(int(p) for p in verdict.get("ports", "").split(",") if p)
            except (KeyError, ValueError) as exc:
                raise ScenarioError(f"malformed verdict record {ev.note!r}: {exc!r}") from exc
        if ev.note == "injected":
            injected.append(ev)
    alerts = sum(map(len, alert_times.values()))
    injected_alerted = sum(
        any(inj.time <= t <= inj.time + RECALL_WINDOW_US for t in alert_times.get(inj.digest, ()))
        for inj in injected
    )
    enabled_ids = tuple(p for p in sub.IDS_PORTS if (sub.IDS, p) not in disabled)
    disabled_ports = _by_node(disabled)
    cutoff = max(disabled.values()) + settle_us if disabled else None
    delay_report = measure(log)

    trace_ok: bool | None = None
    if injected:
        trace_ok = verify_forwarding_trace(log, sub.MONITOR_LOOP)
        host = _CULPRIT_AT.get(injected[0].node)
        if host is None:
            reasons.append(f"injection at {injected[0].node!r}, which is no candidate culprit")
        else:
            _score_attack(
                log, reasons, host, injected, injected_alerted, culprit, evidence_ports,
                disabled_ports, set(alert_times), cutoff, trace_ok,
            )
    else:
        _score_baseline(reasons, alerts, trips, delay_report, expected_total_us, with_ids)

    return ScenarioResult(
        scenario=scenario,
        passed=not reasons,
        reasons=tuple(reasons),
        verdict_culprit=culprit,
        verdict_evidence_ports=evidence_ports,
        alerts=alerts,
        injected=len(injected),
        injected_alerted=injected_alerted,
        enabled_ids_ports=enabled_ids,
        disabled_ports=disabled_ports,
        breaker_trips=trips,
        trace_ok=trace_ok,
        delay=delay_report,
        log=log,
    )


def _score_baseline(reasons, alerts, trips, delay_report, expected_total_us, with_ids) -> None:
    if alerts:
        reasons.append(f"{alerts} alerts on legal-only traffic")
    if trips != 1:
        reasons.append(f"expected exactly one breaker trip, saw {trips}")
    if delay_report is None:
        reasons.append("no measurable fault-to-trip chain")
        return
    if delay_report.total_us != expected_total_us:
        reasons.append(
            f"trip latency {delay_report.total_us}us != configured {expected_total_us}us"
        )
    checks = delay_report.checks
    if with_ids:
        if not checks["with_ids_leq_27ms"]:
            reasons.append(f"with-module latency {delay_report.total_us}us above cap")
        if not checks["ids_added_leq_4ms"]:
            reasons.append("inspection delay above 4ms cap")
        if not checks["ids_added_leq_quarter_cycle"]:
            reasons.append("inspection delay above a quarter cycle at 60Hz")
    elif delay_report.total_us != BASELINE_TOTAL_US:
        reasons.append(f"baseline latency {delay_report.total_us}us != 23ms")


def _score_attack(
    log, reasons, host, injected, injected_alerted, culprit, evidence_ports,
    disabled_ports, alerted_digests, cutoff, trace_ok,
) -> None:
    if injected_alerted != len(injected):
        reasons.append(f"only {injected_alerted}/{len(injected)} injected frames alerted")
    if culprit != host.value:
        reasons.append(f"verdict {culprit!r}, expected {host.value!r}")
    if not set(_EVIDENCE_PORTS[host]) <= set(evidence_ports):
        reasons.append(f"evidence ports {evidence_ports} miss {_EVIDENCE_PORTS[host]}")
    planned = _by_node(mitigate(host))
    if disabled_ports != planned:
        reasons.append(f"disabled ports {disabled_ports} != planned {planned}")
    if cutoff is None:
        reasons.append("no mitigation in the log")
        return
    late = [ev for ev in log if ev.kind == "FrameArrival" and ev.time > cutoff]
    at_breaker = [ev for ev in late if ev.node == sub.OMICRON]
    abnormal = sum(ev.digest in alerted_digests for ev in at_breaker)
    if abnormal:
        reasons.append(f"{abnormal} abnormal frames reached the breaker after mitigation")
    if host is Origin.STATION_BUS_SWITCH and abnormal == len(at_breaker):
        reasons.append("no legitimate delivery to the breaker after mitigation")
    if host is Origin.PIED:
        to_relay = sum(ev.node == sub.PIED for ev in late)
        from_relay = sum(
            (ev.node, ev.port) in ((sub.STATION_BUS, sub.SBS_PIED), (sub.IDS, sub.IDS_PIED_FEED))
            for ev in late
        )
        if to_relay or from_relay:
            reasons.append(
                f"relay not isolated: {to_relay} arrivals at it, "
                f"{from_relay} first-hop arrivals from it after mitigation"
            )
        if not any((ev.node, ev.port) == (sub.IDS, sub.IDS_SV_TAP) for ev in late):
            reasons.append("healthy-device traffic no longer delivered after mitigation")
    if not trace_ok:
        reasons.append("forwarding trace does not match the expected hop sequence")


# ---------------------------------------------------------------------------
# Forwarding-trace verification
# ---------------------------------------------------------------------------


def verify_forwarding_trace(log: EventLog, expected: tuple[tuple[str, int, str], ...]) -> bool:
    """True iff the log contains the hop sequence, in order, for the first
    injected frame, from its injection on."""
    start = next((i for i, ev in enumerate(log) if ev.note == "injected"), None)
    if start is None:
        return False
    return walk_hops(islice(log, start, None), log[start].digest, expected) is not None
