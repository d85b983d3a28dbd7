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
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import islice
from pathlib import Path

from gridshield import substation as sub
from gridshield.codec import CodecError, MacAddress
from gridshield.delay import (
    BASELINE_TOTAL_US,
    COMPONENT_NAMES,
    MS,
    DelayComponents,
    DelayReport,
    IncompleteTrace,
    NoTripFound,
    measure,
    total,
    walk_hops,
)
from gridshield.devices import InjectionPlan, MuDevice, OmicronDevice, PiedDevice, inject
from gridshield.ids import IdsNode, Origin, mitigate
from gridshield.netsim import (
    EventLog,
    Network,
    PortRef,
    SimEvent,
    TopologyError,
    TopologySpec,
    build_topology,
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
                "delay": json.loads(self.delay.to_json()) if self.delay else None,
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
    """Load a shipped fixture by id, or any scenario YAML by path."""
    if name_or_path in SCENARIO_IDS:
        text = _builtin_config_text(name_or_path)
    else:
        path = Path(name_or_path)
        if not path.is_file():
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
    if overrides:
        tree = _apply_overrides(tree, overrides)
    return _spec_from_tree(tree)


def _apply_overrides(tree: dict, overrides: dict) -> dict:
    for key, value in overrides.items():
        path = _OVERRIDE_KEYS.get(key)
        if path is None:
            raise ScenarioError(f"unknown override {key!r}")
        node = tree
        try:
            for part in path[:-1]:
                node = node.setdefault(part, {})
            node[path[-1]] = value
        except (AttributeError, TypeError) as exc:
            raise ScenarioError(f"bad scenario config: cannot override {key!r}: {exc}") from exc
    return tree


def _ms(value, where: str) -> int:
    """Milliseconds as whole microseconds. ``value`` is the config's number
    at path ``where``: a bool or a string is none, and no config time is
    negative."""
    if type(value) not in (int, float):
        raise ValueError(f"{where} must be a number of milliseconds, not {value!r}")
    us = int(round(float(value) * MS))
    if us < 0:
        raise ValueError(f"{value!r} ms is negative")
    return us


# The keys of a scenario config and of each of its sections
# (docs/SCHEMAS.md); any other key is an error, not a silently ignored
# section or a setting that silently takes its default.
_CONFIG_KEYS = frozenset({
    "scenario", "duration_ms", "with_ids", "delays_ms", "decision_window_ms", "mu", "pied",
    "waveform", "injection",
})
_SECTION_KEYS = {
    "delays_ms": frozenset(COMPONENT_NAMES),
    "mu": frozenset({"samples_per_second"}),
    "pied": frozenset({"publish_interval_ms", "toggle_point_at_ms", "silence_at_ms"}),
    "waveform": frozenset({"fault_at_ms"}),
    "injection": frozenset({"node", "port", "mode", "template", "times_ms"}),
    "template": frozenset({"src_mac", "gocb_ref", "st_num", "sq_num", "timestamp_ms", "trip"}),
}

# ``--override`` names: the top-level scalars and every key of the sections
# that hold one setting per key, each with its path in the config.
_OVERRIDE_KEYS = {
    **{key: (key,) for key in ("with_ids", "duration_ms", "decision_window_ms")},
    **{
        key: (section, key)
        for section in ("delays_ms", "mu", "pied", "waveform")
        for key in sorted(_SECTION_KEYS[section])
    },
}


class _Keys(dict):
    """A checked config mapping that names a missing required key by its
    path in the config; ``prefix`` is the mapping's own path and a dot."""

    def __init__(self, tree: dict, prefix: str):
        super().__init__(tree)
        self.prefix = prefix

    def __missing__(self, key):
        raise ScenarioError(f"bad scenario config: missing key {self.prefix}{key}")


def _checked(tree, path: str, allowed: frozenset) -> _Keys:
    """``tree`` if it is a mapping holding only ``allowed`` keys; ``path``
    is where it sits in the config, empty for the config itself."""
    where = path or "the config"
    if not isinstance(tree, dict):
        raise ScenarioError(f"bad scenario config: {where} is not a mapping of keys")
    unknown = sorted(set(tree) - allowed, key=str)
    if unknown:
        raise ScenarioError(f"unknown config keys {unknown} in {where}")
    return _Keys(tree, f"{path}." if path else "")


def _section(tree: _Keys, key: str) -> _Keys:
    """The checked section ``key`` of ``tree``; an absent or null one is empty."""
    section = tree.get(key)
    return _checked({} if section is None else section, tree.prefix + key, _SECTION_KEYS[key])


def _optional_ms(value, where: str) -> int | None:
    return None if value is None else _ms(value, where)


def _exact(kind: type, tree: _Keys, key: str, default=None):
    """``tree[key]``, or ``default`` when the key is absent and there is
    one, if its type is exactly ``kind``: a bool is no whole number, and
    neither a string nor a number is a bool."""
    value = tree[key] if default is None else tree.get(key, default)
    if type(value) is not kind:
        what = "true or false" if kind is bool else "a whole number"
        raise ValueError(f"{tree.prefix}{key} must be {what}, not {value!r}")
    return value


def _spec_from_tree(tree) -> ScenarioSpec:
    try:
        tree = _checked(tree, "", _CONFIG_KEYS)
        sid = tree["scenario"]
        if sid not in SCENARIO_IDS:
            raise ScenarioError(f"unknown scenario id {sid!r}")
        delays_ms = _section(tree, "delays_ms")
        mu = _section(tree, "mu")
        pied = _section(tree, "pied")
        waveform = _section(tree, "waveform")
        spec = ScenarioSpec(
            id=sid,
            duration_us=_ms(tree["duration_ms"], "duration_ms"),
            with_ids=_exact(bool, tree, "with_ids"),
            delays=DelayComponents(**{
                name: _ms(delays_ms[name], f"delays_ms.{name}") for name in COMPONENT_NAMES
            }),
            decision_window_us=_ms(tree.get("decision_window_ms", 15), "decision_window_ms"),
            samples_per_second=_exact(int, mu, "samples_per_second", 1000),
            publish_interval_us=_ms(
                pied.get("publish_interval_ms", 1000), "pied.publish_interval_ms"
            ),
            toggle_point_at_us=_optional_ms(
                pied.get("toggle_point_at_ms"), "pied.toggle_point_at_ms"
            ),
            silence_at_us=_optional_ms(pied.get("silence_at_ms"), "pied.silence_at_ms"),
            fault_at_us=_optional_ms(waveform.get("fault_at_ms"), "waveform.fault_at_ms"),
            injection=_injection_from_tree(_section(tree, "injection")),
        )
        if spec.duration_us <= 0:
            raise ValueError("duration_ms must be positive")
        # a zero interval would republish at the same instant forever
        if spec.publish_interval_us <= 0:
            raise ValueError("publish interval must be positive")
        if spec.samples_per_second <= 0 or 1_000_000 % spec.samples_per_second:
            raise ValueError("samples_per_second must be positive and divide 1e6 for exact ticks")
        ticks = (
            spec.duration_us * spec.samples_per_second // 1_000_000
            + spec.duration_us // spec.publish_interval_us
        )
        if ticks > MAX_SCHEDULED_TICKS:
            raise ValueError(
                f"the run schedules about {ticks} sample and publication ticks, "
                f"above the cap of {MAX_SCHEDULED_TICKS}"
            )
        # wiring, ports and schedules fail here, before anything runs or is written
        _build(spec)
        return spec
    except (KeyError, TypeError, ValueError, OverflowError, TopologyError, CodecError) as exc:
        raise ScenarioError(f"bad scenario config: {exc}") from exc


def _injection_from_tree(tree: dict) -> InjectionPlan | None:
    if not tree:
        return None
    template_tree = _section(tree, "template")
    src = template_tree.get("src_mac")
    gocb_ref = template_tree.get("gocb_ref", sub.GOCB_REF)
    if not isinstance(gocb_ref, str) or not isinstance(src, (str, type(None))):
        raise ValueError("the template's src_mac and gocb_ref must be strings")
    template = replace(
        sub.RELAY_PUBLICATION,
        src=sub.PIED_MAC if src is None else MacAddress.parse(src),
        gocb_ref=gocb_ref,
        st_num=_exact(int, template_tree, "st_num"),
        sq_num=_exact(int, template_tree, "sq_num"),
        timestamp=_ms(template_tree.get("timestamp_ms", 0), "injection.template.timestamp_ms"),
        all_data=(_exact(bool, template_tree, "trip", False), False),
    )
    node = tree["node"]
    if node not in _CULPRIT_AT:
        raise ScenarioError(f"injection node {node!r} is not the station-bus switch or the relay")
    times = tree["times_ms"]
    if type(times) is not list:
        raise ValueError(f"injection.times_ms must be a list of times, not {times!r}")
    times_us = tuple(_ms(t, "injection.times_ms") for t in times)
    if not times_us:
        raise ValueError("injection.times_ms names no injection time")
    return InjectionPlan(
        port=PortRef(node, _exact(int, tree, "port")),
        mode=tree["mode"],
        template=template,
        times_us=times_us,
    )


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Build the network, run the traffic, and score the log."""
    net = _build(spec)
    try:
        net.run_until(spec.duration_us)
    except (TopologyError, CodecError) as exc:
        # what the load-time build cannot see: a forward to an unlinked port,
        # or a delay so large that a frame's timestamp leaves its field
        raise ScenarioError(f"scenario {spec.id} cannot run: {exc}") from exc
    net.log_event(
        "ControlMsg", sub.IDS, None, None, note=f"run_complete events={len(net.log) + 1}"
    )
    return score(net.log)


def _build(spec: ScenarioSpec) -> Network:
    """Wire the network, its devices and the injections, ready to run."""
    net = build_topology(spec.topology())
    net.log_event(
        "ControlMsg",
        sub.IDS,
        None,
        None,
        note=(
            f"run scenario={spec.id} with_ids={int(spec.with_ids)} "
            f"expected_total_us={spec.expected_total_us()} settle_us={spec.settle_us()}"
        ),
    )

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

    MuDevice(
        net,
        samples_per_second=spec.samples_per_second,
        t_mu=spec.delays.t_mu,
        fault_at_us=spec.fault_at_us,
    )
    PiedDevice(
        net,
        publish_interval_us=spec.publish_interval_us,
        t_pied=spec.delays.t_pied,
        toggle_point_at_us=spec.toggle_point_at_us,
        silence_at_us=spec.silence_at_us,
    )
    OmicronDevice(net, spec.delays.t_oc)
    if spec.injection is not None:
        inject(net, spec.injection)
    return net


# ---------------------------------------------------------------------------
# Scoring (pure over the log)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Banner:
    scenario: str
    with_ids: bool
    expected_total_us: int
    settle_us: int


def _parse_banner(log: EventLog) -> _Banner:
    if not log or log[0].kind != "ControlMsg" or not (log[0].note or "").startswith("run "):
        raise ScenarioError("log carries no run banner")
    try:
        fields = dict(part.split("=", 1) for part in log[0].note.split()[1:])
        return _Banner(
            scenario=fields["scenario"],
            with_ids=fields["with_ids"] == "1",
            expected_total_us=int(fields["expected_total_us"]),
            settle_us=int(fields["settle_us"]),
        )
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"malformed run banner {log[0].note!r}: {exc!r}") from exc


def check_complete(log: EventLog) -> bool:
    if not log:
        return False
    last = log[-1]
    if last.kind != "ControlMsg" or not (last.note or "").startswith("run_complete"):
        return False
    _, _, declared = last.note.partition("events=")
    try:
        return int(declared) == len(log)
    except ValueError:
        return False


def _verdict_from_log(log: EventLog) -> tuple[str | None, tuple[int, ...]]:
    for ev in log:
        if ev.kind == "VerdictReached":
            try:
                fields = dict(part.split("=", 1) for part in (ev.note or "").split())
                ports = tuple(int(p) for p in fields.get("ports", "").split(",") if p)
                return fields["culprit"], ports
            except (KeyError, ValueError) as exc:
                raise ScenarioError(f"malformed verdict record {ev.note!r}: {exc!r}") from exc
    return None, ()


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
    banner = _parse_banner(log)
    reasons: list[str] = []

    alert_times: dict[str, list[int]] = {}
    injected: list[SimEvent] = []
    states: dict[tuple[str, int], bool] = {}
    disabled_at: list[int] = []
    trips = 0
    for ev in log:
        if ev.kind == "AlertRaised":
            alert_times.setdefault(ev.digest, []).append(ev.time)
        elif ev.kind == "PortStateChange":
            states[(ev.node, ev.port)] = ev.note == "enabled"
            if ev.note == "disabled":
                disabled_at.append(ev.time)
        elif ev.kind == "BreakerTrip":
            trips += 1
        if ev.note == "injected":
            injected.append(ev)
    alerts = sum(map(len, alert_times.values()))
    injected_alerted = sum(
        any(inj.time <= t <= inj.time + RECALL_WINDOW_US for t in alert_times.get(inj.digest, ()))
        for inj in injected
    )
    culprit, evidence_ports = _verdict_from_log(log)
    enabled_ids = tuple(p for p in sub.IDS_PORTS if states.get((sub.IDS, p), True))
    disabled_ports = _by_node(ref for ref, enabled in states.items() if not enabled)
    cutoff = max(disabled_at) + banner.settle_us if disabled_at else None

    try:
        delay_report = measure(log)
    except (NoTripFound, IncompleteTrace):
        delay_report = None

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
        _score_baseline(reasons, alerts, trips, delay_report, banner)

    return ScenarioResult(
        scenario=banner.scenario,
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


def _score_baseline(reasons, alerts, trips, delay_report, banner) -> None:
    if alerts:
        reasons.append(f"{alerts} alerts on legal-only traffic")
    if trips != 1:
        reasons.append(f"expected exactly one breaker trip, saw {trips}")
    if delay_report is None:
        reasons.append("no measurable fault-to-trip chain")
        return
    if delay_report.total_us != banner.expected_total_us:
        reasons.append(
            f"trip latency {delay_report.total_us}us != configured "
            f"{banner.expected_total_us}us"
        )
    checks = delay_report.checks
    if not checks["additivity_exact"]:
        reasons.append("component sum does not equal end-to-end latency")
    if banner.with_ids:
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
