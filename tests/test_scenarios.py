"""Case-study fixtures: outcomes, traces, determinism, re-scoring purity."""

from __future__ import annotations

import hashlib
import operator
import re
import tracemalloc
from pathlib import Path

import pytest

from gridshield import substation as sub
from gridshield.cli import _write_outputs
from gridshield.delay import COMPONENT_NAMES
from gridshield.ids import Origin, mitigate
from gridshield.netsim import EventLog
from gridshield.scenarios import (
    _OVERRIDE_KEYS,
    _SCHEMA,
    ScenarioError,
    load_scenario,
    run_scenario,
    score,
    verify_forwarding_trace,
)


@pytest.fixture(scope="module")
def attack1():
    return run_scenario(load_scenario("attack1"))


@pytest.fixture(scope="module")
def attack2():
    return run_scenario(load_scenario("attack2"))


@pytest.fixture(scope="module")
def baseline():
    return run_scenario(load_scenario("baseline"))


class TestAttack1:
    def test_passes(self, attack1):
        assert attack1.passed, attack1.reasons

    def test_verdict_names_the_switch_with_both_feeds(self, attack1):
        assert attack1.verdict_culprit == "StationBusSwitch"
        assert {sub.IDS_MAIN_FEED, sub.IDS_LOOP_RETURN} <= set(attack1.verdict_evidence_ports)

    def test_every_injected_frame_alerted(self, attack1):
        assert attack1.injected == 5
        assert attack1.injected_alerted == 5
        assert attack1.recall == 1.0

    def test_only_delivery_and_relay_feed_stay_enabled(self, attack1):
        assert set(attack1.enabled_ids_ports) == {5, 6}

    def test_no_abnormal_reaches_breaker_after_mitigation(self, attack1):
        alerted = {ev.digest for ev in attack1.log if ev.kind == "AlertRaised"}
        cutoff = max(
            ev.time for ev in attack1.log if ev.kind == "PortStateChange"
        )
        late = [
            ev
            for ev in attack1.log
            if ev.kind == "FrameArrival"
            and ev.node == sub.OMICRON
            and ev.digest in alerted
            and ev.time > cutoff + 2_000
        ]
        assert not late

    def test_normal_operation_resumes_via_direct_feed(self, attack1):
        cutoff = max(ev.time for ev in attack1.log if ev.kind == "PortStateChange")
        alerted = {ev.digest for ev in attack1.log if ev.kind == "AlertRaised"}
        clean = [
            ev
            for ev in attack1.log
            if ev.kind == "FrameArrival"
            and ev.node == sub.OMICRON
            and ev.time > cutoff
            and ev.digest not in alerted
        ]
        assert clean

    def test_forwarding_trace(self, attack1):
        assert verify_forwarding_trace(attack1.log, sub.MONITOR_LOOP)

    def test_permuted_trace_rejected(self):
        # one injection only, so hops cannot be borrowed across instances
        spec = load_scenario("attack1")._replace(injection_times_us=(2_300_000,))
        result = run_scenario(spec)
        assert verify_forwarding_trace(result.log, sub.MONITOR_LOOP)
        permuted = (sub.MONITOR_LOOP[1], sub.MONITOR_LOOP[0]) + sub.MONITOR_LOOP[2:]
        assert not verify_forwarding_trace(result.log, permuted)


class TestAttack2:
    def test_passes(self, attack2):
        assert attack2.passed, attack2.reasons

    def test_verdict_names_the_relay_from_the_main_feed(self, attack2):
        assert attack2.verdict_culprit == "PIED"
        assert sub.IDS_MAIN_FEED in attack2.verdict_evidence_ports

    def test_switch_ports_facing_relay_disabled(self, attack2):
        assert attack2.disabled_ports == {
            sub.PROCESS_BUS: (sub.PBS_PIED,),
            sub.STATION_BUS: (sub.SBS_PIED,),
        }

    def test_relay_fully_isolated_after_mitigation(self, attack2):
        cutoff = max(ev.time for ev in attack2.log if ev.kind == "PortStateChange") + 2_000
        touching = [
            ev
            for ev in attack2.log
            if ev.kind == "FrameArrival"
            and ev.time > cutoff
            and (
                ev.node == sub.PIED
                or (ev.node == sub.STATION_BUS and ev.port == sub.SBS_PIED)
                or (ev.node == sub.IDS and ev.port == sub.IDS_PIED_FEED)
            )
        ]
        assert not touching

    def test_healthy_traffic_still_flows(self, attack2):
        cutoff = max(ev.time for ev in attack2.log if ev.kind == "PortStateChange")
        taps = [
            ev
            for ev in attack2.log
            if ev.kind == "FrameArrival"
            and (ev.node, ev.port) == (sub.IDS, sub.IDS_SV_TAP)
            and ev.time > cutoff
        ]
        assert taps

    def test_every_injected_frame_alerted(self, attack2):
        assert attack2.injected == 5 and attack2.injected_alerted == 5

    def test_forwarding_trace(self, attack2):
        assert verify_forwarding_trace(attack2.log, sub.MONITOR_LOOP)


class TestOracle:
    """The checks follow the log's injection, not the scenario's name."""

    @pytest.mark.parametrize(
        ("config", "name", "culprit"),
        [("attack2", "attack1", "PIED"), ("attack1", "attack2", "StationBusSwitch")],
    )
    def test_a_renamed_attack_is_scored_by_its_injection(self, tmp_path, config, name, culprit):
        from gridshield.scenarios import _builtin_config_text

        path = tmp_path / "renamed.yaml"
        path.write_text(
            _builtin_config_text(config).replace(f"scenario: {config}", f"scenario: {name}")
        )
        result = run_scenario(load_scenario(str(path)))
        assert result.scenario == name
        assert result.passed, result.reasons
        assert result.verdict_culprit == culprit

    @staticmethod
    def _edited(log, drop=lambda ev: False, replace=lambda ev: ev, extra=()):
        kept = [replace(ev) for ev in log if not drop(ev)]
        return score(EventLog(kept[:-1] + list(extra) + kept[-1:]))

    def test_dropped_port_state_changes_leave_no_mitigation(self, attack1):
        result = self._edited(attack1.log, drop=lambda ev: ev.kind == "PortStateChange")
        assert "no mitigation in the log" in result.reasons
        assert any(r.startswith("disabled ports {} != planned") for r in result.reasons)

    def test_an_extra_disabled_port_is_not_the_plan(self, attack1):
        extra = attack1.log[-1]._replace(
            kind="PortStateChange", node=sub.PROCESS_BUS, port=3, note="disabled"
        )
        result = self._edited(attack1.log, extra=[extra])
        assert [r for r in result.reasons if r.startswith("disabled ports ")] == [
            f"disabled ports {{'ids': (1, 2, 3, 4, 7, 8), 'process_bus_switch': (3,)}} "
            f"!= planned {{'ids': (1, 2, 3, 4, 7, 8)}}"
        ]

    def test_a_verdict_on_the_other_device_is_wrong(self, attack1):
        result = self._edited(
            attack1.log,
            replace=lambda ev: ev._replace(note=ev.note.replace("StationBusSwitch", "PIED"))
            if ev.kind == "VerdictReached"
            else ev,
        )
        assert "verdict 'PIED', expected 'StationBusSwitch'" in result.reasons

    @pytest.mark.parametrize("hop", range(len(sub.MONITOR_LOOP)))
    def test_a_missing_monitor_loop_hop_breaks_the_trace(self, attack1, hop):
        digest = next(ev for ev in attack1.log if ev.note == "injected").digest
        node, port, direction = sub.MONITOR_LOOP[hop]
        kind = "FrameArrival" if direction == "in" else "FrameDeparture"
        result = self._edited(
            attack1.log,
            drop=lambda ev: (ev.kind, ev.node, ev.port, ev.digest) == (kind, node, port, digest),
        )
        assert result.trace_ok is False
        assert "forwarding trace does not match the expected hop sequence" in result.reasons

    def test_an_injection_elsewhere_names_no_culprit(self, attack1):
        result = self._edited(
            attack1.log,
            replace=lambda ev: ev._replace(node=sub.MU) if ev.note == "injected" else ev,
        )
        assert not result.passed
        assert result.reasons[0] == "injection at 'mu', which is no candidate culprit"


class TestBaseline:
    def test_passes(self, baseline):
        assert baseline.passed, baseline.reasons

    def test_silent_and_trips_once(self, baseline):
        assert baseline.alerts == 0
        assert baseline.breaker_trips == 1

    def test_delay_total_matches_budget(self, baseline):
        assert baseline.delay is not None
        assert baseline.delay.total_us == 23_000


class TestDeterminismAndPurity:
    @pytest.mark.parametrize("sid", ["baseline", "attack1", "attack2"])
    def test_two_runs_byte_identical_logs(self, sid):
        a = run_scenario(load_scenario(sid)).log.to_jsonl()
        b = run_scenario(load_scenario(sid)).log.to_jsonl()
        assert a == b

    def test_rescoring_a_saved_log_reproduces_the_result(self, attack2):
        saved = EventLog.from_jsonl(attack2.log.to_jsonl().encode())
        again = score(saved)
        assert again.to_json() == attack2.to_json()

    def test_scoring_twice_is_stable(self, attack1):
        assert score(attack1.log).to_json() == score(attack1.log).to_json()


# sha256 of each shipped fixture's events.jsonl. A change that alters a log
# on purpose updates these values and says why in CHANGES.md.
GOLDEN_LOG_SHA256 = {
    "baseline": "19dcdb99a2843163283256242465fd38ca5fb8ba5bd2693db8995314c1a29722",
    "attack1": "7ef0c86228fc2c5102edcbcd7bc74b4eba0e2595ce11d1424f7ebff105d53426",
    "attack2": "7266c470ae3bc48f4d6fb580b19e361351ec20a3026bf2cc2e108d1fe151d164",
}


@pytest.mark.parametrize("sid", sorted(GOLDEN_LOG_SHA256))
def test_fixture_log_matches_golden_digest(sid, request):
    text = request.getfixturevalue(sid).log.to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_LOG_SHA256[sid]


# The attack fixtures at the goose_storm rate: the relay publishes every
# 2 ms, so the inspector sees thousands of frames against a fixture's few
# dozen, and inspects each publication once however many copies reach it.
# Both runs PASS with the fixtures' alerts (15 and 10, all on injected
# frames). sha256 of each events.jsonl (31,423 and 30,522 events).
STORM_RATE = {"publish_interval_ms": 2, "samples_per_second": 100}
GOLDEN_STORM_RATE_LOG_SHA256 = {
    "attack1": "db16e485402a0f1b1906bd37fb1d0996e834ebd05729d9e0ebb90cf524689ff1",
    "attack2": "354b9b90f55d7829e9be67df0958deb7467502bb16a43ad5a00acb36b7bf51d3",
}


@pytest.mark.parametrize("sid", sorted(GOLDEN_STORM_RATE_LOG_SHA256))
def test_storm_rate_log_matches_golden_digest(sid):
    text = run_scenario(load_scenario(sid, STORM_RATE)).log.to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_STORM_RATE_LOG_SHA256[sid]


EXPECTED_CULPRIT = {"baseline": None, "attack1": "StationBusSwitch", "attack2": "PIED"}


def assert_detected(sid, overrides):
    """``sid``, a scenario id or config path, PASSes, names its culprit and
    alerts on nothing but injected frames; return its result."""
    result = run_scenario(load_scenario(sid, overrides))
    injected = {ev.digest for ev in result.log if ev.note == "injected"}
    false_alerts = [
        ev for ev in result.log if ev.kind == "AlertRaised" and ev.digest not in injected
    ]
    assert result.passed, result.reasons
    assert false_alerts == []
    assert result.verdict_culprit == EXPECTED_CULPRIT[result.scenario]
    return result


@pytest.mark.parametrize("sid", sorted(EXPECTED_CULPRIT))
@pytest.mark.parametrize("interval_ms", [2, 10, 50, 1000])
def test_detection_holds_at_every_publish_interval(sid, interval_ms):
    """The shipped scenarios, whatever the relay's heartbeat."""
    assert_detected(sid, {"publish_interval_ms": interval_ms, "samples_per_second": 100})


@pytest.mark.parametrize("sid", ["attack1", "attack2"])
@pytest.mark.parametrize("overrides", [
    {"t_ids": 9, "publish_interval_ms": 2, "samples_per_second": 100},
    {"t_ss": 6, "publish_interval_ms": 3, "samples_per_second": 100},
    {"t_ss": 9, "publish_interval_ms": 2, "samples_per_second": 100},
], ids=["t_ids=9", "t_ss=6", "t_ss=9"])
def test_detection_holds_when_echoes_return_after_the_inspection_window(sid, overrides):
    """A slower inspector or switch brings each echo back more than
    LOOP_WINDOW_US after its publication was inspected; it is still a
    copy, not a new arrival to count towards the rate rule. At t_ss=9 the
    loop's round trip equals the echo window, the longest a config may set."""
    assert_detected(sid, overrides)


@pytest.mark.parametrize("sid", ["attack1", "attack2"])
@pytest.mark.parametrize("key, value", [
    ("src_mac", "00:30:A7:00:00:99"),
    ("gocb_ref", "EVIL/LLN0$GO$gcb1"),
], ids=["src_mac", "gocb_ref"])
@pytest.mark.parametrize("overrides", [
    {},
    {"publish_interval_ms": 2, "samples_per_second": 100},
], ids=["1000ms", "2ms"])
def test_a_spoofed_identity_does_not_move_the_verdict(tmp_path, sid, key, value, overrides):
    """The injected frames claim another publisher: they break the
    whitelist rule, but where they were seen names the culprit. The relay
    is still convicted from the main feed, and the switch from its
    loop-return sightings."""
    import yaml

    from gridshield.scenarios import _builtin_config_text, _by_node

    tree = yaml.safe_load(_builtin_config_text(sid))
    tree["injection"]["template"][key] = value
    path = tmp_path / "spoofed.yaml"
    path.write_text(yaml.safe_dump(tree))
    result = assert_detected(str(path), overrides)
    assert any(
        ev.kind == "AlertRaised" and "rule=publisher_whitelist" in ev.note for ev in result.log
    )
    assert result.disabled_ports == _by_node(mitigate(Origin(EXPECTED_CULPRIT[sid])))


class TestLogMemory:
    """The log I/O holds a bounded piece of the log's text, not the whole
    file, and a parsed log one object per distinct string."""

    def test_writing_the_outputs_holds_one_chunk_of_text(self, attack2, tmp_path):
        tracemalloc.start()
        try:
            _write_outputs(attack2, attack2.log, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = (tmp_path / "events.jsonl").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_LOG_SHA256["attack2"]
        assert len(data) > 4_000_000 and peak < 4 * 2**20

    def test_a_parsed_log_keeps_one_copy_of_each_string(self, attack1):
        log = EventLog.from_jsonl(attack1.log.to_jsonl().encode())
        for field in ("kind", "node", "digest", "note"):
            values = [getattr(ev, field) for ev in log]
            assert len({id(v) for v in values}) == len(set(values)), field
        assert len({ev.digest for ev in log}) < len(log) / 10


# override name -> (a value for it, the spec field it sets, what it sets it to)
OVERRIDE_FIELDS = {
    "with_ids": (True, "with_ids", True),
    "duration_ms": (60, "duration_us", 60_000),
    "decision_window_ms": (7, "decision_window_us", 7_000),
    **{name: (5, f"delays.{name}", 5_000) for name in COMPONENT_NAMES},
    "samples_per_second": (500, "samples_per_second", 500),
    "publish_interval_ms": (250, "publish_interval_us", 250_000),
    "toggle_point_at_ms": (1_500, "toggle_point_at_us", 1_500_000),
    "silence_at_ms": (3_500, "silence_at_us", 3_500_000),
    "fault_at_ms": (1_200, "fault_at_us", 1_200_000),
}


class TestLoading:
    def test_unknown_scenario(self):
        with pytest.raises(ScenarioError):
            load_scenario("attack9")

    def test_unknown_override(self):
        with pytest.raises(ScenarioError):
            load_scenario("baseline", {"warp_factor": 9})

    def test_override_names_are_the_leaf_keys(self):
        assert set(_OVERRIDE_KEYS) == set(OVERRIDE_FIELDS)
        assert len(OVERRIDE_FIELDS) == 16

    @pytest.mark.parametrize("key", sorted(OVERRIDE_FIELDS))
    def test_override_lands_on_the_spec_field_it_names(self, key):
        value, field_name, want = OVERRIDE_FIELDS[key]
        base = load_scenario("baseline")
        assert operator.attrgetter(field_name)(base) != want
        if field_name.startswith("delays."):
            delays = base.delays._replace(**{key: want})
            expected = base._replace(delays=delays)
        else:
            expected = base._replace(**{field_name: want})
        assert load_scenario("baseline", {key: value}) == expected

    def test_override_changes_the_spec(self):
        spec = load_scenario("baseline", {"t_ids": 0, "with_ids": True})
        assert spec.delays.t_ids == 0 and spec.with_ids

    def test_scenarios_share_one_topology(self):
        topos = [load_scenario(sid).topology() for sid in ("baseline", "attack1", "attack2")]
        assert topos[0] == topos[1] == topos[2]

    def test_default_topology_has_the_six_roles(self):
        spec = load_scenario("baseline")
        assert set(spec.topology().nodes) == set(sub.ALL_NODES)
        assert spec.topology().nodes[sub.IDS] == 8

    def test_yaml_path_loading(self, tmp_path):
        from gridshield.scenarios import _builtin_config_text

        path = tmp_path / "custom.yaml"
        path.write_text(_builtin_config_text("attack1"))
        spec = load_scenario(str(path))
        assert spec.id == "attack1"

    def test_null_section_takes_its_defaults(self, tmp_path):
        from gridshield.scenarios import _builtin_config_text

        text = _builtin_config_text("attack1").replace("mu:\n  samples_per_second: 1000\n", "mu:\n")
        path = tmp_path / "null_mu.yaml"
        path.write_text(text)
        assert load_scenario(str(path)) == load_scenario("attack1")


def documented_config_section() -> str:
    """The "Scenario config" section of docs/SCHEMAS.md."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "SCHEMAS.md").read_text()
    return text.split("## Scenario config (YAML)\n", 1)[1].split("\n## ", 1)[0]


class TestDocumentedConfig:
    def test_the_example_loads_and_passes(self, tmp_path):
        block = documented_config_section().split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "documented.yaml"
        path.write_text(block)
        result = run_scenario(load_scenario(str(path)))
        assert result.passed, result.reasons

    def test_every_key_is_documented(self):
        words = set(re.findall(r"\w+", documented_config_section()))
        assert [path for path in _SCHEMA if not set(path) <= words] == []
