"""Exit-code contract, output files, and replay equivalence."""

from __future__ import annotations

import contextlib
import copy
import errno
import io
import itertools
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridshield
from gridshield import cli, netsim
from gridshield import substation as sub
from gridshield.cli import main
from gridshield.netsim import EventLog, SimEvent
from gridshield.scenarios import (
    _OVERRIDE_KEYS,
    _SCHEMA,
    ScenarioError,
    Trunk,
    _ms,
    _times,
    _timestamp,
    load_scenario,
    trunks,
)

SRC = Path(gridshield.__file__).resolve().parents[1]


def run_cli(*argv) -> int:
    return main(list(argv))


def run_cli_process(*argv, **env_vars) -> subprocess.CompletedProcess:
    """Run the CLI as a child process, as a user would, with ``env_vars``
    added to its environment."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **env_vars}
    return subprocess.run(
        [sys.executable, "-m", "gridshield.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def schema_refusals():
    """For every config key, a value of the wrong type (a boolean, or a
    string where a boolean belongs) and, for each time, a negative one;
    then names that are no safe directory component, and the injection's
    numbers that its frame or the wiring cannot hold."""
    for path, (_name, read, _default) in _SCHEMA.items():
        where = ".".join(path)
        try:
            read(True, where)
            wrong = "true"
        except ValueError:
            wrong = True
        yield pytest.param(path, wrong, id=f"{where}={wrong!r}")
        if read in (_ms, _timestamp, _times):
            negative = [2300, -1] if read is _times else -1
            yield pytest.param(path, negative, id=f"{where}={negative!r}")
    for path, value in (
        *((("scenario",), name) for name in ("", "a/b", "..", "Attack1", "a" * 65)),
        (("injection", "port"), 9),
        (("injection", "template", "st_num"), 0),
        (("injection", "template", "sq_num"), 99_999_999_999),
        (("injection", "template", "timestamp_ms"), 1.0e30),
    ):
        yield pytest.param(path, value, id=f"{'.'.join(path)}={value!r}")


def assert_one_line_error(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestRun:
    def test_attack1_passes_and_names_the_switch(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", "attack1", "--out", str(out)) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["verdict"]["culprit"] == "StationBusSwitch"
        assert result["pass"] is True
        assert (out / "events.jsonl").exists()
        assert (out / "delay_report.json").exists()

    def test_baseline_with_zeroed_inspection_reports_23ms(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            "run", "--scenario", "baseline", "--override", "t_ids=0", "--out", str(out)
        )
        assert code == 0
        report = json.loads((out / "delay_report.json").read_text())
        assert report["total_us"] == 23_000

    def test_with_ids_at_zero_inspection_delay_reports_the_module(self, tmp_path):
        """The module's term is 0 here, and the report says the module ran
        because the run banner does."""
        out = tmp_path / "o"
        code = run_cli(
            "run", "--scenario", "baseline", "--override", "with_ids=true",
            "--override", "t_ids=0", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "delay_report.json").read_text())
        assert report["with_ids"] is True and report["components_us"]["t_ids"] == 0
        assert report["checks"]["baseline_is_23ms"] is False
        assert json.loads((out / "result.json").read_text())["delay"] == report

    def test_unknown_scenario_name(self, tmp_path):
        assert run_cli("run", "--scenario", "attack9", "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("names", ["x" * 5_000, "baseline," + "y" * 300 + ".yaml"],
                             ids=["a_name_too_long", "a_list_with_a_path_too_long"])
    def test_a_name_the_system_cannot_look_up_is_named(self, tmp_path, capsys, names):
        """Looking such a name up raises: the scenario cannot be read, which
        is no failure to write the output directory."""
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", names, "--out", str(out)) == 2
        unreadable = names.split(",")[-1]
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read scenario {unreadable!r}: {os.strerror(errno.ENAMETOOLONG)}"
        ]
        assert not out.exists()

    def test_bad_override_is_config_error(self, tmp_path):
        code = run_cli(
            "run", "--scenario", "baseline", "--override", "bogus=1", "--out", str(tmp_path / "o")
        )
        assert code == 2

    @pytest.mark.parametrize("override", [
        "inspection_passes=2", "act_on_flagged=true", "loop_window_ms=10",
        "controller_latency_ms=1", "pickup_ma=2000",
    ])
    def test_retired_override_is_config_error(self, tmp_path, override):
        out = tmp_path / "o"
        proc = run_cli_process(
            "run", "--scenario", "baseline", "--override", override, "--out", str(out)
        )
        assert_one_line_error(proc)
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "just text\n", "pied: 5\n"],
                             ids=["empty", "not_a_mapping", "section_not_a_mapping"])
    def test_override_into_a_malformed_config_is_config_error(self, tmp_path, text):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        proc = run_cli_process(
            "run", "--scenario", str(cfg), "--override", "publish_interval_ms=10",
            "--out", str(tmp_path / "o"),
        )
        assert_one_line_error(proc)

    def test_all_scenarios_with_jobs(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", "all", "--jobs", "3", "--out", str(out)) == 0
        for sid in ("baseline", "attack1", "attack2"):
            assert (out / sid / "result.json").exists()

    def test_config_path(self, tmp_path):
        from gridshield.scenarios import _builtin_config_text

        cfg = tmp_path / "s.yaml"
        cfg.write_text(_builtin_config_text("attack2"))
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", str(cfg), "--out", str(out)) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["verdict"]["culprit"] == "PIED"

    def test_failing_scenario_exits_one(self, tmp_path):
        # without the inspection module the attack is never localized
        out = tmp_path / "o"
        code = run_cli(
            "run", "--scenario", "attack2", "--override", "with_ids=false",
            "--out", str(out),
        )
        assert code == 1
        result = json.loads((out / "result.json").read_text())
        assert result["verdict"]["culprit"] is None

    @pytest.mark.parametrize("sid, override", [
        ("attack1", "t_ids=inf"),
        ("baseline", "duration_ms=1e400"),
        ("baseline", "samples_per_second=1e400"),
        ("attack2", "publish_interval_ms=-1"),
        ("attack2", "decision_window_ms=-1"),
        ("baseline", "duration_ms=-5"),
        ("baseline", "t_pied=1e30"),
        ("baseline", "duration_ms=1e12"),
        ("baseline", "publish_interval_ms=0.001"),
        ("baseline", "samples_per_second=1000.9"),
        ("baseline", "with_ids=no"),
        ("baseline", "with_ids=1"),
        ("baseline", "duration_ms=true"),
        ("attack1", "t_ids=true"),
        ("baseline", "fault_at_ms=false"),
    ])
    def test_hostile_number_is_config_error(self, tmp_path, capsys, sid, override):
        """Infinite, negative and boolean times, schedules of more ticks than
        ``MAX_SCHEDULED_TICKS``, a fractional sample rate and a ``with_ids``
        that is not a boolean are refused at load time, and a delay that
        pushes a frame's timestamp out of its field stops the run: each is
        one error line, and nothing is written."""
        key, value = cli._parse_override(override)
        if key != "t_pied":  # the one case that loads, then stops the run
            with pytest.raises(ScenarioError):
                load_scenario(sid, {key: value})
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", sid, "--override", override, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("sid", ["attack1", "attack2"])
    def test_a_loop_past_the_echo_window_is_config_error(self, tmp_path, capsys, sid):
        """With the inspector active, a loop whose round trip (two 0.5 ms
        legs and t_ss) outlasts LOOP_WINDOW_US would bring the device's own
        echoes back as frames the switch put on the loop; the config is
        refused by its t_ss, and nothing is written."""
        out = tmp_path / "o"
        code = run_cli(
            "run", "--scenario", sid, "--override", "t_ss=9.5",
            "--override", "publish_interval_ms=2", "--override", "samples_per_second=100",
            "--out", str(out),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "delays_ms.t_ss" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, key", [
        ("scenario: attack1\n", "", "scenario"),
        ("  t_mu: 3.0\n", "", "delays_ms.t_mu"),
        ("    st_num: 1\n", "", "injection.template.st_num"),
    ], ids=["scenario", "delay", "template_field"])
    def test_missing_key_is_named_by_its_path(self, tmp_path, capsys, old, new, key):
        from gridshield.scenarios import _builtin_config_text

        text = _builtin_config_text("attack1")
        assert text.count(old) == 1
        cfg = tmp_path / "missing.yaml"
        cfg.write_text(text.replace(old, new))
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: bad scenario config: missing key {key}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_failed_run_leaves_no_file(self, tmp_path, capsys, jobs):
        """The attacks finish, but the baseline's trip leaves the timestamp
        field; the run exits 2 and none of the three writes a file."""
        out = tmp_path / "o"
        code = run_cli(
            "run", "--scenario", "attack1,attack2,baseline", "--override", "t_pied=1e30",
            "--jobs", jobs, "--out", str(out),
        )
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_is_config_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        proc = run_cli_process("run", "--scenario", "baseline", "--out", str(blocker / "o"))
        assert_one_line_error(proc)
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_zero_publish_interval_is_config_error(self):
        # the relay would republish at t=0 forever, so only loading is tried
        with pytest.raises(ScenarioError, match="publish interval must be positive"):
            load_scenario("attack2", {"publish_interval_ms": 0})

    def test_delay_split_below_the_fixed_legs_is_config_error(self, tmp_path):
        proc = run_cli_process(
            "run", "--scenario", "baseline", "--override", "t_sv=0.5",
            "--out", str(tmp_path / "o"),
        )
        assert_one_line_error(proc)

    @pytest.mark.parametrize(
        "edit",
        [
            ("attack1", "scenario: attack1", "scenario: \udcff"),
            ("attack1", "node: station_bus_switch", "node: nosuch"),
            ("attack2", "port: 2 ", "port: 9 "),
            ("attack1", "times_ms: [2300, 2302, 2304, 2306, 2308]", "times_ms: [-5]"),
            ("attack1", "    st_num: 1\n", "    st_num: 1\n    src_mac: zz\n"),
            ("attack1", "with_ids: true\n", "with_ids: true\ntopology: {nodes: {mu: 1}, links: []}\n"),
            (
                "attack1",
                "with_ids: true\n",
                "with_ids: true\nflow_tables:\n  station_bus_switch:\n    entries:\n"
                "      - {priority: 50, match: {ingress: 4}, actions: [{forward: 99}]}\n",
            ),
            ("attack1", "  node: station_bus_switch\n", "  node: station_bus_switch\n  host: PIED\n"),
            ("baseline", "with_ids: false\n", "with_ids: false\nwith_idz: true\n"),
            ("baseline", "with_ids: false\n", "with_ids: false\ninspection_passes: 2\n"),
            ("baseline", "with_ids: false\n", "with_ids: false\nact_on_flagged: true\n"),
            ("attack1", "  t_ids: 4.0\n", "  t_ids: 4.0\n  t_idz: 1.0\n"),
            ("attack1", "  samples_per_second: 1000\n", "  samples_per_secnd: 100\n"),
            ("attack1", "  publish_interval_ms: 1000\n", "  publish_intervl_ms: 10\n"),
            ("baseline", "  fault_at_ms: 2000\n", "  fault_at_mss: 2000\n"),
            ("attack1", "  port: 6\n", "  port: 6\n  ports: [6]\n"),
            ("attack1", "    st_num: 1\n", "    st_num: 1\n    sq: 4\n"),
            (
                "attack1",
                "with_ids: true\n",
                "with_ids: true\nrules:\n"
                "  - {id: seq_regression, kind: SequenceRegression}\n"
                "  - {id: seq_skip, kind: SequenceSkip, max_gap: 1}\n"
                "  - {id: ttl_bound, kind: TtlBound, min_ms: 1, max_ms: 60000}\n"
                "  - {id: publisher_whitelist, kind: PublisherWhitelist}\n"
                "  - {id: rate_limit, kind: RateLimit, max_frames: 10, window_ms: 100}\n",
            ),
            ("baseline", "with_ids: false\n", "with_ids: false\nloop_window_ms: 10.0\n"),
            ("baseline", "with_ids: false\n", "with_ids: false\ncontroller_latency_ms: 1.0\n"),
            ("baseline", "pied:\n", "pied:\n  pickup_ma: 2000\n"),
            ("baseline", "waveform:\n", "waveform:\n  currents_ma: [500, 500, 500]\n"),
            ("baseline", "waveform:\n", "waveform:\n  voltages_mv: [120000, 120000, 120000]\n"),
            ("baseline", "waveform:\n", "waveform:\n  fault_phase_a_ma: 5000\n"),
            ("baseline", "duration_ms: 5000\n", "duration_ms: .inf\n"),
            ("attack1", "    st_num: 1\n", "    st_num: 1\n    gocb_ref: [1, 2]\n"),
            ("attack1", "    st_num: 1\n", "    st_num: 1\n    src_mac: [1, 2]\n"),
            ("baseline", "with_ids: false\n", 'with_ids: "false"\n'),
            ("attack1", "    st_num: 1\n", '    st_num: 1\n    trip: "false"\n'),
            ("attack1", "  samples_per_second: 1000\n", "  samples_per_second: 1000.9\n"),
            ("attack1", "  port: 6\n", "  port: true\n"),
            ("attack1", "    st_num: 1\n", "    st_num: 1.5\n"),
            ("attack1", "    sq_num: 0\n", "    sq_num: false\n"),
            ("attack1", "  times_ms: [2300, 2302, 2304, 2306, 2308]\n", "  times_ms: []\n"),
            ("attack1", "  times_ms: [2300, 2302, 2304, 2306, 2308]\n", '  times_ms: "23"\n'),
            ("attack1", "  times_ms: [2300, 2302, 2304, 2306, 2308]\n",
             "  times_ms: [2300, true]\n"),
            ("attack1", "  times_ms: [2300, 2302, 2304, 2306, 2308]\n", "  times_ms: {2300: 1}\n"),
            ("attack1", "  t_ids: 4.0\n", '  t_ids: "4"\n'),
            ("baseline", "duration_ms: 5000\n", "duration_ms: 5e3\n"),
            ("baseline", "with_ids: false\n", "with_ids: false\ninjection: {template: {}}\n"),
            ("baseline", "with_ids: false\n", 'with_ids: false\n"delays_ms.t_mu": 3\n'),
        ],
        ids=["not_utf8", "unknown_node", "port_beyond_the_node", "negative_time",
             "bad_source_mac", "topology_without_links", "forward_beyond_the_switch",
             "host_not_at_the_node", "misspelt_top_level_key", "retired_inspection_passes",
             "retired_act_on_flagged", "misspelt_delays_ms_key", "misspelt_mu_key",
             "misspelt_pied_key", "misspelt_waveform_key", "misspelt_injection_key",
             "misspelt_template_key", "retired_rules_section", "retired_loop_window_ms",
             "retired_controller_latency_ms", "retired_pickup_ma", "retired_currents_ma",
             "retired_voltages_mv", "retired_fault_phase_a_ma", "infinite_duration",
             "gocb_ref_not_a_string", "src_mac_not_a_string", "with_ids_not_a_boolean",
             "trip_not_a_boolean", "fractional_sample_rate", "port_a_boolean",
             "fractional_st_num", "sq_num_a_boolean", "empty_injection_schedule",
             "injection_schedule_a_string", "injection_time_a_boolean",
             "injection_schedule_a_mapping", "delay_a_string", "exponent_without_a_dot",
             "injection_with_an_empty_template", "dotted_top_level_key"],
    )
    def test_hostile_config_is_config_error(self, tmp_path, edit):
        """Each edit of a shipped config is reported at load time, so nothing is written."""
        from gridshield.scenarios import _builtin_config_text

        sid, old, new = edit
        text = _builtin_config_text(sid)
        assert text.count(old) == 1
        cfg = tmp_path / "hostile.yaml"
        cfg.write_bytes(text.replace(old, new).encode("utf-8", "surrogateescape"))
        out = tmp_path / "o"
        assert_one_line_error(run_cli_process("run", "--scenario", str(cfg), "--out", str(out)))
        assert not out.exists()

    @pytest.mark.parametrize("path, value", schema_refusals())
    def test_a_refused_value_names_its_path(self, tmp_path, capsys, path, value):
        import yaml

        from gridshield.scenarios import _builtin_config_text

        tree = yaml.safe_load(_builtin_config_text("attack1"))
        *sections, key = path
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
        cfg = tmp_path / "refused.yaml"
        cfg.write_text(yaml.safe_dump(tree))
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", str(cfg), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert ".".join(path) in lines[0]
        if type(value) in (int, float):  # quoted as the config gives it, in ms for a time
            assert repr(value) in lines[0]

    @pytest.mark.parametrize(
        "name", sorted(name for name, path in _OVERRIDE_KEYS.items() if _SCHEMA[path][1] is _ms)
    )
    def test_a_negative_override_names_its_path(self, tmp_path, capsys, name):
        out = tmp_path / "o"
        argv = ("run", "--scenario", "baseline", "--override", f"{name}=-1", "--out", str(out))
        assert run_cli(*argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and ".".join(_OVERRIDE_KEYS[name]) in lines[0]

    @pytest.mark.parametrize("argv", [
        ("run", "--scenario", "baseline", "--jobs", "0"),
        ("run", "--scenario", "baseline", "--no-such-option"),
        ("run", "--scenario", "attack1", "--config", "baseline.yaml"),
        ("run", "--scenario", ","),
        ("run",),
        (),
    ], ids=["jobs_below_one", "unknown_option", "scenario_and_config", "empty_scenario_list",
            "no_scenario", "missing_subcommand"])
    def test_usage_error_is_one_error_line(self, tmp_path, argv):
        out = tmp_path / "o"
        assert_one_line_error(run_cli_process(*argv, *(("--out", str(out)) if argv else ())))
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("--help",), ("run", "--help")], ids=["gridshield", "run"])
    def test_help_exits_zero(self, argv):
        proc = run_cli_process(*argv)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("usage: gridshield")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_forward_to_an_unlinked_port_is_config_error(
        self, tmp_path, monkeypatch, capsys, jobs
    ):
        """A station-bus table that forwards the relay's frames to port 5,
        which exists but has no link, loads; the first frame forwarded there
        stops the run, which is reported as one error line. The scenarios
        run in processes forked from this one, so they run the patched
        table too."""
        from gridshield import substation as sub
        from gridshield.sdn import FlowEntry

        unlinked = (FlowEntry(sub.SBS_PIED, None, (5,)),)
        monkeypatch.setattr(sub, "station_bus_flow_table", lambda: unlinked)
        load_scenario("attack1")
        code = run_cli(
            "run", "--scenario", "attack1,baseline", "--jobs", jobs, "--out", str(tmp_path / "o")
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: scenario attack1 cannot run: station_bus_switch/p5 has no link"
        ]


class TestClosedStdout:
    def test_a_reader_closing_stdout_keeps_the_exit_code(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = tmp_path / "o"
        for argv in (["run", "--scenario", "baseline", "--out", str(out)],
                     ["replay", str(out / "events.jsonl")]):
            child = subprocess.Popen(
                [sys.executable, "-m", "gridshield.cli", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
            child.stdout.close()  # like `| head -0`: gone before the summary
            stderr = child.stderr.read()
            assert child.wait(timeout=120) == 0, stderr
            assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


class TestProtection:
    def test_a_fault_after_a_switch_conviction_still_trips_the_breaker(self, tmp_path):
        """The relay publishes every 2 ms, so false alerts land on its own
        trip frame; the breaker still opens on it, once, within the 27 ms
        with-module budget after the fault."""
        out = tmp_path / "o"
        run_cli(
            "run", "--scenario", "attack1", "--override", "publish_interval_ms=2",
            "--override", "fault_at_ms=3000", "--override", "duration_ms=3200",
            "--out", str(out),
        )
        result = json.loads((out / "result.json").read_text())
        assert result["verdict"]["culprit"] == "StationBusSwitch"
        log = EventLog.from_jsonl((out / "events.jsonl").read_bytes())
        verdicts = [ev.time for ev in log if ev.kind == "VerdictReached"]
        trips = [ev.time for ev in log if ev.kind == "BreakerTrip"]
        assert verdicts and verdicts[0] < 3_000_000
        assert result["breaker_trips"] == 1 and len(trips) == 1
        assert 3_000_000 < trips[0] <= 3_027_000
        # the trip came over the direct feed, off the measured main-feed path
        report = json.loads((out / "delay_report.json").read_text())
        assert report == {"error": "incomplete_trace"}


class TestJobs:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_at_most_n_scenarios_simulate_at_once(self, tmp_path, monkeypatch, jobs):
        """Every stretch of simulation, in this process or a forked one, is
        made to last 0.2 s and is logged with its start and end. Under
        ``--jobs N`` at most N of them overlap, and under two jobs two do."""
        spans = tmp_path / "spans"
        run_until = netsim.Network.run_until

        def slow_run_until(net, t_end):
            start = time.monotonic()
            time.sleep(0.2)
            log = run_until(net, t_end)
            with open(spans, "a") as stream:  # one short append: not interleaved
                stream.write(f"{start} {time.monotonic()}\n")
            return log

        monkeypatch.setattr(netsim.Network, "run_until", slow_run_until)
        code = run_cli(
            "run", "--scenario", "all", "--override", "duration_ms=60", "--jobs", str(jobs),
            "--out", str(tmp_path / "o"),
        )
        assert code in (0, 1)
        # +1 at each start and -1 at each end; an end sorts first at a tie
        edges = sorted(
            (float(at), step)
            for line in spans.read_text().splitlines()
            for at, step in zip(line.split(), (1, -1))
        )
        assert len(edges) == 2 * 5  # the trunk, two branches and baseline's two stretches
        assert max(itertools.accumulate(step for _at, step in edges)) == jobs

    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_a_single_scenario_forks_nothing(self, tmp_path, monkeypatch, jobs):
        forked = []
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or 0)
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", "attack1", "--jobs", jobs, "--out", str(out)) == 0
        assert not forked and (out / "events.jsonl").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_child_that_dies_without_a_result_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        """baseline and attack1 share no trunk, so each runs alone in a
        forked child, which here is killed before it sends a result. Its
        token comes back, so the other still runs; the run exits 2 with
        the first scenario's error and writes nothing."""
        monkeypatch.setattr(cli, "_run_one", lambda *args: os.kill(os.getpid(), signal.SIGKILL))
        out = tmp_path / "o"
        code = run_cli("run", "--scenario", "baseline,attack1", "--jobs", jobs, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: scenario baseline ended without a result (exit status {-signal.SIGKILL})"
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("order", ["faulted_first", "faulted_last"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_branch_that_cannot_run_stops_the_run(
        self, tmp_path, capsys, monkeypatch, jobs, order
    ):
        """attack1, and attack2 with a fault at 3000 ms, share a trunk up to
        attack1's first injection. Only attack2's relay trips, and its trip
        timestamp leaves the frame's field. Whether that branch runs in a
        forked child or in this process, the run exits 2 with one error
        line, writes no file and leaves no process."""
        from gridshield.scenarios import _builtin_config_text

        forked = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        faulted = tmp_path / "faulted.yaml"
        faulted.write_text(
            _builtin_config_text("attack2") + "\nwaveform:\n  fault_at_ms: 3000\n"
        )
        names = [str(faulted), "attack1"][:: 1 if order == "faulted_first" else -1]
        code = run_cli(
            "run", "--scenario", ",".join(names), "--override", "t_pied=1e30",
            "--jobs", jobs, "--out", str(tmp_path / "o"),
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: scenario attack2 cannot run: ")
        assert list(tmp_path.iterdir()) == [faulted]
        assert len(forked) == 1
        for pid in forked:
            with pytest.raises(ProcessLookupError):  # exited and reaped
                os.kill(pid, 0)
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--scenario", "baseline", "--jobs", jobs, "--out", str(out))
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_outputs_and_stdout_do_not_depend_on_jobs(self, tmp_path):
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            proc = run_cli_process("run", "--scenario", "all", "--jobs", jobs, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            runs.append((proc.stdout, files))
        assert len(runs[0][1]) == 9
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unknown_name_in_a_list_runs_nothing(self, tmp_path, jobs):
        from gridshield.scenarios import _builtin_config_text

        # a file that declares a scenario name the reader refuses counts too
        foo = tmp_path / "foo.yaml"
        foo.write_text(_builtin_config_text("attack1").replace("scenario: attack1", "scenario: Foo"))
        for second in ("nope", str(foo)):
            out = tmp_path / "o"
            proc = run_cli_process(
                "run", "--scenario", f"baseline,{second}", "--jobs", jobs, "--out", str(out)
            )
            assert_one_line_error(proc)
            assert not out.exists() or not any(out.rglob("*"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scenarios_sharing_an_output_directory_run_nothing(self, tmp_path, jobs):
        """Two scenarios with one id would write one directory, and the run
        that finished last would replace the other's files."""
        from gridshield.scenarios import _builtin_config_text

        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        a.write_text(_builtin_config_text("attack1"))
        b.write_text(_builtin_config_text("attack1"))
        out = tmp_path / "o"
        for names, sid in ((f"{a},{b}", "attack1"), ("baseline,baseline", "baseline")):
            proc = run_cli_process("run", "--scenario", names, "--jobs", jobs, "--out", str(out))
            assert_one_line_error(proc)
            assert str(out / sid) in proc.stderr
            assert not out.exists()

    def test_a_serial_run_keeps_no_finished_log(self, tmp_path):
        ids = ["baseline", "attack1"]
        specs = [load_scenario(sid, {"duration_ms": 60}) for sid in ids]
        results = cli._run_staged(specs, tmp_path / "o", jobs=1)
        assert [r.scenario for r in results] == ids
        assert all(not r.log for r in results)
        assert all((tmp_path / "o" / sid / "events.jsonl").stat().st_size for sid in ids)

    def test_worker_returns_the_result_without_its_log(self, tmp_path):
        """A run keeps only the scored result once its files are written,
        and that is what a forked child sends back through its pipe."""
        result = cli._run_one(load_scenario("attack1"), tmp_path, False)
        assert result.passed and not result.log
        assert (tmp_path / "events.jsonl").stat().st_size > 1 << 20
        assert len(pickle.dumps(result)) < 64 * 1024

    def test_importing_the_cli_leaves_the_process_pool_unloaded(self):
        code = (
            "import gridshield.cli, sys; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_importing_the_cli_leaves_openssl_unloaded(self):
        """Frame digests take ``blake2b`` from ``_blake2``, not ``hashlib``."""
        code = "import gridshield.cli, sys; print('_hashlib' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("module", ["yaml", "dataclasses", "inspect", "logging"])
    def test_importing_the_cli_leaves_the_module_unloaded(self, module):
        """``replay`` reads no YAML (``load_scenario`` imports the parser),
        the records are NamedTuples, and nothing logs."""
        code = f"import gridshield.cli, sys; print({module!r} in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestReplay:
    @pytest.fixture()
    def attack2_out(self, tmp_path) -> Path:
        out = tmp_path / "live"
        assert run_cli("run", "--scenario", "attack2", "--out", str(out)) == 0
        return out

    def test_replay_reproduces_the_live_verdict(self, attack2_out, tmp_path):
        replay_out = tmp_path / "replay"
        code = run_cli("replay", str(attack2_out / "events.jsonl"), "--out", str(replay_out))
        assert code == 0
        live = (attack2_out / "result.json").read_text()
        again = (replay_out / "result.json").read_text()
        assert live == again
        # the log is written back as it was read
        log = (attack2_out / "events.jsonl").read_bytes()
        assert (replay_out / "events.jsonl").read_bytes() == log

    def test_replay_twice_byte_identical(self, attack2_out, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("replay", str(attack2_out / "events.jsonl"), "--out", str(a))
        run_cli("replay", str(attack2_out / "events.jsonl"), "--out", str(b))
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()

    def test_truncated_log_is_config_error(self, attack2_out, tmp_path):
        lines = (attack2_out / "events.jsonl").read_text().splitlines(keepends=True)
        clipped = tmp_path / "clipped.jsonl"
        clipped.write_text("".join(lines[: len(lines) // 2]))
        assert run_cli("replay", str(clipped)) == 2

    def test_garbage_log_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert run_cli("replay", str(bad)) == 2

    def test_mistyped_event_field_is_config_error(self, attack2_out, tmp_path):
        lines = (attack2_out / "events.jsonl").read_text().splitlines(keepends=True)
        event = json.loads(lines[1])
        event["port"] = 1.0
        lines[1] = json.dumps(event, separators=(",", ":")) + "\n"
        bad = tmp_path / "mistyped.jsonl"
        bad.write_text("".join(lines))
        assert run_cli("replay", str(bad)) == 2

    def test_unwritable_out_is_config_error(self, attack2_out, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        proc = run_cli_process(
            "replay", str(attack2_out / "events.jsonl"), "--out", str(blocker / "o")
        )
        assert_one_line_error(proc)

    def test_missing_file_is_config_error(self, tmp_path):
        assert run_cli("replay", str(tmp_path / "nope.jsonl")) == 2

    def test_unknown_log_level_is_config_error(self, attack2_out):
        proc = run_cli_process("replay", str(attack2_out / "events.jsonl"),
                               GRIDSHIELD_LOG="bogus")
        assert_one_line_error(proc)
        assert "GRIDSHIELD_LOG" in proc.stderr
        assert proc.stdout == ""

    def test_undecodable_log_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'\xff\xfe{"t":0}\n')
        assert_one_line_error(run_cli_process("replay", str(bad)))

    @pytest.mark.parametrize(
        "edit",
        [(b'"note":"disabled"', b'"note":"enabled"'), (b'"port":1,', b'"port":null,')],
        ids=["enabled", "no_port"],
    )
    def test_a_port_state_change_other_than_a_disable_is_config_error(self, tmp_path, edit):
        """Only a numbered port is ever disabled, so a log that says
        otherwise was edited, and is refused rather than scored."""
        live = tmp_path / "live"
        assert run_cli("run", "--scenario", "attack1", "--out", str(live)) == 0
        lines = (live / "events.jsonl").read_bytes().split(b"\n")
        i = next(i for i, line in enumerate(lines) if b'"kind":"PortStateChange"' in line)
        assert edit[0] in lines[i]
        lines[i] = lines[i].replace(*edit)
        bad = tmp_path / "edited.jsonl"
        bad.write_bytes(b"\n".join(lines))
        assert_one_line_error(run_cli_process("replay", str(bad)))

    @pytest.mark.parametrize(
        "banner",
        [
            "run scenario=attack1 with_ids=1 expected_total_us=abc settle_us=1",
            "run scenario=attack1 with_ids",
        ],
    )
    def test_malformed_banner_is_config_error(self, tmp_path, banner):
        log = EventLog([
            SimEvent(0, 0, "ControlMsg", "ids", None, None, banner),
            SimEvent(0, 1, "ControlMsg", "ids", None, None, "run_complete events=2"),
        ])
        bad = tmp_path / "banner.jsonl"
        bad.write_text(log.to_jsonl())
        assert_one_line_error(run_cli_process("replay", str(bad)))

    def test_missing_trip_hop_fails_without_traceback(self, tmp_path):
        live = tmp_path / "live"
        assert run_cli("run", "--scenario", "baseline", "--out", str(live)) == 0
        log = EventLog.from_jsonl((live / "events.jsonl").read_bytes())
        trip = next(ev for ev in log if ev.kind == "BreakerTrip")
        kept = EventLog(
            ev for ev in log[:-1]
            if not (ev.kind == "FrameArrival" and ev.node == "omicron" and ev.digest == trip.digest)
        )
        assert len(kept) < len(log) - 1
        last = log[-1]
        kept.append(SimEvent(
            last.time, last.seq, last.kind, last.node, last.port, last.digest,
            f"run_complete events={len(kept) + 1}",
        ))
        cut = tmp_path / "cut.jsonl"
        cut.write_text(kept.to_jsonl())
        proc = run_cli_process("replay", str(cut))
        assert proc.returncode == 1
        assert "reason: no measurable fault-to-trip chain" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_unreadable_tick_fails_without_traceback(self, tmp_path):
        """The trip's triggering sample names its tick as no number: the
        chain is unmeasured, not a crash."""
        live = tmp_path / "live"
        assert run_cli("run", "--scenario", "baseline", "--out", str(live)) == 0
        log = EventLog.from_jsonl((live / "events.jsonl").read_bytes())
        trip = next(ev for ev in log if (ev.note or "").startswith("trip trigger="))
        trigger = trip.note.split("=")[1]
        edited = EventLog(
            ev._replace(note="tick_us=abc") if ev.digest == trigger and ev.node == sub.MU else ev
            for ev in log
        )
        assert edited != log
        bad = tmp_path / "tick.jsonl"
        bad.write_text(edited.to_jsonl())
        proc = run_cli_process("replay", str(bad))
        assert proc.returncode == 1
        assert "reason: no measurable fault-to-trip chain" in proc.stdout
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "records",
        [
            [("ControlMsg", "run_complete events=abc")],
            [("ControlMsg", "run_complete")],
            [("VerdictReached", "culprit"), ("ControlMsg", "run_complete events=3")],
            [("VerdictReached", None), ("ControlMsg", "run_complete events=3")],
            [("VerdictReached", "culprit=PIED ports=1,x"), ("ControlMsg", "run_complete events=3")],
        ],
        ids=["count_not_a_number", "count_missing", "verdict_field_without_value",
             "verdict_without_note", "verdict_port_not_a_number"],
    )
    def test_malformed_completion_or_verdict_is_config_error(self, tmp_path, records):
        banner = "run scenario=attack1 with_ids=1 expected_total_us=27000 settle_us=100"
        log = EventLog([SimEvent(0, 0, "ControlMsg", "ids", None, None, banner)])
        for seq, (kind, note) in enumerate(records, start=1):
            log.append(SimEvent(seq, seq, kind, "ids", None, None, note))
        bad = tmp_path / "hostile.jsonl"
        bad.write_text(log.to_jsonl())
        assert_one_line_error(run_cli_process("replay", str(bad)))


# Each shipped scenario with its timeline shrunk to a few dozen
# milliseconds, so its log is tens of kilobytes and replays in milliseconds.
SHORT_TIMELINES = {
    "baseline": {"duration_ms": 60, ("waveform", "fault_at_ms"): 20},
    "attack1": {"duration_ms": 80, ("pied", "toggle_point_at_ms"): 5,
                ("injection", "times_ms"): [30, 32, 34, 36, 38]},
    "attack2": {"duration_ms": 100, ("pied", "toggle_point_at_ms"): 5,
                ("pied", "silence_at_ms"): 20, ("injection", "times_ms"): [40, 42, 44, 46, 48]},
}
FUZZ_CHUNK_BYTES = 4096


def short_tree(sid: str) -> dict:
    """The shipped config of ``sid`` with its SHORT_TIMELINES edits."""
    import yaml

    tree = yaml.safe_load((SRC / "gridshield" / "configs" / f"{sid}.yaml").read_text())
    for key, value in SHORT_TIMELINES[sid].items():
        *parents, leaf = key if isinstance(key, tuple) else (key,)
        node = tree
        for parent in parents:
            node = node[parent]
        node[leaf] = copy.deepcopy(value)
    return tree


@pytest.fixture(scope="module")
def short_logs(tmp_path_factory) -> dict[str, bytes]:
    import yaml

    root = tmp_path_factory.mktemp("short")
    logs = {}
    for sid in SHORT_TIMELINES:
        config = root / f"{sid}.yaml"
        config.write_text(yaml.safe_dump(short_tree(sid)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("run", "--scenario", str(config), "--out", str(root / sid)) in (0, 1)
        logs[sid] = (root / sid / "events.jsonl").read_bytes()
    return logs


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


def chunk_ends(data: bytes, size: int) -> list[int]:
    """Where the reader's chunks of about ``size`` bytes end."""
    ends, start = [], 0
    while start < len(data):
        start = data.find(b"\n", start + size - 1) + 1 or len(data)
        ends.append(start)
    return ends


def assert_replay_keeps_the_contract(data: bytes, work: Path) -> int:
    """Replay ``data`` in-process with small read chunks: the exit code is
    0, 1 or 2, an input error is one ``error:`` line, and an accepted log is
    written back unchanged."""
    log_path, out = work / "events.jsonl", work / "out"
    log_path.write_bytes(data)
    (out / "events.jsonl").unlink(missing_ok=True)
    stderr = io.StringIO()
    with mock.patch.object(netsim, "READ_CHUNK_BYTES", FUZZ_CHUNK_BYTES), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["replay", str(log_path), "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 2:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert (out / "events.jsonl").read_bytes() == data
    return code


class TestReplayFuzz:
    """Hostile bytes never make ``replay`` raise: it exits 0, 1 or 2."""

    def test_short_logs_are_scored_across_many_chunks(self, short_logs, fuzz_dir):
        for data in short_logs.values():
            assert assert_replay_keeps_the_contract(data, fuzz_dir) in (0, 1)
            assert len(chunk_ends(data, FUZZ_CHUNK_BYTES)) > 10

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=512))
    def test_raw_bytes(self, fuzz_dir, data):
        assert_replay_keeps_the_contract(data, fuzz_dir)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SHORT_TIMELINES)), st.data())
    def test_byte_mutated_logs(self, short_logs, fuzz_dir, sid, draw):
        """One splice: ``cut`` bytes at ``at`` replaced by ``junk``, often
        across the end of a read chunk."""
        data = short_logs[sid]
        near_a_boundary = st.builds(
            lambda end, offset: min(max(end + offset, 0), len(data)),
            st.sampled_from(chunk_ends(data, FUZZ_CHUNK_BYTES)),
            st.integers(min_value=-24, max_value=8),
        )
        at = draw.draw(near_a_boundary | st.integers(min_value=0, max_value=len(data)))
        cut = draw.draw(st.integers(min_value=0, max_value=32))
        junk = draw.draw(st.binary(max_size=16) | st.sampled_from([b"\n", b"\\", b'"', b"\xff"]))
        mutated = data[:at] + junk + data[at + cut:]
        assert_replay_keeps_the_contract(mutated, fuzz_dir)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(SHORT_TIMELINES)), st.data())
    def test_well_formed_logs_of_shuffled_records(self, short_logs, fuzz_dir, sid, draw):
        """Valid lines in any order and number, with a completion record
        that counts them, so the log reaches scoring."""
        records = short_logs[sid].splitlines(keepends=True)
        lines = draw.draw(st.lists(st.sampled_from(records[:-1]), max_size=200))
        last = json.loads(records[-1])
        last["note"] = f"run_complete events={len(lines) + 1}"
        lines.append(json.dumps(last, separators=(",", ":")).encode() + b"\n")
        assert_replay_keeps_the_contract(b"".join(lines), fuzz_dir)


# Keys that configs once had or that the substation panel now fixes, each
# with the section that held it (None for the top level) and a value.
RETIRED_KEYS = (
    (None, "rules", [{"id": "ttl_bound", "kind": "TtlBound", "min_ms": 1, "max_ms": 60000}]),
    (None, "loop_window_ms", 10.0),
    (None, "controller_latency_ms", 1.0),
    (None, "inspection_passes", 2),
    (None, "act_on_flagged", True),
    (None, "topology", {"nodes": {"mu": 1}, "links": []}),
    ("pied", "pickup_ma", 2000),
    ("waveform", "currents_ma", [500, 500, 500]),
    ("waveform", "voltages_mv", [120000, 120000, 120000]),
    ("waveform", "fault_phase_a_ma", 5000),
    ("injection", "host", "StationBusSwitch"),
)
HOSTILE_VALUES = (
    "text", [1, 2], None, True, False, -1, -2.5, 10**30, 1e300,
    float("inf"), float("-inf"), float("nan"),
)


def config_paths(tree, prefix: tuple = ()):
    """The path of every value in a config tree, into mappings and lists."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from config_paths(value, prefix + (key,))


def value_at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def mutate_config(tree: dict, draw) -> None:
    """One hostile edit of ``tree``: delete a value, retype it, replace a
    section with a scalar, or add a retired key."""
    op = draw(st.sampled_from(("delete", "retype", "scalar_section", "retired")))
    if op == "retired":
        section, key, value = draw(st.sampled_from(RETIRED_KEYS))
        node = tree if section is None else tree.setdefault(section, {})
        if isinstance(node, dict):
            node[key] = copy.deepcopy(value)
        return
    paths = list(config_paths(tree))
    if op == "scalar_section":
        paths = [p for p in paths if isinstance(value_at(tree, p), (dict, list))]
    if not paths:
        return
    *parents, leaf = draw(st.sampled_from(paths))
    node = value_at(tree, parents)
    if op == "delete":
        del node[leaf]
    else:
        node[leaf] = copy.deepcopy(draw(st.sampled_from(HOSTILE_VALUES)))


# Values the shipped configs leave at their defaults, spelled out so that
# the fuzz edits them too: the template's identity fields.
DEFAULT_TEMPLATE = {"src_mac": str(sub.PIED_MAC), "gocb_ref": sub.GOCB_REF, "trip": False}


def fuzz_tree(sid: str) -> dict:
    tree = short_tree(sid)
    if "injection" in tree:
        tree["injection"]["template"].update(DEFAULT_TEMPLATE)
    return tree


class TestConfigFuzz:
    """Hostile configs never make ``load_scenario`` or ``run`` raise: the
    load raises only ``ScenarioError``, and the run exits 0, 1 or 2."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(SHORT_TIMELINES)), st.integers(1, 3), st.data())
    def test_mutated_shipped_configs(self, fuzz_dir, sid, edits, draw):
        import yaml

        tree = fuzz_tree(sid)
        for _ in range(edits):
            mutate_config(tree, draw.draw)
        # a huge duration is a long run, not an error; keep the run short
        duration, cap = tree.get("duration_ms"), SHORT_TIMELINES[sid]["duration_ms"]
        if type(duration) in (int, float) and cap < duration < float("inf"):
            tree["duration_ms"] = cap
        config, out = fuzz_dir / "config.yaml", fuzz_dir / "config_out"
        config.write_text(yaml.safe_dump(tree))
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(ScenarioError):
            load_scenario(str(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", "--scenario", str(config), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert stdout.getvalue() == "" and not out.exists()


# Times drawn for shared trunks, in ms: tick instants at 100 samples/s,
# publication instants at each drawn interval, and a few between them.
TRUNK_TIMES_MS = (0, 2, 10, 20, 40, 50, 60, 100, 120, 150, 0.5, 33.3, 100.001)


def trunk_tree(base: str, sid: str, interval_ms: float, duration_ms: float,
               toggle_ms, silence_ms, fault_ms, times_ms: list) -> dict:
    """The shipped ``base`` attack at 100 samples/s, named ``sid``, with
    the given publish interval and timed inputs; None drops an input."""
    import yaml

    tree = yaml.safe_load((SRC / "gridshield" / "configs" / f"{base}.yaml").read_text())
    tree["scenario"] = sid
    tree["duration_ms"] = duration_ms
    tree["mu"]["samples_per_second"] = 100
    tree["pied"].update(publish_interval_ms=interval_ms, toggle_point_at_ms=toggle_ms,
                        silence_at_ms=silence_ms)
    tree["waveform"] = {"fault_at_ms": fault_ms}
    tree["injection"]["times_ms"] = times_ms
    return tree


def run_quietly(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return run_cli(*argv)


def assert_shared_runs_match_alone(trees: list[dict], work: Path) -> list:
    """Run the configs together with one and two jobs, and each alone: every
    file a scenario writes together is the file it writes alone. Returns
    the configs' specs."""
    import yaml

    shutil.rmtree(work, ignore_errors=True)
    paths = []
    for index, tree in enumerate(trees):  # a directory each, as a user may keep them
        path = work / f"config{index}" / "scenario.yaml"
        path.parent.mkdir(parents=True)
        path.write_text(yaml.safe_dump(tree))
        paths.append(str(path))
    alone_codes = [
        run_quietly("run", "--scenario", path, "--out", str(work / "alone" / tree["scenario"]))
        for tree, path in zip(trees, paths)
    ]
    assert set(alone_codes) <= {0, 1}
    for jobs in ("1", "2"):
        out = work / f"jobs{jobs}"
        code = run_quietly("run", "--scenario", ",".join(paths), "--jobs", jobs, "--out", str(out))
        assert code == max(alone_codes)
        for tree in trees:
            sid = tree["scenario"]
            for name in ("events.jsonl", "result.json", "delay_report.json"):
                alone = (work / "alone" / sid / name).read_bytes()
                assert (out / sid / name).read_bytes() == alone, (jobs, sid, name)
    return [load_scenario(path) for path in paths]


def storm_pair_trees(**edits) -> list[dict]:
    """The goose_storm configs of seed 11 (toggle at 1926 ms, burst from
    4143 ms), with ``edits`` to ``trunk_tree``'s settings of both."""
    both = dict(interval_ms=2, duration_ms=6000, toggle_ms=1926, fault_ms=None,
                times_ms=[4143, 4145, 4147, 4149, 4151]) | edits
    return [
        trunk_tree("attack1", "attack1", silence_ms=None, **both),
        trunk_tree("attack2", "attack2", silence_ms=3500, **both),
    ]


class TestSharedTrunks:
    """Scenarios that share a trunk write the bytes each writes alone."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_a_set_of_configs_writes_what_each_writes_alone(self, fuzz_dir, draw):
        draw = draw.draw
        interval_ms = draw(st.sampled_from((2, 10, 1000)))
        time_ms = st.sampled_from(TRUNK_TIMES_MS) | st.integers(0, 160)
        maybe = st.none() | time_ms
        sids = draw(st.permutations(("attack1", "attack2", "baseline")))[:draw(st.integers(2, 3))]
        trees = [
            trunk_tree(
                draw(st.sampled_from(("attack1", "attack2"))), sid, interval_ms,
                duration_ms=draw(st.sampled_from((40, 100, 150, 160))),
                toggle_ms=draw(maybe), silence_ms=draw(maybe), fault_ms=draw(maybe),
                times_ms=draw(st.lists(time_ms, min_size=1, max_size=4)),
            )
            for sid in sids
        ]
        # equal inputs make long shared prefixes: give the others the first's
        for section, key in (("pied", "toggle_point_at_ms"), ("pied", "silence_at_ms"),
                             ("waveform", "fault_at_ms"), ("injection", "times_ms")):
            if draw(st.booleans()):
                for tree in trees[1:]:
                    tree[section][key] = trees[0][section][key]
        assert_shared_runs_match_alone(trees, fuzz_dir / "trunks")

    def test_the_seed_11_storm_pair(self, fuzz_dir):
        specs = assert_shared_runs_match_alone(storm_pair_trees(), fuzz_dir / "storm")
        assert trunks(specs) == [[0, 1]]
        assert Trunk(specs).diverge_us == 3_500_000  # attack2's silence

    def test_a_silence_at_a_publication_instant(self, fuzz_dir):
        """attack2's silence is added at the fork, in the microsecond of a
        publication that the running relay scheduled; it must come first,
        as it does when the silence is scheduled at the build."""
        work = fuzz_dir / "silence"
        specs = assert_shared_runs_match_alone(storm_pair_trees(duration_ms=3600), work)
        assert Trunk(specs).diverge_us == 3_500_000

        def relay_departures(sid):
            log = EventLog.from_jsonl((work / "alone" / sid / "events.jsonl").read_bytes())
            return [ev for ev in log if ev.time == 3_500_000 and ev.kind == "FrameDeparture"
                    and ev.node == sub.PIED]

        assert relay_departures("attack1") and not relay_departures("attack2")

    def test_a_branch_that_ends_before_the_others_diverge(self, fuzz_dir):
        trees = storm_pair_trees(interval_ms=10)
        trees[0]["duration_ms"] = 1000
        specs = assert_shared_runs_match_alone(trees, fuzz_dir / "short")
        assert Trunk(specs).diverge_us == 1_000_000

    def test_two_configs_equal_but_for_their_name_and_directory(self, fuzz_dir):
        both = dict(interval_ms=10, duration_ms=2500, toggle_ms=1500, silence_ms=None,
                    fault_ms=None, times_ms=[2300, 2302, 2304, 2306, 2308])
        trees = [trunk_tree("attack1", sid, **both) for sid in ("attack1", "attack2")]
        specs = assert_shared_runs_match_alone(trees, fuzz_dir / "twins")
        assert Trunk(specs).diverge_us == 2_500_000  # nothing differs before the end

    def test_two_copies_of_attack1_under_new_names(self, fuzz_dir):
        """A scenario is named by its config: two copies of attack1 that
        inject at different times run in one command, sharing a trunk."""
        both = dict(interval_ms=10, duration_ms=2500, toggle_ms=1500, silence_ms=None,
                    fault_ms=None)
        trees = [
            trunk_tree("attack1", "attack1_early", times_ms=[1800, 1802], **both),
            trunk_tree("attack1", "attack1_late", times_ms=[2300, 2302], **both),
        ]
        specs = assert_shared_runs_match_alone(trees, fuzz_dir / "renamed")
        assert [spec.id for spec in specs] == ["attack1_early", "attack1_late"]
        assert trunks(specs) == [[0, 1]]
        assert Trunk(specs).diverge_us == 1_800_000
