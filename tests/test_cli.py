"""Exit-code contract, output files, and replay equivalence."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from gridshield.cli import main


def run_cli(*argv) -> int:
    return main(list(argv))


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

    def test_unknown_scenario_name(self, tmp_path):
        assert run_cli("run", "--scenario", "attack9", "--out", str(tmp_path / "o")) == 2

    def test_bad_override_is_config_error(self, tmp_path):
        code = run_cli(
            "run", "--scenario", "baseline", "--override", "bogus=1", "--out", str(tmp_path / "o")
        )
        assert code == 2

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
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
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
        lines[1] = json.dumps(event) + "\n"
        bad = tmp_path / "mistyped.jsonl"
        bad.write_text("".join(lines))
        assert run_cli("replay", str(bad)) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        assert run_cli("replay", str(tmp_path / "nope.jsonl")) == 2
