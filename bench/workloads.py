"""Workload inputs and output checks of the gridshield benchmark.

A workload is a list of ``gridshield`` CLI invocations (one pass) plus the
configs its set-up loads. ``prepare`` builds the inputs from the seed;
``check_pass`` verifies what one pass wrote. Only the ``goose_storm``
configs depend on the seed; the other two workloads use the shipped
fixtures unchanged.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

WORKLOADS = ("fixtures", "replay", "goose_storm")
SHIPPED = ("baseline", "attack1", "attack2")
JOBS = "2"

# goose_storm: a relay GOOSE stream 500x the shipped rate and sampled values
# at a tenth of it, so GOOSE decoding and inspection dominate the run.
STORM_PUBLISH_INTERVAL_MS = 2
STORM_SAMPLES_PER_SECOND = 100
STORM_DURATION_MS = 6000
# Seeded draws, in ms. The toggle precedes attack2's silence (3500 ms) and
# the burst follows it, as in the shipped attack2 fixture.
STORM_TOGGLE_MS = (1000, 3000)
STORM_BURST_MS = (4000, 4200)


@dataclass
class Prepared:
    """A workload's inputs: its set-up configs and its per-pass invocations."""

    name: str
    configs: list[str]
    invocations: list[list[str]]  # argv after ``gridshield``; "{out}" marks the output root
    # replay: the live run's result files and verdicts that a replay must match
    reference: dict[str, dict] = field(default_factory=dict)

    def argvs(self, out: Path) -> list[list[str]]:
        return [[a.replace("{out}", str(out)) for a in argv] for argv in self.invocations]


def storm_configs(seed: int, configs_dir: Path) -> dict[str, str]:
    """YAML text of the two goose_storm scenarios for ``seed``.

    Same seed, same bytes: the draws come from a private RNG and the trees
    are dumped with sorted keys.
    """
    rng = random.Random(seed)
    toggle = rng.randrange(*STORM_TOGGLE_MS)
    burst = rng.randrange(*STORM_BURST_MS)
    out = {}
    for name, shipped in (("a1.yaml", "attack1.yaml"), ("a2.yaml", "attack2.yaml")):
        tree = yaml.safe_load((configs_dir / shipped).read_text())
        tree["duration_ms"] = STORM_DURATION_MS
        tree["mu"]["samples_per_second"] = STORM_SAMPLES_PER_SECOND
        tree["pied"]["publish_interval_ms"] = STORM_PUBLISH_INTERVAL_MS
        tree["pied"]["toggle_point_at_ms"] = toggle
        silence = tree["pied"].get("silence_at_ms")
        if silence is not None and not toggle < silence < burst:
            raise ValueError(f"storm draws break attack2's order: {toggle}, {silence}, {burst}")
        times = tree["injection"]["times_ms"]
        tree["injection"]["times_ms"] = [burst + t - times[0] for t in times]
        out[name] = yaml.safe_dump(tree, sort_keys=True)
    return out


def prepare(name: str, seed: int, root: Path, work: Path, run_cli) -> Prepared:
    """Build the workload's inputs under ``work``.

    ``run_cli(argv)`` runs one CLI invocation in a child process and returns
    its exit code; replay uses it to write, untimed, the logs it re-scores.
    """
    if name == "fixtures":
        return Prepared(
            name,
            configs=list(SHIPPED),
            invocations=[["run", "--scenario", "all", "--jobs", JOBS, "--out", "{out}"]],
        )
    if name == "replay":
        live = work / "live"
        code = run_cli(["run", "--scenario", "all", "--jobs", JOBS, "--out", str(live)])
        if code not in (0, 1):
            raise RuntimeError(f"replay set-up run exited {code}")
        reference = {}
        for sid in SHIPPED:
            result_text = (live / sid / "result.json").read_text()
            reference[sid] = {
                "result.json": result_text,
                "events.jsonl": file_sha256(live / sid / "events.jsonl"),
                "exit": 0 if json.loads(result_text)["pass"] else 1,
            }
        return Prepared(
            name,
            configs=list(SHIPPED),
            invocations=[
                ["replay", str(live / sid / "events.jsonl"), "--out", "{out}/" + sid]
                for sid in SHIPPED
            ],
            reference=reference,
        )
    if name == "goose_storm":
        storm = work / "storm"
        storm.mkdir(parents=True, exist_ok=True)
        paths = []
        for fname, text in storm_configs(seed, root / "src" / "gridshield" / "configs").items():
            (storm / fname).write_text(text)
            paths.append(str(storm / fname))
        return Prepared(
            name,
            configs=paths,
            invocations=[["run", "--scenario", ",".join(paths), "--jobs", JOBS, "--out", "{out}"]],
        )
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Log analysis
# ---------------------------------------------------------------------------


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class LogSummary:
    sha256: str
    events: int
    complete: bool
    injected: int
    alerts: int
    false_alerts: int
    missed: int


def summarize_log(data: bytes) -> LogSummary:
    """Digest, event count, completeness and alert accounting of one log.

    An alert is false when its frame digest matches no event noted
    ``injected``; an injected digest is missed when no alert carries it.
    Only lines that can matter are parsed.
    """
    lines = data.splitlines()
    injected: list[str | None] = []
    alert_digests: list[str | None] = []
    for line in lines:
        if b'"AlertRaised"' in line:
            alert_digests.append(json.loads(line)["digest"])
        elif b'"injected"' in line:
            event = json.loads(line)
            if event["note"] == "injected":
                injected.append(event["digest"])
    injected_digests = set(injected)
    complete = False
    if lines:
        last = json.loads(lines[-1])
        note = last.get("note") or ""
        complete = (
            last.get("kind") == "ControlMsg"
            and note.startswith("run_complete events=")
            and note == f"run_complete events={len(lines)}"
        )
    return LogSummary(
        sha256=hashlib.sha256(data).hexdigest(),
        events=len(lines),
        complete=complete,
        injected=len(injected),
        alerts=len(alert_digests),
        false_alerts=sum(1 for d in alert_digests if d not in injected_digests),
        missed=len(injected_digests - set(alert_digests)),
    )


def event_logs(out: Path) -> dict[str, Path]:
    """Every events.jsonl under ``out``, keyed by its path relative to ``out``."""
    return {str(p.relative_to(out)): p for p in sorted(out.rglob("events.jsonl"))}


def log_hashes(out: Path) -> dict[str, str]:
    return {rel: file_sha256(p) for rel, p in event_logs(out).items()}


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Checks:
    """Counts checks attempted and keeps the reason of each that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)
        return ok


def check_invocation(checks: Checks, argv: list[str], code: int, stderr: str) -> None:
    label = " ".join(argv[:2])
    checks.expect(code in (0, 1), f"{label}: exit code {code}, expected 0 or 1")
    checks.expect("Traceback" not in stderr, f"{label}: traceback on stderr")


def check_pass(
    checks: Checks,
    prep: Prepared,
    out: Path,
    codes: list[int],
    summaries: dict[str, LogSummary],
    run_cli,
) -> None:
    """The workload's output checks on one pass's output root."""
    expected_logs = len(SHIPPED) if prep.name != "goose_storm" else len(prep.configs)
    checks.expect(
        len(summaries) == expected_logs,
        f"{len(summaries)} event logs written, expected {expected_logs}",
    )
    for rel, summary in summaries.items():
        checks.expect(summary.complete, f"{rel}: log truncated or its event count is wrong")
        # Every injected frame is alerted on, so the alert count per
        # injected frame can only fall by dropping false or repeated alerts.
        checks.expect(summary.missed == 0, f"{rel}: {summary.missed} injected digests never alerted")
        if prep.name != "goose_storm":
            checks.expect(summary.false_alerts == 0, f"{rel}: {summary.false_alerts} false alerts")
    if prep.name == "fixtures":
        checks.expect(codes == [0], f"run --scenario all exited {codes}, expected [0]")
        for sid in SHIPPED:
            result = json.loads((out / sid / "result.json").read_text())
            checks.expect(result["pass"] is True, f"{sid}: result.json pass is not true")
        baseline = json.loads((out / "baseline" / "result.json").read_text())
        total = (baseline.get("delay") or {}).get("total_us")
        checks.expect(total == 23000, f"baseline delay.total_us {total}, expected 23000")
    elif prep.name == "replay":
        for sid, code in zip(SHIPPED, codes):
            ref = prep.reference[sid]
            checks.expect(code == ref["exit"], f"replay {sid}: exit {code} != live {ref['exit']}")
            checks.expect(
                (out / sid / "result.json").read_text() == ref["result.json"],
                f"replay {sid}: result.json differs from the live run",
            )
            checks.expect(
                file_sha256(out / sid / "events.jsonl") == ref["events.jsonl"],
                f"replay {sid}: rewritten events.jsonl differs from its input",
            )
    elif prep.name == "goose_storm":
        # The FAIL verdict at this rate is a known detection defect: it is
        # reported through the accuracy metric, not gated here.
        for scenario_dir in (p.parent for p in event_logs(out).values()):
            live = (scenario_dir / "result.json").read_text()
            again = out.parent / (out.name + "-replay") / scenario_dir.name
            code = run_cli(["replay", str(scenario_dir / "events.jsonl"), "--out", str(again)])
            expected = 0 if json.loads(live)["pass"] else 1
            checks.expect(code == expected, f"replay of {scenario_dir.name}: exit {code} != {expected}")
            checks.expect(
                (again / "result.json").read_text() == live,
                f"replay of {scenario_dir.name}: result.json differs from the live run",
            )
