"""Command-line entry point.

``gridshield run`` executes one or more scenario fixtures and writes, per
scenario, the JSON-lines event log (``events.jsonl``), the scored result
(``result.json``) and the delay report (``delay_report.json``). With
``--jobs N`` the scenarios run in up to N worker processes, never more than
there are scenarios, and every output byte is the same as with
``--jobs 1``. No run keeps a finished scenario's event log: once its
files are written, only its scored result is kept, and only that travels
back from a worker. The files are written into a staging directory beside
the output directory and moved into place once every scenario has
finished, so a run that exits 2 leaves none of them.
``gridshield replay`` re-scores a saved log and must reproduce the live
result; with ``--out`` it writes the log bytes it read back as
``events.jsonl``. Both write and parse the log a bounded chunk at a time
(see ``netsim.EventLog``).

Exit codes are the machine contract: 0 when every requested scenario
passes, 1 when any fails, 2 on configuration or input errors, including
an unknown ``GRIDSHIELD_LOG`` level, a usage error such as an unknown
option, a missing subcommand or a ``--jobs`` below 1, a ``--scenario``
that names no scenario, a list of scenarios two of which share an id (and
so an output directory), and an ``--out`` that cannot be written; each
prints one ``error:`` line. Stdout is a
human-readable summary and may change; a reader that closes it early
loses the rest of the summary, not the exit code.
The ``GRIDSHIELD_LOG`` variable must name a log level
(DEBUG/INFO/WARNING/ERROR); nothing logs through it yet.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import logging
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import NoReturn

from gridshield.netsim import EventLog
from gridshield.scenarios import (
    SCENARIO_IDS,
    ScenarioError,
    ScenarioResult,
    ScenarioSpec,
    check_complete,
    load_scenario,
    run_scenario,
    score,
)

log = logging.getLogger("gridshield")

EXIT_OK = 0
EXIT_SCENARIO_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _parse_override(text: str):
    if "=" not in text:
        raise ScenarioError(f"override {text!r} is not key=value")
    key, value = text.split("=", 1)
    lowered = value.lower()
    if lowered in ("true", "false"):
        parsed = lowered == "true"
    else:
        try:
            parsed = int(value)
        except ValueError:
            try:
                parsed = float(value)
            except ValueError:
                parsed = value
    return key, parsed


def _job_count(text: str) -> int:
    """``--jobs``: a whole number of worker processes, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number of at least 1")
    return jobs


def _write_outputs(result: ScenarioResult, log: EventLog | bytes, out_dir: Path) -> None:
    """Write a run's files; ``log`` is the event log, or the bytes of a log
    that was read, which are written back unchanged."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "events.jsonl", "wb") as stream:
        if isinstance(log, bytes):
            stream.write(log)
        else:
            log.write_jsonl(stream)
    (out_dir / "result.json").write_text(result.to_json() + "\n")
    if result.delay is not None:
        delay_text = result.delay.to_json() + "\n"
    else:
        # a trip whose chain does not follow the measured main-feed path
        # (after a switch conviction it arrives on the direct feed)
        error = "incomplete_trace" if result.breaker_trips else "no_trip_found"
        delay_text = json.dumps({"error": error}, indent=2) + "\n"
    (out_dir / "delay_report.json").write_text(delay_text)


def _summarize(result: ScenarioResult) -> str:
    lines = [f"{result.scenario}: {'PASS' if result.passed else 'FAIL'}"]
    if result.verdict_culprit:
        lines.append(
            f"  verdict: {result.verdict_culprit} "
            f"(evidence at ports {', '.join(map(str, result.verdict_evidence_ports))})"
        )
    lines.append(
        f"  alerts: {result.alerts}, injected: {result.injected} "
        f"({result.injected_alerted} alerted), breaker trips: {result.breaker_trips}"
    )
    if result.disabled_ports:
        parts = [
            f"{node} p{','.join(map(str, ports))}"
            for node, ports in sorted(result.disabled_ports.items())
        ]
        lines.append(f"  disabled: {'; '.join(parts)}")
    if result.delay is not None:
        lines.append(f"  fault-to-trip: {result.delay.total_us / 1000:.3f} ms")
    for reason in result.reasons:
        lines.append(f"  reason: {reason}")
    return "\n".join(lines)


def _print_summary(results: list[ScenarioResult]) -> None:
    try:
        print("\n".join(map(_summarize, results)), flush=True)
    except BrokenPipeError:
        # the reader closed stdout: the rest of the summary, and the flush
        # at exit, go to devnull, so the run's exit code stands
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _run_one(spec: ScenarioSpec, out_root: Path, nested: bool) -> ScenarioResult:
    result = run_scenario(spec)
    out_dir = out_root / spec.id if nested else out_root
    _write_outputs(result, result.log, out_dir)
    return result


def _run_in_worker(spec: ScenarioSpec, out_root: Path, nested: bool) -> ScenarioResult:
    """``_run_one``, keeping only the scored result: the log's files are
    written, so the log itself is let go of, serially or in a pool worker,
    where only the result travels back."""
    return dataclasses.replace(_run_one(spec, out_root, nested), log=EventLog())


def _run_staged(specs: list[ScenarioSpec], out_root: Path, jobs: int) -> list[ScenarioResult]:
    """Run every spec, then move the files they wrote into ``out_root``; a
    scenario that fails leaves no file of any of them there."""
    nested = len(specs) > 1
    out_root.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out_root.name}.", dir=out_root.parent))
    try:
        if jobs > 1 and nested:
            # fork starts all max_workers at the first submit: one per scenario at most
            workers = min(jobs, len(specs))
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_in_worker, spec, staging, nested) for spec in specs]
                results = [f.result() for f in futures]
        else:
            results = [_run_in_worker(spec, staging, nested) for spec in specs]
        for path in sorted(staging.rglob("*")):
            if path.is_file():
                dest = out_root / path.relative_to(staging)
                dest.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, dest)
        return results
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        overrides = dict(_parse_override(o) for o in args.override or [])
        if args.scenario == "all":
            names = list(SCENARIO_IDS)
        else:
            names = [s.strip() for s in (args.scenario or "").split(",") if s.strip()]
        if not names:
            raise ScenarioError(
                "nothing to run; give --scenario an id, a comma list, 'all' or a YAML path"
            )
        # every spec loads before any scenario runs, so a config error writes nothing
        specs = [load_scenario(name, overrides) for name in names]
        ids = [spec.id for spec in specs]
        for sid in ids:
            if ids.count(sid) > 1:
                raise ScenarioError(f"two scenarios would write {Path(args.out) / sid}")
        results = _run_staged(specs, Path(args.out), args.jobs)
    except OSError as exc:
        raise ScenarioError(f"cannot write {args.out}: {exc}") from exc
    _print_summary(results)
    return EXIT_OK if all(r.passed for r in results) else EXIT_SCENARIO_FAILED


def cmd_replay(args: argparse.Namespace) -> int:
    path = Path(args.log)
    try:
        # bytes, so no newline is translated: the log is written back as read
        data = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        event_log = EventLog.from_jsonl(data)
    except ValueError as exc:
        raise ScenarioError(f"malformed log: {exc}") from exc
    if not check_complete(event_log):
        raise ScenarioError("log is truncated or missing its completion record")
    result = score(event_log)
    if args.out:
        try:
            _write_outputs(result, data, Path(args.out))
        except OSError as exc:
            raise ScenarioError(f"cannot write {args.out}: {exc}") from exc
    _print_summary([result])
    return EXIT_OK if result.passed else EXIT_SCENARIO_FAILED


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 2, as
    every other config or input error is; subparsers share the class."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_CONFIG_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridshield",
        description="Deterministic digital-substation attack/mitigation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run scenario fixtures and write logs/reports")
    run_p.add_argument("--scenario", help="builtin id (baseline, attack1, attack2), "
                       "comma list, 'all', or a YAML path")
    run_p.add_argument("--out", default="out", help="output directory (default: ./out)")
    run_p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="config override, repeatable (e.g. t_ids=0, with_ids=true)")
    run_p.add_argument("--jobs", type=_job_count, default=1, metavar="N",
                       help="run scenarios in up to N worker processes, at most one per "
                       "scenario; outputs are byte-identical to --jobs 1")
    run_p.set_defaults(func=cmd_run)

    replay_p = sub.add_parser("replay", help="re-score a saved events.jsonl")
    replay_p.add_argument("log", help="path to events.jsonl")
    replay_p.add_argument("--out", help="write result/report files here")
    replay_p.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = os.environ.get("GRIDSHIELD_LOG", "WARNING")
    try:
        # a known level name maps to its number, anything else to a string
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise ScenarioError(f"GRIDSHIELD_LOG={level!r} is not a log level; "
                                "use DEBUG, INFO, WARNING or ERROR")
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except ScenarioError as exc:  # every config or input error, one line
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
