"""Command-line entry point.

``gridshield run`` executes one or more scenario fixtures and writes, per
scenario, the JSON-lines event log (``events.jsonl``), the scored result
(``result.json``) and the delay report (``delay_report.json``). One
scenario runs in this process. Several run as forked branches of shared
trunks, so ``run`` needs ``os.fork`` (POSIX) for them: scenarios whose
configs are equal but for their name, duration and timed inputs (the
toggle, silence, fault and injection times) are simulated once up to
the first time their inputs differ, and that simulation is then forked
once per scenario (``scenarios.Trunk``). A scenario that shares no trunk
is forked to run alone. ``--jobs N`` bounds the processes that simulate
at once, and every output byte is the same for every N. No run keeps a
finished scenario's event log: once its files are written, only its
scored result is kept, and only that travels back from a forked
process. The files are written into a staging directory beside
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
that names no scenario or one that cannot be read, a list of scenarios
two of which share an id (and so an output directory), and an ``--out``
that cannot be written; each
prints one ``error:`` line. Stdout is a
human-readable summary and may change; a reader that closes it early
loses the rest of the summary, not the exit code.
The ``GRIDSHIELD_LOG`` variable must name a log level
(DEBUG/INFO/WARNING/ERROR); nothing logs through it yet.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import shutil
import sys
import tempfile
import traceback
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NoReturn

from gridshield.netsim import EventLog
from gridshield.scenarios import (
    SCENARIO_IDS,
    ScenarioError,
    ScenarioResult,
    ScenarioSpec,
    Trunk,
    check_complete,
    load_scenario,
    run_scenario,
    score,
    trunks,
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


def _write_outputs(
    result: ScenarioResult,
    log: EventLog | bytes,
    out_dir: Path,
    shared: bytes | memoryview = b"",
    resume: int = 1,
) -> None:
    """Write a run's files; ``log`` is the event log, or the bytes of a log
    that was read, which are written back unchanged. A branch passes its
    trunk's text of events 1 to ``resume`` - 1 as ``shared``, formatted
    once for every branch."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "events.jsonl", "wb") as stream:
        if isinstance(log, bytes):
            stream.write(log)
        else:
            stream.write(EventLog(log[:1]).to_jsonl().encode())  # the banner
            stream.write(shared)
            log.write_jsonl(stream, resume)
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
    """Run one scenario alone and write its files; the result keeps no log."""
    result = run_scenario(spec)
    _write_outputs(result, result.log, out_root / spec.id if nested else out_root)
    return replace(result, log=EventLog())


def _run_branch(
    trunk: Trunk, spec: ScenarioSpec, out_root: Path, shared: memoryview, resume: int
) -> ScenarioResult:
    """``_run_one`` for a scenario that continues ``trunk``."""
    result = trunk.branch(spec)
    _write_outputs(result, result.log, out_root / spec.id, shared, resume)
    return replace(result, log=EventLog())


def _outcome(work: Callable[[], ScenarioResult]) -> ScenarioResult | Exception:
    """The result of ``work``, or the error it raised that ``run`` reports
    in one line, once every scenario is done."""
    try:
        return work()
    except (ScenarioError, OSError) as exc:
        return exc


_TOKEN = b"+"  # a jobserver token, and a child's first byte once it holds one


class _Runner:
    """Runs a list of scenarios as forked branches of the trunks they share.

    Scenarios that share no trunk are forked first, each to run alone.
    Then each group's trunk runs here, is forked once per branch but the
    last, and continues here as the last. A jobserver pipe, as GNU make's,
    bounds what simulates at once: it starts with ``jobs`` - 1 tokens, a
    child takes one before it simulates, and this process holds one of its
    own until it has nothing left to run. A child sends its outcome, a
    result without its log or an exception, through a pipe of its own,
    and the token it took comes back once it has exited. Children never
    hold the token pipe's write end, so if this process dies, the ones
    still waiting for a token end without running. The CLI starts no
    thread, so forking it is safe.
    """

    def __init__(self, specs: list[ScenarioSpec], out_root: Path) -> None:
        self.specs = specs
        self.out_root = out_root
        self.outcomes: list[ScenarioResult | Exception | None] = [None] * len(specs)
        self.children: dict[int, tuple[int, int]] = {}  # result pipe -> (spec index, pid)

    def run(self, jobs: int) -> list[ScenarioResult]:
        """Every scenario's result in spec order, or the first error in
        spec order once all have finished."""
        self.tokens_r, self.tokens_w = os.pipe()
        try:
            os.write(self.tokens_w, _TOKEN * (min(jobs, len(self.specs)) - 1))
            groups = trunks(self.specs)
            for group in groups:
                if len(group) == 1:
                    spec = self.specs[group[0]]
                    self.fork(group[0], partial(_run_one, spec, self.out_root, True))
            for group in groups:
                if len(group) > 1:
                    self.run_group(group)
            os.write(self.tokens_w, _TOKEN)  # this process simulates no more
            self.collect()
        finally:
            import signal

            for read, (_index, pid) in self.children.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read)
            os.close(self.tokens_r)
            os.close(self.tokens_w)
        for outcome in self.outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return self.outcomes

    def run_group(self, group: list[int]) -> None:
        trunk = Trunk([self.specs[index] for index in group])
        trunk.run()
        # every line but the banner, formatted once for all the branches
        text = io.BytesIO()
        trunk.net.log.write_jsonl(text, 1)
        shared, resume = text.getbuffer(), len(trunk.net.log)

        def branch(index: int) -> Callable[[], ScenarioResult]:
            return partial(_run_branch, trunk, self.specs[index], self.out_root, shared, resume)

        *forked, last = group
        for index in forked:
            self.fork(index, branch(index))
        self.outcomes[last] = _outcome(branch(last))

    def fork(self, index: int, work: Callable[[], ScenarioResult]) -> None:
        import pickle  # here, not at module level: only a run of several scenarios forks

        sys.stdout.flush()
        sys.stderr.flush()
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError as exc:
            os.close(read)
            os.close(write)
            raise ScenarioError(f"cannot start scenario {self.specs[index].id}: {exc}") from exc
        if pid == 0:
            try:
                os.close(read)
                os.close(self.tokens_w)
                if os.read(self.tokens_r, 1):  # empty once this process is gone
                    os.write(write, _TOKEN)
                    data = pickle.dumps(_outcome(work))
                    with open(write, "wb", closefd=False) as pipe:
                        pipe.write(data)
            except Exception:  # a defect: show where, and end without a result
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(0)  # no cleanup or buffer of this process runs twice
        os.close(write)
        self.children[read] = (index, pid)

    def collect(self) -> None:
        """Read every child's outcome and reap it, handing its token on."""
        import pickle
        import selectors

        received = {read: bytearray() for read in self.children}
        with selectors.DefaultSelector() as selector:
            for read in self.children:
                selector.register(read, selectors.EVENT_READ)
            while self.children:
                for key, _events in selector.select():
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        received[key.fd] += chunk
                        continue
                    selector.unregister(key.fd)
                    os.close(key.fd)
                    index, pid = self.children.pop(key.fd)
                    _pid, status = os.waitpid(pid, 0)
                    data = received.pop(key.fd)
                    if data[:1] == _TOKEN:
                        os.write(self.tokens_w, _TOKEN)
                    try:
                        self.outcomes[index] = pickle.loads(data[1:])
                    except Exception:
                        self.outcomes[index] = ScenarioError(
                            f"scenario {self.specs[index].id} ended without a result "
                            f"(exit status {os.waitstatus_to_exitcode(status)})"
                        )


def _run_staged(specs: list[ScenarioSpec], out_root: Path, jobs: int) -> list[ScenarioResult]:
    """Run every spec, then move the files they wrote into ``out_root``; a
    scenario that fails leaves no file of any of them there. One scenario
    runs in this process; more run in forked ones (``_Runner``)."""
    out_root.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out_root.name}.", dir=out_root.parent))
    try:
        if len(specs) == 1:
            results = [_run_one(specs[0], staging, False)]
        else:
            results = _Runner(specs, staging).run(jobs)
        for path in sorted(staging.rglob("*")):
            if path.is_file():
                dest = out_root / path.relative_to(staging)
                dest.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, dest)
        return results
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def cmd_run(args: argparse.Namespace) -> int:
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
    try:
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
                       help="simulate at most N scenarios at once, in forked processes; "
                       "outputs are byte-identical to --jobs 1")
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
