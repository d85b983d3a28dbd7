#!/usr/bin/env python3
"""The gridshield benchmark.

    python3 bench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0

Runs one workload (fixtures, replay or goose_storm; see bench/NOTES.md)
from the root of a checkout and prints, as its last stdout line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics: each pass runs the
workload's ``gridshield`` CLI invocations in child processes built from the
checkout's ``src``, and the metrics are medians over the passes made in
``--seconds``. ``--trace 1`` gives the per-layer metrics: it runs the same
argv in-process through ``gridshield.cli.main``, alternating untraced and
traced passes, and reports medians over the traced passes plus the tracing
overhead. It also saves a cProfile top-10 table from one more, untimed pass.

Every run checks the program's outputs; each failed check is printed with
its reason. Full results, the log-identity report and the profile go to
``.bench_work/results/``. ``--workload all`` makes both runs of every
workload. The workloads, the metrics reported on the result line and their
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import functools
import io
import json
import os
import pstats
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = WORK / "results"

# Set-up children run before every pass, so that set-up and pass samples
# are spread over the same stretch of time.
SETUP_PER_PASS = 2
MIN_PASSES = 3

# Layers whose self time and call count the full per-layer table reports.
LAYERS = tuple(f[0] for f in tr.FUNCTIONS) + tuple(m[0] for m in tr.METHODS)


@functools.cache
def spec() -> dict:
    """BENCHMARK.json: the workloads, and the metrics each mode reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

SETUP_CODE = """
import sys
import gridshield
import gridshield.cli
from gridshield.netsim import build_topology
from gridshield.scenarios import load_scenario
for name in sys.argv[1:]:
    build_topology(load_scenario(name).topology())
print(gridshield.__file__)
"""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], logs: Path) -> Child:
    """Run ``python3 <args>``; wall from spawn to reap, CPU and RSS from wait4."""
    logs.mkdir(parents=True, exist_ok=True)
    out_path, err_path = logs / "stdout.txt", logs / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def cli_args(argv: list[str]) -> list[str]:
    return ["-m", "gridshield.cli", *argv]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    codes: list[int]
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    output_bytes: int = 0
    stderr: list[str] = field(default_factory=list)


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_pass(prep: wl.Prepared, out: Path, logs: Path) -> Pass:
    """One pass: each invocation in its own child, one after the other."""
    fresh(out)
    children = [spawn(cli_args(argv), logs / str(i)) for i, argv in enumerate(prep.argvs(out))]
    return Pass(
        codes=[c.code for c in children],
        wall_s=sum(c.wall_s for c in children),
        cpu_s=sum(c.cpu_s for c in children),
        rss_mb=max(c.rss_mb for c in children),
        output_bytes=wl.output_bytes(out),
        stderr=[c.stderr for c in children],
    )


def inprocess_pass(prep: wl.Prepared, out: Path, modules) -> Pass:
    """The set-up's config loading, then the pass's argv through cli.main.

    Names are looked up on the modules at call time, so an installed
    tracer sees these calls.
    """
    cli, netsim, scenarios = modules
    fresh(out)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for name in prep.configs:
            netsim.build_topology(scenarios.load_scenario(name).topology())
        codes = [cli.main(argv) for argv in prep.argvs(out)]
    return Pass(codes=codes, wall_s=time.perf_counter() - start)


def summaries_of(out: Path) -> dict[str, wl.LogSummary]:
    return {rel: wl.summarize_log(p.read_bytes()) for rel, p in wl.event_logs(out).items()}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / f"run-{workload}-{seed}-{int(trace)}-{os.getpid()}"
        self.checks = wl.Checks()
        self._n = 0

    def run_cli(self, argv: list[str]) -> int:
        """An untimed CLI invocation, checked like the timed ones."""
        self._n += 1
        child = spawn(cli_args(argv), self.work / "aux" / str(self._n))
        wl.check_invocation(self.checks, argv, child.code, child.stderr)
        return child.code

    def setup_samples(self, prep: wl.Prepared) -> list[float]:
        """Fresh children that import the CLI and load the workload's configs."""
        walls = []
        for i in range(SETUP_PER_PASS):
            child = spawn(["-c", SETUP_CODE, *prep.configs], self.work / "setup" / str(i))
            self.checks.expect(child.code == 0, f"set-up child exited {child.code}")
            imported = Path(child.stdout.strip() or "/").resolve()
            self.checks.expect(
                imported.is_relative_to(SRC), f"gridshield imported from {imported}, not {SRC}"
            )
            walls.append(child.wall_s)
        return walls

    def check_first(self, prep: wl.Prepared, out: Path, first: Pass) -> dict[str, wl.LogSummary]:
        for argv, code, err in zip(prep.argvs(out), first.codes, first.stderr):
            wl.check_invocation(self.checks, argv, code, err)
        summaries = summaries_of(out)
        try:
            wl.check_pass(self.checks, prep, out, first.codes, summaries, self.run_cli)
        except (OSError, ValueError, KeyError) as exc:
            self.checks.expect(False, f"output check could not run: {exc!r}")
        return summaries

    def check_same_logs(self, out: Path, reference: dict[str, str], label: str) -> None:
        hashes = wl.log_hashes(out)
        self.checks.expect(
            hashes == reference,
            f"{label}: event logs differ from the first pass's",
        )

    def execute(self) -> tuple[dict, dict]:
        """Returns (metrics for the result line, full report)."""
        fresh(self.work)
        prep = wl.prepare(self.workload, self.seed, ROOT, self.work, self.run_cli)
        if self.trace:
            return self.traced(prep)
        return self.untraced(prep)

    # -- end to end ------------------------------------------------------

    def untraced(self, prep: wl.Prepared) -> tuple[dict, dict]:
        out = self.work / "out"
        setup: list[float] = []
        passes: list[Pass] = []
        summaries: dict[str, wl.LogSummary] = {}
        reference: dict[str, str] = {}
        deadline = time.perf_counter() + self.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            setup += self.setup_samples(prep)
            p = child_pass(prep, out, self.work / "children")
            if not passes:
                summaries = self.check_first(prep, out, p)
                reference = {rel: s.sha256 for rel, s in summaries.items()}
            else:
                for argv, code, err in zip(prep.argvs(out), p.codes, p.stderr):
                    wl.check_invocation(self.checks, argv, code, err)
                self.check_same_logs(out, reference, f"pass {len(passes) + 1}")
            passes.append(p)
        events = sum(s.events for s in summaries.values())
        alerts = sum(s.alerts for s in summaries.values())
        injected = sum(s.injected for s in summaries.values())
        false_alerts = sum(s.false_alerts for s in summaries.values())
        self.checks.expect(injected > 0, "no injected frames in the workload's logs")
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median([p.wall_s for p in passes]),
            "cpu_s": statistics.median([p.cpu_s for p in passes]),
            "events_per_s": statistics.median([events / p.wall_s for p in passes]),
            "peak_rss_mb": statistics.median([p.rss_mb for p in passes]),
            "output_bytes": statistics.median_low([p.output_bytes for p in passes]),
            "alerts_per_injected": alerts / injected if injected else 0.0,
        }
        report = {
            "samples": {"setup": len(setup), "passes": len(passes)},
            "wall_s": [p.wall_s for p in passes],
            "setup_s": setup,
            "false_alerts": false_alerts,
            "error_rate": len(self.checks.failures) / max(self.checks.attempted, 1),
            "logs": {rel: vars(s) for rel, s in summaries.items()},
        }
        return metrics, report

    # -- per layer -------------------------------------------------------

    def traced(self, prep: wl.Prepared) -> tuple[dict, dict]:
        sys.path.insert(0, str(SRC))
        import gridshield
        import gridshield.cli as cli
        import gridshield.netsim as netsim
        import gridshield.scenarios as scenarios

        self.checks.expect(
            Path(gridshield.__file__).resolve().is_relative_to(SRC),
            f"gridshield imported from {gridshield.__file__}, not the checkout",
        )
        modules = (cli, netsim, scenarios)
        out = self.work / "out"
        ref_pass = child_pass(prep, out, self.work / "children")
        summaries = self.check_first(prep, out, ref_pass)
        reference = {rel: s.sha256 for rel, s in summaries.items()}

        untraced: list[float] = []
        rows: list[dict] = []

        def untraced_pass() -> None:
            p = inprocess_pass(prep, out, modules)
            self.checks.expect(p.codes == ref_pass.codes, f"in-process exit codes {p.codes}")
            untraced.append(p.wall_s)

        def traced_pass() -> None:
            tracer = tr.Tracer()
            tracer.install()
            try:
                p = inprocess_pass(prep, out, modules)
            finally:
                tracer.restore()
            leftover = tr.leftover_wrappers()
            self.checks.expect(not leftover, f"tracer wrappers left bound: {leftover}")
            self.checks.expect(p.codes == ref_pass.codes, f"traced exit codes {p.codes}")
            self.check_same_logs(out, reference, f"traced pass {len(rows) + 1}")
            rows.append(layer_row(tracer, p.wall_s))

        deadline = time.perf_counter() + self.seconds
        while len(rows) < MIN_PASSES or time.perf_counter() < deadline:
            # alternate the order, so that neither side always goes first
            order = (untraced_pass, traced_pass) if len(rows) % 2 == 0 else (traced_pass, untraced_pass)
            for one_pass in order:
                one_pass()
        false_alerts = sum(s.false_alerts for s in summaries.values())
        metrics = {}
        for key in rows[0]:
            metrics[key] = statistics.median([r[key] for r in rows])
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["ids.false_alerts"] = false_alerts
        profile = self.profile(prep, out, modules)
        report = {
            "samples": {"traced_passes": len(rows), "untraced_passes": len(untraced)},
            "profile": profile,
            "logs": {rel: vars(s) for rel, s in summaries.items()},
        }
        return metrics, report

    def profile(self, prep: wl.Prepared, out: Path, modules) -> str:
        """cProfile top-10 by self time of one untimed in-process pass.

        cProfile sees only the thread that enables it, so each scenario run
        on a ``--jobs`` worker thread gets a profiler of its own. When there
        are worker profiles, the main thread's, which mostly waits on the
        pool, is left out of the table.
        """
        cli = modules[0]
        profiles = []
        run_one = cli._run_one

        def profiled_run_one(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                return run_one(*args, **kwargs)
            prof = cProfile.Profile()
            try:
                return prof.runcall(run_one, *args, **kwargs)
            finally:
                profiles.append(prof)

        main_prof = cProfile.Profile()
        cli._run_one = profiled_run_one
        try:
            main_prof.runcall(inprocess_pass, prep, out, modules)
        finally:
            cli._run_one = run_one
        text = io.StringIO()
        stats = pstats.Stats(*(profiles or [main_prof]), stream=text)
        stats.sort_stats("tottime").print_stats(10)
        return text.getvalue()


def layer_row(tracer: tr.Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    agg = tr.self_times(tracer.spans())
    counts = tracer.counts()

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    events = counts.get("netsim.run_until", 0)
    written = counts.get("netsim.to_jsonl", 0)
    parsed = counts.get("netsim.from_jsonl", 0)
    row: dict[str, float] = {}
    for name in LAYERS:
        row[f"{name}.calls"] = get(name, "calls")
        row[f"{name}.self_s"] = get(name, "self_s")
    row["netsim.events"] = events
    row["netsim.us_per_event"] = per(get("netsim.run_until", "self_s"), events, 1e6)
    row["netsim.to_jsonl.events"] = written
    row["netsim.to_jsonl.us_per_event"] = per(get("netsim.to_jsonl", "self_s"), written, 1e6)
    row["netsim.from_jsonl.events"] = parsed
    row["netsim.from_jsonl.us_per_event"] = per(get("netsim.from_jsonl", "self_s"), parsed, 1e6)
    row["util.frame_digest.per_event"] = per(get("util.frame_digest", "calls"), events)
    row["ids.alerts"] = counts.get("ids.inspect", 0)
    row["ids.alert_ratio"] = per(row["ids.alerts"], get("ids.inspect", "calls"))
    row["trace.traced_wall_s"] = wall_s
    return row


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def unit_of(name: str) -> str:
    for row in spec()["end_to_end"] + spec()["per_layer"]:
        if row["name"] == name:
            return row["unit"]
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_event"):
        return "us"
    return "count"


def print_report(run: Run, metrics: dict, report: dict) -> None:
    why = next(w["why"] for w in spec()["workloads"] if w["name"] == run.workload)
    print(f"workload {run.workload} seed {run.seed} trace {int(run.trace)}: {why}")
    print(f"samples: {report['samples']}")
    print("log identity (sha256, events, alerts, false alerts):")
    for rel, s in report["logs"].items():
        print(f"  {rel}: {s['sha256']} {s['events']} events, "
              f"{s['alerts']} alerts, {s['false_alerts']} false")
    if run.trace:
        print("per-layer metrics (medians over traced passes):")
        width = max(len(k) for k in metrics)
        for key in sorted(metrics):
            print(f"  {key:<{width}}  {metrics[key]:.6g} {unit_of(key)}")
        print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per pass "
              f"({metrics['trace.traced_wall_s']:.4f} s traced, "
              f"{metrics['trace.untraced_wall_s']:.4f} s untraced)")
        print("cProfile top 10 by self time (one untimed pass):")
        print(report["profile"])
    else:
        print("end-to-end metrics (medians over passes):")
        for row in spec()["end_to_end"]:
            print(f"  {row['name']:<20} {metrics[row['name']]:.6g} {row['unit']}")
        print(f"  {'false_alerts':<20} {report['false_alerts']} count")
        print(f"  {'error_rate':<20} {report['error_rate']:.6g} failed/attempted")
    for reason in run.checks.failures:
        print(f"FAILED CHECK: {reason}")
    print(f"checks: {run.checks.attempted} attempted, {len(run.checks.failures)} failed")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> bool:
    """One run: measure, check, save the report, print it and the result line."""
    run = Run(workload, seed, seconds, trace)
    try:
        metrics, report = run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    report.update(
        workload=workload, seed=seed, trace=int(trace), metrics=metrics,
        checks={"attempted": run.checks.attempted, "failures": run.checks.failures},
    )
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if trace:
        (RESULTS / f"{workload}-seed{seed}-profile.txt").write_text(report["profile"])
    print_report(run, metrics, report)
    line = {
        "correct": not run.checks.failures,
        "attempted": run.checks.attempted,
        "failed": len(run.checks.failures),
        "metrics": {
            row["name"]: {"value": metrics[row["name"]], "unit": row["unit"]}
            for row in spec()["per_layer" if trace else "end_to_end"]
        },
    }
    print(json.dumps(line), flush=True)
    return line["correct"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"),
                        help="'all' runs every workload untraced, then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gridshield" / "cli.py").is_file():
        print(f"error: no gridshield sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        return 0
    correct = [
        run_workload(workload, args.seed, args.seconds, trace)
        for workload in wl.WORKLOADS
        for trace in (False, True)
    ]
    return 0 if all(correct) else 1

if __name__ == "__main__":
    sys.exit(main())
