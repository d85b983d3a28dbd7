#!/usr/bin/env python3
"""Fast self-check of the benchmark's own arithmetic.

    python3 bench/selfcheck.py

Checks, in a few seconds and without timing anything:

* self-time exclusion on hand-built nested spans, and on spans of worker
  threads that overlap the main thread's span waiting on them;
* false-alert, missed-injection and completeness accounting on a
  hand-built log;
* that the tracer's wrappers are all restored after a traced CLI run;
* that the seeded goose_storm config generator is deterministic.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import io
import json
import shutil
import sys
import time

import run
import tracer as tr
import workloads as wl

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def check_self_times() -> None:
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and d [5, 9]
    # (which holds e [6, 7] and f [6.5, 8], overlapping each other).
    spans = [
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 2, "c", 2.0, 3.0),
        (4, 1, "d", 5.0, 9.0),
        (5, 4, "e", 6.0, 7.0),
        (6, 4, "f", 6.5, 8.0),
        (7, 0, "root", 20.0, 21.0),  # a second, later call of the root
    ]
    got = tr.self_times(spans)
    expect(close(got["root"]["self_s"], 10 - 3 - 4 + 1), "root self time excludes direct children only")
    expect(close(got["root"]["total_s"], 11.0) and got["root"]["calls"] == 2, "calls and totals add up")
    expect(close(got["a"]["self_s"], 2.0), "a child's self time excludes its own child")
    expect(close(got["d"]["self_s"], 4 - 2), "overlapping children are counted once")
    expect(close(got["c"]["self_s"], 1.0), "a leaf's self time is its duration")
    expect(close(tr.covered(0, 10, [(-5, 2), (8, 15)]), 4.0), "coverage is clipped to the parent")

    # The main thread's span m [0, 10] loads l [0.5, 1], then waits on two
    # worker threads whose roots w1 [1, 6] (holding c [2, 3]) and w2 [2, 8]
    # overlap; x [20, 21] is a worker root that no main-thread span holds.
    main = [(1, 0, "m", 0.0, 10.0), (2, 1, "l", 0.5, 1.0)]
    workers = [
        (3, 0, "w1", 1.0, 6.0),
        (4, 3, "c", 2.0, 3.0),
        (5, 0, "w2", 2.0, 8.0),
        (6, 0, "x", 20.0, 21.0),
    ]
    adopted = tr.adopt(main, workers)
    expect([s[1] for s in adopted] == [1, 3, 1, 0], "worker roots are adopted by the span holding them")
    got = tr.self_times(main + adopted)
    expect(close(got["m"]["self_s"], 10 - 7.5), "overlapping worker spans leave the waiting span's self time")
    expect(close(got["w1"]["self_s"], 4.0), "a worker root keeps its own self time")

    # The same on a real pool: the waiting span's self time is far below
    # the workers' sleeps.
    tracer = tr.Tracer()
    sleep = tracer._wrap("sleep", time.sleep, None)

    def wait_on_pool():
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(sleep, 0.2), pool.submit(sleep, 0.2)]:
                f.result()

    tracer._wrap("wait", wait_on_pool, None)()
    got = tr.self_times(tracer.spans())
    expect(got["sleep"]["calls"] == 2 and got["wait"]["total_s"] >= 0.2,
           "a traced pool records the waiting span and both workers")
    expect(got["wait"]["self_s"] < 0.1, "a traced pool's waiting span excludes the workers' time")


def check_log_accounting() -> None:
    def line(seq, kind, digest=None, note=None):
        return json.dumps({"t": seq, "seq": seq, "kind": kind, "node": "ids", "port": 3,
                           "digest": digest, "note": note}, separators=(",", ":"))

    lines = [
        line(0, "ControlMsg", note="run scenario=attack1 with_ids=1"),
        line(1, "FrameArrival", "aa", "injected"),
        line(2, "AlertRaised", "aa", "rule=R1 gocb=x"),
        line(3, "AlertRaised", "bb", "rule=R1 gocb=x"),
        line(4, "FrameArrival", "cc", "injected_by_name_only"),
        line(5, "AlertRaised", "cc", "rule=R6 gocb=x"),
        line(6, "FrameArrival", "dd", "injected"),
        line(7, "ControlMsg", note="run_complete events=8"),
    ]
    summary = wl.summarize_log(("\n".join(lines) + "\n").encode())
    expect(summary.events == 8 and summary.complete, "a complete log is complete")
    expect(summary.injected == 2, "only events noted exactly 'injected' count as injected")
    expect(summary.alerts == 3 and summary.false_alerts == 2, "alerts on non-injected digests are false")
    expect(summary.missed == 1, "an injected digest no alert carries is missed")
    truncated = wl.summarize_log(("\n".join(lines[:-2]) + "\n").encode())
    expect(not truncated.complete, "a log without its completion record is incomplete")
    miscounted = wl.summarize_log(("\n".join(lines[1:]) + "\n").encode())
    expect(not miscounted.complete, "a completion record with the wrong count is incomplete")


def check_wrappers_restored() -> None:
    sys.path.insert(0, str(run.SRC))
    import gridshield.cli as cli
    import gridshield.netsim as netsim

    originals = {name: getattr(sys.modules[mod], attr) for name, mod, attr, _ in tr.FUNCTIONS}
    run_until = netsim.Network.__dict__["run_until"]
    from_jsonl = netsim.EventLog.__dict__["from_jsonl"]
    out = run.WORK / "selfcheck"
    shutil.rmtree(out, ignore_errors=True)
    tracer = tr.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--scenario", "baseline", "--override", "duration_ms=50",
                             "--out", str(out)])
            replayed = cli.main(["replay", str(out / "events.jsonl")])
    finally:
        tracer.restore()
        shutil.rmtree(out, ignore_errors=True)
    names = {name for name, row in tr.self_times(tracer.spans()).items() if row["calls"]}
    expect(code in (0, 1) and replayed == code, "the traced run and its replay agree")
    expect({"cli.main", "netsim.run_until", "codec.encode_sv", "netsim.from_jsonl"} <= names,
           "the traced run recorded spans in each wrapped layer")
    expect(tracer.counts().get("netsim.run_until", 0) > 0, "the traced run counted engine events")
    expect(not tr.leftover_wrappers(), "no wrapper is left bound after restore")
    expect(
        all(getattr(sys.modules[mod], attr) is originals[name] for name, mod, attr, _ in tr.FUNCTIONS)
        and netsim.Network.__dict__["run_until"] is run_until
        and netsim.EventLog.__dict__["from_jsonl"] is from_jsonl,
        "every original function and method is back in place",
    )


def check_storm_determinism() -> None:
    configs = run.SRC / "gridshield" / "configs"
    first = wl.storm_configs(7, configs)
    expect(first == wl.storm_configs(7, configs), "the same seed gives the same configs")
    expect(any(wl.storm_configs(s, configs) != first for s in range(8, 12)),
           "other seeds give other configs")
    import yaml

    for seed in range(20):
        tree = yaml.safe_load(wl.storm_configs(seed, configs)["a2.yaml"])
        pied = tree["pied"]
        if not pied["toggle_point_at_ms"] < pied["silence_at_ms"] < tree["injection"]["times_ms"][0]:
            expect(False, f"seed {seed} keeps attack2's toggle, silence, burst order")
            return
    expect(True, "every seed keeps attack2's toggle, silence, burst order")


def main() -> int:
    check_self_times()
    check_log_accounting()
    check_wrappers_restored()
    check_storm_determinism()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
