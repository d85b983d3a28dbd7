"""Acceptance gate: the eight exit criteria, one test each.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in captured output on failure). Tolerances are pinned here: the baseline
fault-to-trip latency must be exactly 23.000 ms, the with-module latency
at most 27.000 ms, the added inspection delay at most 4.000 ms and at
most a quarter cycle at 60 Hz (4.167 ms), and additivity must hold to the
microsecond.
"""

from __future__ import annotations

import random
import time

import pytest

from gridshield import substation as sub
from gridshield.cli import main as cli_main
from gridshield.codec import (
    CodecError,
    GooseFrame,
    MacAddress,
    RawFrame,
    SvFrame,
    decode_goose,
    decode_sv,
    encode_goose,
    encode_sv,
)
from gridshield.delay import measure
from gridshield.ids import ObservationRecord, Origin, localize
from gridshield.netsim import EventLog
from gridshield.scenarios import (
    load_scenario,
    run_scenario,
    score,
    verify_forwarding_trace,
)
from gridshield.sdn import FlowEntry, match_frame
from tests.test_codec import golden_goose_frame, hand_assembled_goose_bytes

RUNTIME_CAP_S = 5.0


def _report(n: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def attack1():
    t0 = time.perf_counter()
    result = run_scenario(load_scenario("attack1"))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def attack2():
    t0 = time.perf_counter()
    result = run_scenario(load_scenario("attack2"))
    return result, time.perf_counter() - t0


def test_criterion_1_scenario1_reproduction(attack1):
    result, wall = attack1
    ok = (
        result.injected == 5
        and result.injected_alerted == result.injected
        and result.verdict_culprit == Origin.STATION_BUS_SWITCH.value
        and {sub.IDS_MAIN_FEED, sub.IDS_LOOP_RETURN} <= set(result.verdict_evidence_ports)
        and set(result.enabled_ids_ports) == {5, 6}
        and result.passed  # includes: no abnormal at the breaker post-mitigation
        and wall < RUNTIME_CAP_S
    )
    _report(
        1,
        ok,
        f"attack on the station-bus switch: every injected frame alerted, "
        f"verdict {result.verdict_culprit} with evidence at ports "
        f"{result.verdict_evidence_ports}, enabled inspection ports "
        f"{sorted(result.enabled_ids_ports)}, clean breaker after mitigation, "
        f"runtime {wall:.2f}s",
    )


def test_criterion_2_scenario2_reproduction(attack2):
    result, wall = attack2
    ok = (
        result.verdict_culprit == Origin.PIED.value
        and sub.IDS_MAIN_FEED in result.verdict_evidence_ports
        and result.disabled_ports.get(sub.STATION_BUS) == (sub.SBS_PIED,)
        and result.disabled_ports.get(sub.PROCESS_BUS) == (sub.PBS_PIED,)
        and result.passed  # includes isolation + healthy-traffic liveness
        and wall < RUNTIME_CAP_S
    )
    _report(
        2,
        ok,
        f"attack on the relay: verdict {result.verdict_culprit} from the main feed, "
        f"switch ports {dict(result.disabled_ports)} disabled, relay isolated, "
        f"healthy traffic still delivered, runtime {wall:.2f}s",
    )


def test_criterion_3_forwarding_traces(attack1, attack2):
    ok1 = verify_forwarding_trace(attack1[0].log, sub.MONITOR_LOOP)
    ok2 = verify_forwarding_trace(attack2[0].log, sub.MONITOR_LOOP)
    _report(3, ok1 and ok2, "both attack logs contain the expected hop sequences in order")


def test_criterion_4_delay_budget():
    base = measure(run_scenario(load_scenario("baseline")).log)
    withm = measure(run_scenario(load_scenario("baseline", {"with_ids": True})).log)
    added = withm.total_us - base.total_us
    ok = (
        base.total_us == 23_000  # exact, +/- 0
        and withm.total_us <= 27_000
        and added <= 4_000
        and added <= 4_167  # quarter cycle at 60 Hz
        and sum(base.components.values()) == base.total_us
        and sum(withm.components.values()) == withm.total_us
    )
    _report(
        4,
        ok,
        f"fault-to-trip {base.total_us / 1000:.3f} ms without the module, "
        f"{withm.total_us / 1000:.3f} ms with it (added {added / 1000:.3f} ms); "
        f"component sums exact",
    )


def test_criterion_5_codec_properties():
    rng = random.Random(0x61850)
    printable = [chr(c) for c in range(0x20, 0x7F)]

    def random_goose():
        return GooseFrame(
            dst=MacAddress(rng.randbytes(6)),
            src=MacAddress(rng.randbytes(6)),
            app_id=rng.randrange(0x10000),
            gocb_ref="".join(rng.choices(printable, k=rng.randrange(40))),
            time_allowed_to_live=rng.randrange(1, 2**32),
            st_num=rng.randrange(1, 2**32),
            sq_num=rng.randrange(2**32),
            test=rng.random() < 0.5,
            timestamp=rng.randrange(2**64),
            dataset_ref="".join(rng.choices(printable, k=rng.randrange(40))),
            all_data=tuple(rng.random() < 0.5 for _ in range(rng.randrange(1, 24))),
        )

    def random_sv():
        return SvFrame(
            dst=MacAddress(rng.randbytes(6)),
            src=MacAddress(rng.randbytes(6)),
            sv_id="".join(rng.choices(printable, k=rng.randrange(24))),
            smp_cnt=rng.randrange(0x10000),
            currents=tuple(rng.randrange(-(2**31), 2**31) for _ in range(3)),
            voltages=tuple(rng.randrange(-(2**31), 2**31) for _ in range(3)),
        )

    roundtrips = 0
    for _ in range(5_000):
        frame = random_goose()
        roundtrips += decode_goose(RawFrame(encode_goose(frame).data)) == frame
    for _ in range(5_000):
        frame = random_sv()
        roundtrips += decode_sv(RawFrame(encode_sv(frame).data)) == frame

    crashes = 0
    for _ in range(10_000):
        blob = RawFrame(rng.randbytes(rng.randrange(0, 120)))
        try:
            decode_goose(blob)
        except CodecError:
            pass
        except Exception:
            crashes += 1
        try:
            decode_sv(blob)
        except CodecError:
            pass
        except Exception:
            crashes += 1

    golden_stable = all(
        encode_goose(golden_goose_frame()).data == hand_assembled_goose_bytes()
        for _ in range(3)
    )
    ok = roundtrips == 10_000 and crashes == 0 and golden_stable
    _report(
        5,
        ok,
        f"{roundtrips}/10000 randomized roundtrips identical, "
        f"{crashes} crashes over 10000 random byte decodes, golden bytes stable",
    )


def test_criterion_6_flow_table_semantics():
    rng = random.Random(0x0F10)
    raw = encode_goose(golden_goose_frame())

    def random_table():
        return tuple(
            FlowEntry(
                rng.randrange(1, 9),
                rng.choice([None, 0x88B8, 0x0800]),
                tuple(rng.randrange(1, 9) for _ in range(rng.randrange(0, 4))),
            )
            for _ in range(rng.randrange(1, 8))
        )

    cases = 2_000
    distinct_ok = purity_ok = 0
    for _ in range(cases):
        table = random_table()
        ingress = rng.randrange(1, 9)
        first = match_frame(table, raw, ingress)
        second = match_frame(table, raw, ingress)
        purity_ok += first == second
        ports = first or ()
        distinct_ok += len(ports) == len(set(ports))
    ok = distinct_ok == purity_ok == cases
    _report(
        6,
        ok,
        f"{cases} randomized tables: one emission per distinct forward port "
        f"({distinct_ok}), pure matching ({purity_ok})",
    )


def test_criterion_7_ids_soundness(attack1, attack2):
    soak = run_scenario(
        load_scenario(
            "baseline",
            {
                "with_ids": True,
                "duration_ms": 60_000,
                "samples_per_second": 200,
                "fault_at_ms": 30_000,
            },
        )
    )
    recall_1 = attack1[0].recall
    recall_2 = attack2[0].recall
    inconclusive_ok = localize([ObservationRecord(sub.IDS_PIED_FEED, False, 7)]) is None
    ok = soak.alerts == 0 and recall_1 == 1.0 and recall_2 == 1.0 and inconclusive_ok
    _report(
        7,
        ok,
        f"60 simulated seconds of legal-only traffic: {soak.alerts} alerts; "
        f"recall {recall_1:.2f}/{recall_2:.2f} on the attack fixtures; "
        f"neither-row evidence is inconclusive",
    )


def test_criterion_8_determinism_and_replay(tmp_path):
    identical = True
    for sid in ("baseline", "attack1", "attack2"):
        first = run_scenario(load_scenario(sid)).log.to_jsonl()
        second = run_scenario(load_scenario(sid)).log.to_jsonl()
        identical = identical and first == second

    live_dir = tmp_path / "live"
    assert cli_main(["run", "--scenario", "attack2", "--out", str(live_dir)]) == 0
    saved = EventLog.from_jsonl((live_dir / "events.jsonl").read_bytes())
    replayed = score(saved)
    live_result = (live_dir / "result.json").read_text()
    replay_ok = (
        replayed.verdict_culprit == Origin.PIED.value
        and replayed.to_json() + "\n" == live_result
        and cli_main(["replay", str(live_dir / "events.jsonl")]) == 0
    )
    ok = identical and replay_ok
    _report(
        8,
        ok,
        "byte-identical logs across repeated runs; replay reproduces the live verdict",
    )
