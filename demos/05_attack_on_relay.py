#!/usr/bin/env python3
"""Narrated run of the compromised-relay attack.

After a clean warm-up the relay's own publisher goes silent and stale
replays leave its station-bus interface. Every loop-return sighting is
the inspector's own echo, so the relay is convicted from the main feed
alone and the two switch ports facing it are disabled.

Run:  python3 demos/05_attack_on_relay.py
"""

from gridshield import substation as sub
from gridshield.scenarios import load_scenario, run_scenario

result = run_scenario(load_scenario("attack2"))

print("observations that drove the verdict (from the log):")
for ev in result.log:
    if ev.kind == "AlertRaised":
        print(f"  t={ev.time / 1000:9.3f}ms  port {ev.port}  {ev.note}")
    elif ev.kind == "VerdictReached":
        print(f"  t={ev.time / 1000:9.3f}ms  {ev.note}")
        break

print("\nmitigation and its effect:")
cutoff = None
for ev in result.log:
    if ev.kind == "PortStateChange" and ev.note == "disabled":
        cutoff = ev.time
        print(f"  t={ev.time / 1000:9.3f}ms  disabled {ev.node} port {ev.port}")

dropped = sum(
    1 for ev in result.log
    if ev.kind == "Drop" and ev.time > cutoff and ev.node == sub.PROCESS_BUS
)
tap = sum(
    1 for ev in result.log
    if ev.kind == "FrameArrival" and ev.time > cutoff
    and (ev.node, ev.port) == (sub.IDS, sub.IDS_SV_TAP)
)
at_relay = sum(
    1 for ev in result.log
    if ev.kind == "FrameArrival" and ev.time > cutoff + 2_000 and ev.node == sub.PIED
)
print(f"\nafter mitigation: {dropped} sampled-value frames dropped at the dead port,")
print(f"{tap} still delivered to the inspection tap, {at_relay} reached the relay.")
print(f"\nresult: pass={result.passed}, verdict={result.verdict_culprit}, "
      f"evidence ports={result.verdict_evidence_ports}")
