#!/usr/bin/env python3
"""Narrated run of the station-bus switch injection attack.

Stale replays are generated inside the station-bus switch on its unwired
port 6. Watch the injected digest fan out to both monitor feeds, the
alerts fire, the verdict land, and mitigation strip the inspection device
down to its delivery and direct-relay ports.

Run:  python3 demos/04_attack_on_station_bus.py
"""

from gridshield.scenarios import load_scenario, run_scenario

result = run_scenario(load_scenario("attack1"))
injected = next(ev for ev in result.log if ev.note == "injected")
digest = injected.digest

print(f"tracked injected digest: {digest}\n")
print("the injected frame's journey (first instance):")
seen = set()
for ev in result.log:
    if ev.time < injected.time:
        continue
    if ev.digest == digest and ev.kind in ("FrameArrival", "FrameDeparture"):
        key = (ev.kind, ev.node, ev.port)
        if key in seen:
            continue
        seen.add(key)
        arrow = "->" if ev.kind == "FrameArrival" else "<-"
        print(f"  t={ev.time / 1000:9.3f}ms  {arrow} {ev.node} port {ev.port}")
    if len(seen) >= 8:
        break

print("\ndetection, verdict and mitigation:")
for ev in result.log:
    if ev.kind == "AlertRaised" and ev.time <= injected.time + 3_000:
        print(f"  t={ev.time / 1000:9.3f}ms  alert {ev.note} (port {ev.port})")
    elif ev.kind == "VerdictReached":
        print(f"  t={ev.time / 1000:9.3f}ms  verdict {ev.note}")
    elif ev.kind == "PortStateChange" and ev.note == "disabled":
        print(f"  t={ev.time / 1000:9.3f}ms  disabled {ev.node} port {ev.port}")

print(f"\nresult: pass={result.passed}")
print(f"  alerts={result.alerts}, injected={result.injected} (all alerted: {result.injected_alerted == result.injected})")
print(f"  enabled inspection ports afterwards: {sorted(result.enabled_ids_ports)}")
print("  the relay's direct feed (port 6) and the delivery port (5) keep")
print("  protection traffic flowing around the quarantined switch.")
