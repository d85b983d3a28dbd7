#!/usr/bin/env python3
"""The fault-to-trip delay budget, with and without the inspection module.

Runs the baseline protection chain twice and prints the measured
per-component delays. The totals are exact: 23.000 ms without the module,
27.000 ms with it, the 4 ms difference being the inspection term (under a
quarter cycle at 60 Hz, so protection timing is preserved).

Run:  python3 demos/03_trip_timing_budget.py
"""

from gridshield.delay import measure
from gridshield.scenarios import load_scenario, run_scenario

LABELS = {
    "t_mu": "merging unit internal",
    "t_sv": "sampled-value links",
    "t_sp": "process-bus switch",
    "t_pied": "relay protection computation",
    "t_ss": "station-bus switch",
    "t_gs": "GOOSE links",
    "t_oc": "test set internal / breaker",
    "t_ids": "inspection module",
}

without = measure(run_scenario(load_scenario("baseline")).log)
with_module = measure(run_scenario(load_scenario("baseline", {"with_ids": True})).log)

print(f"{'component':<40}{'without':>10}{'with':>10}")
for name, label in LABELS.items():
    a = without.components[name] / 1000
    b = with_module.components[name] / 1000
    print(f"{name} ({label})".ljust(40) + f"{a:>8.3f}ms{b:>8.3f}ms")
print("-" * 60)
print("total".ljust(40) + f"{without.total_us / 1000:>8.3f}ms{with_module.total_us / 1000:>8.3f}ms")
print()
added = with_module.total_us - without.total_us
print(f"inspection adds {added / 1000:.3f} ms, quarter cycle at 60 Hz is 4.167 ms")
print(f"budget checks (with module): {with_module.checks}")
