"""gridshield: deterministic digital-substation network simulator.

A small library that reproduces GOOSE-injection attacks on an IEC 61850
substation network, the localization decision of an IDS-integrated SDN
device, the port-disabling mitigation, and the end-to-end trip-delay
budget, all on a deterministic discrete-event engine.
"""

# bench/tracer.py and bench/selfcheck.py look gridshield.util up in
# sys.modules; ROADMAP item 6 retires both the module and this line.
from gridshield import util as _util  # noqa: F401
