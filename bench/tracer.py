"""Span tracing of gridshield's layers, from outside the program.

``Tracer.install`` wraps each layer's public functions by rebinding the
name in every ``gridshield`` module that holds it (the defining module and
each module that imported it by name), and wraps methods on their class.
``Tracer.restore`` puts every original back. Nothing in the program is
edited.

A span is ``(span_id, parent_id, name, start, end)``. Stacks are per
thread, because ``gridshield run --jobs N`` runs scenarios on a thread
pool, so a span's parent is the innermost open span of its own thread. A
worker thread's outermost spans have no parent there; ``adopt`` gives each
the main-thread span that was waiting on it, so the pool's work is not
counted as that span's self time. Spans and counts are kept in memory and
reduced once the traced pass ends.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# (span name, module, attribute, count) for module-level functions; the
# count, if any, maps (args, result) to a number added under ``name``.
FUNCTIONS = (
    ("cli.main", "gridshield.cli", "main", None),
    ("cli.write_outputs", "gridshield.cli", "_write_outputs", None),
    ("scenarios.load_scenario", "gridshield.scenarios", "load_scenario", None),
    ("scenarios.run_scenario", "gridshield.scenarios", "run_scenario", None),
    ("scenarios.score", "gridshield.scenarios", "score", None),
    ("delay.measure", "gridshield.delay", "measure", None),
    ("netsim.build_topology", "gridshield.netsim", "build_topology", None),
    ("util.frame_digest", "gridshield.util", "frame_digest", None),
    ("codec.encode_sv", "gridshield.codec", "encode_sv", None),
    ("codec.decode_sv", "gridshield.codec", "decode_sv", None),
    ("codec.encode_goose", "gridshield.codec", "encode_goose", None),
    ("codec.decode_goose", "gridshield.codec", "decode_goose", None),
    ("sdn.match_frame", "gridshield.sdn", "match_frame", None),
    ("ids.inspect", "gridshield.ids", "inspect", lambda args, result: len(result[1])),
    ("ids.localize", "gridshield.ids", "localize", None),
)


# (span name, module, class, method, count) for methods. The counts are
# events: in the log when the engine stops, written, and parsed.
METHODS = (
    ("netsim.run_until", "gridshield.netsim", "Network", "run_until",
     lambda args, result: len(args[0].log)),
    ("netsim.to_jsonl", "gridshield.netsim", "EventLog", "to_jsonl",
     lambda args, result: len(args[0])),
    ("netsim.from_jsonl", "gridshield.netsim", "EventLog", "from_jsonl",
     lambda args, result: len(result)),
)


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def adopt(main_spans, worker_spans) -> list:
    """``worker_spans`` with each root given the innermost main-thread span
    whose interval holds it, if any.

    The main thread opens the pool inside such a span and blocks in it
    until the workers finish, so that span caused the worker's work.
    """
    out = []
    for sid, parent, name, start, end in worker_spans:
        if not parent:
            holders = [s for s in main_spans if s[3] <= start and end <= s[4]]
            if holders:
                parent = max(holders, key=lambda s: s[3])[0]
        out.append((sid, parent, name, start, end))
    return out


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, and self seconds.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.
    """
    children = defaultdict(list)
    for _sid, parent, _name, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = {}
    for sid, _parent, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered(start, end, children.get(sid, ()))
    return out


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object


class Tracer:
    """Records spans and counts at the layer boundaries while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[tuple[int, list, dict]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[_Patch] = []

    # -- recording -------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = ([], [], defaultdict(int))  # stack, spans, counts
            self._local.state = st
            with self._lock:
                self._threads.append((threading.get_ident(), st[1], st[2]))
        return st

    def _wrap(self, name: str, fn: Callable, count) -> Callable:
        ids = self._ids
        state = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack, spans, counts = state()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if count is not None:
                counts[name] += count(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.bench_span = name
        return traced

    def spans(self) -> list:
        """Every thread's spans, worker roots adopted by the main thread's."""
        main = threading.main_thread().ident
        with self._lock:
            main_spans = [s for ident, spans, _ in self._threads if ident == main for s in spans]
            workers = [s for ident, spans, _ in self._threads if ident != main for s in spans]
        return main_spans + adopt(main_spans, workers)

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        with self._lock:
            for _, _, counts in self._threads:
                for key, value in counts.items():
                    total[key] += value
        return dict(total)

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("gridshield") and m]
        for name, module, attr, count in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append(_Patch(mod, binding, original))
                        setattr(mod, binding, wrapper)
        for name, module, cls_name, attr, count in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__, count))
            else:
                wrapper = self._wrap(name, original, count)
            self._patches.append(_Patch(cls, attr, original))
            setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.attr, patch.original)
        self._patches = []


def leftover_wrappers() -> list[str]:
    """Names in gridshield modules or classes still bound to a tracer wrapper."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if not mod_name.startswith("gridshield") or mod is None:
            continue
        for binding, value in vars(mod).items():
            if hasattr(value, "bench_span"):
                found.append(f"{mod_name}.{binding}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    inner = getattr(member, "__func__", member)
                    if hasattr(inner, "bench_span"):
                        found.append(f"{mod_name}.{binding}.{attr}")
    return found
