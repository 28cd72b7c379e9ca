"""Spans recorded by the benchmark around calls into the library.

A span has a name, start and end (`time.perf_counter` seconds), the index
of its parent span and the call's plain arguments. Spans stay in memory;
`bench/run.py` writes them out once, when it exits.

`Tracer.patched` replaces each function in `TRACED_FUNCTIONS`, in every
loaded `stripdep` module that refers to it, by a wrapper that records a
span. The calls the library makes to those functions internally are
therefore traced too, wherever a later change moves the caller. A name a
module no longer has is skipped, so its spans, and the metrics built on
them, drop to zero rather than stop the run.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import math
import statistics
import sys
from time import perf_counter

# module -> functions that get a span when traced; the ensemble's chunk
# worker is traced only so that the chunks a run makes can be counted
TRACED_FUNCTIONS = {
    "stripdep.ensemble": ("run_ensemble", "_simulate_chunk"),
    "stripdep.roots": ("aux_root_pgf", "cyclic_root_pgf"),
    "stripdep.gaps": ("gap_pgf_table", "gap_distribution", "gap_moments", "abc_recursion"),
    "stripdep.ratpoly": ("pgf_moments",),
    "stripdep.oracle": ("enumerate_root_distribution", "enumerate_gap_distribution"),
}


def _plain(value):
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    return type(value).__name__


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, args) -> dict:
        span = {"name": name, "args": [_plain(a) for a in args], "start": perf_counter(),
                "end": None, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, *args):
        if not self.enabled:
            yield
            return
        span = self._open(name, args)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Trace `TRACED_FUNCTIONS` for the duration of the block."""
        if not self.enabled:
            yield
            return
        replaced = []
        for module_name, names in TRACED_FUNCTIONS.items():
            module = sys.modules[module_name]
            short = module_name.rsplit(".", 1)[-1]
            for name in names:
                if not hasattr(module, name):
                    continue
                original = getattr(module, name)
                wrapper = self.wrap(original, f"{short}.{name}")
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "stripdep" and not mod_name.startswith("stripdep."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)


def span_cost_s() -> float:
    """Seconds a traced call of a two-argument function takes beyond the
    plain call: the wrapper, the span record and its arguments."""
    def noop(a, b):
        return None

    calls = 20_000
    costs = []
    for _ in range(5):
        traced = Tracer().wrap(noop, "noop")
        t = perf_counter()
        for k in range(calls):
            noop(k, "x")
        plain = perf_counter() - t
        t = perf_counter()
        for k in range(calls):
            traced(k, "x")
        costs.append((perf_counter() - t - plain) / calls)
    return statistics.median(costs)


# ---- aggregation ------------------------------------------------------------

def duration(span: dict) -> float:
    return span["end"] - span["start"]


def named(spans, name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def total(spans, name: str) -> float:
    """Summed duration of the spans called ``name``, counting a span nested
    inside another of the same name once."""
    out = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p is None:
            out += duration(s)
    return out


def self_time(spans, name: str) -> float:
    """Summed duration of the spans called ``name`` minus the time their
    direct children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += duration(s)
    return sum(duration(s) - child_time[k] for k, s in enumerate(spans) if s["name"] == name)


def last_layer(spans, name: str, key: int) -> float:
    """Duration of the longest span at the largest ``args[key]`` seen, summed
    over the other argument values. The call that first reaches a new
    largest width computes one new layer of a memoized table, so this is
    that layer's time."""
    calls = named(spans, name)
    top = max(s["args"][key] for s in calls)
    longest: dict[tuple, float] = {}
    for s in calls:
        if s["args"][key] == top:
            other = tuple(a for k, a in enumerate(s["args"]) if k != key)
            longest[other] = max(longest.get(other, 0.0), duration(s))
    return sum(longest.values())


def oracle_orders(spans) -> int:
    """First-hit orders enumerated: K! per distinct (K, mode) sweep; gap
    distributions sweep the cyclic process."""
    sweeps = set()
    for s in named(spans, "oracle.enumerate_root_distribution"):
        sweeps.add((s["args"][0], s["args"][1]))
    for s in named(spans, "oracle.enumerate_gap_distribution"):
        sweeps.add((s["args"][0], "cyclic"))
    return sum(math.factorial(K) for K, _ in sweeps)


# gap lengths whose tables the verify pass builds
TABLE_LENGTHS = range(1, 8)


def exact_layer_metrics(spans, extras: dict) -> dict:
    """Per-module metrics of the exact engines from one traced verify pass."""
    roots_last = last_layer(spans, "roots.aux_root_pgf", 0)
    gaps_last = last_layer(spans, "gaps.gap_pgf_table", 1)
    orders = oracle_orders(spans)
    oracle_s = (total(spans, "oracle.enumerate_root_distribution")
                + total(spans, "oracle.enumerate_gap_distribution"))
    out = {
        "roots.aux_pgf_s": total(spans, "roots.aux_root_pgf"),
        "roots.last_layer_s": roots_last,
        "roots.max_coeff_bits": extras["max_coeff_bits"],
        "gaps.last_layer_s": gaps_last,
        "ratpoly.moments_s": total(spans, "ratpoly.pgf_moments"),
        "ratpoly.mul_us": extras["mul_us"],
        "oracle.orders": orders,
        "oracle.orders_per_s": orders / oracle_s,
        "cli.self_s": self_time(spans, "cli.main"),
        "cli.output_bytes": extras["output_bytes"],
    }
    for i in TABLE_LENGTHS:
        out[f"gaps.table_s.i{i}"] = sum(duration(s) for s in named(spans, "gaps.gap_pgf_table")
                                        if s["args"][0] == i)
        out[f"gaps.table_entries.i{i}"] = extras["table_entries"][str(i)]
    return out
