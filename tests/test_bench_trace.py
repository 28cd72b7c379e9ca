"""Guards for the traced benchmark, which finds its spans by function name.

`bench/tracing.py` wraps each function in `TRACED_FUNCTIONS` by name, and a
`--trace 1` run of the exact-verify workload reads the widths of the
`roots.aux_root_pgf` spans and the gap length of every
`gaps.gap_pgf_table` span. A rename, or a verify suite that stops calling
either function, makes that run raise; these tests fail first.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import tracing  # noqa: E402


def test_every_traced_function_exists_in_its_module():
    missing = [f"{module}.{name}" for module, names in tracing.TRACED_FUNCTIONS.items()
               for name in names if not callable(getattr(importlib.import_module(module), name,
                                                         None))]
    assert missing == []


def test_traced_verify_pass_fires_the_spans_its_metrics_read():
    result = child.verify(trace=True)
    assert [call["exit"] for call in result["calls"]] == [0] * len(child.VERIFY_CALLS)
    spans = result["spans"]
    assert tracing.named(spans, "roots.aux_root_pgf")
    built = {s["args"][0] for s in tracing.named(spans, "gaps.gap_pgf_table")}
    assert set(tracing.TABLE_LENGTHS) <= built, sorted(built)
    metrics = tracing.exact_layer_metrics(spans, result["extras"])
    assert all(metrics[f"gaps.table_entries.i{i}"] > 0 for i in tracing.TABLE_LENGTHS)
