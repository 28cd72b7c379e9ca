"""Fresh-interpreter side of the benchmark; `bench/run.py` starts it.

    python3 bench/child.py import              # set-up probe and environment
    python3 bench/child.py verify [--trace]    # one cold exact-verify pass
    python3 bench/child.py identities          # cold gap-mean identity probe
    python3 bench/child.py abc                 # cold unit-gap recursion probe

`src` must be on PYTHONPATH. The child prints one JSON object on stdout.
`imported_at` is `time.monotonic()` right after `stripdep.cli` has been
imported; the parent subtracts its own monotonic spawn time from it.
"""

import time

import stripdep.cli

IMPORTED_AT = time.monotonic()

# everything below is imported after the timed import
import contextlib
import io
import json
import platform
import sys
from fractions import Fraction

from tracing import Tracer

# The exact-verify workload: the suites in a fixed order, roots with kmax
# raised so it weighs about as much as gaps, the oracle over all 9! orders.
VERIFY_CALLS = (
    ("verify", "--suite", "roots", "--kmax", "110"),
    ("verify", "--suite", "gaps"),
    ("verify", "--suite", "tables"),
    ("verify", "--suite", "oracle", "--kmax", "9"),
)
IDENTITY_KMAX = 25
ABC_KMAX = 60
MUL_REPEATS = 50


def environment() -> dict:
    import numpy
    import scipy

    from stripdep.ensemble import GENERATOR_ID

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "generator_id": GENERATOR_ID}


def verify(trace: bool) -> dict:
    tracer = Tracer(enabled=trace)
    calls = []
    started = time.perf_counter()
    with tracer.patched():
        for argv in VERIFY_CALLS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), tracer.span("cli.main", *argv):
                code = stripdep.cli.main(list(argv))
            calls.append({"argv": list(argv), "exit": code, "output": buf.getvalue()})
    wall = time.perf_counter() - started
    out = {"wall": wall, "calls": calls}
    if trace:
        out["spans"] = tracer.spans
        out["extras"] = _trace_extras(tracer.spans, calls)
    return out


def _trace_extras(spans, calls) -> dict:
    """Sizes read from the warm caches after a traced pass."""
    from stripdep.gaps import gap_pgf_table
    from stripdep.roots import aux_root_pgf

    widths = [s["args"][0] for s in spans if s["name"] == "roots.aux_root_pgf"]
    widest = aux_root_pgf(max(widths))
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in widest.coefficients)
    # a product of two mid-width root PGFs
    mid = aux_root_pgf(max(widths) // 2)
    t = time.perf_counter()
    for _ in range(MUL_REPEATS):
        mid * mid
    mul_us = (time.perf_counter() - t) / MUL_REPEATS * 1e6
    lengths = sorted({s["args"][0] for s in spans if s["name"] == "gaps.gap_pgf_table"})
    return {
        "max_coeff_bits": bits,
        "mul_us": mul_us,
        "table_entries": {str(i): len(gap_pgf_table(i, 0)) for i in lengths},
        "output_bytes": sum(len(c["output"].encode()) for c in calls),
    }


def identities() -> dict:
    """Cold check of sum_i E[D(i,K)] = K/3 and sum_i i*E[D(i,K)] = 2K/3."""
    from stripdep.gaps import gap_moments

    t = time.perf_counter()
    ok = True
    for K in range(3, IDENTITY_KMAX + 1):
        means = [gap_moments(i, K).mean for i in range(1, K)]
        ok &= sum(means, Fraction(0)) == Fraction(K, 3)
        ok &= sum((i * m for i, m in enumerate(means, 1)), Fraction(0)) == Fraction(2 * K, 3)
    return {"identity_s": time.perf_counter() - t, "ok": ok}


def abc() -> dict:
    """Cold `abc_recursion` to ABC_KMAX. Each c_K is the PGF of the unit-gap
    count at width K+1: its coefficients sum to 1 and, from width 9 on, its
    mean is the exact law's 2(K+1)/15."""
    from checks import GAP_LAWS
    from stripdep.gaps import abc_recursion

    t = time.perf_counter()
    triples = abc_recursion(ABC_KMAX)
    abc_s = time.perf_counter() - t
    ok = [t.K for t in triples] == list(range(3, ABC_KMAX + 1))
    for t in triples:
        coeffs = t.c.coefficients
        ok &= sum(coeffs, Fraction(0)) == 1
        if t.K + 1 >= 9:
            mean = sum((j * c for j, c in enumerate(coeffs)), Fraction(0))
            ok &= mean == GAP_LAWS[1][0] * (t.K + 1)
    return {"abc_s": abc_s, "ok": ok}


def main(argv) -> int:
    mode = argv[0] if argv else ""
    if mode == "import":
        out = {"env": environment()}
    elif mode == "verify":
        out = verify(trace="--trace" in argv[1:])
    elif mode == "identities":
        out = identities()
    elif mode == "abc":
        out = abc()
    else:
        print(f"usage: child.py import|verify [--trace]|identities|abc (got {argv})",
              file=sys.stderr)
        return 2
    out["imported_at"] = IMPORTED_AT
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
