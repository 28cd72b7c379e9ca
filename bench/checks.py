"""Correctness checks the benchmark applies to every pass.

The laws are written out here, not imported from the library, so the
benchmark never checks the library against itself. All of them are the
mathematically correct values; none of the acceptance suite's by-design
failures is repeated here.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# Two-sided band for a sample mean, in standard errors of the exact law.
# Fixed before any result was seen; a single test exceeds it with
# probability below 6e-7.
Z_BAND = 5.0

# Per-site (mean, variance) of the cyclic root count; exact for K >= 5.
ROOT_LAW = (Fraction(1, 3), Fraction(2, 45))

# Per-site (mean, variance) of the number of gaps of length i; exact for
# K >= 31 (the unit-gap law already for K >= 9).
GAP_LAWS = {
    1: (Fraction(2, 15), Fraction(1772, 14175)),
    2: (Fraction(1, 9), Fraction(32, 405)),
    3: (Fraction(2, 35), Fraction(119732, 2837835)),
    4: (Fraction(1, 45), Fraction(12154, 637875)),
    5: (Fraction(4, 567), Fraction(649555688, 97692469875)),
    6: (Fraction(1, 525), Fraction(5967328, 3192564375)),
}
MIN_LAW_WIDTH = 31


class CheckLog:
    """Counts correctness checks attempted and failed during one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def add_counts(self, name: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{name}: {failed} of {attempted}")

    @property
    def fail_rate(self) -> float:
        """Failed checks over checks attempted; a run with none fails."""
        if self.attempted == 0:
            return 1.0
        return self.failed / self.attempted

    @property
    def pass_rate(self) -> float:
        return 1.0 - self.fail_rate


def within_band(sample_mean: float, law_mean: float, law_variance: float, n: int) -> bool:
    """True when a mean of ``n`` samples lies within `Z_BAND` standard
    errors of the law's mean."""
    return abs(sample_mean - law_mean) <= Z_BAND * math.sqrt(law_variance / n)


def _hist_mean(hist: dict) -> float:
    return sum(v * c for v, c in hist.items()) / sum(hist.values())


def ensemble_checks(stats) -> list[tuple[str, bool]]:
    """Checks on one `EnsembleStats`: totals, law bands and the bounds
    each statistic must respect."""
    cfg = stats.config
    K, n = cfg.K, cfg.runs
    out = []
    laws_hold = K >= MIN_LAW_WIDTH
    roots = None
    for s in cfg.statistics:
        if s == "roots":
            roots = stats.histogram("roots")
            out.append(("roots: histogram total equals runs", sum(roots.values()) == n))
            if laws_hold:
                mean, var = ROOT_LAW
                out.append(("roots: mean within band of K/3",
                            within_band(_hist_mean(roots), float(mean * K), float(var * K), n)))
        elif s == "gaps":
            for i in cfg.gap_lengths:
                hist = stats.histogram("gaps", i)
                out.append((f"gaps[{i}]: histogram total equals runs", sum(hist.values()) == n))
                if laws_hold and i in GAP_LAWS:
                    mean, var = GAP_LAWS[i]
                    out.append((f"gaps[{i}]: mean within band of exact law",
                                within_band(_hist_mean(hist), float(mean * K),
                                            float(var * K), n)))
        elif s == "empirical_gap_average":
            samples = stats.samples(s).tolist()
            out.append(("gap average: sample count equals runs", len(samples) == n))
            if roots is not None:
                # each sample is K / (root count) - 1 of the same run
                expected = [K / v - 1.0 for v, c in roots.items() for _ in range(c)]
                out.append(("gap average: samples match the root histogram",
                            sorted(samples) == sorted(expected)))
        elif s == "height_growth":
            samples = stats.samples(s).tolist()
            out.append(("heights: sample count equals runs", len(samples) == n))
            # max height after n deposits lies in [n/K, n]
            out.append(("heights: n/K <= max height <= n",
                        all(1.0 / K <= g <= 1.0 for g in samples)))
    return out


def ensemble_digest(stats) -> str:
    """SHA-256 over every histogram and raw sample buffer of an ensemble."""
    h = hashlib.sha256()
    cfg = stats.config
    for s in cfg.statistics:
        if s == "roots":
            h.update(json.dumps(sorted(stats.histogram("roots").items())).encode())
        elif s == "gaps":
            for i in cfg.gap_lengths:
                h.update(json.dumps([i, sorted(stats.histogram("gaps", i).items())]).encode())
        else:
            h.update(s.encode())
            h.update(stats.samples(s).tobytes())
    return h.hexdigest()


def text_digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def parse_verify(text: str, exit_code: int) -> tuple[int, int]:
    """(attempted, failed) for one `stripdep verify` call.

    Each PASS/FAIL line is one check and the exit code is one more. A line
    of any other form, or output with no check lines at all, counts as a
    failed check. The closing OK/FAILED summary line is not a check.
    """
    attempted = failed = 0
    lines_seen = 0
    for line in text.splitlines():
        if line.startswith("PASS: "):
            attempted += 1
            lines_seen += 1
        elif line.startswith("FAIL: "):
            attempted += 1
            failed += 1
            lines_seen += 1
        elif line == "OK: all checks passed" or line.startswith("FAILED: "):
            continue
        else:
            attempted += 1
            failed += 1
    if lines_seen == 0:
        attempted += 1
        failed += 1
    attempted += 1
    failed += exit_code != 0
    return attempted, failed
