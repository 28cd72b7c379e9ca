"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion. Expected wall time is a few minutes; the statistical gates run a
200,000-run ensemble at width 1500 with a fixed seed.

Two statistical gates are asserted exactly as pinned even though they sit
beyond what the underlying distributions allow; the failure messages carry
the measured values and the structural reason (see the repository notes for
the full analysis):

- the Kolmogorov-Smirnov gate of 0.02 lies below the lattice floor
  phi(0)/(2*sigma) ~= 0.0244 that any integer-valued statistic keeps against
  a continuous normal CDF at width 1500;
- the pinned variance 5/18 for sqrt(K)*(<gap average> - 2) belongs to the
  reciprocal statistic; the delta method and the measurements both give 18/5.

The width-4 exceptional root variance pinned as 1/9 conflicts with the
enumeration oracle (criterion 2), which forces 2/9 = (1/3)(2/3), the
variance of the Bernoulli(1/3) auxiliary width-3 root count.
"""

import math
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest

from stripdep.ensemble import (
    EnsembleConfig,
    height_growth_estimate,
    normalized_ks_statistic,
    run_ensemble,
    run_stream,
)
from stripdep.gaps import abc_recursion, gap_distribution, gap_moments, gap_pgf_table
from stripdep.oracle import enumerate_gap_distribution, enumerate_root_distribution
from stripdep.process import BoundaryMode
from stripdep.ratpoly import RationalPolynomial as P, pgf_moments
from stripdep.roots import aux_root_pgf, cyclic_root_pgf, root_series_closed_form

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts" / "figures"
BASE_SEED = 7
RUNS = 200_000


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} — {criterion}: {detail}")


# --------------------------------------------------------------------------
# criterion 1: exact root moments for 3 <= K <= 60, runtime < 10 s
# --------------------------------------------------------------------------

def test_criterion_1_exact_root_moments():
    pinned = {3: F(0), 4: F(1, 9), 5: F(2, 9), 6: F(4, 15)}
    started = time.perf_counter()
    failures = []
    for K in range(3, 61):
        m = pgf_moments(cyclic_root_pgf(K))
        if m.mean != F(K, 3):
            failures.append(f"K={K} mean {m.mean}")
        expect = pinned.get(K, F(2 * K, 45))
        if m.variance != expect:
            failures.append(f"K={K} variance {m.variance} != pinned {expect}")
    elapsed = time.perf_counter() - started
    detail = f"K=3..60 in {elapsed:.1f}s"
    if failures:
        detail += "; deviations: " + "; ".join(failures)
    report("criterion 1 (root moments exact)", not failures and elapsed < 10, detail)
    assert elapsed < 10
    assert not failures, (
        f"pinned moment table violated: {failures} — the enumeration oracle "
        f"(criterion 2) and the recursion agree on 2/9 at K=4, so the pinned "
        f"1/9 cannot hold together with oracle equivalence")


# --------------------------------------------------------------------------
# criterion 2: oracle equivalence for 3 <= K <= 9, both modes, runtime < 5 min
# --------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    for K in range(3, 10):
        assert enumerate_root_distribution(K, BoundaryMode.CYCLIC).pgf() \
            == cyclic_root_pgf(K), f"cyclic roots differ at K={K}"
        assert enumerate_root_distribution(K, BoundaryMode.AUXILIARY).pgf() \
            == aux_root_pgf(K), f"auxiliary roots differ at K={K}"
        for i in range(1, K):
            assert enumerate_gap_distribution(K, i).pgf() == gap_distribution(i, K), \
                f"gap distribution differs at K={K}, i={i}"
    elapsed = time.perf_counter() - started
    report("criterion 2 (oracle equivalence)", elapsed < 300,
           f"K=3..9, both modes, all gap lengths, in {elapsed:.1f}s")
    assert elapsed < 300


# --------------------------------------------------------------------------
# criterion 3: unit-gap polynomial table and moment laws for 4 <= K <= 40
# --------------------------------------------------------------------------

def test_criterion_3_unit_gap_table_and_moments():
    table1 = {
        3: ((1, -2, 1), (0, 1, -1), (2, 0, 1), 3),
        4: ((), (1, -1), (1, 2), 3),
        5: ((0, 2, -4, 2), (3, -3, 2, -2), (7, 6, 0, 2), 15),
        6: ((5, -10, 5), (4, 7, -11), (20, 8, 17), 45),
        7: ((18, -36, 35, -34, 17), (45, -2, -43, 17, -17),
            (98, 132, 68, 0, 17), 315),
    }
    triples = {t.K: t for t in abc_recursion(7)}
    for K, (ea, eb, ec, den) in table1.items():
        want = tuple(P([F(x, den) for x in cs]) for cs in (ea, eb, ec))
        assert (triples[K].a, triples[K].b, triples[K].c) == want, f"triple K={K}"
    exceptional = {4: F(8, 9), 5: F(2, 9), 6: F(24, 25), 7: F(184, 225),
                   8: F(1588, 1575)}
    for K in range(4, 41):
        m = gap_moments(1, K)
        assert m.mean == (F(2, 3) if K == 4 else F(2 * K, 15)), f"mean at K={K}"
        assert m.variance == exceptional.get(K, F(1772 * K, 14175)), f"variance at K={K}"
    report("criterion 3 (unit-gap table and moments)", True,
           "polynomial triples K=3..7 and moment laws K=4..40 exact")


# --------------------------------------------------------------------------
# criterion 4: gap moments for i = 2..7 at 31 <= K <= 40, runtime < 30 min
# --------------------------------------------------------------------------

def test_criterion_4_multi_gap_moments():
    means = {2: F(1, 9), 3: F(2, 35), 4: F(1, 45), 5: F(4, 567),
             6: F(1, 525), 7: F(2, 4455)}
    variances = {2: F(32, 405), 3: F(119732, 2837835), 4: F(12154, 637875),
                 5: F(649555688, 97692469875), 6: F(5967328, 3192564375),
                 7: F(191501338988, 428772250281375)}
    started = time.perf_counter()
    for i in range(2, 8):
        gap_pgf_table(i, 39)
        for K in range(31, 41):
            m = gap_moments(i, K)
            assert m.mean == means[i] * K, f"mean at i={i}, K={K}"
            assert m.variance == variances[i] * K, f"variance at i={i}, K={K}"
    elapsed = time.perf_counter() - started
    report("criterion 4 (gap moments i=2..7)", elapsed < 1800,
           f"exact for K=31..40 in {elapsed:.1f}s")
    assert elapsed < 1800


# --------------------------------------------------------------------------
# criterion 5: identity suite for 3 <= K <= 25
# --------------------------------------------------------------------------

def test_criterion_5_identity_suite():
    for K in range(3, 26):
        total = sum((gap_moments(i, K).mean for i in range(1, K)), F(0))
        weighted = sum((i * gap_moments(i, K).mean for i in range(1, K)), F(0))
        assert total == F(K, 3), f"sum of gap means at K={K}"
        assert weighted == F(2 * K, 3), f"weighted sum at K={K}"
    report("criterion 5 (identity suite)", True,
           "sum E = K/3 and sum i*E = 2K/3 exact for K=3..25")


# --------------------------------------------------------------------------
# criterion 6: closed form and pole asymptotics
# --------------------------------------------------------------------------

def test_criterion_6_closed_form_and_asymptotics():
    x, z = 0.3, 1.2
    series = sum(float(aux_root_pgf(K)(F(6, 5))) * x**K for K in range(1, 61))
    diff = abs(root_series_closed_form(x, z) - series)
    assert diff < 1e-9, f"closed form vs series: {diff}"

    # The dominant-pole error is ~5e-21 relative at K=20, below float64
    # resolution, so the shrink factor is measured in 80-digit arithmetic
    # with the same formula the float implementation evaluates.
    mpmath.mp.dps = 80
    zq = F(11, 10)
    s = mpmath.sqrt(mpmath.mpf(zq.numerator) / zq.denominator - 1)
    rho = mpmath.atan(s) / s
    def rel_err(K):
        exact_frac = aux_root_pgf(K)(zq)
        exact = mpmath.mpf(exact_frac.numerator) / mpmath.mpf(exact_frac.denominator)
        approx = rho ** (-(K + 1)) / (mpmath.mpf(zq.numerator) / zq.denominator)
        return abs(exact - approx) / exact
    shrink = rel_err(20) / rel_err(50)
    assert shrink >= 5, f"shrink factor {shrink}"
    report("criterion 6 (closed form + asymptotics)", True,
           f"series gap {diff:.2e} < 1e-9; error shrink K=20->50 is {float(shrink):.2e}")


# --------------------------------------------------------------------------
# criterion 7: statistical gates at K = 1500, 200k runs, fixed seed
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def big_ensemble():
    cfg = EnsembleConfig(K=1500, runs=RUNS, base_seed=BASE_SEED,
                         statistics=("roots", "gaps", "empirical_gap_average"),
                         gap_lengths=(1, 2, 3, 4, 5, 6))
    stats = run_ensemble(cfg)
    assert stats.runtime_seconds < 600, "criterion 7 runtime budget"
    return stats


def test_criterion_7a_root_mean(big_ensemble):
    target = 1500 / 3
    band = 3 * math.sqrt(2 * 1500 / 45 / RUNS)
    mean = big_ensemble.mean("roots")
    ok = abs(mean - target) < band
    report("criterion 7a (root sample mean)", ok,
           f"mean {mean:.4f} vs {target} (3 SE band {band:.4f})")
    assert ok


def test_criterion_7b_root_variance(big_ensemble):
    target = 200 / 3
    var = big_ensemble.variance("roots")
    ok = abs(var - target) < 0.05 * target
    report("criterion 7b (root sample variance)", ok,
           f"variance {var:.3f} vs {target:.3f} (5% band)")
    assert ok


def test_criterion_7c_root_normality_ks(big_ensemble):
    sigma = math.sqrt(2 * 1500 / 45)
    ks = normalized_ks_statistic(big_ensemble.samples("roots"), 1500 / 3, sigma)
    floor = 0.3989422804014327 / (2 * sigma)
    ok = ks < 0.02
    report("criterion 7c (KS of standardized root counts)", ok,
           f"KS {ks:.4f} vs pinned 0.02; integer-lattice floor is "
           f"phi(0)/(2*sigma) = {floor:.4f}")
    assert ok, (
        f"KS {ks:.4f} exceeds the pinned 0.02: an integer-valued statistic "
        f"with sigma = {sigma:.3f} cannot approach a continuous normal CDF "
        f"closer than ~{floor:.4f} regardless of sample size")


def test_criterion_7d_empirical_average_clt_variance(big_ensemble):
    samples = np.sqrt(1500) * (big_ensemble.samples("empirical_gap_average") - 2.0)
    var = float(np.var(samples, ddof=1))
    pinned = 5 / 18
    ok = abs(var - pinned) < 0.05 * pinned
    report("criterion 7d (variance of sqrt(K)*(gap average - 2))", ok,
           f"variance {var:.4f} vs pinned {pinned:.4f}; delta method on the "
           f"reciprocal root count gives 81/K^2 * K * (2K/45) = 18/5 = 3.6")
    assert ok, (
        f"measured {var:.4f} matches the delta-method value 18/5 = 3.6, not "
        f"the pinned 5/18; the pinned constant is the reciprocal of the "
        f"correct limiting variance")


# --------------------------------------------------------------------------
# criterion 8: growth-rate report (non-gating)
# --------------------------------------------------------------------------

def test_criterion_8_growth_conjecture_report():
    K, steps = 500, 2_000_000
    est = height_growth_estimate(K, steps, run_stream(BASE_SEED, 0))
    ok = math.isfinite(est) and est > 0
    report("criterion 8 (growth-rate report, exploratory)", ok,
           f"max height / n = {est:.6f} after {steps} deposits at K={K}; "
           f"4/K = {4 / K:.6f}; ratio {est * K / 4:.3f} (no hard tolerance)")
    assert ok


# --------------------------------------------------------------------------
# histogram CSVs at the reference parameters (200k runs)
# --------------------------------------------------------------------------

def test_figure_histogram_csvs(big_ensemble):
    plans = [
        (100, ("roots", "empirical_gap_average")),
        (300, ("roots",)),
        (500, ("roots", "empirical_gap_average")),
        (1000, ("empirical_gap_average",)),
    ]
    ensembles = {1500: big_ensemble}
    for K, statistics in plans:
        ensembles[K] = run_ensemble(EnsembleConfig(
            K=K, runs=RUNS, base_seed=BASE_SEED, statistics=statistics))
    written = []
    for K, stats in ensembles.items():
        for s in ("roots", "empirical_gap_average"):
            if s in stats.config.statistics:
                written.append(ARTIFACTS / f"{s}_hist_K{K}.csv")
                stats.write_histogram_csv(written[-1], s)
        if "roots" in stats.config.statistics:
            assert sum(c for _, c in stats.histogram_series("roots")) == RUNS
    for i in range(1, 7):
        path = ARTIFACTS / f"gap{i}_hist_K1500.csv"
        big_ensemble.write_histogram_csv(path, "gaps", i)
        assert sum(c for _, c in big_ensemble.histogram_series("gaps", i)) == RUNS
        written.append(path)
    assert all(p.exists() for p in written)
    report("histogram CSVs (reference parameters)", True,
           f"{len(written)} files under {ARTIFACTS}")
