"""Exact laws checked by `stripdep verify`: moment laws, polynomial tables,
series rows and cross-engine equalities. A suite maps the largest width to
check to ``(name, ok, detail)`` triples in a fixed order."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, islice, pairwise

from .gaps import abc_degree, abc_recursion, gap_distribution, gap_moments
from .oracle import (
    MAX_ENUMERATION_WIDTH,
    EnumerationLimitError,
    enumerate_gap_distribution,
    enumerate_root_distribution,
)
from .process import BoundaryMode
from .ratpoly import MomentSummary, RationalPolynomial, count_moments
from .roots import aux_root_layers, aux_root_pgf, cyclic_root_pgf, first_step_root_counts


def _check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), detail))


def suite_roots(kmax: int) -> list[tuple[str, bool, str]]:
    """Moments from the integer counts W_n = n! * L_n: the cyclic root count
    of width K is one more than the auxiliary count of width K - 1."""
    checks = []
    variance_law = {3: Fraction(0), 4: Fraction(2, 9)}
    ok_mean = ok_var = ok_norm = ok_deg = True
    detail = ""
    for K, (below, counts) in enumerate(islice(pairwise(aux_root_layers(kmax)), 2, None), 3):
        m = count_moments((0, *below), math.factorial(K - 1))
        mean, variance = m.mean, m.variance
        if mean != Fraction(K, 3):
            ok_mean, detail = False, f"K={K}: mean {mean}"
        expect = variance_law.get(K, Fraction(2 * K, 45))
        if variance != expect:
            ok_var, detail = False, f"K={K}: variance {variance} != {expect}"
        if sum(counts) != math.factorial(K):
            ok_norm = False
        if len(counts) - 1 != (K - 1) // 2:
            ok_deg = False
    _check(checks, f"root-count mean K/3 for K=3..{kmax}", ok_mean, detail)
    _check(checks, f"root-count variance law (0, 2/9, then 2K/45) for K=3..{kmax}",
           ok_var, detail)
    _check(checks, f"PGF normalization at z=1 for K=3..{kmax}", ok_norm)
    _check(checks, f"PGF degree floor((K-1)/2) for K=3..{kmax}", ok_deg)
    return checks


def suite_gaps(kmax: int) -> list[tuple[str, bool, str]]:
    checks = []
    kg = min(kmax, 40)
    exceptions = {4: Fraction(8, 9), 5: Fraction(2, 9), 6: Fraction(24, 25),
                  7: Fraction(184, 225), 8: Fraction(1588, 1575)}
    ok = True
    detail = ""
    for K in range(4, kg + 1):
        m = gap_moments(1, K)
        mean = Fraction(2, 3) if K == 4 else Fraction(2 * K, 15)
        var = exceptions.get(K, Fraction(1772 * K, 14175))
        if m.mean != mean or m.variance != var:
            ok, detail = False, f"K={K}: ({m.mean}, {m.variance})"
    _check(checks, f"unit-gap moment laws for K=4..{kg}", ok, detail)
    if kg >= 31:
        means = {2: Fraction(1, 9), 3: Fraction(2, 35), 4: Fraction(1, 45),
                 5: Fraction(4, 567), 6: Fraction(1, 525), 7: Fraction(2, 4455)}
        variances = {2: Fraction(32, 405), 3: Fraction(119732, 2837835),
                     4: Fraction(12154, 637875), 5: Fraction(649555688, 97692469875),
                     6: Fraction(5967328, 3192564375),
                     7: Fraction(191501338988, 428772250281375)}
        for i in range(2, 8):
            ok = True
            detail = ""
            for K in range(31, kg + 1):
                m = gap_moments(i, K)
                if m.mean != means[i] * K or m.variance != variances[i] * K:
                    ok, detail = False, f"K={K}"
            _check(checks, f"gap-{i} linear moment laws for K=31..{kg}", ok, detail)
    ki = min(kmax, 25)
    ok = True
    detail = ""
    for K in range(3, ki + 1):
        means = [gap_moments(i, K).mean for i in range(1, K)]
        tot = sum(means, Fraction(0))
        wtot = sum((i * m for i, m in enumerate(means, 1)), Fraction(0))
        if tot != Fraction(K, 3) or wtot != Fraction(2 * K, 3):
            ok, detail = False, f"K={K}: ({tot}, {wtot})"
    _check(checks, f"gap-mean identities (sum K/3, weighted sum 2K/3) for K=3..{ki}",
           ok, detail)
    return checks


# (scale, numerator ascending coefficients) with scale*(1-x)^2*E_i = numerator;
# coefficient of x^K is the mean gap-i count at width K+1. The i=1 numerator
# carries the leading x^3 required for the series to start at width 4.
MEAN_SERIES_ROWS = {
    1: (15, (0, 0, 0, 10, -10, 2)),
    2: (9, (0, 0, 0, 0, 6, -6, 1)),
    3: (105, (0, 0, 0, 70, -140, 112, -42, 6)),
    4: (45, (0, 0, 0, 0, 15, -30, 23, -8, 1)),
    5: (2835, (0, 0, 0, 0, 0, 378, -756, 558, -180, 20)),
    6: (1575, (0, 0, 0, 0, 0, 0, 70, -140, 100, -30, 3)),
    7: (31185, (0, 0, 0, 0, 0, 0, 0, 396, -792, 550, -154, 14)),
}

# (scale, shift, lead, inner ascending coefficients) with
# scale*(1-x)^3*F_i = lead*x^shift*inner; coefficient of x^K is the second
# factorial moment at width K+1. All rows have a third-order pole at x=1,
# matching linear variance growth. The i=2 inner expands
# (15-15x+6x^2-x^3)*(3-3x+x^2)^2.
FACTORIAL_SERIES_ROWS = {
    1: (14175, 3, 2, (4725, -14175, 19845, -16380, 8595, -2880, 580, -58)),
    2: (405, 5, 2, (135, -405, 549, -432, 213, -66, 12, -1)),
    3: (14189175, 7, 2, (1711710, -5135130, 6786780, -5118113, 2380287,
                         -682864, 111636, -7974)),
    4: (637875, 9, 2, (15525, -46575, 60255, -43695, 19200, -5100, 752, -47)),
    5: (97692469875, 11, 4, (157260285, -471780855, 598855005, -418392270,
                             173906073, -42827760, 5728788, -318266)),
    6: (3192564375, 13, 2, (969150, -2907450, 3627930, -2446595, 963525,
                            -220570, 26940, -1347)),
    7: (428772250281375, 15, 2, (9215899308, -27647697924, 33973625070,
                                 -22162777791, 8287091967, -1769271504,
                                 198572308, -9026014)),
}


def series_coefficients(numerator, scale: int, order: int, count: int) -> list[Fraction]:
    """First ``count`` Taylor coefficients of numerator / (scale * (1-x)^order).

    Dividing by 1 - x takes prefix sums, so the integer numerator is summed
    ``order`` times and divided by ``scale`` once at the end.
    """
    coeffs = (list(numerator) + [0] * count)[:count]
    for _ in range(order):
        coeffs = list(accumulate(coeffs))
    return [Fraction(c, scale) for c in coeffs]


def _ring_moments(i: int, K: int) -> MomentSummary:
    """Gap-i moments at width K; those of the point mass at 0 where no
    index-i gap fits (K <= i)."""
    return gap_moments(i, K) if i < K else count_moments((1,), 1)


def suite_tables(kmax: int) -> list[tuple[str, bool, str]]:
    checks = []
    table1 = {
        3: ((1, -2, 1), (0, 1, -1), (2, 0, 1), 3),
        4: ((), (1, -1), (1, 2), 3),
        5: ((0, 2, -4, 2), (3, -3, 2, -2), (7, 6, 0, 2), 15),
        6: ((5, -10, 5), (4, 7, -11), (20, 8, 17), 45),
        7: ((18, -36, 35, -34, 17), (45, -2, -43, 17, -17), (98, 132, 68, 0, 17), 315),
    }
    kt = max(7, min(kmax, 40))
    triples = abc_recursion(kt)
    ok = True
    detail = ""
    for t in triples:
        if t.K in table1:
            ea, eb, ec, den = table1[t.K]
            want = tuple(RationalPolynomial.from_counts(cs, den) for cs in (ea, eb, ec))
            if (t.a, t.b, t.c) != want:
                ok, detail = False, f"K={t.K}"
    _check(checks, "unit-gap polynomial triples for K=3..7", ok, detail)
    ok = all(t.a.sum_of_coefficients() == 0 and t.b.sum_of_coefficients() == 0 and
             t.c.sum_of_coefficients() == 1 and t.c.degree == abc_degree(t.K) for t in triples)
    _check(checks, f"triple normalization and degree law for K=3..{kt}", ok)
    ok = all(t.c == gap_distribution(1, t.K + 1) for t in triples)
    _check(checks, f"cross-engine: c_K equals unit-gap PGF at width K+1, K=3..{kt}", ok)
    ok = list(aux_root_layers(kt)) == first_step_root_counts(kt)
    _check(checks, f"cross-engine: insertion root engine equals first-step recursion "
                   f"for K=0..{kt}", ok)

    ks = min(kmax, 25)
    for i in range(1, 8):
        scale, num = MEAN_SERIES_ROWS[i]
        series = series_coefficients(num, scale, 2, ks)
        ok = all(series[K] == _ring_moments(i, K + 1).mean for K in range(3, ks))
        note = " (leading power x^3 restored)" if i == 1 else ""
        _check(checks, f"mean series row i={i}{note} vs engine, widths 4..{ks}", ok)
    for i in range(1, 8):
        scale, shift, lead, inner = FACTORIAL_SERIES_ROWS[i]
        series = series_coefficients([0] * shift + [lead * c for c in inner], scale, 3, ks)
        ok = all(series[K] == _ring_moments(i, K + 1).second_factorial_moment
                 for K in range(3, ks))
        note = " (third-order pole)" if i == 5 else ""
        _check(checks, f"second-factorial-moment series row i={i}{note} vs engine, "
                       f"widths 4..{ks}", ok)
    return checks


def suite_oracle(kmax: int) -> list[tuple[str, bool, str]]:
    checks = []
    if kmax > MAX_ENUMERATION_WIDTH:
        raise EnumerationLimitError(kmax)
    for K in range(3, kmax + 1):
        ok = enumerate_root_distribution(K, BoundaryMode.CYCLIC).pgf() == cyclic_root_pgf(K)
        _check(checks, f"cyclic root enumeration equals PGF engine at K={K}", ok)
        ok = enumerate_root_distribution(K, BoundaryMode.AUXILIARY).pgf() == aux_root_pgf(K)
        _check(checks, f"auxiliary root enumeration equals PGF engine at K={K}", ok)
        ok = all(enumerate_gap_distribution(K, i).pgf() == gap_distribution(i, K)
                 for i in range(1, K))
        _check(checks, f"gap enumeration equals recursion engine at K={K}, all i", ok)
    return checks


# suite name -> (suite, default largest width, smallest width that checks
# every law), in `verify --suite all` order; mean series row i=7 is 0 below
# width 8
SUITES = {"roots": (suite_roots, 60, 3), "gaps": (suite_gaps, 40, 4),
          "tables": (suite_tables, 25, 8), "oracle": (suite_oracle, 8, 3)}
