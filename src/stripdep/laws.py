"""Exact laws checked by `stripdep verify`: moment laws, polynomial tables,
series rows and cross-engine equalities. A suite maps the largest width to
check to its `Law`s, in output order, each checked width by width up to its
first failure."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, pairwise, zip_longest
from operator import attrgetter

from .gaps import abc_degree, abc_recursion, build_gap_tables, gap_distribution, gap_moments
from .oracle import (_check_enumeration_width, enumerate_gap_distribution,
                     enumerate_root_distribution)
from .process import BoundaryMode
from .ratpoly import MomentSummary, RationalPolynomial, count_moments, fraction_string
from .roots import (
    aux_root_layers,
    aux_root_pgf,
    cyclic_counts,
    cyclic_root_pgf,
    first_step_root_counts,
)


class Law:
    """One exact law from its cases ``(where, found, expected)``, ``where`` a
    width K or a ready label such as "K=5, i=2". It holds when every case
    matches; otherwise it keeps the first mismatch and reads no later case."""

    def __init__(self, name: str, cases):
        self.name = name
        self.failure = next((case for case in cases if case[1] != case[2]), None)

    def __str__(self) -> str:
        if self.failure is None:
            return self.name
        where, found, expected = self.failure
        where = f"K={where}" if isinstance(where, int) else where
        return f"{self.name} ({where}: found {_show(found)}, expected {_show(expected)})"


def _show(value) -> str:
    """A found or expected value, every number in it as "num/den"."""
    if isinstance(value, RationalPolynomial):
        value = value.coefficients
    if isinstance(value, (tuple, list)):
        return f"({', '.join(map(_show, value))})"
    if isinstance(value, (int, Fraction)):
        return fraction_string(value)
    return str(value)


def suite_roots(kmax: int) -> list[Law]:
    """Moments from the integer counts W_n = n! * L_n: the cyclic root count
    of width K is one more than the auxiliary count of width K - 1. A width
    keeps its sum of W_K, an integer of K!'s size, only where it is not K!."""
    widths = [(K, count_moments(*cyclic_counts(K - 1, below)),
               None if (total := sum(counts)) == math.factorial(K) else total, len(counts) - 1)
              for K, (below, counts) in enumerate(pairwise(aux_root_layers(kmax)), 1) if K >= 3]
    variance_law = {3: Fraction(0), 4: Fraction(2, 9)}
    return [
        Law(f"root-count mean K/3 for K=3..{kmax}",
            ((K, m.mean, Fraction(K, 3)) for K, m, _, _ in widths)),
        Law(f"root-count variance law (0, 2/9, then 2K/45) for K=3..{kmax}",
            ((K, m.variance, variance_law.get(K, Fraction(2 * K, 45))) for K, m, _, _ in widths)),
        Law(f"PGF normalization at z=1 for K=3..{kmax}",
            ((K, total, math.factorial(K)) for K, _, total, _ in widths if total is not None)),
        Law(f"PGF degree floor((K-1)/2) for K=3..{kmax}",
            ((K, degree, (K - 1) // 2) for K, _, _, degree in widths))]


def _gap_mean_sums(K: int) -> tuple[Fraction, Fraction]:
    """The sum and the i-weighted sum of the gap-i means at width K."""
    gap_means = [gap_moments(i, K).mean for i in range(1, K)]
    return (sum(gap_means, Fraction(0)),
            sum((i * m for i, m in enumerate(gap_means, 1)), Fraction(0)))


def suite_gaps(kmax: int) -> list[Law]:
    kg, ki = min(kmax, 40), min(kmax, 25)
    exceptions = {4: Fraction(8, 9), 5: Fraction(2, 9), 6: Fraction(24, 25),
                  7: Fraction(184, 225), 8: Fraction(1588, 1575)}
    means = {2: Fraction(1, 9), 3: Fraction(2, 35), 4: Fraction(1, 45),
             5: Fraction(4, 567), 6: Fraction(1, 525), 7: Fraction(2, 4455)}
    variances = {2: Fraction(32, 405), 3: Fraction(119732, 2837835),
                 4: Fraction(12154, 637875), 5: Fraction(649555688, 97692469875),
                 6: Fraction(5967328, 3192564375),
                 7: Fraction(191501338988, 428772250281375)}
    linear = list(means) if kg >= 31 else []
    mean_variance = attrgetter("mean", "variance")
    build_gap_tables([1, *linear], kg)
    build_gap_tables(range(1, ki), ki)
    return [
        Law(f"unit-gap moment laws for K=4..{kg}",
            ((K, mean_variance(gap_moments(1, K)),
              (Fraction(2, 3) if K == 4 else Fraction(2 * K, 15),
               exceptions.get(K, Fraction(1772 * K, 14175))))
             for K in range(4, kg + 1))),
        *(Law(f"gap-{i} linear moment laws for K=31..{kg}",
              ((K, mean_variance(gap_moments(i, K)), (means[i] * K, variances[i] * K))
               for K in range(31, kg + 1)))
          for i in linear),
        Law(f"gap-mean identities (sum K/3, weighted sum 2K/3) for K=3..{ki}",
            ((K, _gap_mean_sums(K), (Fraction(K, 3), Fraction(2 * K, 3)))
             for K in range(3, ki + 1)))]


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


def suite_tables(kmax: int) -> list[Law]:
    table1 = {
        3: ((1, -2, 1), (0, 1, -1), (2, 0, 1), 3),
        4: ((), (1, -1), (1, 2), 3),
        5: ((0, 2, -4, 2), (3, -3, 2, -2), (7, 6, 0, 2), 15),
        6: ((5, -10, 5), (4, 7, -11), (20, 8, 17), 45),
        7: ((18, -36, 35, -34, 17), (45, -2, -43, 17, -17), (98, 132, 68, 0, 17), 315),
    }
    kt, ks = max(7, min(kmax, 40)), min(kmax, 25)
    build_gap_tables([1], kt + 1)
    build_gap_tables(MEAN_SERIES_ROWS, ks)
    triples = abc_recursion(kt)
    return [
        Law("unit-gap polynomial triples for K=3..7",
            ((t.K, (t.a, t.b, t.c), tuple(RationalPolynomial.from_counts(cs, table1[t.K][-1])
                                          for cs in table1[t.K][:-1]))
             for t in triples if t.K in table1)),
        Law(f"triple normalization and degree law for K=3..{kt}",
            ((t.K, (t.a(1), t.b(1), t.c(1), t.c.degree), (0, 0, 1, abc_degree(t.K)))
             for t in triples)),
        Law(f"cross-engine: c_K equals unit-gap PGF at width K+1, K=3..{kt}",
            ((t.K, t.c, gap_distribution(1, t.K + 1)) for t in triples)),
        Law(f"cross-engine: insertion root engine equals first-step recursion for K=0..{kt}",
            ((n, *pair) for n, pair in enumerate(zip_longest(list(aux_root_layers(kt)),
                                                            first_step_root_counts(kt))))),
        *(Law(f"mean series row i={i}{' (leading power x^3 restored)' if i == 1 else ''} "
              f"vs engine, widths 4..{ks}",
              zip(range(4, ks + 1), series_coefficients(num, scale, 2, ks)[3:],
                  (_ring_moments(i, K).mean for K in range(4, ks + 1))))
          for i, (scale, num) in MEAN_SERIES_ROWS.items()),
        *(Law(f"second-factorial-moment series row i={i}{' (third-order pole)' if i == 5 else ''} "
              f"vs engine, widths 4..{ks}",
              zip(range(4, ks + 1),
                  series_coefficients([0] * shift + [lead * c for c in inner], scale, 3, ks)[3:],
                  (_ring_moments(i, K).second_factorial_moment for K in range(4, ks + 1))))
          for i, (scale, shift, lead, inner) in FACTORIAL_SERIES_ROWS.items())]


def suite_oracle(kmax: int) -> list[Law]:
    _check_enumeration_width(kmax)
    build_gap_tables(range(1, kmax), kmax)
    return [law for K in range(3, kmax + 1) for law in (
        Law(f"cyclic root enumeration equals PGF engine at K={K}",
            [(K, enumerate_root_distribution(K, BoundaryMode.CYCLIC).pgf(), cyclic_root_pgf(K))]),
        Law(f"auxiliary root enumeration equals PGF engine at K={K}",
            [(K, enumerate_root_distribution(K, BoundaryMode.AUXILIARY).pgf(), aux_root_pgf(K))]),
        Law(f"gap enumeration equals recursion engine at K={K}, all i",
            ((f"K={K}, i={i}", enumerate_gap_distribution(K, i).pgf(), gap_distribution(i, K))
             for i in range(1, K))))]


# suite name -> (suite, default largest width, smallest --kmax), in `verify
# --suite all` order. From its floor a suite checks every law it prints (mean
# series row i=7 is 0 below width 8); the gaps suite prints its six gap-i
# linear laws, stated on K=31..40, only from --kmax 31.
SUITES = {"roots": (suite_roots, 60, 3), "gaps": (suite_gaps, 40, 4),
          "tables": (suite_tables, 25, 8), "oracle": (suite_oracle, 8, 3)}
