#!/usr/bin/env python3
"""Exact root-count distributions, walked through end to end.

Builds the PGFs of the final root count for both boundary modes, prints the
small-width distributions with exact probabilities, checks the moment laws,
and compares the generating-function closed form and its dominant-pole
approximation against the exact engine.
"""

from fractions import Fraction as F

from stripdep import (
    asymptotic_root_pgf,
    aux_root_pgf,
    cyclic_root_pgf,
    pgf_moments,
    pole_position,
    root_series_closed_form,
)

print("Small-width root-count PGFs (coefficients indexed by root count)")
print("-" * 64)
for K in range(3, 9):
    cyc = cyclic_root_pgf(K)
    aux = aux_root_pgf(K)
    print(f"K={K}  cyclic: {cyc.fraction_strings()}")
    print(f"      pinned-boundary: {aux.fraction_strings()}")

print()
print("Moment laws (exact rationals)")
print("-" * 64)
print(f"{'K':>4} {'mean':>8} {'variance':>10}")
for K in (3, 4, 5, 6, 7, 10, 25, 60):
    m = pgf_moments(cyclic_root_pgf(K))
    assert m.mean == F(K, 3)
    print(f"{K:>4} {str(m.mean):>8} {str(m.variance):>10}")
print("mean is K/3 throughout; variance settles on 2K/45 from K=5 on")
print("(width 4 is the lone exception at 2/9, width 3 is deterministic)")

print()
print("No-root probability of the pinned-boundary process: 2^(K-1)/K!")
for K in (3, 6, 9):
    print(f"  K={K}: {aux_root_pgf(K).coefficients[0]}")

print()
print("Series closed form vs truncated exact series at (x, z) = (0.3, 1.2)")
series = sum(float(aux_root_pgf(K)(F(6, 5))) * 0.3**K for K in range(1, 61))
closed = root_series_closed_form(0.3, 1.2)
print(f"  truncated series: {series:.15f}")
print(f"  closed form:      {closed.real:.15f}   (|diff| = {abs(closed - series):.2e})")

print()
print("Dominant-pole approximation at z = 1.1 (pole at "
      f"{pole_position(1.1):.6f})")
for K in (10, 20, 40):
    exact = float(aux_root_pgf(K)(F(11, 10)))
    approx = asymptotic_root_pgf(1.1, K)
    print(f"  K={K:>3}: exact {exact:.12e}  approx {approx:.12e}  "
          f"rel diff {abs(exact - approx) / exact:.1e}")
print("the two agree to float precision; the true formula error decays")
print("geometrically and is already ~1e-21 at K=20")
