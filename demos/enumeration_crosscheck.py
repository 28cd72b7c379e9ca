#!/usr/bin/env python3
"""Brute-force enumeration against the generating-function engines.

The final root set depends on a target sequence only through the order in
which sites are first hit, and that order is a uniform random permutation.
Summing over all K! orders gives exact distributions with no generating
functions involved; this script confirms the recursion engines reproduce
them coefficient for coefficient.
"""

from stripdep import (
    BoundaryMode,
    aux_root_pgf,
    cyclic_root_pgf,
    enumerate_gap_distribution,
    enumerate_root_distribution,
    gap_distribution,
    pgf_moments,
)

KMAX = 8   # K! orders per width; 8! = 40,320 keeps this instant

for K in range(3, KMAX + 1):
    cyc = enumerate_root_distribution(K, BoundaryMode.CYCLIC)
    aux = enumerate_root_distribution(K, BoundaryMode.AUXILIARY)
    assert cyc.pgf() == cyclic_root_pgf(K)
    assert aux.pgf() == aux_root_pgf(K)
    gap_ok = all(enumerate_gap_distribution(K, i).pgf() == gap_distribution(i, K)
                 for i in range(1, K))
    assert gap_ok
    print(f"K={K}: enumeration == engines (roots both modes, {K - 1} gap lengths)")
    print(f"   cyclic root distribution: "
          f"{ {v: str(p) for v, p in cyc.support.items()} }")

print()
print("Root-count support grows like K/2; probabilities are exact rationals")
print("with denominators dividing K!.")
d = enumerate_root_distribution(8, BoundaryMode.CYCLIC)
m = pgf_moments(d.pgf())
print(f"mean at K=8: {m.mean}  (= 8/3)   variance: {m.variance}")
