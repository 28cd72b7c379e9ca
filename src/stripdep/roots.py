"""Exact distribution of the final root count.

A site of the auxiliary (pinned-boundary) process of width K is a root when
it is first hit before both of its neighbours, so the root count is the
number of interior valleys of a uniform random first-hit order. The engine
therefore works on integer counts of first-hit orders,

    W_K(t) = K! * L_K(t),   L_K(t) = E(t^{#roots}),

whose coefficient of t^d is the number of orders of K ranks with d roots
(the classical peak polynomial; David & Barton, Combinatorial Chance, 1962;
Warren & Seneta, J. Appl. Probab. 1996). Inserting the largest rank into an
order of K ranks gives

    W_{K+1}(t) = (2 + (K-1) t) W_K(t) + 2 t (1 - t) W_K'(t),

with W_0 = W_1 = 1: per coefficient, c_d t^d adds (2 + 2d) c_d to t^d and
(K - 1 - 2d) c_d to t^{d+1}. A layer costs O(K) integer operations.
`aux_root_layers` streams W_0, W_1, ... and holds one layer at a time, so
a walk over widths costs one insertion per width and nothing is cached
between calls. The counts stay integers: the PGFs divide them by the
number of orders only to return a `RationalPolynomial`, and `verify roots`
and `exact-roots` take their moments straight from the counts.

The cyclic process of width K, observed after its first particle, is the
auxiliary process of width K-1 with one extra root, so its PGF is
t * L_{K-1}(t): the counts of W_{K-1} one power up, over (K-1)! orders.
`cyclic_counts` is the one place that applies this shift: `root_layers`
streams the layers of either boundary mode through it, and `verify roots`
applies it to the auxiliary walk it already makes.

The paper's first-step decomposition is kept as the reference engine
(`first_step_root_counts`): the first deposit either extends a boundary
column (no new root, width shrinks by one) or lands in the interior,
creating a root and splitting the strip into two independent sub-strips,

    W_K(t) = 2 W_{K-1}(t) + t * sum_{j=2}^{K-1} C(K-1, j-1) W_{j-1}(t) W_{K-j}(t),

which is L_K = (2 L_{K-1} + t sum L_{j-1} L_{K-j}) / K multiplied by K!.
`verify tables` checks that the two engines agree.

Two floating-point companions cross-check the exact engine: the closed form
of the series sum over K (`root_series_closed_form`) and the dominant-pole
approximation of L_K(z) for large K (`asymptotic_root_pgf`).

The recursion forces P(#roots = 0) = L_K(0) = 2**(K-1)/K! for the auxiliary
process (each of the first steps must fall next to a boundary column); this
value is pinned by the enumeration oracle in the test suite.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from collections.abc import Iterator

from .process import MIN_WIDTH, BoundaryMode, _check_layer_width, _check_width
from .ratpoly import RationalPolynomial, add_into, coefficient_product

# root_series_closed_form treats a denominator this small (relative to the
# tangent, once that exceeds 1) as a pole
POLE_TOLERANCE = 1e-12


def _insert_largest(n: int, counts: tuple[int, ...]) -> tuple[int, ...]:
    """W_{n+1} from W_n by inserting the largest rank."""
    out = [0] * (len(counts) + 1)
    for d, c in enumerate(counts):
        out[d] += (2 + 2 * d) * c
        out[d + 1] += (n - 1 - 2 * d) * c
    while out[-1] == 0:
        out.pop()
    return tuple(out)


def aux_root_layers(k_max: int) -> Iterator[tuple[int, ...]]:
    """W_0, W_1, ..., W_{k_max}, each layer built from the one before."""
    _check_layer_width(k_max)
    counts = (1,)                                 # W_0 = W_1 = 1
    for n in range(k_max + 1):
        yield counts
        if 0 < n < k_max:
            counts = _insert_largest(n, counts)


def cyclic_counts(n: int, counts: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(counts, total) of the cyclic width n + 1 from the auxiliary layer
    W_n: one extra root, over n! first-hit orders."""
    return (0, *counts), math.factorial(n)


def root_layers(mode: BoundaryMode,
                k_max: int) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """(K, counts, total) for each width K up to k_max, from 0 in auxiliary
    mode and from 3 in cyclic mode: counts[d] of the total first-hit orders
    leave d roots."""
    if mode is BoundaryMode.AUXILIARY:
        for K, counts in enumerate(aux_root_layers(k_max)):
            yield K, counts, math.factorial(K)
        return
    _check_width(k_max)
    for n, counts in enumerate(aux_root_layers(k_max - 1)):
        if n + 1 >= MIN_WIDTH:
            yield n + 1, *cyclic_counts(n, counts)


def aux_root_pgf(K: int) -> RationalPolynomial:
    """PGF of the root count of the auxiliary process of width K: the last
    layer W_K over K! orders."""
    return RationalPolynomial.from_counts(deque(aux_root_layers(K), maxlen=1)[0],
                                          math.factorial(K))


def first_step_root_counts(k_max: int) -> list[tuple[int, ...]]:
    """W_0..W_{k_max} from the paper's first-step recursion (the reference)."""
    _check_layer_width(k_max)
    layers: list[list[int]] = [[1], [1]]
    for n in range(2, k_max + 1):
        acc = [2 * c for c in layers[n - 1]]
        for j in range(2, n):
            # the factor t: the product one power up
            add_into(acc, [0, *coefficient_product(layers[j - 1], layers[n - j])],
                     math.comb(n - 1, j - 1))
        layers.append(acc)
    return [tuple(layer) for layer in layers[:k_max + 1]]


def cyclic_root_pgf(K: int) -> RationalPolynomial:
    """PGF of the final root count of the cyclic process of width K >= 3."""
    _, counts, total = deque(root_layers(BoundaryMode.CYCLIC, K), maxlen=1)[0]
    return RationalPolynomial.from_counts(counts, total)


def root_series_closed_form(x, z) -> complex:
    """Closed form of sum_{K>=1} L_K(z) x**K, valid near (x, z) = (0, 1).

    Equals tan(x*sqrt(z-1)) / (sqrt(z-1) - tan(x*sqrt(z-1))); the singularity
    at z = 1 is removable with value x/(1-x).
    """
    x = complex(x)
    z = complex(z)
    if z == 1:
        den = 1 - x
        if abs(den) <= POLE_TOLERANCE:
            raise ValueError("evaluation at the x = 1 pole")
        return x / den
    w = cmath.sqrt(z - 1)
    t = cmath.tan(x * w)
    den = w - t
    if abs(den) <= POLE_TOLERANCE * max(1.0, abs(t)):
        raise ValueError(f"evaluation too close to a pole (denominator {den})")
    return t / den


def pole_position(z: float) -> float:
    """Smallest positive pole of the series in x for real z near 1 (z != 1).

    For z > 1 this is arctan(sqrt(z-1))/sqrt(z-1); for 0 < z < 1 the same
    expression continues to artanh(sqrt(1-z))/sqrt(1-z). Tends to 1 as z -> 1.
    """
    if z <= 0 or z == 1:
        raise ValueError(f"pole position defined for real z > 0, z != 1; got {z}")
    if z > 1:
        s = math.sqrt(z - 1)
        return math.atan(s) / s
    s = math.sqrt(1 - z)
    return math.atanh(s) / s


def asymptotic_root_pgf(z: float, K: int) -> float:
    """Dominant-pole approximation rho(z)**(-K-1) / z of L_K(z).

    The remainder decays geometrically faster in K than the main term grows,
    so the relative error shrinks geometrically. z = 1 is excluded (use the
    exact engine there).
    """
    _check_width(K)
    rho = pole_position(z)
    return rho ** (-(K + 1)) / z
