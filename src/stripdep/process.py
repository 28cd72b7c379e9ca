"""Ballistic deposition on a strip of K sites.

A unit square drops onto a uniformly random site and sticks at one plus the
maximum height over the site and its neighbors. Two boundary conventions are
supported: CYCLIC wraps the strip into a ring; AUXILIARY pins virtual
boundary cells at height 1 outside sites 1 and K (so the strip is a path and
the edge sites can never land on the surface). Both are one ring to the
height kernel `deposit`: the auxiliary strip is the K sites followed by a
single cell pinned at height 1, which neighbours site 1 and site K.

A site is a *root* when its first deposit lands at height 1, which happens
exactly when the site is targeted before every neighbor; no other deposit
lands at height 1, so `deposit` reports the roots without tracking first
hits. Final root sets are therefore determined by the order in which sites
are first hit, and a uniform random permutation of first-hit ranks
reproduces their distribution without simulating heights;
`roots_from_permutation` is that fast path and `simulate_final_roots` is the
full-height reference path. `deposit` is the only height update: the
reference path and the growth estimate in `stripdep.ensemble` both call it.

Each of the model's six input rules has one check with one message: a ring
has at least 3 sites, a gap index i is in 1..K-1, the exact recursions
start at width 0, a growth run has 1..2**40 deposits, gaps and the gap
average exist only on the cyclic process (the `_check_*` functions below),
and the K! sweep is capped (`stripdep.oracle._check_enumeration_width`).
The first five raise `EnsembleConfigError`, a `ValueError` and the CLI's
exit-2 error; the cap raises `EnumerationLimitError`, its exit-3 guard.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

MIN_WIDTH = 3

# Cap on deposition steps per run. Heights are Python ints and cannot
# overflow; the cap keeps a height (at most the step count) exact in the
# float64 of a growth sample, and refuses up front a run that would not end
# (2^40 deposits at about 200 ns each is some 60 hours).
MAX_STEPS = 2**40


class BoundaryMode(enum.Enum):
    CYCLIC = "cyclic"
    AUXILIARY = "aux"


class EnsembleConfigError(ValueError):
    """A configuration or input the model does not define: the CLI's exit 2."""


def _check_width(K: int) -> None:
    if K < MIN_WIDTH:
        raise EnsembleConfigError(f"substrate width must be >= {MIN_WIDTH}, got {K}")


def _check_gap_index(i: int, K: int) -> None:
    """A gap of index i spans i+1 sites of the ring, so 1 <= i <= K-1."""
    if not 1 <= i <= K - 1:
        raise EnsembleConfigError(f"gap index {i} out of range 1..{K - 1}")


def _check_layer_width(n: int) -> None:
    if n < 0:
        raise EnsembleConfigError(f"width must be non-negative, got {n}")


def _check_steps(n: int) -> None:
    if not 1 <= n <= MAX_STEPS:
        raise EnsembleConfigError(f"deposits per run must be in 1..2**40, got {n}")


def _check_cyclic(mode: BoundaryMode, what: str) -> None:
    if mode is not BoundaryMode.CYCLIC:
        raise EnsembleConfigError(f"{what}: defined for the cyclic process only")


@dataclass(frozen=True)
class FirstHitPermutation:
    """ranks[k-1] = rank (1..K) of site k's first-target time."""

    K: int
    ranks: tuple[int, ...]

    def __post_init__(self):
        _check_width(self.K)
        if sorted(self.ranks) != list(range(1, self.K + 1)):
            raise ValueError("ranks must be a permutation of 1..K")


@dataclass(frozen=True)
class RootSet:
    """Sites whose particle sits directly on the surface (height 1)."""

    K: int
    mode: BoundaryMode
    roots: tuple[int, ...]

    def __post_init__(self):
        if any(self.roots[j] >= self.roots[j + 1] for j in range(len(self.roots) - 1)):
            raise ValueError("roots must be strictly increasing")

    @property
    def card(self) -> int:
        return len(self.roots)


def roots_from_permutation(perm: FirstHitPermutation, mode: BoundaryMode) -> RootSet:
    """Root set implied by first-hit ranks: a site is a root iff it is hit
    before every neighbor. Virtual boundary cells in AUXILIARY mode are
    occupied from the start, so sites 1 and K can never be roots there."""
    K = perm.K
    ranks = perm.ranks
    # k - 2 and k % K wrap round the ring at the cyclic sites 1 and K; the
    # auxiliary sites 2..K-1 never wrap
    sites = range(1, K + 1) if mode is BoundaryMode.CYCLIC else range(2, K)
    roots = tuple(k for k in sites
                  if ranks[k - 1] < ranks[k - 2] and ranks[k - 1] < ranks[k % K])
    return RootSet(K=K, mode=mode, roots=roots)


def first_hit_ranks(targets, K: int) -> FirstHitPermutation:
    """Extract first-hit ranks from a target sequence covering all sites."""
    _check_width(K)
    ranks = [0] * K
    seen = 0
    for t in targets:
        if not 1 <= t <= K:
            raise ValueError(f"site {t} out of range 1..{K}")
        if ranks[t - 1] == 0:
            seen += 1
            ranks[t - 1] = seen
        if seen == K:
            break
    if seen < K:
        missing = [k for k in range(1, K + 1) if ranks[k - 1] == 0]
        raise ValueError(f"target sequence never hits sites {missing}")
    return FirstHitPermutation(K=K, ranks=tuple(ranks))


def gap_vector(roots: RootSet) -> Counter[int]:
    """Gap counts between consecutive roots, keyed by gap index i (circular
    distance i+1), including the pair wrapping around the ring: a single
    root gives one gap of index K-1. Defined for the cyclic process only."""
    _check_cyclic(roots.mode, "gap vector")
    if roots.card == 0:
        raise ValueError("cyclic root set cannot be empty")
    pos = roots.roots
    return Counter(b - a - 1 for a, b in zip(pos, (*pos[1:], pos[0] + roots.K)))


def deposit(heights: list[int], targets) -> list[int]:
    """Deposit on each 0-based target in turn, in place on the ring
    ``heights``, and return the targets whose deposit landed at height 1.

    A deposit lands at height 1 exactly when its site and both neighbours
    are still empty, i.e. on a site's first hit before either neighbour's:
    the returned targets are the roots. For the cyclic strip ``heights`` is
    the K sites; for the auxiliary strip it is the K sites followed by one
    cell pinned at height 1, never targeted, which the ring makes the
    neighbour of both site 1 and site K."""
    n = len(heights)
    ones = []
    for t in targets:
        # heights[t-1] wraps to heights[-1] at t=0: the ring's left neighbour
        h = heights[t]
        left = heights[t - 1]
        right = heights[t + 1 if t + 1 < n else 0]
        if left > h:
            h = left
        if right > h:
            h = right
        h += 1
        heights[t] = h
        if h == 1:
            ones.append(t)
    return ones


def simulate_final_roots(K: int, mode: BoundaryMode,
                         rng: np.random.Generator) -> tuple[RootSet, Counter[int] | None]:
    """Full-height simulation of the deposition chain until the root set is
    final, i.e. until every site has been targeted at least once (a site's
    root status is decided at its first hit). Targets come in batches of
    ``min(4K, 2**16)``; deposits after full coverage in the last batch cannot
    land at height 1. Returns the root set and, in cyclic mode, its gap
    counts (`gap_vector`); in auxiliary mode None."""
    _check_width(K)
    heights = [0] * K + ([1] if mode is BoundaryMode.AUXILIARY else [])
    roots = []
    while 0 in heights:
        roots += deposit(heights, rng.integers(0, K, size=min(4 * K, 1 << 16)).tolist())
    root_set = RootSet(K=K, mode=mode, roots=tuple(sorted(t + 1 for t in roots)))
    if mode is BoundaryMode.CYCLIC:
        return root_set, gap_vector(root_set)
    return root_set, None
