"""Exhaustive enumeration oracle for small substrate widths.

For independent uniform targets, the order in which the K sites are first hit
is a uniform random permutation, and the final root set depends on the target
sequence only through that order. Summing over all K! first-hit orders with
weight 1/K! therefore gives exact distributions of every final-surface
statistic, independently of both the simulator and the generating-function
engines.

Each width sweeps its K! orders once, and the sweep keeps one thing: how
many orders give each cyclic root set, a K-bit mask with bit k for site k
(2^K integer counts). It runs in numpy blocks of orders that share a leading
prefix of ranks: each block holds every order of the last min(K, 7) sites,
at most 7! = 5,040 orders of K int8 ranks (about 50 KB at K = 10, with one
boolean mask of the same size per step). A site is a root when its rank is
below both neighbours' ranks.

Every statistic is then read from the few distinct root sets (122 at
K = 10), each weighted by its order count. An inner site has the same two
neighbours in both boundary modes and sites 1 and K are never auxiliary
roots, so an auxiliary root set is a cyclic one with those two bits cleared.
Gaps come from a window rule rather than from distances between consecutive
roots: a gap of index d - 1 starts at root a when site a + d is a root and
no site strictly between them is, checked for d = 2..K with a running mask
of the roots still clear of a root; at d = K the window closes on a itself,
which is the gap of index K - 1 of an order with one root. Nothing here is
shared with the simulator's kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .process import BoundaryMode, _check_gap_index, _check_width
from .ratpoly import RationalPolynomial, fraction_string

# Hard guard on the K! sweep. At K = 10 (3,628,800 orders) the one sweep that
# serves both boundary modes takes about 0.12-0.17 s on a 2-core Intel Xeon
# box, and reading both modes from its root sets under 1 ms; K = 11 would
# take eleven times as long.
MAX_ENUMERATION_WIDTH = 10


class EnumerationLimitError(RuntimeError):
    """Raised when an enumeration request exceeds MAX_ENUMERATION_WIDTH."""

    def __init__(self, K: int):
        super().__init__(
            f"enumeration over K! first-hit orders is capped at "
            f"K = {MAX_ENUMERATION_WIDTH} (requested K = {K})")
        self.K = K


def _check_enumeration_width(K: int) -> None:
    _check_width(K)
    if K > MAX_ENUMERATION_WIDTH:
        raise EnumerationLimitError(K)


@dataclass(frozen=True)
class ExactDistribution:
    """Distribution on a finite integer support with exact probabilities."""

    statistic: str
    K: int
    mode: BoundaryMode
    support: dict[int, Fraction]
    i: int | None = field(default=None)

    def __post_init__(self):
        total = sum(self.support.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for p in self.support.values()):
            raise ValueError("negative probability")

    def pgf(self) -> RationalPolynomial:
        coeffs = [Fraction(0)] * (max(self.support) + 1 if self.support else 1)
        for v, p in self.support.items():
            coeffs[v] = p
        return RationalPolynomial(coeffs)

    def to_json_dict(self) -> dict:
        out = {"statistic": self.statistic, "K": self.K, "mode": self.mode.value,
               "support": {str(v): fraction_string(p) for v, p in sorted(self.support.items())}}
        return out if self.i is None else {**out, "i": self.i}


# A block fixes the ranks of the first K - min(K, 7) sites and takes every
# order of the other ranks on the last min(K, 7) sites: K rows (sites) by at
# most 7! = 5,040 columns (orders). Sites run down the rows so that
# neighbours are whole-row slices. 6! columns per block take 2-3x as long at
# K = 10; 8! run no faster at K = 10, 2-3x slower for K = 3..9 (building the
# 8! tail) and raise peak memory by about 4.5 MiB.
_BLOCK_TAIL = 7


def _order_blocks(K: int):
    """Yield int8 blocks of shape (K, n) whose columns are the ranks by site
    of the K! first-hit orders, every order in exactly one column."""
    tail = min(K, _BLOCK_TAIL)
    tail_orders = np.ascontiguousarray(
        np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(tail))),
                    dtype=np.int8).reshape(-1, tail).T)
    for prefix in itertools.permutations(range(K), K - tail):
        rest = np.array([r for r in range(K) if r not in prefix], dtype=np.int8)
        block = np.empty((K, tail_orders.shape[1]), dtype=np.int8)
        block[:K - tail] = np.reshape(prefix, (-1, 1))
        block[K - tail:] = rest.take(tail_orders)
        yield block


@lru_cache(maxsize=None)
def _root_sets(K: int) -> np.ndarray:
    """The one sweep over all K! first-hit orders of width K.

    Returns a read-only int64 array of 2^K counts: entry s is the number of
    orders whose cyclic root set is the sites k with bit k of s set.
    """
    counts = np.zeros(2 ** K, dtype=np.int64)
    site_bits = 1 << np.arange(K, dtype=np.int16)
    for ranks in _order_blocks(K):
        # a site is a root when its rank is below both neighbours' ranks
        roots = (ranks < np.roll(ranks, 1, axis=0)) & (ranks < np.roll(ranks, -1, axis=0))
        counts += np.bincount(site_bits @ roots, minlength=2 ** K)
    counts.flags.writeable = False
    return counts


@lru_cache(maxsize=None)
def _enumerate(K: int, mode: BoundaryMode):
    """Order counts of the root and gap statistics, read from `_root_sets`.

    Returns (root_hist, gap_hist): root_hist[v] is the number of orders with
    v roots and gap_hist[i][v] the number with v gaps of index i (cyclic
    mode only), zero included, so each row for i = 1..K-1 sums to K!.
    """
    counts = _root_sets(K)
    sets = np.flatnonzero(counts)
    orders = counts[sets]
    if mode is BoundaryMode.AUXILIARY:
        # inner sites keep their cyclic neighbours; sites 1 and K are never roots
        sets &= 2 ** (K - 1) - 2
    roots = ((sets >> np.arange(K).reshape(-1, 1)) & 1).astype(bool)     # [site, root set]
    root_hist = np.zeros(K + 1, dtype=np.int64)
    gap_hist = np.zeros((K, K + 1), dtype=np.int64)     # [gap index, count]
    np.add.at(root_hist, roots.sum(axis=0), orders)
    if mode is BoundaryMode.CYCLIC:
        # a gap of index d - 1 starts at root a when site a + d is a root and
        # no site strictly between is; `clear` marks the roots a with no root
        # at a+1 .. a+d-1. At d = K the end is a itself: one-root orders.
        ring = np.concatenate((roots, roots))
        clear = roots.copy()
        for d in range(2, K + 1):
            clear &= ~ring[d - 1:d - 1 + K]
            np.add.at(gap_hist[d - 1], (clear & ring[d:d + K]).sum(axis=0), orders)
    # tuples, since the cache hands the same result to every caller
    return tuple(root_hist.tolist()), tuple(map(tuple, gap_hist.tolist()))


def _support(hist: tuple[int, ...], K: int) -> dict[int, Fraction]:
    """The values an order count ``hist`` over all K! orders gives mass."""
    total = math.factorial(K)
    return {v: Fraction(c, total) for v, c in enumerate(hist) if c}


def enumerate_root_distribution(K: int, mode: BoundaryMode) -> ExactDistribution:
    """Exact distribution of the final root count by brute-force enumeration."""
    _check_enumeration_width(K)
    root_hist, _ = _enumerate(K, mode)
    return ExactDistribution(statistic="roots", K=K, mode=mode, support=_support(root_hist, K))


def enumerate_gap_distribution(K: int, i: int) -> ExactDistribution:
    """Exact distribution of the number of gaps of index ``i`` (cyclic mode)."""
    _check_enumeration_width(K)
    _check_gap_index(i, K)
    _, gap_hist = _enumerate(K, BoundaryMode.CYCLIC)
    return ExactDistribution(statistic="gaps", K=K, mode=BoundaryMode.CYCLIC,
                             support=_support(gap_hist[i], K), i=i)
