"""Seeded ensemble simulation of final-surface statistics.

Each run draws its own random stream from ``SeedSequence(base_seed,
spawn_key=(run_index,))``, so an ensemble's result is a pure function of its
configuration: chunking and worker count cannot change a single sample.
`stream_states` computes a block's PCG64 states at once, with numpy's own
`SeedSequence` and `PCG64` seeding algorithms worked in numpy columns, and a
chunk sets each state on one reused generator. Each chunk first checks its
first run's state against `run_stream`, numpy's own seeding, and raises
before drawing anything if they differ.
Root/gap statistics use the first-hit permutation fast path (uniform random
permutation, roots = sites ranked before both neighbors), which the test
suite validates against the full height simulation; the height-growth
statistic is the one consumer that needs real heights, and it runs them on
`process.deposit`, the package's one height update.

Runs are drawn into ``(BLOCK, K)`` blocks of first-hit ranks: each row is
its run's own stream shuffling ``arange(K)``, the same draw as
``Generator.permutation(K)``, so blocking, like chunking, changes no sample.
One kernel (`block_tallies`) then finds the roots and tallies the requested
gap lengths of the whole block with a few numpy calls.
`process.roots_from_permutation` and `process.gap_vector` stay the
independent per-run reference that the tests compare the kernel against.

Runs are simulated in chunks of consecutive runs, one after another or on
a pool of ``workers`` processes, and merged in run order. No more
processes start than there are chunks or CPUs. `chunk_plan` sizes the
chunks by work, counting runs and deposits, so that an ensemble of a few
long height-growth runs still spreads over the workers.

An ensemble keeps its per-run results in run order and nothing else: the
root counts (int32), one int32 column of gap counts per gap length, and the
height-growth samples (float64). Histograms, moments and the empirical gap
average ``K / roots - 1`` are all read from these arrays, so the store costs
``4 * (1 + G)`` bytes per run for ``G`` gap lengths, plus 8 per run with
height growth. The arrays are read-only, so no reader can change them.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .process import (BoundaryMode, EnsembleConfigError, RootSet, _check_cyclic, _check_gap_index,
                      _check_steps, _check_width, deposit)

STAT_ROOTS = "roots"
STAT_GAPS = "gaps"
STAT_EMPIRICAL = "empirical_gap_average"
STAT_GROWTH = "height_growth"
VALID_STATISTICS = (STAT_ROOTS, STAT_GAPS, STAT_EMPIRICAL, STAT_GROWTH)

# A chunk, the unit of work handed to a worker, holds at most CHUNK_SIZE
# runs and, when height growth is collected, at most CHUNK_DEPOSITS
# deposits (about 50 ms at 200 ns a deposit). So a run of more than 2**17
# deposits is a chunk of its own, and a few long runs still spread over the
# workers. Every run draws from its own stream, so no sample depends on the
# chunk plan.
CHUNK_SIZE = 4096
CHUNK_DEPOSITS = 1 << 18

# Rows of first-hit ranks per kernel call. At K=1500 the int32 block takes
# 375 KiB and the kernel's temporaries stay under 1 MiB; much larger blocks
# measured slower.
BLOCK = 64

GENERATOR_ID = f"numpy {np.__version__} PCG64 / SeedSequence(base_seed, spawn_key=(run,))"


@dataclass(frozen=True)
class EnsembleConfig:
    K: int
    mode: BoundaryMode = BoundaryMode.CYCLIC
    runs: int = 200_000
    base_seed: int = 0
    statistics: tuple[str, ...] = (STAT_ROOTS,)
    gap_lengths: tuple[int, ...] = ()
    growth_steps: int = 0
    workers: int = 1

    def __post_init__(self):
        # a string is iterable too, and would be taken apart into characters
        for name, example in (("statistics", (STAT_ROOTS,)), ("gap_lengths", (1, 2))):
            value = getattr(self, name)
            if isinstance(value, str):
                raise EnsembleConfigError(
                    f"{name} must be a tuple such as {example!r}, got the string {value!r}")
        # a repeated statistic or gap length is collected once
        object.__setattr__(self, "statistics", tuple(dict.fromkeys(self.statistics)))
        object.__setattr__(self, "gap_lengths", tuple(dict.fromkeys(self.gap_lengths)))
        _check_width(self.K)
        if self.runs < 1:
            raise EnsembleConfigError(f"runs must be >= 1, got {self.runs}")
        if self.workers < 1:
            raise EnsembleConfigError(f"workers must be >= 1, got {self.workers}")
        if self.base_seed < 0:
            raise EnsembleConfigError(f"seed must be >= 0, got {self.base_seed}")
        if not self.statistics:
            raise EnsembleConfigError("at least one statistic is required")
        unknown = [s for s in self.statistics if s not in VALID_STATISTICS]
        if unknown:
            raise EnsembleConfigError(f"unknown statistics {unknown}; valid: {VALID_STATISTICS}")
        cyclic_only = [s for s in (STAT_GAPS, STAT_EMPIRICAL, STAT_GROWTH) if s in self.statistics]
        if cyclic_only:
            _check_cyclic(self.mode, f"statistics {cyclic_only}")
        if STAT_GAPS in self.statistics:
            if not self.gap_lengths:
                raise EnsembleConfigError("gap statistics need at least one gap length")
            for i in self.gap_lengths:
                _check_gap_index(i, self.K)
        elif self.gap_lengths:
            raise EnsembleConfigError(
                f"gap lengths {list(self.gap_lengths)} need the {STAT_GAPS!r} statistic")
        if STAT_GROWTH in self.statistics:
            _check_steps(self.growth_steps)

    def columns(self) -> list[tuple[str, int | None]]:
        """The ``(statistic, i)`` of each reported column, in configuration
        order: each statistic, and each gap length for gaps (``i`` is None
        for the others)."""
        return [(s, i) for s in self.statistics
                for i in (self.gap_lengths if s == STAT_GAPS else (None,))]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "mode": self.mode.value, "statistics": list(self.statistics),
                "gap_lengths": list(self.gap_lengths)}


def run_stream(base_seed: int, run_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one run; worker-count agnostic.
    numpy's own seeding: the reference that `stream_states` is checked against."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(base_seed, spawn_key=(run_index,))))


# numpy's SeedSequence hash (O'Neill's seed_seq design) on 32-bit words and
# PCG64's 128-bit LCG seeding, restated from numpy's implementation. The hash
# functions below take Python ints and uint32 arrays alike.
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hashmix(value, h: int, mult: int):
    """SeedSequence's hash of a word with hash constant ``h``: the hashed
    word and the next hash constant. ``mult`` is ``_MULT_A`` when entropy is
    mixed into the pool and ``_MULT_B`` when state words are generated."""
    h_next = h * mult & _MASK32
    value = (value ^ h) * h_next & _MASK32
    return value ^ value >> 16, h_next


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _mix_in(pool: list, word, h: int) -> int:
    """Mix one entropy word past the pool size into every pool word, in
    place; returns the next hash constant."""
    for dst in range(_POOL_SIZE):
        hashed, h = _hashmix(word, h, _MULT_A)
        pool[dst] = _mix(pool[dst], hashed)
    return h


def stream_states(base_seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of ``run_stream(base_seed, j)`` for each
    run ``j`` in ``[start, stop)``, computed for the whole range at once.

    The base seed's words are hashed into the pool once, in Python ints.
    Each run's spawn-key words are then mixed into the pool as uint32
    columns, one group of runs per word count (one word below 2**32, two
    below 2**64, ...), and the columns give ``generate_state(4, uint64)``.
    PCG64 takes its two 128-bit seeding steps in Python ints.
    """
    # little-endian 32-bit words (0 is one word), padded to the pool size
    # because a spawn key follows
    words = [base_seed >> shift & _MASK32 for shift in range(0, max(base_seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    h = _INIT_A
    base = []
    for word in words[:_POOL_SIZE]:
        hashed, h = _hashmix(word, h, _MULT_A)
        base.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, h = _hashmix(base[src], h, _MULT_A)
                base[dst] = _mix(base[dst], hashed)
    for word in words[_POOL_SIZE:]:
        h = _mix_in(base, word, h)

    states = []
    lo = start
    while lo < stop:
        n_words = max(1, -(-lo.bit_length() // 32))
        runs = range(lo, min(stop, 1 << 32 * n_words))
        pool = [np.full(len(runs), word, dtype=np.uint32) for word in base]
        g = h
        for shift in range(0, 32 * n_words, 32):
            g = _mix_in(pool, np.array([j >> shift & _MASK32 for j in runs], dtype=np.uint32), g)
        # generate_state(4, uint64): eight words, read as little-endian pairs
        out, g = [], _INIT_B
        for k in range(8):
            value, g = _hashmix(pool[k % _POOL_SIZE], g, _MULT_B)
            out.append(value.astype(np.uint64))
        seed_hi, seed_lo, inc_hi, inc_lo = (
            (out[k] | out[k + 1] << 32).tolist() for k in range(0, 8, 2))
        for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
        lo = runs.stop
    return states


def empirical_gap_average(roots: RootSet) -> float:
    """Per-sample average gap length K/#roots - 1 (cyclic mode)."""
    _check_cyclic(roots.mode, "empirical gap average")
    if roots.card == 0:
        raise ValueError("empty root set")
    return roots.K / roots.card - 1.0


def normalized_ks_statistic(samples, mean: float, sd: float) -> float:
    """Kolmogorov-Smirnov distance between the empirical CDF of the
    standardized samples and the standard normal CDF."""
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    if not np.isfinite(sd) or sd <= 0:
        raise ValueError(f"standard deviation must be positive and finite, got {sd}")
    from scipy.special import ndtr     # scipy costs most of this module's import time
    z = np.sort((arr - mean) / sd)
    cdf = ndtr(z)
    n = z.size
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    return max(float(np.max(steps - cdf)), float(np.max(cdf - (steps - 1.0 / n))))


def height_growth_estimate(K: int, n_steps: int, rng: np.random.Generator) -> float:
    """max height / n after ``n_steps`` deposits of one cyclic run. Heights
    never decrease, so the largest height reached is the final maximum."""
    _check_width(K)
    _check_steps(n_steps)
    heights = [0] * K
    for done in range(0, n_steps, 1 << 16):
        deposit(heights, rng.integers(0, K, size=min(n_steps - done, 1 << 16)).tolist())
    return max(heights) / n_steps


def root_mask(ranks: np.ndarray, mode: BoundaryMode) -> np.ndarray:
    """Roots of each row of a ``(B, K)`` block of first-hit ranks: the sites
    ranked before both neighbours. Cyclic neighbours wrap around the row;
    in AUXILIARY mode sites 1 and K are never roots."""
    mask = np.zeros(ranks.shape, dtype=bool)
    mid = ranks[:, 1:-1]
    np.logical_and(mid < ranks[:, :-2], mid < ranks[:, 2:], out=mask[:, 1:-1])
    if mode is BoundaryMode.CYCLIC:
        first, last = ranks[:, 0], ranks[:, -1]
        mask[:, 0] = (first < last) & (first < ranks[:, 1])
        mask[:, -1] = (last < ranks[:, -2]) & (last < first)
    return mask


def block_tallies(ranks: np.ndarray, mode: BoundaryMode,
                  gap_lengths: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Root count of each row of a ``(B, K)`` block of first-hit ranks, and
    ``(B, len(gap_lengths))`` counts of the gaps of each distinct requested
    length (cyclic mode; the pair wrapping around the row included)."""
    mask = root_mask(ranks, mode)
    cards = np.count_nonzero(mask, axis=1)
    B, K = ranks.shape
    G = len(gap_lengths)
    if not G:
        return cards, np.zeros((B, 0), dtype=np.int64)
    _check_cyclic(mode, "gap tallies")
    if not cards.all():
        raise ValueError("a row without roots: ranks must be permutations")
    # Root positions in the flat block run row by row, so each root's next
    # root is the next position, except that a row's last root wraps to the
    # row's first root + K. A gap of length i spans a distance of i + 1.
    # The arrays below are worked in place: fresh ones this size, freed on
    # every block, are handed back to the system and fault in again.
    pos = np.flatnonzero(mask)
    last = np.cumsum(cards) - 1
    dist = np.empty_like(pos)
    np.subtract(pos[1:], pos[:-1], out=dist[:-1])
    dist[last] = pos[last - cards + 1] + K - pos[last]
    del pos
    if __debug__:
        # no two roots are adjacent, and a lone root's gap spans the row (K >= 3)
        assert dist.min() >= 2
    column = np.full(K + 1, G)
    column[np.add(gap_lengths, 1)] = np.arange(G)
    key = np.take(column, dist, out=dist)
    key += np.repeat(np.arange(0, B * (G + 1), G + 1), cards)
    tally = np.bincount(key, minlength=B * (G + 1))
    return cards, tally.reshape(B, G + 1)[:, :G]


def chunk_plan(cfg: EnsembleConfig) -> list[tuple[int, int]]:
    """The ``[start, stop)`` run ranges that `run_ensemble` simulates, one
    per chunk, in run order. ``growth_steps`` counts only when height growth
    is collected."""
    size = CHUNK_SIZE
    if STAT_GROWTH in cfg.statistics:
        size = max(1, min(CHUNK_SIZE, CHUNK_DEPOSITS // cfg.growth_steps))
    return [(start, min(start + size, cfg.runs)) for start in range(0, cfg.runs, size)]


def _simulate_chunk(cfg: EnsembleConfig, start: int,
                    stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate runs [start, stop); pure function of its arguments. Returns
    each run's root count, its ``(runs, G)`` gap counts and its growth
    sample, in run order; the root counts and growth samples are empty when
    no statistic needs them."""
    K = cfg.K
    want_growth = STAT_GROWTH in cfg.statistics
    needs_perm = any(s != STAT_GROWTH for s in cfg.statistics)

    n = stop - start
    cards = np.zeros(n if needs_perm else 0, dtype=np.int32)
    gaps = np.zeros((n, len(cfg.gap_lengths)), dtype=np.int32)
    growth = np.zeros(n if want_growth else 0, dtype=np.float64)
    block = np.empty((BLOCK, K), dtype=np.int32)
    # one generator for the chunk; each run sets its own state on it
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)

    for lo in range(0, n, BLOCK):
        rows = block[:min(BLOCK, n - lo)]
        states = stream_states(cfg.base_seed, start + lo, start + lo + len(rows))
        if lo == 0:
            numpy_state = run_stream(cfg.base_seed, start).bit_generator.state["state"]
            if (numpy_state["state"], numpy_state["inc"]) != states[0]:
                raise RuntimeError(
                    f"numpy {np.__version__} seeds run {start} of base seed {cfg.base_seed} "
                    "differently from stream_states; its SeedSequence or PCG64 seeding changed")
        if needs_perm:
            rows[:] = np.arange(K, dtype=np.int32)
        for r, (row, (state, inc)) in enumerate(zip(rows, states)):
            bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            if needs_perm:
                # Generator.permutation(K) is exactly this shuffle of arange(K);
                # shuffle draws the same numbers whatever the item size
                rng.shuffle(row)
            if want_growth:
                # continues the same per-run stream after any permutation draw
                growth[lo + r] = height_growth_estimate(K, cfg.growth_steps, rng)
        if needs_perm:
            hi = lo + len(rows)
            cards[lo:hi], gaps[lo:hi] = block_tallies(rows, cfg.mode, cfg.gap_lengths)
    return cards, gaps, growth


class EnsembleStats:
    """An ensemble's per-run results, in run order: ``root_counts``,
    ``gap_counts`` (one column per configured gap length) and
    ``growth_samples``. Every statistic is read from these arrays; reading
    one the configuration did not collect raises `KeyError`."""

    def __init__(self, config: EnsembleConfig, chunks):
        self.config = config
        cards, gaps, growth = zip(*chunks)
        self.root_counts = np.concatenate(cards)
        self.gap_counts = np.concatenate(gaps)
        self.growth_samples = np.concatenate(growth)
        for store in (self.root_counts, self.gap_counts, self.growth_samples):
            store.flags.writeable = False
        self.runtime_seconds: float | None = None

    def _per_run(self, statistic: str, i: int | None) -> np.ndarray:
        """One statistic's value for each run, in run order: int32 for the
        counts (roots, gaps), float64 for the others, which the readers go by."""
        if statistic not in self.config.statistics:
            raise KeyError(f"{statistic} is not collected in this ensemble")
        if statistic == STAT_ROOTS:
            return self.root_counts
        if statistic == STAT_GAPS:
            if i not in self.config.gap_lengths:
                raise KeyError(f"gap length {i} not in this ensemble")
            return self.gap_counts[:, self.config.gap_lengths.index(i)]
        if statistic == STAT_EMPIRICAL:
            return self.config.K / self.root_counts - 1.0
        return self.growth_samples

    def samples(self, statistic: str, i: int | None = None) -> np.ndarray:
        """Real statistics in run order; integer ones sorted, as float64."""
        values = self._per_run(statistic, i)
        if values.dtype.kind == "i":
            values = values.astype(np.float64)
            values.sort()
        return values

    def _moments(self, statistic: str, i: int | None) -> tuple[float, float]:
        """Mean and unbiased sample variance (0.0 below two samples). Integer
        statistics are summed over their histogram in Python integers, which
        cannot overflow."""
        values = self._per_run(statistic, i)
        n = len(values)
        if values.dtype.kind != "i":
            return float(np.mean(values)), (float(np.var(values, ddof=1)) if n > 1 else 0.0)
        hist = self.histogram(statistic, i)
        s1 = sum(v * c for v, c in hist.items())
        s2 = sum(v * v * c for v, c in hist.items())
        return s1 / n, ((s2 - s1 * s1 / n) / (n - 1) if n > 1 else 0.0)

    def mean(self, statistic: str, i: int | None = None) -> float:
        return self._moments(statistic, i)[0]

    def variance(self, statistic: str, i: int | None = None) -> float:
        """Unbiased sample variance; 0.0 below two samples."""
        return self._moments(statistic, i)[1]

    def ks_normal(self, statistic: str, i: int | None = None) -> float:
        samples = self.samples(statistic, i)
        return normalized_ks_statistic(samples, float(np.mean(samples)),
                                       float(np.std(samples, ddof=1)))

    def histogram(self, statistic: str, i: int | None = None):
        """Integer statistics: {value: count} over the observed range.
        Real statistics: (bin_edges, counts) with 200 uniform bins over
        mean +/- 5 sample standard deviations."""
        values = self._per_run(statistic, i)
        if values.dtype.kind == "i":
            values, counts = np.unique(values, return_counts=True)
            return dict(zip(values.tolist(), counts.tolist()))
        m, var = self._moments(statistic, i)
        sd = math.sqrt(var) or 1.0
        counts, edges = np.histogram(values, bins=200, range=(m - 5 * sd, m + 5 * sd))
        return edges, counts

    def histogram_series(self, statistic: str, i: int | None = None) -> list[tuple]:
        """Histogram as (bin, count) pairs: sorted (value, count) for integer
        statistics, (bin centre formatted with ".10g", count) for real ones."""
        hist = self.histogram(statistic, i)
        if isinstance(hist, dict):
            return list(hist.items())
        edges, counts = hist
        centers = (edges[:-1] + edges[1:]) / 2
        return [(format(b, ".10g"), int(c)) for b, c in zip(centers, counts)]

    def write_histogram_csv(self, path, statistic: str, i: int | None = None) -> None:
        """One statistic's histogram as CSV: "# key=value" config lines, then
        "statistic,bin,count" rows labelled with the statistic (gaps[i])."""
        label = f"gaps[{i}]" if statistic == STAT_GAPS else statistic
        series = self.histogram_series(statistic, i)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for key, value in sorted(self.config.to_json_dict().items()):
                fh.write(f"# {key}={value}\n")
            fh.write("statistic,bin,count\n")
            for b, c in series:
                fh.write(f"{label},{b},{c}\n")

    def summary_dict(self) -> dict:
        """Self-describing summary (deterministic for a fixed config)."""
        stats: dict[str, dict] = {}
        for s, i in self.config.columns():
            mean, variance = self._moments(s, i)
            e = {"mean": mean, "variance": variance}
            if variance > 0:
                e["ks_normal"] = self.ks_normal(s, i)
            stats[s if i is None else f"gaps[{i}]"] = e
        return {
            "config": self.config.to_json_dict(),
            "generator": GENERATOR_ID,
            "statistics": stats,
        }


def run_ensemble(cfg: EnsembleConfig) -> EnsembleStats:
    """Run the configured ensemble; bitwise reproducible for fixed config."""
    started = time.perf_counter()
    starts, stops = zip(*chunk_plan(cfg))
    workers = min(cfg.workers, len(starts), os.cpu_count() or 1)
    if workers == 1:
        stats = EnsembleStats(cfg, map(_simulate_chunk, repeat(cfg), starts, stops))
    else:
        # Executor.map yields the results in submission order, i.e. run order
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stats = EnsembleStats(cfg, pool.map(_simulate_chunk, repeat(cfg), starts, stops))
    stats.runtime_seconds = time.perf_counter() - started
    return stats
