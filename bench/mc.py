"""Monte Carlo side of the benchmark: the two ensemble workloads and the
per-module probes of `stripdep.ensemble` and `stripdep.process`.

Everything here runs in the benchmark's own process through the library's
public functions. `run_ensemble` is called through its module so that a
traced pass sees it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from stripdep import ensemble
from stripdep.ensemble import EnsembleConfig, height_growth_estimate, run_stream
from stripdep.process import (
    BoundaryMode,
    FirstHitPermutation,
    roots_from_permutation,
    simulate_final_roots,
)

from checks import ensemble_checks, ensemble_digest

FASTPATH_K = 1500
FASTPATH_RUNS = 40_000
FASTPATH_STATS = ("roots", "gaps", "empirical_gap_average")
FASTPATH_GAPS = tuple(range(1, 7))

HEIGHTS_K = 500
HEIGHTS_RUNS = 4
HEIGHTS_STEPS = 1_000_000
HEIGHTS_WORKERS = 2

# per-layer probe sizes
PROBE_RUNS = 500
PROBE_ROUNDS = 40
GAP_AVERAGE_SETS = 50
GAP_AVERAGE_REPEATS = 200
GROWTH_PROBE_STEPS = 1_000_000
ROOTS_PROBE_CALLS = 20


def fastpath_config(seed: int, runs: int = FASTPATH_RUNS) -> EnsembleConfig:
    return EnsembleConfig(K=FASTPATH_K, runs=runs, base_seed=seed,
                          statistics=FASTPATH_STATS, gap_lengths=FASTPATH_GAPS, workers=1)


def heights_config(seed: int, workers: int = HEIGHTS_WORKERS,
                   steps: int = HEIGHTS_STEPS) -> EnsembleConfig:
    return EnsembleConfig(K=HEIGHTS_K, runs=HEIGHTS_RUNS, base_seed=seed,
                          statistics=("height_growth",), growth_steps=steps,
                          workers=workers)


def ensemble_pass(cfg: EnsembleConfig, log, tracer) -> tuple[float, str]:
    """Run one ensemble and aggregate it as the CLI does; (wall, digest)."""
    with tracer.patched():
        started = perf_counter()
        stats = ensemble.run_ensemble(cfg)
        with tracer.span("ensemble.summary"):
            stats.summary_dict()
            for s in cfg.statistics:
                if s == "gaps":
                    for i in cfg.gap_lengths:
                        stats.histogram(s, i)
                else:
                    stats.histogram(s)
        wall = perf_counter() - started
    for name, ok in ensemble_checks(stats):
        log.record(name, ok)
    return wall, ensemble_digest(stats)


def warm_up(seed: int) -> None:
    """Fill numpy's lazy state before timing; a user's long run pays it once."""
    ensemble.run_ensemble(fastpath_config(seed, runs=64))
    ensemble.run_ensemble(heights_config(seed, workers=1, steps=10_000))


# ---- per-module probes --------------------------------------------------------

def _per_call_us(fn, calls: int) -> float:
    t = perf_counter()
    fn()
    return (perf_counter() - t) / calls * 1e6


def derived_layer_times(rounds: dict) -> dict:
    """Per-run layer times of the fast path from interleaved rounds.

    ``rounds[k][r]`` is the µs/run of part ``k`` in round ``r``: ``stream``
    and ``draw`` time the run streams and permutations alone, ``roots`` and
    ``gaps`` time ensembles collecting roots, and roots and gaps, over the
    same runs. A layer's time is the median over rounds of what it adds
    within its round, so load that shifts a whole round cancels.
    """
    r = range(len(rounds["roots"]))
    med = statistics.median
    return {
        "ensemble.stream_setup_us": med(rounds["stream"]),
        "ensemble.draw_us": med(rounds["draw"]),
        "ensemble.root_detect_us": med(rounds["roots"][k] - rounds["stream"][k]
                                       - rounds["draw"][k] for k in r),
        "ensemble.gap_tally_us": med(rounds["gaps"][k] - rounds["roots"][k] for k in r),
    }


def ensemble_layers(seed: int, log) -> dict:
    n = PROBE_RUNS
    configs = {
        "roots": EnsembleConfig(K=FASTPATH_K, runs=n, base_seed=seed, statistics=("roots",)),
        "gaps": EnsembleConfig(K=FASTPATH_K, runs=n, base_seed=seed,
                               statistics=("roots", "gaps"), gap_lengths=FASTPATH_GAPS),
    }
    rounds: dict[str, list[float]] = {k: [] for k in ("stream", "draw", *configs)}
    for k in range(PROBE_ROUNDS):
        streams = []
        rounds["stream"].append(_per_call_us(
            lambda: streams.extend(run_stream(seed, j) for j in range(n)), n))
        rounds["draw"].append(_per_call_us(
            lambda: [rng.permutation(FASTPATH_K) for rng in streams], n))
        # alternate the order so neither ensemble always runs first
        for name in (configs if k % 2 == 0 else reversed(configs)):
            rounds[name].append(_per_call_us(lambda: ensemble.run_ensemble(configs[name]), n))
    out = derived_layer_times(rounds)
    for name in ("ensemble.root_detect_us", "ensemble.gap_tally_us"):
        log.record(f"{name}: derived layer time is positive", out[name] > 0)
    out["ensemble.gap_average_us"] = gap_average_us(seed)
    return out


def gap_average_us(seed: int) -> float:
    """µs per call of `empirical_gap_average` on final root sets at the
    fast path's width. What the statistic adds to a whole ensemble run is
    about 0.1 µs of 37, below what a difference of ensemble timings
    resolves, so its own work is timed instead."""
    rng = run_stream(seed, 0)
    root_sets = [simulate_final_roots(FASTPATH_K, BoundaryMode.CYCLIC, rng)[0]
                 for _ in range(GAP_AVERAGE_SETS)]
    calls = GAP_AVERAGE_SETS * GAP_AVERAGE_REPEATS
    average = ensemble.empirical_gap_average
    return statistics.median(
        _per_call_us(lambda: [average(rs) for rs in root_sets for _ in range(GAP_AVERAGE_REPEATS)],
                     calls)
        for _ in range(5))


def process_layers(seed: int) -> dict:
    rng = run_stream(seed, 0)
    growth = [_per_call_us(lambda: height_growth_estimate(HEIGHTS_K, GROWTH_PROBE_STEPS, rng),
                           GROWTH_PROBE_STEPS) * 1e3 for _ in range(3)]
    calls = ROOTS_PROBE_CALLS
    final = [_per_call_us(lambda: [simulate_final_roots(FASTPATH_K, BoundaryMode.CYCLIC, rng)
                                   for _ in range(calls)], calls) for _ in range(3)]
    perms = [FirstHitPermutation(FASTPATH_K, tuple(int(r) + 1 for r in rng.permutation(FASTPATH_K)))
             for _ in range(calls)]
    from_perm = [_per_call_us(lambda: [roots_from_permutation(p, BoundaryMode.CYCLIC)
                                       for p in perms], calls) for _ in range(3)]
    return {
        "process.growth_ns_per_deposit": statistics.median(growth),
        "process.final_roots_us": statistics.median(final),
        "process.perm_roots_us": statistics.median(from_perm),
    }
