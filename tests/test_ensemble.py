import dataclasses
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr
from scipy.stats import kstest

from stripdep import ensemble
from stripdep.cli import main
from stripdep.ensemble import (
    BLOCK,
    CHUNK_DEPOSITS,
    CHUNK_SIZE,
    EnsembleConfig,
    EnsembleConfigError,
    _MAXLOG,
    _ndtr,
    _simulate_chunk,
    block_tallies,
    chunk_plan,
    empirical_gap_average,
    height_growth_estimate,
    normalized_ks_statistic,
    root_mask,
    run_ensemble,
    run_stream,
    stream_states,
)
from stripdep.process import (
    BoundaryMode,
    FirstHitPermutation,
    RootSet,
    first_hit_ranks,
    gap_vector,
    roots_from_permutation,
    simulate_final_roots,
)

C = BoundaryMode.CYCLIC
A = BoundaryMode.AUXILIARY


def test_config_validation():
    with pytest.raises(EnsembleConfigError):
        EnsembleConfig(K=2)
    with pytest.raises(EnsembleConfigError):
        EnsembleConfig(K=10, runs=0)
    with pytest.raises(EnsembleConfigError):
        EnsembleConfig(K=10, statistics=("nonsense",))
    with pytest.raises(EnsembleConfigError):
        EnsembleConfig(K=10, statistics=("gaps",))          # no lengths
    with pytest.raises(EnsembleConfigError):
        EnsembleConfig(K=10, statistics=("gaps",), gap_lengths=(12,))
    with pytest.raises(EnsembleConfigError):
        EnsembleConfig(K=10, mode=A, statistics=("gaps",), gap_lengths=(1,))
    with pytest.raises(EnsembleConfigError):
        EnsembleConfig(K=10, mode=A, statistics=("empirical_gap_average",))
    with pytest.raises(EnsembleConfigError):
        EnsembleConfig(K=10, statistics=("height_growth",))  # no steps
    with pytest.raises(EnsembleConfigError):
        EnsembleConfig(K=10, workers=0)
    with pytest.raises(EnsembleConfigError, match="seed must be >= 0, got -1"):
        EnsembleConfig(K=10, base_seed=-1)
    with pytest.raises(EnsembleConfigError, match="gap lengths \\[3\\] need the 'gaps' statistic"):
        EnsembleConfig(K=10, gap_lengths=(3,))


def test_config_rejects_a_string_where_a_tuple_is_expected():
    with pytest.raises(EnsembleConfigError,
                       match=r"statistics must be a tuple such as \('roots',\), "
                             r"got the string 'roots'"):
        EnsembleConfig(K=10, statistics="roots")
    with pytest.raises(EnsembleConfigError,
                       match=r"gap_lengths must be a tuple such as \(1, 2\), got the string '12'"):
        EnsembleConfig(K=10, statistics=("gaps",), gap_lengths="12")


def test_config_collects_a_repeated_statistic_or_gap_length_once():
    cfg = EnsembleConfig(K=12, statistics=("gaps", "roots", "gaps"), gap_lengths=(2, 1, 2))
    assert (cfg.statistics, cfg.gap_lengths) == (("gaps", "roots"), (2, 1))
    stats = run_ensemble(EnsembleConfig(K=12, runs=100, base_seed=1, statistics=("gaps",),
                                        gap_lengths=(2, 2)))
    assert sum(stats.histogram("gaps", 2).values()) == 100


def test_columns_keep_configuration_order():
    stats = run_ensemble(EnsembleConfig(K=8, runs=20, statistics=("gaps", "roots"),
                                        gap_lengths=(3, 1)))
    assert stats.config.columns() == [("gaps", 3), ("gaps", 1), ("roots", None)]
    assert list(stats.summary_dict()["statistics"]) == ["gaps[3]", "gaps[1]", "roots"]


def test_run_stream_reproducibility():
    a = run_stream(99, 7).integers(0, 1 << 30, size=8)
    b = run_stream(99, 7).integers(0, 1 << 30, size=8)
    c = run_stream(99, 8).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _numpy_state(seed, j):
    state = run_stream(seed, j).bit_generator.state["state"]
    return state["state"], state["inc"]


def _generator_at(state, inc):
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


# base seeds of one to seven 32-bit words (over 2**128 the base seed's fifth
# word is mixed in after the pool), and run indices of one to three words
STATE_SEEDS = [0, 7, 12345, 2**32 + 5, 2**64 + 3, 2**127 + 99, 2**128 + 1, 2**200 + 17]
STATE_RUNS = [2**20, 2**31 - 1, 2**32 - 1, 2**32, 2**40 + 7, 2**63 + 5, 2**64 + 9]


@pytest.mark.parametrize("seed", STATE_SEEDS)
def test_stream_states_equal_numpys_seeding(seed):
    assert stream_states(seed, 0, 300) == [_numpy_state(seed, j) for j in range(300)]
    for j in STATE_RUNS:
        assert stream_states(seed, j, j + 1) == [_numpy_state(seed, j)]
    for edge in (2**32, 2**64):                     # a range whose runs gain a word
        assert stream_states(seed, edge - 3, edge + 3) == [
            _numpy_state(seed, j) for j in range(edge - 3, edge + 3)]


@pytest.mark.parametrize("seed, j", [(0, 0), (7, 299), (2**128 + 1, 2**32)])
def test_a_permutation_drawn_from_a_computed_state_is_numpys(seed, j):
    [state] = stream_states(seed, j, j + 1)
    assert np.array_equal(_generator_at(*state).permutation(1500),
                          run_stream(seed, j).permutation(1500))


def test_a_chunk_refuses_states_that_numpy_does_not_give(monkeypatch):
    monkeypatch.setattr(ensemble, "_MIX_MULT_R", ensemble._MIX_MULT_R ^ 1)
    with pytest.raises(RuntimeError, match=rf"numpy {np.__version__} seeds run 0 "):
        run_ensemble(EnsembleConfig(K=10, runs=5, base_seed=3))
    with pytest.raises(RuntimeError, match=rf"numpy {np.__version__} seeds run 4096 "):
        _simulate_chunk(EnsembleConfig(K=10, base_seed=3), CHUNK_SIZE, CHUNK_SIZE + 5)


def test_same_config_same_results():
    cfg = EnsembleConfig(K=25, runs=4000, base_seed=5,
                         statistics=("roots", "empirical_gap_average"))
    s1, s2 = run_ensemble(cfg), run_ensemble(cfg)
    assert s1.histogram("roots") == s2.histogram("roots")
    assert np.array_equal(s1.samples("empirical_gap_average"),
                          s2.samples("empirical_gap_average"))
    assert s1.summary_dict() == s2.summary_dict()


def test_worker_count_does_not_change_results():
    kwargs = dict(K=30, runs=9000, base_seed=13,
                  statistics=("roots", "gaps", "empirical_gap_average"),
                  gap_lengths=(1, 3))
    s1 = run_ensemble(EnsembleConfig(workers=1, **kwargs))
    s2 = run_ensemble(EnsembleConfig(workers=4, **kwargs))
    assert s1.histogram("roots") == s2.histogram("roots")
    for i in (1, 3):
        assert s1.histogram("gaps", i) == s2.histogram("gaps", i)
    assert np.array_equal(s1.samples("empirical_gap_average"),
                          s2.samples("empirical_gap_average"))
    assert s1.summary_dict()["statistics"] == s2.summary_dict()["statistics"]


def _chunk_runs(plan):
    return [stop - start for start, stop in plan]


def test_chunk_plan_of_a_fast_path_ensemble_counts_runs_only():
    cfg = EnsembleConfig(K=1500, runs=40_000, gap_lengths=tuple(range(1, 7)),
                         statistics=("roots", "gaps", "empirical_gap_average"))
    plan = chunk_plan(cfg)
    assert _chunk_runs(plan) == [CHUNK_SIZE] * 9 + [40_000 - 9 * CHUNK_SIZE]
    # the CLI passes --n-steps through without the growth statistic
    assert chunk_plan(dataclasses.replace(cfg, growth_steps=10**6)) == plan


def test_chunk_plan_gives_each_long_growth_run_its_own_chunk():
    cfg = EnsembleConfig(K=500, runs=4, statistics=("height_growth",), growth_steps=10**6)
    assert chunk_plan(cfg) == [(0, 1), (1, 2), (2, 3), (3, 4)]


@pytest.mark.parametrize("steps", [1, 50, CHUNK_DEPOSITS // 3, CHUNK_DEPOSITS + 1, 2**40])
def test_chunk_plan_caps_runs_and_deposits(steps):
    cfg = EnsembleConfig(K=10, runs=10_000, statistics=("roots", "height_growth"),
                         growth_steps=steps)
    plan = chunk_plan(cfg)
    assert plan[0][0] == 0 and plan[-1][1] == cfg.runs
    assert all(stop == start for (_, stop), (start, _) in zip(plan, plan[1:]))
    sizes = _chunk_runs(plan)
    assert max(sizes) <= CHUNK_SIZE
    assert max(sizes) == 1 or max(sizes) * steps <= CHUNK_DEPOSITS
    assert len(set(sizes[:-1])) <= 1


def test_golden_chunk_layout_is_two_chunks():
    assert chunk_plan(EnsembleConfig(**GOLDEN_CHUNKS)) == [
        (0, CHUNK_SIZE), (CHUNK_SIZE, GOLDEN_CHUNKS["runs"])]


def test_mixed_ensemble_over_several_chunks_ignores_workers_and_plan():
    # two runs to a chunk: long enough growth runs to reach the pool, at K=10
    cfg = EnsembleConfig(K=10, runs=3, base_seed=21, statistics=("roots", "gaps", "height_growth"),
                         gap_lengths=(1, 2), growth_steps=CHUNK_DEPOSITS // 2)
    assert chunk_plan(cfg) == [(0, 2), (2, 3)]
    s1 = run_ensemble(cfg)
    s2 = run_ensemble(dataclasses.replace(cfg, workers=2))
    one_chunk = _simulate_chunk(cfg, 0, cfg.runs)
    for stats in (s1, s2):
        assert np.array_equal(stats.root_counts, one_chunk[0])
        assert np.array_equal(stats.gap_counts, one_chunk[1])
        assert np.array_equal(stats.growth_samples, one_chunk[2])


def _run_on_fake_pool(monkeypatch, workers, chunks, cpus, pool_size):
    """Run `chunks` one-run chunks on `workers` with `cpus` CPUs, on a pool
    that maps in this process, and check the pool size it was asked for."""
    sizes = []

    class Pool:                     # records its size and maps in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(ensemble, "chunk_plan", lambda cfg: [(j, j + 1) for j in range(cfg.runs)])
    monkeypatch.setattr(ensemble.os, "cpu_count", lambda: cpus)
    stats = run_ensemble(EnsembleConfig(K=5, runs=chunks, base_seed=2, workers=workers))
    assert sizes == ([] if pool_size is None else [pool_size])
    assert stats.root_counts.shape == (chunks,)


@pytest.mark.parametrize("workers, chunks, pool_size", [(1, 3, None), (8, 1, None),
                                                        (8, 3, 3), (2, 3, 2)])
def test_pool_has_no_more_processes_than_chunks(monkeypatch, workers, chunks, pool_size):
    _run_on_fake_pool(monkeypatch, workers, chunks, 8, pool_size)


@pytest.mark.parametrize("cpus, pool_size", [(4, 4), (None, None)])
def test_pool_has_no_more_processes_than_cpus(monkeypatch, cpus, pool_size):
    # os.cpu_count() is None where the count is unknown: the runs go serially
    _run_on_fake_pool(monkeypatch, 16, 6, cpus, pool_size)


def test_ensemble_stores_are_read_only():
    stats = run_ensemble(EnsembleConfig(K=3, runs=5, base_seed=1, statistics=("height_growth",),
                                        growth_steps=200))
    mean = stats.mean("height_growth")
    with pytest.raises(ValueError):
        stats.samples("height_growth")[:] = 0
    with pytest.raises(ValueError):
        stats.root_counts[0] = 7
    assert stats.mean("height_growth") == mean


def test_width_three_roots_are_constant():
    stats = run_ensemble(EnsembleConfig(K=3, runs=500, base_seed=1))
    assert stats.histogram("roots") == {1: 500}


def test_auxiliary_mode_root_mean():
    # pinned-boundary root count has mean (K-2)/3
    runs = 30_000
    stats = run_ensemble(EnsembleConfig(K=20, mode=A, runs=runs, base_seed=10))
    se = math.sqrt(stats.variance("roots") / runs)
    assert abs(stats.mean("roots") - 6) < 4 * se


def test_histogram_totals_match_runs():
    cfg = EnsembleConfig(K=12, runs=2500, base_seed=2,
                         statistics=("roots", "gaps"), gap_lengths=(1, 2, 11))
    stats = run_ensemble(cfg)
    assert sum(stats.histogram("roots").values()) == cfg.runs
    for i in (1, 2, 11):
        assert sum(stats.histogram("gaps", i).values()) == cfg.runs


def test_statistical_sanity_small_width():
    # probabilistic gates, seeded: ~4 standard errors wide
    runs = 40_000
    stats = run_ensemble(EnsembleConfig(K=12, runs=runs, base_seed=3,
                                        statistics=("roots", "gaps"), gap_lengths=(1,)))
    se_roots = math.sqrt(2 * 12 / 45 / runs)
    assert abs(stats.mean("roots") - 4) < 4 * se_roots
    mean_gap1 = 2 * 12 / 15
    sd_gap1 = math.sqrt(1772 * 12 / 14175)
    assert abs(stats.mean("gaps", 1) - mean_gap1) < 4 * sd_gap1 / math.sqrt(runs)


def test_empirical_gap_average_values():
    assert empirical_gap_average(RootSet(6, C, (1, 3, 5))) == 1.0
    assert empirical_gap_average(RootSet(3, C, (2,))) == 2.0
    with pytest.raises(ValueError):
        empirical_gap_average(RootSet(6, A, (2, 4)))
    with pytest.raises(ValueError):
        empirical_gap_average(RootSet(6, C, ()))


def test_empirical_gap_average_ensemble():
    stats = run_ensemble(EnsembleConfig(K=3, runs=100, base_seed=4,
                                        statistics=("empirical_gap_average",)))
    assert np.all(stats.samples("empirical_gap_average") == 2.0)


def test_normalized_ks_statistic_self_test():
    rng = np.random.default_rng(12)
    samples = rng.normal(loc=3.0, scale=2.0, size=100_000)
    assert normalized_ks_statistic(samples, 3.0, 2.0) < 0.01
    # agrees with the scipy implementation on standardized data
    z = (samples - 3.0) / 2.0
    assert normalized_ks_statistic(samples, 3.0, 2.0) == pytest.approx(
        kstest(z, "norm").statistic, abs=1e-12)


def test_normalized_ks_statistic_errors():
    with pytest.raises(ValueError):
        normalized_ks_statistic([], 0.0, 1.0)
    with pytest.raises(ValueError):
        normalized_ks_statistic([1.0, 2.0], 0.0, 0.0)
    constant = np.ones(10)
    with pytest.raises(ValueError):
        normalized_ks_statistic(constant, 1.0, float(np.std(constant)))


@pytest.mark.parametrize("samples, mean, message", [
    ([0.0, 1.0, math.nan], 0.0, "samples must be finite"),
    ([0.0, 1.0], math.nan, "mean must be finite, got nan"),
    ([0.0, 1.0], math.inf, "mean must be finite, got inf"),
])
def test_normalized_ks_statistic_refuses_non_finite_input(samples, mean, message):
    with pytest.raises(ValueError, match=message):
        normalized_ks_statistic(samples, mean, 1.0)


def test_ndtr_equals_scipy_bit_for_bit():
    # Cephes' branch edges in x = z/sqrt(2): |x| = sqrt(1/2), 1 and 8, the
    # MAXLOG cut where exp(-x^2) underflows, and z = 38.5, where the lower
    # tail itself underflows; each is met ulp by ulp and in a band around it
    rng = np.random.default_rng(20190533)
    edges = (1.0, math.sqrt(2.0), 8 * math.sqrt(2.0), math.sqrt(2 * _MAXLOG), 38.5)
    parts = [rng.uniform(-45.0, 45.0, 400_000), 3.0 * rng.standard_normal(200_000),
             [0.0, -0.0, math.inf, -math.inf, math.nan]]
    for edge in edges:
        for sign in (1.0, -1.0):
            parts.append(sign * edge * (1.0 + np.arange(-5000, 5000) * 2.0 ** -52))
            parts.append(sign * rng.uniform(edge - 0.5, edge + 0.5, 30_000))
    z = np.concatenate(parts)
    assert z.size > 1_000_000
    np.testing.assert_array_equal(_ndtr(z), ndtr(z), strict=True)


def test_height_growth_estimate():
    rng = np.random.default_rng(8)
    # at width 3 every site neighbors every other, so the maximum height
    # rises by exactly one per deposit
    assert height_growth_estimate(3, 30_000, rng) == 1.0
    # wider strips approach the ~4/K rate (pilot at K=16: 0.240, seeded)
    est = height_growth_estimate(16, 300_000, rng)
    assert abs(est - 4 / 16) < 0.1 * (4 / 16)
    with pytest.raises(ValueError):
        height_growth_estimate(3, 0, rng)
    with pytest.raises(ValueError):
        height_growth_estimate(2, 100, rng)


def test_height_growth_via_ensemble():
    cfg = EnsembleConfig(K=5, runs=3, base_seed=6,
                         statistics=("height_growth",), growth_steps=2000)
    stats = run_ensemble(cfg)
    assert stats.growth_samples.shape == (3,)
    assert np.all(stats.growth_samples > 0)
    again = run_ensemble(cfg)
    assert np.array_equal(stats.growth_samples, again.growth_samples)


def test_real_histogram_binning():
    stats = run_ensemble(EnsembleConfig(K=40, runs=5000, base_seed=9,
                                        statistics=("empirical_gap_average",)))
    edges, counts = stats.histogram("empirical_gap_average")
    assert len(edges) == 201
    assert len(counts) == 200
    assert counts.sum() <= 5000


def test_write_histogram_csv_format(tmp_path):
    stats = run_ensemble(EnsembleConfig(K=12, runs=50, base_seed=3, gap_lengths=(2,),
                                        statistics=("gaps", "empirical_gap_average")))
    header = ["# K=12", "# base_seed=3", "# gap_lengths=[2]", "# growth_steps=0",
              "# mode=cyclic", "# runs=50",
              "# statistics=['gaps', 'empirical_gap_average']", "# workers=1",
              "statistic,bin,count"]
    path = tmp_path / "new" / "gaps.csv"
    stats.write_histogram_csv(path, "gaps", 2)
    text = path.read_bytes().decode()
    assert "\r" not in text and text.endswith("\n")
    assert text.split("\n")[:-1] == header + [
        f"gaps[2],{v},{c}" for v, c in stats.histogram("gaps", 2).items()]

    path = tmp_path / "average.csv"
    stats.write_histogram_csv(path, "empirical_gap_average")
    text = path.read_bytes().decode()
    assert "\r" not in text and text.endswith("\n")
    lines = text.split("\n")[:-1]
    assert lines[:len(header)] == header
    rows = [line.split(",") for line in lines[len(header):]]
    edges, counts = stats.histogram("empirical_gap_average")
    assert [r[0] for r in rows] == ["empirical_gap_average"] * 200
    assert rows[0][1] == format((edges[0] + edges[1]) / 2, ".10g")
    assert [int(r[2]) for r in rows] == counts.tolist()


# One tiny ensemble whose histograms, sample buffers and CSV output are pinned
# as recorded. A change to the per-run streams (numpy's PCG64 or SeedSequence,
# or the order of draws within a run) fails here before it reaches a
# statistical gate.
GOLDEN = dict(K=12, runs=64, base_seed=5, gap_lengths=(1, 2), growth_steps=200,
              statistics=("roots", "gaps", "empirical_gap_average", "height_growth"))


def test_golden_small_ensemble(capsys):
    stats = run_ensemble(EnsembleConfig(**GOLDEN))
    assert stats.histogram_series("roots") == [(2, 1), (3, 15), (4, 35), (5, 13)]
    assert stats.histogram_series("gaps", 1) == [(0, 9), (1, 26), (2, 15), (3, 12), (4, 2)]
    assert stats.histogram_series("gaps", 2) == [(0, 19), (1, 14), (2, 30), (4, 1)]
    samples = stats.samples("empirical_gap_average").tobytes() + stats.growth_samples.tobytes()
    assert hashlib.sha256(samples).hexdigest() == (
        "8cc7ac13c8382bc6dcaa804c12761639a2c65334525addae3dc3fe34af7ccf7f")

    # the CSV header names the numpy version, so any numpy upgrade fails here
    assert main("simulate --K 12 --runs 64 --seed 5 --stat roots --stat gaps --i 1 --i 2 "
                "--stat empirical-gap-average --stat height-growth --n-steps 200 "
                "--format csv".split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7bbf3453ecd06bfc1c7c996dcecc725bb4800fd0382d67adf1b0b000dcf8a848")


# Two chunks, the second ending in a block shorter than BLOCK; pinned from the
# per-run loop that the block kernel replaced. The run count is CHUNK_SIZE + 70
# at CHUNK_SIZE = 4096.
GOLDEN_CHUNKS = dict(K=60, runs=4166, base_seed=17, gap_lengths=(1, 2, 3), growth_steps=50,
                     statistics=("roots", "gaps", "empirical_gap_average", "height_growth"))


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_ensemble_across_blocks_and_chunks(workers):
    runs = GOLDEN_CHUNKS["runs"]
    assert CHUNK_SIZE < runs <= 2 * CHUNK_SIZE and (runs - CHUNK_SIZE) % BLOCK
    stats = run_ensemble(EnsembleConfig(workers=workers, **GOLDEN_CHUNKS))
    hists = [stats.histogram_series("roots")] + [
        stats.histogram_series("gaps", i) for i in GOLDEN_CHUNKS["gap_lengths"]]
    digest = lambda b: hashlib.sha256(b).hexdigest()
    assert digest(json.dumps(hists).encode()) == (
        "c09a340027a3da18ba78da1b991f343539ca4ba6bccecee30685b6bea7bf7054")
    assert digest(stats.samples("empirical_gap_average").tobytes()) == (
        "3b2d6b576ad63b90db01e6c1982480265c92c998f5778abf0d1875c51bafdae1")
    assert digest(stats.growth_samples.tobytes()) == (
        "54621a13963e012f3bc9947d91810b7116c7be7356609a7dbdfbe09ca2d091d8")


def _one_root_ranks(rng, K):
    """0-based ranks of a ring with a single root: each later rank extends
    the arc of ranked sites at one of its two ends."""
    ranks = np.empty(K, dtype=np.int64)
    lo = hi = int(rng.integers(K))
    ranks[lo] = 0
    for r in range(1, K):
        if rng.random() < 0.5:
            hi += 1
            ranks[hi % K] = r
        else:
            lo -= 1
            ranks[lo % K] = r
    return ranks


def _reference(ranks, mode):
    return roots_from_permutation(FirstHitPermutation(len(ranks), tuple(int(r) + 1 for r in ranks)),
                                  mode)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(3, 200), rows=st.integers(1, BLOCK), mode=st.sampled_from(list(BoundaryMode)),
       one_root_share=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_block_kernel_matches_per_run_reference(K, rows, mode, one_root_share, seed, data):
    lengths = ()
    if mode is BoundaryMode.CYCLIC:
        lengths = tuple(data.draw(st.lists(st.integers(1, K - 1), min_size=1, max_size=8,
                                           unique=True)))
    rng = np.random.default_rng(seed)
    ranks = np.array([_one_root_ranks(rng, K) if rng.random() < one_root_share
                      else rng.permutation(K) for _ in range(rows)])
    mask = root_mask(ranks, mode)
    cards, tallies = block_tallies(ranks, mode, lengths)
    assert tallies.shape == (rows, len(lengths))
    for row, row_mask, card, tally in zip(ranks, mask, cards, tallies):
        roots = _reference(row, mode)
        assert tuple((np.flatnonzero(row_mask) + 1).tolist()) == roots.roots
        assert card == roots.card
        if lengths:
            assert tally.tolist() == [gap_vector(roots)[i] for i in lengths]


@settings(max_examples=30, deadline=None)
@given(K=st.integers(3, 80), runs=st.integers(1, 3 * BLOCK), mode=st.sampled_from(list(BoundaryMode)),
       seed=st.integers(0, 2**32 - 1))
def test_ensemble_matches_per_run_permutations(K, runs, mode, seed):
    cyclic = mode is BoundaryMode.CYCLIC
    lengths = (1, K - 1, (K + 1) // 2) if cyclic and K > 3 else ()
    statistics = ("roots", "gaps", "empirical_gap_average") if lengths else ("roots",)
    stats = run_ensemble(EnsembleConfig(K=K, mode=mode, runs=runs, base_seed=seed,
                                        statistics=statistics, gap_lengths=lengths))
    roots = [_reference(run_stream(seed, j).permutation(K), mode) for j in range(runs)]
    assert stats.histogram("roots") == Counter(r.card for r in roots)
    for i in lengths:
        assert stats.histogram("gaps", i) == Counter(gap_vector(r)[i] for r in roots)
    if lengths:
        assert stats.samples("empirical_gap_average").tolist() == [
            empirical_gap_average(r) for r in roots]


def test_a_chunk_across_run_index_2_to_the_32_matches_per_run_streams():
    K, steps = 12, 50
    cfg = EnsembleConfig(K=K, base_seed=9, statistics=("roots", "gaps", "height_growth"),
                         gap_lengths=(1, 2), growth_steps=steps)
    start, stop = 2**32 - 3, 2**32 + 3             # the spawn key gains a second word
    cards, gaps, growth = _simulate_chunk(cfg, start, stop)
    for r, j in enumerate(range(start, stop)):
        rng = run_stream(cfg.base_seed, j)
        roots = _reference(rng.permutation(K), C)
        assert cards[r] == roots.card
        assert gaps[r].tolist() == [gap_vector(roots)[i] for i in cfg.gap_lengths]
        assert growth[r] == height_growth_estimate(K, steps, rng)


@settings(max_examples=40, deadline=None)
@given(K=st.integers(3, 200), mode=st.sampled_from(list(BoundaryMode)),
       seed=st.integers(0, 2**32 - 1))
def test_block_kernel_root_rule_matches_height_simulation(K, mode, seed):
    rng = np.random.default_rng(seed)
    roots, gaps = simulate_final_roots(K, mode, rng)
    replay = np.random.default_rng(seed)       # the same targets, drawn the same way
    targets = []
    while len(set(targets)) < K:
        targets += (replay.integers(0, K, size=min(4 * K, 1 << 16)) + 1).tolist()
    assert rng.bit_generator.state == replay.bit_generator.state    # the same batches
    ranks = np.array([first_hit_ranks(targets, K).ranks])
    assert tuple((np.flatnonzero(root_mask(ranks, mode)[0]) + 1).tolist()) == roots.roots
    if mode is BoundaryMode.CYCLIC:
        cards, tallies = block_tallies(ranks, mode, tuple(range(1, K)))
        assert cards[0] == roots.card
        assert tuple(tallies[0].tolist()) == tuple(gaps[i] for i in range(1, K))


def test_block_kernel_rejects_gaps_it_cannot_tally():
    with pytest.raises(ValueError):
        block_tallies(np.array([[2, 0, 1, 3]]), BoundaryMode.AUXILIARY, (1,))
    with pytest.raises(ValueError):                 # tied ranks, no root
        block_tallies(np.array([[2, 0, 1, 3], [1, 1, 1, 1]]), BoundaryMode.CYCLIC, (1,))


@pytest.mark.parametrize("collected, statistic, i", [
    (("gaps",), "roots", None),
    (("gaps",), "gaps", 5),
    (("roots",), "empirical_gap_average", None),
    (("roots",), "height_growth", None),
    (("empirical_gap_average",), "roots", None),
    (("roots",), "nonsense", None),
])
def test_every_accessor_rejects_a_statistic_not_collected(tmp_path, collected, statistic, i):
    stats = run_ensemble(EnsembleConfig(K=12, runs=20, base_seed=1, statistics=collected,
                                        gap_lengths=(1,) if "gaps" in collected else ()))
    path = tmp_path / "h.csv"
    for accessor in (stats.samples, stats.mean, stats.variance, stats.ks_normal,
                     stats.histogram, stats.histogram_series,
                     lambda s, i: stats.write_histogram_csv(path, s, i)):
        with pytest.raises(KeyError):
            accessor(statistic, i)
    assert not path.exists()


def test_summary_embeds_config_and_generator():
    cfg = EnsembleConfig(K=8, runs=64, base_seed=21)
    payload = run_ensemble(cfg).summary_dict()
    assert payload["config"]["K"] == 8
    assert payload["config"]["base_seed"] == 21
    assert "PCG64" in payload["generator"]
