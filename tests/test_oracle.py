import ast
import itertools
import math
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from stripdep import oracle
from stripdep.gaps import gap_distribution
from stripdep.oracle import (
    MAX_ENUMERATION_WIDTH,
    EnumerationLimitError,
    ExactDistribution,
    _enumerate,
    _order_blocks,
    _root_sets,
    enumerate_gap_distribution,
    enumerate_root_distribution,
)
from stripdep.process import (
    BoundaryMode,
    FirstHitPermutation,
    gap_vector,
    roots_from_permutation,
)
from stripdep.ratpoly import pgf_moments
from stripdep.roots import aux_root_pgf, cyclic_root_pgf

C = BoundaryMode.CYCLIC
A = BoundaryMode.AUXILIARY


def brute_force_counts(K, mode):
    """The oracle's counts, one first-hit order at a time: roots by the
    neighbour rule, gap indices as distances between consecutive roots."""
    root_counter = Counter()
    gap_counters = {i: Counter() for i in range(1, K)}
    for ranks in itertools.permutations(range(K)):
        if mode is C:
            positions = [k for k in range(K)
                         if ranks[k] < ranks[k - 1] and ranks[k] < ranks[(k + 1) % K]]
            gaps = Counter(b - a - 1 for a, b in zip(positions, positions[1:]))
            # the wrap pair closes the cycle
            gaps[K - (positions[-1] - positions[0]) - 1] += 1
            for i, v in gaps.items():
                gap_counters[i][v] += 1
        else:
            positions = [k for k in range(1, K - 1)
                         if ranks[k] < ranks[k - 1] and ranks[k] < ranks[k + 1]]
        root_counter[len(positions)] += 1
    return root_counter, gap_counters, math.factorial(K)


def test_width_three_is_deterministic():
    d = enumerate_root_distribution(3, C)
    assert d.support == {1: F(1)}
    m = pgf_moments(d.pgf())
    assert m.mean == 1
    assert m.variance == 0


def test_width_three_auxiliary():
    d = enumerate_root_distribution(3, A)
    assert d.support == {0: F(2, 3), 1: F(1, 3)}


def test_width_four_cyclic_moments():
    d = enumerate_root_distribution(4, C)
    assert d.support == {1: F(2, 3), 2: F(1, 3)}
    m = pgf_moments(d.pgf())
    assert m.mean == F(4, 3)
    # Bernoulli(1/3) shifted by one: variance (1/3)(2/3)
    assert m.variance == F(2, 9)


def test_probabilities_have_factorial_denominators():
    for K in (4, 5, 6):
        for mode in (C, A):
            d = enumerate_root_distribution(K, mode)
            assert all(math.factorial(K) % p.denominator == 0
                       for p in d.support.values())


def test_roots_match_pgf_engines():
    for K in range(3, 8):
        assert enumerate_root_distribution(K, C).pgf() == cyclic_root_pgf(K)
        assert enumerate_root_distribution(K, A).pgf() == aux_root_pgf(K)


def test_gaps_match_recursion_engine():
    for K in range(3, 8):
        for i in range(1, K):
            assert enumerate_gap_distribution(K, i).pgf() == gap_distribution(i, K)


def test_gap_examples():
    assert pgf_moments(enumerate_gap_distribution(4, 1).pgf()).mean == F(2, 3)
    m5 = pgf_moments(enumerate_gap_distribution(5, 1).pgf())
    assert m5.mean == F(2, 3)
    assert m5.variance == F(2, 9)


def test_joint_identities_pointwise():
    K = 6
    for ranks in itertools.permutations(range(1, K + 1)):
        roots = roots_from_permutation(FirstHitPermutation(K, ranks), C)
        gaps = gap_vector(roots)
        assert gaps.total() == roots.card
        assert roots.card + sum(i * c for i, c in gaps.items()) == K


def test_resource_guard():
    with pytest.raises(EnumerationLimitError):
        enumerate_root_distribution(MAX_ENUMERATION_WIDTH + 1, C)
    with pytest.raises(ValueError):
        enumerate_root_distribution(2, C)
    for i in (0, 5):
        with pytest.raises(ValueError, match=rf"^gap index {i} out of range 1\.\.4$"):
            enumerate_gap_distribution(5, i)


@pytest.mark.parametrize("support, message", [
    ({1: F(1, 2)}, "probabilities sum to 1/2, not 1"),
    ({0: F(3, 2), 1: F(-1, 2)}, "negative probability"),
])
def test_an_exact_distribution_must_be_a_distribution(support, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExactDistribution("roots", 5, C, support)


def test_json_dump_uses_fraction_strings():
    d = enumerate_root_distribution(4, C)
    payload = d.to_json_dict()
    assert payload["support"] == {"1": "2/3", "2": "1/3"}
    assert payload["mode"] == "cyclic"
    g = enumerate_gap_distribution(4, 1)
    assert g.to_json_dict()["i"] == 1


@pytest.mark.parametrize("mode", [C, A])
@pytest.mark.parametrize("K", range(3, 9))
def test_blocked_sweep_equals_brute_force(K, mode):
    roots, gaps = _enumerate(K, mode)
    want_roots, want_gaps, total = brute_force_counts(K, mode)
    assert roots == tuple(want_roots[v] for v in range(K + 1))
    for i in range(1, K):
        # a cyclic order has some number of index-i gaps, zero included
        assert sum(gaps[i]) == (total if mode is C else 0), f"gap index {i}"
        assert gaps[i][1:] == tuple(want_gaps[i][v] for v in range(1, K + 1)), f"gap index {i}"


@pytest.mark.parametrize("K", range(3, 10))
def test_order_blocks_cover_each_order_once(K):
    codes = []
    for block in _order_blocks(K):
        assert block.dtype == np.int8 and block.shape[0] == K
        # every column is an order: the ranks 0..K-1 once each
        assert (np.sort(block, axis=0) == np.arange(K).reshape(-1, 1)).all()
        codes.append(block.astype(np.int64).T @ K ** np.arange(K, dtype=np.int64))
    codes = np.concatenate(codes)
    assert len(codes) == math.factorial(K)
    assert len(np.unique(codes)) == math.factorial(K)


def test_both_modes_and_all_gaps_read_one_sweep(monkeypatch):
    sweeps = []

    def counted(K):
        sweeps.append(K)
        return _order_blocks(K)

    monkeypatch.setattr(oracle, "_order_blocks", counted)
    _root_sets.cache_clear()
    _enumerate.cache_clear()
    K = 6
    enumerate_root_distribution(K, C)
    enumerate_root_distribution(K, A)
    for i in range(1, K):
        enumerate_gap_distribution(K, i)
    assert sweeps == [K]


@pytest.mark.parametrize("K", range(3, 10))
def test_root_set_counts_cover_each_order_once(K):
    counts = _root_sets(K)
    assert counts.shape == (2 ** K,) and counts.dtype == np.int64
    assert counts.sum() == math.factorial(K)
    # the first site hit is always a root
    assert counts[0] == 0
    # a root's two neighbours are ranked above it, so neither is a root
    sets = np.flatnonzero(counts)
    turned = ((sets << 1) | (sets >> (K - 1))) & (2 ** K - 1)
    assert not (sets & turned).any()


def test_oracle_stays_independent_of_the_kernels_it_checks():
    tree = ast.parse(Path(oracle.__file__).read_text())
    kernels = {"root_mask", "block_tallies", "deposit"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # relative imports are resolved against the stripdep package
            package = "stripdep" if getattr(node, "level", 0) else ""
            module = ".".join(filter(None, (package, getattr(node, "module", None))))
            for alias in node.names:
                name = ".".join(filter(None, (module, alias.name)))
                assert not name.startswith("stripdep.ensemble"), name
                assert alias.name not in kernels, alias.name
        elif isinstance(node, ast.Name):
            assert node.id not in kernels, node.id
        elif isinstance(node, ast.Attribute):
            assert node.attr not in kernels, node.attr
