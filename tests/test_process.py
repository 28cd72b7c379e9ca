import itertools

import numpy as np
import pytest

from stripdep.process import (
    BoundaryMode,
    FirstHitPermutation,
    RootSet,
    deposit,
    first_hit_ranks,
    gap_vector,
    roots_from_permutation,
    simulate_final_roots,
)

C = BoundaryMode.CYCLIC
A = BoundaryMode.AUXILIARY


def _strip(K, mode):
    """Empty heights for ``deposit``: the auxiliary strip ends in the pin cell."""
    return [0] * K + ([1] if mode is A else [])


def test_deposit_on_empty_field():
    heights = _strip(5, C)
    assert deposit(heights, [2]) == [2]          # lands at height 1: a root
    assert heights == [0, 0, 1, 0, 0]


def test_deposit_sticks_on_neighbor():
    heights = [0, 1, 0, 0, 0]
    assert deposit(heights, [2]) == []
    assert heights[2] == 2


def test_deposit_next_to_pinned_boundary():
    heights = _strip(5, A)
    assert deposit(heights, [0]) == []
    assert heights == [2, 0, 0, 0, 0, 1]
    assert deposit(heights, [4]) == []           # the pin neighbours site K too
    assert heights == [2, 0, 0, 0, 2, 1]


def test_deposit_wraps_in_cyclic_mode():
    heights = [0, 0, 0, 3]
    assert deposit(heights, [0]) == []
    assert heights[0] == 4


def test_monotone_heights_single_change():
    rng = np.random.default_rng(5)
    for mode in (C, A):
        heights = _strip(7, mode)
        for t in rng.integers(0, 7, size=200).tolist():
            before = list(heights)
            ones = deposit(heights, [t])
            changed = [k for k in range(len(heights)) if heights[k] != before[k]]
            assert changed == [t]
            assert heights[t] > before[t]
            assert all(h >= b for h, b in zip(heights, before))
            assert ones == ([t] if heights[t] == 1 else [])


def test_roots_from_permutation_examples():
    assert roots_from_permutation(FirstHitPermutation(5, (1, 2, 3, 4, 5)), C).roots == (1,)
    assert roots_from_permutation(FirstHitPermutation(5, (2, 4, 1, 5, 3)), C).roots == (1, 3)
    assert roots_from_permutation(FirstHitPermutation(4, (1, 3, 4, 2)), A).roots == ()


def test_permutation_must_be_bijection():
    with pytest.raises(ValueError):
        FirstHitPermutation(4, (1, 1, 2, 3))


def test_first_hit_ranks():
    perm = first_hit_ranks([2, 2, 3, 1], 3)
    assert perm.ranks == (3, 1, 2)
    with pytest.raises(ValueError):
        first_hit_ranks([1, 1, 1], 3)
    with pytest.raises(ValueError, match=r"^site 4 out of range 1\.\.3$"):
        first_hit_ranks([2, 4, 1, 3], 3)


def _simulate_roots_by_deposits(K, mode, targets):
    heights = _strip(K, mode)
    return tuple(sorted(t + 1 for t in deposit(heights, [t - 1 for t in targets])))


def test_permutation_equivalence_exhaustive_small_widths():
    # every first-hit order, both modes: fast path == full deposit simulation
    for K in range(3, 8):
        for mode in (C, A):
            for order in itertools.permutations(range(1, K + 1)):
                ranks = [0] * K
                for pos, site in enumerate(order, start=1):
                    ranks[site - 1] = pos
                fast = roots_from_permutation(FirstHitPermutation(K, tuple(ranks)), mode)
                assert fast.roots == _simulate_roots_by_deposits(K, mode, order)


def test_permutation_equivalence_fuzzed_with_repeats():
    rng = np.random.default_rng(17)
    for K in (8, 9, 10, 11, 12, 20, 37, 64):
        for mode in (C, A):
            for _ in range(30):
                targets = []
                while True:
                    targets.extend(rng.integers(1, K + 1, size=K).tolist())
                    if len(set(targets)) == K:
                        break
                fast = roots_from_permutation(first_hit_ranks(targets, K), mode)
                assert fast.roots == _simulate_roots_by_deposits(K, mode, targets)


def test_gap_vector_examples():
    assert gap_vector(RootSet(6, C, (1, 3, 5))) == {1: 3}
    assert gap_vector(RootSet(5, C, (2,))) == {4: 1}
    gv = gap_vector(RootSet(7, C, (1, 4)))
    assert gv[2] == 1 and gv[3] == 1
    assert gv.total() == 2


def test_gap_vector_rejects_non_cyclic():
    with pytest.raises(ValueError):
        gap_vector(RootSet(5, A, (2, 4)))


def test_gap_vector_rejects_an_empty_cyclic_root_set():
    with pytest.raises(ValueError, match="^cyclic root set cannot be empty$"):
        gap_vector(RootSet(5, C, ()))


def test_root_set_requires_increasing_sites():
    with pytest.raises(ValueError):
        RootSet(5, C, (3, 2))


def test_simulate_final_roots_invariants():
    rng = np.random.default_rng(23)
    for K in (3, 5, 8, 13, 21):
        for mode in (C, A):
            roots, gaps = simulate_final_roots(K, mode, rng)
            if mode is C:
                assert roots.card >= 1
                # no two roots adjacent on the ring
                ring = set(roots.roots)
                for k in ring:
                    assert (k % K) + 1 not in ring or K == 1
                assert gaps.total() == roots.card
                assert roots.card + sum(i * c for i, c in gaps.items()) == K
            else:
                assert gaps is None
                assert all(2 <= k <= K - 1 for k in roots.roots)
                for a, b in zip(roots.roots, roots.roots[1:]):
                    assert b - a >= 2


def test_simulate_final_roots_width_three_is_deterministic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        roots, gaps = simulate_final_roots(3, C, rng)
        assert roots.card == 1
        assert gaps == {2: 1}


def test_simulate_final_roots_aux_width_three_rates():
    # P(one root) = 1/3: the middle site must be hit first
    rng = np.random.default_rng(11)
    hits = sum(simulate_final_roots(3, A, rng)[0].card for _ in range(3000))
    assert abs(hits / 3000 - 1 / 3) < 0.035  # ~4 standard errors, seeded
