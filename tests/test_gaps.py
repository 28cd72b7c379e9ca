import hashlib
import json
import math
from fractions import Fraction as F
from functools import lru_cache

import pytest

from stripdep import gaps
from stripdep.gaps import (
    AbcTriple,
    GapRecursionTable,
    TableBudgetError,
    abc_degree,
    abc_recursion,
    gap_distribution,
    gap_moments,
    gap_pgf_table,
)
from stripdep.ratpoly import RationalPolynomial as P, count_moments, pgf_moments

U = P([0, 1])
ONE = P([1])


def test_boundary_layers_hold_the_indicator():
    t = GapRecursionTable(i=2, k_max=6)
    assert t.entry(0, 0, 2) == U          # k == i
    assert t.entry(1, 1, 2) == U
    assert t.entry(0, 0, 1) == ONE
    assert t.entry(2, 1, 4) == ONE
    t1 = GapRecursionTable(i=1, k_max=4)
    assert t1.entry(0, 0, 1) == U


def test_unit_gap_table_entries():
    t = gap_pgf_table(1, 6)
    assert t.entry(0, 0, 3) == P([F(2, 3), 0, F(1, 3)])
    assert t.entry(0, 0, 4) == P([F(1, 3), F(2, 3)])


def test_entry_validation():
    t = GapRecursionTable(i=1, k_max=5)
    with pytest.raises(ValueError):
        t.entry(3, 3, 5)
    with pytest.raises(ValueError):
        t.entry(0, 0, 9)
    with pytest.raises(ValueError):
        GapRecursionTable(i=0, k_max=5)


def test_gap_distribution_small_widths():
    assert gap_distribution(1, 4) == P([F(2, 3), 0, F(1, 3)])
    assert gap_distribution(1, 3) == ONE      # a lone root spans the ring
    assert gap_distribution(2, 3) == U
    assert gap_distribution(2, 4) == ONE      # distance 3 would need adjacency
    with pytest.raises(ValueError, match=r"^gap index 3 out of range 1\.\.2$"):
        gap_distribution(3, 3)
    with pytest.raises(ValueError, match=r"^gap index 0 out of range 1\.\.4$"):
        gap_distribution(0, 5)
    with pytest.raises(ValueError):
        gap_distribution(1, 2)


def _add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return tuple(x + (q[n] if n < len(q) else 0) for n, x in enumerate(p))


def _times(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for a, x in enumerate(p):
        for b, y in enumerate(q):
            out[a + b] += x * y
    return tuple(out)


def test_reflection_symmetry_against_plain_recursion():
    # the plain Fraction recursion over uncapped states (l, r, k), on
    # coefficient tuples
    @lru_cache(maxsize=None)
    def reference(i, l, r, k):
        m = k - l - r
        if m <= 2:
            return (F(0), F(1)) if k == i else (F(1),)
        acc = _add(reference(i, l + 1, r, k), reference(i, l, r + 1, k))
        for j in range(2, m):
            acc = _add(acc, _times(reference(i, l, 0, j + l - 1), reference(i, 0, r, k - j - l)))
        return tuple(x / m for x in acc)

    for i in (1, 2, 3):
        table = gap_pgf_table(i, 10)
        for k in range(11):
            for l in range(k + 1):           # blocks up to k, far beyond i+1
                for r in range(k - l + 1):
                    want = reference(i, l, r, k)
                    assert want == reference(i, r, l, k)
                    assert table.entry(l, r, k) == P(want), (i, l, r, k)


def test_stored_integer_counts_sum_to_m_factorial():
    for i in (1, 4, 7):
        t = GapRecursionTable(i=i, k_max=20)
        assert len(t) == len(t.stored_counts())
        for (l, r, m), counts in t.stored_counts():
            assert l <= r <= i + 1 and m >= 3 and l + r + m <= 20
            assert all(c >= 0 for c in counts)
            assert sum(counts) == math.factorial(m)


def _list_table(i, k_max):
    """The recursion over coefficient lists that the packed table replaced,
    keyed by the stored states (l', r', m)."""
    cap = i + 1
    table = {}

    def get(l, r, m):
        if m <= 2:
            gap = l < cap and r < cap and l + r + m == i
            return (0, math.factorial(m)) if gap else (math.factorial(m),)
        return table[(l, r, m) if l <= r else (r, l, m)]

    for k in range(3, k_max + 1):
        for s in range(min(k - 3, 2 * cap), -1, -1):
            for l in range(max(0, s - cap), s // 2 + 1):
                r, m = s - l, k - s
                acc = _add(get(min(l + 1, cap), r, m - 1), get(l, min(r + 1, cap), m - 1))
                for m1 in range(1, m - 1):
                    term = _times(get(l, 0, m1), get(0, r, m - 1 - m1))
                    acc = _add(acc, tuple(math.comb(m - 1, m1) * c for c in term))
                table[(l, r, m)] = tuple(int(c) for c in acc)
    return table


def test_packed_table_equals_list_recursion():
    for i in (1, 2, 3, 5):
        table = GapRecursionTable(i, 14)   # 14! needs 5-byte slots
        assert dict(table.stored_counts()) == _list_table(i, 14), i


def test_stored_counts_golden_digest_to_39():
    # SHA-256 of every stored entry of the tables i = 1..7 at k_max = 39,
    # recorded from the coefficient-list engine that the packed table replaced
    tables = [GapRecursionTable(i, 39) for i in range(1, 8)]
    text = json.dumps([[[l, r, m, list(c)] for (l, r, m), c in sorted(t.stored_counts())]
                       for t in tables])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a9f881dcdf82b74aea22a6b1984753c5cb124d86c09d61e5f5c330c39358d432")


def test_table_grown_one_width_at_a_time_equals_one_built_at_once(monkeypatch):
    # the shared table asked for one width more at each step equals a table
    # built at the last width directly
    monkeypatch.setattr(gaps, "_table_cache", {})
    for i in (1, 4):
        for k in range(3, 31):
            grown = gap_pgf_table(i, k)
        once = GapRecursionTable(i, 30)
        assert grown.stored_counts() == once.stored_counts()
        assert len(grown) == len(once)
        assert all(grown.counts(l, r, 30) == once.counts(l, r, 30)
                   for l in range(31) for r in range(31 - l))


def test_table_extension_is_incremental(monkeypatch):
    # a wider request caches a new table; a narrower one returns the cached
    # table with its k_max unchanged
    monkeypatch.setattr(gaps, "_table_cache", {})
    for i in (1, 3, 4):
        narrow = gap_pgf_table(i, 12)
        wide = gap_pgf_table(i, 30)
        assert wide is not narrow and gaps._table_cache[i] is wide
        assert (narrow.k_max, wide.k_max) == (12, 30)
        assert len(wide) > len(narrow)
        assert wide.entry(0, 0, 30).is_pgf()
        assert wide.stored_counts() == GapRecursionTable(i, 30).stored_counts()
        assert gap_pgf_table(i, 20) is wide and wide.k_max == 30


def test_a_failed_build_leaves_the_cached_table_as_it_was(monkeypatch):
    monkeypatch.setattr(gaps, "_table_cache", {})
    budget = gaps.DEFAULT_COEFFICIENT_BUDGET
    monkeypatch.setattr(gaps, "DEFAULT_COEFFICIENT_BUDGET", 340)
    gap_pgf_table(2, 10)
    with pytest.raises(TableBudgetError) as err:
        gap_pgf_table(2, 30)
    assert err.value.state == (0, 1, 16)
    monkeypatch.setattr(gaps, "DEFAULT_COEFFICIENT_BUDGET", budget)
    for K in (17, 20, 26):
        fresh = GapRecursionTable(2, K - 1)
        assert gap_moments(2, K) == count_moments(fresh.counts(0, 0, K - 1),
                                                  math.factorial(K - 1))
        cached = gaps._table_cache[2]
        assert (cached.k_max, len(cached)) == (K - 1, len(fresh))


def test_a_table_entry_that_overflows_its_slots_is_refused(monkeypatch):
    # in one-byte slots the counts of width 6 (summing to 6! = 720) carry
    # into the next slot; those of width 5 (summing to 5! = 120) still fit
    exact = GapRecursionTable(1, 5).stored_counts()
    monkeypatch.setattr(gaps, "_slot_bytes", lambda k_max: 1)
    monkeypatch.setattr(gaps, "_table_cache", {})
    assert GapRecursionTable(1, 5).stored_counts() == exact
    message = r"^table entry \(l=0, r=0, k=6\) for i=1 is not a PGF$"
    with pytest.raises(ArithmeticError, match=message):
        GapRecursionTable(1, 6)
    with pytest.raises(ArithmeticError, match=message):
        gap_pgf_table(1, 6)
    assert gaps._table_cache == {}


def test_capped_table_entry_counts():
    # states (l', r', m) with l' <= r' <= i+1, m >= 3, l' + r' + m <= 39
    assert [len(GapRecursionTable(i, 39)) for i in (1, 7)] == [210, 1305]


def test_stored_entries_are_pgfs_with_bounded_degree():
    for i in (1, 3):
        t = gap_pgf_table(i, 12)
        for k in range(3, 13):
            for l in range(k + 1):
                for r in range(l, k - l + 1):
                    e = t.entry(l, r, k)
                    assert e.is_pgf()
                    assert e.degree <= k // (i + 1) + 1


def test_coefficient_budget_guard(monkeypatch):
    monkeypatch.setattr(gaps, "DEFAULT_COEFFICIENT_BUDGET", 10)
    monkeypatch.setattr(gaps, "_table_cache", {})
    with pytest.raises(TableBudgetError) as err:
        gap_pgf_table(1, 12)
    assert err.value.state[2] >= 3
    assert "budget" in str(err.value)


def test_abc_table_one_fixtures():
    triples = {t.K: t for t in abc_recursion(7)}
    assert triples[3].a == P([F(1, 3), F(-2, 3), F(1, 3)])
    assert triples[3].b == P([0, F(1, 3), F(-1, 3)])
    assert triples[3].c == P([F(2, 3), 0, F(1, 3)])
    assert triples[4].a == P([])
    assert triples[4].b == P([F(1, 3), F(-1, 3)])
    assert triples[4].c == P([F(1, 3), F(2, 3)])
    assert triples[5].c == P([F(7, 15), F(6, 15), 0, F(2, 15)])
    assert triples[6].c == P([F(20, 45), F(8, 45), F(17, 45)])
    assert triples[7].c == P([F(98, 315), F(132, 315), F(68, 315), 0, F(17, 315)])


def test_abc_normalization_and_degree_law():
    for t in abc_recursion(40):
        assert t.a(1) == 0
        assert t.b(1) == 0
        assert t.c(1) == 1
        d = abc_degree(t.K)
        assert t.a.degree <= d and t.b.degree <= d
        assert t.c.degree == d


def test_abc_recursion_golden_digest_to_60():
    # SHA-256 of every triple's coefficients, recorded from the Fraction engine
    # that the integer-count recursion replaced
    triples = abc_recursion(60)
    text = json.dumps([[t.K, t.a.fraction_strings(), t.b.fraction_strings(),
                        t.c.fraction_strings()] for t in triples])
    assert [t.K for t in triples] == list(range(3, 61))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "54144279187444db2b7aa70543fe1b235b801f94d67fadd8a8d41eab24fdbb7c")


def test_abc_cross_engine_equality():
    triples = abc_recursion(40)
    for t in triples:
        assert t.c == gap_distribution(1, t.K + 1)


def test_unit_gap_moment_laws():
    exceptional = {4: F(8, 9), 5: F(2, 9), 6: F(24, 25), 7: F(184, 225), 8: F(1588, 1575)}
    for K in range(4, 17):
        m = gap_moments(1, K)
        assert m.mean == (F(2, 3) if K == 4 else F(2 * K, 15))
        assert m.variance == exceptional.get(K, F(1772 * K, 14175))


def test_gap_moments_from_counts_equal_pgf_moments():
    for K in range(3, 26):
        for i in range(1, min(7, K - 1) + 1):
            assert gap_moments(i, K) == pgf_moments(gap_distribution(i, K)), (i, K)


def test_table_counts_back_every_entry():
    t = GapRecursionTable(i=2, k_max=9)
    for l, r, k in [(0, 0, 9), (1, 4, 9), (5, 0, 8), (0, 0, 2), (2, 1, 4)]:
        counts = t.counts(l, r, k)
        assert sum(counts) == math.factorial(k - l - r)
        assert t.entry(l, r, k) == P.from_counts(counts, math.factorial(k - l - r))
    # blocks cap at i+1 = 3 sites, and reflection swaps l and r
    assert t.counts(1, 4, 9) == t.counts(4, 1, 9) == t.counts(1, 3, 8)
    with pytest.raises(ValueError):
        t.counts(0, 0, 10)


def test_unit_gap_moment_examples():
    m = gap_moments(1, 12)
    assert m.mean == F(8, 5)
    assert m.variance == F(1772 * 12, 14175)
    assert gap_moments(1, 8).variance == F(1588, 1575)


def test_longer_gap_moment_examples():
    assert gap_moments(2, 31).mean == F(31, 9)
    m = gap_moments(5, 35)
    assert m.mean == F(4 * 35, 567)
    assert m.variance == F(649555688 * 35, 97692469875)


def test_gap_mean_identities_small_widths():
    for K in range(3, 13):
        total = sum((gap_moments(i, K).mean for i in range(1, K)), F(0))
        weighted = sum((i * gap_moments(i, K).mean for i in range(1, K)), F(0))
        assert total == F(K, 3)
        assert weighted == F(2 * K, 3)


def test_sub_threshold_regression_values():
    # widths below the linear-law regime for i >= 2; frozen engine outputs
    cases = {
        (2, 10): (F(10, 9), F(322, 405)),
        (2, 20): (F(20, 9), F(128, 81)),
        (2, 30): (F(10, 3), F(64, 27)),
        (3, 15): (F(6, 7), F(119732, 189189)),
        (4, 12): (F(4, 15), F(676, 2835)),
    }
    for (i, K), (mean, var) in cases.items():
        m = gap_moments(i, K)
        assert (m.mean, m.variance) == (mean, var)


def test_gap_distribution_regression_width8():
    assert gap_distribution(2, 8) == P([F(7, 15), F(8, 45), F(16, 45)])
