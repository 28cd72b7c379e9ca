"""Exact distributions of gap counts between consecutive roots.

For the cyclic process of width K, D(i, K) counts pairs of consecutive roots
at circular distance i+1. Conditioning on the first deposit reduces the
cyclic problem to an interval with a root at each end, a block of l occupied
sites hugging the left root, r occupied sites hugging the right root, and an
empty stretch of m = k - l - r sites in between (k is the inner width). With
E(l, r, k) the PGF of the number of index-i gaps that eventually form inside
the interval, the first deposit extends the left block, splits the interval
at a fresh root, or extends the right block, each site with probability 1/m.

The engine carries integer counts of first-hit orders of the m empty sites,
N = m! * E, so that for m >= 3

    N(l, r, m) = N(l+1, r, m-1) + N(l, r+1, m-1)
                 + sum_{m1=1}^{m-2} C(m-1, m1) * N(l, 0, m1) * N(0, r, m-1-m1),

and at the boundary m <= 2, where no further root can appear, N = m! * u
when the interval is itself an index-i gap (k == i) and m! otherwise.

A block of l >= i+1 sites already makes its root's gap longer than i, so N
depends on l only through l' = min(l, i+1), on r the same way: the table's
states are the capped triples (l', r', m), O(i^2 k) of them instead of
O(k^3). An interval is an index-i gap exactly when l' < i+1, r' < i+1 and
l' + r' + m == i. Reflection symmetry keeps only l' <= r'. The gap count
of the full ring is the state (0, 0, K-1): `gap_moments` reads its moments
straight from the counts, and `entry` divides by m! only to return a
`RationalPolynomial`.

Each entry N(l', r', m) is one Python int (Kronecker substitution): the
coefficient of u^p sits in bytes [p*w, (p+1)*w), with the slot width w
chosen so that 2^(8w) > k_max!. Every coefficient of an entry, and of every
product and partial sum in the rule above, is a count of first-hit orders
of at most m <= k_max sites, so it is at most m! and no carry crosses a
slot; adding and multiplying the ints then adds and multiplies the
polynomials, and the convolution is one C-level sum of products. The
entries sit in rows by (l', r'), indexed by m from the boundary states up,
with rows[l'][r'] and rows[r'][l'] the same list. Each stored entry is
checked to be non-negative with slots summing to m!, which a carry would
break. A table covers every width up to its k_max, in minimal slots, and
never changes: a wider request builds a new table. A caller that reads a
range of widths therefore asks for the widest first (`build_gap_tables`):
reading `gap_moments(7, K)` for K = 8..40 upward from a cold cache builds
33 tables, 0.12-0.14 s, against 0.011-0.020 s with K = 40 read first, on a
shared 2-core Xeon. `counts` and `stored_counts` unpack on read.

A second, much cheaper engine covers i = 1: the interval PGFs for unit gaps
collapse onto a triple of polynomial sequences (a_K, b_K, c_K) driven by
coupled convolution recursions, with c_K the PGF of D(1, K+1). It too
carries integer counts, A_K = K! * a_K and so on, in which each
convolution term takes the weight C(K, j); it is independent of the table,
and the two engines cross-validate each other entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .process import _check_gap_index, _check_layer_width, _check_width
from .ratpoly import (MomentSummary, RationalPolynomial, add_into, coefficient_product,
                      count_moments)

# Stored-coefficient budget for one recursion table, read as each entry is
# stored. Generous for every use in this package (width 40 stays under 5e3
# for each gap length up to 7).
DEFAULT_COEFFICIENT_BUDGET = 5_000_000


class TableBudgetError(RuntimeError):
    """Raised when a recursion table would exceed its coefficient budget."""

    def __init__(self, i: int, state: tuple[int, int, int], budget: int):
        l, r, k = state
        super().__init__(
            f"gap table for i={i} exceeded its budget of {budget} stored "
            f"coefficients at state (l={l}, r={r}, k={k})")
        self.i = i
        self.state = state
        self.budget = budget


def _slot_bytes(k_max: int) -> int:
    """Smallest slot width w, in bytes, with 2^(8w) > k_max!."""
    return (math.factorial(k_max).bit_length() + 7) // 8


def _unpack(packed: int, width: int) -> tuple[int, ...]:
    raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    return tuple(int.from_bytes(raw[j:j + width], "little")
                 for j in range(0, len(raw), width))


class GapRecursionTable:
    """Interval PGFs E(u^gap count) for one gap index i.

    Stores integer counts N = m! * E over the capped states (l', r', m) with
    m >= 3 and l' <= r', each packed into one int; boundary states (m <= 2)
    head every row. The constructor builds every state with k <= k_max, and
    the table never changes after it. `counts` and `entry` accept any
    interval state (l, r, k) with k <= k_max.
    """

    def __init__(self, i: int, k_max: int):
        if i < 1:
            raise ValueError(f"gap index must be >= 1, got {i}")
        _check_layer_width(k_max)
        self.i = i
        self.k_max = k_max
        self._cap = cap = i + 1
        self._width = _slot_bytes(k_max)
        # rows[l'][r'][m] is the packed N(l', r', m), boundary states m <= 2
        # included; rows[l'][r'] is rows[r'][l']
        self._rows = [[None] * (cap + 1) for _ in range(cap + 1)]
        for l in range(cap + 1):
            for r in range(l, cap + 1):
                self._rows[l][r] = self._rows[r][l] = [self._boundary(l, r, m)
                                                       for m in range(3)]
        # weights[m] = C(m-1, m1) for m1 = 1..m-2
        self._weights = [tuple(math.comb(m - 1, m1) for m1 in range(1, m - 1))
                         for m in range(k_max + 1)]
        self._stored_coefficients = 0
        # a capped state (l', r', m) first appears at k = l' + r' + m; states
        # are built by that k, then by s = l' + r' from the deepest layer up,
        # so every state a rule reads is already stored
        for k in range(3, k_max + 1):
            for s in range(min(k - 3, 2 * cap), -1, -1):
                for l in range(max(0, s - cap), s // 2 + 1):
                    r = s - l
                    self._store(l, r, k - s, self._compute(l, r, k - s))

    def _boundary(self, l: int, r: int, m: int) -> int:
        if l < self._cap and r < self._cap and l + r + m == self.i:
            return math.factorial(m) << (8 * self._width)
        return math.factorial(m)

    def _distinct_rows(self):
        return ((l, r, self._rows[l][r]) for l in range(self._cap + 1)
                for r in range(l, self._cap + 1))

    def _compute(self, l: int, r: int, m: int) -> int:
        cap, rows = self._cap, self._rows
        left, right = rows[l][0], rows[0][r]
        return (rows[min(l + 1, cap)][r][m - 1] + rows[l][min(r + 1, cap)][m - 1]
                + sum(map(mul, self._weights[m],
                          map(mul, left[1:m - 1], right[m - 2:0:-1]))))

    def _store(self, l: int, r: int, m: int, packed: int) -> None:
        # the slots of a positive int are non-negative, and a carry out of a
        # slot would lower their sum by a multiple of 2^(8w) - 1: slots
        # summing to m! are the coefficients themselves
        counts = _unpack(packed, self._width) if packed > 0 else ()
        if sum(counts) != math.factorial(m):
            raise ArithmeticError(
                f"table entry (l={l}, r={r}, k={l + r + m}) for i={self.i} is not a PGF")
        self._stored_coefficients += len(counts)
        if self._stored_coefficients > DEFAULT_COEFFICIENT_BUDGET:
            raise TableBudgetError(self.i, (l, r, l + r + m), DEFAULT_COEFFICIENT_BUDGET)
        self._rows[l][r].append(packed)

    def counts(self, l: int, r: int, k: int) -> tuple[int, ...]:
        """Integer counts N = m! * E for the interval state (l, r, k), m = k - l - r."""
        if l < 0 or r < 0 or l + r > k:
            raise ValueError(f"invalid interval state (l={l}, r={r}, k={k})")
        if k > self.k_max:
            raise ValueError(f"state (l={l}, r={r}, k={k}) beyond table k_max {self.k_max}")
        return _unpack(self._rows[min(l, self._cap)][min(r, self._cap)][k - l - r],
                       self._width)

    def entry(self, l: int, r: int, k: int) -> RationalPolynomial:
        """PGF for the interval state (l, r, k)."""
        return RationalPolynomial.from_counts(self.counts(l, r, k), math.factorial(k - l - r))

    def stored_counts(self) -> list[tuple[tuple[int, int, int], tuple[int, ...]]]:
        """The stored (l', r', m) states with their integer counts N."""
        return [((l, r, m), _unpack(row[m], self._width))
                for l, r, row in self._distinct_rows() for m in range(3, len(row))]

    def __len__(self) -> int:
        return sum(len(row) - 3 for _, _, row in self._distinct_rows())


_table_cache: dict[int, GapRecursionTable] = {}


def gap_pgf_table(i: int, k_max: int) -> GapRecursionTable:
    """Shared recursion table for gap index ``i`` covering every width up to
    ``k_max``: the cached one when it is wide enough, else a new one built
    at ``k_max``, which is cached once it is complete."""
    table = _table_cache.get(i)
    if table is None or table.k_max < k_max:
        table = _table_cache[i] = GapRecursionTable(i, k_max)
    return table


def build_gap_tables(indices, widest: int) -> None:
    """Build the shared tables of ``indices`` for every ring width up to
    ``widest``. A range reader calls this before reading its widths: a
    table is built once, at the width it is asked for, and reading widths
    upward instead rebuilds it at each new width."""
    for i in indices:
        gap_pgf_table(i, widest - 1)


def _ring_table(i: int, K: int) -> GapRecursionTable:
    """The table whose state (0, 0, K-1) is the cyclic process of width K."""
    _check_width(K)
    _check_gap_index(i, K)
    return gap_pgf_table(i, K - 1)


def gap_distribution(i: int, K: int) -> RationalPolynomial:
    """PGF of the number of index-``i`` gaps of the cyclic process of width K."""
    return _ring_table(i, K).entry(0, 0, K - 1)


def gap_moments(i: int, K: int) -> MomentSummary:
    """Exact mean/variance of the index-``i`` gap count at width K."""
    return count_moments(_ring_table(i, K).counts(0, 0, K - 1), math.factorial(K - 1))


@dataclass(frozen=True)
class AbcTriple:
    """K-th element of the specialized unit-gap recursion; c is the PGF of
    the unit-gap count at width K+1."""

    K: int
    a: RationalPolynomial
    b: RationalPolynomial
    c: RationalPolynomial


def abc_recursion(k_max: int) -> list[AbcTriple]:
    """Unit-gap polynomial triples for K = 3..k_max.

    The three sequences satisfy coupled convolution recursions with small
    indicator source terms; a_K(1) = b_K(1) = 0 and c_K(1) = 1 for K >= 3,
    and all three have degree (2K - 1 - 3*(-1)**K) / 4. In the recursion
    for width K+1, multiplied through by K!, the counts A_K = K! * a_K (and
    B, C alike) take C(K, j) on each convolution term, K on terms of width
    K-1, K(K-1) on terms of width K-2 and K! on the source terms. These
    counts can be negative, so they are coefficient lists, not packed slots.
    """
    _check_width(k_max)
    A: list[list[int]] = [[], [], []]
    B: list[list[int]] = [[], [], []]
    C: list[list[int]] = [[], [], []]
    # (a, b, c) source terms at K = 2, 3, 4: (1-u)^2, u(1-u), 2+u^2; 0, 1-u, 2u; 0, 0, 1
    sources = {2: ([1, -2, 1], [0, 1, -1], [2, 0, 1]),
               3: ([], [1, -1], [0, 2]),
               4: ([], [], [1])}
    for K in range(2, k_max):
        a_src, b_src, c_src = sources.get(K, ([], [], []))
        f = math.factorial(K)
        a_next = [f * x for x in a_src]
        b_next = [f * x for x in b_src]
        c_next = [f * x for x in c_src]
        for j in range(3, K - 2):
            w = math.comb(K, j)
            add_into(a_next, coefficient_product(B[j], B[K - j]), w)
            add_into(b_next, coefficient_product(B[j], C[K - j]), w)
            add_into(c_next, coefficient_product(C[j], C[K - j]), w)
        add_into(a_next, coefficient_product([1, -1], B[K - 1]), 2 * K)
        add_into(b_next, A[K])
        add_into(b_next, B[K])
        add_into(b_next, [0, *B[K - 1]], K)
        add_into(b_next, B[K - 2], K * (K - 1))
        add_into(b_next, coefficient_product([1, -1], C[K - 1]), K)
        add_into(c_next, B[K], 2)
        add_into(c_next, C[K], 2)
        add_into(c_next, [0, *C[K - 1]], 2 * K)
        add_into(c_next, C[K - 2], 2 * K * (K - 1))
        A.append(a_next)
        B.append(b_next)
        C.append(c_next)
    return [AbcTriple(K, *(RationalPolynomial.from_counts(X[K], math.factorial(K))
                           for X in (A, B, C)))
            for K in range(3, k_max + 1)]


def abc_degree(K: int) -> int:
    """Common degree of a_K, b_K, c_K for K >= 3."""
    return (2 * K - 1 - 3 * (-1) ** K) // 4
