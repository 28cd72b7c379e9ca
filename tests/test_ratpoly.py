from fractions import Fraction as F

import pytest

from stripdep.laws import series_coefficients
from stripdep.ratpoly import (
    MomentSummary,
    RationalPolynomial as P,
    add_into,
    coefficient_product,
    count_moments,
    fraction_string,
    pgf_moments,
)


def test_trailing_zeros_are_normalized():
    assert P([1, 2, 0, 0]).coefficients == (F(1), F(2))
    assert P([0, 0]).degree == -1
    assert not P([])
    assert P([F(1, 3)]).degree == 0


def test_arithmetic():
    p = P([1, 2])          # 1 + 2x
    q = P([0, 0, 3])       # 3x^2
    assert p * q == P([0, 0, 3, 6])
    assert (p * q).degree == p.degree + q.degree


def test_coefficient_product_and_add_into_on_ints_and_fractions():
    assert coefficient_product([1, 2], [0, 0, 3]) == [0, 0, 3, 6]
    assert coefficient_product([1, -1], [2, 1]) == [2, -1, -1]
    assert coefficient_product([F(1, 2), 1], [F(2, 3)]) == [F(1, 3), F(2, 3)]
    assert coefficient_product([], [1, 2]) == coefficient_product([3], []) == []
    acc = [1]                                   # shorter than the addend
    add_into(acc, [0, 2, 5], 3)
    assert acc == [1, 6, 15]
    add_into(acc, [F(1, 2)])                    # weight 1
    assert acc == [F(3, 2), 6, 15]
    add_into(acc, [], 7)
    assert acc == [F(3, 2), 6, 15]


def test_mul_cancellation_keeps_canonical_degree():
    assert (P([1, 1]) * P([])).degree == -1
    assert P([F(1, 2), 0]) * P([2, 0, 0]) == P([1])


def test_from_counts_divides_each_count_by_the_total():
    assert P.from_counts([2, 0, 1], 3) == P([F(2, 3), 0, F(1, 3)])
    assert P.from_counts((4, 0, 0), 4) == P([1])


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        P([0.5])


def test_evaluation_exact_and_float():
    p = P([F(2, 3), 0, F(1, 3)])
    assert p(1) == 1
    assert p(F(1, 2)) == F(2, 3) + F(1, 12)
    assert p(0.0) == pytest.approx(2 / 3)
    assert p(1j) == pytest.approx((2 / 3) - (1 / 3))


def test_pgf_checks():
    assert P([F(2, 3), F(1, 3)]).is_pgf()
    assert not P([F(2, 3), F(2, 3)]).is_pgf()
    assert not P([F(4, 3), F(-1, 3)]).is_pgf()


def test_pgf_moments_basics():
    # PGF of a fair coin flip: (1+z)/2
    m = pgf_moments(P([F(1, 2), F(1, 2)]))
    assert m.mean == F(1, 2)
    assert m.variance == F(1, 4)
    assert m.second_factorial_moment == 0
    assert pgf_moments(P([1])) == MomentSummary(F(0), F(0), F(0))
    with pytest.raises(ValueError):
        pgf_moments(P([F(1, 2)]))


def test_count_moments_equal_pgf_moments():
    # first-hit orders of pinned-boundary width 4: 8 with no root, 16 with one
    counts = (8, 16)
    assert count_moments(counts, 24) == pgf_moments(P.from_counts(counts, 24))
    m = count_moments((0, 1, 1, 2), 4)
    assert (m.mean, m.second_factorial_moment) == (F(9, 4), F(14, 4))
    assert m.variance == F(14, 4) + F(9, 4) - F(81, 16)


def test_geometric_series():
    assert series_coefficients([1], 1, 1, 4) == [1, 1, 1, 1]
    assert series_coefficients([1], 2, 1, 3) == [F(1, 2)] * 3


def test_series_with_numerator_and_pole_order_two():
    # x / (1-x)^2 has coefficients 0, 1, 2, 3, ...
    assert series_coefficients([0, 1], 1, 2, 6) == [0, 1, 2, 3, 4, 5]
    # a numerator longer than the requested count is cut, not summed in
    assert series_coefficients([1, 0, 0, 5], 1, 2, 3) == [1, 2, 3]


def test_series_rejects_vanishing_denominator():
    # scale * (1-x)^order vanishes at 0 only for scale 0
    with pytest.raises(ZeroDivisionError):
        series_coefficients([1], 0, 2, 4)


def test_fraction_strings():
    assert P([F(2, 3), 1]).fraction_strings() == ["2/3", "1/1"]
    assert fraction_string(3) == "3/1"
    assert fraction_string(F(-4, 6)) == "-2/3"
