import math
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from stripdep import roots
from stripdep.cli import main
from stripdep.laws import suite_roots
from stripdep.oracle import enumerate_root_distribution
from stripdep.process import BoundaryMode
from stripdep.ratpoly import RationalPolynomial as P, pgf_moments
from stripdep.roots import (
    asymptotic_root_pgf,
    aux_root_layers,
    aux_root_pgf,
    cyclic_root_pgf,
    first_step_root_counts,
    pole_position,
    root_layers,
    root_series_closed_form,
)

# Width-4 cyclic variance: the auxiliary width-3 root count is Bernoulli(1/3)
# (one root iff the middle site is hit first), so the variance is
# (1/3)(2/3) = 2/9. Pinned by the enumeration oracle in test_oracle.
WIDTH4_VARIANCE = F(2, 9)


def test_small_width_fixtures():
    assert aux_root_pgf(0) == P([1])
    assert aux_root_pgf(2) == P([1])
    assert aux_root_pgf(3) == P([F(2, 3), F(1, 3)])
    assert cyclic_root_pgf(3) == P([0, 1])
    assert cyclic_root_pgf(4) == P([0, F(2, 3), F(1, 3)])


def test_width_arguments():
    with pytest.raises(ValueError):
        cyclic_root_pgf(2)
    with pytest.raises(ValueError):
        aux_root_pgf(-1)


def test_no_root_probability_law():
    # constant term halves relative to 2/K each step: P(no roots) = 2^(K-1)/K!
    for K in range(3, 13):
        assert aux_root_pgf(K).coefficients[0] == F(2 ** (K - 1), math.factorial(K))
    assert aux_root_pgf(6).coefficients[0] == F(32, 720)


def test_mean_variance_and_degree_laws_to_60():
    for K in range(3, 61):
        pgf = cyclic_root_pgf(K)
        assert pgf(1) == 1
        m = pgf_moments(pgf)
        assert m.mean == F(K, 3)
        if K == 3:
            assert m.variance == 0
        elif K == 4:
            assert m.variance == WIDTH4_VARIANCE
        else:
            assert m.variance == F(2 * K, 45)
        assert aux_root_pgf(K).degree == (K - 1) // 2
        assert pgf.degree == (K - 2) // 2 + 1


def test_specific_moment_values():
    assert pgf_moments(cyclic_root_pgf(10)).mean == F(10, 3)
    assert pgf_moments(cyclic_root_pgf(7)).variance == F(14, 45)
    assert pgf_moments(cyclic_root_pgf(5)).variance == F(2, 9)
    assert pgf_moments(cyclic_root_pgf(6)).variance == F(4, 15)


def test_closed_form_at_z_one():
    assert root_series_closed_form(0.5, 1) == pytest.approx(1.0)
    assert root_series_closed_form(0, 3.7) == 0
    with pytest.raises(ValueError):
        root_series_closed_form(1, 1)


def test_closed_form_matches_truncated_series():
    x, z = 0.3, 1.2
    series = sum(float(aux_root_pgf(K)(F(6, 5))) * x**K for K in range(1, 61))
    assert abs(root_series_closed_form(x, z) - series) < 1e-9
    # and on the other side of z = 1
    x, z = 0.25, 0.8
    series = sum(float(aux_root_pgf(K)(F(4, 5))) * x**K for K in range(1, 61))
    assert abs(root_series_closed_form(x, z) - series) < 1e-9


def test_closed_form_detects_pole():
    with pytest.raises(ValueError):
        root_series_closed_form(pole_position(1.2), 1.2)


def test_pole_position():
    assert pole_position(1.000001) == pytest.approx(1.0, abs=1e-5)
    assert pole_position(0.999999) == pytest.approx(1.0, abs=1e-5)
    assert pole_position(1.2) == pytest.approx(0.9403433605676343)
    for z in (1.0, 0.0, -2.0):
        with pytest.raises(ValueError):
            pole_position(z)


def test_asymptotic_agrees_with_exact_to_float_precision():
    # the correction term is ~1e-21 relative at K=20, far below float64
    # resolution, so the double-precision evaluation must match the exact
    # value to rounding error; tolerance frozen from a measured 3e-15
    for K in (20, 35, 50):
        exact = float(aux_root_pgf(K)(F(11, 10)))
        assert abs(asymptotic_root_pgf(1.1, K) - exact) / exact < 1e-12
        exact = float(aux_root_pgf(K)(F(6, 5)))
        assert abs(asymptotic_root_pgf(1.2, K) - exact) / exact < 1e-12


def test_asymptotic_domain_errors():
    with pytest.raises(ValueError):
        asymptotic_root_pgf(1.0, 10)
    with pytest.raises(ValueError):
        asymptotic_root_pgf(1.1, 2)


def test_insertion_engine_equals_first_step_recursion_to_110():
    reference = first_step_root_counts(110)
    assert len(reference) == 111
    layers = list(aux_root_layers(110))
    assert len(layers) == 111
    for K, counts in enumerate(layers):
        assert counts == reference[K]
        assert sum(counts) == math.factorial(K)
    assert layers[5] == reference[5] == (16, 88, 16)


@pytest.fixture
def insertions(monkeypatch):
    """The width n of every W_n -> W_{n+1} insertion made while in use."""
    steps = []
    insert = roots._insert_largest
    monkeypatch.setattr(roots, "_insert_largest",
                        lambda n, counts: steps.append(n) or insert(n, counts))
    return steps


def test_layer_stream_makes_one_insertion_per_width(insertions):
    reference = first_step_root_counts(110)
    for k in (0, 1, 2, 3, 4, 60, 110):
        insertions.clear()
        assert list(aux_root_layers(k)) == reference[:k + 1]
        assert insertions == list(range(1, k))


@pytest.mark.parametrize("mode", list(BoundaryMode))
def test_mode_stream_is_the_auxiliary_stream_shifted_for_cyclic(insertions, mode):
    aux = list(aux_root_layers(60))
    insertions.clear()
    if mode is BoundaryMode.CYCLIC:
        expected = [(K, (0, *aux[K - 1]), math.factorial(K - 1)) for K in range(3, 61)]
    else:
        expected = [(K, aux[K], math.factorial(K)) for K in range(61)]
    assert list(root_layers(mode, 60)) == expected
    assert insertions == list(range(1, 59 if mode is BoundaryMode.CYCLIC else 60))


def test_layer_stream_rejects_negative_widths():
    with pytest.raises(ValueError, match="width must be non-negative, got -1"):
        next(aux_root_layers(-1))


@pytest.mark.parametrize("argv", [("exact-roots", "--kmax", "120"),
                                  ("exact-roots", "--kmax", "120", "--mode", "aux"),
                                  ("verify", "--suite", "roots", "--kmax", "120")])
def test_width_walks_stream_the_layers_once(insertions, capsys, argv):
    # a cold walk per width would make about 7,000 insertions
    assert main(list(argv)) == 0
    assert len(insertions) <= 120


@settings(max_examples=30, deadline=None)
@given(K=st.integers(3, 8), mode=st.sampled_from(list(BoundaryMode)))
def test_root_pgfs_equal_enumeration_oracle(K, mode):
    engine = cyclic_root_pgf(K) if mode is BoundaryMode.CYCLIC else aux_root_pgf(K)
    assert engine == enumerate_root_distribution(K, mode).pgf()


def _cyclic_root_cumulants(counts):
    """Mean and cumulants 2..4 of the cyclic root count at width K, from the
    integer counts of the auxiliary process at width K-1 (one extra root)."""
    n = sum(counts)
    m1, m2, m3, m4 = (F(sum(c * (d + 1) ** j for d, c in enumerate(counts)), n)
                      for j in range(1, 5))
    k2 = m2 - m1**2
    k3 = m3 - 3 * m1 * m2 + 2 * m1**3
    k4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4 - 3 * k2**2
    return m1, k2, k3, k4


def test_root_third_and_fourth_cumulant_laws():
    for K, counts in enumerate(islice(aux_root_layers(299), 2, None), 3):
        _, _, k3, k4 = _cyclic_root_cumulants(counts)
        assert (k3 == F(-2 * K, 945)) == (K >= 7), K
        assert (k4 == F(-22 * K, 4725)) == (K >= 9), K


def test_root_mean_and_variance_laws_at_large_widths():
    for K, counts in enumerate(aux_root_layers(499), 1):
        if K not in (150, 300, 500):
            continue
        mean, var, _, _ = _cyclic_root_cumulants(counts)
        assert mean == F(K, 3)
        assert var == F(2 * K, 45)
