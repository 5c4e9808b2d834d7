"""Aggregation and rank correlation."""
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmbench.errors import AllSentinels, LengthMismatch, ZeroRankVariance
from harmbench.stats import (
    CorrelationMatrix,
    correlation_matrix,
    mean_std,
    rank_average_ties,
    sentinel_count,
    spearman,
)

from oracles import average_ranks_positional, spearman_direct


def test_constant_series():
    assert mean_std([1.0, 1.0, 1.0]) == (1.0, 0.0)


def test_two_point_sample_std():
    mean, std = mean_std([0.0, 2.0])
    assert mean == 1.0
    assert std == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_single_value_has_zero_std():
    assert mean_std([4.2]) == (4.2, 0.0)


def test_seeded_gaussian_moments():
    rng = np.random.default_rng(42)
    draws = rng.normal(5.0, 2.0, 1000)
    mean, std = mean_std(draws)
    assert abs(mean - 5.0) < 0.2
    assert abs(std - 2.0) < 0.2


def test_sentinels_excluded_and_counted():
    series = [10.0, math.inf, 20.0, math.inf]
    assert sentinel_count(series) == 2
    mean, std = mean_std(series)
    assert mean == 15.0


def test_all_sentinels_raises():
    with pytest.raises(AllSentinels):
        mean_std([math.inf, math.inf])


# -------------------------------------------------------------- correlation


def test_monotone_increasing_is_one():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0


def test_monotone_decreasing_is_minus_one():
    assert spearman([1, 2, 3], [3, 2, 1]) == -1.0


def test_hand_case_point_eight():
    # classic d^2 formula: 1 - 6*(0+1+1+0)/(4*15) = 0.8
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)


def test_sentinel_pairs_dropped():
    rho = spearman([1, 2, math.inf, 3, 4], [10, 30, 5, 20, 40])
    assert rho == spearman([1, 2, 3, 4], [10, 30, 20, 40])


def test_length_errors():
    with pytest.raises(LengthMismatch):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(LengthMismatch):
        spearman([1, 2], [1, 2])
    with pytest.raises(LengthMismatch):
        spearman([1, math.inf, math.inf, 2], [1, 2, 3, 4])


def test_zero_rank_variance():
    with pytest.raises(ZeroRankVariance):
        spearman([5, 5, 5], [1, 2, 3])
    with pytest.raises(ZeroRankVariance):
        spearman([1, 2, 3], [7, 7, 7])


def test_ranks_match_positional_oracle_exhaustively():
    # every series of length 3..5 over {0, 1, 2}
    for n in (3, 4, 5):
        for series in product((0.0, 1.0, 2.0), repeat=n):
            got = rank_average_ties(np.array(series))
            want = average_ranks_positional(series)
            np.testing.assert_array_equal(got, want)


def test_tied_correlation_matches_brute_force():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 6))
        x = rng.integers(0, 3, n).astype(float)
        y = rng.integers(0, 3, n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert spearman(x, y) == pytest.approx(spearman_direct(x, y), abs=1e-12)
        checked += 1


@given(
    st.lists(st.integers(-1000, 1000), min_size=3, max_size=30),
    st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_monotone_transform_invariance_exact(xs, seed):
    rng = np.random.default_rng(seed)
    x = np.array(xs, dtype=np.float64)
    y = rng.integers(-1000, 1000, len(xs)).astype(np.float64)
    try:
        base = spearman(x, y)
    except ZeroRankVariance:
        return
    # strictly increasing maps, exact in float64 on integer inputs, so the
    # rank vectors cannot even collide through rounding
    fx = x ** 3 + 0.5 * x
    gy = y ** 3 + 0.5 * y
    assert spearman(fx, gy) == base


@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=30, unique=True),
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=30, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_symmetry_and_reversal(xs, ys):
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n]), np.array(ys[:n])
    rho = spearman(x, y)
    assert spearman(y, x) == rho
    assert spearman(x, -y) == -rho


def test_bounds_hold():
    rng = np.random.default_rng(99)
    for _ in range(100):
        x = rng.normal(0, 1, 20)
        y = rng.normal(0, 1, 20)
        assert abs(spearman(x, y)) <= 1.0 + 1e-12


def test_correlation_matrix_layout_and_nan_cells():
    rows = {
        "nwd_ip": [0.1, 0.5, 0.9, 0.7],
        "ap": [1.0, 1.0, 1.0, 1.0],  # all tied -> undefined
    }
    cols = {
        "ssim": [0.2, 0.6, 0.8, 0.75],
        "mae": [0.9, 0.5, 0.2, 0.3],
    }
    m = correlation_matrix(rows, cols)
    assert m.row_names == ("nwd_ip", "ap")
    assert m.col_names == ("ssim", "mae")
    assert m.rho[0, 0] == 1.0
    assert m.rho[0, 1] == -1.0
    assert math.isnan(m.rho[1, 0]) and math.isnan(m.rho[1, 1])


def test_correlation_matrix_invariant():
    with pytest.raises(ValueError):
        CorrelationMatrix(("a",), ("b",), np.array([[1.5]]))
