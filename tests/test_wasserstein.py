"""Exact 1-D transport distance, the normalized pair, and verdicts."""
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmbench
from harmbench import wasserstein
from harmbench.distribution import EmpiricalDistribution
from harmbench.errors import DegenerateNormalizer
from harmbench.wasserstein import Verdict, WdPair, classify, nwd, wasserstein_1d

from oracles import (
    wd_breakpoints_fraction,
    wd_breakpoints_searchsorted,
    wd_cdf_integral,
    wd_full_length_side_sums,
    wd_matching,
    wd_side_sums_fsum,
)


def _u(samples):
    return EmpiricalDistribution.from_samples(samples)


def test_identical_distributions_have_zero_distance():
    assert wasserstein_1d(_u([1, 2, 3]), _u([1, 2, 3])) == 0.0


def test_point_mass_translation():
    assert wasserstein_1d(_u([0.0]), _u([5.0])) == 5.0


@pytest.mark.parametrize("k", [2, 3, 7])
def test_repeated_multiset_is_exactly_zero(k):
    # a sample set repeated k times is the same distribution, so no
    # rounding may be left over
    x = _u(np.random.default_rng(k).normal(100.0, 20.0, 10 ** 5))
    repeated = _u(np.repeat(x.values, k))
    assert wasserstein_1d(x, repeated) == 0.0
    assert wasserstein_1d(repeated, x) == 0.0


def test_small_fixture_matches_brute_force_matching():
    a, b = [0, 0, 4], [1, 3, 5]
    want = wd_matching(a, b)  # enumerates all 3! pairings -> 5/3
    assert want == pytest.approx(5 / 3, abs=1e-12)
    assert wasserstein_1d(_u(a), _u(b)) == pytest.approx(want, abs=1e-9)


def test_unequal_sizes_match_cdf_integration():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = rng.integers(0, 10, size=rng.integers(1, 9))
        b = rng.integers(0, 10, size=rng.integers(1, 9))
        da, db = _u(a), _u(b)
        want = wd_cdf_integral(da.values, np.full(da.n, 1 / da.n), db.values, np.full(db.n, 1 / db.n))
        assert wasserstein_1d(da, db) == pytest.approx(want, abs=1e-9)


@st.composite
def _dist(draw, max_size=40, lo=-100.0, hi=100.0):
    samples = draw(
        st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=max_size,
        )
    )
    return _u(samples)


@given(_dist(), _dist())
@settings(max_examples=200, deadline=None)
def test_symmetry_exact(a, b):
    assert wasserstein_1d(a, b) == wasserstein_1d(b, a)


@given(_dist(), _dist())
@settings(max_examples=200, deadline=None)
def test_nonnegative_and_zero_on_self(a, b):
    assert wasserstein_1d(a, b) >= 0.0
    assert wasserstein_1d(a, a) == 0.0


@given(_dist(), _dist(), _dist())
@settings(max_examples=150, deadline=None)
def test_triangle_inequality(a, b, c):
    assert wasserstein_1d(a, c) <= wasserstein_1d(a, b) + wasserstein_1d(b, c) + 1e-9


@given(_dist(max_size=20), _dist(max_size=20), st.floats(-50, 50, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_translating_both_changes_nothing(a, b, c):
    shifted_a = EmpiricalDistribution(a.values + c)
    shifted_b = EmpiricalDistribution(b.values + c)
    assert wasserstein_1d(shifted_a, shifted_b) == pytest.approx(
        wasserstein_1d(a, b), abs=1e-9
    )


@given(st.floats(-20, 20, allow_nan=False), st.floats(0.0, 30, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_translating_one_point_mass_moves_distance_by_shift(x, c):
    base = wasserstein_1d(_u([x]), _u([x]))
    assert base == 0.0
    assert wasserstein_1d(_u([x + c]), _u([x])) == pytest.approx(abs(c), abs=1e-12)
    # a shift that does not cross the other mass changes the gap by exactly c
    far = x + 100.0
    assert wasserstein_1d(_u([x + c]), _u([far])) == pytest.approx(
        (far - x) - c, abs=1e-9
    )


@st.composite
def _tied_pair(draw):
    """Two distributions whose quantile breakpoints tie often: integer
    values, each repeated a drawn number of times, and N_b drawn freely,
    equal to N_a or a multiple of it (so every breakpoint of `a` ties one
    of `b`)."""

    def side(n):
        cuts = draw(st.sets(st.integers(1, n - 1), max_size=12)) if n > 1 else set()
        counts = np.diff([0, *sorted(cuts), n])
        values = draw(st.lists(st.integers(-5, 5), min_size=counts.size, max_size=counts.size))
        return _u(np.repeat(values, counts))

    a = side(draw(st.integers(1, 30)))
    n_b = draw(st.one_of(st.integers(1, 30), st.just(a.n), st.integers(2, 4).map(lambda k: k * a.n)))
    return a, side(n_b)


@given(_tied_pair())
@settings(max_examples=300, deadline=None)
def test_merge_order_indices_match_binary_search_bit_for_bit(pair):
    a, b = pair
    assert wasserstein_1d(a, b) == wd_breakpoints_searchsorted(a, b)
    assert wasserstein_1d(b, a) == wd_breakpoints_searchsorted(b, a)


@st.composite
def _unit_pair(draw):
    """Two distributions of float samples, N_b equal to N_a, a
    multiple of it, or drawn freely, so the shared breakpoints range from
    every one of `a`'s to only the last."""
    n_a = draw(st.integers(1, 40))
    n_b = draw(st.one_of(st.just(n_a), st.integers(2, 4).map(lambda k: k * n_a), st.integers(1, 60)))
    samples = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    a = draw(st.lists(samples, min_size=n_a, max_size=n_a))
    b = draw(st.lists(samples, min_size=n_b, max_size=n_b))
    return _u(a), _u(b)


@given(st.one_of(_tied_pair(), _unit_pair()))
@settings(max_examples=300, deadline=None)
def test_within_rounding_bound_of_the_exact_breakpoint_sum(pair):
    # Every term is nonnegative, so rounding each gap and each width·gap
    # product, a sum over the n samples of the longer side in any
    # order, the sum of the two sides and the division move the result by
    # at most (n + 3)·2**-53 relative, under n + 3 ulps.
    # One more ulp covers gaps below the normal range. Typical errors are
    # a few ulps, but no fixed count holds for every pair: random pairs of
    # up to 40 and 160 points reach 4.9 ulps.
    a, b = pair
    exact = wd_breakpoints_fraction(a, b)
    ulp = Fraction(math.ulp(float(exact)))
    bound = (max(a.n, b.n) + 4) * ulp
    for got in (wasserstein_1d(a, b), wasserstein_1d(b, a)):
        assert abs(Fraction(got) - exact) <= bound, f"{float(abs(Fraction(got) - exact) / ulp):.2f} ulps"


@given(st.one_of(_tied_pair(), _unit_pair()))
@settings(max_examples=300, deadline=None)
def test_symmetry_exact_on_shared_breakpoints(pair):
    a, b = pair
    assert wasserstein_1d(a, b) == wasserstein_1d(b, a)
    assert wasserstein_1d(a, a) == 0.0


@given(st.integers(1, 60), st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_division_ranks_equal_binary_search_ranks(n_a, n_b):
    # the rank of each of `a`'s breakpoints into `b`: the number of `b`'s
    # breakpoints strictly below it
    qa = np.arange(1, n_a + 1) * n_b
    qb = np.arange(1, n_b + 1) * n_a
    assert np.array_equal((qa - 1) // n_a, np.searchsorted(qb, qa, "left"))


@pytest.mark.parametrize("a_counts,b_counts", [
    ([2**32, 2**32], [2**32, 1]),  # each size fits int64, their product does not
    ([2**62, 2**62], [1, 1]),  # the size 2**63 itself is past int64
    ([2**31, 2**31], [2**30, 2**30]),  # 2**32·2**31 is 2**63 itself
])
def test_breakpoints_past_int64_are_refused(a_counts, b_counts):
    # the refusal reads only the sample counts, so stand-ins holding the
    # size of runs of equal samples, far too many to build, are enough
    a, b = SimpleNamespace(n=sum(a_counts)), SimpleNamespace(n=sum(b_counts))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match=r"2\*\*63"):
            wasserstein_1d(x, y)


_LARGE_PAIR_CODE = """
import numpy as np
from harmbench.distribution import EmpiricalDistribution
rng = np.random.default_rng(14)
a = EmpiricalDistribution.from_samples(rng.normal(100.0, 20.0, 200_000))
b = EmpiricalDistribution.from_samples(rng.normal(110.0, 25.0, 300_000))
"""


def test_same_bits_at_any_blas_thread_count():
    # a BLAS dot product over more than about 10**4 terms is split across
    # its threads, and the partial sums then add up in a different order
    src = str(Path(harmbench.__file__).resolve().parent.parent)
    code = _LARGE_PAIR_CODE + "from harmbench.wasserstein import wasserstein_1d\nprint(wasserstein_1d(a, b).hex())"
    got = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        got.append(subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout.strip())
    assert got[0] == got[1]


def test_within_pairwise_summation_bound_on_a_large_unit_pair():
    # numpy sums a contiguous float64 array pairwise: it halves the array
    # (the first half a multiple of 8 long) until a block has at most 128
    # terms, sums a block in 8 interleaved accumulators, adds the 8 in a
    # 3-level tree and then the at most 7 leftover terms one by one. In its
    # block a term passes through at most 24 additions (14 + 3 + 7 with 7
    # leftover terms, 15 + 3 without), and then through one per halving:
    # h = 24 + ceil(log2(n / 128)) + 1, the last one allowing for halves
    # up to 7 terms longer than n/2. All terms are nonnegative, so the
    # rounded products and the h additions keep a side's sum within
    # (h + 1)·2**-53 relative of its exact value, to first order. Adding the
    # two sides and the division add 2·2**-53, and the oracle's correctly
    # rounded sides 2**-53 more. Since 2**-53·x <= ulp(x), the distance is
    # within h + 4 ulps, and one more covers the second-order terms.
    namespace = {}
    exec(_LARGE_PAIR_CODE, namespace)
    a, b = namespace["a"], namespace["b"]
    side_a, side_b = wd_side_sums_fsum(a, b)
    exact = (Fraction(side_a) + Fraction(side_b)) / (a.n * b.n)
    ulp = Fraction(math.ulp(float(exact)))
    h = 24 + math.ceil(math.log2(max(a.n, b.n) / 128)) + 1
    for got in (wasserstein_1d(a, b), wasserstein_1d(b, a)):
        ulps = abs(Fraction(got) - exact) / ulp
        assert ulps <= h + 5, f"{float(ulps):.2f} ulps"


B = wasserstein._BLOCK


def _leaf_edges(n):
    """Where the block tree of a side of n breakpoints starts a new block:
    numpy's pairwise halving, replayed down to ranges of at most B."""
    edges, ranges = [], [(0, n)]
    while ranges:
        lo, hi = ranges.pop()
        half = (hi - lo) // 2
        half -= half % 8
        if hi - lo <= B:
            edges.append(lo)
        else:
            ranges += [(lo + half, hi), (lo, lo + half)]
    return edges[1:]


def _unit(rng, n):
    return _u(rng.normal(100.0, 20.0, n))


def _counted(rng, n):
    """n samples in runs of 1 to 3 equal values."""
    return _u(np.repeat(rng.normal(104.0, 22.0, n), rng.integers(1, 4, n))[:n])


def _same_bits_as_one_full_length_sum(a, b):
    for x, y in ((a, b), (b, a)):
        assert wasserstein_1d(x, y) == wd_full_length_side_sums(x, y)


@pytest.mark.parametrize("kinds", ["unit", "counted", "mixed"])
@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 7, 3 * B + 1])
def test_block_edges_give_the_bits_of_one_full_length_sum(n, kinds):
    rng = np.random.default_rng(n)
    make_a = _counted if kinds == "counted" else _unit
    make_b = _unit if kinds == "unit" else _counted
    for m in (n, n - 5, 2 * n + 3):
        _same_bits_as_one_full_length_sum(make_a(rng, n), make_b(rng, m))


@pytest.mark.parametrize("n_a,n_b", [(2 * B, 3 * B), (2 * B, 2 * B), (4 * B, 6 * B)])
def test_breakpoints_shared_on_a_block_edge_give_the_same_bits(n_a, n_b):
    # a breakpoint shared by both sides ends the block before an edge
    for own, other in ((n_a, n_b), (n_b, n_a)):
        step = own // math.gcd(own, other)
        assert any(edge % step == 0 for edge in _leaf_edges(own))
    rng = np.random.default_rng(n_a + n_b)
    _same_bits_as_one_full_length_sum(_unit(rng, n_a), _unit(rng, n_b))
    # every sample twice on both sides: ties at the shared breakpoints too
    twos_a = _u(np.repeat(rng.normal(0.0, 1.0, n_a // 2), 2))
    twos_b = _u(np.repeat(rng.normal(0.5, 1.0, n_b // 2), 2))
    _same_bits_as_one_full_length_sum(twos_a, twos_b)


def test_random_pairs_give_the_bits_of_one_full_length_sum():
    rng = np.random.default_rng(20)
    for _ in range(200):
        sizes = np.exp(rng.uniform(0.0, math.log(4 * B), 2)).astype(int)
        kinds = rng.choice([_unit, _counted], 2)
        _same_bits_as_one_full_length_sum(kinds[0](rng, sizes[0]), kinds[1](rng, sizes[1]))


@pytest.mark.parametrize("kinds", ["unit", "counted", "mixed"])
def test_block_size_changes_no_bit(monkeypatch, kinds):
    # the blocks follow numpy's pairwise tree, so any block of at least its
    # 128-term leaf gives the same float as a single block
    rng = np.random.default_rng(3)
    n = 5 * B + 3
    a = (_counted if kinds == "counted" else _unit)(rng, n)
    b = (_unit if kinds == "unit" else _counted)(rng, n + 1001)
    got = []
    for block in (128, 1024, B, 2 * n):
        monkeypatch.setattr(wasserstein, "_BLOCK", block)
        got.append((wasserstein_1d(a, b), wasserstein_1d(b, a)))
    assert len(set(got)) == 1


def _traced_peak(a, b):
    tracemalloc.start()
    try:
        wasserstein_1d(a, b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_a_few_blocks_at_any_size():
    # a side's terms are made one block at a time: a few arrays of at most
    # B breakpoints are alive at once, however long the sides are
    block_bytes = B * 8
    rng = np.random.default_rng(8)
    for make in (_unit, _counted):
        a, b = make(rng, 10**6), make(rng, 10**6 + 3)
        peak = _traced_peak(a, b)
        assert peak < 8 * block_bytes, f"{make.__name__} peak {peak / block_bytes:.2f} blocks"
    # native foregrounds are widened a block at a time, never whole
    for dtype in (np.float32, np.int16):
        e, f = (_u(rng.normal(100.0, 20.0, n).astype(dtype)) for n in (10**6, 10**6 + 3))
        assert e.values.dtype == f.values.dtype == dtype
        peak = _traced_peak(e, f)
        assert peak < 8 * block_bytes, f"{dtype.__name__} peak {peak / block_bytes:.2f} blocks"


# --------------------------------------------------------------- normalized


def test_no_harmonization_identity():
    i, t = _u([0, 1, 2]), _u([10, 11, 12])
    pair = nwd(i, t, i)
    assert (pair.nwd_ip, pair.nwd_tp) == (0.0, 1.0)
    assert classify(pair) is Verdict.NO_HARMONIZATION


def test_perfect_harmonization_identity():
    i, t = _u([0, 1, 2]), _u([10, 11, 12])
    pair = nwd(i, t, t)
    assert (pair.nwd_ip, pair.nwd_tp) == (1.0, 0.0)
    assert classify(pair) is Verdict.PERFECT


def test_point_mass_over_correction():
    pair = nwd(_u([0.0]), _u([10.0]), _u([12.0]))
    assert pair.wd_ip == 12.0 and pair.wd_tp == 2.0 and pair.wd_it == 10.0
    assert pair.nwd_ip == pytest.approx(1.2, abs=1e-12)
    assert pair.nwd_tp == pytest.approx(0.2, abs=1e-12)
    assert classify(pair, 0.05) is Verdict.OVER_CORRECTED


def test_partial_band_matches_published_style_values():
    pair = WdPair(wd_ip=0.906, wd_tp=0.087, wd_it=1.0, nwd_ip=0.906, nwd_tp=0.087)
    assert classify(pair, 0.05) is Verdict.PARTIAL


def test_degenerate_normalizer_raises():
    i = _u([0, 1, 2])
    with pytest.raises(DegenerateNormalizer):
        nwd(i, _u([0, 1, 2]), _u([5, 6, 7]))
    # all three identical point masses: zero range, still degenerate
    with pytest.raises(DegenerateNormalizer):
        nwd(_u([3.0]), _u([3.0]), _u([3.0]))


def test_nwd_fields_are_consistent():
    rng = np.random.default_rng(2)
    i, t, p = (_u(rng.uniform(0, 10, 30)) for _ in range(3))
    pair = nwd(i, t, p)
    assert pair.nwd_ip == pytest.approx(pair.wd_ip / pair.wd_it, abs=1e-12)
    assert pair.nwd_tp == pytest.approx(pair.wd_tp / pair.wd_it, abs=1e-12)
    assert pair.wd_it > 0


@given(
    st.integers(0, 2 ** 32 - 1),
    st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=100, deadline=None)
def test_scale_invariance_of_normalized_pair(seed, scale):
    rng = np.random.default_rng(seed)
    i = _u(rng.uniform(0, 5, 25))
    t = _u(rng.uniform(6, 12, 25))
    p = _u(rng.uniform(0, 12, 25))
    base = nwd(i, t, p)
    scaled = nwd(
        EmpiricalDistribution(i.values * scale),
        EmpiricalDistribution(t.values * scale),
        EmpiricalDistribution(p.values * scale),
    )
    assert scaled.nwd_ip == pytest.approx(base.nwd_ip, abs=1e-9)
    assert scaled.nwd_tp == pytest.approx(base.nwd_tp, abs=1e-9)


def test_verdict_tolerance_validation():
    pair = WdPair(1, 1, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        classify(pair, 0.0)
    with pytest.raises(ValueError):
        classify(pair, 0.5)


@pytest.mark.parametrize(
    "nwd_ip,nwd_tp,kind",
    [
        (0.04, 0.96, Verdict.NO_HARMONIZATION),
        (0.96, 0.04, Verdict.PERFECT),
        (1.051, 0.3, Verdict.OVER_CORRECTED),
        (0.5, 0.5, Verdict.PARTIAL),
        (1.04, 0.5, Verdict.PARTIAL),
    ],
)
def test_verdict_band_edges(nwd_ip, nwd_tp, kind):
    pair = WdPair(nwd_ip, nwd_tp, 1.0, nwd_ip, nwd_tp)
    assert classify(pair, 0.05) is kind
