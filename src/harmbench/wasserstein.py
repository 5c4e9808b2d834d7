"""Exact 1-D Wasserstein distance and the normalized harmonization pair.

The order-1 distance between two empirical distributions is the
integral of the absolute difference of their quantile functions. A
distribution of N samples has mass 1/N at each, so it is computed from
exact integer quantile breakpoints: the levels k/N_a and j/N_b scaled by
N_a·N_b, that is k·N_b and j·N_a. Between consecutive breakpoints of
either side both quantile functions are constant, so the distance is a
finite sum of segment width times quantile gap.

Every segment ends at a breakpoint of `a`, of `b`, or of both, so the
sum is taken one side at a time, over that side's own breakpoints and
without merging the two. For a breakpoint q of one side, the number of
the other side's breakpoints j·N_own strictly below it is
s = (q − 1) // N_own, with N_own the sample count of q's own side, and
that is the rank of the other side's sample there. The segment ending
at q starts at the later of the previous own breakpoint and the other
side's last breakpoint below q, and on it the two quantiles are the own
sample at q and the other side's sample at rank s.

A segment that ends where both sides have a breakpoint is found from
both sides, with the same width and the same gap, and each side counts
half of it. These are every N_own/gcd(N_a, N_b)-th breakpoint. Each
side's sum is then a function of the pair alone, not of the argument
order, so W(a, b) and W(b, a) add the same two floats and are exactly
equal. When the two distributions are equal every segment of positive
width has a zero gap, so the distance is exactly zero. The result is
the exact breakpoint sum up to the rounding of the gaps, the width·gap
products, the two sums and the final division. Each side is summed by
numpy's pairwise reduction, whose order is fixed by the length alone
and which runs on one thread: the result does not depend on the thread
count, and measures about 1 ulp off on 1.5·10⁶ samples. The terms are
made one block of breakpoints at a time and the block sums added along
numpy's own halving tree, so a distance holds a few block-sized arrays
at any sample count and its sum is, bit for bit, one pairwise sum over
each side's terms. When both sides have N samples, every breakpoint is
shared and every width is N, so both sides make the same terms
|b_i − a_i|·N/2 in the same order: that one sum is made once, directly
from the sorted samples, and added to itself, with the same bits.

The normalized pair divides the prediction's distance to the input and
to the target by the input-to-target distance, which anchors the scale:
a prediction equal to the input scores (0, 1), one equal to the target
scores (1, 0), and moving past the target pushes the first coordinate
above 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distribution import EmpiricalDistribution
from .errors import DegenerateNormalizer

DEFAULT_VERDICT_TOL = 0.05
NORMALIZER_EPS_FACTOR = 1e-9  # times the joint input/target intensity range


def wasserstein_1d(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Order-1 Wasserstein distance between two empirical distributions.

    The sum of the segments ending at `a`'s breakpoints plus those ending
    at `b`'s, over the common denominator N_a·N_b (see the module
    docstring), where N_a and N_b are the sample counts. The int64
    breakpoints need N_a·N_b < 2**63 (about 3·10⁹ samples each); larger
    counts raise ``ValueError``.
    """
    n_a, n_b = a.n, b.n
    if n_a * n_b >= 2**63:
        raise ValueError(
            f"wasserstein_1d needs N_a·N_b < 2**63 for its int64 breakpoints, "
            f"got N_a={n_a}, N_b={n_b}"
        )
    if n_a == n_b:
        side = _equal_count_side_sum(a, b)
        return (side + side) / (n_a * n_b)
    return (_side_sum(a, b) + _side_sum(b, a)) / (n_a * n_b)


# Breakpoints per block of a side sum. A block's arrays (its
# breakpoints, levels, widths and gaps) take a few hundred kB each, stay
# in cache, and bound the memory of a distance at any sample count. At
# least numpy's pairwise leaf of 128 terms, so that `_pairwise` splits
# exactly where numpy's own sum does.
_BLOCK = 1 << 15


def _pairwise(block, lo: int, hi: int) -> float:
    """numpy's pairwise sum of the terms lo..hi-1, one block at a time.

    numpy halves a range longer than 128 terms, the first half a multiple
    of 8 long, and sums each half the same way; the order of the additions
    depends on the length alone. The same halving is done here until a
    range fits in one block, whose ``block(lo, hi)`` sums its own terms by
    that rule, so the total is bit for bit numpy's sum of all the terms at
    once. ``block`` is called on the blocks in order, left to right.
    """
    n = hi - lo
    if n <= _BLOCK:
        return block(lo, hi)
    half = n // 2
    half -= half % 8
    return _pairwise(block, lo, lo + half) + _pairwise(block, lo + half, hi)


def _side_sum(own: EmpiricalDistribution, other: EmpiricalDistribution) -> float:
    """Width times quantile gap summed over the segments that end at one of
    `own`'s breakpoints, the segments shared with `other` at half weight.

    The rank s is at most N_other − 1 because q ≤ N_own·N_other, so the
    gather needs no clipping.

    The terms are made and summed one block of `own`'s breakpoints at a
    time (`_pairwise`), so a side holds a few block-sized arrays, never
    an array of `own`'s length. Values are widened to float64, exactly,
    only in the gaps, which are scaled by the widths in place and summed
    pairwise rather than by a BLAS dot product, whose threads would
    busy-wait on other cores and whose partial sums would add up in an
    order that depends on the thread count.
    """
    n_own, n_other = own.n, other.n
    step = n_own // math.gcd(n_own, n_other)  # every step-th breakpoint is shared

    def block(lo: int, hi: int) -> float:
        q = np.arange(lo + 1, hi + 1, dtype=np.int64)
        q *= n_other  # own breakpoints on the common scale N_own·N_other
        s = q - 1
        s //= n_own  # the other side's breakpoints strictly below: its rank
        d = other.values[s]
        s *= n_own  # the other side's last breakpoint below, 0 if none
        s[0] = max(int(s[0]), lo * n_other)  # or the previous own one, if later
        np.maximum(s[1:], q[:-1], out=s[1:])
        q -= s  # widths, all positive
        del s
        d = d.astype(np.float64, copy=False)
        np.subtract(d, own.values[lo:hi], out=d, dtype=np.float64)
        np.abs(d, out=d)
        d[(step - 1 - lo) % step::step] *= 0.5
        d *= q
        return float(d.sum())

    return _pairwise(block, 0, n_own)


def _equal_count_side_sum(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """:func:`_side_sum` of either side of a pair of N samples each.

    Every breakpoint k·N is then shared and every width is N, so each side
    makes the terms |b_i − a_i|·0.5·N in index order, the same floats, and
    sums them along the same tree: one side sum, made without ranks,
    breakpoints or gathers, is the other's too, bit for bit.
    """
    n = a.n

    def block(lo: int, hi: int) -> float:
        d = np.subtract(b.values[lo:hi], a.values[lo:hi], dtype=np.float64)
        np.abs(d, out=d)
        d *= 0.5
        d *= n
        return float(d.sum())

    return _pairwise(block, 0, n)


@dataclass(frozen=True)
class WdPair:
    """Raw and normalized distances for one (input, target, prediction)."""

    wd_ip: float
    wd_tp: float
    wd_it: float
    nwd_ip: float
    nwd_tp: float


class Verdict(str, Enum):
    NO_HARMONIZATION = "NoHarmonization"
    PERFECT = "Perfect"
    PARTIAL = "Partial"
    OVER_CORRECTED = "OverCorrected"


def nwd(
    input_dist: EmpiricalDistribution,
    target_dist: EmpiricalDistribution,
    pred_dist: EmpiricalDistribution,
) -> WdPair:
    """Normalized Wasserstein pair for one harmonization triplet.

    Raises :class:`DegenerateNormalizer` when input and target are not
    distinguishable enough to anchor the normalization.
    """
    wd_it = wasserstein_1d(input_dist, target_dist)
    joint_range = max(input_dist.support_max, target_dist.support_max) - min(
        input_dist.support_min, target_dist.support_min
    )
    if wd_it <= NORMALIZER_EPS_FACTOR * joint_range:
        raise DegenerateNormalizer(
            f"input/target distance {wd_it!r} is below {NORMALIZER_EPS_FACTOR!r} "
            "of the joint intensity range; the protocols are indistinguishable"
        )
    wd_ip = wasserstein_1d(input_dist, pred_dist)
    wd_tp = wasserstein_1d(target_dist, pred_dist)
    return WdPair(
        wd_ip=wd_ip,
        wd_tp=wd_tp,
        wd_it=wd_it,
        nwd_ip=wd_ip / wd_it,
        nwd_tp=wd_tp / wd_it,
    )


def classify(pair: WdPair, tol: float = DEFAULT_VERDICT_TOL) -> Verdict:
    """The verdict band of a normalized pair.

    Bands around the two landmark points (0, 1) and (1, 0) have
    half-width ``tol``; anything beyond 1 + tol on the input axis is
    over-correction, everything else is partial harmonization. The
    bands are disjoint for any tol < 0.5.
    """
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tol must be in (0, 0.5), got {tol!r}")
    if pair.nwd_ip <= tol and abs(pair.nwd_tp - 1.0) <= tol:
        return Verdict.NO_HARMONIZATION
    if abs(pair.nwd_ip - 1.0) <= tol and pair.nwd_tp <= tol:
        return Verdict.PERFECT
    if pair.nwd_ip > 1.0 + tol:
        return Verdict.OVER_CORRECTED
    return Verdict.PARTIAL
