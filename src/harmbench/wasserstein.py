"""Exact 1-D Wasserstein distance and the normalized harmonization pair.

The order-1 distance between two empirical distributions is the
integral of the absolute difference of their quantile functions. It is
computed from exact integer quantile breakpoints: the cumulative counts
k/N_a and j/N_b scaled by N_a·N_b, that is k·N_b and j·N_a. Between
consecutive breakpoints of either side both quantile functions are
constant, so the distance is a finite sum of segment width times
quantile gap.

Every segment ends at a breakpoint of `a`, of `b`, or of both, so the
sum is taken one side at a time, over that side's own breakpoints and
without merging the two. For a breakpoint q of one side, the number of
levels j·N_own of the other side strictly below it is
s = (q − 1) // N_own, with N_own the total of the breakpoint's own side.
With all-ones counts every level is a breakpoint and s is the rank into
the other side; otherwise the rank is the number of the other side's
cumulative counts that are at most s. The segment ending at q starts at
the later of the previous own breakpoint and the other side's last
breakpoint below q, and on it the two quantiles are the own value at q
and the other side's value at that rank.

A segment that ends where both sides have a breakpoint is found from
both sides, with the same width and the same gap, and each side counts
half of it. With all-ones counts these are every N_own/gcd(N_a, N_b)-th
breakpoint. Each side's sum is then a function of the pair alone, not
of the argument order, so W(a, b) and W(b, a) add the same two floats
and are exactly equal. When the two distributions are equal every
segment of positive width has a zero gap, so the distance is exactly
zero. The result is the exact breakpoint sum up to the rounding of the
gaps, the width·gap products, the two sums and the final division. Each
side is summed by numpy's pairwise reduction, whose order is fixed by the
length alone and which runs on one thread: the result does not depend on
the thread count, and measures about 1 ulp off on 1.5·10⁶ samples. The
terms are made one block of breakpoints at a time and the block sums
added along numpy's own halving tree, so a distance holds a few
block-sized arrays at any sample count and its sum is, bit for bit, one
pairwise sum over each side's terms.

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
    docstring), where N_a and N_b are the totals each distribution summed
    once when it was made. The int64 breakpoints need N_a·N_b < 2**63
    (about 3·10⁹ samples each); larger totals raise ``ValueError``.
    """
    n_a, n_b = a.total, b.total
    if n_a * n_b >= 2**63:
        raise ValueError(
            f"wasserstein_1d needs N_a·N_b < 2**63 for its int64 breakpoints, "
            f"got N_a={n_a}, N_b={n_b}"
        )
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

    A total equal to the number of support points means all-ones counts.
    ``extract_foreground`` always gives all-ones counts, so only a counted
    distribution handed to the public API reaches the general-count
    branch (the ``searchsorted`` one). The level s is at most N_other − 1
    because q ≤ N_own·N_other, so the gather needs no clipping.

    The terms are made and summed one block of `own`'s breakpoints at a
    time (`_pairwise`), so a side holds a few block-sized arrays and, with
    counts on the other side, that side's cumulative counts; never an
    array of `own`'s length. The running count of `own` is carried from
    one block to the next, and a block's levels are searched only in the
    part of `other`'s cumulative counts that its first and last level
    bound. The gaps are scaled by the widths in place and summed pairwise
    rather than by a BLAS dot product, whose threads would busy-wait on
    other cores and whose partial sums would add up in an order that
    depends on the thread count.
    """
    n_own, n_other = own.total, other.total
    own_unit = own.n == n_own
    if other.n == n_other:
        bounds = None
    else:  # other's cumulative counts, after a leading 0
        bounds = np.zeros(other.n + 1, dtype=np.int64)
        np.cumsum(other.counts, out=bounds[1:])
    step = n_own // math.gcd(n_own, n_other)  # with all-ones counts, every step-th is shared
    seen = 0  # own's count before the block

    def block(lo: int, hi: int) -> float:
        nonlocal seen
        if own_unit:
            q = np.arange(seen + 1, seen + 1 + hi - lo, dtype=np.int64)
        else:
            q = np.cumsum(own.counts[lo:hi])
            q += seen
        prev = seen * n_other  # the previous own breakpoint, 0 if none
        seen = int(q[-1])
        q *= n_other  # own breakpoints on the common scale N_own·N_other
        s = q - 1
        s //= n_own  # levels of `other` strictly below each breakpoint
        if bounds is None:  # every level is a breakpoint: s is the rank
            d = other.values[s]
            if own_unit:
                shared = slice((step - 1 - lo) % step, None, step)
            else:
                shared = q % n_own == 0
        else:
            cum = bounds[1:]
            first, last = np.searchsorted(cum, (s[0], s[-1]), "right")
            rank = np.searchsorted(cum[first:last], s, "right")
            rank += first
            d = other.values[rank]
            shared = cum[rank] * n_own == q
            s = bounds[rank]  # the level of the last breakpoint below
            del rank
        s *= n_own  # the other side's last breakpoint below, 0 if none
        s[0] = max(int(s[0]), prev)  # or the previous own one, if later
        np.maximum(s[1:], q[:-1], out=s[1:])
        q -= s  # widths, all positive
        del s
        d -= own.values[lo:hi]
        np.abs(d, out=d)
        d[shared] *= 0.5
        d *= q
        return float(d.sum())

    return _pairwise(block, 0, own.n)


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


@dataclass(frozen=True)
class HarmonizationVerdict:
    kind: Verdict
    tolerance: float


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


def classify(pair: WdPair, tol: float = DEFAULT_VERDICT_TOL) -> HarmonizationVerdict:
    """Band classification of a normalized pair.

    Bands around the two landmark points (0, 1) and (1, 0) have
    half-width ``tol``; anything beyond 1 + tol on the input axis is
    over-correction, everything else is partial harmonization. The
    bands are disjoint for any tol < 0.5.
    """
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tol must be in (0, 0.5), got {tol!r}")
    if pair.nwd_ip <= tol and abs(pair.nwd_tp - 1.0) <= tol:
        kind = Verdict.NO_HARMONIZATION
    elif abs(pair.nwd_ip - 1.0) <= tol and pair.nwd_tp <= tol:
        kind = Verdict.PERFECT
    elif pair.nwd_ip > 1.0 + tol:
        kind = Verdict.OVER_CORRECTED
    else:
        kind = Verdict.PARTIAL
    return HarmonizationVerdict(kind=kind, tolerance=tol)
