"""Exact 1-D Wasserstein distance and the normalized harmonization pair.

The order-1 distance between two empirical distributions is the
integral of the absolute difference of their quantile functions. It is
computed from exact integer quantile breakpoints: the cumulative counts
k/N_a and j/N_b scaled by N_a·N_b, that is k·N_b and j·N_a. Merging
them gives segments of constant integrand, so the distance is a finite
sum, exact up to the rounding of one dot product, symmetric by
construction, and exactly zero when the two distributions are equal.

The stable merge order also gives the quantile each segment reads from
either side: the number of breakpoints of `a` ahead of a merged position
is the index into `a`, and the rest are the index into `b`. Where a
breakpoint of `a` ties one of `b`, these counts run one ahead of the
strict "breakpoints below" count, but only on the second of the tied
pair, whose segment has zero width. So every term of the dot product is
the same as with a binary search into either side, and so is the sum.

The normalized pair divides the prediction's distance to the input and
to the target by the input-to-target distance, which anchors the scale:
a prediction equal to the input scores (0, 1), one equal to the target
scores (1, 0), and moving past the target pushes the first coordinate
above 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distribution import EmpiricalDistribution, _total
from .errors import DegenerateNormalizer

DEFAULT_VERDICT_TOL = 0.05
NORMALIZER_EPS_FACTOR = 1e-9  # times the joint input/target intensity range


def wasserstein_1d(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Order-1 Wasserstein distance between two empirical distributions.

    The int64 breakpoints need N_a·N_b < 2**63 (about 3·10⁹ samples
    each); larger totals raise ``ValueError``. The gather indices come
    from the stable merge order of the breakpoints, which is the same as
    searching each breakpoint in both sides except on zero-width
    segments (see the module docstring). The last breakpoint of both
    sides is N_a·N_b, and stability puts `a`'s first, so only `a`'s
    index runs past the end, on the final zero-width segment. Each step
    runs in place and each temporary is dropped once used, so at most
    four arrays of the merged length are alive at once.
    """
    n_a, n_b = _total(a.counts), _total(b.counts)
    if n_a * n_b >= 2**63:
        raise ValueError(
            f"wasserstein_1d needs N_a·N_b < 2**63 for its int64 breakpoints, "
            f"got N_a={n_a}, N_b={n_b}"
        )
    qa = np.cumsum(a.counts)
    qa *= n_b  # integer breakpoints on the common scale N_a·N_b
    qb = np.cumsum(b.counts)
    qb *= n_a
    q = np.concatenate([qa, qb])
    del qa, qb
    order = np.argsort(q, kind="stable")  # merges two sorted runs
    widths = q[order]
    del q
    widths[1:] -= widths[:-1]  # numpy buffers the overlap: diff with prepend=0
    from_a = order < a.n
    del order
    ia = np.cumsum(from_a)
    ia -= from_a  # breakpoints of `a` strictly ahead of each merged position
    del from_a
    ib = np.arange(ia.size)
    ib -= ia
    np.minimum(ia, a.n - 1, out=ia)
    d = a.values[ia]
    del ia
    d -= b.values[ib]
    del ib
    np.abs(d, out=d)
    return float(np.dot(widths, d)) / (n_a * n_b)


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
