"""Independent brute-force oracles used by the test suite.

Everything here deliberately takes the slow, obvious route (explicit
loops, permutation enumeration, value-axis CDF integration) so that a
bug in the library cannot hide in a shared code path.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import numpy as np

from harmbench.nifti import write_volume
from harmbench.synth import (
    PhantomSpec,
    _site_name,
    _site_transform,
    _structures,
    generate_phantom,
    histogram_match,
)
from harmbench.volume import VoxelGrid


@lru_cache(maxsize=16)
def _all_perms(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=np.intp)


def wd_matching(a, b) -> float:
    """W1 between equal-size uniform multisets via exhaustive min-cost
    perfect matching over all n! pairings, divided by n."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.size == b.size
    perms = _all_perms(a.size)
    costs = np.abs(a[np.newaxis, :] - b[perms]).sum(axis=1)
    return float(costs.min()) / a.size


def wd_cdf_integral(a_values, a_weights, b_values, b_weights, subdiv: int = 8) -> float:
    """W1 as the value-axis integral of |F_a(x) - F_b(x)|.

    Both CDFs are step functions, so integrating over segments between
    merged support points is exact; each segment is additionally cut
    into ``subdiv`` slices and evaluated at slice midpoints.
    """
    av = np.asarray(a_values, dtype=np.float64)
    bv = np.asarray(b_values, dtype=np.float64)
    aw = np.asarray(a_weights, dtype=np.float64)
    bw = np.asarray(b_weights, dtype=np.float64)
    order_a = np.argsort(av, kind="stable")
    order_b = np.argsort(bv, kind="stable")
    av, aw = av[order_a], aw[order_a]
    bv, bw = bv[order_b], bw[order_b]
    ca = np.cumsum(aw)
    cb = np.cumsum(bw)

    def cdf(sorted_vals, cum, x):
        idx = np.searchsorted(sorted_vals, x, side="right")
        return 0.0 if idx == 0 else float(cum[idx - 1])

    points = np.unique(np.concatenate([av, bv]))
    total = 0.0
    for left, right in zip(points[:-1], points[1:]):
        step = (right - left) / subdiv
        for s in range(subdiv):
            mid = left + (s + 0.5) * step
            total += abs(cdf(av, ca, mid) - cdf(bv, cb, mid)) * step
    return total


def _ones(d) -> np.ndarray:
    """An explicit int64 count of one for each sample of ``d``."""
    return np.ones(d.n, dtype=np.int64)


def wd_breakpoints_searchsorted(a, b) -> float:
    """W1 from the merged integer quantile breakpoints, each segment's
    quantiles found by binary search into either side's breakpoints.

    ``a`` and ``b`` have sorted ``values``, each sample a count of one.
    The library sums the same segments one side at a time instead, so
    the two agree bit for bit wherever every partial sum is exact, as on
    small integer values.
    """
    ca = np.cumsum(_ones(a))
    cb = np.cumsum(_ones(b))
    n_a, n_b = int(ca[-1]), int(cb[-1])
    qa, qb = ca * n_b, cb * n_a
    q = np.sort(np.concatenate([qa, qb]), kind="stable")
    widths = np.diff(q, prepend=0)
    ia = np.searchsorted(qa, q, side="left")
    ib = np.searchsorted(qb, q, side="left")
    return float(np.dot(widths, np.abs(a.values[ia] - b.values[ib]))) / (n_a * n_b)


def wd_breakpoints_fraction(a, b) -> Fraction:
    """The merged breakpoint sum of :func:`wd_breakpoints_searchsorted`
    evaluated in exact rationals: Python-int widths, gaps between the
    exact values of the float64 support points, one exact division."""
    ca = np.cumsum(_ones(a)).tolist()
    cb = np.cumsum(_ones(b)).tolist()
    n_a, n_b = ca[-1], cb[-1]
    qa, qb = [k * n_b for k in ca], [j * n_a for j in cb]
    total, prev = Fraction(0), 0
    for q in sorted(set(qa) | set(qb)):
        ia, ib = bisect_left(qa, q), bisect_left(qb, q)
        gap = Fraction(float(a.values[ia])) - Fraction(float(b.values[ib]))
        total += (q - prev) * abs(gap)
        prev = q
    return total / (n_a * n_b)


def _two_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's error-free product: p + e == x·y exactly, with p = fl(x·y).

    Each factor is split by Veltkamp into two halves of at most 26
    significant bits, whose four partial products are exact; no operation
    is fused, since every numpy ufunc rounds on its own.
    """
    def split(v):
        c = v * 134217729.0  # 2**27 + 1
        hi = c - (c - v)
        return hi, v - hi

    p = x * y
    xh, xl = split(x)
    yh, yl = split(y)
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p, e


def wd_side_sums_fsum(a, b) -> tuple[float, float]:
    """The two per-side sums of the library's W1, each correctly rounded.

    Walks the merged integer breakpoints, as
    :func:`wd_breakpoints_searchsorted` does, with each gap rounded the
    way the library rounds it (one float subtraction). A segment ending
    at a breakpoint of `a` alone goes to `a`'s sum, of `b` alone to
    `b`'s, of both half to each. Every width·gap product is made exact
    by :func:`_two_product` and the sum of the exact terms is rounded
    once by ``math.fsum``. W1 is then the two sums over N_a·N_b.
    """
    ca = np.cumsum(_ones(a))
    cb = np.cumsum(_ones(b))
    n_a, n_b = int(ca[-1]), int(cb[-1])
    qa, qb = ca * n_b, cb * n_a
    q = np.union1d(qa, qb)
    ia = np.searchsorted(qa, q, side="left")
    ib = np.searchsorted(qb, q, side="left")
    widths = np.diff(q, prepend=0).astype(np.float64)  # exact below 2**53
    gaps = np.abs(a.values[ia] - b.values[ib])
    in_a = qa[np.minimum(ia, qa.size - 1)] == q
    in_b = qb[np.minimum(ib, qb.size - 1)] == q
    gaps[in_a & in_b] *= 0.5
    p, e = _two_product(widths, gaps)
    return math.fsum(np.concatenate((p[in_a], e[in_a]))), math.fsum(np.concatenate((p[in_b], e[in_b])))


def wd_full_length_side_sums(a, b) -> float:
    """The library's W1 with each side's terms made in full-length arrays
    and summed by one ``d.sum()``: the breakpoints, ranks, widths and
    gaps of a whole side at once, as the library made them before it
    worked one block at a time. It must give the same bits as the blocked
    sum, whose blocks are added along numpy's own pairwise tree.
    """
    n_a, n_b = a.n, b.n

    def side_sum(own, other, n_own, n_other):
        q = np.arange(1, n_own + 1, dtype=np.int64)
        q *= n_other
        s = q - 1
        s //= n_own
        d = other.values[s].astype(np.float64)  # widened before the gap, as the library does
        step = n_own // math.gcd(n_own, n_other)
        shared = slice(step - 1, None, step)
        s *= n_own
        np.maximum(s[1:], q[:-1], out=s[1:])
        q -= s
        d -= own.values
        np.abs(d, out=d)
        d[shared] *= 0.5
        d *= q
        return float(d.sum())

    return (side_sum(a, b, n_a, n_b) + side_sum(b, a, n_b, n_a)) / (n_a * n_b)


def mae_mse_direct(pred_flat, gt_flat, fg_flat) -> tuple[float, float]:
    """Two-pass loop over the union-foreground voxels (already normalized)."""
    abs_sum = 0.0
    sq_sum = 0.0
    count = 0
    for p, g, keep in zip(pred_flat, gt_flat, fg_flat):
        if keep:
            d = p - g
            abs_sum += abs(d)
            sq_sum += d * d
            count += 1
    return abs_sum / count, sq_sum / count


def ssim_per_window(x, y, valid_center, window: int, c1: float, c2: float) -> float:
    """Mean local SSIM by an explicit loop over every full window whose
    center is marked valid. Population (1/N) moments, uniform weights."""
    nx, ny, nz = x.shape
    r = window // 2
    total = 0.0
    count = 0
    for i in range(r, nx - r):
        for j in range(r, ny - r):
            for k in range(r, nz - r):
                if not valid_center[i, j, k]:
                    continue
                wx = x[i - r : i + r + 1, j - r : j + r + 1, k - r : k + r + 1]
                wy = y[i - r : i + r + 1, j - r : j + r + 1, k - r : k + r + 1]
                mx = wx.mean()
                my = wy.mean()
                vx = (wx * wx).mean() - mx * mx
                vy = (wy * wy).mean() - my * my
                cov = (wx * wy).mean() - mx * my
                total += ((2 * mx * my + c1) * (2 * cov + c2)) / (
                    (mx * mx + my * my + c1) * (vx + vy + c2)
                )
                count += 1
    assert count > 0
    return total / count


def average_ranks_positional(values) -> list[float]:
    """1-based average ranks from explicit sorted-position enumeration."""
    values = list(values)
    ordered = sorted(values)
    ranks = []
    for v in values:
        positions = [i + 1 for i, o in enumerate(ordered) if o == v]
        ranks.append(sum(positions) / len(positions))
    return ranks


def pearson_direct(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = (sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)) ** 0.5
    return num / den


def spearman_direct(x, y) -> float:
    """Rank correlation the long way: positional average ranks, then an
    explicit Pearson loop."""
    return pearson_direct(average_ranks_positional(x), average_ranks_positional(y))


def label_counts_direct(labels_flat) -> dict[int, int]:
    counts: dict[int, int] = {}
    for v in labels_flat:
        v = int(v)
        counts[v] = counts.get(v, 0) + 1
    return counts


def sphere_mask_full_grid(dims, center, radius) -> np.ndarray:
    """Flat x-fastest mask of the voxels with d² <= r², with d² computed
    over the whole grid and raveled in Fortran order."""
    nx, ny, nz = dims
    x = np.arange(nx, dtype=np.float64)[:, None, None]
    y = np.arange(ny, dtype=np.float64)[None, :, None]
    z = np.arange(nz, dtype=np.float64)[None, None, :]
    cx, cy, cz = center
    d2 = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
    return (d2 <= radius ** 2).ravel(order="F")


def synthetic_dataset_serial(out_dir, *, sites: int, n: int, seed: int, size: int):
    """``harmbench synth`` as one serial loop: every phantom rendered with
    labels, the segmentation phantom rendered again as record 0's input,
    labels written through a float64 copy, each volume written in turn."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dims = (size, size, size)
    structures, target_structures = _structures(dims), _structures(dims, radius_scale=1.06)
    _, seg = generate_phantom(PhantomSpec(dims, seed * 1_000_003, structures))
    write_volume(VoxelGrid(dims, seg.spacing, seg.labels.astype(np.float64)), out_dir / "seg.nii.gz")
    rows = []
    for k in range(n):
        site_in, site_out = k % sites, (k % sites + 1) % sites
        t_in, t_out = _site_transform(site_in), _site_transform(site_out)
        anatomy = seed * 1_000_003 + 2 * k
        grid_in, _ = generate_phantom(PhantomSpec(dims, anatomy, structures, site_transform=t_in))
        grid_gt, _ = generate_phantom(PhantomSpec(dims, anatomy, structures, site_transform=t_out))
        grid_tg, _ = generate_phantom(
            PhantomSpec(dims, anatomy + 1, target_structures, site_transform=t_out)
        )
        grid_pr = histogram_match(grid_in, grid_tg)
        names = [f"{role}_{k:03d}.nii.gz" for role in ("input", "target", "pred", "gt")]
        for grid, name in zip((grid_in, grid_tg, grid_pr, grid_gt), names):
            write_volume(grid, out_dir / name)
        rows.append([f"triplet-{k:03d}", *names, "seg.nii.gz", "seg.nii.gz",
                     _site_name(site_in), _site_name(site_out), ""])
    with open(out_dir / "manifest.csv", "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["id", "input_path", "target_path", "pred_path", "gt_path",
                         "seg_input_path", "seg_pred_path", "site_in", "site_out", "channel"])
        writer.writerows(rows)
