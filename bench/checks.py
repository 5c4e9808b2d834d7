"""Output checks, recomputed without the program's code.

Volumes are decoded by a minimal NIfTI-1 reader of this file, W1 comes
from ``scipy.stats.wasserstein_distance``, anatomy preservation from a
``np.bincount`` of each segmentation, and SSIM from box sums taken as
cumulative-sum differences. Every function appends a line per problem
to the list it is given, so one run reports every failed check.
"""
from __future__ import annotations

import csv
import gzip
import io
import math
import struct
from pathlib import Path

import numpy as np
from scipy.stats import wasserstein_distance

# W1 must agree with scipy to 1e-9 relative, or to 1e-9 of the joint
# input/target foreground range for distances near zero: the program
# itself treats distances below that as zero (NORMALIZER_EPS_FACTOR).
# Near zero the relative gap is large and grows with the sample count:
# wd_tp is ~1e-3 on phantom-full and ~1e-4 on dense-gtfree, and the
# program's cumulative 1/n weights put it ~1e-8 and ~1e-5 (relative) off
# scipy, which agrees with exact integer breakpoints to ~1e-13.
WD_REL = 1e-9
AP_ABS = 1e-12
# The test suite's oracle tolerances (tests/test_reference.py).
MAE_MSE_ABS = 1e-12
PSNR_ABS = 1e-9
SSIM_ABS = 1e-6
SSIM_WINDOW, SSIM_C1, SSIM_C2 = 7, 0.01 ** 2, 0.03 ** 2  # the CLI defaults

_DTYPES = {2: "u1", 4: "<i2", 8: "<i4", 16: "<f4", 64: "<f8"}


def read_nifti(path: Path) -> tuple[tuple[int, int, int], float, np.ndarray]:
    """(dims, voxel volume in mm^3, float64 voxels in x-fastest order)."""
    buf = path.read_bytes()
    if buf[:2] == b"\x1f\x8b":
        buf = gzip.decompress(buf)
    if struct.unpack_from("<i", buf, 0)[0] != 348:
        raise ValueError(f"{path}: not a little-endian NIfTI-1 file")
    dim = struct.unpack_from("<8h", buf, 40)
    datatype = struct.unpack_from("<h", buf, 70)[0]
    pixdim = struct.unpack_from("<8f", buf, 76)
    vox_offset, slope, inter = struct.unpack_from("<3f", buf, 108)
    dims = (dim[1], dim[2], dim[3])
    count = int(np.prod(dim[1 : dim[0] + 1]))
    values = np.frombuffer(buf, _DTYPES[datatype], count, int(vox_offset)).astype(np.float64)
    if slope != 0.0:
        values = values * slope + inter
    return dims, float(pixdim[1] * pixdim[2] * pixdim[3]), values


def read_results(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def read_manifest(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _close(got: float, want: float, *, rel: float = 0.0, abs_: float = 0.0) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= max(abs_, rel * abs(want))


def _box_mean(x: np.ndarray, w: int) -> np.ndarray:
    """Mean of every full w^3 window ('valid' mode) from cumulative sums."""
    for axis in range(3):
        c = np.cumsum(x, axis=axis)
        pad = [(0, 0)] * 3
        pad[axis] = (1, 0)
        c = np.pad(c, pad)
        n = c.shape[axis]
        x = np.take(c, range(w, n), axis=axis) - np.take(c, range(0, n - w), axis=axis)
    return x / float(w ** 3)


def reference_metrics(pred: np.ndarray, gt: np.ndarray, dims: tuple[int, int, int]) -> dict[str, float]:
    """MAE/MSE/PSNR/SSIM as the reference module defines them."""
    fg = (pred > 0) | (gt > 0)
    lo = min(pred[fg].min(), gt[fg].min())
    hi = max(pred[fg].max(), gt[fg].max())
    a = (pred - lo) / (hi - lo)
    b = (gt - lo) / (hi - lo)
    diff = a[fg] - b[fg]
    mae = float(np.mean(np.abs(diff)))
    mse = float(np.mean(diff * diff))
    psnr = math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)

    r = SSIM_WINDOW // 2
    valid = np.zeros(dims, dtype=bool)
    valid[r:-r, r:-r, r:-r] = True
    valid &= fg.reshape(dims, order="F")
    # Windows centred on valid voxels only read the box around them.
    idx = np.nonzero(valid)
    lo_c = [int(i.min()) for i in idx]
    hi_c = [int(i.max()) + 1 for i in idx]
    crop = tuple(slice(l - r, h + r) for l, h in zip(lo_c, hi_c))
    x = a.reshape(dims, order="F")[crop]
    y = b.reshape(dims, order="F")[crop]
    ux, uy = _box_mean(x, SSIM_WINDOW), _box_mean(y, SSIM_WINDOW)
    vx = _box_mean(x * x, SSIM_WINDOW) - ux * ux
    vy = _box_mean(y * y, SSIM_WINDOW) - uy * uy
    cov = _box_mean(x * y, SSIM_WINDOW) - ux * uy
    ssim_map = ((2 * ux * uy + SSIM_C1) * (2 * cov + SSIM_C2)) / (
        (ux * ux + uy * uy + SSIM_C1) * (vx + vy + SSIM_C2)
    )
    inner = valid[tuple(slice(l, h) for l, h in zip(lo_c, hi_c))]
    return {"mae": mae, "mse": mse, "psnr": psnr, "ssim": float(np.mean(ssim_map[inner]))}


def mean_ap(seg_in: Path, seg_pred: Path) -> float:
    """Unweighted mean volume preservation over the labels both share."""
    _, vox_in, labels_in = read_nifti(seg_in)
    _, vox_pr, labels_pr = read_nifti(seg_pred)
    counts_in = np.bincount(np.rint(labels_in).astype(np.int64))
    counts_pr = np.bincount(np.rint(labels_pr).astype(np.int64))
    shared = [
        k for k in range(1, min(counts_in.size, counts_pr.size))
        if counts_in[k] > 0 and counts_pr[k] > 0
    ]
    scores = []
    for k in shared:
        v_in, v_pr = counts_in[k] * vox_in, counts_pr[k] * vox_pr
        scores.append(1.0 - abs(v_pr - v_in) / v_in)
    return sum(scores) / len(scores)


def check_evaluation(manifest: Path, results: Path, problems: list[str]) -> tuple[int, dict]:
    """Check every row of an ``evaluate --out`` file.

    Returns the number of rows not ok and, per W1 column, the largest
    disagreement with scipy relative to scipy's value.
    """
    base = manifest.parent
    want_rows = read_manifest(manifest)
    rows = read_results(results)
    if [r["id"] for r in rows] != [r["id"] for r in want_rows]:
        problems.append(f"{results.name}: row ids are not the manifest's, in its order")
        return len(want_rows), {}
    failed, worst = 0, {}
    for spec, row in zip(want_rows, rows):
        where = f"{results.name} {row['id']}"
        if row["status"] != "ok":
            problems.append(f"{where}: status {row['status']!r}")
            failed += 1
            continue
        dims, _, v_in = read_nifti(base / spec["input_path"])
        _, _, v_tg = read_nifti(base / spec["target_path"])
        _, _, v_pr = read_nifti(base / spec["pred_path"])
        # sorted once here, so scipy's own sorts are cheap; W1 ignores order
        fg_in, fg_tg, fg_pr = (np.sort(v[v > 0]) for v in (v_in, v_tg, v_pr))
        wd_it = wasserstein_distance(fg_in, fg_tg)
        floor = WD_REL * (max(fg_in[-1], fg_tg[-1]) - min(fg_in[0], fg_tg[0]))
        want = {
            "wd_it": (wd_it, floor),
            "wd_ip": (wasserstein_distance(fg_in, fg_pr), floor),
            "wd_tp": (wasserstein_distance(fg_tg, fg_pr), floor),
        }
        for key in ("ip", "tp"):
            want[f"nwd_{key}"] = (want[f"wd_{key}"][0] / wd_it, floor / wd_it)
        for key, (value, abs_) in want.items():
            got = float(row[key])
            worst[key] = max(worst.get(key, 0.0), abs(got - value) / value)
            if not _close(got, value, rel=WD_REL, abs_=abs_):
                problems.append(f"{where}: {key} {row[key]} != {value!r}")

        if spec.get("seg_input_path"):
            ap = mean_ap(base / spec["seg_input_path"], base / spec["seg_pred_path"])
            if not _close(float(row["ap"]), ap, abs_=AP_ABS):
                problems.append(f"{where}: ap {row['ap']} != {ap!r}")

        if spec.get("gt_path"):
            _, _, v_gt = read_nifti(base / spec["gt_path"])
            ref = reference_metrics(v_pr, v_gt, dims)
            tolerances = {"mae": MAE_MSE_ABS, "mse": MAE_MSE_ABS, "psnr": PSNR_ABS, "ssim": SSIM_ABS}
            for key, tol in tolerances.items():
                if not _close(float(row[key]), ref[key], abs_=tol):
                    problems.append(f"{where}: {key} {row[key]} != {ref[key]!r}")
    return failed, worst


def check_same_results(first: Path, other: Path, problems: list[str]) -> None:
    """Byte-identity of two results files but for the ``# workers:`` line.

    That line is the one known difference: the worker count is written
    into the metadata although it changes no value.
    """
    def body(path: Path) -> list[bytes]:
        return [ln for ln in path.read_bytes().split(b"\n") if not ln.startswith(b"# workers:")]

    if body(first) != body(other):
        problems.append(f"{other.name} differs from {first.name} beyond the '# workers:' line")


def check_synth_dataset(out_dir: Path, records: int, edge: int, problems: list[str]) -> list[str]:
    """Structure of one ``harmbench synth`` output; returns its volume names."""
    rows = read_manifest(out_dir / "manifest.csv")
    if len(rows) != records:
        problems.append(f"{out_dir.name}: {len(rows)} manifest rows, want {records}")
    # Every input and gt is drawn on the segmented geometry, and quantile
    # matching keeps the input's background, so all three share its foreground.
    anatomy = read_nifti(out_dir / "seg.nii.gz")[2] > 0
    for row in rows:
        for key in ("input_path", "target_path", "pred_path", "gt_path"):
            dims, _, values = read_nifti(out_dir / row[key])
            if dims != (edge,) * 3 or not np.isfinite(values).all():
                problems.append(f"{out_dir.name} {row[key]}: dims {dims} or non-finite voxels")
            elif key != "target_path" and not np.array_equal(values > 0, anatomy):
                problems.append(f"{out_dir.name} {row[key]}: foreground is not the segmentation's")
    return ["seg.nii.gz"] + [row[key] for row in rows
                             for key in ("input_path", "target_path", "pred_path", "gt_path")]


def check_same_voxels(first: Path, other: Path, names: list[str], problems: list[str]) -> None:
    """Two synth outputs of one seed must decode to identical voxels."""
    if (first / "manifest.csv").read_bytes() != (other / "manifest.csv").read_bytes():
        problems.append(f"{other.name}: manifest differs from {first.name}")
    for name in names:
        if not np.array_equal(read_nifti(first / name)[2], read_nifti(other / name)[2]):
            problems.append(f"{other.name}/{name}: voxels differ from {first.name}")
