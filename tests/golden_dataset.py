"""The dataset behind the golden results files in ``tests/golden/``.

``harmbench synth --sites 3 --n 4 --size 128 --seed 7`` plus rows built
byte by byte with ``nifti_fixtures``: an int16 input and prediction, a
big-endian gzipped input, two channels of one 4-D volume, and a plain
``.nii`` prediction with a bad magic, whose status the golden bytes keep.

``golden_outputs`` evaluates the dataset from its own directory with the
relative manifest path, so no absolute path enters a status, and returns
the bytes of ``results.csv`` and of ``report --format csv``. Run this
file to rewrite the golden files from the program as it stands:

    PYTHONPATH=src python tests/golden_dataset.py
"""
from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np

from harmbench.cli import run
from nifti_fixtures import build_nifti

GOLDEN = Path(__file__).parent / "golden"

_EDGE = 16
_EXTRA_ROWS = (
    "int16,int16_in.nii,float_tg.nii,int16_pr.nii,,,,A,C,",
    "big-endian,be_in.nii.gz,float_tg.nii,float_pr.nii,,,,B,A,",
    "four-d,four_d_in.nii,four_d_tg.nii,four_d_pr.nii,,,,C,B,0",
    "four-d,four_d_in.nii,four_d_tg.nii,four_d_pr.nii,,,,C,B,1",
    "bad-magic,float_tg.nii,int16_in.nii,bad_magic_pr.nii,,,,A,C,",
)


def _voxels(rng, low: float, high: float, shape=(_EDGE,) * 3) -> np.ndarray:
    """A quarter of the voxels background zero, the rest uniform in [low, high)."""
    values = rng.uniform(low, high, shape)
    values.reshape(-1)[: values.size // 4] = 0.0
    return values


def _run(argv: list[str]) -> bytes:
    """What ``harmbench`` prints to stdout for ``argv``; raises if it fails."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout):
        code = run(argv)
    if code:
        raise RuntimeError(f"harmbench {argv[0]} exited {code}")
    stdout.flush()
    return stdout.buffer.getvalue()


def build_dataset(out: Path) -> None:
    """Write the dataset into ``out``, which must not exist yet."""
    _run(["synth", "--out", str(out), "--sites", "3", "--n", "4", "--size", "128", "--seed", "7"])
    rng = np.random.default_rng(7)
    int16_in = np.rint(_voxels(rng, 20, 900))
    files = {
        "int16_in.nii": build_nifti(int16_in, datatype=4),
        "int16_pr.nii": build_nifti(np.rint(int16_in * 1.5), datatype=4),
        "float_tg.nii": build_nifti(_voxels(rng, 100, 2000)),
        "float_pr.nii": build_nifti(_voxels(rng, 90, 1800)),
        "be_in.nii.gz": build_nifti(_voxels(rng, 5, 60), byte_order=">", gzipped=True),
        "bad_magic_pr.nii": build_nifti(_voxels(rng, 1, 2), magic=b"nx1\x00"),
    }
    for name, (low, high) in (("in", (1, 50)), ("tg", (30, 300)), ("pr", (25, 280))):
        four_d = _voxels(rng, low, high, (_EDGE,) * 3 + (2,))
        files[f"four_d_{name}.nii"] = build_nifti(four_d, dim=(4, _EDGE, _EDGE, _EDGE, 2))
    for name, blob in files.items():
        (out / name).write_bytes(blob)
    with open(out / "manifest.csv", "a", encoding="utf-8") as manifest:
        manifest.write("\n".join(_EXTRA_ROWS) + "\n")


def golden_outputs(dataset: Path, workers: int) -> tuple[bytes, bytes]:
    """(results.csv, report --format csv) of ``dataset`` at ``workers``."""
    cwd = os.getcwd()
    os.chdir(dataset)
    try:
        _run(["evaluate", "--manifest", "manifest.csv", "--out", "results.csv",
              "--workers", str(workers)])
        report = _run(["report", "--in", "results.csv", "--format", "csv"])
        return Path("results.csv").read_bytes(), report
    finally:
        os.chdir(cwd)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        dataset = Path(tmp) / "dataset"
        build_dataset(dataset)
        results, report = golden_outputs(dataset, workers=1)
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "results.csv").write_bytes(results)
    (GOLDEN / "report.csv").write_bytes(report)
    print(f"wrote {GOLDEN / 'results.csv'} and {GOLDEN / 'report.csv'}")


if __name__ == "__main__":
    main()
