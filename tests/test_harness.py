"""Manifest ingestion, batch evaluation, summaries, and reports."""
import gc
import itertools
import json
import math
import os
import shutil
import sys
import threading
import time
import types
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from harmbench.errors import (
    DegenerateNormalizer,
    DuplicateId,
    MissingColumn,
    NoSuccessfulRows,
    UnreadableFile,
    UnsupportedFormat,
)
from harmbench import harness
from harmbench.cli import run
from harmbench.distribution import ForegroundPolicy
from harmbench.harness import (
    EvalConfig,
    EvaluationRow,
    emit_report,
    evaluate_all,
    format_mean_std,
    load_manifest,
    parse_report_json,
    read_results,
    row_cells,
    rows_to_csv_bytes,
    series_from_rows,
    summarize,
    write_rows_csv,
)
from harmbench.nifti import load_volume, write_volume
from harmbench.reference import PairedMetricRow
from harmbench.volume import VoxelGrid
from harmbench.wasserstein import Verdict, WdPair

from golden_dataset import GOLDEN, build_dataset, golden_outputs
from nifti_fixtures import build_nifti, corrupt_deflate

MANIFEST_HEADER = "id,input_path,target_path,pred_path,gt_path,seg_input_path,seg_pred_path,site_in,site_out,channel"


def _write_grid(path, values, dims):
    write_volume(VoxelGrid(dims, (1, 1, 1), values), path)


@pytest.fixture()
def tiny_dataset(tmp_path):
    """Two volumes per site; prediction equals the input (no harmonization)."""
    rng = np.random.default_rng(1)
    dims = (8, 8, 8)
    n = 8 ** 3
    values_a = np.concatenate([np.zeros(n // 4), rng.uniform(1, 5, 3 * n // 4)])
    values_b = np.concatenate([np.zeros(n // 4), rng.uniform(6, 12, 3 * n // 4)])
    labels = np.zeros(n)
    labels[: n // 2] = 1.0
    _write_grid(tmp_path / "a.nii", values_a, dims)
    _write_grid(tmp_path / "b.nii", values_b, dims)
    _write_grid(tmp_path / "seg.nii", labels, dims)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "t0,a.nii,b.nii,a.nii,a.nii,seg.nii,seg.nii,A,B,\n"
    )
    return tmp_path, manifest


def test_csv_manifest_single_row(tiny_dataset):
    base, manifest = tiny_dataset
    records = load_manifest(manifest)
    assert len(records) == 1
    rec = records[0]
    assert rec.id == "t0"
    assert rec.input_path == base / "a.nii"
    assert rec.gt_path == base / "a.nii"
    assert rec.channel is None
    assert rec.site_in == "A" and rec.site_out == "B"


def test_missing_required_column(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,input_path,target_path,site_in,site_out\nx,a,b,A,B\n")
    with pytest.raises(MissingColumn, match="pred_path"):
        load_manifest(manifest)


def test_empty_required_cell(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text(MANIFEST_HEADER + "\nx,a.nii,b.nii,,,,,A,B,\n")
    with pytest.raises(MissingColumn, match="pred_path"):
        load_manifest(manifest)


def test_duplicate_id_rejected(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "x,a.nii,b.nii,c.nii,,,,A,B,\n"
        "x,a.nii,b.nii,c.nii,,,,A,B,\n"
    )
    with pytest.raises(DuplicateId):
        load_manifest(manifest)


def test_same_id_different_channels_allowed(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "x,a.nii,b.nii,c.nii,,,,A,B,0\n"
        "x,a.nii,b.nii,c.nii,,,,A,B,1\n"
    )
    records = load_manifest(manifest)
    assert [r.channel for r in records] == [0, 1]


def test_json_manifest_and_group_sizes(tmp_path):
    items = [
        {"id": f"r{i}", "input_path": "a.nii", "target_path": "b.nii",
         "pred_path": "c.nii", "site_in": "A", "site_out": "B" if i < 2 else "C"}
        for i in range(3)
    ]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(items))
    records = load_manifest(manifest)
    assert len(records) == 3
    sizes = {}
    for r in records:
        sizes[r.site_out] = sizes.get(r.site_out, 0) + 1
    assert sizes == {"B": 2, "C": 1}


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_byte_order_mark_manifest_loads_like_plain(tmp_path, suffix):
    # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
    fields = {"id": "r0", "input_path": "a.nii", "target_path": "b.nii",
              "pred_path": "c.nii", "site_in": "A", "site_out": "B", "channel": "1"}
    if suffix == ".csv":
        text = ",".join(fields) + "\n" + ",".join(fields.values()) + "\n"
    else:
        text = json.dumps([fields])
    plain, bom = tmp_path / f"plain{suffix}", tmp_path / f"bom{suffix}"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    records = load_manifest(bom)
    assert records == load_manifest(plain)
    assert records[0].id == "r0" and records[0].channel == 1


def test_json_manifest_missing_field(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"id": "x", "input_path": "a"}]))
    with pytest.raises(MissingColumn):
        load_manifest(manifest)


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_half_segmentation_pair_rejects_the_manifest(tmp_path, monkeypatch, capsys, suffix):
    rows = [
        {"id": "r0", "input_path": "in.nii", "target_path": "tg.nii", "pred_path": "pr.nii",
         "site_in": "A", "site_out": "B"},
        {"id": "r1", "input_path": "in.nii", "target_path": "tg.nii", "pred_path": "pr.nii",
         "seg_input_path": "seg.nii", "site_in": "A", "site_out": "B"},
    ]
    manifest = tmp_path / f"m{suffix}"
    if suffix == ".csv":
        manifest.write_text(MANIFEST_HEADER + "\n" + "".join(
            ",".join(row.get(c, "") for c in MANIFEST_HEADER.split(",")) + "\n" for row in rows
        ))
    else:
        manifest.write_text(json.dumps(rows))
    with pytest.raises(MissingColumn, match=r"record 1: seg_input_path and seg_pred_path"):
        load_manifest(manifest)

    # none of the named volumes exists: a run that read any would fail its rows instead
    loads = []
    monkeypatch.setattr(harness, "load_volume", lambda path: loads.append(path))
    out = tmp_path / "results.csv"
    assert run(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"error: MissingColumn: {manifest}: record 1: seg_input_path and seg_pred_path must both be set or both empty"
    ]
    assert not loads and not out.exists()


@pytest.mark.parametrize("name, text", [("m.csv", MANIFEST_HEADER + "\n"), ("m.json", "[]"), ("m.csv", "")])
def test_manifest_without_rows_is_a_manifest_error(tmp_path, capsys, name, text):
    manifest = tmp_path / name
    manifest.write_text(text)
    with pytest.raises(MissingColumn, match="manifest is empty"):
        load_manifest(manifest)

    out = tmp_path / "results.csv"
    assert run(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: MissingColumn: {manifest}: manifest is empty"]
    assert not out.exists()


@pytest.mark.parametrize("channel", ["-1", "x", "1.5"])
def test_bad_channel_rejects_the_manifest(tmp_path, monkeypatch, capsys, channel):
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "r0,in.nii,tg.nii,pr.nii,,,,A,B,0\n"
        f"r0,in.nii,tg.nii,pr.nii,,,,A,B,{channel}\n"
    )
    with pytest.raises(UnreadableFile, match=rf"record 1: channel must be a non-negative integer, got '{channel}'"):
        load_manifest(manifest)

    # none of the named volumes exists: a run that read any would fail its rows instead
    loads = []
    monkeypatch.setattr(harness, "load_volume", lambda path: loads.append(path))
    out = tmp_path / "results.csv"
    assert run(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"error: UnreadableFile: {manifest}: record 1: channel must be a non-negative integer, got '{channel}'"
    ]
    assert not loads and not out.exists()


def test_unreadable_manifest(tmp_path):
    with pytest.raises(UnreadableFile):
        load_manifest(tmp_path / "nope.csv")
    bad = tmp_path / "bad.json"
    bad.write_text("[{broken")
    with pytest.raises(UnreadableFile):
        load_manifest(bad)


# --------------------------------------------------------------- evaluation


def test_identity_prediction_row(tiny_dataset):
    _, manifest = tiny_dataset
    rows = evaluate_all(load_manifest(manifest), EvalConfig())
    (row,) = rows
    assert row.ok
    assert row.wd.nwd_ip == 0.0
    assert row.wd.nwd_tp == 1.0
    assert row.verdict is Verdict.NO_HARMONIZATION
    # gt == pred here, so the reference block is the perfect-match row
    assert row.reference.mae == 0.0
    assert row.reference.ssim == 1.0
    assert math.isinf(row.reference.psnr_db)
    # seg_input == seg_pred, so anatomy is perfectly preserved
    assert row.ap.mean_ap == 1.0


def test_failure_is_contained_per_row(tiny_dataset):
    base, manifest = tiny_dataset
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "good,a.nii,b.nii,a.nii,,,,A,B,\n"
        "bad,missing.nii,b.nii,a.nii,,,,A,B,\n"
    )
    rows = evaluate_all(load_manifest(manifest), EvalConfig())
    assert rows[0].ok
    assert not rows[1].ok
    assert "bad" == rows[1].id
    assert "error" in rows[1].status


def test_isolation_failed_row_does_not_change_good_rows(tiny_dataset):
    base, manifest = tiny_dataset
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "good,a.nii,b.nii,a.nii,,,,A,B,\n"
    )
    clean = evaluate_all(load_manifest(manifest), EvalConfig())
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "good,a.nii,b.nii,a.nii,,,,A,B,\n"
        "bad,missing.nii,b.nii,a.nii,,,,A,B,\n"
    )
    mixed = evaluate_all(load_manifest(manifest), EvalConfig())
    assert row_cells(mixed[0]) == row_cells(clean[0])


def test_total_failure_returns_every_row_with_its_status(tiny_dataset):
    base, manifest = tiny_dataset
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "b1,m.nii,b.nii,a.nii,,,,A,B,\n"
        "b2,m.nii,b.nii,a.nii,,,,A,B,\n"
    )
    rows = evaluate_all(load_manifest(manifest), EvalConfig())
    status = f"error: FileNotFoundError: [Errno 2] No such file or directory: '{base / 'm.nii'}'"
    assert [(r.id, r.status) for r in rows] == [("b1", status), ("b2", status)]


def test_order_independence_of_values(tiny_dataset):
    base, manifest = tiny_dataset
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "r1,a.nii,b.nii,a.nii,,,,A,B,\n"
        "r2,b.nii,a.nii,b.nii,,,,B,A,\n"
    )
    fwd = evaluate_all(load_manifest(manifest), EvalConfig())
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "r2,b.nii,a.nii,b.nii,,,,B,A,\n"
        "r1,a.nii,b.nii,a.nii,,,,A,B,\n"
    )
    rev = evaluate_all(load_manifest(manifest), EvalConfig())
    assert [r.id for r in fwd] == ["r1", "r2"]
    assert [r.id for r in rev] == ["r2", "r1"]
    assert row_cells(fwd[0]) == row_cells(rev[1])
    assert row_cells(fwd[1]) == row_cells(rev[0])


def test_workers_do_not_change_values(tiny_dataset):
    base, manifest = tiny_dataset
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        + "".join(f"r{i},a.nii,b.nii,a.nii,,,,A,B,\n" for i in range(6))
    )
    records = load_manifest(manifest)
    serial = evaluate_all(records, EvalConfig(workers=1))
    threaded = evaluate_all(records, EvalConfig(workers=4))
    assert [r.id for r in serial] == [r.id for r in threaded]
    for a, b in zip(serial, threaded):
        assert row_cells(a) == row_cells(b)


def test_multichannel_rows_per_channel(tmp_path):
    rng = np.random.default_rng(2)
    dims = (6, 6, 6)
    n = 6 ** 3
    two = np.concatenate([rng.uniform(1, 5, n), rng.uniform(10, 20, n)])
    (tmp_path / "in.nii").write_bytes(build_nifti(two, dim=(4, *dims, 2)))
    (tmp_path / "tg.nii").write_bytes(build_nifti(two * 2.0, dim=(4, *dims, 2)))
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "x,in.nii,tg.nii,in.nii,,,,A,B,0\n"
        "x,in.nii,tg.nii,in.nii,,,,A,B,1\n"
    )
    rows = evaluate_all(load_manifest(manifest), EvalConfig())
    assert len(rows) == 2
    assert all(r.ok for r in rows)
    assert rows[0].wd.wd_it != rows[1].wd.wd_it  # channels really differ
    # without the channel column the same volume is a per-row error
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "x,in.nii,tg.nii,in.nii,,,,A,B,\n"
        "y,in.nii,tg.nii,in.nii,,,,A,B,1\n"
    )
    rows = evaluate_all(load_manifest(manifest), EvalConfig())
    assert [r.ok for r in rows] == [False, True]
    assert "channel" in rows[0].status


def _shared_seg_manifest(base, rows=4, own_segs=False):
    """``rows`` triplets that all name one segmentation, or per-row copies of it."""
    lines = [MANIFEST_HEADER]
    for i in range(rows):
        seg = "seg.nii"
        if own_segs:
            seg = f"seg_{i}.nii"
            shutil.copy(base / "seg.nii", base / seg)
        pred = "a.nii" if i % 2 else "b.nii"
        lines.append(f"r{i},a.nii,b.nii,{pred},,{seg},{seg},A,B,")
    manifest = base / ("own.csv" if own_segs else "shared.csv")
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


@pytest.mark.parametrize("workers", [1, 2])
def test_shared_seg_results_equal_per_row_copies(tiny_dataset, workers):
    base, _ = tiny_dataset
    config = EvalConfig(workers=workers)
    shared = evaluate_all(load_manifest(_shared_seg_manifest(base)), config)
    own = evaluate_all(load_manifest(_shared_seg_manifest(base, own_segs=True)), config)
    assert all(r.ok for r in shared)
    meta = config.to_meta()
    assert rows_to_csv_bytes(shared, meta) == rows_to_csv_bytes(own, meta)


def test_each_shared_file_read_and_converted_once(tiny_dataset, monkeypatch):
    base, _ = tiny_dataset
    loads, conversions = Counter(), Counter()
    load, convert = harness.load_volume, harness.as_label_volume

    def counted_load(path):
        loads[path.name] += 1
        return load(path)

    def counted_convert(grid):
        conversions[grid.dims] += 1
        return convert(grid)

    monkeypatch.setattr(harness, "load_volume", counted_load)
    monkeypatch.setattr(harness, "as_label_volume", counted_convert)
    records = load_manifest(_shared_seg_manifest(base, rows=16))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # many thread switches inside every read
    try:
        rows = evaluate_all(records, EvalConfig(workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert all(r.ok for r in rows)
    assert loads == {"a.nii": 1, "b.nii": 1, "seg.nii": 1}
    assert conversions == {(8, 8, 8): 1}


def test_corrupt_shared_seg_fails_every_row_naming_it_alike(tiny_dataset):
    base, _ = tiny_dataset
    (base / "bad_seg.nii").write_bytes(b"not a nifti file")
    (base / "m.csv").write_text(
        MANIFEST_HEADER + "\n"
        "r0,a.nii,b.nii,a.nii,,bad_seg.nii,seg.nii,A,B,\n"
        "r1,a.nii,b.nii,b.nii,,seg.nii,seg.nii,A,B,\n"
        "r2,a.nii,b.nii,a.nii,,seg.nii,bad_seg.nii,A,B,\n"
        "r3,a.nii,b.nii,b.nii,,bad_seg.nii,bad_seg.nii,A,B,\n"
    )
    for workers in (1, 3):
        rows = evaluate_all(load_manifest(base / "m.csv"), EvalConfig(workers=workers))
        assert [r.ok for r in rows] == [False, True, False, False]
        assert rows[0].status.startswith("error: ")
        assert "bad_seg.nii" in rows[0].status
        assert rows[2].status == rows[0].status == rows[3].status


def test_corrupt_gzip_pred_fails_only_its_row(tiny_dataset):
    base, _ = tiny_dataset
    write_volume(load_volume(base / "a.nii"), base / "a.nii.gz")
    (base / "bad.nii.gz").write_bytes(corrupt_deflate((base / "a.nii.gz").read_bytes()))
    (base / "m.csv").write_text(
        MANIFEST_HEADER + "\n"
        "r0,a.nii,b.nii,a.nii.gz,,,,A,B,\n"
        "r1,a.nii,b.nii,bad.nii.gz,,,,A,B,\n"
        "r2,a.nii,b.nii,b.nii,,,,A,B,\n"
    )
    # at one worker, r1's files are read ahead while r0 computes
    runs = [evaluate_all(load_manifest(base / "m.csv"), EvalConfig(workers=workers)) for workers in (1, 3)]
    for rows in runs:
        assert [r.ok for r in rows] == [True, False, True]
        assert rows[1].status.startswith("error: MalformedHeader: ")
        assert "bad.nii.gz" in rows[1].status
    assert [row_cells(r) for r in runs[0]] == [row_cells(r) for r in runs[1]]


def test_multichannel_file_read_once_for_all_channel_rows(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    dims, channels = (6, 6, 6), 3
    values = rng.uniform(1, 5, 6 ** 3 * channels)
    (tmp_path / "in.nii").write_bytes(build_nifti(values, dim=(4, *dims, channels)))
    (tmp_path / "tg.nii").write_bytes(build_nifti(values * 2, dim=(4, *dims, channels)))
    (tmp_path / "m.csv").write_text(
        MANIFEST_HEADER + "\n"
        + "".join(f"x,in.nii,tg.nii,in.nii,,,,A,B,{c}\n" for c in range(channels))
    )
    loads = Counter()
    load = harness.load_volume

    def counted_load(path):
        loads[path.name] += 1
        return load(path)

    monkeypatch.setattr(harness, "load_volume", counted_load)
    rows = evaluate_all(load_manifest(tmp_path / "m.csv"), EvalConfig(workers=2))
    assert all(r.ok for r in rows)
    assert len({r.wd.wd_it for r in rows}) == channels
    assert loads == {"in.nii": 1, "tg.nii": 1}



@pytest.mark.parametrize(
    "workers, gt", [(1, False), (3, False), (1, True), (3, True)], ids=["1", "3", "1-gt", "3-gt"]
)
def test_foregrounds_of_shared_files_are_extracted_once(tiny_dataset, monkeypatch, workers, gt):
    # one input and target pair, with a prediction per row, or with one
    # prediction and gt for every row: each file loads once, and each
    # foreground a row takes is extracted once, where its file decodes
    base, _ = tiny_dataset
    rows = 4
    preds = ["p0.nii"] * rows if gt else [f"p{i}.nii" for i in range(rows)]
    for i, pred in enumerate(dict.fromkeys(preds)):
        shutil.copy(base / ("a.nii" if i % 2 else "b.nii"), base / pred)
    shutil.copy(base / "a.nii", base / "g.nii")
    lines = [MANIFEST_HEADER] + [f"r{i},a.nii,b.nii,{pred},{'g.nii' if gt else ''},,,A,B," for i, pred in enumerate(preds)]
    (base / "m.csv").write_text("\n".join(lines) + "\n")
    loads = _counted_loads(monkeypatch)
    loaded, extractions = [], Counter()
    load, extract = harness.load_volume, harness.extract_foreground

    def noted_load(path):
        grid = load(path)
        loaded.append((grid, path.name))
        return grid

    def counted_extract(grid, policy):
        extractions[next(name for seen, name in loaded if seen is grid)] += 1
        return extract(grid, policy)

    monkeypatch.setattr(harness, "load_volume", noted_load)
    monkeypatch.setattr(harness, "extract_foreground", counted_extract)
    result = evaluate_all(load_manifest(base / "m.csv"), EvalConfig(workers=workers))
    assert all(r.ok for r in result) and all((r.reference is not None) == gt for r in result)
    files = ["a.nii", "b.nii", *dict.fromkeys(preds)]
    assert loads == {name: 1 for name in files + ["g.nii"] * gt}
    # the gt-only file's foreground is never made
    assert extractions == {name: 1 for name in files}


@pytest.mark.parametrize("workers", [1, 3])
def test_empty_foreground_of_a_shared_file_fails_only_the_rows_taking_it(tiny_dataset, monkeypatch, workers):
    # zero.nii is the gt of r0 and r2 and the input of r1: the gt metrics
    # read its grid, whatever its foreground
    base, _ = tiny_dataset
    _write_grid(base / "zero.nii", np.zeros(8 ** 3), (8, 8, 8))
    (base / "m.csv").write_text(
        MANIFEST_HEADER + "\n"
        "r0,a.nii,b.nii,a.nii,zero.nii,,,A,B,\n"
        "r1,zero.nii,b.nii,a.nii,,,,A,B,\n"
        "r2,b.nii,a.nii,b.nii,zero.nii,,,A,B,\n"
    )
    loads = _counted_loads(monkeypatch)
    rows = evaluate_all(load_manifest(base / "m.csv"), EvalConfig(workers=workers))
    assert [r.ok for r in rows] == [True, False, True]
    assert rows[0].reference is not None and rows[2].reference is not None
    assert rows[1].status.startswith("error: EmptyForeground: ")
    assert loads == {"a.nii": 1, "b.nii": 1, "zero.nii": 1}


def test_channel_past_a_one_channel_file_names_the_file_the_channel_and_the_count(tiny_dataset):
    base, _ = tiny_dataset
    (base / "m.csv").write_text(
        MANIFEST_HEADER + "\n"
        "x,a.nii,b.nii,a.nii,,,,A,B,0\n"
        "x,a.nii,b.nii,a.nii,,,,A,B,1\n"
    )
    rows = evaluate_all(load_manifest(base / "m.csv"), EvalConfig())
    assert rows[0].ok
    assert rows[1].status == f"error: ValueError: channel 1 out of range for 1-channel file {base / 'a.nii'}"


@pytest.mark.parametrize("workers", [1, 3])
def test_a_four_d_segmentation_fails_only_its_row_naming_the_file(tiny_dataset, workers):
    base, _ = tiny_dataset
    labels = load_volume(base / "seg.nii").values
    (base / "seg4.nii").write_bytes(build_nifti(np.concatenate([labels, labels]), dim=(4, 8, 8, 8, 2)))
    (base / "m.csv").write_text(
        MANIFEST_HEADER + "\n"
        "r0,a.nii,b.nii,a.nii,,seg.nii,seg4.nii,A,B,\n"
        "r1,a.nii,b.nii,a.nii,,seg.nii,seg.nii,A,B,\n"
    )
    rows = evaluate_all(load_manifest(base / "m.csv"), EvalConfig(workers=workers))
    # segmentation columns select no channel, so the status does not advise one
    assert rows[0].status == (
        f"error: ValueError: {base / 'seg4.nii'} has 2 channels; a segmentation or mask has one"
    )
    assert rows[1].ok and rows[1].ap is not None


def test_a_gt_on_another_spacing_fails_only_its_row(tiny_dataset):
    base, _ = tiny_dataset
    a = load_volume(base / "a.nii")
    write_volume(VoxelGrid(a.dims, (2, 2, 2), a.values), base / "a-2mm.nii")
    (base / "m.csv").write_text(
        MANIFEST_HEADER + "\n"
        "r0,a.nii,b.nii,a.nii,a-2mm.nii,,,A,B,\n"
        "r1,a.nii,b.nii,a.nii,a.nii,,,A,B,\n"
    )
    rows = evaluate_all(load_manifest(base / "m.csv"), EvalConfig())
    assert rows[0].status == (
        "error: DimsMismatch: pred (8, 8, 8) at (1.0, 1.0, 1.0) mm != gt (8, 8, 8) at (2.0, 2.0, 2.0) mm"
    )
    assert rows[1].ok and rows[1].reference.ssim == 1.0


def test_an_fg_mask_on_another_spacing_fails_only_the_rows_on_it(tiny_dataset):
    base, _ = tiny_dataset
    for name in ("a", "b"):
        grid = load_volume(base / f"{name}.nii")
        write_volume(VoxelGrid(grid.dims, (2, 2, 2), grid.values), base / f"{name}-2mm.nii")
    (base / "m.csv").write_text(
        MANIFEST_HEADER + "\n"
        "r0,a-2mm.nii,b-2mm.nii,a-2mm.nii,,,,A,B,\n"
        "r1,a.nii,b.nii,a.nii,,,,A,B,\n"
    )
    mask = harness._labels(base / "seg.nii")
    rows = evaluate_all(load_manifest(base / "m.csv"), EvalConfig(policy=ForegroundPolicy(mask=mask)))
    assert rows[0].status == (
        "error: DimsMismatch: mask (8, 8, 8) at (1.0, 1.0, 1.0) mm != grid (8, 8, 8) at (2.0, 2.0, 2.0) mm"
    )
    assert rows[1].ok


def test_bad_channel_of_a_shared_file_fails_only_its_row(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    dims, channels = (6, 6, 6), 3
    values = rng.uniform(1, 5, 6 ** 3 * channels)
    (tmp_path / "in.nii").write_bytes(build_nifti(values, dim=(4, *dims, channels)))
    (tmp_path / "tg.nii").write_bytes(build_nifti(values * 2, dim=(4, *dims, channels)))
    (tmp_path / "m.csv").write_text(
        MANIFEST_HEADER + "\n"
        + "".join(f"x,in.nii,tg.nii,in.nii,,,,A,B,{c}\n" for c in (0, 5, 1, 2))
    )
    loads = _counted_loads(monkeypatch)
    for workers in (1, 3):
        loads.clear()
        rows = evaluate_all(load_manifest(tmp_path / "m.csv"), EvalConfig(workers=workers))
        assert [r.ok for r in rows] == [True, False, True, True]
        assert rows[1].status == f"error: ValueError: channel 5 out of range for 3-channel file {tmp_path / 'in.nii'}"
        assert len({r.wd.wd_it for r in rows if r.ok}) == channels
        assert loads == {"in.nii": 1, "tg.nii": 1}


def _own_files_manifest(base, gt):
    """One row whose every column names its own copy of a tiny_dataset file."""
    for name, source in (("in", "a"), ("tg", "b"), ("pr", "a"), ("gt", "a")):
        shutil.copy(base / f"{source}.nii", base / f"{name}.nii")
    for name in ("seg_in", "seg_pr"):
        shutil.copy(base / "seg.nii", base / f"{name}.nii")
    manifest = base / "own.csv"
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        f"r0,in.nii,tg.nii,pr.nii,{'gt.nii' if gt else ''},seg_in.nii,seg_pr.nii,A,B,\n"
    )
    return manifest


@pytest.mark.parametrize("gt", [False, True])
def test_grids_are_dropped_before_w1(tiny_dataset, monkeypatch, gt):
    # the gt metrics run before W1, so no intensity grid is alive at W1, gt or not
    base, _ = tiny_dataset
    records = load_manifest(_own_files_manifest(base, gt))
    grids, alive = {}, []
    load, w1 = harness.load_volume, harness.nwd

    def tracked_load(path):
        grid = load(path)
        grids[path.name] = weakref.ref(grid)
        return grid

    def checked_nwd(*dists):
        alive.append({name for name, ref in grids.items() if ref() is not None})
        return w1(*dists)

    monkeypatch.setattr(harness, "load_volume", tracked_load)
    monkeypatch.setattr(harness, "nwd", checked_nwd)
    (row,) = evaluate_all(records, EvalConfig())
    assert row.ok and (row.reference is not None) == gt
    (at_w1,) = alive
    assert not at_w1 & {"in.nii", "tg.nii", "pr.nii", "gt.nii"}


def _own_files_rows(base, rows, same_input_target=()):
    """``rows`` rows with gt and segmentations, each column of row ``ri``
    naming its own copy ``ri_<column>.nii``; the rows listed in
    ``same_input_target`` name one file as input and target."""
    lines = [MANIFEST_HEADER]
    for i in range(rows):
        for name, source in (("in", "a"), ("tg", "b"), ("pr", "a"), ("gt", "a"), ("seg_in", "seg"), ("seg_pr", "seg")):
            shutil.copy(base / f"{source}.nii", base / f"r{i}_{name}.nii")
        target = "in" if i in same_input_target else "tg"
        lines.append(f"r{i},r{i}_in.nii,r{i}_{target}.nii,r{i}_pr.nii,r{i}_gt.nii,r{i}_seg_in.nii,r{i}_seg_pr.nii,A,B,")
    manifest = base / "rows.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


class _ReadAheadLog:
    """Patches the harness to log, in one list, each record's start and
    each file's load. At each load it notes the records not yet started
    that have decodes submitted, and the record whose thread loads the
    file (None on a decode thread); it also logs the products a decode
    thread takes up, made or not, in its order. Each record's W1 waits
    (bounded) for the input of each of the next ``workers`` records of
    the ``rows`` in the manifest to load, so no worker starts a record
    before its read-ahead loads are logged; record 0's W1 then notes the
    loads done so far."""

    def __init__(self, monkeypatch, workers, rows):
        self.events, self.loads_at_w1, self.ahead = [], None, []
        self.loaded_by, self.taken_up = [], []
        self._loaded, self._local = {}, threading.local()
        load, w1, evaluate = harness.load_volume, harness.nwd, harness._evaluate_record
        make = harness._SharedFiles._make

        def loaded(name):
            return self._loaded.setdefault(name, threading.Event())

        def logged_load(path):
            with self._files._lock:
                submitted = {os.path.basename(key[1]).split("_")[0] for key in self._files._made}
            self.ahead.append(submitted - {name for kind, name in self.events if kind == "start"})
            self.events.append(("load", path.name))
            self.loaded_by.append((path.name, getattr(self._local, "id", None)))
            grid = load(path)
            loaded(path.name).set()
            return grid

        def logged_make(files, key):
            if not hasattr(self._local, "id"):
                self.taken_up.append(os.path.basename(key[1]))
            return make(files, key)

        def logged_nwd(*dists):
            index = int(self._local.id[1:])
            for later in range(index + 1, min(index + workers + 1, rows)):
                loaded(f"r{later}_in.nii").wait(5)
            if self._local.id == "r0":
                self.loads_at_w1 = {name for kind, name in self.events if kind == "load"}
            return w1(*dists)

        def logged_evaluate(rec, config, files):
            self._files = files
            self.events.append(("start", rec.id))
            self._local.id = rec.id
            return evaluate(rec, config, files)

        monkeypatch.setattr(harness, "load_volume", logged_load)
        monkeypatch.setattr(harness, "nwd", logged_nwd)
        monkeypatch.setattr(harness, "_evaluate_record", logged_evaluate)
        monkeypatch.setattr(harness._SharedFiles, "_make", logged_make)

    def loads(self):
        return Counter(name for kind, name in self.events if kind == "load")

    def made_by_other_records(self):
        """The loads a record's thread made of another record's files."""
        return [(name, rec) for name, rec in self.loaded_by if rec is not None and not name.startswith(rec + "_")]


@pytest.mark.parametrize("workers", [1, 2])
def test_next_record_is_read_ahead_and_no_further(tiny_dataset, monkeypatch, workers):
    base, _ = tiny_dataset
    # four records, so that at two workers two records are still unstarted
    # while the first computes: reading two ahead would then show
    records = load_manifest(_own_files_rows(base, 4))
    log = _ReadAheadLog(monkeypatch, workers, len(records))
    rows = evaluate_all(records, EvalConfig(workers=workers))
    assert all(r.ok for r in rows)
    # record 1's files decode while record 0 computes, even on one thread
    assert "r1_in.nii" in log.loads_at_w1
    first_r2_load = min(i for i, (kind, name) in enumerate(log.events) if name.startswith("r2_"))
    assert log.events.index(("start", "r1")) < first_r2_load
    assert max(map(len, log.ahead)) == 1  # one record ahead at most
    assert set(log.loads().values()) == {1} and len(log.loads()) == 4 * 6
    # a record waiting on a file makes only its own files
    assert not log.made_by_other_records()
    if workers == 1:  # on one decode thread, each record's files queue behind the last one's
        columns = ("in", "tg", "pr", "gt", "seg_in", "seg_pr")
        assert log.taken_up == [f"r{i}_{column}.nii" for i in range(4) for column in columns]


def _counted_loads(monkeypatch):
    """The loads of each file name, counted from now on."""
    loads = Counter()
    load = harness.load_volume

    def counted_load(path):
        loads[path.name] += 1
        return load(path)

    monkeypatch.setattr(harness, "load_volume", counted_load)
    return loads


def test_read_ahead_reads_each_own_file_once_under_thread_switches(tiny_dataset, monkeypatch):
    base, _ = tiny_dataset
    records = load_manifest(_own_files_rows(base, 12))
    loads = _counted_loads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # records start out of order, and read ahead past each other
    try:
        rows = evaluate_all(records, EvalConfig(workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert all(r.ok for r in rows)
    assert len(loads) == 12 * 6 and set(loads.values()) == {1}


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_read_ahead_runs_on_one_thread_at_any_worker_count(tiny_dataset, monkeypatch, workers):
    # the worker count sets how many records run at once: beside their
    # threads, which make their own files while they wait, one thread decodes
    base, _ = tiny_dataset
    records = load_manifest(_own_files_rows(base, 8))
    makers, record_threads = set(), set()
    make, evaluate = harness._SharedFiles._make, harness._evaluate_record

    def noted_make(files, key):
        made = make(files, key)
        if made:
            makers.add(threading.current_thread())
        return made

    def noted_evaluate(rec, config, files):
        record_threads.add(threading.current_thread())
        return evaluate(rec, config, files)

    monkeypatch.setattr(harness._SharedFiles, "_make", noted_make)
    monkeypatch.setattr(harness, "_evaluate_record", noted_evaluate)
    rows = evaluate_all(records, EvalConfig(workers=workers))
    assert all(r.ok for r in rows)
    assert len(makers - record_threads) == 1


def test_read_ahead_does_not_remake_a_product_already_used_up(tiny_dataset, monkeypatch):
    # records can start out of order: here record 2 starts and ends first,
    # so record 1, starting next, finds its successor's files used up
    base, _ = tiny_dataset
    records = load_manifest(_own_files_rows(base, 3))
    loads = _counted_loads(monkeypatch)
    with ThreadPoolExecutor(1) as pool:
        files = harness._SharedFiles(records, EvalConfig(), pool)
        owed = files.start(records[2])
        files.take("intensity", records[2].input_path, owed)
        files.count_off(+owed)
        owed = files.start(records[1])
        assert not [key for key in files._made if os.path.basename(key[1]).startswith("r2_")]
        files.count_off(+owed)
        assert not files._made
    assert loads["r2_in.nii"] == 1


def test_read_ahead_of_a_row_without_gt_or_segmentations_starts_with_it(tiny_dataset, monkeypatch):
    # such a row's own files are all decoded before its W1: the next row's
    # input decodes during it
    base, _ = tiny_dataset
    lines = [MANIFEST_HEADER]
    for i in range(2):
        for name, source in (("in", "a"), ("tg", "b"), ("pr", "a")):
            shutil.copy(base / f"{source}.nii", base / f"r{i}_{name}.nii")
        lines.append(f"r{i},r{i}_in.nii,r{i}_tg.nii,r{i}_pr.nii,,,,A,B,")
    (base / "m.csv").write_text("\n".join(lines) + "\n")
    records = load_manifest(base / "m.csv")
    next_input_loaded, loaded_in_time, calls = threading.Event(), [], itertools.count(1)
    load, w1 = harness.load_volume, harness.nwd

    def noted_load(path):
        grid = load(path)
        if path.name == "r1_in.nii":
            next_input_loaded.set()
        return grid

    def waiting_nwd(*dists):
        if next(calls) == 1:  # record 0's, on the one worker
            loaded_in_time.append(next_input_loaded.wait(5))
        return w1(*dists)

    monkeypatch.setattr(harness, "load_volume", noted_load)
    monkeypatch.setattr(harness, "nwd", waiting_nwd)
    rows = evaluate_all(records, EvalConfig(workers=1))
    assert all(r.ok for r in rows)
    assert loaded_in_time == [True]


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_record_keeps_the_next_records_read_ahead(tiny_dataset, monkeypatch, workers):
    base, _ = tiny_dataset
    records = load_manifest(_own_files_rows(base, 2, same_input_target={0}))
    log = _ReadAheadLog(monkeypatch, workers, len(records))
    rows = evaluate_all(records, EvalConfig(workers=workers))
    assert rows[0].status.startswith("error: DegenerateNormalizer: ")
    assert rows[1].ok
    # record 1's input was read ahead before record 0 failed, and not read again
    assert "r1_in.nii" in log.loads_at_w1
    assert all(log.loads()[f"r1_{name}.nii"] == 1 for name in ("in", "tg", "pr", "gt", "seg_in", "seg_pr"))


class _LoadWaitsForAnother:
    """Patches the harness so the load of file ``first`` waits (bounded)
    until file ``then`` starts loading on another thread, and no record
    takes a product before ``first`` starts loading, so a decode thread,
    not a record, has ``first``. Notes whether each wait ended in time,
    the threads that loaded ``then``, and the records' threads."""

    def __init__(self, monkeypatch, first, then):
        self.in_time, self.then_threads, self.record_threads = [], [], set()
        first_loading, then_loading = threading.Event(), threading.Event()
        load, evaluate, take = harness.load_volume, harness._evaluate_record, harness._SharedFiles.take

        def gated_load(path):
            if path.name == first:
                first_loading.set()
                self.in_time.append(then_loading.wait(5))
            if path.name == then:
                self.then_threads.append(threading.get_ident())
                then_loading.set()
            return load(path)

        def noted_evaluate(rec, config, files):
            self.record_threads.add(threading.get_ident())
            return evaluate(rec, config, files)

        def take_once_first_loads(files, *args, **kwargs):
            first_loading.wait(5)
            return take(files, *args, **kwargs)

        monkeypatch.setattr(harness, "load_volume", gated_load)
        monkeypatch.setattr(harness, "_evaluate_record", noted_evaluate)
        monkeypatch.setattr(harness._SharedFiles, "take", take_once_first_loads)


def test_a_waiting_record_makes_its_own_queued_file(tiny_dataset, monkeypatch):
    # at one worker, the decode thread's load of the input waits until the
    # target loads on another thread: the record, waiting on its input,
    # loads its target itself
    base, _ = tiny_dataset
    records = load_manifest(_own_files_rows(base, 1))
    gate = _LoadWaitsForAnother(monkeypatch, "r0_in.nii", "r0_tg.nii")
    (row,) = evaluate_all(records, EvalConfig(workers=1))
    assert row.ok
    assert gate.in_time == [True]
    assert gate.then_threads == list(gate.record_threads)


@pytest.mark.parametrize("workers", [1, 3])
def test_a_failed_file_made_by_a_waiting_record_fails_every_row_naming_it_alike(tiny_dataset, monkeypatch, workers):
    base, _ = tiny_dataset
    (base / "bad.nii").write_bytes(b"not a nifti file")
    for name in ("in0", "in1", "in2"):
        shutil.copy(base / "a.nii", base / f"{name}.nii")
    (base / "m.csv").write_text(
        MANIFEST_HEADER + "\n"
        "r0,in0.nii,bad.nii,a.nii,,,,A,B,\n"
        "r1,in1.nii,b.nii,bad.nii,,,,A,B,\n"
        "r2,in2.nii,bad.nii,b.nii,,,,A,B,\n"
        "r3,a.nii,b.nii,a.nii,,,,A,B,\n"
    )
    gate = _LoadWaitsForAnother(monkeypatch, "in0.nii", "bad.nii")
    rows = evaluate_all(load_manifest(base / "m.csv"), EvalConfig(workers=workers))
    assert [r.ok for r in rows] == [False, False, False, True]
    assert rows[0].status.startswith("error: MalformedHeader: ") and "bad.nii" in rows[0].status
    assert rows[0].status == rows[1].status == rows[2].status
    assert len(gate.then_threads) == 1
    if workers == 1:  # the record waiting on in0.nii made bad.nii
        assert gate.in_time == [True] and set(gate.then_threads) <= gate.record_threads


@pytest.mark.parametrize("workers", [2, 8])
def test_rows_waiting_on_a_shared_file_never_see_it_cancelled(tiny_dataset, monkeypatch, workers):
    # every row shares its input and segmentation with the others: a record
    # that makes a file it or another row waits on must leave no row holding
    # a future that is cancelled or never done
    base, _ = tiny_dataset
    lines = [MANIFEST_HEADER]
    for i in range(16):
        shutil.copy(base / "b.nii", base / f"t{i}.nii")
        shutil.copy(base / ("a.nii" if i % 2 else "b.nii"), base / f"p{i}.nii")
        lines.append(f"r{i},a.nii,t{i}.nii,p{i}.nii,,seg.nii,seg.nii,A,B,")
    (base / "m.csv").write_text("\n".join(lines) + "\n")
    records = load_manifest(base / "m.csv")
    loads = _counted_loads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # many thread switches inside every take
    try:
        for _ in range(5):  # each run interleaves its threads anew
            loads.clear()
            rows = evaluate_all(records, EvalConfig(workers=workers))
            assert all(r.ok for r in rows)
            assert len(loads) == 2 + 2 * 16 and set(loads.values()) == {1}
    finally:
        sys.setswitchinterval(interval)


def _idle_package_frames():
    """The reachable frames of harmbench code that no thread is running."""
    gc.collect()
    running = {}
    for frame in sys._current_frames().values():
        while frame is not None:
            running[id(frame)] = frame
            frame = frame.f_back
    package = os.path.dirname(harness.__file__)
    return [
        o for o in gc.get_objects()
        if isinstance(o, types.FrameType) and id(o) not in running
        and os.path.dirname(o.f_code.co_filename) == package
    ]


def _kept_failure_frames(base, monkeypatch, first, second):
    """The rows of a manifest whose rows 0 and 2 share a failing file, and the
    harmbench frames, new since the start and run by no thread, that are
    reachable while row 1 computes W1 with that failure kept for row 2."""
    (base / "m.csv").write_text(
        MANIFEST_HEADER + "\n" + f"r0,{first},,,,A,B,\n"
        "r1,a.nii,b.nii,a.nii,,,,A,B,\n" + f"r2,{second},,,,A,B,\n"
    )
    records = load_manifest(base / "m.csv")
    before, new_frames = _idle_package_frames(), []

    def scanning_nwd(*dists, nwd=harness.nwd):
        new_frames.extend(
            f"{f.f_code.co_filename}:{f.f_code.co_name}"
            for f in _idle_package_frames() if not any(f is b for b in before)
        )
        return nwd(*dists)

    monkeypatch.setattr(harness, "nwd", scanning_nwd)
    return evaluate_all(records, EvalConfig(workers=1)), new_frames


def test_failed_product_is_kept_without_the_frames_holding_its_bytes(tiny_dataset, monkeypatch):
    # a corrupt file kept for its later use holds no frame, whose locals would
    # pin the file's bytes (nifti.py) or a record's foregrounds (harness.py),
    # and each use gets the same status
    base, _ = tiny_dataset
    write_volume(load_volume(base / "a.nii"), base / "a.nii.gz")
    (base / "bad.nii.gz").write_bytes(corrupt_deflate((base / "a.nii.gz").read_bytes()))
    rows, new_frames = _kept_failure_frames(
        base, monkeypatch, "a.nii,b.nii,bad.nii.gz", "a.nii,b.nii,bad.nii.gz")
    assert [r.ok for r in rows] == [False, True, False]
    assert new_frames == []
    assert rows[0].status == rows[2].status
    assert rows[0].status.startswith(f"error: MalformedHeader: {base / 'bad.nii.gz'}")


def test_failed_foreground_is_kept_without_the_frames_holding_its_grid(tiny_dataset, monkeypatch):
    # an empty foreground kept for its later use holds no frame, whose locals
    # would pin the file's grid (distribution.py) or a record's foregrounds
    # (harness.py), and each use gets the same status
    base, _ = tiny_dataset
    _write_grid(base / "zero.nii", np.zeros(8 ** 3), (8, 8, 8))
    rows, new_frames = _kept_failure_frames(
        base, monkeypatch, "zero.nii,b.nii,a.nii", "zero.nii,b.nii,b.nii")
    assert [r.ok for r in rows] == [False, True, False]
    assert new_frames == []
    assert rows[0].status == rows[2].status
    assert rows[0].status.startswith("error: EmptyForeground: ")


def test_failed_record_cancels_its_decodes_not_started(tiny_dataset, monkeypatch):
    base, _ = tiny_dataset
    records = load_manifest(_own_files_manifest(base, gt=True))
    loads, started = [], threading.Event()
    load, start = harness.load_volume, harness._SharedFiles.start

    def slow_load(path):
        loads.append(path.name)
        if path.name == "seg_in.nii":
            started.set()
            time.sleep(0.5)  # holds the one decode thread while the record fails
        return load(path)

    def start_then_wait(files, rec):
        owed = start(files, rec)
        # the decode thread reaches seg_in before the record takes a file,
        # so the record never waits, and makes none of its own files
        started.wait(5)
        return owed

    def failing_nwd(*dists):
        started.wait()
        raise DegenerateNormalizer("input and target are indistinguishable")

    monkeypatch.setattr(harness, "load_volume", slow_load)
    monkeypatch.setattr(harness._SharedFiles, "start", start_then_wait)
    monkeypatch.setattr(harness, "nwd", failing_nwd)
    (row,) = evaluate_all(records, EvalConfig(workers=1))
    assert row.status == "error: DegenerateNormalizer: input and target are indistinguishable"
    # gt is taken before W1; seg_pr's decode is cancelled before it starts
    assert loads == ["in.nii", "tg.nii", "pr.nii", "gt.nii", "seg_in.nii"]


@pytest.mark.parametrize("workers", [1, 3])
def test_status_is_the_first_failure_in_pipeline_order(tiny_dataset, workers):
    base, _ = tiny_dataset
    _write_grid(base / "zero.nii", np.zeros(8 ** 3), (8, 8, 8))
    (base / "bad.nii").write_bytes(b"not a nifti file")
    (base / "bad_seg.nii").write_bytes(b"not a nifti file")
    (base / "m.csv").write_text(
        MANIFEST_HEADER + "\n"
        # an empty foreground ends the record before a later column's corrupt file
        "r0,zero.nii,bad.nii,a.nii,,,,A,B,\n"
        "r1,a.nii,b.nii,zero.nii,,bad.nii,bad.nii,A,B,\n"
        # the segmentations decode from the start but are used only after W1
        "r2,a.nii,a.nii,b.nii,,bad.nii,bad.nii,A,B,\n"
        # the gt metrics run before W1 and AP
        "r3,a.nii,a.nii,b.nii,bad.nii,,,A,B,\n"
        "r4,a.nii,b.nii,a.nii,bad.nii,bad_seg.nii,bad_seg.nii,A,B,\n"
        "r5,a.nii,b.nii,a.nii,,seg.nii,seg.nii,A,B,\n"
    )
    rows = evaluate_all(load_manifest(base / "m.csv"), EvalConfig(workers=workers))
    kinds = [r.status.split(":")[1].strip() if not r.ok else "ok" for r in rows]
    assert kinds == [
        "EmptyForeground", "EmptyForeground", "DegenerateNormalizer", "MalformedHeader", "MalformedHeader", "ok"
    ]
    assert "bad.nii" in rows[3].status and "bad.nii" in rows[4].status
    assert "bad_seg.nii" not in rows[4].status


# ---------------------------------------------------------------- summaries


def _row(id, site_in, site_out, nwd_ip, nwd_tp, psnr=None):
    wd = WdPair(nwd_ip, nwd_tp, 1.0, nwd_ip, nwd_tp)
    ref = None
    if psnr is not None:
        ref = PairedMetricRow(ssim=0.5, psnr_db=psnr, mae=0.1, mse=0.02)
    return row_cells(EvaluationRow(
        id=id, site_in=site_in, site_out=site_out, channel=None, status="ok",
        wd=wd, verdict=Verdict.PARTIAL, reference=ref,
    ))


def test_summarize_means(tiny_dataset):
    rows = [_row("a", "A", "B", 0.4, 0.5), _row("b", "A", "B", 0.6, 0.7)]
    (table,) = summarize(rows)
    assert table.group == "A→B"
    assert table.metrics["nwd_ip"].mean == pytest.approx(0.5)
    assert table.metrics["nwd_ip"].n == 2


def test_summarize_groups_in_lexicographic_order():
    rows = [
        _row("a", "B", "A", 0.1, 0.2),
        _row("b", "A", "B", 0.3, 0.4),
    ]
    tables = summarize(rows)
    assert [t.group for t in tables] == ["A→B", "B→A"]
    by_site = summarize(rows, group_by="site_out")
    assert [t.group for t in by_site] == ["A", "B"]


def test_summarize_counts_sentinels():
    rows = [
        _row("a", "A", "B", 0.1, 0.2, psnr=20.0),
        _row("b", "A", "B", 0.3, 0.4, psnr=math.inf),
    ]
    (table,) = summarize(rows)
    psnr = table.metrics["psnr"]
    assert psnr.n == 1
    assert psnr.sentinel_count == 1
    assert psnr.mean == 20.0


def test_summarize_requires_a_successful_row():
    failed = row_cells(EvaluationRow(id="x", site_in="A", site_out="B", channel=None, status="error: x"))
    with pytest.raises(NoSuccessfulRows):
        summarize([failed])
    with pytest.raises(ValueError):
        summarize([_row("a", "A", "B", 0.1, 0.2)], group_by="nonsense")


# ------------------------------------------------------------------ reports


def test_cell_format_matches_published_style():
    assert format_mean_std(0.906, 0.038) == "0.906 ± 0.038"
    assert format_mean_std(17.351, 1.479) == "17.351 ± 1.479"


def test_markdown_layout_and_column_order():
    tables = summarize(
        [_row("a", "A", "B", 0.906, 0.087, psnr=20.0), _row("b", "A", "B", 0.906, 0.087, psnr=22.0)]
    )
    text = emit_report(tables, "markdown").decode()
    header = text.splitlines()[0]
    assert header == "| | SSIM | PSNR | MAE | MSE | nWD(i,p) | nWD(t,p) |"
    assert "| A→B |" in text
    assert "0.906 ± 0.000" in text


def test_markdown_three_decimal_truncation_vs_csv_full_precision():
    rows = [_row("a", "A", "B", 1 / 3, 2 / 3), _row("b", "A", "B", 1 / 3, 2 / 3)]
    tables = summarize(rows)
    md = emit_report(tables, "md").decode()
    assert "0.333 ± 0.000" in md
    csv_text = emit_report(tables, "csv").decode()
    assert repr(1 / 3) in csv_text
    assert "group,metric,mean,std,n,sentinel_count" in csv_text.splitlines()[0]


def test_json_report_round_trip():
    tables = summarize(
        [
            _row("a", "A", "B", 0.4, 0.5, psnr=20.0),
            _row("b", "A", "B", 0.6, 0.7, psnr=math.inf),
            _row("c", "B", "A", 0.9, 0.1),
        ]
    )
    blob = emit_report(tables, "json", meta={"version": "x"})
    assert parse_report_json(blob) == tables


def test_single_metric_single_group_markdown():
    tables = summarize([{"site_in": "A", "site_out": "B", "status": "ok", "nwd_ip": "0.5"}])
    text = emit_report(tables, "md").decode()
    lines = text.strip().splitlines()
    assert lines[0] == "| | nWD(i,p) |"
    assert lines[2].startswith("| A→B | 0.500")


def test_unsupported_format():
    tables = summarize([{"site_in": "A", "site_out": "B", "status": "ok", "mae": "0.1"}])
    with pytest.raises(UnsupportedFormat):
        emit_report(tables, "xml")


def test_rows_csv_round_trip_and_determinism(tiny_dataset):
    _, manifest = tiny_dataset
    rows = evaluate_all(load_manifest(manifest), EvalConfig())
    blob1 = rows_to_csv_bytes(rows, meta={"version": "0"})
    blob2 = rows_to_csv_bytes(rows, meta={"version": "0"})
    assert blob1 == blob2
    path = tiny_dataset[0] / "results.csv"
    write_rows_csv(rows, path, meta={"version": "0"})
    meta, raw = read_results(path)
    assert meta == {"version": "0"}
    assert len(raw) == 1
    assert raw[0]["id"] == "t0"
    assert raw[0]["status"] == "ok"
    assert float(raw[0]["nwd_tp"]) == 1.0
    assert raw[0]["verdict"] == "NoHarmonization"
    assert float(raw[0]["psnr"]) == math.inf
    series = series_from_rows(raw, "nwd_tp")
    assert series[0] == 1.0
    blank = series_from_rows([{"nwd_tp": ""}], "nwd_tp")
    assert math.isnan(blank[0])


@pytest.mark.parametrize("workers", [1, 3])
def test_results_and_report_equal_the_golden_files(tmp_path, workers):
    # any change to a bit of any cell, a status text or the layout shows here;
    # a change meant to move bits rewrites the files with tests/golden_dataset.py
    build_dataset(tmp_path / "dataset")
    results, report = golden_outputs(tmp_path / "dataset", workers)
    assert results == (GOLDEN / "results.csv").read_bytes()
    assert report == (GOLDEN / "report.csv").read_bytes()
