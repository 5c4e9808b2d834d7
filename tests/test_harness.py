"""Manifest ingestion, batch evaluation, summaries, and reports."""
import json
import math
import shutil
import sys
from collections import Counter

import numpy as np
import pytest

from harmbench.errors import (
    DuplicateId,
    MissingColumn,
    NoSuccessfulRows,
    UnreadableFile,
    UnsupportedFormat,
)
from harmbench import harness
from harmbench.harness import (
    EvalConfig,
    EvaluationRow,
    emit_report,
    evaluate_all,
    format_mean_std,
    load_manifest,
    metric_values,
    parse_report_json,
    read_rows_csv,
    rows_to_csv_bytes,
    series_from_rows,
    summarize,
    summarize_groups,
    write_rows_csv,
)
from harmbench.nifti import load_volume, write_volume
from harmbench.reference import PairedMetricRow
from harmbench.volume import VoxelGrid
from harmbench.wasserstein import HarmonizationVerdict, Verdict, WdPair

from nifti_fixtures import corrupt_deflate

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


def test_json_manifest_missing_field(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"id": "x", "input_path": "a"}]))
    with pytest.raises(MissingColumn):
        load_manifest(manifest)


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
    assert row.verdict.kind is Verdict.NO_HARMONIZATION
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
    assert metric_values(mixed[0]) == metric_values(clean[0])


def test_total_failure_raises_with_rows(tiny_dataset):
    _, manifest = tiny_dataset
    manifest.write_text(
        MANIFEST_HEADER + "\n"
        "b1,m.nii,b.nii,a.nii,,,,A,B,\n"
        "b2,m.nii,b.nii,a.nii,,,,A,B,\n"
    )
    with pytest.raises(NoSuccessfulRows) as err:
        evaluate_all(load_manifest(manifest), EvalConfig())
    assert len(err.value.rows) == 2


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
    assert metric_values(fwd[0]) == metric_values(rev[1])
    assert metric_values(fwd[1]) == metric_values(rev[0])


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
        assert metric_values(a) == metric_values(b)


def test_multichannel_rows_per_channel(tmp_path):
    rng = np.random.default_rng(2)
    dims = (6, 6, 6)
    n = 6 ** 3
    two = np.concatenate([rng.uniform(1, 5, n), rng.uniform(10, 20, n)])
    grid = VoxelGrid(dims, (1, 1, 1), two, channel_count=2)
    write_volume(grid, tmp_path / "in.nii")
    write_volume(
        VoxelGrid(dims, (1, 1, 1), two * 2.0, channel_count=2), tmp_path / "tg.nii"
    )
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

    def counted_convert(grid, legend=None):
        conversions[grid.dims] += 1
        return convert(grid, legend)

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
    for workers in (1, 3):
        rows = evaluate_all(load_manifest(base / "m.csv"), EvalConfig(workers=workers))
        assert [r.ok for r in rows] == [True, False, True]
        assert rows[1].status.startswith("error: MalformedHeader: ")
        assert "bad.nii.gz" in rows[1].status


def test_multichannel_file_read_once_for_all_channel_rows(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    dims, channels = (6, 6, 6), 3
    values = rng.uniform(1, 5, 6 ** 3 * channels)
    write_volume(VoxelGrid(dims, (1, 1, 1), values, channel_count=channels), tmp_path / "in.nii")
    write_volume(VoxelGrid(dims, (1, 1, 1), values * 2, channel_count=channels), tmp_path / "tg.nii")
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


# ---------------------------------------------------------------- summaries


def _row(id, site_in, site_out, nwd_ip, nwd_tp, psnr=None):
    wd = WdPair(nwd_ip, nwd_tp, 1.0, nwd_ip, nwd_tp)
    ref = None
    if psnr is not None:
        ref = PairedMetricRow(ssim=0.5, psnr_db=psnr, mae=0.1, mse=0.02)
    return EvaluationRow(
        id=id, site_in=site_in, site_out=site_out, channel=None, status="ok",
        wd=wd, verdict=HarmonizationVerdict(Verdict.PARTIAL, 0.05), reference=ref,
    )


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
    failed = EvaluationRow(id="x", site_in="A", site_out="B", channel=None, status="error: x")
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
    tables = summarize_groups([("A→B", {"nwd_ip": 0.5})])
    text = emit_report(tables, "md").decode()
    lines = text.strip().splitlines()
    assert lines[0] == "| | nWD(i,p) |"
    assert lines[2].startswith("| A→B | 0.500")


def test_unsupported_format():
    tables = summarize_groups([("g", {"mae": 0.1})])
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
    raw = read_rows_csv(path)
    assert len(raw) == 1
    assert raw[0]["id"] == "t0"
    assert raw[0]["status"] == "ok"
    assert float(raw[0]["nwd_tp"]) == 1.0
    assert raw[0]["verdict"] == "NoHarmonization"
    assert float(raw[0]["psnr"]) == math.inf
    series = series_from_rows(raw, "nwd_tp")
    assert series.values[0] == 1.0
    blank = series_from_rows([{"nwd_tp": ""}], "nwd_tp")
    assert math.isnan(blank.values[0])
