"""Command line surface: subcommands, exit codes, JSON mode."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harmbench
from harmbench.cli import run
from harmbench.harness import load_manifest, read_results
from harmbench.nifti import load_volume, write_volume
from harmbench.volume import VoxelGrid

from golden_dataset import GOLDEN, build_dataset
from nifti_fixtures import build_nifti, corrupt_deflate


def _write_grid(path, values, dims=(8, 8, 8)):
    write_volume(VoxelGrid(dims, (1, 1, 1), np.asarray(values, dtype=float)), path)


@pytest.fixture()
def volume_pair(tmp_path):
    rng = np.random.default_rng(4)
    n = 8 ** 3
    a = np.concatenate([np.zeros(n // 4), rng.uniform(1, 5, 3 * n // 4)])
    b = np.concatenate([np.zeros(n // 4), rng.uniform(8, 16, 3 * n // 4)])
    _write_grid(tmp_path / "a.nii", a)
    _write_grid(tmp_path / "b.nii", b)
    return tmp_path


def test_wd_identity_triplet(volume_pair, capsys):
    code = run([
        "wd",
        "--input", str(volume_pair / "a.nii"),
        "--target", str(volume_pair / "b.nii"),
        "--pred", str(volume_pair / "a.nii"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    fields = dict(line.split("\t") for line in out.strip().splitlines())
    assert float(fields["nwd_ip"]) == 0.0
    assert float(fields["nwd_tp"]) == 1.0
    assert fields["verdict"] == "NoHarmonization"


def test_wd_json_single_document(volume_pair, capsys):
    code = run([
        "wd", "--json",
        "--input", str(volume_pair / "a.nii"),
        "--target", str(volume_pair / "b.nii"),
        "--pred", str(volume_pair / "b.nii"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)  # exactly one JSON document, nothing else
    assert doc["nwd_ip"] == 1.0
    assert doc["verdict"] == "Perfect"


def test_unknown_flag_is_usage_error(capsys):
    assert run(["wd", "--definitely-not-a-flag"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_no_subcommand_is_usage_error():
    assert run([]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["wd", "--help"]) == 0


def test_missing_file_is_data_error(tmp_path, capsys):
    code = run([
        "wd",
        "--input", str(tmp_path / "nope.nii"),
        "--target", str(tmp_path / "nope.nii"),
        "--pred", str(tmp_path / "nope.nii"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_malformed_volume_is_data_error(volume_pair, capsys):
    zeros = volume_pair / "bad.nii"
    zeros.write_bytes(b"\x00" * 400)
    _write_grid(volume_pair / "a.nii.gz", np.arange(8 ** 3))
    corrupt = volume_pair / "corrupt.nii.gz"
    corrupt.write_bytes(corrupt_deflate((volume_pair / "a.nii.gz").read_bytes()))
    good = str(volume_pair / "a.nii")
    for bad in (zeros, corrupt):
        code = run(["wd", "--input", good, "--target", good, "--pred", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: MalformedHeader: ") and err.count("\n") == 1


def test_ap_subcommand(tmp_path, capsys):
    labels = np.zeros(8 ** 3)
    labels[:100] = 1.0
    labels[100:150] = 2.0
    _write_grid(tmp_path / "si.nii", labels)
    shrunk = labels.copy()
    shrunk[90:100] = 0.0  # label 1 loses 10% volume
    _write_grid(tmp_path / "sp.nii", shrunk)
    code = run([
        "ap", "--json",
        "--seg-input", str(tmp_path / "si.nii"),
        "--seg-pred", str(tmp_path / "sp.nii"),
        "--labels", "1=GM,2=WM",
    ])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["per_structure"]["GM"] == pytest.approx(0.9)
    assert doc["per_structure"]["WM"] == 1.0
    assert doc["mean_ap"] == pytest.approx(0.95)


@pytest.fixture()
def doubled_pair(tmp_path):
    """A 4^3 pair: label 1 keeps its 8 voxels, label 2 doubles from 8 to 16."""
    seg_i = np.zeros(4 ** 3)
    seg_i[:8] = 1
    seg_i[8:16] = 2
    seg_p = seg_i.copy()
    seg_p[16:24] = 2
    _write_grid(tmp_path / "si.nii", seg_i, (4, 4, 4))
    _write_grid(tmp_path / "sp.nii", seg_p, (4, 4, 4))
    return ["--seg-input", str(tmp_path / "si.nii"), "--seg-pred", str(tmp_path / "sp.nii")]


def test_ap_scores_each_label_whatever_the_names(doubled_pair, capsys):
    assert run(["ap", "--json", *doubled_pair, "--labels", "1=GM,2=WM"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"per_structure": {"GM": 1.0, "WM": 0.0}, "mean_ap": 0.5}
    assert run(["ap", "--json", "--weighted", *doubled_pair, "--labels", "1=GM,2=WM"]) == 0
    assert json.loads(capsys.readouterr().out)["mean_ap"] == 0.5


@pytest.mark.parametrize("legend", [
    "1=GM,2=GM",  # one name for two structures would merge their scores
    "1,2=label-1",
    "1=GM,1=WM",
    "0=BG,1=GM,2=WM",
    "-1=X,1=GM,2=WM",
])
def test_ap_legend_naming_twice_or_below_one_is_usage_error(doubled_pair, capsys, legend):
    assert run(["ap", *doubled_pair, f"--labels={legend}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument --labels: " in err


def test_ap_names_only_what_it_prints(doubled_pair, tmp_path, capsys):
    assert run(["ap", *doubled_pair]) == 0
    assert capsys.readouterr().out == "label-1\t1.0\nlabel-2\t0.0\nmean_ap\t0.5\n"
    assert run(["ap", *doubled_pair, "--labels", "2=WM,1=GM,7=X"]) == 0
    assert capsys.readouterr().out == "GM\t1.0\nWM\t0.0\nmean_ap\t0.5\n"
    # a legend must name every label present, checked one segmentation at a time
    assert run(["ap", *doubled_pair, "--labels", "1=GM"]) == 2
    assert capsys.readouterr().err == (
        "error: ValueError: labels [2] present in volume but absent from legend\n"
    )
    extra = np.zeros(4 ** 3)
    extra[:8] = 1
    extra[8:16] = 3
    _write_grid(tmp_path / "extra.nii", extra, (4, 4, 4))
    seg_input = doubled_pair[:2]
    assert run(["ap", *seg_input, "--seg-pred", str(tmp_path / "extra.nii"), "--labels", "1=GM,2=WM"]) == 2
    assert capsys.readouterr().err == (
        "error: ValueError: labels [3] present in volume but absent from legend\n"
    )
    # the input is checked before the prediction is read
    missing = str(tmp_path / "missing.nii")
    assert run(["ap", *seg_input, "--seg-pred", missing, "--labels", "1=GM"]) == 2
    assert "labels [2] present in volume" in capsys.readouterr().err


def test_refmetrics_identity_pair(volume_pair, capsys):
    code = run([
        "refmetrics", "--json",
        "--pred", str(volume_pair / "a.nii"),
        "--gt", str(volume_pair / "a.nii"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["mae"] == 0.0
    assert doc["ssim"] == 1.0
    assert doc["psnr"] == "inf"  # sentinel rendered as a string in JSON


def test_refmetrics_on_a_spacing_mismatch_is_one_error_line(volume_pair, capsys):
    # a 2 mm prediction on the 1 mm gt's dims and voxels would score ssim 1, psnr inf
    pred = load_volume(volume_pair / "a.nii")
    write_volume(VoxelGrid(pred.dims, (2, 2, 2), pred.values), volume_pair / "a-2mm.nii")
    code = run(["refmetrics", "--pred", str(volume_pair / "a-2mm.nii"), "--gt", str(volume_pair / "a.nii")])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == (
        "error: DimsMismatch: pred (8, 8, 8) at (2.0, 2.0, 2.0) mm != gt (8, 8, 8) at (1.0, 1.0, 1.0) mm\n"
    )


def _four_d_labels_status(path) -> str:
    # no column selects a channel of a segmentation or mask, so none is advised
    return f"error: ValueError: {path} has 2 channels; a segmentation or mask has one"


def test_ap_on_a_four_d_segmentation_is_one_error_line_naming_it(doubled_pair, tmp_path, capsys):
    four_d = tmp_path / "four_d_seg.nii"
    seg = np.zeros(4 ** 3)
    seg[:8] = 1
    four_d.write_bytes(build_nifti(np.concatenate([seg, seg]), dim=(4, 4, 4, 4, 2)))
    seg_input, seg_pred = doubled_pair[1], doubled_pair[3]
    for pair in ((str(four_d), seg_pred), (seg_input, str(four_d))):
        code = run(["ap", "--seg-input", pair[0], "--seg-pred", pair[1]])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", _four_d_labels_status(four_d) + "\n")


def test_wd_with_a_four_d_fg_mask_is_one_error_line_naming_it(volume_pair, capsys):
    mask = volume_pair / "four_d_mask.nii"
    mask.write_bytes(build_nifti(np.ones(2 * 8 ** 3), dim=(4, 8, 8, 8, 2)))
    a, b = str(volume_pair / "a.nii"), str(volume_pair / "b.nii")
    code = run(["wd", "--input", a, "--target", b, "--pred", a, "--fg-mask", str(mask)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", _four_d_labels_status(mask) + "\n")


def test_evaluate_report_corr_round_trip(tmp_path, capsys):
    from harmbench.synth import write_synthetic_dataset

    manifest = write_synthetic_dataset(tmp_path / "data", sites=2, n=4, seed=3, size=24)
    results = tmp_path / "results.csv"
    code = run([
        "evaluate",
        "--manifest", str(manifest),
        "--out", str(results),
        "--report", "md",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert results.exists()
    assert "nWD(i,p)" in out and "AP(i,p)" in out
    assert out.count("±") >= 2

    code = run(["report", "--in", str(results), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    groups = [g["group"] for g in doc["groups"]]
    assert groups == sorted(groups)

    code = run(["corr", "--in", str(results), "--rows", "nwd_ip,nwd_tp", "--cols", "mae,mse"])
    assert code == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].split("\t")[1:] == ["mae", "mse"]


def test_evaluate_total_failure_exits_two(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "id,input_path,target_path,pred_path,site_in,site_out\n"
        "r0,missing.nii,missing.nii,missing.nii,A,B\n"
        "r1,bad.nii,bad.nii,bad.nii,A,B\n"
    )
    (tmp_path / "bad.nii").write_bytes(b"not a nifti file")
    results = tmp_path / "r.csv"
    code = run(["evaluate", "--manifest", str(manifest), "--out", str(results)])
    out, err = capsys.readouterr()
    statuses = [
        f"error: FileNotFoundError: [Errno 2] No such file or directory: '{tmp_path / 'missing.nii'}'",
        f"error: MalformedHeader: {tmp_path / 'bad.nii'}: only 16 bytes, header needs 348",
    ]
    assert (code, out) == (2, "")
    # one line naming the first row; the failed rows are still persisted for diagnosis
    assert err == f"error: all 2 records failed; first: {statuses[0]}\n"
    assert [(r["id"], r["status"]) for r in read_results(results)[1]] == list(zip(["r0", "r1"], statuses))


def test_evaluate_usage_error_without_manifest():
    assert run(["evaluate"]) == 1


def test_synth_json_output(tmp_path, capsys):
    code = run(["synth", "--json", "--out", str(tmp_path / "d"), "--n", "2", "--size", "16"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"].endswith("manifest.csv")


@given(
    st.lists(
        st.sampled_from(
            ["wd", "evaluate", "corr", "report", "--json", "--input", "x.nii",
             "--manifest", "m.csv", "--in", "r.csv", "--tol", "-3", "nonsense", ""]
        ),
        max_size=4,
    )
)
@example(["report", "--in"])
@example(["wd", "--tol", "not-a-number"])
@settings(max_examples=120, deadline=None)
def test_exit_codes_are_always_in_contract(argv):
    assert run(argv) in (0, 1, 2)


@pytest.fixture()
def synth_manifest(tmp_path):
    from harmbench.synth import write_synthetic_dataset

    return write_synthetic_dataset(tmp_path / "data", sites=2, n=4, seed=3, size=24)


@pytest.mark.parametrize("setting", [
    ["--tol", "0.7"],
    ["--tol", "0"],
    ["--workers", "0"],
    ["--labels", "1=GM"],  # removed from evaluate: only ap prints structure names
    ["--window", "4"],
    ["--k1", "nan"],
    ["--k2", "inf"],
    ["--bg-threshold", "nan"],
    ["--bins", "64"],  # removed: W1 is always exact
    ["--exact-cap", "1"],  # removed: W1 is always exact
    ["--exact"],
    ["--exact", "5"],
    ["--work", "2"],  # not an abbreviation of --workers
])
def test_bad_setting_is_usage_error_before_any_record(tmp_path, capsys, setting):
    # every volume is missing, so evaluating even one record would fail
    # the batch with exit 2; exit 1 shows the setting was rejected first
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "id,input_path,target_path,pred_path,site_in,site_out\n"
        "x,missing.nii,missing.nii,missing.nii,A,B\n"
    )
    results = tmp_path / "r.csv"
    code = run(["evaluate", "--manifest", str(manifest), "--out", str(results), *setting])
    assert code == 1
    assert "error" in capsys.readouterr().err
    assert not results.exists()


@pytest.mark.parametrize("out", ["missing/r.csv", "a-directory"])
def test_unusable_out_is_usage_error_before_any_record(tmp_path, capsys, out):
    # as above: evaluating even one record would exit 2
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "id,input_path,target_path,pred_path,site_in,site_out\n"
        "x,missing.nii,missing.nii,missing.nii,A,B\n"
    )
    (tmp_path / "a-directory").mkdir()
    code = run(["evaluate", "--manifest", str(manifest), "--out", str(tmp_path / out)])
    assert code == 1
    assert "--out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a-directory", "m.csv"]


def test_unusable_out_is_rejected_before_the_fg_mask_is_read(tmp_path, capsys):
    # the mask is missing too: reading it first would exit 2
    code = run(["evaluate", "--manifest", str(tmp_path / "m.csv"),
                "--out", str(tmp_path / "missing" / "r.csv"),
                "--fg-mask", str(tmp_path / "nope.nii")])
    assert code == 1
    assert "--out" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("setting", [
    ["--sites", "1"],
    ["--size", "0"],
    ["--size", "1"],
    ["--n", "-1"],
    ["--n", "0"],
    ["--seed", "-1"],
])
def test_bad_synth_setting_is_usage_error_before_out_is_created(tmp_path, capsys, setting):
    out = tmp_path / "data"
    assert run(["synth", "--out", str(out), *setting]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["wd", "--input", "in.nii", "--target", "tg.nii", "--pred", "pr.nii"],
    ["refmetrics", "--pred", "pr.nii", "--gt", "gt.nii"],
    ["evaluate", "--manifest", "m.csv", "--out", "r.csv"],
])
def test_fg_mask_with_bg_threshold_is_usage_error_before_the_mask_is_read(tmp_path, monkeypatch, capsys, command):
    # the mask replaces the threshold, so the pair would record a setting
    # no value used; nothing exists here, so reading anything would exit 2
    monkeypatch.chdir(tmp_path)
    code = run([*command, "--bg-threshold", "1", "--fg-mask", "nope.nii"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert "--fg-mask: not allowed with argument --bg-threshold" in err
    assert not any(tmp_path.iterdir())


def test_results_file_identical_across_worker_counts(synth_manifest, tmp_path, capsys):
    one, three = tmp_path / "w1.csv", tmp_path / "w3.csv"
    assert run(["evaluate", "--manifest", str(synth_manifest), "--out", str(one), "--workers", "1"]) == 0
    assert run(["evaluate", "--manifest", str(synth_manifest), "--out", str(three), "--workers", "3"]) == 0
    capsys.readouterr()
    assert one.read_bytes() == three.read_bytes()


def test_evaluate_honours_fg_mask_like_wd(synth_manifest, tmp_path, capsys):
    mask = synth_manifest.parent / "seg.nii.gz"
    plain, masked = tmp_path / "plain.csv", tmp_path / "masked.csv"
    assert run(["evaluate", "--manifest", str(synth_manifest), "--out", str(plain)]) == 0
    assert run(["evaluate", "--manifest", str(synth_manifest), "--out", str(masked),
                "--fg-mask", str(mask)]) == 0
    capsys.readouterr()
    assert f"# fg_mask: {mask}\n" in masked.read_text()
    assert "# foreground: explicit-mask\n" in masked.read_text()

    rec = load_manifest(synth_manifest)[0]
    code = run([
        "wd", "--fg-mask", str(mask),
        "--input", str(rec.input_path),
        "--target", str(rec.target_path),
        "--pred", str(rec.pred_path),
    ])
    assert code == 0
    wd = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
    keys = ("wd_it", "wd_ip", "wd_tp", "nwd_ip", "nwd_tp", "verdict")
    masked_row, plain_row = (
        next(r for r in read_results(path)[1] if r["id"] == rec.id) for path in (masked, plain)
    )
    assert {k: masked_row[k] for k in keys} == {k: wd[k] for k in keys}
    assert {k: plain_row[k] for k in keys} != {k: wd[k] for k in keys}


_WD_KEYS = ("wd_ip", "wd_tp", "wd_it", "nwd_ip", "nwd_tp", "verdict")


@pytest.fixture(scope="module")
def golden_dataset(tmp_path_factory):
    dataset = tmp_path_factory.mktemp("golden") / "dataset"
    build_dataset(dataset)
    return dataset


@pytest.mark.parametrize(
    "row",
    [row for row in read_results(GOLDEN / "results.csv")[1] if not row["channel"]],
    ids=lambda row: row["id"],
)
def test_wd_prints_its_triplets_golden_row(golden_dataset, row, monkeypatch, capsys):
    # wd is a one-row evaluate: the row's cells, or its status as the one
    # error line; relative paths, as the golden statuses were written with
    monkeypatch.chdir(golden_dataset)
    rec = next(r for r in load_manifest("manifest.csv") if r.id == row["id"])
    argv = ["wd", "--input", str(rec.input_path), "--target", str(rec.target_path),
            "--pred", str(rec.pred_path)]
    for json_flag in ([], ["--json"]):
        code = run(argv + json_flag)
        out, err = capsys.readouterr()
        if row["status"] != "ok":
            assert (code, out, err) == (2, "", row["status"] + "\n")
        elif json_flag:
            assert (code, err) == (0, "")
            cells = {k: row[k] if k == "verdict" else float(row[k]) for k in _WD_KEYS}
            assert out == json.dumps(cells) + "\n"
        else:
            assert (code, err) == (0, "")
            assert out == "".join(f"{k}\t{row[k]}\n" for k in _WD_KEYS)


def _four_d_status(four_d: str) -> str:
    # advice that wd, refmetrics and evaluate can all follow
    return f"error: ValueError: {four_d} has 2 channels; score each with evaluate, one manifest row per 'channel'"


@pytest.mark.parametrize("role, four_d", [
    ("input", "four_d_in.nii"), ("target", "four_d_tg.nii"), ("pred", "four_d_pr.nii"),
])
def test_wd_on_a_four_d_file_is_one_error_line_naming_it(golden_dataset, role, four_d, monkeypatch, capsys):
    monkeypatch.chdir(golden_dataset)
    files = {"input": "float_pr.nii", "target": "float_tg.nii", "pred": "float_pr.nii", role: four_d}
    code = run(["wd", *(arg for r, name in files.items() for arg in (f"--{r}", name))])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", _four_d_status(four_d) + "\n")


@pytest.mark.parametrize("pred, gt", [
    ("four_d_pr.nii", "float_tg.nii"), ("float_pr.nii", "four_d_tg.nii"),
])
def test_refmetrics_on_a_four_d_file_is_one_error_line_naming_it(golden_dataset, pred, gt, monkeypatch, capsys):
    monkeypatch.chdir(golden_dataset)
    code = run(["refmetrics", "--pred", pred, "--gt", gt])
    out, err = capsys.readouterr()
    four_d = pred if pred.startswith("four_d") else gt
    assert (code, out) == (2, "")
    assert err == _four_d_status(four_d) + "\n"


def test_wd_reads_a_file_named_twice_once(volume_pair, monkeypatch, capsys):
    from harmbench import harness

    loaded, load = [], harness.load_volume

    def load_volume(path):
        loaded.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(harness, "load_volume", load_volume)
    a, b = str(volume_pair / "a.nii"), str(volume_pair / "b.nii")
    assert run(["wd", "--input", a, "--target", b, "--pred", a]) == 0
    assert sorted(loaded) == ["a.nii", "b.nii"]


def test_corr_unknown_column_is_usage_error(tmp_path, capsys):
    results = tmp_path / "r.csv"
    results.write_text(
        "id,site_in,site_out,status,nwd_ip,ssim\na,A,B,ok,0.1,\nb,A,B,ok,0.3,\nc,A,B,ok,0.2,\n"
    )
    code = run(["corr", "--in", str(results), "--rows", "nwd_ip,nwd_ipp", "--cols", "ssim,mea"])
    captured = capsys.readouterr()
    assert code == 1
    assert "nwd_ipp" in captured.err and "mea" in captured.err
    assert captured.out == ""
    # a column that exists but holds no value is still a data error
    assert run(["corr", "--in", str(results), "--rows", "nwd_ip", "--cols", "ssim"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "corr"])
def test_results_without_group_columns_is_data_error(tmp_path, capsys, command):
    results = tmp_path / "r.csv"
    results.write_text("id,status,nwd_ip\na,ok,0.1\n")
    assert run([command, "--in", str(results)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: MissingColumn: {results}: missing column(s) site_in, site_out"
    ]


def test_report_reproduces_evaluate_csv_table(synth_manifest, tmp_path, capsys):
    results = tmp_path / "results.csv"
    assert run(["evaluate", "--manifest", str(synth_manifest), "--out", str(results),
                "--report", "csv"]) == 0
    from_evaluate = capsys.readouterr().out
    assert run(["report", "--in", str(results), "--format", "csv"]) == 0
    from_report = capsys.readouterr().out

    # the whole output, metadata lines included
    assert from_report == from_evaluate
    assert "# ssim_window: 7\n" in from_report
    assert len([line for line in from_report.splitlines() if not line.startswith("#")]) > 1


def test_report_reproduces_evaluate_json(synth_manifest, tmp_path, capsys):
    results = tmp_path / "results.csv"
    assert run(["evaluate", "--manifest", str(synth_manifest), "--out", str(results),
                "--report", "json"]) == 0
    from_evaluate = capsys.readouterr().out
    assert run(["report", "--in", str(results), "--json"]) == 0
    from_report = capsys.readouterr().out

    # the whole output, metadata typed as evaluate writes it
    assert from_report == from_evaluate
    meta = json.loads(from_report)["meta"]
    assert meta["ssim_window"] == 7 and meta["weighted_ap"] is False
    assert isinstance(meta["tol"], float)


def test_results_with_the_removed_exact_cap_line_still_read(synth_manifest, tmp_path, capsys):
    # files written while W1 could be binned carry this line; it is read as text
    results = tmp_path / "results.csv"
    assert run(["evaluate", "--manifest", str(synth_manifest), "--out", str(results)]) == 0
    old = tmp_path / "old.csv"
    # and so do files written while evaluate took a legend
    old.write_text(results.read_text().replace(
        "# tol:", f"# exact_cap: {2 ** 24}\n# tol:", 1).replace(
        "# weighted_ap:", "# labels: 1=GM\n# weighted_ap:", 1))
    capsys.readouterr()
    for command in (["report", "--json"], ["corr", "--json"]):
        assert run([*command, "--in", str(results)]) == 0
        now = json.loads(capsys.readouterr().out)
        assert run([*command, "--in", str(old)]) == 0
        then = json.loads(capsys.readouterr().out)
        if command[0] == "report":
            assert then["meta"].pop("exact_cap") == str(2 ** 24)
            assert then["meta"].pop("labels") == "1=GM"
        assert then == now


def test_cli_import_loads_no_scipy():
    # scipy took about half a second of every CLI start
    src = str(Path(harmbench.__file__).resolve().parent.parent)
    code = "import sys, harmbench.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"
