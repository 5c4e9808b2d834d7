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
from harmbench.nifti import write_volume
from harmbench.volume import VoxelGrid

from nifti_fixtures import corrupt_deflate


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
        "x,missing.nii,missing.nii,missing.nii,A,B\n"
    )
    results = tmp_path / "r.csv"
    code = run(["evaluate", "--manifest", str(manifest), "--out", str(results)])
    assert code == 2
    # the failed rows are still persisted for diagnosis
    assert results.exists()
    assert "error" in results.read_text()


def test_evaluate_usage_error_without_manifest():
    assert run(["evaluate"]) == 1


def test_synth_json_output(tmp_path, capsys):
    code = run(["synth", "--json", "--out", str(tmp_path / "d"), "--n", "2", "--size", "16"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"].endswith("manifest.csv")


def test_env_default_overridden_by_flag(volume_pair, capsys, monkeypatch):
    monkeypatch.setenv("HARMBENCH_BG_THRESHOLD", "1e9")  # would empty the foreground
    code = run([
        "wd", "--bg-threshold", "0",
        "--input", str(volume_pair / "a.nii"),
        "--target", str(volume_pair / "b.nii"),
        "--pred", str(volume_pair / "a.nii"),
    ])
    assert code == 0
    capsys.readouterr()


def test_env_default_used_without_flag(volume_pair, capsys, monkeypatch):
    monkeypatch.setenv("HARMBENCH_BG_THRESHOLD", "1e9")
    code = run([
        "wd",
        "--input", str(volume_pair / "a.nii"),
        "--target", str(volume_pair / "b.nii"),
        "--pred", str(volume_pair / "a.nii"),
    ])
    assert code == 2  # EmptyForeground: the env threshold really applied
    capsys.readouterr()


@given(
    st.lists(
        st.sampled_from(
            ["wd", "evaluate", "corr", "report", "--json", "--input", "x.nii",
             "--manifest", "m.csv", "--in", "r.csv", "--bins", "-3", "nonsense", ""]
        ),
        max_size=4,
    )
)
@example(["report", "--in"])
@example(["wd", "--bins", "not-a-number"])
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
    ["--bins", "-3"],
    ["--workers", "0"],
    ["--labels", "1=GM,x"],
    ["--window", "4"],
    ["--bg-threshold", "nan"],
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


@pytest.mark.parametrize("name,value", [
    ("HARMBENCH_WORKERS", "abc"),
    ("HARMBENCH_WORKERS", "0"),
    ("HARMBENCH_BINS", "many"),
    ("HARMBENCH_BINS", "-3"),
    ("HARMBENCH_BG_THRESHOLD", "abc"),
    ("HARMBENCH_BG_THRESHOLD", "nan"),
])
def test_bad_env_value_is_usage_error(synth_manifest, capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert run(["evaluate", "--manifest", str(synth_manifest)]) == 1
    err = capsys.readouterr().err
    assert value in err
    assert name in err


def test_results_file_identical_across_worker_counts(synth_manifest, tmp_path, capsys):
    one, three = tmp_path / "w1.csv", tmp_path / "w3.csv"
    assert run(["evaluate", "--manifest", str(synth_manifest), "--out", str(one), "--workers", "1"]) == 0
    assert run(["evaluate", "--manifest", str(synth_manifest), "--out", str(three), "--workers", "3"]) == 0
    capsys.readouterr()
    assert one.read_bytes() == three.read_bytes()


def test_evaluate_honours_fg_mask_like_wd(synth_manifest, tmp_path, capsys):
    from harmbench.harness import load_manifest, read_rows_csv

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
        next(r for r in read_rows_csv(path) if r["id"] == rec.id) for path in (masked, plain)
    )
    assert {k: masked_row[k] for k in keys} == {k: wd[k] for k in keys}
    assert {k: plain_row[k] for k in keys} != {k: wd[k] for k in keys}


def test_report_reproduces_evaluate_csv_table(synth_manifest, tmp_path, capsys):
    results = tmp_path / "results.csv"
    assert run(["evaluate", "--manifest", str(synth_manifest), "--out", str(results),
                "--report", "csv"]) == 0
    from_evaluate = capsys.readouterr().out
    assert run(["report", "--in", str(results), "--format", "csv"]) == 0
    from_report = capsys.readouterr().out

    # the whole output, metadata lines included
    assert from_report == from_evaluate
    assert "# bins: " in from_report
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
    assert meta["bins"] == 4096 and meta["weighted_ap"] is False
    assert isinstance(meta["tol"], float)


def test_cli_import_loads_no_scipy():
    # scipy took about half a second of every CLI start
    src = str(Path(harmbench.__file__).resolve().parent.parent)
    code = "import sys, harmbench.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"
