"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; any assertion failure is the corresponding FAIL.
"""
import math
import time
from itertools import product

import numpy as np
import pytest

from harmbench.anatomy import anatomy_preservation
from harmbench.cli import run
from harmbench.distribution import (
    EmpiricalDistribution,
    ForegroundPolicy,
    extract_foreground,
)
from harmbench.errors import (
    MalformedHeader,
    NonFiniteVoxel,
    TruncatedData,
    UnsupportedDatatype,
)
from harmbench.harness import (
    METRIC_ORDER,
    emit_report,
    format_mean_std,
    read_results,
    summarize,
)
from harmbench.nifti import load_volume, write_volume
from harmbench.reference import paired_metrics
from harmbench.stats import rank_average_ties, spearman
from harmbench.synth import PhantomSpec, SiteTransform, Sphere, generate_phantom, histogram_match
from harmbench.volume import LabelVolume, VoxelGrid
from harmbench.wasserstein import Verdict, classify, nwd, wasserstein_1d

from nifti_fixtures import build_nifti, byteswap_nifti
from oracles import (
    average_ranks_positional,
    mae_mse_direct,
    spearman_direct,
    ssim_per_window,
    wd_cdf_integral,
    wd_matching,
)


def _u(samples):
    return EmpiricalDistribution.from_samples(samples)


def test_wasserstein_oracle_equivalence():
    """Exact W1 == brute-force matching (equal sizes) and merged-CDF
    integration (unequal sizes) on >= 500 random pairs, to 1e-9, < 5 s."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    n_pairs = 500
    n_equal = 0
    for trial in range(n_pairs):
        size_a = int(rng.integers(1, 9))
        size_b = size_a if trial % 2 == 0 else int(rng.integers(1, 9))
        a = rng.integers(0, 10, size_a).astype(float)
        b = rng.integers(0, 10, size_b).astype(float)
        da, db = _u(a), _u(b)
        got = wasserstein_1d(da, db)
        if size_a == size_b:
            want = wd_matching(a, b)
            n_equal += 1
        else:
            want = wd_cdf_integral(da.values, np.full(da.n, 1 / da.n), db.values, np.full(db.n, 1 / db.n))
        assert abs(got - want) <= 1e-9, (a, b, got, want)
    elapsed = time.perf_counter() - start
    assert n_equal >= 250
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    print(f"PASS wasserstein-oracle-equivalence: {n_pairs} pairs "
          f"({n_equal} matching, {n_pairs - n_equal} integration) in {elapsed:.2f}s")


def test_normalized_pair_identities():
    """p=i -> (0, 1) and p=t -> (1, 0) exactly; the 0/10/12 point-mass
    triple -> (1.2, 0.2) flagged as over-correction."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        i = _u(rng.uniform(0, 5, int(rng.integers(1, 40))))
        t = _u(rng.uniform(6, 11, int(rng.integers(1, 40))))
        same = nwd(i, t, i)
        assert (same.nwd_ip, same.nwd_tp) == (0.0, 1.0)
        flip = nwd(i, t, t)
        assert (flip.nwd_ip, flip.nwd_tp) == (1.0, 0.0)
    pair = nwd(_u([0.0]), _u([10.0]), _u([12.0]))
    assert abs(pair.nwd_ip - 1.2) <= 1e-12
    assert abs(pair.nwd_tp - 0.2) <= 1e-12
    assert classify(pair, 0.05) is Verdict.OVER_CORRECTED
    print("PASS normalized-pair-identities: (0,1), (1,0) exact; "
          "point-mass triple -> (1.2, 0.2) OverCorrected")


def test_scale_invariance():
    """Scaling all intensities by c in (0.01, 100) moves the normalized
    pair by <= 1e-9, over 100 random triples."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        i = _u(rng.uniform(0, 5, 30))
        t = _u(rng.uniform(6, 12, 25))
        p = _u(rng.uniform(0, 12, 35))
        c = float(rng.uniform(0.01, 100.0))
        base = nwd(i, t, p)
        scaled = nwd(
            EmpiricalDistribution(i.values * c),
            EmpiricalDistribution(t.values * c),
            EmpiricalDistribution(p.values * c),
        )
        worst = max(
            worst,
            abs(scaled.nwd_ip - base.nwd_ip),
            abs(scaled.nwd_tp - base.nwd_tp),
        )
    assert worst <= 1e-9
    print(f"PASS scale-invariance: max drift {worst:.2e} over 100 triples")


def test_volume_preservation_arithmetic():
    """Self-comparison is exactly 1 on random label volumes; the
    1000 -> 900 case is 0.9 to 1e-12; the mean is the unweighted average."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        labels = rng.integers(0, 5, size=12 ** 3)
        seg = LabelVolume((12, 12, 12), tuple(rng.uniform(0.3, 2.0, 3)), labels)
        report = anatomy_preservation(seg, seg)
        assert all(v == 1.0 for v in report.per_structure.values())
        assert report.mean_ap == 1.0

    def flat(n_label, total=1000):
        labels = np.zeros(total, dtype=np.int64)
        labels[:n_label] = 1
        return LabelVolume((10, 10, 10), (1, 1, 1), labels)

    report = anatomy_preservation(flat(1000), flat(900))
    assert abs(report.per_structure[1] - 0.9) <= 1e-12

    li = np.zeros(4000, dtype=np.int64)
    li[:2000] = 1
    li[2000:2100] = 2
    lp = li.copy()
    lp[1900:2000] = 0  # GM 2000 -> 1900: AP 0.95
    lp[2099:2100] = 0  # WM 100 -> 99:   AP 0.99
    report = anatomy_preservation(
        LabelVolume((4000, 1, 1), (1, 1, 1), li),
        LabelVolume((4000, 1, 1), (1, 1, 1), lp),
    )
    assert abs(report.per_structure[1] - 0.95) <= 1e-12
    assert abs(report.per_structure[2] - 0.99) <= 1e-12
    assert abs(report.mean_ap - 0.97) <= 1e-12
    print("PASS volume-preservation-arithmetic: identity exact, 0.9 case, "
          "unweighted two-structure mean")


def test_reference_metric_oracles():
    """MAE/MSE/PSNR/SSIM match direct per-window oracles to 1e-6 on 20
    random 8^3 pairs; the identity pair is (0, 0, +inf, 1)."""
    rng = np.random.default_rng(19)
    dims = (8, 8, 8)
    n = 8 ** 3
    for trial in range(20):
        a = rng.uniform(0.5, 10.0, n)
        b = rng.uniform(0.5, 10.0, n)
        a[rng.choice(n, 80, replace=False)] = 0.0
        b[rng.choice(n, 80, replace=False)] = 0.0
        pred = VoxelGrid(dims, (1, 1, 1), a)
        gt = VoxelGrid(dims, (1, 1, 1), b)
        row = paired_metrics(pred, gt)

        fg = (a > 0) | (b > 0)
        lo = min(a[fg].min(), b[fg].min())
        hi = max(a[fg].max(), b[fg].max())
        an = (a - lo) / (hi - lo)
        bn = (b - lo) / (hi - lo)
        mae_want, mse_want = mae_mse_direct(an, bn, fg)
        assert abs(row.mae - mae_want) <= 1e-6
        assert abs(row.mse - mse_want) <= 1e-6
        assert abs(row.psnr_db - 10 * math.log10(1 / mse_want)) <= 1e-6
        interior = np.zeros(dims, dtype=bool)
        interior[3:5, 3:5, 3:5] = True
        valid = interior & fg.reshape(dims, order="F")
        ssim_want = ssim_per_window(
            an.reshape(dims, order="F"), bn.reshape(dims, order="F"),
            valid, 7, 1e-4, 9e-4,
        )
        assert abs(row.ssim - ssim_want) <= 1e-6

    ident = VoxelGrid(dims, (1, 1, 1), rng.uniform(0.5, 3.0, n))
    row = paired_metrics(ident, ident)
    assert (row.mae, row.mse, row.ssim) == (0.0, 0.0, 1.0)
    assert math.isinf(row.psnr_db) and row.psnr_db > 0
    print("PASS reference-metric-oracles: 20 pairs within 1e-6; identity "
          "pair -> (0, 0, +inf, 1)")


def test_spearman_criteria():
    """Hand values exact; monotone-transform invariance exact on 100 random
    series; average-rank ties match the brute-force oracle for every series
    of length <= 5 over {0, 1, 2}."""
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman([1, 2, 3], [3, 2, 1]) == -1.0
    assert abs(spearman([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) <= 1e-15

    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        x = rng.permutation(n).astype(float)
        y = rng.integers(-50, 50, n).astype(float)
        try:
            base = spearman(x, y)
        except Exception:
            continue
        assert spearman(x ** 3 + 0.5 * x, y ** 3 + 0.5 * y) == base

    checked_series = 0
    for n in (1, 2, 3, 4, 5):
        for series in product((0.0, 1.0, 2.0), repeat=n):
            got = rank_average_ties(np.array(series))
            want = average_ranks_positional(series)
            assert list(got) == want, series
            checked_series += 1

    checked_pairs = 0
    for n in (3, 4):
        pool = list(product((0.0, 1.0, 2.0), repeat=n))
        for x in pool:
            for y in pool:
                if len(set(x)) < 2 or len(set(y)) < 2:
                    continue
                assert abs(spearman(x, y) - spearman_direct(x, y)) <= 1e-12
                checked_pairs += 1
    print(f"PASS spearman: hand cases exact, invariance exact, "
          f"{checked_series} rank vectors and {checked_pairs} tied pairs vs oracle")


def test_end_to_end_synthetic_pipeline(tmp_path, capsys):
    """synth(2 sites, 10 triplets, seed 42, 64^3) + quantile matching +
    evaluate: mean nwd_tp < 0.1, mean nwd_ip in (0.9, 1.1), AP exactly 1,
    byte-identical results across runs, < 60 s."""
    start = time.perf_counter()

    def one_run(tag):
        data = tmp_path / f"data_{tag}"
        results = tmp_path / f"results_{tag}.csv"
        assert run(["synth", "--out", str(data), "--sites", "2", "--n", "10",
                    "--seed", "42", "--size", "64"]) == 0
        assert run(["evaluate", "--manifest", str(data / "manifest.csv"),
                    "--out", str(results), "--report", "md"]) == 0
        return results

    first = one_run("one")
    second = one_run("two")
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    assert first.read_bytes() == second.read_bytes(), "results.csv not deterministic"

    assert run(["report", "--in", str(first), "--format", "json"]) == 0
    report_one = capsys.readouterr().out
    assert run(["report", "--in", str(second), "--format", "json"]) == 0
    report_two = capsys.readouterr().out
    assert report_one == report_two, "json report not deterministic"

    _, rows = read_results(first)
    assert len(rows) == 10
    assert all(r["status"] == "ok" for r in rows)
    nwd_tp = np.array([float(r["nwd_tp"]) for r in rows])
    nwd_ip = np.array([float(r["nwd_ip"]) for r in rows])
    ap = [float(r["ap"]) for r in rows]
    assert nwd_tp.mean() < 0.1
    assert 0.9 < nwd_ip.mean() < 1.1
    assert all(v == 1.0 for v in ap), "anatomy-neutral baseline must score exactly 1"
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
    print(f"PASS end-to-end-synthetic: mean nwd_tp {nwd_tp.mean():.4f}, "
          f"mean nwd_ip {nwd_ip.mean():.4f}, AP == 1, two runs byte-identical, "
          f"{elapsed:.1f}s")


def test_report_fidelity():
    """Markdown reproduces the published column order and the
    'x.xxx ± y.yyy' cell format for the literal (0.906, 0.038) fixture."""
    assert format_mean_std(0.906, 0.038) == "0.906 ± 0.038"

    rows = []
    for k in range(2):
        metrics = {"ssim": 0.6 + 0.01 * k, "psnr": 17.0 + k, "mae": 0.07, "mse": 0.02,
                   "nwd_ip": 0.906 + 0.038 * (2 * k - 1) * math.sqrt(0.5),
                   "nwd_tp": 0.087, "ap": 0.97}
        rows.append({"site_in": "A", "site_out": "B", "status": "ok",
                     **{m: repr(v) for m, v in metrics.items()}})
    tables = summarize(rows)
    got = tables[0].metrics["nwd_ip"]
    assert abs(got.mean - 0.906) < 1e-12
    assert abs(got.std - 0.038) < 1e-12
    text = emit_report(tables, "markdown").decode()
    lines = text.splitlines()
    assert lines[0] == "| | " + " | ".join(
        ["SSIM", "PSNR", "MAE", "MSE", "nWD(i,p)", "nWD(t,p)", "AP(i,p)"]
    ) + " |"
    assert "0.906 ± 0.038" in text
    assert tuple(METRIC_ORDER) == ("ssim", "psnr", "mae", "mse", "nwd_ip", "nwd_tp", "ap")
    print("PASS report-fidelity: column order and the literal '0.906 ± 0.038' cell")


def test_full_suite_runtime_on_128_cube():
    """Every metric on one 128^3 triplet in < 5 s single-threaded."""
    dims = (128, 128, 128)
    structures = (
        Sphere(1, (46.0, 64.0, 64.0), 20.0, 60.0, 6.0),
        Sphere(2, (90.0, 64.0, 64.0), 14.0, 100.0, 8.0),
    )
    t_b = SiteTransform(gain=1.6, bias=12.0, gamma=1.08)
    grid_i, seg = generate_phantom(PhantomSpec(dims, 1001, structures))
    grid_gt, _ = generate_phantom(PhantomSpec(dims, 1001, structures, site_transform=t_b))
    grid_t, _ = generate_phantom(PhantomSpec(dims, 1002, structures, site_transform=t_b))
    grid_p = histogram_match(grid_i, grid_t)
    policy = ForegroundPolicy()

    start = time.perf_counter()
    pair = nwd(
        extract_foreground(grid_i, policy),
        extract_foreground(grid_t, policy),
        extract_foreground(grid_p, policy),
    )
    verdict = classify(pair)
    ap_report = anatomy_preservation(seg, seg)
    ref = paired_metrics(grid_p, grid_gt, policy)
    elapsed = time.perf_counter() - start

    assert verdict is not Verdict.NO_HARMONIZATION
    assert ap_report.mean_ap == 1.0
    assert 0.0 <= ref.ssim <= 1.0
    assert elapsed < 5.0, f"metric suite took {elapsed:.2f}s"
    print(f"PASS runtime-128-cube: nwd + anatomy + reference in {elapsed:.2f}s")


def test_paper_claims_on_a_harmonization_ladder():
    """On a ladder of predictions input + a·(matched - input), a in
    {0, 0.25, ..., 1.5}, over four 48^3 anatomies: W1(input, pred_a) is
    a·W1(input, pred_1) to 4 ulps, every rung lands in its verdict band,
    and nWD(t,p) tracks the ground-truth metrics (Spearman >= 0.8 with
    MAE, <= -0.8 with SSIM). A prediction segmentation with one structure
    5% wider lowers AP and leaves the nWD pair bit-identical."""
    dims = (48, 48, 48)

    def spheres(scale_1=1.0, scale_2=1.0):
        return (
            Sphere(1, (17.28, 24.0, 24.0), 7.68 * scale_1, 60.0, 6.0),
            Sphere(2, (33.6, 24.0, 24.0), 5.28 * scale_2, 100.0, 8.0),
        )

    site_b = SiteTransform(gain=1.6, bias=12.0, gamma=1.08)
    policy = ForegroundPolicy()
    alphas = [0.25 * k for k in range(7)]
    bands = {0.0: Verdict.NO_HARMONIZATION, 1.0: Verdict.PERFECT,
             1.25: Verdict.OVER_CORRECTED, 1.5: Verdict.OVER_CORRECTED}
    start = time.perf_counter()
    nwd_tp, mae, ssim, worst_ulps = [], [], [], 0.0
    for k in range(4):
        grid_i, seg = generate_phantom(PhantomSpec(dims, 5001 + k, spheres()))
        grid_gt, _ = generate_phantom(PhantomSpec(dims, 5001 + k, spheres(), site_transform=site_b))
        grid_t, _ = generate_phantom(
            PhantomSpec(dims, 6001 + k, spheres(1.06, 1.06), site_transform=site_b)
        )
        matched = histogram_match(grid_i, grid_t, policy)
        d_i = extract_foreground(grid_i, policy)
        d_t = extract_foreground(grid_t, policy)
        pairs = {}
        for a in alphas:
            values = grid_i.values + a * (matched.values - grid_i.values)
            grid_p = VoxelGrid(dims, grid_i.spacing, values)
            pairs[a] = nwd(d_i, d_t, extract_foreground(grid_p, policy))
            assert classify(pairs[a]) is bands.get(a, Verdict.PARTIAL), (k, a, pairs[a])
            ref = paired_metrics(grid_p, grid_gt, policy)
            nwd_tp.append(pairs[a].nwd_tp)
            mae.append(ref.mae)
            ssim.append(ref.ssim)
        for a in alphas:
            want = a * pairs[1.0].wd_ip
            ulps = abs(pairs[a].wd_ip - want) / np.spacing(want)
            assert ulps <= 4, (k, a, pairs[a].wd_ip, want)
            worst_ulps = max(worst_ulps, ulps)

        # anatomy rung: pred_1's segmentation with structure 1 5% wider
        _, seg_wide = generate_phantom(PhantomSpec(dims, 5001 + k, spheres(1.05)))
        ap_same = anatomy_preservation(seg, seg).mean_ap
        ap_wide = anatomy_preservation(seg, seg_wide).mean_ap
        assert ap_wide < ap_same == 1.0
        grid_p1 = VoxelGrid(dims, grid_i.spacing, grid_i.values + (matched.values - grid_i.values))
        assert nwd(d_i, d_t, extract_foreground(grid_p1, policy)) == pairs[1.0]
    rho_mae, rho_ssim = spearman(nwd_tp, mae), spearman(nwd_tp, ssim)
    elapsed = time.perf_counter() - start
    assert rho_mae >= 0.8, rho_mae
    assert rho_ssim <= -0.8, rho_ssim
    print(f"PASS paper-claims-ladder: W1 linear in a to {worst_ulps:.0f} ulps, "
          f"every band hit, rho(nwd_tp, MAE) {rho_mae:.3f}, rho(nwd_tp, SSIM) {rho_ssim:.3f}, "
          f"AP {ap_wide:.4f} on the wider rung, {elapsed:.2f}s")


def test_nifti_corpus_round_trip_and_errors(tmp_path):
    """50-file corpus: valid files round-trip (plain, gzip, byte-swapped
    twins load identically), every malformed file maps to its typed error."""
    rng = np.random.default_rng(404)
    n_checked = 0

    # 15 plain + 5 gzipped valid files across all supported datatypes
    valid_specs = []
    for k in range(20):
        dims = tuple(int(d) for d in rng.integers(2, 7, 3))
        datatype = [2, 4, 8, 16, 64][k % 5]
        if datatype == 2:
            data = rng.integers(0, 255, dims).astype(np.uint8)
        elif datatype == 4:
            data = rng.integers(-300, 300, dims).astype(np.int16)
        elif datatype == 8:
            data = rng.integers(-70000, 70000, dims).astype(np.int32)
        elif datatype == 16:
            data = rng.uniform(-5, 5, dims).astype(np.float32)
        else:
            data = rng.uniform(-5, 5, dims)
        valid_specs.append((dims, datatype, data, k >= 15))

    for idx, (dims, datatype, data, gz) in enumerate(valid_specs):
        name = f"v{idx}.nii" + (".gz" if gz else "")
        blob = build_nifti(
            np.asfortranarray(data),
            dim=(3, *dims, 1, 1, 1, 1),
            datatype=datatype,
            gzipped=gz,
        )
        path = tmp_path / name
        path.write_bytes(blob)
        grid = load_volume(path)
        assert grid.dims == dims
        np.testing.assert_array_equal(
            grid.values, np.asarray(data, dtype=np.float64).ravel(order="F")
        )
        # writer round trip preserves everything float32 can carry
        rt = tmp_path / f"rt{idx}.nii"
        write_volume(grid, rt)
        back = load_volume(rt)
        np.testing.assert_allclose(back.values, grid.values, rtol=1e-6, atol=1e-3)
        n_checked += 1

    # 10 byte-swapped twins of fresh float32 volumes
    for idx in range(10):
        dims = tuple(int(d) for d in rng.integers(2, 7, 3))
        data = rng.uniform(-9, 9, dims).astype(np.float32)
        little = build_nifti(np.asfortranarray(data), dim=(3, *dims, 1, 1, 1, 1))
        le_path = tmp_path / f"le{idx}.nii"
        le_path.write_bytes(little)
        be_path = tmp_path / f"be{idx}.nii"
        be_path.write_bytes(byteswap_nifti(little, item_size=4))
        assert load_volume(be_path) == load_volume(le_path)
        n_checked += 1

    # 20 malformed files, each with one expected typed error
    base = np.ones((3, 3, 3), dtype=np.float32)
    malformed = [
        (b"", MalformedHeader),
        (b"\x00" * 300, MalformedHeader),
        (build_nifti(base, sizeof_hdr=0), MalformedHeader),
        (build_nifti(base, sizeof_hdr=999), MalformedHeader),  # wrong under both orders
        (build_nifti(base, magic=b"ni1\x00"), MalformedHeader),
        (build_nifti(base, magic=b"????"), MalformedHeader),
        (build_nifti(base, magic=b"\x00\x00\x00\x00"), MalformedHeader),
        (build_nifti(base, datatype=128), UnsupportedDatatype),
        (build_nifti(base, datatype=256), UnsupportedDatatype),
        (build_nifti(base, datatype=512), UnsupportedDatatype),
        (build_nifti(base, datatype=1536), UnsupportedDatatype),
        (build_nifti(base, bitpix=64), MalformedHeader),
        (build_nifti(base, truncate_data_to=20), TruncatedData),
        (build_nifti(base, truncate_data_to=0), TruncatedData),
        (build_nifti(base * np.nan), NonFiniteVoxel),
        (build_nifti(base * np.inf), NonFiniteVoxel),
        (build_nifti(base, pixdim=(1, 0, 1, 1)), MalformedHeader),
        (build_nifti(base, dim=(3, 3, -1, 3, 1, 1, 1, 1)), MalformedHeader),
        (build_nifti(base, dim=(0, 3, 3, 3, 1, 1, 1, 1)), MalformedHeader),
        (build_nifti(base, vox_offset=10.0), MalformedHeader),
    ]
    for idx, (blob, expected) in enumerate(malformed):
        path = tmp_path / f"bad{idx}.nii"
        path.write_bytes(blob)
        with pytest.raises(expected):
            load_volume(path)
        n_checked += 1

    assert n_checked == 50
    print(f"PASS nifti-corpus: {n_checked} files "
          f"(30 valid incl. gzip and byte-swap twins, 20 malformed -> typed errors)")
