"""harmbench command line: one executable, one subcommand per task.

Exit codes are stable: 0 success, 1 usage error, 2 data error. With
--json each subcommand writes exactly one JSON document to stdout
(non-finite floats are rendered as strings so the document stays valid
for strict parsers).

Flags are the only source of settings; a flag left unset keeps the
built-in default. Every setting is validated once, before any volume
is read, and a bad value is a usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__
from .anatomy import anatomy_preservation
from .distribution import ForegroundPolicy
from .harness import (
    _RECORD_ERRORS,
    EvalConfig,
    TripletRecord,
    _label_counts,
    _labels,
    _single_channel,
    _status,
    emit_report,
    evaluate_all,
    load_manifest,
    read_results,
    row_cells,
    series_from_rows,
    summarize,
    write_rows_csv,
)
from .nifti import load_volume
from .reference import SsimParams, paired_metrics
from .stats import correlation_matrix
from .synth import write_synthetic_dataset


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this tool keeps 2
    for data errors, so usage errors exit 1. Flags must be spelled in
    full, so a removed or mistyped flag is an error rather than a prefix
    of another one (``--work`` is not ``--workers``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """A setting no run can use."""


def _json_safe(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _print_json(payload: dict) -> None:
    print(json.dumps(_json_safe(payload)))


def _print_pairs(pairs: list[tuple[str, object]]) -> None:
    for key, value in pairs:
        print(f"{key}\t{value if isinstance(value, str) else repr(value)}")


def _add_fg_flags(p: argparse.ArgumentParser) -> None:
    # a mask replaces the threshold, so the two are never given together
    g = p.add_mutually_exclusive_group()
    g.add_argument(
        "--bg-threshold",
        type=float,
        help="foreground keeps intensities strictly above this (default 0)",
    )
    g.add_argument("--fg-mask", type=Path, default=None,
                   help="label volume; nonzero voxels are foreground")


def _add_wd_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float)


def label_legend(spec: str) -> dict[int, str] | None:
    """``--labels`` value such as ``1=GM,2=WM``; a bare label is named
    ``label-<k>``. Each label is at least 1 and given once, and no two
    labels share a name."""
    if not spec:
        return None
    legend = {}
    for item in spec.split(","):
        key, _, name = item.partition("=")
        label = int(key)
        name = name.strip() or f"label-{label}"
        if label < 1:
            raise argparse.ArgumentTypeError(f"label {label} is below 1")
        if label in legend:
            raise argparse.ArgumentTypeError(f"label {label} is given twice")
        if name in legend.values():
            raise argparse.ArgumentTypeError(f"name {name!r} is given to two labels")
        legend[label] = name
    return legend


def _out_file(text: str) -> Path:
    """``evaluate --out``: a file in an existing directory. Checked as the
    flags are parsed, so before the --fg-mask volume or the manifest is
    read."""
    path = Path(text)
    if path.is_dir() or not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"{path}: not a file in an existing directory")
    return path


def _add_ap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weighted", dest="weighted_ap", action="store_true",
                   help="weight the mean by input volume (not the reporting default)")


def _add_ssim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, help="SSIM cubic window edge")
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)


def _config(ns) -> EvalConfig:
    """The run's one EvalConfig, from whichever of its flags the
    subcommand has; a flag left unset (None) keeps the built-in default.
    Settings are checked before the --fg-mask volume is read; a bad one
    raises _UsageError."""
    given = {k: v for k, v in vars(ns).items() if v is not None}
    fields = {f.name: given[f.name] for f in dataclasses.fields(EvalConfig) if f.name in given}
    try:
        if "bg_threshold" in given:
            fields["policy"] = ForegroundPolicy(threshold=given["bg_threshold"])
        fields["ssim"] = SsimParams(**{k: given[k] for k in ("window", "k1", "k2") if k in given})
        config = EvalConfig(**fields)
    except ValueError as exc:
        raise _UsageError(exc) from exc
    if given.get("fg_mask"):
        mask = _labels(ns.fg_mask)
        policy = dataclasses.replace(config.policy, mask=mask)
        config = dataclasses.replace(config, policy=policy)
    return config


# ------------------------------------------------------------- subcommands


def _cmd_wd(ns, config: EvalConfig) -> int:
    """A one-row ``evaluate``: the triplet takes the harness's record
    path, and a failed row's status is the one stderr line."""
    record = TripletRecord(
        id="wd", input_path=ns.input, target_path=ns.target, pred_path=ns.pred,
        site_in="", site_out="",
    )
    (row,) = evaluate_all([record], config)
    if not row.ok:
        print(row.status, file=sys.stderr)
        return 2
    pair = row.wd
    fields = [
        ("wd_ip", pair.wd_ip),
        ("wd_tp", pair.wd_tp),
        ("wd_it", pair.wd_it),
        ("nwd_ip", pair.nwd_ip),
        ("nwd_tp", pair.nwd_tp),
        ("verdict", row.verdict.value),
    ]
    if ns.json:
        _print_json(dict(fields))
    else:
        _print_pairs(fields)
    return 0


def _cmd_ap(ns, config: EvalConfig) -> int:
    legend = ns.labels
    segs = []
    for path in (ns.seg_input, ns.seg_pred):
        segs.append(_label_counts(path))
        unnamed = [k for k in segs[-1].voxel_counts if legend and k not in legend]
        if unnamed:
            raise ValueError(f"labels {unnamed} present in volume but absent from legend")
    report = anatomy_preservation(*segs, weighted=config.weighted_ap)
    per_structure = {
        legend[k] if legend else f"label-{k}": ap for k, ap in report.per_structure.items()
    }
    if ns.json:
        _print_json({"per_structure": per_structure, "mean_ap": report.mean_ap})
    else:
        _print_pairs([*per_structure.items(), ("mean_ap", report.mean_ap)])
    return 0


def _cmd_refmetrics(ns, config: EvalConfig) -> int:
    pred, gt = (_single_channel(load_volume(path), path, None) for path in (ns.pred, ns.gt))
    row = paired_metrics(pred, gt, config.policy, config.ssim)
    fields = [("ssim", row.ssim), ("psnr", row.psnr_db), ("mae", row.mae), ("mse", row.mse)]
    if ns.json:
        _print_json(dict(fields))
    else:
        _print_pairs(fields)
    return 0


def _cmd_corr(ns, config: EvalConfig) -> int:
    _, raw = read_results(ns.in_path)
    row_names = [s.strip() for s in ns.rows.split(",") if s.strip()]
    col_names = [s.strip() for s in ns.cols.split(",") if s.strip()]
    # a file without rows is a data error, whatever names are asked for
    unknown = [n for n in dict.fromkeys(row_names + col_names) if raw and n not in raw[0]]
    if unknown:
        raise _UsageError(f"not a column of {ns.in_path}: {', '.join(unknown)}")
    matrix = correlation_matrix(
        {name: series_from_rows(raw, name) for name in row_names},
        {name: series_from_rows(raw, name) for name in col_names},
    )
    if ns.json:
        _print_json({
            "rows": list(matrix.row_names),
            "cols": list(matrix.col_names),
            "rho": [[v for v in r] for r in matrix.rho.tolist()],
        })
    else:
        print("\t" + "\t".join(matrix.col_names))
        for name, r in zip(matrix.row_names, matrix.rho):
            print(name + "\t" + "\t".join(f"{v:.3f}" for v in r))
    return 0


def _cmd_evaluate(ns, config: EvalConfig) -> int:
    records = load_manifest(ns.manifest)
    meta = {"version": __version__, **config.to_meta()}
    if ns.fg_mask:
        meta["fg_mask"] = str(ns.fg_mask)
    rows = evaluate_all(records, config)
    if ns.out:
        write_rows_csv(rows, ns.out, meta)
    if not any(row.ok for row in rows):
        print(f"error: all {len(rows)} records failed; first: {rows[0].status}", file=sys.stderr)
        return 2
    tables = summarize(map(row_cells, rows), ns.group_by)
    fmt = "json" if ns.json else ns.report
    sys.stdout.buffer.write(emit_report(tables, fmt, meta))
    sys.stdout.buffer.flush()
    return 0


def _cmd_synth(ns, config: EvalConfig) -> int:
    try:
        manifest = write_synthetic_dataset(
            ns.out, sites=ns.sites, n=ns.n, seed=ns.seed, size=ns.size
        )
    except ValueError as exc:  # raised before --out is created
        raise _UsageError(exc) from exc
    if ns.json:
        _print_json({"manifest": str(manifest)})
    else:
        print(manifest)
    return 0


def _cmd_report(ns, config: EvalConfig) -> int:
    meta, rows = read_results(ns.in_path)
    tables = summarize(rows, ns.group_by)
    fmt = "json" if ns.json else ns.format
    sys.stdout.buffer.write(emit_report(tables, fmt, {"version": __version__, **meta}))
    sys.stdout.buffer.flush()
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="harmbench", description=__doc__)
    parser.add_argument("--version", action="version", version=f"harmbench {__version__}")
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit one JSON document")

    p = sub.add_parser("wd", help="normalized Wasserstein metrics for one triplet")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--target", type=Path, required=True)
    p.add_argument("--pred", type=Path, required=True)
    _add_fg_flags(p)
    _add_wd_flags(p)
    common(p)
    p.set_defaults(func=_cmd_wd)

    p = sub.add_parser("ap", help="anatomy preservation from two segmentations")
    p.add_argument("--seg-input", type=Path, required=True)
    p.add_argument("--seg-pred", type=Path, required=True)
    p.add_argument("--labels", type=label_legend, default=None,
                   help="structure names to print, e.g. 1=GM,2=WM")
    _add_ap_flags(p)
    common(p)
    p.set_defaults(func=_cmd_ap)

    p = sub.add_parser("refmetrics", help="MAE/MSE/PSNR/SSIM against a ground truth")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--gt", type=Path, required=True)
    _add_fg_flags(p)
    _add_ssim_flags(p)
    common(p)
    p.set_defaults(func=_cmd_refmetrics)

    p = sub.add_parser("corr", help="rank correlation between result columns")
    p.add_argument("--in", dest="in_path", type=Path, required=True)
    p.add_argument("--rows", default="nwd_ip,nwd_tp,ap")
    p.add_argument("--cols", default="ssim,psnr,mae,mse")
    common(p)
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("evaluate", help="run every metric over a manifest")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=_out_file, default=None, help="per-row results CSV")
    p.add_argument("--report", choices=["md", "markdown", "csv", "json"], default="md")
    p.add_argument("--group-by", choices=["direction", "site_out"], default="direction")
    p.add_argument("--workers", type=int)
    _add_ap_flags(p)
    _add_fg_flags(p)
    _add_wd_flags(p)
    _add_ssim_flags(p)
    common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth", help="write a deterministic phantom dataset")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--sites", type=int, default=2)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--size", type=int, default=64, help="cubic volume edge, voxels")
    common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="summarize an existing results CSV")
    p.add_argument("--in", dest="in_path", type=Path, required=True)
    p.add_argument("--format", choices=["md", "markdown", "csv", "json"], default="md")
    p.add_argument("--group-by", choices=["direction", "site_out"], default="direction")
    common(p)
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Dispatch; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    if ns.func is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return ns.func(ns, _config(ns))
    except _UsageError as exc:
        print(f"{parser.prog} {ns.cmd}: error: {exc}", file=sys.stderr)
        return 1
    except _RECORD_ERRORS as exc:
        print(_status(exc), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
