"""Manifest-driven batch evaluation and site-wise reporting.

A manifest names one (input, target, prediction) triplet per row, plus
optional ground truth and segmentations. Every record is evaluated
independently; a record that fails keeps its error in the row's status
instead of aborting the batch, so one corrupt file in a clinical dump
costs one row. Summaries aggregate each metric per group (by default
the site direction, e.g. "A→B") as mean ± sample std with the finite
count and sentinel count carried alongside.
"""
from __future__ import annotations

import copy
import csv
import io
import json
import os
import threading
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .anatomy import ApReport, anatomy_preservation, as_label_volume
from .distribution import (
    DEFAULT_BINS,
    DEFAULT_EXACT_CAP,
    ForegroundPolicy,
    WdMode,
    coarsen_jointly,
    extract_foreground,
)
from .errors import (
    DuplicateId,
    HarmbenchError,
    MissingColumn,
    NoSuccessfulRows,
    UnreadableFile,
    UnsupportedFormat,
)
from .nifti import load_volume
from .reference import PairedMetricRow, SsimParams, paired_metrics
from .stats import MetricSeries, mean_std, sentinel_count
from .volume import LabelVolume, VoxelGrid
from .wasserstein import (
    DEFAULT_VERDICT_TOL,
    HarmonizationVerdict,
    WdPair,
    classify,
    nwd,
)

REQUIRED_COLUMNS = ("id", "input_path", "target_path", "pred_path", "site_in", "site_out")
OPTIONAL_COLUMNS = ("gt_path", "seg_input_path", "seg_pred_path", "channel")

METRIC_ORDER = ("ssim", "psnr", "mae", "mse", "nwd_ip", "nwd_tp", "ap")
DISPLAY_NAMES = {
    "ssim": "SSIM",
    "psnr": "PSNR",
    "mae": "MAE",
    "mse": "MSE",
    "nwd_ip": "nWD(i,p)",
    "nwd_tp": "nWD(t,p)",
    "ap": "AP(i,p)",
}

# What one record may fail with; anything else aborts the batch.
_RECORD_ERRORS = (HarmbenchError, OSError, ValueError)

ROW_COLUMNS = (
    "id", "channel", "site_in", "site_out", "status",
    "wd_it", "wd_ip", "wd_tp", "nwd_ip", "nwd_tp", "verdict",
    "ap", "ssim", "psnr", "mae", "mse",
)


@dataclass(frozen=True)
class TripletRecord:
    """One evaluation unit from the manifest."""

    id: str
    input_path: Path
    target_path: Path
    pred_path: Path
    site_in: str
    site_out: str
    gt_path: Path | None = None
    seg_input_path: Path | None = None
    seg_pred_path: Path | None = None
    channel: int | None = None


@dataclass(frozen=True)
class EvalConfig:
    """Every knob the batch evaluation honors, validated on construction."""

    policy: ForegroundPolicy = ForegroundPolicy()
    bins: int = DEFAULT_BINS
    exact_cap: int = DEFAULT_EXACT_CAP
    wd_mode: WdMode = "auto"
    tol: float = DEFAULT_VERDICT_TOL
    ssim: SsimParams = SsimParams()
    labels: dict[int, str] | None = None
    weighted_ap: bool = False
    workers: int = 1

    def __post_init__(self):
        for name in ("bins", "exact_cap", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.wd_mode not in ("auto", "exact", "binned"):
            raise ValueError(f"unknown wd mode {self.wd_mode!r}")
        if not 0.0 < self.tol < 0.5:
            raise ValueError(f"tol must be in (0, 0.5), got {self.tol!r}")

    def to_meta(self) -> dict:
        """The metric-affecting settings; ``workers`` changes no value and
        is left out so results files compare equal across worker counts."""
        return {
            "foreground": "threshold" if self.policy.mask is None else "explicit-mask",
            "bg_threshold": self.policy.threshold,
            "bins": self.bins,
            "exact_cap": self.exact_cap,
            "wd_mode": self.wd_mode,
            "tol": self.tol,
            "ssim_window": self.ssim.window,
            "ssim_k1": self.ssim.k1,
            "ssim_k2": self.ssim.k2,
            "labels": "" if self.labels is None else
                      ",".join(f"{k}={v}" for k, v in sorted(self.labels.items())),
            "weighted_ap": self.weighted_ap,
        }


@dataclass(frozen=True)
class EvaluationRow:
    """Everything measured for one record; absent pieces were absent inputs."""

    id: str
    site_in: str
    site_out: str
    channel: int | None
    status: str
    wd: WdPair | None = None
    verdict: HarmonizationVerdict | None = None
    ap: ApReport | None = None
    reference: PairedMetricRow | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# ----------------------------------------------------------------- manifest


def _record_from_dict(raw: dict, base: Path, where: str) -> TripletRecord:
    def get(key: str) -> str | None:
        v = raw.get(key)
        if v is None:
            return None
        v = str(v).strip()
        return v or None

    for key in REQUIRED_COLUMNS:
        if get(key) is None:
            raise MissingColumn(f"{where}: required field {key!r} is missing or empty")

    def path_of(key: str) -> Path | None:
        v = get(key)
        if v is None:
            return None
        p = Path(v)
        return p if p.is_absolute() else base / p

    channel_raw = get("channel")
    if channel_raw is None:
        channel = None
    else:
        try:
            channel = int(channel_raw)
        except ValueError as exc:
            raise UnreadableFile(f"{where}: channel must be an integer, got {channel_raw!r}") from exc

    return TripletRecord(
        id=get("id"),
        input_path=path_of("input_path"),
        target_path=path_of("target_path"),
        pred_path=path_of("pred_path"),
        site_in=get("site_in"),
        site_out=get("site_out"),
        gt_path=path_of("gt_path"),
        seg_input_path=path_of("seg_input_path"),
        seg_pred_path=path_of("seg_pred_path"),
        channel=channel,
    )


def load_manifest(path: str | Path) -> list[TripletRecord]:
    """Read a CSV (with header) or JSON-array manifest.

    Relative paths are resolved against the manifest's directory, and
    records are keyed by (id, channel) so a multichannel dataset lists
    one row per channel.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc

    if path.suffix.lower() == ".json" or text.lstrip()[:1] == "[":
        try:
            items = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UnreadableFile(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
            raise UnreadableFile(f"{path}: JSON manifest must be an array of objects")
        dicts = items
    else:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None:
            raise MissingColumn(f"{path}: manifest is empty")
        missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise MissingColumn(f"{path}: missing column(s) {', '.join(missing)}")
        dicts = list(reader)

    records: list[TripletRecord] = []
    seen: set[tuple[str, int | None]] = set()
    for i, raw in enumerate(dicts):
        rec = _record_from_dict(raw, path.parent, where=f"{path} record {i}")
        key = (rec.id, rec.channel)
        if key in seen:
            raise DuplicateId(f"{path}: duplicate id {rec.id!r} (channel {rec.channel})")
        seen.add(key)
        records.append(rec)
    return records


# --------------------------------------------------------------- evaluation


def _single_channel(grid: VoxelGrid, path: Path, channel: int | None) -> VoxelGrid:
    if channel is not None:
        return grid.channel(channel)
    if grid.channel_count != 1:
        raise ValueError(
            f"{path} has {grid.channel_count} channels; manifest rows must set 'channel'"
        )
    return grid


def load_segmentation(path: Path, config: EvalConfig) -> LabelVolume:
    """The segmentation in ``path``, named by ``config.labels``."""
    return as_label_volume(load_volume(path), config.labels)


def intensity_metrics(
    grids: Iterable[VoxelGrid], config: EvalConfig
) -> tuple[WdPair, HarmonizationVerdict]:
    """Normalized Wasserstein pair and verdict of (input, target, prediction)."""
    dists = tuple(extract_foreground(g, config.policy) for g in grids)
    d_i, d_t, d_p = coarsen_jointly(
        dists, bins=config.bins, exact_cap=config.exact_cap, mode=config.wd_mode
    )
    pair = nwd(d_i, d_t, d_p)
    return pair, classify(pair, config.tol)


def anatomy_metrics(seg_input: LabelVolume, seg_pred: LabelVolume, config: EvalConfig) -> ApReport:
    """Anatomy preservation between the input's and the prediction's segmentation."""
    return anatomy_preservation(seg_input, seg_pred, weighted=config.weighted_ap)


class _SharedFiles:
    """One run's reads of the files its manifest names more than once.

    What a record takes from a file is a product: the loaded grid for an
    intensity column, the label volume for a ``seg_*`` column. A product
    named more than once is made once, by the first record that asks,
    while the others wait for it, and is dropped after the last record
    naming it finishes. A failure is kept and raised to every one of
    them, so they all get the same status. A product named once is made
    by its record as if there were no memo.
    """

    def __init__(self, records: Sequence[TripletRecord], config: EvalConfig):
        self._config = config
        uses = Counter()
        # Each product is made from the spelling of its path in the first
        # row naming it, so error messages do not depend on thread timing.
        self._path: dict[tuple[str, str], Path] = {}
        for rec in records:
            for key, path in self._named(rec):
                uses[key] += 1
                self._path.setdefault(key, path)
        self._left = {key: n for key, n in uses.items() if n > 1}
        self._made: dict[tuple[str, str], Future] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _named(rec: TripletRecord):
        """((kind, resolved path), path) of every file ``rec`` names."""
        for kind, paths in (
            ("grid", (rec.input_path, rec.target_path, rec.pred_path, rec.gt_path)),
            ("seg", (rec.seg_input_path, rec.seg_pred_path)),
        ):
            for path in paths:
                if path is not None:
                    yield (kind, os.path.realpath(path)), path

    def grid(self, path: Path) -> VoxelGrid:
        return self._get("grid", path, load_volume)

    def segmentation(self, path: Path) -> LabelVolume:
        return self._get("seg", path, lambda p: load_segmentation(p, self._config))

    def _get(self, kind: str, path: Path, make):
        key = (kind, os.path.realpath(path))
        with self._lock:
            if key not in self._left:
                future = None
            else:
                owner = key not in self._made
                future = self._made.setdefault(key, Future())
        if future is None:
            return make(path)
        if owner:
            try:
                future.set_result(make(self._path[key]))
            except _RECORD_ERRORS as exc:
                # Kept without its frames, which hold the file's bytes.
                future.set_exception(exc.with_traceback(None))
            except BaseException as exc:
                future.set_exception(exc)
                raise
        try:
            return future.result()
        except _RECORD_ERRORS as exc:
            # A copy each time: raising one instance again and again would
            # chain every record's frames onto its traceback.
            raise copy.copy(exc) from None

    def release(self, rec: TripletRecord) -> None:
        """Count off ``rec``'s uses, dropping each product after its last."""
        with self._lock:
            for key, _ in self._named(rec):
                if key in self._left:
                    self._left[key] -= 1
                    if not self._left[key]:
                        del self._left[key]
                        self._made.pop(key, None)


def _evaluate_record(rec: TripletRecord, config: EvalConfig, files: _SharedFiles) -> EvaluationRow:
    key = {"id": rec.id, "site_in": rec.site_in, "site_out": rec.site_out, "channel": rec.channel}
    try:
        grids = tuple(
            _single_channel(files.grid(path), path, rec.channel)
            for path in (rec.input_path, rec.target_path, rec.pred_path)
        )
        pair, verdict = intensity_metrics(grids, config)
        grid_p = grids[2]
        del grids  # input and target are not needed past this point

        ap = None
        if rec.seg_input_path or rec.seg_pred_path:
            if not (rec.seg_input_path and rec.seg_pred_path):
                raise ValueError("seg_input_path and seg_pred_path must both be set")
            ap = anatomy_metrics(
                files.segmentation(rec.seg_input_path),
                files.segmentation(rec.seg_pred_path),
                config,
            )

        reference = None
        if rec.gt_path:
            grid_gt = _single_channel(files.grid(rec.gt_path), rec.gt_path, rec.channel)
            reference = paired_metrics(grid_p, grid_gt, config.policy, config.ssim)

        return EvaluationRow(
            **key, status="ok", wd=pair, verdict=verdict, ap=ap, reference=reference
        )
    except _RECORD_ERRORS as exc:
        return EvaluationRow(**key, status=f"error: {type(exc).__name__}: {exc}")


def evaluate_all(records: Sequence[TripletRecord], config: EvalConfig = EvalConfig()) -> list[EvaluationRow]:
    """Evaluate every record on ``config.workers`` threads; row order
    follows the manifest. A file named by several rows is read once.

    Per-record failures land in the row status. Raises
    :class:`NoSuccessfulRows` (carrying the failed rows) only when every
    single record failed.
    """
    files = _SharedFiles(records, config)

    def run(rec: TripletRecord) -> EvaluationRow:
        try:
            return _evaluate_record(rec, config, files)
        finally:
            files.release(rec)

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        rows = list(pool.map(run, records))
    if records and not any(r.ok for r in rows):
        raise NoSuccessfulRows(
            f"all {len(rows)} records failed; first: {rows[0].status}", rows=rows
        )
    return rows


def metric_values(row: EvaluationRow) -> dict[str, float]:
    """Flat metric dict for one successful row, in report column order."""
    out: dict[str, float] = {}
    if row.reference is not None:
        out["ssim"] = row.reference.ssim
        out["psnr"] = row.reference.psnr_db
        out["mae"] = row.reference.mae
        out["mse"] = row.reference.mse
    if row.wd is not None:
        out["nwd_ip"] = row.wd.nwd_ip
        out["nwd_tp"] = row.wd.nwd_tp
    if row.ap is not None:
        out["ap"] = row.ap.mean_ap
    return out


# ---------------------------------------------------------------- summaries


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate of one metric in one group; mean/std are None when every
    contribution was a sentinel."""

    mean: float | None
    std: float | None
    n: int
    sentinel_count: int


@dataclass(frozen=True, eq=False)
class SummaryTable:
    group: str
    metrics: dict[str, MetricSummary]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SummaryTable):
            return NotImplemented
        return self.group == other.group and self.metrics == other.metrics


def summarize_groups(
    groups: Iterable[tuple[str, dict[str, float]]]
) -> list[SummaryTable]:
    """Aggregate (group, metric dict) pairs into per-group tables."""
    by_group: dict[str, list[dict[str, float]]] = {}
    for key, metrics in groups:
        by_group.setdefault(key, []).append(metrics)
    tables = []
    for key in sorted(by_group):
        columns: dict[str, MetricSummary] = {}
        for metric in METRIC_ORDER:
            values = [m[metric] for m in by_group[key] if metric in m]
            if not values:
                continue
            series = MetricSeries(metric, values)
            sentinels = sentinel_count(series)
            if sentinels == len(values):
                columns[metric] = MetricSummary(None, None, 0, sentinels)
            else:
                mean, std = mean_std(series)
                columns[metric] = MetricSummary(mean, std, len(values) - sentinels, sentinels)
        tables.append(SummaryTable(group=key, metrics=columns))
    return tables


def group_key(site_in: str, site_out: str, group_by: str = "direction") -> str:
    """The summary group of one row: its site direction or its target site."""
    if group_by == "direction":
        return f"{site_in}→{site_out}"
    if group_by == "site_out":
        return site_out
    raise ValueError(f"group_by must be 'direction' or 'site_out', got {group_by!r}")


def summarize(rows: Sequence[EvaluationRow], group_by: str = "direction") -> list[SummaryTable]:
    """Mean ± std per metric per group over the successful rows."""
    ok = [r for r in rows if r.ok]
    if not ok:
        raise NoSuccessfulRows("no successful rows to summarize")
    return summarize_groups(
        (group_key(r.site_in, r.site_out, group_by), metric_values(r)) for r in ok
    )


# ------------------------------------------------------------------ reports


def format_mean_std(mean: float, std: float) -> str:
    """The table cell convention: three decimals, '±' separated."""
    return f"{mean:.3f} ± {std:.3f}"


def _meta_lines(meta: dict | None, prefix: str) -> list[str]:
    if not meta:
        return []
    return [f"{prefix} {k}: {meta[k]}" for k in meta]


def emit_report(
    tables: Sequence[SummaryTable],
    fmt: str = "markdown",
    meta: dict | None = None,
) -> bytes:
    """Render summary tables as markdown, csv, or json bytes.

    Markdown mirrors the site-wise results layout (SSIM, PSNR, MAE, MSE,
    nWD(i,p), nWD(t,p), AP(i,p); absent metrics omitted) with 3-decimal
    cells; csv and json keep full float precision plus the n and
    sentinel counts.
    """
    if not tables:
        raise ValueError("no tables to report")
    if fmt in ("markdown", "md"):
        present = [m for m in METRIC_ORDER if any(m in t.metrics for t in tables)]
        lines = _meta_lines(meta, "<!--")
        if lines:
            lines = [line + " -->" for line in lines]
        lines.append("| | " + " | ".join(DISPLAY_NAMES[m] for m in present) + " |")
        lines.append("|" + " --- |" * (len(present) + 1))
        for t in tables:
            cells = []
            for m in present:
                s = t.metrics.get(m)
                if s is None or s.n == 0:
                    cells.append("n/a")
                else:
                    cells.append(format_mean_std(s.mean, s.std))
            lines.append(f"| {t.group} | " + " | ".join(cells) + " |")
        return ("\n".join(lines) + "\n").encode("utf-8")

    if fmt == "csv":
        buf = io.StringIO()
        for line in _meta_lines(meta, "#"):
            buf.write(line + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["group", "metric", "mean", "std", "n", "sentinel_count"])
        for t in tables:
            for m, s in t.metrics.items():
                writer.writerow([
                    t.group, m,
                    "" if s.mean is None else repr(s.mean),
                    "" if s.std is None else repr(s.std),
                    s.n, s.sentinel_count,
                ])
        return buf.getvalue().encode("utf-8")

    if fmt == "json":
        doc = {
            "meta": meta or {},
            "groups": [
                {
                    "group": t.group,
                    "metrics": {
                        m: {
                            "mean": s.mean,
                            "std": s.std,
                            "n": s.n,
                            "sentinel_count": s.sentinel_count,
                        }
                        for m, s in t.metrics.items()
                    },
                }
                for t in tables
            ],
        }
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")

    raise UnsupportedFormat(f"unknown report format {fmt!r}")


def parse_report_json(data: bytes | str) -> list[SummaryTable]:
    """Inverse of the json report; round-trips exactly."""
    doc = json.loads(data)
    return [
        SummaryTable(
            group=g["group"],
            metrics={
                m: MetricSummary(
                    mean=s["mean"], std=s["std"], n=s["n"], sentinel_count=s["sentinel_count"]
                )
                for m, s in g["metrics"].items()
            },
        )
        for g in doc["groups"]
    ]


# ------------------------------------------------------------ row persistence


def _fmt_opt(v: float | int | None) -> str:
    if v is None:
        return ""
    return repr(float(v))


def rows_to_csv_bytes(rows: Sequence[EvaluationRow], meta: dict | None = None) -> bytes:
    """Loss-free per-row CSV; byte-identical for identical inputs."""
    buf = io.StringIO()
    for line in _meta_lines(meta, "#"):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROW_COLUMNS)
    for r in rows:
        m = metric_values(r)
        writer.writerow([
            r.id,
            "" if r.channel is None else r.channel,
            r.site_in,
            r.site_out,
            r.status,
            _fmt_opt(r.wd.wd_it if r.wd else None),
            _fmt_opt(r.wd.wd_ip if r.wd else None),
            _fmt_opt(r.wd.wd_tp if r.wd else None),
            _fmt_opt(m.get("nwd_ip")),
            _fmt_opt(m.get("nwd_tp")),
            r.verdict.kind.value if r.verdict else "",
            _fmt_opt(m.get("ap")),
            _fmt_opt(m.get("ssim")),
            _fmt_opt(m.get("psnr")),
            _fmt_opt(m.get("mae")),
            _fmt_opt(m.get("mse")),
        ])
    return buf.getvalue().encode("utf-8")


def write_rows_csv(rows: Sequence[EvaluationRow], path: str | Path, meta: dict | None = None) -> None:
    Path(path).write_bytes(rows_to_csv_bytes(rows, meta))


def read_meta(path: str | Path) -> dict:
    """The ``# key: value`` lines heading a results CSV. The settings of
    ``EvalConfig.to_meta`` get back the types they were written with;
    any other value stays text."""
    types = {k: type(v) for k, v in EvalConfig().to_meta().items()}
    meta = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            break
        key, _, value = line[1:].partition(":")
        key, value = key.strip(), value.strip()
        kind = types.get(key, str)
        meta[key] = value == "True" if kind is bool else kind(value)
    return meta


def read_rows_csv(path: str | Path) -> list[dict[str, str]]:
    """Read a per-row results CSV back as raw string dicts."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def series_from_rows(
    raw_rows: Sequence[dict[str, str]], name: str
) -> MetricSeries:
    """Metric column of a results CSV as a series; blanks become NaN so
    they pair-drop in correlations."""
    values = []
    for row in raw_rows:
        cell = (row.get(name) or "").strip()
        values.append(float(cell) if cell else float("nan"))
    return MetricSeries(name, values)
