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

import csv
import io
import json
import os
import threading
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .anatomy import ApReport, anatomy_preservation, as_label_volume
from .distribution import ForegroundPolicy, extract_foreground
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
from .stats import mean_std, sentinel_count
from .volume import LabelVolume, VoxelGrid
from .wasserstein import DEFAULT_VERDICT_TOL, Verdict, WdPair, classify, nwd

REQUIRED_COLUMNS = ("id", "input_path", "target_path", "pred_path", "site_in", "site_out")

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

# What one record may fail with; anything else aborts the batch. The CLI
# exits 2 (data error) on the same set.
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
    tol: float = DEFAULT_VERDICT_TOL
    ssim: SsimParams = SsimParams()
    weighted_ap: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 < self.tol < 0.5:
            raise ValueError(f"tol must be in (0, 0.5), got {self.tol!r}")

    def to_meta(self) -> dict:
        """The metric-affecting settings; ``workers`` changes no value and
        is left out so results files compare equal across worker counts."""
        return {
            "foreground": "threshold" if self.policy.mask is None else "explicit-mask",
            "bg_threshold": self.policy.threshold,
            "tol": self.tol,
            "ssim_window": self.ssim.window,
            "ssim_k1": self.ssim.k1,
            "ssim_k2": self.ssim.k2,
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
    verdict: Verdict | None = None
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
    if (get("seg_input_path") is None) != (get("seg_pred_path") is None):
        raise MissingColumn(f"{where}: seg_input_path and seg_pred_path must both be set or both empty")

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
            if channel < 0:
                raise ValueError(channel)
        except ValueError as exc:
            raise UnreadableFile(f"{where}: channel must be a non-negative integer, got {channel_raw!r}") from exc

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
    """Read a CSV (with header) or JSON-array manifest of at least one row.

    Relative paths are resolved against the manifest's directory, and
    records are keyed by (id, channel) so a multichannel dataset lists
    one row per channel.
    """
    path = Path(path)
    try:
        # utf-8-sig drops the byte-order mark Excel's "CSV UTF-8" writes
        text = path.read_text(encoding="utf-8-sig")
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
        # a file without a header has no rows either, and is reported as such
        missing = [c for c in REQUIRED_COLUMNS if c not in (reader.fieldnames or REQUIRED_COLUMNS)]
        if missing:
            raise MissingColumn(f"{path}: missing column(s) {', '.join(missing)}")
        dicts = list(reader)
    if not dicts:
        raise MissingColumn(f"{path}: manifest is empty")

    records: list[TripletRecord] = []
    seen: set[tuple[str, int | None]] = set()
    for i, raw in enumerate(dicts):
        rec = _record_from_dict(raw, path.parent, where=f"{path}: record {i}")
        key = (rec.id, rec.channel)
        if key in seen:
            raise DuplicateId(f"{path}: duplicate id {rec.id!r} (channel {rec.channel})")
        seen.add(key)
        records.append(rec)
    return records


# --------------------------------------------------------------- evaluation


def _single_channel(loaded: VoxelGrid | tuple[VoxelGrid, ...], path: Path, channel: int | None) -> VoxelGrid:
    """Channel ``channel`` of the intensity file ``path``, as ``load_volume``
    gave it; a file of several channels needs one named. Either failure
    names the file."""
    channels = loaded if isinstance(loaded, tuple) else (loaded,)
    if channel is None and len(channels) > 1:
        raise ValueError(
            f"{path} has {len(channels)} channels; score each with evaluate, "
            "one manifest row per 'channel'"
        )
    if (channel or 0) >= len(channels):
        raise ValueError(f"channel {channel} out of range for {len(channels)}-channel file {path}")
    return channels[channel or 0]


def _labels(path: Path) -> LabelVolume:
    """The label volume of the segmentation or mask file ``path``, which
    must have one channel: no column selects a channel of it."""
    loaded = load_volume(path)
    if isinstance(loaded, tuple):
        raise ValueError(f"{path} has {len(loaded)} channels; a segmentation or mask has one")
    return as_label_volume(loaded)


class _SharedFiles:
    """One run's decodes of the files its manifest names.

    What a record takes from a file is a product, made once per run from
    the file's spelling in the first row naming it:

    * ``("intensity", path)``: per channel the manifest asks of the file
      (``None`` for a 3-D row), the status of failing to select it or a
      (foreground, grid) pair, each ``None`` unless a row wants it: the
      foreground, or the status of failing to extract it, for rows taking
      the file as input, target or prediction; the grid for the gt
      metrics, of a gt or of the prediction of a row with gt.
    * ``("seg", path)``, the label volume of a ``seg_*`` column.

    Each product is one future, made by whichever thread claims it
    first. A record submits, when it starts, a decode of each of its
    products not yet submitted, in column order, then of those of its
    successor in the manifest; the one decode thread's FIFO queue puts
    the latter behind the record's own, so the next record's files decode
    during this record's later stages, and no record further ahead is
    read, whatever the number of records running. A record about to wait
    on a product still being made makes its own products no thread has
    claimed instead (never the next record's), so at one worker two
    threads decode.

    Each use in the manifest is counted off once, when its record takes
    the product or ends; after the last, the product is dropped, and a
    decode of it not yet started finds it gone. A failure is kept as the
    status it gives, in place of the product or the entry it spoils, so
    every use it concerns gets that same status and no exception outlives
    the decode that caught it.
    """

    def __init__(self, records: Sequence[TripletRecord], config: EvalConfig, pool: ThreadPoolExecutor):
        self._config = config
        self._pool = pool
        self._path: dict[tuple[str, str], Path] = {}
        # what the rows take of each intensity product, by channel
        self._wants: dict[tuple[str, str], dict[int | None, set[str]]] = {}
        self._left = Counter()  # uses of each product not yet counted off
        for rec in records:
            for key, path, parts in self._named(rec):
                self._left[key] += 1
                self._path.setdefault(key, path)
                if key[0] == "intensity":
                    self._wants.setdefault(key, {}).setdefault(rec.channel, set()).update(parts)
        self._made: dict[tuple[str, str], Future] = {}
        self._next = dict(zip(records, records[1:]))
        self._lock = threading.Lock()

    @staticmethod
    def _named(rec: TripletRecord):
        """((kind, resolved path), path, what ``rec`` takes of it) of every
        file ``rec`` names, in column order."""
        fg, gt = ("foreground",), () if rec.gt_path is None else ("grid",)
        for kind, path, parts in (
            ("intensity", rec.input_path, fg), ("intensity", rec.target_path, fg),
            ("intensity", rec.pred_path, fg + gt), ("intensity", rec.gt_path, gt),
            ("seg", rec.seg_input_path, ()), ("seg", rec.seg_pred_path, ()),
        ):
            if path is not None:
                yield (kind, os.path.realpath(path)), path, parts

    def start(self, rec: TripletRecord) -> Counter:
        """Submit the decodes of ``rec``'s products not yet submitted, then
        those of its successor, if any; the uses ``rec`` has to count off,
        by product."""
        with self._lock:
            owed = self._submit(rec)
            if rec in self._next:
                self._submit(self._next[rec])
            return owed

    def _submit(self, rec: TripletRecord) -> Counter:
        owed = Counter()
        for key, _, _ in self._named(rec):
            owed[key] += 1
            # a product whose uses are all counted off is not made again: a
            # successor that started and finished first may have taken it
            if key in self._left and key not in self._made:
                self._made[key] = Future()
                self._pool.submit(self._make, key)
        return owed

    def _make(self, key: tuple[str, str]) -> bool:
        """Make ``key``'s product unless a thread has claimed it or it was
        dropped; whether this call made it."""
        with self._lock:
            future = self._made.get(key)
            if future is None or future.running() or future.done():
                return False
            future.set_running_or_notify_cancel()
        try:
            future.set_result(self._decode(key))
        except BaseException as exc:
            future.set_exception(exc)
            raise
        return True

    def _decode(self, key: tuple[str, str]):
        kind, path = key[0], self._path[key]
        try:
            if kind == "seg":
                return _labels(path)
            loaded = load_volume(path)
        except _RECORD_ERRORS as exc:
            return _status(exc)
        entries = {}
        for channel, parts in self._wants[key].items():
            try:
                grid = _single_channel(loaded, path, channel)
            except _RECORD_ERRORS as exc:
                entries[channel] = _status(exc)
                continue
            foreground = None
            if "foreground" in parts:
                try:
                    foreground = extract_foreground(grid, self._config.policy)
                except _RECORD_ERRORS as exc:
                    foreground = _status(exc)
            entries[channel] = (foreground, grid if "grid" in parts else None)
        return entries

    def take(self, kind: str, path: Path, owed: Counter, channel: int | None = None):
        """The product, once made, counting off one of the uses in ``owed``;
        of an intensity product, the (foreground, grid) entry of ``channel``.

        While the product is being made, the record makes the first of its
        own products in ``owed`` that no thread has claimed, in column
        order, and so on until the product is done or none is left.
        """
        key = (kind, os.path.realpath(path))
        future = self._made[key]
        try:
            while not future.done() and self._make_own(owed):
                pass
            product = _or_raise(future.result())
        finally:
            owed[key] -= 1
            self.count_off({key: 1})
        return product if kind == "seg" else _or_raise(product[channel])

    def _make_own(self, owed: Counter) -> bool:
        """Make the first product the record still owes a use of that no
        thread has claimed; whether there was one."""
        return any(n and self._make(key) for key, n in owed.items())

    def count_off(self, uses: dict[tuple[str, str], int]) -> None:
        """Count off ``uses``, dropping each product after its last use."""
        with self._lock:
            for key, n in uses.items():
                self._left[key] -= n
                if not self._left[key]:
                    del self._left[key]
                    self._made.pop(key, None)


def _status(exc: BaseException) -> str:
    """The status of a row that failed with ``exc``."""
    return f"error: {type(exc).__name__}: {exc}"


class _Failed(Exception):
    """A kept failure's status, raised afresh to each use it concerns."""


def _or_raise(value):
    """``value``, unless it is a kept failure's status."""
    if isinstance(value, str):
        raise _Failed(value)
    return value


def _evaluate_record(rec: TripletRecord, config: EvalConfig, files: _SharedFiles) -> EvaluationRow:
    key = {"id": rec.id, "site_in": rec.site_in, "site_out": rec.site_out, "channel": rec.channel}
    owed = files.start(rec)
    try:
        # the prediction's grid, taken last, is kept for the gt metrics
        dists = []
        for path in (rec.input_path, rec.target_path, rec.pred_path):
            foreground, grid = files.take("intensity", path, owed, rec.channel)
            dists.append(_or_raise(foreground))

        reference = None
        if rec.gt_path:
            _, grid_gt = files.take("intensity", rec.gt_path, owed, rec.channel)
            reference = paired_metrics(grid, grid_gt, config.policy, config.ssim)
            del grid_gt
        del grid  # no grid is alive during W1

        pair = nwd(*dists)
        verdict = classify(pair, config.tol)
        del dists

        ap = None
        if rec.seg_input_path:
            ap = anatomy_preservation(
                files.take("seg", rec.seg_input_path, owed),
                files.take("seg", rec.seg_pred_path, owed),
                weighted=config.weighted_ap,
            )

        return EvaluationRow(
            **key, status="ok", wd=pair, verdict=verdict, ap=ap, reference=reference
        )
    except _Failed as failed:
        return EvaluationRow(**key, status=str(failed))
    except _RECORD_ERRORS as exc:
        return EvaluationRow(**key, status=_status(exc))
    finally:
        files.count_off(+owed)  # the uses the record did not take


def evaluate_all(records: Sequence[TripletRecord], config: EvalConfig = EvalConfig()) -> list[EvaluationRow]:
    """Evaluate ``config.workers`` records at a time; row order follows
    the manifest. A file named by several rows is read once.

    A record submits the decodes of all its files when it starts, to one
    decode thread shared by every record, and uses them in stage order:
    intensities, gt metrics, W1, AP. It then submits those of its
    successor in the manifest, which queue behind its own and decode
    while it computes; at most that one record is read ahead. A decode of
    an intensity file also selects each channel the rows ask of it, and
    extracts each foreground a row takes, so no record extracts one. A
    record that would wait on a decode makes its own decodes not yet
    started instead, so at one worker two threads decode.

    Every record gives a row, failed or not: a failure lands in the row
    status, the first failure in stage order ending the record.
    """
    with ThreadPoolExecutor(1) as decode, ThreadPoolExecutor(config.workers) as pool:
        files = _SharedFiles(records, config, decode)
        return list(pool.map(lambda rec: _evaluate_record(rec, config, files), records))


# ---------------------------------------------------------------- summaries


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate of one metric in one group; mean/std are None when every
    contribution was a sentinel."""

    mean: float | None
    std: float | None
    n: int
    sentinel_count: int


@dataclass(frozen=True)
class SummaryTable:
    group: str
    metrics: dict[str, MetricSummary]


def group_key(site_in: str, site_out: str, group_by: str = "direction") -> str:
    """The summary group of one row: its site direction or its target site."""
    if group_by == "direction":
        return f"{site_in}→{site_out}"
    if group_by == "site_out":
        return site_out
    raise ValueError(f"group_by must be 'direction' or 'site_out', got {group_by!r}")


def summarize(rows: Iterable[dict[str, str]], group_by: str = "direction") -> list[SummaryTable]:
    """Mean ± std per metric per group over the successful rows.

    A row is its results-file cells, as :func:`row_cells` makes them and
    :func:`read_results` reads them back; an empty cell is a metric the
    row did not measure. Groups come in lexicographic order.
    """
    by_group: dict[str, list[dict[str, str]]] = {}
    for row in rows:
        if row.get("status") == "ok":
            key = group_key(row["site_in"], row["site_out"], group_by)
            by_group.setdefault(key, []).append(row)
    if not by_group:
        raise NoSuccessfulRows("no successful rows to summarize")
    tables = []
    for key in sorted(by_group):
        columns: dict[str, MetricSummary] = {}
        for metric in METRIC_ORDER:
            values = [float(row[metric]) for row in by_group[key] if row.get(metric)]
            if not values:
                continue
            sentinels = sentinel_count(values)
            if sentinels == len(values):
                columns[metric] = MetricSummary(None, None, 0, sentinels)
            else:
                mean, std = mean_std(values)
                columns[metric] = MetricSummary(mean, std, len(values) - sentinels, sentinels)
        tables.append(SummaryTable(group=key, metrics=columns))
    return tables


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


def row_cells(row: EvaluationRow) -> dict[str, str]:
    """The results-file cells of one row, keyed by ``ROW_COLUMNS``.

    A value the row did not measure is an empty cell. Floats are written
    with ``repr``, so ``float`` reads each one back exactly.
    """
    def cell(part, attr: str) -> str:
        return "" if part is None else repr(float(getattr(part, attr)))

    wd, ref = row.wd, row.reference
    return {
        "id": row.id,
        "channel": "" if row.channel is None else str(row.channel),
        "site_in": row.site_in,
        "site_out": row.site_out,
        "status": row.status,
        "wd_it": cell(wd, "wd_it"),
        "wd_ip": cell(wd, "wd_ip"),
        "wd_tp": cell(wd, "wd_tp"),
        "nwd_ip": cell(wd, "nwd_ip"),
        "nwd_tp": cell(wd, "nwd_tp"),
        "verdict": "" if row.verdict is None else row.verdict.value,
        "ap": cell(row.ap, "mean_ap"),
        "ssim": cell(ref, "ssim"),
        "psnr": cell(ref, "psnr_db"),
        "mae": cell(ref, "mae"),
        "mse": cell(ref, "mse"),
    }


def rows_to_csv_bytes(rows: Sequence[EvaluationRow], meta: dict | None = None) -> bytes:
    """Loss-free per-row CSV; byte-identical for identical inputs."""
    buf = io.StringIO()
    for line in _meta_lines(meta, "#"):
        buf.write(line + "\n")
    writer = csv.DictWriter(buf, ROW_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(map(row_cells, rows))
    return buf.getvalue().encode("utf-8")


def write_rows_csv(rows: Sequence[EvaluationRow], path: str | Path, meta: dict | None = None) -> None:
    Path(path).write_bytes(rows_to_csv_bytes(rows, meta))


def read_results(path: str | Path) -> tuple[dict, list[dict[str, str]]]:
    """(meta, rows) of a results CSV, from one read.

    ``meta`` is the ``# key: value`` lines heading the file; the settings
    of ``EvalConfig.to_meta`` get back the types they were written with,
    any other value stays text. ``rows`` are the cells of each row as
    text, as :func:`row_cells` wrote them. A file without the columns
    that :func:`summarize` groups and filters by raises
    :class:`MissingColumn`.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    head = list(takewhile(lambda line: line.startswith("#"), lines))
    types = {k: type(v) for k, v in EvalConfig().to_meta().items()}
    meta = {}
    for line in head:
        key, _, value = line[1:].partition(":")
        key, value = key.strip(), value.strip()
        kind = types.get(key, str)
        meta[key] = value == "True" if kind is bool else kind(value)
    reader = csv.DictReader(lines[len(head):])
    missing = [c for c in ("site_in", "site_out", "status") if c not in (reader.fieldnames or ())]
    if missing:
        raise MissingColumn(f"{path}: missing column(s) {', '.join(missing)}")
    return meta, list(reader)


def series_from_rows(raw_rows: Sequence[dict[str, str]], name: str) -> np.ndarray:
    """The ``name`` column of a results CSV's rows as a float64 array;
    blanks become NaN so they pair-drop in correlations."""
    values = []
    for row in raw_rows:
        cell = (row.get(name) or "").strip()
        values.append(float(cell) if cell else float("nan"))
    return np.array(values, dtype=np.float64)
