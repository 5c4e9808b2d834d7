"""Benchmark of the harmbench CLI over seeded synthetic phantoms.

    python3 bench/run.py --workload phantom-full --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each exists):

* ``phantom-full``: ``evaluate`` over the stock 12-triplet 128^3 dataset
  of ``write_synthetic_dataset`` (gt and one shared segmentation).
* ``dense-gtfree``: ``evaluate`` over 4 dense 160^3 triplets without gt,
  each with its own segmentations (see ``workloads.py``).
* ``synth-write``: ``harmbench synth --sites 3 --n 12 --size 128``.

Each run builds its inputs from ``--seed`` in ``.bench_work/`` at the
repository root, warms the page cache and the bytecode cache, and then
times the CLI from outside as whole processes, closed loop: every
process is waited for before the next starts. For ``--seconds`` it
repeats a pair of runs, one at ``--workers 1`` and one at
``--workers $(nproc)`` (for ``synth``, which has no workers, ``nproc``
concurrent processes), at least once. Outputs are then checked against
independent recomputations (``checks.py``), outside the timed part.

``--trace 0`` reports the end-to-end metrics, medians over the run's
samples. ``--trace 1`` runs the command in-process under ``trace.py``
instead and reports the per-layer metrics. Human-readable detail goes to
stderr; the last line of stdout is one JSON object. The exit code is 0
only when every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
RUN_BUDGET_S = 175.0  # a run must end within 180 s
SETUP_REPS = 11
IMPORTTIME_REPS = 3
SYNTH_SITES, SYNTH_RECORDS, SYNTH_EDGE = 3, 12, 128

SETUP_EVALUATE = "import sys, harmbench.cli, harmbench; harmbench.load_manifest(sys.argv[1])"
SETUP_SYNTH = "import harmbench.cli"


class ProgramFailure(Exception):
    """A child process failed; the run cannot produce numbers."""


@dataclass
class Context:
    work: Path
    seed: int
    seconds: float
    deadline: float
    env: dict

    def argv(self, *args) -> list[str]:
        return [sys.executable, *map(str, args)]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_group(ctx: Context, name: str, commands: list[list[str]]) -> tuple[float, float]:
    """Start every command at once and wait for all of them.

    Returns (wall seconds from the first start to the last exit, largest
    peak RSS in MB). Raises ProgramFailure on a nonzero exit.
    """
    procs = []
    rss_kb, codes = 0, []
    start = time.perf_counter()
    try:
        for i, argv in enumerate(commands):
            with open(ctx.work / f"{name}.{i}.log", "wb") as out:
                procs.append(subprocess.Popen(argv, cwd=ROOT, env=ctx.env, stdout=out, stderr=subprocess.STDOUT))
        for proc in procs:
            # past the run's deadline the child is killed and counts as failed
            killer = threading.Timer(max(ctx.deadline - time.monotonic(), 0.1), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            codes.append(proc.returncode)
            rss_kb = max(rss_kb, usage.ru_maxrss)
        wall = time.perf_counter() - start
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    for i, code in enumerate(codes):
        if code != 0:
            tail = (ctx.work / f"{name}.{i}.log").read_text(errors="replace")[-2000:]
            raise ProgramFailure(f"{name}: {' '.join(commands[i])} exited {code}\n{tail}")
    return wall, rss_kb / 1024.0


def timed(ctx: Context, name: str, commands: list[list[str]]) -> tuple[float, float]:
    """run_group, logged."""
    wall, rss = run_group(ctx, name, commands)
    log(f"{name}: {wall:.4f} s, peak RSS {rss:.1f} MB")
    return wall, rss


# ------------------------------------------------------------------ inputs


def make_inputs(ctx: Context, workload: str) -> Path | None:
    """Write the workload's dataset; returns its manifest (None for synth)."""
    data = ctx.work / "data"
    script = BENCH / "workloads.py"
    start = time.perf_counter()
    if workload == "phantom-full":
        run_group(ctx, "make-inputs", [ctx.argv(script, workload, data, ctx.seed)])
    elif workload == "dense-gtfree":
        step = min(NPROC, 2)
        run_group(ctx, "make-inputs", [
            ctx.argv(script, workload, data, ctx.seed, first, step) for first in range(step)
        ])
    else:
        return None
    log(f"inputs written in {time.perf_counter() - start:.1f} s")
    return data / "manifest.csv"


def warm_up(ctx: Context, manifest: Path | None) -> None:
    """Fill the page cache with the inputs and the bytecode cache with
    the program, so the first timed process pays neither."""
    if manifest is not None:
        for path in manifest.parent.iterdir():
            path.read_bytes()
    setup = SETUP_EVALUATE if manifest else SETUP_SYNTH
    run_group(ctx, "warm-up", [ctx.argv("-c", setup, *([manifest] if manifest else []))])


def setup_times(ctx: Context, manifest: Path | None) -> list[float]:
    """Fresh-process time before the first record: interpreter start,
    ``import harmbench.cli`` and (for evaluate) ``load_manifest``."""
    setup = SETUP_EVALUATE if manifest else SETUP_SYNTH
    argv = ctx.argv("-c", setup, *([manifest] if manifest else []))
    return [timed(ctx, f"setup-{i}", [argv])[0] for i in range(SETUP_REPS)]


def repeat_for(ctx: Context, one) -> list[dict]:
    """Call ``one(i)`` until the run's seconds are used, at least once."""
    samples = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        samples.append(one(len(samples)))
        took = time.monotonic() - t
        if time.monotonic() - start + took > ctx.seconds:
            return samples


# ------------------------------------------------------------ trace 0 runs


def evaluate_args(manifest: Path, out: Path, workers: int) -> list:
    return ["evaluate", "--manifest", manifest, "--out", out, "--workers", workers]


def synth_args(ctx: Context, out: Path) -> list:
    return ["synth", "--out", out, "--sites", SYNTH_SITES, "--n", SYNTH_RECORDS,
            "--size", SYNTH_EDGE, "--seed", ctx.seed]


def cli(ctx: Context, args: list) -> list[str]:
    return ctx.argv("-m", "harmbench", *args)


def check_evaluation(manifest: Path, results: Path, problems: list[str]) -> int:
    failed, worst = checks.check_evaluation(manifest, results, problems)
    log("W1 vs scipy, largest relative disagreement: "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    return failed


def run_evaluate(ctx: Context, manifest: Path, problems: list[str]):
    records = len(checks.read_manifest(manifest))

    def pair(i: int) -> dict:
        serial, rss = timed(ctx, f"serial-{i}", [cli(ctx, evaluate_args(manifest, ctx.work / f"serial-{i}.csv", 1))])
        par, _ = timed(ctx, f"par-{i}", [cli(ctx, evaluate_args(manifest, ctx.work / f"par-{i}.csv", NPROC))])
        return {"records_per_s": records / serial, "records_per_s_par": records / par, "peak_rss_mb": rss}

    samples = repeat_for(ctx, pair)
    first = ctx.work / "serial-0.csv"
    failed = check_evaluation(manifest, first, problems)
    outputs = sorted(ctx.work.glob("*.csv"))
    for other in outputs:
        if other != first:
            checks.check_same_results(first, other, problems)
            failed += sum(r["status"] != "ok" for r in checks.read_results(other))
    return samples, records * len(outputs), failed


def run_synth(ctx: Context, problems: list[str]):
    def pair(i: int) -> dict:
        serial, rss = timed(ctx, f"serial-{i}", [cli(ctx, synth_args(ctx, ctx.work / f"serial-{i}"))])
        outs = [ctx.work / f"par-{i}-{j}" for j in range(NPROC)]
        par, _ = timed(ctx, f"par-{i}", [cli(ctx, synth_args(ctx, out)) for out in outs])
        return {"records_per_s": SYNTH_RECORDS / serial,
                "records_per_s_par": SYNTH_RECORDS * NPROC / par, "peak_rss_mb": rss}

    samples = repeat_for(ctx, pair)
    first = ctx.work / "serial-0"
    names = checks.check_synth_dataset(first, SYNTH_RECORDS, SYNTH_EDGE, problems)
    outputs = sorted(p for p in ctx.work.iterdir() if p.is_dir() and p.name.startswith(("serial-", "par-")))
    for other in outputs:
        if other != first:
            checks.check_same_voxels(first, other, names, problems)
    return samples, SYNTH_RECORDS * len(outputs), 0


def end_to_end(ctx: Context, workload: str, manifest: Path | None, problems: list[str]):
    setup = setup_times(ctx, manifest)
    if manifest is None:
        samples, attempted, failed = run_synth(ctx, problems)
    else:
        samples, attempted, failed = run_evaluate(ctx, manifest, problems)
    metrics = {"setup_s": statistics.median(setup)}
    log(f"setup_s samples: {', '.join(f'{v:.4f}' for v in setup)}")
    for key in samples[0]:
        metrics[key] = statistics.median(s[key] for s in samples)
        log(f"{key} samples: {', '.join(f'{s[key]:.4f}' for s in samples)}")
    metrics["ok_rate"] = (attempted - failed) / attempted
    return metrics, attempted, failed


# ------------------------------------------------------------ trace 1 runs


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_ms(stderr: str, package: str) -> float:
    """Cumulative import time of ``package`` and its submodules, counting
    each outermost import once (``-X importtime`` lists children first)."""
    total_us, stack = 0, []  # walk parents-first: (indent, inside package)
    for line in reversed(stderr.splitlines()):
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        indent, name = len(m.group(3)), m.group(4)
        while stack and stack[-1][0] >= indent:
            stack.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(inside for _, inside in stack):
            total_us += int(m.group(2))
        stack.append((indent, mine))
    return total_us / 1000.0


def import_times(ctx: Context) -> dict[str, float]:
    samples = {"harmbench": [], "scipy": []}
    for i in range(IMPORTTIME_REPS):
        run_group(ctx, f"importtime-{i}", [ctx.argv("-X", "importtime", "-c", SETUP_SYNTH)])
        text = (ctx.work / f"importtime-{i}.0.log").read_text()
        for package, values in samples.items():
            values.append(import_ms(text, package))
    return {f"cli.import.{p}_ms": statistics.median(v) for p, v in samples.items()}


def traced(ctx: Context, name: str, mode: str, command: list) -> dict:
    """The spans and in-process wall time of one traced (or untraced) run."""
    out = ctx.work / f"{name}.json"
    timed(ctx, name, [ctx.argv(BENCH / "trace.py", out, mode, "--", *command)])
    return json.loads(out.read_text())


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of intervals (children on pool threads overlap)."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total, reach = total + end - start, end
        elif end > reach:
            total, reach = total + end - reach, end
    return total


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total ns, and self ns, the span's duration
    minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += s["end"] - s["start"]
        row["self_ns"] += s["end"] - s["start"] - covered_ns(children.get(s["id"], []))
    return table


def layer_metrics(spans: list[dict], records: int) -> dict[str, float]:
    table = self_times(spans)

    def self_ns(name: str) -> int:
        return table.get(name, {}).get("self_ns", 0)

    def per_record_ms(name: str) -> float:
        return self_ns(name) / 1e6 / records

    def counts(name: str, key: str) -> list:
        return [s["counts"][key] for s in spans if s["name"] == name and "counts" in s]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    loads = counts("nifti.load_volume", "path")
    samples = counts("distribution.extract_foreground", "samples")
    records_ms = [(s["end"] - s["start"]) / 1e6 for s in spans if s["name"] == "harness.record"]
    return {
        "reference.paired_metrics.ms": per_record_ms("reference.paired_metrics"),
        "reference.useful_window_ratio": ratio(
            sum(counts("reference.paired_metrics", "useful_windows")),
            sum(counts("reference.paired_metrics", "filtered"))),
        "wasserstein.nwd.ms": per_record_ms("wasserstein.nwd"),
        "wasserstein.nwd.ns_per_sample": ratio(
            self_ns("wasserstein.nwd"), sum(counts("wasserstein.nwd", "samples"))),
        "distribution.extract_foreground.ms": per_record_ms("distribution.extract_foreground"),
        "distribution.extract_foreground.samples": ratio(sum(samples), len(samples)),
        "distribution.coarsen_jointly.binned_ratio": ratio(
            sum(counts("distribution.coarsen_jointly", "binned")),
            len(counts("distribution.coarsen_jointly", "binned"))),
        "anatomy.as_label_volume.ms": per_record_ms("anatomy.as_label_volume"),
        "anatomy.as_label_volume.ns_per_voxel": ratio(
            self_ns("anatomy.as_label_volume"), sum(counts("anatomy.as_label_volume", "voxels"))),
        "anatomy.anatomy_preservation.ms": per_record_ms("anatomy.anatomy_preservation"),
        "nifti.load_volume.calls": len(loads),
        "nifti.load_volume.ms": per_record_ms("nifti.load_volume"),
        "nifti.load_volume.mb_per_s": ratio(
            sum(counts("nifti.load_volume", "bytes")) / 1e6, self_ns("nifti.load_volume") / 1e9),
        "nifti.load_volume.unique_ratio": ratio(len(set(loads)), len(loads)),
        "nifti.write_volume.ms": per_record_ms("nifti.write_volume"),
        "nifti.write_volume.mb_per_s": ratio(
            sum(counts("nifti.write_volume", "bytes")) / 1e6, self_ns("nifti.write_volume") / 1e9),
        "synth.generate_phantom.ms": per_record_ms("synth.generate_phantom"),
        "synth.histogram_match.ms": per_record_ms("synth.histogram_match"),
        "harness.record.ms_p50": statistics.median(records_ms) if records_ms else 0.0,
        "harness.report.ms": sum(
            table.get(n, {}).get("total_ns", 0)
            for n in ("harness.summarize", "harness.emit_report", "harness.rows_to_csv_bytes")) / 1e6,
    }


def pool_busy_ratio(spans: list[dict], workers: int) -> float:
    busy = sum(s["end"] - s["start"] for s in spans if s["name"] == "harness.record")
    wall = sum(s["end"] - s["start"] for s in spans if s["name"] == "harness.evaluate_all")
    return busy / (wall * workers) if wall else 0.0


def log_table(title: str, spans: list[dict]) -> None:
    table = self_times(spans)
    log(f"{title}: span self time, largest first")
    log(f"  {'span':<40} {'calls':>6} {'total ms':>10} {'self ms':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ns"]):
        log(f"  {name:<40} {row['calls']:>6} {row['total_ns'] / 1e6:>10.1f} {row['self_ns'] / 1e6:>10.1f}")


def per_layer(ctx: Context, workload: str, manifest: Path | None, problems: list[str]):
    metrics = import_times(ctx)
    if manifest is None:
        off = traced(ctx, "synth-off", "off", synth_args(ctx, ctx.work / "off"))
        on = traced(ctx, "synth-on", "on", synth_args(ctx, ctx.work / "on"))
        names = checks.check_synth_dataset(ctx.work / "on", SYNTH_RECORDS, SYNTH_EDGE, problems)
        checks.check_same_voxels(ctx.work / "on", ctx.work / "off", names, problems)
        records, attempted, failed, busy = SYNTH_RECORDS, 2 * SYNTH_RECORDS, 0, 0.0
    else:
        def command(name: str, workers: int) -> list:
            return evaluate_args(manifest, ctx.work / f"{name}.csv", workers)

        off = traced(ctx, "serial-off", "off", command("serial-off", 1))
        on = traced(ctx, "serial-on", "on", command("serial-on", 1))
        par = traced(ctx, "par-on", "on", command("par-on", NPROC))
        first = ctx.work / "serial-on.csv"
        failed = check_evaluation(manifest, first, problems)
        for other in ("serial-off.csv", "par-on.csv"):
            checks.check_same_results(first, ctx.work / other, problems)
        records = len(checks.read_manifest(manifest))
        attempted, busy = 3 * records, pool_busy_ratio(par["spans"], NPROC)
        log_table(f"{workload} --workers {NPROC}", par["spans"])
    log_table(f"{workload}, one process", on["spans"])
    metrics.update(layer_metrics(on["spans"], records))
    metrics["harness.pool_busy_ratio"] = busy
    metrics["trace.overhead_ratio"] = on["wall_s"] / off["wall_s"]
    return metrics, attempted, failed


# -------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "harmbench" / "__init__.py").is_file():
        log(f"error: no program source at {SRC / 'harmbench'}")
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("HARMBENCH_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ctx = Context(work, args.seed, args.seconds, time.monotonic() + RUN_BUDGET_S, env)
    problems: list[str] = []
    try:
        manifest = make_inputs(ctx, args.workload)
        warm_up(ctx, manifest)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(ctx, args.workload, manifest, problems)
    except ProgramFailure as exc:
        log(f"error: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    for problem in problems:
        log(f"check failed: {problem}")
    for name, value in metrics.items():
        log(f"{name:<44} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
