"""Run the benchmark over several seeds and summarize every metric.

    python3 bench/summarize.py --workloads phantom-full,synth-write \
        --seeds 1-10 --trace 0 --out baseline-run.json

Runs ``bench/run.py`` once per (workload, seed), one at a time, and
writes per workload and metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (distance
between the quartiles over the median) and every value, together with
the machine and the commit measured. Each run's exit code and duration
are kept; a run that fails is left out of the statistics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def machine() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    cpu = next((ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="N or FIRST-LAST")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    doc = {"machine": machine(), "trace": args.trace, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, values = [], {}
        for seed in seed_list(args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"seed": seed, "exit_code": proc.returncode, "took_s": time.monotonic() - start,
                         "correct": result["correct"] if result else False})
            if result is None:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        doc["workloads"][workload] = {"runs": runs, "metrics": {k: stats(v) for k, v in values.items()}}
        for name, s in doc["workloads"][workload]["metrics"].items():
            print(f"{workload:<13} {name:<42} median {s['median']:<12.6g} spread {s['spread']:.4f}")
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for w in doc["workloads"].values() for r in w["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
