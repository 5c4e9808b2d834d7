"""Run one ``harmbench`` command in-process with timing spans per layer.

Usage, with the program's ``src`` directory on ``PYTHONPATH``::

    python3 bench/trace.py OUT.json on|off -- evaluate --manifest ...

With ``on``, the public functions of each layer are wrapped where the
harness, the CLI and ``synth`` look them up (module attributes), so the
program itself is unchanged. Spans (name, start, end, parent, record id,
thread) and per-call counters are kept in memory and written to
``OUT.json`` at the end, together with the wall time of the command.
With ``off`` nothing is wrapped: that run gives the untraced wall time
the tracing overhead is measured against.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

import harmbench.cli
import harmbench.harness
import harmbench.synth

VOXEL_BYTES = 4  # every volume the benchmark feeds or writes is float32


class Tracer:
    """Thread-safe span recorder. The parent of a span is the innermost
    span open on the same thread when it starts; on a pool thread with
    nothing open, it is the innermost span open on the main thread (the
    call that handed work to the pool)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.record = None
        return self._local.stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        main = self._main_stack[-1:]  # a copy: the main thread may pop meanwhile
        return main[0] if main else None

    def wrap(self, name, fn, counters=None, record_of=None):
        """``fn`` recorded as span ``name``. ``counters(args, result)``
        returns a dict stored on the span; the time it takes is recorded
        as a ``trace.count`` span beside it, so no layer is charged."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer_record = self._local.record
            if record_of is not None:
                self._local.record = record_of(args)
            span = {
                "id": next(self._ids), "parent": self._parent(stack), "name": name,
                "record": self._local.record, "thread": threading.get_ident(),
            }
            stack.append(span["id"])
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
                self._local.record = outer_record
                self._add(span)
            if counters is not None:
                start = time.perf_counter_ns()
                span["counts"] = counters(args, result)
                self._add({
                    "id": next(self._ids), "parent": span["parent"], "name": "trace.count",
                    "start": start, "end": time.perf_counter_ns(),
                    "record": span["record"], "thread": span["thread"],
                })
            return result

        return traced

    def _add(self, span: dict) -> None:
        with self._lock:
            self.spans.append(span)

    def patch(self, module, attr, name, **kwargs) -> None:
        """Wrap ``module.attr`` when the program still has it."""
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, self.wrap(name, fn, **kwargs))


def _load_counts(args, grid):
    return {"path": os.path.realpath(args[0]), "bytes": grid.values.size * VOXEL_BYTES}


def _write_counts(args, _):
    return {"bytes": args[0].values.size * VOXEL_BYTES}


def _fg_counts(_, dist):
    return {"samples": int(dist.n)}


def _coarsen_counts(args, result):
    return {"binned": any(r is not d for r, d in zip(result, args[0]))}


def _nwd_counts(args, _):
    n_i, n_t, n_p = (d.n for d in args[:3])
    return {"samples": 2 * (n_i + n_t + n_p)}  # both sides of each of the three distances


def _label_counts(args, _):
    return {"voxels": int(args[0].values.size)}


def _window_counts(args, _):
    """Interior windows whose centre is foreground, against the voxels
    the current implementation filters (the whole grid)."""
    pred, gt = args[0], args[1]
    policy = args[2] if len(args) > 2 else harmbench.distribution.ForegroundPolicy()
    params = args[3] if len(args) > 3 else harmbench.reference.SsimParams()
    fg = harmbench.distribution.foreground_mask(pred, policy) | harmbench.distribution.foreground_mask(gt, policy)
    r = params.window // 2
    valid = fg.reshape(pred.dims, order="F")[r:-r, r:-r, r:-r]
    return {"useful_windows": int(np.count_nonzero(valid)), "filtered": int(pred.values.size)}


def install(tracer: Tracer) -> None:
    h, s, c = harmbench.harness, harmbench.synth, harmbench.cli
    tracer.patch(h, "_evaluate_record", "harness.record", record_of=lambda a: a[0].id)
    tracer.patch(c, "evaluate_all", "harness.evaluate_all")
    tracer.patch(c, "summarize", "harness.summarize")
    tracer.patch(c, "emit_report", "harness.emit_report")
    tracer.patch(h, "rows_to_csv_bytes", "harness.rows_to_csv_bytes")
    tracer.patch(h, "load_volume", "nifti.load_volume", counters=_load_counts)
    tracer.patch(h, "extract_foreground", "distribution.extract_foreground", counters=_fg_counts)
    tracer.patch(h, "coarsen_jointly", "distribution.coarsen_jointly", counters=_coarsen_counts)
    tracer.patch(h, "nwd", "wasserstein.nwd", counters=_nwd_counts)
    tracer.patch(h, "as_label_volume", "anatomy.as_label_volume", counters=_label_counts)
    tracer.patch(h, "anatomy_preservation", "anatomy.anatomy_preservation")
    tracer.patch(h, "paired_metrics", "reference.paired_metrics", counters=_window_counts)
    tracer.patch(c, "write_synthetic_dataset", "synth.write_synthetic_dataset")
    tracer.patch(s, "generate_phantom", "synth.generate_phantom")
    tracer.patch(s, "histogram_match", "synth.histogram_match")
    tracer.patch(s, "write_volume", "nifti.write_volume", counters=_write_counts)


def main(argv: list[str]) -> int:
    out, mode, sep, *command = argv
    if mode not in ("on", "off") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 1
    tracer = Tracer()
    if mode == "on":
        install(tracer)
    start = time.perf_counter()
    code = harmbench.cli.run(command)
    wall = time.perf_counter() - start
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"wall_s": wall, "exit_code": code, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
