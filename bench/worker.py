"""One benchmark process for the in-process workloads (started by run.py).

It imports sqzlab, draws the workload's inputs and prints the monotonic
time at which it was ready; run.py subtracts its own time at spawn to get
the set-up time. Without --setup-only it then runs passes closed-loop,
one operation at a time, until the monotonic time --stop-at, and prints
one JSON object as its last line.

Pass 0 warms up (first-call costs, caches) and is not timed. The run
stops when the next pass would end after --stop-at, with at least one
timed pass (two with --trace 1). With --trace 1 the passes alternate
traced and untraced, starting traced, so one run gives the per-layer
breakdown and the tracing overhead. A beam splitter key first seen in an
untraced pass would be miscounted as cold in a later traced pass; the
only key that fock-engineering reuses is first used in pass 0, which is
traced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stop-at", type=float, required=True, help="monotonic time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    return ap.parse_args(argv)


def pass_estimate(passes) -> float:
    """Wall time of one pass: each op's median over the passes, summed.

    Noise from other load on the machine hits single ops; the median per
    op keeps it out of the total better than the median of pass totals.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd().resolve()
    import sqzlab

    if not Path(sqzlab.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported sqzlab from {sqzlab.__file__}, not from ./src", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = spans.Tracer()
    passes = workloads.plan(args.workload, args.seed, args.smoke, tracer, Path(args.workdir))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    deadline = args.stop_at
    min_passes = 3 if args.trace else 2
    attempted = failed = 0
    errors, diagnostics = [], {}
    op_walls = {True: [], False: []}  # per measured pass, the duration of each op
    elapsed, totals, samples, seen_bs, kept = [], [], {}, set(), []
    for k, ops in enumerate(passes):
        pass_start = time.monotonic()
        traced = bool(args.trace) and k % 2 == 0
        if traced:
            tracer.install()
        walls = []
        for op in ops:
            attempted += 1
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a failed operation is counted, the run goes on
                walls.append(time.perf_counter() - start)
                failed += 1
                errors.append(f"{op.name}: {traceback.format_exc(limit=3)}")
                continue
            walls.append(time.perf_counter() - start)
            with tracer.paused():
                try:
                    for key, value in op.check(out).items():
                        diagnostics.setdefault(key, []).append(float(value))
                except Exception as exc:  # a missed check counts as a failure
                    failed += 1
                    errors.append(f"{op.name}: check failed: {exc!r}")
        if traced:
            tracer.uninstall()
            pass_spans = tracer.take()
            kept.append(pass_spans)
            pass_totals, pass_samples = spans.summary(pass_spans, seen_bs)
        if k > 0:  # pass 0 warms up and is not measured
            op_walls[traced].append(walls)
            if traced:
                totals.append(pass_totals)
                for key, values in pass_samples.items():
                    samples.setdefault(key, []).extend(values)
            elapsed.append(time.monotonic() - pass_start)
        # stop when the next pass would end past the deadline
        if k + 1 >= min_passes and time.monotonic() + statistics.median(elapsed) > deadline:
            break

    reduce = workloads.DIAGNOSTIC_REDUCE
    result = {
        "ready": ready,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "passes": 1 + len(elapsed),
        "pass_wall_s": [sum(w) for w in op_walls[False]],
        "op_wall_s": [
            [op.name, statistics.median(times)] for op, times in zip(passes[0], zip(*op_walls[False]))
        ],
        "wall_s": pass_estimate(op_walls[False] or op_walls[True]),
        "diagnostics": {
            key: reduce.get(key, statistics.median)(values) for key, values in diagnostics.items()
        },
    }
    if args.trace:
        keys = sorted({key for t in totals for key in t})
        layer = {key: statistics.median(t.get(key, 0.0) for t in totals) for key in keys}
        for key, values in samples.items():
            pick = statistics.fmean if key.startswith("gaussian.gate_mean_us") else statistics.median
            layer[key] = pick(values)
        result["layer"] = layer
        result["traced_wall_s"] = pass_estimate(op_walls[True])
        result["untraced_wall_s"] = pass_estimate(op_walls[False])
        result["spans"] = kept
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
