"""sqzlab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout (the program is imported from ./src).
Every workload is a closed loop with one operation in flight and at most
nproc BLAS threads (one in cli-catalog). With --trace 0 the last line of
standard output holds the end-to-end metrics of BENCHMARK.json; with
--trace 1 it holds the per-layer metrics of a separate traced run. The
line before it is the machine block, and the whole result also goes to
.bench_out/BENCH_<workload>_seed<N>_trace<T>.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402  (sibling module; does not import sqzlab at import time)

IN_PROCESS = ("fock-engineering", "gaussian-circuits", "homodyne-tomography")
WORKLOADS = ("cli-catalog",) + IN_PROCESS
SETUP_SAMPLES = 3  # set-up is measured this many times per run; the median is reported
HARD_LIMIT_S = 170.0  # every child is stopped before the run reaches this

# The catalog at its defaults; teleport-sweep needs r_max, set as in the README.
CATALOG = (
    ("loss-sweep", []),
    ("opa-spectrum", []),
    ("ppktp-estimate", []),
    ("cavity-figures", []),
    ("tomography-demo", []),
    ("spectrum-drift-demo", []),
    ("teleport-sweep", ["--param", "r_max=2.0"]),
    ("gw-snr-sweep", []),
    ("herald-photon", []),
    ("kitten", []),
    ("kitten-superposition", []),
)
SMOKE_CATALOG = ("loss-sweep", "teleport-sweep", "cavity-figures")
LOSS_SWEEP_R = 1.15  # loss-sweep default r
TOMO_R, TOMO_WIGNER_TOL = 0.69, 0.45  # tomography-demo default r; max|dW| / max W


class Deadline:
    """Seconds left for a child before the whole run reaches `limit`."""

    def __init__(self, limit):
        self.start = time.monotonic()
        self.limit = limit

    def left(self) -> float:
        return max(1.0, self.limit - (time.monotonic() - self.start))


def _child_env(root: Path, workload: str) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A sqz child makes few, small BLAS calls, and waking a second BLAS
    # thread for them cost up to 0.4 s per kitten child, by the state of the host.
    threads = "1" if workload == "cli-catalog" else str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


# -- cli-catalog ---------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path) -> list:
    lines = path.read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _check_scenario(name: str, out: Path) -> tuple[int, dict]:
    """Raise ValueError when an output misses its reference.

    Returns the bytes written and the accuracy diagnostics.
    """
    manifest = json.loads((out / "manifest.json").read_text())
    outputs = manifest["outputs"]
    if not outputs:
        raise ValueError("manifest lists no outputs")
    for fname, digest in outputs.items():
        if _sha256(out / fname) != digest:
            raise ValueError(f"sha256 of {fname} does not match the manifest")
    diag = {}
    if name == "loss-sweep":
        for t, var, _ in _csv_rows(out / "loss_sweep.csv"):
            expect = t * math.exp(-2 * LOSS_SWEEP_R) / 2 + (1 - t) / 2
            if abs(var - expect) > 1e-12 * expect:
                raise ValueError(f"loss-sweep Var at T={t}: {var} != {expect}")
    elif name == "teleport-sweep":
        for r, fid, _ in _csv_rows(out / "teleport_sweep.csv"):
            expect = 1 / (1 + math.exp(-2 * r))
            if abs(fid - expect) > 1e-12:
                raise ValueError(f"teleport fidelity at r={r}: {fid} != {expect}")
    elif name == "tomography-demo":
        vx, vp = math.exp(-2 * TOMO_R) / 2, math.exp(2 * TOMO_R) / 2
        peak = 1 / (2 * math.pi * math.sqrt(vx * vp))
        err = max(
            abs(w - peak * math.exp(-x * x / (2 * vx) - p * p / (2 * vp)))
            for x, p, w in _csv_rows(out / "wigner.csv")
        ) / peak
        if err > TOMO_WIGNER_TOL:
            raise ValueError(f"tomography-demo Wigner error {err:.3g} > {TOMO_WIGNER_TOL}")
        diag["homodyne.wigner_err"] = err
    return sum((out / f).stat().st_size for f in outputs), diag


def _rests(children) -> dict:
    """Scenario -> wall minus set-up of each of its children.

    `children` holds (scenario, setup, wall) for each child. A child's
    set-up (spawn until `sqzlab.cli` is imported) is the same for every
    scenario and is reported as `setup_s`; what is left of the child is its
    scenario's work: the run, its outputs and the interpreter's exit.
    """
    rest = {}
    for name, setup, wall in children:
        rest.setdefault(name, []).append(wall - setup)
    return rest


def catalog_estimate(children) -> float:
    """Wall time of one catalog pass after set-up: the sum over the
    scenarios of the median of their rest (see `_rests`)."""
    return sum(statistics.median(r) for r in _rests(children).values())


def full_pass(children) -> float:
    """A whole catalog pass, set-up included: each child's median set-up
    once per scenario, plus `catalog_estimate`."""
    if not children:
        return 0.0
    start_up = statistics.median(setup for _, setup, _ in children)
    return len({name for name, _, _ in children}) * start_up + catalog_estimate(children)


def _run_catalog(args, root, env, workdir, deadline):
    rng = random.Random(args.seed)
    catalog = dict(c for c in CATALOG if not args.smoke or c[0] in SMOKE_CATALOG)
    stop_at = time.monotonic() + args.seconds
    attempted = failed = 0
    errors, diagnostics, samples, kept = [], {}, {}, []
    children = {False: [], True: []}  # (scenario, setup, wall) of each child that passed its check
    last_wall = {}  # scenario -> wall of its latest untraced child
    layer = {"cli.overhead_s": 0.0, "scenarios.output_bytes": 0.0}

    def run_child(name, traced, cli_seed):
        nonlocal attempted, failed
        attempted += 1
        out = workdir / f"{attempted}-{name}-{int(traced)}"
        report = workdir / f"{attempted}-{name}-{int(traced)}.json"
        argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(report), str(int(traced)),
                "run", name, "--seed", str(cli_seed), "--out", str(out)] + catalog[name]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                                  text=True, timeout=deadline.left())
        except subprocess.TimeoutExpired:
            last_wall[name] = time.monotonic() - t0
            failed += 1
            errors.append(f"{name}: timed out")
            return
        child_wall = time.monotonic() - t0
        if not traced:
            last_wall[name] = child_wall
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            rep = json.loads(report.read_text())
            n_bytes, diag = _check_scenario(name, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failed += 1
            errors.append(f"{name}: {exc}")
            return
        finally:
            shutil.rmtree(out, ignore_errors=True)
        children[traced].append((name, rep["ready"] - t0, child_wall))
        if not traced:
            for key, value in diag.items():
                diagnostics.setdefault(key, []).append(value)
            return
        child_spans = [[n, tuple(t) if isinstance(t, list) else t, s, e, p]
                       for n, t, s, e, p in rep["spans"]]
        kept.append({"scenario": name, "spans": rep["spans"]})
        child_totals, child_samples = spans.summary(child_spans, set())
        for key, values in child_samples.items():
            samples.setdefault(key, []).extend(values)
        in_run = sum(e - s for n, _, s, e, _ in child_spans if n == "scenarios.run_scenario")
        layer["cli.overhead_s"] += child_wall - in_run
        layer["scenarios.output_bytes"] += n_bytes
        for key, value in child_totals.items():
            layer[key] = layer.get(key, 0.0) + value

    # one pass: every scenario once, and once more traced with --trace 1
    cli_seed = rng.randrange(2**31)
    for name in catalog:
        for traced in (False, True) if args.trace else (False,):
            run_child(name, traced, cli_seed)
    # An untraced run then goes on until --seconds. Each further child runs
    # the scenario whose median work after set-up, divided by its number of
    # children so far, is largest among those whose latest child would still
    # end in time. So most go to tomography-demo, which does most of the work.
    while not args.trace:
        rest = _rests(children[False])
        fits = [n for n in rest if time.monotonic() + last_wall[n] <= stop_at]
        if not fits:
            break
        run_child(max(fits, key=lambda n: statistics.median(rest[n]) / len(rest[n])),
                  False, rng.randrange(2**31))
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "passes": 1,
        "setup_s": [setup for _, setup, _ in children[False]],
        "children": {"untraced": children[False], "traced": children[True]},
        "wall_s": catalog_estimate(children[False]),
        "traced_wall_s": catalog_estimate(children[True]),
        "untraced_wall_s": catalog_estimate(children[False]),
        "traced_pass_s": full_pass(children[True]),
        "diagnostics": {k: statistics.median(v) for k, v in diagnostics.items()},
        "spans": kept,
        "layer": layer | {k: statistics.median(v) for k, v in samples.items()},
    }


# -- in-process workloads ------------------------------------------------------


def _run_worker(args, root, env, workdir, deadline, setup_only, stop_at):
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--stop-at", repr(stop_at), "--trace", str(args.trace),
            "--workdir", str(workdir)]
    argv += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                          timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - t0, result


def _run_in_process(args, root, env, workdir, deadline):
    # the set-up samples count against --seconds, so a run lasts about --seconds
    stop_at = time.monotonic() + args.seconds
    samples = 1 if args.smoke else SETUP_SAMPLES
    setups = [_run_worker(args, root, env, workdir, deadline, True, stop_at)[0]
              for _ in range(samples - 1)]
    setup, result = _run_worker(args, root, env, workdir, deadline, False, stop_at)
    result["setup_s"] = setups + [setup]
    return result


# -- assembling the result -----------------------------------------------------


def _declared(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _per_layer(result: dict) -> dict:
    layer = dict(result.get("layer", {}))
    layer.update(result["diagnostics"])
    for rate, count, seconds in (
        ("homodyne.reconstruct_pairs_per_s", "homodyne.reconstruct_pairs", "homodyne.reconstruct_s"),
        ("fock.wigner_points_per_s", "fock.wigner_points", "fock.wigner_s"),
    ):
        n, t = layer.pop(count, 0.0), layer.get(seconds, 0.0)
        layer[rate] = n / t if t > 0 else 0.0
    layer["trace.wall_s"] = result["traced_wall_s"]
    layer["trace.untraced_wall_s"] = result["untraced_wall_s"]
    layer["trace.overhead_s"] = result["traced_wall_s"] - result["untraced_wall_s"]
    return layer


def _breakdown(result: dict, layer: dict) -> dict:
    """Shares of the traced pass, set-up included in cli-catalog: the kernel
    each workload is expected to be dominated by, and each layer's self time."""
    wall = result.get("traced_pass_s", layer["trace.wall_s"])
    kernels = {
        "cli.overhead_s": layer.get("cli.overhead_s", 0.0),
        "fock.beam_splitter_s": layer.get("fock.beam_splitter_s", 0.0),
        "gaussian.gate_s": layer.get("gaussian.gate_s", 0.0),
        "homodyne.reconstruct_s": layer.get("homodyne.reconstruct_s", 0.0),
    }
    layers = {f"{k}.self_s": layer.get(f"{k}.self_s", 0.0) for k in spans.SELF_LAYERS}
    if wall <= 0:
        return {}
    kernels = {k: round(v / wall, 4) for k, v in kernels.items()}
    return {
        "dominant_kernel": max(kernels, key=kernels.get),
        "kernel_share": kernels,
        "layer_self_share": {k: round(v / wall, 4) for k, v in layers.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "sqzlab" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of a sqzlab checkout (src/sqzlab and BENCHMARK.json)", file=sys.stderr)
        return 2
    declared = _declared(root)
    env = _child_env(root, args.workload)
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    workdir = root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = Deadline(HARD_LIMIT_S)
    try:
        if args.workload == "cli-catalog":
            result = _run_catalog(args, root, env, workdir, deadline)
        else:
            result = _run_in_process(args, root, env, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result["errors"]:
        print(f"failed: {line}", file=sys.stderr)

    if args.trace:
        produced = _per_layer(result)
        names = declared["per_layer"]
    else:
        produced = {
            "setup_s": statistics.median(result["setup_s"]) if result["setup_s"] else 0.0,
            "wall_s": result["wall_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        names = declared["end_to_end"]
    metrics = {name: {"value": float(produced.get(name, 0.0)), "unit": unit} for name, unit in names.items()}

    from machine import machine  # imports numpy, so only after the children ran

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine(root),
        "passes": result["passes"],
        "samples": {k: result[k] for k in ("setup_s", "children", "pass_wall_s", "op_wall_s") if k in result},
        "unreported": {k: v for k, v in produced.items() if k not in names},
        "errors": result["errors"],
    }
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        record["breakdown"] = _breakdown(result, produced)
        # the raw spans of the traced passes: [name, tag, start, end, parent]
        (out_dir / f"SPANS_{args.workload}_seed{args.seed}.json").write_text(json.dumps(result["spans"]))
    final = {"correct": result["failed"] == 0, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    record["result"] = final
    (out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({k: record[k] for k in ("machine", "passes", "samples")} | {"breakdown": record.get("breakdown")}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
