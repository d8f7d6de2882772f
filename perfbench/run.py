"""grapy benchmark: one workload per call, its result as JSON on the last line.

    python3 perfbench/run.py --workload train_single_a --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run repeats set-up, timed phase and output checks until the timed phases
add up to ``--seconds`` (at least three repeats). ``--trace 0`` reports the
end-to-end metrics of untraced repeats. ``--trace 1`` spends half the time
untraced and half traced, and reports per-layer metrics of the traced
repeats plus ``trace.overhead``, the traced over the untraced ``wall_s``;
the spans go to ``perfbench/_work/spans-<workload>.tsv``. See
``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: a closed loop with one client on tiny matrices; set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import grapy  # noqa: F401
except ImportError as exc:
    sys.exit(f"error: cannot import grapy from {os.path.join(ROOT, 'src')}: {exc}")

import numpy as np  # noqa: E402

from grapy.tensor import NumericsError, precision  # noqa: E402
from layers import instrument, per_layer  # noqa: E402
from spans import Patcher, Tracer  # noqa: E402
from workloads import WORKLOADS, Repeat, TrainSingleA  # noqa: E402

WORK = os.path.join(HERE, "_work")
MIN_REPEATS = 3
MIN_SETUPS = 5


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0))}


def one_repeat(wl, seed, workdir, quality=False, tracer=None, state=None):
    """Set-up (unless ``state`` is given), timed phase and checks.

    Returns (repeat, state, problems, quality). With a ``tracer``, each of
    the three gets a ``bench.*`` span as the parent of everything traced
    inside it.
    """
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    rep, ops = Repeat(), Patcher()
    with precision(wl.precision):
        if state is None:
            t0 = time.perf_counter()
            with span("bench.setup"):
                state = wl.setup(seed, workdir)
            rep.setup_s = time.perf_counter() - t0
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with span("bench.run"):
                wl.run(state, rep, ops)
        except NumericsError as exc:
            rep.failed += 1
            rep.error = f"operation {rep.ops} raised NumericsError: {exc}"
        finally:
            end = time.perf_counter()
            rep.cpu_s = time.process_time() - cpu0
            ops.restore()
        rep.wall_s = end - t0
        rep.cut(end)
        if rep.error:
            return rep, state, [rep.error], {}
        with span("bench.check"):
            problems = wl.check(state, rep, workdir)
        found = {}
        if quality:
            found, bad = wl.quality(state, rep, workdir)
            problems += bad
        return rep, state, problems, found


def measure(wl, seed, budget, min_repeats, workdir, quality=False, tracer=None):
    """Repeat until the timed phases fill ``budget`` seconds and ``min_repeats`` ran.

    A workload whose timed phase leaves its set-up state unchanged sets up
    once; the others set up before every repeat. Either way, extra set-ups
    follow until ``MIN_SETUPS`` were timed. Returns (repeats, set-up seconds,
    problems, quality).
    """
    reps, setups, problems, found, state = [], [], [], {}, None
    while len(reps) < min_repeats or sum(r.wall_s for r in reps) < budget:
        rep, state, bad, q = one_repeat(wl, seed, workdir, quality and not reps, tracer,
                                        state if wl.reuses_setup else None)
        reps.append(rep)
        problems += bad
        found = found or q
        if rep.setup_s is not None:
            setups.append(rep.setup_s)
        if rep.error:
            return reps, setups, problems, found
    while len(setups) < MIN_SETUPS:
        with precision(wl.precision):
            t0 = time.perf_counter()
            wl.setup(seed, workdir)
            setups.append(time.perf_counter() - t0)
    return reps, setups, problems, found


def timings(reps) -> tuple[float, np.ndarray]:
    """The median timed phase of the repeats (s), and every latency measured
    in them (ms)."""
    good = [r for r in reps if not r.error] or reps[:1]
    return (statistics.median(r.wall_s for r in good),
            np.concatenate([r.latencies_ms for r in good]))


def same_outputs(reps, label) -> list[str]:
    first = reps[0].outputs
    problems = [f"{label} repeat {i}: {key} differs from repeat 0"
                for i, rep in enumerate(reps[1:], start=1)
                for key in ("output", "losses") if rep.outputs.get(key) != first.get(key)]
    if len({(r.ops, len(r.latencies_ms)) for r in reps}) != 1:
        problems.append(f"{label}: repeats ran different numbers of operations")
    return problems


def self_check(workdir) -> list[str]:
    """A tiny training run untraced, then traced: losses and checkpoint bytes must match."""
    tiny = TrainSingleA(n_train=8, epochs_pretrain=1, epochs_main=1)
    reps = []
    for tracer in (None, Tracer()):
        if tracer:
            instrument(tracer)
        try:
            rep, _, problems, _ = one_repeat(tiny, 0, workdir, tracer=tracer)
        finally:
            if tracer:
                tracer.restore()
        if problems:
            return [f"self-check: {p}" for p in problems]
        reps.append(rep)
    return same_outputs(reps, "self-check (untraced vs traced)")


def traced_metrics(name, wl, seed, budget, workdir, plain) -> tuple[dict, list, list[str]]:
    """Per-layer metrics of traced repeats; ``plain`` are the untraced ones."""
    tracer = Tracer()
    instrument(tracer)
    try:
        traced, setups, problems, _ = measure(wl, seed, budget, 1, workdir, tracer=tracer)
    finally:
        tracer.restore()
    overhead = timings(traced)[0] / timings(plain)[0]
    metrics = per_layer(tracer, len(traced), len(setups), sum(r.images for r in traced),
                        overhead)
    path = os.path.join(WORK, f"spans-{name}.tsv")
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return metrics, traced, problems


def run_workload(name, seed, seconds, trace) -> dict:
    wl = WORKLOADS[name]
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    env["loadavg_before"] = os.getloadavg()[0]

    budget = seconds / 2 if trace else seconds
    reps, setups, problems, found = measure(wl, seed, budget, 1 if trace else MIN_REPEATS,
                                            workdir, quality=True)
    failed = any(r.error for r in reps)
    if trace:
        metrics, traced, bad = ({}, [], []) if failed else traced_metrics(
            name, wl, seed, budget, workdir, reps)
        problems += bad
        reps += traced
    else:
        wall, lat = timings(reps)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "img_s": (reps[0].images / wall, "1/s"),
            "op_ms_p50": (float(np.percentile(lat, 50)), "ms"),
            "op_ms_p90": (float(np.percentile(lat, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        env["latency_samples"] = len(lat)
    if not failed:
        problems += same_outputs(reps, name)
    # after the workload's memory peak was read, so that figure is the workload's own
    problems += self_check(os.path.join(workdir, "selfcheck"))

    env["repeats"] = len(reps)
    env["wall_s_per_repeat"] = [round(r.wall_s, 4) for r in reps]
    # share of the timed phases' wall time the process had the CPU
    env["cpu_share"] = sum(r.cpu_s for r in reps) / sum(r.wall_s for r in reps)
    env["loadavg_after"] = os.getloadavg()[0]
    for key in ("loadavg_before", "loadavg_after"):
        if env[key] > env["nproc"]:
            print(f"warning: {key} {env[key]:.2f} exceeds nproc {env['nproc']}", file=sys.stderr)
    print("env " + json.dumps(env))
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {name:<17} {key:<38} {value:>14.6g} {unit}")
    for key, (value, unit) in found.items():
        print(f"  {name:<17} {key:<38} {value:>14.6g} {unit} (printed, not bounded)")
    return {
        "correct": not problems,
        "attempted": sum(r.ops for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in turn, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
