"""sphererank benchmark: one workload per invocation, timed, checked, reported.

    python3 bench/run.py --workload rank_search --seed 1 --seconds 25 --trace 0

Run from the root of a source tree.  The program is imported from ./src (and
child processes get the same path), so nothing has to be installed.  The
workload's fixed operation list (one "round") is repeated until --seconds
have passed; every round repeats the same operations on the same inputs.

Every end-to-end time is scaled to a reference host speed measured with a
calibration loop next to each operation (see Speed).

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 untraced and traced rounds alternate, and it holds
the per-layer metrics and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = {
    "rank_search": "wl_rank",
    "sphere_isotropy": "wl_sphere",
    "algebra_audit": "wl_algebra",
    "cli_session": "wl_cli",
}
SETUP_REPEATS = 11
MIN_SAMPLES = 100
# The host's CPU speed drifts by up to a third over minutes (neighbouring
# load, frequency), far more than the differences between commits.  A fixed
# pure-Python loop timed next to every operation tracks that speed, and every
# reported time is scaled to the speed at which the loop takes CALIBRATION_S
# (its median on the 2-core machine the bounds were set on).
CALIBRATION_ITERS = 20000
CALIBRATION_S = 0.004


class Speed:
    """Running estimate of host speed from the last few calibration loops."""

    def __init__(self):
        self.recent: list[float] = []
        self.samples: list[float] = []

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        seen = {}
        for i in range(CALIBRATION_ITERS):
            acc ^= (i * 2654435761) & 0xFFFF
            seen[i & 255] = acc
        took = time.perf_counter() - t0
        self.recent = (self.recent + [took])[-5:]
        self.samples.append(took)

    def scale(self) -> float:
        """Factor that turns a time measured now into reference-speed time."""
        return CALIBRATION_S / statistics.median(self.recent)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(workload: str, seed: int, workdir: Path, speed: Speed) -> float:
    """Median time from spawning a fresh interpreter until it has imported the
    program and generated and written the workload's inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        out = workdir / f"setup-{i}"
        speed.calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).parent / "setup_child.py"), workload, str(seed),
             str(out)],
            stdout=subprocess.PIPE, env=child_env(), text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        times.append(elapsed * speed.scale())
        shutil.rmtree(out, ignore_errors=True)
    return statistics.median(times)


def run_round(ops, tracer, speed: Speed) -> tuple[dict, list[float], float]:
    """Run every operation once; failed operations map to None.  Returns the
    results, each operation's latency and the round's time, both scaled to
    reference speed (calibration loops excluded)."""
    results = {}
    latencies = []
    for label, op in ops:
        speed.calibrate()
        frame = None
        if tracer:
            tracer.op = label
            frame = tracer.push("bench.op")
        t0 = time.perf_counter()
        try:
            results[label] = op()
        except Exception as exc:  # noqa: BLE001 - any program fault counts as a failed operation
            results[label] = None
            print(f"failed: {label}: {exc}", file=sys.stderr)
        took = time.perf_counter() - t0
        if frame:
            tracer.pop(frame)
        latencies.append(took * speed.scale())
    return results, latencies, sum(latencies)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sphererank" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = importlib.import_module(WORKLOADS[args.workload])

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, wl, workdir: Path) -> int:
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    inputs = wl.make_inputs(args.seed)
    wl.write_inputs(inputs, workdir)
    if tracer:
        tracer.uninstall()
        setup_part = tracer.take()

    first = first_state = None
    mismatches = set()
    attempted = failed = 0
    latencies: list[float] = []
    walls: list[float] = []
    traced_walls: list[float] = []
    speed = Speed()
    began = time.perf_counter()
    while True:
        ops, state = wl.operations(inputs, workdir, None)
        results, lat, wall = run_round(ops, None, speed)
        walls.append(wall)
        latencies += lat
        attempted += len(ops)
        failed += sum(r is None for r in results.values())
        if first is None:
            first, first_state = results, state
        else:
            mismatches |= {k for k, v in results.items() if v != first[k]}
        if tracer:
            ops, _ = wl.operations(inputs, workdir, tracer)
            tracer.install()
            try:
                results, _, wall = run_round(ops, tracer, speed)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            mismatches |= {k for k, v in results.items() if v != first[k]}
        elapsed = time.perf_counter() - began
        # stop before a round that would overrun, once the 90th percentile has
        # at least ten samples beyond it
        if elapsed + elapsed / len(walls) > args.seconds and len(latencies) >= MIN_SAMPLES:
            break
    who = resource.RUSAGE_CHILDREN if getattr(wl, "CHILD_PROCESSES", False) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_s = None if tracer else measure_setup(args.workload, args.seed, workdir, speed)

    ok = {k: v for k, v in first.items() if v is not None}
    errors = [f"{k}: output differs between rounds" for k in sorted(mismatches)]
    errors += wl.check(inputs, ok, first_state)
    corrupted = wl.corrupt(inputs, ok)
    for label, bad in corrupted:
        if not wl.check(inputs, {label: bad}, first_state):
            errors.append(f"{label}: the checker accepted a deliberately wrong answer")
    if not corrupted:
        errors.append("no deliberately wrong answer was tried on the checker")
    for e in errors:
        print(f"check: {e}", file=sys.stderr)

    if tracer:
        rounds = len(traced_walls)
        metrics = tracing.layer_metrics([setup_part + (1.0,), tracer.take() + (1.0 / rounds,)])
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = tracing.LAYER_METRICS
        trace_file = ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_file)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            "op_p90_ms": percentile(latencies, 90) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                 "peak_rss_mb": "MB"}
    print(f"host speed: calibration loop median {statistics.median(speed.samples) * 1e3:.3f} ms "
          f"(reference {CALIBRATION_S * 1e3:.3f} ms), {len(speed.samples)} samples")
    print(f"{args.workload}: seed {args.seed}, {len(walls)} rounds, "
          f"{attempted} operations, {failed} failed, {len(errors)} check errors, "
          f"{len(corrupted)} wrong answers tried on the checker")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
