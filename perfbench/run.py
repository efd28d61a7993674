"""The normtower benchmark.

  python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from `src/`, so
nothing needs installing. Workloads (see workloads.py): `full_grid`, `p5`,
`point_series`; `--workload all` runs the three in turn, and its last line
names each metric `<workload>.<metric>`. Each is a closed loop: one client, one repetition at a time,
each repetition a fresh interpreter (child.py). The seed reaches the program
only as `--seed` (CLI workloads) or as the torsion-probe seed.

`--trace 0` spawns SETUP_PROBES interpreters that stop when ready, half
before and half after the repetitions, and runs repetitions while the next
one, at the median length so far, still ends within T seconds (at least one). It reports the end-to-end metrics,
medians over the samples of the run:
  setup_s      spawn to ready (imports done, config parsed), every spawn;
  verdict_s    ready to a checked verdict, every repetition;
  peak_rss_mb  peak resident memory, every repetition.
The two times are given at the reference speed of speed.py: verdict_s by
the speed sampled inside the repetition, setup_s by a calibration the
parent runs just before each spawn. The shared host's speed drifts by more
than the bounds over minutes; wall times are printed beside them.
`--trace 1` runs one untraced and one traced repetition and reports the
per-layer metrics of the traced one (tracing.py) plus, from wall times,
proc.cpu_s, proc.wait_s (wall minus CPU), proc.tracing_overhead_s (traced
minus untraced), proc.verdict_wall_s (untraced) and proc.speed_ratio (the
reference unit time over the untraced repetition's, above 1 when the host
ran faster than the reference).

Every repetition is checked: exit code, every record and both table digests
against perfbench/reference.json (CLI workloads), or every point-series
condition. `failed`/`attempted` counts those checks, so fail_ratio is
failed / attempted.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Above it go, per workload, a summary
per metric (median, the highest percentile with at least ten samples beyond
it, sample count), fail_ratio and the run record: Python and numpy versions, nproc, CPU model, load
average at start, seed and git commit. The record, and the spans of a traced
repetition, are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

ROOT = workloads.ROOT
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROBES = 20
CHILD_TIMEOUT_S = 170
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest p in PERCENTILES whose nearest-rank value
    has at least ten samples above it, or None when no p qualifies."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in PERCENTILES:
        k = max(math.ceil(p / 100 * n), 1)
        if k <= n and sum(1 for x in xs if x > xs[k - 1]) >= 10:
            best = (p, xs[k - 1])
    return best


def summarize(name: str, unit: str, samples: list[float]) -> str:
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    tail_txt = f", p{tail[0]:g} {tail[1]:.6g}" if tail else ", no percentile with 10 beyond"
    return f"{name}: median {med:.6g} {unit}{tail_txt} (n={len(samples)})"


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    import numpy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "loadavg_start": os.getloadavg(),
        "git_commit": commit,
    }


def spawn(workload: str, seed: int, out_dir: Path, mode: str) -> tuple[dict | None, float]:
    """Run child.py once; return its result (None if it failed) and its wall
    time. The result gains setup_ref_s and, in `run` mode, verdict_s: its
    times at the reference speed."""
    out_dir.mkdir(parents=True)
    setup_unit_s = speed.calibrate()
    t0 = time.perf_counter()
    cmd = [sys.executable, str(workloads.BENCH_DIR / "child.py"), workload, str(seed),
           str(time.monotonic_ns()), str(out_dir), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: repetition timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    result_file = out_dir / "result.json"
    if not result_file.exists():
        print(f"{workload}: child exited {proc.returncode} without a result", file=sys.stderr)
        return None, wall
    result = json.loads(result_file.read_text())
    result["setup_ref_s"] = speed.to_reference(result["setup_s"], setup_unit_s)
    if mode == "run":
        result["verdict_s"] = speed.to_reference(result["verdict_wall_s"], result["unit_s"])
    return result, wall


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One run of one workload: the result object, or None if no repetition
    produced a result."""
    ref = workloads.reference()
    record = run_record(workload, seed, seconds, trace)
    run_dir = OUT_ROOT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    deadline = time.perf_counter() + seconds

    attempted = failed = 0
    reps: list[dict] = []
    setups: list[float] = []

    def repetition(mode: str) -> dict | None:
        nonlocal attempted, failed
        out = run_dir / f"{mode}{len(reps)}"
        result, wall = spawn(workload, seed, out, mode)
        attempted += workloads.checks_per_rep(workload, ref)
        failed += workloads.failed_checks(workload, ref, result)
        if result is not None:
            result["wall_s"] = wall
            setups.append(result["setup_ref_s"])
            reps.append(result)
            if mode == "trace":
                shutil.move(out / "spans.jsonl", run_dir / "spans.jsonl")
        shutil.rmtree(out)
        return result

    if trace:
        plain, traced = repetition("run"), repetition("trace")
        if plain is None or traced is None:
            return None
        metrics = {k: (v, tracing.unit(k)) for k, v in traced["layers"].items()}
        metrics["proc.cpu_s"] = (plain["cpu_s"], "s")
        metrics["proc.wait_s"] = (plain["verdict_wall_s"] - plain["cpu_s"], "s")
        metrics["proc.tracing_overhead_s"] = (
            traced["verdict_wall_s"] - plain["verdict_wall_s"], "s")
        metrics["proc.verdict_wall_s"] = (plain["verdict_wall_s"], "s")
        metrics["proc.speed_ratio"] = (speed.REF_UNIT_S / plain["unit_s"], "ratio")
        # self times partition the traced interval, so they cannot exceed it
        attempted += 1
        failed += traced["self_total_s"] > traced["verdict_wall_s"] + 1e-6
        for k, (v, u) in metrics.items():
            label = " (computed)" if k.endswith(tracing.COMPUTED) else ""
            print(f"{workload} {k}: {v:.6g} {u}{label}")
        record["traced_verdict_wall_s"] = traced["verdict_wall_s"]
        record["traced_self_total_s"] = traced["self_total_s"]
    else:
        # probes before and after the repetitions, so setup_s spans the run
        probe_walls: list[float] = []
        setup_walls: list[float] = []

        def probes(count: int) -> bool:
            for _ in range(count):
                out = run_dir / f"setup{len(setups)}"
                result, wall = spawn(workload, seed, out, "setup")
                shutil.rmtree(out)
                if result is None:
                    return False
                setups.append(result["setup_ref_s"])
                setup_walls.append(result["setup_s"])
                probe_walls.append(wall)
            return True

        if not probes(SETUP_PROBES // 2):
            return None
        trailing = SETUP_PROBES - SETUP_PROBES // 2
        reserve = trailing * statistics.median(probe_walls)
        while repetition("run") is not None:
            next_wall = statistics.median(r["wall_s"] for r in reps)
            if time.perf_counter() + next_wall + reserve > deadline:
                break
        if not probes(trailing):
            return None
        if not reps:
            return None
        verdicts = [r["verdict_s"] for r in reps]
        rss = [r["peak_rss_mb"] for r in reps]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "verdict_s": (statistics.median(verdicts), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
        print(workload, summarize("setup_s", "s", setups))
        print(workload, summarize("verdict_s", "s", verdicts))
        print(workload, summarize("peak_rss_mb", "MB", rss))
        print(workload, summarize("setup_wall_s", "s", [r["setup_s"] for r in reps]
                                  + setup_walls))
        print(workload, summarize("verdict_wall_s", "s", [r["verdict_wall_s"] for r in reps]))
        print(workload, summarize("speed_ratio", "ratio",
                                  [speed.REF_UNIT_S / r["unit_s"] for r in reps]))

    record.update(attempted=attempted, failed=failed, repetitions=len(reps),
                  setup_samples=setups, verdict_samples=[r.get("verdict_s") for r in reps],
                  verdict_wall_samples=[r["verdict_wall_s"] for r in reps],
                  unit_samples=[r.get("unit_s") for r in reps],
                  metrics={k: v for k, (v, _) in metrics.items()})
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{workload} fail_ratio: {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} checks failed)")
    print(f"{workload} record: " + json.dumps(record))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "normtower" / "__init__.py").is_file():
        print(f"no normtower sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, args.trace)
        if results[name] is None:
            return 1
    if args.workload == "all":
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        out = results[args.workload]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
