"""One repetition of a workload, in a fresh interpreter.

  python3 perfbench/child.py WORKLOAD SEED SPAWN_NS OUT_DIR MODE

SPAWN_NS is the parent's `time.monotonic_ns()` just before the spawn (the
monotonic clock is shared by all processes on Linux). MODE is `setup` (stop
when ready), `run` or `trace`. The result goes to OUT_DIR/result.json:

- setup_s: spawn until ready, where ready means the interpreter has started,
  normtower and numpy are imported and the config is parsed;
- verdict_wall_s: ready until the verdict is checked (tables hashed, or the
  point-series conditions evaluated), less the time of the speed samples;
- cpu_s: CPU time of the process over the same interval, less the samples;
- unit_s: mean time of a speed unit over the interval (speed.py; `run`
  mode only, since in `trace` mode the samples would land in the spans);
- peak_rss_mb: peak resident memory of the process;
- rc, tables / conditions: what run.py checks;
- layers: per-layer metrics (trace mode; spans go to OUT_DIR/spans.jsonl).
"""

import json
import resource
import sys
import time
from pathlib import Path

WORKLOAD, SEED, SPAWN_NS, OUT_DIR, MODE = sys.argv[1:6]
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402,F401
import normtower  # noqa: E402,F401

import speed  # noqa: E402
import workloads  # noqa: E402

seed = int(SEED)
out_dir = Path(OUT_DIR)

if WORKLOAD in workloads.CLI_CONFIGS:
    from normtower import cli

    config_path = ROOT / workloads.CLI_CONFIGS[WORKLOAD]
    cli.CampaignConfig.from_json(json.loads(config_path.read_text()),
                                 seed_override=seed, out_override=str(out_dir))
else:
    from normtower import honda, localpoints
    from normtower.curve import curve_from_preset

    curve = curve_from_preset("ss3", 3)

ready_ns = time.monotonic_ns()
result = {"setup_s": (ready_ns - int(SPAWN_NS)) / 1e9}

if MODE != "setup":
    tracer = None
    if MODE == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    sampler = speed.Sampler()
    if MODE == "run":
        sampler.start()
    t0, c0 = time.perf_counter(), time.process_time()
    if WORKLOAD in workloads.CLI_CONFIGS:
        rc = cli.main(["verify", "--config", str(config_path), "--seed", SEED,
                       "--out", str(out_dir)])
        result["tables"] = workloads.table_summary(out_dir)
    else:
        cases = []
        for n, D, bundle_target, point_target in workloads.POINT_CASES:
            # called through their modules, so that tracing.install() sees them
            b = honda.series_bundle(curve, 1, n, D, bundle_target)
            lp = localpoints.local_point_direct(b, n, point_target)
            probe = localpoints.torsion_probe(b, n, trials=workloads.PROBE_TRIALS, seed=seed)
            cases.append({
                "effective_prec": lp.effective_prec >= point_target,
                "crosscheck": lp.report["crosscheck_residual"] >= lp.report["crosscheck_floor"],
                "probe": bool(probe["ok"]),
                **{k: bool(b.report[k]) for k in ("forward_integral", "backward_integral",
                                                  "roundtrip_identity")},
            })
        result["conditions"] = cases
        rc = 0
    sampler.stop()
    result["verdict_wall_s"] = time.perf_counter() - t0 - sampler.spent_s()
    result["cpu_s"] = time.process_time() - c0 - sampler.spent_s()
    if MODE == "run":
        result["unit_s"] = sampler.unit_s()
    result["rc"] = rc
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["self_total_s"] = tracer.self_total()
        with open(out_dir / "spans.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.leaf_s]) + "\n")

result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
out_dir.mkdir(parents=True, exist_ok=True)
(out_dir / "result.json").write_text(json.dumps(result))
