"""Self-tests of the benchmark.

  python3 -m pytest perfbench/tests -q

The last test runs the p5 workload twice (about a minute).
"""

import importlib
import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import speed
import tracing
import workloads
from tracing import Span, self_times


def test_self_time_nested_spans():
    spans = [Span("a", 0.0, 10.0, -1),
             Span("b", 1.0, 4.0, 0, leaf_s=0.5),
             Span("c", 2.0, 3.0, 1),
             Span("d", 5.0, 7.0, 0, leaf_s=1.0)]
    assert self_times(spans) == [10.0 - 3.0 - 2.0, 3.0 - 1.0 - 0.5, 1.0, 2.0 - 1.0]
    assert sum(self_times(spans)) + 1.5 == 10.0  # leaf time makes up the rest


def test_self_time_overlapping_children_counted_once():
    spans = [Span("a", 0.0, 10.0, -1),
             Span("b", 1.0, 5.0, 0),
             Span("c", 3.0, 6.0, 0),      # overlaps b
             Span("d", 9.0, 12.0, 0),     # runs past its parent
             Span("e", 4.0, 4.5, 0)]      # inside b and c
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20))) == (50, 9)
    assert run.tail_percentile(list(range(40))) == (75, 29)
    assert run.tail_percentile(list(range(1000))) == (99, 989)
    assert run.tail_percentile([1.0] * 30) is None  # ties: nothing lies beyond


def test_reference_time_scales_with_unit_time():
    assert speed.to_reference(10.0, speed.REF_UNIT_S) == 10.0
    assert speed.to_reference(10.0, 2 * speed.REF_UNIT_S) == pytest.approx(5.0)


def test_sampler_samples_the_running_process():
    sampler = speed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 5 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.units) >= 3
    assert 0 < sampler.spent_s() < 5 * speed.INTERVAL_S
    assert min(sampler.units) <= sampler.unit_s() <= max(sampler.units)


def _tables(tmp_path, passes):
    rows = [{"check": f"c{i}", "pass": "true" if ok else "false"} for i, ok in enumerate(passes)]
    (tmp_path / "table.json").write_text(json.dumps({"rows": rows}))
    (tmp_path / "table.csv").write_text("check,pass\n" + "".join(
        f"{r['check']},{r['pass']}\n" for r in rows))
    return workloads.table_summary(tmp_path)


def test_mutated_table_is_a_failure(tmp_path):
    good = _tables(tmp_path, [True] * 3)
    ref = {"p5": {"records": 3, "digests": good["digests"]}}
    assert workloads.checks_per_rep("p5", ref) == 1 + 3 + 2
    assert workloads.failed_checks("p5", ref, {"rc": 0, "tables": good}) == 0
    with open(tmp_path / "table.csv", "a") as f:
        f.write(" ")
    mutated = workloads.table_summary(tmp_path)
    assert workloads.failed_checks("p5", ref, {"rc": 0, "tables": mutated}) == 1
    failing = _tables(tmp_path, [True, False, True])
    assert workloads.failed_checks("p5", ref, {"rc": 1, "tables": failing}) == 1 + 1 + 2
    assert workloads.failed_checks("p5", ref, None) == 6
    short = _tables(tmp_path, [True] * 2)
    assert workloads.failed_checks("p5", ref, {"rc": 0, "tables": short}) == 6


def test_point_series_conditions_are_counted():
    ok = {c: True for c in workloads.POINT_CONDITIONS}
    assert workloads.failed_checks("point_series", {}, {"rc": 0, "conditions": [ok, ok]}) == 0
    bad = {**ok, "probe": False}
    assert workloads.failed_checks("point_series", {}, {"rc": 0, "conditions": [ok, bad]}) == 1
    assert workloads.failed_checks("point_series", {}, {"rc": 0, "conditions": [ok]}) == 13


def test_tracer_counts_snf_from_outside():
    # normtower re-exports a function named snf, so fetch modules by full name
    lambda_modules, lattice, snf = (importlib.import_module(f"normtower.{m}")
                                    for m in ("lambda_modules", "lattice", "snf"))
    original = snf.smith_normal_form
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lattice.smith_normal_form is snf.smith_normal_form is not original
        assert lambda_modules.smith_normal_form is snf.smith_normal_form
        A = np.array([[3, 1, 0], [0, 9, 2]])
        snf.kernel_basis(A, 3, 4)                 # reads V
        snf.smith_normal_form(A, 3, 4).divisors   # divisors only
    finally:
        tracer.uninstall()
    assert snf.smith_normal_form is original and lattice.smith_normal_form is original
    m = tracer.metrics()
    assert m["snf.smith_normal_form.calls"] == 2
    assert m["snf.smith_normal_form.cells"] == 2 * (2 * 3 * 2)
    assert m["snf.smith_normal_form.max_cols"] == 3
    assert m["snf.smith_normal_form.uv_used_ratio"] == 0.5
    assert m["snf.kernel_basis.calls"] == 1
    assert tracer.self_total() <= tracer.spans[-1].end - tracer.spans[0].start


def test_tracer_leaf_kernels_are_summed():
    groupring = importlib.import_module("normtower.groupring")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fam = groupring.omega_family(3, 2)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["groupring.poly_mul.calls"] > 0
    assert m["groupring.poly_mul.coeff_products"] > 0
    assert m["groupring.omega_family.distinct_ratio"] == 1.0
    assert len(tracer.spans) == 1 and tracer.spans[0].leaf_s > 0
    assert fam.omega == groupring.omega_family(3, 2).omega


def test_benchmark_json_lists_every_metric():
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, tracing.unit(name)) for name in tracing.metric_names()]
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "verdict_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "p5", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", [3, 20260810])
def test_tables_do_not_depend_on_the_seed(tmp_path, seed):
    out = tmp_path / "rep"
    subprocess.run([sys.executable, str(workloads.BENCH_DIR / "child.py"), "p5", str(seed),
                    str(time.monotonic_ns()), str(out), "run"],
                   check=True, stdout=subprocess.DEVNULL, timeout=170)
    result = json.loads((out / "result.json").read_text())
    ref = workloads.reference()
    assert result["tables"]["digests"] == ref["p5"]["digests"]
    assert workloads.failed_checks("p5", ref, result) == 0
