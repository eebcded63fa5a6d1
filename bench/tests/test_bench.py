"""Self-test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import csv
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import measure
import run_bench
import workloads as wl
from stratfit import em
from stratfit.errors import ConvergenceError
from tracer import Tracer

ROOT = measure.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert run_bench.WORKLOADS == wl.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == measure.PER_LAYER
    assert SPEC["command"][1] == "bench/run_bench.py"


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    report = measure.run(name, seed=1, seconds=0, trace=False, size="tiny")
    assert report.correct, report.problems
    assert report.failed == 0 and report.attempted >= 1
    assert set(report.metrics) == set(measure.END_TO_END)
    for metric, (value, unit) in report.metrics.items():
        assert unit == measure.END_TO_END[metric]
        assert value > 0.0, metric


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_traced_run_reports_every_layer_metric_with_nested_spans(name):
    report = measure.run(name, seed=1, seconds=0, trace=True, size="tiny", keep_spans=False)
    assert report.correct, report.problems
    assert set(report.metrics) == set(measure.PER_LAYER)
    for metric, (_, unit) in report.metrics.items():
        assert unit == measure.PER_LAYER[metric]
    tracer = report.tracer
    assert tracer.spans and not tracer.nesting_errors()
    assert min(tracer.self_times().values()) >= -1e-9
    values = {k: v for k, (v, _) in report.metrics.items()}
    assert values["em.loop_s"] >= 0.0
    # warm start + start selection + loop leave out only the final e-step.
    rest = values["em.fit_s"] - values["em.warm_start_s"] - values["em.start_select_s"] \
        - values["em.loop_s"]
    assert 0.0 <= rest <= 0.05 * values["em.fit_s"]
    assert values["trace.spans"] == len(tracer.spans)


def _traced_pass(name, tmp_path):
    inputs = wl.build_inputs(name, 1, str(tmp_path), "tiny")
    tracer = Tracer()
    _, result, observer = measure.one_pass(inputs, tracer)
    return inputs, measure.layer_metrics(tracer, observer.fits), result


def test_traced_iterations_match_the_cli_trace_csv(tmp_path):
    inputs, layers, _ = _traced_pass("normal-cli", tmp_path)
    total = 0
    for out_dir in inputs.out_dirs:
        with open(f"{out_dir}/trace.csv", newline="") as fh:
            total += sum(int(row["iterations"]) for row in csv.DictReader(fh))
    assert layers["em.iterations"] == total


@pytest.mark.parametrize("name", ["tobit", "nine-strata-topk"])
def test_traced_iterations_match_an_untraced_fit(name, tmp_path):
    inputs, layers, _ = _traced_pass(name, tmp_path)
    spec = inputs.spec
    config = em.FitConfig(tol=spec.tol, starts=em.parse_starts(spec.starts))
    total = 0
    for arr in inputs.arrays:
        ds = wl.Dataset.from_arrays(arr["y"], arr["t"], arr["z"], cluster=arr["cluster"],
                                    k_levels=spec.k_levels, family=spec.family)
        total += sum(r.iterations for r in em.fit(ds, spec.family, config=config).trace)
    assert layers["em.iterations"] == total
    if spec.family is wl.Family.TOBIT:
        assert layers["densities.norm_logcdf_calls"] > 0


def _tiny_result(name, tmp_path):
    inputs = wl.build_inputs(name, 0, str(tmp_path), "tiny")
    _, result, _ = measure.one_pass(inputs)
    ref = measure.load_reference("tiny", name, inputs.data_seed)
    assert wl.check_pass(result, ref)[0] == []
    return result, ref


def test_answer_check_catches_wrong_answers(tmp_path):
    result, ref = _tiny_result("tobit", tmp_path)
    a = result.analyses[0]

    def problems(**changes):
        fit = replace(a.fit, **{k: v for k, v in changes.items() if k != "se"})
        se = changes.get("se", a.se)
        bad = wl.PassResult([replace(a, fit=fit, se=se)])
        return wl.check_pass(bad, ref)[0]

    assert problems(loglik=a.fit.loglik - 1e-6 * abs(a.fit.loglik))
    assert problems(mapping_id=a.fit.mapping_id + 1)
    assert problems(tie_ids=a.fit.tie_ids + (99,))
    scaled = {k: [1.01 * v for v in vals] for k, vals in a.se.items()}
    assert problems(se=scaled)
    assert wl.check_pass(wl.PassResult([replace(a, ok=False, error="boom")]), ref)[0]


def test_study_check_catches_worse_recovery(tmp_path):
    result, ref = _tiny_result("recovery-small", tmp_path)
    worse = dict(result.study, label_correct_frac=result.study["label_correct_frac"] - 0.1)
    assert wl.check_pass(wl.PassResult(result.analyses, worse), ref)[0]


def test_failed_fits_are_counted_not_raised(tmp_path, monkeypatch):
    def failing_fit(*args, **kwargs):
        raise ConvergenceError("no starting mapping converged")

    monkeypatch.setattr(em, "fit", failing_fit)
    inputs = wl.build_inputs("tobit", 1, str(tmp_path), "tiny")
    _, result, observer = measure.one_pass(inputs)
    assert [a.ok for a in result.analyses] == [False]
    assert "ConvergenceError" in result.analyses[0].error
    assert wl.answer_metrics(inputs, result)["failed_frac"] == 1.0


def test_cli_nonzero_exit_is_counted(tmp_path):
    inputs = wl.build_inputs("normal-cli", 1, str(tmp_path), "tiny")
    with open(inputs.csv_paths[0], "w") as fh:
        fh.write("y,t\n1.0,0\n")
    _, result, _ = measure.one_pass(inputs)
    assert [a.ok for a in result.analyses] == [False, True]
    assert result.analyses[0].error.startswith("exit 2")


def _run_script(cwd, *extra):
    return subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "normal-cli", "--seed", "1",
         "--seconds", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_script_prints_the_result_line_last():
    proc = _run_script(ROOT, "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(measure.END_TO_END)


def test_script_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(measure.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_script(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_inputs_repeat_for_a_seed(tmp_path):
    a = wl.build_inputs("tobit", 5, str(tmp_path), "tiny")
    b = wl.build_inputs("tobit", 5 + wl.N_REF_SEEDS, str(tmp_path), "tiny")
    c = wl.build_inputs("tobit", 6, str(tmp_path), "tiny")
    assert np.array_equal(a.arrays[0]["y"], b.arrays[0]["y"])
    assert not np.array_equal(a.arrays[0]["y"], c.arrays[0]["y"])
