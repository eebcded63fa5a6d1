"""The scripts under tools/: their usage, bit_evidence's comparisons and the
calibration replay of the pruning rule.

Each tool runs as a script in a subprocess, as it is used, so a library
name it imports that no longer exists fails here.
"""

import dataclasses
import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stratfit import cli, effects, em, simulate
from stratfit.core import Dataset, ModelParams, StrataGrid
from stratfit.densities import Family
from stratfit.errors import ConvergenceError
from stratfit.em import FitConfig, fit

from _oracles import em_one_start_oracle
from test_estimation import ORACLE_CASES, fit_starts, pruned_at, simulate_four_strata

TOOLS_DIR = Path(__file__).resolve().parents[1] / "tools"


def run_tool(name, *args):
    return subprocess.run([sys.executable, str(TOOLS_DIR / name), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, usage", [
    ("bit_evidence.py", "python tools/bit_evidence.py compare --answers A.json B.json"),
    ("prune_calibration.py", "python tools/prune_calibration.py report TRAJ.json [SHORT_PHASE]"),
])
def test_no_arguments_print_the_usage(name, usage):
    out = run_tool(name)
    assert out.returncode == 2, out.stderr
    assert usage in out.stderr


# one analysis whose winner is mapping 0, a loser, the tie ids and a Hessian
DUMP = {
    "w/seed0/analysis0/record0/mapping_id": "0",
    "w/seed0/analysis0/record0/loglik": (-100.0).hex(),
    "w/seed0/analysis0/record0/iterations": "12",
    "w/seed0/analysis0/record1/mapping_id": "1",
    "w/seed0/analysis0/record1/loglik": (-150.0).hex(),
    "w/seed0/analysis0/record1/iterations": "4",
    "w/seed0/analysis0/tie_ids": "(0,)",
    "w/seed0/analysis0/hessian": "(1,):00",
    "w/seed0/analysis0/natural_se_naive": "(1,):00",
    "w/seed0/analysis0/natural_se_cluster": "(1,):00",
    "w/seed0/analysis0/cli:params.csv": "ab" * 32,
    "w/seed0/analysis0/cli:effects.csv": "ef" * 32,
    "w/seed0/analysis0/cli:trace.csv": "12" * 32,
    "w/seed0/analysis0/cli:trace.csv#mapping1": "34" * 32,
    "w/seed0/analysis0/cli:summary.json#stop_reasons": "56" * 32,
}


@pytest.mark.parametrize("key, value, answers_differ", [
    (None, None, False),
    ("record1/iterations", "3", False),  # a loser stopped earlier
    ("record0/iterations", "13", True),  # the winner's record
    ("tie_ids", "(0, 1)", True),
    ("hessian", "(1,):01", True),
    ("natural_se_naive", "(1,):01", True),
    ("natural_se_cluster", "(1,):01", True),
    ("cli:params.csv", "cd" * 32, True),  # a CLI output's bytes
    ("cli:effects.csv", "cd" * 32, True),
    ("cli:trace.csv", "cd" * 32, True),  # the winner's row
    ("cli:trace.csv#mapping1", "cd" * 32, False),  # a loser's row
    ("cli:summary.json#stop_reasons", "cd" * 32, False),
    # a loser that moves into the near-tie band but is no tie
    ("record1/loglik", (-100.001).hex(), True),
])
def test_compare_exit_status(tmp_path, key, value, answers_differ):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(DUMP))
    b.write_text(json.dumps(DUMP if key is None else {**DUMP, f"w/seed0/analysis0/{key}": value}))
    plain, answers = run_tool("bit_evidence.py", "compare", a, b), run_tool(
        "bit_evidence.py", "compare", "--answers", a, b)
    assert (plain.returncode, answers.returncode) == (int(key is not None), int(answers_differ)), (
        plain.stdout + plain.stderr + answers.stdout + answers.stderr)


def test_compare_prints_the_relative_deviation_of_float_arrays(tmp_path):
    # float arrays of one shape print max|a-b| / max|a| and each workload's
    # largest after the keys; arrays of two shapes and other values their bits
    bits = import_tool("bit_evidence")._bits
    se = np.array([2.0, -4.0])
    a = {"w/seed0/analysis0/se_cluster": bits(se), "w/seed1/analysis0/se_cluster": bits(se),
         "v/seed0/analysis0/se_naive": bits(se), "w/seed0/analysis0/hessian": bits(se),
         "w/seed0/analysis0/tie_ids": "(0,)"}
    b = {**a, "w/seed0/analysis0/se_cluster": bits(se + [0.0, 4e-9]),
         "w/seed1/analysis0/se_cluster": bits(se + [1e-9, 0.0]),
         "v/seed0/analysis0/se_naive": bits(se - [1e-12, 0.0]),
         "w/seed0/analysis0/hessian": bits(se[:1]), "w/seed0/analysis0/tie_ids": "(0, 1)"}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    out = run_tool("bit_evidence.py", "compare", pa, pb)
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:5] == [
        "v/seed0/analysis0/se_naive: max|a-b|/max|a| = 2.5e-13",
        f"w/seed0/analysis0/hessian: {bits(se)} != {bits(se[:1])}",
        "w/seed0/analysis0/se_cluster: max|a-b|/max|a| = 1e-09",
        "w/seed0/analysis0/tie_ids: (0,) != (0, 1)",
        "w/seed1/analysis0/se_cluster: max|a-b|/max|a| = 2.5e-10",
    ]
    assert lines[5:7] == [
        "v: largest max|a-b|/max|a| = 2.5e-13 (v/seed0/analysis0/se_naive)",
        "w: largest max|a-b|/max|a| = 1e-09 (w/seed0/analysis0/se_cluster)",
    ]


@pytest.mark.parametrize("short, rate, iterations", [
    ((), 0.5, 35), ((3,), 0.5, 33), ((2,), 0.5, 32), ((), 0.01, 33),
], ids=["short0-35", "short1-33", "short2-32", "collapsing-33"])
def test_calibration_report(tmp_path, short, rate, iterations):
    # the leader converges geometrically; the other start trails it by 100
    # and is pruned at the first check of the short phase (evaluation 5, or
    # 3 or 2 when the short phase starts there), or, when its gains shrink
    # 100-fold per evaluation, by its projected gain at evaluation 3
    steps = 10.0 * 0.5 ** np.arange(31)
    traj = tmp_path / "traj.json"
    traj.write_text(json.dumps({"w/seed0/analysis0": {
        "weight": 100.0, "max_iter": 500,
        "starts": {"0": (-100.0 - steps).tolist(),
                   "1": (-200.0 - 10.0 * rate ** np.arange(31)).tolist()}}}))
    out = run_tool("prune_calibration.py", "report", traj, *short)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "near-tie starts the rules would stop: 0" in out.stdout
    assert f"EM iterations: w {iterations}" in out.stdout
    assert "largest near-tie lag/ahead past the floor, evaluations 3-10: 0 " in out.stdout


def test_calibration_record_writes_every_start_history(tmp_path, monkeypatch, calibration):
    # record on one tiny analysis from bit_evidence's own generator, so its
    # tuples are those record unpacks; both rules are off while it runs
    be = calibration.be
    monkeypatch.setattr(em, "_PRUNE_MARGIN", em._PRUNE_MARGIN)
    monkeypatch.setattr(em, "_PRUNE_AHEAD", em._PRUNE_AHEAD)
    monkeypatch.setattr(be, "SEEDS", range(1))
    monkeypatch.setattr(be.wl, "build_inputs", functools.partial(be.wl.build_inputs, size="tiny"))
    monkeypatch.setattr(be, "bench_analyses", functools.partial(be.bench_analyses,
                                                                names=["tobit"]))
    monkeypatch.setattr(be, "grid_analyses", lambda: iter(()))
    path = tmp_path / "traj.json"
    calibration.record(str(path))
    traj = json.loads(path.read_text())
    assert list(traj) == ["tobit/seed0/analysis0"]
    a = traj["tobit/seed0/analysis0"]
    assert (a["weight"], a["max_iter"]) == (400.0, FitConfig().max_iter)
    assert len(a["starts"]) == 16
    assert all(1 < len(h) <= a["max_iter"] + 1 for h in a["starts"].values())


def import_tool(name):
    """A script under tools/, imported with sys.path and the environment
    restored as they were (its import sets both)."""
    path, env = list(sys.path), dict(os.environ)
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:] = path
        os.environ.clear()
        os.environ.update(env)


@pytest.fixture(scope="module")
def calibration():
    return import_tool("prune_calibration")


def test_study_dump_writes_every_replicate_field():
    # dump --study records run_study's own results: each replicate's fields
    # as run_replicate gives them alone, floats and arrays as their bits
    tool = import_tool("bit_evidence")
    config = simulate.SimConfig(n_per_arm=8, dispersion_sd=1.6, prob_scenario="one_small",
                                replicates=4, seed=7)
    out = {}
    tool._study(out, "s", config)
    fields = [f.name for f in dataclasses.fields(simulate.ReplicateResult)]
    assert sorted(out) == sorted(f"s/rep{i}/{f}" for i in range(4) for f in fields)
    for i in range(4):
        rep = simulate.run_replicate(config, i)
        assert out[f"s/rep{i}/ok"] == repr(rep.ok)
        assert out[f"s/rep{i}/error"] == repr(rep.error)
        if rep.ok:
            assert out[f"s/rep{i}/loglik"] == rep.loglik.hex()
            assert out[f"s/rep{i}/location_error"] == tool._bits(rep.location_error)
    assert out["s/rep1/ok"] == "False" and out["s/rep0/ok"] == "True"


def test_analysis_dump_writes_the_natural_parameter_ses():
    # each covariance's natural-parameter SEs, as params.csv reports them,
    # next to the effect SEs
    tool = import_tool("bit_evidence")
    ds, _ = simulate_four_strata(150, seed=46)
    ds = Dataset.from_arrays(ds.y, ds.t, ds.z, cluster=np.arange(ds.n) % 20, k_levels=2)
    out = {}
    tool._analysis(out, "a", ds, Family.NORMAL, FitConfig())
    res = fit(ds)
    _, cov_n, cov_c = effects.effect_table(res, ds)
    for key, cov in (("a/natural_se_naive", cov_n), ("a/natural_se_cluster", cov_c)):
        assert out[key] == tool._bits(effects.natural_param_ses(res, cov))
    assert out["a/cov_cluster"] == tool._bits(cov_c.cov)


def test_analysis_dump_writes_a_partial_se_result():
    # one cluster: the sandwich fails, so its covariance is written as None,
    # with the reason and no natural-parameter SEs; the naive ones stay
    tool = import_tool("bit_evidence")
    ds, _ = simulate_four_strata(150, seed=46)
    ds = Dataset.from_arrays(ds.y, ds.t, ds.z, cluster=np.zeros(ds.n), k_levels=2)
    out = {}
    tool._analysis(out, "a", ds, Family.NORMAL, FitConfig())
    res = fit(ds)
    table, cov_n, _ = effects.effect_table(res, ds)
    assert out["a/se_error"] == table.se_error and "at least 2 clusters" in table.se_error
    assert out["a/cov_cluster"] == out["a/se_cluster"] == tool._bits(None)
    assert out["a/natural_se_naive"] == tool._bits(effects.natural_param_ses(res, cov_n))
    assert "a/natural_se_cluster" not in out


def test_cli_outputs_hash_the_files_of_the_bench_pass(tmp_path):
    # the normal-cli pass as the benchmark runs it: every output file's
    # sha256, with the work directory written as <work>, so two work
    # directories give one set of hashes; each losing start's parts and the
    # stop-reason counts are hashed apart from the answers
    tool = import_tool("bit_evidence")
    hashes = []
    for work in (tmp_path / "a", tmp_path / "longer-work-dir"):
        work.mkdir()
        inputs = tool.wl.build_inputs("normal-cli", 0, str(work), size="tiny")
        hashes.append(tool.cli_outputs(inputs, str(work)))
        out_dir = Path(inputs.out_dirs[0])
        summary = (out_dir / "summary.json").read_bytes()
        assert str(work).encode() in summary
        summary = json.loads(summary.replace(str(work).encode(), b"<work>"))
        assert hashes[-1][0]["cli:summary.json#stop_reasons"] == tool._json_sha(
            summary.pop("stop_reasons"))
        assert hashes[-1][0]["cli:summary.json"] == tool._json_sha(summary)
        assert hashes[-1][0]["cli:params.csv"] == hashlib.sha256(
            (out_dir / "params.csv").read_bytes()).hexdigest()
    assert hashes[0] == hashes[1]
    assert len(hashes[0]) == len(inputs.out_dirs) == 2
    winner = summary["mapping_id"]
    losers = [f"mapping{i}" for i in range(summary["n_starts"]) if i != winner]
    assert set(hashes[0][0]) == {
        "cli:exit", "cli:summary.json#stop_reasons",
        *(f"cli:{name}" for name in (*cli.FIT_OUTPUTS, "summary.json")),
        *(f"cli:{name}#{loser}" for name in ("fit.json", "trace.csv") for loser in losers)}
    assert hashes[0][0]["cli:exit"] == "0"


def test_bench_analyses_write_the_bits_of_each_read_dataset(tmp_path, monkeypatch):
    # normal-cli's analyses carry the dtype, shape and bytes' sha256 of each
    # array read_dataset returns for their CSV, among the CLI outputs
    tool = import_tool("bit_evidence")
    monkeypatch.setattr(tool, "SEEDS", range(1))
    monkeypatch.setattr(tool.wl, "build_inputs",
                        functools.partial(tool.wl.build_inputs, size="tiny"))
    analyses = list(tool.bench_analyses(str(tmp_path), ["normal-cli"]))
    assert len(analyses) == 2
    for _, ds, *_, files in analyses:
        bits = {key: value for key, value in files.items() if key.startswith("cli:dataset:")}
        assert sorted(bits) == sorted(f"cli:dataset:{name}" for name in ("y", "t", "z", "w",
                                                                          "cluster"))
        assert bits == tool.dataset_bits(ds)
        assert bits["cli:dataset:y"] == (
            f"<f8({ds.n},):{hashlib.sha256(ds.y.tobytes()).hexdigest()}")
        assert "cli:exit" in files


def test_compare_answers_passes_a_change_to_losing_starts_only(tmp_path):
    # the CLI files of one tiny normal-cli analysis, then the same files with
    # a loser's trace.csv row, fit.json entry and the stop-reason counts
    # changed (it stopped sooner, pruned): compare --answers counts those as
    # loser parts and passes; one byte of effects.csv more fails it
    tool = import_tool("bit_evidence")
    inputs = tool.wl.build_inputs("normal-cli", 0, str(tmp_path), size="tiny")
    tool.cli_outputs(inputs, str(tmp_path))
    out_dir = Path(inputs.out_dirs[0])
    files = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
    fit_json = json.loads(files["fit.json"])
    loser = next(r for r in fit_json["trace"] if r["mapping_id"] != fit_json["tie_ids"][0])
    loser.update(iterations=loser["iterations"] - 1, stop_reason="pruned")
    header, *rows = files["trace.csv"].decode().splitlines(keepends=True)
    i = next(i for i, row in enumerate(rows) if row.startswith(f"{loser['mapping_id']},"))
    fields = rows[i].split(",")
    fields[3], fields[5] = str(loser["iterations"]), "pruned"  # iterations, stop_reason
    rows[i] = ",".join(fields)
    summary = json.loads(files["summary.json"])
    summary["stop_reasons"] = {"pruned": summary["n_starts"]}
    changed = {**files, "fit.json": json.dumps(fit_json).encode(),
               "trace.csv": "".join([header, *rows]).encode(),
               "summary.json": json.dumps(summary).encode()}
    assert changed["trace.csv"] != files["trace.csv"]

    def compare(b_files):
        paths = []
        for name, hashed in (("a", tool.hash_outputs(files)), ("b", tool.hash_outputs(b_files))):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({f"w/seed0/analysis0/{k}": v
                                             for k, v in hashed.items()}))
        return run_tool("bit_evidence.py", "compare", "--answers", *paths)

    out = compare(changed)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "0 loser records and 3 per-start CLI parts differ" in out.stdout
    effects_csv = bytearray(files["effects.csv"])
    effects_csv[-2] ^= 1
    out = compare({**changed, "effects.csv": bytes(effects_csv)})
    assert out.returncode == 1, out.stdout + out.stderr
    assert "w/seed0/analysis0/cli:effects.csv" in out.stdout.splitlines()


def test_dump_keeps_the_named_workloads(tmp_path, monkeypatch):
    # dump --workload (repeatable) analyses only the named workloads, in the
    # order given; an unknown name or a missing one prints the usage
    tool = import_tool("bit_evidence")
    keys = [key for key, *_ in tool.bench_analyses(str(tmp_path), ["tobit", "nine-strata-topk"])]
    names = [key.split("/")[0] for key in keys]
    assert names == sorted(names, key=["tobit", "nine-strata-topk"].index)
    assert {key.split("/")[1] for key in keys} == {f"seed{s}" for s in tool.SEEDS}
    assert set(names) == {"tobit", "nine-strata-topk"}
    calls = []
    monkeypatch.setattr(tool, "dump", lambda path, kind="bench", names=None: calls.append(
        (path, kind, list(names))))
    out = str(tmp_path / "out.json")
    assert tool.main(["dump", "--workload", "tobit", "--workload", "normal-cli", out]) == 0
    assert tool.main(["dump", out]) == 0
    assert calls == [(out, "bench", ["tobit", "normal-cli"]),
                     (out, "bench", list(tool.wl.WORKLOADS))]
    for bad in (["--workload", "bogus", out], ["--workload", out], ["--workloads", "tobit", out]):
        assert tool.main(["dump", *bad]) == 2
    assert len(calls) == 2


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_calibration_replay_matches_pruned_at(case, calibration):
    # the calibration replays the library's rule on runs without pruning:
    # on each start's one-start run to its own stop rule, it stops the same
    # starts at the same evaluations as pruned_at, and its iteration total
    # is the fit's
    make, family, mean_structure, config, _ = ORACLE_CASES[case]
    ds = make()
    ids, sets, floor = fit_starts(ds, family, mean_structure, config)
    grid = StrataGrid(ds.k_levels)
    histories = [
        np.array(em_one_start_oracle(ds, ModelParams(grid, probs, coef.T, scales, family,
                                                     mean_structure),
                                     family, mean_structure, config.tol, config.max_iter,
                                     floor)["history"])
        for probs, coef, scales in zip(*sets)]
    leads = calibration._leads(histories)
    replays = [calibration.replay(h, leads, float(ds.w.sum()), config.max_iter)
               for h in histories]
    assert [stop for _, _, stop, _ in replays] == pruned_at(histories, ds, config)
    try:
        records = fit(ds, family, mean_structure, config).trace
    except ConvergenceError as err:
        records = err.trace
    assert sum(its for *_, its in replays) == sum(r.iterations for r in records)
