"""The scripts under tools/: their usage, bit_evidence's comparisons and the
calibration replay of the pruning rule.

Each tool runs as a script in a subprocess, as it is used, so a library
name it imports that no longer exists fails here.
"""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stratfit import simulate
from stratfit.core import ModelParams, StrataGrid
from stratfit.errors import ConvergenceError
from stratfit.em import fit

from _oracles import em_one_start_oracle
from test_estimation import ORACLE_CASES, fit_starts, pruned_at

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
}


@pytest.mark.parametrize("key, value, answers_differ", [
    (None, None, False),
    ("record1/iterations", "3", False),  # a loser stopped earlier
    ("record0/iterations", "13", True),  # the winner's record
    ("tie_ids", "(0, 1)", True),
    ("hessian", "(1,):01", True),
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


@pytest.mark.parametrize("short, iterations", [((), 35), ((3,), 33)])
def test_calibration_report(tmp_path, short, iterations):
    # the leader converges geometrically; the other start trails it by 100
    # and is pruned at the first check of the short phase
    steps = 10.0 * 0.5 ** np.arange(31)
    traj = tmp_path / "traj.json"
    traj.write_text(json.dumps({"w/seed0/analysis0": {
        "weight": 100.0, "max_iter": 500,
        "starts": {"0": (-100.0 - steps).tolist(), "1": (-200.0 - steps).tolist()}}}))
    out = run_tool("prune_calibration.py", "report", traj, *short)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "near-tie starts the rules would stop: 0" in out.stdout
    assert f"EM iterations: w {iterations}" in out.stdout


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
