"""Every library name the benchmark reaches by attribute still exists.

The traced benchmark run replaces module attributes by name, so renaming or
removing one of them breaks the benchmark without breaking any other test.
"""

import dataclasses
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

from stratfit import cli, effects, em, simulate
from stratfit.core import Dataset, pack

from test_estimation import simulate_four_strata

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module("measure"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_patched_attributes_exist(bench):
    measure, workloads = bench
    bindings = [b for _, group in measure.SPANNED for b in group]
    bindings += list(measure.NEW_TRACE[1]) + list(workloads.FIT_BINDINGS)
    bindings += [(em, "norm_logcdf"), (Dataset, "from_arrays")]
    missing = [(getattr(o, "__name__", o), a) for o, a in bindings if a not in o.__dict__]
    assert not missing


def test_cli_se_bindings_are_the_library_functions(bench):
    # the traced run wraps these SE names on cli; each must be the effects
    # function itself, so a span bound there wraps the code effect_table runs
    measure, _ = bench
    names = [attr for span, group in measure.SPANNED if span.startswith("effects.")
             for owner, attr in group if owner is cli]
    assert names and [a for a in names if getattr(cli, a) is not getattr(effects, a)] == []


def test_fit_signature_and_config():
    params = inspect.signature(em.fit).parameters
    assert {"dataset", "family", "mean_structure", "config"} <= set(params)
    assert "max_iter" in {f.name for f in dataclasses.fields(em.FitConfig)}


def test_m_step_accepts_the_benchmark_call():
    # measure.micro_timings calls
    # em.m_step(post, ds, family, structure, prev=params, scale_floor=floor)
    inspect.signature(em.m_step).bind(
        "posterior", "dataset", "family", "mean_structure", prev="params",
        scale_floor="floor",
    )


def test_traced_se_counts_see_the_real_path(monkeypatch):
    # The traced run counts effects.loglik_evals and effects.case_loglik_evals
    # through these two names, which effects keeps, but no SE calls them: the
    # Hessian, the only finite difference, evaluates its 2p^2 + 1 points as
    # one stack of packed vectors (em._packed_logliks); the sandwich's scores
    # and the delta method's Jacobians are closed forms.
    calls = Counter()
    stacks = []

    def counted(name):
        real = getattr(effects, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    real_logliks = em._packed_logliks

    def packed_logliks(points, *args):
        stacks.append(len(points))
        return real_logliks(points, *args)

    ds, _ = simulate_four_strata(200, seed=46)
    res = em.fit(ds)
    for name in ("log_likelihood", "case_loglik"):
        monkeypatch.setattr(effects, name, counted(name))
    monkeypatch.setattr(em, "_packed_logliks", packed_logliks)
    effects.effect_table(res, ds)
    p = len(pack(res.params))
    assert calls == {}
    assert stacks == [2 * p * p + 1]


def test_study_reaches_the_traced_bindings(bench, monkeypatch):
    # The traced run patches em.warm_start_cells and simulate.fit by name, as
    # here; run_study reaches both through them: one warm-start call per
    # chunk of replicates and one fit per replicate, in replicate order.
    measure, workloads = bench
    monkeypatch.setattr(em, "_WARM_BLOCK", 2000)  # a few replicates a chunk
    config = simulate.SimConfig(60, 2.4, replicates=7, seed=3)
    tracer, observer, patches = measure.Tracer(), workloads.FitObserver(), measure.Patches()
    patches.set(em, "warm_start_cells",
                tracer.spanned(em.warm_start_cells, "em.warm_start_cells"))
    patches.set(simulate, "fit", observer.wrap(simulate.fit))
    try:
        report = simulate.run_study(config)
    finally:
        patches.restore()
    # the chunk rule: a chunk takes the next replicate while k * cells *
    # largest cell stays within _WARM_BLOCK over every cell of the chunk
    chunks, sizes = 0, []
    for i in range(config.replicates):
        ds, _ = simulate.generate(config, simulate._replicate_rng(config, i))
        more = [cell.y.size for cell in ds.cells]
        if sizes and ds.k_levels * (len(sizes) + len(more)) * max(sizes + more) > 2000:
            chunks, sizes = chunks + 1, []
        sizes += more
    assert tracer.calls["em.warm_start_cells"] == chunks + 1 >= 2
    assert [f.loglik for f in observer.fits] == [r.loglik for r in report.replicates]
    assert len(observer.fits) == config.replicates and report.n_failed == 0
