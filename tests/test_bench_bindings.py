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

from stratfit import effects, em
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
    # through these two names: the stacked Hessian calls log_likelihood once
    # for all its points, the sandwich case_loglik twice per coordinate.
    calls = Counter()

    def counted(name):
        real = getattr(effects, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    ds, _ = simulate_four_strata(200, seed=46)
    res = em.fit(ds)
    for name in ("log_likelihood", "case_loglik"):
        monkeypatch.setattr(effects, name, counted(name))
    effects.effect_table(res, ds)
    p = len(pack(res.params))
    assert calls["log_likelihood"] == 1
    assert calls["case_loglik"] == 2 * p
