"""One benchmark run: set-up timing, timed passes, the answer check, metrics.

An untraced run reads the clock only around each pass, around the set-up
children, and in the host-speed probe a timer runs during each pass
(probe.py). A traced run alternates untraced and traced passes, so that it
can state its own overhead, and takes the per-layer numbers from its first
traced pass.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stratfit import cli, effects, em, simulate
from stratfit.core import Dataset

import workloads as wl
from probe import REF_S_PER_ITER, SpeedSampler
from tracer import Patches, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 5
MICRO_BUDGET_S = 0.2

END_TO_END = {"total_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# Answer metrics are 0 when all is well, so they are printed with every run
# and reported with the per-layer metrics; the answer check gates them.
ANSWER = {
    "failed_frac": "frac",
    "loglik_shortfall": "frac",
    "se_rel_dev": "frac",
    "label_correct_frac": "frac",
    "near_tie_frac": "frac",
}
PER_LAYER = {
    "em.fit_s": "s",
    "em.warm_start_s": "s",
    "em.start_select_s": "s",
    "em.loop_s": "s",
    "em.iterations": "count",
    "em.starts": "count",
    "em.converged_start_ratio": "frac",
    "em.max_iter_share": "frac",
    "em.ms_per_iteration": "ms",
    "em.log_likelihood_ms": "ms",
    "em.e_step_ms": "ms",
    "em.m_step_ms": "ms",
    "densities.norm_logcdf_calls": "count",
    "densities.norm_logcdf_s": "s",
    "densities.norm_logcdf_elems_per_call": "count",
    "densities.norm_logcdf_us.n4": "us",
    "densities.norm_logcdf_us.n1e3": "us",
    "densities.norm_logcdf_us.n1e5": "us",
    "effects.se_s": "s",
    "effects.hessian_s": "s",
    "effects.sandwich_s": "s",
    "effects.delta_s": "s",
    "effects.loglik_evals": "count",
    "effects.case_loglik_evals": "count",
    "simulate.generate_s": "s",
    "simulate.replicate_p50_s": "s",
    "core.dataset_build_s": "s",
    "cli.read_s": "s",
    "cli.output_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
    **ANSWER,
}

# Spanned bindings: every module attribute through which the library (or
# the benchmark) reaches the function, under one span name.
SPANNED = (
    ("em.fit", wl.FIT_BINDINGS),
    ("em.warm_start_cells", ((em, "warm_start_cells"),)),
    ("em.select_starts", ((em, "select_starts"),)),
    ("em.e_step", ((em, "e_step"),)),
    ("effects.log_likelihood", ((effects, "log_likelihood"),)),
    ("effects.case_loglik", ((effects, "case_loglik"),)),
    ("effects.effect_table", ((effects, "effect_table"),)),
    ("effects.treatment_effects", ((effects, "treatment_effects"), (cli, "treatment_effects"))),
    ("effects.observed_information_se",
     ((effects, "observed_information_se"), (cli, "observed_information_se"))),
    ("effects.cluster_sandwich_se",
     ((effects, "cluster_sandwich_se"), (cli, "cluster_sandwich_se"))),
    ("effects.effect_ses", ((effects, "effect_ses"), (cli, "effect_ses"))),
    ("effects.natural_param_ses", ((cli, "natural_param_ses"),)),
    ("simulate.generate", ((simulate, "generate"),)),
    ("cli.read_dataset", ((cli, "read_dataset"),)),
)
NEW_TRACE = ("simulate.run_replicate", ((simulate, "run_replicate"),))
SE_SPANS = frozenset(
    name for name, _ in SPANNED if name.startswith("effects.") and "loglik" not in name
)

SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import stratfit
import stratfit.cli
t1 = time.perf_counter()
import numpy as np
with np.load(sys.argv[1]) as npz:
    data = {k: npz[k] for k in npz.files}
family = stratfit.Family(str(data["family"]))
k_levels = int(data["k_levels"])
cols = [[data[f"{c}{i}"] for c in "ytzc"] for i in range(int(data["count"]))]
t2 = time.perf_counter()
for y, t, z, c in cols:
    stratfit.Dataset.from_arrays(y, t, z, cluster=c, k_levels=k_levels, family=family)
t3 = time.perf_counter()
import probe
print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2,
                  "s_per_iter": probe.probe(48, 3)}))
"""


@dataclass
class RunReport:
    correct: bool
    attempted: int
    failed: int
    metrics: dict                       # name -> (value, unit), as reported
    printed: dict                       # every metric computed, for the log
    info: dict
    problems: list = field(default_factory=list)
    tracer: Tracer | None = None


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "STRATFIT_THREADS")},
    }


def load_reference(size: str, name: str, data_seed: int) -> dict | None:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)[size][name][str(data_seed)]
    except (OSError, KeyError):
        return None


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def measure_setup(inputs: wl.Inputs, work_dir: Path, repeats: int = SETUP_REPEATS) -> float:
    """Median over fresh interpreters of import time plus Dataset builds,
    each scaled to the reference host speed by a probe in the same child."""
    payload = {"family": inputs.spec.family.value, "k_levels": inputs.spec.k_levels,
               "count": len(inputs.arrays)}
    for i, arr in enumerate(inputs.arrays):
        for c, key in zip("ytzc", ("y", "t", "z", "cluster")):
            payload[f"{c}{i}"] = arr[key]
    npz = work_dir / "setup-inputs.npz"
    np.savez(npz, **payload)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(npz)], capture_output=True, text=True,
            env=env, cwd=str(ROOT), timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((got["import_s"] + got["build_s"]) * REF_S_PER_ITER / got["s_per_iter"])
    return statistics.median(times)


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------

def install_tracer(patches: Patches, tracer: Tracer) -> None:
    for name, bindings in SPANNED + (NEW_TRACE,):
        for owner, attr in bindings:
            patches.set(owner, attr, tracer.spanned(getattr(owner, attr), name,
                                                    new_trace=name == NEW_TRACE[0]))
    patches.set(em, "norm_logcdf", tracer.counted(em.norm_logcdf, "densities.norm_logcdf"))
    build = Dataset.__dict__["from_arrays"].__func__
    patches.set(Dataset, "from_arrays",
                classmethod(tracer.spanned(build, "core.Dataset.from_arrays")))


def one_pass(inputs: wl.Inputs, tracer: Tracer | None = None):
    """Run one pass; returns (SpeedSampler, PassResult, FitObserver)."""
    observer = wl.FitObserver()
    patches = Patches()
    for owner, attr in wl.FIT_BINDINGS:
        patches.set(owner, attr, observer.wrap(getattr(owner, attr)))
    span = wl.null_span
    if tracer is not None:
        install_tracer(patches, tracer)
        span = tracer.span
    try:
        with SpeedSampler() as speed:
            raw = wl.run_pass(inputs, observer, span)
    finally:
        patches.restore()
    return speed, wl.collect(inputs, raw, observer.fits), observer


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def _per_call(fn, budget: float = MICRO_BUDGET_S, min_reps: int = 5) -> float:
    """Median seconds per call, repeating for at least ``budget`` seconds."""
    times = []
    spent = 0.0
    while spent < budget or len(times) < min_reps:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return statistics.median(times)


def micro_timings(observer: wl.FitObserver) -> dict:
    """Public-call timings at the first fit's optimum on its own data."""
    out = {}
    for n, label in ((4, "n4"), (1000, "n1e3"), (100_000, "n1e5")):
        x = np.linspace(-38.0, 8.0, n)
        out[f"densities.norm_logcdf_us.{label}"] = 1e6 * _per_call(lambda: em.norm_logcdf(x))
    if observer.first is None:
        out.update({"em.log_likelihood_ms": 0.0, "em.e_step_ms": 0.0, "em.m_step_ms": 0.0})
        return out
    args, res = observer.first
    ds, family, structure = args["dataset"], args["family"], args["mean_structure"]
    params = res.params
    post = em.e_step(params, ds)
    out["em.log_likelihood_ms"] = 1e3 * _per_call(lambda: em.log_likelihood(params, ds))
    out["em.e_step_ms"] = 1e3 * _per_call(lambda: em.e_step(params, ds))
    out["em.m_step_ms"] = 1e3 * _per_call(
        lambda: em.m_step(post, ds, family, structure, prev=params, scale_floor=res.scale_floor))
    return out


def layer_metrics(tracer: Tracer, fits: list) -> dict:
    kids = tracer.children()
    fit_s = tracer.total("em.fit")
    warm = tracer.total("em.warm_start_cells")
    select = tracer.total("em.select_starts")
    final_e = tracer.total("em.e_step")
    loop = fit_s - warm - select - final_e
    done = [f for f in fits if f.ok]
    iterations = sum(f.iterations for f in done)
    starts = sum(len(f.start_iterations) for f in done)
    converged = sum(sum(f.start_converged) for f in done)
    capped = sum(
        it for f in done for it, c in zip(f.start_iterations, f.start_converged)
        if not c and it >= f.max_iter
    )
    calls = tracer.calls["densities.norm_logcdf"]
    replicate = [s.duration for s in tracer.named("simulate.run_replicate")]
    output = 0.0
    for main in tracer.named("cli.main"):
        inner = sum(c.duration for c in kids.get(main.span_id, ())
                    if c.name in SE_SPANS or c.name in ("em.fit", "cli.read_dataset"))
        output += main.duration - inner
    by_id = {s.span_id: s for s in tracer.spans}
    se_s = sum(
        s.duration for s in tracer.spans
        if s.name in SE_SPANS and (s.parent_id is None or by_id[s.parent_id].name not in SE_SPANS)
    )
    return {
        "em.fit_s": fit_s,
        "em.warm_start_s": warm,
        "em.start_select_s": select,
        "em.loop_s": loop,
        "em.iterations": iterations,
        "em.starts": starts,
        "em.converged_start_ratio": converged / starts if starts else 0.0,
        "em.max_iter_share": capped / iterations if iterations else 0.0,
        "em.ms_per_iteration": 1e3 * loop / iterations if iterations else 0.0,
        "densities.norm_logcdf_calls": calls,
        "densities.norm_logcdf_s": tracer.busy["densities.norm_logcdf"],
        "densities.norm_logcdf_elems_per_call":
            tracer.elements["densities.norm_logcdf"] / calls if calls else 0.0,
        "effects.se_s": se_s,
        "effects.hessian_s": tracer.total("effects.observed_information_se"),
        "effects.sandwich_s": tracer.total("effects.cluster_sandwich_se"),
        "effects.delta_s": tracer.total("effects.effect_ses")
        + tracer.total("effects.natural_param_ses"),
        "effects.loglik_evals": tracer.calls["effects.log_likelihood"],
        "effects.case_loglik_evals": tracer.calls["effects.case_loglik"],
        "simulate.generate_s": tracer.total("simulate.generate"),
        "simulate.replicate_p50_s": statistics.median(replicate) if replicate else 0.0,
        "core.dataset_build_s": tracer.total("core.Dataset.from_arrays"),
        "cli.read_s": tracer.total("cli.read_dataset"),
        "cli.output_s": output,
        "trace.spans": len(tracer.spans),
    }


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        keep_spans: bool = True) -> RunReport:
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    work_dir.mkdir()
    try:
        return _run(name, seed, seconds, trace, size, keep_spans, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(name, seed, seconds, trace, size, keep_spans, work_dir) -> RunReport:
    inputs = wl.build_inputs(name, seed, str(work_dir), size)
    info = {"workload": name, "seed": seed, "data_seed": inputs.data_seed, "size": size,
            "spec": repr(inputs.spec), **environment()}
    setup_s = None if trace else measure_setup(inputs, work_dir)

    plain, traced, walls, results = [], [], [], []
    first_traced = traced_observer = None
    start = time.perf_counter()
    while True:
        want_trace = trace and len(plain) > len(traced)
        tracer = Tracer() if want_trace else None
        track, result, observer = one_pass(inputs, tracer)
        results.append(result)
        (traced if want_trace else plain).append(track.corrected())
        walls.append(track.wall())
        if want_trace and first_traced is None:
            first_traced, traced_observer = tracer, observer
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break

    ref = load_reference(size, name, inputs.data_seed)
    problems = []
    shortfall = se_dev = 0.0
    if ref is None:
        problems.append(f"no reference for {size}/{name}/data seed {inputs.data_seed}")
    else:
        for k, result in enumerate(results):
            found, short, dev = wl.check_pass(result, ref)
            problems += [f"pass {k}: {p}" for p in found]
            shortfall, se_dev = max(shortfall, short), max(se_dev, dev)
    first_iters = [a.fit.iterations if a.fit else None for a in results[0].analyses]
    for k, result in enumerate(results[1:], start=1):
        if [a.fit.iterations if a.fit else None for a in result.analyses] != first_iters:
            problems.append(f"pass {k}: EM iterations differ from pass 0 on the same inputs")

    attempted = sum(len(r.analyses) for r in results)
    failed = sum(not a.ok for r in results for a in r.analyses)
    answers = {**wl.answer_metrics(inputs, results[0]),
               "loglik_shortfall": shortfall, "se_rel_dev": se_dev}
    answers["failed_frac"] = failed / attempted

    printed = dict(answers)
    if trace:
        printed.update(layer_metrics(first_traced, traced_observer.fits))
        printed.update(micro_timings(traced_observer))
        printed["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        wanted = PER_LAYER
        if keep_spans:
            first_traced.write(WORK_ROOT / f"spans-{name}-seed{seed}.json")
    else:
        printed["total_s"] = statistics.median(plain)
        printed["setup_s"] = setup_s
        printed["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = END_TO_END
    info["passes"] = {"untraced": plain, "traced": traced, "wall_s": walls}
    metrics = {k: (printed[k], unit) for k, unit in wanted.items()}
    return RunReport(
        correct=not problems, attempted=attempted, failed=failed, metrics=metrics,
        printed=printed, info=info, problems=problems,
        tracer=first_traced,
    )
