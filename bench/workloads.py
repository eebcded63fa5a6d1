"""The four benchmark workloads: inputs, one timed pass, and the answer check.

A workload turns a seed into inputs (always through ``simulate.generate``),
runs one *pass* over them through the library's public entry points, and
returns what each analysis produced. Only :func:`run_pass` is timed. The
check against the reference values recorded at the baseline commit lives in
:func:`check_pass`.

Inputs repeat with period ``N_REF_SEEDS``: seed s builds the inputs of data
seed ``s % N_REF_SEEDS``, for which ``reference.json`` holds the answers.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from stratfit import cli, effects, em, simulate
from stratfit.core import Dataset
from stratfit.densities import Family
from stratfit.errors import StratfitError

N_REF_SEEDS = 16
TOBIT_SHIFT = 2.0  # tobit outcome is max(y - 2, 0)

# Tolerances of the answer check (see README.md).
LOGLIK_REL_TOL = 1e-8
SE_REL_TOL = 1e-3
NEAR_TIE_REL = simulate.NEAR_TIE_REL


@dataclass(frozen=True)
class Spec:
    """What one pass of a workload fits."""

    n_per_arm: int
    dispersion_sd: float
    analyses: int  # datasets per pass; replicates for the recovery study
    k_levels: int = 2
    family: Family = Family.NORMAL
    tol: float = 1e-9
    starts: str = "all"
    clusters: int = 0  # cluster codes drawn per dataset; 0 = singleton clusters


# Why each workload exists is in README.md; these are its sizes. "tiny" is
# the self-test size.
SPECS = {
    "full": {
        "normal-cli": Spec(n_per_arm=5000, dispersion_sd=3.0, analyses=5, clusters=250),
        "recovery-small": Spec(n_per_arm=500, dispersion_sd=3.0, analyses=20),
        "tobit": Spec(n_per_arm=5000, dispersion_sd=3.0, analyses=3, family=Family.TOBIT,
                      tol=1e-7, clusters=250),
        "nine-strata-topk": Spec(n_per_arm=1500, dispersion_sd=2.4, analyses=1, k_levels=3,
                                 starts="topk:10"),
    },
    "tiny": {
        "normal-cli": Spec(n_per_arm=150, dispersion_sd=3.0, analyses=2, clusters=12, tol=1e-6),
        "recovery-small": Spec(n_per_arm=150, dispersion_sd=3.0, analyses=3, tol=1e-6),
        "tobit": Spec(n_per_arm=200, dispersion_sd=3.0, analyses=1, family=Family.TOBIT,
                      tol=1e-4, clusters=12),
        # Ranking the 46,656 three-level mappings takes ~40 s at any size, so
        # the self-test keeps the start-selection path at two levels.
        "nine-strata-topk": Spec(n_per_arm=150, dispersion_sd=3.0, analyses=1,
                                 starts="topk:4", tol=1e-6),
    },
}
WORKLOADS = tuple(SPECS["full"])


@dataclass
class Inputs:
    """Everything a pass needs, built before the clock starts."""

    name: str
    spec: Spec
    data_seed: int
    arrays: list[dict]          # y, t, z, cluster per dataset
    true_tables: list[np.ndarray]  # generating location table per dataset
    gap: float
    csv_paths: list[str] = field(default_factory=list)
    out_dirs: list[str] = field(default_factory=list)


def _replicate_rng(data_seed: int, index: int) -> np.random.Generator:
    # Same derivation as simulate.run_study, so the recovery workload's
    # set-up builds exactly the datasets the study will generate.
    return np.random.default_rng(np.random.SeedSequence(entropy=data_seed, spawn_key=(index,)))


def _sim_config(spec: Spec, data_seed: int, replicates: int = 1) -> simulate.SimConfig:
    return simulate.SimConfig(
        n_per_arm=spec.n_per_arm,
        dispersion_sd=spec.dispersion_sd,
        k_levels=spec.k_levels,
        replicates=replicates,
        seed=data_seed,
        tol=spec.tol,
        starts=em.parse_starts(spec.starts),
    )


def _write_csv(path: str, arr: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "t", "z", "cluster"])
        for row in zip(arr["y"].tolist(), arr["t"].tolist(), arr["z"].tolist(),
                       arr["cluster"].tolist()):
            writer.writerow([repr(row[0]), row[1], row[2], f"c{row[3]}"])


def build_inputs(name: str, seed: int, work_dir: str, size: str = "full") -> Inputs:
    """Generate the workload's datasets from ``seed`` (untimed)."""
    spec = SPECS[size][name]
    data_seed = seed % N_REF_SEEDS
    config = _sim_config(spec, data_seed)
    arrays, tables = [], []
    for i in range(spec.analyses):
        rng = _replicate_rng(data_seed, i)
        ds, truth = simulate.generate(config, rng)
        table = truth.location_table()
        y = ds.y
        if spec.family is Family.TOBIT:
            y = np.maximum(y - TOBIT_SHIFT, 0.0)
            table = table - TOBIT_SHIFT
        cluster = rng.integers(0, spec.clusters, ds.n) if spec.clusters else np.arange(ds.n)
        arrays.append({"y": y, "t": ds.t, "z": ds.z, "cluster": cluster})
        tables.append(table)
    inputs = Inputs(name, spec, data_seed, arrays, tables, spec.dispersion_sd * config.sigma)
    if name == "normal-cli":
        for i, arr in enumerate(arrays):
            path = os.path.join(work_dir, f"cases-{i}.csv")
            _write_csv(path, arr)
            inputs.csv_paths.append(path)
            inputs.out_dirs.append(os.path.join(work_dir, f"out-{i}"))
    return inputs


# --------------------------------------------------------------------------
# watching fits
# --------------------------------------------------------------------------

_FIT_SIGNATURE = inspect.signature(em.fit)
FIT_BINDINGS = ((em, "fit"), (cli, "fit"), (simulate, "fit"))


@dataclass
class FitSummary:
    ok: bool
    loglik: float | None = None
    mapping_id: int | None = None
    tie_ids: tuple = ()
    converged: bool = False
    max_iter: int = 0
    start_iterations: tuple = ()
    start_converged: tuple = ()
    start_logliks: tuple = ()
    table: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return sum(self.start_iterations)


class FitObserver:
    """Keeps a summary of every ``fit`` call the pass makes, in call order.

    It reads no clock; the untraced run uses it for failure accounting and
    the answer check. The first fit's inputs and result are kept for the
    traced run's micro-timings.
    """

    def __init__(self):
        self.fits: list[FitSummary] = []
        self.first = None

    def wrap(self, func):
        def observed_fit(*args, **kwargs):
            bound = _FIT_SIGNATURE.bind(*args, **kwargs)
            bound.apply_defaults()
            config = bound.arguments["config"] or em.FitConfig()
            try:
                res = func(*args, **kwargs)
            except StratfitError:
                self.fits.append(FitSummary(ok=False, max_iter=config.max_iter))
                raise
            self.fits.append(FitSummary(
                ok=True,
                loglik=float(res.loglik),
                mapping_id=int(res.mapping_id),
                tie_ids=tuple(int(i) for i in res.tie_ids),
                converged=bool(res.converged),
                max_iter=config.max_iter,
                start_iterations=tuple(r.iterations for r in res.trace),
                start_converged=tuple(bool(r.converged) for r in res.trace),
                start_logliks=tuple(float(r.loglik) for r in res.trace),
                table=np.array(res.params.location_table()),
            ))
            if self.first is None:
                self.first = (bound.arguments, res)
            return res

        return observed_fit


# --------------------------------------------------------------------------
# one pass
# --------------------------------------------------------------------------

@dataclass
class Analysis:
    """What one analysis (fit plus SEs, or one recovery replicate) produced."""

    fit: FitSummary | None
    ok: bool
    error: str | None = None
    se: dict = field(default_factory=dict)


@dataclass
class PassResult:
    analyses: list[Analysis]
    study: dict | None = None  # recovery-study aggregates


def null_span(name, new_trace=False):
    return contextlib.nullcontext()


def _pass_cli(inputs: Inputs, observer, span) -> list:
    spec = inputs.spec
    out = []
    for path, out_dir in zip(inputs.csv_paths, inputs.out_dirs):
        argv = ["fit", path, "--out-dir", out_dir, "--family", spec.family.value,
                "--levels", str(spec.k_levels), "--tol", repr(spec.tol), "--starts", spec.starts]
        before = len(observer.fits)
        text = io.StringIO()
        with span("cli.main", True), contextlib.redirect_stdout(text), \
                contextlib.redirect_stderr(text):
            try:
                code = cli.main(argv)
            except Exception:  # the process would die with a traceback: exit 1
                traceback.print_exc()
                code = 1
        out.append(((code, text.getvalue()), observer.fits[before:]))
    return out


def _pass_study(inputs: Inputs, observer, span):
    config = _sim_config(inputs.spec, inputs.data_seed, replicates=inputs.spec.analyses)
    with span("simulate.run_study"):
        return simulate.run_study(config)


def _pass_fits(inputs: Inputs, observer, span) -> list:
    spec = inputs.spec
    config = em.FitConfig(tol=spec.tol, starts=em.parse_starts(spec.starts))
    out = []
    for arr in inputs.arrays:
        before = len(observer.fits)
        with span("bench.analysis", True):
            try:
                ds = Dataset.from_arrays(
                    arr["y"], arr["t"], arr["z"], cluster=arr["cluster"],
                    k_levels=spec.k_levels, family=spec.family,
                )
                res = em.fit(ds, spec.family, config=config)
                item = effects.effect_table(res, ds)[0]
            except (StratfitError, np.linalg.LinAlgError) as exc:
                item = f"{type(exc).__name__}: {exc}"
        out.append((item, observer.fits[before:]))
    return out


def run_pass(inputs: Inputs, observer: FitObserver, span=null_span):
    """The timed region: inputs in, answers out. Returns raw outputs."""
    if inputs.name == "normal-cli":
        return _pass_cli(inputs, observer, span)
    if inputs.name == "recovery-small":
        return _pass_study(inputs, observer, span)
    return _pass_fits(inputs, observer, span)


def _se_dict(table) -> dict:
    out = {}
    for key, arr in (("naive", table.se_naive), ("cluster", table.se_cluster),
                     ("naive_observed", table.se_naive_observed),
                     ("cluster_observed", table.se_cluster_observed)):
        if arr is not None:
            out[key] = [float(v) for v in arr]
    return out


def _cli_se(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        rows = json.load(fh)["effects"]
    out = {}
    for key in ("naive", "cluster"):
        vals = [r.get(f"se_{key}") for r in rows]
        if all(v is not None for v in vals):
            out[key] = [float(v) for v in vals]
    return out


def _analysis(fits: list, failure: str | None, se: dict) -> Analysis:
    """A fit fails if it raised, or if its winner did not converge."""
    fit = fits[0] if fits else None
    if failure is None and fit is not None and not fit.converged:
        failure = "winner not converged"
    if failure is None and fit is None:
        failure = "no fit ran"
    return Analysis(fit, failure is None, failure, se if failure is None else {})


def collect(inputs: Inputs, raw, fits: list[FitSummary]) -> PassResult:
    """Pair the pass's raw outputs with the observed fits (untimed)."""
    if inputs.name == "recovery-small":
        report = raw
        analyses = [
            _analysis([fit], None if rep.ok else rep.error, {})
            for rep, fit in zip(report.replicates, fits)
        ]
        study = {
            "label_correct_frac": float(report.fraction_label_correct),
            "near_tie_frac": float(report.near_tie_fraction),
        }
        return PassResult(analyses, study)
    analyses = []
    for i, (item, item_fits) in enumerate(raw):
        if inputs.name == "normal-cli":
            code, text = item
            failure = None if code == 0 else f"exit {code}: {text.strip()}"
            se = _cli_se(inputs.out_dirs[i]) if code == 0 else {}
            analyses.append(_analysis(item_fits, failure, se))
        elif isinstance(item, str):
            analyses.append(_analysis(item_fits, item, {}))
        else:
            analyses.append(_analysis(item_fits, None, _se_dict(item)))
    return PassResult(analyses)


# --------------------------------------------------------------------------
# answers
# --------------------------------------------------------------------------

def label_correct(fit: FitSummary, true_table: np.ndarray, gap: float) -> bool:
    """simulate.run_replicate's rule: every location within half a gap."""
    return bool(gap > 0.0 and np.all(np.abs(fit.table - true_table) < 0.5 * gap))


def near_tie(fit: FitSummary) -> bool:
    """simulate.run_replicate's rule: another start within 1e-4 relative."""
    best = fit.loglik
    tol = NEAR_TIE_REL * max(abs(best), 1e-300)
    return sum(1 for ll in fit.start_logliks if best - ll <= tol) >= 2


def answer_metrics(inputs: Inputs, result: PassResult) -> dict:
    """failed_frac, label_correct_frac and near_tie_frac for one pass."""
    n = len(result.analyses)
    failed = sum(not a.ok for a in result.analyses)
    if result.study is not None:
        return {"failed_frac": failed / n,
                "label_correct_frac": result.study["label_correct_frac"],
                "near_tie_frac": result.study["near_tie_frac"]}
    good = [(a, tab) for a, tab in zip(result.analyses, inputs.true_tables)
            if a.fit is not None and a.fit.ok]
    return {
        "failed_frac": failed / n,
        "label_correct_frac": (
            float(np.mean([label_correct(a.fit, tab, inputs.gap) for a, tab in good]))
            if good else 0.0),
        "near_tie_frac": float(np.mean([near_tie(a.fit) for a, _ in good])) if good else 0.0,
    }


def reference_record(inputs: Inputs, result: PassResult) -> dict:
    """What reference.json stores for one (workload, data seed)."""
    rec = {"analyses": [
        {
            "ok": a.ok,
            "loglik": a.fit.loglik if a.fit and a.fit.ok else None,
            "mapping_id": a.fit.mapping_id if a.fit and a.fit.ok else None,
            "tie_ids": list(a.fit.tie_ids) if a.fit and a.fit.ok else None,
            "iterations": a.fit.iterations if a.fit and a.fit.ok else None,
            "se": a.se,
        }
        for a in result.analyses
    ]}
    if result.study is not None:
        rec["study"] = result.study
    return rec


def check_pass(result: PassResult, ref: dict) -> tuple[list[str], float, float]:
    """Compare one pass with its reference.

    Returns (problems, loglik_shortfall, se_rel_dev). The winner must match
    the reference mapping and tie set unless the new loglik is higher than
    the reference by more than the tolerance (a better optimum).
    """
    problems = []
    shortfall = 0.0
    se_dev = 0.0
    if len(result.analyses) != len(ref["analyses"]):
        return [f"{len(result.analyses)} analyses, reference has {len(ref['analyses'])}"], 0.0, 0.0
    for i, (a, r) in enumerate(zip(result.analyses, ref["analyses"])):
        if not r["ok"]:
            problems.append(f"analysis {i}: reference failed; choose inputs that succeed")
            continue
        if not a.ok:
            problems.append(f"analysis {i} failed: {a.error}")
            continue
        ref_ll = r["loglik"]
        scale = max(abs(ref_ll), 1e-300)
        short = max(0.0, ref_ll - a.fit.loglik) / scale
        shortfall = max(shortfall, short)
        if short > LOGLIK_REL_TOL:
            problems.append(f"analysis {i}: loglik {a.fit.loglik!r} below reference {ref_ll!r}")
        better = (a.fit.loglik - ref_ll) / scale > LOGLIK_REL_TOL
        if not better and (a.fit.mapping_id != r["mapping_id"]
                           or list(a.fit.tie_ids) != r["tie_ids"]):
            problems.append(
                f"analysis {i}: winner {a.fit.mapping_id} ties {list(a.fit.tie_ids)}, "
                f"reference {r['mapping_id']} ties {r['tie_ids']}")
        for kind, ref_se in r["se"].items():
            got = a.se.get(kind)
            if got is None or len(got) != len(ref_se):
                problems.append(f"analysis {i}: {kind} SEs missing")
                continue
            dev = max(abs(g - s) / max(abs(s), 1e-300) for g, s in zip(got, ref_se))
            se_dev = max(se_dev, dev)
            if not better and dev > SE_REL_TOL:
                problems.append(f"analysis {i}: {kind} SEs deviate by {dev:.3g} (relative)")
    study = ref.get("study")
    if study is not None:
        got = result.study
        if got["label_correct_frac"] < study["label_correct_frac"]:
            problems.append(f"label_correct_frac {got['label_correct_frac']} below reference "
                            f"{study['label_correct_frac']}")
        if got["near_tie_frac"] > study["near_tie_frac"]:
            problems.append(f"near_tie_frac {got['near_tie_frac']} above reference "
                            f"{study['near_tie_frac']}")
    return problems, shortfall, se_dev
