"""Command-line front end: fit a dataset, run recovery studies, regenerate
diagnostics from a saved fit.

Input CSV schema: columns y,t,z (required) and w,cluster (optional; defaults
1 and the row index); t and z accept integer-valued floats such as ``1.0``.
An input error names the file line of its row. All outputs are deterministic
CSV/JSON given the same inputs and seed. Exit codes: 0 success, 2 input
error (an OS error on a named file, such as a missing input or an output
directory that is a file, included), 3 numerical failure.

Each output is rendered in memory, then written over the existing file in
place, which is cut to the new length only after the write; it is never
truncated to zero first (on ext4 a truncate-and-rewrite can wait on disk
I/O, which stalled repeated fits into one directory). The write is not
atomic, but an error while rendering leaves the old file as it was. A fit
that fails to converge writes ``summary.json`` and removes the other
outputs a previous fit left in the directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import sys
from collections import Counter

import numpy as np

from .core import (
    Dataset,
    MeanStructure,
    ModelParams,
    StrataGrid,
    effective_sample_size,
    param_names,
)
from .densities import Family
from .diagnostics import marginal_fit_table, posterior_histogram, solution_trace_table
from .effects import (
    cluster_sandwich_se,
    effect_ses,
    effect_table,
    natural_param_ses,
    observed_information_se,
    treatment_effects,
)
from .em import FitConfig, FitResult, StartRecord, fit, parse_starts
from .errors import ConvergenceError, DataError, StratfitError
from .simulate import RecoveryReport, SimConfig, parse_shape, run_study, shape_label

__all__ = ["build_parser", "cmd_diagnose", "cmd_fit", "cmd_simulate", "load_fit", "main",
           "read_dataset", "read_sim_config", "save_fit",
           # bench/measure.py SPANNED wraps these four here by name; effect_table runs them
           "cluster_sandwich_se", "effect_ses", "observed_information_se", "treatment_effects"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _overwrite(path: str, text: str, newline: str | None = None) -> None:
    """Write ``text`` over the file at ``path`` in place, then cut the old
    tail: a file is never truncated to zero first."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline) as fh:
        fh.write(text)
        fh.truncate()


def _write_csv(path: str, rows: list[dict]) -> None:
    """Write rows (at least one) under the first row's keys as header."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(rows[0]))
    for row in rows:
        writer.writerow([_fmt(v) for v in row.values()])
    _overwrite(path, buf.getvalue(), newline="")


def _write_json(path: str, payload: dict) -> None:
    _overwrite(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# dataset ingestion
# --------------------------------------------------------------------------

def _parse_record(cols: list[str], row: list[str], line: int) -> tuple[float, ...]:
    """y, t, z and w of one CSV record, or DataError naming its line."""
    if len(row) > len(cols):
        raise DataError(f"row {line}: {len(row)} fields, the header names {len(cols)}")
    values = dict(itertools.zip_longest(cols, map(str.strip, row), fillvalue=""))
    try:
        y, t, z = (float(values[name]) for name in "ytz")
        if not z.is_integer():
            raise ValueError("z must be an integer level")
        return y, t, z, float(values.get("w") or 1.0)
    except ValueError as exc:
        raise DataError(f"row {line}: {exc}") from None


def read_dataset(path: str, levels: int, dichotomize: bool, family: Family) -> Dataset:
    """Read the y,t,z[,w,cluster] CSV column by column. :class:`Dataset`
    checks the values; a violation names its file line (blank lines are
    skipped, so records are not lines), parsing record by record to find it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:  # Excel may write a BOM
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError("input file is empty")
        cols = [c.strip() for c in header]
        twice = [c for c in cols if cols.count(c) > 1]
        if twice:
            raise DataError(f"header names column '{twice[0]}' more than once")
        for required in ("y", "t", "z"):
            if required not in cols:
                raise DataError(f"missing required column '{required}'")
        records = [(row, reader.line_num) for row in reader if row]
    if not records:
        raise DataError("input file has no data rows")
    rows, lines = zip(*records)
    columns = dict(zip(cols, itertools.zip_longest(*rows, fillvalue="")))  # pads short records
    try:
        y, t, z = (np.array(columns[name], dtype=float) for name in "ytz")
        w = (np.array([v.strip() or "1" for v in columns["w"]], dtype=float)
             if "w" in columns else np.ones(len(rows)))
        parsed = (max(map(len, rows)) <= len(cols)
                  and np.all(np.isfinite(z) & (z == np.floor(z))))
    except (KeyError, ValueError):  # KeyError: no record reaches a required column
        parsed = False
    if not parsed:  # raises at the first bad record
        y, t, z, w = map(np.array, zip(*(_parse_record(cols, *rec) for rec in records)))
    if dichotomize:
        z = np.where(z > 0, 1, 0)
    if np.any((z < 0) | (z >= levels)):
        bad = int(np.flatnonzero((z < 0) | (z >= levels))[0])
        raise DataError(
            f"row {lines[bad]}: z={int(z[bad])} outside [0, {levels}) "
            "(use --dichotomize to collapse levels above 0)"
        )
    # values are stripped, so a leading space marks a row's own cluster
    labels = columns.get("cluster", itertools.repeat(""))
    cluster = np.array([c.strip() or f" {line}" for c, line in zip(labels, lines)], dtype=object)
    try:
        return Dataset.from_arrays(y, t, z, w, cluster, k_levels=levels, family=family)
    except DataError as exc:  # every rule of a built dataset names its row
        raise DataError(f"row {lines[exc.row]}: {exc}", row=exc.row) from None


# --------------------------------------------------------------------------
# fit serialization
# --------------------------------------------------------------------------

def _params_to_dict(p: ModelParams) -> dict:
    return {
        "k_levels": p.grid.k_levels,
        "probs": p.probs.tolist(),
        "locations": p.locations.tolist(),
        "scales": p.scales.tolist(),
        "family": p.family.value,
        "mean_structure": p.mean_structure.value,
    }


def _params_from_dict(d: dict) -> ModelParams:
    return ModelParams(
        grid=StrataGrid(int(d["k_levels"])),
        probs=np.array(d["probs"]),
        locations=np.array(d["locations"]),
        scales=np.array(d["scales"]),
        family=Family(d["family"]),
        mean_structure=MeanStructure(d["mean_structure"]),
    )


def save_fit(path: str, result: FitResult, data_options: dict) -> None:
    payload = {
        "data_options": data_options,
        "tie_ids": list(result.tie_ids),
        "scale_floor": list(result.scale_floor),
        "trace": [
            {
                "mapping_id": r.mapping_id,
                "loglik": r.loglik,
                "iterations": r.iterations,
                "floor_active": list(r.floor_active),
                "frozen": [list(f) for f in r.frozen],
                "stop_reason": r.stop_reason,
                "params": _params_to_dict(r.params),
            }
            for r in result.trace
        ],
    }
    _write_json(path, payload)


def load_fit(path: str) -> tuple[FitResult, dict]:
    """Read a fit written by :func:`save_fit`. The winner's top-level copy
    and the per-start ``converged`` flags of older files are ignored."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        trace = tuple(
            StartRecord(
                mapping_id=int(r["mapping_id"]),
                loglik=float(r["loglik"]),
                params=_params_from_dict(r["params"]),
                iterations=int(r["iterations"]),
                floor_active=tuple(r["floor_active"]),
                frozen=tuple(tuple(f) for f in r["frozen"]),
                stop_reason=str(r["stop_reason"]),
            )
            for r in payload["trace"]
        )
        result = FitResult(trace, tuple(payload["tie_ids"]), tuple(payload["scale_floor"]))
        data_options = dict(payload["data_options"])
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise DataError(f"invalid fit file {path}: {exc}") from None
    return result, data_options


# --------------------------------------------------------------------------
# shared writers
# --------------------------------------------------------------------------

def _write_histogram(path: str, result: FitResult, dataset: Dataset) -> None:
    rows = []
    for h in posterior_histogram(result, dataset):
        for b in range(len(h.counts)):
            rows.append({"t": h.t, "z": h.z, "stratum_z0": h.stratum[0],
                         "stratum_z1": h.stratum[1], "bin_lo": float(h.edges[b]),
                         "bin_hi": float(h.edges[b + 1]), "count": int(h.counts[b])})
    _write_csv(path, rows)


def _write_marginals(path: str, result: FitResult, dataset: Dataset) -> None:
    table = marginal_fit_table(result, dataset)
    rows = [(r.arm, r.quantity, r.predicted, r.observed) for r in table.rows]
    rows += [(arm, "excluded_zero_weight_arm", None, None) for arm in table.excluded_arms]
    _write_csv(path, [dict(zip(("arm", "quantity", "predicted", "observed"), r)) for r in rows])


def _write_params(path: str, result: FitResult, se_naive, se_cluster) -> None:
    values = np.concatenate(
        [result.params.probs, result.params.locations.ravel(), result.params.scales]
    )
    _write_csv(path, [
        {"name": name, "value": float(values[i]),
         "se_naive": None if se_naive is None else float(se_naive[i]),
         "se_cluster": None if se_cluster is None else float(se_cluster[i])}
        for i, name in enumerate(param_names(result.params))
    ])


DIAGNOSTICS_OUTPUTS = ("trace.csv", "posterior_hist.csv", "marginal_fit.csv")
# what a fit writes besides summary.json; a fit that fails removes them
FIT_OUTPUTS = ("params.csv", "effects.csv", "fit.json", *DIAGNOSTICS_OUTPUTS)


def _output_paths(out_dir: str, names) -> dict:
    return {os.path.splitext(name)[0]: os.path.join(out_dir, name) for name in names}


def _diagnostics_files(out_dir: str, result: FitResult, dataset: Dataset) -> dict:
    paths = _output_paths(out_dir, DIAGNOSTICS_OUTPUTS)
    _write_csv(paths["trace"], solution_trace_table(result))
    _write_histogram(paths["posterior_hist"], result, dataset)
    _write_marginals(paths["marginal_fit"], result, dataset)
    return paths


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_fit(args) -> int:
    config = FitConfig(tol=args.tol, max_iter=args.max_iter, starts=parse_starts(args.starts))
    family = Family(args.family)
    levels = 2 if args.dichotomize else args.levels
    dataset = read_dataset(args.data, levels, args.dichotomize, family)
    out_dir = args.out_dir
    structure = MeanStructure(args.mean_structure)
    try:
        result = fit(dataset, family, structure, config)
    except ConvergenceError as exc:
        os.makedirs(out_dir, exist_ok=True)
        for name in FIT_OUTPUTS:  # a previous fit's outputs would pass for this one's
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
        _write_json(
            os.path.join(out_dir, "summary.json"),
            {"command": "fit", "converged": False, "error": str(exc)},
        )
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    os.makedirs(out_dir, exist_ok=True)  # only once there is something to write

    table, cov_n, cov_c = effect_table(result, dataset)
    nat_naive, nat_cluster = (None if cov is None else natural_param_ses(result, cov)
                              for cov in (cov_n, cov_c))

    data_options = {
        "data": os.path.abspath(args.data),
        "levels": levels,
        "dichotomize": bool(args.dichotomize),
        "family": family.value,
        "mean_structure": structure.value,
    }
    paths = _output_paths(out_dir, (*FIT_OUTPUTS, "summary.json"))
    _write_params(paths["params"], result, nat_naive, nat_cluster)
    _write_csv(paths["effects"], table.rows())
    _diagnostics_files(out_dir, result, dataset)
    save_fit(paths["fit"], result, data_options)

    summary = {
        "command": "fit",
        "n_cases": dataset.n,
        "n_clusters": dataset.n_clusters,
        "ess": {str(t): effective_sample_size(dataset, t) for t in (0, 1)},
        "loglik": result.loglik,
        "converged": result.converged,
        "mapping_id": result.mapping_id,
        "tie_ids": list(result.tie_ids),
        "iterations": result.iterations,
        "n_starts": len(result.trace),
        "stop_reasons": dict(Counter(r.stop_reason for r in result.trace)),
        "effects": table.rows(),
        "se_error": table.se_error,
        "files": {k: os.path.abspath(v) for k, v in paths.items()},
    }
    _write_json(paths["summary"], summary)
    status = "converged" if result.converged else "did not converge"
    print(f"fit {status}: loglik={result.loglik!r}, mapping={result.mapping_id}, "
          f"outputs in {out_dir}")
    if not result.converged:
        reason = result.winner.stop_reason
        how = f"at --max-iter {args.max_iter}" if reason == "max_iter" else f"as '{reason}'"
        print(f"warning: the best start (mapping {result.mapping_id}) stopped {how} "
              "without converging", file=sys.stderr)
    if table.se_error:
        print(f"standard errors unavailable: {table.se_error}", file=sys.stderr)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    result, data_options = load_fit(args.fit)
    data_path = args.data or data_options.get("data")
    if not data_path:
        raise DataError("no dataset path given and none recorded in the fit file")
    try:
        options = (int(data_options["levels"]), bool(data_options["dichotomize"]),
                   Family(data_options["family"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"invalid fit file {args.fit}: missing or bad data option {exc}") from None
    dataset = read_dataset(data_path, *options)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = _diagnostics_files(out_dir, result, dataset)
    print(f"diagnostics written to {out_dir}")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def _comma_list(parse):
    return lambda text: [parse(v.strip()) for v in text.split(",")]


_CONFIG_KEYS = {  # key -> parser of its value
    "n_per_arm": _comma_list(int), "dispersion_sd": _comma_list(float),
    "prob_scenario": _comma_list(str), "shapes": _comma_list(parse_shape),
    "shape": parse_shape, "starts": parse_starts, "tol": float, "max_iter": int,
    "replicates": int, "k_levels": int, "effect": float, "sigma": float,
}


def read_sim_config(path: str, seed: int) -> tuple[list[SimConfig], bool]:
    """Parse the key=value (or key: value) grid file into the config cross
    product and whether it is a misspecification study.

    Grid keys (comma lists allowed): n_per_arm, dispersion_sd,
    prob_scenario, and the disturbance shape, the innermost axis. A
    ``shapes`` list makes a paired study: each cell runs the normal baseline
    first, then each other shape once per :func:`shape_label` (the first
    occurrence sets its position, the last its parameter). It excludes the
    single ``shape`` key. Each key may appear once; an absent key takes
    :class:`SimConfig`'s default.
    """
    raw: dict[str, str] = {}
    seen: dict[str, int] = {}  # the line of each key
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not part of a key
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                key, sep, value = text.partition(":")
            if not sep:
                raise DataError(f"config line {lineno}: expected key = value")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise DataError(f"config line {lineno}: unknown key '{key}'")
            if key in seen:
                raise DataError(f"config line {lineno}: key '{key}' already set on line "
                                f"{seen[key]}")
            seen[key] = lineno
            raw[key] = value.strip()
    if "shape" in raw and "shapes" in raw:
        raise DataError("config sets both 'shape' and 'shapes': a 'shapes' study pairs "
                        "each shape with the normal baseline, so give one of the two")
    try:
        values = {key: _CONFIG_KEYS[key](text) for key, text in raw.items()}
        axes = [values.pop(key, [getattr(SimConfig, key)])
                for key in ("n_per_arm", "dispersion_sd", "prob_scenario")]
        paired = "shapes" in values
        if paired:
            shaped = {shape_label(*s): s for s in values.pop("shapes") if s[0] != "normal"}
            shapes = [("normal", None), *shaped.values()]
        else:
            shapes = [values.pop("shape", (SimConfig.shape, SimConfig.shape_param))]
        configs = [
            SimConfig(n_per_arm=n, dispersion_sd=d, prob_scenario=p, shape=shape,
                      shape_param=param, seed=seed, **values)
            for n, d, p, (shape, param) in itertools.product(*axes, shapes)
        ]
    except ValueError as exc:
        raise DataError(f"invalid config value: {exc}") from None
    return configs, paired


def _replicate_rows(report: RecoveryReport) -> list[dict]:
    cfg = report.config
    label = shape_label(cfg.shape, cfg.shape_param)
    truth = report.truth
    strata = truth.grid.strata
    true_table = truth.location_table()
    rows = []
    for r in report.replicates:
        row = {"n_per_arm": cfg.n_per_arm, "dispersion_sd": cfg.dispersion_sd,
               "prob_scenario": cfg.prob_scenario, "shape": label, "replicate": r.index,
               "ok": r.ok, "error": r.error, "loglik": r.loglik, "mapping_id": r.mapping_id,
               "label_correct": r.label_correct, "n_near_ties": r.n_near_ties}
        for s, (z0, z1) in enumerate(strata):
            for t in (0, 1):
                row[f"loc_z0{z0}_z1{z1}_t{t}"] = (
                    float(true_table[s, t] + r.location_error[s, t]) if r.ok else None)
                row[f"true_loc_z0{z0}_z1{z1}_t{t}"] = float(true_table[s, t])
        for s, (z0, z1) in enumerate(strata):
            row[f"p_z0{z0}_z1{z1}"] = float(truth.probs[s] + r.prob_error[s]) if r.ok else None
            row[f"true_p_z0{z0}_z1{z1}"] = float(truth.probs[s])
        rows.append(row)
    return rows


def _nanmax(arr: np.ndarray) -> float:
    if np.all(np.isnan(arr)):
        return float("nan")
    return float(np.nanmax(arr))


def _summary_row(report: RecoveryReport) -> dict:
    cfg = report.config
    return {
        "n_per_arm": cfg.n_per_arm, "dispersion_sd": cfg.dispersion_sd,
        "prob_scenario": cfg.prob_scenario, "shape": shape_label(cfg.shape, cfg.shape_param),
        "replicates": cfg.replicates, "n_failed": report.n_failed,
        "fraction_label_correct": report.fraction_label_correct,
        "near_tie_fraction": report.near_tie_fraction, "prob_mae": report.prob_mae,
        "location_rmse_max": _nanmax(report.location_rmse(correct_only=False)),
        "location_rmse_correct_max": _nanmax(report.location_rmse(correct_only=True)),
    }


def cmd_simulate(args) -> int:
    """Run one recovery study per config of the grid file and write the
    replicate rows, the per-config summary and ``grid_summary.json``. A
    paired study's summary adds each cell's label-correct fraction under
    normal disturbances and its drop under each other shape."""
    configs, paired = read_sim_config(args.config, args.seed)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    reports = [run_study(cfg) for cfg in configs]

    rep_path = os.path.join(out_dir, "replicates.csv")
    sum_path = os.path.join(out_dir, "summary.csv")
    _write_csv(rep_path, [row for report in reports for row in _replicate_rows(report)])
    _write_csv(sum_path, [_summary_row(report) for report in reports])

    # a paired cell is its normal baseline and the shaped reports after it
    cells: list[tuple[RecoveryReport, list[RecoveryReport]]] = []
    for report in reports:
        if paired and report.config.shape != "normal":
            cells[-1][1].append(report)
        else:
            cells.append((report, []))
    payload = {
        "command": "simulate",
        "seed": args.seed,
        "n_configs": len(cells),
        "files": {"replicates": os.path.basename(rep_path),
                  "summary": os.path.basename(sum_path)},
    }
    if paired:
        payload["misspecification"] = [
            {"n_per_arm": base.config.n_per_arm, "dispersion_sd": base.config.dispersion_sd,
             "prob_scenario": base.config.prob_scenario,
             "baseline_label_correct": base.fraction_label_correct,
             "degradation": {shape_label(r.config.shape, r.config.shape_param):
                             base.fraction_label_correct - r.fraction_label_correct
                             for r in shaped}}
            for base, shaped in cells
        ]
    _write_json(os.path.join(out_dir, "grid_summary.json"), payload)
    print(f"simulation outputs in {out_dir} ({len(reports)} report(s))")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratfit",
        description="Principal-stratum mixture models for outcomes suppressed "
                    "by institutionalization at follow-up.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the strata mixture to a CSV dataset")
    p_fit.add_argument("data", help="CSV with columns y,t,z[,w,cluster]")
    p_fit.add_argument("--family", choices=["normal", "tobit"], default="normal")
    p_fit.add_argument("--levels", type=int, choices=[2, 3], default=2)
    p_fit.add_argument("--dichotomize", action="store_true",
                       help="collapse z > 0 to 1 before fitting (implies --levels 2)")
    p_fit.add_argument("--mean-structure", choices=["saturated", "linear"],
                       default="saturated")
    p_fit.add_argument("--tol", type=float, default=FitConfig.tol)
    p_fit.add_argument("--max-iter", type=int, default=FitConfig.max_iter)
    p_fit.add_argument("--starts", default=FitConfig.starts,
                       help="'all', 'topk:N' or 'spread:N' (default all); topk and spread "
                            "keep N mappings ranked by their saturated initial "
                            "log-likelihood under either mean structure")
    p_fit.add_argument("--out-dir", default=".")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run parameter-recovery studies")
    p_sim.add_argument("config", help="key=value grid file")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out-dir", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnose",
                            help="regenerate diagnostics from a saved fit")
    p_diag.add_argument("--fit", required=True, help="fit.json from a previous run")
    p_diag.add_argument("--data", default=None,
                        help="dataset CSV (defaults to the path recorded in the fit)")
    p_diag.add_argument("--out-dir", default=".")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StratfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
