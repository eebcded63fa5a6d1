"""Dump every answer of the benchmark workloads bit for bit, and compare two dumps.

    python tools/bit_evidence.py dump OUT.json
    python tools/bit_evidence.py dump --workload NAME [--workload NAME ...] OUT.json
    python tools/bit_evidence.py dump --grid OUT.json
    python tools/bit_evidence.py dump --study OUT.json
    python tools/bit_evidence.py compare A.json B.json
    python tools/bit_evidence.py compare --answers A.json B.json

``dump`` builds the inputs of the four benchmark workloads at data seeds
0-15 with ``bench/workloads.build_inputs`` and analyses each dataset as its
workload does: ``normal-cli`` reads the CSV written for the CLI, the others
build the dataset from the arrays. For each analysis it fits the model and
computes the effect table with both covariances, and writes every field of
every ``StartRecord`` (parameters as the bytes of their float64 arrays), the
tie ids, the naive Hessian, both covariances, the effects on both scales,
the four effect-SE arrays and the natural-parameter SEs under both
covariances (``natural_param_ses``, as ``params.csv`` reports them); a fit
that raises is written as its error. An SE step that fails is written as
``se_error``, each covariance it left unformed as ``None``, and no
natural-parameter SEs under that covariance. For ``normal-cli`` it also
runs the benchmark's pass, ``cli.main(["fit", ...])`` on each CSV, and
writes the exit status and the sha256 of every output file (keys
``cli:exit`` and ``cli:<file name>``, with the work directory written as
``<work>`` before hashing), with the parts of them that record every start
hashed apart (``cli:<file name>#<part>``, see :func:`hash_outputs`), and
the dtype, shape and sha256 of the bytes of every array of the dataset that
``cli.read_dataset`` returns for each CSV (``cli:dataset:<field>``, see
:func:`dataset_bits`), so ``compare`` shows a change to the reader without
going through the fits. Values are strings, so two dumps are equal exactly
when every bit is.
``--workload`` keeps only the named workloads, for checking one while a
change is made; the evidence for a change is still the dump of all four.
``dump --grid`` writes the fits of the recovery grid instead (see
:func:`grid_analyses`): every record and the tie ids, without SEs.
``dump --study`` runs ``simulate.run_study`` on the recovery configs of
:func:`study_configs` and writes every field of every ``ReplicateResult``,
so it checks the study's batched path itself.

``compare`` prints each key whose value differs or exists in one dump only,
and exits 1 if there is any. Where both values are float arrays of one
shape it prints their relative deviation max|a-b| / max|a| in place of
their bits, and after the keys the largest such deviation per workload.
``compare --answers`` compares only what an analysis answers: its error, if
any, its winner's record and its tie ids (``em.tie_ids``), the Hessian, both
covariances, the effects, all the SE arrays and the CLI's output hashes
but their per-start parts (see :func:`hash_outputs`). It prints each answer
that differs, then how many other (loser) records and per-start CLI parts
differ and in how many analyses the count of near ties (``em.near_ties``)
changed, and exits 1 if an answer or a near-tie count differs. A change
that only stops losing starts earlier passes it.

The code under test is the ``src/`` next to this file's ``tools/``, so to
dump another checkout, copy this file into that checkout's ``tools/``. BLAS
runs single-threaded, as in the benchmark.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import itertools
import json
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from stratfit import cli, effects, em, simulate  # noqa: E402
from stratfit.em import near_ties, tie_ids  # noqa: E402
from stratfit.core import Dataset  # noqa: E402
from stratfit.densities import Family  # noqa: E402
from stratfit.errors import ConvergenceError, StratfitError  # noqa: E402

SEEDS = range(wl.N_REF_SEEDS)
GRID_N = (500, 2000)
GRID_DISPERSION = (1.0, 1.6, 2.4)
GRID_REPLICATES = 8


def _bits(a) -> str:
    if a is None:
        return "None"
    a = np.ascontiguousarray(a, dtype=float)
    return f"{a.shape}:{a.tobytes().hex()}"


def _record(out: dict, key: str, r: em.StartRecord) -> None:
    p = r.params
    out[f"{key}/mapping_id"] = str(r.mapping_id)
    out[f"{key}/loglik"] = float(r.loglik).hex()
    for name in ("probs", "locations", "scales"):
        out[f"{key}/params.{name}"] = _bits(getattr(p, name))
    out[f"{key}/params.family"] = p.family.value
    out[f"{key}/params.mean_structure"] = p.mean_structure.value
    for name in ("iterations", "floor_active", "frozen", "stop_reason"):
        out[f"{key}/{name}"] = repr(getattr(r, name))
    out[f"{key}/history"] = repr([float(v).hex() for v in r.history])


def _analysis(out: dict, key: str, ds: Dataset, family: Family, config: em.FitConfig,
              ses: bool = True) -> None:
    try:
        res = em.fit(ds, family, config=config)
    except ConvergenceError as exc:
        out[f"{key}/error"] = f"ConvergenceError: {exc}"
        for i, r in enumerate(exc.trace):
            _record(out, f"{key}/record{i}", r)
        return
    except StratfitError as exc:
        out[f"{key}/error"] = f"{type(exc).__name__}: {exc}"
        return
    for i, r in enumerate(res.trace):
        _record(out, f"{key}/record{i}", r)
    out[f"{key}/tie_ids"] = repr(res.tie_ids)
    if not ses:
        return
    try:
        table, cov_n, cov_c = effects.effect_table(res, ds)
    except (StratfitError, np.linalg.LinAlgError) as exc:  # older checkouts raise SE errors
        out[f"{key}/se_error"] = f"{type(exc).__name__}: {exc}"
        return
    se_error = getattr(table, "se_error", None)  # a field older checkouts lack
    if se_error is not None:
        out[f"{key}/se_error"] = se_error
    out[f"{key}/hessian"] = _bits(None if cov_n is None else cov_n.hessian)
    for name, cov in (("cov_naive", cov_n), ("cov_cluster", cov_c)):
        out[f"{key}/{name}"] = _bits(None if cov is None else cov.cov)
    for name in ("effect", "effect_observed", "se_naive", "se_cluster", "se_naive_observed",
                 "se_cluster_observed"):
        out[f"{key}/{name}"] = _bits(getattr(table, name))
    for name, cov in (("natural_se_naive", cov_n), ("natural_se_cluster", cov_c)):
        if cov is not None:
            out[f"{key}/{name}"] = _bits(effects.natural_param_ses(res, cov))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(value) -> str:
    return _sha(json.dumps(value, sort_keys=True).encode())


def hash_outputs(files: dict[str, bytes]) -> dict[str, str]:
    """The sha256 of each of a fit's CLI output files (name -> bytes) as
    ``cli:<name>``, with the parts that record every start hashed apart as
    ``cli:<name>#<part>``: each losing start's ``fit.json`` trace entry and
    ``trace.csv`` row (``#mapping<id>``) and ``summary.json``'s
    ``stop_reasons``. So ``cli:<name>`` holds only answers, the winner's
    entry and row among them. ``fit.json`` and ``summary.json`` are hashed
    as their parsed values (sorted keys), which compares every value bit for
    bit; the other files as their bytes."""
    out = {}
    winner = json.loads(files["fit.json"])["tie_ids"][0] if "fit.json" in files else None
    for name, data in files.items():
        if name == "fit.json":
            payload = json.loads(data)
            for r in payload["trace"]:
                if r["mapping_id"] != winner:
                    out[f"cli:{name}#mapping{r['mapping_id']}"] = _json_sha(r)
            payload["trace"] = [r for r in payload["trace"] if r["mapping_id"] == winner]
            out[f"cli:{name}"] = _json_sha(payload)
        elif name == "trace.csv":
            header, *rows = data.splitlines(keepends=True)
            answer = [header]
            for row in rows:
                mapping = int(row.split(b",", 1)[0])
                if mapping == winner:
                    answer.append(row)
                else:
                    out[f"cli:{name}#mapping{mapping}"] = _sha(row)
            out[f"cli:{name}"] = _sha(b"".join(answer))
        elif name == "summary.json":
            payload = json.loads(data)
            if "stop_reasons" in payload:
                out[f"cli:{name}#stop_reasons"] = _json_sha(payload.pop("stop_reasons"))
            out[f"cli:{name}"] = _json_sha(payload)
        else:
            out[f"cli:{name}"] = _sha(data)
    return out


def dataset_bits(ds: Dataset) -> dict[str, str]:
    """Each array field of ``ds`` as ``cli:dataset:<field>``: its dtype and
    shape, then the sha256 of its bytes."""
    fields = {f.name: getattr(ds, f.name) for f in dataclasses.fields(ds)}
    return {f"cli:dataset:{name}": f"{a.dtype.str}{a.shape}:{_sha(a.tobytes())}"
            for name, a in fields.items() if isinstance(a, np.ndarray)}


def cli_outputs(inputs: wl.Inputs, work: str) -> list[dict]:
    """Run the CLI pass of a workload with CSV inputs (``normal-cli``) as the
    benchmark runs it; per analysis, the exit status as ``cli:exit`` and the
    hashes of the files in its output directory (:func:`hash_outputs`),
    read with ``work`` written as ``<work>`` (``summary.json`` and
    ``fit.json`` hold absolute paths)."""
    raw = wl.run_pass(inputs, wl.FitObserver())
    out = []
    for ((code, _), _), out_dir in zip(raw, inputs.out_dirs):
        files = {name: Path(out_dir, name).read_bytes().replace(os.fsencode(work), b"<work>")
                 for name in sorted(os.listdir(out_dir))}
        out.append({"cli:exit": repr(code), **hash_outputs(files)})
    return out


def bench_analyses(work: str, names=wl.WORKLOADS):
    """Yield (key, dataset, family, FitConfig, CLI outputs) for every
    analysis of the benchmark workloads ``names`` (default all four) at data
    seeds 0-15, built as each workload builds them; CSVs are written under
    ``work``. The CLI outputs are :func:`cli_outputs`' dict for a CSV
    workload, with the :func:`dataset_bits` of the CSV's dataset, else empty."""
    for name in names:
        for seed in SEEDS:
            inputs = wl.build_inputs(name, seed, work)
            spec = inputs.spec
            config = em.FitConfig(tol=spec.tol, starts=em.parse_starts(spec.starts))
            files = cli_outputs(inputs, work) if inputs.csv_paths else [{}] * len(inputs.arrays)
            for i, arr in enumerate(inputs.arrays):
                if inputs.csv_paths:
                    ds = cli.read_dataset(inputs.csv_paths[i], spec.k_levels, False, spec.family)
                    files[i].update(dataset_bits(ds))
                else:
                    ds = Dataset.from_arrays(arr["y"], arr["t"], arr["z"], cluster=arr["cluster"],
                                             k_levels=spec.k_levels, family=spec.family)
                yield f"{name}/seed{seed}/analysis{i}", ds, spec.family, config, files[i]
            print(f"{name} seed {seed}: {len(inputs.arrays)} analyses", file=sys.stderr)


def grid_analyses():
    """Yield (key, dataset, family, FitConfig, no CLI outputs) for the 96
    fits of the recovery grid: ``n_per_arm`` 500 and 2000 x
    ``dispersion_sd`` 1.0, 1.6 and 2.4 x the normal outcome and the tobit
    outcome max(y - 2, 0) x replicates 0-7 of ``SimConfig(seed=0)``, each
    fitted with the default ``FitConfig``."""
    for n, d, family in itertools.product(GRID_N, GRID_DISPERSION,
                                          (Family.NORMAL, Family.TOBIT)):
        config = simulate.SimConfig(n_per_arm=n, dispersion_sd=d, replicates=GRID_REPLICATES)
        for i in range(GRID_REPLICATES):
            ds, _ = simulate.generate(config, simulate._replicate_rng(config, i))
            if family is Family.TOBIT:
                ds = Dataset.from_arrays(np.maximum(ds.y - wl.TOBIT_SHIFT, 0.0), ds.t, ds.z,
                                         k_levels=ds.k_levels, family=family)
            yield f"grid/n{n}/d{d}/{family.value}/rep{i}", ds, family, em.FitConfig(), {}
        print(f"grid n {n} dispersion {d} {family.value}: {GRID_REPLICATES} fits",
              file=sys.stderr)


def study_configs():
    """Yield (key, SimConfig) for the recovery studies of ``dump --study``:
    the benchmark's ``recovery-small`` study at data seeds 0-15, configured
    as its pass configures it, and the six configs behind the grid's normal
    fits (``run_study`` fits the normal family only)."""
    spec = wl.SPECS["full"]["recovery-small"]
    for seed in SEEDS:
        yield (f"study/recovery-small/seed{seed}",
               wl._sim_config(spec, seed, replicates=spec.analyses))
    for n, d in itertools.product(GRID_N, GRID_DISPERSION):
        yield (f"study/grid/n{n}/d{d}",
               simulate.SimConfig(n_per_arm=n, dispersion_sd=d, replicates=GRID_REPLICATES))


def _study(out: dict, key: str, config: simulate.SimConfig) -> None:
    """Every field of every replicate of ``run_study(config)``, as bits."""
    for rep in simulate.run_study(config).replicates:
        for f in dataclasses.fields(rep):
            value = getattr(rep, f.name)
            out[f"{key}/rep{rep.index}/{f.name}"] = (
                _bits(value) if isinstance(value, np.ndarray)
                else value.hex() if isinstance(value, float) else repr(value))
    print(f"{key}: {config.replicates} replicates", file=sys.stderr)


def dump(path: str, kind: str = "bench", names=wl.WORKLOADS) -> None:
    """Write the analyses of ``kind``: "bench" (of the workloads ``names``),
    "grid" or "study"."""
    out: dict[str, str] = {}
    if kind == "study":
        for key, config in study_configs():
            _study(out, key, config)
    else:
        with tempfile.TemporaryDirectory() as work:
            grid = kind == "grid"
            analyses = grid_analyses() if grid else bench_analyses(work, names)
            for key, ds, family, config, files in analyses:
                _analysis(out, key, ds, family, config, ses=not grid)
                out.update((f"{key}/{name}", value) for name, value in files.items())
    with open(path, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)


def _floats(value: str | None) -> np.ndarray | None:
    """The float64 array that :func:`_bits` wrote as ``value``, or None if
    ``value`` is not one."""
    shape, sep, digits = (value or "").partition("):")
    if not (sep and shape.startswith("(")) or len(digits) % 16:
        return None
    try:
        return np.frombuffer(bytes.fromhex(digits)).reshape(ast.literal_eval(shape + ")"))
    except (ValueError, SyntaxError):
        return None


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    diffs = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    largest = {}  # workload -> (largest relative deviation, its key)
    for key in diffs:
        x, y = _floats(a.get(key)), _floats(b.get(key))
        if x is None or y is None or x.shape != y.shape or not x.size:
            print(f"{key}: {a.get(key, '<absent>')[:80]} != {b.get(key, '<absent>')[:80]}")
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = float(np.max(np.abs(x - y)) / np.max(np.abs(x)))
        print(f"{key}: max|a-b|/max|a| = {rel:.3g}")
        work = key.split("/", 1)[0]
        if work not in largest or rel > largest[work][0]:
            largest[work] = rel, key
    for work, (rel, key) in sorted(largest.items()):
        print(f"{work}: largest max|a-b|/max|a| = {rel:.3g} ({key})")
    analyses = {k.rsplit("/", 1)[0] for k in a if "/record" not in k}
    print(f"{len(diffs)} differences over {len(a)} and {len(b)} values "
          f"({len(analyses)} analyses in {path_a})")
    return 1 if diffs else 0


def _by_analysis(dump: dict) -> tuple[dict, dict]:
    """Each analysis's answer values, and its records' fields by mapping id.
    Every analysis has an answer: its tie ids or its error."""
    answers, records = defaultdict(dict), defaultdict(lambda: defaultdict(dict))
    for key, value in dump.items():
        head, _, name = key.rpartition("/")
        analysis, _, record = head.rpartition("/")
        if record.startswith("record"):
            records[analysis][record][name] = value
        else:
            answers[head][name] = value
    return answers, {analysis: {int(r["mapping_id"]): r for r in recs.values()}
                     for analysis, recs in records.items()}


def _winner_and_near_ties(records: dict) -> tuple[int | None, int]:
    """The winning mapping id (as ``em.fit`` picks it) and the near-tie count."""
    if not records:
        return None, 0
    lls = [float.fromhex(r["loglik"]) for r in records.values()]
    return tie_ids(list(records), lls)[0], int(near_ties(lls, max(lls)).sum())


def compare_answers(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        (answers_a, records_a), (answers_b, records_b) = (_by_analysis(json.load(fa)),
                                                          _by_analysis(json.load(fb)))
    diffs, losers, parts, near_changed = [], 0, 0, 0
    for analysis in sorted(answers_a.keys() | answers_b.keys()):
        ans_a, ans_b = answers_a.get(analysis, {}), answers_b.get(analysis, {})
        recs_a, recs_b = records_a.get(analysis, {}), records_b.get(analysis, {})
        (win_a, near_a), (win_b, near_b) = (_winner_and_near_ties(recs_a),
                                            _winner_and_near_ties(recs_b))
        differ = [k for k in sorted(ans_a.keys() | ans_b.keys()) if ans_a.get(k) != ans_b.get(k)]
        diffs += [f"{analysis}/{k}" for k in differ if "#" not in k]
        parts += sum("#" in k for k in differ)  # the CLI's per-start parts
        if win_a != win_b or recs_a.get(win_a) != recs_b.get(win_b):
            diffs.append(f"{analysis}/winner: mapping {win_a} != mapping {win_b}"
                         if win_a != win_b else f"{analysis}/winner record (mapping {win_a})")
        losers += sum(recs_a.get(i) != recs_b.get(i)
                      for i in recs_a.keys() | recs_b.keys() if i not in (win_a, win_b))
        near_changed += near_a != near_b
    for line in diffs:
        print(line)
    print(f"{len(diffs)} answer differences over {len(answers_a)} and {len(answers_b)} analyses; "
          f"{losers} loser records and {parts} per-start CLI parts differ; "
          f"{near_changed} near-tie counts changed")
    return 1 if diffs or near_changed else 0


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "dump":
        *opts, path = argv[1:]
        if opts in (["--grid"], ["--study"]):
            dump(path, opts[0][2:])
            return 0
        names = opts[1::2]
        if opts[::2] == ["--workload"] * len(names) and set(names) <= set(wl.WORKLOADS):
            dump(path, names=names or wl.WORKLOADS)
            return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    if len(argv) == 4 and argv[:2] == ["compare", "--answers"]:
        return compare_answers(argv[2], argv[3])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
