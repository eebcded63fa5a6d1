"""Calibrate the EM pruning constants on full trajectories.

    python tools/prune_calibration.py record TRAJ.json
    python tools/prune_calibration.py report TRAJ.json [SHORT_PHASE]

``record`` fits every analysis of the four benchmark workloads at data
seeds 0-15 and the 96 fits of the recovery grid, as ``tools/bit_evidence.py``
builds them, with both pruning rules of ``em._run_starts`` off and every
evaluation's log-likelihood kept. It turns the rules off by setting
``em._PRUNE_MARGIN`` and ``em._PRUNE_AHEAD`` to infinity in its own process;
the library has no option for it. It writes, per analysis, the total case
weight, ``max_iter`` and each start's mapping id and log-likelihood history.

``report`` reads those trajectories and takes every start that ends within
``NEAR_TIE_REL`` of its analysis's best log-likelihood: the starts that
pruning must never stop. With the short phase starting at evaluation
``SHORT_PHASE`` (default: ``em._SHORT_PHASE``) and the library's other
pruning constants, it prints:

- at each evaluation of the short phase, the largest lag of such a start
  behind the running lead (the best log-likelihood any start has reached so
  far), per unit of case weight, and the factor by which the margin there
  exceeds it;
- the largest ratio of such a lag to the start's projected remaining gain
  (the Aitken projection of ``em._run_starts``, capped by the M-steps left)
  at any later evaluation where the lag exceeds ``em._PRUNE_FLOOR``
  relative, for the evaluations up to ``em._SHORT_END`` and after it apart,
  and the factor by which ``em._PRUNE_AHEAD`` exceeds it;

each with the analysis, mapping id and evaluation where it occurs. It then
replays both rules on every start and prints how many near-tie starts they
would stop and the EM iterations each workload (and each family of the
grid) would run. A start is checked only at evaluations where it is still
running: it neither met its stop rule there nor reached ``max_iter``. The
exit status is 1 when a near-tie start would be stopped or a factor is
below 2.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bit_evidence as be  # noqa: E402  (sets up the paths to src/ and bench/)
from stratfit import em, simulate  # noqa: E402
from stratfit.errors import ConvergenceError  # noqa: E402


def record(path: str) -> None:
    em._PRUNE_MARGIN = em._PRUNE_AHEAD = math.inf
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for key, ds, family, config in itertools.chain(be.bench_analyses(work),
                                                       be.grid_analyses()):
            config = em.FitConfig(tol=config.tol, max_iter=config.max_iter,
                                  starts=config.starts, keep_history=True)
            try:
                trace = em.fit(ds, family, config=config).trace
            except ConvergenceError as exc:
                trace = exc.trace
            if any(r.stop_reason == "pruned" for r in trace):
                raise RuntimeError(f"{key}: a start was pruned with both rules off")
            out[key] = {"weight": float(ds.w.sum()), "max_iter": config.max_iter,
                        "starts": {str(r.mapping_id): list(r.history) for r in trace}}
    with open(path, "w") as fh:
        json.dump(out, fh)


def _leads(histories: list[list[float]]) -> np.ndarray:
    """The running lead at each evaluation 1, 2, ... (index 0 is evaluation 1)."""
    longest = max(map(len, histories))
    padded = np.full((len(histories), longest), -np.inf)
    for row, h in zip(padded, histories):
        row[:len(h)] = h
    return np.maximum.accumulate(padded.max(axis=0))


def _ahead(h: np.ndarray, ev: np.ndarray, max_iter: int) -> np.ndarray:
    """The projected remaining gain at evaluations ``ev``, as ``_run_starts``
    computes it from the last two gains."""
    gain, gain_prev = h[ev - 1] - h[ev - 2], h[ev - 2] - h[ev - 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = gain / gain_prev
        aitken = np.where((r >= 0.0) & (r < 1.0), gain * r / (1.0 - r), np.inf)
    return np.minimum(aitken, gain * (max_iter - ev + 1))


def _margins(short: int, evaluations: np.ndarray) -> np.ndarray:
    """The margin per unit of case weight at each evaluation, as
    ``em._run_starts`` sets it with its short phase starting at ``short``."""
    return np.where(evaluations <= em._SHORT_END,
                    em._PRUNE_MARGIN * em._MARGIN_DECAY ** (evaluations - short), np.inf)


def _group(key: str) -> str:
    """The workload of an analysis key, or the grid and its family."""
    parts = key.split("/")
    return f"grid {parts[3]}" if parts[0] == "grid" else parts[0]


def report(path: str, short: int) -> int:
    with open(path) as fh:
        traj = json.load(fh)
    window = np.arange(short, max(short, em._SHORT_END) + 1)
    lag_max = {int(e): (0.0, None) for e in window}
    ratio_max = {"early": (0.0, None), "late": (0.0, None)}
    near_starts = near_cut = 0
    iterations = defaultdict(int)
    for key, a in traj.items():
        ids, histories = zip(*((int(i), np.array(h)) for i, h in a["starts"].items()))
        leads = _leads(histories)
        best = max(h[-1] for h in histories)
        for i, h in zip(ids, histories):
            ev = np.arange(short, len(h))  # the evaluations at which it is running
            lag = leads[ev - 1] - h[ev - 1]
            floor = em._PRUNE_FLOOR * np.abs(leads[ev - 1])
            ahead = np.full(ev.size, np.inf)
            ahead[1:] = em._PRUNE_AHEAD * _ahead(h, ev[1:], a["max_iter"])
            bound = np.minimum(_margins(short, ev) * a["weight"], ahead)
            cut = np.flatnonzero(lag > np.maximum(floor, bound))
            iterations[_group(key)] += ev[cut[0]] - 1 if cut.size else min(len(h), a["max_iter"])
            if best - h[-1] > simulate.NEAR_TIE_REL * max(abs(best), 1e-300):
                continue
            near_starts += 1
            near_cut += bool(cut.size)
            for e, value in zip(ev, lag / a["weight"]):
                if e in lag_max and value > lag_max[e][0]:
                    lag_max[e] = (float(value), (key, i, int(e)))
            with np.errstate(divide="ignore"):
                ratio = np.where(ahead > 0.0, em._PRUNE_AHEAD * lag / ahead, np.inf)
            for span, part in (("early", ev <= em._SHORT_END), ("late", ev > em._SHORT_END)):
                sel = np.flatnonzero((lag > floor) & part & (ev > short))
                if sel.size and ratio[sel].max() > ratio_max[span][0]:
                    j = sel[np.argmax(ratio[sel])]
                    ratio_max[span] = (float(ratio[j]), (key, i, int(ev[j])))

    def where(at):
        return "nowhere" if at is None else f"{at[0]} mapping {at[1]} evaluation {at[2]}"

    factors = []
    print(f"{len(traj)} analyses, {near_starts} starts within NEAR_TIE_REL of their best; "
          f"short phase at evaluations {short}-{window[-1]}")
    for e, (value, at) in lag_max.items():
        margin = float(_margins(short, np.array([e]))[0])
        factors.append(margin / value if value else math.inf)
        print(f"evaluation {e}: largest near-tie lag {value:.3g} per unit of case weight "
              f"({where(at)}); margin {margin:.3g} is {factors[-1]:.2f}x")
    spans = {"early": f"{short + 1}-{em._SHORT_END}", "late": f"{em._SHORT_END + 1} on"}
    for span, (value, at) in ratio_max.items():
        if span == "early" and short >= em._SHORT_END:
            continue
        factors.append(em._PRUNE_AHEAD / value if value else math.inf)
        print(f"largest near-tie lag/ahead past the floor, evaluations {spans[span]}: "
              f"{value:.3g} ({where(at)}); _PRUNE_AHEAD = {em._PRUNE_AHEAD:g} is "
              f"{factors[-1]:.2f}x")
    print(f"near-tie starts the rules would stop: {near_cut}")
    print("EM iterations: " + ", ".join(f"{g} {n}" for g, n in iterations.items()))
    return 1 if near_cut or min(factors) < 2.0 else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "record":
        record(argv[1])
        return 0
    if len(argv) in (2, 3) and argv[0] == "report":
        return report(argv[1], int(argv[2]) if len(argv) == 3 else em._SHORT_PHASE)
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
