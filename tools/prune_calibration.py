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

``report`` replays the library's own rule, ``em._pruned``, on those
trajectories; a ``SHORT_PHASE`` argument sets ``em._SHORT_PHASE`` in its own
process. The starts that end a near tie of their analysis's best
(``em.near_ties``) are those the rule must never stop. ``report`` prints:

- at each evaluation of the short phase, the largest lag of such a start
  behind the running lead (the best log-likelihood any start has reached so
  far), per unit of case weight, and the factor by which ``em._margin``
  there exceeds it;
- the largest ratio of such a lag to the start's projected remaining gain
  (``em._projected_gain``) at any evaluation from ``em._AITKEN_FROM`` on
  where the start is past the rule's floor (no near tie of the lead), for
  the evaluations up to ``em._SHORT_END`` and after it apart, and the factor
  by which ``em._PRUNE_AHEAD`` exceeds it;

each with the analysis, mapping id and evaluation where it occurs; then how
many near-tie starts the rule would stop and the EM iterations each workload
(and each family of the grid) would run. A start is checked only at
evaluations where it is still running: it neither met its stop rule there
nor reached ``max_iter``. The exit status is 1 when a near-tie start would
be stopped or a factor is below 2.
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
from stratfit import em  # noqa: E402
from stratfit.em import _margin, _projected_gain, _pruned, near_ties  # noqa: E402
from stratfit.errors import ConvergenceError  # noqa: E402


def record(path: str) -> None:
    em._PRUNE_MARGIN = em._PRUNE_AHEAD = math.inf
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for key, ds, family, config, _ in itertools.chain(be.bench_analyses(work),
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
    padded = np.full((len(histories), max(map(len, histories))), -np.inf)
    for row, h in zip(padded, histories):
        row[:len(h)] = h
    return np.maximum.accumulate(padded.max(axis=0))


def replay(h: np.ndarray, leads: np.ndarray, weight: float, max_iter: int):
    """Replay ``em._pruned`` on one start's history ``h`` in its analysis.
    Return the evaluations at which it is running, its projected gain at
    each, the one at which the rule stops it (or None) and its EM iterations.
    As in ``em._run_starts``, the rule is checked from the first evaluation
    where either of its bounds can stop a start, and a gain that reaches
    back before evaluation 1 is NaN."""
    ev = np.arange(min(em._AITKEN_FROM, em._SHORT_PHASE), len(h))
    prior = np.concatenate([[np.nan, np.nan], h])  # evaluation e at index e + 1
    gain, gain_prev = prior[ev + 1] - prior[ev], prior[ev] - prior[ev - 1]
    ahead = _projected_gain(gain, gain_prev, ev, max_iter)
    cut = np.flatnonzero(_pruned(leads[ev - 1], h[ev - 1], gain, gain_prev, ev, max_iter, weight))
    stop = int(ev[cut[0]]) if cut.size else None
    return ev, ahead, stop, min(len(h), max_iter) if stop is None else stop - 1


def _group(key: str) -> str:
    """The workload of an analysis key, or the grid and its family."""
    parts = key.split("/")
    return f"grid {parts[3]}" if parts[0] == "grid" else parts[0]


def report(path: str) -> int:
    with open(path) as fh:
        traj = json.load(fh)
    short = em._SHORT_PHASE
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
            ev, ahead, stop, its = replay(h, leads, a["weight"], a["max_iter"])
            iterations[_group(key)] += its
            if not near_ties(h[-1], best):
                continue
            near_starts += 1
            near_cut += stop is not None
            lag = leads[ev - 1] - h[ev - 1]
            for e, value in zip(ev, lag / a["weight"]):
                if e in lag_max and value > lag_max[e][0]:
                    lag_max[e] = (float(value), (key, i, int(e)))
            with np.errstate(divide="ignore", invalid="ignore"):  # rounded as the rule's bound
                ratio = np.where(ahead > 0.0, em._PRUNE_AHEAD * lag / (em._PRUNE_AHEAD * ahead),
                                 np.inf)
            past_floor = ~near_ties(h[ev - 1], leads[ev - 1])
            for span, part in (("early", ev <= em._SHORT_END), ("late", ev > em._SHORT_END)):
                sel = np.flatnonzero(past_floor & part & (ev >= em._AITKEN_FROM))
                if sel.size and ratio[sel].max() > ratio_max[span][0]:
                    j = sel[np.argmax(ratio[sel])]
                    ratio_max[span] = (float(ratio[j]), (key, i, int(ev[j])))

    def where(at):
        return "nowhere" if at is None else f"{at[0]} mapping {at[1]} evaluation {at[2]}"

    factors = []
    print(f"{len(traj)} analyses, {near_starts} starts within NEAR_TIE_REL of their best; "
          f"margin at evaluations {short}-{window[-1]}, projected gain from {em._AITKEN_FROM}")
    for e, (value, at) in lag_max.items():
        margin = float(_margin(np.array([e]))[0])
        factors.append(margin / value if value else math.inf)
        print(f"evaluation {e}: largest near-tie lag {value:.3g} per unit of case weight "
              f"({where(at)}); margin {margin:.3g} is {factors[-1]:.2f}x")
    spans = {"early": f"{em._AITKEN_FROM}-{em._SHORT_END}", "late": f"{em._SHORT_END + 1} on"}
    for span, (value, at) in ratio_max.items():
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
        if len(argv) == 3:
            em._SHORT_PHASE = int(argv[2])
        return report(argv[1])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
