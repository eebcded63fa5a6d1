"""Goodness-of-fit artifacts for a fitted strata mixture.

Three views: per-cell histograms of posterior membership probabilities (a
well-identified fit piles mass at 0 and 1), predicted-versus-observed
marginal means and institutionalization rates, and the per-start solution
trace showing how close the competing mappings came to the winner. All
outputs are plot-ready series; rendering is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .densities import Family, tobit_mean
from .em import FitResult, e_step

HIST_BINS = 20


@dataclass(frozen=True, eq=False)
class CellHistogram:
    """Distribution of one cell's posterior probability for its designated
    stratum (the lowest-index compatible one), on 20 equal bins of [0, 1]."""

    t: int
    z: int
    stratum: tuple[int, int]
    edges: np.ndarray
    counts: np.ndarray

    @property
    def outer_mass(self) -> float:
        """Share of cases in the extreme bins [0, 0.05) and (0.95, 1]."""
        total = self.counts.sum()
        if total == 0:
            return float("nan")
        return float((self.counts[0] + self.counts[-1]) / total)


def posterior_histogram(fit: FitResult, dataset: Dataset) -> list[CellHistogram]:
    """Histogram series of fitted membership probabilities per observed cell."""
    posterior = e_step(fit.params, dataset)
    grid = fit.params.grid
    edges = np.linspace(0.0, 1.0, HIST_BINS + 1)
    out = []
    for cell in dataset.cells:
        target = int(cell.strata.min())
        counts, _ = np.histogram(posterior[cell.rows, target], bins=edges)
        out.append(
            CellHistogram(
                t=cell.t, z=cell.z, stratum=grid.strata[target], edges=edges,
                counts=counts,
            )
        )
    return out


@dataclass(frozen=True, eq=False)
class MarginalFitRow:
    arm: int
    quantity: str  # "mean_z{z}" or "prop_institutionalized"
    predicted: float
    observed: float


@dataclass(frozen=True, eq=False)
class MarginalFitTable:
    rows: tuple[MarginalFitRow, ...]
    excluded_arms: tuple[int, ...]


def _cell_predicted_mean(params, t: int, z: int) -> float:
    grid = params.grid
    compat = grid.compatible(t, z)
    p = params.probs[compat]
    total = p.sum()
    if total <= 0.0:
        return float("nan")
    table = params.location_table()
    if params.family is Family.TOBIT:
        comp_means = tobit_mean(table[compat, t], params.scales[t])
    else:
        comp_means = table[compat, t]
    return float(p @ comp_means / total)


def marginal_fit_table(fit: FitResult, dataset: Dataset) -> MarginalFitTable:
    """Model-implied versus weighted observed cell means and the predicted
    versus observed share institutionalized, per arm.

    The predicted share for arm t is the fitted total probability of strata
    with a nonzero level on that arm's coordinate. Arms with zero total
    weight are dropped and flagged.
    """
    params = fit.params
    grid = params.grid
    k = grid.k_levels
    rows = []
    excluded = []
    for t in (0, 1):
        arm = dataset.t == t
        if float(dataset.w[arm].sum()) <= 0.0:
            excluded.append(t)
            continue
        for cell in dataset.cells:
            if cell.t != t:
                continue
            wsum = float(cell.w.sum())
            observed = float(cell.w @ cell.y / wsum) if wsum > 0 else float("nan")
            rows.append(
                MarginalFitRow(
                    arm=t,
                    quantity=f"mean_z{cell.z}",
                    predicted=_cell_predicted_mean(params, t, cell.z),
                    observed=observed,
                )
            )
        # share with any institutionalization on this arm's own coordinate
        marg = np.zeros(k)
        for s, (z0, z1) in enumerate(grid.strata):
            marg[z1 if t == 1 else z0] += params.probs[s]
        pred_inst = float(1.0 - marg[0])
        wsum = float(dataset.w[arm].sum())
        obs_inst = float(dataset.w[arm] @ (dataset.z[arm] > 0) / wsum)
        rows.append(
            MarginalFitRow(
                arm=t,
                quantity="prop_institutionalized",
                predicted=pred_inst,
                observed=obs_inst,
            )
        )
    return MarginalFitTable(rows=tuple(rows), excluded_arms=tuple(excluded))


def solution_trace_table(fit: FitResult) -> list[dict]:
    """Per-start table: percent increase of the negative log-likelihood over
    the best start, every estimated location, and convergence bookkeeping.

    ``stop_reason`` says why each start stopped (see ``StartRecord``). A
    start that fell far behind the leader stopped there as ``"pruned"``: its
    log-likelihood is a lower bound on where it would have ended, and its
    locations are where it stood."""
    nll = np.array([-r.loglik for r in fit.trace])
    best = nll.min()
    denom = max(abs(best), 1e-300)
    strata = fit.params.grid.strata
    rows = []
    for rec, v in zip(fit.trace, nll):
        row = {
            "mapping_id": rec.mapping_id,
            "pct_nll_increase": 100.0 * (v - best) / denom,
            "loglik": rec.loglik,
            "iterations": rec.iterations,
            "converged": rec.converged,
            "stop_reason": rec.stop_reason,
            "tied": rec.mapping_id in fit.tie_ids,
        }
        table = rec.params.location_table()
        for s, (z0, z1) in enumerate(strata):
            for t in (0, 1):
                row[f"loc_z0{z0}_z1{z1}_t{t}"] = float(table[s, t])
        rows.append(row)
    return rows
