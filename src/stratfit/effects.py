"""Treatment effects on the diagonal strata and their standard errors.

Effects are differences of fitted component locations between arms within a
stratum; the diagonal strata (same institutionalization level under both
arms) are the primary estimand. Standard errors come from the numerically
differentiated weighted log-likelihood: the observed-information (naive)
variant inverts the negative Hessian, the cluster variant wraps it around a
Huber-White meat aggregated over cluster score sums. One finite-difference
code path serves both families and mean structures.

Every finite-difference point is a row of a stack of packed vectors, taken
apart once by :func:`~stratfit.core.unpack_stack`; no point becomes a
:class:`~stratfit.core.ModelParams`. The Hessian's 2p^2 + 1 points run
through one :func:`~stratfit.em._evaluate` call, in which each cell runs only
the points that move its inputs. The sandwich's 2p points x +- e_j run as one
stack in which each cell runs once per distinct input, 2a + 1 rows for the a
coordinates that reach it, and its per-case scores are differences of those
rows (:func:`~stratfit.em._distinct_terms`). The delta method maps the same
2p-point stack at once (:func:`_num_jacobian`). Every value and difference
rounds exactly as when each point is unpacked and evaluated on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import em
from .core import Dataset, ModelParams, location_tables, pack, param_names, unpack_stack
from .densities import Family, tobit_mean
from .em import FitResult, case_loglik, log_likelihood
from .errors import InferenceError

__all__ = [
    "EffectTable", "ParamCovariance", "cluster_sandwich_se", "effect_ses", "effect_table",
    "natural_param_ses", "observed_information_se", "treatment_effects",
    # the benchmark's traced run wraps these two here by name; no SE calls them
    "case_loglik", "log_likelihood",
]

Z_5PCT = 1.959963984540054  # two-sided 5% normal quantile
HESS_STEP = 1e-5
JAC_STEP = 1e-6


@dataclass(frozen=True, eq=False)
class ParamCovariance:
    """Covariance of the packed parameter vector at the fitted optimum."""

    kind: str  # "observed_information" or "cluster_sandwich"
    names: tuple[str, ...]
    cov: np.ndarray
    hessian: np.ndarray
    n_clusters: int | None = None

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.cov), 0.0))


@dataclass(frozen=True, eq=False)
class EffectTable:
    """Per-stratum arm contrasts with optional naive and clustered SEs.

    ``effect`` is the latent-location difference (the component means under
    the normal family, the censored-normal locations under tobit); for tobit
    fits ``effect_observed`` adds the censored-mean difference on the
    observed outcome scale.
    """

    params: ModelParams
    effect: np.ndarray
    effect_observed: np.ndarray | None = None
    se_naive: np.ndarray | None = None
    se_cluster: np.ndarray | None = None
    se_naive_observed: np.ndarray | None = None
    se_cluster_observed: np.ndarray | None = None

    def rows(self) -> list[dict]:
        out = []
        for s, (z0, z1) in enumerate(self.params.grid.strata):
            row = {
                "z0": z0,
                "z1": z1,
                "diagonal": z0 == z1,
                "effect": float(self.effect[s]),
            }
            for label, arr in (
                ("se_naive", self.se_naive),
                ("se_cluster", self.se_cluster),
            ):
                se = None if arr is None else float(arr[s])
                row[label] = se
                row[label.replace("se", "significant")] = (
                    None if se is None else bool(abs(row["effect"]) > Z_5PCT * se)
                )
            if self.effect_observed is not None:
                row["effect_observed"] = float(self.effect_observed[s])
                for label, arr in (
                    ("se_naive_observed", self.se_naive_observed),
                    ("se_cluster_observed", self.se_cluster_observed),
                ):
                    row[label] = None if arr is None else float(arr[s])
            out.append(row)
        return out


def treatment_effects(fit: FitResult) -> EffectTable:
    """Arm-1 minus arm-0 location per stratum; adds the observed-scale
    (censored-mean) contrast under the tobit family."""
    params = fit.params
    natural = (params, params.probs, params.locations, params.scales)
    observed = _observed_effects(*natural) if params.family is Family.TOBIT else None
    return EffectTable(params=params, effect=_latent_effects(*natural), effect_observed=observed)


def _check_interior(fit: FitResult) -> None:
    if any(fit.floor_active):
        raise InferenceError(
            "not at an interior maximum: the scale floor is active in arm(s) "
            f"{[t for t in (0, 1) if fit.floor_active[t]]}"
        )
    pmin = float(fit.params.probs.min())
    if pmin < 1e-6:
        raise InferenceError(
            "not at an interior maximum: a stratum probability is within "
            f"1e-6 of the simplex boundary (min prob {pmin:.3g})"
        )


def _steps(x: np.ndarray, rel: float) -> np.ndarray:
    return rel * np.maximum(1.0, np.abs(x))


def _num_hessian(fun, x: np.ndarray) -> np.ndarray:
    """Central-difference Hessian from ``fun``, which maps a stack of points
    to their values. The 2p^2 + 1 points are x, then x + e_i, then x - e_i,
    then x + e_i + e_j, x + e_i - e_j, x - e_i + e_j and x - e_i - e_j over
    i < j; each point and difference rounds as when it is built and evaluated
    on its own. A cell reached by a coordinates runs only 2a^2 + 1 of them."""
    h = _steps(x, HESS_STEP)
    p = len(x)
    e = np.diag(h)
    i, j = np.triu_indices(p, 1)
    up, down = x + e, x - e
    points = np.concatenate(
        [x[None], up, down, up[i] + e[j], up[i] - e[j], down[i] + e[j], down[i] - e[j]]
    )
    vals = fun(points)
    f_pp, f_pm, f_mp, f_mm = vals[2 * p + 1:].reshape(4, -1)
    # squared one scalar at a time, by libm's pow as in earlier releases:
    # numpy squares an array exactly, which differs in the last place
    h2 = np.array([v**2 for v in h.tolist()])
    hess = np.diag((vals[1:p + 1] - 2.0 * vals[0] + vals[p + 1:2 * p + 1]) / h2)
    hess[i, j] = hess[j, i] = (f_pp - f_pm - f_mp + f_mm) / (4.0 * h[i] * h[j])
    return hess


def _central_points(x: np.ndarray, rel: float) -> tuple[np.ndarray, np.ndarray]:
    """The 2p points of a central difference at ``x`` with steps
    ``rel * max(1, |x_j|)``: x + e_j, then x - e_j; and the steps."""
    h = _steps(x, rel)
    e = np.diag(h)
    return np.concatenate([x + e, x - e]), h


def _num_jacobian(fun, x: np.ndarray, rel: float) -> np.ndarray:
    """Central-difference Jacobian (m, p) of ``fun`` at ``x``: ``fun`` maps
    the stack of :func:`_central_points` to its values (2p, m) at once."""
    points, h = _central_points(x, rel)
    vals = fun(points)
    p = len(x)
    return np.ascontiguousarray(((vals[:p] - vals[p:]) / (2.0 * h)[:, None]).T)


def observed_information_se(fit: FitResult, dataset: Dataset) -> ParamCovariance:
    """Naive MLE covariance: inverse negative numerical Hessian of the
    weighted log-likelihood at the packed optimum.

    Rejects boundary solutions (active scale floor, near-zero strata
    probabilities) and non-negative-definite Hessians.
    """
    _check_interior(fit)
    like = fit.params

    def packed_logliks(points):
        return em._evaluate(dataset, *em._packed_stack(points, like, dataset), like.family)

    hess = _num_hessian(packed_logliks, pack(like))
    hess = 0.5 * (hess + hess.T)
    eigs = np.linalg.eigvalsh(hess)
    if eigs.max() > 1e-8 * abs(eigs.min()):
        raise InferenceError(
            "not at an interior maximum: Hessian is not negative definite "
            f"(eigenvalues {np.array2string(eigs, precision=4)})"
        )
    bread = np.linalg.inv(-hess)
    return ParamCovariance(
        kind="observed_information",
        names=tuple(param_names(like, packed=True)),
        cov=0.5 * (bread + bread.T),
        hessian=hess,
    )


def _case_scores(like: ModelParams, dataset: Dataset) -> np.ndarray:
    """Per-case scores (n, p) of the unweighted log mixture terms: central
    differences over the 2p points of :func:`_central_points`, run as one
    stack in which each cell evaluates only its distinct inputs and writes
    the differences of the coordinates that move them into its rows; a
    coordinate that does not reach a cell leaves it the exact zeros of a
    difference of equal terms."""
    x = pack(like)
    p = len(x)
    points, h = _central_points(x, HESS_STEP)
    scores = np.zeros((dataset.n, p))
    stack = em._packed_stack(points, like, dataset)
    for cell, terms, inv in em._distinct_terms(dataset, *stack, like.family,
                                               lambda cell, lse: lse):
        up, down = inv[:p], inv[p:]
        for j in np.flatnonzero(up != down):
            scores[cell.rows, j] = (terms[up[j]] - terms[down[j]]) / (2.0 * h[j])
    return scores


def cluster_sandwich_se(
    fit: FitResult, dataset: Dataset, bread: ParamCovariance
) -> ParamCovariance:
    """Huber-White sandwich covariance with scores summed within clusters.

    meat = sum over clusters of the outer product of the cluster's weighted
    score sum, times the G/(G-1) small-sample factor; the bread is the naive
    covariance ``bread`` from :func:`observed_information_se`, whose Hessian
    the result carries. The per-case scores are :func:`_case_scores`.
    """
    _check_interior(fit)
    codes = dataset.cluster
    n_clusters = dataset.n_clusters
    if n_clusters < 2:
        raise InferenceError("clustered variance needs at least 2 clusters")
    like = fit.params
    scores = _case_scores(like, dataset)
    grouped = np.zeros((n_clusters, scores.shape[1]))
    np.add.at(grouped, codes, dataset.w[:, None] * scores)
    meat = grouped.T @ grouped * (n_clusters / (n_clusters - 1.0))
    cov = bread.cov @ meat @ bread.cov
    return ParamCovariance(
        kind="cluster_sandwich",
        names=tuple(param_names(like, packed=True)),
        cov=0.5 * (cov + cov.T),
        hessian=bread.hessian,
        n_clusters=n_clusters,
    )


# The delta method's maps: each takes ``like`` and natural parameters, one
# set or stacked over a leading axis as :func:`unpack_stack` gives them.

def _latent_effects(like: ModelParams, probs, locations, scales) -> np.ndarray:
    table = location_tables(locations, like)
    return table[..., 1] - table[..., 0]


def _observed_effects(like: ModelParams, probs, locations, scales) -> np.ndarray:
    table = location_tables(locations, like)
    return (tobit_mean(table[..., 1], scales[..., 1, None])
            - tobit_mean(table[..., 0], scales[..., 0, None]))


def _natural_params(like: ModelParams, probs, locations, scales) -> np.ndarray:
    return np.concatenate([probs, locations.reshape(*probs.shape[:-1], -1), scales], axis=-1)


def _delta_jacobian(like: ModelParams, fun) -> np.ndarray:
    """The Jacobian of the map ``fun`` in the packed coordinates at ``like``:
    the 2p points of :func:`_num_jacobian` are unpacked and mapped as one
    stack."""
    return _num_jacobian(lambda v: fun(like, *unpack_stack(v, like)), pack(like), JAC_STEP)


def _delta_se(fit: FitResult, cov: ParamCovariance, fun) -> np.ndarray:
    """Delta-method SEs of the map ``fun`` under ``cov`` (see
    :func:`_delta_jacobian`)."""
    jac = _delta_jacobian(fit.params, fun)
    return np.sqrt(np.maximum(np.diag(jac @ cov.cov @ jac.T), 0.0))


def effect_ses(fit: FitResult, cov: ParamCovariance):
    """Delta-method SEs of the per-stratum effects under ``cov``.

    Returns (latent SEs, observed-scale SEs or None).
    """
    se = _delta_se(fit, cov, _latent_effects)
    tobit = fit.params.family is Family.TOBIT
    return se, _delta_se(fit, cov, _observed_effects) if tobit else None


def natural_param_ses(fit: FitResult, cov: ParamCovariance) -> np.ndarray:
    """Delta-method SEs for the natural parameters (probs, locations, scales)
    in :func:`stratfit.core.param_names` reporting order."""
    return _delta_se(fit, cov, _natural_params)


def effect_table(
    fit: FitResult, dataset: Dataset
) -> tuple[EffectTable, ParamCovariance, ParamCovariance]:
    """Effects with both SE flavors attached: the naive and the cluster
    sandwich covariance, which reuses the naive one's Hessian."""
    cov_n = observed_information_se(fit, dataset)
    se_n, se_n_obs = effect_ses(fit, cov_n)
    cov_c = cluster_sandwich_se(fit, dataset, bread=cov_n)
    se_c, se_c_obs = effect_ses(fit, cov_c)
    table = replace(treatment_effects(fit), se_naive=se_n, se_naive_observed=se_n_obs,
                    se_cluster=se_c, se_cluster_observed=se_c_obs)
    return table, cov_n, cov_c
