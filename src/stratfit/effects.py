"""Treatment effects on the diagonal strata and their standard errors.

Effects are differences of fitted component locations between arms within a
stratum; the diagonal strata (same institutionalization level under both
arms) are the primary estimand. Standard errors come from the weighted
log-likelihood in the packed coordinates (:func:`~stratfit.core.pack`): the
observed-information (naive) variant inverts the negative Hessian, the
cluster variant wraps it around a Huber-White meat aggregated over cluster
score sums. Both families and both mean structures share each step.
:func:`effect_table` is the one sequence of these steps, for the library and
the CLI alike: a step that rejects the fit (``InferenceError`` or
``EstimationError``) ends it, and the table keeps what the earlier steps
formed, with the reason in ``EffectTable.se_error``.

Only the Hessian is a finite difference. Its 2p^2 + 1 points are rows of one
stack of packed vectors, evaluated by one
:func:`~stratfit.em._packed_logliks` call, in which each cell runs only the
points that move its inputs; every value and difference rounds exactly as
when each point is unpacked and evaluated on its own. The sandwich's
per-case scores are the posterior-weighted complete-data scores (Louis 1982,
JRSS-B 44:226), from one pass of the mixture kernel, and the delta method's
Jacobians are closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import em
from .core import Dataset, ModelParams, pack, param_names
from .densities import Family, norm_cdf, norm_logcdf, norm_logpdf, norm_pdf, tobit_mean
from .em import FitResult, case_loglik, log_likelihood
from .errors import EstimationError, InferenceError

__all__ = [
    "EffectTable", "ParamCovariance", "cluster_sandwich_se", "effect_ses", "effect_table",
    "natural_param_ses", "observed_information_se", "treatment_effects",
    # the benchmark's traced run wraps these two here by name; no SE calls them
    "case_loglik", "log_likelihood",
]

Z_5PCT = 1.959963984540054  # two-sided 5% normal quantile
HESS_STEP = 1e-5


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

    The SE fields are None where a step failed: all four when the naive
    covariance could not be formed, the two cluster fields when only the
    sandwich failed. ``se_error`` then holds the reason, and is None when
    every SE was formed.
    """

    params: ModelParams
    effect: np.ndarray
    effect_observed: np.ndarray | None = None
    se_naive: np.ndarray | None = None
    se_cluster: np.ndarray | None = None
    se_naive_observed: np.ndarray | None = None
    se_cluster_observed: np.ndarray | None = None
    se_error: str | None = None

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
    table, scales = params.location_table(), params.scales
    observed = None
    if params.family is Family.TOBIT:
        observed = tobit_mean(table[:, 1], scales[1]) - tobit_mean(table[:, 0], scales[0])
    return EffectTable(params=params, effect=table[:, 1] - table[:, 0], effect_observed=observed)


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


def _num_hessian(like: ModelParams, dataset: Dataset) -> np.ndarray:
    """Central-difference Hessian of the weighted log-likelihood at x, the
    packed vector of ``like``. The 2p^2 + 1 points are x, then x + e_i, then
    x - e_i, then x + e_i + e_j, x + e_i - e_j, x - e_i + e_j and x - e_i -
    e_j over i < j, evaluated as one stack by
    :func:`~stratfit.em._packed_logliks`; each point and difference rounds as
    when it is built and evaluated on its own. A cell reached by a
    coordinates runs only 2a^2 + 1 of them."""
    x = pack(like)
    h = HESS_STEP * np.maximum(1.0, np.abs(x))
    p = len(x)
    e = np.diag(h)
    i, j = np.triu_indices(p, 1)
    up, down = x + e, x - e
    points = np.concatenate(
        [x[None], up, down, up[i] + e[j], up[i] - e[j], down[i] + e[j], down[i] - e[j]]
    )
    vals = em._packed_logliks(points, like, dataset)
    f_pp, f_pm, f_mp, f_mm = vals[2 * p + 1:].reshape(4, -1)
    # squared one scalar at a time, by libm's pow as in earlier releases:
    # numpy squares an array exactly, which differs in the last place
    h2 = np.array([v**2 for v in h.tolist()])
    hess = np.diag((vals[1:p + 1] - 2.0 * vals[0] + vals[p + 1:2 * p + 1]) / h2)
    hess[i, j] = hess[j, i] = (f_pp - f_pm - f_mp + f_mm) / (4.0 * h[i] * h[j])
    return hess


def observed_information_se(fit: FitResult, dataset: Dataset) -> ParamCovariance:
    """Naive MLE covariance: inverse negative numerical Hessian of the
    weighted log-likelihood at the packed optimum.

    Rejects boundary solutions (active scale floor, near-zero strata
    probabilities) and Hessians that are not negative definite, singular,
    or so nearly flat that their inverse has a variance of 0 or below.
    """
    _check_interior(fit)
    like = fit.params
    hess = _num_hessian(like, dataset)
    hess = 0.5 * (hess + hess.T)
    eigs = np.linalg.eigvalsh(hess)
    report = f"(eigenvalues {np.array2string(eigs, precision=4)})"
    if eigs.max() > 1e-8 * abs(eigs.min()):
        raise InferenceError(
            f"not at an interior maximum: Hessian is not negative definite {report}"
        )
    try:
        bread = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:  # an exactly flat direction: a largest eigenvalue of 0
        raise InferenceError(f"Hessian is singular {report}") from None
    cov = 0.5 * (bread + bread.T)
    names = tuple(param_names(like, packed=True))
    worst = int(np.argmin(np.diag(cov)))
    if cov[worst, worst] <= 0.0:  # a nearly flat direction the eigenvalue test let through
        raise InferenceError(f"Hessian inverse gives {names[worst]} the variance "
                             f"{cov[worst, worst]:.4g} {report}")
    return ParamCovariance(
        kind="observed_information",
        names=names,
        cov=cov,
        hessian=hess,
    )


def _case_scores(like: ModelParams, dataset: Dataset) -> np.ndarray:
    """Per-case scores (n, p) of the unweighted log mixture terms: the
    posterior-weighted complete-data scores, from one pass of the mixture
    kernel. A logit takes post - probs; a location takes post * (y - mu) /
    sigma^2 through the design's rows, a log scale post * ((y - mu)^2 /
    sigma^2 - 1); a censored tobit zero takes -lambda / sigma and lambda *
    mu / sigma instead, lambda the inverse Mills ratio at -mu / sigma."""
    s = like.grid.n_strata
    design = em._design(like.grid, like.mean_structure)
    table, scales = like.location_table(), like.scales
    scores = np.zeros((dataset.n, len(pack(like))))
    for cell, _, post in em._mixture(dataset, *em._stack(like), like.family, True):
        post, mu, sigma = post[0], table[cell.strata, cell.t], scales[cell.t]
        resid = (cell.y[:, None] - mu) / sigma
        d_loc, d_scale = resid / sigma, resid * resid - 1.0
        if like.family is Family.TOBIT and cell.zero.size:
            a = -mu / sigma
            lam = np.exp(norm_logpdf(a) - norm_logcdf(a))
            d_loc[cell.zero], d_scale[cell.zero] = -lam / sigma, lam * mu / sigma
        out = np.zeros((cell.y.size, scores.shape[1]))
        out[:, :s - 1] = -like.probs[:-1]
        logit = cell.strata < s - 1
        out[:, cell.strata[logit]] += post[:, logit]
        out[:, s - 1 + cell.t:-2:2] = (post * d_loc) @ design[cell.strata]
        out[:, cell.t - 2] = (post * d_scale).sum(axis=1)
        scores[cell.rows] = out
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
    grouped = np.stack([np.bincount(codes, weights=dataset.w * col, minlength=n_clusters)
                        for col in scores.T], axis=1)
    meat = grouped.T @ grouped * (n_clusters / (n_clusters - 1.0))
    cov = bread.cov @ meat @ bread.cov
    return ParamCovariance(
        kind="cluster_sandwich",
        names=tuple(param_names(like, packed=True)),
        cov=0.5 * (cov + cov.T),
        hessian=bread.hessian,
        n_clusters=n_clusters,
    )


def _effect_jacobian(like: ModelParams, observed: bool) -> np.ndarray:
    """Jacobian (n_strata, p) of the arm-1 minus arm-0 effects in the packed
    coordinates: a latent effect moves with its design row, +1 for arm 1 and
    -1 for arm 0; an observed tobit mean (:func:`tobit_mean`) moves by
    Phi(mu/sigma) per location and sigma * phi(mu/sigma) per log scale."""
    s = like.grid.n_strata
    design = em._design(like.grid, like.mean_structure)
    table, scales = like.location_table(), like.scales
    jac = np.zeros((s, len(pack(like))))
    for t, sign in ((0, -1.0), (1, 1.0)):
        d_loc, d_scale = 1.0, 0.0
        if observed:
            a = table[:, t] / scales[t]
            d_loc, d_scale = norm_cdf(a)[:, None], scales[t] * norm_pdf(a)
        jac[:, s - 1 + t:-2:2] = sign * d_loc * design
        jac[:, t - 2] = sign * d_scale
    return jac


def _natural_jacobian(like: ModelParams) -> np.ndarray:
    """Jacobian of the natural parameters (probs, locations, scales) in the
    packed coordinates: diag(probs) - probs probs^T without its last column,
    the identity for the locations and diag(scales) for the log scales."""
    probs, n_loc = like.probs, like.locations.size
    s = len(probs)
    jac = np.zeros((s + n_loc + 2, s - 1 + n_loc + 2))
    jac[:s, :s - 1] = (np.diag(probs) - np.outer(probs, probs))[:, :-1]
    jac[s:s + n_loc, s - 1:s - 1 + n_loc] = np.eye(n_loc)
    jac[-2:, -2:] = np.diag(like.scales)
    return jac


def _delta_se(cov: ParamCovariance, jac: np.ndarray) -> np.ndarray:
    """Delta-method SEs of a map with Jacobian ``jac`` under ``cov``."""
    return np.sqrt(np.maximum(np.diag(jac @ cov.cov @ jac.T), 0.0))


def effect_ses(fit: FitResult, cov: ParamCovariance):
    """Delta-method SEs of the per-stratum effects under ``cov``.

    Returns (latent SEs, observed-scale SEs or None).
    """
    like = fit.params
    se = _delta_se(cov, _effect_jacobian(like, observed=False))
    tobit = like.family is Family.TOBIT
    return se, _delta_se(cov, _effect_jacobian(like, observed=True)) if tobit else None


def natural_param_ses(fit: FitResult, cov: ParamCovariance) -> np.ndarray:
    """Delta-method SEs for the natural parameters (probs, locations, scales)
    in :func:`stratfit.core.param_names` reporting order."""
    return _delta_se(cov, _natural_jacobian(fit.params))


def effect_table(
    fit: FitResult, dataset: Dataset
) -> tuple[EffectTable, ParamCovariance | None, ParamCovariance | None]:
    """Effects with both SE flavors attached: the naive and the cluster
    sandwich covariance, which reuses the naive one's Hessian.

    A step that rejects the fit with ``InferenceError`` or
    ``EstimationError`` is reported, not raised: the table's ``se_error``
    holds its message and the steps after it do not run. A failed naive step
    leaves no SEs and both covariances None; a failed sandwich keeps the
    naive SEs and ``cov_n`` and returns ``cov_c`` None.
    """
    table = treatment_effects(fit)
    cov_n = cov_c = None
    try:
        cov_n = observed_information_se(fit, dataset)
        se, se_obs = effect_ses(fit, cov_n)
        table = replace(table, se_naive=se, se_naive_observed=se_obs)
        cov_c = cluster_sandwich_se(fit, dataset, bread=cov_n)
        se, se_obs = effect_ses(fit, cov_c)
        table = replace(table, se_cluster=se, se_cluster_observed=se_obs)
    except (InferenceError, EstimationError) as exc:
        table = replace(table, se_error=str(exc))
    return table, cov_n, cov_c
