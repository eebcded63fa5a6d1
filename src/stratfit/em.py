"""Weighted mixture likelihood for the strata model and its EM maximizer.

Each observed (arm, institutionalization) cell mixes the strata that share
the observed coordinate, so which fitted component belongs to which stratum
is not identified by a single EM run. Fitting therefore proceeds in three
stages: per-cell warm starts (a plain univariate normal-mixture EM), an
exhaustive enumeration of the component-to-stratum assignments those warm
starts admit (16 in the four-strata model), and a full EM run from every
assignment, keeping the solution with the highest weighted log-likelihood.

Every mixture evaluation (the log-likelihood, the per-case terms, the
E-step and the EM loop) runs through one kernel over the dataset's cell
partition, :attr:`Dataset.cells`.

With three levels there are (3!)^6 = 46,656 assignments, so ``topk`` and
``spread`` rank them by their initial log-likelihood first. Under the
saturated structure ranking is one batched pass over blocks of mapping ids:
its cost is about one logarithm per case and mapping, and its working set
does not grow with the mapping count (see ``_RANK_BLOCK``). Under the
linear structure each mapping is still materialized and evaluated on its
own.

Fitting is deterministic: warm starts initialize from weighted quantile
splits and no stage consumes random numbers. Starts run one after another
in the calling thread; the per-iteration work is numpy on small arrays, which
a thread pool did not speed up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Cell,
    Dataset,
    MeanStructure,
    ModelParams,
    StrataGrid,
    cell_order,
    linear_design,
)
from .densities import Family, component_logpdf, norm_logcdf, norm_logpdf
from .errors import (
    ConvergenceError,
    DataError,
    DegenerateMixtureError,
    EstimationError,
    WarmStartError,
)

LOGLIK_TIE_TOL = 1e-8
FROZEN_WEIGHT_TOL = 1e-8
_LOG_2PI = math.log(2.0 * math.pi)


def _check_inputs(params: ModelParams, dataset: Dataset) -> None:
    if params.grid.k_levels != dataset.k_levels:
        raise DataError(
            f"dataset has {dataset.k_levels} levels but parameters use "
            f"{params.grid.k_levels}"
        )
    if params.family is Family.TOBIT and np.any(dataset.y < 0.0):
        raise DataError("negative outcome under censored family")


# --------------------------------------------------------------------------
# likelihood and E-step
# --------------------------------------------------------------------------

def _log_probs(probs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(probs)


def _cell_logdens(cell: Cell, table, scales, family: Family) -> np.ndarray:
    locs = table[cell.strata, cell.t]
    scale = scales[cell.t]
    z = (cell.y[:, None] - locs) / scale
    ld = -0.5 * z * z - (0.5 * _LOG_2PI + math.log(scale))
    if family is Family.TOBIT and cell.zero.size:
        ld[cell.zero] = norm_logcdf(-locs / scale)
    return ld


def _mix(cell: Cell, logdens: np.ndarray, logprior: np.ndarray, want_post: bool = False):
    """The mixture kernel: one cell's per-case log mixture terms (a row-wise
    log-sum-exp) and, when asked, posteriors over its columns.

    ``logdens`` holds one row per case of the cell and one column per
    compatible stratum; ``logprior`` holds the columns' log-probabilities.
    A case whose every column is impossible raises with its dataset row.
    """
    lm = logdens + logprior
    pair = lm.shape[1] == 2
    top = np.logaddexp(lm[:, 0], lm[:, 1]) if pair else lm.max(axis=1)
    # the log-sum-exp of a row is finite exactly when its maximum is
    ok = np.isfinite(top)
    if not ok.all():
        raise DegenerateMixtureError(int(cell.rows[np.flatnonzero(~ok)[0]]))
    lse = top if pair else top + np.log(np.exp(lm - top[:, None]).sum(axis=1))
    return lse, (np.exp(lm - lse[:, None]) if want_post else None)


def _mixture(params: ModelParams, dataset: Dataset, want_post: bool):
    """(cell, log mixture terms, posterior or None) for each non-empty cell."""
    table = params.location_table()
    logp = _log_probs(params.probs)
    out = []
    for cell in dataset.cells:
        if cell.y.size:
            ld = _cell_logdens(cell, table, params.scales, params.family)
            out.append((cell, *_mix(cell, ld, logp[cell.strata], want_post)))
    return out


def _total(terms) -> float:
    """Weighted sum of the log mixture terms, accumulated cell by cell."""
    total = 0.0
    for cell, lse, _ in terms:
        total += float(cell.w @ lse)
    return total


def log_likelihood(params: ModelParams, dataset: Dataset) -> float:
    """Weighted observed-data log-likelihood.

    Each case contributes its weight times the log of the mixture over the
    strata compatible with its (arm, z) cell: a treated case sums over the
    unobserved control-side level, a control case over the treated side.
    """
    _check_inputs(params, dataset)
    return _total(_mixture(params, dataset, want_post=False))


def case_loglik(params: ModelParams, dataset: Dataset) -> np.ndarray:
    """Per-case unweighted log mixture terms, aligned with the dataset rows."""
    _check_inputs(params, dataset)
    out = np.zeros(dataset.n)
    for cell, lse, _ in _mixture(params, dataset, want_post=False):
        out[cell.rows] = lse
    return out


def e_step(params: ModelParams, dataset: Dataset) -> np.ndarray:
    """Posterior strata memberships, one row per case over all strata.

    Strata incompatible with a case's observed cell carry exactly zero;
    compatible entries are the normalized prior-times-density terms computed
    in log space with max subtraction.
    """
    _check_inputs(params, dataset)
    out = np.zeros((dataset.n, params.grid.n_strata))
    for cell, _, post in _mixture(params, dataset, want_post=True):
        out[np.ix_(cell.rows, cell.strata)] = post
    return out


# --------------------------------------------------------------------------
# M-step
# --------------------------------------------------------------------------

@dataclass(eq=False)
class _Stats:
    """Posterior-weighted sufficient statistics, indexed [arm, stratum]."""

    m: np.ndarray
    b: np.ndarray
    s2: np.ndarray
    mpos: np.ndarray | None = None
    s1p: np.ndarray | None = None
    s2p: np.ndarray | None = None


def _accumulate(pairs, family: Family, n_strata: int) -> _Stats:
    """Sufficient statistics from (cell, posterior) pairs of non-empty cells."""
    m = np.zeros((2, n_strata))
    b = np.zeros((2, n_strata))
    s2 = np.zeros((2, n_strata))
    tobit = family is Family.TOBIT
    mpos = np.zeros((2, n_strata)) if tobit else None
    s1p = np.zeros((2, n_strata)) if tobit else None
    s2p = np.zeros((2, n_strata)) if tobit else None
    for cell, post in pairs:
        wp = cell.w[:, None] * post
        m[cell.t, cell.strata] += wp.sum(axis=0)
        if tobit:
            wpp = wp[cell.pos]
            mpos[cell.t, cell.strata] += wpp.sum(axis=0)
            s1p[cell.t, cell.strata] += wpp.T @ cell.y[cell.pos]
            s2p[cell.t, cell.strata] += wpp.T @ cell.y2[cell.pos]
        else:
            b[cell.t, cell.strata] += wp.T @ cell.y
            s2[cell.t, cell.strata] += wp.T @ cell.y2
    return _Stats(m=m, b=b, s2=s2, mpos=mpos, s1p=s1p, s2p=s2p)


def _design(grid: StrataGrid, mean_structure: MeanStructure) -> np.ndarray:
    if mean_structure is MeanStructure.LINEAR:
        return linear_design(grid)
    return np.eye(grid.n_strata)


def _solve_wls(design: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = design.T @ (m[:, None] * design)
    rhs = design.T @ b
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, rhs, rcond=None)[0]


def _inverse_mills(a: np.ndarray) -> np.ndarray:
    """phi(a)/Phi(a), stable for very negative a."""
    return np.exp(norm_logpdf(a) - norm_logcdf(a))


def _tobit_newton(design, mpos, s1, s2, mzero, gamma0, delta0):
    """Maximize the aggregated weighted tobit log-likelihood.

    Works in the (gamma, delta) = (location/scale, 1/scale) parameterization,
    in which the censored-normal log-likelihood is globally concave, so a
    damped Newton with step halving converges to the unique maximum. Returns
    (beta, delta) with locations = design @ beta / delta.
    """
    q = design.shape[1]
    beta = np.linalg.lstsq(design, gamma0, rcond=None)[0]
    delta = float(delta0)
    s2_tot = float(s2.sum())
    mpos_tot = float(mpos.sum())

    def objective(beta_v, delta_v):
        g = design @ beta_v
        val = mpos_tot * (math.log(delta_v) - 0.5 * _LOG_2PI)
        val -= 0.5 * (delta_v * delta_v * s2_tot - 2.0 * delta_v * (g @ s1) + (g * g) @ mpos)
        active = mzero > 0.0
        if active.any():
            val += float(mzero[active] @ norm_logcdf(-g[active]))
        return float(val)

    obj = objective(beta, delta)
    for _ in range(100):
        g = design @ beta
        lam = _inverse_mills(-g)
        grad_g = delta * s1 - g * mpos - mzero * lam
        grad_d = mpos_tot / delta - delta * s2_tot + g @ s1
        h_gg = -(mpos + mzero * lam * (lam - g))
        grad = np.concatenate([design.T @ grad_g, [grad_d]])
        if np.max(np.abs(grad)) < 1e-9 * max(1.0, abs(obj)):
            break
        hess = np.empty((q + 1, q + 1))
        hess[:q, :q] = design.T @ (h_gg[:, None] * design)
        hess[:q, q] = hess[q, :q] = design.T @ s1
        hess[q, q] = -mpos_tot / delta**2 - s2_tot
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        size = 1.0
        improved = False
        while size > 1e-16:
            beta_n = beta + size * step[:q]
            delta_n = delta + size * step[q]
            if delta_n > 0.0:
                obj_n = objective(beta_n, delta_n)
                if obj_n > obj:
                    beta, delta, obj = beta_n, delta_n, obj_n
                    improved = True
                    break
            size *= 0.5
        if not improved:
            break
    return beta, delta


def m_step(
    posterior: np.ndarray,
    dataset: Dataset,
    family: Family,
    mean_structure: MeanStructure = MeanStructure.SATURATED,
    prev: ModelParams | None = None,
    scale_floor: tuple[float, float] = (0.0, 0.0),
) -> ModelParams:
    """One maximization step given posterior strata memberships.

    Strata probabilities pool both arms; locations and the per-arm scale
    maximize the posterior-weighted component log-likelihood (closed form
    for the normal family, an inner concave Newton for tobit). A stratum
    whose arm-level posterior weight falls below 1e-8 keeps its previous
    location, which requires ``prev``.
    """
    grid = StrataGrid(dataset.k_levels)
    if posterior.shape != (dataset.n, grid.n_strata):
        raise ValueError(
            f"posterior shape {posterior.shape} does not match the dataset's "
            f"{dataset.n} cases over {grid.n_strata} strata"
        )
    pairs = [
        (cell, posterior[np.ix_(cell.rows, cell.strata)])
        for cell in dataset.cells if cell.y.size
    ]
    stats = _accumulate(pairs, family, grid.n_strata)
    params, _, _ = _m_step_core(stats, grid, family, mean_structure, prev, scale_floor)
    return params


def _m_step_core(stats: _Stats, grid, family, mean_structure, prev, scale_floor):
    design = _design(grid, mean_structure)
    q = design.shape[1]
    w_total = float(stats.m.sum())
    if w_total <= 0.0:
        raise DataError("all case weights are zero")
    probs = stats.m.sum(axis=0) / w_total

    prev_table = prev.location_table() if prev is not None else None
    coef = np.empty((q, 2))
    scales = np.empty(2)
    frozen: list[tuple[int, int]] = []
    floor_active = [False, False]

    for t in (0, 1):
        m = stats.m[t]
        arm_w = float(m.sum())
        if arm_w <= 0.0:
            raise DataError(f"empty arm {t}")
        dead = m < FROZEN_WEIGHT_TOL
        freeze = bool(dead.any()) and mean_structure is MeanStructure.SATURATED
        if freeze:
            if prev_table is None:
                raise EstimationError(
                    f"strata {np.flatnonzero(dead).tolist()} lost all posterior "
                    f"weight in arm {t} and no previous parameters were given"
                )
            frozen += [(int(s), t) for s in np.flatnonzero(dead)]

        if family is Family.NORMAL:
            b = stats.b[t]
            if mean_structure is MeanStructure.SATURATED:
                loc = b / np.where(dead, 1.0, m)
                if freeze:
                    loc[dead] = prev_table[dead, t]
                coef_t = loc
            else:
                coef_t = _solve_wls(design, m, b)
                loc = design @ coef_t
            rss = float(stats.s2[t].sum() - 2.0 * loc @ b + (loc * loc) @ m)
            scale = math.sqrt(max(rss, 0.0) / arm_w)
        else:
            mpos, s1, s2 = stats.mpos[t], stats.s1p[t], stats.s2p[t]
            mzero = m - mpos
            if prev is not None:
                prev_scale = float(prev.scales[t])
                gamma0 = prev_table[:, t] / prev_scale
            else:
                prev_scale = max(math.sqrt(float(s2.sum()) / max(arm_w, 1e-300)), 1e-6)
                gamma0 = np.where(mpos > 0, s1 / np.maximum(mpos, 1e-300), 0.0) / prev_scale
            if freeze:
                live = np.flatnonzero(~dead)
                beta_live, delta = _tobit_newton(
                    np.eye(live.size), mpos[live], s1[live], s2[live],
                    mzero[live], gamma0[live], 1.0 / prev_scale,
                )
                loc = prev_table[:, t].copy()
                loc[live] = beta_live / delta
                coef_t = loc
            else:
                beta, delta = _tobit_newton(
                    design, mpos, s1, s2, mzero, gamma0, 1.0 / prev_scale
                )
                coef_t = beta / delta
            scale = 1.0 / delta

        if scale < scale_floor[t]:
            scale = scale_floor[t]
            floor_active[t] = True
        if scale <= 0.0:
            scale = max(scale_floor[t], 1e-12)
        coef[:, t] = coef_t
        scales[t] = scale

    params = ModelParams(
        grid=grid,
        probs=probs / probs.sum(),
        locations=coef,
        scales=scales,
        family=family,
        mean_structure=mean_structure,
    )
    return params, tuple(frozen), tuple(floor_active)


# --------------------------------------------------------------------------
# warm starts
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CellStart:
    """Per-cell preliminary component estimates, sorted by mean ascending."""

    t: int
    z: int
    means: np.ndarray
    sds: np.ndarray
    props: np.ndarray
    weight: float
    degenerate: bool


def _weighted_sd(y: np.ndarray, w: np.ndarray) -> float:
    total = float(w.sum())
    if total <= 0.0:
        return 0.0
    mean = float(w @ y) / total
    return math.sqrt(max(float(w @ (y - mean) ** 2) / total, 0.0))


def _cell_mixture_em(y: np.ndarray, w: np.ndarray, k: int, max_iter: int = 300):
    """Unstructured k-component univariate normal mixture, weighted EM.

    Initialization splits the cell at weighted quantiles, so the procedure
    is fully deterministic. Returns means/sds/props sorted by mean.
    """
    order = np.argsort(y, kind="stable")
    ys = y[order]
    ws = w[order]
    total = float(ws.sum())
    overall_sd = _weighted_sd(ys, ws)
    if overall_sd == 0.0:
        val = float(ys[0])
        floor = max(1e-8, 1e-8 * abs(val))
        return (np.full(k, val), np.full(k, floor), np.full(k, 1.0 / k), True)

    mid = np.cumsum(ws) - 0.5 * ws
    block = np.minimum((mid / total * k).astype(int), k - 1)
    means = np.empty(k)
    sds = np.empty(k)
    props = np.empty(k)
    for j in range(k):
        sel = block == j
        bw = float(ws[sel].sum())
        if bw > 0.0:
            means[j] = float(ws[sel] @ ys[sel]) / bw
            sds[j] = _weighted_sd(ys[sel], ws[sel])
            props[j] = bw / total
        else:
            means[j] = float(np.quantile(ys, (j + 0.5) / k))
            sds[j] = overall_sd
            props[j] = 1.0 / (10.0 * k)
    props /= props.sum()
    sd_floor = 1e-6 * overall_sd
    sds = np.maximum(sds, sd_floor)

    ll_prev = None
    for _ in range(max_iter):
        with np.errstate(divide="ignore"):
            lm = (
                np.log(props)
                - np.log(sds)
                - 0.5 * _LOG_2PI
                - 0.5 * ((ys[:, None] - means) / sds) ** 2
            )
        m = lm.max(axis=1)
        shifted = np.exp(lm - m[:, None])
        ssum = shifted.sum(axis=1)
        ll = float(ws @ (m + np.log(ssum)))
        resp = shifted / ssum[:, None]
        wr = ws[:, None] * resp
        comp_w = wr.sum(axis=0)
        live = comp_w > 1e-12
        props = np.maximum(comp_w / total, 1e-300)
        props /= props.sum()
        means = np.where(live, (wr * ys[:, None]).sum(axis=0) / np.maximum(comp_w, 1e-300), means)
        var = (wr * (ys[:, None] - means) ** 2).sum(axis=0) / np.maximum(comp_w, 1e-300)
        sds = np.where(live, np.maximum(np.sqrt(var), sd_floor), sds)
        if ll_prev is not None and abs(ll - ll_prev) <= 1e-8 * max(1.0, abs(ll)):
            break
        ll_prev = ll

    order = np.argsort(means, kind="stable")
    means, sds, props = means[order], sds[order], props[order]
    degenerate = (means[-1] - means[0]) <= 1e-6 * max(1.0, abs(means).max(), overall_sd)
    return means, sds, props, bool(degenerate)


def warm_start_cells(dataset: Dataset, family: Family) -> dict[tuple[int, int], CellStart]:
    """Preliminary per-cell mixtures seeding the starting-value enumeration.

    Every (arm, z) cell gets an unstructured k-component normal mixture; under
    the tobit family the mixture is fit on the positive outcomes only (the
    censored share is absorbed once the full EM runs).
    """
    k = dataset.k_levels
    out = {}
    for cell in dataset.cells:
        t, z = cell.t, cell.z
        live = cell.w > 0.0
        weight = float(cell.w[live].sum())
        if family is Family.TOBIT:
            live &= cell.y > 0.0
        y, w = cell.y[live], cell.w[live]
        if len(y) < k:
            raise WarmStartError(
                f"cell too small for warm start: t={t}, z={z} has {len(y)} usable "
                f"cases but needs at least {k}"
            )
        means, sds, props, degenerate = _cell_mixture_em(y, w, k)
        out[(t, z)] = CellStart(t, z, means, sds, props, weight, degenerate)
    return out


# --------------------------------------------------------------------------
# starting mappings
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StartingMapping:
    """One assignment of warm-start components to compatible strata.

    ``assignment`` holds, per cell in canonical order, a permutation p such
    that the cell's j-th component (means ascending) initializes the
    compatible stratum whose free coordinate is p[j]; id 0 is the identity
    everywhere. ``params`` is the implied initial parameter set.
    """

    mapping_id: int
    assignment: tuple[tuple[int, ...], ...]
    params: ModelParams


def n_mappings(k_levels: int) -> int:
    return math.factorial(k_levels) ** (2 * k_levels)


def _perm_table(k_levels: int) -> np.ndarray:
    """Every permutation of range(k_levels), one per row, in itertools order."""
    return np.array(list(itertools.permutations(range(k_levels))))


def _digits(ids: np.ndarray, k_levels: int) -> np.ndarray:
    """Per-cell permutation indices of each mapping id, cells in canonical
    order: the id's base-k! digits, most significant first."""
    base = math.factorial(k_levels)
    powers = base ** np.arange(2 * k_levels - 1, -1, -1, dtype=np.int64)
    return (np.asarray(ids, dtype=np.int64)[:, None] // powers) % base


def _combo_from_id(mapping_id: int, k_levels: int) -> tuple[tuple[int, ...], ...]:
    perms = _perm_table(k_levels)[_digits([mapping_id], k_levels)[0]]
    return tuple(map(tuple, perms.tolist()))


def _pooled_scales(warm, k_levels: int, floor: tuple[float, float]) -> np.ndarray:
    scales = np.empty(2)
    for t in (0, 1):
        num = 0.0
        den = 0.0
        for z in range(k_levels):
            cs = warm[(t, z)]
            num += cs.weight * float(cs.props @ (cs.sds**2))
            den += cs.weight
        scales[t] = max(math.sqrt(num / den) if den > 0 else 0.0, floor[t], 1e-12)
    return scales


def _initial_probs(warm, assign: np.ndarray, grid: StrataGrid) -> np.ndarray:
    """Joint strata probabilities reconciling the two arms' warm starts, for
    a batch of mappings.

    ``assign`` has shape (B, 2k, k): per mapping, the permutation of each
    cell in canonical order (see :class:`StartingMapping`). Each arm's cell
    shares and mapped mixing proportions imply a joint table; the two are
    averaged and then balanced by iterative proportional fitting so the z1
    margin matches the treated arm's cell shares and the z0 margin matches
    the control arm's. Returns (B, n_strata); a mapping's row does not
    depend on the rest of the batch.
    """
    k = grid.k_levels
    b = len(assign)
    share = {}
    for t in (0, 1):
        v = np.array([warm[(t, z)].weight for z in range(k)])
        share[t] = v / v.sum()
    q1 = np.zeros((b, k, k))  # indexed [mapping, z0, z1]
    q0 = np.zeros((b, k, k))
    rows = np.arange(b)[:, None]
    for c, (t, z) in enumerate(cell_order(k)):
        mass = share[t][z] * warm[(t, z)].props
        if t == 1:
            q1[rows, assign[:, c], z] = mass
        else:
            q0[rows, z, assign[:, c]] = mass
    table = np.maximum(0.5 * (q1 + q0), 1e-12)
    for _ in range(50):
        table *= (share[1] / table.sum(axis=1))[:, None, :]
        table *= (share[0] / table.sum(axis=2))[:, :, None]
    table /= table.reshape(b, -1).sum(axis=1)[:, None, None]
    return table.transpose(0, 2, 1).reshape(b, -1)  # z1-major rows match the grid order


def _materialize(mapping_id, combo, warm, grid, family, mean_structure, scales):
    k = grid.k_levels
    table = np.zeros((grid.n_strata, 2))
    for (t, z), perm in zip(cell_order(k), combo):
        cs = warm[(t, z)]
        strata = grid.compatible(t, z)
        for j in range(k):
            table[strata[perm[j]], t] = cs.means[j]
    if mean_structure is MeanStructure.LINEAR:
        locations = np.linalg.lstsq(linear_design(grid), table, rcond=None)[0]
    else:
        locations = table
    params = ModelParams(
        grid=grid,
        probs=_initial_probs(warm, np.array([combo]), grid)[0],
        locations=locations,
        scales=scales,
        family=family,
        mean_structure=mean_structure,
    )
    return StartingMapping(mapping_id, combo, params)


def enumerate_mappings(
    warm,
    grid: StrataGrid,
    family: Family,
    mean_structure: MeanStructure = MeanStructure.SATURATED,
    scale_floor: tuple[float, float] = (0.0, 0.0),
):
    """Yield every component-to-stratum assignment as a StartingMapping.

    The four-strata model has exactly 2^4 = 16; with three levels the space
    is (3!)^6 = 216 per arm squared, so mappings materialize lazily.
    """
    scales = _pooled_scales(warm, grid.k_levels, scale_floor)
    perms = list(itertools.permutations(range(grid.k_levels)))
    for i, combo in enumerate(itertools.product(perms, repeat=2 * grid.k_levels)):
        yield _materialize(i, combo, warm, grid, family, mean_structure, scales)


# The largest (cases x mappings) array start ranking builds, and the number
# of strata-probability entries per block of mappings: 2^15 float64, 256 KiB.
_RANK_BLOCK = 1 << 15


def _initial_logliks(dataset, warm, grid, family, mean_structure, scales):
    """Initial-parameter log-likelihood of every mapping, without running EM.

    Under the saturated structure a cell's component density columns do not
    depend on the mapping, so each cell's row maxima ``top`` and scaled
    densities ``E = exp(ld - top)`` are computed once; a mapping with cell
    priors ``p`` then contributes ``w @ top + w @ log(E @ p)``. Mappings are
    ranked in blocks: the block's strata probabilities come from one batched
    IPF, and the ``E @ p`` products are formed at most ``_RANK_BLOCK``
    entries at a time (or one mapping at a time for a larger cell), so the
    working set does not grow with the mapping count. Under the linear
    structure the projection shifts the columns, so that path still
    materializes and evaluates each mapping.
    """
    k = grid.k_levels
    total = n_mappings(k)
    if mean_structure is MeanStructure.LINEAR:
        lls = np.empty(total)
        for i in range(total):
            sm = _materialize(i, _combo_from_id(i, k), warm, grid, family,
                              mean_structure, scales)
            lls[i] = log_likelihood(sm.params, dataset)
        return lls
    terms = []
    for c, cell in enumerate(dataset.cells):
        if cell.y.size:
            cs = warm[(cell.t, cell.z)]
            ld = component_logpdf(cell.y[:, None], cs.means, scales[cell.t], family)
            top = ld.max(axis=1)
            bad = ~np.isfinite(top)
            if bad.any():
                raise DegenerateMixtureError(int(cell.rows[np.flatnonzero(bad)[0]]))
            # the row maximum's column has E == 1, so E @ p > 0
            terms.append((c, cell, np.exp(ld - top[:, None]), float(cell.w @ top)))
    perms = _perm_table(k)
    lls = np.zeros(total)
    block = _RANK_BLOCK // grid.n_strata
    for lo in range(0, total, block):
        digits = _digits(np.arange(lo, min(lo + block, total)), k)
        probs = _initial_probs(warm, perms[digits], grid)
        out = lls[lo:lo + len(digits)]
        for c, cell, dens, base in terms:
            prior = np.take_along_axis(probs, cell.strata[perms[digits[:, c]]], axis=1)
            step = max(1, _RANK_BLOCK // cell.y.size)
            for s in range(0, len(prior), step):
                out[s:s + step] += base + cell.w @ np.log(dens @ prior[s:s + step].T)
    return lls


def _farthest_points(lls: np.ndarray, count: int) -> list[int]:
    """Farthest-point selection on the values: the highest first, then
    repeatedly the id farthest from every id chosen so far, lowest id on
    ties."""
    picks = [int(np.argmax(lls))]
    gap = np.abs(lls - lls[picks[0]])
    gap[picks[0]] = -np.inf
    while len(picks) < count:
        pick = int(np.argmax(gap))
        picks.append(pick)
        np.minimum(gap, np.abs(lls - lls[pick]), out=gap)
        gap[pick] = -np.inf
    return sorted(picks)


def select_starts(
    dataset: Dataset,
    warm,
    grid: StrataGrid,
    family: Family,
    mean_structure: MeanStructure,
    strategy: tuple[str, int],
    scale_floor: tuple[float, float] = (0.0, 0.0),
) -> list[StartingMapping]:
    """Rank all mappings by their initial log-likelihood and keep a subset.

    ``("topk", n)`` keeps the n highest initial values; ``("spread", n)``
    keeps n mappings by farthest-point selection on the initial values, so
    the retained starts cover the spread of the likelihood surface. Ties go
    to the lower mapping id. If n is at least the mapping count, everything
    is returned without ranking. Ranking costs one batched pass over all
    mappings under the saturated structure and one likelihood evaluation
    per mapping under the linear one (see :func:`_initial_logliks`).
    """
    kind, count = strategy
    scales = _pooled_scales(warm, grid.k_levels, scale_floor)
    total = n_mappings(grid.k_levels)
    if count >= total:
        chosen = list(range(total))
    else:
        lls = _initial_logliks(dataset, warm, grid, family, mean_structure, scales)
        if kind == "topk":
            chosen = np.sort(np.argsort(-lls, kind="stable")[:count]).tolist()
        elif kind == "spread":
            chosen = _farthest_points(lls, count)
        else:
            raise ValueError(f"unknown start-selection strategy: {kind!r}")
    return [
        _materialize(i, _combo_from_id(i, grid.k_levels), warm, grid, family,
                     mean_structure, scales)
        for i in chosen
    ]


# --------------------------------------------------------------------------
# EM driver
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FitConfig:
    """Convergence and start-selection knobs for :func:`fit`.

    ``tol`` is the relative log-likelihood change at which a start stops,
    ``max_iter`` caps the EM iterations of each start, ``starts`` is
    ``"all"`` or a ``(kind, n)`` selection (see :func:`parse_starts`), and
    ``keep_history`` records every iteration's log-likelihood in the trace.
    """

    tol: float = 1e-9
    max_iter: int = 2000
    starts: str | tuple[str, int] = "all"
    keep_history: bool = False


def parse_starts(text: str) -> str | tuple[str, int]:
    """Parse a --starts argument: 'all', 'topk:N' or 'spread:N'."""
    if text == "all":
        return "all"
    kind, _, num = text.partition(":")
    if kind in ("topk", "spread") and num.isdigit() and int(num) > 0:
        return (kind, int(num))
    raise ValueError(f"invalid starts specification: {text!r}")


@dataclass(frozen=True, eq=False)
class StartRecord:
    """Outcome of one EM run: where it started and where it ended."""

    mapping_id: int
    loglik: float
    params: ModelParams
    iterations: int
    converged: bool
    floor_active: tuple[bool, bool]
    frozen: tuple[tuple[int, int], ...]
    history: tuple[float, ...] = ()


@dataclass(frozen=True, eq=False)
class FitResult:
    """Best solution across all starting mappings, with the full trace."""

    params: ModelParams
    loglik: float
    posterior: np.ndarray
    mapping_id: int
    iterations: int
    converged: bool
    trace: tuple[StartRecord, ...]
    tie_ids: tuple[int, ...]
    scale_floor: tuple[float, float]
    floor_active: tuple[bool, bool]
    frozen: tuple[tuple[int, int], ...]

    @property
    def tied(self) -> bool:
        return len(self.tie_ids) > 1


def _run_em(dataset, start: StartingMapping, family, mean_structure, tol,
            max_iter, scale_floor, keep_history) -> StartRecord:
    n_strata = dataset.k_levels**2
    params = start.params
    ll_prev = None
    history: list[float] = []
    frozen: tuple[tuple[int, int], ...] = ()
    floor: tuple[bool, bool] = (False, False)
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        terms = _mixture(params, dataset, want_post=True)
        ll = _total(terms)
        if keep_history:
            history.append(ll)
        if ll_prev is not None and abs(ll - ll_prev) <= tol * max(1.0, abs(ll)):
            converged = True
            break
        stats = _accumulate([(c, post) for c, _, post in terms], family, n_strata)
        params, frozen, floor = _m_step_core(
            stats, params.grid, family, mean_structure, params, scale_floor
        )
        ll_prev = ll
    else:
        ll = _total(_mixture(params, dataset, want_post=False))
        if keep_history:
            history.append(ll)
    return StartRecord(
        mapping_id=start.mapping_id,
        loglik=ll,
        params=params,
        iterations=iterations,
        converged=converged,
        floor_active=floor,
        frozen=frozen,
        history=tuple(history),
    )


def fit(
    dataset: Dataset,
    family: Family = Family.NORMAL,
    mean_structure: MeanStructure = MeanStructure.SATURATED,
    config: FitConfig | None = None,
) -> FitResult:
    """Maximize the weighted mixture likelihood over all starting mappings.

    Runs EM from every enumerated (or selected) component-to-stratum
    assignment and returns the best final log-likelihood, with the complete
    per-start trace. Ties within 1e-8 go to the lowest mapping id and are
    recorded. Raises ConvergenceError (carrying the trace) if no start
    converges, DataError on empty cells.
    """
    config = config or FitConfig()
    grid = StrataGrid(dataset.k_levels)
    if family is Family.TOBIT and np.any(dataset.y < 0.0):
        raise DataError("negative outcome under censored family")
    empty = dataset.empty_cells()
    if empty:
        raise DataError(
            f"empty (t, z) cells {empty}: every arm/level cell needs at least "
            "one positive-weight case"
        )
    scale_floor = tuple(
        1e-3 * _weighted_sd(dataset.y[dataset.t == t], dataset.w[dataset.t == t])
        for t in (0, 1)
    )
    warm = warm_start_cells(dataset, family)
    if config.starts == "all":
        starts = list(enumerate_mappings(warm, grid, family, mean_structure, scale_floor))
    else:
        starts = select_starts(
            dataset, warm, grid, family, mean_structure, config.starts, scale_floor
        )
    records = [
        _run_em(dataset, s, family, mean_structure, config.tol, config.max_iter,
                scale_floor, config.keep_history)
        for s in starts
    ]
    if not any(r.converged for r in records):
        raise ConvergenceError(
            f"no starting mapping converged within {config.max_iter} iterations",
            trace=records,
        )
    best_ll = max(r.loglik for r in records)
    tied = sorted(
        r.mapping_id for r in records if best_ll - r.loglik <= LOGLIK_TIE_TOL
    )
    winner = next(r for r in records if r.mapping_id == tied[0])
    posterior = e_step(winner.params, dataset)
    return FitResult(
        params=winner.params,
        loglik=winner.loglik,
        posterior=posterior,
        mapping_id=winner.mapping_id,
        iterations=winner.iterations,
        converged=winner.converged,
        trace=tuple(records),
        tie_ids=tuple(tied),
        scale_floor=scale_floor,
        floor_active=winner.floor_active,
        frozen=winner.frozen,
    )
