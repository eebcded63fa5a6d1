"""Independent scalar oracles used by the test suite.

Everything here except the EM loop oracles deliberately avoids the
package's own numerical paths: densities go through math.erf/erfc, sums are
plain Python loops over the mixture definition, and optima come from grid
refinement. The EM loop oracle runs one start at a time through the public
one-set functions, against which the batched EM loop is checked, the
start-set oracle builds one mapping's initial parameters on its own from
the grid's compatible strata and linear design, against which the stacked
start sets are checked, and the Hessian oracle evaluates one point at a
time, against which the stacked finite-difference Hessian is checked. The
per-case score oracle differentiates the likelihood by hand, case by case
and stratum by stratum, against which the sandwich's closed-form scores are
checked. The cell mixture EM oracle is the warm-start EM of one cell on its
own, one iteration at a time with the package's exact reductions, as it ran
before the cells ran in lockstep; ``warm_start_cells`` must reproduce it bit
for bit. The serial tobit Newton oracle tries one step fraction per
objective evaluation, as the M-step did before its line search stacked the
halvings; the stacked line search must reproduce it bit for bit.
"""

import itertools
import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def phi_oracle(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def density_oracle(y: float, loc: float, scale: float, family: str) -> float:
    if family == "tobit":
        if y == 0.0:
            return phi_oracle(-loc / scale)
        if y < 0.0:
            raise ValueError("negative outcome under censored family")
    return math.exp(-0.5 * ((y - loc) / scale) ** 2) / (scale * _SQRT_2PI)


def brute_force_loglik(params, dataset) -> float:
    """Direct evaluation of the observed-data mixture likelihood, case by
    case and stratum by stratum."""
    table = params.location_table()
    strata = params.grid.strata
    family = params.family.value
    total = 0.0
    for i in range(dataset.n):
        t = int(dataset.t[i])
        z = int(dataset.z[i])
        y = float(dataset.y[i])
        mix = 0.0
        for s, (z0, z1) in enumerate(strata):
            observed = z1 if t == 1 else z0
            if observed != z:
                continue
            mix += float(params.probs[s]) * density_oracle(
                y, float(table[s, t]), float(params.scales[t]), family
            )
        total += float(dataset.w[i]) * math.log(mix)
    return total


def case_score_oracle(params, dataset) -> np.ndarray:
    """Analytic per-case scores in packed coordinates, one row per case: the
    posterior-weighted complete-data score (Louis 1982, JRSS-B 44:226).

    Logits take ``post - probs``; a case's arm gets ``post * (y - mu) /
    sigma^2`` at its strata locations (through the linear design's rows
    (1, z1, z0, z1*z0) under the linear structure) and ``post * ((y - mu)^2 /
    sigma^2 - 1)`` at its log scale; a censored tobit case takes ``-lambda /
    sigma`` and ``lambda * mu / sigma`` instead, lambda the inverse Mills
    ratio at -mu/sigma.
    """
    table = params.location_table()
    strata = params.grid.strata
    n_s = len(strata)
    linear = params.mean_structure.value == "linear"
    n_loc = params.locations.shape[0]
    out = np.zeros((dataset.n, n_s - 1 + 2 * n_loc + 2))
    for i in range(dataset.n):
        t, z, y = int(dataset.t[i]), int(dataset.z[i]), float(dataset.y[i])
        sigma = float(params.scales[t])
        terms = {
            s: float(params.probs[s]) * density_oracle(y, float(table[s, t]), sigma,
                                                       params.family.value)
            for s, (z0, z1) in enumerate(strata) if (z1 if t == 1 else z0) == z
        }
        total = sum(terms.values())
        out[i, : n_s - 1] = [terms.get(s, 0.0) / total - float(params.probs[s])
                             for s in range(n_s - 1)]
        for s, term in terms.items():
            post, mu = term / total, float(table[s, t])
            if params.family.value == "tobit" and y == 0.0:
                lam = math.exp(-0.5 * (mu / sigma) ** 2) / _SQRT_2PI / phi_oracle(-mu / sigma)
                d_loc, d_log_scale = -lam / sigma, lam * mu / sigma
            else:
                d_loc, d_log_scale = (y - mu) / sigma**2, ((y - mu) / sigma) ** 2 - 1.0
            z0, z1 = strata[s]
            rows = enumerate((1.0, z1, z0, z1 * z0)) if linear else [(s, 1.0)]
            for r, coef in rows:
                out[i, n_s - 1 + 2 * r + t] += post * coef * d_loc
            out[i, -2 + t] += post * d_log_scale
    return out


def tobit_grid_mle(y, w, eta_range, zeta_range, refinements=4, grid=41):
    """Single-component weighted censored-normal MLE by nested grid search."""

    def loglik(eta, zeta):
        total = 0.0
        for yi, wi in zip(y, w):
            total += wi * math.log(density_oracle(float(yi), eta, zeta, "tobit"))
        return total

    lo_e, hi_e = eta_range
    lo_z, hi_z = zeta_range
    best = None
    for _ in range(refinements):
        etas = np.linspace(lo_e, hi_e, grid)
        zetas = np.linspace(max(lo_z, 1e-6), hi_z, grid)
        best = max(
            ((loglik(e, z), e, z) for e in etas for z in zetas), key=lambda t: t[0]
        )
        _, e_star, z_star = best
        span_e = (hi_e - lo_e) / (grid - 1)
        span_z = (hi_z - lo_z) / (grid - 1)
        lo_e, hi_e = e_star - 2 * span_e, e_star + 2 * span_e
        lo_z, hi_z = z_star - 2 * span_z, z_star + 2 * span_z
    return best[1], best[2]


def random_small_dataset(rng, family: str, max_cases: int = 10):
    """A tiny random dataset plus random valid parameters for oracle checks."""
    from stratfit.core import Dataset, ModelParams, StrataGrid
    from stratfit.densities import Family

    k = int(rng.integers(2, 4))
    grid = StrataGrid(k)
    n = int(rng.integers(4, max_cases + 1))
    t = rng.integers(0, 2, size=n)
    z = rng.integers(0, k, size=n)
    y = rng.normal(1.0, 2.0, size=n)
    if family == "tobit":
        y = np.maximum(y, 0.0)
    w = rng.uniform(0.2, 3.0, size=n)
    ds = Dataset.from_arrays(y, t, z, w=w, k_levels=k, family=Family(family))
    params = ModelParams(
        grid=grid,
        probs=rng.dirichlet(np.ones(grid.n_strata) * 2.0),
        locations=rng.normal(0.5, 1.5, size=(grid.n_strata, 2)),
        scales=rng.uniform(0.5, 3.0, size=2),
        family=Family(family),
    )
    return ds, params


def initial_probs_oracle(warm, combo, k: int) -> np.ndarray:
    """One mapping's initial strata probabilities by the scalar IPF: the two
    arms' mapped tables averaged, then 50 proportional-fitting sweeps."""
    share = {}
    for t in (0, 1):
        v = np.array([warm[(t, z)].weight for z in range(k)])
        share[t] = v / v.sum()
    cells = [(1, z) for z in range(k)] + [(0, z) for z in range(k)]
    q1 = np.zeros((k, k))  # indexed [z0, z1]
    q0 = np.zeros((k, k))
    for (t, z), perm in zip(cells, combo):
        cs = warm[(t, z)]
        for j in range(k):
            if t == 1:
                q1[perm[j], z] += share[1][z] * cs.props[j]
            else:
                q0[z, perm[j]] += share[0][z] * cs.props[j]
    table = np.maximum(0.5 * (q1 + q0), 1e-12)
    for _ in range(50):
        table *= (share[1] / table.sum(axis=0))[None, :]
        table *= (share[0] / table.sum(axis=1))[:, None]
    table /= table.sum()
    return table.T.ravel()


def combo_oracle(mapping_id: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The per-cell permutations of a mapping id: its base-k! digits, most
    significant first, each naming a permutation in itertools order."""
    perms = list(itertools.permutations(range(k)))
    digits = []
    for _ in range(2 * k):
        mapping_id, digit = divmod(mapping_id, len(perms))
        digits.append(digit)
    return tuple(perms[d] for d in reversed(digits))


def start_params_oracle(warm, mapping_id: int, k: int, linear: bool):
    """One mapping's initial (probs, locations) built on their own: each
    cell's j-th warm-start mean written into the compatible stratum whose
    free coordinate its permutation names, the (n_strata, 2) table projected
    onto the linear design by least squares when ``linear``, and the probs
    from the scalar IPF."""
    from stratfit.core import StrataGrid, linear_design

    grid = StrataGrid(k)
    combo = combo_oracle(mapping_id, k)
    cells = [(1, z) for z in range(k)] + [(0, z) for z in range(k)]
    table = np.zeros((grid.n_strata, 2))
    for (t, z), perm in zip(cells, combo):
        strata = grid.compatible(t, z)
        for j in range(k):
            table[strata[perm[j]], t] = warm[(t, z)].means[j]
    if linear:
        table = np.linalg.lstsq(linear_design(grid), table, rcond=None)[0]
    return initial_probs_oracle(warm, combo, k), table


def select_ids_oracle(lls, kind: str, count: int) -> list[int]:
    """Start ids chosen from ranking values by plain Python rules: the top
    ``count`` (ties to the lower id), or farthest-point selection."""
    order = sorted(range(len(lls)), key=lambda i: (-lls[i], i))
    if kind == "topk":
        return sorted(order[:count])
    chosen = [order[0]]
    remaining = order[1:]
    while len(chosen) < count and remaining:
        gap = {i: min(abs(lls[i] - lls[j]) for j in chosen) for i in remaining}
        best = max(gap.values())
        pick = min(i for i in remaining if gap[i] == best)
        chosen.append(pick)
        remaining.remove(pick)
    return sorted(chosen)


def em_one_start_oracle(dataset, params, family, mean_structure, tol, max_iter, scale_floor):
    """EM from one start as a plain loop over the public one-set functions
    ``log_likelihood``, ``e_step`` and ``m_step``, with the stopping rule of
    ``stratfit.em.fit``: stop once the log-likelihood changes by at most
    ``tol * max(1, |ll|)``, or after ``max_iter`` M-steps and one more
    evaluation. Frozen strata and scale-floor flags are read off the last
    M-step's posterior and result. Returns the fields of a ``StartRecord``.
    """
    from stratfit import em
    from stratfit.core import MeanStructure

    history = []
    ll_prev = None
    frozen, floor, converged, iterations = (), (False, False), False, 0
    for it in range(1, max_iter + 1):
        iterations = it
        ll = em.log_likelihood(params, dataset)
        history.append(ll)
        if ll_prev is not None and abs(ll - ll_prev) <= tol * max(1.0, abs(ll)):
            converged = True
            break
        post = em.e_step(params, dataset)
        weight = [dataset.w[dataset.t == t] @ post[dataset.t == t] for t in (0, 1)]
        frozen = tuple(
            (int(s), t) for t in (0, 1)
            for s in np.flatnonzero(weight[t] < em.FROZEN_WEIGHT_TOL)
        ) if mean_structure is MeanStructure.SATURATED else ()
        params = em.m_step(post, dataset, family, mean_structure, prev=params,
                           scale_floor=scale_floor)
        floor = tuple(bool(0.0 < scale_floor[t] == params.scales[t]) for t in (0, 1))
        ll_prev = ll
    else:
        ll = em.log_likelihood(params, dataset)
        history.append(ll)
    return {
        "loglik": ll, "params": params, "iterations": iterations,
        "converged": converged, "frozen": frozen, "floor_active": floor,
        "history": tuple(history),
    }


def cell_mixture_em_oracle(y: np.ndarray, w: np.ndarray, k: int, max_iter: int = 300):
    """Unstructured k-component univariate normal mixture, weighted EM.

    Initialization splits the cell at weighted quantiles, so the procedure
    is fully deterministic. Returns means/sds/props sorted by mean.
    """
    from stratfit.em import _LOG_2PI, _weighted_sd

    def case_sum(a):
        # numpy's own sums over the cases: in case order for two or more
        # columns, pairwise for one
        return a.sum(axis=0) if a.shape[1] == 1 else np.add.accumulate(a, axis=0)[-1]

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
        comp_w = case_sum(wr)
        live = comp_w > 1e-12
        props = np.maximum(comp_w / total, 1e-300)
        props /= props.sum()
        means = np.where(live, case_sum(wr * ys[:, None]) / np.maximum(comp_w, 1e-300), means)
        var = case_sum(wr * (ys[:, None] - means) ** 2) / np.maximum(comp_w, 1e-300)
        sds = np.where(live, np.maximum(np.sqrt(var), sd_floor), sds)
        if ll_prev is not None and abs(ll - ll_prev) <= 1e-8 * max(1.0, abs(ll)):
            break
        ll_prev = ll

    order = np.argsort(means, kind="stable")
    means, sds, props = means[order], sds[order], props[order]
    degenerate = (means[-1] - means[0]) <= 1e-6 * max(1.0, abs(means).max(), overall_sd)
    return means, sds, props, bool(degenerate)


def tobit_newton_oracle(design, mpos, s1, s2, mzero, gamma0, delta0):
    """One aggregated tobit M-step problem solved on its own by the damped
    Newton with step halving, written with scalar arithmetic. Returns (beta,
    delta, objective evaluations)."""
    from stratfit.densities import norm_logcdf, norm_logpdf

    log_2pi = math.log(2.0 * math.pi)
    q = design.shape[1]
    beta = np.linalg.lstsq(design, gamma0, rcond=None)[0]
    delta = float(delta0)
    s2_tot = float(s2.sum())
    mpos_tot = float(mpos.sum())
    evaluations = 0

    def objective(beta_v, delta_v):
        nonlocal evaluations
        evaluations += 1
        g = design @ beta_v
        val = mpos_tot * (math.log(delta_v) - 0.5 * log_2pi)
        val -= 0.5 * (delta_v * delta_v * s2_tot - 2.0 * delta_v * (g @ s1) + (g * g) @ mpos)
        active = mzero > 0.0
        if active.any():
            val += float(mzero[active] @ norm_logcdf(-g[active]))
        return float(val)

    obj = objective(beta, delta)
    for _ in range(100):
        g = design @ beta
        lam = np.exp(norm_logpdf(-g) - norm_logcdf(-g))
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
        step = np.linalg.solve(hess, -grad)
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
    return beta, delta, evaluations


def tobit_newton_serial_oracle(design, mpos, s1, s2, mzero, gamma0, delta0, pinned=None):
    """The batched tobit Newton as it ran before its line search stacked
    the halvings: every step fraction is its own objective evaluation, and
    the inverse Mills ratio its own ``norm_logcdf``. ``em._tobit_newton``
    must reproduce it bit for bit. Returns (beta (P, q), delta (P,))."""
    from stratfit.densities import norm_logcdf, norm_logpdf
    from stratfit.em import _LOG_2PI, _dot, _matvec, _solve

    def _inverse_mills(a):
        return np.exp(norm_logpdf(a) - norm_logcdf(a))

    def _tobit_objective(g, delta, mpos, s1, mzero, mpos_tot, s2_tot):
        val = mpos_tot * (np.array([math.log(d) for d in delta]) - 0.5 * _LOG_2PI)
        val = val - 0.5 * (delta * delta * s2_tot - 2.0 * delta * _dot(g, s1)
                           + _dot(g * g, mpos))
        active = mzero > 0.0
        if active.any():
            cens = np.zeros_like(g)
            cens[active] = norm_logcdf(-g[active])
            val = val + _dot(np.where(active, mzero, 0.0), cens)
        return val

    q = design.shape[1]
    beta = _matvec(np.linalg.pinv(design), gamma0)
    delta = np.array(delta0, dtype=float)
    data = (mpos, s1, mzero, mpos.sum(axis=1), s2.sum(axis=1))
    obj = _tobit_objective(_matvec(design, beta), delta, *data)
    todo = np.arange(len(beta))
    for _ in range(100):
        if not todo.size:
            break
        b, d, o = beta[todo], delta[todo], obj[todo]
        sub = tuple(a[todo] for a in data)
        mp, s1_, mz, mt, st = sub
        g = _matvec(design, b)
        lam = _inverse_mills(-g)
        grad_g = d[:, None] * s1_ - g * mp - mz * lam
        grad = np.column_stack([_matvec(design.T, grad_g), mt / d - d * st + _dot(g, s1_)])
        h_gg = -(mp + mz * lam * (lam - g))
        hess = np.empty((len(todo), q + 1, q + 1))
        hess[:, :q, :q] = design.T @ (h_gg[..., None] * design)
        hess[:, :q, q] = hess[:, q, :q] = _matvec(design.T, s1_)
        hess[:, q, q] = -mt / d**2 - st
        if pinned is not None:
            pin = np.zeros(grad.shape, dtype=bool)
            pin[:, :q] = pinned[todo]
            grad[pin] = 0.0
            hess = np.where(pin[:, :, None] | pin[:, None, :], np.eye(q + 1), hess)
        step = _solve(hess, -grad)
        live = np.flatnonzero(np.abs(grad).max(axis=1) >= 1e-9 * np.maximum(1.0, np.abs(o)))
        moved = np.zeros(len(todo), dtype=bool)
        frac = 1.0
        while live.size and frac > 1e-16:
            b_n = b[live] + frac * step[live, :q]
            d_n = d[live] + frac * step[live, q]
            # a trial point that rounds to the current one cannot improve it,
            # and neither can any shorter step
            stuck = (b_n == b[live]).all(axis=1) & (d_n == d[live])
            up = np.flatnonzero(d_n > 0.0)
            if up.size:
                o_n = _tobit_objective(_matvec(design, b_n[up]), d_n[up],
                                       *(a[live[up]] for a in sub))
                gain = o_n > o[live[up]]
                up, o_n = up[gain], o_n[gain]
                b[live[up]], d[live[up]], o[live[up]] = b_n[up], d_n[up], o_n
                moved[live[up]] = True
                stuck[up] = True
            live = live[~stuck]
            frac *= 0.5
        beta[todo], delta[todo], obj[todo] = b, d, o
        todo = todo[moved]
    return beta, delta


def num_hessian_oracle(fun, x, rel_step):
    """Central-difference Hessian of a scalar ``fun``, one evaluation per
    point, with steps ``rel_step * max(1, |x|)``: the 2p^2 + 1 point double
    loop the stacked Hessian must reproduce bit for bit."""
    h = rel_step * np.maximum(1.0, np.abs(x))
    p = len(x)
    hess = np.empty((p, p))
    f0 = fun(x)
    for i in range(p):
        ei = np.zeros(p)
        ei[i] = h[i]
        hess[i, i] = (fun(x + ei) - 2.0 * f0 + fun(x - ei)) / h[i] ** 2
        for j in range(i + 1, p):
            ej = np.zeros(p)
            ej[j] = h[j]
            val = (
                fun(x + ei + ej) - fun(x + ei - ej)
                - fun(x - ei + ej) + fun(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = val
    return hess
