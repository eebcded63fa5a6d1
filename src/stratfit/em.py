"""Weighted mixture likelihood for the strata model and its EM maximizer.

Each observed (arm, institutionalization) cell mixes the strata that share
the observed coordinate, so which fitted component belongs to which stratum
is not identified by a single EM run. Fitting therefore proceeds in three
stages: per-cell warm starts (a plain univariate normal-mixture EM), an
exhaustive enumeration of the component-to-stratum assignments those warm
starts admit (16 in the four-strata model), and an EM run from every
assignment, keeping the solution with the highest weighted log-likelihood.
All starts run together in one EM loop; from the third evaluation on, a
start that falls far behind the best stops early as ``"pruned"``
(short-run/long-run EM, see :func:`_run_starts`), the others run on to the
stop rule.

Every mixture evaluation (the log-likelihood, the per-case terms, the E-step,
the EM loop, and the Hessian and scores of the standard errors) runs through
one kernel over the dataset's cell partition, :attr:`Dataset.cells`; start
ranking reads its component log-densities (:func:`_cell_logdens`) too. The
kernel, the sufficient statistics and the M-step carry a leading axis over S
parameter sets: the public one-set functions use S = 1, and
:func:`log_likelihood` also takes a sequence of sets. The EM loop
(:func:`_run_starts`) walks its running starts in blocks (see
``_EM_BLOCK``), each block taking its M-step and then its E-step, one pass
over the cells per block rather than one per start. A stack without an
E-step (:func:`_evaluate`) runs each cell once per distinct input and sums
its per-case terms into log-likelihoods. The Hessian of :mod:`.effects`,
the one finite difference left in the standard errors, hands its points
over as packed vectors (:func:`_packed_stack`), never as
:class:`ModelParams`; the sandwich's per-case scores take the posteriors of
one kernel pass. Each set is rounded exactly as when it is evaluated alone
(``_dot``, ``_matvec`` and C-ordered buffers keep BLAS on one code path for
every S) and as in earlier releases, which ran one start at a time
(``math.log`` for scales): the finite-difference Hessian moves the standard
errors by up to 1% when an optimum moves in its 13th digit, so fits must not
move with the batching. For the same reason the row maxima and sums over a
cell's 2-3 strata columns are column-wise reductions (``_row_max``,
``_row_sum``) that round exactly as numpy's ``max`` and ``sum`` do, and the
broadcasts over those columns run column by column: numpy reduces or
broadcasts a 2-3 wide axis with one inner loop per row, which costs far
more than the arithmetic. Every sum over cases (``_case_sum``) adds each
column's cases in order, from +0.0, as numpy's ``sum`` does over the rows of
a C-ordered array, but in one ``np.einsum`` pass per column and on any
memory layout, so the warm start sums its (cells, k, cases) stacks through a
transposed view, without a copy.

Under tobit, the M-step maximizes each (set, arm) problem by a damped
Newton (:func:`_tobit_newton`), and its cost is the number of
``norm_logcdf`` calls on a few elements each, not their size. So the line
search tries the full step alone and then the 53 halvings 2^-1 ... 2^-53 of
every problem it did not settle in one stacked objective evaluation (see
:func:`_line_search`); each problem takes the fraction that trying them one
at a time would take. The inverse Mills ratio reuses the current point's
``log Phi(-g)`` from its objective evaluation, and the E-step computes
``log Phi(-location/scale)`` once for all cells. None of this moves a bit:
the fractions are exact powers of two, and a trial point's objective is
elementwise work plus a row-wise ``_dot``/``_matvec``, which rounds the same
in any stack.

The warm starts run the cells' mixture EMs in lockstep on padded stacks of
at most ``_WARM_BLOCK`` entries (see :func:`_lockstep_em`), so a group of
cells needs as many Python iterations as its slowest cell. The cells of many
datasets can share the stacks (:func:`warm_start_cells` takes a sequence),
which is how a recovery study warm-starts a chunk of its replicates at once.
They keep their own arithmetic rather than going through :func:`_mix`,
whose two-column log-sum-exp rounds differently, and each cell's components
are bit for bit those of its EM run alone, whatever cells share its stack:
padded cases carry weight 0, case sums add in case order, and the stop
test's log-likelihood is one dot per cell over its own cases.

Starts are numbered by mapping id, and :func:`_start_sets` builds the
initial parameter sets of a block of ids as stacked arrays. With three
levels there are (3!)^6 = 46,656 assignments, so ``topk`` and ``spread``
rank them first by their initial log-likelihood under the saturated
structure, whatever the fit's mean structure: there a cell's density
columns do not move with the mapping. The ranking runs in batched passes
over blocks of mapping ids whose working set does not grow with the mapping
count (see ``_RANK_BLOCK``); a block's strata probabilities come from one
IPF with the mappings on the contiguous axis. ``spread`` needs every value,
about one logarithm per case and mapping. ``topk`` needs only the best n,
so it bounds every mapping from above by grouping each cell's cases
(Jensen's inequality, about ``_RANK_GROUPS`` logarithms per cell and
mapping) and evaluates only the mappings whose bound reaches the n-th best
value, each as the full pass would, bit for bit (see
:func:`_initial_logliks`); it keeps the ids the full pass keeps. Only the
selected ids are projected onto the linear design.

Fitting is deterministic: warm starts initialize from weighted quantile
splits and no stage consumes random numbers. Everything runs in the calling
thread.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Cell,
    Dataset,
    MeanStructure,
    ModelParams,
    StrataGrid,
    cell_order,
    check_censored,
    linear_design,
    location_tables,
    unpack_stack,
)
from .densities import Family, norm_logcdf, norm_logpdf
from .errors import (
    ConvergenceError,
    DataError,
    DegenerateMixtureError,
    EstimationError,
    WarmStartError,
)

LOGLIK_TIE_TOL = 1e-8
NEAR_TIE_REL = 1e-4
FROZEN_WEIGHT_TOL = 1e-8
_LOG_2PI = math.log(2.0 * math.pi)


def _check_inputs(sets: Sequence[ModelParams], dataset: Dataset) -> Family:
    """Check parameter sets of one family against the dataset; return it."""
    family = sets[0].family
    for p in sets:
        if p.family is not family:
            raise ValueError("parameter sets of different families")
        if p.grid.k_levels != dataset.k_levels:
            raise DataError(
                f"dataset has {dataset.k_levels} levels but parameters use {p.grid.k_levels}"
            )
    check_censored(dataset.y, family)
    return family


# --------------------------------------------------------------------------
# likelihood and E-step
# --------------------------------------------------------------------------

def _log_probs(probs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(probs)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of the last axes, each rounded exactly as a 1-D ``x @ y``
    (a BLAS dot), whatever the number of rows."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ v`` for every vector v on the last axis of ``x``, each rounded
    exactly as a 2-D matrix-vector product."""
    return (a @ x[..., None])[..., 0]


def _row_max(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a.max(axis=-1)`` as chained column maxima, exact in any order;
    written into ``out`` when given."""
    out = np.positive(a[..., 0], out=out)
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j], out=out)
    return out


def _row_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a.sum(axis=-1)``: numpy adds fewer than 8 columns left to right
    (from the first, so a row of -0.0 sums to -0.0 here and to +0.0 in
    numpy); written into ``out`` when given."""
    if a.shape[-1] >= 8:
        return a.sum(axis=-1, out=out)
    out = np.positive(a[..., 0], out=out)
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def _case_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-2)`` of a C-ordered copy of a (..., n, c) array: numpy
    adds the n rows of a C-ordered array in order, from +0.0. Of two or more
    columns, ``np.einsum(..., order="F")`` gives those bits on any layout,
    with no copy: it adds each column's cases in order, one inner loop per
    column. (The default order loops once per row over the 2-3 columns, and
    "C" or "K" take a vectorised path on a transposed view, which rounds
    otherwise.) The result may be Fortran-ordered. A single column is
    contiguous once copied, so numpy sums it pairwise; that case goes to
    numpy."""
    if a.shape[-1] == 1:
        return np.ascontiguousarray(a).sum(axis=-2)
    return np.einsum("...nc->...c", a, order="F")


def _cell_logdens(cell: Cell, locs: np.ndarray, scale: np.ndarray, family: Family,
                  cens: np.ndarray | None = None) -> np.ndarray:
    """Component log-densities of one cell's cases under S parameter sets:
    ``locs`` (S, c) and ``scale`` (S,) in, (S, n_cell, c) out. Under tobit a
    zero outcome's term is ``log Phi(-loc/scale)``, taken from ``cens`` (S,
    c) when the caller has computed it, else computed here."""
    ld = np.empty((len(locs), cell.y.size, locs.shape[1]))
    for j in range(locs.shape[1]):  # by column: a broadcast loops once per case
        np.subtract(cell.y, locs[:, j, None], out=ld[..., j])
    ld /= scale[:, None, None]
    ld *= ld
    ld *= -0.5
    ld -= (0.5 * _LOG_2PI + np.array([math.log(v) for v in scale]))[:, None, None]
    if family is Family.TOBIT and cell.zero.size:
        if cens is None:
            cens = norm_logcdf(-locs / scale[:, None])
        for j in range(locs.shape[1]):
            ld[:, cell.zero, j] = cens[:, j, None]
    return ld


def _mix(cell: Cell, logdens: np.ndarray, logprior: np.ndarray, want_post: bool = False):
    """The mixture kernel: one cell's per-case log mixture terms (a row-wise
    log-sum-exp, (S, n_cell)) and, when asked, posteriors (S, n_cell, c).

    ``logdens`` (S, n_cell, c), one column per compatible stratum, is
    overwritten; ``logprior`` (S, c) holds the columns' log-probabilities.
    A case whose every column is impossible raises with its dataset row.
    """
    lm, cols = logdens, range(logdens.shape[2])
    for j in cols:  # by column, as in _cell_logdens
        lm[..., j] += logprior[:, j, None]
    pair = len(cols) == 2
    top = np.logaddexp(lm[..., 0], lm[..., 1]) if pair else _row_max(lm)
    # the log-sum-exp of a row is finite exactly when its maximum is
    ok = np.isfinite(top)
    if not ok.all():
        raise DegenerateMixtureError(int(cell.rows[np.flatnonzero(~ok.all(axis=0))[0]]))
    lse = top
    if not pair:
        shifted = np.empty_like(lm)
        for j in cols:
            np.subtract(lm[..., j], top, out=shifted[..., j])
        lse = top + np.log(_row_sum(np.exp(shifted, out=shifted)))
    if not want_post:
        return lse, None
    for j in cols:
        lm[..., j] -= lse
    return lse, np.exp(lm, out=lm)


def _censored(dataset: Dataset, table, scales, family: Family) -> np.ndarray | None:
    """Under tobit with zeros, log Phi(-location/scale) (S, 2, n_strata) in one call."""
    tobit = family is Family.TOBIT and any(cell.zero.size for cell in dataset.cells)
    return norm_logcdf(-table / scales[:, :, None]) if tobit else None


def _mixture(dataset: Dataset, logp, table, scales, family: Family, want_post: bool):
    """Yield (cell, log mixture terms, posterior or None) for each non-empty
    cell under S parameter sets: log-probabilities ``logp`` (S, n_strata),
    locations ``table`` (S, 2, n_strata), arm first, and ``scales`` (S, 2)."""
    cens = _censored(dataset, table, scales, family)
    for cell in dataset.cells:
        if cell.y.size:
            ld = _cell_logdens(cell, table[:, cell.t, cell.strata], scales[:, cell.t], family,
                               None if cens is None else cens[:, cell.t, cell.strata])
            yield (cell, *_mix(cell, ld, logp[:, cell.strata], want_post))


def _stack(sets: Sequence[ModelParams]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameter sets as the kernel's stacks of S = len(sets)."""
    return (_log_probs(np.stack([p.probs for p in sets])),
            np.stack([p.location_table().T for p in sets]),
            np.stack([p.scales for p in sets]))


def _packed_stack(points: np.ndarray, like: ModelParams, dataset: Dataset):
    """Packed parameter vectors (S, p) of ``like``'s shape as the kernel's
    stacks, each row rounding as :func:`_stack` rounds its unpacked set,
    under either mean structure; no :class:`ModelParams` is built."""
    _check_inputs([like], dataset)
    probs, locations, scales = unpack_stack(points, like)
    table = location_tables(locations, like)
    return _log_probs(probs), np.ascontiguousarray(table.transpose(0, 2, 1)), scales


def _evaluate(dataset: Dataset, logp, table, scales, family: Family) -> np.ndarray:
    """Weighted log-likelihoods (S,) of S parameter sets stacked as for
    :func:`_mixture`, each as when evaluated alone. A cell runs once per
    distinct row of its columns of the stacks, ``_em_block(dataset)`` rows
    at a time, so the working set does not grow with S."""
    block = _em_block(dataset)
    cens = _censored(dataset, table, scales, family)
    ll = np.zeros(len(logp))
    for cell in filter(lambda c: c.y.size, dataset.cells):
        key = np.ascontiguousarray(np.concatenate(  # compared by bytes: -0.0 is not 0.0
            [logp[:, cell.strata], table[:, cell.t, cell.strata], scales[:, cell.t, None]], 1))
        first, inv = np.unique(key.view(np.dtype((np.void, key[0].nbytes)))[:, 0],
                               return_index=True, return_inverse=True)[1:]
        terms = np.empty(len(first))
        for lo in range(0, len(first), block):
            ids = first[lo:lo + block]  # a block of the distinct sets
            ld = _cell_logdens(cell, table[ids, cell.t][:, cell.strata], scales[ids, cell.t],
                               family, None if cens is None else cens[ids, cell.t][:, cell.strata])
            terms[lo:lo + block] = _dot(_mix(cell, ld, logp[ids][:, cell.strata])[0], cell.w)
        ll += terms[inv]
    return ll


def log_likelihood(params: ModelParams | Sequence[ModelParams],
                   dataset: Dataset) -> float | np.ndarray:
    """Weighted observed-data log-likelihood.

    Each case contributes its weight times the log of the mixture over the
    strata compatible with its (arm, z) cell: a treated case sums over the
    unobserved control-side level, a control case over the treated side.

    Given one parameter set, returns a float. Given a sequence of sets of
    one family, returns an array with one value per set (empty for none),
    each equal bit for bit to the set's own value and to the log-likelihood
    the EM loop reports for the set: a cell runs once per distinct input
    among the sets (see :func:`_evaluate`).
    """
    if isinstance(params, ModelParams):
        return float(log_likelihood([params], dataset)[0])
    if not len(params):
        return np.zeros(0)
    family = _check_inputs(params, dataset)
    return _evaluate(dataset, *_stack(params), family)


def case_loglik(params: ModelParams, dataset: Dataset) -> np.ndarray:
    """Per-case unweighted log mixture terms, aligned with the dataset rows."""
    _check_inputs([params], dataset)
    out = np.zeros(dataset.n)
    for cell, lse, _ in _mixture(dataset, *_stack([params]), params.family, False):
        out[cell.rows] = lse[0]
    return out


def e_step(params: ModelParams, dataset: Dataset) -> np.ndarray:
    """Posterior strata memberships, one row per case over all strata.

    Strata incompatible with a case's observed cell carry exactly zero;
    compatible entries are the normalized prior-times-density terms computed
    in log space with max subtraction.
    """
    _check_inputs([params], dataset)
    out = np.zeros((dataset.n, params.grid.n_strata))
    for cell, _, post in _mixture(dataset, *_stack([params]), params.family, True):
        out[np.ix_(cell.rows, cell.strata)] = post[0]
    return out


# --------------------------------------------------------------------------
# M-step
# --------------------------------------------------------------------------

def _accumulate(stats: np.ndarray, cell: Cell, post: np.ndarray, family: Family) -> None:
    """Write one cell's posterior-weighted statistics into ``stats`` (S, 2,
    n_strata, 3 or 4), indexed [set, arm, stratum, moment]: the weight, the
    weighted sums of y and y^2 (of the positive outcomes under tobit) and,
    under tobit, the weight of the positive outcomes."""
    wp = np.empty_like(post)
    for j in range(post.shape[2]):  # by column, as in _cell_logdens
        np.multiply(cell.w, post[..., j], out=wp[..., j])
    out = stats[:, cell.t, cell.strata]
    out[..., 0] = _case_sum(wp)
    if family is Family.TOBIT:
        wp = np.take(wp, cell.pos, axis=1)
        out[..., 3] = _case_sum(wp)
        y, y2 = cell.y[cell.pos], cell.y2[cell.pos]
    else:
        y, y2 = cell.y, cell.y2
    wp = wp.transpose(0, 2, 1)
    out[..., 1] = wp @ y
    out[..., 2] = wp @ y2
    stats[:, cell.t, cell.strata] = out


def _design(grid: StrataGrid, mean_structure: MeanStructure) -> np.ndarray:
    if mean_structure is MeanStructure.LINEAR:
        return linear_design(grid)
    return np.eye(grid.n_strata)


def _solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each system of a stack; a singular one by least squares."""
    try:
        return np.linalg.solve(a, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for i in np.ndindex(rhs.shape[:-1]):
            try:
                out[i] = np.linalg.solve(a[i], rhs[i])
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(a[i], rhs[i], rcond=None)[0]
        return out


def _tobit_objective(g, delta, mpos, s1, mzero, mpos_tot, s2_tot):
    """Aggregated weighted tobit log-likelihood of each problem at linear
    predictors ``g`` (P, n_strata) and inverse scales ``delta`` (P,), and
    the censored terms ``log Phi(-g)`` (P, n_strata), 0 where ``mzero`` is
    0. A row's values do not depend on the other rows."""
    val = mpos_tot * (np.array([math.log(d) for d in delta.tolist()]) - 0.5 * _LOG_2PI)
    val = val - 0.5 * (delta * delta * s2_tot - 2.0 * delta * _dot(g, s1) + _dot(g * g, mpos))
    cens = np.zeros_like(g)
    active = mzero > 0.0
    if active.any():
        cens[active] = norm_logcdf(-g[active])
        val = val + _dot(np.where(active, mzero, 0.0), cens)
    return val, cens


# The fractions of a Newton step that _tobit_newton tries, in groups that
# are evaluated together: the full step alone, then every halving 2^-1 ...
# 2^-53 in one stack (the halving stops below 1e-16).
_RUNGS = [np.ldexp(1.0, -np.arange(lo, hi)) for lo, hi in ((0, 1), (1, 54))]


def _line_search(design, point, step, sub, live, fracs):
    """Try the fractions ``fracs`` of the Newton ``step`` of each ``live``
    problem in one stacked objective evaluation (a chunk of problems at a
    time, under ``_EM_BLOCK`` entries), settling each as the serial halving
    would: it moves to its first trial point with a positive inverse scale
    and a higher objective, unless an earlier trial point rounds to its
    current point, where the search stops. ``point`` (beta, delta,
    objective, censored terms) is updated in place. Returns the problems
    that moved and the ones that no fraction settled."""
    b, d, o, c = point
    q, r = b.shape[1], len(fracs)
    per = max(1, _EM_BLOCK // (r * design.shape[0]))
    moved, unsettled = [live[:0]], [live[:0]]
    for lo in range(0, len(live), per):
        part = live[lo:lo + per]
        b_n = b[part, None] + fracs[:, None] * step[part, None, :q]
        d_n = d[part, None] + fracs * step[part, None, q]
        # a trial point that rounds to the current one cannot improve it, and
        # neither can any shorter step, so it is not evaluated
        stuck = (b_n == b[part, None]).all(axis=2) & (d_n == d[part, None])
        b_n, d_n, gain = b_n.reshape(-1, q), d_n.ravel(), np.zeros(stuck.size, dtype=bool)
        rows = np.flatnonzero((d_n > 0.0) & ~stuck.ravel())
        if rows.size:
            owner = part[rows // r]
            o_n, c_n = _tobit_objective(_matvec(design, b_n[rows]), d_n[rows],
                                        *(a[owner] for a in sub))
            gain[rows] = o_n > o[owner]
        gain = gain.reshape(stuck.shape)
        settled = gain | stuck
        first = settled.argmax(axis=1)
        took = np.flatnonzero(gain[np.arange(len(part)), first])
        if took.size:
            pick = took * r + first[took]
            at = np.searchsorted(rows, pick)
            dst = part[took]
            b[dst], d[dst], o[dst], c[dst] = b_n[pick], d_n[pick], o_n[at], c_n[at]
        moved.append(part[took])
        unsettled.append(part[~settled.any(axis=1)])
    return np.concatenate(moved), np.concatenate(unsettled)


def _tobit_newton(design, mpos, s1, s2, mzero, gamma0, delta0, pinned=None):
    """Maximize P aggregated weighted tobit log-likelihoods at once.

    Each problem works in the (gamma, delta) = (location/scale, 1/scale)
    parameterization, in which the censored-normal log-likelihood is
    globally concave, so a damped Newton with step halving converges to the
    unique maximum. Statistics and ``gamma0`` are (P, n_strata); ``mzero``
    is a weight, at least 0. ``pinned`` (P, q) marks coefficients held at
    their start (zero gradient, unit Hessian row and column), whose
    statistics the caller zeroes. A problem stops on a small gradient, a
    failed line search or after 100 steps; the others go on together.
    Returns (beta (P, q), delta (P,)) with locations = design @ beta / delta.

    The line search tries the step fractions 1, 2^-1, ..., 2^-53 in the
    groups of ``_RUNGS`` (see :func:`_line_search`), the 53 halvings after
    the full step in one stacked evaluation, and each problem takes the
    fraction that halving one at a time would take. The inverse Mills ratio
    reuses the current point's ``log Phi(-g)`` from its objective.
    """
    q = design.shape[1]
    beta = _matvec(np.linalg.pinv(design), gamma0)
    delta = np.array(delta0, dtype=float)
    data = (mpos, s1, mzero, mpos.sum(axis=1), s2.sum(axis=1))
    obj, cens = _tobit_objective(_matvec(design, beta), delta, *data)
    todo = np.arange(len(beta))
    for _ in range(100):
        if not todo.size:
            break
        b, d, o, c = beta[todo], delta[todo], obj[todo], cens[todo]
        sub = tuple(a[todo] for a in data)
        mp, s1_, mz, mt, st = sub
        g = _matvec(design, b)
        # phi(-g)/Phi(-g); finite where mz is 0 and c holds 0
        lam = np.exp(norm_logpdf(-g) - c)
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
        for fracs in _RUNGS:
            if not live.size:
                break
            took, live = _line_search(design, (b, d, o, c), step, sub, live, fracs)
            moved[took] = True
        beta[todo], delta[todo], obj[todo], cens[todo] = b, d, o, c
        todo = todo[moved]
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
    location, which requires ``prev``. This is the EM loop's M-step applied
    to a single parameter set.
    """
    grid = StrataGrid(dataset.k_levels)
    if posterior.shape != (dataset.n, grid.n_strata):
        raise ValueError(
            f"posterior shape {posterior.shape} does not match the dataset's "
            f"{dataset.n} cases over {grid.n_strata} strata"
        )
    stats = np.zeros((1, 2, grid.n_strata, 4 if family is Family.TOBIT else 3))
    for cell in dataset.cells:
        if cell.y.size:
            _accumulate(stats, cell, posterior[np.ix_(cell.rows, cell.strata)][None], family)
    prev_sets = None if prev is None else (prev.location_table().T[None], prev.scales[None])
    probs, coef, scales, _, _ = _m_step_core(
        stats, grid, family, mean_structure, prev_sets, scale_floor
    )
    return ModelParams(grid, probs[0], coef[0].T, scales[0], family, mean_structure)


def _m_step_core(stats, grid, family, mean_structure, prev, scale_floor):
    """The M-step of S parameter sets at once, from :func:`_accumulate`'s
    statistics and None or the sets' current (location table (S, 2,
    n_strata), scales (S, 2)). Returns probabilities (S, n_strata), locations
    (S, 2, n_loc), scales (S, 2), the frozen (set, arm, stratum) mask and the
    scale-floor flags (S, 2)."""
    m, b, s2, *mpos = np.moveaxis(stats, -1, 0).copy()  # contiguous rows
    n_sets = len(m)
    w_total = m.reshape(n_sets, -1).sum(axis=1)
    if np.any(w_total <= 0.0):
        raise DataError("all case weights are zero")
    arm_w = m.sum(axis=2)
    for t in (0, 1):
        if np.any(arm_w[:, t] <= 0.0):
            raise DataError(f"empty arm {t}")
    probs = m.sum(axis=1) / w_total[:, None]
    saturated = mean_structure is MeanStructure.SATURATED
    frozen = (m < FROZEN_WEIGHT_TOL) & saturated
    if prev is None and frozen.any():
        s, t = np.argwhere(frozen.any(axis=2))[0]
        raise EstimationError(
            f"strata {np.flatnonzero(frozen[s, t]).tolist()} lost all posterior "
            f"weight in arm {t} and no previous parameters were given"
        )
    design = _design(grid, mean_structure)

    if family is Family.NORMAL:
        if saturated:
            coef = loc = b / np.where(frozen, 1.0, m)
            if frozen.any():
                coef = loc = np.where(frozen, prev[0], loc)
        else:
            coef = _solve(design.T @ (m[..., None] * design), _matvec(design.T, b))
            loc = _matvec(design, coef)
        rss = s2.sum(axis=2) - _dot(2.0 * loc, b) + _dot(loc * loc, m)
        scales = np.sqrt(np.maximum(rss, 0.0) / arm_w)
    else:
        mpos = mpos[0]
        if prev is not None:
            prev_scale = prev[1]
            gamma0 = prev[0] / prev_scale[..., None]
        else:
            prev_scale = np.maximum(np.sqrt(s2.sum(axis=2) / np.maximum(arm_w, 1e-300)), 1e-6)
            gamma0 = np.where(mpos > 0, b / np.maximum(mpos, 1e-300), 0.0) / prev_scale[..., None]
        # one problem per (set, arm); frozen strata drop out of the
        # objective and their coefficients are pinned
        rows = (2 * n_sets, -1)
        sums = (np.stack([mpos, b, s2, m - mpos]) * ~frozen).reshape(4, *rows)
        beta, delta = _tobit_newton(
            design, *sums, gamma0.reshape(rows), (1.0 / prev_scale).ravel(),
            frozen.reshape(rows) if frozen.any() else None,
        )
        coef = (beta / delta[:, None]).reshape(n_sets, 2, -1)
        if frozen.any():
            coef = np.where(frozen, prev[0], coef)
        scales = (1.0 / delta).reshape(n_sets, 2)

    floor = np.asarray(scale_floor, dtype=float)
    floor_active = scales < floor
    scales = np.where(floor_active, floor, scales)
    scales = np.where(scales <= 0.0, np.maximum(floor, 1e-12), scales)
    return probs / probs.sum(axis=1, keepdims=True), coef, scales, frozen, floor_active


# --------------------------------------------------------------------------
# warm starts
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CellStart:
    """Per-cell preliminary component estimates, sorted by mean ascending.
    ``capped`` is true when the cell's EM stopped at ``_WARM_MAX_ITER``
    iterations without meeting its stop rule."""

    t: int
    z: int
    means: np.ndarray
    sds: np.ndarray
    props: np.ndarray
    weight: float
    degenerate: bool
    capped: bool


def _weighted_sd(y: np.ndarray, w: np.ndarray) -> float:
    total = float(w.sum())
    if total <= 0.0:
        return 0.0
    mean = float(w @ y) / total
    return math.sqrt(max(float(w @ (y - mean) ** 2) / total, 0.0))


# The iteration cap of a cell's warm-start EM.
_WARM_MAX_ITER = 300

# The largest padded (cells x components x cases) stack of a lockstep group
# of warm starts, in float64 entries: 2^15, 256 KiB. The group holds two
# such buffers and the padded cases. On the 20 replicates of a recovery
# study at 500 cases per arm, 2^16 was no faster and 2^14 was slower.
_WARM_BLOCK = 1 << 15

def _warm_init(ys: np.ndarray, ws: np.ndarray, k: int, overall_sd: float):
    """The deterministic initialization of one cell's k-component mixture:
    split the cases, ascending, at weighted quantiles. Returns means, sds
    (floored at ``1e-6 * overall_sd``) and props, each (k,)."""
    total = float(ws.sum())
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
    return means, np.maximum(sds, 1e-6 * overall_sd), props


def _warm_groups(sizes: np.ndarray, k: int) -> list[list[int]]:
    """Cells grouped for :func:`_lockstep_em`, largest first, so that each
    group's padded (cells, k, longest cell) stack has at most ``_WARM_BLOCK``
    entries; a larger cell runs alone. With one component every cell runs
    alone, unpadded, so its one lane is summed pairwise, as numpy sums one
    column (see :func:`_case_sum`)."""
    groups: list[list[int]] = []
    for i in np.argsort(-sizes, kind="stable").tolist():
        if k > 1 and groups and (len(groups[-1]) + 1) * k * sizes[groups[-1][0]] <= _WARM_BLOCK:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _one_warm_group(datasets: Sequence[Dataset]) -> bool:
    """Whether one padded stack of :func:`_warm_groups` holds every cell of
    ``datasets`` (of one level count), counting all of a cell's cases, the
    most it can use (with one level each cell still runs alone): a recovery
    study warm-starts such a chunk of replicates with one
    :func:`warm_start_cells` call."""
    sizes = [cell.y.size for ds in datasets for cell in ds.cells]
    return datasets[0].k_levels * len(sizes) * max(sizes) <= _WARM_BLOCK


def _lockstep_em(ys, ws, totals, floors, means, sds, props):
    """Weighted EM for the k-component normal mixtures of a group of cells,
    all advancing together.

    ``ys`` and ``ws`` hold each cell's outcomes, ascending, and weights;
    ``totals`` and ``floors`` (C,) each cell's total weight and SD floor;
    ``means``, ``sds`` and ``props`` (C, k) the initial components. Returns
    the final (means, sds, props) and, (C,), whether each cell stopped at
    the iteration cap.

    The cells are stacked as (cells, k, cases), cases on the contiguous last
    axis, so numpy's inner loops run over cases. A shorter cell is padded
    with weight 0 and its own last outcome: the padding's terms stay finite
    and its weighted terms are exact zeros, and each lane's cases are added
    in order (:func:`_case_sum` of the stack's transposed (cases, lanes)
    view), so every sum rounds as over the cell alone.
    Each cell's arithmetic is that of a one-cell EM, term for term: the log
    densities are ``((log p - log s) - log(2 pi)/2) - z^2/2``, then the row
    maximum is shifted out and the columns are added left to right. (The
    mixture kernel :func:`_mix` adds two columns by ``np.logaddexp``, which
    rounds differently.) The stop test's log-likelihood is one BLAS dot per
    cell over its own cases: a dot over the padded length would block the
    sum differently. A cell stops once its log-likelihood changes by at most
    1e-8 relative, keeping the components of its last M-step, or after
    ``_WARM_MAX_ITER`` iterations, and then leaves the stack.
    """
    n = np.array([len(v) for v in ys])
    y = np.empty((len(ys), n.max()))
    w = np.zeros((len(ys), n.max()))
    for c, (yc, wc) in enumerate(zip(ys, ws)):
        y[c, :n[c]] = yc
        y[c, n[c]:] = yc[-1]
        w[c, :n[c]] = wc
    out = [means.copy(), sds.copy(), props.copy(), np.zeros(len(ys), dtype=bool)]
    pos = np.arange(len(ys))  # the running cells' places in the group
    totals, floors = totals[:, None], floors[:, None]

    def stack():
        """Views of the running cells' cases, two (cells, k, cases) buffers
        and two (cells, cases) ones."""
        shape = (len(pos), means.shape[1], y.shape[1])
        return (y[:, None, :], w[:, None, :], [w[c, :m] for c, m in enumerate(n[pos].tolist())],
                *(np.empty(shape) for _ in range(2)), *(np.empty(shape[::2]) for _ in range(2)))

    y3, w3, w_rows, dens, work, top, ssum = stack()
    ll_prev = None
    for _ in range(_WARM_MAX_ITER):
        with np.errstate(divide="ignore"):
            base = (np.log(props) - np.log(sds)) - 0.5 * _LOG_2PI
        np.subtract(y3, means[..., None], out=dens)
        dens /= sds[..., None]
        np.square(dens, out=dens)
        dens *= 0.5
        np.subtract(base[..., None], dens, out=dens)
        _row_max(dens.swapaxes(1, 2), top)
        dens -= top[:, None, :]
        np.exp(dens, out=dens)
        _row_sum(dens.swapaxes(1, 2), ssum)
        dens /= ssum[:, None, :]
        dens *= w3  # the weighted responsibilities
        top += np.log(ssum, out=ssum)  # the log mixture terms
        ll = [float(wc @ t[:len(wc)]) for wc, t in zip(w_rows, top)]
        lanes = (means.size, -1)  # each lane's cases: one column of a (cases, lanes) view
        comp_w = _case_sum(dens.reshape(lanes).T).reshape(means.shape)
        live = comp_w > 1e-12
        props = np.maximum(comp_w / totals, 1e-300)
        props /= props.sum(axis=1, keepdims=True)
        kept = np.maximum(comp_w, 1e-300)
        np.multiply(dens, y3, out=work)
        means = np.where(live, _case_sum(work.reshape(lanes).T).reshape(means.shape) / kept, means)
        np.subtract(y3, means[..., None], out=work)
        np.square(work, out=work)
        work *= dens
        var = _case_sum(work.reshape(lanes).T).reshape(means.shape) / kept
        sds = np.where(live, np.maximum(np.sqrt(var), floors), sds)
        if ll_prev is not None:
            stop = np.array([abs(v - u) <= 1e-8 * max(1.0, abs(v)) for v, u in zip(ll, ll_prev)])
            if stop.any():
                for final, now in zip(out, (means, sds, props)):
                    final[pos[stop]] = now[stop]
                if stop.all():
                    return out
                keep = ~stop
                pos, totals, floors = pos[keep], totals[keep], floors[keep]
                means, sds, props = means[keep], sds[keep], props[keep]
                ll = [v for v, done in zip(ll, stop) if not done]
                # the old stack is freed before the smaller one is built
                del y3, w3, w_rows, dens, work, top, ssum
                y, w = y[keep, :n[pos].max()].copy(), w[keep, :n[pos].max()].copy()
                y3, w3, w_rows, dens, work, top, ssum = stack()
        ll_prev = ll
    for final, now in zip(out, (means, sds, props, True)):  # the rest reached the cap
        final[pos] = now
    return out


def _sorted_components(means, sds, props, overall_sd):
    """A cell's final components sorted by mean, and whether they are
    degenerate (their means about equal)."""
    order = np.argsort(means, kind="stable")
    means, sds, props = means[order], sds[order], props[order]
    degenerate = (means[-1] - means[0]) <= 1e-6 * max(1.0, abs(means).max(), overall_sd)
    return means, sds, props, bool(degenerate)


def _usable_cases(dataset: Dataset, family: Family) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each cell's usable outcomes, ascending, and their weights: the
    positive-weight cases, and under tobit only the positive outcomes.
    WarmStartError names the first cell with fewer than k of them."""
    k = dataset.k_levels
    cases = []
    for cell in dataset.cells:
        live = cell.w > 0.0
        if family is Family.TOBIT:
            live &= cell.y > 0.0
        live = np.flatnonzero(live)
        if len(live) < k:
            raise WarmStartError(
                f"cell too small for warm start: t={cell.t}, z={cell.z} has {len(live)} usable "
                f"cases but needs at least {k}"
            )
        live = live[np.argsort(cell.y[live], kind="stable")]
        cases.append((cell.y[live], cell.w[live]))
    return cases


def warm_start_cells(datasets: Dataset | Sequence[Dataset], family: Family):
    """Preliminary per-cell mixtures seeding the starting-value enumeration.

    Every (arm, z) cell gets an unstructured k-component normal mixture,
    fitted by weighted EM from a split at weighted quantiles, so the
    procedure is deterministic; under the tobit family the mixture is fit on
    the positive outcomes only (the censored share is absorbed once the full
    EM runs). A cell whose outcomes are all equal gets k equal components
    and is flagged degenerate, as is one whose components end with about
    equal means. Components are sorted by mean, ascending.

    Given one dataset, returns its ``CellStart`` by (t, z) and raises
    WarmStartError for a cell with fewer than k usable cases. Given a
    sequence of datasets, returns a list with one slot per dataset: its
    starts, or the WarmStartError it alone would raise, which leaves the
    other datasets' slots as they would be without it.

    The cells' EMs run in lockstep (see :func:`_lockstep_em`), the cells of
    every dataset together, in groups bounded by ``_WARM_BLOCK`` (see
    :func:`_warm_groups`), so a group costs as many iterations as its
    slowest cell, not the sum over its cells. Each cell's components are the
    ones its EM gives when run alone, bit for bit, in any group.
    """
    if not isinstance(datasets, Dataset):
        return _warm_slots(datasets, family)
    (out,) = _warm_slots([datasets], family)
    if isinstance(out, WarmStartError):
        raise out
    return out


def _warm_slots(datasets: Sequence[Dataset], family: Family) -> list:
    """:func:`warm_start_cells` of a sequence of datasets."""
    slots: list = []
    fits = {}  # (dataset, cell) -> (means, sds, props, degenerate, capped)
    varied = defaultdict(list)  # k -> ((dataset, cell), outcomes, weights, overall SD)
    for d, dataset in enumerate(datasets):
        k = dataset.k_levels
        try:
            cases = _usable_cases(dataset, family)
        except WarmStartError as exc:
            slots.append(exc)
            continue
        slots.append(None)
        for i, (ys, ws) in enumerate(cases):
            sd = _weighted_sd(ys, ws)
            if sd == 0.0:
                val = float(ys[0])
                floor = max(1e-8, 1e-8 * abs(val))
                fits[d, i] = (np.full(k, val), np.full(k, floor), np.full(k, 1.0 / k), True, False)
            else:
                varied[k].append(((d, i), ys, ws, sd))
    for k, cells in varied.items():
        for group in _warm_groups(np.array([len(c[1]) for c in cells], dtype=int), k):
            keys, ys, ws, sd = zip(*(cells[g] for g in group))
            start = zip(*(_warm_init(y, w, k, s) for y, w, s in zip(ys, ws, sd)))
            *result, capped = _lockstep_em(ys, ws, np.array([float(w.sum()) for w in ws]),
                                           1e-6 * np.array(sd), *map(np.array, start))
            for c, key in enumerate(keys):
                fits[key] = (*_sorted_components(*(a[c] for a in result), sd[c]),
                             bool(capped[c]))
    for d, dataset in enumerate(datasets):
        if slots[d] is None:
            slots[d] = {(cell.t, cell.z): CellStart(cell.t, cell.z, *fits[d, i][:3],
                                                    float(cell.w[cell.w > 0.0].sum()),
                                                    *fits[d, i][3:])
                        for i, cell in enumerate(dataset.cells)}
    return slots


# --------------------------------------------------------------------------
# starting mappings
# --------------------------------------------------------------------------

# A mapping assigns warm-start components to compatible strata: per cell in
# canonical order, a permutation p such that the cell's j-th component
# (means ascending) initializes the compatible stratum whose free coordinate
# is p[j]. Mappings are numbered by their permutation indices read as base-k!
# digits (see _digits), so id 0 is the identity everywhere.

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


def _flat_sum(rows: np.ndarray) -> np.ndarray:
    """``rows.sum(axis=0)`` of an (n, B) array, n < 16, each column rounded
    as numpy's sum of n contiguous entries: left to right below 8, else the
    first 8 pairwise and then the rest left to right."""
    if len(rows) < 8:
        return _row_sum(rows.T)
    out = ((rows[0] + rows[1]) + (rows[2] + rows[3])) + ((rows[4] + rows[5]) + (rows[6] + rows[7]))
    for row in rows[8:]:
        out += row
    return out


def _initial_probs(warm, assign: np.ndarray, grid: StrataGrid) -> np.ndarray:
    """Joint strata probabilities reconciling the two arms' warm starts, for
    a batch of mappings.

    ``assign`` has shape (B, 2k, k): per mapping, the permutation of each
    cell in canonical order. Each arm's cell shares and mapped mixing
    proportions imply a joint table; the two are averaged and then balanced
    by iterative proportional fitting so the z1 margin matches the treated
    arm's cell shares and the z0 margin matches the control arm's.

    The table is kept as (z0, z1, B), the mappings on the contiguous last
    axis, so each IPF step is one elementwise pass over the batch; every
    margin and the final normalizer add their entries in the order numpy
    adds a (z0, z1) table of one mapping (left to right, and the k^2 entries
    as :func:`_flat_sum`). So a mapping's row does not depend on the rest of
    the batch. Returns (B, n_strata), z1-major as the grid orders the
    strata: the transposed view of a C-ordered (n_strata, B) array.
    """
    k = grid.k_levels
    b = len(assign)
    share = {}
    for t in (0, 1):
        v = np.array([warm[(t, z)].weight for z in range(k)])
        share[t] = v / v.sum()
    q1 = np.zeros((k, k, b))  # indexed [z0, z1, mapping]
    q0 = np.zeros((k, k, b))
    cols = np.arange(b)[:, None]
    for c, (t, z) in enumerate(cell_order(k)):
        mass = share[t][z] * warm[(t, z)].props
        if t == 1:
            q1[assign[:, c], z, cols] = mass
        else:
            q0[z, assign[:, c], cols] = mass
    q1 += q0
    q1 *= 0.5
    table = np.maximum(q1, 1e-12, out=q1)
    del q0
    for _ in range(50):
        table *= share[1][:, None] / _row_sum(table.transpose(1, 2, 0))
        table *= (share[0][:, None] / _row_sum(table.transpose(0, 2, 1)))[:, None, :]
    table /= _flat_sum(table.reshape(k * k, b))
    return table.transpose(1, 0, 2).reshape(k * k, b).T


def _start_sets(warm, ids, grid: StrataGrid, mean_structure: MeanStructure,
                scales: np.ndarray):
    """The initial parameter sets of a block of mapping ids, stacked as the
    EM kernel takes them: probabilities (B, n_strata), location coefficients
    (B, 2, n_loc), arm first, and ``scales`` repeated to (B, 2).

    Each cell's warm-start means fill the strata its permutation names, and
    under the linear structure each mapping's location table is projected
    onto the design by least squares, one mapping at a time (a multi-column
    solve rounds differently). Only the ids a fit starts from come here;
    ranking builds no start sets.
    """
    k = grid.k_levels
    assign = _perm_table(k)[_digits(ids, k)]
    rows = np.arange(len(assign))[:, None]
    table = np.zeros((len(assign), grid.n_strata, 2))
    for c, (t, z) in enumerate(cell_order(k)):
        table[rows, grid.compatible(t, z)[assign[:, c]], t] = warm[(t, z)].means
    if mean_structure is MeanStructure.LINEAR:
        design = linear_design(grid)
        table = np.array([np.linalg.lstsq(design, tab, rcond=None)[0] for tab in table])
    coef = np.ascontiguousarray(table.transpose(0, 2, 1))
    return _initial_probs(warm, assign, grid), coef, np.tile(scales, (len(assign), 1))


# The largest (cases x mappings) array start ranking builds, and
# the number of strata-probability entries per block of mappings: 2^15
# float64, 256 KiB. The bound topk ranks by builds (groups x mappings)
# arrays under the same cap.
_RANK_BLOCK = 1 << 15

# The number of consecutive groups, by outcome, into which topk's upper
# bound splits each cell's cases (see _initial_logliks). On the 1,500-per-arm
# three-level benchmark data, 32 groups ranked topk:10 fastest: 16 or 8 need
# 2-16 times as many mappings evaluated, 64 doubles the bound's logarithms.
_RANK_GROUPS = 32

# The number of mappings topk evaluates as one batch between two stop
# checks, or the count when that is larger.
_RANK_BATCH = 64

# The largest (sets x cases x strata) array the EM loop and _evaluate build,
# in float64 entries: 2^16, 512 KiB. Sets run in blocks sized to the widest
# cell, so the working set grows with neither the set count nor the cases.
_EM_BLOCK = 1 << 16


def _em_block(dataset: Dataset) -> int:
    """The number of parameter sets per block under ``_EM_BLOCK``."""
    widest = max(cell.y.size * cell.strata.size for cell in dataset.cells)
    return max(1, _EM_BLOCK // max(widest, 1))


def _rank_terms(dataset: Dataset, warm, family: Family, scales: np.ndarray) -> list:
    """Each non-empty cell's ranking term under the saturated structure:
    (cell index, cell, scaled densities ``E = exp(ld - top)`` (n_cell, c),
    weights, ``w @ top``), with ``ld`` the kernel's :func:`_cell_logdens` at
    the warm-start means and ``top`` its row maxima."""
    terms = []
    for c, cell in enumerate(dataset.cells):
        if cell.y.size:
            cs = warm[(cell.t, cell.z)]
            ld = _cell_logdens(cell, cs.means[None], scales[[cell.t]], family)[0]
            top = _row_max(ld)
            bad = ~np.isfinite(top)
            if bad.any():
                raise DegenerateMixtureError(int(cell.rows[np.flatnonzero(bad)[0]]))
            # the row maximum's column has E == 1, so E @ p > 0
            terms.append((c, cell, np.exp(ld - top[:, None]), cell.w, float(cell.w @ top)))
    return terms


def _grouped_terms(terms: list) -> list:
    """The terms of an upper bound on :func:`_rank_terms`' values: each
    cell's cases, sorted by outcome, in at most ``_RANK_GROUPS`` consecutive
    groups g, each standing for its cases with weight ``W_g`` and row
    ``m_g / W_g``, ``m_g = sum w_i E_i``. Log is concave, so ``sum_g w_i
    log(E_i @ p) <= W_g log(m_g @ p / W_g)`` (Jensen). Groups, and cells,
    of weight 0 add nothing and are dropped."""
    out = []
    for c, cell, dens, w, base in terms:
        order = np.argsort(cell.y, kind="stable")
        groups = min(_RANK_GROUPS, len(order))
        starts = np.arange(groups) * len(order) // groups
        weight = np.add.reduceat(w[order], starts)
        mass = np.add.reduceat(w[order, None] * dens[order], starts)
        keep = weight > 0.0
        if keep.any():
            out.append((c, cell, mass[keep] / weight[keep, None], weight[keep], base))
    return out


def _mapping_values(terms: list, warm, grid: StrataGrid, ids: np.ndarray | None = None,
                    wanted: np.ndarray | None = None) -> np.ndarray:
    """``sum_c base_c + w_c @ log(E_c @ p_c)`` of each mapping id in ``ids``
    (default: every id, ascending) over the ``terms`` of :func:`_rank_terms`
    or :func:`_grouped_terms`, with ``p_c`` the mapping's initial
    probabilities of cell c's strata in its permutation's order. The ids run
    in blocks of ``_RANK_BLOCK // n_strata`` (one batched IPF each), and each
    cell's ``E @ p`` products over chunks of ``_RANK_BLOCK // rows`` ids (one
    id at a time for a larger cell).

    BLAS rounds a column of a product by its place in it, so an id's value
    can differ in its last bits with where it sits in ``ids``. Given
    ``wanted`` (a mask over ``ids``), only the chunks that hold a wanted id
    are formed, the IPF runs only for their ids, and the other ids get
    ``-inf``: each wanted id gets the value it gets without ``wanted``, bit
    for bit.
    """
    k = grid.k_levels
    perms = _perm_table(k)
    block = _RANK_BLOCK // grid.n_strata
    steps = [max(1, _RANK_BLOCK // len(w)) for *_, w, _ in terms]
    out = np.zeros(n_mappings(k) if ids is None else len(ids))
    for lo in range(0, len(out), block):
        digits = _digits(np.arange(lo, min(lo + block, len(out))) if ids is None
                         else ids[lo:lo + block], k)
        if wanted is None:
            chunks = [range(0, len(digits), step) for step in steps]
            probs = _initial_probs(warm, perms[digits], grid)
        else:
            hit = np.flatnonzero(wanted[lo:lo + block])
            if not hit.size:
                continue
            chunks, rows = [], np.zeros(len(digits), dtype=bool)
            for step in steps:
                starts = hit // step * step  # ascending, as hit is
                chunks.append(starts[np.diff(starts, prepend=-1) > 0].tolist())
                for s in chunks[-1]:
                    rows[s:s + step] = True
            probs = np.zeros((len(digits), grid.n_strata))
            probs[rows] = _initial_probs(warm, perms[digits[rows]], grid)
        part = out[lo:lo + block]
        for (c, cell, dens, w, base), step, starts in zip(terms, steps, chunks):
            prior = np.take_along_axis(probs, cell.strata[perms[digits[:, c]]], axis=1)
            for s in starts:
                part[s:s + step] += base + w @ np.log(dens @ prior[s:s + step].T)
    if wanted is not None:
        out[~wanted] = -np.inf
    return out


def _initial_logliks(dataset, warm, grid, family, scales, top=None):
    """Initial-parameter log-likelihood of every mapping under the
    saturated structure, without running EM; it ranks the starts of either
    mean structure.

    Mappings are ranked in blocks of ids, so the working set does not grow
    with the mapping count. A cell's component density columns do not
    depend on the mapping, so each cell's scaled densities are computed once
    (:func:`_rank_terms`), and a mapping with cell priors ``p`` contributes
    ``w @ top + w @ log(E @ p)`` (:func:`_mapping_values`): about one
    logarithm per case and mapping.

    Given ``top`` (n), it returns these values only for the ids that can be
    among the n highest, and ``-inf`` for the rest:
    1. every mapping's upper bound (:func:`_grouped_terms`), about
       ``_RANK_GROUPS`` logarithms per cell and mapping;
    2. the ids in descending bound order (stable), evaluated
       ``max(n, _RANK_BATCH)`` at a time as one batch, until the next bound
       is below the n-th best value less the margin;
    3. the ids evaluated within the margin of the n-th best, or above it,
       evaluated again as among all ids (see :func:`_mapping_values`).
    The margin, twice ``1e-9 * (1 + |n-th| + sum_c |w_c @ top_c|)``, covers
    the rounding of a bound and of a batch's value. So every id left out is
    strictly below the n-th best value, and the n highest ids, ties to the
    lower id, are those of the full pass.
    """
    terms = _rank_terms(dataset, warm, family, scales)
    if top is None:
        return _mapping_values(terms, warm, grid)
    return _mapping_values(terms, warm, grid, wanted=_contenders(terms, warm, grid, top))


def _contenders(terms: list, warm, grid: StrataGrid, top: int) -> np.ndarray:
    """The mask of the mapping ids that can be among the ``top`` highest
    values, steps 1 and 2 of :func:`_initial_logliks`."""
    bound = _mapping_values(_grouped_terms(terms), warm, grid)
    total = len(bound)
    order = np.argsort(-bound, kind="stable")
    step = max(top, _RANK_BATCH)
    values = np.zeros(0)
    for lo in range(0, total, step):
        values = np.concatenate([values, _mapping_values(terms, warm, grid, order[lo:lo + step])])
        kth = np.partition(values, -top)[-top]
        margin = 2e-9 * (1.0 + abs(kth) + sum(abs(base) for *_, base in terms))
        if lo + step >= total or bound[order[lo + step]] < kth - margin:
            break
    wanted = np.zeros(total, dtype=bool)
    wanted[order[:len(values)][values >= kth - margin]] = True
    return wanted


def check_level_count(k: int, error: type[Exception] = DataError) -> None:
    """Raise ``error`` unless a fit can take k levels: 1, 2 or 3."""
    if not 1 <= k <= 3:
        count = f"{math.factorial(k)}^{2 * k} = {n_mappings(k):,}" if k > 3 else "no"
        raise error(f"{k} levels give {count} starting mappings; at least 1 and at most 3 "
                    "levels can be fitted")


def check_count(name: str, value, least: int | None = 1) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer, not a
    bool, of at least ``least`` (of any size for None)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and value < least):
        size = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an int{size}, not {value!r}")


def _mapping_count(dataset: Dataset, family: Family) -> int:
    """The starting-mapping count, once the censored rule and the 3-level cap hold."""
    check_censored(dataset.y, family)
    check_level_count(dataset.k_levels)
    return n_mappings(dataset.k_levels)


def _farthest_points(lls: np.ndarray, count: int) -> np.ndarray:
    """Farthest-point selection on the values: the highest first, then
    repeatedly the id farthest from every id chosen so far, lowest id on
    ties. Returns the chosen ids ascending."""
    picks = [int(np.argmax(lls))]
    gap = np.abs(lls - lls[picks[0]])
    gap[picks[0]] = -np.inf
    while len(picks) < count:
        pick = int(np.argmax(gap))
        picks.append(pick)
        np.minimum(gap, np.abs(lls - lls[pick]), out=gap)
        gap[pick] = -np.inf
    return np.sort(picks)


def select_starts(
    dataset: Dataset,
    warm,
    grid: StrataGrid,
    family: Family,
    strategy: tuple[str, int],
    scale_floor: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Rank all mappings by their initial log-likelihood under the saturated
    structure and return the ids of a subset, ascending; a fit under either
    mean structure starts from these ids.

    ``("topk", n)`` keeps the n highest initial values; ``("spread", n)``
    keeps n mappings by farthest-point selection on the initial values, so
    the retained starts cover the spread of the likelihood surface. Ties go
    to the lower mapping id. If n is at least the mapping count, every id is
    returned without ranking. Ranking is batched over all mappings (see
    :func:`_initial_logliks`). ``spread`` takes every mapping's value, about
    one logarithm per case and mapping. ``topk`` takes an upper bound of
    every mapping, about ``_RANK_GROUPS`` logarithms per cell and mapping,
    and the values of the few mappings whose bound reaches the n-th best; it
    keeps the ids that ranking every mapping keeps. More than three levels
    raise DataError.
    """
    kind, count = strategy
    if kind not in ("topk", "spread"):
        raise ValueError(f"unknown start-selection strategy: {kind!r}")
    total = _mapping_count(dataset, family)
    if count >= total:
        return np.arange(total)
    scales = _pooled_scales(warm, grid.k_levels, scale_floor)
    lls = _initial_logliks(dataset, warm, grid, family, scales,
                           count if kind == "topk" else None)
    if kind == "topk":
        return np.sort(np.argsort(-lls, kind="stable")[:count])
    return _farthest_points(lls, count)


# --------------------------------------------------------------------------
# EM driver
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FitConfig:
    """Convergence and start-selection knobs for :func:`fit`.

    ``tol`` is the relative log-likelihood change at which a start stops,
    ``max_iter`` caps the EM iterations of each start, ``starts`` is
    ``"all"`` or a ``(kind, n)`` selection (see :func:`parse_starts`), kept
    as a tuple with n an ``int``, and ``keep_history`` records every
    iteration's log-likelihood in the trace. ValueError rejects a ``tol``
    that is not finite or is below 0, a ``max_iter`` or a starts count that
    is not an int of at least 1, and any other ``starts``; a ``bool`` is no
    count."""

    tol: float = 1e-9
    max_iter: int = 2000
    starts: str | tuple[str, int] = "all"
    keep_history: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and at least 0, not {self.tol!r}")
        check_count("max_iter", self.max_iter)
        match self.starts:
            case "all":
                pass
            case ("topk" | "spread" as kind, n):
                check_count("the starts count", n)
                object.__setattr__(self, "starts", (kind, int(n)))
            case other:
                raise ValueError(f"invalid starts selection: {other!r}")


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
    """Outcome of one EM run: where it started and where it ended.

    ``stop_reason`` is ``"tol"`` (converged), ``"max_iter"``, ``"pruned"``
    (fell far behind the leader, see :func:`_run_starts`; its log-likelihood
    is a lower bound on where the start would have ended)
    or ``"nonmonotone"`` (its log-likelihood dropped, see
    :func:`_run_starts`). It is the start's only status: only ``"tol"``
    counts as converged."""

    mapping_id: int
    loglik: float
    params: ModelParams
    iterations: int
    floor_active: tuple[bool, bool]
    frozen: tuple[tuple[int, int], ...]
    stop_reason: str
    history: tuple[float, ...] = ()

    converged = property(lambda self: self.stop_reason == "tol")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Best solution across all starting mappings, with the full trace.

    The winner is the record of ``tie_ids[0]`` (see :func:`tie_ids`);
    ``params``, ``loglik``, ``mapping_id``, ``iterations``, ``converged``,
    ``floor_active`` and ``frozen`` are read from it, so a fit cannot
    contradict its trace (ValueError when ``tie_ids`` is empty or its first
    id names no record). Its posterior memberships are
    ``e_step(params, dataset)``."""

    trace: tuple[StartRecord, ...]
    tie_ids: tuple[int, ...]
    scale_floor: tuple[float, float]
    winner: StartRecord = field(init=False, repr=False)

    def __post_init__(self):
        first = self.tie_ids[0] if self.tie_ids else None
        winner = next((r for r in self.trace if r.mapping_id == first), None)
        if winner is None:
            raise ValueError(f"the first of tie_ids {list(self.tie_ids)} names no trace record")
        object.__setattr__(self, "winner", winner)

    params = property(lambda self: self.winner.params)
    loglik = property(lambda self: self.winner.loglik)
    mapping_id = property(lambda self: self.winner.mapping_id)
    iterations = property(lambda self: self.winner.iterations)
    converged = property(lambda self: self.winner.converged)
    floor_active = property(lambda self: self.winner.floor_active)
    frozen = property(lambda self: self.winner.frozen)


def tie_ids(ids: Sequence[int], lls: Sequence[float]) -> tuple[int, ...]:
    """The ids within ``LOGLIK_TIE_TOL`` of the best of ``lls``, ascending; the first wins."""
    best = max(lls)
    return tuple(sorted(i for i, v in zip(ids, lls) if best - v <= LOGLIK_TIE_TOL))


def near_ties(lls, best) -> np.ndarray:
    """Which ``lls`` lie within ``NEAR_TIE_REL`` of ``best``, relative: a fit's near ties."""
    return best - np.asarray(lls) <= NEAR_TIE_REL * np.maximum(np.abs(best), 1e-300)


# Short-run/long-run EM (Biernacki, Celeux & Govaert 2003, CSDA 41:561); the
# rule is _pruned. A lag per unit of case weight W does not move with the
# units of y (rescaling y by c moves every log-likelihood by -W log c), nor,
# on average, with the number of cases. The projected gain is Aitken's
# extrapolation of EM's linear convergence (Boehning et al. 1994, AISM
# 46:373), from evaluation 3, the first with the two gains it needs.
# Calibration (tools/prune_calibration.py report, CHANGES.md) on runs
# without pruning of the benchmark's four workloads at data seeds 0-15 and a
# 96-fit recovery grid: starts that ended a near tie trailed by at most
# 1.95e-2 per unit of case weight at evaluation 5 and 3.1e-3 at 10 (2.0e-3 at
# 30), so the margin, 0.04 at 5 and 0.7 times that per evaluation after, is
# at least 2.05 times that lag at each (at 2, 3 and 4 they trailed by up to
# 0.136, 0.076 and 0.036, so the margin starts at 5); and, outside the
# near-tie band of the lead (the floor), by at most 84.8 times their
# projected gain (42.3 at 3-10), so _PRUNE_AHEAD = 200 leaves 2.36 (4.73).
_AITKEN_FROM = 3
_SHORT_PHASE = 5
_SHORT_END = 10
_PRUNE_MARGIN = 4e-2
_MARGIN_DECAY = 0.7
_PRUNE_AHEAD = 200.0


def _margin(it):
    """The margin per unit of case weight at evaluations ``it`` (ints or an
    array) from ``_SHORT_PHASE`` to ``_SHORT_END``; unbounded elsewhere."""
    return np.where((it >= _SHORT_PHASE) & (it <= _SHORT_END),
                    _PRUNE_MARGIN * _MARGIN_DECAY ** (it - _SHORT_PHASE), np.inf)


def _projected_gain(gain, gain_prev, it, max_iter):
    """The remaining gain at evaluation ``it`` projected from the last two
    gains g and g_prev: Aitken's g*r/(1 - r), r = g/g_prev (unbounded unless
    0 <= r < 1), capped by g*(max_iter - it + 1), that of every M-step left."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = gain / gain_prev
        aitken = np.where((r >= 0.0) & (r < 1.0), gain * r / (1.0 - r), np.inf)
    return np.minimum(aitken, gain * (max_iter - it + 1))


def _pruned(lead, ll, gain, gain_prev, it, max_iter, weight):
    """Whether starts running at evaluation ``it`` stop as pruned: ``ll`` is
    no near tie of ``lead`` (the best any start has reached) and trails it by
    more than the margin times the total case weight or, from
    ``_AITKEN_FROM`` on, ``_PRUNE_AHEAD`` times the projected gain."""
    ahead = np.where(it >= _AITKEN_FROM, _projected_gain(gain, gain_prev, it, max_iter), np.inf)
    bound = np.minimum(_margin(it) * weight, _PRUNE_AHEAD * ahead)
    return (lead - ll > bound) & ~near_ties(ll, lead)


# A start whose log-likelihood drops by more than _DROP_TOL * |ll| between
# two evaluations stops as "nonmonotone": EM never lowers the likelihood.
_DROP_TOL = 1e-10


def _run_starts(dataset, ids, probs, coef, scales, family, mean_structure, tol, max_iter,
                scale_floor, keep_history) -> list[StartRecord]:
    """Run EM from the starts with mapping ids ``ids`` and initial sets
    ``probs`` (S, n_strata), ``coef`` (S, 2, n_loc) and ``scales`` (S, 2),
    as :func:`_start_sets` builds them, and return their records in order.
    The arrays given are copied, not written.

    All running starts advance together, one iteration at a time, in blocks
    of ``_em_block(dataset)`` starts. Each block takes its M-step, written
    into the running sets in place, and then its E-step: one pass of the
    kernel over the cells, adding up the block's log-likelihoods and the
    statistics of its next M-step. A start stops once its log-likelihood
    changes by at most ``tol * max(1, |ll|)`` (``"tol"``), else once it drops
    by more than ``_DROP_TOL * |ll|`` (``"nonmonotone"``), or after
    ``max_iter`` M-steps and one more evaluation (``"max_iter"``).

    A running start that did not meet the stop rule stops as ``"pruned"``
    where :func:`_pruned` says (calibrated above its constants), checked
    from evaluation ``_AITKEN_FROM`` (or ``_SHORT_PHASE``, if earlier). A start
    pruned at evaluation ``it`` gets the record EM would give it with
    ``max_iter = it - 1`` apart from its stop reason; its log-likelihood is a
    lower bound on where it would have ended. A set is rounded alike in any
    block, so every record that is not pruned is the one the start would get
    running on its own.
    """
    grid = StrataGrid(dataset.k_levels)
    design = _design(grid, mean_structure)
    block = _em_block(dataset)
    n = len(ids)
    pos = np.arange(n)  # the running starts' places in ``ids``
    probs, coef, scales = probs.copy(), coef.copy(), scales.copy()
    frozen = np.zeros((n, 2, grid.n_strata), dtype=bool)
    floor = np.zeros((n, 2), dtype=bool)
    stats = np.zeros((n, 2, grid.n_strata, 4 if family is Family.TOBIT else 3))
    history: list[list[float]] = [[] for _ in ids]
    records: list[StartRecord] = [None] * n
    ll = gain = np.full(n, np.nan)  # before the first evaluation; NaN meets no stop rule
    lead = -np.inf  # the best log-likelihood any start has reached

    def finish(done, iterations, reason):
        for j in np.flatnonzero(done):
            i = pos[j]
            params = ModelParams(grid, probs[j], coef[j].T, scales[j], family, mean_structure)
            records[i] = StartRecord(int(ids[i]), float(ll[j]), params, iterations,
                                     tuple(map(bool, floor[j])),
                                     tuple((int(s), int(t)) for t, s in np.argwhere(frozen[j])),
                                     reason, tuple(history[i]))

    def table(s):  # the location table (S, 2, n_strata) of the starts in s
        return coef[s] if mean_structure is MeanStructure.SATURATED else coef[s] @ design.T

    for it in itertools.count(1):
        if not pos.size:
            return records
        ll_prev, ll = ll, np.zeros(len(pos))
        for lo in range(0, len(pos), block):
            s = slice(lo, lo + block)
            if it > 1:  # the M-step after the last evaluation
                probs[s], coef[s], scales[s], frozen[s], floor[s] = _m_step_core(
                    stats[s], grid, family, mean_structure, (table(s), scales[s]), scale_floor)
            for cell, lse, post in _mixture(dataset, _log_probs(probs[s]), table(s), scales[s],
                                            family, True):
                ll[s] += _dot(lse, cell.w)
                _accumulate(stats[s], cell, post, family)
        if keep_history:
            for i, value in zip(pos, ll.tolist()):
                history[i].append(value)
        if it > max_iter:  # the evaluation after the last M-step
            finish(pos >= 0, max_iter, "max_iter")
            return records
        gain_prev, gain = gain, ll - ll_prev
        size = np.abs(ll)
        met = np.abs(gain) <= tol * np.maximum(1.0, size)
        drop = (gain < -_DROP_TOL * size) & ~met
        finish(drop, it, "nonmonotone")
        finish(met, it, "tol")
        stop = met | drop
        lead = max(lead, ll.max())
        if it >= min(_AITKEN_FROM, _SHORT_PHASE):  # the first evaluation either bound can cut
            cut = _pruned(lead, ll, gain, gain_prev, it, max_iter, float(dataset.w.sum())) & ~stop
            finish(cut, it - 1, "pruned")
            stop |= cut
        if stop.any():
            pos, probs, coef, scales, frozen, floor, stats, ll, gain = (
                a[~stop] for a in (pos, probs, coef, scales, frozen, floor, stats, ll, gain))


def fit(
    dataset: Dataset,
    family: Family = Family.NORMAL,
    mean_structure: MeanStructure = MeanStructure.SATURATED,
    config: FitConfig | None = None,
    warm: dict[tuple[int, int], CellStart] | None = None,
) -> FitResult:
    """Maximize the weighted mixture likelihood over all starting mappings.

    Runs EM from every enumerated (or selected) component-to-stratum
    assignment, all starts advancing together (see :func:`_run_starts`), and
    returns the best final log-likelihood, with the complete per-start
    trace. Starts that fall far behind stop early as ``"pruned"`` (see
    :func:`_run_starts`). Ties (see :func:`tie_ids`) go to the lowest
    mapping id and are recorded. Raises ConvergenceError (carrying the
    trace) when the best start stopped at ``max_iter`` and no start
    converged, DataError on empty cells or more than three levels. A pruned
    start never counts as converged (run on, it might have converged and let
    the capped winner return unconverged); a best start that stopped as
    ``"nonmonotone"`` returns unconverged.

    ``warm`` is the dataset's cell starts, ``warm_start_cells(dataset,
    family)`` or its slot of a call on several datasets, for a caller that
    has computed them already (a recovery study warm-starts a chunk of
    replicates at once); None computes them here, after the checks above.
    The fit is the same, bit for bit.
    """
    config = config or FitConfig()
    total = _mapping_count(dataset, family)
    grid = StrataGrid(dataset.k_levels)
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
    if warm is None:
        warm = warm_start_cells(dataset, family)
    if config.starts == "all":
        ids = np.arange(total)
    else:
        ids = select_starts(dataset, warm, grid, family, config.starts, scale_floor)
    scales = _pooled_scales(warm, grid.k_levels, scale_floor)
    records = _run_starts(dataset, ids, *_start_sets(warm, ids, grid, mean_structure, scales),
                          family, mean_structure, config.tol, config.max_iter, scale_floor,
                          config.keep_history)
    tied = tie_ids([r.mapping_id for r in records], [r.loglik for r in records])
    result = FitResult(tuple(records), tied, scale_floor)
    if result.winner.stop_reason == "max_iter" and not any(r.converged for r in records):
        raise ConvergenceError(
            f"no starting mapping converged within {config.max_iter} iterations",
            trace=records,
        )
    return result
