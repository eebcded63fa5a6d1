"""Parameter-recovery studies for the strata mixture estimator.

Generates data from a known four- or nine-strata model, refits the normal
family with the full starting-mapping machinery, and scores whether the
fitted components landed on the right strata. Scoring is permutation-aware:
a fit that is correct only up to a within-cell relabeling counts as swapped.
:func:`run_study` runs the replicates of one :class:`SimConfig` in the
calling thread, each from its own spawned seed, so a study is deterministic
given its config. It draws them in chunks whose cells fill one lockstep
group of warm starts, warm-starts each chunk at once and then fits its
replicates one after another; every replicate's result is the one it gets
alone (:func:`run_replicate`). A grid of sample sizes, dispersions,
probability scenarios and disturbance shapes is a list of configs, one
study each. Configs that differ only in shape share their replicate seeds,
so a non-normal shape's report pairs replicate by replicate with the normal
one: the misspecification comparison.

A disturbance shape is a name in ``SHAPES`` and a parameter: ``normal``
takes none, ``heavy_tail:df`` is a Student-t with df > 2 and ``skewed:g`` a
shifted log-normal with skewness g. Every shape is scaled to unit SD, so
``dispersion_sd`` means the same under each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import em
from .core import Dataset, ModelParams, StrataGrid
from .densities import Family
from .em import NEAR_TIE_REL, FitConfig, check_count, check_level_count, fit, near_ties
from .errors import StratfitError, WarmStartError

__all__ = ["NEAR_TIE_REL", "SHAPES", "RecoveryReport", "ReplicateResult", "SimConfig", "generate",
           "parse_shape", "run_replicate", "run_study", "scenario_probs", "shape_label",
           "standardized_draws", "true_model"]  # NEAR_TIE_REL is em's, re-exported
SHAPES = ("normal", "heavy_tail", "skewed")


def scenario_probs(scenario: str, k_levels: int) -> np.ndarray:
    """Strata probability vectors behind the named scenarios.

    Four strata: unequal = (0.4, 0.3, 0.2, 0.1), one_small =
    (0.45, 0.30, 0.20, 0.05), uniform = 1/4. Larger grids follow the same
    pattern: descending weights, a 0.05 last stratum, or uniform.
    """
    s = k_levels * k_levels
    if scenario == "uniform":
        return np.full(s, 1.0 / s)
    if scenario == "unequal":
        v = np.arange(s, 0, -1, dtype=float)
        return v / v.sum()
    if scenario == "one_small":
        if s < 2:
            raise ValueError(f"probability scenario 'one_small' needs at least 2 levels, "
                             f"not {k_levels}")
        if k_levels == 2:
            return np.array([0.45, 0.30, 0.20, 0.05])
        v = np.arange(s - 1, 0, -1, dtype=float)
        return np.append(0.95 * v / v.sum(), 0.05)
    raise ValueError(f"unknown probability scenario: {scenario!r}")


def _check_shape(shape: str, shape_param: float | None) -> None:
    """Reject a (shape, parameter) pair that names no disturbance law."""
    if shape not in SHAPES:
        raise ValueError(f"unknown disturbance shape: {shape!r}")
    if shape == "normal":
        if shape_param is not None:
            raise ValueError("the normal shape takes no parameter")
    elif shape_param is None:
        raise ValueError(f"shape {shape!r} needs a parameter, e.g. '{shape}:3'")
    elif not math.isfinite(shape_param):
        raise ValueError(f"shape {shape!r} needs a finite parameter, not {shape_param!r}")
    elif shape == "heavy_tail" and not shape_param > 2.0:
        raise ValueError("heavy-tail degrees of freedom must exceed 2")


def parse_shape(text: str) -> tuple[str, float | None]:
    """Parse a shape spec like 'normal', 'heavy_tail:3' or 'skewed:1.5'."""
    name, _, param = text.partition(":")
    value = float(param) if param and name in SHAPES else None
    _check_shape(name, value)
    return name, value


def shape_label(shape: str, shape_param: float | None) -> str:
    return shape if shape_param is None else f"{shape}:{shape_param:g}"


def _lognormal_shape(skew: float) -> float:
    """Solve (w + 2) sqrt(w - 1) = |skew| for w = exp(sigma_ln^2) >= 1."""
    s2 = skew * skew
    # The cubic w^3 + 3w^2 - (4 + s^2) = 0 in v = w + 1 reads v^3 - 3v = 2 + s^2.
    v = 2.0 * math.cosh(math.acosh((2.0 + s2) / 2.0) / 3.0)
    return v - 1.0


def standardized_draws(shape: str, shape_param: float | None, size,
                       rng: np.random.Generator) -> np.ndarray:
    """Mean-zero, unit-SD disturbances: standard normal; ``heavy_tail``, a
    Student-t with ``shape_param`` > 2 degrees of freedom; or ``skewed``, a
    shifted log-normal with skewness ``shape_param`` (mirrored when
    negative, normal at zero)."""
    _check_shape(shape, shape_param)
    if shape == "heavy_tail":
        df = shape_param
        return rng.standard_t(df, size=size) / math.sqrt(df / (df - 2.0))
    if shape == "normal" or shape_param == 0.0:
        return rng.standard_normal(size)
    w = _lognormal_shape(shape_param)
    draws = np.exp(math.sqrt(math.log(w)) * rng.standard_normal(size))
    std = (draws - math.sqrt(w)) / math.sqrt(w * (w - 1.0))
    return std if shape_param > 0.0 else -std


@dataclass(frozen=True, eq=False)
class SimConfig:
    """One cell of the recovery study.

    ``dispersion_sd`` is the separation of adjacent compatible strata means
    within each observed cell, in component-SD units; ``effect`` is the
    built-in arm contrast shared by every stratum.
    """

    n_per_arm: int = 1000
    dispersion_sd: float = 1.6
    prob_scenario: str = "unequal"
    shape: str = "normal"
    shape_param: float | None = None
    k_levels: int = 2
    effect: float = 2.0
    sigma: float = 1.0
    replicates: int = 100
    seed: int = 0
    starts: str | tuple[str, int] = FitConfig.starts
    tol: float = FitConfig.tol
    max_iter: int = FitConfig.max_iter

    def __post_init__(self):
        check_count("k_levels", self.k_levels, None)
        check_level_count(self.k_levels, ValueError)
        if self.n_per_arm < 2 * self.k_levels**2:
            raise ValueError("n_per_arm must be at least twice the strata count")
        if not (math.isfinite(self.dispersion_sd) and self.dispersion_sd >= 0.0):
            raise ValueError(f"dispersion_sd must be finite and nonnegative, "
                             f"not {self.dispersion_sd!r}")
        check_count("replicates", self.replicates)
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and positive, not {self.sigma!r}")
        if not math.isfinite(self.effect):
            raise ValueError(f"effect must be finite, not {self.effect!r}")
        scenario_probs(self.prob_scenario, self.k_levels)
        _check_shape(self.shape, self.shape_param)
        checked = FitConfig(tol=self.tol, max_iter=self.max_iter, starts=self.starts)
        object.__setattr__(self, "starts", checked.starts)  # as a (kind, int) tuple


def true_model(config: SimConfig) -> ModelParams:
    """The generating parameter set for a config.

    Locations are effect*t + gap*(z0 + z1) with gap = dispersion_sd * sigma,
    so within every observed cell adjacent compatible means sit exactly one
    gap apart and the arm contrast is constant across strata.
    """
    grid = StrataGrid(config.k_levels)
    gap = config.dispersion_sd * config.sigma
    locations = np.array(
        [[config.effect * t + gap * (z0 + z1) for t in (0, 1)] for z0, z1 in grid.strata]
    )
    return ModelParams(
        grid=grid,
        probs=scenario_probs(config.prob_scenario, config.k_levels),
        locations=locations,
        scales=np.array([config.sigma, config.sigma]),
        family=Family.NORMAL,
    )


def _generate_labeled(config: SimConfig, rng: np.random.Generator):
    truth = true_model(config)
    grid = truth.grid
    n = config.n_per_arm
    strata = rng.choice(grid.n_strata, size=2 * n, p=truth.probs)
    t = np.repeat([0, 1], n)
    coords = np.array(grid.strata)  # (S, 2) columns z0, z1
    z = np.where(t == 1, coords[strata, 1], coords[strata, 0])
    table = truth.location_table()
    draws = standardized_draws(config.shape, config.shape_param, 2 * n, rng)
    y = table[strata, t] + config.sigma * draws
    return Dataset.from_arrays(y, t, z, k_levels=config.k_levels), truth, strata


def generate(config: SimConfig, rng: np.random.Generator) -> tuple[Dataset, ModelParams]:
    """Draw one dataset: n_per_arm cases per arm, strata multinomial, outcome
    from the (stratum, arm) component under the configured shape, unit
    weights, singleton clusters."""
    dataset, truth, _ = _generate_labeled(config, rng)
    return dataset, truth


@dataclass(frozen=True, eq=False)
class ReplicateResult:
    index: int
    ok: bool
    error: str | None = None
    loglik: float | None = None
    mapping_id: int | None = None
    label_correct: bool | None = None
    n_near_ties: int | None = None
    location_error: np.ndarray | None = None  # fitted - true, (S, 2)
    prob_error: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """Replicate-level records plus the aggregates used for acceptance."""

    config: SimConfig
    truth: ModelParams
    replicates: tuple[ReplicateResult, ...]

    @property
    def ok(self) -> tuple[ReplicateResult, ...]:
        return tuple(r for r in self.replicates if r.ok)

    @property
    def n_failed(self) -> int:
        return sum(not r.ok for r in self.replicates)

    @property
    def fraction_label_correct(self) -> float:
        ok = self.ok
        if not ok:
            return float("nan")
        return float(np.mean([r.label_correct for r in ok]))

    def location_rmse(self, correct_only: bool = False) -> np.ndarray:
        """Per-location RMSE over replicates, in outcome units; restrict to
        label-correct replicates with ``correct_only``."""
        recs = [r for r in self.ok if (r.label_correct or not correct_only)]
        if not recs:
            return np.full_like(self.truth.location_table(), np.nan)
        errs = np.stack([r.location_error for r in recs])
        return np.sqrt((errs**2).mean(axis=0))

    @property
    def prob_mae(self) -> float:
        ok = self.ok
        if not ok:
            return float("nan")
        return float(np.mean([np.abs(r.prob_error).mean() for r in ok]))

    @property
    def near_tie_fraction(self) -> float:
        """Share of replicates in which at least one other starting mapping
        landed within ``NEAR_TIE_REL`` of the winner's log-likelihood (see
        :func:`em.near_ties`)."""
        ok = self.ok
        if not ok:
            return float("nan")
        return float(np.mean([r.n_near_ties >= 2 for r in ok]))


def _replicate_rng(config: SimConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
    )


def run_replicate(config: SimConfig, index: int, drawn=None) -> ReplicateResult:
    """Fit and score replicate ``index``. ``drawn`` is its (dataset, truth,
    warm starts or None) where :func:`run_study` has drawn it and
    warm-started it with its chunk; by default it is drawn here and ``fit``
    computes its warm starts. The result is the same either way."""
    dataset, truth, warm = drawn or (*generate(config, _replicate_rng(config, index)), None)
    try:
        res = fit(dataset, config=FitConfig(tol=config.tol, max_iter=config.max_iter,
                                            starts=config.starts), warm=warm)
    except StratfitError as exc:
        return ReplicateResult(index=index, ok=False, error=str(exc))
    true_table = truth.location_table()
    loc_err = res.params.location_table() - true_table
    gap = config.dispersion_sd * config.sigma
    label_correct = bool(gap > 0.0 and np.all(np.abs(loc_err) < 0.5 * gap))
    near = int(near_ties([r.loglik for r in res.trace], res.loglik).sum())
    return ReplicateResult(
        index=index,
        ok=True,
        loglik=res.loglik,
        mapping_id=res.mapping_id,
        label_correct=label_correct,
        n_near_ties=near,
        location_error=loc_err,
        prob_error=res.params.probs - truth.probs,
    )


def _chunks(config: SimConfig):
    """The replicates, drawn in order, as lists of (index, dataset, truth)
    whose cells fit one lockstep group of warm starts (see
    ``em._one_warm_group``); a replicate too large for one is a chunk alone."""
    chunk = []
    for i in range(config.replicates):
        dataset, truth = generate(config, _replicate_rng(config, i))
        if chunk and not em._one_warm_group([d for _, d, _ in chunk] + [dataset]):
            yield chunk
            chunk = []
        chunk.append((i, dataset, truth))
    yield chunk


def run_study(config: SimConfig) -> RecoveryReport:
    """All replicates of one config; deterministic given the config seed.

    Each chunk of replicates (see :func:`_chunks`) is warm-started by one
    ``em.warm_start_cells`` call; then :func:`run_replicate` fits and scores
    its replicates in order, each dataset released after its fit. Every
    result equals that of ``run_replicate(config, index)`` alone: a
    replicate whose warm start failed is fitted without one, so ``fit``
    raises what it raises alone."""
    recs = []
    for chunk in _chunks(config):
        starts = em.warm_start_cells([dataset for _, dataset, _ in chunk], Family.NORMAL)
        chunk.reverse()  # popped in replicate order, each released after its fit
        starts.reverse()
        while chunk:
            (i, dataset, truth), warm = chunk.pop(), starts.pop()
            if isinstance(warm, WarmStartError):
                warm = None
            recs.append(run_replicate(config, i, (dataset, truth, warm)))
    return RecoveryReport(config=config, truth=true_model(config), replicates=tuple(recs))
