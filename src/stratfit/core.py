"""Parameter space for the principal-strata mixture model.

Holds the strata grid over joint potential institutionalization levels, the
structured parameter set (strata probabilities, per-(stratum, arm) locations,
per-arm scales), observed datasets, and the flat-vector transform used by
numerical differentiation. Everything here is immutable after construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .densities import Family
from .errors import DataError

PROB_TOL = 1e-12


def check_censored(y: np.ndarray, family: Family) -> None:
    """The censored family's rule: no negative outcome (DataError with its row)."""
    if family is Family.TOBIT and np.any(bad := np.asarray(y) < 0.0):
        raise DataError("negative outcome under censored family", row=int(np.argmax(bad)))


@dataclass(frozen=True)
class StrataGrid:
    """Enumeration of the (z0, z1) strata for k institutionalization levels.

    Strata are ordered row-major over the z1 x z0 table, so
    ``index(z0, z1) == z1 * k_levels + z0``.
    """

    k_levels: int

    def __post_init__(self):
        if self.k_levels < 1:
            raise ValueError("k_levels must be at least 1")

    @property
    def n_strata(self) -> int:
        return self.k_levels * self.k_levels

    @property
    def strata(self) -> tuple[tuple[int, int], ...]:
        k = self.k_levels
        return tuple((z0, z1) for z1 in range(k) for z0 in range(k))

    def index(self, z0: int, z1: int) -> int:
        k = self.k_levels
        if not (0 <= z0 < k and 0 <= z1 < k):
            raise ValueError(f"stratum ({z0}, {z1}) outside a {k}-level grid")
        return z1 * k + z0

    def compatible(self, t: int, z_obs: int) -> np.ndarray:
        """Stratum indices a case in cell (t, z_obs) can belong to.

        A treated case pins z1 and mixes over z0; a control case pins z0 and
        mixes over z1. Ordered by the free coordinate ascending.
        """
        k = self.k_levels
        if t == 1:
            return np.array([self.index(z0, z_obs) for z0 in range(k)])
        return np.array([self.index(z_obs, z1) for z1 in range(k)])


class MeanStructure(enum.Enum):
    """How locations vary over strata: one free location per stratum, or the
    four-coefficient surface intercept + b1*z1 + b0*z0 + g*z1*z0 per arm."""

    SATURATED = "saturated"
    LINEAR = "linear"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


LINEAR_COEF_NAMES = ("intercept", "z1", "z0", "z1z0")


def linear_design(grid: StrataGrid) -> np.ndarray:
    """Design matrix (n_strata x 4) expanding linear coefficients to strata."""
    rows = [(1.0, z1, z0, z1 * z0) for z0, z1 in grid.strata]
    return np.array(rows, dtype=float)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Full parameter set: strata probabilities, locations, per-arm scales.

    ``locations`` has one row per stratum under the saturated structure and
    one row per linear coefficient (4) under the linear structure; column t
    is the arm. Scales are shared across strata within an arm.
    """

    grid: StrataGrid
    probs: np.ndarray
    locations: np.ndarray
    scales: np.ndarray
    family: Family = Family.NORMAL
    mean_structure: MeanStructure = MeanStructure.SATURATED

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        locations = np.asarray(self.locations, dtype=float)
        scales = np.asarray(self.scales, dtype=float)
        s = self.grid.n_strata
        if probs.shape != (s,):
            raise ValueError(f"probs must have shape ({s},)")
        n_loc = 4 if self.mean_structure is MeanStructure.LINEAR else s
        if locations.shape != (n_loc, 2):
            raise ValueError(f"locations must have shape ({n_loc}, 2)")
        if scales.shape != (2,):
            raise ValueError("scales must be two strictly positive values")
        _check_values(probs, locations, scales)
        for name, arr in (("probs", probs), ("locations", locations), ("scales", scales)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def location_table(self) -> np.ndarray:
        """Locations expanded to one row per stratum (n_strata x 2)."""
        return location_tables(self.locations, self)


def _check_values(probs: np.ndarray, locations: np.ndarray, scales: np.ndarray) -> None:
    """The value rules of :class:`ModelParams` over any leading axes: finite
    entries, probabilities nonnegative and summing to 1 along the last axis,
    positive scales. A breach raises ValueError naming the field."""
    for name, arr in (("probs", probs), ("locations", locations), ("scales", scales)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    if np.any(probs < 0.0) or np.any(np.abs(probs.sum(axis=-1) - 1.0) > PROB_TOL):
        raise ValueError("probs must be nonnegative and sum to 1")
    if np.any(scales <= 0.0):
        raise ValueError("scales must be two strictly positive values")


def location_tables(locations: np.ndarray, like: ModelParams) -> np.ndarray:
    """Locations (..., n_loc, 2) of ``like``'s grid and mean structure
    expanded to one row per stratum (..., n_strata, 2); each stacked table
    rounds as one set's own."""
    if like.mean_structure is MeanStructure.SATURATED:
        return locations
    return linear_design(like.grid) @ locations


def pack(params: ModelParams) -> np.ndarray:
    """Flatten to an unconstrained vector: probability log-ratios against the
    last stratum, raw locations, log scales."""
    p = params.probs
    with np.errstate(divide="ignore"):
        logits = np.log(p[:-1]) - np.log(p[-1])
    return np.concatenate([logits, params.locations.ravel(), np.log(params.scales)])


def unpack_stack(points: np.ndarray, like: ModelParams):
    """Inverse of :func:`pack` for a stack of flat vectors (P, p): returns
    the stacked probabilities (P, n_strata), locations (P, n_loc, 2) and
    scales (P, 2); ``like`` supplies the grid and shapes. Each row rounds as
    when unpacked alone, and a row breaking a :class:`ModelParams` rule
    raises its ValueError (see :func:`_check_values`)."""
    points = np.asarray(points, dtype=float)
    s = like.grid.n_strata
    n_loc = like.locations.size
    if points.ndim != 2 or points.shape[1] != s - 1 + n_loc + 2:
        raise ValueError("flat vector length does not match the parameter shape")
    logits = np.concatenate([points[:, : s - 1], np.zeros((len(points), 1))], axis=1)
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    locations = points[:, s - 1 : s - 1 + n_loc].reshape(-1, *like.locations.shape)
    scales = np.exp(points[:, s - 1 + n_loc :])
    _check_values(probs, locations, scales)
    return probs, locations, scales


def unpack(vec: np.ndarray, like: ModelParams) -> ModelParams:
    """Inverse of :func:`pack`, the one-row case of :func:`unpack_stack`;
    ``like`` supplies the grid, family and shapes."""
    probs, locations, scales = unpack_stack(np.asarray(vec, dtype=float)[None], like)
    return ModelParams(
        grid=like.grid,
        probs=probs[0],
        locations=locations[0],
        scales=scales[0],
        family=like.family,
        mean_structure=like.mean_structure,
    )


def param_names(params: ModelParams, packed: bool = False) -> list[str]:
    """Names aligned with :func:`pack` order (packed) or with the natural
    parameters (probs, locations, scales) in reporting order."""
    strata = params.grid.strata
    names = []
    if packed:
        names += [f"logratio_p_z0{z0}_z1{z1}" for z0, z1 in strata[:-1]]
    else:
        names += [f"p_z0{z0}_z1{z1}" for z0, z1 in strata]
    if params.mean_structure is MeanStructure.LINEAR:
        rows = LINEAR_COEF_NAMES
        loc_names = [f"coef_{r}_t{t}" for r in rows for t in (0, 1)]
    else:
        loc_names = [f"loc_z0{z0}_z1{z1}_t{t}" for z0, z1 in strata for t in (0, 1)]
    names += loc_names
    names += [f"log_scale_t{t}" if packed else f"scale_t{t}" for t in (0, 1)]
    return names


def cell_order(k_levels: int) -> list[tuple[int, int]]:
    """Canonical cell order: treated arm by z ascending, then control."""
    return [(1, z) for z in range(k_levels)] + [(0, z) for z in range(k_levels)]


@dataclass(frozen=True, eq=False)
class Cell:
    """The cases of one observed (arm, z) cell and the strata they mix over."""

    t: int
    z: int
    rows: np.ndarray    # dataset row indices, ascending
    strata: np.ndarray  # compatible strata, free coordinate ascending
    y: np.ndarray
    y2: np.ndarray
    w: np.ndarray
    zero: np.ndarray  # local indices with y == 0
    pos: np.ndarray   # local indices with y > 0


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed cases: outcome, arm, observed institutionalization level,
    case weight and cluster label. Arrays are aligned and immutable; the
    cluster labels are stored as dense codes 0, 1, ... in label order. A
    case breaking a per-case rule raises DataError with its ``row``."""

    y: np.ndarray
    t: np.ndarray
    z: np.ndarray
    w: np.ndarray
    cluster: np.ndarray
    k_levels: int

    def __post_init__(self):
        n = len(self.y)
        for name in ("t", "z", "w", "cluster"):
            if len(getattr(self, name)) != n:
                raise DataError(f"column '{name}' length differs from 'y'")
        # each rule reads the raw column, before t and z are cast to int64
        y, t, z, w = (np.asarray(getattr(self, name), dtype=float) for name in "ytzw")
        k = self.k_levels
        for bad, message in (
            (~np.isfinite(y), "outcomes must be finite"),
            ((t != 0.0) & (t != 1.0), "arm indicator must be 0 or 1"),
            (~np.isfinite(w) | (w < 0.0), "weights must be finite and nonnegative"),
            ((z != np.floor(z)) | (z < 0.0) | (z >= k),
             f"observed institutionalization level outside the integers in [0, {k})"),
        ):
            if bad.any():
                raise DataError(message, row=int(np.argmax(bad)))
        labels = np.asarray(self.cluster)
        if labels.dtype == object:  # np.unique would sort by Python comparisons
            labels = labels.tolist()
            code = {v: i for i, v in enumerate(sorted(set(labels)))}
            cluster = np.array([code[v] for v in labels], dtype=np.int64)
        else:
            cluster = np.unique(labels, return_inverse=True)[1].astype(np.int64)
        for name, arr in zip(("y", "t", "z", "w", "cluster"),
                             (y, t.astype(np.int64), z.astype(np.int64), w, cluster)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def n_clusters(self) -> int:
        return int(self.cluster.max(initial=-1)) + 1

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """Partition of the rows into the observed (arm, z) cells, in
        :func:`cell_order`; built on first use."""
        grid = StrataGrid(self.k_levels)
        out = []
        for t, z in cell_order(self.k_levels):
            rows = np.flatnonzero((self.t == t) & (self.z == z))
            y = self.y[rows]
            out.append(
                Cell(
                    t=t, z=z, rows=rows, strata=grid.compatible(t, z),
                    y=y, y2=y * y, w=self.w[rows],
                    zero=np.flatnonzero(y == 0.0), pos=np.flatnonzero(y > 0.0),
                )
            )
        return tuple(out)

    def empty_cells(self) -> list[tuple[int, int]]:
        """(t, z) cells with no positive-weight case."""
        return sorted((c.t, c.z) for c in self.cells if not np.any(c.w > 0.0))

    @classmethod
    def from_arrays(cls, y, t, z, w=None, cluster=None, k_levels=None,
                    family: Family | None = None) -> "Dataset":
        """Build a dataset with defaults: unit weights, singleton clusters.

        Under the tobit family, outcomes below 1e-12 are snapped to exact
        zero (the censoring point) and negative outcomes are rejected.
        """
        y = np.asarray(y, dtype=float).copy()
        z = np.asarray(z, dtype=float)
        n = len(y)
        if w is None:
            w = np.ones(n)
        if cluster is None:
            cluster = np.arange(n)
        if k_levels is None:  # a non-finite level fails the level rule
            k_levels = int(np.max(z, initial=-1.0, where=np.isfinite(z))) + 1 if n else 2
        check_censored(y, family)
        if family is Family.TOBIT:
            y[y < 1e-12] = 0.0
        return cls(y=y, t=t, z=z, w=w, cluster=cluster, k_levels=int(k_levels))


def effective_sample_size(dataset: Dataset, arm: int) -> float:
    """Kish effective sample size (sum w)^2 / sum w^2 within one arm."""
    w = dataset.w[dataset.t == arm]
    w = w[w > 0.0]
    if w.size == 0:
        raise DataError("empty arm")
    return float(w.sum() ** 2 / np.square(w).sum())
