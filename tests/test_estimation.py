import dataclasses
import importlib
import itertools
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratfit import em, simulate
from stratfit.core import Dataset, MeanStructure, ModelParams, StrataGrid, pack, unpack
from stratfit.densities import Family, norm_logcdf
from stratfit.effects import effect_table
from stratfit.em import (
    FitConfig,
    case_loglik,
    cell_order,
    e_step,
    fit,
    log_likelihood,
    m_step,
    n_mappings,
    select_starts,
    warm_start_cells,
    _digits,
    _initial_logliks,
    _initial_probs,
    _perm_table,
    _pooled_scales,
    _run_starts,
    _start_sets,
    _tobit_newton,
)
from stratfit.errors import (
    ConvergenceError,
    DataError,
    DegenerateMixtureError,
    EstimationError,
    WarmStartError,
)

from _oracles import (
    brute_force_loglik,
    cell_mixture_em_oracle,
    combo_oracle,
    density_oracle,
    em_one_start_oracle,
    initial_probs_oracle,
    select_ids_oracle,
    start_params_oracle,
    tobit_grid_mle,
    tobit_newton_oracle,
    tobit_newton_serial_oracle,
)

GRID2 = StrataGrid(2)
SATURATED, LINEAR = MeanStructure.SATURATED, MeanStructure.LINEAR
STRUCTURES = pytest.mark.parametrize("mean_structure", [SATURATED, LINEAR],
                                     ids=lambda m: m.value)


def simulate_four_strata(n_per_arm, seed, dispersion=2.0, probs=(0.4, 0.3, 0.2, 0.1),
                         sigma=1.0, effect=2.0, censor=False):
    rng = np.random.default_rng(seed)
    probs = np.array(probs)
    locs = np.array(
        [[effect * t + dispersion * sigma * (z0 + z1) for t in (0, 1)]
         for z0, z1 in GRID2.strata]
    )
    strata = rng.choice(4, size=2 * n_per_arm, p=probs)
    t = np.repeat([0, 1], n_per_arm)
    coords = np.array(GRID2.strata)
    z = np.where(t == 1, coords[strata, 1], coords[strata, 0])
    y = rng.normal(locs[strata, t], sigma)
    family = Family.NORMAL
    if censor:
        y = np.maximum(y, 0.0)
        family = Family.TOBIT
    ds = Dataset.from_arrays(y, t, z, k_levels=2, family=family)
    truth = ModelParams(GRID2, probs, locs, np.array([sigma, sigma]), family)
    return ds, truth


def cell_inputs(params: ModelParams, cell) -> tuple[bytes, bytes, bytes]:
    """The bytes of one cell's likelihood inputs under a parameter set: its
    strata's log-probabilities and arm locations and its arm's scale."""
    table = params.location_table()
    return (np.log(params.probs)[cell.strata].tobytes(),
            table[cell.strata, cell.t].tobytes(), params.scales[cell.t].tobytes())


def simulate_nine_strata(n_per_arm, seed, dispersion=2.5):
    rng = np.random.default_rng(seed)
    grid = StrataGrid(3)
    probs = np.arange(9, 0, -1, dtype=float)
    probs /= probs.sum()
    locs = np.array(
        [[2.0 * t + dispersion * (z0 + z1) for t in (0, 1)] for z0, z1 in grid.strata]
    )
    strata = rng.choice(9, size=2 * n_per_arm, p=probs)
    t = np.repeat([0, 1], n_per_arm)
    coords = np.array(grid.strata)
    z = np.where(t == 1, coords[strata, 1], coords[strata, 0])
    y = rng.normal(locs[strata, t], 1.0)
    return Dataset.from_arrays(y, t, z, k_levels=3)


class TestLogLikelihoodOracle:
    @pytest.mark.parametrize("family", ["normal", "tobit"])
    def test_matches_brute_force_on_small_datasets(self, family):
        from _oracles import random_small_dataset

        rng = np.random.default_rng(2024)
        for _ in range(50):
            ds, params = random_small_dataset(rng, family)
            expected = brute_force_loglik(params, ds)
            got = log_likelihood(params, ds)
            assert got == pytest.approx(expected, rel=1e-10)
            assert ds.w @ case_loglik(params, ds) == pytest.approx(expected, rel=1e-10)

    def test_single_stratum_collapses_to_weighted_normal(self):
        rng = np.random.default_rng(5)
        y = rng.normal(1.0, 2.0, size=40)
        w = rng.uniform(0.5, 2.0, size=40)
        t = rng.integers(0, 2, size=40)
        ds = Dataset.from_arrays(y, t, np.zeros(40, dtype=int), w=w, k_levels=1)
        params = ModelParams(
            StrataGrid(1), np.array([1.0]), np.array([[0.7, 1.2]]),
            np.array([1.5, 2.5]),
        )
        direct = sum(
            wi * (-math.log(params.scales[ti]) - 0.5 * math.log(2 * math.pi)
                  - 0.5 * ((yi - params.locations[0, ti]) / params.scales[ti]) ** 2)
            for yi, ti, wi in zip(y, t, w)
        )
        assert log_likelihood(params, ds) == pytest.approx(direct, rel=1e-12)

    def test_loglik_linear_in_weights(self):
        ds, truth = simulate_four_strata(50, seed=3)
        doubled = Dataset.from_arrays(ds.y, ds.t, ds.z, w=2.0 * ds.w, k_levels=2)
        assert log_likelihood(truth, doubled) == pytest.approx(
            2.0 * log_likelihood(truth, ds), rel=1e-13
        )

    def test_degenerate_mixture_raises_with_case_index(self):
        # case 1 sits in treated cell z=1, whose strata all have zero prior
        for k in (2, 3):
            ds = Dataset.from_arrays([1.0, 2.0], [1, 1], [0, 1], k_levels=k)
            grid = StrataGrid(k)
            probs = np.ones(grid.n_strata)
            probs[grid.compatible(1, 1)] = 0.0
            params = ModelParams(
                grid, probs / probs.sum(), np.zeros((grid.n_strata, 2)), np.ones(2)
            )
            fine = ModelParams(grid, np.full(grid.n_strata, 1.0 / grid.n_strata),
                               np.zeros((grid.n_strata, 2)), np.ones(2))

            def stacked(params, ds):
                return log_likelihood([fine, params, fine], ds)

            for evaluate in (log_likelihood, case_loglik, e_step, stacked):
                with pytest.raises(DegenerateMixtureError, match="case 1"):
                    evaluate(params, ds)

    @pytest.mark.parametrize("family", [Family.NORMAL, Family.TOBIT], ids=lambda f: f.value)
    def test_stacked_sets_equal_one_set_calls(self, family, monkeypatch):
        ds, truth = simulate_four_strata(200, seed=4, censor=family is Family.TOBIT)
        rng = np.random.default_rng(4)
        sets = [truth] + [
            ModelParams(GRID2, rng.dirichlet(np.ones(4)),
                        truth.locations + rng.normal(0.0, 0.5, (4, 2)),
                        rng.uniform(0.5, 2.0, 2), family)
            for _ in range(4)
        ]
        want = [log_likelihood(p, ds) for p in sets]
        # blocks of two sets: the fifth starts a block of its own
        widest = max(cell.y.size * cell.strata.size for cell in ds.cells)
        monkeypatch.setattr(em, "_EM_BLOCK", 2 * widest)
        got = log_likelihood(sets, ds)
        assert got.shape == (5,)
        assert got.tolist() == want

    def test_empty_sequence_gives_no_values(self):
        ds, _ = simulate_four_strata(50, seed=4)
        for sets in ([], ()):
            got = log_likelihood(sets, ds)
            assert got.dtype == float and got.shape == (0,)

    @pytest.mark.parametrize("case", ["tobit", "linear", "three-level"])
    def test_repeated_sets_equal_one_set_calls(self, case, monkeypatch):
        if case == "three-level":
            ds, grid = simulate_nine_strata(150, seed=61), StrataGrid(3)
        else:
            ds, _ = simulate_four_strata(150, seed=61, censor=case == "tobit")
            grid = GRID2
        family = Family.TOBIT if case == "tobit" else Family.NORMAL
        structure = LINEAR if case == "linear" else SATURATED
        rng = np.random.default_rng(61)
        n_loc = 4 if structure is LINEAR else grid.n_strata
        base = ModelParams(grid, rng.dirichlet(np.full(grid.n_strata, 5.0)),
                           rng.normal(2.0, 1.0, (n_loc, 2)), rng.uniform(0.8, 1.5, 2),
                           family, structure)
        # finite-difference points in a logit, a location and a log-scale,
        # each set twice, shuffled
        x = pack(base)
        moves = [np.zeros_like(x)]
        for j in (0, grid.n_strata - 1, len(x) - 1):
            moves += [s * 1e-3 * np.eye(len(x))[j] for s in (1.0, -1.0)]
        moves += [a + b for a, b in itertools.combinations(moves[1:], 2)]
        sets = [unpack(x + m, base) for m in moves]
        if structure is SATURATED:  # bit for bit, so -0.0 is not 0.0
            for zero in (0.0, -0.0):
                loc = base.locations.copy()
                loc[0, 0] = zero
                sets.append(ModelParams(grid, base.probs, loc, base.scales, family))
        sets = [sets[i] for i in rng.permutation(2 * len(sets)) % len(sets)]
        want = [log_likelihood(p, ds) for p in sets]

        distinct = {(c.t, c.z): len({cell_inputs(p, c) for p in sets}) for c in ds.cells}
        seen, blocks, logcdf = Counter(), Counter(), Counter()
        real_mix, real_logcdf = em._mix, em.norm_logcdf

        def counted_mix(cell, logdens, *args):
            seen[cell.t, cell.z] += len(logdens)
            blocks[cell.t, cell.z] += 1
            return real_mix(cell, logdens, *args)

        def counted_logcdf(v):
            logcdf["calls"] += 1
            return real_logcdf(v)

        widest = max(cell.y.size * cell.strata.size for cell in ds.cells)
        monkeypatch.setattr(em, "_EM_BLOCK", 2 * widest)
        monkeypatch.setattr(em, "_mix", counted_mix)
        monkeypatch.setattr(em, "norm_logcdf", counted_logcdf)
        assert log_likelihood(sets, ds).tolist() == want
        assert seen == distinct
        assert max(blocks.values()) > 1
        assert logcdf["calls"] == (family is Family.TOBIT)

    def test_stacked_sets_of_mixed_families_rejected(self):
        ds, truth = simulate_four_strata(50, seed=4, censor=True)
        normal = ModelParams(GRID2, truth.probs, truth.locations, truth.scales)
        with pytest.raises(ValueError, match="families"):
            log_likelihood([truth, normal], ds)


class TestColumnReductions:
    """The column-wise reductions equal numpy's own, bit for bit.

    The mixture kernel, the sufficient statistics, the warm starts and the
    IPF use them in place of ``max`` and ``sum`` over short axes, on the
    premise that numpy adds fewer than 8 columns left to right and the rows
    of a C-ordered array in order, and that ``np.einsum(..., order="F")``
    adds each column's cases in order from +0.0 on any memory layout, a
    transposed view included. A numpy release that reorders its reductions,
    or moves either ``einsum`` order onto a vectorised path, fails here,
    before any fit moves in its last digits.
    """

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 9])
    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_equal_numpy_reductions(self, n, c):
        rng = np.random.default_rng(100 * n + c)
        # magnitudes 1e-8..1e8, so any other summation order shows
        a = rng.standard_normal((5, n, c)) * 10.0 ** rng.integers(-8, 9, (5, n, c))
        a[1][rng.random((n, c)) < 0.2] = -np.inf
        a[2, rng.integers(n)] = -np.inf  # an all -inf row
        a[3, rng.integers(n), rng.integers(c)] = np.nan
        for arr in (a, a[0], a[3]):  # stacked sets and one cell's (n, c)
            assert np.array_equal(em._row_max(arr), arr.max(axis=-1), equal_nan=True)
            assert np.array_equal(em._row_sum(arr), arr.sum(axis=-1), equal_nan=True)
            assert np.array_equal(em._case_sum(arr), arr.sum(axis=-2), equal_nan=True)
        # the IPF's margin over the middle axis
        assert np.array_equal(em._row_sum(a.swapaxes(1, 2)), a.sum(axis=1), equal_nan=True)
        # a Dataset takes weights of -0.0: a column of -0.0 addends sums to
        # +0.0, as in numpy (array_equal does not see the sign of a zero)
        zeros = np.full((2, n, c), -0.0)
        assert em._case_sum(zeros).tobytes() == zeros.sum(axis=-2).tobytes()

    @staticmethod
    def in_case_order(a: np.ndarray, axis: int) -> np.ndarray:
        """Sums along ``axis``, added one row at a time from +0.0."""
        start = np.zeros(a.shape[:axis] + (1,) + a.shape[axis + 1:])
        return np.take(np.add.accumulate(np.concatenate([start, a], axis), axis), -1, axis)

    @staticmethod
    def bits(a: np.ndarray) -> bytes:
        """The bytes of ``a`` with every NaN made numpy's ``nan``: an addition
        of two NaNs passes on its first operand's, and ``np.einsum`` takes
        row + sum where the oracle takes sum + row."""
        return np.where(np.isnan(a), np.nan, a).tobytes()

    @staticmethod
    def special_values(seed, share, shape) -> np.ndarray:
        """Magnitudes 1e-8..1e8 of either sign, with a share of each of -0.0,
        +inf, -inf and NaN."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        pick = rng.random(shape)
        for i, v in enumerate((-0.0, np.inf, -np.inf, np.nan)):
            a[(pick >= i * share) & (pick < (i + 1) * share)] = v
        return a

    SUMS = settings(max_examples=100, deadline=None, database=None, derandomize=True)
    SEED = st.integers(0, 2**32 - 1)
    SHARE = st.sampled_from([0.0, 0.001, 0.05])

    @SUMS
    @given(seed=SEED, share=SHARE, sets=st.integers(1, 40), lanes=st.integers(1, 64),
           cases=st.integers(0, 5000))
    @example(seed=0, share=0.001, sets=1, lanes=2, cases=5000)
    @example(seed=1, share=0.0, sets=40, lanes=2, cases=5000)
    @example(seed=2, share=0.001, sets=1, lanes=64, cases=5000)
    @example(seed=3, share=0.0, sets=16, lanes=3, cases=2500)
    @example(seed=0, share=0.0, sets=3, lanes=1, cases=9)
    def test_case_sum_adds_in_case_order(self, seed, share, sets, lanes, cases):
        # 2 or more columns are added in case order, one column pairwise, as
        # numpy's sum of a C-ordered copy, whatever the input's layout
        cases = min(cases, 2**18 // (sets * lanes))
        a = self.special_values(seed, share, (sets, cases, lanes))
        want = a.sum(axis=-2) if lanes == 1 else self.in_case_order(a, 1)
        layouts = (a, np.asfortranarray(a), a.transpose(2, 0, 1).copy().transpose(1, 2, 0),
                   a.swapaxes(1, 2).copy().swapaxes(1, 2))
        with np.errstate(invalid="ignore"):
            for arr in layouts:
                assert self.bits(em._case_sum(arr)) == self.bits(want)
            # the warm start's input: the F-contiguous (cases, lanes) view of
            # a C-ordered (lanes, cases) array
            view = a[0].T.copy().T
            assert view.flags.f_contiguous and not view.flags.owndata
            assert self.bits(em._case_sum(view)) == self.bits(want[0])

    @SUMS
    @given(seed=SEED, share=SHARE, cells=st.integers(1, 32), k=st.integers(1, 3),
           cases=st.integers(1, 5000))
    @example(seed=0, share=0.001, cells=1, k=2, cases=5000)
    @example(seed=1, share=0.0, cells=32, k=2, cases=5000)
    @example(seed=2, share=0.001, cells=4, k=2, cases=3542)
    def test_lane_sum_adds_in_case_order(self, seed, share, cells, k, cases):
        # a lockstep group's (cells, k, cases) stack, up to 64 lanes, summed
        # through its transposed (cases, lanes) view; a one-component cell
        # runs alone, and its one lane is summed pairwise
        cells = 1 if k == 1 else min(cells, 64 // k)
        cases = min(cases, 2**18 // (cells * k))
        a = self.special_values(seed, share, (cells, k, cases))
        want = a.sum(axis=-1) if k == 1 else self.in_case_order(a, 2)
        with np.errstate(invalid="ignore"):
            got = em._case_sum(a.reshape(cells * k, cases).T).reshape(cells, k)
        assert self.bits(got) == self.bits(want)

    def test_case_sum_of_no_cases(self):
        # a tobit cell whose every outcome is censored has no positive cases
        empty = np.zeros((2, 0, 3))
        assert np.array_equal(em._case_sum(empty), empty.sum(axis=-2))

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("family", [Family.NORMAL, Family.TOBIT], ids=lambda f: f.value)
    def test_cell_logdens_equals_the_broadcast_form(self, family, levels):
        # the column-by-column densities equal one broadcast over all columns
        # with the censored zeros overwritten afterwards, bit for bit
        ds = simulate_four_strata(200, seed=4)[0] if levels == 2 else simulate_nine_strata(200, 4)
        if family is Family.TOBIT:
            ds = Dataset.from_arrays(np.maximum(ds.y - 2.0, 0.0), ds.t, ds.z,
                                     k_levels=levels, family=family)
            assert any(cell.zero.size and cell.pos.size for cell in ds.cells)
        rng = np.random.default_rng(levels)
        for cell in ds.cells:
            locs = rng.normal(2.0, 2.0, (5, levels))
            scale = rng.uniform(0.5, 2.0, 5)
            want = np.subtract(cell.y[:, None], locs[:, None, :], order="C")
            want /= scale[:, None, None]
            want *= want
            want *= -0.5
            want -= (0.5 * math.log(2.0 * math.pi) + np.array([math.log(v) for v in scale]))[
                :, None, None]
            if family is Family.TOBIT:
                want[:, cell.zero] = norm_logcdf(-locs / scale[:, None])[:, None, :]
            got = em._cell_logdens(cell, locs, scale, family)
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("want_post", [False, True], ids=["lse", "post"])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_mix_equals_the_broadcast_form(self, levels, want_post):
        # the column-by-column kernel equals one broadcast over all columns,
        # bit for bit, with impossible (-inf) densities and strata
        ds = simulate_four_strata(200, seed=4)[0] if levels == 2 else simulate_nine_strata(200, 4)
        rng = np.random.default_rng(10 + levels)
        for cell in ds.cells:
            logdens = rng.normal(-2.0, 3.0, (5, cell.y.size, levels))
            logdens[:, :, 1:][rng.random((5, cell.y.size, levels - 1)) < 0.2] = -np.inf
            logprior = np.log(rng.dirichlet(np.ones(levels), 5))
            logprior[1, -1] = -np.inf
            lm = logdens + logprior[:, None, :]
            if levels == 2:
                lse = np.logaddexp(lm[..., 0], lm[..., 1])
            else:
                top = em._row_max(lm)
                lse = top + np.log(em._row_sum(np.exp(lm - top[..., None])))
            got, post = em._mix(cell, logdens, logprior, want_post)
            assert got.tobytes() == lse.tobytes()
            if want_post:
                assert post.tobytes() == np.exp(lm - lse[..., None]).tobytes()
            else:
                assert post is None

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("family", [Family.NORMAL, Family.TOBIT], ids=lambda f: f.value)
    def test_accumulate_equals_the_broadcast_form(self, family, levels):
        # the column-by-column weighting of the posteriors equals one
        # broadcast, bit for bit, in every sufficient statistic
        ds = simulate_four_strata(200, seed=5)[0] if levels == 2 else simulate_nine_strata(200, 5)
        rng = np.random.default_rng(20 + levels)
        y = np.maximum(ds.y - 2.0, 0.0) if family is Family.TOBIT else ds.y
        ds = Dataset.from_arrays(y, ds.t, ds.z, w=rng.uniform(0.2, 3.0, ds.n), k_levels=levels,
                                 family=family)
        width = 4 if family is Family.TOBIT else 3
        for cell in ds.cells:
            post = rng.dirichlet(np.ones(levels), (5, cell.y.size))
            got = np.zeros((5, 2, levels * levels, width))
            em._accumulate(got, cell, post, family)
            want = np.zeros_like(got)
            out = want[:, cell.t, cell.strata]
            wp = cell.w[:, None] * post
            out[..., 0] = em._case_sum(wp)
            keep = slice(None)
            if family is Family.TOBIT:
                keep = cell.pos
                wp = np.take(wp, cell.pos, axis=1)
                out[..., 3] = em._case_sum(wp)
            out[..., 1] = wp.transpose(0, 2, 1) @ cell.y[keep]
            out[..., 2] = wp.transpose(0, 2, 1) @ cell.y2[keep]
            want[:, cell.t, cell.strata] = out
            assert got.tobytes() == want.tobytes()


class TestEStep:
    def test_zero_prior_gives_zero_posterior(self):
        ds = Dataset.from_arrays([1.0], [1], [0], k_levels=2)
        params = ModelParams(
            GRID2, np.array([0.6, 0.0, 0.2, 0.2]), np.zeros((4, 2)), np.ones(2)
        )
        post = e_step(params, ds)
        assert post[0, GRID2.index(1, 0)] == 0.0
        assert post[0, GRID2.index(0, 0)] == 1.0

    def test_equal_priors_equal_densities_split_half(self):
        ds = Dataset.from_arrays([0.5], [1], [0], k_levels=2)
        params = ModelParams(
            GRID2, np.full(4, 0.25), np.zeros((4, 2)), np.ones(2)
        )
        post = e_step(params, ds)
        assert post[0, GRID2.index(0, 0)] == pytest.approx(0.5, abs=1e-12)
        assert post[0, GRID2.index(1, 0)] == pytest.approx(0.5, abs=1e-12)

    def test_hand_bayes_case(self):
        # treated case, z=0: strata (0,0) with p=0.3, loc 1 and (1,0) with
        # p=0.2, loc 4; posterior must match the direct Bayes computation
        ds = Dataset.from_arrays([2.0], [1], [0], k_levels=2)
        locations = np.zeros((4, 2))
        locations[GRID2.index(0, 0), 1] = 1.0
        locations[GRID2.index(1, 0), 1] = 4.0
        params = ModelParams(
            GRID2, np.array([0.3, 0.2, 0.25, 0.25]), locations, np.ones(2)
        )
        post = e_step(params, ds)
        a = 0.3 * density_oracle(2.0, 1.0, 1.0, "normal")
        b = 0.2 * density_oracle(2.0, 4.0, 1.0, "normal")
        assert post[0, GRID2.index(0, 0)] == pytest.approx(a / (a + b), rel=1e-12)
        assert post[0, GRID2.index(1, 0)] == pytest.approx(b / (a + b), rel=1e-12)

    def test_rows_sum_to_one_incompatible_zero(self):
        ds, truth = simulate_four_strata(200, seed=8)
        post = e_step(truth, ds)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-10)
        treated_z0 = (ds.t == 1) & (ds.z == 0)
        assert np.all(post[np.ix_(treated_z0, GRID2.compatible(1, 1))] == 0.0)


class TestMStep:
    def test_hard_assignment_recovers_cell_means(self):
        ds, truth = simulate_four_strata(400, seed=9, dispersion=6.0)
        post = e_step(truth, ds)
        hard = np.zeros_like(post)
        hard[np.arange(ds.n), post.argmax(axis=1)] = 1.0
        params = m_step(hard, ds, Family.NORMAL)
        for s in range(4):
            for t in (0, 1):
                sel = (ds.t == t) & (hard[:, s] == 1.0)
                if sel.sum() == 0:
                    continue
                expected = np.average(ds.y[sel], weights=ds.w[sel])
                assert params.locations[s, t] == pytest.approx(expected, rel=1e-10)

    def test_em_fixed_point_at_truth(self):
        ds, truth = simulate_four_strata(100_000, seed=0, dispersion=3.0)
        post = e_step(truth, ds)
        params = m_step(post, ds, Family.NORMAL, prev=truth)
        assert np.max(np.abs(params.probs - truth.probs)) < 0.01
        assert np.max(np.abs(params.locations - truth.locations)) < 0.01
        assert np.max(np.abs(params.scales - truth.scales)) < 0.01

    def test_starved_stratum_without_prev_errors(self):
        ds, truth = simulate_four_strata(50, seed=11)
        post = e_step(truth, ds)
        post[:, 3] = 0.0
        post /= post.sum(axis=1, keepdims=True)
        with pytest.raises(EstimationError, match="lost all posterior weight"):
            m_step(post, ds, Family.NORMAL)

    def test_posterior_level_count_must_match_dataset(self):
        ds, truth = simulate_four_strata(50, seed=11)
        prev3 = ModelParams(
            StrataGrid(3), np.full(9, 1.0 / 9), np.zeros((9, 2)), np.ones(2)
        )
        post9 = np.full((ds.n, 9), 1.0 / 9)
        for prev in (prev3, None):
            with pytest.raises(ValueError, match="posterior shape"):
                m_step(post9, ds, Family.NORMAL, prev=prev)

    def test_starved_stratum_frozen_at_prev(self):
        ds, truth = simulate_four_strata(50, seed=11)
        post = e_step(truth, ds)
        post[:, 3] = 0.0
        post /= post.sum(axis=1, keepdims=True)
        params = m_step(post, ds, Family.NORMAL, prev=truth)
        np.testing.assert_array_equal(params.locations[3], truth.locations[3])


class TestTobitNewton:
    def test_single_component_matches_grid_search(self):
        rng = np.random.default_rng(12)
        y = np.maximum(rng.normal(0.8, 1.4, size=400), 0.0)
        w = rng.uniform(0.5, 2.0, size=400)
        pos = y > 0
        design = np.eye(1)
        mpos = np.array([[w[pos].sum()]])
        s1 = np.array([[w[pos] @ y[pos]]])
        s2 = np.array([[w[pos] @ (y[pos] ** 2)]])
        mzero = np.array([[w[~pos].sum()]])
        beta, delta = _tobit_newton(
            design, mpos, s1, s2, mzero, np.array([[0.5]]), np.array([1.0])
        )
        eta_hat, zeta_hat = beta[0, 0] / delta[0], 1.0 / delta[0]
        eta_ref, zeta_ref = tobit_grid_mle(y, w, (0.0, 2.0), (0.5, 3.0))
        assert eta_hat == pytest.approx(eta_ref, abs=1e-4)
        assert zeta_hat == pytest.approx(zeta_ref, abs=1e-4)

    def test_pinned_coordinate_matches_the_live_subproblem(self):
        rng = np.random.default_rng(13)
        stats = []
        for mu in (-0.5, 0.4, 1.1, 2.0):
            y = np.maximum(rng.normal(mu, 1.3, size=150), 0.0)
            w = rng.uniform(0.5, 2.0, size=150)
            pos = y > 0
            stats.append((w[pos].sum(), w @ y, w @ y**2, w[~pos].sum()))
        mpos, s1, s2, mzero = np.array(stats).T
        gamma0 = np.array([0.1, 0.2, 5.0, 0.3])
        live = np.array([True, True, False, True])
        beta, delta = _tobit_newton(
            np.eye(4), *(np.where(live, a, 0.0)[None] for a in (mpos, s1, s2, mzero)),
            gamma0[None], np.array([0.8]), pinned=~live[None],
        )
        sub_beta, sub_delta = _tobit_newton(
            np.eye(3), *(a[live][None] for a in (mpos, s1, s2, mzero)),
            gamma0[live][None], np.array([0.8]),
        )
        assert beta[0, 2] == gamma0[2]
        np.testing.assert_allclose(beta[0, live] / delta[0], sub_beta[0] / sub_delta[0],
                                   rtol=1e-9)
        assert delta[0] == pytest.approx(sub_delta[0], rel=1e-9)

    def test_batched_solves_match_the_scalar_newton(self, monkeypatch):
        # every M-step problem of a tobit fit, solved in its batch, ends where
        # the one-problem Newton ends, with fewer objective evaluations when
        # solved alone: a line search stops once its trial point rounds to
        # the current one
        ds, _ = simulate_four_strata(300, seed=25, dispersion=2.4, sigma=2.0,
                                     effect=3.0, censor=True)
        newton, objective = em._tobit_newton, em._tobit_objective
        calls = []

        def recorded(design, *args):
            out = newton(design, *args)
            calls.append((design, args, out))
            return out

        monkeypatch.setattr(em, "_tobit_newton", recorded)
        fit(ds, Family.TOBIT, config=FitConfig(tol=1e-7, starts=("topk", 2)))
        evaluations = [0]

        def counted(*args):
            evaluations[0] += 1
            return objective(*args)

        monkeypatch.setattr(em, "_tobit_objective", counted)
        ours = theirs = 0
        for design, (*stats, gamma0, delta0, pinned), (beta, delta) in calls:
            assert pinned is None
            for p in range(len(delta)):
                want_beta, want_delta, n = tobit_newton_oracle(
                    design, *(a[p] for a in stats), gamma0[p], delta0[p])
                np.testing.assert_allclose(beta[p], want_beta, rtol=1e-12, atol=0.0)
                assert delta[p] == pytest.approx(want_delta, rel=1e-12)
                before = evaluations[0]
                newton(design, *(a[p:p + 1] for a in stats), gamma0[p:p + 1], delta0[p:p + 1])
                ours += evaluations[0] - before
                theirs += n
        assert len(calls) > 20
        assert ours < 0.5 * theirs

    def test_stacked_line_search_equals_the_serial_halving(self, monkeypatch):
        # the stacked halvings take, bit for bit, the step fraction the
        # one-fraction-per-evaluation halving takes, on every M-step problem
        # of a tobit fit
        ds, _ = simulate_four_strata(300, seed=25, dispersion=2.4, sigma=2.0,
                                     effect=3.0, censor=True)
        newton, calls = em._tobit_newton, []

        def recorded(*args):
            out = newton(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(em, "_tobit_newton", recorded)
        fit(ds, Family.TOBIT, config=FitConfig(tol=1e-7, starts=("topk", 2)))
        assert len(calls) > 20
        for args, (beta, delta) in calls:
            want_beta, want_delta = tobit_newton_serial_oracle(*args)
            assert np.array_equal(beta, want_beta)
            assert np.array_equal(delta, want_delta)

    @staticmethod
    def crafted_problems():
        """Problems whose line searches go past 2^-32, try a non-positive
        inverse scale inside the stacked halvings, and hold a coefficient
        pinned, as (design, statistics..., gamma0, delta0, pinned)."""
        rng = np.random.default_rng(14)
        stats = []
        for mu in (-0.5, 0.4, 1.1, 2.0):
            # outcomes 1e4 above their spread: the gains are rounding noise
            y = rng.normal(1e4 + mu, 1.0, size=150)
            w = rng.uniform(0.5, 2.0, size=150)
            stats.append((w.sum(), w @ y, w @ y**2, 0.0))
        far = [a[None] for a in np.array(stats).T]
        # nearly all weight censored, started far below: the first steps
        # overshoot delta to below 0
        censored = [np.array([[v]]) for v in (1.0, 1.0, 1.0, 1e6)]
        pin_stats = [np.where([True, True, False, True], a, 0.0) for a in far]
        pinned = np.array([[False, False, True, False]])
        return [
            (np.eye(4), *far, np.full((1, 4), 1e4), np.array([0.2]), None),
            (np.eye(1), *censored, np.array([[-4.0]]), np.array([1.0]), None),
            (np.eye(4), *pin_stats, np.array([[1e4, 1e4, 5.0, 1e4]]), np.array([1.0]),
             pinned),
        ]

    @pytest.mark.parametrize("block", [em._EM_BLOCK, 64])
    def test_crafted_line_searches_equal_the_serial_halving(self, monkeypatch, block):
        # under a 64-entry block every problem's stacked halvings run alone
        monkeypatch.setattr(em, "_EM_BLOCK", block)
        search, seen = em._line_search, set()

        def watched(design, point, step, sub, live, fracs):
            delta = point[1][live, None] + fracs * step[live, None, -1]
            if len(fracs) > 1 and (delta <= 0.0).any():
                seen.add("non-positive delta in the stack")
            # a problem that the halvings down to 2^-32 leave unsettled (no
            # gain and no trial point rounding to its current point), run on
            # a copy of the point, makes the stack reach past 2^-32
            if len(fracs) > 32 and search(design, tuple(a.copy() for a in point), step,
                                          sub, live, fracs[:32])[1].size:
                seen.add("past 2^-32")
            return search(design, point, step, sub, live, fracs)

        monkeypatch.setattr(em, "_line_search", watched)
        problems = self.crafted_problems()
        for design, *args, pinned in problems:
            beta, delta = _tobit_newton(design, *args, pinned=pinned)
            want_beta, want_delta = tobit_newton_serial_oracle(design, *args, pinned=pinned)
            assert np.array_equal(beta, want_beta)
            assert np.array_equal(delta, want_delta)
            if pinned is not None:
                assert beta[0, 2] == args[-2][0, 2]
        # the two 4-stratum problems solved together as one batch
        batch = [np.concatenate([a, b]) for a, b in zip(problems[0][1:-1], problems[2][1:-1])]
        pinned = np.concatenate([np.zeros((1, 4), dtype=bool), problems[2][-1]])
        got = _tobit_newton(np.eye(4), *batch, pinned=pinned)
        want = tobit_newton_serial_oracle(np.eye(4), *batch, pinned=pinned)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert seen == {"non-positive delta in the stack", "past 2^-32"}


class TestWarmStarts:
    def test_two_component_cell_recovered(self):
        rng = np.random.default_rng(13)
        n = 2000
        y = np.concatenate([rng.normal(0.0, 1.0, n // 2), rng.normal(5.0, 1.0, n // 2)])
        t = np.ones(n, dtype=int)
        z = np.zeros(n, dtype=int)
        y_all = np.concatenate([y, rng.normal(2.0, 1.0, 3 * n)])
        t_all = np.concatenate([t, np.ones(n, dtype=int), np.zeros(2 * n, dtype=int)])
        z_all = np.concatenate([z, np.ones(n, dtype=int),
                                np.zeros(n, dtype=int), np.ones(n, dtype=int)])
        ds = Dataset.from_arrays(y_all, t_all, z_all, k_levels=2)
        warm = warm_start_cells(ds, Family.NORMAL)
        cs = warm[(1, 0)]
        assert cs.means[0] == pytest.approx(0.0, abs=0.15)
        assert cs.means[1] == pytest.approx(5.0, abs=0.15)
        assert not cs.degenerate

    def test_constant_cell_flagged_degenerate(self):
        y = np.concatenate([np.full(20, 3.0), np.random.default_rng(1).normal(0, 1, 60)])
        t = np.concatenate([np.ones(20, int), np.ones(20, int), np.zeros(40, int)])
        z = np.concatenate([np.zeros(20, int), np.ones(20, int),
                            np.zeros(20, int), np.ones(20, int)])
        ds = Dataset.from_arrays(y, t, z, k_levels=2)
        warm = warm_start_cells(ds, Family.NORMAL)
        cs = warm[(1, 0)]
        assert cs.degenerate
        np.testing.assert_allclose(cs.means, 3.0)

    def test_cell_too_small_errors(self):
        ds = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0, 5.0],
                                 [1, 1, 0, 0, 1], [0, 0, 0, 1, 1], k_levels=2)
        with pytest.raises(WarmStartError, match="cell too small"):
            warm_start_cells(ds, Family.NORMAL)

    def test_tobit_uses_positive_outcomes_only(self):
        rng = np.random.default_rng(14)
        n = 400
        y = np.concatenate([np.zeros(n // 2), rng.normal(4.0, 0.5, n // 2)])
        base_t = np.ones(n, dtype=int)
        base_z = np.zeros(n, dtype=int)
        filler_y = np.abs(rng.normal(2.0, 1.0, 3 * n)) + 0.1
        y_all = np.concatenate([y, filler_y])
        t_all = np.concatenate([base_t, np.ones(n, int), np.zeros(2 * n, int)])
        z_all = np.concatenate([base_z, np.ones(n, int),
                                np.zeros(n, int), np.ones(n, int)])
        ds = Dataset.from_arrays(y_all, t_all, z_all, k_levels=2, family=Family.TOBIT)
        warm = warm_start_cells(ds, Family.TOBIT)
        assert warm[(1, 0)].means.min() > 2.0  # zeros excluded from the mixture


def dataset_of_cells(cells, k_levels):
    """A dataset from each (t, z) cell's outcomes and weights."""
    keys = sorted(cells)
    y, w = (np.concatenate([np.asarray(cells[key][i], dtype=float) for key in keys])
            for i in (0, 1))
    t, z = (np.concatenate([np.full(len(cells[key][0]), key[i]) for key in keys])
            for i in (0, 1))
    return Dataset.from_arrays(y, t, z, w=w, k_levels=k_levels)


def random_cells(rng, k_levels, n=60):
    return {(t, z): (rng.normal(2.0 * z + t, 1.0 + 0.2 * z, n), np.ones(n))
            for t in (0, 1) for z in range(k_levels)}


def assert_warm_matches_oracle(ds, family):
    """Every cell's warm start equals the one-cell oracle, bit for bit, and
    is flagged capped exactly when the oracle still moves after its cap."""
    warm = warm_start_cells(ds, family)
    for cell in ds.cells:
        live = cell.w > 0.0
        if family is Family.TOBIT:
            live &= cell.y > 0.0
        means, sds, props, degenerate = cell_mixture_em_oracle(
            cell.y[live], cell.w[live], ds.k_levels)
        cs = warm[(cell.t, cell.z)]
        assert np.array_equal(cs.means, means), (cell.t, cell.z)
        assert np.array_equal(cs.sds, sds), (cell.t, cell.z)
        assert np.array_equal(cs.props, props), (cell.t, cell.z)
        assert cs.degenerate == degenerate, (cell.t, cell.z)
        longer = cell_mixture_em_oracle(cell.y[live], cell.w[live], ds.k_levels,
                                        em._WARM_MAX_ITER + 1)
        moves = not all(np.array_equal(u, v) for u, v in zip((means, sds, props), longer))
        assert cs.capped == moves, (cell.t, cell.z)
    return warm


class TestLockstepWarmStarts:
    """The cells' warm-start EMs run in lockstep on a padded stack, and every
    cell's components equal those of its own EM run alone, bit for bit."""

    @pytest.mark.parametrize("k_levels", [2, 3])
    @pytest.mark.parametrize("family", [Family.NORMAL, Family.TOBIT], ids=lambda f: f.value)
    def test_matches_oracle(self, family, k_levels):
        for seed in range(3):
            config = simulate.SimConfig(n_per_arm=400, dispersion_sd=1.5 + seed, k_levels=k_levels)
            ds, _ = simulate.generate(config, np.random.default_rng(seed))
            if family is Family.TOBIT:
                ds = Dataset.from_arrays(np.maximum(ds.y - 2.0, 0.0), ds.t, ds.z,
                                         k_levels=k_levels, family=family)
            assert_warm_matches_oracle(ds, family)

    def test_one_level(self):
        rng = np.random.default_rng(3)
        assert_warm_matches_oracle(dataset_of_cells(random_cells(rng, 1), 1), Family.NORMAL)

    def test_zero_weight_rows(self):
        rng = np.random.default_rng(4)
        cells = random_cells(rng, 2, n=80)
        for y, w in cells.values():
            w[rng.random(len(w)) < 0.3] = 0.0
            w[w > 0.0] = rng.exponential(size=int((w > 0.0).sum()))
        assert_warm_matches_oracle(dataset_of_cells(cells, 2), Family.NORMAL)

    def test_constant_cell_stacked_with_live_cells(self):
        cells = random_cells(np.random.default_rng(5), 2)
        cells[(1, 1)] = (np.full(30, 4.5), np.ones(30))
        warm = assert_warm_matches_oracle(dataset_of_cells(cells, 2), Family.NORMAL)
        assert warm[(1, 1)].degenerate
        assert not warm[(0, 0)].degenerate

    def test_cells_of_five_fold_sizes(self):
        rng = np.random.default_rng(6)
        cells = random_cells(rng, 3, n=40)
        for key in ((1, 0), (0, 2)):
            cells[key] = (rng.normal(key[1], 1.0, 200), np.ones(200))
        assert_warm_matches_oracle(dataset_of_cells(cells, 3), Family.NORMAL)

    def test_component_below_the_live_weight(self):
        # a far outlier draws one component, whose weight, 5e-13, is below
        # the 1e-12 at which a component stops moving
        y = np.concatenate([np.random.default_rng(5).normal(size=19), [1e3]])
        cells = random_cells(np.random.default_rng(7), 2)
        cells[(0, 1)] = (y, np.full(20, 5e-13))
        warm = assert_warm_matches_oracle(dataset_of_cells(cells, 2), Family.NORMAL)
        weight = warm[(0, 1)].props * 1e-11
        assert weight.min() < 1e-12 < weight.max()

    def test_cell_at_the_iteration_cap(self):
        y = np.random.default_rng(1).normal(size=60)
        w = np.ones(60)
        # the oracle's result moves with each of its last iterations
        last = [cell_mixture_em_oracle(y, w, 3, cap)[:3] for cap in (299, 300, 301)]
        for a, b in zip(last, last[1:]):
            assert not all(np.array_equal(u, v) for u, v in zip(a, b))
        assert em._WARM_MAX_ITER == 300
        cells = random_cells(np.random.default_rng(8), 3)
        cells[(1, 2)] = (y, w)
        warm = assert_warm_matches_oracle(dataset_of_cells(cells, 3), Family.NORMAL)
        assert warm[(1, 2)].capped and not warm[(0, 0)].capped

    def test_groups_under_a_small_block(self, monkeypatch):
        # a block of 500 entries puts a 200-case cell (k = 2) alone and the
        # three 40-case cells together
        monkeypatch.setattr(em, "_WARM_BLOCK", 500)
        rng = np.random.default_rng(9)
        cells = random_cells(rng, 2, n=40)
        cells[(1, 0)] = (rng.normal(0.0, 1.0, 200), np.ones(200))
        assert em._warm_groups(np.array([40, 200, 40, 40]), 2) == [[1], [0, 2, 3]]
        assert_warm_matches_oracle(dataset_of_cells(cells, 2), Family.NORMAL)

    @pytest.mark.parametrize("workload", ["normal-cli", "recovery-small", "tobit",
                                          "nine-strata-topk"])
    def test_bench_tiny_inputs(self, workload, tmp_path):
        bench_dir = str(Path(__file__).resolve().parents[1] / "bench")
        sys.path.insert(0, bench_dir)
        try:
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(bench_dir)
        for seed in range(2):
            inputs = workloads.build_inputs(workload, seed, str(tmp_path), size="tiny")
            spec = inputs.spec
            for arr in inputs.arrays:
                ds = Dataset.from_arrays(arr["y"], arr["t"], arr["z"], k_levels=spec.k_levels,
                                         family=spec.family)
                assert_warm_matches_oracle(ds, spec.family)

    @pytest.mark.parametrize("k_levels", [2, 3])
    def test_memory_stays_bounded(self, k_levels):
        # 20k cases per arm: the padded stacks stay within _WARM_BLOCK entries
        if k_levels == 2:
            ds, _ = simulate_four_strata(20_000, seed=3)
        else:
            ds = simulate_nine_strata(20_000, seed=3)
        ds.cells  # the partition is the dataset's, not the warm starts'
        tracemalloc.start()
        try:
            warm_start_cells(ds, Family.NORMAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20


def assert_same_starts(got, want):
    """Two warm-start results are equal bit for bit: the same CellStart
    fields, or the same WarmStartError message."""
    if isinstance(want, WarmStartError):
        assert isinstance(got, WarmStartError) and str(got) == str(want)
        return
    assert got.keys() == want.keys()
    for key in want:
        for f in dataclasses.fields(em.CellStart):
            a, b = getattr(got[key], f.name), getattr(want[key], f.name)
            assert type(a) is type(b) and np.array_equal(a, b), (key, f.name)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), (key, f.name)


def alone(ds, family):
    try:
        return warm_start_cells(ds, family)
    except WarmStartError as exc:
        return exc


class TestBatchedWarmStarts:
    """warm_start_cells on a sequence pools every dataset's cells into the
    lockstep groups, and each slot equals the dataset's own call."""

    def test_mixed_datasets_in_one_call(self):
        rng = np.random.default_rng(21)
        datasets = [dataset_of_cells(random_cells(rng, 2, n=n), 2) for n in (40, 200, 90, 41)]
        constant = random_cells(rng, 2)
        constant[(0, 1)] = (np.full(25, -1.5), np.ones(25))
        capped = random_cells(np.random.default_rng(8), 3)
        capped[(1, 2)] = (np.random.default_rng(1).normal(size=60), np.ones(60))
        small = random_cells(rng, 2)
        small[(1, 1)] = (np.array([0.5]), np.ones(1))
        datasets[2:2] = [dataset_of_cells(constant, 2), dataset_of_cells(capped, 3),
                         dataset_of_cells(small, 2)]
        # the 2-level datasets' cells fit one group
        sizes = [len(c.y) for d in datasets if d.k_levels == 2 for c in d.cells]
        assert len(sizes) * 2 * max(sizes) <= em._WARM_BLOCK
        got = warm_start_cells(datasets, Family.NORMAL)
        assert len(got) == len(datasets)
        for ds, slot in zip(datasets, got):
            assert_same_starts(slot, alone(ds, Family.NORMAL))
        assert isinstance(got[4], WarmStartError)
        assert got[2][(0, 1)].degenerate and got[3][(1, 2)].capped
        assert_warm_matches_oracle(datasets[0], Family.NORMAL)

    def test_tobit_datasets(self):
        datasets = []
        for seed, n in enumerate((150, 400, 90)):
            config = simulate.SimConfig(n_per_arm=n, dispersion_sd=2.0 + seed)
            ds, _ = simulate.generate(config, np.random.default_rng(seed))
            datasets.append(Dataset.from_arrays(np.maximum(ds.y - 2.0, 0.0), ds.t, ds.z,
                                                k_levels=2, family=Family.TOBIT))
        got = warm_start_cells(datasets, Family.TOBIT)
        for ds, slot in zip(datasets, got):
            assert_same_starts(slot, alone(ds, Family.TOBIT))

    def test_every_dataset_too_small(self):
        ds = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0, 5.0],
                                 [1, 1, 0, 0, 1], [0, 0, 0, 1, 1], k_levels=2)
        got = warm_start_cells([ds, ds], Family.NORMAL)
        assert [str(e) for e in got] == [str(alone(ds, Family.NORMAL))] * 2
        assert warm_start_cells([], Family.NORMAL) == []

    @pytest.mark.parametrize("shape", [
        (16, 2, 37), (11, 3, 250), (40, 2, 1), (16, 2, 2000), (2, 2, 3500), (3, 2, 3500),
        (1, 2, 3000),
    ], ids=["shape0", "shape1", "shape2", "shape3", "below", "from", "one_cell"])
    def test_wide_lane_sums_add_in_case_order(self, shape):
        # a lockstep group's sums round as accumulating each lane in case order
        a = np.random.default_rng(2).standard_normal(shape)
        a *= np.exp(5.0 * np.random.default_rng(3).standard_normal(shape))
        want = np.add.accumulate(a, axis=2)[..., -1]

        def lane_sums(a):  # as the warm start sums a stack
            return em._case_sum(a.reshape(-1, shape[2]).T).reshape(shape[:2])

        assert lane_sums(a).tobytes() == want.tobytes()
        # and a lane of -0.0 addends sums to +0.0, as numpy's sum does
        zeros = np.full(shape, -0.0)
        assert lane_sums(zeros).tobytes() == np.zeros(shape[:2]).tobytes()

    def test_fit_takes_the_warm_starts(self):
        ds, _ = simulate_four_strata(150, seed=31)
        warm = warm_start_cells([ds], Family.NORMAL)[0]
        a, b = fit(ds), fit(ds, warm=warm)
        assert [(r.mapping_id, r.loglik, r.iterations) for r in a.trace] == [
            (r.mapping_id, r.loglik, r.iterations) for r in b.trace]
        assert a.params.locations.tobytes() == b.params.locations.tobytes()


def start_params(ds, warm, ids, family=Family.NORMAL, mean_structure=SATURATED,
                 scale_floor=(0.0, 0.0)):
    """The initial parameter sets of mapping ids, one ModelParams each."""
    grid = StrataGrid(ds.k_levels)
    scales = _pooled_scales(warm, ds.k_levels, scale_floor)
    sets = _start_sets(warm, np.asarray(ids), grid, mean_structure, scales)
    return [ModelParams(grid, p, c.T, s, family, mean_structure) for p, c, s in zip(*sets)]


class TestMappingEnumeration:
    def test_four_strata_has_sixteen_distinct_mappings(self):
        ds, _ = simulate_four_strata(100, seed=15)
        warm = warm_start_cells(ds, Family.NORMAL)
        ids = np.arange(n_mappings(2))
        assert len(ids) == 16
        assign = _perm_table(2)[_digits(ids, 2)]
        assert len({a.tobytes() for a in assign}) == 16
        _, coef, _ = _start_sets(warm, ids, GRID2, SATURATED, np.ones(2))
        assert len({c.tobytes() for c in coef}) == 16

    def test_identity_mapping_is_first(self):
        ds, _ = simulate_four_strata(100, seed=15)
        warm = warm_start_cells(ds, Family.NORMAL)
        assert (_perm_table(2)[_digits([0], 2)[0]] == (0, 1)).all()
        table = start_params(ds, warm, [0])[0].location_table()
        # component A (lower mean) lands on the lower free coordinate
        for t, z in cell_order(2):
            cs = warm[(t, z)]
            strata = GRID2.compatible(t, z)
            assert table[strata[0], t] == cs.means[0]
            assert table[strata[1], t] == cs.means[1]

    def test_every_mapping_has_simplex_probs(self):
        ds, _ = simulate_four_strata(100, seed=16)
        warm = warm_start_cells(ds, Family.NORMAL)
        probs, _, _ = _start_sets(warm, np.arange(16), GRID2, SATURATED, np.ones(2))
        for p in probs:
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0.0)

    def test_nine_strata_mapping_count(self):
        assert n_mappings(3) == 216**2


class TestSelectStarts:
    def _setup(self, seed=17):
        ds, _ = simulate_four_strata(150, seed=seed)
        warm = warm_start_cells(ds, Family.NORMAL)
        return ds, warm

    def test_topk_includes_best_initial_loglik(self):
        ds, warm = self._setup()
        chosen = select_starts(ds, warm, GRID2, Family.NORMAL, ("topk", 3))
        lls = [log_likelihood(p, ds) for p in start_params(ds, warm, range(16))]
        assert int(np.argmax(lls)) in chosen.tolist()

    def test_topk_nested(self):
        ds, warm = self._setup()
        top3 = set(select_starts(ds, warm, GRID2, Family.NORMAL, ("topk", 3)).tolist())
        top8 = set(select_starts(ds, warm, GRID2, Family.NORMAL, ("topk", 8)).tolist())
        assert top3 <= top8

    def test_count_beyond_total_returns_all(self):
        ds, warm = self._setup()
        got = select_starts(ds, warm, GRID2, Family.NORMAL, ("topk", 99))
        assert len(got) == 16
        got = select_starts(ds, warm, GRID2, Family.NORMAL, ("spread", 99))
        assert len(got) == 16

    def test_unknown_kind_raises_before_the_count_shortcut(self):
        ds, warm = self._setup()
        for count in (3, 99):
            with pytest.raises(ValueError, match="unknown start-selection strategy"):
                select_starts(ds, warm, GRID2, Family.NORMAL, ("bogus", count))

    def test_negative_outcome_rejected_under_tobit(self):
        ds, warm = self._setup()
        with pytest.raises(DataError, match="negative outcome"):
            select_starts(ds, warm, GRID2, Family.TOBIT, ("topk", 3))

    def test_spread_contains_best_and_requested_count(self):
        ds, warm = self._setup()
        chosen = select_starts(ds, warm, GRID2, Family.NORMAL, ("spread", 5))
        assert len(chosen) == 5
        lls = [log_likelihood(p, ds) for p in start_params(ds, warm, range(16))]
        assert int(np.argmax(lls)) in chosen.tolist()


def ranking_fixture(levels, family=Family.NORMAL):
    """The 2-level start-selection fixture, a small 3-level one, or the
    2-level one with every case at level 0; under tobit, max(y - 1, 0)."""
    if levels == 3:
        ds = simulate_nine_strata(300, seed=27)
    else:
        ds = simulate_four_strata(150, seed=17)[0]
        if levels == 1:
            ds = Dataset.from_arrays(ds.y, ds.t, np.zeros(ds.n, dtype=int), k_levels=1)
    if family is Family.TOBIT:
        ds = Dataset.from_arrays(np.maximum(ds.y - 1.0, 0.0), ds.t, ds.z, k_levels=levels,
                                 family=family)
    return ds


def small_ranking_dataset(rng, levels, family):
    """Cells of ``levels + 2`` to 60 cases, one of them smaller than the
    bound's group count, some cases of weight 0; every cell keeps ``levels``
    usable cases."""
    sizes = rng.integers(levels + 2, 61, size=(2, levels))
    sizes[rng.integers(2), rng.integers(levels)] = rng.integers(levels + 2, em._RANK_GROUPS)
    t, z = (np.repeat(a.ravel(), sizes.ravel()) for a in np.indices(sizes.shape))
    y = rng.normal(2.0 + 1.5 * z, 1.5)
    w = np.where(rng.random(t.size) < 0.2, 0.0, rng.uniform(0.2, 3.0, t.size))
    first = np.flatnonzero(np.diff(np.concatenate([[-1], t * levels + z])))
    for lo in first:  # the first ``levels`` cases of each cell stay usable
        y[lo:lo + levels] = np.abs(y[lo:lo + levels]) + 0.1
        w[lo:lo + levels] = 1.0
    if family is Family.TOBIT:
        y = np.maximum(y, 0.0)
    return Dataset.from_arrays(y, t, z, w=w, k_levels=levels, family=family)


def rank(ds, family=Family.NORMAL):
    grid = StrataGrid(ds.k_levels)
    warm = warm_start_cells(ds, family)
    scales = _pooled_scales(warm, ds.k_levels, (0.0, 0.0))
    return warm, _initial_logliks(ds, warm, grid, family, scales)


class TestStartRanking:
    """Batched ranking against per-mapping evaluation, the stacked start
    sets against per-mapping construction, and start selection against the plain
    Python rules."""

    @pytest.mark.parametrize("censor", [False, True])
    def test_two_levels_match_materialized_loglik(self, censor):
        ds, _ = simulate_four_strata(150, seed=17, censor=censor)
        family = Family.TOBIT if censor else Family.NORMAL
        warm, lls = rank(ds, family)
        want = [log_likelihood(p, ds) for p in start_params(ds, warm, range(16), family)]
        np.testing.assert_allclose(lls, want, rtol=1e-12, atol=0.0)

    def test_three_levels_match_materialized_loglik_on_sample(self):
        ds = ranking_fixture(3)
        warm, lls = rank(ds)
        ids = np.random.default_rng(0).choice(n_mappings(3), size=64, replace=False)
        want = [log_likelihood(p, ds) for p in start_params(ds, warm, ids)]
        np.testing.assert_allclose(lls[ids], want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_batched_ipf_equals_scalar_ipf(self, levels):
        ds = ranking_fixture(levels)
        grid = StrataGrid(levels)
        warm = warm_start_cells(ds, Family.NORMAL)
        ids = np.arange(0, n_mappings(levels), 97 if levels == 3 else 1)
        batch = _initial_probs(warm, _perm_table(levels)[_digits(ids, levels)], grid)
        for i, probs in zip(ids.tolist(), batch):
            want = initial_probs_oracle(warm, combo_oracle(i, levels), levels)
            assert np.array_equal(probs, want)

    @STRUCTURES
    @pytest.mark.parametrize("levels", [2, 3])
    def test_start_sets_equal_one_mapping_oracle(self, levels, mean_structure):
        ds = ranking_fixture(levels)
        grid = StrataGrid(levels)
        warm = warm_start_cells(ds, Family.NORMAL)
        scales = _pooled_scales(warm, levels, (0.01, 0.02))
        ids = np.arange(0, n_mappings(levels), 97 if levels == 3 else 1)
        probs, coef, sets = _start_sets(warm, ids, grid, mean_structure, scales)
        n_loc = 4 if mean_structure is LINEAR else grid.n_strata
        assert (probs.shape, coef.shape, sets.shape) == (
            (len(ids), grid.n_strata), (len(ids), 2, n_loc), (len(ids), 2))
        for j, i in enumerate(ids.tolist()):
            want_probs, want_locations = start_params_oracle(
                warm, i, levels, mean_structure is LINEAR)
            assert np.array_equal(probs[j], want_probs)
            assert np.array_equal(coef[j], want_locations.T)
            assert np.array_equal(sets[j], scales)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_selected_ids_match_python_rule(self, levels):
        ds = ranking_fixture(levels)
        grid = StrataGrid(levels)
        warm, lls = rank(ds)
        for kind, count in (("topk", 10), ("spread", 5)):
            got = select_starts(ds, warm, grid, Family.NORMAL, (kind, count))
            assert got.tolist() == select_ids_oracle(lls.tolist(), kind, count)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_both_mean_structures_start_from_the_same_ids(self, levels):
        # the linear structure ranks its mappings by the saturated values; with
        # two levels its design spans every location table, so only the
        # three-level case tells the rankings apart
        ds = ranking_fixture(levels)
        for starts in (("topk", 5), ("spread", 5)):
            config = FitConfig(starts=starts)
            ids = [sorted(r.mapping_id for r in fit(ds, Family.NORMAL, structure, config).trace)
                   for structure in (SATURATED, LINEAR)]
            assert ids[0] == ids[1]

    def test_tied_values_go_to_the_lower_id(self, monkeypatch):
        ds = ranking_fixture(2)
        warm = warm_start_cells(ds, Family.NORMAL)
        lls = np.array([3.0, 5.0, 1.0, 5.0, 3.0, 0.0, 1.0, 5.0,
                        2.0, 0.0, 4.0, 4.0, 2.0, 3.0, 0.0, 1.0])
        monkeypatch.setattr(em, "_initial_logliks", lambda *args: lls)
        for kind in ("topk", "spread"):
            for count in range(1, 16):
                got = select_starts(ds, warm, GRID2, Family.NORMAL, (kind, count))
                assert got.tolist() == select_ids_oracle(lls.tolist(), kind, count)

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_pruned_topk_equals_the_full_ranking(self, family):
        # topk evaluates only the mappings its bound cannot rule out, each as
        # the full pass evaluates it; every other mapping is strictly below
        # the n-th best, so the chosen ids are the full ranking's
        ds = ranking_fixture(3, family)
        grid = StrataGrid(3)
        warm, full = rank(ds, family)
        scales = _pooled_scales(warm, 3, (0.0, 0.0))
        for count in (1, 10, 100, n_mappings(3) - 1):
            got = select_starts(ds, warm, grid, family, ("topk", count))
            assert got.tolist() == select_ids_oracle(full.tolist(), "topk", count)
            pruned = _initial_logliks(ds, warm, grid, family, scales, count)
            kept = np.isfinite(pruned)
            assert kept.sum() >= count
            assert np.array_equal(pruned[kept], full[kept])
            assert np.all(full[~kept] < np.sort(full)[-count])

    def test_pruned_topk_keeps_the_lower_id_among_exact_ties(self):
        # an all-equal cell: its six permutations give one value, so the
        # mappings tie in sixes, spread over the ids
        ds = ranking_fixture(3)
        y = np.where((ds.t == 1) & (ds.z == 0), 1.25, ds.y)
        ds = Dataset.from_arrays(y, ds.t, ds.z, k_levels=3)
        warm, full = rank(ds)
        assert warm[(1, 0)].degenerate
        assert np.sum(full == full.max()) == 6
        for count in (1, 3, 5, 6, 7, 11, 20):
            got = select_starts(ds, warm, StrataGrid(3), Family.NORMAL, ("topk", count))
            assert got.tolist() == select_ids_oracle(full.tolist(), "topk", count)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_degenerate_row_raises_with_case_index(self, levels):
        ds = ranking_fixture(levels)
        warm = warm_start_cells(ds, Family.NORMAL)
        # an outcome so far out that every component density underflows
        far = Dataset.from_arrays(np.append(ds.y, 1e200), np.append(ds.t, 1),
                                  np.append(ds.z, 0), k_levels=levels)
        with np.errstate(over="ignore"), pytest.raises(
            DegenerateMixtureError, match=rf"case {ds.n}\b"
        ):
            select_starts(far, warm, StrataGrid(levels), Family.NORMAL, ("topk", 3))

    def test_three_level_ranking_memory_stays_bounded(self):
        ds = simulate_nine_strata(1500, seed=26)
        warm = warm_start_cells(ds, Family.NORMAL)
        scales = _pooled_scales(warm, 3, (0.0, 0.0))
        tracemalloc.start()
        try:
            _initial_logliks(ds, warm, StrataGrid(3), Family.NORMAL, scales)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_pruned_ranking_memory_stays_bounded(self):
        ds = simulate_nine_strata(1500, seed=26)
        warm = warm_start_cells(ds, Family.NORMAL)
        scales = _pooled_scales(warm, 3, (0.0, 0.0))
        tracemalloc.start()
        try:
            _initial_logliks(ds, warm, StrataGrid(3), Family.NORMAL, scales, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestRankingBound:
    """topk's upper bound and the row independence of the batched IPF, which
    its second pass relies on, on small random datasets."""

    PROPERTY = settings(max_examples=16, deadline=None, database=None, derandomize=True)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), levels=st.sampled_from([2, 3]),
           family=st.sampled_from(list(Family)))
    def test_grouped_bound_is_above_every_initial_loglik(self, seed, levels, family):
        ds = small_ranking_dataset(np.random.default_rng(seed), levels, family)
        warm = warm_start_cells(ds, family)
        scales = _pooled_scales(warm, levels, (0.0, 0.0))
        terms = em._rank_terms(ds, warm, family, scales)
        grid = StrataGrid(levels)
        exact = em._mapping_values(terms, warm, grid)
        bound = em._mapping_values(em._grouped_terms(terms), warm, grid)
        margin = 1e-9 * (1.0 + np.abs(exact) + sum(abs(base) for *_, base in terms))
        assert np.all(bound >= exact - margin)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), levels=st.sampled_from([1, 2, 3]))
    def test_ipf_rows_do_not_depend_on_the_batch(self, seed, levels):
        rng = np.random.default_rng(seed)
        ds = small_ranking_dataset(rng, levels, Family.NORMAL)
        warm = warm_start_cells(ds, Family.NORMAL)
        grid = StrataGrid(levels)
        ids = np.arange(n_mappings(levels))
        full = _initial_probs(warm, _perm_table(levels)[_digits(ids, levels)], grid)
        sub = rng.permutation(ids)[:int(rng.integers(1, len(ids) + 1))]
        part = _initial_probs(warm, _perm_table(levels)[_digits(sub, levels)], grid)
        assert np.array_equal(part, full[sub])


class TestFit:
    def test_recovers_well_separated_model(self):
        ds, truth = simulate_four_strata(5000, seed=18, dispersion=2.4)
        res = fit(ds)
        assert res.converged
        assert np.max(np.abs(res.params.location_table() - truth.location_table())) < 0.15
        assert res.loglik == pytest.approx(log_likelihood(res.params, ds), rel=1e-8)
        assert all(res.loglik >= r.loglik - 1e-8 for r in res.trace)

    def test_weight_scaling_invariance(self):
        ds, _ = simulate_four_strata(300, seed=19)
        scaled = Dataset.from_arrays(ds.y, ds.t, ds.z, w=3.0 * ds.w, k_levels=2)
        res1 = fit(ds)
        res3 = fit(scaled)
        assert res3.mapping_id == res1.mapping_id
        np.testing.assert_allclose(res3.params.probs, res1.params.probs, atol=1e-7)
        np.testing.assert_allclose(
            res3.params.locations, res1.params.locations, atol=1e-6
        )
        assert res3.loglik == pytest.approx(3.0 * res1.loglik, rel=1e-7)

    def test_uniform_probs_reproduce_near_ties(self):
        ds, _ = simulate_four_strata(800, seed=20, probs=(0.25, 0.25, 0.25, 0.25))
        res = fit(ds)
        near = sum(
            1 for r in res.trace
            if (res.loglik - r.loglik) <= 1e-4 * abs(res.loglik)
        )
        assert near >= 2

    def test_em_monotone_with_history(self):
        ds, _ = simulate_four_strata(200, seed=21)
        res = fit(ds, config=FitConfig(keep_history=True))
        for rec in res.trace:
            diffs = np.diff(rec.history)
            assert diffs.min() >= -1e-8

    def test_the_winner_is_the_record_of_the_first_tie(self):
        ds, _ = simulate_four_strata(200, seed=21)
        res = fit(ds)
        assert res.winner is next(r for r in res.trace if r.mapping_id == res.tie_ids[0])
        for name in ("params", "loglik", "mapping_id", "iterations", "converged",
                     "floor_active", "frozen"):
            assert getattr(res, name) == getattr(res.winner, name), name
        assert res.converged == (res.winner.stop_reason == "tol")
        for ties in ((), (99,)):
            with pytest.raises(ValueError, match="names no trace record"):
                em.FitResult(res.trace, ties, res.scale_floor)

    def test_empty_cell_aborts(self):
        ds = Dataset.from_arrays(
            [1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1], [0, 1, 0, 0], k_levels=2
        )
        with pytest.raises(DataError, match="empty"):
            fit(ds)

    @pytest.mark.parametrize("kwargs", [
        {"tol": math.nan}, {"tol": math.inf}, {"tol": -1e-9}, {"max_iter": 0},
        {"max_iter": 10.0}, {"starts": "top"}, {"starts": ("topk", 0)},
        {"starts": ("best", 3)}, {"starts": ("spread", 2.0)},
    ], ids=["tol_nan", "tol_inf", "tol_negative", "max_iter_0", "max_iter_float",
            "starts_text", "starts_topk_0", "starts_kind", "starts_float_count"])
    def test_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)
        with pytest.raises(ValueError):
            simulate.SimConfig(**kwargs)

    @pytest.mark.parametrize("config, kwargs, field", [
        (FitConfig, {"starts": ("topk", True)}, "starts"),
        (FitConfig, {"max_iter": True}, "max_iter"),
        (simulate.SimConfig, {"starts": ("spread", False)}, "starts"),
        (simulate.SimConfig, {"replicates": True}, "replicates"),
        (simulate.SimConfig, {"k_levels": True}, "k_levels"),
        (simulate.SimConfig, {"k_levels": 2.0}, "k_levels"),
    ], ids=["starts_topk_true", "max_iter_true", "sim_starts_false", "replicates_true",
            "k_levels_true", "k_levels_float"])
    def test_config_rejects_a_bool_or_float_count(self, config, kwargs, field):
        # bool is a subclass of int, so a bare int check takes True as a count of 1
        with pytest.raises(ValueError, match=field):
            config(**kwargs)

    @pytest.mark.parametrize("config", [FitConfig, simulate.SimConfig])
    def test_config_keeps_starts_as_an_int_tuple(self, config):
        # a numpy count is an int count, and a list selection becomes a
        # tuple, so the frozen config hashes
        for starts in (("topk", np.int64(3)), ["spread", 3]):
            got = config(starts=starts)
            assert got.starts == (starts[0], 3)
            assert type(got.starts) is tuple and type(got.starts[1]) is int
            hash(got)

    def test_more_than_three_levels_rejected_before_warm_starts(self, monkeypatch):
        rng = np.random.default_rng(0)
        ds = Dataset.from_arrays(rng.normal(size=400), np.arange(400) % 2,
                                 (np.arange(400) // 2) % 4, k_levels=4)

        def no_warm_start(*args, **kwargs):
            raise AssertionError("warm starts ran")

        monkeypatch.setattr(em, "warm_start_cells", no_warm_start)
        for starts in ("all", ("topk", 3)):
            with pytest.raises(DataError, match=r"4 levels give 24\^8 = 110,075,314,176"):
                fit(ds, config=FitConfig(starts=starts))
        with pytest.raises(DataError, match="at most 3 levels"):
            select_starts(ds, None, StrataGrid(4), Family.NORMAL, ("topk", 3))

    def test_no_convergence_carries_trace(self):
        ds, _ = simulate_four_strata(200, seed=22)
        with pytest.raises(ConvergenceError) as err:
            fit(ds, config=FitConfig(max_iter=1))
        assert len(err.value.trace) == 16

    def test_pruned_starts_do_not_keep_a_capped_winner_from_raising(self):
        # the survivors of the short phase all hit max_iter; the pruned
        # starts stopped before it but never count as converged
        ds, _ = simulate_four_strata(200, seed=42, dispersion=3.0)
        with pytest.raises(ConvergenceError) as err:
            fit(ds, config=FitConfig(max_iter=em._SHORT_PHASE + 2))
        assert {r.stop_reason for r in err.value.trace} == {"pruned", "max_iter"}

    @pytest.mark.parametrize("winner, losers, raises", [
        ("max_iter", "max_iter", True),
        ("max_iter", "tol", False),
        ("nonmonotone", "max_iter", False),
    ])
    def test_convergence_error_follows_the_winner_and_converged_starts(
            self, monkeypatch, winner, losers, raises):
        ds, _ = simulate_four_strata(200, seed=41)
        real = em._run_starts

        def relabelled(*args):
            records = real(*args)
            best = max(r.loglik for r in records)
            return [dataclasses.replace(r, stop_reason=losers)
                    if best - r.loglik > em.LOGLIK_TIE_TOL else
                    dataclasses.replace(r, stop_reason=winner)
                    for r in records]

        monkeypatch.setattr(em, "_run_starts", relabelled)
        if raises:
            with pytest.raises(ConvergenceError):
                fit(ds)
        else:
            res = fit(ds)
            assert not res.converged

    def test_label_permutation_of_warm_starts_leaves_best_loglik(self):
        ds, _ = simulate_four_strata(250, seed=23)
        warm = warm_start_cells(ds, Family.NORMAL)
        swapped = dict(warm)
        cs = warm[(1, 0)]
        swapped[(1, 0)] = dataclasses.replace(
            cs, means=cs.means[::-1].copy(), sds=cs.sds[::-1].copy(), props=cs.props[::-1].copy()
        )

        def best_loglik(warm_dict):
            ids = np.arange(16)
            sets = _start_sets(warm_dict, ids, GRID2, SATURATED,
                               _pooled_scales(warm_dict, 2, (0.0, 0.0)))
            records = _run_starts(ds, ids, *sets, Family.NORMAL, SATURATED,
                                  1e-9, 2000, (0.0, 0.0), False)
            return max(rec.loglik for rec in records)

        assert best_loglik(swapped) == pytest.approx(best_loglik(warm), abs=1e-6)

    def test_tobit_fit_recovers(self):
        ds, truth = simulate_four_strata(
            800, seed=25, dispersion=2.4, sigma=2.0, effect=3.0, censor=True
        )
        res = fit(ds, Family.TOBIT)
        assert res.converged
        sigma = 2.0
        assert np.max(np.abs(res.params.location_table() - truth.location_table())) < 0.5 * sigma
        np.testing.assert_allclose(res.params.scales, sigma, rtol=0.15)


def fit_starts(ds, family, mean_structure, config):
    """The start ids, their stacked initial sets (probs, coef, scales) and
    the scale floor that ``fit`` builds from these arguments."""
    grid = StrataGrid(ds.k_levels)
    floor = tuple(
        1e-3 * em._weighted_sd(ds.y[ds.t == t], ds.w[ds.t == t]) for t in (0, 1)
    )
    warm = warm_start_cells(ds, family)
    if config.starts == "all":
        ids = np.arange(n_mappings(ds.k_levels))
    else:
        ids = select_starts(ds, warm, grid, family, config.starts, floor)
    scales = _pooled_scales(warm, ds.k_levels, floor)
    return ids, _start_sets(warm, ids, grid, mean_structure, scales), floor


def pruned_at(histories, ds, config):
    """The evaluation at which the pruning rule of ``em._run_starts`` stops
    each start, or None, given each start's log-likelihood at every
    evaluation it ran (each history ends where its start stopped). The rule
    is checked from evaluation ``_AITKEN_FROM`` on, at every evaluation up to
    ``max_iter`` where the start did not meet its own stop rule, against the
    lead: the best log-likelihood of all starts up to that evaluation. It
    fires on a lag above ``_PRUNE_AHEAD`` times the start's projected
    remaining gain, Aitken's extrapolation capped by the M-steps left, and
    from ``_SHORT_PHASE`` to ``_SHORT_END`` also on one above the margin per
    unit of case weight, ``_PRUNE_MARGIN`` shrinking by ``_MARGIN_DECAY`` per
    evaluation (at least ``NEAR_TIE_REL`` relative either way)."""
    short = em._SHORT_PHASE
    out = [None] * len(histories)
    lead = -math.inf
    for e in range(1, max(map(len, histories)) + 1):
        lead = max([lead] + [h[e - 1] for h in histories if len(h) >= e])
        if not min(em._AITKEN_FROM, short) <= e <= config.max_iter:
            continue
        floor = em.NEAR_TIE_REL * abs(lead)
        margin = (em._PRUNE_MARGIN * em._MARGIN_DECAY ** (e - short) * ds.w.sum()
                  if short <= e <= em._SHORT_END else math.inf)
        for i, h in enumerate(histories):
            if len(h) < e or out[i] is not None:
                continue
            ll, gain = h[e - 1], h[e - 1] - h[e - 2]
            if abs(gain) <= config.tol * max(1.0, abs(ll)) or gain < -em._DROP_TOL * abs(ll):
                continue  # it stopped on its own rule
            fires = lead - ll > max(floor, margin)
            if e >= em._AITKEN_FROM:
                prev = h[e - 2] - h[e - 3]
                r = gain / prev if prev else math.inf
                ahead = min(gain * r / (1.0 - r) if 0.0 <= r < 1.0 else math.inf,
                            gain * (config.max_iter - e + 1))
                fires |= lead - ll > max(floor, em._PRUNE_AHEAD * ahead)
            if fires:
                out[i] = e
    return out


def assert_records_match_oracle(records, ids, sets, ds, family, mean_structure, config, floor):
    """Each record is EM run from its start alone, and each start is pruned
    exactly at the evaluation :func:`pruned_at` predicts from the one-start
    runs' histories, or not at all. A start pruned at evaluation e has the
    record of the one-start run capped at e - 1 M-steps, apart from its stop
    reason."""
    assert [r.mapping_id for r in records] == ids.tolist()
    grid = StrataGrid(ds.k_levels)
    histories = []
    for rec, probs, coef, scales in zip(records, *sets):
        start = ModelParams(grid, probs, coef.T, scales, family, mean_structure)
        pruned = rec.stop_reason == "pruned"
        want = em_one_start_oracle(ds, start, family, mean_structure, config.tol,
                                   rec.iterations if pruned else config.max_iter, floor)
        assert (rec.iterations, rec.converged, rec.frozen, rec.floor_active) == (
            want["iterations"], want["converged"], want["frozen"], want["floor_active"])
        if not pruned:
            assert rec.stop_reason == ("tol" if want["converged"] else "max_iter")
        assert rec.loglik == pytest.approx(want["loglik"], rel=1e-10)
        for name in ("probs", "locations", "scales"):
            np.testing.assert_allclose(getattr(rec.params, name),
                                       getattr(want["params"], name), rtol=0.0, atol=1e-8)
        if config.keep_history:
            np.testing.assert_allclose(rec.history, want["history"], rtol=1e-10, atol=0.0)
        else:
            assert rec.history == ()
        histories.append(want["history"])
    assert pruned_at(histories, ds, config) == [
        r.iterations + 1 if r.stop_reason == "pruned" else None for r in records]


# (dataset, family, mean structure, config, the kinds of stop its starts
# show; see stop_kinds)
ORACLE_CASES = {
    "normal": (lambda: simulate_four_strata(200, seed=41)[0], Family.NORMAL,
               MeanStructure.SATURATED, FitConfig(), {"tol", "late"}),
    "linear": (lambda: simulate_four_strata(200, seed=43)[0], Family.NORMAL,
               MeanStructure.LINEAR, FitConfig(), {"tol", "late"}),
    "tobit": (lambda: simulate_four_strata(150, seed=44, censor=True)[0], Family.TOBIT,
              MeanStructure.SATURATED, FitConfig(tol=1e-7, starts=("topk", 4)), {"tol", "late"}),
    "three_levels": (lambda: simulate_nine_strata(200, seed=27), Family.NORMAL,
                     MeanStructure.SATURATED, FitConfig(starts=("topk", 3)), {"tol", "late"}),
    "capped": (lambda: simulate_four_strata(200, seed=22)[0], Family.NORMAL,
               MeanStructure.SATURATED, FitConfig(max_iter=5), {"max_iter"}),
    # near max_iter the M-steps left, not Aitken's projection, bound the gain
    "capped_late": (lambda: simulate_four_strata(200, seed=41)[0], Family.NORMAL,
                    MeanStructure.SATURATED, FitConfig(max_iter=20), {"max_iter", "late"}),
    "history": (lambda: simulate_four_strata(200, seed=22)[0], Family.NORMAL,
                MeanStructure.SATURATED, FitConfig(keep_history=True), {"tol", "late"}),
    # well separated, so some starts trail the leader by more than the
    # pruning margin in the short phase, and some whose gains collapse stop
    # before it
    "pruned": (lambda: simulate_four_strata(200, seed=42, dispersion=3.0)[0], Family.NORMAL,
               MeanStructure.SATURATED, FitConfig(), {"tol", "early", "short", "late"}),
    "pruned_linear": (lambda: simulate_four_strata(200, seed=43, dispersion=3.0)[0],
                      Family.NORMAL, MeanStructure.LINEAR, FitConfig(),
                      {"tol", "early", "short", "late"}),
    "pruned_tobit": (lambda: simulate_four_strata(150, seed=44, dispersion=3.0, censor=True)[0],
                     Family.TOBIT, MeanStructure.SATURATED, FitConfig(tol=1e-7),
                     {"tol", "early", "short", "late"}),
    "pruned_history": (lambda: simulate_four_strata(200, seed=21, dispersion=3.0)[0],
                       Family.NORMAL, MeanStructure.SATURATED, FitConfig(keep_history=True),
                       {"tol", "early", "short", "late"}),
}


def stop_kinds(records) -> set[str]:
    """The stop reasons of the records, a pruned start counted as ``"early"``
    when its projected gain alone stopped it before the short phase, as
    ``"short"`` when the short phase's first check stopped it and as
    ``"late"`` when a later evaluation did."""
    def kind(r):
        if r.stop_reason != "pruned":
            return r.stop_reason
        evaluation = r.iterations + 1
        return ("early" if evaluation < em._SHORT_PHASE else
                "short" if evaluation == em._SHORT_PHASE else "late")

    return {kind(r) for r in records}


class TestBatchedEM:
    """Every start of the batched EM ends where EM run from that start alone
    through the public one-set functions ends."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_fit_trace_matches_one_start_oracle(self, case):
        make, family, mean_structure, config, kinds = ORACLE_CASES[case]
        ds = make()
        ids, sets, floor = fit_starts(ds, family, mean_structure, config)
        try:
            records = fit(ds, family, mean_structure, config).trace
        except ConvergenceError as err:
            assert case.startswith("capped")
            records = err.trace
        assert_records_match_oracle(records, ids, sets, ds, family, mean_structure, config, floor)
        assert stop_kinds(records) == kinds

    def test_block_pruned_whole_after_the_leader_stopped(self, monkeypatch):
        ds, _ = simulate_four_strata(200, seed=42, dispersion=3.0)
        config = FitConfig()
        ids, (probs, coef, scales), floor = fit_starts(ds, Family.NORMAL, SATURATED, config)
        res = fit(ds, config=config)
        losers = [i for i, r in enumerate(res.trace) if r.stop_reason == "pruned"]
        assert len(losers) >= 3
        # one start per block; the first starts at the optimum, so it stops
        # within the short phase and leads every later block, whose one
        # running start is then pruned
        widest = max(cell.y.size * cell.strata.size for cell in ds.cells)
        monkeypatch.setattr(em, "_EM_BLOCK", widest)
        best = res.params
        ids = np.concatenate([[99], ids[losers]])
        sets = tuple(np.concatenate([row[None], a[losers]])
                     for a, row in ((probs, best.probs), (coef, best.locations.T),
                                    (scales, best.scales)))
        records = _run_starts(ds, ids, *sets, Family.NORMAL, SATURATED, config.tol,
                              config.max_iter, floor, False)
        assert records[0].stop_reason == "tol"
        assert records[0].iterations < em._SHORT_PHASE
        assert [r.stop_reason for r in records[1:]] == ["pruned"] * len(losers)
        assert_records_match_oracle(records, ids, sets, ds, Family.NORMAL, SATURATED, config,
                                    floor)

    @pytest.mark.parametrize("case", ["tobit", "three_levels"])
    def test_late_pruning_leaves_the_answer(self, case, monkeypatch):
        # the winner's record, the ties and the SEs are those of running
        # every start that outlives the short phase to its stop rule
        make, family, mean_structure, config, _ = ORACLE_CASES[case]
        ds = make()

        def answer():
            res = fit(ds, family, mean_structure, config)
            return res, *effect_table(res, ds)

        (on, table_on, *covs_on) = answer()
        monkeypatch.setattr(em, "_PRUNE_AHEAD", math.inf)
        (off, table_off, *covs_off) = answer()
        # the projected-gain rule stops some start before the margins do, and
        # without it no start is pruned after the short phase
        assert any(a.stop_reason == "pruned" and a.iterations < b.iterations
                   for a, b in zip(on.trace, off.trace))
        assert all(r.iterations < em._SHORT_END for r in off.trace if r.stop_reason == "pruned")
        a, b = on.winner, off.winner
        assert (a.mapping_id, a.loglik, a.iterations, a.stop_reason, a.frozen,
                a.floor_active) == (b.mapping_id, b.loglik, b.iterations, b.stop_reason,
                                    b.frozen, b.floor_active)
        for name in ("probs", "locations", "scales"):
            np.testing.assert_array_equal(getattr(a.params, name), getattr(b.params, name))
        assert on.tie_ids == off.tie_ids
        for name in ("se_naive", "se_cluster", "se_naive_observed", "se_cluster_observed"):
            np.testing.assert_array_equal(getattr(table_on, name), getattr(table_off, name))
        for x, y in zip(covs_on, covs_off):
            np.testing.assert_array_equal(x.cov, y.cov)

    @pytest.mark.parametrize("c", [0.2, 5.0, 1e3])
    def test_pruning_does_not_depend_on_the_units_of_y(self, c):
        # rescaling y by c moves every log-likelihood by -W log c (W the
        # total case weight) and leaves the lags between starts alone; at
        # c = 0.2 the lead is near -0.9 per case, at c = 1e3 near -9.4
        ds, _ = simulate_four_strata(200, seed=21, dispersion=3.0)
        scaled = Dataset.from_arrays(ds.y * c, ds.t, ds.z, w=ds.w, k_levels=ds.k_levels)
        base, res = fit(ds), fit(scaled)
        assert "pruned" in {r.stop_reason for r in base.trace}
        assert [r.stop_reason for r in res.trace] == [r.stop_reason for r in base.trace]
        assert (res.mapping_id, res.tie_ids) == (base.mapping_id, base.tie_ids)

    def test_collapsing_gains_prune_at_evaluation_3(self, monkeypatch):
        # before the short phase only the projected gain can stop a start:
        # mapping 9 trails the leader by 7.0 at evaluation 3, where its gain
        # fell to 0.05 of the one before, so it stops after 2 M-steps; inside
        # the near-tie band of the lead (here widened to hold it) the same
        # start runs on to its stop rule
        ds, _ = simulate_four_strata(200, seed=42, dispersion=3.0)
        config = FitConfig()
        ids, sets, floor = fit_starts(ds, Family.NORMAL, SATURATED, config)
        ids, sets = ids[[0, 9]], tuple(a[[0, 9]] for a in sets)

        def run():
            records = _run_starts(ds, ids, *sets, Family.NORMAL, SATURATED, config.tol,
                                  config.max_iter, floor, False)
            assert_records_match_oracle(records, ids, sets, ds, Family.NORMAL, SATURATED,
                                        config, floor)
            return [(r.mapping_id, r.stop_reason, r.iterations) for r in records]

        assert em._AITKEN_FROM == 3 < em._SHORT_PHASE
        first = run()
        assert first[1] == (9, "pruned", 2)
        monkeypatch.setattr(em, "NEAR_TIE_REL", 0.05)
        second = run()
        assert second[0] == first[0] and second[1][1] == "tol"

    def test_relative_floor_keeps_close_starts_running(self, monkeypatch):
        # with a margin per unit of case weight far inside the near-tie
        # band, the relative floor decides which starts are pruned
        monkeypatch.setattr(em, "_PRUNE_MARGIN", 1e-6)
        ds, _ = simulate_four_strata(200, seed=22, dispersion=1.6)
        config = FitConfig()
        ids, sets, floor = fit_starts(ds, Family.NORMAL, SATURATED, config)
        records = fit(ds, config=config).trace
        assert_records_match_oracle(records, ids, sets, ds, Family.NORMAL, SATURATED, config,
                                    floor)
        short = [r.stop_reason == "pruned" and r.iterations == em._SHORT_PHASE - 1
                 for r in records]
        assert 0 < sum(short) < len(ids) - 1

    def test_dropping_start_ends_nonmonotone(self, monkeypatch):
        ds, _ = simulate_four_strata(200, seed=42, dispersion=3.0)
        config = FitConfig()
        ids, sets, floor = fit_starts(ds, Family.NORMAL, SATURATED, config)
        args = (Family.NORMAL, SATURATED, config.tol, config.max_iter, floor, False)
        clean = _run_starts(ds, ids, *sets, *args)
        # a start that trails the leader, so that dropping it moves no lead
        j = next(i for i, r in enumerate(clean) if r.stop_reason == "pruned")
        real = em._m_step_core
        calls = []

        def pushed(stats, *rest):
            out = real(stats, *rest)
            calls.append(len(stats))
            if len(calls) == 2:  # the second M-step, before any start can stop
                out[1][j] += 50.0  # moves start j's locations far from the data
            return out

        monkeypatch.setattr(em, "_m_step_core", pushed)
        got = _run_starts(ds, ids, *sets, *args)
        assert calls[1] == len(ids)
        assert (got[j].stop_reason, got[j].converged, got[j].iterations) == (
            "nonmonotone", False, 3)
        assert got[j].loglik < clean[j].loglik
        for a, b in zip(clean[:j] + clean[j + 1:], got[:j] + got[j + 1:]):
            assert (a.stop_reason, a.iterations, a.loglik) == (b.stop_reason, b.iterations,
                                                                b.loglik)
            np.testing.assert_array_equal(a.params.locations, b.params.locations)
            np.testing.assert_array_equal(a.params.probs, b.params.probs)
            np.testing.assert_array_equal(a.params.scales, b.params.scales)

    def test_drop_inside_the_tol_band_ends_tol(self, monkeypatch):
        ds, _ = simulate_four_strata(200, seed=41)
        res = fit(ds)
        best = res.params
        sets = (best.probs[None], best.locations.T[None], best.scales[None])
        real = em._m_step_core

        def pushed(stats, *rest):
            out = real(stats, *rest)
            out[1][0] += 0.01  # a small step away from the optimum it starts at
            return out

        monkeypatch.setattr(em, "_m_step_core", pushed)

        def run(tol):
            return _run_starts(ds, np.array([99]), *sets, Family.NORMAL, SATURATED, tol, 2000,
                               res.scale_floor, True)[0]

        wide, narrow = run(1e-3), run(1e-9)
        drop = wide.history[0] - wide.history[1]
        assert em._DROP_TOL * abs(wide.history[1]) < drop <= 1e-3 * abs(wide.history[1])
        assert (wide.stop_reason, wide.converged) == ("tol", True)
        assert (narrow.stop_reason, narrow.converged) == ("nonmonotone", False)

    @pytest.mark.parametrize("censor", [False, True])
    def test_frozen_stratum_matches_one_start_oracle(self, censor, monkeypatch):
        ds, truth = simulate_four_strata(150, seed=44, censor=censor)
        family = Family.TOBIT if censor else Family.NORMAL
        config = FitConfig(tol=1e-7)
        ids, (probs, coef, scales), floor = fit_starts(ds, family, SATURATED, config)
        # blocks of two starts
        widest = max(cell.y.size * cell.strata.size for cell in ds.cells)
        monkeypatch.setattr(em, "_EM_BLOCK", 2 * widest)
        # stratum 3 sits 50 scales above every treated case, so it loses all
        # treated-arm weight in the first M-step and keeps that location
        # (its control-arm weight may die out later)
        table = truth.location_table().copy()
        table[3, 1] += 50.0
        # as start 99, the fourth of six
        ids = np.insert(ids[:5], 3, 99)
        sets = tuple(np.insert(a[:5], 3, row, axis=0)
                     for a, row in ((probs, truth.probs), (coef, table.T), (scales, truth.scales)))
        records = _run_starts(ds, ids, *sets, family, SATURATED, config.tol,
                              config.max_iter, floor, False)
        assert (3, 1) in records[3].frozen
        assert records[3].params.locations[3, 1] == table[3, 1]
        assert_records_match_oracle(records, ids, sets, ds, family, SATURATED, config, floor)

    @pytest.mark.parametrize("case", ["pruned", "pruned_linear", "pruned_tobit", "three_levels"])
    def test_records_do_not_depend_on_the_block_size(self, case, monkeypatch):
        # one start per block, three per block and every start in one block
        # (a start pruned late trails a lead set in another block); the EM
        # loop's log-likelihoods are the stacked evaluator's, bit for
        # bit, and the start arrays are left as they were given
        make, family, mean_structure, config, kinds = ORACLE_CASES[case]
        ds = make()
        ids, sets, floor = fit_starts(ds, family, mean_structure, config)
        given = [a.copy() for a in sets]
        widest = max(cell.y.size * cell.strata.size for cell in ds.cells)
        assert em._em_block(ds) >= len(ids)

        def records(block):
            monkeypatch.setattr(em, "_EM_BLOCK", block)
            got = _run_starts(ds, ids, *sets, family, mean_structure, config.tol,
                              config.max_iter, floor, False)
            stacked = log_likelihood([r.params for r in got], ds)
            for r, value in zip(got, stacked.tolist()):
                assert r.loglik == log_likelihood(r.params, ds) == value
            for a, b in zip(sets, given):
                np.testing.assert_array_equal(a, b)
            assert stop_kinds(got) == kinds
            return [(r.mapping_id, r.loglik, r.iterations, r.stop_reason, r.frozen,
                     r.floor_active, r.params.probs.tolist(), r.params.locations.tolist(),
                     r.params.scales.tolist()) for r in got]

        want = records(em._EM_BLOCK)
        assert records(widest) == want
        assert records(3 * widest) == want

    def test_em_working_set_stays_bounded(self):
        ds, _ = simulate_four_strata(20_000, seed=45)
        ids, sets, floor = fit_starts(ds, Family.NORMAL, SATURATED, FitConfig())
        tracemalloc.start()
        try:
            _run_starts(ds, ids, *sets, Family.NORMAL, SATURATED, 1e-9, 3, floor, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


@pytest.mark.slow
class TestNineStrata:
    def test_topk_fit_runs_and_recovers_shape(self):
        ds = simulate_nine_strata(1500, seed=26)
        res = fit(ds, config=FitConfig(starts=("topk", 30), tol=1e-8))
        assert len(res.trace) == 30
        assert res.converged
