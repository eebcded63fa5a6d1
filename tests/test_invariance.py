"""Invariances of the model: case weights, rows, censoring, level labels
and the packed parameter transform."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratfit import effects
from stratfit.core import Dataset, MeanStructure, ModelParams, StrataGrid, pack, unpack
from stratfit.densities import Family
from stratfit.em import FitResult, StartRecord, e_step, fit, log_likelihood

from _oracles import random_small_dataset
from test_estimation import simulate_four_strata

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


def with_rows(ds: Dataset, y, t, z, w, family) -> Dataset:
    return Dataset.from_arrays(y, t, z, w=w, k_levels=ds.k_levels, family=family)


@functools.cache
def weighted_fit(censor: bool, c: float):
    """A fit and its effect table with every case weight times ``c``."""
    ds, _ = simulate_four_strata(300, seed=23 if censor else 19, dispersion=3.0, censor=censor)
    family = Family.TOBIT if censor else Family.NORMAL
    rng = np.random.default_rng(7)
    w = rng.uniform(0.5, 2.0, ds.n)
    cluster = rng.integers(0, 30, ds.n)
    data = Dataset.from_arrays(ds.y, ds.t, ds.z, w=c * w, cluster=cluster, k_levels=2,
                               family=family)
    res = fit(data, family)
    return res, effects.effect_table(res, data)


class TestWeightScaling:
    """Weights times c scale every weighted sum by c: the loglik scales by c,
    the optimum stays put and the naive SEs scale by 1/sqrt(c). Times 4, a
    power of two, each sum scales exactly, so the fit and its SEs follow bit
    for bit."""

    @pytest.mark.parametrize("censor", [False, True], ids=["normal", "tobit"])
    def test_weights_times_four(self, censor):
        r1, (t1, naive1, cluster1) = weighted_fit(censor, 1.0)
        r4, (t4, naive4, cluster4) = weighted_fit(censor, 4.0)
        assert np.array_equal(pack(r4.params), pack(r1.params))
        assert r4.iterations == r1.iterations
        assert [r.iterations for r in r4.trace] == [r.iterations for r in r1.trace]
        assert r4.mapping_id == r1.mapping_id
        assert r4.tie_ids == r1.tie_ids
        assert r4.loglik == 4.0 * r1.loglik

        assert np.array_equal(naive4.se, naive1.se / 2.0)
        assert np.array_equal(t4.se_naive, t1.se_naive / 2.0)
        assert np.array_equal(cluster4.cov, cluster1.cov)
        assert np.array_equal(t4.se_cluster, t1.se_cluster)

    @pytest.mark.parametrize("c", [0.3, 7.0, 1e3])
    @pytest.mark.parametrize("censor", [False, True], ids=["normal", "tobit"])
    def test_weights_times_any_c(self, censor, c):
        # the effect SEs carry the finite-difference Hessian's noise, up to
        # 4e-5 relative here (the packed parameters' own SEs up to 4e-4)
        r1, (t1, _, _) = weighted_fit(censor, 1.0)
        rc, (tc, _, _) = weighted_fit(censor, c)
        assert (rc.mapping_id, rc.tie_ids) == (r1.mapping_id, r1.tie_ids)
        assert rc.loglik / c == pytest.approx(r1.loglik, rel=1e-12, abs=0)
        np.testing.assert_allclose(pack(rc.params), pack(r1.params), rtol=0, atol=1e-9)
        for kind in ("", "_observed") if censor else ("",):
            np.testing.assert_allclose(getattr(tc, "se_naive" + kind) * np.sqrt(c),
                                       getattr(t1, "se_naive" + kind), rtol=1e-4, atol=0)
            np.testing.assert_allclose(getattr(tc, "se_cluster" + kind),
                                       getattr(t1, "se_cluster" + kind), rtol=1e-4, atol=0)


def moved_strata(grid: StrataGrid, perm) -> list[int]:
    """Where each stratum (z0, z1) goes when level z is relabelled perm[z]."""
    return [grid.index(perm[z0], perm[z1]) for z0, z1 in grid.strata]


def relabelled(params: ModelParams, to: list[int]) -> ModelParams:
    """``params`` with stratum s moved to ``to[s]``."""
    probs, locations = np.empty_like(params.probs), np.empty_like(params.locations)
    probs[to], locations[to] = params.probs, params.locations
    return ModelParams(params.grid, probs, locations, params.scales, params.family)


def as_fit(params: ModelParams) -> FitResult:
    record = StartRecord(0, 0.0, params, 1, (False, False), (), "tol")
    return FitResult((record,), (0,), (0.0, 0.0))


class TestRelabelling:
    """The level labels carry no meaning: relabelling the levels by a
    permutation in the data and in the strata moves every stratum's terms
    and leaves the likelihood alone, up to the order of its sums."""

    @pytest.mark.parametrize("family", ["normal", "tobit"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_level_permutation(self, k, family):
        rng = np.random.default_rng(10 * k + (family == "tobit"))
        n = 80
        y = rng.normal(1.0, 2.0, n)
        if family == "tobit":
            y = np.maximum(y, 0.0)
        t, z, w = rng.integers(0, 2, n), rng.integers(0, k, n), rng.uniform(0.2, 3.0, n)
        grid = StrataGrid(k)
        params = ModelParams(grid, rng.dirichlet(np.full(grid.n_strata, 2.0)),
                             rng.normal(0.5, 1.5, (grid.n_strata, 2)), rng.uniform(0.5, 3.0, 2),
                             Family(family))
        ds = Dataset.from_arrays(y, t, z, w=w, k_levels=k, family=Family(family))
        base_ll, base_post = log_likelihood(params, ds), e_step(params, ds)
        base_effects = effects.treatment_effects(as_fit(params))
        for perm in itertools.permutations(range(k)):
            to = moved_strata(grid, perm)
            moved = relabelled(params, to)
            moved_ds = Dataset.from_arrays(y, t, np.array(perm)[z], w=w, k_levels=k,
                                           family=Family(family))
            assert log_likelihood(moved, moved_ds) == pytest.approx(base_ll, rel=1e-13, abs=0)
            np.testing.assert_allclose(e_step(moved, moved_ds)[:, to], base_post,
                                       rtol=0, atol=1e-13)
            table = effects.treatment_effects(as_fit(moved))
            assert np.array_equal(table.effect[to], base_effects.effect)
            if family == "tobit":
                np.testing.assert_allclose(table.effect_observed[to],
                                           base_effects.effect_observed, rtol=1e-15, atol=0)


class TestRows:
    @PROPERTY
    @given(seed=SEEDS, family=st.sampled_from(["normal", "tobit"]))
    def test_zero_weight_row_is_a_dropped_row(self, seed, family):
        rng = np.random.default_rng(seed)
        ds, params = random_small_dataset(rng, family)
        i = int(rng.integers(ds.n))
        w = ds.w.copy()
        w[i] = 0.0
        zeroed = with_rows(ds, ds.y, ds.t, ds.z, w, params.family)
        keep = np.arange(ds.n) != i
        dropped = with_rows(ds, ds.y[keep], ds.t[keep], ds.z[keep], ds.w[keep],
                            params.family)
        expected = log_likelihood(params, dropped)
        assert log_likelihood(params, zeroed) == pytest.approx(expected, rel=1e-12, abs=0)

    @PROPERTY
    @given(seed=SEEDS, family=st.sampled_from(["normal", "tobit"]))
    def test_duplicated_row_is_weight_two(self, seed, family):
        rng = np.random.default_rng(seed)
        ds, params = random_small_dataset(rng, family)
        i = int(rng.integers(ds.n))
        w = ds.w.copy()
        w[i] *= 2.0
        doubled = with_rows(ds, ds.y, ds.t, ds.z, w, params.family)
        rows = np.append(np.arange(ds.n), i)
        duplicated = with_rows(ds, ds.y[rows], ds.t[rows], ds.z[rows], ds.w[rows],
                               params.family)
        expected = log_likelihood(params, doubled)
        assert log_likelihood(params, duplicated) == pytest.approx(expected, rel=1e-12, abs=0)


class TestCensoring:
    @PROPERTY
    @given(seed=SEEDS)
    def test_tobit_without_zeros_is_the_normal_loglik(self, seed):
        rng = np.random.default_rng(seed)
        ds, params = random_small_dataset(rng, "normal")
        positive = with_rows(ds, np.abs(ds.y) + 0.01, ds.t, ds.z, ds.w, Family.TOBIT)
        tobit = ModelParams(params.grid, params.probs, params.locations, params.scales,
                            Family.TOBIT)
        assert log_likelihood(tobit, positive) == log_likelihood(params, positive)


def packed_like(k_levels: int, mean_structure: MeanStructure) -> ModelParams:
    grid = StrataGrid(k_levels)
    n_loc = 4 if mean_structure is MeanStructure.LINEAR else grid.n_strata
    return ModelParams(grid, np.full(grid.n_strata, 1.0 / grid.n_strata),
                       np.zeros((n_loc, 2)), np.ones(2), mean_structure=mean_structure)


class TestPackUnpack:
    @PROPERTY
    @given(k=st.integers(1, 3), structure=st.sampled_from(list(MeanStructure)),
           data=st.data())
    def test_pack_of_unpack_is_the_identity(self, k, structure, data):
        like = packed_like(k, structure)
        p = len(pack(like))
        s = like.grid.n_strata
        bounds = [20.0] * (s - 1) + [1e3] * (p - s - 1) + [5.0] * 2
        v = np.array([data.draw(st.floats(-b, b)) for b in bounds])
        back = pack(unpack(v, like))
        np.testing.assert_allclose(back, v, rtol=1e-12, atol=1e-12)
        assert np.array_equal(back[s - 1:-2], v[s - 1:-2])

    @PROPERTY
    @given(seed=SEEDS, k=st.integers(1, 3), structure=st.sampled_from(list(MeanStructure)))
    def test_unpack_of_pack_is_the_identity(self, seed, k, structure):
        rng = np.random.default_rng(seed)
        like = packed_like(k, structure)
        params = ModelParams(
            like.grid, rng.dirichlet(np.ones(like.grid.n_strata)),
            rng.normal(0.0, 10.0, like.locations.shape), rng.uniform(0.1, 10.0, 2),
            mean_structure=structure,
        )
        back = unpack(pack(params), params)
        np.testing.assert_allclose(back.probs, params.probs, rtol=1e-12)
        assert np.array_equal(back.locations, params.locations)
        np.testing.assert_allclose(back.scales, params.scales, rtol=1e-14)
        assert back.mean_structure is structure
