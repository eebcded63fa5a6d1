"""Exact invariances of the model: case weights, rows, censoring and the
packed parameter transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratfit import effects
from stratfit.core import Dataset, MeanStructure, ModelParams, StrataGrid, pack, unpack
from stratfit.densities import Family
from stratfit.em import fit, log_likelihood

from _oracles import random_small_dataset
from test_estimation import simulate_four_strata

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


def with_rows(ds: Dataset, y, t, z, w, family) -> Dataset:
    return Dataset.from_arrays(y, t, z, w=w, k_levels=ds.k_levels, family=family)


class TestWeightScaling:
    """Weights times 4, a power of two, scale every weighted sum exactly, so
    the whole fit and its SEs follow bit for bit."""

    @pytest.mark.parametrize("censor", [False, True], ids=["normal", "tobit"])
    def test_weights_times_four(self, censor):
        ds, _ = simulate_four_strata(300, seed=23 if censor else 19, dispersion=3.0,
                                     censor=censor)
        family = Family.TOBIT if censor else Family.NORMAL
        rng = np.random.default_rng(7)
        w = rng.uniform(0.5, 2.0, ds.n)
        cluster = rng.integers(0, 30, ds.n)
        one, four = (
            Dataset.from_arrays(ds.y, ds.t, ds.z, w=c * w, cluster=cluster, k_levels=2,
                                family=family)
            for c in (1.0, 4.0)
        )
        r1, r4 = fit(one, family), fit(four, family)
        assert np.array_equal(pack(r4.params), pack(r1.params))
        assert r4.iterations == r1.iterations
        assert [r.iterations for r in r4.trace] == [r.iterations for r in r1.trace]
        assert r4.mapping_id == r1.mapping_id
        assert r4.tie_ids == r1.tie_ids
        assert r4.loglik == 4.0 * r1.loglik

        t1, naive1, cluster1 = effects.effect_table(r1, one)
        t4, naive4, cluster4 = effects.effect_table(r4, four)
        assert np.array_equal(naive4.se, naive1.se / 2.0)
        assert np.array_equal(t4.se_naive, t1.se_naive / 2.0)
        assert np.array_equal(cluster4.cov, cluster1.cov)
        assert np.array_equal(t4.se_cluster, t1.se_cluster)


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
