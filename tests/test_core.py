import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratfit.core import (
    Dataset,
    MeanStructure,
    ModelParams,
    StrataGrid,
    cell_order,
    effective_sample_size,
    linear_design,
    pack,
    param_names,
    unpack,
    unpack_stack,
)
from stratfit.densities import Family
from stratfit.errors import DataError


def random_params(rng, k_levels=2, structure=MeanStructure.SATURATED,
                  family=Family.NORMAL):
    grid = StrataGrid(k_levels)
    probs = rng.dirichlet(np.ones(grid.n_strata))
    n_loc = 4 if structure is MeanStructure.LINEAR else grid.n_strata
    return ModelParams(
        grid=grid,
        probs=probs,
        locations=rng.normal(0.0, 5.0, size=(n_loc, 2)),
        scales=np.exp(rng.normal(0.0, 1.0, size=2)),
        family=family,
        mean_structure=structure,
    )


class TestStrataGrid:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_strata_enumeration(self, k):
        grid = StrataGrid(k)
        strata = grid.strata
        assert len(strata) == k * k
        assert len(set(strata)) == k * k
        assert all(0 <= z0 < k and 0 <= z1 < k for z0, z1 in strata)

    def test_index_is_a_bijection(self):
        grid = StrataGrid(3)
        indices = [grid.index(z0, z1) for z0, z1 in grid.strata]
        assert indices == list(range(9))
        for s, (z0, z1) in enumerate(grid.strata):
            assert grid.index(z0, z1) == s

    def test_compatible_strata(self):
        grid = StrataGrid(2)
        # treated case pins z1, mixes over z0
        assert grid.compatible(1, 0).tolist() == [grid.index(0, 0), grid.index(1, 0)]
        assert grid.compatible(0, 1).tolist() == [grid.index(1, 0), grid.index(1, 1)]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            StrataGrid(2).index(2, 0)


class TestPackUnpack:
    def test_uniform_probs_give_zero_logits(self):
        grid = StrataGrid(2)
        p = ModelParams(grid, np.full(4, 0.25), np.zeros((4, 2)), np.ones(2))
        vec = pack(p)
        np.testing.assert_array_equal(vec[:3], 0.0)

    def test_unit_scale_gives_zero_log_coordinate(self):
        grid = StrataGrid(2)
        p = ModelParams(grid, np.full(4, 0.25), np.zeros((4, 2)), np.array([1.0, 2.0]))
        vec = pack(p)
        assert vec[-2] == 0.0
        assert vec[-1] == pytest.approx(np.log(2.0), abs=1e-15)

    @pytest.mark.parametrize("k,structure,family", [
        (2, MeanStructure.SATURATED, Family.NORMAL),
        (2, MeanStructure.LINEAR, Family.TOBIT),
        (3, MeanStructure.SATURATED, Family.NORMAL),
        (3, MeanStructure.LINEAR, Family.NORMAL),
    ])
    def test_round_trip_over_random_draws(self, k, structure, family):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = random_params(rng, k, structure, family)
            q = unpack(pack(p), like=p)
            assert np.max(np.abs(q.probs - p.probs)) < 1e-12
            assert np.max(np.abs(q.locations - p.locations)) < 1e-12
            assert np.max(np.abs(q.scales - p.scales)) < 1e-12

    def test_unpack_preserves_simplex_for_any_flat_vector(self):
        rng = np.random.default_rng(7)
        like = random_params(rng)
        for _ in range(500):
            vec = rng.normal(0.0, 3.0, size=pack(like).shape)
            p = unpack(vec, like=like)
            assert np.all(p.probs > 0.0)
            assert np.all(p.probs < 1.0)
            assert abs(p.probs.sum() - 1.0) < 1e-12
        # extreme coordinates stay a valid simplex even when entries round
        # to the representable endpoints
        for _ in range(100):
            vec = rng.normal(0.0, 40.0, size=pack(like).shape)
            p = unpack(vec, like=like)
            assert np.all(np.isfinite(p.probs))
            assert np.all(p.probs >= 0.0)
            assert abs(p.probs.sum() - 1.0) < 1e-12

    def test_wrong_length_rejected(self):
        rng = np.random.default_rng(0)
        p = random_params(rng)
        with pytest.raises(ValueError):
            unpack(np.zeros(5), like=p)

    def test_param_names_align_with_pack(self):
        rng = np.random.default_rng(1)
        for structure in MeanStructure:
            p = random_params(rng, structure=structure)
            assert len(param_names(p, packed=True)) == len(pack(p))
            natural = len(p.probs) + p.locations.size + 2
            assert len(param_names(p)) == natural


def unpack_oracle(vec, like):
    """The one-vector inverse of pack, as unpack computed it before stacks:
    (probs, locations, scales)."""
    s = like.grid.n_strata
    n_loc = like.locations.size
    logits = np.append(vec[: s - 1], 0.0)
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    return (probs, vec[s - 1 : s - 1 + n_loc].reshape(like.locations.shape),
            np.exp(vec[s - 1 + n_loc :]))


class TestUnpackStack:
    @settings(max_examples=60, deadline=None)
    @given(k_levels=st.sampled_from([2, 3]), structure=st.sampled_from(list(MeanStructure)),
           rows=st.integers(1, 40), spread=st.sampled_from([1.0, 30.0, 300.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_unpack_bit_for_bit(self, k_levels, structure, rows, spread, seed):
        # logits up to a few hundred drive some probabilities to the
        # representable endpoints; log-scales stay where exp is finite
        rng = np.random.default_rng(seed)
        like = random_params(rng, k_levels, structure)
        p = len(pack(like))
        points = rng.normal(0.0, spread, (rows, p))
        points[:, -2:] = rng.normal(0.0, 3.0, (rows, 2))
        probs, locations, scales = unpack_stack(points, like)
        for i, vec in enumerate(points):
            one = unpack(vec, like)
            for got, want, oracle in zip((probs[i], locations[i], scales[i]),
                                         (one.probs, one.locations, one.scales),
                                         unpack_oracle(vec, like)):
                assert got.tobytes() == want.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("column, value, message", [
        (-1, 800.0, "scales must be finite"),   # exp overflows
        (-1, -800.0, "strictly positive"),      # exp underflows to 0
        (4, np.nan, "locations must be finite"),
        (0, np.nan, "probs must be finite"),
        (0, np.inf, "probs must be finite"),   # inf - inf in the max shift
    ])
    def test_a_bad_row_raises_the_model_params_error(self, column, value, message):
        like = random_params(np.random.default_rng(5))
        points = np.tile(pack(like), (3, 1))
        points[1, column] = value
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
            unpack_stack(points, like)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
            unpack(points[1], like)

    def test_wrong_shape_rejected(self):
        like = random_params(np.random.default_rng(6))
        for bad in (pack(like), np.zeros((2, 5)), pack(like)[None, None]):
            with pytest.raises(ValueError, match="length"):
                unpack_stack(bad, like)


class TestLinearStructure:
    def test_expansion_matches_polynomial(self):
        rng = np.random.default_rng(9)
        p = random_params(rng, k_levels=3, structure=MeanStructure.LINEAR)
        table = p.location_table()
        for s, (z0, z1) in enumerate(p.grid.strata):
            for t in (0, 1):
                mu, b1, b0, g = p.locations[:, t]
                assert table[s, t] == pytest.approx(
                    mu + b1 * z1 + b0 * z0 + g * z1 * z0, rel=1e-12
                )

    def test_design_shape(self):
        assert linear_design(StrataGrid(3)).shape == (9, 4)


class TestModelParamsValidation:
    def test_rejects_bad_prob_sum(self):
        grid = StrataGrid(2)
        with pytest.raises(ValueError, match="sum to 1"):
            ModelParams(grid, np.array([0.3, 0.3, 0.3, 0.2]), np.zeros((4, 2)), np.ones(2))

    def test_rejects_negative_scale(self):
        grid = StrataGrid(2)
        with pytest.raises(ValueError, match="positive"):
            ModelParams(grid, np.full(4, 0.25), np.zeros((4, 2)), np.array([1.0, -1.0]))

    def test_rejects_wrong_location_shape(self):
        grid = StrataGrid(2)
        with pytest.raises(ValueError, match="locations"):
            ModelParams(grid, np.full(4, 0.25), np.zeros((3, 2)), np.ones(2))

    @pytest.mark.parametrize("field, bad", [
        ("probs", np.nan), ("locations", np.nan), ("locations", np.inf),
        ("scales", np.nan), ("scales", np.inf),
    ])
    def test_rejects_non_finite_values(self, field, bad):
        # NaN passes every comparison the other rules make
        args = {"probs": np.full(4, 0.25), "locations": np.zeros((4, 2)), "scales": np.ones(2)}
        args[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams(StrataGrid(2), **args)

    def test_rejects_nan_probability_summing_to_one(self):
        with pytest.raises(ValueError, match="probs must be finite"):
            ModelParams(StrataGrid(2), [np.nan, 0.5, 0.25, 0.25], np.zeros((4, 2)), [1, 1])

    def test_arrays_are_frozen(self):
        rng = np.random.default_rng(3)
        p = random_params(rng)
        with pytest.raises(ValueError):
            p.probs[0] = 0.5


class TestDataset:
    def test_defaults_unit_weights_singleton_clusters(self):
        ds = Dataset.from_arrays([1.0, 2.0], [0, 1], [0, 1])
        assert ds.w.tolist() == [1.0, 1.0]
        assert ds.cluster.tolist() == [0, 1]
        assert ds.n_clusters == 2

    def test_rejects_out_of_range_level(self):
        with pytest.raises(DataError, match="outside"):
            Dataset.from_arrays([1.0], [0], [2], k_levels=2)

    def test_rejects_negative_weights(self):
        with pytest.raises(DataError, match="nonnegative"):
            Dataset.from_arrays([1.0, 1.0], [0, 1], [0, 0], w=[-1.0, 1.0], k_levels=2)

    def test_rejects_bad_arm(self):
        with pytest.raises(DataError, match="arm"):
            Dataset.from_arrays([1.0], [2], [0], k_levels=2)

    @pytest.mark.parametrize("t, z, message", [
        ([0, 1, 0.7, 1], [0, 1, 1, 0], "arm indicator must be 0 or 1"),
        ([0, 1, np.nan, 1], [0, 1, 1, 0], "arm indicator must be 0 or 1"),
        ([0, 1, 0, 1], [0, 1, 1.9, 0], "level outside"),
        ([0, 1, 0, 1], [0, 1, -0.5, 0], "level outside"),
    ], ids=["t_fraction", "t_nan", "z_fraction", "z_negative_fraction"])
    def test_non_integer_arm_or_level_names_its_row(self, t, z, message):
        # cast to int64 first, these would land the case in another cell
        with pytest.raises(DataError, match=message) as err:
            Dataset.from_arrays([1.0, 2.0, 3.0, 4.0], t, z, k_levels=2)
        assert err.value.row == 2

    @pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_with_inferred_levels_names_its_row(self, z):
        with pytest.raises(DataError, match="level outside") as err:
            Dataset.from_arrays([1.0, 2.0, 3.0], [0, 1, 0], [1, z, 0])
        assert err.value.row == 1

    @pytest.mark.parametrize("column, value, family, message", [
        ("y", np.inf, None, "outcomes must be finite"),
        ("w", -1.0, None, "weights must be finite and nonnegative"),
        ("w", np.nan, None, "weights must be finite and nonnegative"),
        ("y", -1.0, Family.TOBIT, "negative outcome under censored family"),
    ], ids=["y_inf", "w_negative", "w_nan", "tobit_negative_y"])
    def test_each_case_rule_names_the_first_bad_row(self, column, value, family, message):
        cols = {"y": [1.0, 2.0, 3.0, 4.0], "w": [1.0, 1.0, 1.0, 1.0]}
        cols[column][1] = cols[column][3] = value
        with pytest.raises(DataError, match=f"^{message}$") as err:
            Dataset.from_arrays(cols["y"], [0, 1, 0, 1], [0, 1, 1, 0], w=cols["w"],
                                k_levels=2, family=family)
        assert err.value.row == 1

    def test_integer_valued_float_columns_equal_int_columns(self):
        as_int = Dataset.from_arrays([1.0, 2.0, 3.0], [0, 1, 1], [2, 0, 1], k_levels=3)
        as_float = Dataset.from_arrays([1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [2.0, 0.0, 1.0])
        assert as_float.k_levels == 3
        for name in ("t", "z"):
            assert getattr(as_float, name).dtype == np.int64
            assert np.array_equal(getattr(as_float, name), getattr(as_int, name))

    def test_empty_cells_flagged(self):
        ds = Dataset.from_arrays(
            [1.0, 2.0, 3.0], [0, 0, 1], [0, 1, 0], w=[1.0, 0.0, 1.0], k_levels=2
        )
        assert set(ds.empty_cells()) == {(0, 1), (1, 1)}

    def test_cells_partition_rows_in_canonical_order(self):
        rng = np.random.default_rng(3)
        t = rng.integers(0, 2, size=60)
        z = rng.integers(0, 3, size=60)
        ds = Dataset.from_arrays(rng.normal(size=60), t, z, k_levels=3)
        assert [(c.t, c.z) for c in ds.cells] == cell_order(3)
        rows = np.concatenate([c.rows for c in ds.cells])
        np.testing.assert_array_equal(np.sort(rows), np.arange(60))
        grid = StrataGrid(3)
        for c in ds.cells:
            assert np.all((ds.t[c.rows] == c.t) & (ds.z[c.rows] == c.z))
            np.testing.assert_array_equal(c.strata, grid.compatible(c.t, c.z))

    def test_tobit_snaps_tiny_outcomes_to_zero(self):
        ds = Dataset.from_arrays(
            [0.0, 1e-13, 0.5], [0, 0, 1], [0, 0, 0], k_levels=2, family=Family.TOBIT
        )
        assert ds.y.tolist() == [0.0, 0.0, 0.5]

    def test_tobit_rejects_negative_outcomes(self):
        with pytest.raises(DataError, match="negative outcome"):
            Dataset.from_arrays([-0.2], [0], [0], k_levels=2, family=Family.TOBIT)

    def test_cluster_labels_factorized(self):
        ds = Dataset.from_arrays(
            [1.0, 2.0, 3.0], [0, 1, 0], [0, 0, 1], cluster=["b", "a", "b"], k_levels=2
        )
        assert ds.n_clusters == 2
        assert ds.cluster[0] == ds.cluster[2]

    @pytest.mark.parametrize("labels", [
        ["b", "B", "a b", " a", "a", "B", "a\x00", "a", " a"],
        [1, 1.0, 2, 0.5, 1],
    ], ids=["strings", "numbers"])
    def test_object_labels_get_unique_codes(self, labels):
        # codes in sorted label order, as np.unique gives them, since the
        # sandwich sums clusters in code order: "a" and "a\x00" stay two
        # labels, the objects 1 and 1.0 one
        n = len(labels)
        ds = Dataset.from_arrays(np.arange(n, dtype=float), np.arange(n) % 2, np.zeros(n),
                                 cluster=np.array(labels, dtype=object), k_levels=1)
        want = np.unique(np.array(labels, dtype=object), return_inverse=True)[1]
        assert ds.cluster.tolist() == want.tolist()
        assert ds.n_clusters == len(set(labels))


class TestEffectiveSampleSize:
    def test_unit_weights_give_n(self):
        ds = Dataset.from_arrays(np.ones(7), [0] * 7, [0] * 7, k_levels=1)
        assert effective_sample_size(ds, 0) == pytest.approx(7.0)

    def test_single_effective_case(self):
        ds = Dataset.from_arrays([1.0, 2.0], [0, 0], [0, 0], w=[2.0, 0.0], k_levels=1)
        assert effective_sample_size(ds, 0) == pytest.approx(1.0)

    def test_kish_formula_on_random_weights(self):
        rng = np.random.default_rng(11)
        w = rng.exponential(1.0, size=50)
        ds = Dataset.from_arrays(np.ones(50), [1] * 50, [0] * 50, w=w, k_levels=1)
        assert effective_sample_size(ds, 1) == pytest.approx(
            w.sum() ** 2 / (w**2).sum(), rel=1e-12
        )

    def test_empty_arm_errors(self):
        ds = Dataset.from_arrays([1.0], [0], [0], k_levels=1)
        with pytest.raises(DataError, match="empty arm"):
            effective_sample_size(ds, 1)
