import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from stratfit import effects, em
from stratfit.core import Dataset, MeanStructure, ModelParams, StrataGrid, pack, unpack
from stratfit.densities import Family, tobit_mean
from stratfit.effects import (
    HESS_STEP,
    cluster_sandwich_se,
    effect_ses,
    effect_table,
    natural_param_ses,
    observed_information_se,
    treatment_effects,
)
from stratfit.em import FitConfig, FitResult, StartRecord, case_loglik, fit, log_likelihood
from stratfit.errors import InferenceError

from _oracles import brute_force_loglik, case_score_oracle, num_hessian_oracle
from test_estimation import cell_inputs, simulate_four_strata, simulate_nine_strata

GRID2 = StrataGrid(2)


def fake_fit(params, floor_active=(False, False)) -> FitResult:
    record = StartRecord(mapping_id=0, loglik=0.0, params=params, iterations=1,
                         floor_active=floor_active, frozen=(), stop_reason="tol")
    return FitResult(trace=(record,), tie_ids=(0,), scale_floor=(0.0, 0.0))


def swap_arms_params(params: ModelParams) -> ModelParams:
    """Relabel arms: strata transpose, location columns and scales swap."""
    grid = params.grid
    perm = [grid.index(z1, z0) for z0, z1 in grid.strata]
    table = params.location_table()[perm][:, ::-1]
    return ModelParams(
        grid=grid,
        probs=params.probs[perm],
        locations=table,
        scales=params.scales[::-1].copy(),
        family=params.family,
    )


class TestTreatmentEffects:
    def test_identical_arms_give_zero_effects(self):
        locations = np.tile(np.array([[1.0], [2.0], [3.0], [4.0]]), (1, 2))
        params = ModelParams(GRID2, np.full(4, 0.25), locations, np.ones(2))
        table = treatment_effects(fake_fit(params))
        np.testing.assert_array_equal(table.effect, 0.0)

    def test_effects_recompute_from_locations(self):
        ds, _ = simulate_four_strata(600, seed=30)
        res = fit(ds)
        table = treatment_effects(res)
        loc = res.params.location_table()
        np.testing.assert_array_equal(table.effect, loc[:, 1] - loc[:, 0])
        rows = table.rows()
        assert [r["diagonal"] for r in rows] == [
            z0 == z1 for z0, z1 in GRID2.strata
        ]

    def test_simulated_constant_effect_recovered(self):
        ds, truth = simulate_four_strata(5000, seed=31, dispersion=2.4, effect=2.0)
        res = fit(ds)
        table = treatment_effects(res)
        assert np.max(np.abs(table.effect - 2.0)) < 0.25

    def test_tobit_reports_observed_scale_contrast(self):
        ds, _ = simulate_four_strata(800, seed=32, dispersion=2.4, sigma=2.0,
                                     effect=3.0, censor=True)
        res = fit(ds, Family.TOBIT)
        table = treatment_effects(res)
        loc = res.params.location_table()
        expected = tobit_mean(loc[:, 1], res.params.scales[1]) - tobit_mean(
            loc[:, 0], res.params.scales[0]
        )
        np.testing.assert_allclose(table.effect_observed, expected, atol=1e-12)

    def test_antisymmetric_under_arm_swap(self):
        ds, _ = simulate_four_strata(400, seed=33)
        res = fit(ds)
        swapped = swap_arms_params(res.params)
        fwd = treatment_effects(res)
        perm = [GRID2.index(z1, z0) for z0, z1 in GRID2.strata]
        rev = treatment_effects(fake_fit(swapped))
        np.testing.assert_allclose(rev.effect[perm], -fwd.effect, atol=1e-12)


class TestObservedInformation:
    def test_single_component_matches_closed_form(self):
        rng = np.random.default_rng(34)
        n = 4000
        y = np.concatenate([rng.normal(1.0, 1.5, n), rng.normal(3.0, 2.0, n)])
        t = np.repeat([0, 1], n)
        ds = Dataset.from_arrays(y, t, np.zeros(2 * n, dtype=int), k_levels=1)
        res = fit(ds)
        cov = observed_information_se(res, ds)
        # packed layout for one stratum: loc_t0, loc_t1, log scales
        for arm in (0, 1):
            closed = res.params.scales[arm] / math.sqrt(n)
            assert cov.se[arm] == pytest.approx(closed, rel=0.01)

    def test_gradient_small_at_optimum(self):
        ds, _ = simulate_four_strata(500, seed=35)
        res = fit(ds)
        x = pack(res.params)
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        grad = np.empty_like(x)
        for i in range(len(x)):
            e = np.zeros_like(x)
            e[i] = h[i]
            grad[i] = (
                log_likelihood(unpack(x + e, res.params), ds)
                - log_likelihood(unpack(x - e, res.params), ds)
            ) / (2 * h[i])
        assert np.max(np.abs(grad)) < 1e-4 * abs(res.loglik)

    def test_mixed_partials_symmetric(self):
        ds, _ = simulate_four_strata(300, seed=36)
        res = fit(ds)
        x = pack(res.params)
        h = 1e-4 * np.maximum(1.0, np.abs(x))

        def grad(v):
            out = np.empty_like(v)
            for i in range(len(v)):
                e = np.zeros_like(v)
                e[i] = h[i]
                out[i] = (
                    log_likelihood(unpack(v + e, res.params), ds)
                    - log_likelihood(unpack(v - e, res.params), ds)
                ) / (2 * h[i])
            return out

        hess = np.empty((len(x), len(x)))
        for j in range(len(x)):
            e = np.zeros_like(x)
            e[j] = h[j]
            hess[:, j] = (grad(x + e) - grad(x - e)) / (2 * h[j])
        asym = np.max(np.abs(hess - hess.T)) / np.max(np.abs(hess))
        assert asym < 1e-4

    def test_boundary_probability_rejected(self):
        params = ModelParams(
            GRID2, np.array([0.5, 0.5 - 1e-9, 1e-9, 0.0]), np.zeros((4, 2)), np.ones(2)
        )
        ds = Dataset.from_arrays([0.1], [0], [0], k_levels=2)
        with pytest.raises(InferenceError, match="interior maximum"):
            observed_information_se(fake_fit(params), ds)

    def test_active_scale_floor_rejected(self):
        ds, truth = simulate_four_strata(50, seed=37)
        with pytest.raises(InferenceError, match="scale floor"):
            observed_information_se(fake_fit(truth, floor_active=(True, False)), ds)

    def test_non_optimum_rejected_with_eigen_report(self):
        ds, truth = simulate_four_strata(400, seed=38, dispersion=2.4)
        off = ModelParams(
            GRID2, truth.probs,
            truth.locations + np.array([[3.0, -3.0]] * 4), truth.scales * 3.0,
            truth.family,
        )
        with pytest.raises(InferenceError, match="eigenvalues"):
            observed_information_se(fake_fit(off), ds)

    def test_singular_hessian_rejected(self):
        # stratum 3's arm-0 location moved far from every case takes all
        # posterior weight off it: its Hessian row is exactly 0
        ds, _ = simulate_four_strata(400, seed=3, dispersion=2.4)
        params = fit(ds).params
        locations = params.locations.copy()
        locations[3, 0] += 1e4
        moved = fake_fit(ModelParams(GRID2, params.probs, locations, params.scales))
        with pytest.raises(InferenceError, match="Hessian is singular"):
            observed_information_se(moved, ds)
        table, cov_n, cov_c = effect_table(moved, ds)
        assert table.se_error.startswith("Hessian is singular")
        assert cov_n is None and cov_c is None and table.se_naive is None

    def test_negative_variance_rejected(self):
        # moved by +10, not 1e4: the Hessian keeps a largest eigenvalue of
        # about +1e-11, inside the eigenvalue test's tolerance, and its inverse
        # a variance of about -7e10 that the SE clamps would report as an SE of 0
        ds, _ = simulate_four_strata(400, seed=3, dispersion=2.4)
        params = fit(ds).params
        locations = params.locations.copy()
        locations[3, 0] += 10.0
        moved = fake_fit(ModelParams(GRID2, params.probs, locations, params.scales))
        with pytest.raises(InferenceError, match="Hessian inverse gives loc_z01_z11_t0 the "
                                                 "variance -"):
            observed_information_se(moved, ds)
        table, cov_n, cov_c = effect_table(moved, ds)
        assert table.se_error.startswith("Hessian inverse gives")
        assert cov_n is None and cov_c is None
        assert table.se_naive is None and table.se_cluster is None


FITTED = {  # a dataset and the fit's arguments
    "normal": lambda: (simulate_four_strata(300, seed=50)[0], {}),
    "tobit": lambda: (simulate_four_strata(300, seed=51, censor=True)[0],
                      {"family": Family.TOBIT, "config": FitConfig(tol=1e-7)}),
    "linear": lambda: (simulate_four_strata(300, seed=52)[0],
                       {"mean_structure": MeanStructure.LINEAR}),
    "three-level": lambda: (simulate_nine_strata(300, seed=53),
                            {"config": FitConfig(starts=("topk", 3))}),
}


@pytest.fixture(scope="module", params=list(FITTED))
def fitted(request):
    ds, kwargs = FITTED[request.param]()
    return fit(ds, **kwargs), ds


def cell_reach(params, ds) -> dict:
    """For each cell, the number of packed coordinates whose central
    difference steps (at HESS_STEP) move its likelihood inputs."""
    x = pack(params)
    h = HESS_STEP * np.maximum(1.0, np.abs(x))

    def inputs(v):
        return {(c.t, c.z): cell_inputs(unpack(v, params), c) for c in ds.cells}

    at_x = inputs(x)
    reach = dict.fromkeys(at_x, 0)
    for j in range(len(x)):
        moved = [inputs(x + s * h[j] * np.eye(len(x))[j]) for s in (1.0, -1.0)]
        for key in at_x:
            reach[key] += any(m[key] != at_x[key] for m in moved)
    return reach


def count_mix_rows(monkeypatch, run) -> Counter:
    """The kernel rows (``em._mix``) each cell runs during ``run()``."""
    seen = Counter()
    real_mix = em._mix

    def counted(cell, logdens, *args, **kwargs):
        seen[cell.t, cell.z] += len(logdens)
        return real_mix(cell, logdens, *args, **kwargs)

    monkeypatch.setattr(em, "_mix", counted)
    run()
    return seen


class TestStackedHessian:
    def test_equals_one_point_oracle(self, fitted, monkeypatch):
        res, ds = fitted
        naive = observed_information_se(res, ds)
        sandwich = cluster_sandwich_se(res, ds, bread=naive)

        def oracle(like, dataset):
            return num_hessian_oracle(
                lambda v: log_likelihood(unpack(v, like), dataset), pack(like), HESS_STEP)

        monkeypatch.setattr(effects, "_num_hessian", oracle)
        assert np.array_equal(naive.hessian, observed_information_se(res, ds).hessian)
        assert np.array_equal(
            sandwich.cov,
            cluster_sandwich_se(res, ds, bread=observed_information_se(res, ds)).cov)

    # the kernel rows per cell, 2a^2 + 1 for the a packed coordinates reaching it
    ROWS = {"normal": {73}, "tobit": {73}, "linear": {73, 129}, "three-level": {289}}

    def test_each_cell_runs_only_the_points_that_move_it(self, fitted, request, monkeypatch):
        res, ds = fitted
        reach = cell_reach(res.params, ds)
        seen = count_mix_rows(monkeypatch, lambda: observed_information_se(res, ds))
        assert seen == {key: 2 * a ** 2 + 1 for key, a in reach.items()}
        assert set(seen.values()) == self.ROWS[request.node.callspec.params["fitted"]]

    def test_working_set_stays_bounded(self):
        ds, truth = simulate_four_strata(20_000, seed=45)
        tracemalloc.start()
        try:
            observed_information_se(fake_fit(truth), ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestStackedScores:
    def test_equal_one_point_oracle(self, fitted):
        # the analytic score, one case and one stratum at a time
        res, ds = fitted
        want = case_score_oracle(res.params, ds)
        got = effects._case_scores(res.params, ds)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_each_cell_runs_its_distinct_inputs(self, fitted, monkeypatch):
        # one kernel pass at the optimum: each cell runs _mix once, one row
        res, ds = fitted
        seen = count_mix_rows(monkeypatch, lambda: effects._case_scores(res.params, ds))
        assert seen == {(c.t, c.z): 1 for c in ds.cells if c.y.size}

    def test_working_set_stays_bounded(self):
        # the peak is the (n, p) score matrix and its weighted copy: a cell's
        # posteriors and score rows stay below that copy
        ds, truth = simulate_four_strata(20_000, seed=45)
        ds = Dataset.from_arrays(ds.y, ds.t, ds.z, cluster=np.arange(ds.n) % 250, k_levels=2)
        naive = observed_information_se(fake_fit(truth), ds)
        tracemalloc.start()
        try:
            cluster_sandwich_se(fake_fit(truth), ds, bread=naive)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * ds.n * len(pack(truth)) * 8


class TestClusterSandwich:
    def test_needs_two_clusters(self):
        ds, _ = simulate_four_strata(100, seed=39)
        one = Dataset.from_arrays(ds.y, ds.t, ds.z, cluster=np.zeros(ds.n), k_levels=2)
        res = fit(one)
        with pytest.raises(InferenceError, match="clusters"):
            cluster_sandwich_se(res, one, bread=observed_information_se(res, one))

    def test_singleton_clusters_equal_classic_robust(self):
        ds, _ = simulate_four_strata(300, seed=40)
        res = fit(ds)
        cov_n = observed_information_se(res, ds)
        cov_c = cluster_sandwich_se(res, ds, bread=cov_n)  # singleton clusters
        # classic robust estimator computed independently from per-case scores
        x = pack(res.params)
        h = HESS_STEP * np.maximum(1.0, np.abs(x))
        scores = np.empty((ds.n, len(x)))
        for j in range(len(x)):
            e = np.zeros_like(x)
            e[j] = h[j]
            scores[:, j] = (
                case_loglik(unpack(x + e, res.params), ds)
                - case_loglik(unpack(x - e, res.params), ds)
            ) / (2 * h[j])
        meat = (ds.w[:, None] * scores).T @ (ds.w[:, None] * scores)
        meat *= ds.n / (ds.n - 1.0)
        classic = cov_n.cov @ meat @ cov_n.cov
        assert np.max(np.abs(classic - cov_c.cov)) <= 1e-10 * max(
            1.0, np.max(np.abs(classic))
        )

    def test_cluster_aggregation_changes_meat(self):
        ds, _ = simulate_four_strata(300, seed=41)
        rng = np.random.default_rng(0)
        clustered = Dataset.from_arrays(
            ds.y, ds.t, ds.z, cluster=rng.integers(0, 10, ds.n), k_levels=2
        )
        res = fit(clustered)
        cov_n = observed_information_se(res, clustered)
        cov_c = cluster_sandwich_se(res, clustered, bread=cov_n)
        assert cov_c.n_clusters == 10
        assert not np.allclose(cov_c.cov, cov_n.cov)

    def test_cluster_sums_equal_the_per_case_reference(self):
        # weighted cases in 200 clusters: the per-column bincount sums give
        # the covariance of np.add.at's case-by-case updates bit for bit
        ds, truth = simulate_four_strata(5000, seed=48)
        rng = np.random.default_rng(2)
        ds = Dataset.from_arrays(ds.y, ds.t, ds.z, w=rng.uniform(0.5, 2.0, ds.n),
                                 cluster=rng.integers(0, 200, ds.n), k_levels=2)
        bread = observed_information_se(fake_fit(truth), ds)
        got = cluster_sandwich_se(fake_fit(truth), ds, bread=bread)
        grouped = np.zeros((200, len(pack(truth))))
        np.add.at(grouped, ds.cluster, ds.w[:, None] * effects._case_scores(truth, ds))
        cov = bread.cov @ (grouped.T @ grouped * (200 / 199.0)) @ bread.cov
        assert np.array_equal(got.cov, 0.5 * (cov + cov.T))

    def test_any_labels_give_the_ses_of_their_dense_codes(self):
        # a Dataset built directly numbers its clusters 0, 1, ... in label
        # order: sparse labels index no array past the cluster count, and
        # fractional labels that share an integer part stay apart
        ds, _ = simulate_four_strata(300, seed=41)
        codes = np.random.default_rng(0).integers(0, 30, ds.n)
        res = fit(ds)

        def cluster_ses(labels):
            table, _, cov_c = effect_table(res, Dataset(ds.y, ds.t, ds.z, ds.w, labels, 2))
            assert cov_c.n_clusters == 30
            return table.se_cluster

        want = cluster_ses(codes)
        for labels in (codes * 10, codes * 0.1 + 0.05):
            np.testing.assert_array_equal(cluster_ses(labels), want)


def score_fixture(family, mean_structure, k_levels, seed):
    """A small weighted dataset with zeros under tobit, and random parameters."""
    rng = np.random.default_rng(seed)
    grid = StrataGrid(k_levels)
    n = 14
    y = rng.normal(1.0, 2.0, n)
    if family is Family.TOBIT:
        y = np.maximum(y, 0.0)
    ds = Dataset.from_arrays(y, np.repeat([0, 1], n // 2), rng.integers(0, k_levels, n),
                             w=rng.uniform(0.2, 3.0, n), k_levels=k_levels, family=family)
    n_loc = 4 if mean_structure is MeanStructure.LINEAR else grid.n_strata
    params = ModelParams(grid, rng.dirichlet(np.full(grid.n_strata, 2.0)),
                         rng.normal(0.5, 1.5, (n_loc, 2)), rng.uniform(0.5, 3.0, 2),
                         family, mean_structure)
    return ds, params


class TestScoreOracle:
    """The analytic per-case score, which the sandwich computes in closed
    form from the kernel's posteriors (only the Hessian is a finite
    difference), against the scalar likelihood's slope, the Hessian's kernel
    and deep tobit tails."""

    @pytest.mark.parametrize("k_levels", [2, 3])
    @pytest.mark.parametrize("mean_structure", list(MeanStructure), ids=lambda m: m.value)
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_analytic_score_is_the_scalar_likelihood_slope(self, family, mean_structure,
                                                          k_levels):
        ds, params = score_fixture(family, mean_structure, k_levels, seed=k_levels)
        scores = case_score_oracle(params, ds)
        x = pack(params)
        h = 1e-5 * np.maximum(1.0, np.abs(x))
        for i in range(ds.n):
            case = Dataset.from_arrays(ds.y[i:i + 1], ds.t[i:i + 1], ds.z[i:i + 1],
                                       k_levels=k_levels, family=family)
            fd = np.empty(len(x))
            for j in range(len(x)):
                e = np.zeros(len(x))
                e[j] = h[j]
                fd[j] = (brute_force_loglik(unpack(x + e, params), case)
                         - brute_force_loglik(unpack(x - e, params), case)) / (2.0 * h[j])
            assert np.max(np.abs(fd - scores[i])) <= 1e-7 * max(1.0, np.max(np.abs(fd)))

    @pytest.mark.parametrize("k_levels", [2, 3])
    @pytest.mark.parametrize("mean_structure", list(MeanStructure), ids=lambda m: m.value)
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_weighted_score_is_the_kernel_loglik_slope(self, family, mean_structure, k_levels):
        # away from the optimum, the weighted score sum is the central
        # difference of the log-likelihood the Hessian differentiates
        ds, params = score_fixture(family, mean_structure, k_levels, seed=10 + k_levels)
        x = pack(params)
        h = 1e-5 * np.maximum(1.0, np.abs(x))
        fd = np.array([(log_likelihood(unpack(x + h[j] * e, params), ds)
                        - log_likelihood(unpack(x - h[j] * e, params), ds)) / (2.0 * h[j])
                       for j, e in enumerate(np.eye(len(x)))])
        got = ds.w @ effects._case_scores(params, ds)
        assert np.max(np.abs(got - fd)) <= 1e-7 * np.max(np.abs(fd))

    def test_censored_zeros_deep_in_both_tails(self):
        # every cell's strata sit at mu/sigma = -8, 0, 12 or 30, and every
        # cell has a zero: the score's inverse Mills ratio reads norm_logcdf
        # deep in both tails, which the oracle's math.erfc checks
        grid = StrataGrid(2)
        scales = np.array([0.5, 2.0])
        ratio = {(1, 0): -8.0, (1, 1): 0.0, (0, 0): 12.0, (0, 1): 30.0}  # by cell (t, z)
        locations = np.array([[ratio[0, z0] * scales[0], ratio[1, z1] * scales[1]]
                              for z0, z1 in grid.strata])
        params = ModelParams(grid, np.array([0.1, 0.2, 0.3, 0.4]), locations, scales,
                             Family.TOBIT)
        cells = [(t, z) for t in (0, 1) for z in (0, 1)]
        y = [0.0, 0.0, 1.5] * len(cells)
        t, z = (np.repeat([c[i] for c in cells], 3) for i in (0, 1))
        ds = Dataset.from_arrays(y, t, z, w=np.linspace(0.5, 2.0, len(y)), k_levels=2,
                                 family=Family.TOBIT)
        want = case_score_oracle(params, ds)
        got = effects._case_scores(params, ds)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_sandwich_is_bread_meat_bread_of_the_analytic_scores(self, fitted):
        res, ds = fitted
        rng = np.random.default_rng(9)
        clustered = Dataset.from_arrays(ds.y, ds.t, ds.z, w=ds.w,
                                        cluster=rng.integers(0, 30, ds.n),
                                        k_levels=ds.k_levels, family=res.params.family)
        cov_n = observed_information_se(res, clustered)
        cov_c = cluster_sandwich_se(res, clustered, bread=cov_n)
        scores = case_score_oracle(res.params, clustered)
        groups = clustered.n_clusters
        grouped = np.zeros((groups, scores.shape[1]))
        np.add.at(grouped, clustered.cluster, clustered.w[:, None] * scores)
        meat = grouped.T @ grouped * (groups / (groups - 1.0))
        expected = cov_n.cov @ meat @ cov_n.cov
        assert np.max(np.abs(cov_c.cov - expected)) <= 1e-6 * np.max(np.abs(expected))


def per_point_maps(name):
    """The delta method's maps as functions of one ModelParams."""
    def effects_of(q, mean):
        table = q.location_table()
        return mean(table[:, 1], q.scales[1]) - mean(table[:, 0], q.scales[0])

    return {
        "_latent_effects": lambda q: effects_of(q, lambda loc, scale: loc),
        "_observed_effects": lambda q: effects_of(q, tobit_mean),
        "_natural_params": lambda q: np.concatenate([q.probs, q.locations.ravel(), q.scales]),
    }[name]


# the closed-form Jacobian of each of the delta method's maps, by the map
# names of per_point_maps
CLOSED_FORM = {
    "_latent_effects": lambda like: effects._effect_jacobian(like, observed=False),
    "_observed_effects": lambda like: effects._effect_jacobian(like, observed=True),
    "_natural_params": effects._natural_jacobian,
}


class TestDeltaMethod:
    @pytest.mark.parametrize("name", ["_latent_effects", "_observed_effects", "_natural_params"])
    def test_jacobian_equals_per_point_maps(self, fitted, name):
        # one central difference per coordinate of the map at unpacked
        # points; its truncation and rounding errors stay below 1e-8
        res, _ = fitted
        like = res.params
        f = per_point_maps(name)
        x = pack(like)
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        cols = []
        for j in range(len(x)):
            e = np.zeros_like(x)
            e[j] = h[j]
            cols.append((f(unpack(x + e, like)) - f(unpack(x - e, like))) / (2.0 * h[j]))
        want = np.stack(cols, axis=-1)
        got = CLOSED_FORM[name](like)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))

    def test_effect_se_matches_covariance_identity(self):
        ds, _ = simulate_four_strata(600, seed=42)
        res = fit(ds)
        cov = observed_information_se(res, ds)
        se, _ = effect_ses(res, cov)
        # packed layout: 3 logits, then locations row-major (stratum, arm)
        for s in range(4):
            i0 = 3 + 2 * s
            i1 = i0 + 1
            direct = math.sqrt(
                cov.cov[i1, i1] + cov.cov[i0, i0] - 2.0 * cov.cov[i0, i1]
            )
            assert abs(direct - se[s]) < 1e-10

    def test_arm_swap_leaves_ses_unchanged(self):
        ds, _ = simulate_four_strata(400, seed=43)
        res = fit(ds)
        cov = observed_information_se(res, ds)
        se, _ = effect_ses(res, cov)
        swapped_ds = Dataset.from_arrays(ds.y, 1 - ds.t, ds.z, w=ds.w, k_levels=2)
        swapped = fake_fit(swap_arms_params(res.params))
        cov_s = observed_information_se(swapped, swapped_ds)
        se_s, _ = effect_ses(swapped, cov_s)
        perm = [GRID2.index(z1, z0) for z0, z1 in GRID2.strata]
        # repacking permutes the log-ratio coordinates, so the finite
        # differences run at slightly different steps; 2e-4 covers that noise
        np.testing.assert_allclose(se_s[perm], se, rtol=2e-4)

    def test_natural_param_ses_positive(self):
        ds, _ = simulate_four_strata(400, seed=44)
        res = fit(ds)
        cov = observed_information_se(res, ds)
        ses = natural_param_ses(res, cov)
        assert len(ses) == 4 + 8 + 2
        assert np.all(ses > 0.0)


class TestEffectTableConvenience:
    @pytest.mark.parametrize("family", [Family.NORMAL, Family.TOBIT], ids=lambda f: f.value)
    def test_one_cluster_keeps_the_naive_ses(self, family):
        # the sandwich needs two clusters; its failure is reported, and the
        # naive SEs and covariance are the library steps' own
        tobit = family is Family.TOBIT
        ds, _ = simulate_four_strata(200, seed=47, censor=tobit)
        one = Dataset.from_arrays(ds.y, ds.t, ds.z, cluster=np.zeros(ds.n), k_levels=2,
                                  family=family)
        res = fit(one, family, config=FitConfig(tol=1e-7))
        table, cov_n, cov_c = effect_table(res, one)
        naive = observed_information_se(res, one)
        se, se_obs = effect_ses(res, naive)
        assert np.array_equal(cov_n.cov, naive.cov) and np.array_equal(table.se_naive, se)
        if tobit:
            assert np.array_equal(table.se_naive_observed, se_obs)
        else:
            assert table.se_naive_observed is se_obs is None
        assert cov_c is None and table.se_cluster is table.se_cluster_observed is None
        assert "at least 2 clusters" in table.se_error

    def test_full_table_rows(self):
        ds, _ = simulate_four_strata(500, seed=45)
        res = fit(ds)
        table, cov_n, cov_c = effect_table(res, ds)
        assert table.se_error is None
        rows = table.rows()
        assert len(rows) == 4
        for row in rows:
            assert row["se_naive"] > 0.0
            assert row["se_cluster"] > 0.0
            assert isinstance(row["significant_naive"], bool)
