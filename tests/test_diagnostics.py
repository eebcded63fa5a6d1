import numpy as np
import pytest

from stratfit.core import Dataset
from stratfit.densities import Family, tobit_mean
from stratfit.diagnostics import (
    marginal_fit_table,
    posterior_histogram,
    solution_trace_table,
)
from stratfit.em import fit

from test_estimation import simulate_four_strata


class TestPosteriorHistogram:
    def test_one_stratum_model_occupies_single_bin(self):
        rng = np.random.default_rng(50)
        n = 200
        y = rng.normal(1.0, 1.0, 2 * n)
        t = np.repeat([0, 1], n)
        ds = Dataset.from_arrays(y, t, np.zeros(2 * n, dtype=int), k_levels=1)
        res = fit(ds)
        hists = posterior_histogram(res, ds)
        assert len(hists) == 2
        for h in hists:
            assert h.counts.sum() == n
            assert h.counts[-1] == n  # all posteriors exactly 1

    def test_counts_sum_to_cell_sizes(self):
        ds, _ = simulate_four_strata(400, seed=51)
        res = fit(ds)
        for h in posterior_histogram(res, ds):
            cell_n = int(((ds.t == h.t) & (ds.z == h.z)).sum())
            assert h.counts.sum() == cell_n
            assert len(h.counts) == 20

    def test_well_separated_fit_piles_mass_at_extremes(self):
        # the posterior of a two-component mixture needs ~4 SD separation
        # before 80% of cases leave the interior bins
        ds, _ = simulate_four_strata(1000, seed=52, dispersion=4.0)
        res = fit(ds)
        for h in posterior_histogram(res, ds):
            assert h.outer_mass >= 0.8

    def test_under_identified_fit_has_more_interior_mass(self):
        sep_ds, _ = simulate_four_strata(1000, seed=53, dispersion=2.4)
        uni_ds, _ = simulate_four_strata(
            1000, seed=53, dispersion=0.8, probs=(0.25, 0.25, 0.25, 0.25)
        )
        sep = posterior_histogram(fit(sep_ds), sep_ds)
        uni = posterior_histogram(fit(uni_ds), uni_ds)
        sep_outer = np.mean([h.outer_mass for h in sep])
        uni_outer = np.mean([h.outer_mass for h in uni])
        assert uni_outer < sep_outer


class TestMarginalFit:
    @pytest.mark.slow
    def test_self_consistency_on_large_sample(self):
        ds, _ = simulate_four_strata(100_000, seed=54, dispersion=2.4, effect=5.0)
        res = fit(ds)
        table = marginal_fit_table(res, ds)
        assert not table.excluded_arms
        for row in table.rows:
            denom = max(abs(row.observed), 1e-12)
            assert abs(row.predicted - row.observed) / denom < 0.02

    def test_predicted_cell_mean_is_convex_combination(self):
        ds, _ = simulate_four_strata(500, seed=55)
        res = fit(ds)
        table = marginal_fit_table(res, ds)
        grid = res.params.grid
        loc = res.params.location_table()
        for row in table.rows:
            if not row.quantity.startswith("mean_z"):
                continue
            z = int(row.quantity[-1])
            compat = grid.compatible(row.arm, z)
            comp = loc[compat, row.arm]
            assert comp.min() - 1e-9 <= row.predicted <= comp.max() + 1e-9

    def test_predicted_proportion_uses_prob_margins(self):
        ds, _ = simulate_four_strata(500, seed=56)
        res = fit(ds)
        table = marginal_fit_table(res, ds)
        p = res.params.probs
        grid = res.params.grid
        by_arm = {r.arm: r for r in table.rows if r.quantity == "prop_institutionalized"}
        assert by_arm[1].predicted == pytest.approx(
            p[grid.index(0, 1)] + p[grid.index(1, 1)], abs=1e-12
        )
        assert by_arm[0].predicted == pytest.approx(
            p[grid.index(1, 0)] + p[grid.index(1, 1)], abs=1e-12
        )

    def test_tobit_predictions_on_observed_scale(self):
        ds, _ = simulate_four_strata(600, seed=57, sigma=2.0, effect=3.0,
                                     dispersion=2.4, censor=True)
        res = fit(ds, Family.TOBIT)
        table = marginal_fit_table(res, ds)
        grid = res.params.grid
        loc = res.params.location_table()
        for row in table.rows:
            if row.quantity != "mean_z0" or row.arm != 1:
                continue
            compat = grid.compatible(1, 0)
            p = res.params.probs[compat]
            expected = float(
                p @ tobit_mean(loc[compat, 1], res.params.scales[1]) / p.sum()
            )
            assert row.predicted == pytest.approx(expected, abs=1e-12)

    def test_zero_weight_arm_excluded_with_flag(self):
        ds, _ = simulate_four_strata(300, seed=58)
        res = fit(ds)
        w = ds.w.copy()
        w[ds.t == 0] = 0.0
        hollow = Dataset.from_arrays(ds.y, ds.t, ds.z, w=w, k_levels=2)
        table = marginal_fit_table(res, hollow)
        assert table.excluded_arms == (0,)
        assert all(r.arm == 1 for r in table.rows)


class TestSolutionTrace:
    def test_best_row_has_zero_percent_increase(self):
        ds, _ = simulate_four_strata(400, seed=59)
        res = fit(ds)
        rows = solution_trace_table(res)
        assert len(rows) == 16
        best = min(rows, key=lambda r: r["pct_nll_increase"])
        assert best["pct_nll_increase"] == 0.0
        assert best["mapping_id"] == res.mapping_id or best["tied"]

    def test_percent_increase_nonnegative(self):
        ds, _ = simulate_four_strata(400, seed=60)
        res = fit(ds)
        for row in solution_trace_table(res):
            assert row["pct_nll_increase"] >= 0.0

    def test_rows_carry_stop_reasons(self):
        ds, _ = simulate_four_strata(400, seed=59)
        res = fit(ds)
        rows = solution_trace_table(res)
        assert [r["stop_reason"] for r in rows] == [r.stop_reason for r in res.trace]
        assert "pruned" in {r["stop_reason"] for r in rows}
        for row in rows:
            assert row["converged"] == (row["stop_reason"] == "tol")

    def test_rows_carry_all_locations(self):
        ds, _ = simulate_four_strata(400, seed=61)
        res = fit(ds)
        rows = solution_trace_table(res)
        loc_cols = [k for k in rows[0] if k.startswith("loc_")]
        assert len(loc_cols) == 8
