import dataclasses
import math

import numpy as np
import pytest

from stratfit import em, simulate
from stratfit.cli import read_sim_config
from stratfit.core import Dataset
from stratfit.simulate import (
    SimConfig,
    _generate_labeled,
    _replicate_rng,
    generate,
    parse_shape,
    run_replicate,
    run_study,
    scenario_probs,
    shape_label,
    true_model,
)


class TestScenarioProbs:
    def test_four_strata_vectors(self):
        np.testing.assert_allclose(scenario_probs("uniform", 2), 0.25)
        one_small = scenario_probs("one_small", 2)
        np.testing.assert_allclose(one_small, [0.45, 0.30, 0.20, 0.05])
        unequal = scenario_probs("unequal", 2)
        assert unequal.sum() == pytest.approx(1.0)
        assert np.all(np.diff(unequal) <= 0)

    def test_nine_strata_vectors_are_simplexes(self):
        for scenario in ("uniform", "unequal", "one_small"):
            p = scenario_probs(scenario, 3)
            assert p.shape == (9,)
            assert p.sum() == pytest.approx(1.0)
            assert np.all(p > 0)
        assert scenario_probs("one_small", 3)[-1] == pytest.approx(0.05)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            scenario_probs("nope", 2)


class TestTrueModel:
    def test_within_cell_separation_equals_dispersion(self):
        cfg = SimConfig(500, 1.7, "unequal", sigma=2.0, effect=3.0)
        truth = true_model(cfg)
        table = truth.location_table()
        grid = truth.grid
        for t in (0, 1):
            for z in range(2):
                compat = grid.compatible(t, z)
                gaps = np.diff(table[compat, t])
                np.testing.assert_allclose(gaps, 1.7 * 2.0)

    def test_constant_effect_across_strata(self):
        truth = true_model(SimConfig(500, 1.6, effect=2.5))
        table = truth.location_table()
        np.testing.assert_allclose(table[:, 1] - table[:, 0], 2.5)


class TestGenerate:
    def test_cell_proportions_match_prob_margins(self):
        cfg = SimConfig(100_000, 1.6, "unequal", seed=1)
        ds, truth = generate(cfg, _replicate_rng(cfg, 0))
        grid = truth.grid
        for t in (0, 1):
            arm = ds.t == t
            for z in range(2):
                compat = grid.compatible(t, z)
                expected = truth.probs[compat].sum()
                observed = float((ds.z[arm] == z).mean())
                assert abs(observed - expected) < 0.01

    def test_per_stratum_moments(self):
        cfg = SimConfig(50_000, 2.0, "unequal", seed=2)
        ds, truth, strata = _generate_labeled(cfg, _replicate_rng(cfg, 0))
        table = truth.location_table()
        for s in range(4):
            for t in (0, 1):
                sel = (strata == s) & (ds.t == t)
                n = int(sel.sum())
                assert abs(ds.y[sel].mean() - table[s, t]) < 5.0 / np.sqrt(n) * cfg.sigma

    def test_unit_weights_singleton_clusters(self):
        cfg = SimConfig(100, 1.6, seed=3)
        ds, _ = generate(cfg, _replicate_rng(cfg, 0))
        assert np.all(ds.w == 1.0)
        assert ds.n_clusters == ds.n

    def test_identical_seeds_are_bitwise_identical(self):
        cfg = SimConfig(500, 1.6, seed=4)
        ds1, _ = generate(cfg, _replicate_rng(cfg, 7))
        ds2, _ = generate(cfg, _replicate_rng(cfg, 7))
        assert np.array_equal(ds1.y, ds2.y)
        assert np.array_equal(ds1.z, ds2.z)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(4, 1.6)
        with pytest.raises(ValueError):
            SimConfig(100, -0.1)
        with pytest.raises(ValueError):
            SimConfig(100, 1.6, replicates=0)
        with pytest.raises(ValueError, match="exceed 2"):
            SimConfig(100, 1.6, shape="heavy_tail", shape_param=2.0)
        with pytest.raises(ValueError, match="unknown disturbance shape"):
            SimConfig(100, 1.6, shape="cauchy", shape_param=1.0)

    @pytest.mark.parametrize("field, kwargs", [
        ("dispersion_sd", {"dispersion_sd": float("nan")}),
        ("sigma", {"sigma": float("inf")}),
        ("effect", {"effect": float("nan")}),
        ("shape 'skewed'", {"shape": "skewed", "shape_param": float("nan")}),
        ("shape 'skewed'", {"shape": "skewed", "shape_param": float("inf")}),
        ("shape 'heavy_tail'", {"shape": "heavy_tail", "shape_param": float("inf")}),
        ("'one_small' needs at least 2 levels", {"k_levels": 1, "prob_scenario": "one_small"}),
    ], ids=["dispersion-nan", "sigma-inf", "effect-nan", "skewed-nan", "skewed-inf",
            "heavy-tail-inf", "one-small-one-level"])
    def test_values_that_cannot_generate_data_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            SimConfig(n_per_arm=100, replicates=2, **kwargs)

    @pytest.mark.parametrize("k_levels", [-1, 0, 4])
    def test_level_count_a_fit_cannot_take_rejected(self, k_levels):
        with pytest.raises(ValueError, match="at least 1 and at most 3 levels"):
            SimConfig(k_levels=k_levels, replicates=2, n_per_arm=100)

    @pytest.mark.parametrize("shape", ["heavy_tail", "skewed"])
    def test_shape_without_parameter_rejected(self, shape):
        with pytest.raises(ValueError, match="needs a parameter"):
            SimConfig(100, 1.6, shape=shape)

    def test_normal_shape_with_parameter_rejected(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            SimConfig(100, 1.6, shape="normal", shape_param=3.0)
        with pytest.raises(ValueError, match="takes no parameter"):
            parse_shape("normal:3")

    def test_parse_shape_checks_what_sim_config_checks(self):
        assert parse_shape("normal") == ("normal", None)
        assert parse_shape("skewed:-1.5") == ("skewed", -1.5)
        for text, message in (("heavy_tail", "needs a parameter"),
                              ("heavy_tail:2", "exceed 2"),
                              ("cauchy:1", "unknown disturbance shape")):
            with pytest.raises(ValueError, match=message):
                parse_shape(text)


class TestRunStudy:
    def test_deterministic_given_seed(self):
        cfg = SimConfig(120, 2.4, replicates=3, seed=5)
        rep1 = run_study(cfg)
        rep2 = run_study(cfg)
        for a, b in zip(rep1.replicates, rep2.replicates):
            assert a.loglik == b.loglik
            assert np.array_equal(a.location_error, b.location_error)

    def test_zero_dispersion_never_label_correct(self):
        cfg = SimConfig(120, 0.0, replicates=2, seed=6)
        rep = run_study(cfg)
        assert all(r.label_correct is False for r in rep.replicates if r.ok)

    def test_failures_recorded_not_raised(self):
        # tiny samples with a rare stratum leave cells empty now and then
        cfg = SimConfig(8, 1.6, "one_small", replicates=30, seed=7)
        report = run_study(cfg)
        assert len(report.replicates) == 30
        assert report.n_failed > 0
        failed = [r for r in report.replicates if not r.ok]
        assert all(r.error for r in failed)

    def test_well_separated_recovery(self):
        cfg = SimConfig(1000, 2.4, replicates=5, seed=10)
        report = run_study(cfg)
        assert report.fraction_label_correct == 1.0
        assert report.location_rmse(correct_only=True).max() < 0.2


def assert_same_replicates(got, want):
    """Two replicate results agree field for field, arrays bit for bit."""
    for a, b in zip(got, want, strict=True):
        for f in dataclasses.fields(a):
            u, v = getattr(a, f.name), getattr(b, f.name)
            if isinstance(u, np.ndarray):
                assert u.tobytes() == v.tobytes(), (a.index, f.name)
            else:
                assert type(u) is type(v) and u == v, (a.index, f.name)


class TestChunkedStudy:
    """run_study warm-starts its replicates a chunk at a time, and every
    result equals that of the replicate run on its own."""

    def warm_calls(self, monkeypatch):
        calls = []
        real = em.warm_start_cells

        def counted(datasets, family):  # a chunk's size; None for one dataset
            calls.append(None if isinstance(datasets, Dataset) else len(datasets))
            return real(datasets, family)

        monkeypatch.setattr(em, "warm_start_cells", counted)
        return calls

    def test_chunks_with_a_failing_replicate(self, monkeypatch):
        # at most 150 entries a group: a chunk holds one to three of these
        # replicates, and a rare stratum leaves some of their cells empty or
        # too small
        monkeypatch.setattr(em, "_WARM_BLOCK", 150)
        cfg = SimConfig(8, 1.6, "one_small", replicates=12, seed=7)
        calls = self.warm_calls(monkeypatch)
        report = run_study(cfg)
        chunks = [c for c in calls if c is not None]
        assert len(chunks) >= 4 and max(chunks) >= 2 and sum(chunks) == cfg.replicates
        errors = [r.error for r in report.replicates if not r.ok]
        # fit computes the warm starts again only where they failed
        assert calls.count(None) == sum(e.startswith("cell too small") for e in errors) > 0
        assert any(e.startswith("empty (t, z) cells") for e in errors)
        monkeypatch.undo()
        assert_same_replicates(report.replicates,
                               [run_replicate(cfg, i) for i in range(cfg.replicates)])

    def test_three_levels(self):
        cfg = SimConfig(60, 2.4, k_levels=3, replicates=3, seed=4, starts=("topk", 3))
        assert_same_replicates(run_study(cfg).replicates,
                               [run_replicate(cfg, i) for i in range(cfg.replicates)])

    def test_one_chunk_by_default(self, monkeypatch):
        calls = self.warm_calls(monkeypatch)
        run_study(SimConfig(120, 2.4, replicates=3, seed=5))
        assert calls == [3]


class TestMisspecification:
    def test_paired_generation_and_labels(self, tmp_path):
        cfg_path = tmp_path / "mis.cfg"
        cfg_path.write_text("n_per_arm = 150\ndispersion_sd = 2.4\nreplicates = 3\n"
                            "shapes = heavy_tail:10, skewed:1\n")
        configs, paired = read_sim_config(str(cfg_path), 11)
        assert paired
        # one cell: the normal baseline first, then each shape on the same seed
        assert [shape_label(c.shape, c.shape_param) for c in configs] == [
            "normal", "heavy_tail:10", "skewed:1"]
        assert {(c.n_per_arm, c.dispersion_sd, c.seed, c.replicates) for c in configs} == {
            (150, 2.4, 11, 3)}
        baseline, *shaped = [run_study(c) for c in configs]
        assert baseline.config.shape == "normal"
        for report in shaped:
            degradation = baseline.fraction_label_correct - report.fraction_label_correct
            assert np.isfinite(degradation)


class TestPruningLeavesTheAnswer:
    """Pruning trailing starts, from evaluation 3 on, changes no recovery
    answer: the same winner, ties and near ties as running every
    start to the stop rule."""

    def test_margin_exceeds_the_tie_bands(self):
        # a pruned start is no near tie of the lead, and so of the final
        # winner, whatever the units of y; the near-tie band holds the ties
        assert simulate.NEAR_TIE_REL is em.NEAR_TIE_REL > em.LOGLIK_TIE_TOL
        lead = -1e3
        lag = np.array([0.5, 2.0]) * em.NEAR_TIE_REL * abs(lead)
        # at the first check, where only the projected gain bounds the lag,
        # and at the first check of the margin
        for it, gain in ((em._AITKEN_FROM, 1e-12), (em._SHORT_PHASE, 1.0)):
            assert em._pruned(lead, lead - lag, gain, 2.0 * gain, it, 100, 1.0).tolist() == [
                False, True]

    @pytest.mark.slow
    def test_small_grid_same_answers_with_and_without_pruning(self, monkeypatch):
        fits = []
        real_fit = simulate.fit

        def keep_fit(*args, **kwargs):
            fits.append(real_fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(simulate, "fit", keep_fit)

        def study(d, replicates):
            fits.clear()
            rep = run_study(SimConfig(n_per_arm=300, dispersion_sd=d, replicates=replicates,
                                      seed=5))
            return rep, list(fits)

        pruned_any = False
        # 12 datasets; poorly separated ones cost the most EM iterations and
        # keep their starts within the margin, so they get fewer
        for d, replicates in ((1.0, 2), (1.6, 3), (2.4, 7)):
            rep_on, fits_on = study(d, replicates)
            with monkeypatch.context() as off:
                off.setattr(em, "_PRUNE_MARGIN", math.inf)
                off.setattr(em, "_PRUNE_AHEAD", math.inf)
                rep_off, fits_off = study(d, replicates)
            assert rep_on.n_failed == rep_off.n_failed == 0
            assert len(fits_on) == len(fits_off) == replicates
            for a, b in zip(fits_on, fits_off):
                assert (a.mapping_id, a.tie_ids, a.loglik, a.iterations) == (
                    b.mapping_id, b.tie_ids, b.loglik, b.iterations)
                for name in ("probs", "locations", "scales"):
                    np.testing.assert_array_equal(getattr(a.params, name),
                                                  getattr(b.params, name))
                assert not any(r.stop_reason == "pruned" for r in b.trace)
                pruned_any |= any(r.stop_reason == "pruned" for r in a.trace)
            for a, b in zip(rep_on.replicates, rep_off.replicates):
                assert (a.n_near_ties, a.label_correct) == (b.n_near_ties, b.label_correct)
        assert pruned_any
