import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from stratfit.core import Cell, Dataset, ModelParams, StrataGrid
from stratfit.densities import Family, norm_cdf, norm_logcdf, tobit_mean
from stratfit.em import _cell_logdens, log_likelihood
from stratfit.errors import DataError
from stratfit.simulate import standardized_draws

mp.mp.dps = 50


def kernel_logpdf(y, location, scale, family):
    """The EM kernel's component log-density (``em._cell_logdens``) of the
    outcomes ``y`` under one location per column of ``location`` and one
    scale: a float for scalars, else (cases, locations)."""
    ys = np.ravel(np.asarray(y, dtype=float))
    locs = np.atleast_1d(np.asarray(location, dtype=float))
    cell = Cell(t=0, z=0, rows=np.arange(ys.size), strata=np.arange(locs.size), y=ys,
                y2=ys * ys, w=np.ones(ys.size), zero=np.flatnonzero(ys == 0.0),
                pos=np.flatnonzero(ys > 0.0))
    out = _cell_logdens(cell, locs[None], np.array([float(scale)]), family)[0]
    return float(out[0, 0]) if np.ndim(y) == 0 and np.ndim(location) == 0 else out


class TestNormalCdf:
    def test_accuracy_against_mpmath(self):
        xs = np.concatenate(
            [np.linspace(-37.0, 8.0, 451), [-0.6629, 0.6629, -1e-12, 0.0, 1e-12]]
        )
        worst = 0.0
        for x in xs:
            exact = mp.ncdf(mp.mpf(float(x)))
            worst = max(worst, abs(norm_cdf(float(x)) - float(exact)) / float(exact))
        assert worst < 1e-14

    def test_logcdf_accuracy_against_mpmath(self):
        for x in np.concatenate([np.linspace(-300.0, 8.0, 309), [-0.6629, 0.6629]]):
            exact = float(mp.log(mp.ncdf(mp.mpf(float(x)))))
            got = norm_logcdf(float(x))
            assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_logcdf_relative_accuracy_against_mpmath(self):
        # relative, since log Phi(x) -> 0 as x grows: at x = 8 it is -6e-16
        xs = np.concatenate([np.linspace(-38.0, 8.0, 2301),
                             [-0.6629, 0.6629, -1e-12, 1e-12, 0.0]])
        exact = [mp.log(mp.ncdf(mp.mpf(float(x)))) for x in xs]
        worst = max(abs((mp.mpf(float(g)) - e) / e) for g, e in zip(norm_logcdf(xs), exact))
        assert worst <= 1e-14

    def test_symmetry_and_bounds(self):
        x = np.linspace(-8.0, 8.0, 161)
        p = norm_cdf(x)
        assert np.all((p > 0.0) & (p < 1.0))
        np.testing.assert_allclose(p + norm_cdf(-x), 1.0, rtol=0, atol=1e-15)

    def test_vectorized_matches_scalar(self):
        x = np.linspace(-30.0, 8.0, 77)
        assert np.array_equal(norm_cdf(x), np.array([norm_cdf(float(v)) for v in x]))
        assert np.array_equal(
            norm_logcdf(x), np.array([norm_logcdf(float(v)) for v in x])
        )


@pytest.mark.filterwarnings("error")
class TestNonFiniteInputs:
    """NaN and the infinities give NaN and the limits, without a warning."""

    @pytest.mark.parametrize("x, cdf, logcdf", [
        (np.nan, np.nan, np.nan), (np.inf, 1.0, 0.0), (-np.inf, 0.0, -np.inf),
    ], ids=["nan", "inf", "-inf"])
    def test_limits(self, x, cdf, logcdf):
        for f, want in ((norm_cdf, cdf), (norm_logcdf, logcdf)):
            got = f(x)
            assert isinstance(got, float)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(f(np.array([x])), [want], equal_nan=True)

    def test_a_nan_is_never_uninitialised_memory(self):
        # every entry NaN, at every length the branches' masks see
        for n in (1, 2, 7, 64):
            assert np.isnan(norm_cdf(np.full(n, np.nan))).all()
            assert np.isnan(norm_logcdf(np.full(n, np.nan))).all()

    def test_finite_entries_keep_their_bits(self):
        # points in the lower, middle and upper branches and both erfc tails
        x = np.array([-40.0, -5.0, -1.0, -0.3, 0.0, 1e-12, 0.5, 0.9, 3.0, 7.0, 40.0])
        for f in (norm_cdf, norm_logcdf):
            alone = f(x)
            for bad in (np.nan, np.inf, -np.inf):
                mixed = np.insert(x, [0, 4, 11], bad)
                got = f(mixed)
                assert np.delete(got, [0, 5, 13]).tobytes() == alone.tobytes()
                assert f(mixed.reshape(2, 7)).tobytes() == got.tobytes()


class TestLogDensity:
    def test_normal_mode_value(self):
        assert kernel_logpdf(3.2, 3.2, 1.7, Family.NORMAL) == pytest.approx(
            -math.log(1.7) - 0.5 * math.log(2 * math.pi), abs=1e-15
        )

    def test_tobit_symmetric_censoring_mass(self):
        assert kernel_logpdf(0.0, 0.0, 1.0, Family.TOBIT) == pytest.approx(
            math.log(0.5), abs=1e-15
        )

    def test_tobit_positive_part_matches_mpmath_oracle(self):
        # log of the N(0.7, 1.1^2) density at 1.3, via a 50-digit computation
        assert kernel_logpdf(1.3, 0.7, 1.1, Family.TOBIT) == pytest.approx(
            -1.1630090435875099985, abs=1e-12
        )

    def test_tobit_rejects_negative_outcomes(self):
        # the kernel's callers check the outcomes before any density is taken
        ds = Dataset.from_arrays([-0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1], [0, 1, 0, 1],
                                 k_levels=2)
        params = ModelParams(StrataGrid(2), np.full(4, 0.25), np.full((4, 2), 0.5),
                             np.ones(2), Family.TOBIT)
        with pytest.raises(DataError, match="negative outcome"):
            log_likelihood(params, ds)

    def test_tobit_censored_mass_uses_location_and_scale(self):
        assert kernel_logpdf(0.0, 1.4, 0.6, Family.TOBIT) == pytest.approx(
            norm_logcdf(-1.4 / 0.6), abs=1e-15
        )

    def test_broadcasting(self):
        out = kernel_logpdf(
            np.array([[0.0], [1.5], [0.0]]), np.array([0.5, -0.2]), 1.3, Family.TOBIT
        )
        assert out.shape == (3, 2)
        assert out[0, 0] == norm_logcdf(-0.5 / 1.3)
        assert np.array_equal(out[0], out[2])

    def test_finite_and_continuous_in_parameters(self):
        y = np.array([0.0, 0.3, 2.0, 40.0])
        for loc in (-5.0, 0.0, 5.0):
            for scale in (0.05, 1.0, 20.0):
                vals = kernel_logpdf(y, loc, scale, Family.TOBIT)
                assert np.all(np.isfinite(vals))
                nudged = kernel_logpdf(y, loc + 1e-9, scale * (1 + 1e-9), Family.TOBIT)
                assert np.max(np.abs(nudged - vals) / np.maximum(1.0, np.abs(vals))) < 1e-6


class TestTobitNormalization:
    def test_mass_plus_density_integrates_to_one(self):
        for eta in (-2.0, -0.5, 0.0, 1.0, 3.0):
            for zeta in (0.25, 0.7, 1.0, 2.0, 5.0):
                def density(y):
                    return math.exp(kernel_logpdf(y, eta, zeta, Family.TOBIT))

                mass = density(0.0)
                integral, err = integrate.quad(density, 1e-300, np.inf, limit=200)
                assert mass + integral == pytest.approx(1.0, abs=1e-12)

    def test_tobit_mean_matches_quadrature(self):
        integral, _ = integrate.quad(
            lambda y: y * math.exp(kernel_logpdf(y, 0.8, 1.3, Family.TOBIT)),
            0.0, np.inf, limit=200,
        )
        assert tobit_mean(0.8, 1.3) == pytest.approx(integral, abs=1e-10)


class TestMisspecifiedSampling:
    """The simulation harness's disturbance shapes (``simulate.standardized_draws``)."""

    def test_heavy_tail_requires_df_above_two(self):
        with pytest.raises(ValueError, match="exceed 2"):
            standardized_draws("heavy_tail", 2.0, 10, np.random.default_rng(0))

    def test_large_df_recovers_normal(self):
        rng = np.random.default_rng(3)
        draws = standardized_draws("heavy_tail", 5000.0, 100_000, rng)
        ks = stats.kstest(draws, stats.norm.cdf)
        assert ks.statistic < 0.01

    @pytest.mark.parametrize("shape", [("heavy_tail", 3.0), ("skewed", 1.5)])
    def test_moments_match_target(self, shape):
        rng = np.random.default_rng(4)
        draws = 2.0 + 1.5 * standardized_draws(*shape, 1_000_000, rng)
        assert abs(draws.mean() - 2.0) < 0.01 * 1.5 + 0.01
        assert abs(draws.std() - 1.5) < 0.015

    def test_zero_skew_is_symmetric(self):
        rng = np.random.default_rng(5)
        draws = standardized_draws("skewed", 0.0, 1_000_000, rng)
        assert abs(stats.skew(draws)) < 0.02

    def test_skewness_hits_requested_level(self):
        rng = np.random.default_rng(6)
        draws = standardized_draws("skewed", 1.0, 2_000_000, rng)
        assert stats.skew(draws) == pytest.approx(1.0, abs=0.05)
        neg = standardized_draws("skewed", -1.0, 500_000, rng)
        assert stats.skew(neg) == pytest.approx(-1.0, abs=0.1)
