"""Degenerate inputs end in a typed error that names the cell, or in a
finite answer, and never in a numpy warning: every test here turns warnings
into errors."""

import warnings

import numpy as np
import pytest

from stratfit.core import Dataset
from stratfit.densities import Family
from stratfit.effects import effect_table
from stratfit.em import FitConfig, fit
from stratfit.errors import WarmStartError

from test_estimation import simulate_four_strata


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def with_cell(ds, family, t, z, y, keep=None):
    """``ds`` with the outcomes of cell (t, z) replaced by ``y``, keeping the
    first ``keep`` of its cases (all of them by default)."""
    cell = np.flatnonzero((ds.t == t) & (ds.z == z))
    out = ds.y.copy()
    out[cell] = y
    rows = np.setdiff1d(np.arange(ds.n), cell[len(cell) if keep is None else keep:])
    return Dataset.from_arrays(out[rows], ds.t[rows], ds.z[rows], k_levels=2, family=family)


def assert_finite_fit(res):
    assert np.isfinite(res.loglik)
    for values in (res.params.probs, res.params.locations, res.params.scales):
        assert np.isfinite(values).all()


def test_all_censored_tobit_cell_names_the_cell():
    ds, _ = simulate_four_strata(150, seed=90, sigma=2.0, effect=3.0, censor=True)
    with pytest.raises(WarmStartError, match=r"t=1, z=0 has 0 usable cases"):
        fit(with_cell(ds, Family.TOBIT, 1, 0, 0.0), Family.TOBIT)


def test_single_value_tobit_cell_fits():
    ds, _ = simulate_four_strata(150, seed=91, sigma=2.0, effect=3.0, censor=True)
    assert_finite_fit(fit(with_cell(ds, Family.TOBIT, 0, 1, 2.5), Family.TOBIT))


def test_four_case_normal_cell_fits():
    ds, _ = simulate_four_strata(150, seed=92)
    small = with_cell(ds, Family.NORMAL, 1, 1, ds.y[(ds.t == 1) & (ds.z == 1)], keep=4)
    assert ((small.t == 1) & (small.z == 1)).sum() == 4
    assert_finite_fit(fit(small))


@pytest.mark.parametrize("family", [Family.NORMAL, Family.TOBIT], ids=lambda f: f.value)
def test_singleton_clusters_give_finite_ses(family):
    ds, _ = simulate_four_strata(80, seed=93, sigma=2.0, effect=3.0,
                                 censor=family is Family.TOBIT)
    ds = Dataset.from_arrays(ds.y, ds.t, ds.z, cluster=np.arange(ds.n), k_levels=2,
                             family=family)
    assert ds.n_clusters == ds.n
    table = effect_table(fit(ds, family, config=FitConfig(tol=1e-7)), ds)[0]
    ses = [table.se_naive, table.se_cluster]
    if family is Family.TOBIT:
        ses += [table.se_naive_observed, table.se_cluster_observed]
    for se in ses:
        assert np.isfinite(se).all() and (se > 0.0).all()


@pytest.mark.parametrize("family", [Family.NORMAL, Family.TOBIT], ids=lambda f: f.value)
@pytest.mark.parametrize("p4", [0.0, 0.001])
def test_near_empty_stratum(family, p4):
    # the fourth stratum holds no case, or about one in a thousand: the fit
    # stays finite with that stratum's probability near 0, and its effect
    # either has no SE (normal, empty) or a huge naive one
    ds, _ = simulate_four_strata(300, seed=94, sigma=2.0, effect=3.0,
                                 probs=(0.5, 0.3, 0.2 - p4, p4),
                                 censor=family is Family.TOBIT)
    res = fit(ds, family, config=FitConfig(tol=1e-7))
    assert_finite_fit(res)
    assert res.converged and 0.0 < res.params.probs[3] < 1e-3
    if family is Family.NORMAL and p4 == 0.0:
        table, cov_n, cov_c = effect_table(res, ds)
        assert "Hessian is not negative definite" in table.se_error
        assert cov_n is None and cov_c is None
        assert table.se_naive is table.se_cluster is None
        assert table.se_naive_observed is table.se_cluster_observed is None
        return
    table = effect_table(res, ds)[0]
    ses = [table.se_naive, table.se_cluster]
    if family is Family.TOBIT:
        ses += [table.se_naive_observed, table.se_cluster_observed]
    for se in ses:
        assert np.isfinite(se).all() and (se > 0.0).all()
    assert (table.se_naive[:3] < 1.0).all() and 30.0 < table.se_naive[3] < 110.0
