"""Principal-stratum mixture models for treatment effects when follow-up
institutionalization suppresses the outcome.

The estimand is the arm contrast within strata defined by the joint
potential institutionalization levels under both arms. Only one coordinate
of each case's stratum is observed, so every observed cell is a finite
mixture; the package fits the weighted mixture likelihood by EM with
exhaustive starting-value mapping, reports diagonal-stratum effects with
naive and cluster-robust standard errors, and ships a recovery-study harness
for probing when the labels are identified at all.
"""

from .core import (
    Dataset,
    MeanStructure,
    ModelParams,
    StrataGrid,
    effective_sample_size,
    pack,
    param_names,
    unpack,
)
from .densities import Family, norm_cdf, norm_logcdf, tobit_mean
from .diagnostics import marginal_fit_table, posterior_histogram, solution_trace_table
from .effects import (
    EffectTable,
    ParamCovariance,
    cluster_sandwich_se,
    effect_ses,
    effect_table,
    observed_information_se,
    treatment_effects,
)
from .em import (
    FitConfig,
    FitResult,
    e_step,
    fit,
    log_likelihood,
    m_step,
    select_starts,
    warm_start_cells,
)
from .errors import (
    ConvergenceError,
    DataError,
    DegenerateMixtureError,
    EstimationError,
    InferenceError,
    StratfitError,
    WarmStartError,
)
from .simulate import (
    RecoveryReport,
    SimConfig,
    generate,
    run_study,
    scenario_probs,
    true_model,
)

__version__ = "0.1.0"
