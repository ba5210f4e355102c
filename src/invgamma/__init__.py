"""Inverse Gamma parameter estimation.

Five fitters (method of moments, two maximum-likelihood fixed points,
two conjugate Bayesian schemes), the closed-form KL divergence between
Inverse Gamma distributions, and a seeded benchmark harness.
"""

from .distribution import (
    InvGammaParams,
    UndefinedMomentError,
    expect_inv_x,
    expect_log_pdf,
    expect_log_x,
    kl_divergence,
    log_pdf,
    mean,
    moments,
    sample,
    variance,
)
from .estimators import (
    BatchFit,
    ConvergenceConfig,
    DegenerateSampleError,
    FitOptions,
    FitReport,
    InsufficientDataError,
    InvalidPosteriorError,
    LaplaceSummary,
    PolyShapePrior,
    QuadLogLikApprox,
    ScaleGammaPrior,
    ShapePriorABC,
    StatsBatch,
    SufficientStats,
    bl1_log_posterior_curve,
    compute_stats,
    fit_batch,
    fit_bl1,
    fit_bl2,
    fit_ml1,
    fit_ml2,
    fit_mm,
    log_likelihood,
    ml_beta_given_alpha,
    profile_log_likelihood,
    quad_approx_coeffs,
    scale_posterior,
)
from .harness import (
    ESTIMATORS,
    ExperimentConfig,
    SimulationRecord,
    SimulationRecords,
    WorkerError,
    aggregate_bias,
    emit_prior_posterior_curves,
    fit_by_name,
    run_bias_experiment,
    run_kl_experiment,
    wilcoxon_rank_sum,
)
from .specfun import digamma, inv_digamma, ln_gamma, trigamma

__version__ = "0.1.0"

# numpy is the only backend; kept for records that name the backend.
NUMBA_ENABLED = False
