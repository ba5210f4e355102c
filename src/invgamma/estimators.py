"""The five Inverse Gamma fitters and their shared machinery.

* MM   -- closed-form method of moments, also the initializer for the rest.
* ML1  -- fixed point alpha <- invdigamma(log(n alpha) + C) obtained from a
          tangent lower bound on the profile log-likelihood.
* ML2  -- Newton-like update on 1/alpha from a local k0 + k1*a + k2*log(a)
          surrogate of the profile log-likelihood.
* BL1  -- conjugate shape prior a^(-alpha-1) beta^(alpha c) / Gamma(alpha)^b
          plus a Gamma(d, rate e) scale prior; Laplace (MAP) posterior mean.
* BL2  -- conjugate prior w0 + w1*a + w2*log(a) for the surrogate
          likelihood; posterior update w~ = w + k, Laplace mean -w~2/w~1.

Every estimator consumes a sample only through ``SufficientStats``.
Iteration stops when the relative change of alpha drops to ``rel_tol``;
the scale estimate is computed once afterwards.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distribution import InvGammaParams
from .specfun import _digamma, _inv_digamma, _trigamma


class InsufficientDataError(ValueError):
    """Fewer samples than the estimator needs (n < 2)."""


class DegenerateSampleError(ValueError):
    """Sample variance is zero; the moment initialization is undefined."""


class InvalidPosteriorError(RuntimeError):
    """Posterior hyperparameters admit no interior maximum."""


@dataclass(frozen=True)
class SufficientStats:
    """Data reductions shared by all estimators.

    ``var`` uses the n-1 denominator and is NaN when n < 2.  ``n == 0``
    is allowed as the no-data identity (all sums zero), which the
    prior-curve helpers rely on.
    """

    n: int
    mean: float
    var: float
    sum_inv: float
    sum_log: float
    mean_log: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.n > 0 and not (self.mean > 0.0 and self.sum_inv > 0.0):
            raise ValueError("positive samples imply mean > 0 and sum_inv > 0")

    @classmethod
    def empty(cls) -> "SufficientStats":
        return cls(0, math.nan, math.nan, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ScaleGammaPrior:
    """Gamma prior on the scale: shape ``d``, rate ``e``."""

    d: float = 0.01
    e: float = 0.01

    def __post_init__(self):
        if not (self.d > 0.0 and self.e > 0.0):
            raise ValueError("scale prior requires d > 0 and e > 0")


@dataclass(frozen=True)
class ShapePriorABC:
    """Conjugate shape prior with hyperparameters {a, b, c}.

    ``a`` is stored as ``log_a`` so the posterior update
    log(a_hat) = log(a) + sum(log x) stays finite for any sample size.
    """

    log_a: float = 0.0
    b: float = 0.01
    c: float = 0.01

    def __post_init__(self):
        if not (math.isfinite(self.log_a) and self.b > 0.0 and self.c > 0.0):
            raise ValueError("shape prior requires finite log_a, b > 0, c > 0")

    @classmethod
    def with_a(cls, a: float, b: float, c: float) -> "ShapePriorABC":
        return cls(math.log(a), b, c)


@dataclass(frozen=True)
class PolyShapePrior:
    """log-prior w0 + w1*alpha + w2*log(alpha); (w1, w2) = (0, 0) is flat."""

    w0: float = 1.0
    w1: float = 0.0
    w2: float = 0.0

    def __post_init__(self):
        for name in ("w0", "w1", "w2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class QuadLogLikApprox:
    """Coefficients of the local surrogate k0 + k1*a + k2*log(a)."""

    k0: float
    k1: float
    k2: float
    expansion_point: float


@dataclass(frozen=True)
class ConvergenceConfig:
    rel_tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.max_iter >= 1):
            raise ValueError("rel_tol must be > 0 and max_iter >= 1")


@dataclass(frozen=True)
class FitOptions:
    """Priors and convergence settings; each fitter reads the ones it uses."""

    shape_prior: ShapePriorABC = ShapePriorABC()
    scale_prior: ScaleGammaPrior = ScaleGammaPrior()
    poly_prior: PolyShapePrior = PolyShapePrior()
    conv: ConvergenceConfig = ConvergenceConfig()


@dataclass(frozen=True)
class LaplaceSummary:
    """Gaussian posterior summary for the shape: mean and precision."""

    mean: float
    precision: float


@dataclass(frozen=True)
class FitReport:
    params: InvGammaParams
    iterations: int
    converged: bool
    residual: float
    posterior: LaplaceSummary | None = None


def compute_stats(x) -> SufficientStats:
    """Reduce a positive sample to its sufficient statistics.

    Variance is the two-pass n-1 estimator; NaN when n < 2.
    """
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size < 1:
        raise InsufficientDataError("need at least one sample")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("samples must be finite and > 0")
    n = int(arr.size)
    mu = float(arr.mean())
    if n >= 2:
        dev = arr - mu
        var = float(np.dot(dev, dev) / (n - 1))
    else:
        var = math.nan
    sum_inv = float(np.sum(1.0 / arr))
    sum_log = float(np.sum(np.log(arr)))
    return SufficientStats(n, mu, var, sum_inv, sum_log, sum_log / n)


def _mm_alpha(stats: SufficientStats) -> float:
    if stats.n < 2:
        raise InsufficientDataError(
            f"moment initialization needs n >= 2, got n={stats.n}")
    if not stats.var > 0.0:
        raise DegenerateSampleError("sample variance is zero or undefined")
    return stats.mean * stats.mean / stats.var + 2.0


def fit_mm(stats: SufficientStats) -> FitReport:
    """Closed-form moment estimate; alpha_hat is always > 2."""
    alpha = _mm_alpha(stats)
    beta = stats.mean * (alpha - 1.0)
    return FitReport(InvGammaParams(alpha, beta), 0, True, 0.0)


def log_likelihood(stats: SufficientStats, p: InvGammaParams) -> float:
    """Sample log-likelihood evaluated from the sufficient statistics."""
    n = stats.n
    return (-n * (p.alpha + 1.0) * stats.mean_log - n * math.lgamma(p.alpha)
            + n * p.alpha * math.log(p.beta) - p.beta * stats.sum_inv)


def ml_beta_given_alpha(stats: SufficientStats, alpha: float) -> float:
    """Conditional likelihood maximizer beta = n*alpha / sum(1/x)."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return stats.n * alpha / stats.sum_inv


def profile_log_likelihood(stats: SufficientStats, alpha: float) -> float:
    """Log-likelihood with beta profiled out at its conditional maximum."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    n = stats.n
    return n * (-(alpha + 1.0) * stats.mean_log - math.lgamma(alpha)
                + alpha * (math.log(alpha) + math.log(n)
                           - math.log(stats.sum_inv) - 1.0))


def quad_approx_coeffs(stats: SufficientStats, alpha: float) -> QuadLogLikApprox:
    """Match value and two derivatives of the profile log-likelihood with
    k0 + k1*alpha + k2*log(alpha) at the expansion point."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    n = stats.n
    tg = _trigamma(alpha)
    k2 = n * (alpha * alpha * tg - alpha)
    k1 = n * (-stats.mean_log - _digamma(alpha) + math.log(n * alpha)
              - math.log(stats.sum_inv) - alpha * tg + 1.0)
    k0 = profile_log_likelihood(stats, alpha) - k1 * alpha - k2 * math.log(alpha)
    return QuadLogLikApprox(k0, k1, k2, alpha)


def _ml1_loop(n, c_const, alpha, rel_tol, max_iter):
    it = 0
    res = math.inf
    while it < max_iter:
        it += 1
        nxt = _inv_digamma(math.log(n * alpha) + c_const)
        res = abs(nxt - alpha) / alpha
        alpha = nxt
        if res <= rel_tol:
            return alpha, it, res, True
    return alpha, it, res, False


def _guarded(alpha, nxt):
    # Updates below zero (or non-finite) fall back to the geometric mean
    # of the previous iterate and the update floored at 1e-8.
    if math.isfinite(nxt) and nxt > 0.0:
        return nxt
    floor = nxt if (math.isfinite(nxt) and nxt > 1e-8) else 1e-8
    return math.sqrt(alpha * floor)


def _ml2_loop(n, c_const, alpha, rel_tol, max_iter):
    it = 0
    res = math.inf
    while it < max_iter:
        it += 1
        num = c_const - _digamma(alpha) + math.log(n * alpha)
        den = alpha * alpha * (1.0 / alpha - _trigamma(alpha))
        nxt = _guarded(alpha, 1.0 / (1.0 / alpha + num / den))
        res = abs(nxt - alpha) / alpha
        alpha = nxt
        if res <= rel_tol:
            return alpha, it, res, True
    return alpha, it, res, False


def _bl1_loop(n, log_a_hat, b_hat, c_hat, d, log_e_hat, alpha, rel_tol, max_iter):
    it = 0
    res = math.inf
    while it < max_iter:
        it += 1
        arg = (-log_a_hat + c_hat * (math.log(d + n * alpha) - log_e_hat)) / b_hat
        nxt = _inv_digamma(arg)
        res = abs(nxt - alpha) / alpha
        alpha = nxt
        if res <= rel_tol:
            return alpha, it, res, True
    return alpha, it, res, False


def _bl2_loop(n, mean_log, log_sum_inv, w1, w2, alpha, rel_tol, max_iter):
    it = 0
    res = math.inf
    w1t = w1
    w2t = w2
    while it < max_iter:
        it += 1
        tg = _trigamma(alpha)
        k2 = n * (alpha * alpha * tg - alpha)
        k1 = n * (-mean_log - _digamma(alpha) + math.log(n * alpha)
                  - log_sum_inv - alpha * tg + 1.0)
        w1t = w1 + k1
        w2t = w2 + k2
        nxt = _guarded(alpha, -w2t / w1t)
        res = abs(nxt - alpha) / alpha
        alpha = nxt
        if res <= rel_tol:
            return alpha, it, res, True, w1t, w2t
    return alpha, it, res, False, w1t, w2t


def fit_ml1(stats: SufficientStats,
            cfg: ConvergenceConfig = ConvergenceConfig()) -> FitReport:
    """Tangent-bound fixed point; each step cannot decrease the profile
    log-likelihood."""
    alpha0 = _mm_alpha(stats)
    c_const = -math.log(stats.sum_inv) - stats.mean_log
    alpha, it, res, conv = _ml1_loop(float(stats.n), c_const, alpha0,
                                     cfg.rel_tol, cfg.max_iter)
    beta = stats.n * alpha / stats.sum_inv
    return FitReport(InvGammaParams(alpha, beta), it, bool(conv), res)


def fit_ml2(stats: SufficientStats,
            cfg: ConvergenceConfig = ConvergenceConfig()) -> FitReport:
    """Surrogate-based update on 1/alpha; same fixed point as ML1 but
    typically converges in a few iterations."""
    alpha0 = _mm_alpha(stats)
    c_const = -math.log(stats.sum_inv) - stats.mean_log
    alpha, it, res, conv = _ml2_loop(float(stats.n), c_const, alpha0,
                                     cfg.rel_tol, cfg.max_iter)
    beta = stats.n * alpha / stats.sum_inv
    return FitReport(InvGammaParams(alpha, beta), it, bool(conv), res)


def scale_posterior(stats: SufficientStats, prior: ScaleGammaPrior,
                    alpha: float) -> tuple[float, float, float]:
    """Gamma posterior of the scale given the shape: returns
    (d_hat, e_hat, beta_hat) with beta_hat the posterior mean d_hat/e_hat."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    d_hat = prior.d + stats.n * alpha
    e_hat = prior.e + stats.sum_inv
    return d_hat, e_hat, d_hat / e_hat


def fit_bl1(stats: SufficientStats,
            shape_prior: ShapePriorABC = ShapePriorABC(),
            scale_prior: ScaleGammaPrior = ScaleGammaPrior(),
            cfg: ConvergenceConfig = ConvergenceConfig()) -> FitReport:
    """Conjugate-prior shape update iterated to its MAP fixed point.

    The scale posterior mean is substituted inside the loop, so the
    iteration depends on the data only through the posterior
    hyperparameters; the Laplace summary has mean alpha_hat and precision
    b_hat * trigamma(alpha_hat).
    """
    alpha0 = _mm_alpha(stats)
    n = stats.n
    log_a_hat = shape_prior.log_a + stats.sum_log
    b_hat = shape_prior.b + n
    c_hat = shape_prior.c + n
    e_hat = scale_prior.e + stats.sum_inv
    alpha, it, res, conv = _bl1_loop(float(n), log_a_hat, b_hat, c_hat,
                                     scale_prior.d, math.log(e_hat), alpha0,
                                     cfg.rel_tol, cfg.max_iter)
    d_hat = scale_prior.d + n * alpha
    beta = d_hat / e_hat
    posterior = LaplaceSummary(alpha, b_hat * _trigamma(alpha))
    return FitReport(InvGammaParams(alpha, beta), it, bool(conv), res, posterior)


def fit_bl2(stats: SufficientStats,
            poly_prior: PolyShapePrior = PolyShapePrior(),
            scale_prior: ScaleGammaPrior = ScaleGammaPrior(),
            cfg: ConvergenceConfig = ConvergenceConfig()) -> FitReport:
    """Surrogate-likelihood conjugate update w~ = w + k, alpha <- -w~2/w~1.

    Flat prior (w1 = w2 = 0) reproduces the ML2 iteration exactly.
    """
    alpha0 = _mm_alpha(stats)
    alpha, it, res, conv, w1t, w2t = _bl2_loop(
        float(stats.n), stats.mean_log, math.log(stats.sum_inv),
        poly_prior.w1, poly_prior.w2, alpha0, cfg.rel_tol, cfg.max_iter)
    if conv and (w1t >= 0.0 or w2t <= 0.0):
        raise InvalidPosteriorError(
            f"posterior weights w1~={w1t}, w2~={w2t} admit no interior maximum")
    d_hat = scale_prior.d + stats.n * alpha
    e_hat = scale_prior.e + stats.sum_inv
    beta = d_hat / e_hat
    posterior = LaplaceSummary(-w2t / w1t, w2t / (alpha * alpha))
    return FitReport(InvGammaParams(alpha, beta), it, bool(conv), res, posterior)


def bl1_log_posterior_curve(stats: SufficientStats,
                            shape_prior: ShapePriorABC,
                            scale_prior: ScaleGammaPrior,
                            alphas,
                            beta_hat: float | None = None) -> np.ndarray:
    """Unnormalized log posterior of the shape over a grid.

    Evaluates (-alpha-1) log(a_hat) + alpha c_hat log(beta_hat)
    - b_hat lnGamma(alpha).  With ``stats = SufficientStats.empty()`` the
    hatted hyperparameters equal the prior ones and this is the log prior.
    ``beta_hat`` defaults to the value the BL1 fixed point would use.
    """
    grid = np.asarray(alphas, dtype=np.float64)
    if not np.all(np.isfinite(grid)) or np.any(grid <= 0.0):
        raise ValueError("alpha grid must be finite and > 0")
    n = stats.n
    log_a_hat = shape_prior.log_a + stats.sum_log
    b_hat = shape_prior.b + n
    c_hat = shape_prior.c + n
    if beta_hat is None:
        if n == 0:
            beta_hat = scale_prior.d / scale_prior.e
        else:
            beta_hat = fit_bl1(stats, shape_prior, scale_prior).params.beta
    lgam = np.array([math.lgamma(a) for a in grid])
    return ((-grid - 1.0) * log_a_hat
            + grid * c_hat * math.log(beta_hat)
            - b_hat * lgam)
