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
ML1, ML2, BL1 and BL2 each pass a one-step update of alpha to
``_fixed_point``, which stops when the relative change of alpha drops to
``rel_tol``; the scale estimate is computed once afterwards.

``fit_batch`` runs one estimator over a ``StatsBatch`` of many samples as
masked numpy arrays.  Its driver ``_iterate`` stops each element by the
rules of ``_fixed_point``, and its update rules repeat the scalar steps
operation for operation, so every element gets the bits the scalar
``fit_*`` would give, and a domain error marks the element failed instead
of raising.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distribution import InvGammaParams
from .specfun import (
    _clog,
    _digamma,
    _inv_digamma,
    _inv_digamma_array,
    _psi_psi1_array,
    _trigamma,
)


class InsufficientDataError(ValueError):
    """Fewer samples than the estimator needs (n < 2)."""


class DegenerateSampleError(ValueError):
    """Sample variance is zero, so the moment initialization is undefined;
    the moments overflow float64, so it is not finite; or the sample is so
    close to constant that the ML2/BL2 update divides by zero."""


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

    Variance is the two-pass n-1 estimator; NaN when n < 2.  Values near
    the limits of float64 can overflow a statistic to inf without a
    warning; the fitters then raise ``DegenerateSampleError``.
    """
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size < 1:
        raise InsufficientDataError("need at least one sample")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("samples must be finite and > 0")
    n = int(arr.size)
    with np.errstate(over="ignore", divide="ignore"):
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
    alpha = stats.mean * stats.mean / stats.var + 2.0
    if not math.isfinite(alpha):
        raise DegenerateSampleError(
            f"moment estimate of alpha is {alpha}: the sample's moments "
            "overflow float64")
    return alpha


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


def _surrogate_k(stats: SufficientStats, alpha: float) -> tuple[float, float]:
    # k1 and k2 of the k0 + k1*a + k2*log(a) surrogate at ``alpha``.
    n = stats.n
    tg = _trigamma(alpha)
    k1 = n * (-stats.mean_log - _digamma(alpha) + math.log(n * alpha)
              - math.log(stats.sum_inv) - alpha * tg + 1.0)
    k2 = n * (alpha * alpha * tg - alpha)
    return k1, k2


def quad_approx_coeffs(stats: SufficientStats, alpha: float) -> QuadLogLikApprox:
    """Match value and two derivatives of the profile log-likelihood with
    k0 + k1*alpha + k2*log(alpha) at the expansion point."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    k1, k2 = _surrogate_k(stats, alpha)
    k0 = profile_log_likelihood(stats, alpha) - k1 * alpha - k2 * math.log(alpha)
    return QuadLogLikApprox(k0, k1, k2, alpha)


def _fixed_point(step, alpha: float, conv: ConvergenceConfig):
    """The fixed-point loop: ``alpha <- step(alpha)`` until the relative
    change drops to ``conv.rel_tol``, ``conv.max_iter`` steps have run, or a
    step is NaN.  Returns (alpha, iterations, residual, converged).

    NaN is absorbing for every update rule, so a NaN step ends the loop
    and the fit fails when its estimate is built.  A division by zero in a
    step, as in the ML2/BL2 update on near-constant samples, raises
    ``DegenerateSampleError``.
    """
    for it in range(1, conv.max_iter + 1):
        try:
            nxt = step(alpha)
        except ZeroDivisionError:
            raise DegenerateSampleError(
                f"update divides by zero at alpha={alpha:g}; "
                "the sample is too close to constant") from None
        res = abs(nxt - alpha) / alpha
        alpha = nxt
        if res <= conv.rel_tol:
            return alpha, it, res, True
        if math.isnan(nxt):
            break
    return alpha, it, res, False


def _guarded(alpha, nxt):
    # Updates below zero (or non-finite) fall back to the geometric mean
    # of the previous iterate and the update floored at 1e-8.
    if math.isfinite(nxt) and nxt > 0.0:
        return nxt
    floor = nxt if (math.isfinite(nxt) and nxt > 1e-8) else 1e-8
    return math.sqrt(alpha * floor)


def fit_ml1(stats: SufficientStats,
            cfg: ConvergenceConfig = ConvergenceConfig()) -> FitReport:
    """Tangent-bound fixed point; each step cannot decrease the profile
    log-likelihood."""
    alpha0 = _mm_alpha(stats)
    n = stats.n
    c_const = -math.log(stats.sum_inv) - stats.mean_log

    def step(alpha):
        return _inv_digamma(math.log(n * alpha) + c_const)

    alpha, it, res, conv = _fixed_point(step, alpha0, cfg)
    beta = n * alpha / stats.sum_inv
    return FitReport(InvGammaParams(alpha, beta), it, conv, res)


def fit_ml2(stats: SufficientStats,
            cfg: ConvergenceConfig = ConvergenceConfig()) -> FitReport:
    """Surrogate-based update on 1/alpha; same fixed point as ML1 but
    typically converges in a few iterations."""
    alpha0 = _mm_alpha(stats)
    n = stats.n
    c_const = -math.log(stats.sum_inv) - stats.mean_log

    def step(alpha):
        num = c_const - _digamma(alpha) + math.log(n * alpha)
        den = alpha * alpha * (1.0 / alpha - _trigamma(alpha))
        return _guarded(alpha, 1.0 / (1.0 / alpha + num / den))

    alpha, it, res, conv = _fixed_point(step, alpha0, cfg)
    beta = n * alpha / stats.sum_inv
    return FitReport(InvGammaParams(alpha, beta), it, conv, res)


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
    d = scale_prior.d
    e_hat = scale_prior.e + stats.sum_inv
    log_e_hat = math.log(e_hat)

    def step(alpha):
        return _inv_digamma(
            (-log_a_hat + c_hat * (math.log(d + n * alpha) - log_e_hat)) / b_hat)

    alpha, it, res, conv = _fixed_point(step, alpha0, cfg)
    beta = (d + n * alpha) / e_hat
    posterior = LaplaceSummary(alpha, b_hat * _trigamma(alpha))
    return FitReport(InvGammaParams(alpha, beta), it, conv, res, posterior)


def fit_bl2(stats: SufficientStats,
            poly_prior: PolyShapePrior = PolyShapePrior(),
            scale_prior: ScaleGammaPrior = ScaleGammaPrior(),
            cfg: ConvergenceConfig = ConvergenceConfig()) -> FitReport:
    """Surrogate-likelihood conjugate update w~ = w + k, alpha <- -w~2/w~1.

    With the flat prior (w1 = w2 = 0) the update is ML2's algebraically,
    but it rounds differently: -k2/k1 and ML2's 1/(1/alpha + num/den)
    drift apart once alpha is about 1e16 or more.  On near-constant samples ML2 then raises
    ``DegenerateSampleError`` while BL2 runs to ``max_iter`` unconverged
    (``converged`` is False; ``invgamma fit --strict`` exits 4).
    """
    alpha0 = _mm_alpha(stats)
    w1t, w2t = poly_prior.w1, poly_prior.w2

    def step(alpha):
        nonlocal w1t, w2t
        k1, k2 = _surrogate_k(stats, alpha)
        w1t = poly_prior.w1 + k1
        w2t = poly_prior.w2 + k2
        return _guarded(alpha, -w2t / w1t)

    alpha, it, res, conv = _fixed_point(step, alpha0, cfg)
    if conv and (w1t >= 0.0 or w2t <= 0.0):
        raise InvalidPosteriorError(
            f"posterior weights w1~={w1t}, w2~={w2t} admit no interior maximum")
    beta = (scale_prior.d + stats.n * alpha) / (scale_prior.e + stats.sum_inv)
    posterior = LaplaceSummary(-w2t / w1t, w2t / (alpha * alpha))
    return FitReport(InvGammaParams(alpha, beta), it, conv, res, posterior)


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


# ------------------------------------------------------------ batched fitters

@dataclass(frozen=True)
class StatsBatch:
    """``SufficientStats`` of many samples as parallel float64 arrays."""

    n: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    sum_inv: np.ndarray
    sum_log: np.ndarray
    mean_log: np.ndarray

    @classmethod
    def pack(cls, stats) -> "StatsBatch":
        cols = np.array([(s.n, s.mean, s.var, s.sum_inv, s.sum_log, s.mean_log)
                         for s in stats], dtype=np.float64).reshape(-1, 6)
        return cls(*(np.ascontiguousarray(c) for c in cols.T))

    def __len__(self) -> int:
        return self.n.size

    def take(self, idx: np.ndarray) -> "StatsBatch":
        return StatsBatch(self.n[idx], self.mean[idx], self.var[idx],
                          self.sum_inv[idx], self.sum_log[idx],
                          self.mean_log[idx])


@dataclass(frozen=True)
class BatchFit:
    """Per-element results of ``fit_batch``.

    ``failed`` marks the elements whose scalar fit raises; their alpha,
    beta and residual are NaN, iterations 0 and converged False.
    """

    alpha: np.ndarray
    beta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residual: np.ndarray
    failed: np.ndarray


def _iterate(update, alpha0, conv: ConvergenceConfig):
    """The batched fixed-point loop: ``alpha <- update(idx, alpha)`` for
    the elements at positions ``idx`` that are still iterating, each
    stopping by the rule of ``_fixed_point``.  Returns (alpha, iterations,
    residual, converged).

    An element whose update is NaN stops there and its fit fails: the
    rules return NaN where the scalar step raises, and map NaN to NaN.
    """
    alpha = alpha0.copy()
    iterations = np.zeros(alpha.size, dtype=np.int64)
    residual = np.full(alpha.size, math.inf)
    converged = np.zeros(alpha.size, dtype=bool)
    live = np.arange(alpha.size)
    for it in range(1, conv.max_iter + 1):
        if not live.size:
            break
        a = alpha[live]
        nxt = update(live, a)
        res = np.abs(nxt - a) / a
        alpha[live] = nxt
        residual[live] = res
        iterations[live] = it
        done = res <= conv.rel_tol
        converged[live[done]] = True
        live = live[~(done | np.isnan(nxt))]
    return alpha, iterations, residual, converged


def _guarded_array(alpha, nxt):
    finite = np.isfinite(nxt)
    floor = np.where(finite & (nxt > 1e-8), nxt, 1e-8)
    return np.where(finite & (nxt > 0.0), nxt, np.sqrt(alpha * floor))


def _raises_where(zero_div, nxt):
    # The scalar step divides by zero where ``zero_div`` holds, as it does
    # for near-constant samples (alpha0 above about 1e16), and the scalar
    # fit raises DegenerateSampleError; NaN ends the element's iteration and
    # fails its fit.
    return np.where(zero_div, math.nan, nxt)


def _ml1_rule(n, c_const):
    def update(i, alpha):
        return _inv_digamma_array(_clog(n[i] * alpha) + c_const[i])
    return update


def _ml2_rule(n, c_const):
    def update(i, alpha):
        psi, psi1 = _psi_psi1_array(alpha)
        num = c_const[i] - psi + _clog(n[i] * alpha)
        den = alpha * alpha * (1.0 / alpha - psi1)
        inv = 1.0 / alpha + num / den
        nxt = _guarded_array(alpha, 1.0 / inv)
        return _raises_where((den == 0.0) | (inv == 0.0), nxt)
    return update


def _bl1_rule(n, log_a_hat, b_hat, c_hat, d, log_e_hat):
    def update(i, alpha):
        arg = (-log_a_hat[i] + c_hat[i] * (_clog(d + n[i] * alpha)
                                           - log_e_hat[i])) / b_hat[i]
        return _inv_digamma_array(arg)
    return update


def _bl2_rule(n, mean_log, log_sum_inv, w1, w2, w1t, w2t):
    # Leaves each element's last posterior weights in w1t and w2t.
    def update(i, alpha):
        psi, tg = _psi_psi1_array(alpha)
        ni = n[i]
        k2 = ni * (alpha * alpha * tg - alpha)
        k1 = ni * (-mean_log[i] - psi + _clog(ni * alpha)
                   - log_sum_inv[i] - alpha * tg + 1.0)
        w1t[i] = w1_i = w1 + k1
        w2t[i] = w2_i = w2 + k2
        nxt = _guarded_array(alpha, -w2_i / w1_i)
        return _raises_where(w1_i == 0.0, nxt)
    return update


def _fit_valid(name: str, b: StatsBatch, options: FitOptions):
    """``fit_batch`` on elements with n >= 2 and var > 0.  Returns (alpha,
    beta, iterations, residual, converged); alpha is NaN where the BL2
    posterior has no interior maximum."""
    alpha0 = b.mean * b.mean / b.var + 2.0
    if name == "MM":
        return (alpha0, b.mean * (alpha0 - 1.0), np.zeros(len(b), np.int64),
                np.zeros(len(b)), np.ones(len(b), dtype=bool))
    conv = options.conv
    sp, scp = options.shape_prior, options.scale_prior
    if name in ("ML1", "ML2"):
        c_const = -_clog(b.sum_inv) - b.mean_log
        rule = (_ml1_rule if name == "ML1" else _ml2_rule)(b.n, c_const)
        alpha, it, res, ok = _iterate(rule, alpha0, conv)
        return alpha, b.n * alpha / b.sum_inv, it, res, ok
    e_hat = scp.e + b.sum_inv
    if name == "BL1":
        rule = _bl1_rule(b.n, sp.log_a + b.sum_log, sp.b + b.n, sp.c + b.n,
                         scp.d, _clog(e_hat))
        alpha, it, res, ok = _iterate(rule, alpha0, conv)
        return alpha, (scp.d + b.n * alpha) / e_hat, it, res, ok
    if name == "BL2":
        pp = options.poly_prior
        w1t = np.full(len(b), pp.w1)
        w2t = np.full(len(b), pp.w2)
        rule = _bl2_rule(b.n, b.mean_log, _clog(b.sum_inv), pp.w1, pp.w2,
                         w1t, w2t)
        alpha, it, res, ok = _iterate(rule, alpha0, conv)
        alpha[ok & ((w1t >= 0.0) | (w2t <= 0.0))] = math.nan
        return alpha, (scp.d + b.n * alpha) / e_hat, it, res, ok
    raise ValueError(f"unknown estimator {name!r}")


def fit_batch(name: str, batch: StatsBatch,
              options: FitOptions = FitOptions()) -> BatchFit:
    """Run the estimator ``name`` (MM, ML1, ML2, BL1 or BL2) on every
    element of ``batch``.

    Each element gets the alpha, beta, iterations, convergence flag and
    residual of the scalar ``fit_*`` on its stats, bit for bit.  Where the
    scalar fit raises (n < 2, zero variance, a near-constant sample that
    makes the ML2/BL2 update divide by zero, a BL2 posterior with no
    interior maximum, or a non-finite or non-positive estimate) the element
    is marked failed instead.
    """
    size = len(batch)
    alpha = np.full(size, math.nan)
    beta = np.full(size, math.nan)
    iterations = np.zeros(size, dtype=np.int64)
    residual = np.full(size, math.nan)
    converged = np.zeros(size, dtype=bool)
    valid = np.flatnonzero((batch.n >= 2.0) & (batch.var > 0.0))
    # Python floats overflow to inf and turn inf - inf into NaN silently,
    # so these arrays do too; division by zero is handled by the rules.
    with np.errstate(all="ignore"):
        a, b, it, res, ok = _fit_valid(name, batch.take(valid), options)
    good = np.isfinite(a) & (a > 0.0) & np.isfinite(b) & (b > 0.0)
    keep = valid[good]
    alpha[keep], beta[keep] = a[good], b[good]
    iterations[keep], residual[keep] = it[good], res[good]
    converged[keep] = ok[good]
    failed = np.ones(size, dtype=bool)
    failed[keep] = False
    return BatchFit(alpha, beta, iterations, converged, residual, failed)
