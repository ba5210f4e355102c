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

Every estimator consumes a sample only through ``SufficientStats``, and
is one entry of the name table ``_ESTIMATORS``: its constants, a one-step
update of alpha, its scale estimate and, for BL1 and BL2, its Laplace
summary.  Each update is written once, as ``step(op, alpha, *constants)``
over specfun's kernel tables, float or array, and run by two drivers
that stop when the relative change of alpha drops to ``rel_tol`` or a
step is not finite: ``_fixed_point`` on floats for ``fit_*``, and
``_iterate`` on masked float64 arrays for ``fit_batch`` over a
``StatsBatch`` of many samples.  Both give the same bits, so each element
of a batch gets the result of the scalar fit, or is marked failed where
that fit raises.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution import InvGammaParams
from .specfun import _ARRAY_OPS, _FLOAT_OPS, _clog, _psi_psi1


class InsufficientDataError(ValueError):
    """Fewer samples than the estimator needs (n < 2)."""


class DegenerateSampleError(ValueError):
    """The moment initialization is undefined (zero variance) or infinite
    (the moments overflow float64); sum(1/x) overflows, which leaves the
    ML1/BL1 update undefined; the ML2/BL2 update divides by zero on a
    near-constant sample; or the estimate is not finite and > 0."""


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
        if self.n < 2 and not math.isnan(self.var):  # fit_batch relies on it
            raise ValueError(f"var must be NaN when n < 2, got {self.var!r}")

    @classmethod
    def empty(cls) -> "SufficientStats":
        return cls(0, math.nan, math.nan, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ScaleGammaPrior:
    """Gamma prior on the scale: shape ``d``, rate ``e``."""

    d: float = 0.01
    e: float = 0.01

    def __post_init__(self):
        if not (0.0 < self.d < math.inf and 0.0 < self.e < math.inf):
            raise ValueError("scale prior requires finite d > 0 and e > 0")


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
        if not (math.isfinite(self.log_a) and 0.0 < self.b < math.inf
                and 0.0 < self.c < math.inf):
            raise ValueError("shape prior requires finite log_a, b > 0, c > 0")

    @classmethod
    def with_a(cls, a: float, b: float, c: float) -> "ShapePriorABC":
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"shape prior requires finite a > 0, got a={a!r}")
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

    Variance is the two-pass n-1 estimator; NaN when n < 2.  The logs are
    the C library's, so ``sum_log`` does not depend on the host's SIMD.
    Values near the limits of float64 can overflow a statistic to inf
    without a warning; the fitters then raise ``DegenerateSampleError``.
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
        sum_log = float(np.sum(_clog(arr)))
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


def _surrogate_k(op, alpha, n, mean_log, log_sum_inv):
    # k1 and k2 of the k0 + k1*a + k2*log(a) surrogate at ``alpha``.
    psi, psi1 = _psi_psi1(op, alpha)
    k1 = n * (-mean_log - psi + op.log(n * alpha) - log_sum_inv
              - alpha * psi1 + 1.0)
    k2 = n * (alpha * alpha * psi1 - alpha)
    return k1, k2


def quad_approx_coeffs(stats: SufficientStats, alpha: float) -> QuadLogLikApprox:
    """Match value and two derivatives of the profile log-likelihood with
    k0 + k1*alpha + k2*log(alpha) at the expansion point."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    k1, k2 = _surrogate_k(_FLOAT_OPS, alpha, stats.n, stats.mean_log,
                          math.log(stats.sum_inv))
    k0 = profile_log_likelihood(stats, alpha) - k1 * alpha - k2 * math.log(alpha)
    return QuadLogLikApprox(k0, k1, k2, alpha)


def _fixed_point(step, op, alpha: float, consts, conv: ConvergenceConfig):
    """The scalar fixed-point loop: ``alpha <- step(op, alpha, *consts)``
    until the relative change drops to ``conv.rel_tol``, ``conv.max_iter``
    steps have run, or a step is not finite.  Returns (alpha, prev,
    iterations, residual, converged), ``prev`` being the last step's input.

    No update rule comes back from NaN or inf, so such a step ends the
    loop and the fit fails when its estimate is checked.  A division by
    zero in a step, as in the ML2/BL2 update on near-constant samples,
    raises ``DegenerateSampleError``.
    """
    for it in range(1, conv.max_iter + 1):
        try:
            nxt = step(op, alpha, *consts)
        except ZeroDivisionError:
            raise DegenerateSampleError(
                f"update divides by zero at alpha={alpha:g}; "
                "the sample is too close to constant") from None
        res = abs(nxt - alpha) / alpha
        prev, alpha = alpha, nxt
        if res <= conv.rel_tol:
            return alpha, prev, it, res, True
        if not math.isfinite(nxt):
            break
    return alpha, prev, it, res, False


def _valid_estimate(op, alpha, beta):
    # What ``InvGammaParams`` requires of an estimate.
    return op.isfinite(alpha) & (alpha > 0.0) & op.isfinite(beta) & (beta > 0.0)


def _guarded(op, alpha, nxt):
    # Updates below zero (or non-finite) fall back to the geometric mean
    # of the previous iterate and the update floored at 1e-8.
    finite = op.isfinite(nxt)
    floor = op.where(finite & (nxt > 1e-8), nxt, 1e-8)
    return op.where(finite & (nxt > 0.0), nxt, op.sqrt(alpha * floor))


# The parts of each estimator, over ``SufficientStats`` or ``StatsBatch``
# (they share field names) and specfun's kernel tables.

def _mm_beta(s, o, alpha):
    return s.mean * (alpha - 1.0)


def _ml_beta(s, o, alpha):
    return s.n * alpha / s.sum_inv


def _posterior_mean_beta(s, o, alpha):
    return (o.scale_prior.d + s.n * alpha) / (o.scale_prior.e + s.sum_inv)


def _ml_constants(op, s, o):
    return s.n, -op.log(s.sum_inv) - s.mean_log


def _ml1_step(op, alpha, n, c_const):
    return op.inv_digamma(op.log(n * alpha) + c_const)


def _ml2_step(op, alpha, n, c_const):
    psi, psi1 = _psi_psi1(op, alpha)
    num = c_const - psi + op.log(n * alpha)
    den = alpha * alpha * (1.0 / alpha - psi1)
    inv = 1.0 / alpha + num / den
    # NaN where the update divides by zero.  The scalar step has raised
    # ZeroDivisionError there, so its ``where`` sees only False; so in BL2.
    return op.where((den == 0.0) | (inv == 0.0), math.nan,
                    _guarded(op, alpha, 1.0 / inv))


def _bl1_constants(op, s, o):
    sp, scp = o.shape_prior, o.scale_prior
    return (s.n, sp.log_a + s.sum_log, sp.b + s.n, sp.c + s.n, scp.d,
            op.log(scp.e + s.sum_inv))


def _bl1_step(op, alpha, n, log_a_hat, b_hat, c_hat, d, log_e_hat):
    return op.inv_digamma(
        (-log_a_hat + c_hat * (op.log(d + n * alpha) - log_e_hat)) / b_hat)


def _bl1_posterior(op, alpha, prev, n, log_a_hat, b_hat, *rest):
    return alpha, b_hat * _psi_psi1(op, alpha)[1], False


def _bl2_constants(op, s, o):
    return (s.n, s.mean_log, op.log(s.sum_inv), o.poly_prior.w1,
            o.poly_prior.w2)


def _bl2_step(op, alpha, n, mean_log, log_sum_inv, w1, w2):
    k1, k2 = _surrogate_k(op, alpha, n, mean_log, log_sum_inv)
    w1t, w2t = w1 + k1, w2 + k2
    return op.where(w1t == 0.0, math.nan, _guarded(op, alpha, -w2t / w1t))


def _bl2_posterior(op, alpha, prev, n, mean_log, log_sum_inv, w1, w2):
    # From the posterior weights w~ = w + k of the last step, from ``prev``.
    k1, k2 = _surrogate_k(op, prev, n, mean_log, log_sum_inv)
    w1t, w2t = w1 + k1, w2 + k2
    return -w2t / w1t, op.div(w2t, alpha * alpha), (w1t >= 0.0) | (w2t <= 0.0)


class _Estimator(NamedTuple):
    takes: tuple[str, ...]  # the FitOptions fields its fit_* takes, in order
    beta: Callable  # (stats, options, alpha) -> scale estimate
    constants: Callable | None = None  # (op, stats, options) -> constants
    step: Callable | None = None  # (op, alpha, *constants) -> next alpha
    # (op, alpha, prev, *constants) -> Laplace mean, precision, and whether
    # the posterior has no interior maximum (a failure once converged).
    posterior: Callable | None = None


_ESTIMATORS = {
    "MM": _Estimator((), _mm_beta),
    "ML1": _Estimator(("conv",), _ml_beta, _ml_constants, _ml1_step),
    "ML2": _Estimator(("conv",), _ml_beta, _ml_constants, _ml2_step),
    "BL1": _Estimator(("shape_prior", "scale_prior", "conv"),
                      _posterior_mean_beta, _bl1_constants, _bl1_step,
                      posterior=_bl1_posterior),
    "BL2": _Estimator(("poly_prior", "scale_prior", "conv"),
                      _posterior_mean_beta, _bl2_constants, _bl2_step,
                      _bl2_posterior),
}
ESTIMATORS = tuple(_ESTIMATORS)


def _spec(name: str) -> _Estimator:
    try:
        return _ESTIMATORS[name]
    except KeyError:
        raise ValueError(f"unknown estimator {name!r}") from None


def _fit(name: str, stats: SufficientStats,
         options: FitOptions = FitOptions()) -> FitReport:
    """The scalar driver: the estimator ``name`` on one sample's stats."""
    est = _ESTIMATORS[name]
    alpha = _mm_alpha(stats)
    it, res, conv, posterior = 0, 0.0, True, None
    op = _FLOAT_OPS
    if est.step is not None:
        consts = est.constants(op, stats, options)
        # Only the log of sum(1/x), or of BL1's e + sum(1/x), can overflow.
        if not all(map(math.isfinite, consts)):
            stat = "sum(1/x)" if stats.sum_inv == math.inf else "e + sum(1/x)"
            raise DegenerateSampleError(
                f"{stat} overflows float64, so the {name} update is undefined")
        alpha, prev, it, res, conv = _fixed_point(est.step, op, alpha, consts,
                                                  options.conv)
        if est.posterior is not None:
            mean, precision, invalid = est.posterior(op, alpha, prev, *consts)
            if conv and invalid:
                raise InvalidPosteriorError(
                    "posterior has no interior maximum (Laplace mean "
                    f"{mean!r}, precision {precision!r})")
            posterior = LaplaceSummary(mean, precision)
    beta = est.beta(stats, options, alpha)
    if not _valid_estimate(op, alpha, beta):
        raise DegenerateSampleError(f"{name} estimate alpha={alpha!r}, "
                                    f"beta={beta!r} is not finite and > 0")
    return FitReport(InvGammaParams(alpha, beta), it, conv, res, posterior)


def fit_mm(stats: SufficientStats) -> FitReport:
    """Closed-form moment estimate; alpha_hat is always > 2."""
    return _fit("MM", stats)


def fit_ml1(stats: SufficientStats,
            cfg: ConvergenceConfig = ConvergenceConfig()) -> FitReport:
    """Tangent-bound fixed point; each step cannot decrease the profile
    log-likelihood."""
    return _fit("ML1", stats, FitOptions(conv=cfg))


def fit_ml2(stats: SufficientStats,
            cfg: ConvergenceConfig = ConvergenceConfig()) -> FitReport:
    """Surrogate-based update on 1/alpha; same fixed point as ML1 but
    typically converges in a few iterations."""
    return _fit("ML2", stats, FitOptions(conv=cfg))


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
    return _fit("BL1", stats, FitOptions(shape_prior, scale_prior, conv=cfg))


def fit_bl2(stats: SufficientStats,
            poly_prior: PolyShapePrior = PolyShapePrior(),
            scale_prior: ScaleGammaPrior = ScaleGammaPrior(),
            cfg: ConvergenceConfig = ConvergenceConfig()) -> FitReport:
    """Surrogate-likelihood conjugate update w~ = w + k, alpha <- -w~2/w~1.

    With the flat prior (w1 = w2 = 0) the update is ML2's algebraically,
    but it rounds differently: -k2/k1 and ML2's 1/(1/alpha + num/den)
    drift apart once alpha is about 1e16 or more.  On near-constant
    samples ML2 then raises ``DegenerateSampleError`` while BL2 runs to
    ``max_iter`` unconverged (``converged`` is False; ``invgamma fit
    --strict`` exits 4).
    """
    return _fit("BL2", stats, FitOptions(scale_prior=scale_prior,
                                         poly_prior=poly_prior, conv=cfg))


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
    _, log_a_hat, b_hat, c_hat, _, _ = _bl1_constants(
        _FLOAT_OPS, stats, FitOptions(shape_prior, scale_prior))
    if beta_hat is None:
        if stats.n == 0:
            beta_hat = scale_prior.d / scale_prior.e
        else:
            beta_hat = fit_bl1(stats, shape_prior, scale_prior).params.beta
    return ((-grid - 1.0) * log_a_hat
            + grid * c_hat * math.log(beta_hat)
            - b_hat * _ARRAY_OPS.lgamma(grid))


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


def _iterate(step, op, alpha0, consts, conv: ConvergenceConfig):
    """The batched fixed-point loop: ``alpha <- step(op, alpha, *consts)``
    for each element still iterating, with its own entries of the array
    constants, stopping by the rule of ``_fixed_point`` and returning the
    same tuple, per element.  A step is NaN where the scalar step raises,
    and an element stops at a non-finite step, so its fit fails.
    """
    alpha = alpha0.copy()
    prev = alpha0.copy()
    iterations = np.zeros(alpha.size, dtype=np.int64)
    residual = np.full(alpha.size, math.inf)
    converged = np.zeros(alpha.size, dtype=bool)
    live = np.arange(alpha.size)
    for it in range(1, conv.max_iter + 1):
        if not live.size:
            break
        a = alpha[live]
        nxt = step(op, a, *(c[live] if isinstance(c, np.ndarray) else c
                            for c in consts))
        res = np.abs(nxt - a) / a
        prev[live] = a
        alpha[live] = nxt
        residual[live] = res
        iterations[live] = it
        done = res <= conv.rel_tol
        converged[live[done]] = True
        live = live[~done & np.isfinite(nxt)]
    return alpha, prev, iterations, residual, converged


def fit_batch(name: str, batch: StatsBatch,
              options: FitOptions = FitOptions()) -> BatchFit:
    """Run the estimator ``name`` (one of ``ESTIMATORS``) on every element
    of ``batch``.

    Each element gets the alpha, beta, iterations, convergence flag and
    residual of the scalar ``fit_*`` on its stats, bit for bit.  An element
    fails where its estimate is not valid (not finite and > 0), which is
    where the scalar fit raises: n < 2 (the start is NaN), zero variance
    (the start is +inf), a near-constant sample that makes the ML2/BL2
    update divide by zero, a BL2 posterior with no interior maximum, or a
    non-finite or non-positive estimate.
    """
    est = _spec(name)
    op = _ARRAY_OPS
    # Python floats overflow to inf and turn inf - inf into NaN silently,
    # so these arrays do too; the steps handle division by zero.  No step
    # comes back from a non-finite start, and ``_iterate`` stops there.
    with np.errstate(all="ignore"):
        a = batch.mean * batch.mean / batch.var + 2.0
        it, res = np.zeros(len(batch), np.int64), np.zeros(len(batch))
        ok = np.ones(len(batch), dtype=bool)
        if est.step is not None:
            consts = est.constants(op, batch, options)
            a, prev, it, res, ok = _iterate(est.step, op, a, consts,
                                            options.conv)
            if est.posterior is not None:
                a[ok & est.posterior(op, a, prev, *consts)[2]] = math.nan
        bt = est.beta(batch, options, a)
        good = _valid_estimate(op, a, bt)
    return BatchFit(np.where(good, a, math.nan), np.where(good, bt, math.nan),
                    np.where(good, it, 0), good & ok,
                    np.where(good, res, math.nan), ~good)
