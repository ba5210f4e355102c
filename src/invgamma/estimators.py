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
over specfun's kernel tables, float or array, and so is the fit around
it, ``_run``, which takes its loop: ``_fixed_point`` on floats for
``fit_*``, or ``_iterate`` on masked float64 arrays for ``fit_batch``
over a ``StatsBatch`` of many samples.  Floats divide by zero as arrays
do, so both give the same bits, and one ordered table, ``_REFUSALS``,
decides for both which samples are refused and why: ``_fit`` raises the
first refusal that holds, and ``fit_batch`` keeps its index as the
element's ``reason``.
"""

import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution import InvGammaParams
from .specfun import (_ARRAY_OPS, _FLOAT_OPS, _check_positive, _clog,
                      _psi_psi1, inv_digamma)


class InsufficientDataError(ValueError):
    """Fewer samples than the estimator needs (n < 2)."""


class DegenerateSampleError(ValueError):
    """The sample cannot be fitted: see ``_REFUSALS`` for each case."""


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
        if self.n < 2 and not math.isnan(self.var):
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
        _check_positive("scale prior d", self.d)
        _check_positive("scale prior e", self.e)


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
        if not math.isfinite(self.log_a):
            raise ValueError(f"shape prior log_a must be finite, "
                             f"got {self.log_a!r}")
        _check_positive("shape prior b", self.b)
        _check_positive("shape prior c", self.c)

    @classmethod
    def with_a(cls, a: float, b: float, c: float) -> "ShapePriorABC":
        return cls(math.log(_check_positive("shape prior a", a)), b, c)


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


def _row_stats(x: np.ndarray) -> tuple:
    """Mean, n-1 variance (NaN when n < 2), sum(1/x), sum(log x) and mean
    log of each row of a 2-d array, each row with the bits of one row
    alone: numpy's pairwise sums along the row and one BLAS dot per row
    (an ``einsum`` or a sum of squares rounds otherwise).  The logs are
    the C library's, so ``sum_log`` does not depend on the host's SIMD.
    Beside ``x`` it holds one temporary of ``x``'s size at a time.
    """
    n = x.shape[1]
    with np.errstate(over="ignore", divide="ignore"):
        mu = x.mean(axis=1)
        if n >= 2:
            dev = x - mu[:, None]
            var = np.fromiter(map(np.dot, dev, dev), np.float64,
                              len(dev)) / (n - 1)
            del dev
        else:
            var = np.full(len(x), math.nan)
        sum_inv = np.sum(1.0 / x, axis=1)
        sum_log = np.sum(_clog(x.ravel()).reshape(x.shape), axis=1)
    return mu, var, sum_inv, sum_log, sum_log / n


def compute_stats(x) -> SufficientStats:
    """Reduce a positive sample to its sufficient statistics (see
    ``_row_stats``).  Values near the limits of float64 can overflow a
    statistic to inf without a warning; the fitters then raise
    ``DegenerateSampleError``.
    """
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size < 1:
        raise InsufficientDataError("need at least one sample")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("samples must be finite and > 0")
    return SufficientStats(int(arr.size),
                           *(float(col[0]) for col in _row_stats(arr[None])))


def log_likelihood(stats: SufficientStats, p: InvGammaParams) -> float:
    """Sample log-likelihood evaluated from the sufficient statistics."""
    n = stats.n
    return (-n * (p.alpha + 1.0) * stats.mean_log - n * math.lgamma(p.alpha)
            + n * p.alpha * math.log(p.beta) - p.beta * stats.sum_inv)


def ml_beta_given_alpha(stats: SufficientStats, alpha: float) -> float:
    """Conditional likelihood maximizer beta = n*alpha / sum(1/x)."""
    return stats.n * _check_positive("alpha", alpha) / stats.sum_inv


def profile_log_likelihood(stats: SufficientStats, alpha: float) -> float:
    """Log-likelihood with beta profiled out at its conditional maximum."""
    alpha = _check_positive("alpha", alpha)
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
    alpha = _check_positive("alpha", alpha)
    k1, k2 = _surrogate_k(_FLOAT_OPS, alpha, stats.n, stats.mean_log,
                          math.log(stats.sum_inv))
    k0 = profile_log_likelihood(stats, alpha) - k1 * alpha - k2 * math.log(alpha)
    return QuadLogLikApprox(k0, k1, k2, alpha)


def _fixed_point(step, op, alpha: float, consts, conv: ConvergenceConfig):
    """The scalar fixed-point loop: ``alpha <- step(op, alpha, *consts)``
    until the relative change drops to ``conv.rel_tol``, ``conv.max_iter``
    steps have run, or a step leaves (0, inf), from where no update comes
    back.  Returns (alpha, prev, iterations, residual, converged), ``prev``
    being the last step's input.
    """
    for it in range(1, conv.max_iter + 1):
        nxt = step(op, alpha, *consts)
        res = abs(nxt - alpha) / alpha
        prev, alpha = alpha, nxt
        if res <= conv.rel_tol:
            return alpha, prev, it, res, True
        if not 0.0 < nxt < math.inf:
            break
    return alpha, prev, it, res, False


def _guarded(op, alpha, nxt):
    # An update that is not finite and > 0 falls back to the geometric
    # mean of the previous iterate and 1e-8.
    return op.where(op.isfinite(nxt) & (nxt > 0.0), nxt, op.sqrt(alpha * 1e-8))


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
    inv = 1.0 / alpha + op.div(num, den)
    # NaN where the update divides by zero, on floats as on arrays; it is
    # refused as a near-constant sample (``_REFUSALS``).  So in BL2.
    return op.where((den == 0.0) | (inv == 0.0), math.nan,
                    _guarded(op, alpha, op.div(1.0, inv)))


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
    return op.where(w1t == 0.0, math.nan,
                    _guarded(op, alpha, op.div(-w2t, w1t)))


def _bl2_posterior(op, alpha, prev, n, mean_log, log_sum_inv, w1, w2):
    # From the posterior weights w~ = w + k of the last step, from ``prev``.
    k1, k2 = _surrogate_k(op, prev, n, mean_log, log_sum_inv)
    w1t, w2t = w1 + k1, w2 + k2
    return (op.div(-w2t, w1t), op.div(w2t, alpha * alpha),
            (w1t >= 0.0) | (w2t <= 0.0))


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


_Run = namedtuple("_Run", "est start consts alpha prev iterations residual "
                          "converged summary beta")


def _run(op, drive, est: _Estimator, stats, options: FitOptions) -> _Run:
    """The fit of ``est`` on floats (``_FLOAT_OPS``, ``_fixed_point``) or
    arrays (``_ARRAY_OPS``, ``_iterate``): the moment start, constants,
    the fixed point's alpha, prev, iterations, residual and converged, the
    Laplace summary (mean, precision, no interior maximum) or None, and
    beta.  It refuses no sample of n >= 1: each division that can meet
    zero is ``op.div``, so a sample that cannot be fitted leaves NaN or
    inf, on floats as on arrays; ``_refusal`` reads which refusal holds."""
    start = op.div(stats.mean * stats.mean, stats.var) + 2.0
    consts, run, summary = (), (start, start, 0, 0.0, True), None
    if est.step is not None:
        consts = est.constants(op, stats, options)
        run = drive(est.step, op, start, consts, options.conv)
        if est.posterior is not None:
            summary = est.posterior(op, *run[:2], *consts)
    return _Run(est, start, consts, *run, summary,
                est.beta(stats, options, run[0]))


def _overflowing_sum(s: SufficientStats) -> str:
    """The sum of refusal 4 that is not finite: sum(1/x), sum(log x)
    (read as ``sum_log`` or ``mean_log``), else BL1's e + sum(1/x)."""
    if s.sum_inv == math.inf:
        return "sum(1/x)"
    if not (math.isfinite(s.sum_log) and math.isfinite(s.mean_log)):
        return "sum(log x)"
    return "e + sum(1/x)"


# Every refusal of a fit, in order: the exception, the condition under
# which it refuses, on floats or elementwise on arrays (``op``), and its
# message, both from the stats ``s`` and the ``_Run`` ``r``.
_REFUSALS = (
    (InsufficientDataError, lambda op, s, r: s.n < 2,
     lambda name, s, r: f"moment initialization needs n >= 2, got n={s.n}"),
    (DegenerateSampleError, lambda op, s, r: op.not_(s.var > 0.0),
     lambda name, s, r: "sample variance is zero or undefined"),
    (DegenerateSampleError, lambda op, s, r: op.not_(op.isfinite(r.start)),
     lambda name, s, r: f"moment estimate of alpha is {r.start}: the "
                        "sample's moments overflow float64"),
    # Only the log of sum(1/x), of BL1's e + sum(1/x), or sum(log x) (a
    # hand-built one: no sample of finite values overflows it) can leave a
    # constant non-finite; c - c is 0 for a finite constant c, and NaN for
    # any other.
    (DegenerateSampleError, lambda op, s, r: sum(c - c for c in r.consts) != 0,
     lambda name, s, r: f"{_overflowing_sum(s)} overflows float64, so the "
                        f"{name} update is undefined"),
    # ML2's and BL2's divisions by zero give a NaN step; a NaN from ML1's
    # or BL1's inverse digamma fails as an estimate.
    (DegenerateSampleError, lambda op, s, r: (r.alpha != r.alpha)
                            & (r.est.step in (_ml2_step, _bl2_step)),
     lambda name, s, r: f"update divides by zero at alpha={r.prev:g}; "
                        "the sample is too close to constant"),
    (InvalidPosteriorError, lambda op, s, r: r.summary is not None
                            and r.converged & r.summary[2],
     lambda name, s, r: "posterior has no interior maximum (Laplace mean "
                        f"{r.summary[0]!r}, precision {r.summary[1]!r})"),
    # What ``InvGammaParams`` requires of an estimate.
    (DegenerateSampleError, lambda op, s, r: op.not_(
        op.isfinite(r.alpha) & (r.alpha > 0.0) & op.isfinite(r.beta)
        & (r.beta > 0.0)),
     lambda name, s, r: f"{name} estimate alpha={r.alpha!r}, "
                        f"beta={r.beta!r} is not finite and > 0"),
)


def _refusal(op, stats, run: _Run):
    """The 1-based index of the first of ``_REFUSALS`` that holds, or 0:
    an int on floats, an int array on arrays."""
    reason = 0
    for k in range(len(_REFUSALS), 0, -1):
        reason = op.where(_REFUSALS[k - 1][1](op, stats, run), k, reason)
    return reason


def _fit(name: str, stats: SufficientStats,
         options: FitOptions = FitOptions()) -> FitReport:
    """The scalar driver: the estimator ``name`` on one sample's stats.
    It raises the sample's ``_refusal``, with that index as ``reason``;
    n < 2 skips the run (n = 0 would take log 0) and raises entry 1."""
    run = None if stats.n < 2 else _run(_FLOAT_OPS, _fixed_point,
                                        _ESTIMATORS[name], stats, options)
    reason = 1 if run is None else _refusal(_FLOAT_OPS, stats, run)
    if reason:
        cls, _, message = _REFUSALS[reason - 1]
        exc = cls(message(name, stats, run))
        exc.reason = reason
        raise exc
    return FitReport(InvGammaParams(run.alpha, run.beta), run.iterations,
                     run.converged, run.residual, None if run.summary is None
                     else LaplaceSummary(*run.summary[:2]))


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
    d_hat = prior.d + stats.n * _check_positive("alpha", alpha)
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


def _bl1_terms(stats, shape_prior, scale_prior, beta_hat):
    """log a_hat, b_hat, c_hat and log beta_hat of BL1's shape posterior."""
    _, log_a_hat, b_hat, c_hat, _, _ = _bl1_constants(
        _FLOAT_OPS, stats, FitOptions(shape_prior, scale_prior))
    if beta_hat is None:
        beta_hat = (scale_prior.d / scale_prior.e if stats.n == 0 else
                    fit_bl1(stats, shape_prior, scale_prior).params.beta)
    return (log_a_hat, b_hat, c_hat,
            math.log(_check_positive("beta_hat", beta_hat)))


def bl1_log_posterior_curve(stats: SufficientStats,
                            shape_prior: ShapePriorABC,
                            scale_prior: ScaleGammaPrior,
                            alphas,
                            beta_hat: float | None = None) -> np.ndarray:
    """Unnormalized log posterior of the shape over a grid:
    (-alpha-1) log(a_hat) + alpha c_hat log(beta_hat) - b_hat lnGamma(alpha).

    With ``stats = SufficientStats.empty()`` it is the log prior.
    ``beta_hat`` defaults to d/e with no data, else BL1's fitted scale.
    A grid or a ``beta_hat`` that is not finite and > 0, or a grid on
    which the curve overflows float64, raises ``ValueError``.
    """
    grid = np.asarray(alphas, dtype=np.float64)
    if not np.all(np.isfinite(grid)) or np.any(grid <= 0.0):
        raise ValueError("alpha grid must be finite and > 0")
    log_a_hat, b_hat, c_hat, log_beta = _bl1_terms(stats, shape_prior,
                                                   scale_prior, beta_hat)
    try:
        lgamma = _ARRAY_OPS.lgamma(grid)
    except OverflowError:  # above about 2.6e305
        lgamma = np.full_like(grid, math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        curve = ((-grid - 1.0) * log_a_hat + grid * c_hat * log_beta
                 - b_hat * lgamma)
    if not np.isfinite(curve).all():
        raise ValueError("log posterior overflows float64 on this alpha grid")
    return curve


def _bl1_mode(stats, shape_prior, scale_prior, beta_hat):
    """invdigamma((-log a_hat + c_hat log beta_hat) / b_hat), the maximizer
    over alpha of ``bl1_log_posterior_curve`` at the same arguments."""
    log_a_hat, b_hat, c_hat, log_beta = _bl1_terms(stats, shape_prior,
                                                   scale_prior, beta_hat)
    return inv_digamma((-log_a_hat + c_hat * log_beta) / b_hat)


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


@dataclass(frozen=True)
class BatchFit:
    """Per-element results of ``fit_batch``.

    ``reason`` (int8) is the ``_REFUSALS`` index that the element's scalar
    fit raises with as its ``reason``, 0 where that fit returns; where it
    is not 0 (``failed``), alpha, beta and residual are NaN, iterations 0
    and converged False.
    """

    alpha: np.ndarray
    beta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residual: np.ndarray
    reason: np.ndarray

    @property
    def failed(self) -> np.ndarray:
        return self.reason != 0


# Live rows at or below which ``_iterate`` finishes each row on floats:
# a numpy step costs about 115-170 us at any small size, a float step
# about 5-10 us per row.
_SCALAR_ROWS = 16


def _iterate(step, op, alpha0, consts, conv: ConvergenceConfig):
    """The batched fixed-point loop: ``alpha <- step(op, alpha, *consts)``
    for each element still iterating, with its own entries of the array
    constants, stopping by the rule of ``_fixed_point`` and returning the
    same tuple, per element.  Once ``_SCALAR_ROWS`` or fewer elements are
    live, each finishes its own run in ``_fixed_point`` on floats, which
    gives the same bits.
    """
    alpha, prev = alpha0.copy(), alpha0.copy()
    iterations = np.zeros(alpha.size, dtype=np.int64)
    residual = np.full(alpha.size, math.inf)
    converged = np.zeros(alpha.size, dtype=bool)
    live = np.arange(alpha.size)
    it = 0
    while live.size > _SCALAR_ROWS and it < conv.max_iter:
        it += 1
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
        live = live[~done & (nxt > 0.0) & (nxt < math.inf)]
    if live.size and it < conv.max_iter:
        rest = ConvergenceConfig(conv.rel_tol, conv.max_iter - it)
        rows = zip(*(c[live].tolist() if isinstance(c, np.ndarray)
                     else [c] * live.size for c in consts))
        for i, a, row in zip(live, alpha[live].tolist(), rows):
            alpha[i], prev[i], k, residual[i], converged[i] = _fixed_point(
                step, _FLOAT_OPS, a, row, rest)
            iterations[i] = it + k
    return alpha, prev, iterations, residual, converged


def fit_batch(name: str, batch: StatsBatch,
              options: FitOptions = FitOptions()) -> BatchFit:
    """Run the estimator ``name`` (one of ``ESTIMATORS``) on every element
    of ``batch``.

    Each element gets the alpha, beta, iterations, convergence flag and
    residual of the scalar ``fit_*`` on its stats, bit for bit, or the
    ``reason`` that fit raises with, from the same ``_refusal``.
    """
    # Python floats overflow to inf and turn inf - inf into NaN silently,
    # so these arrays do too.
    with np.errstate(all="ignore"):
        run = _run(_ARRAY_OPS, _iterate, _spec(name), batch, options)
        reason = _refusal(_ARRAY_OPS, batch, run).astype(np.int8)
    ok = reason == 0
    return BatchFit(np.where(ok, run.alpha, math.nan),
                    np.where(ok, run.beta, math.nan),
                    np.where(ok, run.iterations, 0), ok & run.converged,
                    np.where(ok, run.residual, math.nan), reason)
