"""The Inverse Gamma distribution.

Density, moments, exact sampling, the expectation identities
E[log x] = log(beta) - digamma(alpha) and E[1/x] = alpha/beta, and the
closed-form KL divergence between two Inverse Gamma distributions.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import _ARRAY_OPS, _FLOAT_OPS, _clog, _psi_psi1, digamma


class UndefinedMomentError(ValueError):
    """Requested moment does not exist for the given shape parameter."""


@dataclass(frozen=True)
class InvGammaParams:
    """Shape ``alpha`` and scale ``beta``; both finite and positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))


def log_pdf(p: InvGammaParams, x):
    """Log density at ``x`` (scalar or array of positive reals)."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("log_pdf requires finite x > 0")
    log_x = _clog(arr.ravel()).reshape(arr.shape)
    out = (p.alpha * math.log(p.beta) - math.lgamma(p.alpha)
           - (p.alpha + 1.0) * log_x - p.beta / arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def mean(p: InvGammaParams) -> float:
    """beta / (alpha - 1); requires alpha > 1."""
    if p.alpha <= 1.0:
        raise UndefinedMomentError(f"mean undefined for alpha={p.alpha} <= 1")
    return p.beta / (p.alpha - 1.0)


def variance(p: InvGammaParams) -> float:
    """beta^2 / ((alpha-1)^2 (alpha-2)); requires alpha > 2."""
    if p.alpha <= 2.0:
        raise UndefinedMomentError(f"variance undefined for alpha={p.alpha} <= 2")
    am1 = p.alpha - 1.0
    return p.beta * p.beta / (am1 * am1 * (p.alpha - 2.0))


def moments(p: InvGammaParams) -> tuple[float, float]:
    """(mean, variance); raises UndefinedMomentError naming the first
    moment that does not exist."""
    return mean(p), variance(p)


# Pairs per acceptance block: bounds the mask temporaries, so a 1e6-draw
# call peaks near the size of its two input arrays.
_BLOCK = 65536


def _gamma_mt_accept(z, u, d, c):
    """Marsaglia-Tsang (2000) draws from one block of (normal, uniform)
    pairs, in pair order: the v > 0 mask, then the squeeze test, then the
    log test log u < z²/2 + d(1 - v + log v) for the live pairs the
    squeeze rejects, with the C library's log, as the scalar loop decides
    it.  So the stream is the same on every host.  A uniform of exactly 0
    is accepted, as log 0 = -inf."""
    v = 1.0 + c * z
    live = v > 0.0
    v = v * v * v
    z2 = z * z
    # The squeeze never accepts a dead pair: v <= 0 needs z <= -1/c,
    # and -1/c <= -sqrt(6) (d >= 2/3) makes 1 - 0.0331 z⁴ negative.
    accept = u < 1.0 - 0.0331 * z2 * z2
    rest = (live > accept).nonzero()[0]
    if rest.size:
        vr = v[rest]
        with np.errstate(divide="ignore"):
            accept[rest] = (_clog(u[rest])
                            < 0.5 * z2[rest] + d * (1.0 - vr + _clog(vr)))
    return d * v[accept]


def _standard_gamma(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n unit-rate Gamma(alpha) draws; shape < 1 via the power boost.

    Each round draws ``m`` normals, then ``m`` uniforms, and keeps the
    first accepted values it still needs; leftover pairs are discarded.
    """
    base = alpha if alpha >= 1.0 else alpha + 1.0
    d = base - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        want = n - filled
        m = want + (want >> 4) + 16
        normals = rng.standard_normal(m)
        uniforms = rng.random(m)
        for lo in range(0, m, _BLOCK):
            got = _gamma_mt_accept(normals[lo:lo + _BLOCK],
                                   uniforms[lo:lo + _BLOCK], d, c)
            take = min(got.size, n - filled)
            out[filled:filled + take] = got[:take]
            filled += take
            if filled == n:
                break
    if alpha < 1.0 and n > 0:
        out *= rng.random(n) ** (1.0 / alpha)
    return out


def sample(p: InvGammaParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws, computed as beta over unit-rate Gamma(alpha)
    variates; deterministic for a given generator state.  Draws beyond
    float64's range are not refused: a Gamma variate that underflows to 0
    (small alpha) gives inf, with numpy's divide warning, and beta over a
    huge variate can round to 0."""
    n = int(n)
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    return p.beta / _standard_gamma(p.alpha, n, rng)


def expect_log_x(p: InvGammaParams) -> float:
    """E[log x] = log(beta) - digamma(alpha)."""
    return math.log(p.beta) - digamma(p.alpha)


def expect_inv_x(p: InvGammaParams) -> float:
    """E[1/x] = alpha / beta."""
    return p.alpha / p.beta


def expect_log_pdf(p: InvGammaParams) -> float:
    """E[log p(x)] = (1+alpha) digamma(alpha) - alpha - log(beta Gamma(alpha))."""
    return ((1.0 + p.alpha) * digamma(p.alpha) - p.alpha
            - math.log(p.beta) - math.lgamma(p.alpha))


def kl_divergence(p, q):
    """KL(p || q) between two Inverse Gamma distributions, in closed form.

    ``p`` and ``q`` are ``InvGammaParams``, scored as floats, or both hold
    float64 arrays in ``alpha`` and ``beta`` (a ``BatchFit``, say), scored
    per element with the same bits; a NaN estimate scores NaN.  Evaluated
    in log space, so large scales do not overflow; ``math.lgamma`` raises
    ``OverflowError`` for a shape above about 2.6e305.  Exact zero for
    p == q.  The sum cancels terms as large as about alpha log alpha, so
    rounding slack down to -1e-12 max(1, |largest term|) is clamped to
    zero; anything more negative is a bug and raises.
    """
    op = _ARRAY_OPS if isinstance(p.alpha, np.ndarray) else _FLOAT_OPS
    a, b = p.alpha, p.beta
    ah, bh = q.alpha, q.beta
    terms = ((a - ah) * _psi_psi1(op, a)[0], ah * (op.log(b) - op.log(bh)),
             op.lgamma(ah), op.lgamma(a), a * (bh / b), a)
    t1, t2, t3, t4, t5, t6 = terms
    val = t1 + t2 + t3 - t4 + t5 - t6
    slack = functools.reduce(np.fmax, map(abs, terms), 1.0)
    if op.any(val < -1e-12 * slack):
        raise ArithmeticError(
            f"KL divergence evaluated to {np.nanmin(val)}, below rounding slack")
    return op.where(val < 0.0, 0.0, val)
