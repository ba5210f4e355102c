"""The Inverse Gamma distribution.

Density, moments, exact sampling, the expectation identities
E[log x] = log(beta) - digamma(alpha) and E[1/x] = alpha/beta, and the
closed-form KL divergence between two Inverse Gamma distributions.
"""

# Annotations stay text, so that importing this module does not load
# numpy.random: only a draw needs it.
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .specfun import (_ARRAY_OPS, _FLOAT_OPS, _check_positive, _clog,
                      _psi_psi1, digamma)


class UndefinedMomentError(ValueError):
    """Requested moment does not exist for the given shape parameter."""


@dataclass(frozen=True)
class InvGammaParams:
    """Shape ``alpha`` and scale ``beta``: real numbers but ``bool`` (numpy
    scalars too), finite and positive, stored as ``float``."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a real number, got "
                                 f"{type(v).__name__}")
            try:
                x = float(v)
            except OverflowError:  # an int or Fraction beyond float64
                x = math.inf
            object.__setattr__(self, name, _check_positive(name, x))


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


# Pairs per acceptance block: a long row runs in blocks, and short rows
# share one (see ``_rows_per_block``).  A long row draws its uniforms and
# runs its tests one block at a time, so a call holds its row buffer and
# about four 64 KiB blocks (see ``sample``).  Those blocks stay in the
# allocator's heap: with 16384 pairs and more (128 KiB and up), blocks of
# 3 to 24 rows at N = 2500 and 5000 drew slower than one row at a time,
# as glibc returned their pages to the system and faulted them in again.
_BLOCK = 8192


def _round_pairs(want: int) -> int:
    """Pairs a round draws when ``want`` values are still missing.  It
    grows by at least 1 per value, so a buffer of ``_round_pairs(n)``
    holds ``filled`` values and the next round's pairs, for any
    ``filled`` <= n."""
    return want + (want >> 4) + 16


def _rows_per_block(n: int) -> int:
    """Rows of ``n`` draws whose first rounds fit in one block (at least 1)."""
    return max(1, _BLOCK // _round_pairs(n))


def _shape_constants(alpha: float) -> tuple[float, float]:
    """Marsaglia-Tsang's d and c; shape < 1 is drawn at shape + 1."""
    d = (alpha if alpha >= 1.0 else alpha + 1.0) - 1.0 / 3.0
    return d, 1.0 / math.sqrt(9.0 * d)


def _gamma_mt_accept(z, u, d, c):
    """Marsaglia-Tsang (2000) draws from one block of (normal, uniform)
    pairs: the v > 0 mask, then the squeeze test, then the log test
    log u < z²/2 + d(1 - v + log v) for the live pairs the squeeze rejects,
    with the C library's log, as the scalar loop decides it.  So the stream
    is the same on every host.  A uniform of exactly 0 is accepted, as
    log 0 = -inf.

    ``z`` and ``u`` are one row with float ``d`` and ``c``, or rows with
    ``d`` and ``c`` as (rows, 1) columns.  Returns the accepted draws d v³,
    row after row in pair order, and the accept mask.

    Beside its inputs it holds at most two float arrays of the block's
    size at a time: each product that keeps its rounding in place is
    formed in place."""
    z2 = z * z
    t = 0.0331 * z2
    t *= z2
    # The squeeze never accepts a dead pair: v <= 0 needs z <= -1/c,
    # and -1/c <= -sqrt(6) (d >= 2/3) makes 1 - 0.0331 z⁴ negative.
    accept = u < np.subtract(1.0, t, out=t)
    del t
    v = c * z
    v += 1.0
    rest = ((v > 0.0) > accept).ravel().nonzero()[0]
    z2 = z2.ravel()[rest]  # only the log test's pairs
    t = v * v
    t *= v
    v = t
    if rest.size:
        vr = v.ravel()[rest]
        dr = d if z.ndim == 1 else d[rest // z.shape[1], 0]
        with np.errstate(divide="ignore"):
            accept.ravel()[rest] = (
                _clog(u.ravel()[rest])
                < 0.5 * z2 + dr * (1.0 - vr + _clog(vr)))
    v *= d
    return v[accept], accept


def _fill_row(n: int, head, d: float, c: float,
              rng: np.random.Generator) -> np.ndarray:
    """A row of n unit-rate Gamma draws that starts with the accepted
    values ``head``: the first n values of a buffer of ``_round_pairs(n)``,
    filled round by round.  Each round draws its m normals into the
    buffer's free tail, then its m uniforms ``_BLOCK`` at a time, tests
    each block and keeps the first accepted values it still needs.  They
    are written behind the block under test, which a block's accepted
    values (at most one per pair) never reach past.  Once the row is full,
    the round's remaining uniforms are drawn and dropped, so the generator
    ends where one ``random(m)`` leaves it."""
    buf = np.empty(_round_pairs(n))
    filled = len(head)
    buf[:filled] = head
    while filled < n:
        m = _round_pairs(n - filled)
        end = filled + m
        # The size too: a generator proxy may count it.
        rng.standard_normal(m, out=buf[filled:end])
        for start in range(filled, end, _BLOCK):
            uniforms = rng.random(min(_BLOCK, end - start))
            if filled < n:
                got = _gamma_mt_accept(buf[start:start + uniforms.size],
                                       uniforms, d, c)[0][:n - filled]
                buf[filled:filled + got.size] = got
                filled += got.size
                del got  # not kept through the next block's test
    return buf[:n]


def _standard_gamma(alphas, n: int, rngs) -> np.ndarray:
    """Unit-rate Gamma draws, one row of ``n`` per generator: row i holds
    Gamma(alphas[i]) drawn from ``rngs[i]``, bit for bit as one row alone
    draws it; shape < 1 via the power boost.

    One row alone is ``_fill_row``'s.  Several rows (as many as
    ``_rows_per_block`` allows) draw their first rounds from their own
    generators, in the one-row order, and run the tests as one block;
    each takes its first ``n`` accepted values, and a row left short
    refills on its own generator.
    """
    rows = len(rngs)
    consts = [_shape_constants(a) for a in alphas]
    if rows == 1:
        out = _fill_row(n, (), *consts[0], rngs[0])[None]
    else:
        out = np.empty((rows, n), dtype=np.float64)
        filled = [0] * rows  # accepted values per row
        if n > 0:
            m = _round_pairs(n)
            z = np.array([rng.standard_normal(m) for rng in rngs])
            u = np.array([rng.random(m) for rng in rngs])
            d, c = np.array(consts).T[:, :, None]
            got, accept = _gamma_mt_accept(z, u, d, c)
            if got.size:
                counts = np.count_nonzero(accept, axis=1)
                starts = np.cumsum(counts) - counts
                # A short row's tail reads later rows' draws; its refill
                # overwrites them.
                np.take(got, starts[:, None] + np.arange(n), out=out,
                        mode="clip")
                filled = counts.tolist()
        for i, got_i in enumerate(filled):
            if got_i < n:
                out[i] = _fill_row(n, out[i, :got_i], *consts[i], rngs[i])
    for i, alpha in enumerate(alphas):
        if alpha < 1.0:
            for lo in range(0, n, _BLOCK):
                out[i, lo:lo + _BLOCK] *= (
                    rngs[i].random(min(_BLOCK, n - lo)) ** (1.0 / alpha))
    return out


def sample(p: InvGammaParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws, computed as beta over unit-rate Gamma(alpha)
    variates; deterministic for a given generator state.  Draws beyond
    float64's range are not refused: a Gamma variate that underflows to 0
    (small alpha) gives inf, with numpy's divide warning, and beta over a
    huge variate can round to 0.

    The draws are the first n values of one buffer of n + n/16 + 16,
    which holds every round's normals in its free tail and is divided in
    place; the result is a view of it.  Beside it a call holds a few
    blocks of pairs (about 0.25 MB), so 1e6 draws peak at 1.09 × 8n
    bytes."""
    n = int(n)
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    x = _standard_gamma((p.alpha,), n, (rng,))[0]
    return np.divide(p.beta, x, out=x)


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
