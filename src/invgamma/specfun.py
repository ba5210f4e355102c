"""Special functions used by every estimator.

``ln_gamma`` delegates to the C library ``lgamma``.  ``_psi_psi1`` lifts
the argument above ``_SHIFT`` with the standard recurrences and then
evaluates the de Moivre asymptotic series of digamma and trigamma through
the x**-14 term, which keeps the truncation error below ~2e-13 at the
threshold.  ``inv_digamma`` is a guarded Newton iteration.

Each kernel is written once over an ``op`` table: ``_FLOAT_OPS`` on Python
floats, or ``_ARRAY_OPS`` elementwise on float64 arrays for the batched
fitters, with the C library's log and exp (see ``_elementwise``) so that
each element gets the bits of the float call.  Each table also carries
its ψ⁻¹ driver as ``inv_digamma``.  The ``_``-prefixed kernels skip
argument validation; the public wrappers validate and raise.
"""

import math
from types import SimpleNamespace

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_SHIFT = 6.0

_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)


def _elementwise(f, ufunc, probe):
    """``f`` on each element of a 1-d array, with the C library's bits,
    and the name of the path.  numpy's contiguous log and exp are SIMD
    loops that can differ from the C library by an ulp, on inputs that
    depend on the CPU; on a negative input stride numpy 2.x calls the C
    library per element.  That is numpy's dispatch, not a documented API,
    so that call is used only if it gives ``f``'s bits on ``probe``; else
    ``f`` runs per element, and the ufunc where ``f`` raises (log 0 is
    -inf, and NaN below 0, on both paths).  A reversed input is passed as
    it is: reversing it and the output would make a contiguous loop again."""
    def one(x):
        try:
            return f(x)
        except (ValueError, OverflowError):
            return ufunc(x)

    fast = lambda a: ufunc(a) if a.strides[0] < 0 else ufunc(a[::-1])[::-1]
    slow = lambda a: np.fromiter(map(one, a.tolist()), np.float64, a.size)
    if fast(probe).tobytes() == slow(probe).tobytes():
        return fast, "reversed-ufunc"
    return slow, "fromiter"


# Grids where a contiguous SIMD call differs from the C library somewhere
# (47 logs and 274 exps on an AVX512 host); checked in about 1 ms.
_LOG_PROBE, _EXP_PROBE = 0.5 + np.arange(8192) / 8192, np.arange(-2980, 2839) / 4
_clog, _log_path = _elementwise(math.log, np.log, _LOG_PROBE)
_cexp, _exp_path = _elementwise(math.exp, np.exp, _EXP_PROBE)
LOG_PATH = f"log {_log_path}, exp {_exp_path}"

# ``div`` gives IEEE's a * inf at b == +0 on floats too, where Python
# raises ZeroDivisionError, so a float fit ends in NaN or inf where an
# array fit does.  numpy has no lgamma ufunc, so the array ``lgamma``
# calls the C library's per element.
_FLOAT_OPS = SimpleNamespace(
    log=math.log, exp=math.exp, sqrt=math.sqrt, isfinite=math.isfinite,
    lgamma=math.lgamma, any=bool, not_=lambda c: not c,
    where=lambda c, a, b: a if c else b,
    div=lambda a, b: a / b if b else a * math.inf)
_ARRAY_OPS = SimpleNamespace(
    log=_clog, exp=_cexp, sqrt=np.sqrt, isfinite=np.isfinite,
    lgamma=lambda a: np.fromiter(map(math.lgamma, a.tolist()), np.float64, a.size),
    any=np.ndarray.any, not_=np.logical_not, where=np.where, div=np.divide)


def _psi_psi1(op, x):
    """Digamma and trigamma of ``x`` > 0.  The shift is masked (``m`` is
    0.0 once x is above ``_SHIFT``), so each element of an array adds what
    its float adds, in at most six steps since x + 1.0 >= 1.0."""
    acc_d = acc_t = 0.0
    low = x < _SHIFT
    while op.any(low):
        m = low * 1.0
        acc_d = acc_d - op.div(m, x)
        acc_t = acc_t + op.div(m, x * x)
        x = x + m
        low = x < _SHIFT
    r = 1.0 / (x * x)
    tail = r * (1.0 / 12.0 - r * (1.0 / 120.0 - r * (1.0 / 252.0 - r * (
        1.0 / 240.0 - r * (1.0 / 132.0 - r * (691.0 / 32760.0 - r * (1.0 / 12.0)))))))
    poly = 1.0 / 6.0 - r * (1.0 / 30.0 - r * (1.0 / 42.0 - r * (
        1.0 / 30.0 - r * (5.0 / 66.0 - r * (691.0 / 2730.0 - r * (7.0 / 6.0))))))
    return (acc_d + op.log(x) - 0.5 / x - tail,
            acc_t + 1.0 / x + 0.5 * r + poly * r / x)


def _inv_digamma_start(op, y):
    """Minka's two-branch start for digamma(x) = y, +inf above
    log(DBL_MAX), and the Newton tolerance.  Each branch sees every
    element, on an argument inside its range."""
    upper = y >= -2.22
    e = op.exp(op.where(y > _LOG_DBL_MAX, math.inf, y))
    x = op.where(upper, e + 0.5,
                 -1.0 / (op.where(upper, -3.0, y) + EULER_GAMMA))
    ay = abs(y)
    return x, 1e-12 * op.where(ay > 1.0, ay, 1.0)


def _newton(op, x, y, tol):
    """Whether ``x`` (or +inf) solves digamma(x) = y, and the guarded
    Newton step from ``x``."""
    psi, psi1 = _psi_psi1(op, x)
    err = psi - y
    nxt = x - op.div(err, psi1)
    return ((abs(err) <= tol) | (x == math.inf),
            op.where(nxt <= 0.0, 0.5 * x, nxt))


def _inv_digamma(y):
    x, tol = _inv_digamma_start(_FLOAT_OPS, y)
    for _ in range(100):
        done, nxt = _newton(_FLOAT_OPS, x, y, tol)
        if done:
            return x
        x = nxt
    return math.nan


def _inv_digamma_array(y: np.ndarray) -> np.ndarray:
    """``_inv_digamma`` of every element of ``y``; an element leaves the
    Newton loop when it converges, and is NaN if it never does."""
    x, tol = _inv_digamma_start(_ARRAY_OPS, y)
    out = np.full_like(y, math.nan)
    live = np.arange(y.size)
    for _ in range(100):
        if not live.size:
            break
        done, nxt = _newton(_ARRAY_OPS, x, y, tol)
        if done.any():
            out[live[done]] = x[done]
            keep = ~done
            live, nxt, y, tol = live[keep], nxt[keep], y[keep], tol[keep]
        x = nxt
    return out


_FLOAT_OPS.inv_digamma = _inv_digamma
_ARRAY_OPS.inv_digamma = _inv_digamma_array


def _check_positive(name: str, x: float) -> float:
    """``float(x)``, or ``ValueError`` naming ``name`` unless finite > 0."""
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {x!r}")
    return x


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    return math.lgamma(_check_positive("ln_gamma x", x))


def digamma(x: float) -> float:
    """First log-derivative of Gamma, for x > 0."""
    return _psi_psi1(_FLOAT_OPS, _check_positive("digamma x", x))[0]


def trigamma(x: float) -> float:
    """Second log-derivative of Gamma, for x > 0; always positive."""
    return _psi_psi1(_FLOAT_OPS, _check_positive("trigamma x", x))[1]


def inv_digamma(y: float) -> float:
    """Inverse of ``digamma`` on (0, inf); accepts any finite real y.

    Newton converges in a handful of steps from the two-branch
    initializer; hitting the iteration cap means the kernel is broken,
    so that surfaces as a RuntimeError rather than a bad value.  Above
    log(DBL_MAX) ~ 709.78 the root exceeds the largest float: +inf.
    """
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"inv_digamma requires a finite argument, got {y!r}")
    x = _inv_digamma(y)
    if math.isnan(x):
        raise RuntimeError(f"inv_digamma failed to converge for y={y!r}")
    return x
