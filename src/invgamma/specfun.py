"""Scalar special functions used by every estimator.

``ln_gamma`` delegates to the C library ``lgamma``.  ``digamma`` and
``trigamma`` lift the argument above ``_SHIFT`` with the standard
recurrences and then evaluate the de Moivre asymptotic series through the
x**-14 term, which keeps the truncation error below ~2e-13 at the
threshold.  ``inv_digamma`` is a guarded Newton iteration.

The ``_``-prefixed kernels skip argument validation because their callers
pass values that are already validated; the public wrappers validate and
raise.  ``_psi_psi1_array`` and ``_inv_digamma_array`` are the elementwise
versions used by the batched fitters: they repeat the scalar kernels
operation for operation, and take logs and exps from the C library, so each
element gets the same bits as the scalar call.
"""

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_SHIFT = 6.0


def _digamma(x):
    acc = 0.0
    while x < _SHIFT:
        acc -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    tail = r * (1.0 / 12.0 - r * (1.0 / 120.0 - r * (1.0 / 252.0 - r * (
        1.0 / 240.0 - r * (1.0 / 132.0 - r * (691.0 / 32760.0 - r * (1.0 / 12.0)))))))
    return acc + math.log(x) - 0.5 / x - tail


def _trigamma(x):
    acc = 0.0
    while x < _SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    poly = 1.0 / 6.0 - r * (1.0 / 30.0 - r * (1.0 / 42.0 - r * (
        1.0 / 30.0 - r * (5.0 / 66.0 - r * (691.0 / 2730.0 - r * (7.0 / 6.0))))))
    return acc + 1.0 / x + 0.5 * r + poly * r / x


def _inv_digamma(y):
    # Two-branch initializer, then Newton on a concave increasing function.
    if y >= -2.22:
        x = math.exp(y) + 0.5
    else:
        x = -1.0 / (y + EULER_GAMMA)
    for _ in range(100):
        err = _digamma(x) - y
        if abs(err) <= 1e-12 * max(1.0, abs(y)):
            return x
        step = err / _trigamma(x)
        nxt = x - step
        if nxt <= 0.0:
            nxt = 0.5 * x
        x = nxt
    return math.nan


def _clog(a: np.ndarray) -> np.ndarray:
    # C log, as in the scalar kernels: numpy's SIMD log can differ by an ulp.
    return np.fromiter(map(math.log, a.tolist()), np.float64, a.size)


def _cexp(a: np.ndarray) -> np.ndarray:
    # C exp, for the same reason as ``_clog``.
    return np.fromiter(map(math.exp, a.tolist()), np.float64, a.size)


@np.errstate(over="ignore")
def _psi_psi1_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_digamma`` and ``_trigamma`` of every element of ``x`` > 0.

    The shift below ``_SHIFT`` is at most six masked recurrence steps,
    since x + 1.0 >= 1.0 for any x > 0.  x * x overflows to inf without a
    warning, as it does for Python floats.
    """
    acc_d = np.zeros_like(x)
    acc_t = np.zeros_like(x)
    low = x < _SHIFT
    while low.any():
        acc_d = np.where(low, acc_d - 1.0 / x, acc_d)
        acc_t = np.where(low, acc_t + 1.0 / (x * x), acc_t)
        x = np.where(low, x + 1.0, x)
        low = x < _SHIFT
    r = 1.0 / (x * x)
    tail = r * (1.0 / 12.0 - r * (1.0 / 120.0 - r * (1.0 / 252.0 - r * (
        1.0 / 240.0 - r * (1.0 / 132.0 - r * (691.0 / 32760.0 - r * (1.0 / 12.0)))))))
    poly = 1.0 / 6.0 - r * (1.0 / 30.0 - r * (1.0 / 42.0 - r * (
        1.0 / 30.0 - r * (5.0 / 66.0 - r * (691.0 / 2730.0 - r * (7.0 / 6.0))))))
    psi = acc_d + _clog(x) - 0.5 / x - tail
    psi1 = acc_t + 1.0 / x + 0.5 * r + poly * r / x
    return psi, psi1


def _inv_digamma_array(y: np.ndarray) -> np.ndarray:
    """``_inv_digamma`` of every element of ``y``; an element leaves the
    Newton loop when it converges, and is NaN if it never does."""
    y = np.asarray(y, dtype=np.float64)
    upper = y >= -2.22
    x = np.empty_like(y)
    x[upper] = _cexp(y[upper]) + 0.5
    x[~upper] = -1.0 / (y[~upper] + EULER_GAMMA)
    tol = 1e-12 * np.maximum(1.0, np.abs(y))
    out = np.full_like(y, math.nan)
    live = np.arange(y.size)
    for _ in range(100):
        psi, psi1 = _psi_psi1_array(x)
        err = psi - y
        done = np.abs(err) <= tol
        if done.any():
            out[live[done]] = x[done]
            keep = ~done
            live, x, y, tol = live[keep], x[keep], y[keep], tol[keep]
            err, psi1 = err[keep], psi1[keep]
            if not live.size:
                break
        step = err / psi1
        nxt = x - step
        x = np.where(nxt <= 0.0, 0.5 * x, nxt)
    return out


def _check_positive(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} requires a finite argument > 0, got {x!r}")
    return x


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    return math.lgamma(_check_positive("ln_gamma", x))


def digamma(x: float) -> float:
    """First log-derivative of Gamma, for x > 0."""
    return _digamma(_check_positive("digamma", x))


def trigamma(x: float) -> float:
    """Second log-derivative of Gamma, for x > 0; always positive."""
    return _trigamma(_check_positive("trigamma", x))


def inv_digamma(y: float) -> float:
    """Inverse of ``digamma`` on (0, inf); accepts any finite real y.

    Newton converges in a handful of steps from the two-branch
    initializer; hitting the iteration cap means the kernel is broken,
    so that surfaces as a RuntimeError rather than a bad value.
    """
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"inv_digamma requires a finite argument, got {y!r}")
    x = _inv_digamma(y)
    if math.isnan(x):
        raise RuntimeError(f"inv_digamma failed to converge for y={y!r}")
    return x
