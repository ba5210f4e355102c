"""Scalar special functions used by every estimator.

``ln_gamma`` delegates to the C library ``lgamma``.  ``digamma`` and
``trigamma`` lift the argument above ``_SHIFT`` with the standard
recurrences and then evaluate the de Moivre asymptotic series through the
x**-14 term, which keeps the truncation error below ~2e-13 at the
threshold.  ``inv_digamma`` is a guarded Newton iteration.

The ``_``-prefixed kernels skip argument validation because their callers
pass values that are already validated; the public wrappers validate and
raise.
"""

import math

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
