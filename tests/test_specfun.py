"""Special-function kernels against independent series/quadrature oracles."""

import math
import sys

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from invgamma import digamma, inv_digamma, ln_gamma, specfun, trigamma
from invgamma.specfun import _ARRAY_OPS, _FLOAT_OPS, _cexp, _clog

EULER_GAMMA = 0.5772156649015329
LOG_DBL_MAX = math.log(sys.float_info.max)


def libm(f):
    """``f`` (``math.log`` or ``math.exp``) on each element: the oracles'
    C library, kept apart from ``specfun._clog`` and ``_cexp`` so that
    they are not tested against themselves."""
    return lambda a: np.fromiter(map(f, a.tolist()), np.float64, a.size)


libm_log, libm_exp = libm(math.log), libm(math.exp)


def digamma_series(x: float, terms: int = 10 ** 6) -> float:
    """Oracle: -gamma + sum_k (1/(k+1) - 1/(k+x)), truncated, plus the
    integral-plus-midpoint tail correction so the truncation error is
    far below the tolerances in use."""
    k = np.arange(terms, dtype=np.float64)
    head = float(np.sum(1.0 / (k + 1.0) - 1.0 / (k + x)))
    tail = math.log((terms + x) / (terms + 1.0))
    tail += 0.5 * (1.0 / (terms + 1.0) - 1.0 / (terms + x))
    return -EULER_GAMMA + head + tail


def trigamma_series(x: float, terms: int = 10 ** 5) -> float:
    """Oracle: sum_k 1/(x+k)^2 with an Euler-Maclaurin tail correction."""
    k = np.arange(terms, dtype=np.float64)
    head = float(np.sum(1.0 / (x + k) ** 2))
    t = x + terms
    return head + 1.0 / t + 0.5 / t ** 2 + 1.0 / (6.0 * t ** 3)


class TestLnGamma:
    def test_unit_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-15)

    def test_factorial_value(self):
        # Gamma(5) = 4! = 24
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)
        assert ln_gamma(5.0) == pytest.approx(3.1780538303, abs=1e-9)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ln_gamma(bad)


class TestDigamma:
    def test_at_one_is_minus_euler(self):
        oracle = digamma_series(1.0)
        assert oracle == pytest.approx(-EULER_GAMMA, abs=1e-9)
        assert digamma(1.0) == pytest.approx(oracle, abs=1e-9)
        assert digamma(1.0) == pytest.approx(-0.5772156649, abs=1e-10)

    def test_at_two(self):
        # recurrence from the value at 1
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
        assert digamma(2.0) == pytest.approx(0.4227843351, abs=1e-10)

    def test_series_oracle_grid(self):
        for x in (0.25, 0.9, 3.7, 12.0):
            assert digamma(x) == pytest.approx(digamma_series(x), abs=1e-11)

    def test_recurrence(self):
        for x in np.logspace(-3, 6, 40):
            lhs = digamma(x + 1.0) - digamma(x)
            assert lhs == pytest.approx(1.0 / x, rel=1e-12, abs=1e-12)

    def test_strictly_increasing(self):
        grid = np.logspace(-3, 4, 300)
        vals = np.array([digamma(x) for x in grid])
        assert np.all(np.diff(vals) > 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digamma(-2.0)


class TestTrigamma:
    def test_at_one_is_pi2_over_6(self):
        oracle = trigamma_series(1.0)
        assert oracle == pytest.approx(math.pi ** 2 / 6.0, abs=1e-12)
        assert trigamma(1.0) == pytest.approx(oracle, abs=1e-10)
        assert trigamma(1.0) == pytest.approx(1.6449340668, abs=1e-10)

    def test_at_two(self):
        assert trigamma(2.0) == pytest.approx(math.pi ** 2 / 6.0 - 1.0, rel=1e-10)
        assert trigamma(2.0) == pytest.approx(0.6449340668, abs=1e-10)

    def test_series_oracle_grid(self):
        for x in (0.3, 1.4, 6.5, 45.0):
            assert trigamma(x) == pytest.approx(trigamma_series(x), rel=1e-10)

    def test_recurrence(self):
        for x in np.logspace(-3, 6, 40):
            lhs = trigamma(x) - trigamma(x + 1.0)
            assert lhs == pytest.approx(1.0 / (x * x), rel=1e-12)

    def test_positive_and_above_reciprocal(self):
        for x in np.logspace(-3, 6, 60):
            assert trigamma(x) > 1.0 / x

    def test_strictly_decreasing(self):
        grid = np.logspace(-3, 4, 300)
        vals = np.array([trigamma(x) for x in grid])
        assert np.all(np.diff(vals) < 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            trigamma(0.0)

    def test_inf_where_square_underflows(self):
        assert trigamma(1e-170) == math.inf
        assert trigamma(1e-320) == math.inf


class TestInverseDigamma:
    def test_inverse_of_known_points(self):
        assert inv_digamma(-0.5772156649) == pytest.approx(1.0, rel=1e-9)
        assert inv_digamma(0.4227843351) == pytest.approx(2.0, rel=1e-9)

    def test_roundtrip_named_points(self):
        for x in (0.01, 0.1, 1.0, 7.0, 100.0, 1e4):
            assert inv_digamma(digamma(x)) == pytest.approx(x, rel=1e-10)

    def test_roundtrip_log_grid(self):
        for x in np.logspace(-3, 6, 200):
            y = inv_digamma(digamma(float(x)))
            assert abs(y - x) / x < 1e-9

    def test_consistency_with_digamma(self):
        for y in (-50.0, -3.0, -0.1, 0.0, 2.5, 13.0):
            x = inv_digamma(y)
            assert x > 0
            assert digamma(x) == pytest.approx(y, abs=1e-12 * max(1.0, abs(y)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            inv_digamma(math.inf)

    def test_inf_above_log_dbl_max(self):
        assert inv_digamma(LOG_DBL_MAX) < math.inf
        assert inv_digamma(math.nextafter(LOG_DBL_MAX, 710.0)) == math.inf
        assert inv_digamma(1e300) == math.inf


class TestDerivativeConsistency:
    """Central differences tie ln_gamma -> digamma -> trigamma."""

    XS = (0.01, 0.1, 1.0, 3.5, 10.0, 100.0, 1e4)

    def test_digamma_is_lngamma_derivative(self):
        for x in self.XS:
            h = 1e-5 * x
            fd = (ln_gamma(x + h) - ln_gamma(x - h)) / (2 * h)
            assert abs(fd - digamma(x)) <= 1e-6 * max(1.0, abs(digamma(x)))

    def test_trigamma_is_digamma_derivative(self):
        for x in self.XS:
            h = 1e-5 * x
            fd = (digamma(x + h) - digamma(x - h)) / (2 * h)
            assert abs(fd - trigamma(x)) <= 1e-6 * max(1.0, trigamma(x))


# The float and array kernels that ``specfun._psi_psi1`` and the two
# ``_inv_digamma`` drivers replaced, verbatim: the bitwise references.

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
    psi = acc_d + libm_log(x) - 0.5 / x - tail
    psi1 = acc_t + 1.0 / x + 0.5 * r + poly * r / x
    return psi, psi1


def _inv_digamma_array(y: np.ndarray) -> np.ndarray:
    """``_inv_digamma`` of every element of ``y``; an element leaves the
    Newton loop when it converges, and is NaN if it never does."""
    y = np.asarray(y, dtype=np.float64)
    upper = y >= -2.22
    x = np.empty_like(y)
    x[upper] = libm_exp(y[upper]) + 0.5
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


def assert_bitwise(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def new_psi_psi1(xs: np.ndarray):
    """The kernel on an array, and on each of its elements as a float."""
    with np.errstate(all="ignore"):
        arr = specfun._psi_psi1(_ARRAY_OPS, xs)
    floats = np.array([specfun._psi_psi1(_FLOAT_OPS, x) for x in xs.tolist()])
    return arr, floats.reshape(-1, 2).T


def new_inv_digamma(ys: np.ndarray):
    with np.errstate(all="ignore"):
        arr = specfun._inv_digamma_array(ys)
    return arr, [specfun._inv_digamma(y) for y in ys.tolist()]


class TestArrayKernels:
    """The one kernel gives the same bits on floats and on arrays, and the
    bits of the float and array kernels it replaced."""

    # logspace(-3, 6), tiny arguments, some with a square that underflows,
    # and the shift threshold from both sides.
    XS = np.concatenate([np.logspace(-3, 6, 4001),
                         [1e-320, 1e-170, 1e-150, 1e-100, 1e-30, 1e-17, 1e-8,
                          1e-5, np.nextafter(6.0, 0.0), 6.0,
                          np.nextafter(6.0, 7.0)]])

    def test_psi_psi1_match_scalar(self):
        (psi, psi1), (fpsi, fpsi1) = new_psi_psi1(self.XS)
        assert_bitwise(psi, fpsi)
        assert_bitwise(psi1, fpsi1)
        with np.errstate(divide="ignore"):
            ref_psi, ref_psi1 = _psi_psi1_array(self.XS)
        assert_bitwise(psi, ref_psi)
        assert_bitwise(psi1, ref_psi1)
        assert_bitwise(psi, [_digamma(x) for x in self.XS.tolist()])
        # The float reference raises ZeroDivisionError where x * x
        # underflows; the array reference and the kernel give +inf there.
        normal = self.XS * self.XS > 0.0
        assert_bitwise(psi1[normal],
                       [_trigamma(x) for x in self.XS[normal].tolist()])
        assert np.all(psi1[~normal] == math.inf)

    def test_inv_digamma_matches_scalar(self):
        ys = np.concatenate([new_psi_psi1(self.XS[self.XS > 1e-300])[0][0],
                             -np.logspace(np.log10(2.22), 8, 1001),
                             np.linspace(-2.3, -2.1, 401),
                             np.linspace(-1.0, 700.0, 701),
                             np.linspace(700.0, LOG_DBL_MAX, 101),
                             [-2.22, np.nextafter(-2.22, -3.0), -EULER_GAMMA,
                              np.nextafter(LOG_DBL_MAX, 710.0), 710.0, 800.0,
                              1e8, 1e300]])
        got, floats = new_inv_digamma(ys)
        assert_bitwise(got, floats)
        # exp(y) overflows in both references above log(DBL_MAX).
        fits = ys <= LOG_DBL_MAX
        with np.errstate(all="ignore"):
            assert_bitwise(got[fits], _inv_digamma_array(ys[fits]))
        assert_bitwise(got[fits], [_inv_digamma(y) for y in ys[fits].tolist()])
        assert np.all(got[~fits] == math.inf)

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(1e-150, 1e300),
           y=st.floats(-1e8, 709.0, exclude_min=True, exclude_max=True))
    def test_matches_references_property(self, x, y):
        (psi, psi1), (fpsi, fpsi1) = new_psi_psi1(np.array([x]))
        with np.errstate(all="ignore"):
            ref_psi, ref_psi1 = _psi_psi1_array(np.array([x]))
        for got in (psi, fpsi, ref_psi):
            assert_bitwise(got, [_digamma(x)])
        for got in (psi1, fpsi1, ref_psi1):
            assert_bitwise(got, [_trigamma(x)])
        got, floats = new_inv_digamma(np.array([y]))
        with np.errstate(all="ignore"):
            ref = _inv_digamma_array(np.array([y]))
        for other in (floats, ref):
            assert_bitwise(got, other)
        assert_bitwise(got, [_inv_digamma(y)])

    def test_empty(self):
        assert specfun._inv_digamma_array(np.empty(0)).shape == (0,)


@st.composite
def float_arrays(draw, elements):
    """1-d arrays of ``elements``: up to 40 drawn values, at times
    repeated to more than one 65536-element block."""
    a = np.array(draw(st.lists(elements, max_size=40)), dtype=np.float64)
    if a.size and draw(st.booleans()):
        a = np.resize(a, draw(st.sampled_from([65537, 70001])))
    return a


def assert_libm_bits(kernel, f, a):
    # On the array and on a reversed copy seen through a negative stride.
    for x in (a, a[::-1].copy()[::-1]):
        assert kernel(x).tobytes() == libm(f)(x).tobytes()


class TestCLibraryLogExp:
    """The array log and exp give ``math.log`` and ``math.exp``'s bits
    on every element, on whichever path the import-time probe chose.  The
    probe grids hold inputs where a contiguous SIMD call is off."""

    @settings(max_examples=150, deadline=None)
    @given(a=float_arrays(st.floats(0.0, math.inf, exclude_min=True)))
    @example(a=np.array([]))
    @example(a=np.array([1.0]))
    @example(a=np.array([5e-324, 2.2250738585072009e-308, 1.0,
                         sys.float_info.max]))
    @example(a=specfun._LOG_PROBE)
    def test_log_matches_math_log(self, a):
        assert_libm_bits(_clog, math.log, a)

    @settings(max_examples=150, deadline=None)
    @given(a=float_arrays(st.floats(-math.inf, LOG_DBL_MAX)))
    @example(a=np.array([]))
    @example(a=np.array([0.0]))
    @example(a=np.array([-745.2, -745.0, -708.5, 1.0, LOG_DBL_MAX]))
    @example(a=specfun._EXP_PROBE)
    def test_exp_matches_math_exp(self, a):
        assert_libm_bits(_cexp, math.exp, a)

    @pytest.mark.parametrize("f, ufunc, probe, outside", [
        (math.log, np.log, specfun._LOG_PROBE, [0.0, -0.0, -1.0, -math.inf]),
        (math.exp, np.exp, specfun._EXP_PROBE, [709.8, 1e308])],
        ids=["log", "exp"])
    def test_falls_back_when_a_probe_is_off_by_an_ulp(self, f, ufunc, probe,
                                                      outside):
        off = lambda a: np.nextafter(ufunc(a), np.inf)
        slow, path = specfun._elementwise(f, off, probe)
        assert path == "fromiter"
        assert slow(probe).tobytes() == libm(f)(probe).tobytes()
        # Where ``f`` raises, the fallback gives the ufunc's value.
        outside = np.array(outside)
        with np.errstate(all="ignore"):
            assert slow(outside).tobytes() == off(outside).tobytes()

    def test_array_lgamma_matches_math_lgamma(self):
        a = np.concatenate([np.geomspace(1e-300, 1e300, 6001), [math.nan]])
        for x in (a, a[::-1]):
            want = np.array([math.lgamma(v) for v in x])
            assert _ARRAY_OPS.lgamma(x).tobytes() == want.tobytes()
