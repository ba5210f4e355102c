"""Special-function kernels against independent series/quadrature oracles."""

import math

import numpy as np
import pytest

from invgamma import digamma, inv_digamma, ln_gamma, trigamma
from invgamma.specfun import (
    _digamma,
    _inv_digamma,
    _inv_digamma_array,
    _psi_psi1_array,
    _trigamma,
)

EULER_GAMMA = 0.5772156649015329


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


class TestArrayKernels:
    """The batched fitters' array kernels give the scalar kernels' bits."""

    @staticmethod
    def assert_bitwise(got, want):
        want = np.array(want, dtype=np.float64)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    # logspace(-3, 6), tiny arguments whose square is still normal, and the
    # shift threshold from both sides.
    XS = np.concatenate([np.logspace(-3, 6, 4001),
                         [1e-150, 1e-100, 1e-30, 1e-17, 1e-8, 1e-5,
                          np.nextafter(6.0, 0.0), 6.0, np.nextafter(6.0, 7.0)]])

    def test_psi_psi1_match_scalar(self):
        psi, psi1 = _psi_psi1_array(self.XS)
        self.assert_bitwise(psi, [_digamma(x) for x in self.XS.tolist()])
        self.assert_bitwise(psi1, [_trigamma(x) for x in self.XS.tolist()])

    def test_inv_digamma_matches_scalar(self):
        ys = np.concatenate([_psi_psi1_array(self.XS)[0],
                             -np.logspace(np.log10(2.22), 8, 1001),
                             np.linspace(-2.3, -2.1, 401),
                             np.linspace(-1.0, 700.0, 701),
                             [-2.22, np.nextafter(-2.22, -3.0)]])
        self.assert_bitwise(_inv_digamma_array(ys),
                            [_inv_digamma(y) for y in ys.tolist()])

    def test_empty(self):
        assert _inv_digamma_array(np.empty(0)).shape == (0,)
