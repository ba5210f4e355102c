"""Density, moments, sampler and KL divergence against quadrature oracles."""

import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gammaincc

from invgamma import distribution, specfun
from invgamma import (
    InvGammaParams,
    UndefinedMomentError,
    expect_inv_x,
    expect_log_pdf,
    expect_log_x,
    kl_divergence,
    log_pdf,
    mean,
    moments,
    sample,
    variance,
)
from invgamma.distribution import _gamma_mt_accept
from conftest import traced_peak

EULER_GAMMA = 0.5772156649015329


def libm_log(a):
    """``math.log`` of each element: the oracles' C log, kept apart from
    ``specfun._clog`` so that it is not tested against itself."""
    return np.fromiter(map(math.log, a.tolist()), np.float64, a.size)


def pdf_expectation(p: InvGammaParams, f) -> float:
    """Oracle: adaptive quadrature of f(x) * pdf(x) over (0, inf),
    split at the mode and at ten times the mode."""
    def integrand(x):
        return math.exp(log_pdf(p, x)) * f(x)
    m = p.beta / (p.alpha + 1.0)
    total = 0.0
    for lo, hi in ((0.0, m), (m, 10 * m), (10 * m, np.inf)):
        total += quad(integrand, lo, hi, limit=200)[0]
    return total


def kl_quadrature(p: InvGammaParams, q: InvGammaParams) -> float:
    return pdf_expectation(p, lambda x: log_pdf(p, x) - log_pdf(q, x))


class TestLogPdf:
    def test_unit_point(self):
        # all power terms vanish; density is exp(-1)
        assert log_pdf(InvGammaParams(1, 1), 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_hand_value(self):
        # (3, 2) at x=2: 8 * 2^-4 / Gamma(3) * e^-1 = 0.25 e^-1
        expected = math.log(0.25) - 1.0
        assert log_pdf(InvGammaParams(3, 2), 2.0) == pytest.approx(expected, rel=1e-14)
        assert log_pdf(InvGammaParams(3, 2), 2.0) == pytest.approx(-2.3862943611, abs=1e-9)

    def test_normalizes(self):
        for p in (InvGammaParams(0.7, 3.0), InvGammaParams(5, 2), InvGammaParams(20, 90)):
            assert pdf_expectation(p, lambda x: 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_vectorized(self):
        p = InvGammaParams(3, 2)
        xs = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(log_pdf(p, xs), [log_pdf(p, x) for x in xs])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_pdf(InvGammaParams(3, 2), 0.0)

    def test_c_library_log_bits(self):
        # The probe grid holds inputs where numpy's contiguous SIMD log is
        # off the C library's by an ulp on some CPUs.
        p = InvGammaParams(3.5, 2.25)
        xs = specfun._LOG_PROBE
        want = (p.alpha * math.log(p.beta) - math.lgamma(p.alpha)
                - (p.alpha + 1.0) * libm_log(xs) - p.beta / xs)
        assert log_pdf(p, xs).tobytes() == want.tobytes()
        assert (log_pdf(p, xs.reshape(64, 128)).tobytes()
                == want.tobytes())
        assert log_pdf(p, np.array(xs[7])) == want[7]

    def test_mode_location(self):
        """argmax of the density sits at beta / (alpha + 1).

        Golden-section alone bottoms out at ~sqrt(eps) around a quadratic
        maximum, so its result seeds a bisection on the central-difference
        derivative, which resolves the argmax well below 1e-8.
        """
        for p in (InvGammaParams(2.5, 7.0), InvGammaParams(10, 25)):
            res = minimize_scalar(lambda x: -log_pdf(p, x), method="golden",
                                  bracket=(1e-3, p.beta / (p.alpha + 1.0), 1e3),
                                  options={"xtol": 1e-12})
            x0 = float(res.x)

            def fd_slope(x, h=1e-6 * x0):
                return log_pdf(p, x + h) - log_pdf(p, x - h)

            mode = brentq(fd_slope, 0.5 * x0, 2.0 * x0, xtol=1e-13 * x0)
            assert mode == pytest.approx(p.beta / (p.alpha + 1.0), rel=1e-8)


class TestParams:
    def test_rejects_invalid(self):
        for a, b in ((0, 1), (-1, 1), (1, 0), (math.nan, 1), (1, math.inf),
                     (10 ** 400, 1), (1, 10 ** 400),
                     (Fraction(1, 10 ** 400), 1)):
            with pytest.raises(ValueError):
                InvGammaParams(a, b)

    def test_accepts_real_scalars_as_floats(self):
        for a, b in ((np.float32(10), 25), (*np.array([10, 25]),),
                     (np.float64(10), np.int8(25)), (10, 25.0)):
            p = InvGammaParams(a, b)
            assert (p.alpha, p.beta) == (10.0, 25.0)
            assert type(p.alpha) is float and type(p.beta) is float

    @pytest.mark.parametrize("v", [True, np.True_, "10", None, 10 + 0j])
    def test_rejects_bool_and_non_reals_by_type(self, v):
        with pytest.raises(ValueError, match=f"alpha must be a real number, "
                                             f"got {type(v).__name__}$"):
            InvGammaParams(v, 25)
        with pytest.raises(ValueError, match=f"beta must be a real number, "
                                             f"got {type(v).__name__}$"):
            InvGammaParams(25, v)


class TestMoments:
    def test_hand_values(self):
        assert moments(InvGammaParams(3, 4)) == pytest.approx((2.0, 4.0))

    def test_demo_parameters(self):
        m, v = moments(InvGammaParams(10, 25))
        assert m == pytest.approx(25 / 9, rel=1e-15)
        assert v == pytest.approx(625 / 648, rel=1e-15)

    def test_variance_boundary(self):
        p = InvGammaParams(2, 1)
        assert mean(p) == pytest.approx(1.0)
        with pytest.raises(UndefinedMomentError, match="variance"):
            moments(p)

    def test_mean_boundary(self):
        with pytest.raises(UndefinedMomentError, match="mean"):
            mean(InvGammaParams(1, 1))
        with pytest.raises(UndefinedMomentError, match="variance"):
            variance(InvGammaParams(1.5, 1))


class TestSampler:
    def test_deterministic(self):
        p = InvGammaParams(10, 25)
        a = sample(p, 50, np.random.default_rng(7))
        b = sample(p, 50, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError, match="sample size must be >= 0"):
            sample(InvGammaParams(10, 25), -1, np.random.default_rng(7))

    def test_monte_carlo_moments(self):
        x = sample(InvGammaParams(10, 25), 10 ** 6, np.random.default_rng(42))
        assert x.mean() == pytest.approx(25 / 9, rel=0.01)
        assert x.var(ddof=1) == pytest.approx(625 / 648, rel=0.03)

    def test_monte_carlo_inverse_moment(self):
        x = sample(InvGammaParams(3, 4), 10 ** 6, np.random.default_rng(42))
        assert (1.0 / x).mean() == pytest.approx(0.75, rel=0.01)

    def test_shape_below_one(self):
        x = sample(InvGammaParams(0.6, 2.0), 10 ** 5, np.random.default_rng(3))
        assert np.all(x > 0)
        # E[1/x] = alpha/beta = 0.3 exists even though E[x] does not
        assert (1.0 / x).mean() == pytest.approx(0.3, rel=0.02)

    def test_empty(self):
        assert sample(InvGammaParams(3, 2), 0, np.random.default_rng(0)).size == 0

    def test_ks_against_analytic_cdf(self):
        """KS statistic below the 0.01-level threshold in >= 95% of runs.

        The reference CDF is the regularized upper incomplete gamma at
        (alpha, beta/x); gammaincc is first validated against direct
        quadrature of the density, then used for the full 1e5-point KS.
        """
        p = InvGammaParams(3.7, 11.0)
        for x in (0.5, 3.0, 30.0):
            assert gammaincc(p.alpha, p.beta / x) == pytest.approx(
                pdf_expectation_cdf(p, x), abs=1e-10)
        n = 10 ** 5
        threshold = 1.628 / math.sqrt(n)
        passes = 0
        for seed in range(20):
            xs = np.sort(sample(p, n, np.random.default_rng(seed)))
            cdf = gammaincc(p.alpha, p.beta / xs)
            hi = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
            lo = np.max(np.abs(cdf - np.arange(0, n) / n))
            passes += max(hi, lo) < threshold
        assert passes >= 19


def _gamma_mt_fill_reference(out, filled, d, c, normals, uniforms):
    # Squeeze-then-log acceptance for unit-rate Gamma with shape >= 1;
    # consumes one (normal, uniform) pair per trial, in order.
    i = filled
    k = 0
    avail = normals.shape[0]
    while i < out.shape[0] and k < avail:
        z = normals[k]
        u = uniforms[k]
        k += 1
        v = 1.0 + c * z
        if v <= 0.0:
            continue
        v = v * v * v
        if u < 1.0 - 0.0331 * (z * z) * (z * z):
            out[i] = d * v
            i += 1
        elif math.log(u) < 0.5 * z * z + d * (1.0 - v + math.log(v)):
            out[i] = d * v
            i += 1
    return i


def sample_reference(p: InvGammaParams, n: int, rng) -> np.ndarray:
    """Oracle: the scalar Marsaglia-Tsang loop, one pair at a time, with
    the same refill schedule as ``sample``."""
    alpha = p.alpha
    base = alpha if alpha >= 1.0 else alpha + 1.0
    d = base - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        want = n - filled
        m = want + (want >> 4) + 16
        filled = _gamma_mt_fill_reference(out, filled, d, c,
                                          rng.standard_normal(m), rng.random(m))
    if alpha < 1.0 and n > 0:
        out *= rng.random(n) ** (1.0 / alpha)
    return p.beta / out


class TestSamplerStream:
    """The vectorised sampler reproduces the scalar loop bit for bit."""

    def test_golden_head(self):
        x = sample(InvGammaParams(10, 25), 2000, np.random.default_rng(5))
        np.testing.assert_array_equal(x[:8], [
            3.3868079602780479, 4.0943072310971012, 2.8043072494939598,
            2.2657869323206064, 1.8319789297197702, 2.4970571472957483,
            3.1062800045994434, 3.366449693132632])

    def test_golden_head_shape_below_one(self):
        x = sample(InvGammaParams(0.6, 2.0), 500, np.random.default_rng(3))
        np.testing.assert_array_equal(x[:8], [
            0.42320407388530201, 2.3851388613991893, 17.769521112197392,
            20.893092202639171, 4.8290522215106888, 1471.5262118494165,
            7.1730280434082481, 4.6077354447049306])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           alpha=st.one_of(st.floats(0.05, 1.0), st.floats(1.0, 300.0),
                           st.floats(1e6, 1e9)),
           n=st.one_of(st.integers(0, 50), st.integers(0, 140_000)))
    @example(seed=0, alpha=10.0, n=65_536)
    @example(seed=1, alpha=0.3, n=2 * 65_536 + 1)
    @example(seed=2, alpha=1e6, n=61_667)
    # The row fills at pair 200 604; its round's last uniform block, from
    # pair 204 800, is drawn and dropped.
    @example(seed=3, alpha=10.0, n=200_000)
    def test_matches_scalar_oracle(self, seed, alpha, n):
        p = InvGammaParams(alpha, 1.0)
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        np.testing.assert_array_equal(sample(p, n, rng),
                                      sample_reference(p, n, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSamplerMemory:
    @pytest.mark.parametrize("alpha", [10.0, 0.5])
    @pytest.mark.parametrize("n", [200_000, 1_000_000])
    def test_holds_two_arrays_of_the_sample(self, alpha, n):
        # One row buffer, which holds each round's normals and the draws,
        # and at most four blocks of pairs for the tests and the power
        # boost: 1.09 x 8n bytes at n = 1e6.  The normals and the draws in
        # two arrays read 2.1 x 8n; a round's uniforms too, 3.2 x 8n.
        peak = traced_peak(sample, InvGammaParams(alpha, 25.0), n,
                           np.random.default_rng(0))
        pairs = distribution._round_pairs(n)
        assert peak <= 8 * (pairs + 4 * distribution._BLOCK)


class DeadFirstRound:
    """A generator whose first ``standard_normal`` call gives dead pairs
    (normals below -1/c, so v = 1 + c z <= 0) except every ``stride``-th
    (all dead for stride 0), so its row's first round falls short and
    refills; later calls pass through."""

    def __init__(self, seed, stride):
        self.bit_generator = np.random.PCG64(seed)
        self._rng = np.random.Generator(self.bit_generator)
        self._stride, self._first = stride, True

    def standard_normal(self, size, **kwargs):
        z = self._rng.standard_normal(size, **kwargs)  # ``out`` too
        if self._first:
            dead = np.ones(size, dtype=bool)
            if self._stride:
                dead[::self._stride] = False
            z[dead] = -1e3  # -1/c = -3 sqrt(d) > -1e3 for shapes <= 300
            self._first = False
        return z

    def random(self, size):
        return self._rng.random(size)


# Row: generator seed, shape, and None for a plain generator or the
# DeadFirstRound stride.
ROWS = st.tuples(st.integers(0, 2 ** 32 - 1),
                 st.one_of(st.floats(0.05, 1.0, exclude_max=True),
                           st.floats(1.0, 300.0)),
                 st.sampled_from([None, None, 8, 1 << 30, 0]))


class TestRowSampler:
    """Rows drawn together equal the one-row reference, row by row."""

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(ROWS, min_size=1, max_size=8),
           n=st.one_of(st.integers(0, 2), st.integers(3, 400)))
    @example(rows=[(0, 2.5, None)], n=1)
    @example(rows=[(1, 3.0, 8), (2, 0.4, None), (3, 10.0, 1 << 30),
                   (4, 0.7, 0), (5, 5.0, None)], n=2)
    @example(rows=[(6, 2.0, 0), (7, 0.5, 0)], n=1)
    def test_rows_match_reference(self, rows, n):
        def gen(seed, stride):
            if stride is None:
                return np.random.default_rng(seed)
            return DeadFirstRound(seed, stride)

        rngs = [gen(seed, stride) for seed, _, stride in rows]
        refs = [gen(seed, stride) for seed, _, stride in rows]
        alphas = [alpha for _, alpha, _ in rows]
        got = distribution._standard_gamma(alphas, n, rngs)
        assert got.shape == (len(rows), n)
        for row, alpha, rng, ref in zip(got, alphas, rngs, refs):
            want = sample_reference(InvGammaParams(alpha, 1.0), n, ref)
            np.testing.assert_array_equal(1.0 / row, want)
            assert rng.bit_generator.state == ref.bit_generator.state


def _gamma_mt_accept_parent(z, u, d, c):
    """Marsaglia-Tsang (2000) draws from one block of (normal, uniform)
    pairs, in pair order: the v > 0 mask, then the squeeze test, then the
    log test for the pairs the squeeze rejects."""
    v = 1.0 + c * z
    if not v.min() > 0.0:  # rare: needs z < -3 sqrt(d)
        live = v > 0.0
        z, u, v = z[live], u[live], v[live]
    v = v * v * v
    z2 = z * z
    accept = u < 1.0 - 0.0331 * z2 * z2
    rest = np.flatnonzero(~accept)
    if rest.size:
        vr = v[rest]
        accept[rest] = (libm_log(u[rest])
                        < 0.5 * z2[rest] + d * (1.0 - vr + libm_log(vr)))
    return d * v[accept]


def _mt_constants(d):
    return d, 1.0 / math.sqrt(9.0 * d)


@st.composite
def mt_blocks(draw):
    """(z, u, d, c) blocks with the log test's edge cases: v = 1 + c z
    near 0 (z near -1/c), u near 1, tiny u, |z| up to 1e300 (v³ of inf)
    and d from 2/3 (alpha <= 1) up to 1e9.  u is never 0, where the
    reference raises (see ``test_zero_uniform_is_accepted``)."""
    d, c = _mt_constants(draw(st.one_of(st.floats(2 / 3, 100.0),
                                        st.floats(100.0, 1e9))))
    size = draw(st.integers(1, 30))
    z = st.one_of(st.floats(-8.0, 8.0),
                  st.floats(0.0, 1e-3).map(lambda t: (t - 1.0) / c),
                  st.floats(-1e300, 1e300))
    u = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                  st.floats(1.0 - 1e-9, 1.0, exclude_max=True),
                  st.floats(5e-324, 1e-300))
    return (np.array(draw(st.lists(z, min_size=size, max_size=size))),
            np.array(draw(st.lists(u, min_size=size, max_size=size))), d, c)


def boundary_block(d):
    """Pairs the squeeze rejects whose log u is within an ulp or two of
    z²/2 + d(1 - v + log v): u is exp of that side and its neighbours."""
    d, c = _mt_constants(d)
    zs, us = [], []
    for z in np.linspace(-2.0, 3.0, 101):
        t = 1.0 + c * z
        v = t * t * t
        rhs = 0.5 * z * z + d * (1.0 - v + math.log(v))
        u0 = math.exp(rhs)
        for u in (np.nextafter(u0, 0.0), u0, np.nextafter(u0, 1.0)):
            if 1.0 - 0.0331 * z ** 4 <= u < 1.0:
                zs.append(z)
                us.append(u)
    return np.array(zs), np.array(us), d, c


BOUNDARY_D = (2 / 3, 10.0 - 1 / 3, 1e6 - 1 / 3, 1e9)


def log_off_by_ulps(real_log):
    """``real_log`` moved by -4 to +4 ulp, a step count fixed per input."""
    def log(x):
        y = real_log(x)
        steps = np.asarray(x, dtype=np.float64).view(np.int64) % 9 - 4
        for i in range(4):
            y = np.where(steps > i, np.nextafter(y, np.inf), y)
            y = np.where(steps < -i, np.nextafter(y, -np.inf), y)
        return y
    return log


class TestLogFilter:
    """The sampler decides its log test with the C library's log, as the
    scalar loop does, so numpy's SIMD log cannot change a stream."""

    @settings(max_examples=300, deadline=None)
    @given(block=mt_blocks())
    def test_matches_c_log_reference(self, block):
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(_gamma_mt_accept(*block)[0],
                                          _gamma_mt_accept_parent(*block))

    @pytest.mark.parametrize("d", BOUNDARY_D)
    def test_boundary_pairs_go_through_c_log(self, d):
        # Pairs an ulp or two from the boundary get the scalar loop's answer.
        z, u, d, c = boundary_block(d)
        want = np.empty(z.size)
        k = _gamma_mt_fill_reference(want, 0, d, c, z, u)
        np.testing.assert_array_equal(_gamma_mt_accept(z, u, d, c)[0], want[:k])
        assert 0 < k < z.size  # both answers occur

    def test_log_error_cannot_change_stream(self, monkeypatch):
        # numpy's log, patched a few ulp off as another host's SIMD log may
        # be, is never called by the sampler, so no stream moves.
        off = log_off_by_ulps(np.log)
        xs = np.linspace(0.01, 3.0, 1000)
        assert np.count_nonzero(off(xs) != np.log(xs)) > 800
        calls = []

        def log(x):
            calls.append(x.size)
            return off(x)

        monkeypatch.setattr(np, "log", log)
        for alpha, n, seed in ((0.3, 20_000, 0), (2.5, 20_000, 1),
                               (10.0, 70_000, 2), (100.0, 20_000, 3),
                               (1e6, 20_000, 4)):
            p = InvGammaParams(alpha, 1.0)
            np.testing.assert_array_equal(
                sample(p, n, np.random.default_rng(seed)),
                sample_reference(p, n, np.random.default_rng(seed)))
        for d in BOUNDARY_D:
            block = boundary_block(d)
            np.testing.assert_array_equal(_gamma_mt_accept(*block)[0],
                                          _gamma_mt_accept_parent(*block))
        assert not calls

    def test_zero_uniform_is_accepted(self, monkeypatch):
        # log 0 = -inf is below any right side, and no warning escapes, on
        # the path the probe chose and on the fromiter fallback (forced by
        # a ufunc an ulp off, whose value it takes at 0: -DBL_MAX);
        # math.log(0), in the scalar loop, raises.
        off = lambda a: np.nextafter(np.log(a), np.inf)
        fallback, path = specfun._elementwise(math.log, off, specfun._LOG_PROBE)
        assert path == "fromiter"
        d, c = _mt_constants(10.0 - 1 / 3)
        z, u = np.array([2.5]), np.array([0.0])  # the squeeze rejects it
        t = 1.0 + c * 2.5
        for clog in (specfun._clog, fallback):
            monkeypatch.setattr(distribution, "_clog", clog)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _gamma_mt_accept(z, u, d, c)[0]
            np.testing.assert_array_equal(got, [d * (t * t * t)])
        with pytest.raises(ValueError):
            _gamma_mt_accept_parent(z, u, d, c)


def pdf_expectation_cdf(p: InvGammaParams, x: float) -> float:
    return quad(lambda t: math.exp(log_pdf(p, t)), 0.0, x, limit=200)[0]


class TestExpectations:
    def test_inverse_moment_ratio(self):
        assert expect_inv_x(InvGammaParams(3, 2)) == pytest.approx(1.5, abs=0)

    def test_log_moment_at_unit(self):
        assert expect_log_x(InvGammaParams(1, 1)) == pytest.approx(EULER_GAMMA, abs=1e-12)
        assert expect_log_x(InvGammaParams(1, 1)) == pytest.approx(0.5772156649, abs=1e-10)

    @pytest.mark.parametrize("p", [InvGammaParams(0.8, 0.5),
                                   InvGammaParams(4, 9),
                                   InvGammaParams(15, 60)])
    def test_match_quadrature(self, p):
        assert expect_log_x(p) == pytest.approx(
            pdf_expectation(p, math.log), abs=1e-8)
        assert expect_inv_x(p) == pytest.approx(
            pdf_expectation(p, lambda x: 1.0 / x), abs=1e-8)
        assert expect_log_pdf(p) == pytest.approx(
            pdf_expectation(p, lambda x: log_pdf(p, x)), abs=1e-8)


class TestKlDivergence:
    def test_self_is_exact_zero(self):
        p = InvGammaParams(3, 2)
        assert kl_divergence(p, p) == 0.0

    def test_hand_values(self):
        p = InvGammaParams(3, 2)
        # scale-only change: KL = 3 - 3 log 2
        assert kl_divergence(p, InvGammaParams(3, 4)) == pytest.approx(
            3.0 - 3.0 * math.log(2.0), rel=1e-14)
        assert kl_divergence(p, InvGammaParams(3, 4)) == pytest.approx(
            0.9205584583, abs=1e-9)
        # shape-only change: KL = digamma(3) - log 2 = 1.5 - gamma - log 2,
        # confirmed by the quadrature oracle
        assert kl_divergence(p, InvGammaParams(2, 2)) == pytest.approx(
            1.5 - EULER_GAMMA - math.log(2.0), rel=1e-12)
        assert kl_divergence(p, InvGammaParams(2, 2)) == pytest.approx(
            0.2296371545, abs=1e-9)
        assert kl_divergence(p, InvGammaParams(2, 2)) == pytest.approx(
            kl_quadrature(p, InvGammaParams(2, 2)), abs=1e-9)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(11)
        grid = [0.5, 1.0, 3.0, 10.0]
        for a in grid:
            for b in grid:
                for ah in grid:
                    for bh in grid:
                        v = kl_divergence(InvGammaParams(a, b), InvGammaParams(ah, bh))
                        assert v >= 0.0
                        if (a, b) == (ah, bh):
                            assert v == 0.0
                        else:
                            assert v > 0.0
        for _ in range(100):
            p = InvGammaParams(rng.uniform(0.5, 50), rng.uniform(0.1, 100))
            q = InvGammaParams(rng.uniform(0.5, 50), rng.uniform(0.1, 100))
            assert kl_divergence(p, q) >= 0.0

    def test_matches_quadrature(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            p = InvGammaParams(rng.uniform(0.5, 50), rng.uniform(0.1, 100))
            q = InvGammaParams(rng.uniform(0.5, 50), rng.uniform(0.1, 100))
            assert kl_divergence(p, q) == pytest.approx(kl_quadrature(p, q), abs=1e-6)

    def test_no_overflow_for_large_parameters(self):
        v = kl_divergence(InvGammaParams(300, 1e6), InvGammaParams(5, 1e-3))
        assert math.isfinite(v) and v > 0


# p = (a, b) and q = (ah, bh) where the float KL rounds to [-1e-12, 0),
# and to -0.001953125, inside the slack of its 2.9e14 lgamma terms: both
# are clamped to 0.0.
CLAMPED_ROW = (1.3558794678123514, 75.79166280107815,
               1.3558794678123516, 75.7916628010782)
LARGE_SHAPE_ROW = (1e13, 1.0, 1e13, 1.0 - 2.0 ** -53)


def float_kl(a, b, ah, bh):
    """The float KL of one row: NaN for a NaN estimate, None where the
    float call raises ArithmeticError."""
    if math.isnan(ah) or math.isnan(bh):
        return math.nan
    try:
        return kl_divergence(InvGammaParams(a, b), InvGammaParams(ah, bh))
    except ArithmeticError:
        return None


def params_arrays(alpha, beta):
    return SimpleNamespace(alpha=np.asarray(alpha, dtype=np.float64),
                           beta=np.asarray(beta, dtype=np.float64))


@st.composite
def kl_rows(draw):
    """(a, b, ah, bh) rows and an array length: the estimate is free, equal
    to the truth, a few ulps from it (where the clamp acts) or NaN in one
    or both fields (a failed fit).  The rows repeat to the length, at times
    past one 65536-element block."""
    shape, scale = st.floats(1e-3, 1e5), st.floats(1e-6, 1e6)
    ulps = st.integers(-3, 3).map(lambda k: 1.0 + k * 2.0 ** -52)
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        a, b = draw(shape), draw(scale)
        ah, bh = draw(st.one_of(
            st.tuples(shape, scale), st.just((a, b)),
            st.tuples(ulps.map(lambda t: a * t), ulps.map(lambda t: b * t)),
            st.sampled_from([(math.nan, math.nan), (math.nan, b), (a, math.nan)])))
        rows.append((a, b, ah, bh))
    n = draw(st.sampled_from([len(rows), 65537])) if rows else 0
    return np.array(rows).reshape(-1, 4), n


class TestKlArrays:
    """KL of float64 arrays gives each element the float call's bits."""

    @settings(max_examples=100, deadline=None)
    @given(batch=kl_rows())
    @example(batch=(np.empty((0, 4)), 0))
    @example(batch=(np.array([[3.0, 2.0, 3.0, 2.0]]), 1))
    @example(batch=(np.array([CLAMPED_ROW, (3.0, 2.0, math.nan, math.nan)]),
                    65537))
    @example(batch=(np.column_stack([  # scales where a SIMD log is off
        np.ones(8192), specfun._LOG_PROBE, np.ones(8192), np.ones(8192)]), 8192))
    def test_matches_float_kl(self, batch):
        rows, n = batch
        want = [float_kl(*row) for row in rows.tolist()]
        a, b, ah, bh = (np.resize(col, n) for col in rows.T)
        if None in want:
            with pytest.raises(ArithmeticError, match="below rounding slack"):
                kl_divergence(params_arrays(a, b), params_arrays(ah, bh))
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # NaN estimates warn nothing
            got = kl_divergence(params_arrays(a, b), params_arrays(ah, bh))
        want = np.resize(np.array(want, dtype=np.float64), n)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
        assert np.all(got[(a == ah) & (b == bh)] == 0.0)

    def test_clamp_and_raise(self, monkeypatch):
        rows = [CLAMPED_ROW, (3.0, 2.0, 3.0, 2.0), LARGE_SHAPE_ROW]
        a, b, ah, bh = np.transpose(rows)
        assert kl_divergence(params_arrays(a, b),
                             params_arrays(ah, bh)).tolist() == [0.0] * 3
        assert [float_kl(*row) for row in rows] == [0.0] * 3
        # A digamma off by one is a bug: the sum falls far below its slack.
        psi_psi1 = distribution._psi_psi1
        monkeypatch.setattr(distribution, "_psi_psi1",
                            lambda op, x: (psi_psi1(op, x)[0] + 1.0, None))
        a, b, ah, bh = np.transpose([(3.0, 2.0, 3.0, 4.0), (3.0, 2.0, 4.0, 2.0)])
        with pytest.raises(ArithmeticError, match="below rounding slack"):
            kl_divergence(params_arrays(a, b), params_arrays(ah, bh))
        with pytest.raises(ArithmeticError, match="below rounding slack"):
            kl_divergence(InvGammaParams(3.0, 2.0), InvGammaParams(4.0, 2.0))

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(math.log(1e-3), math.log(1e15)).map(math.exp),
           beta=st.floats(math.log(1e-6), math.log(1e6)).map(math.exp),
           ulps=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                         min_size=1, max_size=20))
    @example(alpha=1e6, beta=1.0, ulps=[(0, k) for k in range(-50, 51)])
    def test_large_shapes_stay_inside_the_slack(self, alpha, beta, ulps):
        # Estimates one to 50 ulp-sized steps from the truth, as a sweep's
        # would be near convergence: the sum cancels terms of size about
        # alpha log alpha, which must not raise.
        ah = np.array([alpha * (1.0 + j * 2.0 ** -52) for j, _ in ulps])
        bh = np.array([beta * (1.0 + k * 2.0 ** -52) for _, k in ulps])
        floats = [kl_divergence(InvGammaParams(alpha, beta), InvGammaParams(x, y))
                  for x, y in zip(ah.tolist(), bh.tolist())]
        got = kl_divergence(params_arrays(np.full(ah.size, alpha),
                                          np.full(ah.size, beta)),
                            params_arrays(ah, bh))
        assert min(floats) >= 0.0
        assert got.tobytes() == np.array(floats).tobytes()
