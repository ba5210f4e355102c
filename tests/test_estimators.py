"""Hand-checked values, update-rule identities and agreement properties
for the five fitters."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invgamma import (
    ESTIMATORS,
    ConvergenceConfig,
    DegenerateSampleError,
    FitOptions,
    InsufficientDataError,
    InvalidPosteriorError,
    InvGammaParams,
    PolyShapePrior,
    ScaleGammaPrior,
    ShapePriorABC,
    StatsBatch,
    SufficientStats,
    bl1_log_posterior_curve,
    compute_stats,
    digamma,
    fit_batch,
    fit_bl1,
    fit_by_name,
    fit_bl2,
    fit_ml1,
    fit_ml2,
    fit_mm,
    inv_digamma,
    kl_divergence,
    log_likelihood,
    log_pdf,
    ml_beta_given_alpha,
    moments,
    profile_log_likelihood,
    quad_approx_coeffs,
    sample,
    scale_posterior,
    trigamma,
)
from invgamma import estimators, specfun
from conftest import make_dataset, traced_peak

FLAT_SHAPE = ShapePriorABC.with_a(1.0, 1e-8, 1e-8)
FLAT_SCALE = ScaleGammaPrior(1e-8, 1e-8)
FLAT_POLY = PolyShapePrior(1.0, 0.0, 0.0)


class TestSufficientStats:
    def test_hand_values(self):
        s = compute_stats([1.0, 2.0, 4.0])
        assert s.n == 3
        assert s.mean == pytest.approx(7 / 3, rel=1e-15)
        assert s.var == pytest.approx(7 / 3, rel=1e-14)
        assert s.sum_inv == pytest.approx(1.75, rel=1e-15)
        assert s.sum_log == pytest.approx(math.log(8.0), rel=1e-14)
        assert s.sum_log == pytest.approx(2.0794415, abs=1e-7)
        assert s.mean_log == pytest.approx(s.sum_log / 3, rel=1e-15)

    def test_constant_sample_has_zero_variance(self):
        s = compute_stats([3.7] * 8)
        assert s.var == 0.0

    def test_single_sample_variance_unavailable(self):
        s = compute_stats([1.0])
        assert s.n == 1
        assert math.isnan(s.var)

    @pytest.mark.parametrize("fields", [
        (-1, math.nan, math.nan, 0.0, 0.0, 0.0),
        (3, -1.0, 1.0, 1.0, 0.0, 0.0),
        (3, 0.0, 1.0, 1.0, 0.0, 0.0),
    ])
    def test_rejects_impossible_fields(self, fields):
        with pytest.raises(ValueError):
            SufficientStats(*fields)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            compute_stats([1.0, -1.0])
        with pytest.raises(ValueError):
            compute_stats([1.0, math.inf])
        # A zero reaches no fitter, whose sum(1/x) would overflow instead.
        with pytest.raises(ValueError,
                           match=r"^samples must be finite and > 0$"):
            compute_stats([0.0, 1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            compute_stats([])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 9),
           n=st.one_of(st.integers(1, 3), st.integers(4, 3000)),
           scale=st.sampled_from([1.0, 1e-300, 1e300]))
    def test_rows_reduce_as_one_row_alone(self, seed, rows, n, scale):
        # Each row of the row reduction has the bits of the 1-d reduction:
        # pairwise sums, one BLAS dot and the C library's logs, computed
        # here row by row; overflowing statistics included.
        x = scale * np.random.default_rng(seed).gamma(2.0, size=(rows, n))
        x[x == 0.0] = 1.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            got = estimators._row_stats(x)
            for i, a in enumerate(x.copy()):
                mu = a.mean()
                dev = a - mu
                var = np.dot(dev, dev) / (n - 1) if n >= 2 else math.nan
                sum_log = np.sum(np.fromiter(map(math.log, a.tolist()),
                                             np.float64, n))
                want = (mu, var, np.sum(1.0 / a), sum_log, sum_log / n)
                np.testing.assert_array_equal([col[i] for col in got], want)


    @pytest.mark.parametrize("n", [200_000, 1_000_000])
    def test_holds_one_temporary(self, n):
        # Beside its input: the deviations, then 1/x, then the logs, one at
        # a time.  Keeping the deviations through 1/x read 2.0 x 8n.
        x = 1.0 + np.random.default_rng(0).random(n)
        assert traced_peak(compute_stats, x) <= 1.1 * 8 * n


class TestMethodOfMoments:
    def test_hand_values(self):
        r = fit_mm(compute_stats([1.0, 2.0, 4.0]))
        assert r.params.alpha == pytest.approx(13 / 3, rel=1e-14)
        assert r.params.beta == pytest.approx(70 / 9, rel=1e-14)
        assert r.iterations == 0 and r.converged and r.residual == 0.0

    def test_synthetic_moments(self):
        s = SufficientStats(10, 5.0, 5.0, 1.0, 0.0, 0.0)
        r = fit_mm(s)
        assert r.params.alpha == pytest.approx(7.0, abs=0)
        assert r.params.beta == pytest.approx(30.0, abs=0)

    def test_exact_moment_roundtrip(self):
        m, v = moments(InvGammaParams(4, 9))
        r = fit_mm(SufficientStats(10, m, v, 1.0, 0.0, 0.0))
        assert r.params.alpha == 4.0
        assert r.params.beta == 9.0

    def test_moment_map_inversion_grid(self):
        for alpha in (2.1, 3.0, 7.5, 40.0):
            for beta in (0.2, 1.0, 25.0):
                m, v = moments(InvGammaParams(alpha, beta))
                r = fit_mm(SufficientStats(10, m, v, 1.0, 0.0, 0.0))
                assert r.params.alpha == pytest.approx(alpha, rel=1e-12)
                assert r.params.beta == pytest.approx(beta, rel=1e-12)

    def test_alpha_always_above_two(self):
        for i in range(10):
            _, stats = make_dataset(i)
            assert fit_mm(stats).params.alpha > 2.0

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateSampleError):
            fit_mm(compute_stats([2.0, 2.0, 2.0]))
        with pytest.raises(InsufficientDataError):
            fit_mm(compute_stats([2.0]))


class TestLogLikelihood:
    def test_matches_pointwise_density(self):
        xs = [1.0, 2.0, 4.0]
        p = InvGammaParams(2, 3)
        total = sum(log_pdf(p, x) for x in xs)
        assert log_likelihood(compute_stats(xs), p) == pytest.approx(total, rel=1e-10)

    def test_single_unit_sample(self):
        assert log_likelihood(compute_stats([1.0]),
                              InvGammaParams(1, 1)) == pytest.approx(-1.0, abs=1e-15)

    def test_beta_stationarity(self):
        s = compute_stats([0.8, 1.9, 3.3, 4.1, 0.4])
        for alpha in (0.7, 2.0, 11.0):
            beta0 = ml_beta_given_alpha(s, alpha)
            h = 1e-6 * beta0
            fd = (log_likelihood(s, InvGammaParams(alpha, beta0 + h))
                  - log_likelihood(s, InvGammaParams(alpha, beta0 - h))) / (2 * h)
            assert fd == pytest.approx(0.0, abs=1e-5)


class TestProfileLogLikelihood:
    def test_equals_likelihood_at_conditional_maximum(self):
        s = compute_stats([1.0, 2.0, 4.0])
        for alpha in (0.5, 1.0, 2.0, 9.0):
            full = log_likelihood(s, InvGammaParams(alpha, ml_beta_given_alpha(s, alpha)))
            assert profile_log_likelihood(s, alpha) == pytest.approx(full, rel=1e-10)

    def test_tangent_bound(self):
        # alpha log alpha dominates its tangent line everywhere
        rng = np.random.default_rng(17)
        for _ in range(500):
            a, a0 = np.exp(rng.uniform(-6, 6, 2))
            lhs = a * math.log(a)
            rhs = (1.0 + math.log(a0)) * (a - a0) + a0 * math.log(a0)
            assert lhs >= rhs - 1e-9 * max(1.0, abs(lhs))


class TestConditionalBeta:
    def test_hand_value(self):
        s = compute_stats([1.0, 2.0, 4.0])
        assert ml_beta_given_alpha(s, 2.0) == pytest.approx(24 / 7, rel=1e-14)

    def test_linear_in_alpha(self):
        s = compute_stats([1.0, 2.0, 4.0])
        assert ml_beta_given_alpha(s, 4.0) == pytest.approx(
            2 * ml_beta_given_alpha(s, 2.0), rel=1e-15)

    def test_scales_with_sample(self):
        x = np.array([0.5, 1.5, 2.5, 6.0])
        for scale in (0.1, 7.0):
            b1 = ml_beta_given_alpha(compute_stats(x), 3.0)
            b2 = ml_beta_given_alpha(compute_stats(scale * x), 3.0)
            assert b2 == pytest.approx(scale * b1, rel=1e-12)


class TestQuadApprox:
    def test_k2_hand_value(self):
        s = compute_stats([1.0, 2.0, 4.0])
        q = quad_approx_coeffs(s, 1.0)
        assert q.k2 == pytest.approx(3 * (math.pi ** 2 / 6 - 1), rel=1e-10)
        assert q.k2 == pytest.approx(1.9348022, abs=1e-7)
        assert q.k2 >= 0.0

    def test_value_matches_at_expansion_point(self):
        _, s = make_dataset(0)
        for alpha in (0.6, 2.2, 9.0):
            q = quad_approx_coeffs(s, alpha)
            f = q.k0 + q.k1 * alpha + q.k2 * math.log(alpha)
            assert f == pytest.approx(profile_log_likelihood(s, alpha), rel=1e-12)

    def test_first_derivative_matches_finite_difference(self):
        _, s = make_dataset(1)
        for alpha in (0.7, 3.0, 12.0):
            q = quad_approx_coeffs(s, alpha)
            h = 1e-6 * alpha
            fd = (profile_log_likelihood(s, alpha + h)
                  - profile_log_likelihood(s, alpha - h)) / (2 * h)
            assert q.k1 + q.k2 / alpha == pytest.approx(fd, rel=1e-6)

    def test_second_derivative_matches_finite_difference(self):
        _, s = make_dataset(2)
        for alpha in (0.9, 4.0, 10.0):
            q = quad_approx_coeffs(s, alpha)
            h = 1e-3 * alpha
            fd = (profile_log_likelihood(s, alpha + h)
                  - 2 * profile_log_likelihood(s, alpha)
                  + profile_log_likelihood(s, alpha - h)) / (h * h)
            assert -q.k2 / alpha ** 2 == pytest.approx(fd, rel=1e-5)


class TestMl1:
    def test_demo_recovery(self, demo_truth, demo_stats):
        r = fit_ml1(demo_stats)
        assert r.converged
        assert 8.5 <= r.params.alpha <= 11.5
        assert kl_divergence(demo_truth, r.params) < 0.01

    def test_fixed_point_identity(self, demo_stats):
        r = fit_ml1(demo_stats)
        s = demo_stats
        lhs = digamma(r.params.alpha)
        rhs = math.log(s.n * r.params.alpha) - math.log(s.sum_inv) - s.mean_log
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_improves_on_moment_estimate(self):
        for i in range(6):
            _, s = make_dataset(i)
            assert (profile_log_likelihood(s, fit_ml1(s).params.alpha)
                    >= profile_log_likelihood(s, fit_mm(s).params.alpha))

    def test_monotone_likelihood_ascent(self, demo_stats):
        """Replaying the update map shows non-decreasing profile
        log-likelihood, and stopping by the same rule lands on the
        fitted alpha."""
        s = demo_stats
        c_const = -math.log(s.sum_inv) - s.mean_log
        alpha = fit_mm(s).params.alpha
        prev = profile_log_likelihood(s, alpha)
        at_stop = None
        for _ in range(500):
            nxt = inv_digamma(math.log(s.n * alpha) + c_const)
            if at_stop is None and abs(nxt - alpha) / alpha <= 1e-6:
                at_stop = nxt
            alpha = nxt
            cur = profile_log_likelihood(s, alpha)
            assert cur >= prev - 1e-9 * abs(prev)
            prev = cur
        assert at_stop == pytest.approx(fit_ml1(s).params.alpha, rel=1e-12)

    def test_report_invariants(self):
        _, s = make_dataset(3)
        r = fit_ml1(s)
        assert r.converged and r.residual <= 1e-6
        r2 = fit_ml1(s, ConvergenceConfig(rel_tol=1e-6, max_iter=2))
        assert not r2.converged and r2.iterations == 2

    def test_requires_moment_initialization(self):
        with pytest.raises(DegenerateSampleError):
            fit_ml1(compute_stats([5.0, 5.0]))


class TestMl2:
    def test_agrees_with_ml1(self):
        worst = 0.0
        for i in range(100):
            _, s = make_dataset(i)
            a1 = fit_ml1(s).params
            a2 = fit_ml2(s).params
            worst = max(worst,
                        abs(a1.alpha - a2.alpha) / a1.alpha,
                        abs(a1.beta - a2.beta) / a1.beta)
        assert worst < 1e-4

    def test_fast_convergence(self, demo_truth):
        for n in (500, 2500, 5000):
            rng = np.random.default_rng(7)
            s = compute_stats(sample(demo_truth, n, rng))
            r = fit_ml2(s)
            assert r.converged and r.iterations <= 10

    def test_same_fixed_point_as_ml1(self, demo_stats):
        r = fit_ml2(demo_stats)
        s = demo_stats
        lhs = digamma(r.params.alpha)
        rhs = math.log(s.n * r.params.alpha) - math.log(s.sum_inv) - s.mean_log
        assert lhs == pytest.approx(rhs, abs=1e-6)


class TestScalePosterior:
    def test_hand_values(self):
        from invgamma import scale_posterior
        s = compute_stats([1.0, 2.0, 4.0])
        d_hat, e_hat, beta_hat = scale_posterior(s, ScaleGammaPrior(0.01, 0.01), 2.0)
        assert d_hat == pytest.approx(6.01, rel=1e-14)
        assert e_hat == pytest.approx(1.76, rel=1e-14)
        assert beta_hat == pytest.approx(6.01 / 1.76, rel=1e-14)
        assert beta_hat == pytest.approx(3.4147727, abs=1e-7)

    def test_vague_prior_limit_is_conditional_ml(self):
        from invgamma import scale_posterior
        s = compute_stats([1.0, 2.0, 4.0])
        _, _, beta_hat = scale_posterior(s, ScaleGammaPrior(1e-12, 1e-12), 2.0)
        assert beta_hat == pytest.approx(ml_beta_given_alpha(s, 2.0), rel=1e-12)

    def test_no_data_returns_prior_mean(self):
        from invgamma import scale_posterior
        _, _, beta_hat = scale_posterior(SufficientStats.empty(),
                                         ScaleGammaPrior(3.0, 1.5), 2.0)
        assert beta_hat == pytest.approx(2.0, rel=1e-15)


class TestBl1:
    def test_posterior_hyperparameters(self):
        s = compute_stats([1.0, 2.0, 4.0])
        prior = ShapePriorABC.with_a(1.0, 0.01, 0.01)
        log_a_hat = prior.log_a + s.sum_log
        assert log_a_hat == pytest.approx(2.0794415, abs=1e-7)
        assert prior.b + s.n == pytest.approx(3.01)
        assert prior.c + s.n == pytest.approx(3.01)

    def test_demo_recovery_and_map_consistency(self, demo_truth, demo_stats):
        r = fit_bl1(demo_stats)
        assert r.converged
        assert 8.5 <= r.params.alpha <= 11.5
        grid = np.linspace(7.0, 13.0, 601)
        curve = bl1_log_posterior_curve(demo_stats, ShapePriorABC(),
                                        ScaleGammaPrior(), grid)
        step = grid[1] - grid[0]
        assert abs(grid[np.argmax(curve)] - r.params.alpha) <= step

    def test_matches_ml1_in_flat_limit(self):
        for i in range(20):
            _, s = make_dataset(i)
            rb = fit_bl1(s, FLAT_SHAPE, FLAT_SCALE).params
            rm = fit_ml1(s).params
            assert abs(rb.alpha - rm.alpha) / rm.alpha < 1e-3
            assert abs(rb.beta - rm.beta) / rm.beta < 1e-3

    def test_laplace_summary(self, demo_stats):
        r = fit_bl1(demo_stats)
        b_hat = 0.01 + demo_stats.n
        assert r.posterior.mean == r.params.alpha
        assert r.posterior.precision == pytest.approx(
            b_hat * trigamma(r.params.alpha), rel=1e-12)


class TestBl1PosteriorCurve:
    def test_concave_on_grid(self, demo_stats):
        grid = np.linspace(5.0, 18.0, 200)
        curve = bl1_log_posterior_curve(demo_stats, ShapePriorABC(),
                                        ScaleGammaPrior(), grid)
        assert np.all(np.diff(curve, 2) < 0)

    def test_no_data_reduces_to_prior(self):
        grid = np.linspace(0.5, 20.0, 50)
        prior = ShapePriorABC.with_a(2.0, 0.5, 0.5)
        scale = ScaleGammaPrior(0.8, 0.4)
        curve = bl1_log_posterior_curve(SufficientStats.empty(), prior, scale, grid)
        beta0 = scale.d / scale.e
        expected = ((-grid - 1.0) * prior.log_a
                    + grid * prior.c * math.log(beta0)
                    - prior.b * np.array([math.lgamma(a) for a in grid]))
        np.testing.assert_allclose(curve, expected, rtol=1e-12)

    def test_rejects_bad_grid(self, demo_stats):
        with pytest.raises(ValueError):
            bl1_log_posterior_curve(demo_stats, ShapePriorABC(),
                                    ScaleGammaPrior(), [1.0, -2.0])

    @pytest.mark.parametrize("beta_hat", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_beta_hat(self, demo_stats, beta_hat):
        with pytest.raises(ValueError, match=f"^beta_hat must be finite and "
                                             f"> 0, got {beta_hat!r}$"):
            bl1_log_posterior_curve(demo_stats, ShapePriorABC(),
                                    ScaleGammaPrior(), [1.0, 2.0],
                                    beta_hat=beta_hat)

    @pytest.mark.parametrize("hi", [1e305, 1e308])
    def test_rejects_grid_beyond_float64(self, demo_stats, hi):
        # lgamma overflows at 1e308; the sum of the terms at 1e305.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float64"):
                bl1_log_posterior_curve(demo_stats, ShapePriorABC(),
                                        ScaleGammaPrior(), [2.0, hi])

    def test_matches_lgamma_comprehension_bitwise(self, demo_stats):
        # Reference: the curve with a math.lgamma list comprehension.
        grid = np.concatenate([np.linspace(0.5, 20.0, 181),
                               np.geomspace(1e-3, 1e6, 97)])
        sp, scale = ShapePriorABC.with_a(2.0, 0.5, 0.5), ScaleGammaPrior()
        beta_hat = 2.5
        for stats in (SufficientStats.empty(), demo_stats):
            curve = bl1_log_posterior_curve(stats, sp, scale, grid,
                                            beta_hat=beta_hat)
            want = ((-grid - 1.0) * (sp.log_a + stats.sum_log)
                    + grid * (sp.c + stats.n) * math.log(beta_hat)
                    - (sp.b + stats.n) * np.array([math.lgamma(a) for a in grid]))
            assert curve.tobytes() == want.tobytes()


class TestBl2:
    def test_flat_prior_equals_ml2(self):
        for i in range(20):
            _, s = make_dataset(i)
            rb = fit_bl2(s, FLAT_POLY, FLAT_SCALE).params
            rm = fit_ml2(s).params
            assert abs(rb.alpha - rm.alpha) / rm.alpha < 1e-6
            assert abs(rb.beta - rm.beta) / rm.beta < 1e-6

    def test_demo_recovery(self, demo_truth, demo_stats):
        r = fit_bl2(demo_stats, FLAT_POLY, ScaleGammaPrior(0.01, 0.01))
        assert r.converged
        assert kl_divergence(demo_truth, r.params) < 0.01

    def test_laplace_summary(self, demo_stats):
        r = fit_bl2(demo_stats)
        assert r.posterior.mean == pytest.approx(r.params.alpha, rel=1e-5)
        a = r.params.alpha
        k2 = demo_stats.n * (a * a * trigamma(a) - a)
        assert r.posterior.precision == pytest.approx(k2 / (a * a), rel=1e-5)

    def test_w0_never_influences_estimate(self, demo_stats):
        r1 = fit_bl2(demo_stats, PolyShapePrior(1.0, 0.0, 0.0))
        r2 = fit_bl2(demo_stats, PolyShapePrior(123.0, 0.0, 0.0))
        assert r1.params == r2.params
        assert r1.iterations == r2.iterations

    def test_invalid_posterior_raises(self, demo_stats):
        # a huge positive linear weight removes the interior maximum
        with pytest.raises(InvalidPosteriorError):
            fit_bl2(demo_stats, PolyShapePrior(1.0, 1e12, 0.0))


class TestScalarGolden:
    """Every field of the scalar fit reports, posterior summaries included,
    and the surrogate coefficients, pinned on the demonstration sample."""

    OPTIONS = (
        FitOptions(),
        FitOptions(shape_prior=ShapePriorABC.with_a(2.0, 0.5, 0.5),
                   scale_prior=ScaleGammaPrior(2.0, 0.5),
                   poly_prior=PolyShapePrior(0.0, -1.0, 3.0)),
    )

    def test_reports_digest(self, demo_stats):
        lines = []
        for o in self.OPTIONS:
            reports = (
                fit_mm(demo_stats),
                fit_ml1(demo_stats, o.conv),
                fit_ml2(demo_stats, o.conv),
                fit_bl1(demo_stats, o.shape_prior, o.scale_prior, o.conv),
                fit_bl2(demo_stats, o.poly_prior, o.scale_prior, o.conv),
            )
            for name, r in zip(ESTIMATORS, reports):
                post = r.posterior
                lines.append(repr((
                    name, r.params.alpha, r.params.beta, r.iterations,
                    r.converged, r.residual,
                    None if post is None else (post.mean, post.precision))))
        q = quad_approx_coeffs(demo_stats, 7.0)
        lines.append(repr((q.k0, q.k1, q.k2, q.expansion_point)))
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "cdd93b4a2b7825e1f2d621ca2cd0445ad5a53e6b0bf2d9315aba07b8c86631e3"
        ), text


class TestScaleEquivariance:
    def test_alpha_invariant_beta_scales(self):
        # The BL prior constants do not scale with the data, so hitting
        # 1e-9 needs priors flatter than the usual 1e-8 stand-in.
        shape0 = ShapePriorABC.with_a(1.0, 1e-12, 1e-12)
        scale0 = ScaleGammaPrior(1e-12, 1e-12)
        x = sample(InvGammaParams(6, 12), 400, np.random.default_rng(21))
        s1 = compute_stats(x)
        s2 = compute_stats(5.0 * x)
        fits = [
            (fit_mm(s1), fit_mm(s2)),
            (fit_ml1(s1), fit_ml1(s2)),
            (fit_ml2(s1), fit_ml2(s2)),
            (fit_bl1(s1, shape0, scale0), fit_bl1(s2, shape0, scale0)),
            (fit_bl2(s1, FLAT_POLY, scale0), fit_bl2(s2, FLAT_POLY, scale0)),
        ]
        for r1, r2 in fits:
            assert r2.params.alpha == pytest.approx(r1.params.alpha, rel=1e-9)
            assert r2.params.beta == pytest.approx(5.0 * r1.params.beta, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.6, 50.0), log_beta=st.floats(-5.0, 5.0),
           n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1),
           j=st.integers(-400, 400))
    def test_powers_of_two(self, alpha, log_beta, n, seed, j):
        # Scaling by 2**j is exact on normal values, so the moments scale
        # exactly and MM keeps every bit.  ML1/ML2 see log x + j*log 2,
        # which rounds by about eps*|mean log x|; their shape solves
        # log mean(1/x) + mean log x ~ 1/(2*alpha), so that rounding moves
        # alpha by a relative 2*alpha*eps*|mean log x|: 1e-6 when n = 2
        # near-equal values give an alpha in the millions.  BL1/BL2 are
        # left out: their priors are in absolute units.
        x = sample(InvGammaParams(alpha, math.exp(log_beta)), n,
                   np.random.default_rng(seed))
        y = np.ldexp(x, j)
        tiny, huge = np.finfo(np.float64).tiny, np.finfo(np.float64).max
        assume(all(((v >= tiny) & (v <= huge)).all() for v in (x, y)))
        s1, s2 = compute_stats(x), compute_stats(y)
        r1, r2 = fit_mm(s1), fit_mm(s2)
        assert r2.params.alpha == r1.params.alpha
        assert r2.params.beta == math.ldexp(r1.params.beta, j)
        eps = np.finfo(np.float64).eps
        for fit in (fit_ml1, fit_ml2):
            r1, r2 = fit(s1), fit(s2)
            rel = 1e-10 + 8 * eps * r1.params.alpha * (abs(s1.mean_log)
                                                      + abs(s2.mean_log))
            assert r2.params.alpha == pytest.approx(r1.params.alpha, rel=rel)
            assert r2.params.beta == pytest.approx(
                math.ldexp(r1.params.beta, j), rel=rel)


class TestFixedPointIdentity:
    def test_all_converged_fits_satisfy_it(self):
        tol = 1e-6
        for i in range(20):
            _, s = make_dataset(i)
            for fitter in (fit_ml1, fit_ml2):
                r = fitter(s, ConvergenceConfig(rel_tol=tol))
                assert r.converged
                a = r.params.alpha
                gap = abs(digamma(a) - math.log(s.n * a)
                          + math.log(s.sum_inv) + s.mean_log)
                assert gap <= 10 * tol


class TestFixedPointStops:
    def test_nan_step_stops_at_once(self, monkeypatch, demo_stats):
        # NaN is absorbing for every update rule, so the loop stops at the
        # first NaN step instead of running out its iteration cap.
        calls = []

        def nan_inv_digamma(y):
            calls.append(y)
            return math.nan

        monkeypatch.setattr(specfun._FLOAT_OPS, "inv_digamma", nan_inv_digamma)
        for fitter in (fit_ml1, fit_bl1):
            calls.clear()
            with pytest.raises(DegenerateSampleError,
                               match="alpha=nan, beta=nan is not finite"):
                fitter(demo_stats)
            assert len(calls) == 1, fitter.__name__

    def test_near_constant_surrogate_is_degenerate(self):
        # The moment estimate is about 2e31, where 1/alpha - trigamma(alpha)
        # rounds to zero and the ML2 update divides by it.
        s = compute_stats([1.0101] * 20)
        with pytest.raises(DegenerateSampleError, match="too close to constant"):
            fit_ml2(s)


_DEMO_50 = sample(InvGammaParams(10, 25), 50, np.random.default_rng(1))
_TOO_SMALL = (InsufficientDataError,
              "moment initialization needs n >= 2, got n=1")
_ZERO_VAR = (DegenerateSampleError, "sample variance is zero or undefined")
_MOMENTS = (DegenerateSampleError, "moment estimate of alpha is nan: the "
            "sample's moments overflow float64")

# Each input (its values, or its stats), the options it is fitted with,
# and what each estimator that refuses it raises, in ``_fit``'s order of
# refusals.  The estimators left out of an entry fit that input.
REFUSALS = {
    "n < 2": ([2.0], FitOptions(), dict.fromkeys(ESTIMATORS, _TOO_SMALL)),
    "zero variance": ([3.0, 3.0], FitOptions(),
                      dict.fromkeys(ESTIMATORS, _ZERO_VAR)),
    "moment overflow": ([1e308, 1.5e308, 1e307], FitOptions(),
                        dict.fromkeys(ESTIMATORS, _MOMENTS)),
    "sum(1/x) overflows": (
        [2.83233e-318, 2613.711528902175], FitOptions(),
        {name: (DegenerateSampleError, f"sum(1/x) overflows float64, so "
                f"the {name} update is undefined")
         for name in ("ML1", "ML2", "BL1", "BL2")}),
    # A hand-built sum of logs; MM reads none.
    "sum(log x) is infinite": (
        SufficientStats(3, 1.0, 1.0, 1.0, math.inf, math.inf), FitOptions(),
        {name: (DegenerateSampleError, f"sum(log x) overflows float64, so "
                f"the {name} update is undefined")
         for name in ("ML1", "ML2", "BL1", "BL2")}),
    "e + sum(1/x) overflows": (
        [1e-300, 1.0],
        FitOptions(scale_prior=ScaleGammaPrior(0.01, 1.7976931348623157e308)),
        {"BL1": (DegenerateSampleError, "e + sum(1/x) overflows float64, so "
                 "the BL1 update is undefined"),
         "BL2": (DegenerateSampleError, "BL2 estimate "
                 "alpha=0.0028573063986484966, beta=0.0 is not finite and > 0")}),
    "ML2 divides by zero": (
        [1.0101] * 20, FitOptions(),
        {"ML2": (DegenerateSampleError, "update divides by zero at "
                 "alpha=1.96595e+31; the sample is too close to constant")}),
    "BL2 divides by zero": (
        [1.0] * 19 + [1.0000000001], FitOptions(),
        {"ML2": (DegenerateSampleError, "update divides by zero at "
                 "alpha=2e+21; the sample is too close to constant"),
         "BL2": (DegenerateSampleError, "update divides by zero at "
                 "alpha=1.15901e+14; the sample is too close to constant")}),
    # w2 cancels k2 at the moment start to a few ulps, so BL2's first step
    # is 5e-324 and its second falls back to sqrt(5e-324 * 1e-8) = 0,
    # from which a float step would take log 0.
    "BL2 falls to zero": (
        [1.0, 2.0, 4.0],
        FitOptions(poly_prior=PolyShapePrior(1.0, -1e308, -1.6141992902240303)),
        {"BL2": (DegenerateSampleError, "BL2 estimate alpha=0.0, "
                 "beta=0.005681818181818182 is not finite and > 0")}),
    "no interior maximum": (
        _DEMO_50, FitOptions(poly_prior=PolyShapePrior(1.0, 1e12, 0.0)),
        {"BL2": (InvalidPosteriorError, "posterior has no interior maximum "
                 "(Laplace mean -4.9999999542209035e-11, precision "
                 "4.9999937691860576e+17)")}),
    "estimate not finite": (
        _DEMO_50, FitOptions(shape_prior=ShapePriorABC.with_a(1.0, 0.01, 0.5)),
        {"BL1": (DegenerateSampleError, "BL1 estimate alpha=inf, beta=inf is "
                 "not finite and > 0")}),
}


class TestRefusals:
    """Every way a scalar fit refuses a sample, with its exact message."""

    @pytest.mark.parametrize("case", REFUSALS)
    def test_type_and_message(self, case, monkeypatch):
        # fit_batch keeps the reason the scalar fit raises with, whether
        # the row runs on floats or on arrays.
        x, options, refusals = REFUSALS[case]
        s = x if isinstance(x, SufficientStats) else compute_stats(x)
        batch = StatsBatch.pack([s])
        for name in ESTIMATORS:
            reason = 0
            if name not in refusals:
                fit_by_name(name, s, options)
            else:
                with pytest.raises(refusals[name][0]) as info:
                    fit_by_name(name, s, options)
                assert type(info.value) is refusals[name][0], name
                assert str(info.value) == refusals[name][1], name
                reason = info.value.reason
                assert estimators._REFUSALS[reason - 1][0] is type(info.value)
            for rows in (SCALAR_ROWS, 0):
                monkeypatch.setattr(estimators, "_SCALAR_ROWS", rows)
                got = fit_batch(name, batch, options)
                assert got.reason.tolist() == [reason], (name, rows)
                assert got.failed.tolist() == [reason != 0], (name, rows)

    def test_no_data(self):
        with pytest.raises(InsufficientDataError,
                           match=r"^moment initialization needs n >= 2, "
                                 r"got n=0$"):
            fit_ml1(SufficientStats.empty())

    @pytest.mark.parametrize("case, most", [
        ("n < 2", 1), ("zero variance", 1), ("moment overflow", 1),
        ("sum(1/x) overflows", 64)])
    def test_refusal_is_cheap(self, monkeypatch, case, most):
        # A refused sample costs at most a few steps, not max_iter (1000).
        x, options, refusals = REFUSALS[case]
        s = compute_stats(x)
        for name in ("ML1", "ML2", "BL1", "BL2"):
            est = estimators._ESTIMATORS[name]
            calls = []

            def counting(*args, step=est.step):
                calls.append(args[1])
                return step(*args)

            monkeypatch.setitem(estimators._ESTIMATORS, name,
                                est._replace(step=counting))
            with pytest.raises(refusals[name][0], match=re.escape(
                    refusals[name][1])):
                fit_by_name(name, s, options)
            assert len(calls) <= most, (name, len(calls))


class TestFloat64Limits:
    """Samples whose statistics overflow float64 give a typed error, with no
    numpy warning, and fail in ``fit_batch`` where the scalar fit raises."""

    SAMPLES = ([1e308, 1.5e308, 1e307], [1e-320, 2e-320, 3e-320])

    @pytest.mark.parametrize("x", SAMPLES)
    def test_degenerate_without_warnings(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = compute_stats(x)
            for name in ESTIMATORS:
                with pytest.raises(DegenerateSampleError):
                    fit_by_name(name, s, FitOptions())
        fit = {name: fit_batch(name, StatsBatch.pack([s, s])).failed.tolist()
               for name in ESTIMATORS}
        assert fit == {name: [True, True] for name in ESTIMATORS}

    def test_overflowing_moment_estimate(self):
        s = compute_stats([1e308, 1.5e308, 1e307])
        assert math.isinf(s.mean)
        with pytest.raises(DegenerateSampleError, match="overflow float64"):
            fit_mm(s)


class TestMlAgreement:
    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(2.5, 15.0), beta=st.floats(1.0, 50.0),
           n=st.integers(20, 5000), seed=st.integers(0, 2 ** 32 - 1))
    def test_ml1_matches_ml2(self, alpha, beta, n, seed):
        # ML1 stops about 2 alpha rel_tol short of the fixed point ML2
        # reaches, which exceeds 1e-4 only for alpha_hat above about 50.
        x = sample(InvGammaParams(alpha, beta), n, np.random.default_rng(seed))
        s = compute_stats(x)
        cfg = ConvergenceConfig()
        r1, r2 = fit_ml1(s, cfg), fit_ml2(s, cfg)
        assert r1.converged and r2.converged
        a1 = r1.params.alpha
        assert abs(a1 - r2.params.alpha) / a1 <= max(1e-4, 3 * cfg.rel_tol * a1)


class TestConfigValidation:
    def test_stats_below_two_values_have_no_variance(self):
        # The n-1 variance of fewer than two values is undefined.
        with pytest.raises(ValueError, match="var must be NaN when n < 2"):
            SufficientStats(1, 2.0, 1.0, 0.5, 0.7, 0.7)

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf])
    @pytest.mark.parametrize("at", [
        ml_beta_given_alpha,
        profile_log_likelihood,
        quad_approx_coeffs,
        lambda s, a: scale_posterior(s, ScaleGammaPrior(), a),
    ], ids=["ml_beta_given_alpha", "profile_log_likelihood",
            "quad_approx_coeffs", "scale_posterior"])
    def test_functions_of_alpha_reject_it_outside_the_domain(self, at, alpha):
        with pytest.raises(ValueError, match=f"^alpha must be finite and > 0, "
                                             f"got {alpha!r}$"):
            at(compute_stats([1.0, 2.0, 4.0]), alpha)

    def test_convergence_config(self):
        with pytest.raises(ValueError):
            ConvergenceConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            ConvergenceConfig(max_iter=0)

    def test_priors(self):
        with pytest.raises(ValueError):
            ScaleGammaPrior(0.0, 1.0)
        with pytest.raises(ValueError):
            ScaleGammaPrior(1.0, math.inf)
        with pytest.raises(ValueError):
            ShapePriorABC(0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            ShapePriorABC(0.0, 1.0, math.inf)
        with pytest.raises(ValueError):
            PolyShapePrior(math.nan, 0.0, 0.0)


# Option sets for the batch oracle: the defaults, an iteration cap that
# stops the ML1/BL1 fixed points early, a BL2 prior whose posterior has no
# interior maximum, and informative priors for both Bayesian fitters.
BATCH_OPTIONS = (
    FitOptions(),
    FitOptions(conv=ConvergenceConfig(max_iter=2)),
    FitOptions(poly_prior=PolyShapePrior(1.0, 1e12, 0.0)),
    FitOptions(shape_prior=ShapePriorABC.with_a(2.0, 0.5, 0.5),
               scale_prior=ScaleGammaPrior(2.0, 0.5),
               poly_prior=PolyShapePrior(0.0, -1.0, 3.0)),
    # c > b: BL1's alpha can run away to inf.
    FitOptions(shape_prior=ShapePriorABC.with_a(1.0, 0.01, 0.5)),
    # BL2's alpha falls to ~1e-307, where trigamma is +inf.
    FitOptions(poly_prior=PolyShapePrior(1.0, -1e308, 0.0)),
)
# What the scalar fitters raise: the domain errors, including the
# DegenerateSampleError of ML2/BL2 on near-constant samples and of a
# non-finite or non-positive estimate.
SCALAR_RAISES = (InsufficientDataError, DegenerateSampleError,
                 InvalidPosteriorError)


@st.composite
def stats_rows(draw):
    """Sufficient statistics of one sample: n in {1, 2, 3, 20, 5000}, a
    truth with alpha from 0.3 to 300, or a constant sample, whose variance
    is zero or at rounding level."""
    n = draw(st.sampled_from((1, 2, 3, 20, 5000)))
    beta = draw(st.floats(0.1, 100.0))
    if draw(st.integers(0, 4)) == 0:
        return compute_stats(np.full(n, beta))
    alpha = math.exp(draw(st.floats(math.log(0.3), math.log(300.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return compute_stats(sample(InvGammaParams(alpha, beta), n, rng))


class TestFitBatch:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(stats_rows(), min_size=1, max_size=6),
           options=st.sampled_from(BATCH_OPTIONS))
    def test_matches_scalar_fits_bitwise(self, rows, options):
        batch = StatsBatch.pack(rows)
        for name in ESTIMATORS:
            got = fit_batch(name, batch, options)
            assert (got.failed == (got.reason != 0)).all(), name
            for k, stats in enumerate(rows):
                try:
                    want = fit_by_name(name, stats, options)
                except SCALAR_RAISES as exc:
                    assert got.reason[k] == exc.reason, (name, stats)
                    assert got.failed[k], (name, stats)
                    continue
                assert got.reason[k] == 0, (name, stats)
                assert not got.failed[k], (name, stats)
                assert (got.alpha[k], got.beta[k], got.iterations[k],
                        got.converged[k], got.residual[k]) == (
                    want.params.alpha, want.params.beta, want.iterations,
                    want.converged, want.residual), (name, stats)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(stats_rows(), min_size=1, max_size=6),
           options=st.sampled_from(BATCH_OPTIONS))
    def test_matches_scalar_fits_bitwise_on_arrays(self, rows, options):
        _on_arrays(TestFitBatch.test_matches_scalar_fits_bitwise, self, rows,
                   options)

    def test_failed_elements_are_nan(self):
        # n = 1, a constant sample and moments that overflow float64 start
        # the whole-batch fit at NaN or inf, next to valid rows.
        rows = [compute_stats(x) for x in (
            [2.0], [3.0, 3.0], [1e308, 1.5e308, 1e307], [1.0, 2.0, 4.0],
            [0.5, 3.0, 1.2, 0.8])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ESTIMATORS:
                fit = fit_batch(name, StatsBatch.pack(rows))
                raises = []
                for stats in rows:
                    try:
                        fit_by_name(name, stats, FitOptions())
                        raises.append(False)
                    except SCALAR_RAISES:
                        raises.append(True)
                assert raises == [True, True, True, False, False], name
                assert fit.failed.tolist() == raises, name
                assert fit.reason.dtype == np.int8, name
                assert fit.reason.tolist() == [1, 2, 3, 0, 0], name
                bad = fit.failed
                assert np.isnan(fit.alpha[bad]).all(), name
                assert np.isnan(fit.beta[bad]).all(), name
                assert np.isnan(fit.residual[bad]).all(), name
                assert fit.iterations[bad].tolist() == [0, 0, 0], name
                assert not fit.converged[bad].any(), name

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            fit_batch("XX", StatsBatch.pack([compute_stats([1.0, 2.0])]))


SCALAR_ROWS = estimators._SCALAR_ROWS


def _on_arrays(test, *args):
    # The property tests' batches of up to 6 rows finish on floats from
    # the start; with 0 scalar rows they run on arrays to the end.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_SCALAR_ROWS", 0)
        test.hypothesis.inner_test(*args)


def _sweep_like_rows(count, seed):
    # Samples of 20 or 50 values from truths in the sweep's box.
    rng = np.random.default_rng(seed)
    return [compute_stats(sample(InvGammaParams(rng.uniform(2.5, 15.0),
                                                rng.uniform(1.0, 50.0)),
                                 (20, 50)[i % 2], rng))
            for i in range(count)]


class TestScalarHandOver:
    """Once few rows are live, ``_iterate`` finishes each on floats, with
    the bits of the array loop run to the end."""

    BATCHES = {
        # 40 n = 1 rows leave after one step, and 12 rows finish on floats.
        "one array step": StatsBatch.pack(
            [compute_stats([2.0])] * 40 + _sweep_like_rows(12, 1)),
        "sweep-like": StatsBatch.pack(_sweep_like_rows(60, 2)),
    }
    OPTIONS = {
        "default": FitOptions(),
        "capped": FitOptions(conv=ConvergenceConfig(max_iter=7)),
        "failures": FitOptions(poly_prior=PolyShapePrior(1.0, 1e12, 0.0)),
    }

    @pytest.mark.parametrize("options", sorted(OPTIONS))
    def test_mid_run_hand_over_is_bitwise(self, options, monkeypatch):
        opts = self.OPTIONS[options]
        caps = []
        fixed_point = estimators._fixed_point

        def recording(step, op, alpha, consts, conv):
            caps.append(conv.max_iter)
            return fixed_point(step, op, alpha, consts, conv)

        for batch in self.BATCHES.values():
            for name in ESTIMATORS:
                monkeypatch.setattr(estimators, "_SCALAR_ROWS", 0)
                want = fit_batch(name, batch, opts)
                monkeypatch.setattr(estimators, "_SCALAR_ROWS", SCALAR_ROWS)
                monkeypatch.setattr(estimators, "_fixed_point", recording)
                got = fit_batch(name, batch, opts)
                monkeypatch.setattr(estimators, "_fixed_point", fixed_point)
                for field in ("alpha", "beta", "iterations", "converged",
                              "residual", "reason", "failed"):
                    assert (getattr(got, field).tobytes()
                            == getattr(want, field).tobytes()), (name, field)
        # Every batch's first step runs on arrays, so each run goes on
        # from a step the arrays took.
        assert caps and all(0 < cap < opts.conv.max_iter for cap in caps)
        assert opts.conv.max_iter - 1 in caps

    @pytest.mark.parametrize("rows", [3, 30])
    def test_cap_of_one(self, rows):
        # With max_iter = 1 no step is left after the array loop's one
        # step, and a batch of 3 rows runs its one step on floats.
        batch = StatsBatch.pack(_sweep_like_rows(rows, 3))
        opts = FitOptions(conv=ConvergenceConfig(max_iter=1))
        for name in ("ML1", "BL1"):
            got = fit_batch(name, batch, opts)
            assert got.iterations.tolist() == [1] * rows
            assert got.alpha.tolist() == [
                fit_by_name(name, stats, opts).params.alpha
                for stats in _sweep_like_rows(rows, 3)]


@st.composite
def float64_samples(draw):
    """A positive finite sample of n in {1, 2, 3, 5, 20, 200} values from
    anywhere in float64's range, of one of five kinds: log-uniform over
    2^-1074 .. 2^1023; one scale spread over up to 3 decades; ulp steps
    around one value; an ordinary sample with one outlier scaled by up to
    1e±300; or Inverse Gamma with beta in 1e±300, its draws beyond float64
    clipped to its ends."""
    n = draw(st.sampled_from((1, 2, 3, 5, 20, 200)))
    kind = draw(st.sampled_from(
        ("log-uniform", "spread", "ulps", "outlier", "inverse gamma")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    with np.errstate(all="ignore"):
        if kind == "log-uniform":
            x = np.exp2(rng.uniform(-1074.0, 1023.0, n))
        elif kind == "spread":
            decades = draw(st.floats(0.0, 3.0))
            x = 10.0 ** (draw(st.floats(-320.0, 305.0)) + decades * rng.random(n))
        elif kind == "ulps":
            base = np.float64(10.0 ** draw(st.floats(-300.0, 300.0)))
            x = (base.view(np.int64) + rng.integers(0, 4, n)).view(np.float64)
        elif kind == "outlier":
            x = rng.lognormal(size=n)
            x[rng.integers(n)] *= 10.0 ** draw(st.floats(-300.0, 300.0))
        else:
            alpha = math.exp(draw(st.floats(math.log(0.3), math.log(300.0))))
            beta = 10.0 ** draw(st.floats(-300.0, 300.0))
            x = sample(InvGammaParams(alpha, beta), n, rng)
    return np.clip(x, 5e-324, np.finfo(np.float64).max)


class TestFloat64Contract:
    """Every positive finite sample gets a valid ``FitReport`` or a typed
    error from each estimator, with no numpy warning, and ``fit_batch``
    fails exactly there and otherwise gives the same bits."""

    # A batch holding a slow ML1 or BL1 fit (a large shape, up to 1000
    # steps) costs about 1 ms a step; at this size the test takes 2-4 s.
    @settings(max_examples=25, deadline=None)
    @given(samples=st.lists(float64_samples(), min_size=1, max_size=6))
    def test_fit_or_typed_error(self, samples):
        options = FitOptions()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = [compute_stats(x) for x in samples]
            batch = StatsBatch.pack(rows)
            for name in ESTIMATORS:
                got = fit_batch(name, batch, options)
                assert (got.failed == (got.reason != 0)).all(), name
                for k, stats in enumerate(rows):
                    try:
                        r = fit_by_name(name, stats, options)
                    except SCALAR_RAISES as exc:
                        assert got.reason[k] == exc.reason, (name, stats)
                        assert got.failed[k], (name, stats)
                        continue
                    assert got.reason[k] == 0, (name, stats)
                    assert not got.failed[k], (name, stats)
                    assert 0 <= r.iterations <= options.conv.max_iter
                    assert r.converged == (r.residual <= options.conv.rel_tol)
                    assert (r.posterior is not None) == (name in ("BL1", "BL2"))
                    assert (got.alpha[k], got.beta[k], got.iterations[k],
                            got.converged[k]) == (
                        r.params.alpha, r.params.beta, r.iterations,
                        r.converged), (name, stats)


    @settings(max_examples=25, deadline=None)
    @given(samples=st.lists(float64_samples(), min_size=1, max_size=6))
    def test_fit_or_typed_error_on_arrays(self, samples):
        _on_arrays(TestFloat64Contract.test_fit_or_typed_error, self, samples)
