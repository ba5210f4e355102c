"""Acceptance gate: each test checks one release criterion at its stated
tolerance and prints one PASS line (run with -s to see them inline)."""

import itertools
import math
import time

import numpy as np
import pytest

from invgamma import (
    ConvergenceConfig,
    ExperimentConfig,
    InvGammaParams,
    PolyShapePrior,
    ScaleGammaPrior,
    ShapePriorABC,
    compute_stats,
    digamma,
    fit_bl1,
    fit_bl2,
    fit_ml1,
    fit_ml2,
    fit_mm,
    inv_digamma,
    kl_divergence,
    ln_gamma,
    profile_log_likelihood,
    quad_approx_coeffs,
    run_kl_experiment,
    sample,
    trigamma,
    wilcoxon_rank_sum,
)
from invgamma.harness import kl_by_estimator, records_to_csv
from conftest import make_dataset
from test_distribution import kl_quadrature

BENCH_CONFIG = ExperimentConfig(sizes=(500, 2500), sims_per_size=100,
                                base_seed=2024)


@pytest.fixture(scope="module")
def bench():
    t0 = time.perf_counter()
    records = run_kl_experiment(BENCH_CONFIG)
    return records, time.perf_counter() - t0


def _fit_all(stats):
    return {
        "MM": fit_mm(stats),
        "ML1": fit_ml1(stats),
        "ML2": fit_ml2(stats),
        "BL1": fit_bl1(stats, ShapePriorABC.with_a(1.0, 0.01, 0.01),
                       ScaleGammaPrior(0.01, 0.01)),
        "BL2": fit_bl2(stats, PolyShapePrior(1.0, 0.0, 0.0),
                       ScaleGammaPrior(0.01, 0.01)),
    }


def test_criterion_01_parameter_recovery(demo_truth, demo_stats):
    """Seed-fixed 1000-sample demonstration run recovers the parameters."""
    warm = compute_stats(sample(demo_truth, 50, np.random.default_rng(1)))
    _fit_all(warm)  # compile before timing
    reports = {}
    for name in ("MM", "ML1", "ML2", "BL1", "BL2"):
        t0 = time.perf_counter()
        reports[name] = _fit_all(demo_stats)[name]
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"
    for name, rep in reports.items():
        assert 8.5 <= rep.params.alpha <= 11.5, name
        assert 20.0 <= rep.params.beta <= 32.0, name
    for name in ("ML1", "ML2", "BL1", "BL2"):
        kl = kl_divergence(demo_truth, reports[name].params)
        assert kl < 0.02, (name, kl)
    print("PASS criterion 1: parameter recovery on the (10, 25) demo run")


def test_criterion_02_ml_equivalence():
    """ML1 and ML2 land on the same fixed point on 100 seeded datasets."""
    worst = 0.0
    for i in range(100):
        _, stats = make_dataset(i)
        a1 = fit_ml1(stats).params.alpha
        a2 = fit_ml2(stats).params.alpha
        worst = max(worst, abs(a1 - a2) / a1)
        assert abs(a1 - a2) / a1 < 1e-4
    print(f"PASS criterion 2: ML1/ML2 equivalence (worst rel diff {worst:.2e})")


def test_criterion_03_bayesian_limits():
    """Vague priors collapse BL1 onto ML1 and BL2 onto ML2."""
    shape0 = ShapePriorABC.with_a(1.0, 1e-8, 1e-8)
    scale0 = ScaleGammaPrior(1e-8, 1e-8)
    poly0 = PolyShapePrior(1.0, 0.0, 0.0)
    worst1 = worst2 = 0.0
    for i in range(100):
        _, stats = make_dataset(i)
        m1, b1 = fit_ml1(stats).params, fit_bl1(stats, shape0, scale0).params
        d_alpha = abs(b1.alpha - m1.alpha) / m1.alpha
        d_beta = abs(b1.beta - m1.beta) / m1.beta
        worst1 = max(worst1, d_alpha, d_beta)
        assert d_alpha < 1e-3 and d_beta < 1e-3
        m2, b2 = fit_ml2(stats).params, fit_bl2(stats, poly0, scale0).params
        d_alpha = abs(b2.alpha - m2.alpha) / m2.alpha
        d_beta = abs(b2.beta - m2.beta) / m2.beta
        worst2 = max(worst2, d_alpha, d_beta)
        assert d_alpha < 1e-6 and d_beta < 1e-6
    print(f"PASS criterion 3: Bayesian limits (BL1 {worst1:.2e}, BL2 {worst2:.2e})")


def test_criterion_04_kl_correctness():
    """Closed-form KL agrees with adaptive quadrature; nonnegative; exact
    zero on identical parameters."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        p = InvGammaParams(rng.uniform(0.5, 50), rng.uniform(0.1, 100))
        q = InvGammaParams(rng.uniform(0.5, 50), rng.uniform(0.1, 100))
        closed = kl_divergence(p, q)
        assert closed >= 0.0
        gap = abs(closed - kl_quadrature(p, q))
        worst = max(worst, gap)
        assert gap < 1e-6
        assert kl_divergence(p, p) == 0.0
    print(f"PASS criterion 4: KL vs quadrature on 200 pairs (worst {worst:.2e})")


def test_criterion_05_accuracy_ordering(bench):
    """Moment fits trail the iterative fits in KL; iterative fits are
    statistically indistinguishable from each other."""
    records, elapsed = bench
    assert elapsed < 300.0
    for size in (500, 2500):
        by = kl_by_estimator(records)[size]
        mm_med = np.median(by["MM"])
        for name in ("ML1", "ML2", "BL1", "BL2"):
            assert mm_med > np.median(by[name]), (size, name)
            _, p = wilcoxon_rank_sum(by["MM"], by[name])
            assert p < 0.01, (size, name, p)
        for a, b in itertools.combinations(("ML1", "ML2", "BL1", "BL2"), 2):
            _, p = wilcoxon_rank_sum(by[a], by[b])
            assert p >= 0.01, (size, a, b, p)
    print(f"PASS criterion 5: KL ordering and rank-sum separation "
          f"({elapsed:.1f}s for the sweep)")


def test_criterion_06_bias_behavior(bench):
    """Iterative estimators are nearly unbiased and tighten with more data."""
    records, _ = bench
    for name in ("ML1", "ML2", "BL1", "BL2"):
        rows = [r for r in records if r.estimator == name and r.N == 2500]
        mean_bias = np.mean([r.bias_alpha for r in rows])
        mean_truth = np.mean([r.alpha_true for r in rows])
        assert abs(mean_bias) < 0.05 * mean_truth, (name, mean_bias)
        std500 = np.std([r.bias_alpha for r in records
                         if r.estimator == name and r.N == 500], ddof=1)
        std2500 = np.std([r.bias_alpha for r in rows], ddof=1)
        assert std2500 < std500, name
    print("PASS criterion 6: bias small and variance shrinking with N")


def test_criterion_07_convergence_cost(bench):
    """Surrogate-based updates converge in a few iterations."""
    records, _ = bench
    for name in ("ML2", "BL2"):
        iters = [r.iterations for r in records if r.estimator == name]
        mean_iters = float(np.mean(iters))
        assert mean_iters <= 10.0, (name, mean_iters)
        assert all(r.converged for r in records if r.estimator == name)
    print("PASS criterion 7: ML2/BL2 mean iteration count within budget")


def test_criterion_08_special_function_suite():
    """Inverse-digamma roundtrip, derivative consistency, tangent bound."""
    for x in np.logspace(-3, 6, 400):
        y = inv_digamma(digamma(float(x)))
        assert abs(y - x) / x < 1e-9
    for x in (0.01, 0.1, 1.0, 3.5, 10.0, 100.0, 1e4):
        h = 1e-5 * x
        fd = (ln_gamma(x + h) - ln_gamma(x - h)) / (2 * h)
        assert abs(fd - digamma(x)) <= 1e-6 * max(1.0, abs(digamma(x)))
        fd = (digamma(x + h) - digamma(x - h)) / (2 * h)
        assert abs(fd - trigamma(x)) <= 1e-6 * max(1.0, trigamma(x))
    rng = np.random.default_rng(31)
    for _ in range(1000):
        a, a0 = np.exp(rng.uniform(-6, 6, 2))
        lhs = a * math.log(a)
        rhs = (1.0 + math.log(a0)) * (a - a0) + a0 * math.log(a0)
        assert lhs >= rhs - 1e-9 * max(1.0, abs(lhs))
    print("PASS criterion 8: special-function roundtrip, derivatives, bound")


def test_criterion_09_surrogate_fidelity():
    """Local surrogate reproduces the profile log-likelihood value and its
    first two derivatives at random expansion points."""
    rng = np.random.default_rng(55)
    _, stats = make_dataset(4)
    for _ in range(50):
        alpha = float(np.exp(rng.uniform(math.log(0.3), math.log(50.0))))
        q = quad_approx_coeffs(stats, alpha)
        f = q.k0 + q.k1 * alpha + q.k2 * math.log(alpha)
        ref = profile_log_likelihood(stats, alpha)
        assert f == pytest.approx(ref, rel=1e-12)
        h1 = 1e-6 * alpha
        fd1 = (profile_log_likelihood(stats, alpha + h1)
               - profile_log_likelihood(stats, alpha - h1)) / (2 * h1)
        assert q.k1 + q.k2 / alpha == pytest.approx(fd1, rel=1e-6)
        h2 = 1e-3 * alpha
        fd2 = (profile_log_likelihood(stats, alpha + h2)
               - 2 * ref + profile_log_likelihood(stats, alpha - h2)) / (h2 * h2)
        assert -q.k2 / (alpha * alpha) == pytest.approx(fd2, rel=1e-6)
    print("PASS criterion 9: surrogate value and derivatives at 50 points")


def test_criterion_10_determinism(bench):
    """Re-running the benchmark reproduces the CSV except runtimes."""
    records, _ = bench
    again = run_kl_experiment(ExperimentConfig(sizes=(500, 2500),
                                               sims_per_size=100,
                                               base_seed=2024))

    def strip_runtime(text):
        return "\n".join(",".join(line.split(",")[:-1])
                         for line in text.splitlines())

    assert strip_runtime(records_to_csv(records)) == strip_runtime(
        records_to_csv(again))
    print("PASS criterion 10: benchmark CSV reproducible modulo runtime")
