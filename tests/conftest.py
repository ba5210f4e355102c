import tracemalloc

import numpy as np
import pytest

from invgamma import InvGammaParams, compute_stats, sample


@pytest.fixture(scope="session")
def demo_truth():
    return InvGammaParams(10.0, 25.0)


@pytest.fixture(scope="session")
def demo_sample(demo_truth):
    """Seed-fixed 1000-point sample from the (10, 25) demonstration truth."""
    rng = np.random.default_rng(12345)
    return sample(demo_truth, 1000, rng)


@pytest.fixture(scope="session")
def demo_stats(demo_sample):
    return compute_stats(demo_sample)


def make_dataset(i: int):
    """Seeded dataset family used by the estimator-agreement suites:
    truth alpha in [2.5, 15], beta in [1, 50], n alternating 100/1000."""
    rng = np.random.default_rng(1000 + i)
    alpha = rng.uniform(2.5, 15.0)
    beta = rng.uniform(1.0, 50.0)
    n = (100, 1000)[i % 2]
    truth = InvGammaParams(alpha, beta)
    return truth, compute_stats(sample(truth, n, rng))


def traced_peak(f, *args):
    """Peak bytes that tracemalloc, which sees numpy's buffers, counts
    while ``f(*args)`` runs, beyond what was allocated before it."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
