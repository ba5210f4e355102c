"""Seeded Monte-Carlo experiment runner.

Draws truth parameters and samples per (size, simulation) from a
splittable seed tree, runs the configured estimators on the shared
sample, and records KL(truth || estimate), parameter bias, iteration
counts and wall-clock time per fit.  Emission is order-normalized CSV so
identical configs produce identical files (runtime column excepted).
Records and bias aggregates are ``NamedTuple``s: a CSV header is its
tuple's field names, and each row is written by one ``%`` template.

Sweeps run batched: each estimator fits all simulations of a size in one
``fit_batch`` call, bit-identical to the scalar fitters, and ``runtime_s``
is that call's wall time divided by the number of simulations.  That
``BatchFit`` is scored by one array ``kl_divergence`` call against the
size's truths, and its records are built from those columns.  Where the
host has more than one CPU, the ``fit_batch`` calls run in forked worker
processes while this process draws the later sizes; every element's fit
is independent of its batch companions, so the records do not depend on
the number of workers.  Single fits
(``fit_by_name``, ``invgamma fit``) run the scalar ``fit_*``.
"""

import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .distribution import InvGammaParams, kl_divergence, sample
from .estimators import (  # fit_mm .. fit_bl2: see fit_by_name
    ESTIMATORS,
    FitOptions,
    FitReport,
    ScaleGammaPrior,
    ShapePriorABC,
    StatsBatch,
    SufficientStats,
    bl1_log_posterior_curve,
    compute_stats,
    fit_batch,
    fit_bl1,
    fit_bl2,
    fit_ml1,
    fit_ml2,
    fit_mm,
    _bl1_constants,
    _spec,
    scale_posterior,
)
from .specfun import _FLOAT_OPS, inv_digamma

CURVES_CSV_HEADER = "variant,alpha,log_prior,log_posterior,alpha_true,alpha_hat"

# Truths are drawn uniformly from this box.  The shape is > 2, so the
# moment initialization has a finite variance for every truth.
ALPHA_RANGE = (2.5, 15.0)
BETA_RANGE = (1.0, 50.0)

DEFAULT_CURVE_VARIANTS = (
    ShapePriorABC.with_a(1.0, 0.01, 0.01),
    ShapePriorABC.with_a(1.0, 1.0, 1.0),
    ShapePriorABC.with_a(2.0, 0.5, 0.5),
    ShapePriorABC.with_a(0.5, 2.0, 2.0),
)


@dataclass(frozen=True)
class ExperimentConfig:
    sizes: tuple[int, ...] = (500, 2500, 5000)
    sims_per_size: int = 500
    base_seed: int = 0
    estimators: tuple[str, ...] = ESTIMATORS
    fit: FitOptions = FitOptions()

    def __post_init__(self):
        if self.sims_per_size < 1:
            raise ValueError("sims_per_size must be >= 1")
        for name in ("sizes", "estimators"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(
                    f"duplicate {name}: {','.join(map(str, values))}")
        if not all(n >= 1 for n in self.sizes):
            raise ValueError("sizes must be >= 1")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        # Held in the order of every output: N ascending, then table order.
        object.__setattr__(self, "sizes", tuple(sorted(self.sizes)))
        object.__setattr__(self, "estimators", tuple(
            name for name in ESTIMATORS if name in self.estimators))


class SimulationRecord(NamedTuple):
    N: int
    sim: int
    estimator: str
    alpha_true: float
    beta_true: float
    alpha_hat: float
    beta_hat: float
    kl: float
    bias_alpha: float
    bias_beta: float
    iterations: int
    converged: bool
    runtime_s: float


class BiasAggregate(NamedTuple):
    N: int
    estimator: str
    n_used: int
    n_failed: int
    mean_bias_alpha: float
    std_bias_alpha: float
    mean_bias_beta: float
    std_bias_beta: float


RECORDS_CSV_HEADER = ",".join(SimulationRecord._fields)
BIAS_CSV_HEADER = ",".join(BiasAggregate._fields)
# One row of each CSV; "%.17g" is ``fmt_float``'s format.  A record's
# ``converged`` is written as false/true.
_RECORD_ROW = "%d,%d,%s" + ",%.17g" * 7 + ",%d,%s,%.17g"
_BOOL_TEXT = ("false", "true")
_BIAS_ROW = "%d,%s,%d,%d" + ",%.17g" * 4
_CURVES_ROW = "%s" + ",%.17g" * 5


def child_rng(base_seed: int, size: int, sim: int) -> np.random.Generator:
    """Per-simulation generator; independent of enumeration order."""
    return np.random.default_rng(
        np.random.SeedSequence(base_seed, spawn_key=(size, sim)))


def fit_by_name(name: str, stats: SufficientStats,
                options: FitOptions = FitOptions()) -> FitReport:
    """Run the estimator called ``name`` (one of ``ESTIMATORS``): its
    ``fit_*`` with the fields of ``options`` that it takes.

    The fitters are looked up in this module's globals on every call, so
    code that wraps ``harness.fit_ml1`` and friends sees every fit.
    """
    fields = _spec(name).takes
    return globals()[f"fit_{name.lower()}"](
        stats, *(getattr(options, field) for field in fields))


def _draw_stats(cfg: ExperimentConfig, size: int, sim: int):
    """Truth and sample statistics of one simulation, from its own seed."""
    rng = child_rng(cfg.base_seed, size, sim)
    truth = InvGammaParams(rng.uniform(*ALPHA_RANGE), rng.uniform(*BETA_RANGE))
    return truth.alpha, truth.beta, compute_stats(sample(truth, size, rng))


def _timed_fit(name: str, batch: StatsBatch, options: FitOptions):
    """``fit_batch`` and its wall time; the task a fit worker runs."""
    t0 = time.perf_counter()
    fit = fit_batch(name, batch, options)
    return fit, time.perf_counter() - t0


def _fit_workers(cfg: ExperimentConfig) -> int:
    """Fit processes for a sweep: one per usable CPU, at most one per
    estimator."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, len(cfg.estimators))


def _run_inline(fn, *args):
    value = fn(*args)
    return lambda: value


def _size_records(size: int, truth, tasks):
    """Records of one size, sim by sim across estimators, built from
    columns: the truths, each estimator's ``BatchFit`` (NaN, 0 and False
    on failed rows), one KL call and the two bias differences."""
    sims = range(truth.alpha.size)
    truth_cols = truth.alpha.tolist(), truth.beta.tolist()
    per_estimator = []
    for name, result in tasks:
        fit, seconds = result()
        cols = (fit.alpha, fit.beta, kl_divergence(truth, fit),
                fit.alpha - truth.alpha, fit.beta - truth.beta,
                fit.iterations, fit.converged)
        per_estimator.append(map(
            SimulationRecord, repeat(size), sims, repeat(name), *truth_cols,
            *(c.tolist() for c in cols), repeat(seconds / len(sims))))
    return chain.from_iterable(zip(*per_estimator))


def _sweep(cfg: ExperimentConfig, submit) -> list[SimulationRecord]:
    """Draw every size, smallest first, and hand its fits to ``submit``
    in table order; ``submit`` returns a callable that waits for the
    result.  Then build each size's records in turn, already in order."""
    submitted = []
    for size in cfg.sizes:
        alphas, betas, stats = zip(*(_draw_stats(cfg, size, sim)
                                     for sim in range(cfg.sims_per_size)))
        batch = StatsBatch.pack(stats)
        tasks = [(name, submit(_timed_fit, name, batch, cfg.fit))
                 for name in cfg.estimators]
        truth = SimpleNamespace(alpha=np.array(alphas), beta=np.array(betas))
        submitted.append((size, truth, tasks))
    return list(chain.from_iterable(starmap(_size_records, submitted)))


def run_kl_experiment(cfg: ExperimentConfig) -> list[SimulationRecord]:
    """All simulation records, in (N, sim, estimator table) order.

    Each sample is drawn and reduced on its own, so no sims x N matrix is
    held; each estimator then fits all sims of a size in one ``fit_batch``
    call.  With ``_fit_workers(cfg)`` > 1, the ``fork`` start method
    available and no other thread running, those calls run in a pool of
    forked workers while this process draws every size, smallest first,
    then builds each size's records (KL included) in turn; otherwise they
    run here, in the same order.  Sampling, statistics and KL stay in
    this process either way.
    ``runtime_s`` is the ``fit_batch`` wall time, measured inside the
    process that ran it, divided by the number of sims.  Fits whose scalar
    version raises a domain error become converged=False rows with NaN
    estimates; any other error propagates with its type.
    """
    workers = _fit_workers(cfg)
    # No "fork" start method, or a thread that a forked child could inherit
    # a held lock from: fit here.
    if (workers < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return _sweep(cfg, _run_inline)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        return _sweep(cfg, lambda fn, *args: pool.submit(fn, *args).result)
    finally:
        pool.shutdown(cancel_futures=True)


def aggregate_bias(records: list[SimulationRecord]) -> list[BiasAggregate]:
    """Mean and n-1 standard deviation of the bias per estimator and N.

    Rows with NaN estimates are excluded and counted as failed.  Groups
    keep the order of their first record.
    """
    groups: dict[tuple[int, str], list[SimulationRecord]] = {}
    for r in records:
        groups.setdefault((r.N, r.estimator), []).append(r)
    out = []
    for (size, name), rows in groups.items():
        ba = np.array([r.bias_alpha for r in rows])
        bb = np.array([r.bias_beta for r in rows])
        ok = np.isfinite(ba) & np.isfinite(bb)
        used = int(ok.sum())
        std_a = float(np.std(ba[ok], ddof=1)) if used >= 2 else math.nan
        std_b = float(np.std(bb[ok], ddof=1)) if used >= 2 else math.nan
        mean_a = float(np.mean(ba[ok])) if used else math.nan
        mean_b = float(np.mean(bb[ok])) if used else math.nan
        out.append(BiasAggregate(size, name, used, len(rows) - used,
                                 mean_a, std_a, mean_b, std_b))
    return out


def run_bias_experiment(cfg: ExperimentConfig) -> tuple[list[BiasAggregate],
                                                        list[SimulationRecord]]:
    """Bias study: the KL sweep's raw records plus per-(estimator, N)
    aggregates for the error-bar summaries."""
    records = run_kl_experiment(cfg)
    return aggregate_bias(records), records


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fractional ranks (ties get the group mean) and tie-group sizes.

    A tie group spanning sorted positions i..j gets rank 0.5*(i+j) + 1,
    which is exact in float64.
    """
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    first = np.ones(values.size, dtype=bool)
    first[1:] = sorted_vals[1:] != sorted_vals[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, values.size))
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (2 * starts + counts - 1) + 1.0, counts)
    return ranks, counts.astype(np.float64)


def wilcoxon_rank_sum(xs, ys) -> tuple[float, float]:
    """Two-sided rank-sum (Mann-Whitney) test via the tie-corrected,
    continuity-corrected normal approximation.

    Returns (U statistic of ``xs``, two-sided p-value).  Requires a
    combined sample of at least 10 values, none of them NaN.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be nonempty")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("samples must not hold NaN: NaN has no rank")
    m = x.size + y.size
    if m < 10:
        raise ValueError(
            f"combined size {m} too small for the normal approximation")
    ranks, ties = _midranks(np.concatenate([x, y]))
    n1, n2 = x.size, y.size
    u1 = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    tie_term = float(np.sum(ties ** 3 - ties)) / (m * (m - 1.0))
    sigma2 = (n1 * n2 / 12.0) * ((m + 1.0) - tie_term)
    if sigma2 <= 0.0:
        return u1, 1.0
    diff = u1 - mu
    if diff > 0.0:
        z = (diff - 0.5) / math.sqrt(sigma2)
    elif diff < 0.0:
        z = (diff + 0.5) / math.sqrt(sigma2)
    else:
        z = 0.0
    return u1, min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def kl_by_estimator(records: list[SimulationRecord],
                    size: int) -> dict[str, np.ndarray]:
    """Finite KL values per estimator at one sample size."""
    out: dict[str, list[float]] = {}
    for r in records:
        if r.N == size:
            out.setdefault(r.estimator, []).append(r.kl)
    return {name: np.array([v for v in vals if math.isfinite(v)])
            for name, vals in out.items()}


def emit_prior_posterior_curves(stats: SufficientStats,
                                shape_priors,
                                scale_prior: ScaleGammaPrior,
                                alpha_grid,
                                alpha_true: float) -> list[tuple]:
    """Log-prior/log-posterior curve rows over an alpha grid.

    The scale estimate is the posterior mean seeded by the moment shape
    estimate and is shared by every hyperparameter variant; ``alpha_hat``
    is the posterior maximizer invdigamma((-log a_hat + c_hat log
    beta_hat) / b_hat).  With no data (n = 0) prior and posterior rows
    coincide.
    """
    grid = np.asarray(alpha_grid, dtype=np.float64)
    if stats.n == 0:
        beta_hat = scale_prior.d / scale_prior.e
    else:
        mm_alpha = fit_mm(stats).params.alpha
        _, _, beta_hat = scale_posterior(stats, scale_prior, mm_alpha)
    prior_stats = SufficientStats.empty()
    rows = []
    for sp in shape_priors:
        label = (f"a={math.exp(sp.log_a):.6g};b={sp.b:.6g};c={sp.c:.6g}")
        log_prior = bl1_log_posterior_curve(prior_stats, sp, scale_prior,
                                            grid, beta_hat=beta_hat)
        log_post = bl1_log_posterior_curve(stats, sp, scale_prior,
                                           grid, beta_hat=beta_hat)
        _, log_a_hat, b_hat, c_hat, _, _ = _bl1_constants(
            _FLOAT_OPS, stats, FitOptions(sp, scale_prior))
        alpha_hat = inv_digamma((-log_a_hat + c_hat * math.log(beta_hat))
                                / b_hat)
        for a, lp, lq in zip(grid, log_prior, log_post):
            rows.append((label, float(a), float(lp), float(lq),
                         float(alpha_true), alpha_hat))
    return rows


def fmt_float(v: float) -> str:
    """17 significant digits: enough for every float64 to round-trip."""
    return f"{v:.17g}"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: str, row: str, rows) -> str:
    """The header and one ``row % values`` line per row."""
    return "\n".join([header, *map(row.__mod__, rows)]) + "\n"


def records_to_csv(records: list[SimulationRecord]) -> str:
    return _csv(RECORDS_CSV_HEADER, _RECORD_ROW,
                (r[:11] + (_BOOL_TEXT[r.converged], r.runtime_s)
                 for r in records))


def write_records_csv(records: list[SimulationRecord], path: str) -> None:
    _atomic_write(path, records_to_csv(records))


def read_records_csv(path: str) -> list[SimulationRecord]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != RECORDS_CSV_HEADER:
        raise ValueError(f"{path}: unexpected header")
    records = []
    for line in lines[1:]:
        f = line.split(",")
        records.append(SimulationRecord(
            int(f[0]), int(f[1]), f[2], float(f[3]), float(f[4]), float(f[5]),
            float(f[6]), float(f[7]), float(f[8]), float(f[9]), int(f[10]),
            f[11] == "true", float(f[12])))
    return records


def write_bias_csv(aggregates: list[BiasAggregate], path: str) -> None:
    _atomic_write(path, _csv(BIAS_CSV_HEADER, _BIAS_ROW, aggregates))


def write_curves_csv(rows: list[tuple], path: str) -> None:
    _atomic_write(path, _csv(CURVES_CSV_HEADER, _CURVES_ROW, rows))
