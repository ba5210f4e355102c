"""Seeded Monte-Carlo experiment runner.

Draws truth parameters and samples per (size, simulation) from a
splittable seed tree, runs the configured estimators on the shared
sample, and records KL(truth || estimate), parameter bias, iteration
counts and wall-clock time per fit.  Emission is order-normalized CSV so
identical configs produce identical files (runtime column excepted).
Records and bias aggregates are ``NamedTuple``s: a CSV header is its
tuple's field names.  A sweep's records are kept as columns, in a
``SimulationRecords`` that builds its rows only when they are read; a
list of records converts to the same columns before it is written or
summarized, by blocks of rows, or grouped by (N, estimator).

Sweeps run batched (see ``run_kl_experiment``): each estimator fits all
simulations of all sizes in one ``fit_batch`` call, bit-identical to the
scalar fitters, here or in a child forked for it (``forked.starmap``,
which fails the sweep at once if a child dies).  Every simulation has
its own seed and every fit is independent of the others, so the records
do not depend on the number of workers.  ``fit_by_name`` runs one
scalar fit.  The ``sample | fit`` pipe's text is written and read in
``cli``.
"""

# Annotations stay text, so that importing this module does not load
# numpy.random: a sweep's parent leaves the draws to its forked children.
from __future__ import annotations

import math
import os
import stat
import sys
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, starmap
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

# sample and compute_stats are not called here; layerbench/spans.py wraps
# these names.
from .distribution import (
    _rows_per_block,
    _standard_gamma,
    kl_divergence,
    sample,
)
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
    _bl1_mode,
    _row_stats,
    _spec,
    scale_posterior,
)

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


# The fields a sweep holds once per simulation, and per estimator (a
# group) once per simulation.
_SIM_FIELDS = ("N", "sim", "alpha_true", "beta_true")
_GROUP_FIELDS = tuple(f for f in SimulationRecord._fields
                      if f not in _SIM_FIELDS)
# Simulations per block of rows that records are built or written in.
_BLOCK_SIMS = 128


class SimulationRecords(Sequence):
    """A sweep's records, read-only, in (N, sim, estimator table) order.

    It holds columns: the four ``_SIM_FIELDS`` once per simulation, and
    per group (a sweep's estimator) its nine ``_GROUP_FIELDS`` once per
    simulation.  ``SimulationRecord`` rows are built only when the
    records are iterated, indexed or sliced (a slice is a list), a block
    of simulations at a time; ``column`` reads a field as one array.
    """

    def __init__(self, sims, groups):
        self._sims = sims  # four arrays, one entry per simulation
        self._groups = groups  # per group, nine such arrays

    @classmethod
    def _of(cls, records) -> "SimulationRecords":
        """``records`` if it is a ``SimulationRecords``; else the rows of
        an iterable of ``SimulationRecord``s, read whole, each row one
        simulation of a single group."""
        if isinstance(records, cls):
            return records
        values = dict(zip(SimulationRecord._fields, zip(*records)))
        sims, group = ([np.array(values.get(f, ())) for f in fields]
                       for fields in (_SIM_FIELDS, _GROUP_FIELDS))
        return cls(sims, [group])

    def __len__(self):
        return len(self._sims[0]) * len(self._groups)

    def _block(self, lo: int, hi: int):
        """Sims ``lo`` to ``hi`` as lists: the four per-sim columns, then
        per group its nine columns."""
        return [c[lo:hi].tolist() for c in self._sims], [
            [c[lo:hi].tolist() for c in cols] for cols in self._groups]

    def _blocks(self):
        for lo in range(0, len(self._sims[0]), _BLOCK_SIMS):
            yield self._block(lo, lo + _BLOCK_SIMS)

    @staticmethod
    def _rows(sims, groups):
        return chain.from_iterable(zip(*(
            map(SimulationRecord, *sims[:2], name, *sims[2:], *cols)
            for name, *cols in groups)))

    def __iter__(self):
        for block in self._blocks():
            yield from self._rows(*block)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        sim, group = divmod(range(len(self))[index], len(self._groups))
        return list(self._rows(*self._block(sim, sim + 1)))[group]

    def __eq__(self, other):
        if not isinstance(other, (list, SimulationRecords)):
            return NotImplemented
        return list(self) == list(other)

    def column(self, field: str) -> np.ndarray:
        """One field of every record, in record order."""
        if field in _SIM_FIELDS:
            return np.repeat(self._sims[_SIM_FIELDS.index(field)],
                             len(self._groups))
        i = _GROUP_FIELDS.index(field)
        return np.stack([cols[i] for cols in self._groups], axis=1).ravel()


RECORDS_CSV_HEADER = ",".join(SimulationRecord._fields)
BIAS_CSV_HEADER = ",".join(BiasAggregate._fields)
# One row of each CSV; "%.17g" is 17 significant digits, enough for
# every float64 to round-trip.  A records row takes its "N,sim," and
# ",alpha_true,beta_true," texts as strings, so a block formats each of
# them once per simulation; every other field, runtime_s too, is
# formatted per row, and ``converged`` is written as false/true.
_RECORD_ROW = "%s%s%s" + "%.17g," * 5 + "%d,%s,%.17g\n"
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


def _draw_shard(cfg: ExperimentConfig, size: int, sims: range) -> np.ndarray:
    """Truth alpha and beta and the six ``SufficientStats`` fields of each
    sim in ``sims``, one column per sim.  Each sim draws from its own
    seed, with the bits of ``sample`` and ``compute_stats``; the samples
    are drawn and reduced in chunks of rows whose first rounds hold at
    most ``distribution._BLOCK`` pairs (one row above that)."""
    out = np.empty((8, len(sims)))
    out[2] = size
    step = _rows_per_block(size)
    for lo in range(0, len(sims), step):
        rngs = [child_rng(cfg.base_seed, size, sim)
                for sim in sims[lo:lo + step]]
        cols = slice(lo, lo + len(rngs))
        out[:2, cols] = np.array([(rng.uniform(*ALPHA_RANGE),
                                   rng.uniform(*BETA_RANGE)) for rng in rngs]).T
        gammas = _standard_gamma(out[0, cols].tolist(), size, rngs)
        out[3:, cols] = _row_stats(out[1, cols, None] / gammas)
    return out


def _timed_fit(name: str, batch: StatsBatch, options: FitOptions):
    """``fit_batch`` and its wall time; the task a fit worker runs."""
    t0 = time.perf_counter()
    fit = fit_batch(name, batch, options)
    return fit, time.perf_counter() - t0


def _fit_workers() -> int:
    """Worker processes for a sweep: one per usable CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


class WorkerError(Exception):
    """A sweep's worker process could not be forked, or ended without
    sending back its whole result."""


def _draw_shards(cfg: ExperimentConfig, i: int, n: int) -> list:
    """Shard ``i`` of ``n`` of every size's sims, none empty when ``n`` is
    at most the sims per size; a draw worker's task, so each worker loads
    ``numpy.random`` once."""
    k = cfg.sims_per_size
    return [_draw_shard(cfg, size, range(k * i // n, k * (i + 1) // n))
            for size in cfg.sizes]


def _sweep(cfg: ExperimentConfig, starmap, workers: int) -> SimulationRecords:
    """Draw each size in contiguous shards of sims, at most one per worker
    and none empty; then fit every size at once, one ``fit_batch`` per
    estimator.  ``starmap(fn, args)`` runs ``fn(*a)`` for each ``a`` in
    ``args`` and yields the results in order.  Every row of a fit is scored
    by one KL call against the truths, and the records keep the columns."""
    k, n = cfg.sims_per_size, min(workers, cfg.sims_per_size)
    # Per worker its shard of each size; the columns run by size, then sim.
    cols = np.concatenate(list(chain.from_iterable(zip(*starmap(
        _draw_shards, [(cfg, i, n) for i in range(n)])))), axis=1)
    batch = StatsBatch(*cols[2:])
    fits = starmap(_timed_fit, [(name, batch, cfg.fit)
                                for name in cfg.estimators])
    truth = SimpleNamespace(alpha=cols[0], beta=cols[1])
    m = truth.alpha.size
    groups = [(np.broadcast_to(name, m), fit.alpha, fit.beta,
               kl_divergence(truth, fit), fit.alpha - truth.alpha,
               fit.beta - truth.beta, fit.iterations, fit.converged,
               np.broadcast_to(seconds / m, m))
              for name, (fit, seconds) in zip(cfg.estimators, fits)]
    sims = (np.repeat(cfg.sizes, k), np.tile(np.arange(k), len(cfg.sizes)),
            truth.alpha, truth.beta)
    return SimulationRecords(sims, groups)


def run_kl_experiment(cfg: ExperimentConfig) -> SimulationRecords:
    """All simulation records, in (N, sim, estimator table) order.

    Samples are drawn and reduced in chunks of at most
    ``distribution._BLOCK`` pairs (see ``_draw_shard``), so no sims x N
    matrix is held; each estimator fits all sims of all sizes in one
    ``fit_batch`` call, and its fits are scored by one ``kl_divergence``
    call over all sizes.  With ``_fit_workers()`` > 1, ``os.fork``
    available and no other thread running, both steps run in children
    forked for them (``forked.starmap``): one per worker, which draws its
    contiguous shard of the sims of every size, then one per estimator,
    at most ``_fit_workers()`` at once, forked from this process, which
    holds the ``StatsBatch`` and never loads ``numpy.random``.  A child
    that dies, or a fork that fails, raises ``WorkerError`` at once, and
    no child outlives the sweep.  Else
    both run here through ``itertools.starmap``, one shard per size.  KL
    and the record columns are built here.  ``runtime_s`` is an
    estimator's ``fit_batch`` wall time, measured in the process that ran
    it, divided by its fits over all sizes.  A fit whose scalar version
    raises a domain error becomes a converged=False row with NaN
    estimates; other errors propagate.
    """
    workers = _fit_workers()
    # No fork, or a thread that a forked child could inherit a held lock
    # from: draw and fit here.
    if (workers < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return _sweep(cfg, starmap, 1)
    from . import forked
    return _sweep(cfg, partial(forked.starmap, workers=workers), workers)


def _grouped(records, *fields):
    """Per (N, estimator) group, in the order of its first record: N, the
    estimator and the group's array of each of ``fields``, in record
    order.  The records are converted and each column read once; a group
    is found from its first record not yet grouped, by masks, with no
    object per record."""
    records = SimulationRecords._of(records)
    sizes, names, *cols = map(records.column, ("N", "estimator", *fields))
    left = np.ones(sizes.size, dtype=bool)
    while left.any():
        first = left.argmax()
        rows = (sizes == sizes[first]) & (names == names[first])
        left &= ~rows
        left[first] = False  # an N of NaN matches no row, itself neither
        yield (sizes[first].item(), names[first].item(),
               *(c[rows] for c in cols))


def aggregate_bias(records) -> list[BiasAggregate]:
    """Mean and n-1 standard deviation of the bias per estimator and N.

    Rows with NaN estimates are excluded and counted as failed.  Groups
    keep the order of their first record.
    """
    out = []
    for size, name, ba, bb in _grouped(records, "bias_alpha", "bias_beta"):
        ok = np.isfinite(ba) & np.isfinite(bb)
        used = int(ok.sum())
        std_a = float(np.std(ba[ok], ddof=1)) if used >= 2 else math.nan
        std_b = float(np.std(bb[ok], ddof=1)) if used >= 2 else math.nan
        mean_a = float(np.mean(ba[ok])) if used else math.nan
        mean_b = float(np.mean(bb[ok])) if used else math.nan
        out.append(BiasAggregate(size, name, used, ba.size - used,
                                 mean_a, std_a, mean_b, std_b))
    return out


def run_bias_experiment(cfg: ExperimentConfig) -> tuple[list[BiasAggregate],
                                                        SimulationRecords]:
    """Bias study: the KL sweep's raw records plus per-(estimator, N)
    aggregates for the error-bar summaries."""
    records = run_kl_experiment(cfg)
    return aggregate_bias(records), records


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fractional ranks (ties get the group mean) and tie-group sizes.

    ``np.unique`` groups equal values in ascending order.  Group k holds
    counts[k] values, ends at rank cumsum(counts)[k] and gets rank
    cumsum(counts)[k] - 0.5*(counts[k] - 1), which is exact in float64.
    """
    _, group, counts = np.unique(values, return_inverse=True,
                                 return_counts=True)
    ranks = np.cumsum(counts) - 0.5 * (counts - 1)
    return ranks[group], counts.astype(np.float64)


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
    # With the continuity correction: |U - mu| less half a rank.
    z = (abs(u1 - mu) - 0.5) / math.sqrt(sigma2) if u1 != mu else 0.0
    return u1, min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def kl_by_estimator(records) -> dict[int, dict[str, np.ndarray]]:
    """Finite KL values per sample size and estimator, ``{N: {estimator:
    kl}}``, both in the order of their first record; an estimator whose
    fits all failed at a size maps to an empty array."""
    out = {}
    for size, name, kl in _grouped(records, "kl"):
        out.setdefault(size, {})[name] = kl[np.isfinite(kl)]
    return out


def emit_prior_posterior_curves(stats: SufficientStats,
                                shape_priors,
                                scale_prior: ScaleGammaPrior,
                                alpha_grid,
                                alpha_true: float) -> list[tuple]:
    """Log-prior/log-posterior curve rows over an alpha grid.

    Both curves of a variant are ``bl1_log_posterior_curve``'s, the prior
    on ``SufficientStats.empty()``, at one scale for every variant: the
    posterior mean seeded by the moment shape estimate, or d/e with no
    data (n = 0), when prior and posterior rows coincide.  ``alpha_hat``
    is the posterior's maximizer (the prior's is never computed).
    """
    grid = np.asarray(alpha_grid, dtype=np.float64)
    beta_hat = None if stats.n == 0 else scale_posterior(
        stats, scale_prior, fit_mm(stats).params.alpha)[2]
    rows = []
    for sp in shape_priors:
        label = (f"a={math.exp(sp.log_a):.6g};b={sp.b:.6g};c={sp.c:.6g}")
        log_prior, log_post = (
            bl1_log_posterior_curve(s, sp, scale_prior, grid, beta_hat)
            for s in (SufficientStats.empty(), stats))
        alpha_hat = _bl1_mode(stats, sp, scale_prior, beta_hat)
        for a, lp, lq in zip(grid, log_prior, log_post):
            rows.append((label, float(a), float(lp), float(lq),
                         float(alpha_true), alpha_hat))
    return rows


# Paths that name fd 1 whether or not a link for them exists on the host.
_STDOUT_PATHS = ("/dev/stdout", "/dev/fd/1", "/proc/self/fd/1")


def _is_stdout(path: str) -> bool:
    """Whether ``path`` names the file open on fd 1: one of
    ``_STDOUT_PATHS``, or the file that fd 1 is open on."""
    if os.path.abspath(path) in _STDOUT_PATHS:
        return True
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def _atomic_write(path: str, blocks) -> None:
    """Stream the text blocks of ``blocks`` to ``path``, whole or not at
    all: to a temp file, then renamed over ``path``; if a block raises,
    the temp file is removed and ``path`` is left as it was.  The file
    open on stdout (``/dev/stdout`` even where that link is missing, or
    the file stdout is redirected to) is written through ``sys.stdout``,
    so that text printed before and after keeps its place.  Any other
    target that exists and is not a regular file (a symlink, FIFO or
    device) is written in place, as a rename would replace it.  Neither
    of these two is written whole or not at all.  The mode is
    ``open(path, "w")``'s: 0o666 less the umask for a new file, the old
    mode for an existing one."""
    if _is_stdout(path):
        sys.stdout.writelines(blocks)
        sys.stdout.flush()
        return
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w") as fh:
            fh.writelines(blocks)
        return
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: str, row: str, rows) -> str:
    """The header and one ``row % values`` line per row."""
    return "\n".join([header, *map(row.__mod__, rows)]) + "\n"


def _csv_rows(sims, groups) -> str:
    """Records CSV rows of a block of simulations, a ``SimulationRecords``
    block: the N, sim, alpha_true and beta_true lists, and per group its
    nine ``_GROUP_FIELDS`` lists, one entry per simulation.  The rows
    interleave the groups simulation by simulation."""
    heads = list(map("%d,%d,".__mod__, zip(*sims[:2])))
    truths = list(map(",%.17g,%.17g,".__mod__, zip(*sims[2:])))
    return "".join(chain.from_iterable(zip(*(
        map(_RECORD_ROW.__mod__, zip(heads, names, truths, *cols[:6],
                                     map(_BOOL_TEXT.__getitem__, cols[6]),
                                     seconds))
        for names, *cols, seconds in groups))))


def _record_blocks(records):
    """The records CSV, a block of rows at a time."""
    yield RECORDS_CSV_HEADER + "\n"
    yield from starmap(_csv_rows, SimulationRecords._of(records)._blocks())


def records_to_csv(records) -> str:
    return "".join(_record_blocks(records))


def write_records_csv(records, path: str) -> None:
    _atomic_write(path, _record_blocks(records))


def read_records_csv(path: str) -> list[SimulationRecord]:
    """A records CSV's rows; a row that is not 13 fields of the record's
    types, ``converged`` false or true, raises ``ValueError``."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != RECORDS_CSV_HEADER:
        raise ValueError(f"{path}: unexpected header")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        f = line.split(",")
        try:
            if len(f) != len(SimulationRecord._fields):
                raise ValueError
            records.append(SimulationRecord(
                int(f[0]), int(f[1]), f[2], *map(float, f[3:10]), int(f[10]),
                bool(_BOOL_TEXT.index(f[11])), float(f[12])))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not a records row: "
                             f"{line!r}") from None
    return records


def write_bias_csv(aggregates: list[BiasAggregate], path: str) -> None:
    _atomic_write(path, [_csv(BIAS_CSV_HEADER, _BIAS_ROW, aggregates)])


def write_curves_csv(rows: list[tuple], path: str) -> None:
    _atomic_write(path, [_csv(CURVES_CSV_HEADER, _CURVES_ROW, rows)])
