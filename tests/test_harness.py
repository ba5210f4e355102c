"""Experiment runner determinism, CSV contracts, rank-sum test and curves."""

import argparse
import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from invgamma import (
    ESTIMATORS,
    ConvergenceConfig,
    ExperimentConfig,
    FitOptions,
    PolyShapePrior,
    ScaleGammaPrior,
    ShapePriorABC,
    StatsBatch,
    SufficientStats,
    compute_stats,
    emit_prior_posterior_curves,
    fit_batch,
    run_bias_experiment,
    run_kl_experiment,
    sample,
    wilcoxon_rank_sum,
)
from invgamma import cli, estimators, harness, specfun
from invgamma.distribution import InvGammaParams
from invgamma.harness import (
    BIAS_CSV_HEADER,
    CURVES_CSV_HEADER,
    DEFAULT_CURVE_VARIANTS,
    RECORDS_CSV_HEADER,
    _midranks,
    aggregate_bias,
    child_rng,
    kl_by_estimator,
    read_records_csv,
    records_to_csv,
    write_bias_csv,
    write_curves_csv,
    write_records_csv,
)

SMALL = ExperimentConfig(sizes=(40, 80), sims_per_size=12, base_seed=77)


@pytest.fixture(scope="module")
def small_records():
    return run_kl_experiment(SMALL)


class TestDeterminism:
    def test_identical_configs_identical_records(self, small_records):
        again = run_kl_experiment(ExperimentConfig(sizes=(40, 80),
                                                   sims_per_size=12,
                                                   base_seed=77))
        for a, b in zip(small_records, again):
            assert (a.N, a.sim, a.estimator) == (b.N, b.sim, b.estimator)
            assert a.alpha_true == b.alpha_true and a.beta_true == b.beta_true
            assert a.alpha_hat == b.alpha_hat and a.beta_hat == b.beta_hat
            assert a.kl == b.kl and a.iterations == b.iterations

    def test_csv_identical_modulo_runtime(self, small_records, tmp_path):
        def strip_runtime(text):
            return "\n".join(",".join(line.split(",")[:-1])
                             for line in text.splitlines())
        again = run_kl_experiment(SMALL)
        assert (strip_runtime(records_to_csv(small_records))
                == strip_runtime(records_to_csv(again)))

    def test_golden_records_digest(self):
        # sha256 of the records CSV without runtime_s; pins the sampler
        # stream, every fitter and the 17-digit emission at once.
        records = run_kl_experiment(ExperimentConfig(sizes=(20, 50),
                                                     sims_per_size=20))
        text = "".join(line.rsplit(",", 1)[0] + "\n"
                       for line in records_to_csv(records).splitlines())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "99118dfe394f63a01dd8319bcb94ff4e457a223b8e14467aacbae25aa45428da")

    def test_child_rng_order_independent(self):
        a = child_rng(5, 100, 3).random(4)
        b = child_rng(5, 100, 3).random(4)
        np.testing.assert_array_equal(a, b)
        # distinct coordinates give distinct streams
        c = child_rng(5, 100, 4).random(4)
        assert not np.array_equal(a, c)


class TestRecords:
    def test_sorted_and_complete(self, small_records):
        keys = [(r.N, r.sim) for r in small_records]
        assert keys == sorted(keys)
        assert len(small_records) == 2 * 12 * 5
        for r in small_records:
            assert r.kl >= 0.0
            assert r.bias_alpha == r.alpha_hat - r.alpha_true
            assert r.bias_beta == r.beta_hat - r.beta_true
            if r.converged and r.estimator != "MM":
                assert r.iterations >= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_order_ignores_config_order(self, workers, monkeypatch):
        # Records come out in (N, sim, table index) order, whatever order
        # the config lists sizes and estimators in.
        monkeypatch.setattr(harness, "_fit_workers", lambda cfg: workers)
        shuffled = run_kl_experiment(ExperimentConfig(
            sizes=(50, 20, 30), sims_per_size=7,
            estimators=("BL2", "MM", "ML1")))
        keys = [(r.N, r.sim, ESTIMATORS.index(r.estimator)) for r in shuffled]
        assert keys == sorted(keys) and len(keys) == 3 * 7 * 3
        ordered = run_kl_experiment(ExperimentConfig(
            sizes=(20, 30, 50), sims_per_size=7,
            estimators=("MM", "ML1", "BL2")))
        assert (_records_without_runtime(shuffled)
                == _records_without_runtime(ordered))

    def test_config_holds_output_order(self):
        cfg = ExperimentConfig(sizes=(50, 20, 30),
                               estimators=("BL2", "MM", "ML1"))
        assert cfg.sizes == (20, 30, 50)
        assert cfg.estimators == ("MM", "ML1", "BL2")

    def test_failures_recorded_not_fatal(self):
        cfg = ExperimentConfig(sizes=(30,), sims_per_size=3, base_seed=1,
                               estimators=("MM", "BL2"),
                               fit=FitOptions(
                                   poly_prior=PolyShapePrior(1.0, 1e12, 0.0)))
        records = run_kl_experiment(cfg)
        bl2 = [r for r in records if r.estimator == "BL2"]
        assert len(bl2) == 3
        assert all(not r.converged and math.isnan(r.alpha_hat) for r in bl2)
        mm = [r for r in records if r.estimator == "MM"]
        assert all(math.isfinite(r.kl) for r in mm)

    def test_failure_rows_digest(self):
        # sha256 of the records CSV without runtime_s for a sweep with NaN
        # rows: every estimator fails at N=1, BL2's prior has no interior
        # maximum at N=2 and N=30.  Pinned before sweeps were batched.
        records = run_kl_experiment(ExperimentConfig(
            sizes=(1, 2, 30), sims_per_size=4, base_seed=1,
            fit=FitOptions(poly_prior=PolyShapePrior(1.0, 1e12, 0.0))))
        assert sum(math.isnan(r.alpha_hat) for r in records) == 28
        text = "".join(line.rsplit(",", 1)[0] + "\n"
                       for line in records_to_csv(records).splitlines())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "28aa6180624f94a4069a92d630d36327e6245dde9e54d3ca9225390e57fef202")

    def test_programming_errors_propagate(self, monkeypatch):
        # Only the estimators' domain errors become NaN rows; a bug inside
        # a fitter aborts the sweep.
        def broken(y):
            raise TypeError("broken kernel")

        monkeypatch.setattr(specfun._ARRAY_OPS, "inv_digamma", broken)
        cfg = ExperimentConfig(sizes=(30,), sims_per_size=2,
                               estimators=("MM", "ML1"))
        # Inline, and raised in a forked fit worker.
        for workers in (1, 2):
            monkeypatch.setattr(harness, "_fit_workers", lambda cfg: workers)
            with pytest.raises(TypeError, match="broken kernel"):
                run_kl_experiment(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sims_per_size=0)
        with pytest.raises(ValueError):
            ExperimentConfig(estimators=("MM", "XX"))

    @pytest.mark.parametrize("names, msg", [
        ((), "estimators must not be empty"),
        (("ML1", "ML1"), "duplicate estimators: ML1,ML1"),
        (("MM", "BL1", "MM"), "duplicate estimators: MM,BL1,MM"),
    ])
    def test_estimator_list_validation(self, names, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            ExperimentConfig(estimators=names)

    @pytest.mark.parametrize("sizes, msg", [
        ((), "sizes must not be empty"),
        ((20, 20), "duplicate sizes: 20,20"),
        ((20, 50, 20), "duplicate sizes: 20,50,20"),
    ])
    def test_size_list_validation(self, sizes, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            ExperimentConfig(sizes=sizes)


class TestEstimatorTable:
    """One name table serves the fitters, the batch path and the CLI, and
    fits still go through the ``harness.fit_*`` names that tracers wrap."""

    OPTIONS = FitOptions(shape_prior=ShapePriorABC.with_a(2.0, 0.5, 0.5),
                         scale_prior=ScaleGammaPrior(2.0, 0.5),
                         poly_prior=PolyShapePrior(0.0, -1.0, 3.0),
                         conv=ConvergenceConfig(max_iter=50))

    @staticmethod
    def _record(monkeypatch, calls):
        for name in ("fit_ml1", "fit_bl2"):
            fit = getattr(harness, name)

            def recorder(*args, _fit=fit, _name=name):
                calls.append((_name, args[1:]))
                return _fit(*args)

            monkeypatch.setattr(harness, name, recorder)

    def test_fit_by_name_looks_up_fitters_at_call_time(self, monkeypatch):
        calls = []
        self._record(monkeypatch, calls)
        stats = compute_stats([1.0, 2.0, 4.0, 3.0, 2.5])
        o = self.OPTIONS
        for name in ESTIMATORS:
            harness.fit_by_name(name, stats, o)
        assert calls == [
            ("fit_ml1", (o.conv,)),
            ("fit_bl2", (o.poly_prior, o.scale_prior, o.conv)),
        ]

    def test_cli_fit_reaches_patched_fitter(self, monkeypatch, tmp_path,
                                            capsys):
        calls = []
        self._record(monkeypatch, calls)
        path = tmp_path / "x.txt"
        path.write_text("1\n2\n4\n3\n2.5\n")
        for name in ("ml1", "bl2", "mm"):
            assert cli.main(["fit", "--estimator", name, "--input",
                             str(path), "--max-iter", "50"]) == 0
        assert [c[0] for c in calls] == ["fit_ml1", "fit_bl2"]
        assert "estimator=bl2" in capsys.readouterr().out

    def test_cli_choices_are_the_table(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        est = next(a for a in sub.choices["fit"]._actions
                   if a.dest == "estimator")
        assert list(est.choices) == [e.lower() for e in ESTIMATORS]
        assert ESTIMATORS == estimators.ESTIMATORS == harness.ESTIMATORS

    def test_unknown_name(self):
        stats = compute_stats([1.0, 2.0, 4.0])
        with pytest.raises(ValueError, match="unknown estimator 'XX'"):
            harness.fit_by_name("XX", stats)
        with pytest.raises(ValueError, match="unknown estimator 'XX'"):
            fit_batch("XX", StatsBatch.pack([stats]))


def _records_without_runtime(records) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n"
                   for line in records_to_csv(records).splitlines())


class TestFitWorkers:
    """Fits run inline or in forked workers; the records must not tell."""

    CONFIGS = {
        "golden": ExperimentConfig(sizes=(20, 50), sims_per_size=20),
        "failures": ExperimentConfig(
            sizes=(1, 2, 30), sims_per_size=4, base_seed=1,
            fit=FitOptions(poly_prior=PolyShapePrior(1.0, 1e12, 0.0))),
        "capped": ExperimentConfig(
            sizes=(20, 300), sims_per_size=30,
            fit=FitOptions(conv=ConvergenceConfig(max_iter=7))),
    }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_records_independent_of_worker_count(self, config, monkeypatch):
        cfg = self.CONFIGS[config]
        texts = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(harness, "_fit_workers", lambda cfg: workers)
            records = run_kl_experiment(cfg)
            assert all(math.isfinite(r.runtime_s) and r.runtime_s > 0.0
                       for r in records)
            texts.append(_records_without_runtime(records))
        assert texts[0] == texts[1] == texts[2]

    @pytest.mark.parametrize("setting, in_parent", [
        ("one worker", True), ("two workers", False),
        ("no fork", True), ("another thread", True)])
    def test_where_fits_run(self, setting, in_parent, monkeypatch):
        cfg = self.CONFIGS["golden"]
        want = _records_without_runtime(run_kl_experiment(cfg))
        # A forked worker appends to its own copy of the list.
        calls = []

        def recording_fit_batch(*args):
            calls.append(os.getpid())
            return estimators.fit_batch(*args)

        monkeypatch.setattr(harness, "fit_batch", recording_fit_batch)
        workers = 1 if setting == "one worker" else 2
        monkeypatch.setattr(harness, "_fit_workers", lambda cfg: workers)
        if setting == "no fork":
            monkeypatch.delattr(os, "fork")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if setting == "another thread":
            thread.start()
        try:
            got = _records_without_runtime(run_kl_experiment(cfg))
        finally:
            stop.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert got == want
        assert len(calls) == (2 * 5 if in_parent else 0)

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert harness._fit_workers(ExperimentConfig()) == 3
        assert harness._fit_workers(ExperimentConfig(estimators=("ML1",))) == 1

    def test_import_loads_no_pool_modules(self):
        code = ("import sys, invgamma; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=os.environ.copy())
        assert res.stdout == "[]\n"


class TestCsv:
    def test_header_and_roundtrip(self, small_records, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(small_records, str(path))
        text = path.read_text()
        assert text.splitlines()[0] == RECORDS_CSV_HEADER
        assert RECORDS_CSV_HEADER == ("N,sim,estimator,alpha_true,beta_true,"
                                      "alpha_hat,beta_hat,kl,bias_alpha,"
                                      "bias_beta,iterations,converged,runtime_s")
        back = read_records_csv(str(path))
        assert back == small_records

    def test_floats_roundtrip_exactly(self, small_records, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(small_records, str(path))
        back = read_records_csv(str(path))
        for a, b in zip(small_records, back):
            assert a.alpha_hat == b.alpha_hat
            assert a.kl == b.kl

    def test_booleans_lowercase(self, small_records):
        body = records_to_csv(small_records).splitlines()[1:]
        for line in body:
            assert line.split(",")[11] in ("true", "false")

    def test_aggregates_recomputed_from_csv_match(self, small_records, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(small_records, str(path))
        direct = aggregate_bias(small_records)
        from_csv = aggregate_bias(read_records_csv(str(path)))
        for a, b in zip(direct, from_csv):
            assert a.estimator == b.estimator and a.N == b.N
            assert abs(a.mean_bias_alpha - b.mean_bias_alpha) <= 1e-12
            assert abs(a.std_bias_alpha - b.std_bias_alpha) <= 1e-12
            assert abs(a.mean_bias_beta - b.mean_bias_beta) <= 1e-12
            assert abs(a.std_bias_beta - b.std_bias_beta) <= 1e-12

    def test_aggregates_keep_record_order(self, small_records):
        keys = [(a.N, a.estimator) for a in aggregate_bias(small_records)]
        assert keys == [(n, e) for n in SMALL.sizes for e in ESTIMATORS]
        backwards = aggregate_bias(small_records[::-1])
        assert [(a.N, a.estimator) for a in backwards] == keys[::-1]

    def test_bias_csv(self, small_records, tmp_path):
        path = tmp_path / "bias.csv"
        write_bias_csv(aggregate_bias(small_records), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == BIAS_CSV_HEADER
        assert len(lines) == 1 + 2 * 5
        # Whole aggregate CSVs of ``invgamma bias``, pinned when each field
        # had its own formatting call; the second holds 8 nan.
        for args, digest in [
            ("--sizes 20,50 --sims 200 --seed 0",
             "6f9217eeb219fec3a6158e7aa11375917d0e2ff26f6d9c37aecfbf2560998c83"),
            ("--sizes 1,2,3,30 --sims 40 --seed 3 --w1 1e12",
             "cc8e3438e501b69dfd9d068d0a80584ae87cfcdf1e0ce2ed77b3b4834e64be53"),
        ]:
            assert cli.main(["bias", *args.split(), "--out",
                             str(tmp_path / "raw.csv"), "--agg-out", str(path)]) == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestBiasExperiment:
    def test_aggregates_and_raw(self):
        cfg = ExperimentConfig(sizes=(60, 240), sims_per_size=40, base_seed=3,
                               estimators=("ML1", "ML2"))
        aggs, records = run_bias_experiment(cfg)
        assert len(records) == 2 * 40 * 2
        by_key = {(a.N, a.estimator): a for a in aggs}
        for est in ("ML1", "ML2"):
            assert by_key[(240, est)].std_bias_alpha < by_key[(60, est)].std_bias_alpha
            assert by_key[(60, est)].n_used == 40

    def test_mm_bias_zero_on_exact_moments(self):
        # no sampling noise: feeding the analytic moments back recovers
        # truth; exact to the bit for a pair whose moment arithmetic is
        # representable, and to rounding otherwise
        from invgamma import fit_mm, moments
        truth = InvGammaParams(4.0, 9.0)
        m, v = moments(truth)
        r = fit_mm(SufficientStats(50, m, v, 1.0, 0.0, 0.0))
        assert r.params.alpha - truth.alpha == 0.0
        assert r.params.beta - truth.beta == 0.0
        truth = InvGammaParams(6.0, 11.0)
        m, v = moments(truth)
        r = fit_mm(SufficientStats(50, m, v, 1.0, 0.0, 0.0))
        assert r.params.alpha == pytest.approx(truth.alpha, rel=1e-14)
        assert r.params.beta == pytest.approx(truth.beta, rel=1e-14)


def midranks_loop(values):
    """Oracle: midranks and tie-group sizes by walking the sorted values."""
    order = np.argsort(values, kind="mergesort")
    sv = values[order]
    ranks = np.empty(values.size)
    ties = []
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        ties.append(j - i + 1)
        i = j + 1
    return ranks, np.array(ties, dtype=np.float64)


def exact_rank_sum_p(x, y):
    """Oracle: exhaustive permutation distribution of the U statistic."""
    comb = np.concatenate([x, y])
    order = np.argsort(comb, kind="mergesort")
    ranks = np.empty(comb.size)
    sv = comb[order]
    i = 0
    while i < comb.size:
        j = i
        while j + 1 < comb.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n1 = len(x)
    mu = n1 * len(y) / 2.0
    obs = abs(float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0 - mu)
    hits = total = 0
    for pick in itertools.combinations(range(comb.size), n1):
        u = ranks[list(pick)].sum() - n1 * (n1 + 1) / 2.0
        total += 1
        hits += abs(u - mu) >= obs - 1e-12
    return hits / total


class TestWilcoxonRankSum:
    def test_identical_samples(self):
        vals = list(range(10))
        _, p = wilcoxon_rank_sum(vals, vals)
        assert p >= 0.95

    def test_total_separation(self):
        lo = np.arange(20.0)
        hi = np.arange(100.0, 120.0)
        _, p = wilcoxon_rank_sum(lo, hi)
        assert p < 1e-6

    def test_matches_exact_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.normal(0.0, 1.0, 8).round(1)
            y = rng.normal(0.5, 1.0, 8).round(1)
            _, p = wilcoxon_rank_sum(x, y)
            assert p == pytest.approx(exact_rank_sum_p(x, y), abs=0.02)

    def test_matches_scipy(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.normal(0.0, 1.0, 30)
            y = rng.normal(0.4, 1.3, 23)
            stat, p = wilcoxon_rank_sum(x, y)
            ref = mannwhitneyu(x, y, alternative="two-sided",
                               method="asymptotic", use_continuity=True)
            assert stat == pytest.approx(float(ref.statistic), abs=1e-9)
            assert p == pytest.approx(float(ref.pvalue), rel=1e-9)

    def test_midranks_match_loop(self):
        rng = np.random.default_rng(11)
        cases = [np.empty(0), np.array([3.0]), np.full(7, 2.5)]
        cases += [rng.normal(0.0, 1.0, n).round(d)
                  for n in (10, 57, 400) for d in (0, 1, 6)]
        for values in cases:
            ranks, ties = _midranks(values)
            want_ranks, want_ties = midranks_loop(values)
            assert np.array_equal(ranks, want_ranks)
            assert np.array_equal(ties, want_ties)

    def test_handles_heavy_ties(self):
        x = [1.0] * 12
        y = [1.0] * 11
        _, p = wilcoxon_rank_sum(x, y)
        assert p == 1.0

    def test_size_errors(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([], [1.0] * 12)
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([1.0, 2.0], [3.0, 4.0])

    @pytest.mark.parametrize("xs, ys", [
        ([math.nan] * 6, [1.0, 2.0, 3.0, 4.0, 5.0]),
        ([1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 7.0, 8.0, 9.0, math.nan]),
    ])
    def test_nan_refused(self, xs, ys):
        # A NaN has no rank, so no p-value can be taken with one.
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_rank_sum(xs, ys)


@pytest.fixture(scope="module")
def demo_curve_rows():
    # Seed chosen so the moment initializer that seeds the shared scale
    # estimate lands near the truth; the peak tracks it.
    truth = InvGammaParams(10.0, 25.0)
    stats = compute_stats(sample(truth, 1000, np.random.default_rng(0)))
    grid = np.linspace(2.0, 20.0, 361)
    rows = emit_prior_posterior_curves(stats, DEFAULT_CURVE_VARIANTS,
                                       ScaleGammaPrior(0.01, 0.01),
                                       grid, truth.alpha)
    return grid, rows


class TestCurves:
    def test_posterior_peak_near_truth(self, demo_curve_rows):
        grid, rows = demo_curve_rows
        for variant in {r[0] for r in rows}:
            sub = [r for r in rows if r[0] == variant]
            post = np.array([r[3] for r in sub])
            peak = grid[np.argmax(post)]
            assert abs(peak - 10.0) / 10.0 < 0.05
            # reported alpha_hat agrees with the curve maximum
            assert abs(sub[0][5] - peak) <= 2 * (grid[1] - grid[0])

    def test_posterior_sharper_than_prior(self, demo_curve_rows):
        grid, rows = demo_curve_rows
        for variant in {r[0] for r in rows}:
            sub = [r for r in rows if r[0] == variant]
            prior = np.array([r[2] for r in sub])
            post = np.array([r[3] for r in sub])
            k = int(np.argmax(post))
            k = min(max(k, 1), len(grid) - 2)
            curv_post = post[k - 1] - 2 * post[k] + post[k + 1]
            curv_prior = prior[k - 1] - 2 * prior[k] + prior[k + 1]
            assert curv_post < curv_prior

    def test_no_data_prior_equals_posterior(self):
        grid = np.linspace(1.0, 20.0, 40)
        rows = emit_prior_posterior_curves(SufficientStats.empty(),
                                           DEFAULT_CURVE_VARIANTS,
                                           ScaleGammaPrior(2.0, 0.5),
                                           grid, 10.0)
        for (_, _, log_prior, log_post, _, _) in rows:
            assert log_prior == log_post

    def test_curves_csv(self, demo_curve_rows, tmp_path):
        _, rows = demo_curve_rows
        path = tmp_path / "curves.csv"
        write_curves_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CURVES_CSV_HEADER
        assert len(lines) == 1 + len(rows)
        # Whole files of ``invgamma curves``, pinned when each field had its
        # own formatting call.
        for n, digest in [
            ("1000", "dfa18bc5192bfaa93ccd4eab5cc48b6d7634e68596b2d5c9d940d03d384ada2d"),
            ("0", "f75b382a99e5c5353e105b201a8178e8ff2f32f36b7a4370b3300d857025340f"),
        ]:
            assert cli.main(["curves", "--alpha", "10", "--beta", "25", "--n", n,
                             "--seed", "0", "--out", str(path)]) == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestKlByEstimator:
    def test_filters_by_size_and_finiteness(self, small_records):
        by = kl_by_estimator(small_records, 40)
        assert set(by) == {"MM", "ML1", "ML2", "BL1", "BL2"}
        assert all(v.size == 12 for v in by.values())
        assert all(np.isfinite(v).all() for v in by.values())
