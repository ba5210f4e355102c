"""Experiment runner determinism, CSV contracts, rank-sum test and curves."""

import argparse
import hashlib
import itertools
import math
import os
import stat
import struct
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from invgamma import cli, estimators, forked, harness, specfun
from invgamma.distribution import InvGammaParams
from invgamma.harness import (
    BIAS_CSV_HEADER,
    CURVES_CSV_HEADER,
    DEFAULT_CURVE_VARIANTS,
    RECORDS_CSV_HEADER,
    BiasAggregate,
    SimulationRecord,
    SimulationRecords,
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
from conftest import traced_peak

SMALL = ExperimentConfig(sizes=(40, 80), sims_per_size=12, base_seed=77)

_DRAW_SHARD = harness._draw_shard
_DRAW_PIDS = []


def _recording_draw_shard(*args):
    # A forked worker appends to its own copy of the list.
    _DRAW_PIDS.append(os.getpid())
    return _DRAW_SHARD(*args)


# Floats of every kind a record can hold, the edge cases drawn often.
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                                     5e-324, 2.5e-310, 1e308, -1e308]),
                    st.floats())
_RECORDS = st.builds(SimulationRecord, st.integers(0, 3), st.integers(0, 99),
                     st.sampled_from(ESTIMATORS), *[_FLOATS] * 7,
                     st.integers(0, 1000), st.booleans(), _FLOATS)


def _typed_bits(record):
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v)
            for v in record]


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
        monkeypatch.setattr(harness, "_fit_workers", lambda: workers)
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

    def test_row_chunk_digest(self):
        # sha256 of the records CSV without runtime_s over n < 2 samples,
        # chunks of several rows and a row longer than the sampler's block
        # of pairs.  Pinned before draws were batched by rows.
        records = run_kl_experiment(ExperimentConfig(
            sizes=(1, 2, 700, 62000), sims_per_size=3))
        text = "".join(line.rsplit(",", 1)[0] + "\n"
                       for line in records_to_csv(records).splitlines())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "23ba7a0a3ff0fc62f2c96387fb9cfcc95a8095bced9a1730d1bf8451b2c45866")

    def test_programming_errors_propagate(self, monkeypatch):
        # Only the estimators' domain errors become NaN rows; a bug inside
        # a fitter aborts the sweep.
        def broken(y):
            raise TypeError("broken kernel")

        # A batch this small finishes its rows on floats: break both tables.
        for ops in (specfun._ARRAY_OPS, specfun._FLOAT_OPS):
            monkeypatch.setattr(ops, "inv_digamma", broken)
        cfg = ExperimentConfig(sizes=(30,), sims_per_size=2,
                               estimators=("MM", "ML1"))
        # Inline, and raised in a forked fit worker.
        for workers in (1, 2):
            monkeypatch.setattr(harness, "_fit_workers", lambda: workers)
            with pytest.raises(TypeError, match="broken kernel"):
                run_kl_experiment(cfg)

    def test_worker_traceback_is_kept(self, monkeypatch):
        # An error raised in a forked fit worker carries the worker's
        # traceback, down to the frame that raised.
        def broken_kernel(y):
            raise TypeError("broken kernel")

        for ops in (specfun._ARRAY_OPS, specfun._FLOAT_OPS):
            monkeypatch.setattr(ops, "inv_digamma", broken_kernel)
        monkeypatch.setattr(harness, "_fit_workers", lambda: 2)
        with pytest.raises(TypeError) as info:
            run_kl_experiment(ExperimentConfig(sizes=(30,), sims_per_size=2,
                                               estimators=("MM", "ML1")))
        remote = str(info.value.__cause__)
        assert "_timed_fit" in remote and "in broken_kernel" in remote

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
        ((0,), "sizes must be >= 1"),
    ])
    def test_size_list_validation(self, sizes, msg):
        with pytest.raises(ValueError, match=f"^{msg}$"):
            ExperimentConfig(sizes=sizes)


class TestSimulationRecords:
    """A sweep's records are columns; rows are built when they are read."""

    def test_a_sequence_of_rows(self, small_records):
        rows = list(small_records)
        assert isinstance(small_records, SimulationRecords)
        assert len(small_records) == len(rows) == 2 * 12 * 5
        assert [type(v) for v in rows[0]] == [
            int, int, str, *[float] * 7, int, bool, float]
        for i in (0, 7, 59, -1, -len(rows)):
            assert small_records[i] == rows[i]
        for cut in (slice(None, None, -1), slice(3, 9), slice(-7, None, 2)):
            assert small_records[cut] == rows[cut]
        assert small_records == rows and rows == small_records
        assert small_records != rows[:-1]
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                small_records[i]

    def test_columns_are_the_fields_of_the_rows(self, small_records):
        rows = list(small_records)
        for i, field in enumerate(SimulationRecord._fields):
            assert small_records.column(field).tolist() == [r[i] for r in rows]

    @pytest.mark.parametrize("block", [1, 5, 7])
    def test_blocks_do_not_show(self, small_records, block, monkeypatch):
        rows, text = list(small_records), records_to_csv(small_records)
        monkeypatch.setattr(harness, "_BLOCK_SIMS", block)
        assert list(small_records) == rows
        assert records_to_csv(small_records) == records_to_csv(rows) == text

    def test_summaries_read_columns_or_rows(self, small_records):
        rows = list(small_records)
        assert aggregate_bias(small_records) == aggregate_bias(rows)
        for size in SMALL.sizes:
            by_column = kl_by_estimator(small_records)[size]
            by_row = kl_by_estimator(rows)[size]
            assert list(by_column) == list(by_row) == list(ESTIMATORS)
            for name in ESTIMATORS:
                assert by_column[name].tobytes() == by_row[name].tobytes()
        assert aggregate_bias([]) == [] and kl_by_estimator([]).get(40, {}) == {}

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(_RECORDS, max_size=40), as_generator=st.booleans())
    def test_rows_convert_to_the_same_columns(self, rows, as_generator):
        # Any rows, in any order: the CSV is the row's fields formatted one
        # by one, the rows come back with their types and float bits, and
        # the summaries are a group-by over the rows.
        def given_rows():
            return (r for r in rows) if as_generator else rows

        text = "".join(
            ",".join(["%d" % r.N, "%d" % r.sim, r.estimator,
                      *("%.17g" % v for v in r[3:10]), "%d" % r.iterations,
                      ("false", "true")[r.converged],
                      "%.17g" % r.runtime_s]) + "\n" for r in rows)
        assert records_to_csv(given_rows()) == RECORDS_CSV_HEADER + "\n" + text
        back = list(SimulationRecords._of(given_rows()))
        assert [_typed_bits(r) for r in back] == [_typed_bits(r) for r in rows]

        groups = {}
        for r in rows:
            groups.setdefault((r.N, r.estimator), []).append(r)
        want = []
        with np.errstate(all="ignore"):  # means of 1e308s overflow
            for (size, name), group in groups.items():
                used = [r for r in group if math.isfinite(r.bias_alpha)
                        and math.isfinite(r.bias_beta)]
                ba, bb = (np.array([getattr(r, f) for r in used])
                          for f in ("bias_alpha", "bias_beta"))
                n = len(used)
                want.append(BiasAggregate(
                    size, name, n, len(group) - n,
                    float(np.mean(ba)) if n else math.nan,
                    float(np.std(ba, ddof=1)) if n >= 2 else math.nan,
                    float(np.mean(bb)) if n else math.nan,
                    float(np.std(bb, ddof=1)) if n >= 2 else math.nan))
            assert repr(aggregate_bias(given_rows())) == repr(want)
        for size in {r.N for r in rows} | {-1}:
            at = [r for r in rows if r.N == size]
            kls = {name: [r.kl for r in at
                          if r.estimator == name and math.isfinite(r.kl)]
                   for name in dict.fromkeys(r.estimator for r in at)}
            got = kl_by_estimator(given_rows()).get(size, {})
            assert list(got) == list(kls)
            assert [got[name].tobytes() for name in got] == [
                np.array(v, dtype=np.float64).tobytes() for v in kls.values()]

    def test_memory(self, tmp_path):
        # Columns and streamed blocks: no row objects or whole CSV text.
        cfg = ExperimentConfig(sizes=(20, 50), sims_per_size=1500)
        records = run_kl_experiment(cfg)  # and whatever it imports
        assert traced_peak(run_kl_experiment, cfg) < 2e6
        assert traced_peak(write_records_csv, records,
                           str(tmp_path / "records.csv")) < 1e6


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
            monkeypatch.setattr(harness, "_fit_workers", lambda: workers)
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
        # A forked worker appends to its own copy of each list.
        calls = []
        _DRAW_PIDS.clear()

        def recording_fit_batch(*args):
            calls.append(os.getpid())
            return estimators.fit_batch(*args)

        monkeypatch.setattr(harness, "fit_batch", recording_fit_batch)
        monkeypatch.setattr(harness, "_draw_shard", _recording_draw_shard)
        workers = 1 if setting == "one worker" else 2
        monkeypatch.setattr(harness, "_fit_workers", lambda: workers)
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
        # One fit_batch per estimator over both sizes and one draw shard per
        # size inline; none of either in this process when the sweep forks
        # its children.
        assert calls == ([os.getpid()] * 5 if in_parent else [])
        assert _DRAW_PIDS == ([os.getpid()] * 2 if in_parent else [])

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert harness._fit_workers() == 3

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_worker_count_without_affinity(self, cpus, workers, monkeypatch):
        # No affinity masks on the platform: every CPU, and one when the
        # count is unknown.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert harness._fit_workers() == workers

    @pytest.mark.parametrize("sims", [1, 2])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_shards_with_few_sims(self, sims, workers, monkeypatch):
        # Each size's sims split into at most one shard per worker, none
        # empty and all in order, and the records equal the inline run.
        cfg = ExperimentConfig(sizes=(20, 7), sims_per_size=sims)
        shards = []

        def recording_draw_shard(cfg, size, sims):
            shards.append((size, sims))
            return _DRAW_SHARD(cfg, size, sims)

        monkeypatch.setattr(harness, "_draw_shard", recording_draw_shard)
        swept = harness._sweep(cfg, itertools.starmap, workers)
        monkeypatch.undo()
        assert len(shards) == 2 * min(sims, workers) and all(
            r for _, r in shards)
        for size in cfg.sizes:
            assert [i for n, r in shards if n == size for i in r] == list(
                range(sims))
        texts = [_records_without_runtime(swept)]
        for count in (1, workers):
            monkeypatch.setattr(harness, "_fit_workers", lambda: count)
            texts.append(_records_without_runtime(run_kl_experiment(cfg)))
        assert texts[0] == texts[1] == texts[2]
        assert texts[0].count("\n") == 1 + 2 * sims * len(ESTIMATORS)

    def test_runtime_is_per_estimator(self):
        # Each estimator's one fit_batch time, shared by all of its rows.
        records = run_kl_experiment(self.CONFIGS["golden"])
        for name in ESTIMATORS:
            times = {r.runtime_s for r in records if r.estimator == name}
            assert len(times) == 1 and times.pop() > 0.0

    @staticmethod
    def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
        # In a child interpreter with a timeout, so that a sweep that hangs
        # fails the test instead of holding the suite.  At its exit the
        # interpreter prints "no child left" if it has no child process.
        code = textwrap.dedent("""
            import atexit, os

            @atexit.register
            def _no_child_left():
                try:
                    os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    print("no child left")
        """) + textwrap.dedent(code)
        return subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, text=True, timeout=60,
                              env=os.environ.copy())

    @pytest.mark.parametrize("task", ["_draw_shard", "_timed_fit"])
    def test_killed_worker_fails_fast(self, task, tmp_path):
        # One worker killed in the draw or the fit phase, as the OOM killer
        # would, while the others would run for 20 s: the sweep raises
        # within a second, kills and reaps every child, and benchmark exits
        # 6 in one line without writing its CSV.
        out, first = tmp_path / "r.csv", tmp_path / "first"
        res = self._run_python(f"""
            import contextlib, io, os, signal, sys, time
            from invgamma import cli, harness

            def killed(*args):
                try:  # only the first call's marker is new
                    os.close(os.open(sys.argv[2], os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    time.sleep(20)
                os.kill(os.getpid(), signal.SIGKILL)

            harness._fit_workers = lambda: 2
            harness.{task} = killed
            t0 = time.perf_counter()
            try:
                harness.run_kl_experiment(harness.ExperimentConfig(
                    sizes=(20, 50), sims_per_size=10))
            except harness.WorkerError as exc:
                print(exc, time.perf_counter() - t0 < 1.0)
            os.unlink(sys.argv[2])
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["benchmark", "--sizes", "20,50", "--sims",
                                 "10", "--out", sys.argv[1]])
            print(code, repr(err.getvalue()))
        """, str(out), str(first))
        msg = "a sweep worker was killed by signal 9"
        assert res.stdout == (f"{msg} True\n6 'invgamma: {msg}\\n'\n"
                              "no child left\n"), res.stderr
        assert not out.exists()

    def test_at_most_workers_children_alive(self, tmp_path):
        # Five tasks on two workers, as a sweep's five fits: each child
        # counts the markers of the children alive beside it, so no more
        # than two run at once, and the results come back in task order.
        def task(i):
            mark = tmp_path / str(i)
            mark.touch()
            time.sleep(0.05)
            alive = len(list(tmp_path.iterdir()))
            mark.unlink()
            return i, alive

        results = forked.starmap(task, [(i,) for i in range(5)], 2)
        assert [i for i, _ in results] == list(range(5))
        assert max(alive for _, alive in results) <= 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unpicklable_result_fails_fast(self):
        # A result that a child cannot pickle raises in the caller, and no
        # child is left behind.
        res = self._run_python("""
            from invgamma import harness

            def unpicklable(*args):
                return lambda: None

            harness._fit_workers = lambda: 2
            harness._draw_shard = unpicklable
            harness.run_kl_experiment(
                harness.ExperimentConfig(sizes=(20,), sims_per_size=4))
        """)
        assert res.returncode == 1
        assert "Can't pickle local object" in res.stderr
        assert res.stdout == "no child left\n"

    def test_unpicklable_exception_keeps_its_text(self):
        # An exception that a child cannot pickle (it holds a lock) reaches
        # the caller as a RuntimeError naming its type and message, chained
        # to the child's traceback, not as a worker that exited with
        # status 1; no child is left behind.
        def task(i):
            exc = ValueError(f"task {i} failed")
            exc.lock = threading.Lock()
            raise exc

        with pytest.raises(RuntimeError,
                           match=r"^ValueError: task 0 failed$") as info:
            forked.starmap(task, [(0,)], 2)
        assert type(info.value) is RuntimeError
        remote = str(info.value.__cause__)
        assert "in task" in remote and "task 0 failed" in remote
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_import_loads_no_pool_modules(self):
        # Neither importing the package nor a sweep run in forked children
        # loads a pool module or, in the sweep's parent, numpy.random.
        listed = ("print(sorted(m for m in sys.modules if m.split('.')[0] in "
                  "('multiprocessing', 'concurrent') or "
                  "m.startswith('numpy.random')))")
        res = self._run_python("import sys, invgamma\n" + listed)
        assert res.stdout == "[]\nno child left\n", res.stderr
        res = self._run_python(
            "import sys\nfrom invgamma import harness\n"
            "harness._fit_workers = lambda: 2\n"
            "harness.run_kl_experiment(harness.ExperimentConfig("
            "sizes=(20, 50), sims_per_size=10))\n" + listed)
        assert res.stdout == "[]\nno child left\n", res.stderr


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

    def test_read_rejects_another_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text(CURVES_CSV_HEADER + "\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_records_csv(str(path))

    @pytest.mark.parametrize("row", [
        "20,0,MM,1,2,3,4,5,6,7,8,True,9",  # converged not false or true
        "20,0,MM,1,2,3,4,5,6,7,8,yes,9",
        "20,0,MM,1,2,3,4,5,6,7,8,true,9,10",  # 14 fields
        "20,0,MM,1,2,3,4,5,6,7,8,true",  # 12 fields
    ])
    def test_read_rejects_a_malformed_row(self, tmp_path, row):
        path = tmp_path / "records.csv"
        good = "20,1,MM,1,2,3,4,5,6,7,8,false,9"
        path.write_text("\n".join([RECORDS_CSV_HEADER, good, row, good]) + "\n")
        with pytest.raises(ValueError) as info:
            read_records_csv(str(path))
        assert str(info.value) == f"{path}: line 3: not a records row: {row!r}"

    def test_floats_roundtrip_exactly(self, small_records, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(small_records, str(path))
        back = read_records_csv(str(path))
        for a, b in zip(small_records, back):
            assert a.alpha_hat == b.alpha_hat
            assert a.kl == b.kl

    def test_written_text_of_every_kind_of_records(self, tmp_path):
        # Columns, rows, reversed rows and rows read back, with NaN rows.
        records = run_kl_experiment(TestFitWorkers.CONFIGS["failures"])
        path = tmp_path / "records.csv"
        write_records_csv(records, str(path))
        back = read_records_csv(str(path))
        for kind in (records, list(records), records[::-1], back):
            write_records_csv(kind, str(path))
            assert path.read_text() == records_to_csv(kind)
        header, *lines = records_to_csv(records).splitlines(keepends=True)
        assert records_to_csv(back) == records_to_csv(records)
        assert records_to_csv(records[::-1]) == "".join([header, *lines[::-1]])
        assert records_to_csv([]) == header

    def test_signed_zeros_stay_apart(self, tmp_path):
        # -0.0 == 0.0 in Python; each is written as it was read.
        path = tmp_path / "zeros.csv"
        text = RECORDS_CSV_HEADER + "\n" + "".join(
            f"20,{i},MM,{z},{z},{z},{z},{z},{z},{z},0,true,{z}\n"
            for i, z in enumerate(("0", "-0", "0", "-0")))
        path.write_text(text)
        assert records_to_csv(read_records_csv(str(path))) == text

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


class TestAtomicWrite:
    """A CSV replaces a regular file by a rename; any other target is
    written in place, and the mode is what ``open(path, "w")`` gives."""

    def test_symlink_stays_and_its_target_holds_the_csv(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert cli.main(["benchmark", "--sizes", "20", "--sims", "3",
                         "--estimators", "MM", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().splitlines()[0] == RECORDS_CSV_HEADER
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.csv", "target.csv"]

    def test_dangling_symlink_stays_and_its_target_is_created(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        assert cli.main(["benchmark", "--sizes", "20", "--sims", "3",
                         "--estimators", "MM", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().splitlines()[0] == RECORDS_CSV_HEADER
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.csv", "target.csv"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            harness._atomic_write(str(tmp_path / "out.csv"), ["a\n"])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exists", [True, False])
    def test_failed_block_leaves_the_old_file(self, exists, tmp_path):
        out = tmp_path / "out.csv"
        if exists:
            out.write_bytes(b"old,file\n1,2\n")

        def blocks():
            yield "a,b\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            harness._atomic_write(str(out), blocks())
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"] * exists
        if exists:
            assert out.read_bytes() == b"old,file\n1,2\n"

    def test_fifo_stays_a_fifo(self, tmp_path):
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        harness._atomic_write(str(fifo), iter(["a,b\n", "1,2\n"]))
        reader.join(timeout=10)
        assert got == ["a,b\n1,2\n"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("out", harness._STDOUT_PATHS)
    def test_fd_1_without_its_link_is_stdout(self, out, tmp_path, capsys,
                                             monkeypatch):
        # A host with no such link: the CSV still goes to stdout, before
        # the summary, and nothing under /dev or /proc is created or
        # replaced (the guards fail the test before the real call).
        args = ["benchmark", "--sizes", "20", "--sims", "12",
                "--estimators", "MM,ML1"]
        assert cli.main([*args, "--out", str(tmp_path / "sep.csv")]) == 0
        want = (tmp_path / "sep.csv").read_text() + capsys.readouterr().out

        def missing(real):
            def call(path, *args, **kwargs):
                if path == out:
                    raise FileNotFoundError(2, "No such file", path)
                return real(path, *args, **kwargs)
            return call

        def guarded(real):
            def call(*args, **kwargs):
                for path in args[:2]:
                    if str(path).startswith(("/dev/", "/proc/")):
                        pytest.fail(f"{real.__name__}({path!r})")
                return real(*args, **kwargs)
            return call

        # Inline, so that the patched os calls are made in this process
        # alone, not in forked children.
        monkeypatch.setattr(harness, "_fit_workers", lambda: 1)
        for name, wrap in [("lstat", missing), ("stat", missing),
                           ("open", guarded), ("replace", guarded)]:
            monkeypatch.setattr(os, name, wrap(getattr(os, name)))
        assert cli.main([*args, "--out", out]) == 0
        strip = lambda text: [line.rsplit(",", 1)[0]
                              for line in text.splitlines()]
        got = capsys.readouterr().out
        assert got.startswith(RECORDS_CSV_HEADER + "\n")
        assert strip(got) == strip(want)

    def test_mode_follows_umask_or_existing_file(self, tmp_path):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("old\n")
        old.chmod(0o604)
        mask = os.umask(0o027)
        try:
            harness._atomic_write(str(new), ["a\n"])
            harness._atomic_write(str(old), ["b\n"])
        finally:
            os.umask(mask)
        assert stat.S_IMODE(new.stat().st_mode) == 0o640
        assert stat.S_IMODE(old.stat().st_mode) == 0o604
        assert (new.read_text(), old.read_text()) == ("a\n", "b\n")


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

    def test_prior_needs_no_finite_maximizer(self):
        # At b = 1e-310 the prior's invdigamma argument overflows; only the
        # posterior's maximizer is computed, so both curves are drawn.
        sp = ShapePriorABC(1.0, 1e-310, 0.01)
        stats = compute_stats(sample(InvGammaParams(3.0, 2.0), 40,
                                     np.random.default_rng(5)))
        rows = emit_prior_posterior_curves(stats, [sp], ScaleGammaPrior(),
                                           np.linspace(0.5, 10.0, 5), 3.0)
        assert np.isfinite([r[2:] for r in rows]).all()

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
        by = kl_by_estimator(small_records)[40]
        assert set(by) == {"MM", "ML1", "ML2", "BL1", "BL2"}
        assert all(v.size == 12 for v in by.values())
        assert all(np.isfinite(v).all() for v in by.values())

    def test_memory(self):
        # The N, estimator and KL columns (28 bytes a record) and a few
        # masks; a Python str per record, to find the groups, read 96.
        records = run_kl_experiment(ExperimentConfig(sizes=(20, 50),
                                                     sims_per_size=1500))
        kl_by_estimator(records)  # and whatever it imports
        assert traced_peak(kl_by_estimator, records) < 64 * len(records)
