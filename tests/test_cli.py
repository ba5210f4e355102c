"""End-to-end CLI behaviour: output values, exit codes, determinism."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invgamma import (
    ESTIMATORS,
    ExperimentConfig,
    FitOptions,
    InvGammaParams,
    ScaleGammaPrior,
    compute_stats,
    fit_ml1,
    fit_mm,
    kl_divergence,
    sample,
)
from invgamma import cli, harness
from invgamma.harness import (
    RECORDS_CSV_HEADER,
    SimulationRecords,
    read_records_csv,
)
from conftest import traced_peak


def run_cli(*args, stdin: str | None = None):
    return subprocess.run([sys.executable, "-m", "invgamma", *args],
                          input=stdin, capture_output=True, text=True,
                          env=os.environ.copy())


def run_main(*args, stdin: str = ""):
    """``run_cli`` in this process: ``cli.main(args)`` with stdin, stdout
    and stderr redirected, a ``SystemExit`` (argparse's) taken as the exit
    code, and every warning written to stderr as the interpreter would
    print it.  For a command's logic; where the process itself is tested
    (interpreter flags, fd 1, pipes, the fork, ``python -m``), use
    ``run_cli``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    err.writelines(warnings.formatwarning(w.message, w.category, w.filename,
                                          w.lineno, w.line) for w in caught)
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition("=")
        out[key] = val
    return out


class TestFit:
    def test_mm_hand_values(self):
        res = run_main("fit", "--estimator", "mm", stdin="1\n2\n4\n")
        assert res.returncode == 0
        kv = parse_kv(res.stdout)
        assert float(kv["alpha"]) == pytest.approx(13 / 3, rel=1e-12)
        assert float(kv["beta"]) == pytest.approx(70 / 9, rel=1e-12)
        assert kv["n"] == "3"
        assert kv["converged"] == "true"

    def test_blank_lines_ignored(self):
        res = run_main("fit", "--estimator", "mm", stdin="1\n\n2\n\n4\n")
        assert res.returncode == 0
        assert parse_kv(res.stdout)["n"] == "3"

    def test_matches_library_bitwise(self, tmp_path):
        x = sample(InvGammaParams(5, 8), 200, np.random.default_rng(3))
        path = tmp_path / "data.txt"
        path.write_text("".join(f"{v:.17g}\n" for v in x))
        res = run_main("fit", "--estimator", "mm", "--input", str(path))
        kv = parse_kv(res.stdout)
        ref = fit_mm(compute_stats(np.array([float(f"{v:.17g}") for v in x])))
        assert float(kv["alpha"]) == ref.params.alpha
        assert float(kv["beta"]) == ref.params.beta

    def test_bl1_demo_recovery(self, tmp_path):
        x = sample(InvGammaParams(10, 25), 1000, np.random.default_rng(12345))
        path = tmp_path / "data.txt"
        path.write_text("".join(f"{v:.17g}\n" for v in x))
        res = run_main("fit", "--estimator", "bl1", "--input", str(path))
        kv = parse_kv(res.stdout)
        assert 8.5 <= float(kv["alpha"]) <= 11.5
        assert "posterior_mean" in kv and "posterior_precision" in kv

    def test_json_output(self):
        res = run_main("fit", "--estimator", "ml2", "--json",
                       stdin="0.5\n1.2\n0.8\n2.0\n1.1\n")
        obj = json.loads(res.stdout)
        assert obj["estimator"] == "ml2"
        assert obj["converged"] is True

    def test_nonpositive_value_exits_3(self):
        res = run_main("fit", "--estimator", "mm", stdin="1\n-1\n2\n")
        assert res.returncode == 3
        assert "line 2" in res.stderr

    def test_malformed_value_exits_2(self):
        res = run_main("fit", "--estimator", "mm", stdin="1\nbogus\n")
        assert res.returncode == 2
        assert "line 2" in res.stderr

    def test_degenerate_sample_exits_4(self):
        res = run_main("fit", "--estimator", "ml1", stdin="2\n2\n2\n")
        assert res.returncode == 4

    def test_near_constant_surrogate_exits_4(self):
        # The ML2 update divides by zero on this sample; the fit reports a
        # degenerate sample instead of a traceback.
        res = run_main("fit", "--estimator", "ml2", stdin="1.0101\n" * 20)
        assert res.returncode == 4
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invgamma: "), lines

    @pytest.mark.parametrize("stdin", [
        "1e308\n1.5e308\n1e307\n",   # mean and variance overflow to inf
        "1e-320\n2e-320\n3e-320\n",  # sum of 1/x overflows, variance is 0
    ])
    def test_float64_limits_exit_4(self, stdin):
        res = run_main("fit", "--estimator", "ml1", stdin=stdin)
        assert res.returncode == 4
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invgamma: "), lines

    @pytest.mark.parametrize("estimator", ["ml1", "ml2", "bl1", "bl2"])
    def test_overflowing_sum_inv_exits_4(self, estimator):
        # Each update takes log sum(1/x), which is inf here.
        res = run_main("fit", "--estimator", estimator,
                       stdin="2.83233e-318\n2613.711528902175\n")
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr == ("invgamma: sum(1/x) overflows float64, so the "
                              f"{estimator.upper()} update is undefined\n")

    def test_overflowing_prior_sum_exits_4(self):
        # sum(1/x) is finite, but the BL1 update takes log(e + sum(1/x)).
        res = run_main("fit", "--estimator", "bl1", "--prior-e", "1.7e308",
                       stdin="1e-308\n3e-8\n2e-3\n")
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr == ("invgamma: e + sum(1/x) overflows float64, so "
                              "the BL1 update is undefined\n")

    @pytest.mark.parametrize("prior_c", ["0.5", "1"])
    def test_runaway_bl1_prior_exits_4(self, tmp_path, prior_c):
        # With c > b the BL1 update sends alpha to infinity on this sample.
        data = run_main("sample", "--alpha", "10", "--beta", "25", "--n", "50",
                        "--seed", "1").stdout
        path = tmp_path / "s.txt"
        path.write_text(data)
        res = run_main("fit", "--estimator", "bl1", "--prior-c", prior_c,
                       "--input", str(path))
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr == ("invgamma: BL1 estimate alpha=inf, beta=inf is "
                              "not finite and > 0\n")

    def test_bl2_near_constant_does_not_converge(self):
        # On this sample the flat-prior BL2 update rounds differently from
        # ML2's (which divides by zero): it runs out its iterations instead.
        res = run_main("fit", "--estimator", "bl2", stdin="1.0101\n" * 20)
        assert res.returncode == 0
        assert parse_kv(res.stdout)["converged"] == "false"
        res = run_main("fit", "--estimator", "bl2", "--strict",
                       stdin="1.0101\n" * 20)
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr.startswith("invgamma: BL2 did not converge within "
                                     "1000 iterations")

    def test_strict_nonconvergence_exits_4(self):
        res = run_main("fit", "--estimator", "ml1", "--strict",
                       "--max-iter", "1", stdin="0.5\n1.2\n0.8\n2.0\n1.1\n")
        assert res.returncode == 4

    def test_nonpositive_prior_a_exits_2(self):
        res = run_main("fit", "--estimator", "bl1", "--prior-a", "0",
                       stdin="1\n2\n4\n")
        assert res.returncode == 2
        assert res.stderr == (
            "invgamma: shape prior a must be finite and > 0, got 0.0\n")

    def test_unknown_flag_exits_2(self):
        res = run_main("fit", "--estimator", "mm", "--nope", stdin="1\n2\n")
        assert res.returncode == 2

    def test_bad_option_before_empty_input_exits_2(self):
        # The options are built before the sample is reduced, so a bad
        # --max-iter exits 2 where the empty sample alone exits 4.
        res = run_main("fit", "--estimator", "ml1", "--max-iter", "0",
                       stdin="")
        assert (res.returncode, res.stdout, res.stderr) == (
            2, "", "invgamma: rel_tol must be > 0 and max_iter >= 1\n")

    def test_posterior_without_maximum_exits_4(self):
        res = run_main("fit", "--estimator", "bl2", "--w1", "1e12",
                       stdin="1.3\n2.2\n0.7\n1.9\n3.1\n")
        assert (res.returncode, res.stdout) == (4, "")
        assert res.stderr.startswith(
            "invgamma: posterior has no interior maximum")
        assert len(res.stderr.splitlines()) == 1


# The required arguments of each subcommand, and its float flags.
FLOAT_FLAGS = {
    "fit": (["--estimator", "mm"],
            ["--tol", "--prior-a", "--prior-b", "--prior-c", "--prior-d",
             "--prior-e", "--w1", "--w2"]),
    "sample": (["--alpha", "1", "--beta", "1", "--n", "1"],
               ["--alpha", "--beta"]),
    "kl": (["--p-alpha", "1", "--p-beta", "1", "--q-alpha", "1",
            "--q-beta", "1"],
           ["--p-alpha", "--p-beta", "--q-alpha", "--q-beta"]),
    "curves": (["--alpha", "1", "--beta", "1", "--n", "1", "--out", "c.csv"],
               ["--alpha", "--beta", "--grid-lo", "--grid-hi", "--prior-d",
                "--prior-e"]),
}


class TestDefaults:
    """The CLI's defaults are the library's."""

    def test_fit(self):
        args = cli.build_parser().parse_args(["fit", "--estimator", "ml1"])
        assert cli._fit_options_from_args(args) == FitOptions()

    @pytest.mark.parametrize("command", ["benchmark", "bias"])
    def test_sweeps(self, command):
        args = cli.build_parser().parse_args([command, "--out", "X"])
        assert cli._config_from_args(args) == ExperimentConfig()

    def test_curves_scale_prior(self):
        args = cli.build_parser().parse_args(
            ["curves", "--alpha", "10", "--beta", "25", "--n", "5",
             "--out", "X"])
        assert ScaleGammaPrior(args.prior_d, args.prior_e) == ScaleGammaPrior()


class TestNegativeFloatFlags:
    """A negative float is a flag's value in the ``--flag value`` form,
    in exponent form too."""

    def test_table_lists_every_float_flag(self):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for command, (_, flags) in FLOAT_FLAGS.items():
            actions = subparsers.choices[command]._actions
            assert sorted(flags) == sorted(
                a.option_strings[0] for a in actions if a.type is float)

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags) in FLOAT_FLAGS.items()
        for flag in flags])
    @pytest.mark.parametrize("text", ["-1e3", "-1E+3", "-1000", "-.1e4"])
    def test_parses_as_value(self, command, flag, text):
        required, _ = FLOAT_FLAGS[command]
        args = cli.build_parser().parse_args([command, *required, flag, text])
        assert getattr(args, flag.lstrip("-").replace("-", "_")) == -1000.0

    def test_fit_reads_exponent_form(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(run_main("sample", "--alpha", "10", "--beta", "25",
                                 "--n", "50", "--seed", "1").stdout)
        runs = [run_main("fit", "--estimator", "bl2", *flag,
                         "--input", str(path))
                for flag in (["--w1", "-1e3"], ["--w1", "-1000"],
                             ["--w1=-1e3"])]
        assert [r.returncode for r in runs] == [0, 0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout


@st.composite
def positive_samples(draw):
    """Positive float64 samples from subnormal up to 1.7e308, half of them
    near-constant: one value x times 1 + k ulp for small k."""
    values = st.floats(5e-324, 1.7e308)
    if draw(st.booleans()):
        return draw(st.lists(values, min_size=1, max_size=40))
    x = draw(values)
    ks = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=40))
    return [x * (1.0 + k * sys.float_info.epsilon) for k in ks]


class TestFitProperty:
    """Every positive sample gets a fit or a typed error: exit 0, or exit 4
    with one stderr line; never a traceback or a bad-parameter exit."""

    @settings(max_examples=150, deadline=None)
    @given(estimator=st.sampled_from([e.lower() for e in ESTIMATORS]),
           values=positive_samples())
    @example(estimator="ml2", values=[2.83233e-318, 2613.711528902175])
    @example(estimator="bl2", values=[2.83233e-318, 2613.711528902175])
    def test_exits_0_or_4(self, estimator, values):
        stdin = io.StringIO("".join(f"{v!r}\n" for v in values))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", stdin), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(["fit", "--estimator", estimator])
        lines = err.getvalue().splitlines()
        assert (code, len(lines)) in ((0, 0), (4, 1)), (code, lines)
        if code == 0:
            assert parse_kv(out.getvalue())["n"] == str(len(values))

    @settings(max_examples=150, deadline=None)
    @given(estimator=st.sampled_from([e.lower() for e in ESTIMATORS]),
           values=positive_samples(),
           priors=st.fixed_dictionaries({
               flag: st.one_of(st.floats(0.0, exclude_min=True,
                                         allow_infinity=False),
                               st.floats(allow_nan=False,
                                         allow_infinity=False))
               for flag in ("--prior-a", "--prior-b", "--prior-c",
                            "--prior-d", "--prior-e", "--w1", "--w2")}))
    @example(estimator="ml1", values=[2.83233e-318, 2613.711528902175],
             priors={})
    @example(estimator="bl1", values=[2.83233e-318, 2613.711528902175],
             priors={})
    @example(estimator="bl2", values=[1.0, 2.0, 4.0],
             priors={"--w1": -1e3, "--w2": -1.5e-300})
    def test_prior_flags_exit_0_2_or_4(self, estimator, values, priors):
        # Finite priors, half of them drawn positive, in the "--flag value"
        # form: a bad one exits 2 with one stderr line, as a failed fit
        # exits 4.
        flags = [t for flag, v in priors.items() for t in (flag, repr(v))]
        stdin = io.StringIO("".join(f"{v!r}\n" for v in values))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", stdin), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(["fit", "--estimator", estimator, *flags])
        lines = err.getvalue().splitlines()
        assert (code, len(lines)) in ((0, 0), (2, 1), (4, 1)), (code, lines)


def _sample_lines(n: int, seed: int) -> list[str]:
    x = sample(InvGammaParams(0.6, 2.0), n, np.random.default_rng(seed))
    return [f"{v:.17g}" for v in x]


class TestFitInput:
    """The chunked reader: same values, exit codes and messages as a
    line-by-line parse, wherever the lines fall in the chunks."""

    @pytest.mark.parametrize("bad, code, msg", [
        ("bogus", 2, "not a number: 'bogus'"),
        ("-2.5", 3, "non-positive value -2.5"),
    ])
    def test_bad_line_in_second_chunk(self, bad, code, msg):
        lines = _sample_lines(70_010, 1)
        lines[70_000] = bad
        res = run_main("fit", "--estimator", "mm",
                       stdin="".join(f"{t}\n" for t in lines))
        assert res.returncode == code
        assert res.stdout == ""
        assert res.stderr == f"invgamma: line 70001: {msg}\n"

    @pytest.mark.parametrize("token, code, msg", [
        ("1 2", 2, "not a number: '1 2'"),
        ("nan", 3, "non-positive value nan"),
        ("inf", 3, "non-positive value inf"),
        ("0", 3, "non-positive value 0"),
        ("-1", 3, "non-positive value -1"),
    ])
    def test_bad_token(self, token, code, msg):
        res = run_main("fit", "--estimator", "mm", stdin=f"1\n{token}\n3\n")
        assert res.returncode == code
        assert res.stderr == f"invgamma: line 2: {msg}\n"

    def test_empty_input_exits_4(self):
        res = run_main("fit", "--estimator", "mm", stdin="")
        assert res.returncode == 4
        assert res.stderr == "invgamma: need at least one sample\n"

    def test_memory(self, tmp_path):
        # The parsed parts (8 bytes a value) and one chunk's lines, each a
        # str and its pointer with its parsed value (about 88 bytes); the
        # parts and the whole array at the end, 16 bytes a value.  The
        # lines of two chunks at once read 11.1 MB.
        n = 200_000
        path = tmp_path / "data.txt"
        path.write_text("".join(f"{t}\n" for t in _sample_lines(n, 4)))
        cli._read_sample(str(path))  # and whatever it imports
        peak = traced_peak(cli._read_sample, str(path))
        assert peak < 8 * n + 96 * cli._PARSE_CHUNK

    @pytest.mark.parametrize("via", ["stdin", "file"])
    def test_messy_input_matches_library(self, tmp_path, via):
        # Blank and padded lines across three chunks, CRLF line ends and no
        # newline after the last value.
        values = _sample_lines(150_000, 2)
        rng = np.random.default_rng(3)
        lines = list(values)
        for pos in sorted(rng.integers(0, len(lines), 300), reverse=True):
            lines.insert(pos, ("", "  ", "\t", f" {lines[pos]}\t ")[pos % 4])
        text = "\r\n".join(lines)
        if via == "file":
            path = tmp_path / "data.txt"
            path.write_bytes(text.encode())
            res = run_main("fit", "--estimator", "ml1", "--json",
                           "--input", str(path))
        else:
            res = run_main("fit", "--estimator", "ml1", "--json", stdin=text)
        assert res.returncode == 0, res.stderr
        got = json.loads(res.stdout)
        stats = compute_stats(np.array([float(t) for t in lines if t.strip()]))
        want = fit_ml1(stats)
        assert stats.n > len(values)  # the padded copies count as values
        assert (got["alpha"], got["beta"], got["n"], got["iterations"],
                got["converged"], got["residual"]) == (
            want.params.alpha, want.params.beta, stats.n, want.iterations,
            want.converged, want.residual)


def read_sample_reference(lines) -> np.ndarray:
    """Oracle: the line-by-line reader that ``_read_sample`` replaced."""
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            v = float(text)
        except ValueError:
            raise cli._Exit(2, f"line {lineno}: not a number: {text!r}")
        if not math.isfinite(v) or v <= 0.0:
            raise cli._Exit(3, f"line {lineno}: non-positive value {text}")
        values.append(v)
    return np.array(values, dtype=np.float64)


class _LineIterable:
    """Input with ``__iter__`` only, like the traced benchmark's stdin."""

    def __init__(self, lines):
        self._lines = lines

    def __iter__(self):
        yield from self._lines


def _outcome(read, lines):
    try:
        return "ok", read(_LineIterable(lines))
    except cli._Exit as exc:
        return "error", exc.code, str(exc)


CHUNK_EDGES = (0, 1, 65_535, 65_536, 65_537, 131_071, 131_072, 131_073)
ODD_LINES = ("", " ", "\t\r", "abc", "1 2", "1,5", "nan", "-inf", "inf", "0",
             "-0.0", "-1", "1e-400", "1e400", " 2.5 ", "1_000", "0x10",
             "\x1c7\x1c", "\u20073\u2007", "5e-324", "1.7976931348623157e308")


class TestReadSampleOracle:
    @settings(max_examples=20, deadline=None)
    @given(n=st.one_of(st.integers(0, 40), st.integers(65_000, 140_000)),
           seed=st.integers(0, 2 ** 32 - 1),
           odd=st.lists(st.tuples(st.one_of(st.sampled_from(CHUNK_EDGES),
                                            st.integers(0, 140_000)),
                                  st.sampled_from(ODD_LINES)), max_size=6),
           ending=st.sampled_from(("\n", "\r\n")),
           last_newline=st.booleans())
    @example(n=131_073, seed=0, odd=[(65_536, "abc")], ending="\n",
             last_newline=True)
    @example(n=70_000, seed=1, odd=[(65_535, ""), (65_536, "-1")],
             ending="\r\n", last_newline=False)
    def test_matches_line_by_line(self, n, seed, odd, ending, last_newline):
        lines = _sample_lines(n, seed)
        for pos, text in odd:
            lines.insert(pos % (len(lines) + 1), text)
        lines = [t + ending for t in lines]
        if lines and not last_newline:
            lines[-1] = lines[-1].rstrip("\r\n")

        def read(fh):
            with mock.patch.object(sys, "stdin", fh):
                return cli._read_sample("-")

        got = _outcome(read, lines)
        want = _outcome(read_sample_reference, lines)
        if want[0] == "ok":
            assert got[0] == "ok", got
            assert got[1].dtype == np.float64
            np.testing.assert_array_equal(got[1], want[1])
        else:
            assert got == want


class TestSample:
    def test_deterministic(self):
        a = run_main("sample", "--alpha", "10", "--beta", "25", "--n", "5",
                     "--seed", "42")
        b = run_main("sample", "--alpha", "10", "--beta", "25", "--n", "5",
                     "--seed", "42")
        assert a.returncode == 0 and a.stdout == b.stdout
        assert len(a.stdout.splitlines()) == 5

    def test_empty(self):
        res = run_main("sample", "--alpha", "3", "--beta", "2", "--n", "0")
        assert res.returncode == 0
        assert res.stdout == ""

    def test_invalid_params_exit_2(self):
        res = run_main("sample", "--alpha", "-3", "--beta", "2", "--n", "1")
        assert res.returncode == 2

    def test_negative_size_exits_2(self):
        res = run_main("sample", "--alpha", "1", "--beta", "1", "--n", "-1")
        assert res.returncode == 2
        assert res.stderr == "invgamma: --n must be >= 0, got -1\n"
        assert res.stdout == ""

    @pytest.mark.parametrize("alpha, beta", [
        ("0.001", "1"),       # Gamma variates underflow to 0: x = inf
        ("0.01", "1e300"),    # beta / variate overflows
    ])
    def test_draws_beyond_float64_exit_2(self, alpha, beta):
        res = subprocess.run(
            [sys.executable, "-W", "error", "-m", "invgamma", "sample",
             "--alpha", alpha, "--beta", beta, "--n", "5", "--seed", "0"],
            capture_output=True, text=True, env=os.environ.copy())
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr.startswith("invgamma: ")
        assert len(res.stderr.splitlines()) == 1

    @pytest.mark.parametrize("n", [0, 1, 65_535, 65_536, 65_537, 131_073])
    def test_emission_matches_library(self, n):
        # Every chunk of the first two streams takes format_lines' numpy
        # path (0.6 spans ten decades); from 65 535 values on, a chunk or
        # two of the third holds a value above 1e16 and takes the "%" call.
        for alpha, beta in ((0.6, 2.0), (10.0, 25.0), (0.3, 1.0)):
            res = run_main("sample", "--alpha", str(alpha), "--beta",
                           str(beta), "--n", str(n), "--seed", "11")
            assert res.returncode == 0
            x = sample(InvGammaParams(alpha, beta), n,
                       np.random.default_rng(11))
            assert res.stdout == "".join(f"{v:.17g}\n" for v in x)
            assert (x.max(initial=0.0) >= 1e16) == (alpha == 0.3 and n > 1)

    def test_memory(self):
        # The sample's buffer (8.5 bytes a value) and one chunk of text in
        # the making, about 220 bytes a value; chunks of 65536 lines, each
        # one "%" call, read 5.77 MB.
        class Sink:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        def emit(n):
            with contextlib.redirect_stdout(Sink()):
                assert cli.main(["sample", "--alpha", "10", "--beta", "25",
                                 "--n", str(n), "--seed", "0"]) == 0

        emit(1000)  # and whatever it imports
        n = 200_000
        assert traced_peak(emit, n) < 8.8 * n + 256 * cli._SAMPLE_CHUNK

    @pytest.mark.parametrize("args", [
        ("sample", "--alpha", "10", "--beta", "25", "--n", "200000"),
        ("fit", "--estimator", "ml1"),
        ("kl", "--p-alpha", "3", "--p-beta", "2", "--q-alpha", "4",
         "--q-beta", "1"),
    ])
    def test_closed_stdout_exits_5(self, args):
        # A pipe whose reader has already gone, as after ``| head -1``.
        r, w = os.pipe()
        os.close(r)
        try:
            res = subprocess.run([sys.executable, "-m", "invgamma", *args],
                                 input="0.5\n1.2\n0.8\n", stdout=w,
                                 stderr=subprocess.PIPE, text=True,
                                 env=os.environ.copy())
        finally:
            os.close(w)
        assert res.returncode == 5
        assert "Traceback" not in res.stderr
        assert "Exception ignored" not in res.stderr
        assert len(res.stderr.splitlines()) <= 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a full device")
    @pytest.mark.parametrize("args", [
        ("sample", "--alpha", "10", "--beta", "25", "--n", "5"),
        ("kl", "--p-alpha", "3", "--p-beta", "2", "--q-alpha", "3",
         "--q-beta", "4"),
    ])
    def test_full_stdout_exits_5(self, args):
        # One line and exit 5, with nothing more at the interpreter's exit.
        with open("/dev/full", "w") as full:
            res = subprocess.run([sys.executable, "-m", "invgamma", *args],
                                 stdout=full, stderr=subprocess.PIPE,
                                 text=True, env=os.environ.copy())
        assert (res.returncode, res.stderr) == (5, ENOSPC_LINE)

    def test_closure_roundtrip(self, tmp_path):
        """Samples piped back through the ML1 fitter recover the shape."""
        res = run_cli("sample", "--alpha", "10", "--beta", "25",
                      "--n", "1000000", "--seed", "9")
        assert res.returncode == 0
        fit = run_cli("fit", "--estimator", "ml1", stdin=res.stdout)
        alpha = float(parse_kv(fit.stdout)["alpha"])
        assert abs(alpha - 10.0) / 10.0 < 0.05


def _percent_lines(values):
    return "".join("%.17g\n" % v for v in values)


# Positive finite doubles: where format_lines builds its text with numpy
# (with m / 2**e for short decimals, whose trailing zeros fill whole groups
# of four digits or part of one), and anywhere, from their bits so that
# every binade is as likely.
_FAST = st.one_of(
    st.floats(1e-4, 1e16, exclude_max=True),
    st.builds(lambda m, e: m * 2.0 ** -e, st.integers(1, 2 ** 40),
              st.integers(0, 40)).filter(lambda v: 1e-4 <= v < 1e16))
_ANY = st.integers(1, 0x7FEFFFFFFFFFFFFF).map(
    lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0])


class TestFormatLines:
    @staticmethod
    def _check(values, fast):
        # A fast-path call reads the tables once; a "%" call never does.
        calls = cli._line_tables.cache_info()
        x = np.array(values, dtype=np.float64)
        assert cli.format_lines(x) == _percent_lines(values)
        after = cli._line_tables.cache_info()
        assert (after.hits + after.misses) - (calls.hits + calls.misses) == fast

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FAST, min_size=1, max_size=60))
    def test_fast_path_matches_percent(self, values):
        self._check(values, fast=True)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_FAST, _ANY), min_size=1, max_size=60))
    def test_any_values_match_percent(self, values):
        fast = all(1e-4 <= v < 1e16 for v in values)
        self._check(values, fast=fast)

    def test_empty(self):
        assert cli.format_lines(np.empty(0)) == ""

    def test_edges(self):
        # Each power of ten with its neighbours; the double below 1e-4
        # takes the "%" call.
        edges = [math.nextafter(0.1, 0.0), math.nextafter(1e16, 0.0)]
        for j in range(-4, 16):
            p = float(Fraction(10) ** j)
            edges += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
        edges.remove(math.nextafter(1e-4, 0.0))
        # Integers, whose zeros before the point stay while a bare point
        # goes, and fractions with trailing zeros to strip: 1.0390625 is
        # 1|0390|6250|0000|0000, where only the last two groups' zeros go.
        edges += [1.0, 10.0, 100.0, 1e15, 2.0 ** 52, 2.0 ** 53, 0.5, 0.25,
                  1e15 + 0.125, 1234.5, 120.0625, 1.0390625,
                  9999999999999998.0]
        self._check(edges, fast=True)
        self._check([math.nextafter(1e-4, 0.0)], fast=False)
        assert cli.format_lines(
            np.array([math.nextafter(1e-4, 0.0), math.nextafter(0.1, 0.0)])
        ) == "9.9999999999999991e-05\n0.099999999999999992\n"

    def test_ties_round_half_to_even(self):
        # x * 10**16 is exact and ends in .5 for odd j, so the 18th
        # significant digit is a 5 with nothing after it.
        values = [1 + j * 2.0 ** -17 for j in range(1, 400, 2)]
        for v in values:
            assert (Fraction(v) * 10 ** 16).denominator == 2
        self._check(values, fast=True)
        # 1.0000076293945312|5: the 17th digit is even and stays.
        assert cli.format_lines(np.array([1 + 2.0 ** -17])) == (
            "1.0000076293945312\n")

    def test_no_rounding_up_to_ten_to_the_seventeen(self):
        # N = 10**17 needs x * 10**(16-k) >= 10**17 - 1/2 for some x below
        # 10**(k+1), i.e. x within 5e-18 (relative) below a power of ten.
        # No double is, for every power that the fast path can reach.
        for j in range(-3, 17):
            t = Fraction(10) ** j
            x = float(t)
            if Fraction(x) >= t:
                x = math.nextafter(x, 0.0)
            assert (t - Fraction(x)) / t > Fraction(5, 10 ** 18)
            self._check([x], fast=True)

    def test_decades_are_least_doubles_at_or_above_powers(self):
        # Entry j is the least double >= 10**(j-4), so that a binary search
        # gives floor(log10 x) exactly, next to every power of ten too.
        for p, d in zip(range(-4, 17), cli._DECADES.tolist(), strict=True):
            t = Fraction(10) ** p
            assert Fraction(math.nextafter(d, 0.0)) < t <= Fraction(d)
        for p in range(-4, 16):
            v = float(Fraction(10) ** p)
            for x in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)):
                assert cli.format_lines(np.array([x])) == "%.17g\n" % x


# Whether numpy.random is loaded after importing the package and the CLI,
# then after one command each, in one fresh interpreter.
_RANDOM_LOADED = """
import contextlib, io, sys
import invgamma, invgamma.cli
loaded = ["numpy.random" in sys.modules]
for args in (["fit", "--estimator", "bl1"],
             ["kl", "--p-alpha", "3", "--p-beta", "2", "--q-alpha", "3",
              "--q-beta", "4"],
             ["sample", "--alpha", "10", "--beta", "25", "--n", "5"]):
    sys.stdin = io.StringIO("1.5\\n2\\n4\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert invgamma.cli.main(args) == 0
    loaded.append("numpy.random" in sys.modules)
print(loaded)
"""


class TestImports:
    def test_numpy_random_loads_at_the_first_draw(self):
        # fit and kl draw nothing, so they never load numpy.random (about
        # 6 MB of RSS and 15-20 ms of import); sample loads it.
        res = subprocess.run([sys.executable, "-c", _RANDOM_LOADED],
                             capture_output=True, text=True,
                             env=os.environ.copy())
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == "[False, False, False, True]\n"


class TestKl:
    def test_zero_for_equal(self):
        res = run_main("kl", "--p-alpha", "3", "--p-beta", "2",
                       "--q-alpha", "3", "--q-beta", "2")
        assert res.returncode == 0
        assert float(res.stdout) == 0.0

    def test_hand_values(self):
        res = run_main("kl", "--p-alpha", "3", "--p-beta", "2",
                       "--q-alpha", "3", "--q-beta", "4")
        assert float(res.stdout) == pytest.approx(3 - 3 * math.log(2), rel=1e-12)
        res = run_main("kl", "--p-alpha", "3", "--p-beta", "2",
                       "--q-alpha", "2", "--q-beta", "2")
        assert float(res.stdout) == pytest.approx(0.2296371545, abs=1e-9)

    def test_matches_library(self):
        res = run_main("kl", "--p-alpha", "7.5", "--p-beta", "3.25",
                       "--q-alpha", "2.125", "--q-beta", "11.0")
        ref = kl_divergence(InvGammaParams(7.5, 3.25), InvGammaParams(2.125, 11.0))
        assert float(res.stdout) == ref

    def test_invalid_exit_2(self):
        res = run_main("kl", "--p-alpha", "0", "--p-beta", "2",
                       "--q-alpha", "3", "--q-beta", "2")
        assert res.returncode == 2

    def test_large_shape_one_ulp_apart_exits_0(self):
        # The sum cancels lgamma terms of about 2.9e14 to -0.001953125,
        # which is rounding, not a negative KL.
        res = run_main("kl", "--p-alpha", "1e13", "--p-beta", "1",
                       "--q-alpha", "1e13", "--q-beta", "0.9999999999999999")
        assert (res.returncode, res.stdout, res.stderr) == (0, "0\n", "")

    @pytest.mark.parametrize("args", [
        ("--p-alpha", "1.7e308", "--p-beta", "1", "--q-alpha", "1"),
        ("--p-alpha", "1", "--p-beta", "1", "--q-alpha", "1.7e308"),
    ])
    def test_shape_beyond_lgamma_range_exits_2(self, args):
        # math.lgamma overflows above a shape of about 2.6e305.
        res = run_main("kl", *args, "--q-beta", "1")
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr.startswith("invgamma: ")
        assert len(res.stderr.splitlines()) == 1


class TestBenchmark:
    def test_rows_and_ordering(self, tmp_path):
        out = tmp_path / "bench.csv"
        res = run_cli("benchmark", "--sizes", "500", "--sims", "50",
                      "--seed", "7", "--out", str(out))
        assert res.returncode == 0
        records = read_records_csv(str(out))
        assert len(records) == 50 * 5
        med = {}
        for name in ("MM", "ML1"):
            med[name] = np.median([r.kl for r in records if r.estimator == name])
        assert med["MM"] > med["ML1"]
        assert "median KL" in res.stdout and "rank-sum p" in res.stdout

    def test_deterministic_modulo_runtime(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"bench_{tag}.csv"
            res = run_cli("benchmark", "--sizes", "60", "--sims", "8",
                          "--seed", "3", "--out", str(out))
            assert res.returncode == 0
            outs.append("\n".join(",".join(line.split(",")[:-1])
                                  for line in out.read_text().splitlines()))
        assert outs[0] == outs[1]

    def test_estimator_without_finite_kl(self, tmp_path):
        # BL2's prior has no interior maximum, so BL2 has no finite KL at
        # any size and its rank-sum pairs are skipped.  The digest of CSV
        # columns 1-12 was pinned before the scalar fitters shared one
        # fixed-point driver.
        out = tmp_path / "bench.csv"
        res = run_cli("benchmark", "--sizes", "1,2,3,30", "--sims", "40",
                      "--seed", "3", "--w1", "1e12", "--out", str(out))
        assert res.returncode == 0, res.stderr
        pvals = [line for line in res.stdout.splitlines()
                 if line.startswith("N=30  rank-sum p: ")]
        assert len(pvals) == 1 and "BL2" not in pvals[0]
        text = "".join(",".join(line.split(",")[:12]) + "\n"
                       for line in out.read_text().splitlines())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6111472ce619b1a23875f0b96eb6b0d320ec35dc2d9cdf871b88f6f37a93cbb1")

    def test_runaway_bl1_prior_writes_nan_rows(self, tmp_path):
        # With c > b the BL1 update sends alpha to infinity on three of
        # these samples: they are failed rows, and the sweep goes on.
        out = tmp_path / "bench.csv"
        res = run_cli("benchmark", "--sizes", "50", "--sims", "5",
                      "--prior-c", "0.5", "--estimators", "BL1",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        records = read_records_csv(str(out))
        failed = [r.sim for r in records if math.isnan(r.alpha_hat)]
        assert failed == [0, 3, 4]
        assert all(r.converged for r in records if r.sim not in failed)
        assert "excluded 3 failed fits" in res.stdout

    @pytest.mark.parametrize("names, msg", [
        (",", "estimators must not be empty"),
        ("ML1,ML1", "duplicate estimators: ML1,ML1"),
    ])
    def test_bad_estimator_list_exits_2(self, tmp_path, names, msg):
        out = tmp_path / "bench.csv"
        res = run_main("benchmark", "--sizes", "20", "--sims", "3",
                       "--estimators", names, "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == f"invgamma: {msg}\n"
        assert res.stdout == "" and not out.exists()

    @pytest.mark.parametrize("sizes, msg", [
        (",", "sizes must not be empty"),
        ("20,20", "duplicate sizes: 20,20"),
        ("0", "sizes must be >= 1"),
    ])
    def test_bad_size_list_exits_2(self, tmp_path, sizes, msg):
        out = tmp_path / "bench.csv"
        res = run_main("benchmark", "--sizes", sizes, "--sims", "3",
                       "--estimators", "MM", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == f"invgamma: {msg}\n"
        assert res.stdout == "" and not out.exists()

    def test_unparsable_size_list_exits_2(self, tmp_path):
        out = tmp_path / "bench.csv"
        res = run_main("benchmark", "--sizes", "5,x", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr.endswith("bad size list '5,x'\n")
        assert res.stdout == "" and not out.exists()

    def test_summary_and_csv_ignore_config_order(self, tmp_path):
        # The summary lists sizes ascending and estimators in table order,
        # as the records CSV does, whatever order the flags give.
        runs = []
        for sizes, names in (("50,20", "BL2,MM"), ("20,50", "MM,BL2")):
            path = tmp_path / f"{sizes}.csv"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["benchmark", "--sizes", sizes, "--sims", "40",
                                 "--estimators", names,
                                 "--out", str(path)]) == 0
            runs.append((out.getvalue(),
                         [line.rsplit(",", 1)[0]
                          for line in path.read_text().splitlines()]))
        assert runs[0] == runs[1]
        assert runs[0][0].startswith("N=20  median KL: MM=")

    def test_summary_reads_the_columns_a_fixed_number_of_times(
            self, tmp_path, capsys):
        # One pass over the record columns serves every size.
        counts = []
        for sizes in ("20,50", "20,30,40,50"):
            with mock.patch.object(SimulationRecords, "column", autospec=True,
                                   side_effect=SimulationRecords.column) as col:
                assert cli.main(["benchmark", "--sizes", sizes, "--sims", "8",
                                 "--out", str(tmp_path / "r.csv")]) == 0
            counts.append(col.call_count)
        assert counts[0] == counts[1]

    def test_unwritable_output_exits_5(self, tmp_path):
        res = run_cli("benchmark", "--sizes", "40", "--sims", "2",
                      "--seed", "1", "--out", "/nonexistent-dir/x.csv")
        assert res.returncode == 5

    def test_no_partial_csv_on_failure(self, tmp_path):
        run_cli("benchmark", "--sizes", "40", "--sims", "2", "--seed", "1",
                "--out", "/nonexistent-dir/x.csv")
        assert not os.path.exists("/nonexistent-dir/x.csv")

    @pytest.mark.parametrize("into, out", [
        ("file", "/dev/stdout"), ("pipe", "/dev/stdout"), ("file", "so.txt")])
    def test_out_to_own_stdout_precedes_summary(self, into, out, tmp_path):
        # --out names the file or pipe on fd 1: the CSV comes first and
        # whole, then the summary, as with a separate CSV file.
        args = ["benchmark", "--sizes", "20", "--sims", "12",
                "--estimators", "MM,ML1"]
        res = run_cli(*args, "--out", str(tmp_path / "sep.csv"))
        assert res.returncode == 0 and res.stdout.startswith("N=20")
        want = (tmp_path / "sep.csv").read_text() + res.stdout
        # so.txt is the file stdout goes to; /dev/stdout stays absolute.
        cmd = [sys.executable, "-m", "invgamma", *args,
               "--out", os.path.join(tmp_path, out)]
        if into == "file":
            with open(tmp_path / "so.txt", "w") as fh:
                code = subprocess.run(cmd, stdout=fh,
                                      env=os.environ.copy()).returncode
            got = (tmp_path / "so.txt").read_text()
        else:
            piped = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   env=os.environ.copy())
            code, got = piped.returncode, piped.stdout
        assert code == 0
        strip = lambda text: [line.rsplit(",", 1)[0]
                              for line in text.splitlines()]
        assert got.count("\n") == want.count("\n") == 1 + 24 + 2
        assert strip(got) == strip(want)


class TestBias:
    def test_aggregate_table(self, tmp_path):
        out = tmp_path / "raw.csv"
        agg = tmp_path / "agg.csv"
        res = run_cli("bias", "--sizes", "500,2500", "--sims", "50", "--seed", "7",
                      "--out", str(out), "--agg-out", str(agg),
                      "--estimators", "ML1")
        assert res.returncode == 0
        lines = agg.read_text().splitlines()
        assert len(lines) == 3
        row500 = lines[1].split(",")
        row2500 = lines[2].split(",")
        assert float(row2500[5]) < float(row500[5])  # std_bias_alpha shrinks

    @pytest.mark.parametrize("agg", ["r.csv", "sub/../r.csv", "link.csv"])
    def test_one_file_for_both_csvs_exits_2(self, agg, tmp_path, monkeypatch):
        # The aggregates would replace the records CSV: refused before the
        # sweep runs, with no CSV written.
        def no_sweep(cfg):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(harness, "run_kl_experiment", no_sweep)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        os.symlink("r.csv", "link.csv")
        res = run_main("bias", "--sizes", "20", "--sims", "12",
                       "--out", "r.csv", "--agg-out", agg)
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == (f"invgamma: --out r.csv and --agg-out {agg} "
                              f"name one file\n")
        assert not (tmp_path / "r.csv").exists()

    def test_both_csvs_to_stdout(self, tmp_path):
        # Both CSVs may go to stdout, where they come in order.
        args = ["bias", "--sizes", "20", "--sims", "12"]
        sep = run_main(*args, "--out", str(tmp_path / "r.csv"),
                       "--agg-out", str(tmp_path / "a.csv"))
        both = run_main(*args, "--out", "/dev/stdout",
                        "--agg-out", "/dev/stdout")
        assert sep.returncode == both.returncode == 0
        strip = lambda text: [line.rsplit(",", 1)[0]
                              for line in text.splitlines()]
        records = (tmp_path / "r.csv").read_text()
        assert strip(both.stdout) == strip(
            records + (tmp_path / "a.csv").read_text() + sep.stdout)


class TestCurves:
    def test_demo_reproduction(self, tmp_path):
        out = tmp_path / "curves.csv"
        res = run_main("curves", "--alpha", "10", "--beta", "25",
                       "--n", "1000", "--seed", "0", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,alpha,log_prior,log_posterior,alpha_true,alpha_hat"
        rows = [line.split(",") for line in lines[1:]]
        variants = sorted({r[0] for r in rows})
        assert len(variants) == 4
        for variant in variants:
            sub = [r for r in rows if r[0] == variant]
            alphas = np.array([float(r[1]) for r in sub])
            post = np.array([float(r[3]) for r in sub])
            peak = alphas[np.argmax(post)]
            assert abs(peak - 10.0) / 10.0 < 0.05

    def test_one_value_exits_4(self, tmp_path):
        out = tmp_path / "c.csv"
        res = run_main("curves", "--alpha", "10", "--beta", "25", "--n", "1",
                       "--out", str(out))
        assert res.returncode == 4
        assert res.stderr == ("invgamma: moment initialization needs n >= 2, "
                              "got n=1\n")
        assert not out.exists()

    def test_bad_grid_exit_2(self, tmp_path):
        res = run_main("curves", "--alpha", "10", "--beta", "25", "--n", "10",
                       "--seed", "0", "--grid-lo", "5", "--grid-hi", "2",
                       "--out", str(tmp_path / "c.csv"))
        assert res.returncode == 2

    @pytest.mark.parametrize("lo, hi", [("-0.5", "5"), ("0", "5"),
                                        ("1", "inf")])
    def test_nonpositive_or_infinite_grid_exit_2(self, tmp_path, lo, hi):
        out = tmp_path / "c.csv"
        res = run_main("curves", "--alpha", "10", "--beta", "25", "--n", "40",
                       "--grid-lo", lo, "--grid-hi", hi, "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == "invgamma: alpha grid must be finite and > 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("hi", ["1e305", "1e308"])
    def test_overflowing_grid_exits_2(self, tmp_path, hi):
        # lgamma overflows above about 2.6e305, the log posterior at
        # n = 50 below that; neither may print a numpy warning.
        out = tmp_path / "c.csv"
        res = run_main("curves", "--alpha", "10", "--beta", "25", "--n", "50",
                       "--grid-hi", hi, "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == ("invgamma: log posterior overflows float64 "
                              "on this alpha grid\n")
        assert not out.exists()


class TestUnwritableOutput:
    """A failed CSV write names the option and its path, not the temp file
    the atomic write made, and exits 5 with nothing on stdout."""

    BAD = "/nonexistent-dir/x.csv"

    @pytest.mark.parametrize("args, flag", [
        (["benchmark", "--sizes", "20", "--sims", "3", "--out", BAD], "--out"),
        (["bias", "--sizes", "20", "--sims", "3", "--out", BAD], "--out"),
        (["bias", "--sizes", "20", "--sims", "3", "--out", "{tmp}/r.csv",
          "--agg-out", BAD], "--agg-out"),
        (["curves", "--alpha", "10", "--beta", "25", "--n", "20",
          "--out", BAD], "--out"),
    ])
    def test_names_option_and_path(self, args, flag, tmp_path, capsys,
                                   monkeypatch):
        # A missing directory is found before a sweep runs, so no CSV is
        # written.
        def no_sweep(cfg):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_kl_experiment", no_sweep)
        monkeypatch.setattr(harness, "run_kl_experiment", no_sweep)
        code = cli.main([a.replace("{tmp}", str(tmp_path)) for a in args])
        out, err = capsys.readouterr()
        assert (code, out) == (5, "")
        assert err == (f"invgamma: cannot write {flag} {self.BAD}: "
                       f"{os.strerror(errno.ENOENT)}\n")
        assert not os.path.exists(self.BAD)
        assert list(tmp_path.iterdir()) == []

    def test_file_for_a_directory_fails_before_the_sweep(self, tmp_path,
                                                         monkeypatch):
        # The pre-sweep check names the error the write would raise.
        def no_sweep(cfg):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_kl_experiment", no_sweep)
        (tmp_path / "f").write_text("")
        bad = str(tmp_path / "f" / "x.csv")
        res = run_main("benchmark", "--sizes", "20", "--sims", "3",
                       "--out", bad)
        assert (res.returncode, res.stdout) == (5, "")
        assert res.stderr == (f"invgamma: cannot write --out {bad}: "
                              f"{os.strerror(errno.ENOTDIR)}\n")


class TestUnreadableInput:
    """``cmd_fit`` maps an ``OSError`` from ``--input`` to exit 2; ``main``
    would take it for a stdout failure, exit 5 and send stdout to devnull."""

    @pytest.mark.parametrize("name, code", [("missing.txt", errno.ENOENT),
                                            ("dir", errno.EISDIR)])
    def test_exits_2_and_keeps_stdout(self, name, code, tmp_path,
                                       monkeypatch):
        path = tmp_path / name
        if code == errno.EISDIR:
            path.mkdir()
        out_path = tmp_path / "stdout"
        err = io.StringIO()
        with open(out_path, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            with contextlib.redirect_stderr(err):
                exit_code = cli.main(["fit", "--estimator", "ml1",
                                      "--input", str(path)])
            assert os.path.samestat(os.fstat(out.fileno()),
                                    os.stat(out_path))
        assert (exit_code, out_path.read_text(), err.getvalue()) == (
            2, "", f"invgamma: [Errno {code}] {os.strerror(code)}: "
                   f"{str(path)!r}\n")


ENOSPC_LINE = "invgamma: cannot write stdout: [Errno 28] No space left on device\n"


class _FullStdout(io.TextIOBase):
    """A stdout on a full device: every write raises ENOSPC."""

    def __init__(self, fd: int):
        self._fd = fd

    def fileno(self) -> int:
        return self._fd

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestStdoutWriteFailure:
    @pytest.mark.parametrize("args", [
        ["sample", "--alpha", "10", "--beta", "25", "--n", "5"],
        ["kl", "--p-alpha", "3", "--p-beta", "2", "--q-alpha", "3",
         "--q-beta", "4"],
        ["fit", "--estimator", "ml1"],
        ["benchmark", "--sizes", "20", "--sims", "3", "--estimators", "MM",
         "--out", "{tmp}/r.csv"],
        ["bias", "--sizes", "20", "--sims", "3", "--estimators", "MM",
         "--out", "{tmp}/r.csv"],
        ["curves", "--alpha", "10", "--beta", "25", "--n", "20",
         "--out", "{tmp}/c.csv"],
    ])
    def test_exits_5_in_one_line(self, args, tmp_path, monkeypatch):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        err = io.StringIO()
        try:
            monkeypatch.setattr(sys, "stdout", _FullStdout(fd))
            monkeypatch.setattr(sys, "stdin", io.StringIO("0.5\n1.2\n0.8\n"))
            with contextlib.redirect_stderr(err):
                code = cli.main([a.replace("{tmp}", str(tmp_path))
                                 for a in args])
            # The interpreter's exit flush goes to devnull, so cannot fail.
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert (code, err.getvalue()) == (5, ENOSPC_LINE)

    @pytest.mark.parametrize("exc", [
        BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN)),
        OSError(errno.ENOMEM, os.strerror(errno.ENOMEM)),
    ])
    def test_failed_fork_is_no_output_failure(self, exc, tmp_path,
                                               monkeypatch):
        # A sweep whose second fork is refused exits 6 in one line, with
        # no CSV written and its first child killed and reaped.
        forked = []

        def fork():
            if forked:
                raise exc
            forked.append(real_fork())
            return forked[-1]

        real_fork = os.fork
        monkeypatch.setattr(harness, "_fit_workers", lambda: 2)
        monkeypatch.setattr(os, "fork", fork)
        out = tmp_path / "r.csv"
        res = run_main("benchmark", "--sizes", "20", "--sims", "3",
                       "--out", str(out))
        assert (res.returncode, res.stderr) == (
            6, f"invgamma: cannot start a sweep worker: {exc.strerror}\n")
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)

    def test_failed_pipe_is_no_output_failure(self, tmp_path, monkeypatch):
        # Out of fds for the second worker's pipe: exit 6 as for a refused
        # fork, not 5 as for a failed stdout write, and no child is left.
        def pipe():
            if pipes:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            pipes.append(real_pipe())
            return pipes[-1]

        pipes, real_pipe = [], os.pipe
        monkeypatch.setattr(harness, "_fit_workers", lambda: 2)
        monkeypatch.setattr(os, "pipe", pipe)
        out = tmp_path / "r.csv"
        res = run_main("benchmark", "--sizes", "20", "--sims", "3",
                       "--out", str(out))
        assert (res.returncode, res.stderr) == (
            6, "invgamma: cannot start a sweep worker: "
            f"{os.strerror(errno.EMFILE)}\n")
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
