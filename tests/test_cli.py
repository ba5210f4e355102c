"""End-to-end CLI behaviour: output values, exit codes, determinism."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invgamma import (
    ESTIMATORS,
    InvGammaParams,
    compute_stats,
    fit_ml1,
    fit_mm,
    kl_divergence,
    sample,
)
from invgamma import cli
from invgamma.harness import RECORDS_CSV_HEADER, read_records_csv


def run_cli(*args, stdin: str | None = None):
    return subprocess.run([sys.executable, "-m", "invgamma", *args],
                          input=stdin, capture_output=True, text=True,
                          env=os.environ.copy())


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition("=")
        out[key] = val
    return out


class TestFit:
    def test_mm_hand_values(self):
        res = run_cli("fit", "--estimator", "mm", stdin="1\n2\n4\n")
        assert res.returncode == 0
        kv = parse_kv(res.stdout)
        assert float(kv["alpha"]) == pytest.approx(13 / 3, rel=1e-12)
        assert float(kv["beta"]) == pytest.approx(70 / 9, rel=1e-12)
        assert kv["n"] == "3"
        assert kv["converged"] == "true"

    def test_blank_lines_ignored(self):
        res = run_cli("fit", "--estimator", "mm", stdin="1\n\n2\n\n4\n")
        assert res.returncode == 0
        assert parse_kv(res.stdout)["n"] == "3"

    def test_matches_library_bitwise(self, tmp_path):
        x = sample(InvGammaParams(5, 8), 200, np.random.default_rng(3))
        path = tmp_path / "data.txt"
        path.write_text("".join(f"{v:.17g}\n" for v in x))
        res = run_cli("fit", "--estimator", "mm", "--input", str(path))
        kv = parse_kv(res.stdout)
        ref = fit_mm(compute_stats(np.array([float(f"{v:.17g}") for v in x])))
        assert float(kv["alpha"]) == ref.params.alpha
        assert float(kv["beta"]) == ref.params.beta

    def test_bl1_demo_recovery(self, tmp_path):
        x = sample(InvGammaParams(10, 25), 1000, np.random.default_rng(12345))
        path = tmp_path / "data.txt"
        path.write_text("".join(f"{v:.17g}\n" for v in x))
        res = run_cli("fit", "--estimator", "bl1", "--input", str(path))
        kv = parse_kv(res.stdout)
        assert 8.5 <= float(kv["alpha"]) <= 11.5
        assert "posterior_mean" in kv and "posterior_precision" in kv

    def test_json_output(self):
        res = run_cli("fit", "--estimator", "ml2", "--json",
                      stdin="0.5\n1.2\n0.8\n2.0\n1.1\n")
        obj = json.loads(res.stdout)
        assert obj["estimator"] == "ml2"
        assert obj["converged"] is True

    def test_nonpositive_value_exits_3(self):
        res = run_cli("fit", "--estimator", "mm", stdin="1\n-1\n2\n")
        assert res.returncode == 3
        assert "line 2" in res.stderr

    def test_malformed_value_exits_2(self):
        res = run_cli("fit", "--estimator", "mm", stdin="1\nbogus\n")
        assert res.returncode == 2
        assert "line 2" in res.stderr

    def test_degenerate_sample_exits_4(self):
        res = run_cli("fit", "--estimator", "ml1", stdin="2\n2\n2\n")
        assert res.returncode == 4

    def test_near_constant_surrogate_exits_4(self):
        # The ML2 update divides by zero on this sample; the fit reports a
        # degenerate sample instead of a traceback.
        res = run_cli("fit", "--estimator", "ml2", stdin="1.0101\n" * 20)
        assert res.returncode == 4
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invgamma: "), lines

    @pytest.mark.parametrize("stdin", [
        "1e308\n1.5e308\n1e307\n",   # mean and variance overflow to inf
        "1e-320\n2e-320\n3e-320\n",  # sum of 1/x overflows, variance is 0
    ])
    def test_float64_limits_exit_4(self, stdin):
        res = run_cli("fit", "--estimator", "ml1", stdin=stdin)
        assert res.returncode == 4
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invgamma: "), lines

    @pytest.mark.parametrize("estimator", ["ml1", "ml2", "bl1", "bl2"])
    def test_overflowing_sum_inv_exits_4(self, estimator):
        # Each update takes log sum(1/x), which is inf here.
        res = run_cli("fit", "--estimator", estimator,
                      stdin="2.83233e-318\n2613.711528902175\n")
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr == ("invgamma: sum(1/x) overflows float64, so the "
                              f"{estimator.upper()} update is undefined\n")

    def test_overflowing_prior_sum_exits_4(self):
        # sum(1/x) is finite, but the BL1 update takes log(e + sum(1/x)).
        res = run_cli("fit", "--estimator", "bl1", "--prior-e", "1.7e308",
                      stdin="1e-308\n3e-8\n2e-3\n")
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr == ("invgamma: e + sum(1/x) overflows float64, so "
                              "the BL1 update is undefined\n")

    @pytest.mark.parametrize("prior_c", ["0.5", "1"])
    def test_runaway_bl1_prior_exits_4(self, tmp_path, prior_c):
        # With c > b the BL1 update sends alpha to infinity on this sample.
        data = run_cli("sample", "--alpha", "10", "--beta", "25", "--n", "50",
                       "--seed", "1").stdout
        path = tmp_path / "s.txt"
        path.write_text(data)
        res = run_cli("fit", "--estimator", "bl1", "--prior-c", prior_c,
                      "--input", str(path))
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr == ("invgamma: BL1 estimate alpha=inf, beta=inf is "
                              "not finite and > 0\n")

    def test_bl2_near_constant_does_not_converge(self):
        # On this sample the flat-prior BL2 update rounds differently from
        # ML2's (which divides by zero): it runs out its iterations instead.
        res = run_cli("fit", "--estimator", "bl2", stdin="1.0101\n" * 20)
        assert res.returncode == 0
        assert parse_kv(res.stdout)["converged"] == "false"
        res = run_cli("fit", "--estimator", "bl2", "--strict",
                      stdin="1.0101\n" * 20)
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr.startswith("invgamma: BL2 did not converge within "
                                     "1000 iterations")

    def test_strict_nonconvergence_exits_4(self):
        res = run_cli("fit", "--estimator", "ml1", "--strict", "--max-iter", "1",
                      stdin="0.5\n1.2\n0.8\n2.0\n1.1\n")
        assert res.returncode == 4

    def test_nonpositive_prior_a_exits_2(self):
        res = run_cli("fit", "--estimator", "bl1", "--prior-a", "0",
                      stdin="1\n2\n4\n")
        assert res.returncode == 2
        assert res.stderr == (
            "invgamma: shape prior requires finite a > 0, got a=0.0\n")

    def test_unknown_flag_exits_2(self):
        res = run_cli("fit", "--estimator", "mm", "--nope", stdin="1\n2\n")
        assert res.returncode == 2

    def test_bad_option_before_empty_input_exits_2(self):
        # The options are built before the sample is reduced, so a bad
        # --max-iter exits 2 where the empty sample alone exits 4.
        res = run_cli("fit", "--estimator", "ml1", "--max-iter", "0", stdin="")
        assert (res.returncode, res.stdout, res.stderr) == (
            2, "", "invgamma: rel_tol must be > 0 and max_iter >= 1\n")

    def test_posterior_without_maximum_exits_4(self):
        res = run_cli("fit", "--estimator", "bl2", "--w1", "1e12",
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
        path.write_text(run_cli("sample", "--alpha", "10", "--beta", "25",
                                "--n", "50", "--seed", "1").stdout)
        runs = [run_cli("fit", "--estimator", "bl2", *flag,
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
        res = run_cli("fit", "--estimator", "mm",
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
        res = run_cli("fit", "--estimator", "mm", stdin=f"1\n{token}\n3\n")
        assert res.returncode == code
        assert res.stderr == f"invgamma: line 2: {msg}\n"

    def test_empty_input_exits_4(self):
        res = run_cli("fit", "--estimator", "mm", stdin="")
        assert res.returncode == 4
        assert res.stderr == "invgamma: need at least one sample\n"

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
            res = run_cli("fit", "--estimator", "ml1", "--json",
                          "--input", str(path))
        else:
            res = run_cli("fit", "--estimator", "ml1", "--json", stdin=text)
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
            raise cli._InputError(2, f"line {lineno}: not a number: {text!r}")
        if not math.isfinite(v) or v <= 0.0:
            raise cli._InputError(3, f"line {lineno}: non-positive value {text}")
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
    except cli._InputError as exc:
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
        a = run_cli("sample", "--alpha", "10", "--beta", "25", "--n", "5",
                    "--seed", "42")
        b = run_cli("sample", "--alpha", "10", "--beta", "25", "--n", "5",
                    "--seed", "42")
        assert a.returncode == 0 and a.stdout == b.stdout
        assert len(a.stdout.splitlines()) == 5

    def test_empty(self):
        res = run_cli("sample", "--alpha", "3", "--beta", "2", "--n", "0")
        assert res.returncode == 0
        assert res.stdout == ""

    def test_invalid_params_exit_2(self):
        res = run_cli("sample", "--alpha", "-3", "--beta", "2", "--n", "1")
        assert res.returncode == 2

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
        res = run_cli("sample", "--alpha", "0.6", "--beta", "2", "--n", str(n),
                      "--seed", "11")
        assert res.returncode == 0
        x = sample(InvGammaParams(0.6, 2.0), n, np.random.default_rng(11))
        assert res.stdout == "".join(f"{v:.17g}\n" for v in x)

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


class TestKl:
    def test_zero_for_equal(self):
        res = run_cli("kl", "--p-alpha", "3", "--p-beta", "2",
                      "--q-alpha", "3", "--q-beta", "2")
        assert res.returncode == 0
        assert float(res.stdout) == 0.0

    def test_hand_values(self):
        res = run_cli("kl", "--p-alpha", "3", "--p-beta", "2",
                      "--q-alpha", "3", "--q-beta", "4")
        assert float(res.stdout) == pytest.approx(3 - 3 * math.log(2), rel=1e-12)
        res = run_cli("kl", "--p-alpha", "3", "--p-beta", "2",
                      "--q-alpha", "2", "--q-beta", "2")
        assert float(res.stdout) == pytest.approx(0.2296371545, abs=1e-9)

    def test_matches_library(self):
        res = run_cli("kl", "--p-alpha", "7.5", "--p-beta", "3.25",
                      "--q-alpha", "2.125", "--q-beta", "11.0")
        ref = kl_divergence(InvGammaParams(7.5, 3.25), InvGammaParams(2.125, 11.0))
        assert float(res.stdout) == ref

    def test_invalid_exit_2(self):
        res = run_cli("kl", "--p-alpha", "0", "--p-beta", "2",
                      "--q-alpha", "3", "--q-beta", "2")
        assert res.returncode == 2

    def test_large_shape_one_ulp_apart_exits_0(self):
        # The sum cancels lgamma terms of about 2.9e14 to -0.001953125,
        # which is rounding, not a negative KL.
        res = run_cli("kl", "--p-alpha", "1e13", "--p-beta", "1",
                      "--q-alpha", "1e13", "--q-beta", "0.9999999999999999")
        assert (res.returncode, res.stdout, res.stderr) == (0, "0\n", "")

    @pytest.mark.parametrize("args", [
        ("--p-alpha", "1.7e308", "--p-beta", "1", "--q-alpha", "1"),
        ("--p-alpha", "1", "--p-beta", "1", "--q-alpha", "1.7e308"),
    ])
    def test_shape_beyond_lgamma_range_exits_2(self, args):
        # math.lgamma overflows above a shape of about 2.6e305.
        res = run_cli("kl", *args, "--q-beta", "1")
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
        res = run_cli("benchmark", "--sizes", "20", "--sims", "3",
                      "--estimators", names, "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == f"invgamma: {msg}\n"
        assert res.stdout == "" and not out.exists()

    @pytest.mark.parametrize("sizes, msg", [
        (",", "sizes must not be empty"),
        ("20,20", "duplicate sizes: 20,20"),
    ])
    def test_bad_size_list_exits_2(self, tmp_path, sizes, msg):
        out = tmp_path / "bench.csv"
        res = run_cli("benchmark", "--sizes", sizes, "--sims", "3",
                      "--estimators", "MM", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == f"invgamma: {msg}\n"
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

    def test_unwritable_output_exits_5(self, tmp_path):
        res = run_cli("benchmark", "--sizes", "40", "--sims", "2",
                      "--seed", "1", "--out", "/nonexistent-dir/x.csv")
        assert res.returncode == 5

    def test_no_partial_csv_on_failure(self, tmp_path):
        run_cli("benchmark", "--sizes", "40", "--sims", "2", "--seed", "1",
                "--out", "/nonexistent-dir/x.csv")
        assert not os.path.exists("/nonexistent-dir/x.csv")


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


class TestCurves:
    def test_demo_reproduction(self, tmp_path):
        out = tmp_path / "curves.csv"
        res = run_cli("curves", "--alpha", "10", "--beta", "25", "--n", "1000",
                      "--seed", "0", "--out", str(out))
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
        res = run_cli("curves", "--alpha", "10", "--beta", "25", "--n", "1",
                      "--out", str(out))
        assert res.returncode == 4
        assert res.stderr == ("invgamma: moment initialization needs n >= 2, "
                              "got n=1\n")
        assert not out.exists()

    def test_bad_grid_exit_2(self, tmp_path):
        res = run_cli("curves", "--alpha", "10", "--beta", "25", "--n", "10",
                      "--seed", "0", "--grid-lo", "5", "--grid-hi", "2",
                      "--out", str(tmp_path / "c.csv"))
        assert res.returncode == 2


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
        # What a sweep's pool raises when it cannot fork propagates as is.
        def fail(cfg):
            raise exc

        monkeypatch.setattr(cli, "run_kl_experiment", fail)
        with pytest.raises(OSError) as info:
            cli.main(["benchmark", "--sizes", "20", "--sims", "3",
                      "--out", str(tmp_path / "r.csv")])
        assert info.value is exc
