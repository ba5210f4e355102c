"""Command-line interface.

Subcommands: fit, sample, kl, benchmark, bias, curves.  Exit codes:
0 success, 2 malformed input or bad parameters, 3 non-positive sample
value, 4 estimator failure, 5 output I/O failure or a failed stdout
write, 6 the sweep's worker processes failed (a fork or a pipe was
refused, or a worker died).  Commands return nothing and raise on
failure; ``main`` alone prints the one ``invgamma:`` line and picks the
code.  A command raises ``ValueError`` for a bad parameter, or ``_Exit``
where the code depends on its context: an input line, the input file,
``--strict``, an output path.

The ``sample | fit`` pipe carries a sample as "%.17g" lines, each value
read back with its bits: ``format_lines`` writes them, and
``_read_sample`` parses them into one array.
"""

import argparse
import errno
import itertools
import json
import math
import os
import re
import sys
from contextlib import nullcontext
from functools import cache
from types import SimpleNamespace

import numpy as np

from . import __version__
from .distribution import InvGammaParams, kl_divergence, sample
from .estimators import (
    ConvergenceConfig,
    DegenerateSampleError,
    FitOptions,
    InsufficientDataError,
    InvalidPosteriorError,
    PolyShapePrior,
    ScaleGammaPrior,
    ShapePriorABC,
    SufficientStats,
    compute_stats,
)
from .harness import (
    DEFAULT_CURVE_VARIANTS,
    BiasAggregate,
    ESTIMATORS,
    ExperimentConfig,
    WorkerError,
    _is_stdout,
    emit_prior_posterior_curves,
    fit_by_name,
    kl_by_estimator,
    run_bias_experiment,
    run_kl_experiment,
    wilcoxon_rank_sum,
    write_bias_csv,
    write_curves_csv,
    write_records_csv,
)

# Input lines that ``fit`` parses per C-level pass.  One list for 1e6
# values would outweigh the sample array itself.
_PARSE_CHUNK = 65536
# Lines that ``sample`` formats per stdout write: ``format_lines`` holds
# about 220 bytes per value while it builds a chunk's text.
_SAMPLE_CHUNK = 8192


class _Exit(Exception):
    """Exit ``code`` with ``msg``, for a failure whose code a command
    knows better than the exception's type does."""

    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    for flag, default, help_text in (
            ("--prior-a", 1.0, "shape prior a (default 1)"),
            ("--prior-b", 0.01, "shape prior b (default 0.01)"),
            ("--prior-c", 0.01, "shape prior c (default 0.01)"),
            ("--prior-d", 0.01, "scale prior shape d (default 0.01)"),
            ("--prior-e", 0.01, "scale prior rate e (default 0.01)"),
            ("--w1", 0.0, "polynomial shape prior w1 (default 0, flat)"),
            ("--w2", 0.0, "polynomial shape prior w2 (default 0, flat)")):
        p.add_argument(flag, type=float, default=default, help=help_text)


def _add_conv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-6,
                   help="relative alpha change tolerance (default 1e-6)")
    p.add_argument("--max-iter", type=int, default=1000,
                   help="iteration cap (default 1000)")


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")


class _Parser(argparse.ArgumentParser):
    """Reads every negative number after a flag as its value.  argparse's
    own pattern misses the exponent form, so ``--w1 -1e3`` was taken for
    an unknown flag; subcommand parsers are made with this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="invgamma",
        description="Inverse Gamma estimation, sampling, KL divergence and "
                    "benchmark experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one estimator to a sample")
    p.add_argument("--estimator", required=True,
                   choices=[e.lower() for e in ESTIMATORS])
    p.add_argument("--input", default="-",
                   help="sample file, newline-delimited positive reals "
                        "('-' for stdin, default)")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when the fit does not converge")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit a JSON object instead of key=value lines")
    _add_conv_flags(p)
    _add_prior_flags(p)

    p = sub.add_parser("sample", help="draw seeded samples to stdout")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("kl", help="KL divergence between two parameter sets")
    p.add_argument("--p-alpha", type=float, required=True)
    p.add_argument("--p-beta", type=float, required=True)
    p.add_argument("--q-alpha", type=float, required=True)
    p.add_argument("--q-beta", type=float, required=True)

    for name, help_text in (("benchmark", "KL accuracy sweep"),
                            ("bias", "bias study")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--sizes", type=_parse_sizes, default=(500, 2500, 5000))
        p.add_argument("--sims", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="records CSV path")
        if name == "bias":
            p.add_argument("--agg-out", default=None,
                           help="optional aggregate CSV path")
        p.add_argument("--estimators", default=",".join(ESTIMATORS),
                       help=f"comma list from {','.join(ESTIMATORS)}")
        _add_conv_flags(p)
        _add_prior_flags(p)

    p = sub.add_parser("curves", help="prior/posterior shape curves")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--grid-lo", type=float, default=2.0)
    p.add_argument("--grid-hi", type=float, default=20.0)
    p.add_argument("--grid-points", type=int, default=181)
    p.add_argument("--prior-d", type=float, default=0.01)
    p.add_argument("--prior-e", type=float, default=0.01)
    return parser


def _parse_lines(lines, first_lineno: int) -> np.ndarray:
    """Parse line by line, skipping blank lines; raise ``_Exit``
    naming the first bad line, numbered from ``first_lineno``."""
    values = []
    for lineno, line in enumerate(lines, start=first_lineno):
        text = line.strip()
        if not text:
            continue
        try:
            v = float(text)
        except ValueError:
            raise _Exit(2, f"line {lineno}: not a number: {text!r}")
        if not math.isfinite(v) or v <= 0.0:
            raise _Exit(3, f"line {lineno}: non-positive value {text}")
        values.append(v)
    return np.array(values, dtype=np.float64)


def _read_sample(path: str) -> np.ndarray:
    # Only iterate the input: a traced run swaps stdin for a line iterator.
    parts = []
    first = 1
    with nullcontext(sys.stdin) if path == "-" else open(path) as fh:
        lines = iter(fh)
        while chunk := list(itertools.islice(lines, _PARSE_CHUNK)):
            # float(line) strips the same whitespace as float(line.strip()),
            # so this pass accepts only what _parse_lines accepts, with the
            # same values.  A blank or bad line sends the chunk there.
            try:
                arr = np.fromiter(map(float, chunk), np.float64, len(chunk))
                ok = (arr > 0.0).all() and np.isfinite(arr).all()
            except ValueError:
                ok = False
            if not ok:
                arr = _parse_lines(chunk, first)
            parts.append(arr)
            first += len(chunk)
            # The lines go before the next chunk's are read, not after.
            del chunk, arr
    return np.concatenate(parts) if parts else np.empty(0)


# 10**p for p = 0 .. 22, each exact in float64, and Veltkamp's split of
# each into two halves of 26 significant bits.
_POW10 = np.array([float(10 ** p) for p in range(23)])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a == hi + lo exactly, each with at most 26
    significant bits, so that a product of two halves is exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# The least double >= 10**p for p = -4 .. 16: "1e-4" .. "1e-1" round up,
# and 1 .. 1e16 are exact.  So a double x lies at or above entry j exactly
# when x >= 10**(j-4), and a binary search gives floor(log10 x).
_DECADES = np.array([float(f"1e{p}") for p in range(-4, 17)])


def _times_pow10(x, p) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**p == hi + lo exactly: Dekker's product, with no FMA."""
    x_hi, x_lo = _split(x)
    b_hi, b_lo = np.take(_POW10_HI, p), np.take(_POW10_LO, p)
    hi = x * np.take(_POW10, p)
    return hi, x_lo * b_lo - (((hi - x_hi * b_hi) - x_lo * b_hi) - x_hi * b_lo)


@cache
def _line_tables() -> SimpleNamespace:
    """The byte tables of ``format_lines``, built at its first call."""
    # Four ASCII digits of 0 .. 9999, then the same with trailing zeros
    # as NUL, each as one 4-byte word.
    i = np.arange(10000)[:, None]
    digits = i // np.array([1000, 100, 10, 1]) % 10 + 48
    tail = np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1)[:, ::-1]
    quads = np.concatenate([digits, np.where(tail, 0, digits)])
    # The point goes at byte p = 8 + k: a row keeps its bytes below p and
    # its bytes shifted by one above p, with '.' at p and '\n' at 25.
    # '0' bits over each line's fixed zeros, which a digit keeps and a NUL
    # turns into '0': bytes 7+k .. 7 but p when k < 0 (the units and the
    # zeros after the point), else the integer's digits 7 .. 7+k.
    col, k = np.arange(32), np.arange(-4, 16)[:, None]
    p = 8 + k
    below, above = np.where(col < p, 255, 0), np.where(col > p, 255, 0)
    zeros = (col >= 7 + np.minimum(k, 0)) & (col < np.maximum(p, 8))
    marks = np.where(col == p, 46, np.where(col == 25, 10, 48 * zeros))

    def words(a, dtype=np.uint64):
        return a.astype(np.uint8).view(dtype)

    return SimpleNamespace(quads=words(quads, np.uint32).ravel(),
                           below=words(below), above=words(above),
                           marks=words(marks))


def format_lines(x: np.ndarray) -> str:
    """``"".join("%.17g\\n" % v for v in x)`` for a 1-d float64 array of
    positive finite values, with the same bytes.

    When every value lies in [1e-4, 1e16), where "%.17g" writes no
    exponent, the text is built with numpy; otherwise by one "%" call.
    Each value x, with k = floor(log10 x) exactly (from ``_DECADES``),
    prints the 17 digits of N = x * 10**(16-k) rounded half to even, which
    are what CPython's correctly rounded "%.17g" writes, with the point
    after digit k (or after "0." and -k-1 zeros when k < 0), trailing
    zeros and then a bare point removed.  x * 10**(16-k) lies in
    [1e16, 1e17) and equals hi + lo exactly by Dekker's product (10**p is
    exact for p <= 22); as hi >= 2**53 is an even integer,
    N = hi + rint(lo) rounds it half to even.  N never rounds up to
    10**17: that needs x within 5e-18 (relative) below 10**(k+1), and no
    double is that close below any of 1e-3 .. 1e16.
    """
    if not (x.size and (x >= 1e-4).all() and (x < 1e16).all()):
        return ("%.17g\n" * x.size) % tuple(x.tolist())
    t = _line_tables()
    n = x.size
    k = np.searchsorted(_DECADES, x, side="right") - 5
    hi, lo = _times_pow10(x, 16 - k)
    # N = d0 * 10**16 + g0 * 10**12 + g1 * 10**8 + g2 * 10**4 + g3.
    big = (hi.astype(np.int64) + np.rint(lo).astype(np.int64)).view(np.uint64)
    top = big // np.uint64(10 ** 8)
    bottom = (big - top * np.uint64(10 ** 8)).astype(np.uint32)
    top = top.astype(np.uint32)
    upper = top // 10000
    d0 = upper // 10000
    g0, g1 = upper - d0 * 10000, top - upper * 10000
    g2 = bottom // 10000
    g3 = bottom - g2 * 10000
    # A row of 32 bytes, NUL where no character goes: the leading digit at
    # byte 7, then the four groups at bytes 8 .. 23, each with its trailing
    # zeros as NUL if the groups after it are all zeros.
    row = np.zeros((n, 32), np.uint8)
    words = row.view(np.uint32)
    row[:, 7] = d0 + 48
    zero3 = g3 == 0
    zero2 = zero3 & (g2 == 0)
    words[:, 2] = np.take(t.quads, g0 + 10000 * (zero2 & (g1 == 0)))
    words[:, 3] = np.take(t.quads, g1 + 10000 * zero2)
    words[:, 4] = np.take(t.quads, g2 + 10000 * zero3)
    words[:, 5] = np.take(t.quads, g3 + 10000)
    # Insert the point at byte 8+k, after the units digit, and OR in the
    # marks: the '0' bits, the point and the newline.
    ki = k + 4
    shifted = np.zeros_like(row)
    shifted[:, 1:25] = row[:, :24]
    out, rest = row.view(np.uint64), shifted.view(np.uint64)
    out &= np.take(t.below, ki, axis=0)
    rest &= np.take(t.above, ki, axis=0)
    out |= rest
    out |= np.take(t.marks, ki, axis=0)
    # Drop the point where the fraction is all zeros.  Such a fraction
    # holds all of g3 unless k >= 13, so only those rows are looked at.
    maybe = np.flatnonzero(zero3 | (k >= 13))
    bare = maybe[row[maybe, 9 + k[maybe]] == 0]
    row[bare, 8 + k[bare]] = 0
    return row.tobytes().translate(None, b"\0").decode("ascii")


def _write(write, rows, flag: str, path: str) -> None:
    """``write(rows, path)``; a failure names ``flag`` and ``path`` only."""
    try:
        write(rows, path)
    except OSError as exc:
        raise _Exit(5, f"cannot write {flag} {path}: {exc.strerror}")


def _check_dirs(*outs) -> None:
    """Exit 5 before a sweep, not after it, when the directory of an
    output path is missing or is no directory; each of ``outs`` is a
    (flag, path) pair, and a path of None is skipped."""
    for flag, path in outs:
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise _Exit(5, f"cannot write {flag} {path}: {os.strerror(code)}")


def _fit_options_from_args(args) -> FitOptions:
    return FitOptions(
        shape_prior=ShapePriorABC.with_a(args.prior_a, args.prior_b, args.prior_c),
        scale_prior=ScaleGammaPrior(args.prior_d, args.prior_e),
        poly_prior=PolyShapePrior(1.0, args.w1, args.w2),
        conv=ConvergenceConfig(args.tol, args.max_iter),
    )


def _config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        sizes=tuple(args.sizes),
        sims_per_size=args.sims,
        base_seed=args.seed,
        estimators=tuple(e.strip().upper() for e in args.estimators.split(",")
                         if e.strip()),
        fit=_fit_options_from_args(args),
    )


def cmd_fit(args) -> None:
    try:
        data = _read_sample(args.input)
    except OSError as exc:  # in main, an OSError is a stdout failure
        raise _Exit(2, str(exc))
    name = args.estimator.upper()
    # Bad options exit 2 before an empty sample can exit 4.
    options = _fit_options_from_args(args)
    stats = compute_stats(data)
    report = fit_by_name(name, stats, options)
    if args.strict and not report.converged:
        raise _Exit(4, f"{name} did not converge within {args.max_iter} "
                       f"iterations (residual {report.residual:g})")
    fields = {
        "alpha": report.params.alpha,
        "beta": report.params.beta,
        "estimator": args.estimator,
        "n": stats.n,
        "iterations": report.iterations,
        "converged": report.converged,
        "residual": report.residual,
    }
    if report.posterior is not None:
        fields["posterior_mean"] = report.posterior.mean
        fields["posterior_precision"] = report.posterior.precision
    if args.as_json:
        print(json.dumps(fields))
    else:
        for key, val in fields.items():
            text = (str(val).lower() if isinstance(val, bool) else
                    "%.17g" % val if isinstance(val, float) else val)
            print(f"{key}={text}")


def cmd_sample(args) -> None:
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    p = InvGammaParams(args.alpha, args.beta)
    with np.errstate(divide="ignore", over="ignore"):
        x = sample(p, args.n, np.random.default_rng(args.seed))
    if not ((x > 0.0).all() and np.isfinite(x).all()):
        raise ValueError(f"alpha={args.alpha:g}, beta={args.beta:g}: draws "
                         f"fall outside the positive finite float64 range")
    # "%.17g" lines, written as text through sys.stdout so that a caller
    # can redirect it.
    for lo in range(0, x.size, _SAMPLE_CHUNK):
        sys.stdout.write(format_lines(x[lo:lo + _SAMPLE_CHUNK]))


def cmd_kl(args) -> None:
    p = InvGammaParams(args.p_alpha, args.p_beta)
    q = InvGammaParams(args.q_alpha, args.q_beta)
    try:
        kl = kl_divergence(p, q)
    except OverflowError as exc:
        raise ValueError(
            f"KL divergence out of float64 range for these shapes ({exc})")
    print("%.17g" % kl)


def _print_kl_summary(records) -> None:
    for size, by_est in kl_by_estimator(records).items():
        medians = "  ".join(f"{name}={np.median(kl):.6g}"
                            for name, kl in by_est.items() if kl.size)
        print(f"N={size}  median KL: {medians}")
        # The rank-sum test needs finite KLs on both sides.
        pvals = [f"{a}-{b}={wilcoxon_rank_sum(xa, xb)[1]:.3g}"
                 for (a, xa), (b, xb) in itertools.combinations(
                     by_est.items(), 2)
                 if xa.size and xb.size and xa.size + xb.size >= 10]
        if pvals:
            print(f"N={size}  rank-sum p: {'  '.join(pvals)}")


def cmd_benchmark(args) -> None:
    cfg = _config_from_args(args)
    _check_dirs(("--out", args.out))
    records = run_kl_experiment(cfg)
    _write(write_records_csv, records, "--out", args.out)
    excluded = int(np.count_nonzero(~np.isfinite(records.column("kl"))))
    if excluded:
        print(f"excluded {excluded} failed fits from summaries")
    _print_kl_summary(records)


def cmd_bias(args) -> None:
    cfg = _config_from_args(args)
    # The aggregates would replace the records; stdout may take both.
    if (args.agg_out and not _is_stdout(args.out)
            and os.path.realpath(args.out) == os.path.realpath(args.agg_out)):
        raise ValueError(f"--out {args.out} and --agg-out {args.agg_out} "
                         f"name one file")
    _check_dirs(("--out", args.out), ("--agg-out", args.agg_out))
    aggregates, records = run_bias_experiment(cfg)
    _write(write_records_csv, records, "--out", args.out)
    if args.agg_out:
        _write(write_bias_csv, aggregates, "--agg-out", args.agg_out)
    print(" ".join(BiasAggregate._fields))
    for a in aggregates:
        print(("%d %s %d %d" + " %.6g" * 4) % a)


def cmd_curves(args) -> None:
    if args.n < 0 or args.grid_points < 2 or not args.grid_lo < args.grid_hi:
        raise ValueError("need n >= 0, grid-points >= 2 and grid-lo < grid-hi")
    truth = InvGammaParams(args.alpha, args.beta)
    scale_prior = ScaleGammaPrior(args.prior_d, args.prior_e)
    rng = np.random.default_rng(args.seed)
    # An infinite end gives NaN points, which the curve refuses.
    with np.errstate(invalid="ignore", over="ignore"):
        grid = np.linspace(args.grid_lo, args.grid_hi, args.grid_points)
    stats = (SufficientStats.empty() if args.n == 0 else
             compute_stats(sample(truth, args.n, rng)))
    rows = emit_prior_posterior_curves(stats, DEFAULT_CURVE_VARIANTS,
                                       scale_prior, grid, args.alpha)
    _write(write_curves_csv, rows, "--out", args.out)
    # Every row of a variant holds its alpha_hat.
    for label, ah in {row[0]: row[5] for row in rows}.items():
        print(f"{label}  alpha_hat={ah:.6g}")


_COMMANDS = {
    "fit": cmd_fit,
    "sample": cmd_sample,
    "kl": cmd_kl,
    "benchmark": cmd_benchmark,
    "bias": cmd_bias,
    "curves": cmd_curves,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
        sys.stdout.flush()
        return 0
    except _Exit as exc:
        code, msg = exc.code, str(exc)
    except (DegenerateSampleError, InsufficientDataError,
            InvalidPosteriorError) as exc:  # two of them are ValueErrors
        code, msg = 4, str(exc)
    except ValueError as exc:
        code, msg = 2, str(exc)
    except WorkerError as exc:
        code, msg = 6, str(exc)
    except OSError as exc:
        # A stdout write failed; devnull takes the exit flush, which
        # would fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, msg = 5, ("stdout closed before all output was written"
                        if isinstance(exc, BrokenPipeError)  # the reader left
                        else f"cannot write stdout: {exc}")
    print(f"invgamma: {msg}", file=sys.stderr)
    return code
