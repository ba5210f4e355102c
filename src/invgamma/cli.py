"""Command-line interface.

Subcommands: fit, sample, kl, benchmark, bias, curves.  Exit codes:
0 success, 2 malformed input or bad parameters, 3 non-positive sample
value, 4 estimator failure, 5 output I/O failure or a failed stdout
write.  ``main`` maps exceptions to these codes; a command catches only
what needs its context (an input line number, an output path).
"""

import argparse
import errno
import itertools
import json
import math
import os
import re
import sys

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
    ESTIMATORS,
    ExperimentConfig,
    aggregate_bias,
    emit_prior_posterior_curves,
    fit_by_name,
    fmt_float,
    kl_by_estimator,
    run_kl_experiment,
    wilcoxon_rank_sum,
    write_bias_csv,
    write_curves_csv,
    write_records_csv,
)

# Values per chunk at both ends of the pipe: ``sample`` formats and writes
# this many lines per stdout write, and ``fit`` parses this many input lines
# per C-level pass.  One string or list for 1e6 values would outweigh the
# sample array itself.
_EMIT_CHUNK = 65536


def _err(msg: str) -> None:
    print(f"invgamma: {msg}", file=sys.stderr)


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prior-a", type=float, default=1.0,
                   help="shape prior a (default 1)")
    p.add_argument("--prior-b", type=float, default=0.01,
                   help="shape prior b (default 0.01)")
    p.add_argument("--prior-c", type=float, default=0.01,
                   help="shape prior c (default 0.01)")
    p.add_argument("--prior-d", type=float, default=0.01,
                   help="scale prior shape d (default 0.01)")
    p.add_argument("--prior-e", type=float, default=0.01,
                   help="scale prior rate e (default 0.01)")
    p.add_argument("--w1", type=float, default=0.0,
                   help="polynomial shape prior w1 (default 0, flat)")
    p.add_argument("--w2", type=float, default=0.0,
                   help="polynomial shape prior w2 (default 0, flat)")


def _add_conv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-6,
                   help="relative alpha change tolerance (default 1e-6)")
    p.add_argument("--max-iter", type=int, default=1000,
                   help="iteration cap (default 1000)")


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    return sizes


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
    """Parse line by line, skipping blank lines; raise ``_InputError``
    naming the first bad line, numbered from ``first_lineno``."""
    values = []
    for lineno, line in enumerate(lines, start=first_lineno):
        text = line.strip()
        if not text:
            continue
        try:
            v = float(text)
        except ValueError:
            raise _InputError(2, f"line {lineno}: not a number: {text!r}")
        if not math.isfinite(v) or v <= 0.0:
            raise _InputError(3, f"line {lineno}: non-positive value {text}")
        values.append(v)
    return np.array(values, dtype=np.float64)


def _read_sample(path: str) -> np.ndarray:
    # Only iterate the input: a traced run swaps stdin for a line iterator.
    fh = sys.stdin if path == "-" else open(path)
    parts = []
    first = 1
    try:
        lines = iter(fh)
        while chunk := list(itertools.islice(lines, _EMIT_CHUNK)):
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
    finally:
        if fh is not sys.stdin:
            fh.close()
    return np.concatenate(parts or [np.empty(0)])


class _InputError(Exception):
    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code


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


def cmd_fit(args) -> int:
    try:
        data = _read_sample(args.input)
    except _InputError as exc:
        _err(str(exc))
        return exc.code
    except OSError as exc:
        _err(str(exc))
        return 2
    name = args.estimator.upper()
    # Bad options exit 2 before an empty sample can exit 4.
    options = _fit_options_from_args(args)
    stats = compute_stats(data)
    report = fit_by_name(name, stats, options)
    if args.strict and not report.converged:
        _err(f"{name} did not converge within {args.max_iter} iterations "
             f"(residual {report.residual:g})")
        return 4
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
            if isinstance(val, bool):
                print(f"{key}={'true' if val else 'false'}")
            elif isinstance(val, float):
                print(f"{key}={fmt_float(val)}")
            else:
                print(f"{key}={val}")
    return 0


def cmd_sample(args) -> int:
    if args.n < 0:
        _err(f"--n must be >= 0, got {args.n}")
        return 2
    p = InvGammaParams(args.alpha, args.beta)
    with np.errstate(divide="ignore", over="ignore"):
        x = sample(p, args.n, np.random.default_rng(args.seed))
    if not ((x > 0.0).all() and np.isfinite(x).all()):
        _err(f"alpha={args.alpha:g}, beta={args.beta:g}: draws fall outside "
             f"the positive finite float64 range")
        return 2
    for lo in range(0, x.size, _EMIT_CHUNK):
        chunk = tuple(x[lo:lo + _EMIT_CHUNK].tolist())
        # One C formatting call per chunk, with fmt_float's "%.17g" bytes.
        sys.stdout.write(("%.17g\n" * len(chunk)) % chunk)
    return 0


def cmd_kl(args) -> int:
    p = InvGammaParams(args.p_alpha, args.p_beta)
    q = InvGammaParams(args.q_alpha, args.q_beta)
    try:
        kl = kl_divergence(p, q)
    except OverflowError as exc:
        _err(f"KL divergence out of float64 range for these shapes ({exc})")
        return 2
    print(fmt_float(kl))
    return 0


def _print_kl_summary(cfg: ExperimentConfig, records) -> None:
    for size in cfg.sizes:
        by_est = kl_by_estimator(records, size)
        medians = "  ".join(
            f"{name}={np.median(by_est[name]):.6g}"
            for name in cfg.estimators if by_est.get(name, np.array([])).size)
        print(f"N={size}  median KL: {medians}")
        pvals = []
        for a, b in itertools.combinations(cfg.estimators, 2):
            xa, xb = by_est.get(a, ()), by_est.get(b, ())
            # The rank-sum test needs finite KLs on both sides.
            if not (len(xa) and len(xb)) or len(xa) + len(xb) < 10:
                continue
            _, p = wilcoxon_rank_sum(xa, xb)
            pvals.append(f"{a}-{b}={p:.3g}")
        if pvals:
            print(f"N={size}  rank-sum p: {'  '.join(pvals)}")


def cmd_benchmark(args) -> int:
    cfg = _config_from_args(args)
    records = run_kl_experiment(cfg)
    try:
        write_records_csv(records, args.out)
    except OSError as exc:
        _err(f"cannot write {args.out}: {exc}")
        return 5
    excluded = sum(1 for r in records if not math.isfinite(r.kl))
    if excluded:
        print(f"excluded {excluded} failed fits from summaries")
    _print_kl_summary(cfg, records)
    return 0


def cmd_bias(args) -> int:
    cfg = _config_from_args(args)
    records = run_kl_experiment(cfg)
    aggregates = aggregate_bias(records)
    try:
        write_records_csv(records, args.out)
        if args.agg_out:
            write_bias_csv(aggregates, args.agg_out)
    except OSError as exc:
        _err(f"cannot write output: {exc}")
        return 5
    print("N estimator n_used n_failed mean_bias_alpha std_bias_alpha "
          "mean_bias_beta std_bias_beta")
    for a in aggregates:
        print(f"{a.N} {a.estimator} {a.n_used} {a.n_failed} "
              f"{a.mean_bias_alpha:.6g} {a.std_bias_alpha:.6g} "
              f"{a.mean_bias_beta:.6g} {a.std_bias_beta:.6g}")
    return 0


def cmd_curves(args) -> int:
    if args.n < 0 or args.grid_points < 2 or not args.grid_lo < args.grid_hi:
        _err("need n >= 0, grid-points >= 2 and grid-lo < grid-hi")
        return 2
    truth = InvGammaParams(args.alpha, args.beta)
    scale_prior = ScaleGammaPrior(args.prior_d, args.prior_e)
    rng = np.random.default_rng(args.seed)
    grid = np.linspace(args.grid_lo, args.grid_hi, args.grid_points)
    if args.n == 0:
        stats = SufficientStats.empty()
    else:
        stats = compute_stats(sample(truth, args.n, rng))
    rows = emit_prior_posterior_curves(stats, DEFAULT_CURVE_VARIANTS,
                                       scale_prior, grid, args.alpha)
    try:
        write_curves_csv(rows, args.out)
    except OSError as exc:
        _err(f"cannot write {args.out}: {exc}")
        return 5
    seen = {}
    for (label, _, _, _, _, ah) in rows:
        seen.setdefault(label, ah)
    for label, ah in seen.items():
        print(f"{label}  alpha_hat={ah:.6g}")
    return 0


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
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (DegenerateSampleError, InsufficientDataError,
            InvalidPosteriorError) as exc:  # two of them are ValueErrors
        _err(str(exc))
        return 4
    except ValueError as exc:
        _err(str(exc))
        return 2
    except OSError as exc:
        # A failed fork of a sweep's pool is no output failure.
        if isinstance(exc, BlockingIOError) or exc.errno == errno.ENOMEM:
            raise
        # A stdout write failed; devnull takes the exit flush, which
        # would fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _err("stdout closed before all output was written"
             if isinstance(exc, BrokenPipeError)  # the reader left
             else f"cannot write stdout: {exc}")
        return 5


if __name__ == "__main__":
    sys.exit(main())
