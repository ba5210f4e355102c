#!/usr/bin/env python3
"""Traced run of one invgamma CLI command, and the per-layer metrics of its spans.

As a script, in a fresh interpreter with ``src`` on ``PYTHONPATH``:

    python3 layerbench/spans.py SPANS_JSON RUN_ID -- <invgamma CLI arguments>

It replaces the public names that the layers look up at call time with span
recorders, then calls ``invgamma.cli.main`` with the given arguments:

* in ``invgamma.harness``: ``sample``, ``compute_stats``, ``fit_mm`` ..
  ``fit_bl2`` and ``kl_divergence`` (``cli fit`` reaches the fitters through
  ``harness._fit_one``, so these cover it too);
* in ``invgamma.cli``: ``run_kl_experiment``, ``wilcoxon_rank_sum``,
  ``write_records_csv``, ``sample`` and ``compute_stats``.

For ``fit`` reading stdin, each blocking read of the pipe is a span of its own,
so that time spent waiting for the producer is not counted as parsing.  Nothing
under ``src/`` is modified.  Spans stay in memory and are written to SPANS_JSON
when the command returns; the command's own stdout is left untouched.
"""

import json
import os
import statistics
import sys
import time

from gate import ESTIMATORS

# Index of each field in a span record.
NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """In-memory span recorder for one single-threaded process.

    A span is ``[name, start, end, parent index, attrs]``; the run id is
    stored once per file, since every span of a process shares it.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()


class CountingRng:
    """Forwards to a numpy Generator and counts the normal/uniform pairs the
    Marsaglia-Tsang refill requests (one ``standard_normal`` value per pair)."""

    def __init__(self, rng):
        self._rng = rng
        self.pairs = 0

    def standard_normal(self, size=None, *args, **kwargs):
        import numpy as np
        self.pairs += 1 if size is None else int(np.prod(size))
        return self._rng.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _recorder(tracer, name, fn, attrs=None):
    """Wrap ``fn`` in a span; ``attrs(args, result, rec_attrs)`` runs after
    the span is closed, so it is not timed."""

    def traced(*args, **kwargs):
        rec = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(rec)
            rec[ATTRS]["failed"] = type(exc).__name__
            raise
        tracer.close(rec)
        if attrs is not None:
            attrs(args, result, rec[ATTRS])
        return result

    return traced


def _traced_sample(tracer, sample):
    def traced(p, n, rng):
        counting = CountingRng(rng)
        rec = tracer.open("distribution.sample")
        try:
            return sample(p, n, counting)
        finally:
            tracer.close(rec)
            rec[ATTRS].update(draws=int(n), pairs=counting.pairs)

    return traced


def _fit_attrs(args, report, attrs):
    attrs.update(iterations=int(report.iterations),
                 converged=bool(report.converged))


def _stats_attrs(args, stats, attrs):
    attrs["values"] = int(stats.n)


def _csv_attrs(args, result, attrs):
    # Bytes before runtime_s, the last column: the text length of the
    # measured times varies from run to run, the rest repeats exactly.
    with open(args[1], "rb") as fh:
        attrs["bytes"] = sum(line.rfind(b",") + 1 for line in fh)


class _TimedStdin:
    """Line iterator over fd 0 that records every blocking read as a span."""

    def __init__(self, tracer, fd):
        self._tracer = tracer
        self._fd = fd

    def __iter__(self):
        pending = b""
        while True:
            rec = self._tracer.open("cli.stdin.read")
            chunk = os.read(self._fd, 1 << 16)
            self._tracer.close(rec)
            if not chunk:
                break
            lines = (pending + chunk).split(b"\n")
            pending = lines.pop()
            for line in lines:
                yield line.decode() + "\n"
        if pending:
            yield pending.decode()


def install(tracer):
    """Replace the names the layers call with span recorders."""
    from invgamma import cli, harness

    for est in ESTIMATORS:
        attr = f"fit_{est.lower()}"
        setattr(harness, attr, _recorder(tracer, f"estimators.fit.{est}",
                                         getattr(harness, attr), _fit_attrs))
    harness.sample = _traced_sample(tracer, harness.sample)
    harness.compute_stats = _recorder(tracer, "estimators.compute_stats",
                                      harness.compute_stats, _stats_attrs)
    harness.kl_divergence = _recorder(tracer, "distribution.kl_divergence",
                                      harness.kl_divergence)
    cli.sample = _traced_sample(tracer, cli.sample)
    cli.compute_stats = _recorder(tracer, "estimators.compute_stats",
                                  cli.compute_stats, _stats_attrs)
    cli.run_kl_experiment = _recorder(tracer, "harness.run_kl_experiment",
                                      cli.run_kl_experiment)
    cli.wilcoxon_rank_sum = _recorder(tracer, "harness.wilcoxon_rank_sum",
                                      cli.wilcoxon_rank_sum)
    cli.write_records_csv = _recorder(tracer, "harness.write_records_csv",
                                      cli.write_records_csv, _csv_attrs)


def _main(argv):
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--" or not cli_args:
        print("usage: spans.py SPANS_JSON RUN_ID -- <invgamma CLI arguments>",
              file=sys.stderr)
        return 2
    from invgamma import cli

    tracer = Tracer()
    install(tracer)
    command = cli_args[0]
    if command == "fit":
        sys.stdin = _TimedStdin(tracer, sys.stdin.fileno())
    rec = tracer.open(f"cli.{command}")
    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.close(rec)
    with open(spans_path, "w") as fh:
        json.dump({"run_id": run_id, "command": cli_args, "spans": tracer.spans},
                  fh)
    return code


# ---------------------------------------------------------------- aggregation

def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(span_files, emitted_bytes=0):
    """Per-layer metrics of one traced workload run, from the span files of
    its processes (one for a sweep, two for the pipe).

    A span's self time is its duration minus that of its direct children:
    each process is single-threaded, so children never overlap.
    """
    busy, calls, child = {}, {}, {}
    attrs = {}
    for path in span_files:
        if not os.path.exists(path):  # the traced process failed
            continue
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        for name, start, end, parent, a in spans:
            dur = end - start
            busy[name] = busy.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            attrs.setdefault(name, []).append(a)
            if parent is not None:
                pname = spans[parent][NAME]
                child[pname] = child.get(pname, 0.0) + dur

    def total(name, key):
        return sum(a.get(key, 0) for a in attrs.get(name, ()))

    m = {}
    s = "distribution.sample"
    draws = total(s, "draws")
    m.update({f"{s}.calls": calls.get(s, 0), f"{s}.draws": draws,
              f"{s}.busy_s": busy.get(s, 0.0),
              f"{s}.ns_per_draw": _ratio(busy.get(s, 0.0), draws, 1e9),
              f"{s}.pairs_per_draw": _ratio(total(s, "pairs"), draws)})
    s = "distribution.kl_divergence"
    m.update({f"{s}.calls": calls.get(s, 0), f"{s}.busy_s": busy.get(s, 0.0)})
    s = "estimators.compute_stats"
    values = total(s, "values")
    m.update({f"{s}.calls": calls.get(s, 0), f"{s}.values": values,
              f"{s}.busy_s": busy.get(s, 0.0),
              f"{s}.ns_per_value": _ratio(busy.get(s, 0.0), values, 1e9)})
    for est in ESTIMATORS:
        s = f"estimators.fit.{est}"
        runs = attrs.get(s, [])
        done = [a for a in runs if "failed" not in a]
        iters = [a["iterations"] for a in done]
        m.update({
            f"{s}.calls": len(runs),
            f"{s}.busy_s": busy.get(s, 0.0),
            f"{s}.us_per_fit": _ratio(busy.get(s, 0.0), len(runs), 1e6),
            f"{s}.iters_mean": statistics.fmean(iters) if iters else 0.0,
            f"{s}.iters_max": max(iters, default=0),
            f"{s}.nonconverged": sum(1 for a in done if not a["converged"]),
            f"{s}.failed": len(runs) - len(done),
        })
        if est != "MM":
            m[f"{s}.us_per_iter"] = _ratio(busy.get(s, 0.0), sum(iters), 1e6)
    s = "harness.run_kl_experiment"
    m.update({f"{s}.busy_s": busy.get(s, 0.0),
              f"{s}.self_s": busy.get(s, 0.0) - child.get(s, 0.0)})
    s = "harness.wilcoxon_rank_sum"
    m.update({f"{s}.calls": calls.get(s, 0), f"{s}.busy_s": busy.get(s, 0.0)})
    s = "harness.write_records_csv"
    m.update({f"{s}.busy_s": busy.get(s, 0.0),
              f"{s}.bytes": total(s, "bytes")})
    s = "cli.sample"
    m.update({f"{s}.busy_s": busy.get(s, 0.0),
              f"{s}.emit_s": busy.get(s, 0.0) - child.get(s, 0.0),
              f"{s}.bytes": emitted_bytes if s in busy else 0})
    # The blocking stdin reads are children of cli.fit, so parse_s is the
    # command's time outside them, compute_stats and the fit.
    s = "cli.fit"
    m.update({f"{s}.busy_s": busy.get(s, 0.0),
              f"{s}.wait_s": busy.get("cli.stdin.read", 0.0),
              f"{s}.parse_s": busy.get(s, 0.0) - child.get(s, 0.0)})
    return m


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
