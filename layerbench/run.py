#!/usr/bin/env python3
"""Layered benchmark of the invgamma CLI.

    python3 layerbench/run.py --workload sweep-default --seed 7 --seconds 20 --trace 0
    python3 layerbench/run.py        # every workload at seed 0, untraced and traced

Run it from the repository root.  The CLI runs from ``src`` as
``python -m invgamma``, the way the tier-1 tests import the package, so no
install is needed; the program receives only the generated CLI arguments.

Each workload is a closed loop with one caller: it starts the command, waits
for it to exit, checks the output with ``gate.py`` and starts the next run,
until ``--seconds`` have passed.  The pipe workload runs two processes, and
the benchmark relays the stream between them to digest it on the fly.

``--trace 0`` measures the end-to-end metrics with tracing off:

* setup_s: median wall time of a fresh interpreter that imports invgamma and
  runs one tiny fit of each estimator;
* wall_s: median wall time of the workload's command (or pipe);
* fits_per_s: fits written per wall_s (one per pipe run);
* values_per_s: sample values drawn per wall_s;
* peak_rss_mb: median peak RSS of the command, the larger of the two for the
  pipe;
* ok_share, converged_share: 1 - failed_share and 1 - nonconverged_share,
  where a failed operation is a NaN row, or every fit of a run that exits
  non-zero or fails the gate.

``--trace 1`` alternates untraced runs with traced ones (``spans.py``) and
reports the per-layer metrics; ``trace.overhead_s`` is the traced minus the
untraced wall time.  Metric names and units come from ``BENCHMARK.json``.
Each metric is printed by name with its unit, and the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  A
record of the run with its environment is written to ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import spans

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference"

SETUP_REPEATS = 7
SETUP_CODE = """\
import sys
import numpy as np
import invgamma as ig
stats = ig.compute_stats(ig.sample(ig.InvGammaParams(10.0, 25.0), 50,
                                   np.random.default_rng(int(sys.argv[1]))))
for fit in (ig.fit_mm, ig.fit_ml1, ig.fit_ml2, ig.fit_bl1, ig.fit_bl2):
    fit(stats)
"""


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape.  A sweep (n == 0) runs ``invgamma
    benchmark`` with ``args``; the pipe runs ``sample --n n | fit``."""

    name: str
    sizes: tuple = ()
    sims: int = 0
    n: int = 0
    args: tuple = ()

    @property
    def is_pipe(self):
        return self.n > 0

    @property
    def fits(self):
        if self.is_pipe:
            return 1
        return len(self.sizes) * self.sims * len(gate.ESTIMATORS)

    @property
    def values(self):
        return self.n if self.is_pipe else sum(self.sizes) * self.sims


def _sweep(name, sizes, sims, pass_sizes=True):
    args = ("--sizes", ",".join(map(str, sizes)), "--sims", str(sims))
    return Workload(name, sizes, sims, args=args if pass_sizes else ())


# Why each workload is here: see "why" in BENCHMARK.json.  sweep-default is
# the CLI's default (paper) configuration, so it passes no size flags.
WORKLOADS = {w.name: w for w in (
    _sweep("sweep-default", (500, 2500, 5000), 500, pass_sizes=False),
    _sweep("sweep-small-n", (20, 50), 1500),
    Workload("cli-pipe", n=1_000_000),
)}
TINY = {w.name: w for w in (
    _sweep("sweep-default", (500, 2500, 5000), 3),
    _sweep("sweep-small-n", (20, 50), 20),
    Workload("cli-pipe", n=5000),
)}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _peak_mb(report):
    """Peak RSS in MB that launch.py wrote for one command."""
    try:
        return int(report.read_text()) / 1024.0
    except (OSError, ValueError):
        return 0.0


def _tail(path):
    text = path.read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else "no stderr"


class Runner:
    """Runs one workload's commands, plain or traced, and gates each run."""

    def __init__(self, workload, seed, check_reference):
        self.w = workload
        self.seed = seed
        self.env = child_env()
        self.dir = OUT / f"{workload.name}-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.runs = 0
        self.reference = None
        self.expected = None
        if workload.is_pipe:
            self.expected = gate.expected_pipe(seed, workload.n)
        if check_reference:
            path = REFERENCE / f"{workload.name}-seed{seed}"
            if workload.is_pipe:
                self.reference = json.loads(Path(f"{path}.json").read_text())
            else:
                self.reference = gate.load_reference(f"{path}.csv.xz")

    def prefix(self, traced, role):
        """argv up to the CLI arguments; traced runs also name a span file."""
        if not traced:
            return [sys.executable, "-m", "invgamma"]
        path = self.dir / f"spans-{self.runs}-{role}.json"
        path.unlink(missing_ok=True)
        return [sys.executable, str(HERE / "spans.py"), str(path),
                f"{self.w.name}-{self.seed}-{self.runs}", "--"]

    def spawn(self, argv, role, **streams):
        """Start ``argv`` under launch.py; return (process, RSS report path)."""
        report = self.dir / f"rss-{role}.txt"
        report.unlink(missing_ok=True)
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launch.py"), str(report),
             "--", *argv], env=self.env, cwd=ROOT, **streams)
        return proc, report

    def run(self, traced):
        self.runs += 1
        rep = self._pipe(traced) if self.w.is_pipe else self._sweep(traced)
        rep["traced"] = traced
        if rep["errors"]:
            rep["failed"] = self.w.fits
        return rep

    def _sweep(self, traced):
        csv = self.dir / "records.csv"
        csv.unlink(missing_ok=True)
        argv = [*self.prefix(traced, "benchmark"), "benchmark", *self.w.args,
                "--seed", str(self.seed), "--out", str(csv)]
        err = self.dir / "stderr.txt"
        with open(err, "w") as err_fh:
            t0 = time.perf_counter()
            proc, report = self.spawn(argv, "benchmark",
                                      stdout=subprocess.DEVNULL, stderr=err_fh)
            proc.wait()
            wall = time.perf_counter() - t0
        rss = _peak_mb(report)
        rep = {"wall_s": wall, "rss_mb": rss, "spans": [], "bytes": 0,
               "failed": 0, "nonconverged": 0, "errors": []}
        if traced:
            rep["spans"] = [argv[2]]
        if proc.returncode != 0:
            rep["errors"].append(f"exit {proc.returncode}: {_tail(err)}")
            return rep
        check = gate.check_records(csv, self.w.sizes, self.w.sims,
                                   self.reference)
        rep.update(failed=check.failed_rows, nonconverged=check.nonconverged,
                   errors=check.errors)
        return rep

    def _pipe(self, traced):
        sample_argv = [*self.prefix(traced, "sample"), "sample",
                       "--alpha", str(gate.PIPE_TRUTH[0]),
                       "--beta", str(gate.PIPE_TRUTH[1]),
                       "--n", str(self.w.n), "--seed", str(self.seed)]
        fit_argv = [*self.prefix(traced, "fit"), "fit", "--estimator", "ml1"]
        err = [self.dir / "stderr-sample.txt", self.dir / "stderr-fit.txt"]
        digest = hashlib.sha256()
        nbytes = 0
        with open(err[0], "w") as e0, open(err[1], "w") as e1:
            t0 = time.perf_counter()
            sampler, sample_rss = self.spawn(sample_argv, "sample",
                                             stdout=subprocess.PIPE, stderr=e0)
            fitter, fit_rss = self.spawn(fit_argv, "fit", stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=e1)
            try:
                src = sampler.stdout.fileno()
                while chunk := os.read(src, 1 << 20):
                    digest.update(chunk)
                    nbytes += len(chunk)
                    fitter.stdin.write(chunk)
            except BrokenPipeError:
                pass  # the fitter exited early; its exit status says why
            finally:
                sampler.stdout.close()
                try:
                    fitter.stdin.close()
                except BrokenPipeError:
                    pass
            out = fitter.stdout.read().decode()
            fitter.stdout.close()
            sampler.wait()
            fitter.wait()
            wall = time.perf_counter() - t0
        rss = max(_peak_mb(sample_rss), _peak_mb(fit_rss))
        rep = {"wall_s": wall, "rss_mb": rss, "bytes": nbytes, "failed": 0,
               "nonconverged": 0, "errors": [], "spans": []}
        if traced:
            rep["spans"] = [sample_argv[2], fit_argv[2]]
        for proc, path in ((sampler, err[0]), (fitter, err[1])):
            if proc.returncode != 0:
                rep["errors"].append(f"exit {proc.returncode}: {_tail(path)}")
        if rep["errors"]:
            return rep
        try:
            got = gate.parse_fit_output(out)
        except (KeyError, ValueError) as exc:
            rep["errors"].append(f"unreadable fit output: {exc!r}")
            return rep
        got["sha256"] = digest.hexdigest()
        rep["errors"] = gate.compare_pipe(got, self.expected)
        rep["nonconverged"] = int(not got["converged"])
        return rep


def setup_time(seed, env):
    """Wall time of a fresh interpreter that imports invgamma and runs one
    tiny fit of each estimator; None if it fails."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(seed)],
                          env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return wall if proc.returncode == 0 else None


def measure(workload, seed, seconds, trace, check_reference):
    """Run ``workload`` for ``seconds``; return (result, record)."""
    runner = Runner(workload, seed, check_reference)
    errors = []
    if runner.reference is not None and workload.is_pipe:
        errors += [f"in-process {e}" for e in
                   gate.compare_pipe(runner.expected, runner.reference)]
    setups = [] if trace else [setup_time(seed, runner.env)
                               for _ in range(SETUP_REPEATS)]
    if None in setups:
        errors.append("set-up probe failed")
        setups = [s for s in setups if s is not None] or [0.0]

    # Start another round only if it should end within the deadline, judged
    # by the slowest round so far; there is always at least one.
    reps = []
    start = time.perf_counter()
    slowest = 0.0
    while True:
        t0 = time.perf_counter()
        reps.append(runner.run(traced=False))
        if trace:
            reps.append(runner.run(traced=True))
        now = time.perf_counter()
        slowest = max(slowest, now - t0)
        if now + slowest > start + seconds:
            break
    for i, rep in enumerate(reps):
        errors += [f"run {i}: {e}" for e in rep["errors"]]

    attempted = workload.fits * len(reps)
    failed = sum(rep["failed"] for rep in reps)
    plain = [rep for rep in reps if not rep["traced"]]
    wall = statistics.median(rep["wall_s"] for rep in plain)
    if trace:
        traced = [rep for rep in reps if rep["traced"]]
        per_run = [spans.layer_metrics(rep["spans"], rep["bytes"])
                   for rep in traced]
        metrics = {k: statistics.median_low(m[k] for m in per_run)
                   for k in per_run[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(rep["wall_s"] for rep in traced) - wall)
    else:
        fits = workload.fits * len(plain)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "fits_per_s": workload.fits / wall,
            "values_per_s": workload.values / wall,
            "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in plain),
            "ok_share": 1.0 - failed / attempted,
            "converged_share": 1.0 - sum(r["nonconverged"] for r in plain) / fits,
            "failed_share": failed / attempted,
            "nonconverged_share": sum(r["nonconverged"] for r in plain) / fits,
        }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "runs": [{k: rep[k] for k in ("wall_s", "rss_mb", "traced",
                                            "failed", "errors")}
                       for rep in reps],
              "setup_s": setups, "errors": errors, "result": result}
    return result, record


def environment():
    import numpy
    import invgamma
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "invgamma": invgamma.__version__,
            "backend": "numba" if invgamma.NUMBA_ENABLED else "interpreted",
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(workload, result, record, spec_metrics):
    """Print every metric of ``spec_metrics`` by name with its unit; return
    the contract's result object restricted to those metrics."""
    env = record["environment"]
    print(f"# {workload.name} seed={record['seed']} trace={record['trace']} "
          f"runs={len(record['runs'])} backend={env['backend']} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"commit={env['commit'][:12]}")
    for err in record["errors"]:
        print(f"# error: {err}")
    metrics = {}
    for m in spec_metrics:
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    if not record["trace"]:
        for name in ("failed_share", "nonconverged_share"):
            print(f"{name} = {result['metrics'][name]:.6g} ratio")
    else:
        m = result["metrics"]
        harness = m.get("harness.run_kl_experiment.busy_s", 0.0)
        if harness:
            ml = (m["estimators.fit.ML1.busy_s"] + m["estimators.fit.BL1.busy_s"])
            print(f"# share of harness.run_kl_experiment: "
                  f"sample {m['distribution.sample.busy_s'] / harness:.1%}, "
                  f"ML1+BL1 {ml / harness:.1%}")
    return {**result, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: 0 then 1 for --workload all")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny workload sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "invgamma" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"run.py: needs {SRC / 'invgamma'} and {SPEC}: run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else (
        [0, 1] if args.workload == "all" else [0])

    results = {}
    for name in names:
        workload = (TINY if args.tiny else WORKLOADS)[name]
        for trace in traces:
            result, record = measure(
                workload, args.seed, seconds, trace,
                check_reference=args.seed == gate.REFERENCE_SEED and not args.tiny)
            OUT.mkdir(exist_ok=True)
            path = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            spec_metrics = spec["per_layer" if trace else "end_to_end"]
            results[f"{name}/trace{trace}"] = report(workload, result, record,
                                                     spec_metrics)
    final = next(iter(results.values())) if len(results) == 1 else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
