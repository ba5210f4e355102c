#!/usr/bin/env bash
# The checks of .github/workflows/tests.yml, one function per workflow
# step; each step of the workflow calls its function.
#
#   bash ci/checks.sh [STEP...]
#
# runs the named steps, or with no argument every step of STEPS, in
# workflow order.  It runs from the repository root, each step in its own
# subshell under bash -e as a workflow step runs, and stops at the first
# step that fails.
set -e
cd "$(dirname "$0")/.."

STEPS=(tier1 smoke pipe failures log_path digests one_cpu order nan_rows
       round_trip traced_pipe traced_sweep)

# Sets out to a new temp directory, removed when the step's subshell
# exits, whether the step passes or fails.
temp_dir() {
  out=$(mktemp -d)
  trap "rm -rf '$out'" EXIT
}

# Tier-1 tests.
tier1() {
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
}

# Benchmark smoke test.
smoke() {
  python3 layerbench/smoke.py
}

# Sample | fit pipe.  The piped fit must give the in-process fit's alpha,
# beta and iterations bit for bit: "%.17g" text and JSON floats round-trip.
pipe() {
  set -o pipefail
  PYTHONPATH=src python -m invgamma sample --alpha 10 --beta 25 --n 200000 --seed 0 | PYTHONPATH=src python -m invgamma fit --estimator ml1 --strict --json | PYTHONPATH=src python -c '
import json, sys
import numpy as np
from invgamma import InvGammaParams, compute_stats, fit_ml1, sample
got = json.load(sys.stdin)
r = fit_ml1(compute_stats(sample(InvGammaParams(10, 25), 200000, np.random.default_rng(0))))
want = {"alpha": r.params.alpha, "beta": r.params.beta, "iterations": r.iterations}
print(got)
if {k: got[k] for k in want} != want:
    sys.exit(f"piped fit {got} differs from the in-process fit {want}")
'
  # The fit side never draws, so importing the CLI must not load
  # numpy.random (about 6 MB of RSS): only a draw loads it.
  PYTHONPATH=src python -c '
import sys
import invgamma.cli
if "numpy.random" in sys.modules:
    sys.exit("import invgamma.cli loads numpy.random")
'
}

# Failures exit 2, 4 or 5 without a traceback.
failures() {
  set -o pipefail
  local out
  temp_dir
  # expect CODE ARGS...: run invgamma ARGS under -W error on the
  # caller's stdin and stdout, copy its stderr to the log, and fail
  # unless it exits CODE, prints no Traceback, and prints one stderr
  # line on a failure (none on success).  bash -e is off inside "!",
  # "||", "&&" and a pipeline's left side, so each test returns by hand.
  expect() {
    local want=$1 code=0
    shift
    PYTHONPATH=src python -W error -m invgamma "$@" 2> "$out/err.txt" || code=$?
    cat "$out/err.txt" >&2
    test "$code" -eq "$want" || return 1
    ! grep -q Traceback "$out/err.txt" || return 1
    test "$(wc -l < "$out/err.txt")" -eq $((want != 0)) || return 1
  }
  # A helper that stops failing must fail the step.
  ! expect 3 kl --p-alpha 3 --p-beta 2 --q-alpha 3 --q-beta 4 > /dev/null || exit 1
  printf '2.83233e-318\n2613.711528902175\n' | expect 4 fit --estimator ml2
  PYTHONPATH=src python -m invgamma sample --alpha 10 --beta 25 --n 50 --seed 1 > "$out/s.txt"
  expect 4 fit --estimator bl1 --prior-c 0.5 --input "$out/s.txt"
  # The reader leaves after one line: exit 5.
  expect 5 sample --alpha 10 --beta 25 --n 1000000 | head -1
  # Draws beyond float64 (Gamma variates that underflow to 0) and a
  # shape beyond math.lgamma's range: exit 2, and no output.
  expect 2 sample --alpha 0.001 --beta 1 --n 5 --seed 0 > "$out/inf.txt"
  test ! -s "$out/inf.txt"
  expect 2 kl --p-alpha 1.7e308 --p-beta 1 --q-alpha 1 --q-beta 1
  # A curves grid end beyond float64 or lgamma's range: exit 2, no CSV.
  expect 2 curves --alpha 10 --beta 25 --n 50 --grid-hi inf --out "$out/c.csv"
  expect 2 curves --alpha 10 --beta 25 --n 50 --grid-hi 1e308 --out "$out/c.csv"
  test ! -e "$out/c.csv"
  # One file for both of bias's CSVs: exit 2 before the sweep, no CSV.
  expect 2 bias --sizes 20 --sims 3 --out "$out/r.csv" --agg-out "$out/r.csv"
  test ! -e "$out/r.csv"
  # A large shape one ulp apart is rounding inside the KL's slack.
  expect 0 kl --p-alpha 1e13 --p-beta 1 --q-alpha 1e13 --q-beta 0.9999999999999999
  # Handled in main, not in the command: a bad parameter (exit 2),
  # a sample too small to fit (exit 4), a full stdout (exit 5).
  expect 2 sample --alpha -1 --beta 1 --n 5
  expect 4 curves --alpha 10 --beta 25 --n 1 --out "$out/c.csv"
  expect 5 kl --p-alpha 3 --p-beta 2 --q-alpha 3 --q-beta 4 > /dev/full
  # Codes a command decides: an unreadable --input (2), a
  # non-positive line (3), non-convergence under --strict (4).
  expect 2 fit --estimator ml1 --input /nonexistent
  printf '1.5\n-2\n' | expect 3 fit --estimator ml1
  expect 4 fit --estimator ml1 --strict --max-iter 1 --input "$out/s.txt"
  # Every refusal of the estimators' table, in its order: n = 1, zero
  # variance, moments overflowing, BL1's e + sum(1/x) overflowing (the
  # ml2 line above overflows sum(1/x)), a near-constant sample on which
  # BL2's update divides by zero, and a BL2 posterior without an
  # interior maximum; the bl1 line above gives an infinite estimate.
  printf '2.0\n' | expect 4 fit --estimator ml1
  printf '3.0\n3.0\n' | expect 4 fit --estimator ml2
  printf '1e308\n1.5e308\n1e307\n' | expect 4 fit --estimator mm
  printf '1e-300\n1.0\n' | expect 4 fit --estimator bl1 --prior-e 1.7976931348623157e308
  { printf '1.0\n%.0s' $(seq 19); echo 1.0000000001; } | expect 4 fit --estimator bl2
  expect 4 fit --estimator bl2 --w1 1e12 --input "$out/s.txt"
}

# Log and exp path of the array kernels.  "fromiter" means the
# import-time probe found numpy's reversed-view log or exp off the C
# library's bits on this runner.
log_path() {
  PYTHONPATH=src python -c "from invgamma import specfun; print(specfun.LOG_PATH)"
}

# Sampler streams match digests pinned on another host.  A runner whose
# CPU has other SIMD features than the host that pinned these must still
# draw the same bits: the log test uses the C library's log, never
# numpy's contiguous SIMD loop.
digests() {
  check() {
    got=$(PYTHONPATH=src python -m invgamma sample --alpha "$1" --beta "$2" --n 200000 --seed 0 | sha256sum | cut -d' ' -f1)
    echo "alpha=$1 beta=$2 $got"
    test "$got" = "$3"
  }
  check 0.3 1 02926f13462dd3cca37d792de20cc575f8fbc0b6b52d7ddbcc329172f053f5b3
  check 10 1 2481962673356e2326a68e7fcf28243f475985cdb7d48f9b37847745774e847f
  check 1e6 1 f7cdb6e6198eb061bf70ac2a65b389911ae84ef7fb2ebf32facaab8689fa1f36
  # The cli-pipe benchmark's truth: values of about 0.7 to 20, nearly all
  # printed with the point after their first or second digit.  alpha 10
  # pins values below 1, and alpha 1e6 values printed with an exponent.
  check 10 25 41651750eff9229709c70f370395898fded95352f9fad11ae2a0a52a26aae204
}

# Sweep on one CPU.
one_cpu() {
  local out
  temp_dir
  PYTHONPATH=src taskset -c 0 python -m invgamma benchmark --sizes 1,2,20,3000 --sims 40 --seed 0 --out "$out/one.csv"
  PYTHONPATH=src python -m invgamma benchmark --sizes 1,2,20,3000 --sims 40 --seed 0 --out "$out/all.csv"
  cut -d, -f1-12 "$out/one.csv" > "$out/one.cut"
  cut -d, -f1-12 "$out/all.csv" > "$out/all.cut"
  cmp "$out/one.cut" "$out/all.cut"
}

# Sweep output ignores the order of --sizes and --estimators.
order() {
  local out
  temp_dir
  PYTHONPATH=src python -m invgamma benchmark --sizes 50,20 --sims 40 --estimators BL2,MM --out "$out/a.csv" > "$out/a.txt"
  PYTHONPATH=src python -m invgamma benchmark --sizes 20,50 --sims 40 --estimators MM,BL2 --out "$out/b.csv" > "$out/b.txt"
  cmp "$out/a.txt" "$out/b.txt"
  cut -d, -f1-12 "$out/a.csv" > "$out/a.cut"
  cut -d, -f1-12 "$out/b.csv" > "$out/b.cut"
  cmp "$out/a.cut" "$out/b.cut"
}

# Failed fits score NaN without a warning.  Every fit fails at N=1, and
# BL2's prior has no interior maximum at N=2 and N=30, so NaN rows go
# through the array KL; -W error makes any RuntimeWarning fail the step.
nan_rows() {
  local out
  temp_dir
  PYTHONPATH=src python -W error -m invgamma benchmark --sizes 1,2,3,30 --sims 40 --seed 3 --w1 1e12 --out "$out/fail.csv"
}

# Records CSV round trip in a fresh process.  A list of records read back
# from the CSV is written with the sweep's text, runtime_s and the NaN
# rows of failed fits included.
round_trip() {
  local out
  temp_dir
  PYTHONPATH=src python -m invgamma benchmark --sizes 1,2,20 --sims 40 --seed 3 --w1 1e12 --out "$out/a.csv"
  PYTHONPATH=src python -c 'import sys; from invgamma.harness import read_records_csv, write_records_csv; write_records_csv(read_records_csv(sys.argv[1]), sys.argv[2])' "$out/a.csv" "$out/b.csv"
  cmp "$out/a.csv" "$out/b.csv"
}

# Traced pipe reaches the ML1 fit.
traced_pipe() {
  local out
  out=$(python3 layerbench/run.py --workload cli-pipe --tiny --trace 1 --seconds 1)
  echo "$out"
  grep -qxF "estimators.fit.ML1.calls = 1 count" <<< "$out"
}

# Traced sweep scores each estimator in one KL call.  One kl_divergence
# call per estimator over all sizes.  The small-n run checks the names the
# benchmark wraps: the sweep, the rank-sum test and the records CSV
# writer, whose bytes before runtime_s are those of seed 0.
traced_sweep() {
  local out
  out=$(python3 layerbench/run.py --workload sweep-default --tiny --trace 1 --seconds 1)
  echo "$out"
  grep -qxF "distribution.kl_divergence.calls = 5 count" <<< "$out"
  out=$(python3 layerbench/run.py --workload sweep-small-n --tiny --trace 1 --seconds 1)
  echo "$out"
  grep -qxF "harness.wilcoxon_rank_sum.calls = 20 count" <<< "$out"
  grep -qxF "harness.write_records_csv.bytes = 30658 B" <<< "$out"
  grep -qxE "harness\.run_kl_experiment\.busy_s = [0-9.e-]*[1-9][0-9.e-]* s" <<< "$out"
}

(($#)) || set -- "${STEPS[@]}"
for step; do
  if [[ " ${STEPS[*]} " != *" $step "* ]]; then
    echo "ci/checks.sh: unknown step $step; steps: ${STEPS[*]}" >&2
    exit 2
  fi
  echo "== $step" >&2
  ("$step")
done
