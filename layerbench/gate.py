"""Correctness gate: the outputs of every benchmark run must pass it before
the run's numbers count.

Sweeps (``invgamma benchmark``): the records CSV is checked against the
invariants below for any seed, and for the reference seed also against a
stored copy of that CSV without the ``runtime_s`` column.  Ints, flags and
names must match exactly; floats match to ``HAT_RTOL`` (``KL_RTOL`` for KL), so
that changes which only alter rounding pass and a wrong fit fails.

Pipe (``invgamma sample | invgamma fit``): the sample stream must equal
``invgamma.sample`` for the same seed bit for bit (compared by digest), and
the fit output must match ``fit_ml1`` run in-process on that sample.
"""

import hashlib
import lzma
import math
import statistics

import numpy as np

RECORDS_HEADER = ("N,sim,estimator,alpha_true,beta_true,alpha_hat,beta_hat,"
                  "kl,bias_alpha,bias_beta,iterations,converged,runtime_s")
REFERENCE_HEADER = ("N,sim,estimator,alpha_true,beta_true,alpha_hat,beta_hat,"
                    "kl,iterations,converged")
ESTIMATORS = ("MM", "ML1", "ML2", "BL1", "BL2")
REFERENCE_SEED = 0

# Estimates may move by rounding only: batching or warm-starting the fixed
# points changed alpha by about 1.5e-11 relative in a prototype.  KL is a
# small difference of large terms, so the same change moves it by up to about
# 1e-9 relative; any wrong fit moves both by far more.
HAT_RTOL = 1e-9
KL_RTOL = 1e-6
KL_ATOL = 1e-12
# The CLI's default ConvergenceConfig.rel_tol.
REL_TOL = 1e-6
# tests/test_acceptance.py: ML1/ML2 agreement (criterion 2) and the ML2/BL2
# iteration budget (criterion 7).
ML_AGREEMENT = 1e-4
SURROGATE_MEAN_ITERS = 10.0
# ExperimentConfig's default truth ranges, which the CLI uses.
ALPHA_RANGE = (2.5, 15.0)
BETA_RANGE = (1.0, 50.0)
MAX_ERRORS = 5


class RecordsCheck:
    """Outcome of checking one records CSV."""

    def __init__(self):
        self.failed_rows = 0
        self.nonconverged = 0
        self.errors = []

    def error(self, msg):
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(msg)
        elif len(self.errors) == MAX_ERRORS:
            self.errors.append("further errors suppressed")


def _close(x, ref, rtol, atol=0.0):
    if math.isnan(ref):
        return math.isnan(x)
    return math.isclose(x, ref, rel_tol=rtol, abs_tol=atol)


def ml_agreement_bound(alpha_ml1):
    """Largest ML1/ML2 relative gap the gate accepts.

    ML1 stops once its step falls to REL_TOL.  Near the fixed point its
    contraction factor is about 1 - 1/(2 alpha), so it stops about
    2 alpha REL_TOL short of the point ML2 reaches.  That exceeds the
    acceptance suite's 1e-4 only where alpha_hat > 50, which happens at N = 20.
    """
    return max(ML_AGREEMENT, 3.0 * REL_TOL * alpha_ml1)


def read_records(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0] if lines else "", [line.split(",") for line in lines[1:]]


def check_records(path, sizes, sims, reference=None):
    """Check a records CSV written by ``invgamma benchmark``.

    ``reference`` maps (N, sim, estimator) to a row of REFERENCE_HEADER
    fields, as ``load_reference`` returns it.
    """
    import invgamma

    res = RecordsCheck()
    header, rows = read_records(path)
    if header != RECORDS_HEADER:
        res.error(f"unexpected header {header!r}")
        return res
    expected = [(n, s, e) for n in sizes for s in range(sims) for e in ESTIMATORS]
    keys = [(int(r[0]), int(r[1]), r[2]) for r in rows]
    if keys != expected:
        res.error(f"expected {len(expected)} rows ordered by (N, sim, "
                  f"estimator), got {len(rows)}")
        return res

    alpha = {}
    iters = {e: [] for e in ESTIMATORS}
    for key, r in zip(keys, rows):
        at, bt, ah, bh, kl, ba, bb = (float(v) for v in r[3:10])
        it, conv = int(r[10]), r[11]
        where = "N={} sim={} {}".format(*key)
        if conv not in ("true", "false"):
            res.error(f"{where}: converged={conv!r}")
            continue
        if not (ALPHA_RANGE[0] <= at <= ALPHA_RANGE[1]
                and BETA_RANGE[0] <= bt <= BETA_RANGE[1]):
            res.error(f"{where}: truth ({at}, {bt}) outside the config ranges")
        if reference is not None:
            _compare_reference(res, where, r, reference[key])
        if math.isnan(ah):
            res.failed_rows += 1
            if conv != "false" or it != 0:
                res.error(f"{where}: a failed fit must read converged=false "
                          "and 0 iterations")
            continue
        res.nonconverged += conv == "false"
        alpha[key] = ah
        iters[key[2]].append((it, conv))
        if not (math.isfinite(ah) and ah > 0 and math.isfinite(bh) and bh > 0):
            res.error(f"{where}: estimate ({ah}, {bh}) not finite and > 0")
            continue
        if not (math.isfinite(kl) and kl >= 0.0):
            res.error(f"{where}: KL {kl} not finite and >= 0")
            continue
        if (abs(ba - (ah - at)) > 1e-12 * max(abs(ah), abs(at))
                or abs(bb - (bh - bt)) > 1e-12 * max(abs(bh), abs(bt))):
            res.error(f"{where}: bias columns disagree with estimate - truth")
        want = invgamma.kl_divergence(invgamma.InvGammaParams(at, bt),
                                      invgamma.InvGammaParams(ah, bh))
        if not _close(kl, want, KL_RTOL, KL_ATOL):
            res.error(f"{where}: KL column {kl} != KL(truth || estimate) {want}")

    for n in sizes:
        for s in range(sims):
            a1, a2 = alpha.get((n, s, "ML1")), alpha.get((n, s, "ML2"))
            if a1 is not None and a2 is not None:
                gap = abs(a1 - a2) / a1
                if gap > ml_agreement_bound(a1):
                    res.error(f"N={n} sim={s}: ML1/ML2 alpha differ by {gap:.3g}")
    for est in ("ML2", "BL2"):
        its = iters[est]
        if its and (statistics.fmean(i for i, _ in its) > SURROGATE_MEAN_ITERS
                    or any(c != "true" for _, c in its)):
            res.error(f"{est} outside the acceptance iteration budget")
    return res


def _compare_reference(res, where, row, ref):
    for col, (got, want) in enumerate(zip(row[3:8], ref[3:8]), start=3):
        rtol, atol = (KL_RTOL, KL_ATOL) if col == 7 else (HAT_RTOL, 0.0)
        if not _close(float(got), float(want), rtol, atol):
            res.error(f"{where}: column {col} is {got}, reference {want}")
    if row[10:12] != ref[8:10]:
        res.error(f"{where}: iterations/converged {row[10:12]}, "
                  f"reference {ref[8:10]}")


def load_reference(path):
    with lzma.open(path, "rt") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != REFERENCE_HEADER:
        raise ValueError(f"{path}: unexpected header")
    rows = [line.split(",") for line in lines[1:]]
    return {(int(r[0]), int(r[1]), r[2]): r for r in rows}


def write_reference(records_csv, path):
    """Store a records CSV as a reference: runtime_s and the bias columns
    (checked against estimate - truth on every run) are left out, and floats
    keep 12 significant digits, well inside HAT_RTOL."""
    header, rows = read_records(records_csv)
    if header != RECORDS_HEADER:
        raise ValueError(f"{records_csv}: unexpected header")
    out = [REFERENCE_HEADER]
    for r in rows:
        out.append(",".join(r[:3] + [f"{float(v):.12g}" for v in r[3:8]]
                            + r[10:12]))
    with lzma.open(path, "wt", preset=9) as fh:
        fh.write("\n".join(out) + "\n")


# ----------------------------------------------------------------------- pipe

PIPE_TRUTH = (10.0, 25.0)


def expected_pipe(seed, n):
    """What ``invgamma sample ... | invgamma fit --estimator ml1`` must
    produce, computed in-process: the stream's digest and the ML1 fit."""
    import invgamma

    x = invgamma.sample(invgamma.InvGammaParams(*PIPE_TRUTH), n,
                        np.random.default_rng(seed))
    digest = hashlib.sha256()
    for i in range(0, n, 1 << 16):
        digest.update("".join(f"{v:.17g}\n" for v in x[i:i + (1 << 16)])
                      .encode())
    report = invgamma.fit_ml1(invgamma.compute_stats(x))
    return {"sha256": digest.hexdigest(), "n": n,
            "alpha": report.params.alpha, "beta": report.params.beta,
            "iterations": report.iterations, "converged": report.converged}


def parse_fit_output(text):
    """``invgamma fit`` key=value lines as the fields of ``expected_pipe``."""
    kv = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {"n": int(kv["n"]), "alpha": float(kv["alpha"]),
            "beta": float(kv["beta"]), "iterations": int(kv["iterations"]),
            "converged": kv["converged"] == "true"}


def compare_pipe(got, want):
    """Errors between two pipe results (``sha256`` is compared when both
    carry one)."""
    errors = []
    if "sha256" in got and got["sha256"] != want["sha256"]:
        errors.append("sample stream differs from invgamma.sample "
                      "for the same seed")
    for key in ("n", "iterations", "converged"):
        if got[key] != want[key]:
            errors.append(f"fit {key}={got[key]}, expected {want[key]}")
    for key in ("alpha", "beta"):
        if not _close(got[key], want[key], HAT_RTOL):
            errors.append(f"fit {key}={got[key]!r}, expected {want[key]!r}")
    return errors
