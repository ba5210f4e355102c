#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the repository root:

    python3 layerbench/smoke.py

* Every workload at a tiny size, untraced and traced twice with one seed:
  each run is correct, prints every metric BENCHMARK.json names with its
  unit, and the two traced runs give identical counts.
* A perturbed alpha_hat fails the gate, both through the per-row invariants
  and through the reference comparison; a perturbed pipe result fails too.
* The counting generator proxy leaves the sample stream unchanged.
* Without the package sources, run.py exits non-zero and prints no result.

Exits 0 when every check passes; prints each failure otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

import gate
from run import OUT, ROOT, SPEC, SRC, TINY, child_env
from spans import CountingRng

COUNT_UNITS = ("count", "iters", "B", "pairs/draw")
failures = []


def expect(ok, msg):
    print(("ok   " if ok else "FAIL ") + msg)
    if not ok:
        failures.append(msg)


def bench(*args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, "layerbench/run.py", *args, "--tiny"],
                          cwd=cwd, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def check_workloads(spec):
    for name in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = []
            for _ in range(1 + trace):
                proc, res = bench("--workload", name, "--seed", "5",
                                  "--seconds", "1", "--trace", str(trace))
                runs.append(res)
                expect(proc.returncode == 0 and res is not None
                       and res["correct"] and res["failed"] == 0,
                       f"{name} trace={trace}: correct run, exit 0"
                       + ("" if proc.returncode == 0 else f": {proc.stderr[-300:]}"))
            if None in runs:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: every {key} metric "
                                "printed with its unit")
            if trace:
                counts = {k for k, unit in want.items() if unit in COUNT_UNITS}
                same = all(runs[0]["metrics"][k]["value"]
                           == runs[1]["metrics"][k]["value"] for k in counts)
                expect(same, f"{name}: {len(counts)} counts repeat exactly")


def check_gate():
    sizes, sims = (20, 50), 20
    csv = OUT / "smoke-records.csv"
    subprocess.run([sys.executable, "-m", "invgamma", "benchmark",
                    "--sizes", "20,50", "--sims", str(sims), "--seed", "9",
                    "--out", str(csv)], env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    expect(not gate.check_records(csv, sizes, sims).errors,
           "gate passes the unmodified records")
    ref_path = OUT / "smoke-reference.csv.xz"
    gate.write_reference(csv, ref_path)
    reference = gate.load_reference(ref_path)
    expect(not gate.check_records(csv, sizes, sims, reference).errors,
           "gate passes the records against their own reference")

    header, rows = gate.read_records(csv)
    row = rows[7]  # N=20, sim=1, ML2
    bad = OUT / "smoke-perturbed.csv"

    def write(rows_out):
        bad.write_text("\n".join([header] + [",".join(r) for r in rows_out])
                       + "\n")

    alpha = float(row[5]) * (1 + 1e-6)
    write(rows[:7] + [row[:5] + [repr(alpha)] + row[6:]] + rows[8:])
    expect(bool(gate.check_records(bad, sizes, sims).errors),
           "gate fails a perturbed alpha_hat (invariants)")
    # Keep the KL and bias columns consistent, so only the reference can
    # catch it.
    import invgamma
    truth = invgamma.InvGammaParams(float(row[3]), float(row[4]))
    kl = invgamma.kl_divergence(
        truth, invgamma.InvGammaParams(alpha, float(row[6])))
    write(rows[:7] + [row[:5] + [repr(alpha), row[6], repr(kl),
                                 repr(alpha - truth.alpha)] + row[9:]]
          + rows[8:])
    errors = gate.check_records(bad, sizes, sims, reference).errors
    expect(bool(errors) and all("reference" in e for e in errors),
           "gate fails a perturbed alpha_hat (reference comparison)")

    want = gate.expected_pipe(4, 3000)
    expect(not gate.compare_pipe(dict(want), want), "pipe gate passes itself")
    for key, value in (("alpha", want["alpha"] * (1 + 1e-6)),
                       ("sha256", "0" * 64), ("iterations", want["iterations"] + 1)):
        expect(bool(gate.compare_pipe({**want, key: value}, want)),
               f"pipe gate fails a perturbed {key}")


def check_proxy():
    import invgamma
    for alpha in (0.5, 2.7, 10.0):
        p = invgamma.InvGammaParams(alpha, 3.0)
        counting = CountingRng(np.random.default_rng(17))
        proxied = invgamma.sample(p, 3000, counting)
        plain = invgamma.sample(p, 3000, np.random.default_rng(17))
        expect(np.array_equal(proxied, plain) and counting.pairs >= 3000,
               f"proxied sample stream equals the plain one (alpha={alpha})")


def check_bare_checkout():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "layerbench", bare / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SPEC, bare / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc, res = bench("--workload", "cli-pipe", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare, env=env)
    expect(proc.returncode != 0 and res is None,
           "without src/, run.py exits non-zero and prints no result")
    shutil.rmtree(bare)


def main():
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    spec = json.loads(SPEC.read_text())
    check_workloads(spec)
    check_gate()
    check_proxy()
    check_bare_checkout()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
