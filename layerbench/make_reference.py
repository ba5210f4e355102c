#!/usr/bin/env python3
"""Regenerate the stored references of the correctness gate from the
current code, at the reference seed:

    python3 layerbench/make_reference.py

Do this only for a change that is meant to move the outputs beyond the
gate's tolerances, and say why in that change.
"""

import json
import subprocess
import sys

import gate
from run import OUT, REFERENCE, ROOT, SRC, WORKLOADS, child_env


def main():
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    seed = gate.REFERENCE_SEED
    for w in WORKLOADS.values():
        path = REFERENCE / f"{w.name}-seed{seed}"
        if w.is_pipe:
            with open(f"{path}.json", "w") as fh:
                json.dump(gate.expected_pipe(seed, w.n), fh, indent=1)
                fh.write("\n")
            continue
        csv = OUT / f"reference-{w.name}.csv"
        subprocess.run([sys.executable, "-m", "invgamma", "benchmark", *w.args,
                        "--seed", str(seed), "--out", str(csv)],
                       env=child_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        gate.write_reference(csv, f"{path}.csv.xz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
