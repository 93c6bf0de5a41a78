"""The benchmark's outputs against ``bench/golden``:

- one seed's batches of every workload, untraced: ``bench/run.py`` exits 0
  even when a job's output differs, so its last line's verdicts are read;
- every entry of every workload pool, replayed by ``--record-golden`` and
  compared with ``git diff``; the golden files are then put back as they
  were, so a failing replay leaves no change behind;
- one traced ``ratio-stochastic`` run.  The tracer wraps expected_opt,
  OnlinePostedPriceRunner.run and .expected_welfare, PricingRule.price and
  .menu, and reads each rule's _cache, so renaming one of them fails it.

Run from anywhere:  python3 ci/bench_checks.py
"""

import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "bench", "run.py")]


def last_json(*args):
    """Run ``bench/run.py args``, echo its output and return its last line's JSON."""
    done = subprocess.run([*RUN, *args], cwd=ROOT, capture_output=True, text=True)
    print(done.stdout + done.stderr, end="")
    if done.returncode:
        sys.exit(f"bench/run.py {' '.join(args)} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    results = last_json("--workload", "all", "--seed", "1", "--seconds", "1", "--trace", "0")
    wrong = sorted(name for name, r in results.items() if not r["correct"])
    if wrong:
        sys.exit(f"outputs differ from bench/golden on: {wrong}")

    golden = {}
    for path in glob.glob(os.path.join(ROOT, "bench", "golden", "*.json")):
        with open(path, "rb") as fh:
            golden[path] = fh.read()
    try:
        subprocess.run([*RUN, "--record-golden"], cwd=ROOT, check=True)
        diff = subprocess.run(["git", "diff", "--exit-code", "--", "bench/golden"], cwd=ROOT)
    finally:
        for path, data in golden.items():
            with open(path, "wb") as fh:
                fh.write(data)
    if diff.returncode:
        sys.exit("a pool entry's output differs from bench/golden")

    traced = last_json("--workload", "ratio-stochastic", "--seed", "1", "--seconds", "1", "--trace", "1")
    if traced.get("correct") is not True:
        sys.exit("traced ratio-stochastic outputs differ from bench/golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())
