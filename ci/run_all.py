"""Run the tier-1 tests and every other script in ci/, offline, one after
another, and print one pass/fail line per step; a failing step's output
follows its line.  Exits 1 if any step fails.

Run from anywhere:  python3 ci/run_all.py
"""

import glob
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def steps():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    yield "tier-1 tests", [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"], env
    for script in sorted(glob.glob(os.path.join(ROOT, "ci", "*.py"))):
        if os.path.basename(script) != os.path.basename(__file__):
            yield f"ci/{os.path.basename(script)}", [sys.executable, script], None


def main() -> int:
    failed = 0
    for name, argv, env in steps():
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        verdict = "PASS" if done.returncode == 0 else "FAIL"
        print(f"{verdict}  {name}  ({time.perf_counter() - start:.1f} s)", flush=True)
        if done.returncode:
            failed += 1
            print(done.stdout + done.stderr, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
