"""The command-line contract, run on the source tree in a scratch directory:

- exit codes: 0 on success, 2 for bad input (permeability on a non-binary
  environment, an unbounded grid entry, a seed outside [0, 2^64), a
  directory as the instance or output path, refused before the job prints
  anything) with a one-line error, and 1 for an all-orders FAIL, whose
  first witness holds a full order, and for a declared-order FAIL, whose
  first witness holds the declared order;
- alg2-opt's default parameters on six interchangeable agents, which come
  from the permeability scan, one bid vector per orbit;
- seed 2^64 - 1, the top of the Philox key range, runs, and two runs write
  the same rows.

Each command is one ``balprice`` process; the check stops at the first
failure.  Run from anywhere:  python3 ci/cli_checks.py
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BALPRICE = [sys.executable, "-c", "import sys; from balprice.cli import main; sys.exit(main())"]


def balprice(tmp, *args):
    """Run ``balprice args`` in ``tmp``; return the finished process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([*BALPRICE, *args], cwd=tmp, env=env, capture_output=True, text=True)
    print(done.stdout + done.stderr, end="")
    return done


def ok(tmp, *args):
    done = balprice(tmp, *args)
    if done.returncode:
        sys.exit(f"balprice {' '.join(args)} exited {done.returncode}, expected 0")
    return done


def exit_codes(tmp):
    ok(tmp, "catalog", "tight-prophet", "--q", "0.01", "-o", "t.json")
    ok(tmp, "balance", "--instance", "t.json", "--pricing", "single-item")
    ok(tmp, "ratio", "--instance", "t.json", "--pricing", "single-item", "--exact")
    # permeability on a non-binary environment is an input error: exit 2, not a traceback
    ok(tmp, "catalog", "triangle", "-o", "triangle.json")
    code = balprice(tmp, "permeability", "--instance", "triangle.json").returncode
    if code != 2:
        sys.exit(f"permeability on a non-binary environment exited {code}, expected 2")
    # an unbounded grid entry is an input error too
    ok(tmp, "catalog", "matroid", "--kind", "uniform", "--rank", "2", "--ground", "4", "-o", "uniform.json")
    code = balprice(tmp, "permeability", "--instance", "uniform.json", "--grid", "0,nan").returncode
    if code != 2:
        sys.exit(f"permeability --grid 0,nan exited {code}, expected 2")
    # a seed outside [0, 2^64) is an input error too, not reduced onto another seed's stream
    done = balprice(tmp, "ratio", "--instance", "t.json", "--pricing", "single-item", "--trials", "50",
                    "--seed", "-1")
    if done.returncode != 2 or len(done.stderr.splitlines()) != 1:
        sys.exit(f"ratio --seed -1 exited {done.returncode}, expected 2 with one line")
    # a directory given as the instance or the output path is an input error
    # too, refused before the job runs, so nothing reaches stdout
    os.mkdir(os.path.join(tmp, "dir"))
    for flags in (("--instance", "dir"), ("--instance", "t.json", "-o", "dir")):
        done = balprice(tmp, "balance", "--pricing", "single-item", *flags)
        if done.returncode != 2 or done.stdout or not done.stderr.splitlines()[-1].startswith("error: "):
            sys.exit(f"balance {' '.join(flags)} exited {done.returncode}, expected 2 with an error line "
                     f"and no output")
    # an all-orders FAIL exits 1 and records a full witness order
    ok(tmp, "catalog", "matroid", "--kind", "uniform", "--rank", "3", "--ground", "6", "--seed", "1",
       "-o", "u6.json")
    code = balprice(tmp, "balance", "--instance", "u6.json", "--pricing", "matroid", "--order", "all",
                    "--beta", "0.25", "-o", "fail.json").returncode
    if code != 1:
        sys.exit(f"balance --order all --beta 0.25 exited {code}, expected 1")
    with open(os.path.join(tmp, "fail.json")) as fh:
        order = json.load(fh)["result"]["witnesses"][0][5]
    if sorted(order) != list(range(6)):
        sys.exit(f"witness order {order} is not a permutation of range(6)")
    # a declared-order FAIL exits 1 too, and its witnesses carry the declared order, 0-based
    code = balprice(tmp, "balance", "--instance", "u6.json", "--pricing", "matroid", "--order",
                    "6,5,4,3,2,1", "--beta", "0.25", "-o", "declared.json").returncode
    if code != 1:
        sys.exit(f"balance --order 6,5,4,3,2,1 --beta 0.25 exited {code}, expected 1")
    with open(os.path.join(tmp, "declared.json")) as fh:
        result = json.load(fh)["result"]
    if result["order_mode"] != "declared":
        sys.exit(f"declared order_mode {result['order_mode']!r}, expected 'declared'")
    order = result["witnesses"][0][5]
    if order != [5, 4, 3, 2, 1, 0]:
        sys.exit(f"declared witness order {order}, expected [5, 4, 3, 2, 1, 0]")


def alg2_opt_defaults(tmp):
    ok(tmp, "catalog", "matroid", "--kind", "uniform", "--rank", "3", "--ground", "6", "--seed", "1",
       "-o", "u36.json")
    done = balprice(tmp, "balance", "--instance", "u36.json", "--pricing", "alg2-opt", "-o", "alg2.json")
    if done.returncode != 0 or not any(
        line.startswith("PASS alg2-opt (1,0,1) ") for line in done.stdout.splitlines()
    ):
        sys.exit(f"balance --pricing alg2-opt exited {done.returncode}, expected 0 with PASS (1,0,1)")
    with open(os.path.join(tmp, "alg2.json")) as fh:
        params = json.load(fh)["result"]["params"]
    want = {"alpha": 1.0, "beta": None, "beta1": 0.0, "beta2": 1.0}
    if params != want:
        sys.exit(f"alg2-opt params {params}, expected {want}")


def largest_seed(tmp):
    ok(tmp, "catalog", "tight-prophet", "--q", "0.01", "-o", "top.json")
    for run in (1, 2):
        code = balprice(tmp, "ratio", "--instance", "top.json", "--pricing", "single-item", "--trials", "50",
                        "--seed", "18446744073709551615", "-o", f"top{run}.csv").returncode
        if code != 0:
            sys.exit(f"ratio --seed 18446744073709551615 (run {run}) exited {code}, expected 0")
    if not filecmp.cmp(os.path.join(tmp, "top1.csv"), os.path.join(tmp, "top2.csv"), shallow=False):
        sys.exit("top1.csv and top2.csv differ")


def main() -> int:
    for check in (exit_codes, alg2_opt_defaults, largest_seed):
        with tempfile.TemporaryDirectory() as tmp:
            check(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
