"""Reach check: every named function in ``src/balprice`` is entered by some
command-line job, or is on ``ALLOW`` with the reason it stays.

The jobs in ``JOBS`` run in process through ``balprice.cli.main``, in a
scratch directory, each with the exit code it must give.  ``sys.setprofile``
records the code objects entered (call events only, cheaper than
``settrace``); the hook is installed before ``balprice`` is imported, so
calls made at import count.  The functions checked are every named function
code object compiled from ``src/balprice/*.py``: nested ``def``s included,
lambdas, comprehensions and class bodies left out.  A function is matched by
(file, first line, name), since Python 3.10 has no ``co_qualname``, and named
in the output by its module and enclosing classes and functions.

Fails on a job that exits with another code than its own, on a function no
job enters that ``ALLOW`` does not list, and on an ``ALLOW`` entry that a job
enters or that names no function.  Prints each allow-listed function with
its reason.

Run from anywhere:  python3 ci/reach.py
"""

import contextlib
import glob
import importlib
import inspect
import io
import json
import os
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def functions(directory: str) -> dict:
    """(file, first line, name) -> dotted name of every named function
    compiled from ``directory/*.py``."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_NEWLOCALS:  # not a class body
                    found[(code_file(const), const.co_firstlineno, const.co_name)] = name
                walk(const, name)

    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            code = compile(fh.read(), path, "exec")
        walk(code, os.path.splitext(os.path.basename(path))[0])
    return found


def code_file(code) -> str:
    return os.path.realpath(code.co_filename)


def audit(load_main, jobs, directory: str, allow: dict) -> list:
    """Run ``jobs``, (exit code, argv) pairs, through the ``main`` that
    ``load_main()`` imports, with calls recorded from before the import;
    return one line per problem."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    problems = []
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        main = load_main()
        for code, argv in jobs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                try:
                    got = main(list(argv))
                except BaseException as exc:  # a traceback is a failed job too
                    got = f"{type(exc).__name__}: {exc}"
            if got != code:
                shown = " ".join(argv)
                problems.append(f"job {shown!r} gave {got!r}, not {code}:\n{out.getvalue()}")
    finally:
        sys.setprofile(previous)

    reached = {(code_file(c), c.co_firstlineno, c.co_name) for c in entered}
    names = functions(directory)
    unreached = {name for key, name in names.items() if key not in reached}
    for name in sorted(unreached - set(allow)):
        problems.append(f"no job enters {name}: give it a job, an ALLOW reason, or delete it")
    for name in sorted(set(allow) - unreached):
        why = "a job enters it" if name in names.values() else "no such function"
        problems.append(f"stale ALLOW entry {name}: {why}")
    return problems


def _two_point_matroid() -> dict:
    """A uniform rank-3 matroid on 6 elements, one per agent, each agent
    drawing a high or a low value on the 1/8 grid, as the benchmark's
    two-point matroids are built: 64 support profiles, so the matroid
    support form prices the scaled rule's misses."""
    rows = ((12, 1, 3), (9, 0, 5), (16, 2, 1), (5, 3, 6), (8, 1, 4), (14, 0, 7))
    supports = []
    for i, (hi, lo, p) in enumerate(rows):
        atom = lambda v: {"kind": "additive", "values": [v / 8 * (e == i) for e in range(6)]}
        supports.append([{"valuation": atom(hi), "prob": p / 8},
                         {"valuation": atom(lo), "prob": 1 - p / 8}])
    return {
        "environment": {"kind": "matroid", "agents": 6, "elements": [[e] for e in range(6)],
                        "matroid": {"kind": "uniform", "rank": 3, "ground": 6}},
        "agents": [atoms[0]["valuation"] for atoms in supports],
        "distribution": supports,
    }


def _table(value: float) -> dict:
    return {"kind": "table", "entries": [{"outcome": 1, "value": value}]}


# hand-written instances, for what no catalog document holds
INSTANCES = {
    # an explicit downward-closed list over three binary agents, valued by tables
    "explicit.json": {
        "environment": {"kind": "explicit", "agents": 3, "outcomes": [[0, 1]] * 3,
                        "feasible": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]},
        "agents": [_table(2.0), _table(1.5), _table(1.0)],
    },
    # two agents owning two elements each of a uniform rank-3 matroid, with
    # XOS valuations: the matroid greedy over several elements per agent
    "xos-matroid.json": {
        "environment": {"kind": "matroid", "agents": 2, "elements": [[0, 1], [2, 3]],
                        "matroid": {"kind": "uniform", "rank": 3, "ground": 4}},
        "agents": [{"kind": "xos", "clauses": [[1.0, 0.5, 0.0, 0.0], [0.25, 1.5, 0.0, 0.0]]},
                   {"kind": "xos", "clauses": [[0.0, 0.0, 2.0, 0.5], [0.0, 0.0, 0.5, 1.0]]}],
    },
    "two-point-matroid.json": _two_point_matroid(),
}

# (exit code, argv): the catalog documents first, then the jobs on them
JOBS = [(code, tuple(line.split())) for code, line in (
    (0, "catalog two-point --n 6 --seed 1 -o tp6.json"),
    (0, "catalog tight-prophet -o tight.json"),
    (0, "catalog matroid --kind uniform --rank 1 --ground 3 --seed 1 -o u13.json"),
    (0, "catalog matroid --kind uniform --rank 2 --ground 4 --seed 1 -o u24.json"),
    (0, "catalog matroid --kind partition --ground 5 --seed 1 -o partition.json"),
    (0, "catalog matroid --kind graphic_k4 --seed 1 -o k4.json"),
    (0, "catalog knapsack --n 3 --seed 1 -o knapsack.json"),
    (0, "catalog knapsack-mixed --n 3 --seed 1 -o knapsack-mixed.json"),
    (0, "catalog pip --n 3 --seed 1 -o pip.json"),
    (0, "catalog xos --n 3 --m 3 --seed 1 -o xos.json"),
    (0, "catalog mph --n 3 --m 3 --seed 1 -o mph.json"),
    (0, "catalog footnote-lb -o footnote.json"),
    (0, "catalog triangle -o triangle.json"),
    (0, "catalog no-price -o no-price.json"),
    (0, "catalog product-single-items --seed 1 -o product.json"),
    # the stochastic ratio path: every order kind, tie policy and support form
    (0, "ratio --instance tp6.json --pricing single-item --exact"),
    (0, "ratio --instance tp6.json --pricing single-item --exact --order adversary"),
    (0, "ratio --instance tp6.json --pricing single-item --trials 20 --order random"),
    (0, "simulate --instance tp6.json --pricing single-item --order adversary"),
    (0, "ratio --instance tight.json --pricing single-item --exact --order all --tie null"),
    (0, "ratio --instance tight.json --pricing single-item --exact --order 2,1 --tie buy"),
    (0, "ratio --instance tight.json --pricing single-item --trials 20 --tie null"),
    (0, "simulate --instance tight.json --pricing single-item --order all"),
    (0, "simulate --instance tight.json --pricing single-item"),
    (0, "ratio --instance two-point-matroid.json --pricing matroid --exact"),
    (0, "ratio --instance two-point-matroid.json --pricing matroid --exact --order adversary"),
    (0, "ratio --instance xos-matroid.json --pricing compose-max --trials 20 --order random"),
    (0, "ratio --instance mph.json --pricing mph --exact"),
    (0, "ratio --instance mph.json --pricing fractional-ca --exact --order all"),
    (0, "ratio --instance mph.json --pricing intro-bundle --exact"),
    (0, "ratio --instance u13.json --pricing alg2-opt --exact --order adversary"),
    (0, "simulate --instance knapsack.json --pricing knapsack --order all"),
    (0, "simulate --instance pip.json --pricing warmup"),
    # certification: each construction, all orders and declared orders
    (0, "balance --instance tight.json --pricing single-item"),
    (0, "balance --instance u13.json --pricing alg1-greedy"),
    (0, "balance --instance u24.json --pricing warmup --order all"),
    (0, "balance --instance u24.json --pricing matroid --order all"),
    (0, "balance --instance partition.json --pricing matroid"),
    (0, "balance --instance xos-matroid.json --pricing matroid"),
    (0, "balance --instance knapsack.json --pricing knapsack"),
    (0, "balance --instance knapsack-mixed.json --pricing knapsack"),
    (0, "balance --instance xos.json --pricing xos"),
    (0, "balance --instance footnote.json --pricing intro-bundle"),
    (0, "balance --instance triangle.json --pricing fractional-ca"),
    (0, "balance --instance product.json --pricing compose-add --order all"),
    (0, "balance --instance explicit.json --pricing alg1-greedy --beta1 0.5 --beta2 0.5"),
    (0, "balance --instance explicit.json --pricing warmup"),
    (1, "balance --instance pip.json --pricing pip --beta 0.25"),
    (1, "balance --instance k4.json --pricing compose-max --beta 0.25"),
    (1, "balance --instance u24.json --pricing matroid --order 4,3,2,1 --beta 0.25"),
    (0, "permeability --instance u24.json --rule opt"),
    (0, "permeability --instance explicit.json --rule greedy"),
    # refusals: bad input exits 2, an exceeded cap 3
    (2, "permeability --instance knapsack-mixed.json --rule greedy"),
    (2, "ratio --instance tp6.json --pricing single-item --exact --order random"),
    (2, "balance --instance xos.json --pricing matroid"),
    (2, "balance --instance no-price.json --pricing warmup"),
    (2, "balance --instance missing.json --pricing matroid"),
    (3, "balance --instance u24.json --pricing matroid --cap-feasible 3"),
)]

_SELECTOR = ("the library form of the paper's unrestricted-knapsack result, the better of "
             "the scaled per-unit prices and one whole-unit price; no construction runs it")
_TRACED = "bench/tracer.py wraps it by name, so it stays while the benchmark reads it"

# functions no job enters, each with the reason it stays
ALLOW = {
    "mechanism.two_mechanism_selector": _SELECTOR,
    "mechanism.whole_unit_prices": _SELECTOR,
    "mechanism.whole_unit_prices.finite": _SELECTOR,
    "mechanism._restricted_expected_reference_welfare": _SELECTOR,
    "oracle.ExchangeFamily.members": _TRACED + "; the certifier walk reads members by position",
    "pricing.scaled_prices": _TRACED,
    "pricing.scaled_prices.finite": _TRACED,
    "balance.minimal_beta": "the tightest beta a walk certifies; ROADMAP item 15 gives it a job",
    "serialize.dump_instance_file": "bench/workloads.py writes its pool instances with it",
    "balance._OrderSums.extremal": "the DP's value by allocation, which the DP tests and twins "
                                   "read; the certifier walk calls extremal_at by position",
    "core.EnvironmentBase.agent_outcomes": "the environment interface; every kind overrides it",
    "core.EnvironmentBase.is_feasible": "the environment interface; every kind overrides it",
    "core.Unavailable.__repr__": "names the sentinel in a failed comparison's message; no "
                                 "report holds it",
    "core._fields_state": "pickling or copying an environment or matroid drops its derived "
                          "facts and hash, which may differ in another process; no job pickles",
    "oracle.FractionalSolution.integral_allocation": "the fractional_lp allocation rule reads "
                                                     "an integral LP optimum; no construction "
                                                     "builds that rule",
    "pricing.MonotonicityError.__init__": "raised when a rule's critical values fall along a "
                                          "chain; the warmup construction's rule is OPT, "
                                          "which is monotone",
}


def _load_main():
    sys.path.insert(0, SRC)
    return importlib.import_module("balprice.cli").main


def main() -> int:
    start = time.perf_counter()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, doc in INSTANCES.items():
                with open(name, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            problems = audit(_load_main, JOBS, os.path.join(SRC, "balprice"), ALLOW)
        finally:
            os.chdir(home)
    for name, why in sorted(ALLOW.items()):
        print(f"allowed  {name}: {why}")
    for line in problems:
        print(line)
    print(f"{len(JOBS)} jobs, {len(problems)} problems, {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
