"""The feasible lists against the filtered cartesian product, at sizes beyond
the hypothesis test.

The DFS of ``enumerate_feasible`` carries each kind's partial state; it must
list exactly what ``is_feasible`` keeps of the whole product, in the same
order and with the same tokens, on catalog pip n = 14 and knapsack n = 6.

Run from the repository root:  python3 ci/feasible_lists.py
"""

import itertools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from balprice.catalog import gen_knapsack_random, gen_pip_random  # noqa: E402
from balprice.core import _token_key, enumerate_feasible  # noqa: E402


def main() -> int:
    for name, env in (("pip n=14", gen_pip_random(n=14).env), ("knapsack n=6", gen_knapsack_random(n=6).env)):
        spaces = [sorted(env.agent_outcomes(i), key=_token_key) for i in range(env.n)]
        want = tuple(a for a in itertools.product(*spaces) if env.is_feasible(a))
        if repr(enumerate_feasible(env)) != repr(want):
            print(f"{name}: enumerate_feasible differs from the filtered cartesian product", file=sys.stderr)
            return 1
        print(f"{name}: {len(want)} feasible allocations match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
