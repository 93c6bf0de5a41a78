"""The certifier's all-orders memo against the full-width DP, at sizes beyond
the hypothesis test.

``balance`` keeps one DP memo per walk over (conditioning prefix, priced
outcomes) pairs; the twin in ``tests/helpers.py`` runs one subset DP per sum,
asking each term of the pricing rule.  With dynamic matroid prices under
``--order all``, both must give the same report, every witness order
included, on a uniform matroid of rank 5 and ground 11, a partition matroid
of ground 9, and four agents owning two elements each of a rank-4 uniform
matroid on 8 elements, where an exchange member can give an agent of x's
support another non-null outcome, at beta 1 and 0.25.

Run from the repository root:  python3 ci/all_orders_layers.py
"""

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from balprice.balance import _OrderSums, check_balanced  # noqa: E402
from balprice.catalog import gen_matroid  # noqa: E402
from balprice.core import Matroid, MatroidEnv  # noqa: E402
from balprice.oracle import default_family, opt  # noqa: E402
from balprice.pricing import BalanceParams, matroid_dynamic_prices  # noqa: E402

from helpers import extremal_twin, multi_element_profile, witness_twin  # noqa: E402


def multi_element_case():
    env = MatroidEnv(
        n=4, matroid=Matroid.uniform(4, 8), elements=((0, 1), (2, 3), (4, 5), (6, 7))
    )
    rng = random.Random(1)
    return env, multi_element_profile(env, [round(rng.uniform(0.0, 10.0), 3) for _ in range(8)])


def report(env, profile, beta):
    rule = matroid_dynamic_prices(env, profile)
    out = check_balanced(
        env, profile, rule, opt(env, profile), default_family(env),
        BalanceParams(alpha=1.0, beta=beta), order_mode="all",
    )
    got = repr((out.as_dict(), out.witnesses, out.structural_violations, out.max_b_ratio))
    return got, out.passed, len(out.witnesses)


def main() -> int:
    memo = (_OrderSums.extremal, _OrderSums.witness)
    uniform = gen_matroid("uniform", seed=1, rank=5, ground=11)
    partition = gen_matroid("partition", seed=1, ground=9)
    for name, (env, profile) in (
        ("uniform rank 5 ground 11", (uniform.env, uniform.profile)),
        ("partition ground 9", (partition.env, partition.profile)),
        ("two elements per agent, uniform rank 4 ground 8", multi_element_case()),
    ):
        for beta in (1.0, 0.25):
            got, passed, witnesses = report(env, profile, beta)
            _OrderSums.extremal, _OrderSums.witness = extremal_twin, witness_twin
            try:
                want, _, _ = report(env, profile, beta)
            finally:
                _OrderSums.extremal, _OrderSums.witness = memo
            if got != want:
                print(f"{name}, beta {beta}: the memo's report differs from the full-width DP", file=sys.stderr)
                return 1
            verdict = "PASS" if passed else "FAIL"
            print(f"{name}, beta {beta}: {verdict}, {witnesses} witnesses, reports match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
