"""The certifier's all-orders layers against the full-width DP, at sizes
beyond the hypothesis test.

``balance`` shares DP layers across an exchange set; the twin in
``tests/helpers.py`` runs one subset DP per sum.  With dynamic matroid prices
under ``--order all``, both must give the same report, every witness order
included, on a uniform matroid of rank 5 and ground 11 and a partition
matroid of ground 9, at beta 1 and 0.25.

Run from the repository root:  python3 ci/all_orders_layers.py
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from balprice.balance import _PriceSums, check_balanced  # noqa: E402
from balprice.catalog import gen_matroid  # noqa: E402
from balprice.oracle import default_family, opt  # noqa: E402
from balprice.pricing import BalanceParams, matroid_dynamic_prices  # noqa: E402

from helpers import extremal_twin, witness_twin  # noqa: E402


def report(inst, beta):
    env, profile = inst.env, inst.profile
    rule = matroid_dynamic_prices(env, profile)
    out = check_balanced(
        env, profile, rule, opt(env, profile), default_family(env),
        BalanceParams(alpha=1.0, beta=beta), order_mode="all",
    )
    return repr((out.as_dict(), out.witnesses, out.max_b_ratio)), out.passed, len(out.witnesses)


def main() -> int:
    layered = (_PriceSums.extremal, _PriceSums.witness)
    for name, inst in (
        ("uniform rank 5 ground 11", gen_matroid("uniform", seed=1, rank=5, ground=11)),
        ("partition ground 9", gen_matroid("partition", seed=1, ground=9)),
    ):
        for beta in (1.0, 0.25):
            got, passed, witnesses = report(inst, beta)
            _PriceSums.extremal, _PriceSums.witness = extremal_twin, witness_twin
            want, _, _ = report(inst, beta)
            _PriceSums.extremal, _PriceSums.witness = layered
            if got != want:
                print(f"{name}, beta {beta}: the layered report differs from the full-width DP", file=sys.stderr)
                return 1
            verdict = "PASS" if passed else "FAIL"
            print(f"{name}, beta {beta}: {verdict}, {witnesses} witnesses, reports match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
