"""The static certifier walk against its per-allocation twin on instances
larger than the hypothesis tests draw.

``balance._check`` sums a static rule's terms once per listed allocation in
one column and scores each exchange set by its largest entry;
``helpers.per_x_static_check`` prices every member of every exchange set
afresh.  Their reports, witnesses, structural violations and largest
condition-(b) ratio must agree by ``repr`` on xos and mph item prices with
4 agents and 4 items, packing prices with n = 10, knapsack prices with
n = 5, added single-item prices on a product of 3 markets with 4 agents, and
whole-unit knapsack prices with 5 agents.  Each case runs at one parameter
set that passes and one that fails.  Whole-unit prices leave every partial
quantity off the menu, so they fail on the catalog knapsack, whose outcomes
stop at half the unit; they pass on a knapsack with a step of one unit,
priced at the reference welfare.

Run from the repository root:  python3 ci/static_twin.py
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from balprice.balance import check_balanced, check_weakly_balanced  # noqa: E402
from balprice.catalog import (  # noqa: E402
    gen_knapsack_random,
    gen_mph_random,
    gen_pip_random,
    gen_product_single_items,
    gen_xos_random,
)
from balprice.core import KnapsackEnv, welfare  # noqa: E402
from balprice.mechanism import whole_unit_prices  # noqa: E402
from balprice.oracle import default_family, knapsack_dp, opt  # noqa: E402
from balprice.pricing import (  # noqa: E402
    BalanceParams,
    compose_add,
    knapsack_prices,
    mphk_item_prices,
    pip_prices,
    single_item_prices,
    xos_item_prices,
)

from helpers import per_x_static_check  # noqa: E402

SEED = 1


def strong(alpha, beta):
    return BalanceParams(alpha=alpha, beta=beta)


def weak(alpha, beta1, beta2):
    return BalanceParams(alpha=alpha, beta1=beta1, beta2=beta2)


def item_case(gen, construct):
    inst = gen(n=4, m=4, seed=SEED)
    alloc = opt(inst.env, inst.profile)
    return inst.env, inst.profile, construct(inst.env, inst.profile, alloc), alloc


def pip_case():
    inst = gen_pip_random(n=10, seed=SEED)
    alloc = opt(inst.env, inst.profile)
    return inst.env, inst.profile, pip_prices(inst.env, inst.profile, alloc), alloc


def knapsack_case():
    inst = gen_knapsack_random(n=5, seed=SEED)
    alloc = knapsack_dp(inst.env, inst.profile)
    return inst.env, inst.profile, knapsack_prices(inst.env, inst.profile, welfare(inst.profile, alloc)), alloc


def product_case():
    inst = gen_product_single_items(n=4, markets=3, seed=SEED)
    env, profile = inst.env, inst.profile
    rules = [
        single_item_prices(market, tuple(v.parts[ell] for v in profile))
        for ell, market in enumerate(env.markets)
    ]
    return env, profile, compose_add(env, rules), opt(env, profile)


def whole_unit_case(unit_step):
    inst = gen_knapsack_random(n=5, seed=SEED)
    env, profile = (KnapsackEnv(n=5, step=1.0) if unit_step else inst.env), inst.profile
    alloc = knapsack_dp(env, profile)
    return env, profile, whole_unit_prices(env, welfare(profile, alloc)), alloc


def cases():
    """(name, case, [(params, passes?), ...])"""
    yield "xos 4 agents x 4 items", item_case(gen_xos_random, xos_item_prices), [
        (strong(1.0, 1.0), True), (strong(1.0, 0.5), False),
    ]
    yield "mph 4 agents x 4 items", item_case(gen_mph_random, mphk_item_prices), [
        (weak(1.0, 1.0, 1.0), True), (strong(1.0, 0.5), False),
    ]
    yield "pip n = 10", pip_case(), [(weak(2.0, 0.0, 2.0), True), (strong(1.0, 1.0), False)]
    yield "knapsack n = 5", knapsack_case(), [(strong(2.0, 1.0), True), (strong(1.0, 2.0), False)]
    yield "compose-add, 3 single-item markets x 4 agents", product_case(), [
        (strong(1.0, 1.0), True), (strong(1.0, 0.5), False),
    ]
    yield "whole-unit knapsack n = 5, step 1", whole_unit_case(True), [(strong(1.0, 1.0), True)]
    yield "whole-unit knapsack n = 5, catalog step", whole_unit_case(False), [
        (strong(1.0, 1.0), False),
    ]


def fields(report):
    return repr((report.as_dict(), report.witnesses, report.structural_violations, report.max_b_ratio))


def main() -> int:
    wrong = []
    for name, (env, profile, rule, alloc), runs in cases():
        assert rule.static, name
        family = default_family(env)
        for params, passes in runs:
            check = check_weakly_balanced if params.weak else check_balanced
            report = check(env, profile, rule, alloc, family, params)
            twin = per_x_static_check(env, profile, rule, alloc, family, params)
            shown = f"{name}, {params}"
            verdict = "PASS" if report.passed else "FAIL"
            print(
                f"{shown}: {verdict}, {len(report.witnesses)} witnesses, "
                f"{len(report.structural_violations)} structural violations"
            )
            if fields(report) != fields(twin):
                wrong.append(f"{shown}: the report differs from the twin's")
            if report.passed != passes:
                wrong.append(f"{shown}: {verdict}, expected {'PASS' if passes else 'FAIL'}")
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
