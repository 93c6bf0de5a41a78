"""One feasible list per balance job: exchange members filtered from it, OPT
taken over it.

Each fast path is checked against its brute-force twin, which stays here:
the pruned member DFS of an unbound ``ExchangeFamily`` and a certifier walk
that never binds its family.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balprice.core
from balprice.balance import check_balanced, check_weakly_balanced
from balprice.catalog import (
    gen_knapsack_mixed,
    gen_knapsack_random,
    gen_matroid,
    gen_mph_random,
    gen_pip_random,
    gen_product_single_items,
    gen_two_point_single_item,
    gen_xos_random,
)
from balprice.cli import main
from balprice.core import (
    CombinatorialAuctionEnv,
    Matroid,
    MatroidEnv,
    SingleItemEnv,
    enumerate_feasible,
    welfare,
)
from balprice.oracle import ExchangeFamily, default_family, knapsack_dp, opt
from balprice.pricing import (
    BalanceParams,
    knapsack_prices,
    matroid_dynamic_prices,
    mphk_item_prices,
    pip_prices,
    single_item_prices,
    xos_item_prices,
)

SEEDS = st.integers(min_value=0, max_value=10_000)


def multi_element_matroid():
    """Three agents owning two elements each of a rank-3 uniform matroid, so
    tokens are masks with more than one bit."""
    return MatroidEnv(n=3, matroid=Matroid.uniform(3, 6), elements=((0, 1), (2, 3), (4, 5)))


# catalog environments of every kind a family binds on, plus a product and a
# multi-element matroid
ENVS = st.one_of(
    st.builds(lambda r, g, s: gen_matroid("uniform", seed=s, rank=min(r, g), ground=g).env,
              st.integers(1, 4), st.integers(1, 6), SEEDS),
    st.builds(lambda g, s: gen_matroid("partition", seed=s, ground=g).env,
              st.integers(2, 6), SEEDS),
    st.builds(lambda s: gen_matroid("graphic_k4", seed=s).env, SEEDS),
    st.just(multi_element_matroid()),
    st.builds(lambda n, m, s: gen_xos_random(n=n, m=m, seed=s).env,
              st.integers(1, 4), st.integers(1, 3), SEEDS),
    st.builds(lambda n, s: gen_pip_random(n=n, seed=s).env, st.integers(1, 6), SEEDS),
    st.builds(lambda n, s: gen_knapsack_random(n=n, seed=s).env, st.integers(1, 4), SEEDS),
    st.builds(lambda n, s: gen_knapsack_mixed(n=n, seed=s).env, st.integers(1, 3), SEEDS),
    st.builds(lambda n: SingleItemEnv(n=n), st.integers(1, 6)),
    st.builds(lambda n, s: gen_product_single_items(n=n, seed=s).env, st.integers(1, 3), SEEDS),
)


def family_kinds(env):
    """Every exchange-family kind that applies to ``env``."""
    kinds = ["canonical_contraction", default_family(env).kind]
    if isinstance(env, (MatroidEnv, CombinatorialAuctionEnv, SingleItemEnv)):
        kinds.append("item_disjoint")
    return sorted(set(kinds))


def family_of(kind, env):
    if kind == "product":
        return default_family(env)
    return ExchangeFamily(kind, env)


class TestBoundMembers:
    @given(ENVS)
    @settings(max_examples=80, deadline=None)
    def test_bound_members_equal_dfs_members(self, env):
        feasible = enumerate_feasible(env)
        for kind in family_kinds(env):
            family = family_of(kind, env)
            bound = family.over(feasible)
            assert bound == family and hash(bound) == hash(family)
            for x in feasible:
                assert bound.members(x) == family.members(x)

    @pytest.mark.parametrize(
        "env,kind",
        [
            (gen_matroid("uniform", seed=3, rank=2, ground=5).env, "item_disjoint"),
            (gen_matroid("partition", seed=3, ground=5).env, "canonical_contraction"),
            (multi_element_matroid(), "item_disjoint"),
            (gen_xos_random(n=3, m=3, seed=1).env, "item_disjoint"),
            (gen_pip_random(n=5, seed=2).env, "pip_threshold"),
            (gen_knapsack_random(n=3, seed=4).env, "knapsack_threshold"),
            (SingleItemEnv(n=4), "single_item_gate"),
        ],
    )
    def test_bound_members_run_no_dfs(self, monkeypatch, env, kind):
        feasible = enumerate_feasible(env)
        bound = ExchangeFamily(kind, env).over(feasible)

        def no_dfs(*args, **kwargs):
            raise AssertionError("bound members ran the DFS")

        monkeypatch.setattr("balprice.oracle.enumerate_feasible", no_dfs)
        assert sum(len(bound.members(x)) for x in feasible) > len(feasible)

    def test_products_keep_the_dfs(self):
        env = gen_product_single_items(n=2, seed=0).env
        family = default_family(env)
        assert family.over(enumerate_feasible(env)) is family


# ---------------------------------------------------------------------------
# The certifier with and without a list, and with no binding at all
# ---------------------------------------------------------------------------


def _case(kind, n, seed):
    """(env, profile, rule, reference allocation, params, order mode) for a
    catalog instance under the construction the CLI certifies it with."""
    strong = BalanceParams(alpha=1.0, beta=1.0)
    if kind == "matroid":
        inst = gen_matroid("uniform", seed=seed, rank=max(1, n // 2), ground=n)
        rule = matroid_dynamic_prices(inst.env, inst.profile)
        return inst.env, inst.profile, rule, opt(inst.env, inst.profile), strong, "all"
    if kind == "knapsack":
        inst = gen_knapsack_random(n=n, seed=seed)
        alloc = knapsack_dp(inst.env, inst.profile)
        rule = knapsack_prices(inst.env, inst.profile, welfare(inst.profile, alloc))
        return inst.env, inst.profile, rule, alloc, BalanceParams(alpha=2.0, beta=1.0), "all"
    if kind == "single-item":
        inst = gen_two_point_single_item(n=n, seed=seed)
        rule = single_item_prices(inst.env, inst.profile)
        return inst.env, inst.profile, rule, opt(inst.env, inst.profile), strong, "all"
    gen, construct, params = {
        "xos": (gen_xos_random, xos_item_prices, strong),
        "mph": (gen_mph_random, mphk_item_prices, BalanceParams(alpha=1.0, beta1=1.0, beta2=1.0)),
        "pip": (gen_pip_random, pip_prices, BalanceParams(alpha=2.0, beta1=0.0, beta2=2.0)),
    }[kind]
    inst = gen(n=n, seed=seed)
    alloc = opt(inst.env, inst.profile)
    rule = construct(inst.env, inst.profile, alloc)
    return inst.env, inst.profile, rule, alloc, params, "declared"


AGENTS = {"matroid": 6, "xos": 4, "mph": 4, "pip": 6, "knapsack": 4, "single-item": 6}


@st.composite
def certify_cases(draw):
    kind = draw(st.sampled_from(sorted(AGENTS)))
    n = draw(st.integers(min_value=1 if kind != "matroid" else 2, max_value=AGENTS[kind]))
    return kind, n, draw(SEEDS), draw(st.booleans())


class TestCheckWithSharedList:
    @given(certify_cases())
    @settings(max_examples=40, deadline=None)
    def test_reports_equal_with_and_without_list(self, case):
        kind, n, seed, contraction = case
        env, profile, rule, alloc, params, order_mode = _case(kind, n, seed)
        family = ExchangeFamily("canonical_contraction", env) if contraction else default_family(env)
        check = check_weakly_balanced if params.weak else check_balanced

        def run(**kwargs):
            return check(env, profile, rule, alloc, family, params, order_mode=order_mode, **kwargs)

        with_list = run(feasible=enumerate_feasible(env))
        assert with_list == run()
        # the brute-force twin: every exchange set from the pruned DFS
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExchangeFamily, "over", lambda self, feasible: self)
            assert with_list == run()


# ---------------------------------------------------------------------------
# Work gate: one enumeration per balance job
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name, orig):
    """Count calls of ``orig`` under every balprice module name bound to it."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "balprice" or mod_name.startswith("balprice."):
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "catalog,pricing",
    [
        (["xos", "--n", "3", "--m", "4"], "xos"),
        (["matroid", "--kind", "uniform", "--rank", "3", "--ground", "6", "--seed", "2"],
         "matroid"),
    ],
)
def test_balance_enumerates_once(tmp_path, monkeypatch, catalog, pricing):
    path = tmp_path / "inst.json"
    assert main(["catalog", *catalog, "-o", str(path)]) == 0
    enumerations = _count_calls(monkeypatch, "enumerate_feasible", balprice.core.enumerate_feasible)
    opts = _count_calls(monkeypatch, "opt", opt)
    assert main(["balance", "--instance", str(path), "--pricing", pricing]) in (0, 1)
    assert enumerations[0] == 1
    assert opts[0] == 0


def test_over_cap_job_names_feasible_allocations(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["catalog", "xos", "--n", "3", "--m", "4", "-o", str(path)]) == 0
    capsys.readouterr()
    code = main(["balance", "--instance", str(path), "--pricing", "xos", "--cap-feasible", "20"])
    assert code == 3
    assert capsys.readouterr().err == (
        "resource cap exceeded: feasible allocations exceeded cap: 21 > 20\n"
    )

