"""One feasible list per environment: exchange members filtered from it,
OPT taken over it, one DFS per job.

Each fast path is checked against its brute-force twin, kept in
``helpers``: members by each family kind's defining condition over a
cartesian enumeration, and a certifier walk whose exchange sets come from
that twin.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice.balance import check_balanced, check_weakly_balanced
from balprice.catalog import (
    gen_knapsack_mixed,
    gen_knapsack_random,
    gen_matroid,
    gen_pip_random,
    gen_product_single_items,
    gen_xos_random,
)
from balprice.cli import main
from balprice.core import CombinatorialAuctionEnv, MatroidEnv, SingleItemEnv, enumerate_feasible
from balprice.oracle import ExchangeFamily, default_family, opt
from balprice.pricing import BalanceParams

from helpers import (
    brute_feasible,
    count_dfs_runs,
    filtered_members,
    matroid_priced,
    multi_element_matroid,
    static_case,
)

SEEDS = st.integers(min_value=0, max_value=10_000)


def _builder(make):
    """A strategy argument turned into a zero-argument builder, so a test
    can build two equal environments that share no kept list."""
    return lambda *args: (lambda: make(*args))


# builders of catalog environments of every kind a family binds on, plus a
# product and a multi-element matroid
ENV_BUILDERS = st.one_of(
    st.builds(_builder(lambda r, g, s: gen_matroid("uniform", seed=s, rank=min(r, g), ground=g).env),
              st.integers(1, 4), st.integers(1, 6), SEEDS),
    st.builds(_builder(lambda g, s: gen_matroid("partition", seed=s, ground=g).env),
              st.integers(2, 6), SEEDS),
    st.builds(_builder(lambda s: gen_matroid("graphic_k4", seed=s).env), SEEDS),
    st.just(multi_element_matroid),
    st.builds(_builder(lambda n, m, s: gen_xos_random(n=n, m=m, seed=s).env),
              st.integers(1, 4), st.integers(1, 3), SEEDS),
    st.builds(_builder(lambda n, s: gen_pip_random(n=n, seed=s).env), st.integers(1, 6), SEEDS),
    st.builds(_builder(lambda n, s: gen_knapsack_random(n=n, seed=s).env), st.integers(1, 4), SEEDS),
    st.builds(_builder(lambda n, s: gen_knapsack_mixed(n=n, seed=s).env), st.integers(1, 3), SEEDS),
    st.builds(_builder(lambda n: SingleItemEnv(n=n)), st.integers(1, 6)),
    st.builds(_builder(lambda n, s: gen_product_single_items(n=n, seed=s).env),
              st.integers(1, 3), SEEDS),
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


def _kept_lists(env):
    """The feasible lists kept on ``env`` and, for a product, its markets."""
    return [e._facts.get("feasible") for e in (env, *getattr(env, "markets", ()))]


class TestBoundMembers:
    """Members bound to the environment's kept list."""

    @given(ENV_BUILDERS)
    @settings(max_examples=80, deadline=None)
    def test_bound_members_equal_dfs_members(self, build):
        """Members filtered from a kept list equal those of an equal
        environment built anew, whose family must run its own DFS; the
        kept list is not a field, so the two families are equal and hash
        alike."""
        env = build()
        feasible = enumerate_feasible(env)
        for kind in family_kinds(env):
            family_of(kind, env).members(feasible[0])
        fresh = build()
        assert fresh is not env and all(kept is None for kept in _kept_lists(fresh))
        for kind in family_kinds(env):
            bound, unbound = family_of(kind, env), family_of(kind, fresh)
            assert bound == unbound and hash(bound) == hash(unbound)
            for x in feasible:
                assert bound.members(x) == unbound.members(x)
        assert enumerate_feasible(fresh) == feasible

    @pytest.mark.parametrize(
        "env,kind",
        [
            (gen_matroid("uniform", seed=3, rank=2, ground=5).env, "item_disjoint"),
            (gen_matroid("partition", seed=3, ground=5).env, "canonical_contraction"),
            (multi_element_matroid(), "item_disjoint"),
            (gen_xos_random(n=3, m=3, seed=1).env, "item_disjoint"),
            (gen_pip_random(n=5, seed=2).env, "pip_threshold"),
            (gen_knapsack_random(n=3, seed=4).env, "knapsack_threshold"),
            (SingleItemEnv(n=4), "item_disjoint"),
        ],
    )
    def test_bound_members_run_no_dfs(self, monkeypatch, env, kind):
        feasible = enumerate_feasible(env)
        family = ExchangeFamily(kind, env)
        runs = count_dfs_runs(monkeypatch)
        assert sum(len(family.members(x)) for x in feasible) > len(feasible)
        assert runs[0] == 0

    def test_product_components_filter_their_markets_lists(self, monkeypatch):
        env = gen_product_single_items(n=2, markets=3, seed=0).env
        family = default_family(env)
        feasible = enumerate_feasible(env)
        runs = count_dfs_runs(monkeypatch)
        for x in feasible:
            assert family.members(x) == filtered_members(family, x)
        assert runs[0] == len(env.markets)


# ---------------------------------------------------------------------------
# The certifier against a walk over brute-force exchange sets
# ---------------------------------------------------------------------------


# (balance parameters, order mode) each kind is certified with
CERTIFIED = {
    "matroid": (BalanceParams(alpha=1.0, beta=1.0), "all"),
    "knapsack": (BalanceParams(alpha=2.0, beta=1.0), "all"),
    "single-item": (BalanceParams(alpha=1.0, beta=1.0), "all"),
    "xos": (BalanceParams(alpha=1.0, beta=1.0), "declared"),
    "mph": (BalanceParams(alpha=1.0, beta1=1.0, beta2=1.0), "declared"),
    "pip": (BalanceParams(alpha=2.0, beta1=0.0, beta2=2.0), "declared"),
}


def _case(kind, n, seed):
    """(env, profile, rule, reference allocation, params, order mode) for a
    catalog instance under the construction the CLI certifies it with."""
    if kind == "matroid":
        env, profile, rule, _ = matroid_priced("uniform", n, seed, "matroid")
        return (env, profile, rule, opt(env, profile), *CERTIFIED[kind])
    return (*static_case({"single-item": "two-point"}.get(kind, kind), n, seed), *CERTIFIED[kind])


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
        """The walk reads exchange sets off the kept list; its twin takes
        every exchange set from the brute-force filter, with no shared list,
        and must give an equal report."""
        kind, n, seed, contraction = case
        env, profile, rule, alloc, params, order_mode = _case(kind, n, seed)
        family = ExchangeFamily("canonical_contraction", env) if contraction else default_family(env)
        check = check_weakly_balanced if params.weak else check_balanced

        def run():
            return check(env, profile, rule, alloc, family, params, order_mode=order_mode)

        with_list = run()
        brute = brute_feasible(env)

        def twin_members(family, x, cap):
            return [brute.index(y) for y in filtered_members(family, x)]

        def own_keys(family, allocs=None):
            return list(family.env._facts["feasible"] if allocs is None else allocs)

        with pytest.MonkeyPatch.context() as mp:
            # every x is its own key, and its exchange set is the filter's,
            # as positions on the brute-force list
            mp.setattr(ExchangeFamily, "_keys", own_keys)
            mp.setattr(ExchangeFamily, "_members_of", twin_members)
            assert with_list == run()


# ---------------------------------------------------------------------------
# Work gate: one DFS per job
# ---------------------------------------------------------------------------


def _matroid(rank, ground, seed):
    return ["matroid", "--kind", "uniform", "--rank", str(rank), "--ground", str(ground),
            "--seed", str(seed)]


@pytest.mark.parametrize(
    "catalog,pricing",
    [
        (["xos", "--n", "3", "--m", "4"], "xos"),
        (_matroid(3, 6, 2), "matroid"),
        (_matroid(2, 5, 3), "warmup"),
        (_matroid(2, 4, 0), "alg1-greedy"),
        (_matroid(2, 4, 0), "alg2-opt"),
    ],
)
def test_balance_enumerates_once(tmp_path, monkeypatch, catalog, pricing):
    """The construction, its parameters, the reference OPT, contracted OPT,
    critical values and the walk all read one enumeration."""
    path = tmp_path / "inst.json"
    assert main(["catalog", *catalog, "-o", str(path)]) == 0
    runs = count_dfs_runs(monkeypatch)
    assert main(["balance", "--instance", str(path), "--pricing", pricing]) in (0, 1)
    assert runs[0] == 1


def test_exact_ratio_enumerates_once(tmp_path, monkeypatch):
    path = tmp_path / "inst.json"
    assert main(["catalog", *_matroid(2, 5, 1), "-o", str(path)]) == 0
    runs = count_dfs_runs(monkeypatch)
    argv = ["ratio", "--instance", str(path), "--pricing", "matroid", "--exact",
            "-o", str(tmp_path / "ratio.csv")]
    assert main(argv) == 0
    assert runs[0] == 1


def test_over_cap_job_names_feasible_allocations(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["catalog", "xos", "--n", "3", "--m", "4", "-o", str(path)]) == 0
    capsys.readouterr()
    code = main(["balance", "--instance", str(path), "--pricing", "xos", "--cap-feasible", "20"])
    assert code == 3
    assert capsys.readouterr().err == (
        "resource cap exceeded: feasible allocations exceeded cap: 21 > 20\n"
    )

