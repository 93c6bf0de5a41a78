import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balprice.catalog import (
    gen_common_outcome_instance,
    gen_knapsack_mixed,
    gen_knapsack_random,
    gen_matroid,
    gen_mph_random,
    gen_pip_random,
    gen_product_single_items,
    gen_single_minded_triangle,
    gen_two_point_single_item,
    gen_unit_demand_vs_bundle,
    gen_xos_random,
)
from balprice.core import (
    AdditiveValuation,
    CapExceeded,
    CombinatorialAuctionEnv,
    ExplicitEnv,
    KnapsackEnv,
    Matroid,
    MatroidEnv,
    MphValuation,
    PipEnv,
    ProductEnv,
    ScalarValuation,
    SingleItemEnv,
    TOL,
    ThresholdValuation,
    UNAVAILABLE,
    enumerate_feasible,
    replace_at,
    support,
    welfare,
)
from balprice.oracle import (
    GREEDY_RULE,
    OPT_RULE,
    ExchangeFamily,
    critical_value,
    default_family,
    fractional_opt_config_lp,
    greedy,
    knapsack_dp,
    opt,
    permeability,
    residual_opt,
)

from helpers import (
    _items,
    bit,
    brute_feasible,
    catalog_matroids,
    element_profile,
    families,
    filtered_members,
    multi_element_matroid,
    uniform_matroid_env,
)


def scalar_profile(*vals):
    return tuple(ScalarValuation(v) for v in vals)


# The four single-minded bidders on three items: three pair bidders at 2 and
# one bidder valuing the whole triple at 3.
def triangle_instance():
    env = CombinatorialAuctionEnv(n=4, items=3)
    profile = (
        MphValuation((((bit(0, 1), 2.0),),)),
        MphValuation((((bit(1, 2), 2.0),),)),
        MphValuation((((bit(0, 2), 2.0),),)),
        MphValuation((((bit(0, 1, 2), 3.0),),)),
    )
    return env, profile


class TestOpt:
    def test_single_item(self):
        env = SingleItemEnv(n=2)
        profile = scalar_profile(1, 2)
        assert opt(env, profile) == (0, 1)

    def test_two_uniform_matroid(self):
        env = uniform_matroid_env(2, 3)
        profile = element_profile(env, 3, 2, 1)
        best = opt(env, profile)
        assert welfare(profile, best) == 5.0
        assert support(best) == (0, 1)

    def test_triangle_grand_bundle(self):
        env, profile = triangle_instance()
        best = opt(env, profile)
        assert welfare(profile, best) == 3.0
        assert best[3] == bit(0, 1, 2)

    def test_tie_breaking_first_in_enumeration_order(self):
        env = SingleItemEnv(n=2)
        profile = scalar_profile(2, 2)
        # lexicographic order visits (0, 1) before (1, 0)
        assert opt(env, profile) == (0, 1)


class TestResidualOpt:
    def test_single_item_after_allocation(self):
        env = SingleItemEnv(n=2)
        profile = scalar_profile(1, 2)
        fam = default_family(env)
        res = residual_opt(env, profile, fam, (1, 0))
        assert res == (0, 0)
        assert welfare(profile, res) == 0.0

    def test_matroid_contraction(self):
        env = uniform_matroid_env(2, 3)
        profile = element_profile(env, 3, 2, 1)
        fam = ExchangeFamily("canonical_contraction", env)
        res = residual_opt(env, profile, fam, (bit(0), 0, 0))
        assert welfare(profile, res) == 2.0
        assert support(res) == (1,)

    def test_knapsack_boundary_strict(self):
        env = KnapsackEnv(n=2, step=0.125)
        profile = (ThresholdValuation(1.0, 0.5), ThresholdValuation(1.0, 0.5))
        fam = default_family(env)
        # half the capacity committed: the exchange set is already empty
        res = residual_opt(env, profile, fam, (0.5, 0.0))
        assert welfare(profile, res) == 0.0
        res2 = residual_opt(env, profile, fam, (0.375, 0.0))
        assert welfare(profile, res2) == 2.0

    def test_null_contraction_equals_opt(self):
        env = uniform_matroid_env(2, 3)
        profile = element_profile(env, 3, 1, 2)
        fam = ExchangeFamily("canonical_contraction", env)
        assert residual_opt(env, profile, fam, env.null_allocation()) == opt(env, profile)

    @pytest.mark.parametrize("kind", ["canonical_contraction", "item_disjoint"])
    def test_exchange_compatibility_law(self, kind):
        env = uniform_matroid_env(2, 3)
        fam = ExchangeFamily(kind, env)
        for x in enumerate_feasible(env):
            for y in fam.members(x):
                for i in range(env.n):
                    assert env.is_feasible(replace_at(x, i, y[i]))

    def test_pip_threshold_family(self):
        from balprice.core import PipEnv

        env = PipEnv(n=2, matrix=((0.5, 0.5),), capacities=(1.0,))
        fam = default_family(env)
        # no load: both agents individually admissible
        assert (1, 1) in fam.members((0, 0))
        # load exactly 1/2 keeps the constraint open; load above closes it
        assert (0, 1) in fam.members((1, 0))
        env2 = PipEnv(n=2, matrix=((0.5, 0.25),), capacities=(1.0,))
        fam2 = default_family(env2)
        assert fam2.members((0, 1)) != []
        # agent 0 at level 1 loads 0.5 -> still admissible
        assert (1, 0) in fam2.members((0, 1))

    @pytest.mark.parametrize("env,x", [
        (KnapsackEnv(n=2, step=0.5), (1.0, 1.0)),
        (PipEnv(n=3, matrix=((0.5, 0.5, 0.5),), capacities=(1.0,)), (1, 1, 1)),
        (uniform_matroid_env(1, 2), (bit(0), bit(1))),
    ])
    def test_infeasible_allocation_has_no_exchange_set(self, env, x):
        """Keys are read off x's DFS state, which an infeasible x lacks."""
        for family in families(env):
            with pytest.raises(ValueError, match="no exchange set at the infeasible allocation"):
                family.members(x)

    def test_pip_row_open_at_half_plus_tol(self):
        """A row loaded to exactly 1/2 + TOL, the largest coefficient a
        packing environment takes, stays open."""
        env = PipEnv(n=2, matrix=((0.5 + TOL, 0.5),), capacities=(1.0,))
        fam = default_family(env)
        assert env.load((1, 0)) == (0.5 + TOL,)
        assert fam.members_key((1, 0)) == (True,)
        assert (0, 1) in fam.members((1, 0))


SEEDS = st.integers(min_value=0, max_value=10_000)
AGENTS = st.integers(min_value=1, max_value=5)


# an environment of every catalog kind, with at most 5 agents (the K4
# matroid has its 6 edges), plus a multi-element matroid
MEMBER_ENVS = st.one_of(
    st.builds(lambda r, g, s: gen_matroid("uniform", seed=s, rank=min(r, g), ground=g).env,
              st.integers(1, 4), AGENTS, SEEDS),
    st.builds(lambda g, s: gen_matroid("partition", seed=s, ground=g).env,
              st.integers(2, 5), SEEDS),
    st.builds(lambda s: gen_matroid("graphic_k4", seed=s).env, SEEDS),
    st.just(multi_element_matroid()),
    st.builds(lambda n, m, s: gen_xos_random(n=n, m=m, seed=s).env, AGENTS, st.integers(1, 3), SEEDS),
    st.builds(lambda n, m, s: gen_mph_random(n=n, m=m, seed=s).env, AGENTS, st.integers(1, 3), SEEDS),
    st.builds(lambda n, s: gen_pip_random(n=n, seed=s).env, AGENTS, SEEDS),
    st.builds(lambda n, s: gen_knapsack_random(n=n, seed=s).env, st.integers(1, 4), SEEDS),
    st.builds(lambda n, s: gen_knapsack_mixed(n=n, seed=s).env, st.integers(1, 3), SEEDS),
    st.builds(lambda n, s: gen_two_point_single_item(n=n, seed=s).env, AGENTS, SEEDS),
    st.builds(lambda n, s: gen_product_single_items(n=n, seed=s).env, st.integers(1, 3), SEEDS),
    st.builds(lambda n, k: gen_common_outcome_instance(n=n, k=k).env,
              st.integers(1, 3), st.integers(1, 3)),
    st.just(gen_unit_demand_vs_bundle(d=3).env),
    st.just(gen_single_minded_triangle().env),
)


def state_reading(env, state):
    """A kept DFS state as what it stands for: a packing state's row loads,
    any other state as it is."""
    return env.row_loads(state) if isinstance(env, PipEnv) else state


def state_twin(env, x):
    """That value recomputed from x: its item mask, its total quantity, its
    row loads, or x itself for the kinds whose state is the allocation."""
    if isinstance(env, (MatroidEnv, CombinatorialAuctionEnv, SingleItemEnv)):
        return _items(x)
    if isinstance(env, KnapsackEnv):
        return sum(x)
    if isinstance(env, PipEnv):
        return env.load(x)
    return x


class TestMemberEnumeration:
    """Family members are read off the environment's one feasible list; the
    filter is exact only because each kind's condition and the environment
    are downward closed, which the brute-force twin does not assume."""

    @given(MEMBER_ENVS)
    @example(gen_pip_random(n=5, seed=0).env)
    @example(gen_matroid("graphic_k4", seed=0).env)
    @example(gen_xos_random(n=3, m=3, seed=1).env)
    @example(gen_knapsack_mixed(n=3, seed=2).env)
    @example(gen_product_single_items(n=2, markets=3, seed=0).env)
    @example(gen_common_outcome_instance(n=3, k=3).env)
    @settings(max_examples=100, deadline=None)
    def test_members_equal_filtered_enumeration(self, env):
        feasible = enumerate_feasible(env)
        assert list(feasible) == brute_feasible(env)
        # each kept DFS state reads as x's item mask, total, loads or x itself
        states = env._facts["states"]
        assert [repr(state_reading(env, s)) for s in states] == [repr(state_twin(env, x)) for x in feasible]
        for family in families(env):
            assert family._keys() == [family.members_key(x) for x in feasible]
            for x in feasible:
                assert family.members(x) == filtered_members(family, x)

    @pytest.mark.parametrize(
        "kind,env",
        [
            ("canonical_contraction", uniform_matroid_env(2, 4)),
            ("item_disjoint", uniform_matroid_env(2, 4)),
            ("pip_threshold", gen_pip_random(n=3, seed=0).env),
        ],
    )
    def test_member_cap_names_exchange_members(self, kind, env):
        """Product members are filtered from the product's own feasible
        list, so the cap fires on that list: a market's list fits under it,
        while the product of two markets does not."""
        product = ProductEnv(markets=(env, env))
        family = ExchangeFamily("product", product, components=(ExchangeFamily(kind, env),) * 2)
        cap = len(enumerate_feasible(env))
        with pytest.raises(
            CapExceeded, match=rf"^feasible allocations exceeded cap: {cap + 1} > {cap}$"
        ):
            family.members(product.null_allocation(), cap=cap)

    def test_closed_knapsack_set_is_the_listed_null(self):
        """The closed knapsack set's one member prints as the list's null
        allocation, and is built without enumerating the list."""
        env = KnapsackEnv(n=3, step=0.5)
        family = default_family(env)
        members = family.members((0.5, 0.5, 0.0), cap=0)
        assert "feasible" not in env._facts
        assert repr(members) == repr([enumerate_feasible(env)[0]]) == "[(0.0, 0.0, 0.0)]"

    def test_knapsack_load_within_tol_of_half_is_closed(self):
        """Ten steps of 0.05 are a load of one half, though they sum to
        0.49999999999999994: the set is closed, as at exactly one half."""
        env = KnapsackEnv(n=4, step=0.05)
        x = (0.1, 0.25, 0.1, 0.05)
        assert set(x) <= set(env.agent_outcomes(0)) and sum(x) < 0.5
        assert default_family(env).members(x) == [(0.0, 0.0, 0.0, 0.0)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_item_sets_are_item_disjoint(self, n):
        """On one item the default family is the item-disjoint one: only the
        null allocation while the item is held, the whole list otherwise."""
        env = SingleItemEnv(n=n)
        family = default_family(env)
        assert family.kind == "item_disjoint"
        feasible = list(enumerate_feasible(env))
        for x in feasible:
            expected = [env.null_allocation()] if support(x) else feasible
            assert family.members(x) == expected


class TestGreedy:
    def test_one_uniform(self):
        env = uniform_matroid_env(1, 3)
        profile = element_profile(env, 3, 2, 1)
        assert support(greedy(env, profile)) == (0,)

    def test_greedy_equals_opt_on_matroids(self):
        env = uniform_matroid_env(2, 4)
        vals = [(3, 5, 2, 4), (1, 1, 1, 1), (0, 7, 3, 3)]
        for vs in vals:
            profile = element_profile(env, *vs)
            assert welfare(profile, greedy(env, profile)) == pytest.approx(
                welfare(profile, opt(env, profile))
            )

    def test_greedy_equals_opt_on_catalog_matroids(self):
        for seed in range(5):
            for inst in catalog_matroids(seed=seed * 17):
                g = welfare(inst.profile, greedy(inst.env, inst.profile))
                o = welfare(inst.profile, opt(inst.env, inst.profile))
                assert g == pytest.approx(o)

    def test_explicit_env(self):
        env = ExplicitEnv(
            n=2,
            outcome_tokens=((0, 1), (0, 1)),
            feasible_set=frozenset({(0, 0), (1, 0), (0, 1)}),
        )
        profile = scalar_profile(1, 2)
        assert greedy(env, profile) == (0, 1)

    def test_kind_mismatch(self):
        env = KnapsackEnv(n=2)
        with pytest.raises(TypeError):
            greedy(env, (ThresholdValuation(1, 0.5), ThresholdValuation(1, 0.5)))


class TestCriticalValue:
    def test_one_uniform_must_beat_max(self):
        env = uniform_matroid_env(1, 3)
        profile = element_profile(env, 0, 2, 1)
        tau = critical_value(OPT_RULE, env, profile, 0, env.null_allocation())
        assert tau == pytest.approx(2.0)

    def test_unavailable_when_fixed_blocks(self):
        env = uniform_matroid_env(1, 2)
        profile = element_profile(env, 0, 2)
        fixed = (0, bit(1))
        assert critical_value(OPT_RULE, env, profile, 0, fixed) is UNAVAILABLE

    def test_two_uniform_displaces_lowest(self):
        env = uniform_matroid_env(2, 3)
        profile = element_profile(env, 3, 0, 1)
        tau = critical_value(OPT_RULE, env, profile, 1, env.null_allocation())
        assert tau == pytest.approx(1.0)

    def test_greedy_matches_opt_on_matroid(self):
        env = uniform_matroid_env(2, 4)
        profile = element_profile(env, 5, 0, 3, 2)
        t_opt = critical_value(OPT_RULE, env, profile, 1, env.null_allocation())
        t_grd = critical_value(GREEDY_RULE, env, profile, 1, env.null_allocation())
        # entering the rank-2 optimum {5, 3} displaces the value-3 element
        assert t_opt == pytest.approx(3.0)
        assert t_grd == pytest.approx(3.0)

    def test_monotone_in_fixed_for_matroids(self):
        env = uniform_matroid_env(2, 4)
        profile = element_profile(env, 5, 0, 3, 2)
        t_empty = critical_value(OPT_RULE, env, profile, 1, env.null_allocation())
        t_fixed = critical_value(OPT_RULE, env, profile, 1, (bit(0), 0, 0, 0))
        assert t_fixed is not UNAVAILABLE
        assert t_fixed >= t_empty - 1e-9


class TestPermeability:
    def test_one_uniform_grid(self):
        env = uniform_matroid_env(1, 2)
        assert permeability(env, OPT_RULE, (0.0, 1.0, 2.0)) == pytest.approx(1.0)

    def test_all_zero_grid_is_one(self):
        env = uniform_matroid_env(2, 3)
        assert permeability(env, OPT_RULE, (0.0,)) == 1.0

    @pytest.mark.parametrize(
        "env",
        [
            uniform_matroid_env(2, 3),
            MatroidEnv(
                n=4,
                matroid=Matroid.partition(((0, 1), (2, 3)), (1, 1)),
                elements=((0,), (1,), (2,), (3,)),
            ),
        ],
        ids=["uniform", "partition"],
    )
    def test_matroids_measure_at_most_two(self, env):
        gamma = permeability(env, OPT_RULE, (0.0, 1.0, 2.0))
        assert 1.0 <= gamma <= 2.0 + 1e-9


# moves off a grid point: within TOL of it, or beyond
NEAR_GRID = (0.0, 5e-10, -5e-10, 2e-9, -2e-9)


class TestKnapsackDp:
    def test_small(self):
        env = KnapsackEnv(n=3, step=0.125)
        profile = (
            ThresholdValuation(4.0, 0.5),
            ThresholdValuation(3.0, 0.375),
            ThresholdValuation(3.0, 0.375),
        )
        alloc = knapsack_dp(env, profile)
        assert welfare(profile, alloc) == pytest.approx(7.0)  # 0.5 + 0.375 fits
        assert sum(alloc) <= 1.0 + 1e-9

    def test_matches_grid_opt(self):
        env = KnapsackEnv(n=3, step=0.25)
        profile = (
            ThresholdValuation(2.0, 0.5),
            ThresholdValuation(1.5, 0.25),
            ThresholdValuation(1.0, 0.5),
        )
        dp_w = welfare(profile, knapsack_dp(env, profile))
        grid_w = welfare(profile, opt(env, profile))
        assert dp_w == pytest.approx(grid_w)

    def test_step_not_dividing_one(self):
        # 1/0.375 is 2.67 steps: the capacity holds 2, so a 0.9 demand
        # (3 steps, 1.125) cannot be served
        env = KnapsackEnv(n=1, step=0.375)
        profile = (ThresholdValuation(1.0, 0.9),)
        alloc = knapsack_dp(env, profile)
        assert env.is_feasible(alloc)
        assert welfare(profile, alloc) == welfare(profile, opt(env, profile))

    @given(
        st.integers(min_value=2, max_value=9).flatmap(
            lambda q: st.tuples(st.just(q), st.integers(min_value=1, max_value=2 * q))
        ).filter(lambda qp: qp[0] % qp[1] != 0),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=16), st.integers(min_value=1, max_value=20)),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_opt_on_steps_not_dividing_one(self, step_qp, demands):
        q, p = step_qp
        env = KnapsackEnv(n=len(demands), step=p / q)  # 1/step = q/p is not an integer
        profile = tuple(ThresholdValuation(v / 8, s / 16) for v, s in demands)
        alloc = knapsack_dp(env, profile)
        assert env.is_feasible(alloc)
        assert welfare(profile, alloc) == pytest.approx(welfare(profile, opt(env, profile)), abs=TOL)


    def test_demand_above_max_share_is_not_served(self):
        # 0.75 fits the capacity but not one agent's 0.5 share
        env = KnapsackEnv(n=1, step=0.125, max_share=0.5)
        profile = (ThresholdValuation(1.0, 0.75),)
        alloc = knapsack_dp(env, profile)
        assert env.is_feasible(alloc)
        assert welfare(profile, alloc) == welfare(profile, opt(env, profile))

    @given(
        st.integers(min_value=2, max_value=9).flatmap(
            lambda q: st.tuples(st.just(q), st.integers(min_value=1, max_value=q))
        ),
        st.integers(min_value=1, max_value=8).flatmap(
            lambda b: st.tuples(st.integers(min_value=1, max_value=b), st.just(b))
        ),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=16), st.integers(min_value=1, max_value=20)),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_opt_over_steps_and_shares(self, step_qp, share_ab, demands):
        (q, p), (a, b) = step_qp, share_ab
        env = KnapsackEnv(n=len(demands), step=p / q, max_share=a / b)
        profile = tuple(ThresholdValuation(v / 8, s / 16) for v, s in demands)
        alloc = knapsack_dp(env, profile)
        assert env.is_feasible(alloc)
        assert welfare(profile, alloc) == pytest.approx(welfare(profile, opt(env, profile)), abs=TOL)

    @given(
        st.sampled_from((0.125, 0.25, 0.375, 0.2, 1 / 3)),
        st.sampled_from((1.0, 0.75, 0.5)),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=16)),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.sampled_from(NEAR_GRID), min_size=6, max_size=6),
    )
    @example(0.125, 1.0, [(8, 4)] * 4, [0.0, 0.0, 5e-10, 5e-10, 5e-10, 5e-10])
    @example(0.125, 0.5, [(8, 8)] * 2, [0.0, 0.0, 5e-10, 0.0, 0.0, 0.0])
    @example(0.25, 1.0, [(8, 4)] * 4, [1e-10, 0.0, 0.0, 0.0, 0.0, 0.0])
    @example(0.125, 1.0, [(8, 0)] * 2, [0.0] * 6)
    @settings(max_examples=100, deadline=None)
    def test_matches_opt_near_grid_points(self, step, share, demands, moves):
        """Steps, shares and sizes moved by about TOL off a grid point, and
        zero sizes: the DP serves each agent where ``opt``'s grid does.  The
        examples are a size just above a grid point, a size just above the
        share, a capacity just short of four steps and sizes of zero."""
        env = KnapsackEnv(n=len(demands), step=step + moves[0], max_share=share + moves[1])
        profile = tuple(
            ThresholdValuation(v / 8, max(0.0, s / 16 + d)) for (v, s), d in zip(demands, moves[2:])
        )
        alloc = knapsack_dp(env, profile)
        assert env.is_feasible(alloc)
        assert welfare(profile, alloc) == pytest.approx(welfare(profile, opt(env, profile)), abs=TOL)

    def test_near_tie_keeps_the_first_listed_best(self):
        """Two values within TOL compete for one slot: the DP keeps the
        allocation ``opt`` lists first, not the larger value."""
        env = KnapsackEnv(n=2, step=1.0)
        profile = (ThresholdValuation(1.0 + 5e-10, 1.0), ThresholdValuation(1.0, 1.0))
        assert knapsack_dp(env, profile) == opt(env, profile) == (0.0, 1.0)


class TestConfigLp:
    def test_integral_instance(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (AdditiveValuation((3.0, 1.0)), AdditiveValuation((1.0, 2.0)))
        sol = fractional_opt_config_lp(env, profile)
        assert sol.objective == pytest.approx(5.0)

    def test_triangle_objective(self):
        env, profile = triangle_instance()
        sol = fractional_opt_config_lp(env, profile)
        assert sol.objective == pytest.approx(3.0)

    def test_zero_profile(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (AdditiveValuation((0.0, 0.0)), AdditiveValuation((0.0, 0.0)))
        sol = fractional_opt_config_lp(env, profile)
        assert sol.objective == pytest.approx(0.0)

    def test_objective_dominates_integral_opt(self):
        env = CombinatorialAuctionEnv(n=2, items=3)
        profile = (
            MphValuation((((bit(0, 1), 4.0),),)),
            AdditiveValuation((1.0, 1.0, 3.0)),
        )
        sol = fractional_opt_config_lp(env, profile)
        integral = welfare(profile, opt(env, profile))
        assert sol.objective >= integral - 1e-9

    @pytest.mark.parametrize(
        "n,items,message",
        [(7, 2, "configuration LP agents exceeded cap: 7 > 6"),
         (2, 9, "configuration LP items exceeded cap: 9 > 8")],
    )
    def test_size_cap_names_the_bound(self, n, items, message):
        env = CombinatorialAuctionEnv(n=n, items=items)
        profile = tuple(AdditiveValuation((1.0,) * items) for _ in range(n))
        with pytest.raises(CapExceeded, match=message):
            fractional_opt_config_lp(env, profile)
