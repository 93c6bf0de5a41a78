import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balprice.core
from balprice.core import (
    NULL,
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
    MAX_GRID_UNITS,
    MAX_ITEMS,
    TableValuation,
    ThresholdValuation,
    XosValuation,
    bitmask_items,
    enumerate_feasible,
    popcount,
    prefix,
    support,
    value,
    welfare,
)

from balprice.serialize import encode_environment

from helpers import bit, check_downward_closed, count_dfs_runs, restrict


class TestValuations:
    def test_additive_single_item(self):
        v = AdditiveValuation(values=(3.0, 1.0))
        assert value(v, bit(0)) == 3.0
        assert value(v, bit(0, 1)) == 4.0

    def test_null_is_zero_for_every_kind(self):
        vs = [
            AdditiveValuation((3.0, 1.0)),
            XosValuation(((3.0, 1.0), (1.0, 2.0))),
            MphValuation((((bit(0, 1), 4.0),),)),
            ThresholdValuation(5.0, 0.5),
            ScalarValuation(2.0),
            TableValuation(((1, 7.0),)),
        ]
        for v in vs:
            assert value(v, NULL) == 0.0

    def test_mph_containment(self):
        v = MphValuation((((bit(0, 1), 4.0),),))
        assert value(v, bit(0)) == 0.0
        assert value(v, bit(0, 1)) == 4.0

    def test_xos_max_over_clauses_matches_enumeration(self):
        clauses = ((3.0, 1.0), (1.0, 2.0))
        v = XosValuation(clauses)
        for mask in range(4):
            expected = max(
                sum(c[j] for j in range(2) if mask >> j & 1) for c in clauses
            )
            assert value(v, mask) == pytest.approx(expected)
        assert value(v, bit(0, 1)) == 4.0

    def test_mph_rank(self):
        v = MphValuation((((bit(0, 1), 4.0), (bit(2), 1.0)),))
        assert v.rank == 2

    def test_mph_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            MphValuation((((bit(0), -1.0),),))

    def test_table_unknown_outcome(self):
        v = TableValuation(((1, 7.0),))
        with pytest.raises(KeyError):
            value(v, 2)

    def test_threshold(self):
        v = ThresholdValuation(5.0, 0.5)
        assert value(v, 0.5) == 5.0
        assert value(v, 0.375) == 0.0
        assert value(v, 0.625) == 5.0

    @given(st.integers(min_value=0, max_value=15))
    def test_mph_singletons_equal_xos(self, mask):
        # rank-1 hypergraph clauses coincide with the additive clause
        per_item = (1.5, 2.0, 0.25, 3.0)
        clause = tuple((bit(j), per_item[j]) for j in range(4))
        mph = MphValuation((clause,))
        xos = XosValuation((per_item,))
        assert value(mph, mask) == pytest.approx(value(xos, mask))


class TestBitmaskItems:
    @given(st.integers(min_value=-(1 << 20), max_value=1 << 20))
    def test_matches_per_bit_comprehension(self, mask):
        # the twin tests each of the low MAX_ITEMS bits, so higher bits and
        # the sign of a negative mask's infinite two's-complement are ignored
        twin = tuple(j for j in range(MAX_ITEMS) if mask >> j & 1)
        assert bitmask_items(mask) == twin

    def test_edges(self):
        assert bitmask_items(0) == ()
        assert bitmask_items(-1) == tuple(range(MAX_ITEMS))
        assert bitmask_items((1 << MAX_ITEMS) | 0b101) == (0, 2)


class TestPopcount:
    def test_matches_binary_digit_count(self):
        # every mask in [-2^20, 2^20], negative ones included, against the
        # count of ones in ``bin``'s signed-magnitude digits
        lo, hi = -(1 << 20), 1 << 20
        wrong = [m for m in range(lo, hi + 1) if popcount(m) != bin(m).count("1")]
        assert wrong == []


class TestFeasibility:
    def test_single_item(self):
        env = SingleItemEnv(n=2)
        assert not env.is_feasible((1, 1))
        assert env.is_feasible((1, 0))
        assert env.is_feasible((0, 0))

    def test_knapsack(self):
        env = KnapsackEnv(n=2)
        assert env.is_feasible((0.5, 0.5))
        assert not env.is_feasible((0.75, 0.5))

    def test_graphic_matroid_cycle(self):
        # edges 0=(0,1), 3=(1,2), 1=(0,2) form a triangle in K4
        m = Matroid.graphic_k4()
        env = MatroidEnv(n=3, matroid=m, elements=((0,), (3,), (1,)))
        assert not env.is_feasible((bit(0), bit(3), bit(1)))
        assert env.is_feasible((bit(0), bit(3), 0))

    def test_pip(self):
        env = PipEnv(n=2, matrix=((0.5, 0.5),), capacities=(1.0,))
        assert env.is_feasible((1, 1))
        env2 = PipEnv(n=3, matrix=((0.5, 0.5, 0.5),), capacities=(1.0,))
        assert not env2.is_feasible((1, 1, 1))

    def test_pip_needs_one_capacity_per_row(self):
        # a row without a capacity would never be checked: (1, 1, 1) loads
        # the second row to 1.5
        with pytest.raises(ValueError, match="1 capacities for 2 constraint rows"):
            PipEnv(n=3, matrix=((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)), capacities=(1.0,))
        with pytest.raises(ValueError, match="2 capacities for 1 constraint rows"):
            PipEnv(n=3, matrix=((0.5, 0.5, 0.5),), capacities=(1.0, 1.0))

    def test_pip_rejects_large_coefficient(self):
        with pytest.raises(ValueError):
            PipEnv(n=1, matrix=((0.6,),), capacities=(1.0,))

    def test_explicit_requires_null(self):
        with pytest.raises(ValueError):
            ExplicitEnv(
                n=1, outcome_tokens=((1,),), feasible_set=frozenset({(1,)})
            )

    def test_explicit_must_be_downward_closed(self):
        tokens = ((0, 1), (0, 1))
        with pytest.raises(ValueError, match=r"not downward closed: \(1, 1\) is listed"):
            ExplicitEnv(n=2, outcome_tokens=tokens, feasible_set=frozenset({(0, 0), (1, 1)}))
        env = ExplicitEnv(
            n=2, outcome_tokens=tokens, feasible_set=frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
        )
        assert check_downward_closed(env)

    def test_explicit_outcomes_one_list_per_agent(self):
        with pytest.raises(ValueError) as exc:
            ExplicitEnv(n=2, outcome_tokens=((0, 1),), feasible_set=frozenset({(0, 0)}))
        assert str(exc.value) == "explicit outcomes has 1 token lists for 2 agents"

    def test_explicit_listed_allocations_inside_token_spaces(self):
        """(2, 0) would pass is_feasible but never be enumerated, so OPT and
        every exchange set would drop it."""
        tokens = ((0, 1), (0, 1))
        with pytest.raises(ValueError) as exc:
            ExplicitEnv(n=2, outcome_tokens=tokens, feasible_set=frozenset({(0, 0), (2, 0), (0, 1)}))
        assert str(exc.value) == (
            "listed allocation (2, 0) gives agent 0 the token 2, outside its outcomes (0, 1)"
        )
        with pytest.raises(ValueError) as exc:
            ExplicitEnv(n=2, outcome_tokens=tokens, feasible_set=frozenset({(0, 0), (0, 0, 0)}))
        assert str(exc.value) == "listed allocation (0, 0, 0) has 3 entries for 2 agents"


class TestWelfare:
    def test_all_null(self):
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        assert welfare(profile, (0, 0)) == 0.0

    def test_single_item_second_agent(self):
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        assert welfare(profile, (0, 1)) == 2.0

    def test_ca_brute_force(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (AdditiveValuation((3.0, 1.0)), AdditiveValuation((1.0, 2.0)))
        best = max(welfare(profile, a) for a in enumerate_feasible(env))
        assert best == 5.0
        assert welfare(profile, (bit(0), bit(1))) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            welfare((ScalarValuation(1.0),), (0, 0))


class TestEnumeration:
    def test_single_item_counts(self):
        assert len(enumerate_feasible(SingleItemEnv(n=2))) == 3

    def test_two_uniform_on_three(self):
        m = Matroid.uniform(2, 3)
        env = MatroidEnv(n=3, matroid=m, elements=((0,), (1,), (2,)))
        assert len(enumerate_feasible(env)) == 7  # C(3,0)+C(3,1)+C(3,2)

    def test_ca_partitions(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        assert len(enumerate_feasible(env)) == 9

    def test_enumeration_deterministic_and_lexicographic(self):
        env = SingleItemEnv(n=2)
        allocs = enumerate_feasible(env)
        assert allocs == ((0, 0), (0, 1), (1, 0))
        assert allocs == enumerate_feasible(SingleItemEnv(n=2))

    def test_cap(self):
        env = CombinatorialAuctionEnv(n=3, items=4)
        with pytest.raises(CapExceeded):
            enumerate_feasible(env, cap=10)

    def test_list_is_kept_on_the_environment(self, monkeypatch):
        env = MatroidEnv(n=3, matroid=Matroid.uniform(2, 3), elements=((0,), (1,), (2,)))
        twin = MatroidEnv(n=3, matroid=Matroid.uniform(2, 3), elements=((0,), (1,), (2,)))
        runs = count_dfs_runs(monkeypatch)
        allocs = balprice.core.enumerate_feasible(env)
        assert balprice.core.enumerate_feasible(env, cap=7) is allocs
        assert runs[0] == 1
        # equality, hashing and serialization see only the fields
        assert env == twin and hash(env) == hash(twin)
        assert encode_environment(env) == encode_environment(twin)

    def test_kept_list_raises_as_the_enumeration_does(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        with pytest.raises(CapExceeded) as fresh:
            enumerate_feasible(CombinatorialAuctionEnv(n=2, items=2), cap=5)
        enumerate_feasible(env)
        with pytest.raises(CapExceeded) as kept:
            enumerate_feasible(env, cap=5)
        assert str(kept.value) == str(fresh.value) == "feasible allocations exceeded cap: 6 > 5"
        assert (kept.value.count, kept.value.cap) == (fresh.value.count, fresh.value.cap)

    def test_list_over_its_cap_is_not_kept(self, monkeypatch):
        env = CombinatorialAuctionEnv(n=2, items=2)
        runs = count_dfs_runs(monkeypatch)
        with pytest.raises(CapExceeded):
            balprice.core.enumerate_feasible(env, cap=5)
        assert len(balprice.core.enumerate_feasible(env)) == 9
        assert runs[0] == 2

    def test_knapsack_grid(self):
        env = KnapsackEnv(n=1, step=0.25)
        assert env.agent_outcomes(0) == (0.0, 0.25, 0.5, 0.75, 1.0)

    @pytest.mark.parametrize(
        "step,share,levels",
        [(0.3, 0.5, (0.0, 0.3)), (0.375, 1.0, (0.0, 0.375, 0.75))],
    )
    def test_knapsack_grid_stops_at_the_share(self, step, share, levels):
        # a step that does not divide the share lists no quantity above it:
        # every listed level is one some feasible allocation holds
        env = KnapsackEnv(n=2, step=step, max_share=share)
        assert env.agent_outcomes(0) == levels
        assert {x[0] for x in enumerate_feasible(env)} == set(levels)

    def test_knapsack_grid_past_the_bound_is_rejected(self):
        # checked when the environment is built, before any grid exists
        KnapsackEnv(n=1, step=1.0 / MAX_GRID_UNITS)
        for step in (1e-300, 5e-324, 0.5 / MAX_GRID_UNITS):
            with pytest.raises(ValueError, match=f"more than {MAX_GRID_UNITS} grid units"):
                KnapsackEnv(n=1, step=step)


class TestDownwardClosure:
    @pytest.mark.parametrize(
        "env",
        [
            SingleItemEnv(n=3),
            MatroidEnv(n=3, matroid=Matroid.uniform(2, 3), elements=((0,), (1,), (2,))),
            CombinatorialAuctionEnv(n=2, items=3),
            KnapsackEnv(n=2, step=0.25),
            PipEnv(n=3, matrix=((0.5, 0.25, 0.5), (0.25, 0.5, 0.0)), capacities=(1.0, 1.0)),
        ],
        ids=lambda e: e.kind,
    )
    def test_catalog_kinds_downward_closed(self, env):
        assert check_downward_closed(env)

    def test_restriction_helpers(self):
        alloc = (1, 0, 2)
        assert restrict(alloc, (0,)) == (1, 0, 0)
        assert prefix(alloc, 1) == (1, 0, 0)
        assert support(alloc) == (0, 2)


class TestProductEnv:
    def test_product_feasibility(self):
        env = ProductEnv(markets=(SingleItemEnv(n=2), SingleItemEnv(n=2)))
        assert env.n == 2
        assert env.is_feasible(((1, 0), (0, 1)))
        assert env.is_feasible(((1, 1), (0, 0)))
        assert not env.is_feasible(((1, 0), (1, 0)))
        # product null is collapsed to the scalar NULL token
        assert NULL in env.agent_outcomes(0)

    def test_product_enumeration_is_product_of_markets(self):
        env = ProductEnv(markets=(SingleItemEnv(n=2), SingleItemEnv(n=2)))
        assert len(enumerate_feasible(env)) == 9

    @given(st.integers(min_value=0, max_value=8))
    @settings(max_examples=20)
    def test_product_downward_closed(self, _):
        env = ProductEnv(markets=(SingleItemEnv(n=2), SingleItemEnv(n=2)))
        assert check_downward_closed(env)
