"""The critical-value oracle against its twins.

``critical_value`` and ``permeability`` share one oracle over the kept
feasible list.  The twins in ``helpers`` are the member walk, the greedy run
on rebuilt profiles and the grid^n scan that rates each feasible set on its
own; every result must equal theirs by ``repr``."""

import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import balprice.oracle
from balprice.catalog import gen_matroid
from balprice.core import (
    ExplicitEnv,
    ScalarValuation,
    TableValuation,
    enumerate_feasible,
)
from balprice.cli import main as run_cli
from balprice.oracle import (
    GREEDY_RULE,
    OPT_RULE,
    AllocationRule,
    agent_classes,
    agent_value,
    critical_value,
    permeability,
)

from helpers import critical_value_twin, permeability_twin

RULES = (OPT_RULE, GREEDY_RULE)

# dyadic and non-dyadic values, one below TOL, so sums round
VALUES = (0.0, 1e-10, 0.1, 0.2, 0.3, 0.7, 1.0, 1.5, 2.0, 3.7)


def explicit_env(n, tops):
    """The binary set system of every subset of the agent masks ``tops``."""
    sets = {sub for top in tops for sub in range(1 << n) if sub & top == sub}
    return ExplicitEnv(
        n=n,
        outcome_tokens=((0, 1),) * n,
        feasible_set=frozenset(tuple(s >> j & 1 for j in range(n)) for s in sets),
    )


@st.composite
def set_systems(draw):
    """A random binary set system with 2 to 5 agents, a profile on it, a
    mask of agents outside which the profile is zeroed, and a bid grid."""
    n = draw(st.integers(min_value=2, max_value=5))
    tops = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
    members = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    grid = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3))
    profile = tuple(TableValuation(((1, v),)) for v in values)
    return explicit_env(n, tops), profile, members, grid


def permuted(mask, perm):
    """The agent mask ``mask`` with agent j moved to perm[j]."""
    return sum(1 << perm[j] for j in range(len(perm)) if mask >> j & 1)


@st.composite
def symmetric_set_systems(draw):
    """A random binary set system with 2 to 5 agents, closed under the group
    generated by one to three drawn permutations (random ones or
    transpositions), and a bid grid."""
    n = draw(st.integers(min_value=2, max_value=5))
    transposition = st.tuples(
        st.integers(min_value=0, max_value=n - 1), st.integers(min_value=0, max_value=n - 1)
    ).map(lambda ij: tuple({ij[0]: ij[1], ij[1]: ij[0]}.get(k, k) for k in range(n)))
    gens = draw(st.lists(st.permutations(range(n)) | transposition, min_size=1, max_size=3))
    tops = set(draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=3)))
    grown = set(tops)
    while grown:
        grown = {permuted(m, g) for m in grown for g in gens} - tops
        tops |= grown
    grid = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3))
    return explicit_env(n, tuple(sorted(tops))), grid


def classes_twin(env):
    """The classes of agents i, j for which swapping them maps the feasible
    list, as allocations, onto itself."""
    feasible = set(enumerate_feasible(env))

    def swaps(i, j):
        return {tuple(x[{i: j, j: i}.get(k, k)] for k in range(env.n)) for x in feasible} == feasible

    classes = []
    for i in range(env.n):
        if not any(i in c for c in classes):
            classes.append(tuple(j for j in range(i, env.n) if swaps(i, j)))
    return classes


def uniform_3_of_6_case():
    """Catalog uniform rank 3 on ground 6, seed 1, on the default grid of
    zero and the agents' values: six interchangeable agents, six bids."""
    inst = gen_matroid("uniform", seed=1, rank=3, ground=6)
    env = inst.env
    return env, sorted({0.0} | {agent_value(env, inst.profile, i) for i in range(env.n)})


def catalog_case(kind, seed):
    if kind == "uniform":
        inst = gen_matroid("uniform", seed=seed, rank=1 + seed % 3, ground=3 + seed % 3)
    elif kind == "partition":
        inst = gen_matroid("partition", seed=seed, ground=4 + seed % 2)
    else:
        inst = gen_matroid("graphic_k4", seed=seed)
    return inst.env, inst.profile


def zero_outside(profile, members):
    """The profile with every agent outside the mask ``members`` worth 0, as
    the reference-allocation prices pass it."""
    return tuple(
        v if members >> j & 1 else ScalarValuation(0.0) for j, v in enumerate(profile)
    )


def assert_critical_values_match(env, profile, members):
    for rule in RULES:
        for fixed in enumerate_feasible(env):
            for p in (profile, zero_outside(profile, members)):
                for i in range(env.n):
                    got = critical_value(rule, env, p, i, fixed)
                    want = critical_value_twin(rule, env, p, i, fixed)
                    assert repr(got) == repr(want), (rule.kind, fixed, i)


class TestCriticalValueTwins:
    @given(set_systems())
    @settings(max_examples=40, deadline=None)
    def test_set_systems(self, case):
        env, profile, members, _ = case
        assert_critical_values_match(env, profile, members)

    @given(
        st.sampled_from(("uniform", "partition", "k4")),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=15, deadline=None)
    def test_catalog_matroids(self, kind, seed, members):
        env, profile = catalog_case(kind, seed)
        assert_critical_values_match(env, profile, members)


# sets {0, 1} and {2}, where permeability is 2 (see test_gamma_above_one)
GAMMA_TWO = (
    explicit_env(3, (0b011, 0b100)),
    tuple(TableValuation(((1, v),)) for v in (0.0, 0.0, 2.0)),
    0b011,
    [0.0, 2.0],
)


class TestPermeabilityTwin:
    @given(set_systems())
    @example(GAMMA_TWO)
    @settings(max_examples=30, deadline=None)
    def test_set_systems(self, case):
        env, _, _, grid = case
        for rule in RULES:
            assert repr(permeability(env, rule, grid)) == repr(permeability_twin(env, rule, grid))

    @given(st.sampled_from(("uniform", "partition", "k4")), st.integers(min_value=0, max_value=63))
    @example("k4", 0)
    @settings(max_examples=6, deadline=None)
    def test_catalog_matroids(self, kind, seed):
        env, profile = catalog_case(kind, seed)
        grid = sorted({0.0} | {v.values[j] for j, v in enumerate(profile)})[:3]
        for rule in RULES:
            assert repr(permeability(env, rule, grid)) == repr(permeability_twin(env, rule, grid))

    def test_gamma_above_one(self):
        """At bids (0, 0, 2) agents 0 and 1 each must displace the 2, so
        {0, 1} carries critical values 4 against a declared welfare of 2."""
        env = GAMMA_TWO[0]
        for rule in RULES:
            assert permeability(env, rule, (0.0, 2.0)) == 2.0
            assert repr(permeability(env, rule, (0.0, 0.7, 2.0))) == repr(
                permeability_twin(env, rule, (0.0, 0.7, 2.0))
            )


class TestOracleCount:
    @pytest.mark.parametrize("rule", RULES, ids=["opt", "greedy"])
    def test_once_per_agent_and_other_bids(self, monkeypatch, rule):
        calls = [0]
        oracle = balprice.oracle._critical_value

        def counted(*args):
            calls[0] += 1
            return oracle(*args)

        monkeypatch.setattr(balprice.oracle, "_critical_value", counted)
        env, _ = catalog_case("uniform", 4)
        grid = (0.0, 0.5, 1.0, 2.0)
        permeability(env, rule, grid)
        n, g = env.n, len(grid)
        assert 0 < calls[0] <= n * g ** (n - 1)


class TestRulesWithoutCriticalValues:
    # every rule that can be built has critical values, so neither
    # critical_value nor permeability checks the kind: a rule without them
    # is refused when built, before either is entered
    def test_critical_value_refuses(self):
        env, profile = catalog_case("uniform", 1)
        with pytest.raises(ValueError, match="^unknown allocation rule kind fractional_lp$"):
            critical_value(AllocationRule("fractional_lp"), env, profile, 0, env.null_allocation())

    def test_permeability_refuses_before_grid_work(self, monkeypatch):
        # the feasible list alone (11 allocations) would exceed this cap
        env, _ = catalog_case("uniform", 1)
        assert len(enumerate_feasible(env)) > 10
        calls = []
        monkeypatch.setattr(balprice.oracle, "enumerate_feasible", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="^unknown allocation rule kind fractional_lp$"):
            permeability(env, AllocationRule("fractional_lp"), range(10), cap=10)
        assert calls == []


class TestAgentClasses:
    def test_gamma_two_sets(self):
        env = GAMMA_TWO[0]
        assert agent_classes(env, OPT_RULE) == [(0, 1), (2,)]
        assert agent_classes(env, GREEDY_RULE) == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("ground", [4, 5, 6])
    def test_partition_classes_are_its_blocks(self, ground):
        env = gen_matroid("partition", seed=ground, ground=ground).env
        assert agent_classes(env, OPT_RULE) == list(env.matroid.blocks)

    def test_uniform_and_k4(self):
        env, _ = uniform_3_of_6_case()
        assert agent_classes(env, OPT_RULE) == [tuple(range(6))]
        # no transposition of two K4 edges maps every triangle onto one
        k4 = gen_matroid("graphic_k4").env
        assert agent_classes(k4, OPT_RULE) == [(i,) for i in range(6)]


class TestSymmetricSetSystems:
    @given(symmetric_set_systems())
    @example((GAMMA_TWO[0], GAMMA_TWO[3]))
    @settings(max_examples=40, deadline=None)
    def test_classes_and_twin(self, case):
        env, grid = case
        assert agent_classes(env, OPT_RULE) == classes_twin(env)
        for rule in RULES:
            assert repr(permeability(env, rule, grid)) == repr(permeability_twin(env, rule, grid))


class TestOrbitScanCount:
    def count(self, monkeypatch, env, rule, grid):
        """Run ``permeability``; return the bid vectors it scanned and its
        oracle call count."""
        scanned, calls = [], [0]
        vectors, oracle = balprice.oracle._bid_vectors, balprice.oracle._critical_value

        def counted_vectors(*args):
            for bids, parts in vectors(*args):
                scanned.append(tuple(bids))
                yield bids, parts

        def counted_oracle(*args):
            calls[0] += 1
            return oracle(*args)

        monkeypatch.setattr(balprice.oracle, "_bid_vectors", counted_vectors)
        monkeypatch.setattr(balprice.oracle, "_critical_value", counted_oracle)
        permeability(env, rule, grid)
        return scanned, calls[0]

    @pytest.mark.parametrize(
        "case",
        [
            uniform_3_of_6_case(),
            (GAMMA_TWO[0], (0.0, 0.7, 2.0)),
            (catalog_case("partition", 5)[0], (0.0, 0.5, 1.0)),
        ],
        ids=["uniform-3-of-6", "gamma-two", "partition"],
    )
    def test_one_vector_per_orbit(self, monkeypatch, case):
        env, grid = case
        classes = agent_classes(env, OPT_RULE)
        g = len(set(grid))
        scanned, calls = self.count(monkeypatch, env, OPT_RULE, grid)
        assert len(scanned) == len(set(scanned))
        assert len(scanned) == math.prod(math.comb(g + len(c) - 1, len(c)) for c in classes)
        for v in scanned:
            assert all(list(v[i] for i in c) == sorted(v[i] for i in c) for c in classes)
        keys = {
            (k, tuple(tuple(sorted(v[j] for j in d if j != i)) for d in classes))
            for v in scanned
            for k, c in enumerate(classes)
            for i in c
        }
        assert 0 < calls <= len(keys)

    def test_uniform_3_of_6_scans_462(self, monkeypatch):
        env, grid = uniform_3_of_6_case()
        assert len(grid) ** env.n == 46656
        scanned, _ = self.count(monkeypatch, env, OPT_RULE, grid)
        assert len(scanned) == 462

    def test_greedy_scans_every_vector(self, monkeypatch):
        env, _ = catalog_case("uniform", 4)
        grid = (0.0, 0.5, 1.0)
        scanned, _ = self.count(monkeypatch, env, GREEDY_RULE, grid)
        assert len(scanned) == len(grid) ** env.n


class TestOrbitCap:
    def test_cap_between_orbit_count_and_grid_power(self, tmp_path, capsys):
        """Uniform rank 2 on ground 4 with 4 bids: 35 orbits, 256 vectors."""
        inst = tmp_path / "u24.json"
        assert run_cli(["catalog", "matroid", "--kind", "uniform", "--rank", "2",
                        "--ground", "4", "--seed", "5", "-o", str(inst)]) == 0
        env = gen_matroid("uniform", seed=5, rank=2, ground=4).env
        grid = (0.0, 0.5, 1.0, 2.0)
        assert repr(permeability(env, OPT_RULE, grid, cap=100)) == repr(
            permeability_twin(env, OPT_RULE, grid)
        )
        with pytest.raises(balprice.oracle.CapExceeded, match="^bid vectors exceeded cap: 256 > 100$"):
            permeability(env, GREEDY_RULE, grid, cap=100)
        argv = ["permeability", "--instance", str(inst), "--grid", "0,0.5,1,2", "--cap-feasible", "100"]
        capsys.readouterr()
        assert run_cli([*argv, "--rule", "opt"]) == 0
        assert run_cli([*argv, "--rule", "greedy"]) == 3
        assert capsys.readouterr().err.endswith(
            "resource cap exceeded: bid vectors exceeded cap: 256 > 100\n"
        )


class TestGreedyAtLargeMagnitudes:
    """Past the last candidate c, greedy's probe bound was c + 1.0, which is c
    itself from 2^53 on: the probe tied the other agent and lost on index, so
    ``permeability --rule greedy --grid 0,1e16`` reported UNBOUNDED where OPT
    reports 1.  The critical value is now read off the ranking, with no
    probe."""

    @pytest.mark.parametrize("top", [1.0, 1e15, 1e16, 2.0**60], ids=["1", "1e15", "1e16", "2^60"])
    def test_greedy_equals_opt_on_uniform_rank_one(self, top):
        env = gen_matroid("uniform", seed=1, rank=1, ground=2).env
        grid = (0.0, top)
        assert permeability(env, GREEDY_RULE, grid) == permeability(env, OPT_RULE, grid) == 1.0
        null = env.null_allocation()
        for rule in RULES:
            assert balprice.oracle._critical_value(rule, env, [top, 0.0], 1, null, 100) == top

    @pytest.mark.parametrize("grid", ["0,1e16", "0,1152921504606846976"], ids=["1e16", "2^60"])
    def test_cli_reports_one(self, tmp_path, grid):
        inst, out = tmp_path / "uniform.json", tmp_path / "report.json"
        assert run_cli(["catalog", "matroid", "--kind", "uniform", "--rank", "1",
                        "--ground", "2", "--seed", "1", "-o", str(inst)]) == 0
        for rule in ("greedy", "opt"):
            argv = ["permeability", "--instance", str(inst), "--rule", rule, "--grid", grid]
            assert run_cli([*argv, "-o", str(out)]) == 0
            result = json.loads(out.read_text())["result"]
            assert result["gamma"] == 1.0 and result["unbounded"] is False


@st.composite
def tied_grids(draw):
    """A random binary set system with 2 to 5 agents and a bid grid holding
    0, a value below ``TOL`` and one to two more: with more agents than
    grid values, bid vectors tie."""
    env, _, _, _ = draw(set_systems())
    grid = [0.0, 1e-10] + draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=2))
    return env, grid


class TestGreedyMemo:
    """Within one ``permeability`` call, the greedy scan runs once per
    (fixed, ranking), the ranking being the agents it may accept in the
    order it tries them, and the numerator once per critical-value vector."""

    @given(tied_grids())
    @example((explicit_env(3, (0b110, 0b001)), [0.0, 1e-10, 0.1]))  # gamma 2
    # OPT's classes are (0, 3) and (1, 2), and greedy's welfare differs
    # within an orbit: 1.0 on bids (1, 1, 1, 0), 2.0 on (0, 1, 1, 1)
    @example((explicit_env(4, (0b0110, 0b1001)), [0.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_matches_twin(self, case):
        env, grid = case
        assert repr(permeability(env, GREEDY_RULE, grid)) == repr(
            permeability_twin(env, GREEDY_RULE, grid)
        )

    @pytest.mark.parametrize(
        "case",
        [
            (catalog_case("uniform", 4)[0], (0.0, 1e-10, 0.5, 1.0)),
            (GAMMA_TWO[0], (0.0, 0.7, 2.0)),
            (catalog_case("partition", 5)[0], (0.0, 0.5, 1.0)),
        ],
        ids=["uniform", "gamma-two", "partition"],
    )
    def test_one_scan_per_ranking(self, monkeypatch, case):
        # the environment's store keeps greedy outcomes across calls: count
        # on a copy with an empty one
        env, grid = copy.copy(case[0]), case[1]
        scans, calls = [], [0]
        scan, greedy_binary = balprice.oracle._greedy_scan, balprice.oracle._greedy_binary

        def counted_scan(env, ranking, fixed):
            scans.append((fixed, ranking))
            return scan(env, ranking, fixed)

        def counted_greedy(*args):
            calls[0] += 1
            return greedy_binary(*args)

        monkeypatch.setattr(balprice.oracle, "_greedy_scan", counted_scan)
        monkeypatch.setattr(balprice.oracle, "_greedy_binary", counted_greedy)
        permeability(env, GREEDY_RULE, grid)
        assert scans and len(scans) == len(set(scans))
        assert len(scans) < calls[0]
