"""Settled work skipped on the stochastic ratio path.

- The adaptive adversary's recursion stops at a closed history, where every
  agent still to arrive buys only null under every atom; such a state is
  worth exactly 0.0.
- The evaluator and ``monte_carlo_ratio`` read each arrival from one step
  table per (agent, atom, history id), so ``best_entries`` is asked once
  per step; ``monte_carlo_ratio`` walks each trial through the trace-free
  ``realized_walk`` and builds an order's runner only at an arrival with
  several candidates.
- ``Matroid.independent`` answers each in-range mask once per matroid.

Each fast path is compared against its twin in ``helpers``; results must be
equal by ``repr``.  The exit-code fuzz covers the subcommands on this path,
and ``balance`` and ``permeability`` on catalog documents whose values are
scaled across [1e-100, 1e99].
"""

import contextlib
import copy
import io
import json
import math
import os
import pickle
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import balprice.mechanism
from balprice.catalog import (
    gen_knapsack_random,
    gen_matroid,
    gen_mph_random,
    gen_pip_random,
    gen_two_point_single_item,
    gen_xos_random,
)
from balprice.cli import main
from balprice.core import Matroid, replace_at
from balprice.mechanism import (
    OnlinePostedPriceRunner,
    adaptive_adversary_welfare,
    realized_walk,
    worst_order_welfare,
)
from balprice.pricing import matroid_dynamic_prices, single_item_prices
from balprice.serialize import Instance, encode_environment
from balprice.stochastic import monte_carlo_ratio, trial_rng

from helpers import (
    UnprunedRunner,
    asked_entries,
    independent_twin,
    monte_carlo_twin,
    multi_element_matroid,
    two_point_matroid,
    worst_order_twin,
)
from test_decisions import KINDS, case, scaled


@contextlib.contextmanager
def _twin_runner():
    """Every evaluator in ``balprice.mechanism`` built as the unpruned twin."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(balprice.mechanism, "OnlinePostedPriceRunner", UnprunedRunner)
        yield


def _by_history(runner) -> dict:
    """The runner's memo with each history id replaced by its allocation."""
    return {(left, runner._steps.histories[h]): w for (left, h), w in runner._memo.items()}


class TestClosedHistoryCut:
    @given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=31))
    @settings(max_examples=25, deadline=None)
    def test_adversary_matches_unpruned_twin(self, kind, seed):
        env, dist, constructor = case(kind, seed)
        rule, twin_rule = scaled(env, dist, constructor), scaled(env, dist, constructor)
        asked, twin_asked = asked_entries(rule), asked_entries(twin_rule)
        got = adaptive_adversary_welfare(env, rule, dist)
        with _twin_runner():
            want = adaptive_adversary_welfare(env, twin_rule, dist)
        assert repr(got) == repr(want)
        assert rule._cache.keys() == twin_rule._cache.keys()
        assert asked.keys() == twin_asked.keys() and max(asked.values()) == 1

    @given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=31))
    @settings(max_examples=25, deadline=None)
    def test_worst_order_matches_unpruned_twin(self, kind, seed):
        env, dist, constructor = case(kind, seed)
        profile = dist.sample(trial_rng(seed, 0))
        rule, twin_rule = scaled(env, dist, constructor), scaled(env, dist, constructor)
        asked, twin_asked = asked_entries(rule), asked_entries(twin_rule)
        got = worst_order_welfare(env, rule, profile)
        want = worst_order_twin(env, twin_rule, profile)
        assert repr(got) == repr(want)
        assert rule._cache.keys() == twin_rule._cache.keys()
        assert asked.keys() == twin_asked.keys() and max(asked.values()) == 1

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_adversary_keeps_fewer_memo_states(self, n):
        inst = gen_two_point_single_item(n=n, seed=n)
        env, dist = inst.env, inst.distribution
        rule = scaled(env, dist, lambda p: single_item_prices(env, p))
        runner = OnlinePostedPriceRunner(env, rule, dist.supports, None)
        twin = UnprunedRunner(env, rule, dist.supports, None)
        assert repr(runner.expected_welfare()) == repr(twin.expected_welfare())
        # the runner keys a state by history id, the twin by history tuple
        states = _by_history(runner)
        assert len(states) == len(runner._memo) < len(twin._memo)
        assert states.keys() <= twin._memo.keys()

    def test_fixed_order_is_not_cut(self):
        # a fixed-order state asks only its next agent, so nothing is closed
        inst = gen_two_point_single_item(n=6, seed=2)
        env, dist = inst.env, inst.distribution
        rule = scaled(env, dist, lambda p: single_item_prices(env, p))
        order = (5, 0, 3, 1, 4, 2)
        runner = OnlinePostedPriceRunner(env, rule, dist.supports, order)
        twin = UnprunedRunner(env, rule, dist.supports, order)
        assert repr(runner.expected_welfare()) == repr(twin.expected_welfare())
        assert _by_history(runner) == twin._memo


def _matroids():
    return [
        Matroid.uniform(3, 6),
        Matroid.uniform(0, 4),
        gen_matroid("partition", seed=1, ground=7).env.matroid,
        Matroid.partition(((0, 2), (1, 3, 4)), (1, 2)),
        Matroid.graphic_k4(),
        multi_element_matroid().matroid,
    ]


class TestIndependenceMemo:
    @pytest.mark.parametrize("matroid", _matroids(), ids=repr)
    def test_every_mask_matches_twin(self, matroid):
        size = 1 << matroid.ground
        above = [size, size | 1, size << 3, (1 << 20) - 1, -1]
        # twice over: the second pass reads the memo
        for mask in [*range(size), *above] * 2:
            assert matroid.independent(mask) == independent_twin(matroid, mask), mask
        assert len(matroid._facts) == size
        assert all(0 <= mask < size for mask in matroid._facts)

    @pytest.mark.parametrize("matroid", _matroids(), ids=repr)
    def test_memo_is_invisible(self, matroid):
        fresh = copy.deepcopy(matroid)  # a copy drops the memo
        assert fresh._facts == {}
        env = multi_element_matroid()
        before = (repr(matroid), hash(matroid), json.dumps(encode_environment(env)))
        for mask in range(1 << matroid.ground):
            matroid.independent(mask)
            env.matroid.independent(mask % (1 << env.matroid.ground))
        assert matroid == fresh and hash(matroid) == hash(fresh)
        assert (repr(matroid), hash(matroid), json.dumps(encode_environment(env))) == before
        assert pickle.loads(pickle.dumps(matroid)) == fresh

    def test_fresh_matroid_has_empty_memo(self):
        # equal matroids built separately share nothing
        a, b = Matroid.uniform(2, 5), Matroid.uniform(2, 5)
        a.independent(3)
        assert a == b and b._facts == {}


class TestMonteCarloMemo:
    @pytest.mark.parametrize("order_mode", ["fixed", "random"])
    @pytest.mark.parametrize("kind,seed", [("two-point", 1), ("uniform", 3), ("tight-prophet", 4)])
    def test_matches_per_trial_twin(self, kind, seed, order_mode):
        env, dist, constructor = case(kind, seed)
        trials = 3 * dist.support_size() + 7
        got = monte_carlo_ratio(
            env, scaled(env, dist, constructor), dist, order_mode=order_mode, trials=trials, seed=seed
        )
        want = monte_carlo_twin(env, scaled(env, dist, constructor), dist, order_mode, trials, seed)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("order_mode", ["fixed", "random"])
    def test_walks_at_most_distinct_pairs(self, order_mode, monkeypatch):
        # every trial walks the step table, which asks best_entries once per
        # distinct (agent, atom index, history) the trials reach
        env, dist = two_point_matroid("uniform", seed=2, ground=4, rank=2)
        rule = scaled(env, dist, lambda p: matroid_dynamic_prices(env, p))
        twin_rule = scaled(env, dist, lambda p: matroid_dynamic_prices(env, p))
        trials, seed = 200, 5
        values = dist._distinct[0]
        asked = []
        real = rule.best_entries

        def counted(i, v, y):
            asked.append((i, values[i].index(v), y))
            return real(i, v, y)

        monkeypatch.setattr(rule, "best_entries", counted)
        got = monte_carlo_ratio(env, rule, dist, order_mode=order_mode, trials=trials, seed=seed)
        assert repr(got) == repr(
            monte_carlo_twin(env, twin_rule, dist, order_mode, trials, seed)
        )
        walked = set()
        for t in range(trials):
            rng = trial_rng(seed, t)
            profile = dist.sample(rng)
            order = (
                tuple(range(env.n)) if order_mode == "fixed"
                else tuple(int(i) for i in rng.permutation(env.n))
            )
            final = UnprunedRunner(env, twin_rule, dist.supports, order).run(profile).outcomes
            y = env.null_allocation()
            for i in order:
                walked.add((i, values[i].index(profile[i]), y))
                y = replace_at(y, i, final[i])
        assert len(asked) == len(set(asked)) == len(walked) < trials * env.n
        assert set(asked) == walked

    @given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=31))
    @settings(max_examples=20, deadline=None)
    def test_walk_allocation_is_run_outcomes(self, kind, seed):
        env, dist, constructor = case(kind, seed)
        rule = scaled(env, dist, constructor)
        order = tuple(reversed(range(env.n)))
        runner = OnlinePostedPriceRunner(env, rule, dist.supports, order)
        twin = UnprunedRunner(env, scaled(env, dist, constructor), dist.supports, order)
        steps = runner._steps
        for t in range(4):
            profile = dist.sample(trial_rng(seed, t))
            atoms = [steps.atom(i, v) for i, v in enumerate(profile)]
            outcomes, payments, gains = realized_walk(steps, order, atoms, runner._tied)
            trace = twin.run(profile)
            assert repr((tuple(outcomes), tuple(payments))) == repr((trace.outcomes, trace.payments))
            assert repr(math.fsum(gains)) == repr(trace.welfare)


class TestSeedRange:
    @pytest.mark.parametrize("seed,trial", [(-1, 0), (2**64, 0), (0, -1), (3, 2**64)])
    def test_out_of_range_raises(self, seed, trial):
        with pytest.raises(ValueError, match="outside"):
            trial_rng(seed, trial)

    def test_range_ends_are_distinct_streams(self):
        top = trial_rng(2**64 - 1, 2**64 - 1).random()
        assert top != trial_rng(0, 0).random()
        assert top == trial_rng(2**64 - 1, 2**64 - 1).random()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_cli_exits_2_with_one_line(self, seed, tmp_path, capsys):
        path = tmp_path / "tight.json"
        assert main(["catalog", "tight-prophet", "--q", "0.1", "-o", str(path)]) == 0
        capsys.readouterr()
        code = main(["ratio", "--instance", str(path), "--pricing", "single-item",
                     "--trials", "50", "--seed", seed])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "outside [0, 2^64)" in err

    def test_cli_accepts_largest_seed(self, tmp_path, capsys):
        path = tmp_path / "tight.json"
        assert main(["catalog", "tight-prophet", "--q", "0.1", "-o", str(path)]) == 0
        code = main(["ratio", "--instance", str(path), "--pricing", "single-item",
                     "--trials", "50", "--seed", str(2**64 - 1)])
        assert code == 0


# ---------------------------------------------------------------------------
# Exit-code fuzz over mutated catalog documents
# ---------------------------------------------------------------------------


def _two_point_doc():
    inst = gen_two_point_single_item(n=3, seed=1)
    return json.loads(inst.to_json())


def _two_point_matroid_doc():
    env, dist = two_point_matroid("partition", seed=2, ground=4, rank=2)
    profile = tuple(atoms[0][0] for atoms in dist.supports)
    return json.loads(Instance(env, profile, dist).to_json())


DOCS = {"two-point": _two_point_doc(), "two-point-matroid": _two_point_matroid_doc()}
PRICING = {"two-point": "single-item", "two-point-matroid": "matroid"}
RUNS = (
    ("ratio", "--exact"),
    ("ratio", "--exact", "--order", "adversary"),
    ("ratio", "--trials", "20", "--seed", "3"),
    ("simulate", "--order", "adversary"),
    ("simulate", "--order", "all"),
)


def _leaves(doc, path=()):
    """Every path to a dict value or list entry of ``doc``, outermost first."""
    out = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        out.append(path + (k,))
        out.extend(_leaves(v, path + (k,)))
    return out


def _set(doc, path, new):
    doc = copy.deepcopy(doc)
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = new
    return doc


magnitudes = st.floats(min_value=1e-300, max_value=1e308)
replacements = st.one_of(
    magnitudes,
    magnitudes.map(lambda x: -x),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 0.0, 2**70]),
    st.sampled_from(["", "x", "scalar", None, True, [], {}, [1.0], {"kind": "scalar"}]),
)


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = DOCS[name]
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        path = draw(st.sampled_from(_leaves(doc)))
        doc = _set(doc, path, draw(replacements))
    return name, doc


class TestExitCodeFuzz:
    @given(mutated())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ratio_and_simulate_exit_0_2_or_3(self, case):
        name, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "instance.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for run in RUNS:
                argv = [run[0], "--instance", path, "--pricing", PRICING[name], *run[1:]]
                assert main(argv) in (0, 2, 3), argv

    @pytest.mark.parametrize("name", sorted(DOCS))
    def test_unmutated_documents_run(self, name):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "instance.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(DOCS[name], fh)
            for run in RUNS:
                argv = [run[0], "--instance", path, "--pricing", PRICING[name], *run[1:]]
                assert main(argv) == 0, argv


# balance and permeability on catalog documents, values scaled by 10^k
CERTIFY_DOCS = {
    name: (json.loads(inst.to_json()), pricing)
    for name, inst, pricing in (
        ("matroid-uniform", gen_matroid("uniform", seed=1, rank=2, ground=4), "matroid"),
        ("matroid-partition", gen_matroid("partition", seed=1, ground=4), "matroid"),
        ("knapsack", gen_knapsack_random(n=3, seed=1), "knapsack"),
        ("xos", gen_xos_random(n=3, m=3, seed=1), "xos"),
        ("mph", gen_mph_random(n=3, m=3, seed=1), "mph"),
        ("pip", gen_pip_random(n=4, seed=1), "pip"),
    )
}


def _scale_values(node, factor):
    """``node`` with every number a valuation holds times ``factor``; item
    lists and knapsack sizes are not values."""
    if isinstance(node, dict):
        return {
            k: v if k in ("items", "size") else _scale_values(v, factor) for k, v in node.items()
        }
    if isinstance(node, list):
        return [_scale_values(v, factor) for v in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return node * factor
    return node


def _certify_runs(n: int):
    """balance in a declared order and in all orders, each at the
    construction's parameters and at beta 0.25, and permeability under
    both rules."""
    declared = ",".join(str(i) for i in range(n, 0, -1))
    return (
        ("balance", "--order", declared),
        ("balance", "--order", declared, "--beta", "0.25"),
        ("balance", "--order", "all"),
        ("balance", "--order", "all", "--beta", "0.25"),
        ("permeability", "--rule", "opt"),
        ("permeability", "--rule", "greedy"),
    )


class TestCertifyExitCodeFuzz:
    @given(st.sampled_from(sorted(CERTIFY_DOCS)), st.integers(min_value=-100, max_value=99))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_balance_and_permeability_exit_0_1_2_or_3(self, name, k):
        doc, pricing = CERTIFY_DOCS[name]
        doc = dict(doc, agents=_scale_values(doc["agents"], 10.0 ** k))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "instance.json")
            out = os.path.join(tmp, "report.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for run in _certify_runs(doc["environment"]["agents"]):
                argv = [run[0], "--instance", path, *run[1:], "-o", out]
                if run[0] == "balance":
                    argv += ["--pricing", pricing]
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                assert "Traceback" not in err.getvalue(), argv
                if code == 1:
                    # exit 1 only from a balance report that says FAIL
                    assert run[0] == "balance", argv
                    with open(out, encoding="utf-8") as fh:
                        assert json.load(fh)["result"]["passed"] is False, argv
                else:
                    assert code in (0, 2, 3), argv
                if os.path.exists(out):
                    os.remove(out)
