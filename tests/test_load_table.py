"""The load table (``serialize._LOADED``) and the environment-only tables
kept in an environment's store.

``load_instance`` returns the environment it already decoded for an
environment block of equal canonical JSON text, so every table in that
environment's store serves the later jobs too.  The key is the text: two
blocks that decode to environments equal under ``==`` but not alike (0.0
and -0.0) never share one.  The table keeps the ``LOADED_BOUND`` most
recently loaded environments, and a reused one starts without the welfare
column of an earlier profile.
"""

import json
import math

import pytest

from balprice import serialize
from balprice.balance import _OrderSums
from balprice.catalog import gen_matroid, gen_product_single_items
from balprice.core import CapExceeded, PipEnv, enumerate_feasible
from balprice.oracle import ExchangeFamily, _welfare_column, default_family
from balprice.pricing import matroid_dynamic_prices
from balprice.serialize import LOADED_BOUND, load_instance

from helpers import filtered_members


def _pip_doc(coefficient) -> dict:
    return {
        "environment": {"kind": "pip", "agents": 2, "matrix": [[coefficient, 0.5], [0.25, 0.5]],
                        "capacities": [1.0, 1.0]},
        "agents": [{"kind": "scalar", "value": 1.0}, {"kind": "scalar", "value": 2.0}],
    }


def _single_item_doc(n: int) -> str:
    return json.dumps({
        "environment": {"kind": "single_item", "agents": n},
        "agents": [{"kind": "scalar", "value": 1.0}] * n,
    })


def _reversed_keys(doc):
    """``doc`` with every object's keys in reverse sorted order."""
    if isinstance(doc, dict):
        return {k: _reversed_keys(doc[k]) for k in sorted(doc, reverse=True)}
    if isinstance(doc, list):
        return [_reversed_keys(v) for v in doc]
    return doc


class TestKeys:
    def test_signed_zeros_get_their_own_environments(self):
        """The two environments are equal under ``==``, as 0.0 == -0.0, but
        each keeps the sign its block wrote."""
        plus = load_instance(json.dumps(_pip_doc(0.0))).env
        minus = load_instance(json.dumps(_pip_doc(-0.0))).env
        assert plus == minus and plus is not minus
        assert math.copysign(1.0, plus.matrix[0][0]) == 1.0
        assert math.copysign(1.0, minus.matrix[0][0]) == -1.0
        assert load_instance(json.dumps(_pip_doc(-0.0))).env is minus
        assert load_instance(json.dumps(_pip_doc(0.0))).env is plus

    def test_key_order_and_whitespace_share_one_environment(self):
        doc = _pip_doc(0.25)
        env = load_instance(json.dumps(doc)).env
        text = json.dumps(_reversed_keys(doc), indent=3, separators=(" ,", " :  "))
        assert text != json.dumps(doc)
        assert load_instance(text).env is env

    def test_other_blocks_of_one_kind_and_size_get_their_own(self):
        envs = [load_instance(json.dumps(_pip_doc(c))).env for c in (0.125, 0.25)]
        assert envs[0] != envs[1]


class TestBound:
    def test_the_table_keeps_the_most_recently_loaded(self):
        """Loading the first environment again makes it the most recent, so
        the bound + 1st distinct environment drops the second one."""
        envs = [load_instance(_single_item_doc(n)).env for n in range(1, LOADED_BOUND + 1)]
        assert len(serialize._LOADED) == LOADED_BOUND
        assert load_instance(_single_item_doc(1)).env is envs[0]
        load_instance(_single_item_doc(LOADED_BOUND + 1))
        assert len(serialize._LOADED) == LOADED_BOUND
        assert load_instance(_single_item_doc(1)).env is envs[0]
        assert load_instance(_single_item_doc(2)).env is not envs[1]
        assert len(serialize._LOADED) == LOADED_BOUND


class TestReuse:
    @pytest.mark.parametrize("instance", [
        gen_matroid("uniform", seed=1, rank=2, ground=4),
        gen_product_single_items(n=2, markets=2, seed=1),
    ], ids=["matroid", "product"])
    def test_reuse_drops_the_welfare_column_and_keeps_the_rest(self, instance):
        text = instance.to_json()
        env = load_instance(text).env
        markets = getattr(env, "markets", ())
        parts = list(zip(*(v.parts for v in instance.profile))) if markets else []
        for e, profile in ((env, instance.profile), *zip(markets, parts)):
            enumerate_feasible(e)
            _welfare_column(e, profile)
            assert "welfare" in e._facts
        assert load_instance(text).env is env
        for e in (env, *markets):
            assert "welfare" not in e._facts and "feasible" in e._facts

    def test_a_failed_decode_keeps_nothing(self):
        doc = _pip_doc(0.25)
        doc["environment"]["matrix"][0][0] = "x"
        with pytest.raises(serialize.SchemaError):
            load_instance(json.dumps(doc))
        assert not serialize._LOADED


class TestStoredTables:
    def test_member_memo_tells_family_kinds_apart(self):
        """On two packing rows and two agents the packing key at the null
        allocation, (True, True), equals the contraction key at (1, 1), as
        True == 1: the memo tells the sets apart by family kind."""
        env = PipEnv(n=2, matrix=((0.5, 0.25), (0.25, 0.5)), capacities=(1.0, 1.0))
        packing = ExchangeFamily("pip_threshold", env)
        contraction = ExchangeFamily("canonical_contraction", env)
        assert packing.members_key((0, 0)) == contraction.members_key((1, 1))
        for family, x in ((packing, (0, 0)), (contraction, (1, 1)), (packing, (0, 0))):
            assert family.members(x) == filtered_members(family, x)

    def test_kept_members_still_check_the_cap(self):
        env = gen_matroid("uniform", seed=1, rank=2, ground=4).env
        family = default_family(env)
        feasible = enumerate_feasible(env)
        family.members(feasible[0])
        with pytest.raises(CapExceeded, match=f"{len(feasible) - 1} > {len(feasible) - 2}"):
            family.members(feasible[0], cap=len(feasible) - 2)

    def test_walks_share_the_dp_tables_and_not_the_values(self):
        instance = gen_matroid("uniform", seed=1, rank=2, ground=4)
        env = instance.env
        enumerate_feasible(env)
        first, second = (_OrderSums(env, matroid_dynamic_prices(env, instance.profile))
                         for _ in range(2))
        assert first.cleared is second.cleared and first.live is second.live
        assert first._agents is second._agents
        first.extremal_at(0, (len(first.feasible) - 1,), True)
        assert first._values[True] and not second._values[True]
