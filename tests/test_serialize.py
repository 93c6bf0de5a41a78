import json

import pytest

from balprice.core import (
    AdditiveValuation,
    Matroid,
    MatroidEnv,
    MphValuation,
    PipEnv,
    ScalarValuation,
    SingleItemEnv,
    TableValuation,
    ThresholdValuation,
    XosValuation,
)
from balprice.serialize import (
    Instance,
    SchemaError,
    decode_valuation,
    encode_valuation,
    load_instance,
)
from balprice.stochastic import ProductDistribution


VALUATIONS = [
    AdditiveValuation((1.0, 0.5)),
    XosValuation(((1.0, 2.0), (2.0, 0.0))),
    MphValuation((((0b11, 4.0), (0b100, 1.0)),)),
    ThresholdValuation(2.5, 0.375),
    ScalarValuation(1.25),
    TableValuation(((1, 1.0), (2, 0.0))),
]


class TestValuationCodec:
    @pytest.mark.parametrize("v", VALUATIONS, ids=lambda v: v.kind)
    def test_round_trip(self, v):
        assert decode_valuation(encode_valuation(v)) == v

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            decode_valuation({"kind": "mystery"})

    def test_extra_key_rejected(self):
        with pytest.raises(SchemaError):
            decode_valuation({"kind": "scalar", "value": 1.0, "color": "red"})


class TestInstanceCodec:
    def test_distribution_round_trip(self):
        env = SingleItemEnv(n=2)
        dist = ProductDistribution(
            (
                ((ScalarValuation(1.0), 1.0),),
                ((ScalarValuation(2.0), 0.25), (ScalarValuation(0.0), 0.75)),
            )
        )
        inst = Instance(env=env, profile=(ScalarValuation(1.0), ScalarValuation(2.0)),
                        distribution=dist)
        again = load_instance(inst.to_json())
        assert again == inst

    def test_agent_count_mismatch(self):
        doc = {
            "environment": {"kind": "single_item", "agents": 2},
            "agents": [{"kind": "scalar", "value": 1.0}],
        }
        with pytest.raises(SchemaError):
            load_instance(json.dumps(doc))

    def test_probabilities_validated(self):
        doc = {
            "environment": {"kind": "single_item", "agents": 1},
            "agents": [{"kind": "scalar", "value": 1.0}],
            "distribution": [[{"valuation": {"kind": "scalar", "value": 1.0}, "prob": 0.6}]],
        }
        with pytest.raises(ValueError):
            load_instance(json.dumps(doc))

    def test_matroid_and_pip_round_trip(self):
        env = MatroidEnv(
            n=2, matroid=Matroid.partition(((0,), (1,)), (1, 1)), elements=((0,), (1,))
        )
        inst = Instance(env=env, profile=(
            AdditiveValuation((1.0, 0.0)), AdditiveValuation((0.0, 2.0))
        ))
        assert load_instance(inst.to_json()) == inst

        env2 = PipEnv(n=2, matrix=((0.5, 0.25),), capacities=(1.0,))
        inst2 = Instance(env=env2, profile=(ScalarValuation(1.0), ScalarValuation(2.0)))
        assert load_instance(inst2.to_json()) == inst2

    @pytest.mark.parametrize("matroid", [
        {"kind": "partition", "blocks": [[0], [1]], "capacities": [-1, 1]},
        {"kind": "partition", "blocks": [[0], [-1]], "capacities": [1, 1]},
        {"kind": "uniform", "rank": -1, "ground": 2},
        {"kind": "uniform", "rank": 1, "ground": -2},
    ], ids=["capacity", "element", "rank", "ground"])
    def test_negative_matroid_count_rejected(self, matroid):
        # a negative rank or capacity leaves not even the empty set feasible
        doc = {
            "environment": {"kind": "matroid", "agents": 2, "matroid": matroid,
                            "elements": [[0], [1]]},
            "agents": [{"kind": "additive", "values": [1.0, 0.0]},
                       {"kind": "additive", "values": [0.0, 2.0]}],
        }
        with pytest.raises(SchemaError, match="must not be negative"):
            load_instance(json.dumps(doc))
