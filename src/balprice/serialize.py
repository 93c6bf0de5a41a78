"""JSON instance schema: environment + deterministic agents + optional
per-agent valuation distribution.

The encoding is strict (unknown keys rejected) and canonical (sorted keys,
fixed separators), so generated instances round-trip byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .core import (
    AdditiveValuation,
    CombinatorialAuctionEnv,
    Environment,
    ExplicitEnv,
    KnapsackEnv,
    MAX_ITEMS,
    MarketValuation,
    Matroid,
    MatroidEnv,
    MphValuation,
    PipEnv,
    ProductEnv,
    ScalarValuation,
    SingleItemEnv,
    TableValuation,
    ThresholdValuation,
    Valuation,
    XosValuation,
    bitmask_items,
)
from .stochastic import ProductDistribution


class SchemaError(ValueError):
    """Malformed or non-conforming instance document."""


@dataclass(frozen=True)
class Instance:
    env: Environment
    profile: tuple[Valuation, ...]
    distribution: Optional[ProductDistribution] = None

    def to_json(self) -> str:
        doc = {
            "environment": encode_environment(self.env),
            "agents": [encode_valuation(v) for v in self.profile],
        }
        if self.distribution is not None:
            doc["distribution"] = [
                [{"valuation": encode_valuation(v), "prob": p} for v, p in atoms]
                for atoms in self.distribution.supports
            ]
        return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


def _expect_keys(obj: dict, required: set, optional: set = frozenset(), what: str = "object"):
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SchemaError(f"{what} missing keys {sorted(missing)}")
    if unknown:
        raise SchemaError(f"{what} has unknown keys {sorted(unknown)}")


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a JSON array, got {value!r}")
    return value


def _number(conv, value, what: str):
    """``conv`` (int or float) applied to a JSON scalar."""
    try:
        return conv(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{what} must be a number, got {value!r}") from exc


def _count(value, what: str) -> int:
    """``int`` of a JSON scalar that must not be negative."""
    k = _number(int, value, what)
    if k < 0:
        raise SchemaError(f"{what} must not be negative, got {value!r}")
    return k


# Largest magnitude of a value, weight or probability.  Every sum the
# program takes (welfare, price sums, expectations) has far fewer than 1e100
# terms, and products of two such numbers stay below 1e200, so no ``fsum``
# overflows.  Sizes, steps and shares are checked on their own.
MAX_MAGNITUDE = 1e100


def _bounded(value, what: str) -> float:
    x = _number(float, value, what)
    if not abs(x) <= MAX_MAGNITUDE:
        raise SchemaError(f"{what} must have magnitude at most {MAX_MAGNITUDE:g}, got {x!r}")
    return x


def _floats(values, what: str) -> tuple[float, ...]:
    return tuple(_bounded(v, f"{what} entry") for v in _array(values, what))


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------


def encode_valuation(v: Valuation) -> dict:
    if isinstance(v, AdditiveValuation):
        return {"kind": "additive", "values": list(v.values)}
    if isinstance(v, XosValuation):
        return {"kind": "xos", "clauses": [list(c) for c in v.clauses]}
    if isinstance(v, MphValuation):
        return {
            "kind": "mph",
            "clauses": [
                [{"items": list(bitmask_items(e)), "weight": w} for e, w in clause]
                for clause in v.clauses
            ],
        }
    if isinstance(v, ThresholdValuation):
        return {"kind": "knapsack_threshold", "value": v.value_at_size, "size": v.size}
    if isinstance(v, ScalarValuation):
        return {"kind": "scalar", "value": v.rate}
    if isinstance(v, TableValuation):
        return {
            "kind": "table",
            "entries": [{"outcome": tok, "value": val} for tok, val in v.entries],
        }
    if isinstance(v, MarketValuation):
        return {"kind": "product", "parts": [encode_valuation(p) for p in v.parts]}
    raise SchemaError(f"cannot encode valuation {v!r}")


def decode_valuation(doc: dict) -> Valuation:
    _expect_keys(doc, {"kind"}, {"values", "clauses", "value", "size", "entries", "parts"},
                 "valuation")
    kind = doc["kind"]
    if kind == "additive":
        _expect_keys(doc, {"kind", "values"}, what="additive valuation")
        return AdditiveValuation(_floats(doc["values"], "additive values"))
    if kind == "xos":
        _expect_keys(doc, {"kind", "clauses"}, what="xos valuation")
        return XosValuation(
            tuple(_floats(c, "xos clause") for c in _array(doc["clauses"], "xos clauses"))
        )
    if kind == "mph":
        _expect_keys(doc, {"kind", "clauses"}, what="mph valuation")
        clauses = []
        for clause in _array(doc["clauses"], "mph clauses"):
            edges = []
            for edge in _array(clause, "mph clause"):
                _expect_keys(edge, {"items", "weight"}, what="hyperedge")
                mask = 0
                for j in _array(edge["items"], "hyperedge items"):
                    j = _number(int, j, "hyperedge item")
                    if not 0 <= j < MAX_ITEMS:
                        raise SchemaError(f"hyperedge item {j} outside 0..{MAX_ITEMS - 1}")
                    mask |= 1 << j
                edges.append((mask, _bounded(edge["weight"], "hyperedge weight")))
            clauses.append(tuple(edges))
        return MphValuation(tuple(clauses))
    if kind == "knapsack_threshold":
        _expect_keys(doc, {"kind", "value", "size"}, what="threshold valuation")
        size = _number(float, doc["size"], "threshold size")
        if not size >= 0:
            raise SchemaError(f"threshold size must be non-negative, got {size!r}")
        return ThresholdValuation(_bounded(doc["value"], "threshold value"), size)
    if kind == "scalar":
        _expect_keys(doc, {"kind", "value"}, what="scalar valuation")
        return ScalarValuation(_bounded(doc["value"], "scalar value"))
    if kind == "table":
        _expect_keys(doc, {"kind", "entries"}, what="table valuation")
        entries = []
        for e in _array(doc["entries"], "table entries"):
            _expect_keys(e, {"outcome", "value"}, what="table entry")
            value = _bounded(e["value"], "table value")
            entries.append((_decode_token(e["outcome"]), value))
        return TableValuation(tuple(entries))
    if kind == "product":
        _expect_keys(doc, {"kind", "parts"}, what="product valuation")
        return MarketValuation(
            tuple(decode_valuation(p) for p in _array(doc["parts"], "product parts"))
        )
    raise SchemaError(f"unknown valuation kind {kind!r}")


def _decode_token(tok):
    if isinstance(tok, bool):
        raise SchemaError("boolean outcome token")
    if isinstance(tok, int):
        return tok
    if isinstance(tok, float):
        return tok
    if isinstance(tok, list):
        return tuple(_decode_token(t) for t in tok)
    raise SchemaError(f"unsupported outcome token {tok!r}")


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


def encode_environment(env: Environment) -> dict:
    if isinstance(env, SingleItemEnv):
        return {"kind": "single_item", "agents": env.n}
    if isinstance(env, MatroidEnv):
        m = env.matroid
        if m.kind == "uniform":
            mdoc = {"kind": "uniform", "rank": m.rank_bound, "ground": m.ground}
        elif m.kind == "partition":
            mdoc = {
                "kind": "partition",
                "blocks": [list(b) for b in m.blocks],
                "capacities": list(m.capacities),
            }
        elif m.kind == "graphic_k4":
            mdoc = {"kind": "graphic_k4"}
        else:
            raise SchemaError(f"cannot encode matroid kind {m.kind}")
        return {
            "kind": "matroid",
            "agents": env.n,
            "matroid": mdoc,
            "elements": [list(e) for e in env.elements],
        }
    if isinstance(env, CombinatorialAuctionEnv):
        return {"kind": env.kind, "agents": env.n, "items": env.items}
    if isinstance(env, KnapsackEnv):
        doc = {"kind": "knapsack", "agents": env.n, "step": env.step}
        if env.max_share != 1.0:
            doc["max_share"] = env.max_share
        return doc
    if isinstance(env, PipEnv):
        return {
            "kind": "pip",
            "agents": env.n,
            "matrix": [list(r) for r in env.matrix],
            "capacities": list(env.capacities),
        }
    if isinstance(env, ExplicitEnv):
        return {
            "kind": "explicit",
            "agents": env.n,
            "outcomes": [list(t) for t in env.outcome_tokens],
            "feasible": sorted([list(a) for a in env.feasible_set]),
        }
    if isinstance(env, ProductEnv):
        return {
            "kind": "product",
            "markets": [encode_environment(m) for m in env.markets],
        }
    raise SchemaError(f"cannot encode environment {env!r}")


def decode_environment(doc: dict) -> Environment:
    _expect_keys(
        doc,
        {"kind"},
        {"agents", "items", "step", "max_share", "matroid", "elements", "matrix",
         "capacities", "outcomes", "feasible", "markets"},
        "environment",
    )
    kind = doc["kind"]
    n = _number(int, doc["agents"], "environment agents") if "agents" in doc else None
    if kind == "single_item":
        _expect_keys(doc, {"kind", "agents"}, what="single_item environment")
        return SingleItemEnv(n=n)
    if kind == "matroid":
        _expect_keys(doc, {"kind", "agents", "matroid", "elements"}, what="matroid environment")
        mdoc = doc["matroid"]
        _expect_keys(mdoc, {"kind"}, {"rank", "ground", "blocks", "capacities"}, "matroid")
        # a negative rank or capacity would make even the empty set dependent,
        # leaving no feasible outcome at all
        if mdoc["kind"] == "uniform":
            matroid = Matroid.uniform(
                _count(mdoc["rank"], "matroid rank"),
                _count(mdoc["ground"], "matroid ground"),
            )
        elif mdoc["kind"] == "partition":
            matroid = Matroid.partition(
                [
                    [_count(e, "partition element") for e in _array(b, "partition block")]
                    for b in _array(mdoc["blocks"], "partition blocks")
                ],
                [_count(c, "partition capacity")
                 for c in _array(mdoc["capacities"], "partition capacities")],
            )
        elif mdoc["kind"] == "graphic_k4":
            matroid = Matroid.graphic_k4()
        else:
            raise SchemaError(f"unknown matroid kind {mdoc['kind']!r}")
        elements = tuple(
            tuple(_number(int, e, "matroid element") for e in _array(owned, "agent elements"))
            for owned in _array(doc["elements"], "matroid elements")
        )
        if len(elements) != n:
            raise SchemaError(f"{len(elements)} element lists for {n} agents")
        for owned in elements:
            for e in owned:
                if not 0 <= e < matroid.ground:
                    raise SchemaError(
                        f"matroid element {e} outside the ground set 0..{matroid.ground - 1}"
                    )
        return MatroidEnv(n=n, matroid=matroid, elements=elements)
    if kind in ("combinatorial_auction", "fractional_ca"):
        _expect_keys(doc, {"kind", "agents", "items"}, what="auction environment")
        return CombinatorialAuctionEnv(
            n=n, items=_number(int, doc["items"], "auction items"),
            fractional=(kind == "fractional_ca"),
        )
    if kind == "knapsack":
        _expect_keys(doc, {"kind", "agents", "step"}, {"max_share"}, "knapsack environment")
        step = _number(float, doc["step"], "knapsack step")
        max_share = _number(float, doc.get("max_share", 1.0), "knapsack max_share")
        if not step > 0:
            raise SchemaError(f"knapsack step must be positive, got {step!r}")
        if not 0 < max_share <= 1:
            raise SchemaError(f"knapsack max_share must lie in (0, 1], got {max_share!r}")
        return KnapsackEnv(n=n, step=step, max_share=max_share)
    if kind == "pip":
        _expect_keys(doc, {"kind", "agents", "matrix", "capacities"}, what="pip environment")
        return PipEnv(
            n=n,
            matrix=tuple(
                _floats(row, "pip matrix row") for row in _array(doc["matrix"], "pip matrix")
            ),
            capacities=_floats(doc["capacities"], "pip capacities"),
        )
    if kind == "explicit":
        _expect_keys(doc, {"kind", "agents", "outcomes", "feasible"}, what="explicit environment")
        return ExplicitEnv(
            n=n,
            outcome_tokens=tuple(
                tuple(_decode_token(t) for t in _array(toks, "agent outcomes"))
                for toks in _array(doc["outcomes"], "explicit outcomes")
            ),
            feasible_set=frozenset(
                tuple(_decode_token(t) for t in _array(alloc, "feasible allocation"))
                for alloc in _array(doc["feasible"], "explicit feasible set")
            ),
        )
    if kind == "product":
        _expect_keys(doc, {"kind", "markets"}, what="product environment")
        return ProductEnv(
            markets=tuple(decode_environment(m) for m in _array(doc["markets"], "markets"))
        )
    raise SchemaError(f"unknown environment kind {kind!r}")


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def _check_width(v: Valuation, env: Environment) -> None:
    """Item-indexed valuations must span exactly the auction's items or the
    matroid's ground set."""
    if isinstance(env, ProductEnv):
        if isinstance(v, MarketValuation):
            if len(v.parts) != len(env.markets):
                raise SchemaError(
                    f"product valuation has {len(v.parts)} parts for {len(env.markets)} markets"
                )
            for part, market in zip(v.parts, env.markets):
                _check_width(part, market)
        return
    if isinstance(env, CombinatorialAuctionEnv):
        width, unit = env.items, "items"
    elif isinstance(env, MatroidEnv):
        width, unit = env.matroid.ground, "ground elements"
    else:
        return
    if isinstance(v, AdditiveValuation):
        vectors = [("additive values", v.values)]
    elif isinstance(v, XosValuation):
        vectors = [("xos clause", c) for c in v.clauses]
    else:
        vectors = []
    for what, vec in vectors:
        if len(vec) != width:
            raise SchemaError(f"{what} has {len(vec)} entries for {width} {unit}")
    if isinstance(v, MphValuation):
        for clause in v.clauses:
            for edge, _ in clause:
                if edge >> width:
                    raise SchemaError(
                        f"hyperedge item {edge.bit_length() - 1} outside {unit} 0..{width - 1}"
                    )


def load_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    _expect_keys(doc, {"environment", "agents"}, {"distribution"}, "instance")
    env = decode_environment(doc["environment"])
    profile = tuple(decode_valuation(v) for v in _array(doc["agents"], "agents"))
    if len(profile) != env.n:
        raise SchemaError(f"{len(profile)} agent records for {env.n} agents")
    for v in profile:
        _check_width(v, env)
    dist = None
    if "distribution" in doc:
        supports = []
        for atoms in _array(doc["distribution"], "distribution"):
            decoded = []
            for atom in _array(atoms, "distribution support"):
                _expect_keys(atom, {"valuation", "prob"}, what="distribution atom")
                v = decode_valuation(atom["valuation"])
                _check_width(v, env)
                decoded.append((v, _bounded(atom["prob"], "atom probability")))
            supports.append(tuple(decoded))
        if len(supports) != env.n:
            raise SchemaError("distribution length differs from agent count")
        dist = ProductDistribution(tuple(supports))
    return Instance(env=env, profile=profile, distribution=dist)


def load_instance_file(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return load_instance(fh.read())


def dump_instance_file(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance.to_json())
        fh.write("\n")
