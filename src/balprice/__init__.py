"""Balanced posted prices for sequential allocation: pricing-rule
constructions, exhaustive balance certification, posted-price mechanism
simulation, and competitive-ratio estimation."""

from .balance import BalanceReport, check_balanced, check_weakly_balanced, minimal_beta
from .core import (
    NULL,
    TOL,
    UNAVAILABLE,
    AdditiveValuation,
    CapExceeded,
    CombinatorialAuctionEnv,
    ExplicitEnv,
    KnapsackEnv,
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
    XosValuation,
    enumerate_feasible,
    value,
    welfare,
)
from .mechanism import (
    MechanismTrace,
    adaptive_adversary_welfare,
    run_posted_price,
    two_mechanism_selector,
    worst_order_welfare,
)
from .oracle import (
    AllocationRule,
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
from .pricing import (
    BalanceParams,
    PricingError,
    PricingRule,
    bundle_split_item_prices,
    compose_add,
    compose_max,
    expected_scaled_prices,
    fractional_ca_item_prices,
    greedy_derived_prices,
    knapsack_prices,
    matroid_dynamic_prices,
    monotone_critical_prices,
    mphk_item_prices,
    opt_derived_prices,
    pip_prices,
    scaled_prices,
    single_item_prices,
    xos_item_prices,
)
from .serialize import Instance, SchemaError, load_instance, load_instance_file
from .stochastic import (
    ProductDistribution,
    RatioEstimate,
    exact_ratio,
    expected_opt,
    monte_carlo_ratio,
)

__version__ = "0.1.0"
