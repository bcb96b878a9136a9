"""Agent-based simulation of an LVR-rebating CFMM with committed order flow.

The package layers cleanly: curve math (``cfmm``), rebated price moves and
vault re-entry (``rebate``), uniform-price batch settlement
(``allocation``), the block-by-block protocol state machine (``engine``),
stochastic agents (``agents``), and the simulation driver plus experiment
suite (``sim``) behind a CLI (``cli``).

The names imported here are the public boundary; there is no second list.
``tests/test_boundary.py`` has a row per name: the bad arguments it refuses with
a ``V0lverError`` naming them, and what it accepts. The rest is internal.
"""

from .allocation import (
    Fill,
    Order,
    OrderSide,
    Settlement,
    clearing_price_with_limits,
    verify_clearing_price,
)
from .cfmm import CONSTANT_PRODUCT, Reserves
from .config import (
    FlowModel,
    PriceModel,
    ProducerModel,
    ScenarioConfig,
    builtin_scenarios,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .engine import BlockReceipt, ChainState, ExecutionReceipt, Oct, UpdateReceipt
from .errors import (
    ConfigError,
    DomainError,
    FundingError,
    InvalidTransition,
    InvariantViolation,
    V0lverError,
    VerificationError,
)
from .rebate import RebateSchedule
from .sim import (
    RunMetrics,
    RunResult,
    dominance_sweep,
    equilibrium_experiment,
    lvr_experiment,
    run_many,
    run_scenario,
    user_price_experiment,
)

__version__ = "0.1.0"
