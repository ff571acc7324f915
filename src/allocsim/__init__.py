"""Deterministic multi-agent task allocation and coordination toolkit.

Subpackages by concern:

* :mod:`allocsim.assignment` -- square assignment problems, optimal
  solvers, and validity/accuracy scoring of candidate assignments;
* :mod:`allocsim.kitchen` / :mod:`allocsim.levels` -- the deterministic
  kitchen simulator with timed dish orders;
* :mod:`allocsim.coordination` / :mod:`allocsim.policies` -- Individual,
  Orchestrator, and Planner control topologies with scripted and
  model-backed policies;
* :mod:`allocsim.gateway` -- chat-completion wire client with a
  deterministic mock transport;
* :mod:`allocsim.accounting` -- exact dollar ledger, capability tracking,
  and the orders-per-dollar efficiency metric;
* :mod:`allocsim.jsonout` -- the indented and compact JSON writers of the
  run artifacts, byte for byte ``json.dumps``'s text;
* :mod:`allocsim.cli` -- experiment runner (``allocsim --help``).
"""

from .accounting import (
    CapabilityProfile,
    CostLedger,
    EfficiencyReport,
    PriceTable,
    capability_hint,
    default_price_table,
    efficiency,
)
from .assignment import (
    Assignment,
    BatchScore,
    Candidate,
    CostMatrix,
    ValidityReport,
    brute_force_solve,
    generate_instance,
    hungarian_solve,
    score_batch,
    validate,
)
from .coordination import (
    ControllerMode,
    EpisodeReport,
    Plan,
    PolicyQuery,
    PolicyResponse,
    WorkUnit,
    parse_action,
    parse_plan_text,
    planner_replan,
    run_episode,
)
from .gateway import (
    CompletionResult,
    MockEntry,
    ModelBinding,
    complete,
    install_mock,
)
from .kitchen import (
    KitchenState,
    LevelConfig,
    load_level,
    observation_hash,
    render_observation,
    step,
)
from .levels import BUILTIN_LEVELS, get_level
from .policies import (
    FlakyWorker,
    GatewayOrchestrator,
    GatewayPlanner,
    GatewayWorker,
    ScriptedOrchestrator,
    ScriptedPlanner,
    ScriptedWorker,
)
from .seeding import derive_seed

__version__ = "0.1.0"
