"""Capability-aware planning: on-the-fly vs informed allocation.

Workers of very different reliability run under a planner twice: first
with the planner told nothing (it can only observe failures as they
happen), then with a capability hint measured from the first run injected
into every planner prompt.

Run:  python demos/03_capability_allocation.py
"""

from allocsim.accounting import capability_hint
from allocsim.coordination import ControllerMode, run_episode
from allocsim.kitchen import load_level
from allocsim.levels import get_level
from allocsim.policies import FlakyWorker, ScriptedPlanner, ScriptedWorker
from allocsim.seeding import derive_seed

LEVEL = get_level("level_1")
SEED = 33
FAILURE_RATES = {"agent0": 0.05, "agent1": 0.55}  # one good worker, one bad


def build_workers():
    return {
        agent: FlakyWorker(ScriptedWorker(), rate, derive_seed(SEED, "flaky", agent))
        for agent, rate in FAILURE_RATES.items()
    }


# --- pass 1: on-the-fly -- the planner knows nothing about its workers --------

state = load_level(LEVEL, agent_count=2, seed=SEED)
onthefly = run_episode(
    ControllerMode.PLANNER, state, workers=build_workers(), planner=ScriptedPlanner(),
)
print("on-the-fly pass:")
print(f"    completed orders: {onthefly.completed_orders}")
print(f"    parse-failure fallbacks: {len(onthefly.fallbacks)}")
for (agent, model), cell in sorted(onthefly.capability.cells.items()):
    print(f"    {agent}: {cell.succeeded}/{cell.attempted} actions ok "
          f"(rate {cell.success_rate:.2f})")
assert not any("success rate" in p for p in onthefly.planner_prompts)

# --- measured rates become the informed pass's hint ----------------------------

roster = [(agent, "scripted") for agent in sorted(FAILURE_RATES)]
hint = capability_hint(onthefly.capability, roster)
print("\ncapability hint handed to the informed planner:")
for line in hint.splitlines():
    print("   ", line)

# run_episode left state as it was: the informed pass serves the same orders
informed = run_episode(
    ControllerMode.PLANNER, state, workers=build_workers(),
    planner=ScriptedPlanner(), capability_block=hint,
)
print("\ninformed pass:")
print(f"    completed orders: {informed.completed_orders}")
print(f"    every planner prompt carries the hint: "
      f"{all('success rate' in p for p in informed.planner_prompts)}")

print(f"\ncompleted-order delta (informed - on-the-fly): "
      f"{informed.completed_orders - onthefly.completed_orders}")
print("(the scripted planner ignores hints; model-backed planners receive the "
      "same block and can reassign work away from weak workers)")
