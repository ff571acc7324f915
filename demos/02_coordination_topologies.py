"""Kitchen episodes under the three coordination topologies.

Runs the deterministic kitchen with scripted policies in Individual,
Orchestrator, and Planner modes; then repeats a run with a stand-in
billed model to show the cost ledger and the orders-per-dollar metric.

Run:  python demos/02_coordination_topologies.py
"""

from allocsim.coordination import ControllerMode, PolicyResponse, run_episode
from allocsim.kitchen import load_level, render_observation
from allocsim.levels import get_level
from allocsim.policies import ScriptedOrchestrator, ScriptedPlanner, ScriptedWorker

LEVEL = get_level("level_2")
SEED = 11

# --- 1. what an agent sees ----------------------------------------------------

state = load_level(LEVEL, agent_count=2, seed=SEED)
print("initial observation:")
print(render_observation(state))

# --- 2. the three topologies, scripted ----------------------------------------
# run_episode steps a copy of the state it is given, so one state seeds every run

reports = {
    "individual": run_episode(
        ControllerMode.INDIVIDUAL, state,
        workers={a: ScriptedWorker() for a in ("agent0", "agent1")},
    ),
    "orchestrator": run_episode(
        ControllerMode.ORCHESTRATOR, state, central=ScriptedOrchestrator(),
    ),
    "planner": run_episode(
        ControllerMode.PLANNER, state,
        workers={a: ScriptedWorker() for a in ("agent0", "agent1")},
        planner=ScriptedPlanner(),
    ),
}

print(f"{'mode':<14}{'completed':>10}{'policy calls':>14}{'noop share':>12}")
for mode, report in reports.items():
    histogram = report.efficiency.action_histogram
    calls = sum(report.policy_calls.values())
    print(f"{mode:<14}{report.completed_orders:>10}{calls:>14}{histogram['noop']:>12.2f}")

planner = reports["planner"]
print(f"\nplanner replanned {planner.planner_invocations} times "
      f"(once at step 0, then after every step with events)")
first_plan, _ = ScriptedPlanner().plan("", state, ["agent0", "agent1"], None, ())
print("the step-0 plan splits the order's work units across agents:")
for line in first_plan.to_text().splitlines():
    print("   ", line)

# --- 3. a billed run: ledger and efficiency ------------------------------------

class BilledWorker:
    """Scripted decisions with stand-in token usage, to exercise billing."""

    def __init__(self, model_id):
        self.model_id = model_id
        self._inner = ScriptedWorker()

    def respond(self, query, state):
        decided = self._inner.respond(query, state)
        # a stand-in for provider-reported usage: prompt-sized in, tiny out
        return PolicyResponse(
            decided.text,
            tokens_in=len(query.observation) // 4,
            tokens_out=len(decided.text) // 4,
        )

billed = run_episode(
    ControllerMode.INDIVIDUAL, state,
    workers={"agent0": BilledWorker("gpt-4o-mini"), "agent1": BilledWorker("qwen2.5-32b")},
)
print(f"\nbilled run: {billed.completed_orders} orders for "
      f"${float(billed.efficiency.total_usd):.4f} -> "
      f"{float(billed.efficiency.efficiency):.1f} orders per dollar")
print("first ledger rows:")
for row in billed.ledger.sorted_rows()[:3]:
    print(f"    step {row.step}: {row.role} {row.model_id} "
          f"{row.tokens_in}/{row.tokens_out} tokens = ${float(row.usd):.6f}")
