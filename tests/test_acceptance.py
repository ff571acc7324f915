"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import itertools
import re
import time
from fractions import Fraction

import pytest

from allocsim.accounting import (
    CostLedger,
    PriceTable,
    capability_hint,
    efficiency,
)
from allocsim.assignment import (
    Candidate,
    CostMatrix,
    brute_force_solve,
    generate_instance,
    hungarian_solve,
    score_batch,
    validate,
)
from allocsim.coordination import ControllerMode, run_episode
from allocsim.gateway import MockEntry, ModelBinding, install_mock
from allocsim.kitchen import load_level, step
from allocsim.levels import get_level
from allocsim.policies import (
    FlakyWorker,
    GatewayWorker,
    RecordedWorker,
    ScriptedPlanner,
    ScriptedWorker,
)
from allocsim.seeding import derive_seed

from conftest import (
    order_accounting_ok,
    random_level,
    scripted_action,
    scripted_individual_episode,
    scripted_planner_episode,
)


def ok(criterion: int, message: str) -> None:
    print(f"[acceptance {criterion:02d}] PASS - {message}")


def test_c01_hungarian_oracle_equivalence():
    start = time.monotonic()
    for seed in range(1000):
        n = 2 + seed % 7
        matrix = generate_instance(n, seed=seed, lo=0, hi=99)
        fast = hungarian_solve(matrix)
        oracle = brute_force_solve(matrix)
        assert fast.total_cost == oracle.total_cost, seed
        assert fast.mapping == oracle.mapping, seed
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    ok(1, f"1000 instances, n in [2,8], equal costs and mappings in {elapsed:.2f}s")


def test_c02_validity_taxonomy():
    matrix = CostMatrix.from_rows([[0, 9], [9, 0]])

    duplicate = validate(matrix, Candidate((0, 0)))
    assert duplicate.kinds() == {"DuplicateAgent", "UnassignedTask"}

    unassigned = validate(matrix, Candidate((0, None)))
    assert unassigned.kinds() == {"UnassignedTask"}

    fabricated = validate(matrix, Candidate((1, 0), claimed_cost=0))
    assert fabricated.kinds() == {"FabricatedCost"}

    # zero false positives over every valid permutation of several matrices
    checked = 0
    for seed in range(10):
        m = generate_instance(4, seed=seed, lo=0, hi=30)
        for perm in itertools.permutations(range(4)):
            report = validate(m, Candidate(perm, claimed_cost=m.cost_of(perm)))
            assert report.is_valid, (seed, perm)
            checked += 1
    ok(2, f"all three violation classes detected; {checked} valid permutations clean")


def test_c03_batch_score_arithmetic():
    instances = [generate_instance(3, seed=500 + s, lo=0, hi=25) for s in range(10)]
    candidates: list[Candidate] = []
    for i, m in enumerate(instances):
        optimal = brute_force_solve(m)
        if i < 3:  # invalid: duplicated agent
            candidates.append(Candidate((0, 0, 1)))
        elif i < 6:  # valid but provably suboptimal
            worse = next(
                perm for perm in itertools.permutations(range(3))
                if m.cost_of(perm) > optimal.total_cost
            )
            candidates.append(Candidate(worse, m.cost_of(worse)))
        else:  # optimal
            candidates.append(Candidate(optimal.mapping, optimal.total_cost))
    score = score_batch(instances, candidates)
    assert score.validity_rate == 0.7
    assert score.accuracy == 0.4
    ok(3, "10-instance fixture scores validity 0.7 and accuracy 0.4 exactly")


def test_c04_simulator_determinism():
    configs = 0
    for seed in range(20):
        level = random_level(seed)
        agents = 1 + seed % 3
        logs = []
        for _ in range(2):
            report = scripted_individual_episode(level, agents, seed=seed * 31)
            logs.append(
                (
                    tuple(e.to_json_dict()["kind"] + e.dish + str(e.step) for e in report.event_log),
                    tuple(record["observation_hash"] for record in report.trace),
                )
            )
        assert logs[0] == logs[1], seed
        configs += 1
    assert configs >= 20
    ok(4, f"{configs} randomized configs replayed byte-identically")


def test_c05_order_accounting_invariant():
    episodes = 0
    for seed in range(100):
        level = random_level(1000 + seed)
        state = load_level(level, 1 + seed % 3, seed)
        for _ in range(level.max_steps):
            joint = {a: scripted_action(state, a) for a in state.agent_ids()}
            step(state, joint)
            assert order_accounting_ok(state), (seed, state.step)
        episodes += 1
    assert episodes == 100
    ok(5, "introduced = completed + expired + live at every step of 100 episodes")


def test_c06_scripted_oracle_completion():
    level = get_level("level_1")
    one = scripted_individual_episode(level, 1, seed=2024)
    two = scripted_individual_episode(level, 2, seed=2024)
    assert one.steps == 60
    assert one.completed_orders >= 1
    assert two.completed_orders >= one.completed_orders
    ok(6, f"level_1 completions: 1 agent -> {one.completed_orders}, 2 agents -> {two.completed_orders}")


def test_c07_planner_trigger_contract():
    checked = 0
    for level_id in ("level_1", "level_2", "level_3"):
        for agents in (1, 2, 3):
            report = scripted_planner_episode(get_level(level_id), agents, seed=17)
            nonempty = sum(1 for record in report.trace if record["events"])
            assert report.planner_invocations == 1 + nonempty, (level_id, agents)
            checked += 1
    ok(7, f"planner invocations = 1 + event steps across {checked} episodes")


def test_c08_cost_arithmetic_fixtures():
    ledger = CostLedger()
    mini = ledger.record_call("gpt-4o-mini", "worker:agent0", 1_000_000, 1_000_000, step=0)
    assert mini.usd == Fraction(3, 4)  # $0.75 exact
    claude = ledger.record_call("claude-3.7", "planner", 200_000, 40_000, step=0)
    assert claude.usd == Fraction(6, 5)  # $1.20 exact
    ok(8, "gpt-4o-mini 1M/1M = $0.75 and claude-3.7 200k/40k = $1.20, exact")


def test_c09_efficiency_fixtures():
    table = PriceTable.from_entries({"m": ("1.00", "1.00")})

    def ledger_with(usd_cents: int) -> CostLedger:
        ledger = CostLedger(table)
        ledger.record_call("m", "orchestrator", usd_cents * 10_000, 0, step=0)
        return ledger

    a = efficiency(20, ledger_with(1160))
    assert float(a.efficiency) == pytest.approx(1.724, abs=1e-3)
    b = efficiency(44, ledger_with(720))
    assert float(b.efficiency) == pytest.approx(6.111, abs=1e-3)
    ok(9, "20/$11.60 -> 1.724 and 44/$7.20 -> 6.111, both within 0.001")


def test_c10_action_histogram():
    # property: fractions sum to 1 on every episode
    for level_id in ("level_1", "level_2", "level_3"):
        for agents in (1, 2):
            report = scripted_individual_episode(get_level(level_id), agents, seed=5)
            histogram = report.efficiency.action_histogram
            assert sum(histogram.values()) == pytest.approx(1.0, abs=1e-9)
            assert sum(report.action_counts.values()) == report.steps * agents

    # hand-counted 10-step fixture: 3 goto, 2 get, 2 put, 1 activate, 2 noop
    script = [
        "goto(agent0, storage0)",
        "get(agent0, storage0, salmon)",
        "goto(agent0, blender0)",
        "put(agent0, blender0)",
        "activate(agent0, blender0)",
        "noop(agent0)",
        "noop(agent0)",
        "get(agent0, blender0, salmonMeatcake)",
        "goto(agent0, servingtable0)",
        "put(agent0, servingtable0)",
    ]
    state = load_level(get_level("level_1"), 1, seed=0)
    report = run_episode(
        ControllerMode.INDIVIDUAL, state,
        workers={"agent0": RecordedWorker(script)}, budget=10,
    )
    histogram = report.efficiency.action_histogram
    assert histogram == {
        "goto": 0.3, "get": 0.2, "put": 0.2, "activate": 0.1, "noop": 0.2,
    }
    assert report.completed_orders == 1
    ok(10, "histograms sum to 1 everywhere; 10-step fixture matches hand counts")


def test_c11_gateway_resilience():
    injected = 0
    script: list[MockEntry] = []
    for i in range(60):
        if i % 10 == 9:  # 10% of responses are malformed
            script.append(MockEntry(malformed=True))
            injected += 1
        else:
            script.append(MockEntry(text="noop(agent0)", tokens_in=40, tokens_out=4))
    transport = install_mock(script)
    worker = GatewayWorker(ModelBinding(model_id="gpt-4o-mini"), transport)
    state = load_level(get_level("level_1"), 1, seed=0)
    report = run_episode(
        ControllerMode.INDIVIDUAL, state, workers={"agent0": worker}, budget=60
    )
    assert report.steps == 60  # the episode completed
    malformed_fallbacks = [f for f in report.fallbacks if "MalformedResponse" in f.reason]
    assert len(malformed_fallbacks) == injected
    assert all(report.trace[f.step]["actions"]["agent0"] == "noop(agent0)" for f in malformed_fallbacks)
    cell = report.capability.cell("agent0", "gpt-4o-mini")
    assert cell.attempted == 60
    assert cell.attempted - cell.succeeded == injected  # reconciles exactly
    ok(11, f"{injected} malformed responses -> {injected} logged noop fallbacks; counts reconcile")


def test_c12_informed_mode_hint():
    level = get_level("level_1")
    seed = 909
    rates = {"agent0": 0.0, "agent1": 0.45}

    def build_workers(state):
        return {
            a: FlakyWorker(ScriptedWorker(), rates[a], seed=derive_seed(seed, "flaky", a))
            for a in state.agent_ids()
        }

    state = load_level(level, 2, seed=seed)
    onthefly = run_episode(
        ControllerMode.PLANNER, state, workers=build_workers(state),
        planner=ScriptedPlanner(),
    )
    assert all("success rate" not in p for p in onthefly.planner_prompts)

    roster_models = [(a, "scripted") for a in ("agent0", "agent1")]
    hint = capability_hint(onthefly.capability, roster_models)
    state = load_level(level, 2, seed=seed)
    informed = run_episode(
        ControllerMode.PLANNER, state, workers=build_workers(state),
        planner=ScriptedPlanner(), capability_block=hint,
    )
    assert informed.planner_prompts
    pattern = re.compile(r"- (agent\d+) \(scripted\): success rate (\d\.\d\d)")
    for prompt in informed.planner_prompts:
        found = dict(pattern.findall(prompt))
        assert set(found) == {"agent0", "agent1"}
        for agent_id, printed in found.items():
            cell = onthefly.capability.cell(agent_id, "scripted")
            recomputed = cell.succeeded / cell.attempted
            assert abs(float(printed) - recomputed) <= 0.01, (agent_id, printed, recomputed)
    ok(12, "informed prompts carry rates within 0.01 of recomputation; on-the-fly carries none")
