"""Tests for the general subtask-allocation model.

The independent oracle here is `enumerate_best`, a dumb product scan kept
free of the library's tie-breaking and pruning; the library's optimizer
must agree with it on every instance small enough to scan.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from allocsim.allocation import (
    INEXECUTABLE,
    AgentSpec,
    AllocationMatrix,
    IndexOutOfRange,
    InstanceTooLarge,
    SlotConflict,
    TaskSpec,
    TimeBudgetExceeded,
    UtilityTable,
    brute_force_allocate,
    feasible,
    synthetic_utility_table,
    utility_of,
    utility_table_from_json,
)


def make_table(quality, cost, duration, t_max, subtask_counts, agent_count):
    return UtilityTable(
        quality=quality,
        cost=cost,
        duration=duration,
        time_budget=t_max,
        subtask_counts=subtask_counts,
        agent_count=agent_count,
    )


def enumerate_best(agents, tasks, table):
    """Independent oracle: scan every assignment pattern, no shortcuts."""
    slots = [(p, m) for p, t in enumerate(tasks) for m in range(t.subtask_count)]
    best_utility = 0.0
    best_entries: tuple = ()
    for combo in itertools.product(range(-1, len(agents)), repeat=len(slots)):
        entries = tuple(
            sorted((p, a, m) for (p, m), a in zip(slots, combo) if a >= 0)
        )
        if any(not table.can_execute(e) for e in entries):
            continue
        if sum(table.duration[e] for e in entries) > table.time_budget:
            continue
        utility = sum(table.quality[e] - table.cost[e] for e in entries)
        # the empty tuple is lexicographically smallest, so ties keep it
        if utility > best_utility or (utility == best_utility and entries < best_entries):
            best_utility, best_entries = utility, entries
    return best_utility, best_entries


def simple_table():
    # 1 task, 2 subtasks, 2 agents; all executable
    quality, cost, duration = {}, {}, {}
    grid = {
        (0, 0, 0): (5, 2, 1),
        (0, 0, 1): (4, 1, 2),
        (0, 1, 0): (7, 1, 2),
        (0, 1, 1): (3, 2, 1),
    }
    for k, (q, c, d) in grid.items():
        quality[k], cost[k], duration[k] = q, c, d
    return make_table(quality, cost, duration, t_max=3.0, subtask_counts=(2,), agent_count=2)


class TestUtilityOf:
    def test_empty_allocation_is_zero(self):
        assert utility_of(AllocationMatrix(), simple_table()) == 0

    def test_single_executable_triple(self):
        table = make_table({(0, 0, 0): 5.0}, {(0, 0, 0): 2.0}, {(0, 0, 0): 1.0},
                           1.0, (1,), 1)
        assert utility_of(AllocationMatrix.of((0, 0, 0)), table) == 3.0

    def test_inexecutable_triple_poisons_everything(self):
        table = simple_table()
        # (0, 1, 1) removed from the maps -> not executable
        table = make_table(
            {k: v for k, v in table.quality.items() if k != (0, 1, 1)},
            {k: v for k, v in table.cost.items() if k != (0, 1, 1)},
            {k: v for k, v in table.duration.items() if k != (0, 1, 1)},
            table.time_budget, table.subtask_counts, table.agent_count,
        )
        alloc = AllocationMatrix.of((0, 0, 0), (0, 1, 1))
        assert utility_of(alloc, table) is INEXECUTABLE

    def test_out_of_range_is_an_error_not_a_valuation(self):
        with pytest.raises(IndexOutOfRange):
            utility_of(AllocationMatrix.of((5, 0, 0)), simple_table())

    def test_additive_over_disjoint_entry_sets(self):
        table = simple_table()
        a = AllocationMatrix.of((0, 0, 0))
        b = AllocationMatrix.of((0, 1, 1))
        ab = AllocationMatrix.of((0, 0, 0), (0, 1, 1))
        assert utility_of(ab, table) == utility_of(a, table) + utility_of(b, table)

    @given(scale=st.integers(min_value=1, max_value=50))
    def test_positive_scaling_scales_utility(self, scale):
        table = simple_table()
        scaled = make_table(
            {k: v * scale for k, v in table.quality.items()},
            {k: v * scale for k, v in table.cost.items()},
            dict(table.duration), table.time_budget,
            table.subtask_counts, table.agent_count,
        )
        alloc = AllocationMatrix.of((0, 0, 0), (0, 1, 1))
        assert utility_of(alloc, scaled) == scale * utility_of(alloc, table)


class TestFeasible:
    def test_empty_is_feasible(self):
        verdict = feasible(AllocationMatrix(), simple_table())
        assert verdict.feasible

    def test_two_agents_on_one_slot(self):
        verdict = feasible(AllocationMatrix.of((0, 0, 0), (0, 1, 0)), simple_table())
        assert not verdict.feasible
        conflicts = [v for v in verdict.violations if isinstance(v, SlotConflict)]
        assert conflicts == [SlotConflict(0, 0, (0, 1))]

    def test_time_budget_violation(self):
        table = make_table({(0, 0, 0): 1.0}, {(0, 0, 0): 0.0}, {(0, 0, 0): 10.0},
                           5.0, (1,), 1)
        verdict = feasible(AllocationMatrix.of((0, 0, 0)), table)
        assert [type(v) for v in verdict.violations] == [TimeBudgetExceeded]
        assert verdict.violations[0].used == 10.0
        assert verdict.violations[0].budget == 5.0


class TestBruteForce:
    def test_single_option(self):
        table = make_table({(0, 0, 0): 5.0}, {(0, 0, 0): 1.0}, {(0, 0, 0): 1.0},
                           1.0, (1,), 1)
        result = brute_force_allocate([AgentSpec("a")], [TaskSpec("t")], table)
        assert result.allocation.entries == {(0, 0, 0)}
        assert result.utility == 4.0
        assert not result.only_empty_feasible

    def test_picks_the_better_agent(self):
        table = make_table(
            {(0, 0, 0): 3.0, (0, 1, 0): 7.0},
            {(0, 0, 0): 0.0, (0, 1, 0): 0.0},
            {(0, 0, 0): 1.0, (0, 1, 0): 1.0},
            1.0, (1,), 2,
        )
        result = brute_force_allocate([AgentSpec("a0"), AgentSpec("a1")], [TaskSpec("t")], table)
        assert result.allocation.entries == {(0, 1, 0)}

    def test_matches_independent_enumeration_on_grid(self):
        agents = [AgentSpec("a0"), AgentSpec("a1")]
        tasks = [TaskSpec("t", subtask_count=2)]
        table = simple_table()
        expected_utility, expected_entries = enumerate_best(agents, tasks, table)
        result = brute_force_allocate(agents, tasks, table)
        assert result.utility == expected_utility
        assert result.allocation.sorted_entries() == expected_entries

    def test_rejects_oversized_instances(self):
        agents = [AgentSpec(f"a{i}") for i in range(5)]
        tasks = [TaskSpec("t", subtask_count=5, reward=1.0)]
        table = synthetic_utility_table(agents, tasks, time_budget=100.0)
        with pytest.raises(InstanceTooLarge):
            brute_force_allocate(agents, tasks, table)

    def test_flags_when_only_empty_is_feasible(self):
        table = make_table({(0, 0, 0): 5.0}, {(0, 0, 0): 1.0}, {(0, 0, 0): 10.0},
                           1.0, (1,), 1)
        result = brute_force_allocate([AgentSpec("a")], [TaskSpec("t")], table)
        assert result.allocation.entries == frozenset()
        assert result.utility == 0.0
        assert result.only_empty_feasible

    def test_random_instances_match_oracle(self):
        rng = random.Random(2024)
        for trial in range(30):
            n_agents = rng.randint(1, 3)
            n_subtasks = rng.randint(1, 3)
            agents = [AgentSpec(f"a{i}") for i in range(n_agents)]
            tasks = [TaskSpec("t", subtask_count=n_subtasks)]
            quality, cost, duration = {}, {}, {}
            for p, i, m in itertools.product((0,), range(n_agents), range(n_subtasks)):
                if rng.random() < 0.85:  # some triples inexecutable
                    quality[(p, i, m)] = rng.randint(0, 8)
                    cost[(p, i, m)] = rng.randint(0, 4)
                    duration[(p, i, m)] = rng.randint(1, 3)
            table = make_table(quality, cost, duration, rng.randint(2, 6),
                               (n_subtasks,), n_agents)
            expected_utility, expected_entries = enumerate_best(agents, tasks, table)
            result = brute_force_allocate(agents, tasks, table)
            assert result.utility == expected_utility, f"trial {trial}"
            assert result.allocation.sorted_entries() == expected_entries, f"trial {trial}"
            assert feasible(result.allocation, table).feasible

    def test_scaling_preserves_argmax(self):
        agents = [AgentSpec("a0"), AgentSpec("a1")]
        tasks = [TaskSpec("t", subtask_count=2)]
        table = simple_table()
        base = brute_force_allocate(agents, tasks, table)
        scaled_table = make_table(
            {k: 3 * v for k, v in table.quality.items()},
            {k: 3 * v for k, v in table.cost.items()},
            dict(table.duration), table.time_budget,
            table.subtask_counts, table.agent_count,
        )
        scaled = brute_force_allocate(agents, tasks, scaled_table)
        assert scaled.allocation == base.allocation
        assert scaled.utility == 3 * base.utility


class TestSyntheticTableAndJson:
    def test_synthetic_derivation_fields(self):
        agents = [AgentSpec("a", operational_cost=2.0, capability=0.5)]
        tasks = [TaskSpec("t", subtask_count=2, workload=4.0, reward=10.0)]
        table = synthetic_utility_table(agents, tasks, time_budget=5.0)
        assert table.quality[(0, 0, 0)] == 0.5 * 10.0 / 2
        assert table.cost[(0, 0, 1)] == 2.0 * 4.0 / 2

    def test_json_round_trip(self):
        doc = {
            "agents": [{"id": "a0", "operational_cost": 1.5, "capability": 0.8}],
            "tasks": [{"id": "t0", "subtask_count": 2, "workload": 3.0, "reward": 6.0}],
            "quality": {"0/0/0": 4.0, "0/0/1": 2.0},
            "cost": {"0/0/0": 1.0, "0/0/1": 0.5},
            "duration": {"0/0/0": 1.0, "0/0/1": 1.0},
            "t_max": 2.0,
        }
        agents, tasks, table = utility_table_from_json(json.dumps(doc))
        assert agents[0].capability == 0.8
        assert tasks[0].subtask_count == 2
        assert table.can_execute((0, 0, 0))
        assert utility_of(AllocationMatrix.of((0, 0, 0)), table) == 3.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AgentSpec("a", capability=1.5)
        with pytest.raises(ValueError):
            TaskSpec("t", subtask_count=0)
