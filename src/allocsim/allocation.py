"""General multi-agent resource allocation over tasks split into subtasks.

An allocation assigns agents to ``(task, subtask)`` slots. Each assigned
triple ``(task, agent, subtask)`` contributes ``quality - cost`` to the
total utility when the agent can execute that slot, and poisons the whole
allocation otherwise. Feasibility requires the summed durations to fit a
time budget and at most one agent per slot.

Instances small enough to enumerate can be solved exactly with
:func:`brute_force_allocate`; there is deliberately no heuristic solver
for larger instances.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Mapping

Triple = tuple[int, int, int]  # (task, agent, subtask)

ENUMERATION_BOUND = 20  # max (total subtasks) * (agent count) for brute force


class InstanceTooLarge(ValueError):
    """Instance exceeds the exhaustive-search bound."""


class IndexOutOfRange(IndexError):
    """A triple references a task/agent/subtask the table does not know."""


@dataclass(frozen=True)
class Inexecutable:
    """Tagged valuation for allocations containing an inexecutable triple.

    Kept distinct from any float so arithmetic can never smuggle it into a
    comparison; compare with ``is INEXECUTABLE``.
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "INEXECUTABLE"


INEXECUTABLE = Inexecutable()


@dataclass(frozen=True)
class AgentSpec:
    """An agent with an operational cost and a proficiency in [0, 1]."""

    id: str
    operational_cost: float = 0.0
    capability: float = 1.0

    def __post_init__(self) -> None:
        if self.operational_cost < 0:
            raise ValueError("operational_cost must be >= 0")
        if not 0.0 <= self.capability <= 1.0:
            raise ValueError("capability must lie in [0, 1]")


@dataclass(frozen=True)
class TaskSpec:
    """A task decomposed into subtasks, with workload and optional reward."""

    id: str
    subtask_count: int = 1
    workload: float = 0.0
    reward: float | None = None

    def __post_init__(self) -> None:
        if self.subtask_count < 1:
            raise ValueError("subtask_count must be >= 1")
        if self.workload < 0:
            raise ValueError("workload must be >= 0")
        if self.reward is not None and self.reward < 0:
            raise ValueError("reward must be >= 0 when given")


@dataclass(frozen=True)
class UtilityTable:
    """Per-triple quality, cost and duration data plus a time budget.

    A triple is executable when it appears in all three maps (an explicit
    ``executable`` set further restricts this if given). Executable
    triples must carry finite entries.
    """

    quality: Mapping[Triple, float]
    cost: Mapping[Triple, float]
    duration: Mapping[Triple, float]
    time_budget: float
    subtask_counts: tuple[int, ...]
    agent_count: int
    executable: frozenset[Triple] | None = None

    def __post_init__(self) -> None:
        if self.time_budget <= 0:
            raise ValueError("time_budget must be > 0")
        for triple in self.executable_triples():
            for name, table in (("quality", self.quality), ("cost", self.cost), ("duration", self.duration)):
                v = table.get(triple)
                if v is None or not isfinite(v):
                    raise ValueError(f"executable triple {triple} lacks a finite {name} entry")
            if self.duration[triple] <= 0:
                raise ValueError(f"duration for {triple} must be > 0")

    def in_range(self, triple: Triple) -> bool:
        task, agent, subtask = triple
        return (
            0 <= task < len(self.subtask_counts)
            and 0 <= agent < self.agent_count
            and 0 <= subtask < self.subtask_counts[task]
        )

    def check_range(self, triple: Triple) -> None:
        if not self.in_range(triple):
            raise IndexOutOfRange(f"triple {triple} out of range for this table")

    def can_execute(self, triple: Triple) -> bool:
        self.check_range(triple)
        present = triple in self.quality and triple in self.cost and triple in self.duration
        if self.executable is not None:
            return present and triple in self.executable
        return present

    def executable_triples(self) -> Iterable[Triple]:
        for triple in self.quality:
            if triple in self.cost and triple in self.duration:
                if self.executable is None or triple in self.executable:
                    yield triple


@dataclass(frozen=True)
class AllocationMatrix:
    """The set of assigned (task, agent, subtask) triples."""

    entries: frozenset[Triple] = frozenset()

    @classmethod
    def of(cls, *entries: Triple) -> "AllocationMatrix":
        return cls(frozenset(entries))

    def sorted_entries(self) -> tuple[Triple, ...]:
        return tuple(sorted(self.entries))


@dataclass(frozen=True)
class TimeBudgetExceeded:
    used: float
    budget: float


@dataclass(frozen=True)
class SlotConflict:
    """More than one agent assigned to the same (task, subtask) slot."""

    task: int
    subtask: int
    agents: tuple[int, ...]


@dataclass(frozen=True)
class FeasibilityVerdict:
    violations: tuple[TimeBudgetExceeded | SlotConflict, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class OptimizationResult:
    allocation: AllocationMatrix
    utility: float
    only_empty_feasible: bool = False


def utility_of(alloc: AllocationMatrix, table: UtilityTable) -> float | Inexecutable:
    """Summed quality-minus-cost of the allocation.

    Any assigned triple the agent cannot execute makes the whole
    allocation worthless (returns :data:`INEXECUTABLE`). Out-of-range
    triples are a structural error, not a valuation.
    """
    total = 0.0
    for triple in alloc.entries:
        if not table.can_execute(triple):
            return INEXECUTABLE
    for triple in alloc.entries:
        total += table.quality[triple] - table.cost[triple]
    return total


def feasible(alloc: AllocationMatrix, table: UtilityTable) -> FeasibilityVerdict:
    """Check the time budget and one-agent-per-slot constraints."""
    violations: list[TimeBudgetExceeded | SlotConflict] = []

    slots: dict[tuple[int, int], list[int]] = {}
    used = 0.0
    for task, agent, subtask in sorted(alloc.entries):
        table.check_range((task, agent, subtask))
        slots.setdefault((task, subtask), []).append(agent)
        used += table.duration.get((task, agent, subtask), 0.0)

    if used > table.time_budget:
        violations.append(TimeBudgetExceeded(used, table.time_budget))
    for (task, subtask), agents in sorted(slots.items()):
        if len(agents) > 1:
            violations.append(SlotConflict(task, subtask, tuple(agents)))
    return FeasibilityVerdict(tuple(violations))


def brute_force_allocate(
    agents: list[AgentSpec], tasks: list[TaskSpec], table: UtilityTable
) -> OptimizationResult:
    """Exhaustively find the feasible allocation of maximum utility.

    The empty allocation (utility 0) is always feasible, so a result is
    always returned; ``only_empty_feasible`` flags instances where every
    nonempty allocation is infeasible. Ties break toward the
    lexicographically smallest sorted entry set.
    """
    slots = [(p, m) for p, task in enumerate(tasks) for m in range(task.subtask_count)]
    if len(slots) * len(agents) > ENUMERATION_BOUND:
        raise InstanceTooLarge(
            f"{len(slots)} subtasks x {len(agents)} agents exceeds bound {ENUMERATION_BOUND}"
        )

    # per slot: leave it unassigned, or give it one agent
    choices_per_slot = [
        [None] + [i for i in range(len(agents)) if table.can_execute((p, i, m))]
        for (p, m) in slots
    ]

    best_entries: tuple[Triple, ...] = ()
    best_utility = 0.0
    saw_nonempty_feasible = False
    for combo in itertools.product(*choices_per_slot):
        entries = tuple(
            (p, agent, m)
            for (p, m), agent in zip(slots, combo)
            if agent is not None
        )
        if not entries:
            continue
        duration = sum(table.duration[t] for t in entries)
        if duration > table.time_budget:
            continue
        saw_nonempty_feasible = True
        utility = sum(table.quality[t] - table.cost[t] for t in entries)
        entries = tuple(sorted(entries))
        # the empty tuple is lexicographically smallest, so utility ties keep it
        if utility > best_utility or (utility == best_utility and entries < best_entries):
            best_entries = entries
            best_utility = utility

    return OptimizationResult(
        allocation=AllocationMatrix(frozenset(best_entries)),
        utility=best_utility,
        only_empty_feasible=not saw_nonempty_feasible,
    )


def synthetic_utility_table(
    agents: list[AgentSpec],
    tasks: list[TaskSpec],
    time_budget: float,
    duration: float = 1.0,
) -> UtilityTable:
    """Derive a utility table from agent/task fields, for tests and demos.

    The derivation is synthetic: quality is the agent's capability times
    the task's per-subtask reward, cost is the agent's operational cost
    times the per-subtask workload. Real deployments supply measured
    tables instead.
    """
    quality: dict[Triple, float] = {}
    cost: dict[Triple, float] = {}
    durations: dict[Triple, float] = {}
    for p, task in enumerate(tasks):
        reward = task.reward if task.reward is not None else 0.0
        for i, agent in enumerate(agents):
            for m in range(task.subtask_count):
                triple = (p, i, m)
                quality[triple] = agent.capability * reward / task.subtask_count
                cost[triple] = agent.operational_cost * task.workload / task.subtask_count
                durations[triple] = duration
    return UtilityTable(
        quality=quality,
        cost=cost,
        duration=durations,
        time_budget=time_budget,
        subtask_counts=tuple(t.subtask_count for t in tasks),
        agent_count=len(agents),
    )


# --- JSON loading -----------------------------------------------------------


def _parse_triple(key: str) -> Triple:
    parts = key.split("/")
    if len(parts) != 3:
        raise ValueError(f"triple key {key!r} is not of the form 'p/i/m'")
    p, i, m = (int(x) for x in parts)
    return (p, i, m)


def utility_table_from_json(text: str) -> tuple[list[AgentSpec], list[TaskSpec], UtilityTable]:
    """Load agents, tasks and a utility table from a JSON document.

    Top-level keys: ``agents``, ``tasks``, ``quality``, ``cost``,
    ``duration``, ``t_max`` and optionally ``executable``. Triple keys are
    ``"p/i/m"`` strings.
    """
    payload = json.loads(text)
    agents = [
        AgentSpec(
            id=a["id"],
            operational_cost=a.get("operational_cost", 0.0),
            capability=a.get("capability", 1.0),
        )
        for a in payload["agents"]
    ]
    tasks = [
        TaskSpec(
            id=t["id"],
            subtask_count=t.get("subtask_count", 1),
            workload=t.get("workload", 0.0),
            reward=t.get("reward"),
        )
        for t in payload["tasks"]
    ]
    executable = None
    if "executable" in payload:
        executable = frozenset(_parse_triple(k) for k in payload["executable"])
    table = UtilityTable(
        quality={_parse_triple(k): float(v) for k, v in payload["quality"].items()},
        cost={_parse_triple(k): float(v) for k, v in payload["cost"].items()},
        duration={_parse_triple(k): float(v) for k, v in payload["duration"].items()},
        time_budget=float(payload["t_max"]),
        subtask_counts=tuple(t.subtask_count for t in tasks),
        agent_count=len(agents),
        executable=executable,
    )
    return agents, tasks, table
