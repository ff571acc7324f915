"""Square assignment problems: instance generation, solvers, and scoring.

The core object is a square cost matrix where entry ``(i, j)`` is the cost
of agent ``j`` doing task ``i``. Two solvers are provided with identical
contracts:

* :func:`hungarian_solve` -- O(n^3): one
  ``scipy.optimize.linear_sum_assignment`` call (Crouse, 2016) for an
  optimal matching, shortest paths on that matching for optimal duals,
  then a lexicographically smallest perfect matching of the tight-edge
  subgraph, whose perfect matchings are exactly the optimal assignments
  (Burkard, Dell'Amico & Martello, *Assignment Problems*, SIAM 2009).
  That last walk runs on Python-int bitsets of the tight edges, one per
  task and one per agent;
* :func:`brute_force_solve` -- exhaustive permutation enumeration, usable
  as an independent oracle for small ``n``.

Both return the lexicographically smallest mapping among cost-equal
optima, so cross-checking can compare mappings and not just costs.

:func:`validate` and :func:`score_batch` grade arbitrary candidate
assignments (e.g. parsed from model output) for validity and optimality.
A candidate is never an error: malformed input turns into violations.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .jsonout import dumps_indented

BRUTE_FORCE_MAX_N = 9


class InstanceTooLarge(ValueError):
    """Raised when a matrix exceeds the enumeration bound of an oracle."""


@dataclass(frozen=True)
class CostMatrix:
    """Square matrix of non-negative task-agent costs.

    ``values[i][j]`` is the cost of assigning agent ``j`` to task ``i``.
    Equality, hashing and the repr come from ``values`` alone. ``values``
    may also be given as a 2-D numpy array: it is checked once, and stored
    as ``tuple(map(tuple, array.tolist()))``, so the matrix equals
    ``CostMatrix.from_rows(array.tolist())``.
    """

    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        given = self.values
        if isinstance(given, np.ndarray):
            object.__setattr__(self, "values", tuple(map(tuple, given.tolist())))
        n = len(self.values)
        if n == 0:
            raise ValueError("cost matrix must be non-empty")
        try:
            array = np.asarray(given)  # an array comes back as itself
        except (TypeError, ValueError, OverflowError):  # ragged or unconvertible rows
            array = None
        if (
            array is not None
            and array.shape == (n, n)
            and array.dtype.kind in "biuf"
            and np.isfinite(array).all()
            and (array >= 0).all()
        ):
            # ``tolist`` of an integer array gives exactly ``int`` entries,
            # which dump_instances then writes without looking at each one
            object.__setattr__(self, "_int_entries", array is given and array.dtype.kind in "iu")
            # the checked array is what the solvers read, so a private copy is kept
            array = array.astype(float)
            array.flags.writeable = False
            object.__setattr__(self, "_array", array)
            return
        object.__setattr__(self, "_int_entries", False)
        object.__setattr__(self, "_array", None)
        # anything else is judged entry by entry, which also names the first
        # bad entry in the error
        for row in self.values:
            if len(row) != n:
                raise ValueError("cost matrix must be square")
            for v in row:
                if not np.isfinite(v) or v < 0:
                    raise ValueError(f"cost entries must be finite and >= 0, got {v!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "CostMatrix":
        return cls(tuple(tuple(row) for row in rows))

    def as_array(self) -> np.ndarray:
        """The costs as a read-only float array."""
        if self._array is not None:
            return self._array
        array = np.asarray(self.values, dtype=float)
        array.flags.writeable = False
        return array

    def cost_of(self, mapping: Sequence[int]) -> float:
        """Total cost of a permutation mapping (task i -> agent mapping[i])."""
        total = 0.0
        for task, agent in enumerate(mapping):
            total += self.values[task][agent]
        return total

    def to_json_dict(self) -> dict[str, Any]:
        return {"n": self.n, "values": [list(row) for row in self.values]}


@dataclass(frozen=True)
class Assignment:
    """A task->agent bijection together with its total cost."""

    mapping: tuple[int, ...]
    total_cost: float

    def to_json_dict(self) -> dict[str, Any]:
        return {"mapping": list(self.mapping), "total_cost": self.total_cost}


# --- violations -------------------------------------------------------------


@dataclass(frozen=True)
class DuplicateAgent:
    """One agent was assigned to more than one task."""

    agent: int
    tasks: tuple[int, ...]


@dataclass(frozen=True)
class UnassignedTask:
    """A task ended up without a dedicated agent.

    Fires for tasks with a missing/unusable entry and for the later
    occurrences of a duplicated agent (the agent can only actually serve
    the first task it was given).
    """

    task: int


@dataclass(frozen=True)
class FabricatedCost:
    """The claimed total cost disagrees with the recomputed one."""

    claimed: float
    actual: float


@dataclass(frozen=True)
class MalformedCandidate:
    """The candidate is structurally unusable (wrong length, bad entries)."""

    reason: str


Violation = DuplicateAgent | UnassignedTask | FabricatedCost | MalformedCandidate


@dataclass(frozen=True)
class ValidityReport:
    violations: tuple[Violation, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {type(v).__name__ for v in self.violations}


@dataclass(frozen=True)
class Candidate:
    """A raw candidate assignment, typically parsed from model output.

    ``mapping`` entries may be anything; ``None`` marks an explicitly
    unassigned task. ``claimed_cost`` is the cost the candidate stated for
    itself, if any; ``raw_text`` preserves the unparsed source.
    """

    mapping: tuple[Any, ...] | None
    claimed_cost: float | None = None
    raw_text: str | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "mapping": None if self.mapping is None else list(self.mapping),
            "claimed_cost": self.claimed_cost,
            "raw_text": self.raw_text,
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "Candidate":
        mapping = payload.get("mapping")
        return cls(
            mapping=None if mapping is None else tuple(mapping),
            claimed_cost=payload.get("claimed_cost"),
            raw_text=payload.get("raw_text"),
        )


@dataclass(frozen=True)
class InstanceScore:
    valid: bool
    optimal: bool
    candidate_cost: float | None
    optimal_cost: float
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class BatchScore:
    accuracy: float
    validity_rate: float
    per_instance: tuple[InstanceScore, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "accuracy": self.accuracy,
            "validity_rate": self.validity_rate,
            "per_instance": [
                {
                    "valid": s.valid,
                    "optimal": s.optimal,
                    "candidate_cost": s.candidate_cost,
                    "optimal_cost": s.optimal_cost,
                    "violations": [type(v).__name__ for v in s.violations],
                }
                for s in self.per_instance
            ],
        }


# --- operations -------------------------------------------------------------


def generate_instance(n: int, seed: int, lo: int = 0, hi: int = 99) -> CostMatrix:
    """Generate an n x n matrix of uniform integer costs in [lo, hi].

    Deterministic for a fixed ``(n, seed, lo, hi)`` tuple.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if lo < 0:
        raise ValueError("lo must be >= 0")
    if lo > hi:
        raise ValueError("need lo <= hi")
    rng = np.random.default_rng(seed)
    return CostMatrix(rng.integers(lo, hi + 1, size=(n, n)))


def _agent_potentials(values: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Shortest-path potentials on the agent graph of an optimal matching.

    Edge ``cols[i] -> j`` weighs ``values[i, j] - values[i, cols[i]]``: task
    ``i`` hands its agent over and takes ``j``. An optimal matching leaves
    no negative cycle, so Bellman-Ford from a zero start converges within
    n rounds; the cap only stops it when float rounding leaves a cycle a
    few ulps below zero.
    """
    n = len(cols)
    weights = values - values[np.arange(n), cols][:, None]
    d = np.zeros(n)
    for _ in range(n + 1):
        relaxed = np.minimum(d, (d[cols][:, None] + weights).min(axis=0))
        if np.array_equal(relaxed, d):
            break
        d = relaxed
    return d


def _bitsets(tight: np.ndarray) -> list[int]:
    """Row i of a boolean matrix as a Python int whose bit j is ``tight[i, j]``."""
    packed = np.packbits(tight, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def _lex_min_matching(tight: np.ndarray, cols: np.ndarray) -> list[int]:
    """Lexicographically smallest perfect matching of ``tight``.

    ``cols`` is a perfect matching inside ``tight`` (task i -> agent
    cols[i]). Each task in turn takes the smallest agent that leaves a
    perfect matching for the later tasks. That is an agent from which an
    alternating path over later tasks leads back to the task's current
    agent; a reverse breadth-first search finds it, and stops early once
    it reaches the smallest agent the task could take. Tight edges are
    held as Python-int bitsets, one per task and one per agent.
    """
    n = len(cols)
    agents_of = _bitsets(tight)  # bit a of agents_of[t]: task t may take agent a
    tasks_of = _bitsets(tight.T)  # bit t of tasks_of[a]: the same edge, seen from a
    cols = cols.tolist()
    row_of = [0] * n
    for task, agent in enumerate(cols):
        row_of[agent] = task
    all_tasks = (1 << n) - 1
    free = all_tasks  # agents no earlier task has fixed
    for task in range(n):
        current = cols[task]
        below = agents_of[task] & free & ((1 << current) - 1)
        if below:
            # reached: some later task can give up that agent, and the tasks
            # along the way shift so that the chain ends at ``current``;
            # nxt[a] is the agent that a's task moves to
            goal = (below & -below).bit_length() - 1
            reached = 1 << current
            nxt: dict[int, int] = {}
            unvisited = all_tasks >> (task + 1) << (task + 1)
            queue = [current]
            for b in queue:  # the queue grows while it is read
                hits = tasks_of[b] & unvisited
                if not hits:
                    continue
                unvisited ^= hits
                while hits:
                    low = hits & -hits
                    hits ^= low
                    a = cols[low.bit_length() - 1]
                    nxt[a] = b
                    reached |= 1 << a
                    queue.append(a)
                if reached >> goal & 1 or not unvisited:
                    break
            found = reached & below
            if found:
                agent, mover = (found & -found).bit_length() - 1, task
                while True:
                    held_by = row_of[agent]
                    cols[mover], row_of[agent] = agent, mover
                    if agent == current:
                        break
                    agent, mover = nxt[agent], held_by
        free ^= 1 << cols[task]
    return cols


def hungarian_solve(matrix: CostMatrix) -> Assignment:
    """Minimum-cost assignment; lexicographically smallest among optima.

    One ``scipy.optimize.linear_sum_assignment`` call (Crouse's
    shortest-augmenting-path solver, 2016) gives an optimal matching.
    Shortest paths on that matching's agent graph give optimal duals, and
    for any optimal dual the optimal assignments are exactly the perfect
    matchings of the tight-edge subgraph (Burkard, Dell'Amico & Martello,
    *Assignment Problems*, SIAM 2009). A greedy walk over that subgraph
    fixes each task in turn to the smallest agent that still admits a
    perfect matching of the later tasks, which selects the
    lexicographically smallest optimal mapping in O(n^3). The walk reads
    the tight edges as Python-int bitsets (one per task, one per agent),
    so a task with no free tight agent below its current one costs a few
    word operations.
    """
    values = matrix.as_array()
    rows, cols = linear_sum_assignment(values)
    matched = values[rows, cols]
    optimum = float(matched.sum())
    d = _agent_potentials(values, cols)
    u = matched - d[cols]
    # integer matrices make the reduced costs exact; float inputs get a
    # tolerance to absorb summation order
    tight = values - u[:, None] - d[None, :] <= 1e-9 * max(1.0, abs(optimum))
    mapping = _lex_min_matching(tight, cols)
    return Assignment(tuple(mapping), matrix.cost_of(mapping))


_PERM_CACHE: dict[int, np.ndarray] = {}


def _permutations(n: int) -> np.ndarray:
    """All permutations of range(n) in lexicographic order, shape (n!, n)."""
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return _PERM_CACHE[n]


def brute_force_solve(matrix: CostMatrix) -> Assignment:
    """Exhaustive oracle with the same contract as :func:`hungarian_solve`.

    Enumerates all n! permutations (n <= 9). Lexicographic tie-breaking
    falls out of enumerating permutations in lexicographic order and
    keeping the first minimum.
    """
    n = matrix.n
    if n > BRUTE_FORCE_MAX_N:
        raise InstanceTooLarge(f"n={n} exceeds brute-force bound {BRUTE_FORCE_MAX_N}")
    values = matrix.as_array()
    perms = _permutations(n)
    costs = values[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(costs))  # argmin returns the first (lex-smallest) minimum
    mapping = tuple(int(a) for a in perms[best])
    return Assignment(mapping, matrix.cost_of(mapping))


def validate(matrix: CostMatrix, candidate: Candidate) -> ValidityReport:
    """Grade a candidate against the matrix; garbage yields violations.

    Checks the three failure classes of interest: an agent assigned to
    several tasks, tasks left without an agent, and a claimed total cost
    that does not match recomputation. Structural garbage (missing
    mapping, wrong length, non-integer or out-of-range entries) is
    additionally flagged as :class:`MalformedCandidate`.
    """
    n = matrix.n
    violations: list[Violation] = []

    mapping = candidate.mapping
    if mapping is None:
        violations.append(MalformedCandidate("no mapping"))
        violations.extend(UnassignedTask(t) for t in range(n))
        return ValidityReport(tuple(violations))

    if len(mapping) != n:
        violations.append(
            MalformedCandidate(f"mapping has length {len(mapping)}, expected {n}")
        )

    seen: dict[int, int] = {}  # agent -> first task
    duplicate_tasks: dict[int, list[int]] = {}
    for task in range(n):
        entry = mapping[task] if task < len(mapping) else None
        if entry is None:
            violations.append(UnassignedTask(task))
            continue
        if isinstance(entry, bool) or not isinstance(entry, (int, np.integer)):
            violations.append(MalformedCandidate(f"task {task}: entry {entry!r} is not an agent index"))
            violations.append(UnassignedTask(task))
            continue
        agent = int(entry)
        if not 0 <= agent < n:
            violations.append(MalformedCandidate(f"task {task}: agent {agent} out of range"))
            violations.append(UnassignedTask(task))
            continue
        if agent in seen:
            duplicate_tasks.setdefault(agent, [seen[agent]]).append(task)
            # the agent can only actually serve its first task
            violations.append(UnassignedTask(task))
        else:
            seen[agent] = task
    for agent, tasks in duplicate_tasks.items():
        violations.append(DuplicateAgent(agent, tuple(tasks)))

    if not violations and candidate.claimed_cost is not None:
        actual = matrix.cost_of([int(a) for a in mapping])
        if abs(candidate.claimed_cost - actual) > 1e-9:
            violations.append(FabricatedCost(candidate.claimed_cost, actual))

    return ValidityReport(tuple(violations))


def score_batch(
    instances: Sequence[CostMatrix],
    candidates: Sequence[Candidate],
    strict_mapping: bool = False,
    references: Sequence[Assignment] | None = None,
) -> BatchScore:
    """Score candidates for validity and optimality, instance by instance.

    A candidate is optimal when it is valid and its recomputed cost equals
    the Hungarian optimum. With ``strict_mapping`` the mapping must equal
    the canonical optimal mapping exactly, which treats non-unique optima
    as wrong (a stricter, ground-truth-replay criterion).

    ``references`` are the :func:`hungarian_solve` results of ``instances``
    when the caller already has them; without them each instance is solved
    here.
    """
    if len(instances) != len(candidates):
        raise ValueError(
            f"got {len(instances)} instances but {len(candidates)} candidates"
        )
    if references is None:
        references = [hungarian_solve(matrix) for matrix in instances]
    elif len(references) != len(instances):
        raise ValueError(
            f"got {len(instances)} instances but {len(references)} references"
        )
    rows: list[InstanceScore] = []
    n_valid = 0
    n_optimal = 0
    for matrix, candidate, reference in zip(instances, candidates, references):
        report = validate(matrix, candidate)
        if report.is_valid:
            assert candidate.mapping is not None
            mapping = [int(a) for a in candidate.mapping]
            cost = matrix.cost_of(mapping)
            if strict_mapping:
                optimal = tuple(mapping) == reference.mapping
            else:
                optimal = abs(cost - reference.total_cost) <= 1e-9
            n_valid += 1
            n_optimal += int(optimal)
            rows.append(InstanceScore(True, optimal, cost, reference.total_cost))
        else:
            rows.append(
                InstanceScore(False, False, None, reference.total_cost, report.violations)
            )
    total = len(rows)
    return BatchScore(
        accuracy=n_optimal / total if total else 0.0,
        validity_rate=n_valid / total if total else 0.0,
        per_instance=tuple(rows),
    )


# --- candidate parsing ------------------------------------------------------

_JSON_OBJECT = re.compile(r"\{[^{}]*\}", re.DOTALL)
_PAIR = re.compile(r"task\s*(\d+)\s*(?:->|:|→|=)\s*(?:agent\s*)?(\d+)", re.IGNORECASE)
_COST = re.compile(r"(?:total\s+)?cost\s*(?:is|=|:)?\s*(\d+(?:\.\d+)?)", re.IGNORECASE)


def parse_candidate_text(text: str, n: int) -> Candidate:
    """Extract a candidate mapping and claimed cost from free-form text.

    Accepts either an embedded JSON object with a ``mapping`` list or
    ``task i -> agent j`` pairs; the last statement about a task wins.
    Anything unparseable yields a candidate with ``mapping=None``, which
    :func:`validate` then flags rather than raising.
    """
    for blob in _JSON_OBJECT.findall(text):
        try:
            payload = json.loads(blob)
        except json.JSONDecodeError:
            continue
        if isinstance(payload, dict) and isinstance(payload.get("mapping"), list):
            return Candidate(
                mapping=tuple(payload["mapping"]),
                claimed_cost=payload.get("claimed_cost", payload.get("total_cost")),
                raw_text=text,
            )

    pairs = _PAIR.findall(text)
    claimed = None
    cost_match = _COST.search(text)
    if cost_match:
        claimed = float(cost_match.group(1))
    if pairs:
        entries: list[Any] = [None] * n
        for task_s, agent_s in pairs:
            task = int(task_s)
            if 0 <= task < n:
                entries[task] = int(agent_s)
        return Candidate(tuple(entries), claimed, text)
    return Candidate(None, claimed, text)


# --- serialization ----------------------------------------------------------


def dump_instances(instances: Iterable[CostMatrix]) -> str:
    """``json.dumps([m.to_json_dict() ...], indent=2, sort_keys=True)``, byte for byte.

    A non-empty batch of matrices built from integer arrays, whose entries
    are known to be exactly ``int``, is written with one ``"%d"`` row
    format per matrix and its entries are not looked at. Anything else
    goes through :func:`.jsonout.dumps_indented`, which gives the same text.
    """
    instances = list(instances)
    if not instances or not all(m._int_entries for m in instances):
        return dumps_indented([m.to_json_dict() for m in instances])
    entry_sep = ",\n        "
    rows_sep = "\n      ],\n      [\n        "
    blocks = []
    for m in instances:
        rows = map(entry_sep.join(["%d"] * m.n).__mod__, m.values)
        blocks.append(
            f'  {{\n    "n": {m.n},\n    "values": [\n      [\n        '
            + rows_sep.join(rows)
            + "\n      ]\n    ]\n  }"
        )
    return "[\n" + ",\n".join(blocks) + "\n]"


def dump_candidates(candidates: Iterable[Candidate]) -> str:
    """``json.dumps([c.to_json_dict() ...], indent=2, sort_keys=True)``, byte for byte."""
    return dumps_indented([c.to_json_dict() for c in candidates])
