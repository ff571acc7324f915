"""Job pools, generated inputs and output checks for the benchmark workloads.

A workload turns the benchmark seed into a fixed *pool* of CLI jobs. The
runner times whole passes over the pool, so every pass does the same work
and a run's job mix does not depend on how many passes fit in the time.

Each job's outputs are checked after it ran, outside the timed region. A
check returns a *record* of the simulated statistics (no wall-clock data,
no file formatting), which feeds the pinned digest, and a dict of counts
that feeds the metrics.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
from scipy.optimize import linear_sum_assignment

from allocsim.assignment import BRUTE_FORCE_MAX_N, CostMatrix, brute_force_solve
from allocsim.coordination import ControllerMode, run_episode
from allocsim.kitchen import LevelConfig, load_level
from allocsim.levels import get_level
from allocsim.policies import ScriptedOrchestrator, ScriptedPlanner, ScriptedWorker
from allocsim.seeding import derive_seed


class CheckFailed(Exception):
    """A job's outputs broke an invariant or disagreed with the expected result."""


@dataclass
class Job:
    argv: list[str]
    expect: dict[str, Any] = field(default_factory=dict)


def bench_seed(*labels: Any) -> int:
    """Seed for the benchmark's own input generation, independent of the program's."""
    key = "/".join(str(label) for label in labels)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big") >> 1


def _read_json(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def _write_json(path: Path, payload: Any) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- kitchen ---------------------------------------------------------------------


def _check_episode(out: Path, level: LevelConfig, steps: int, agents: int) -> dict[str, Any]:
    """Invariants of one episode directory; returns its digest record."""
    report = _read_json(out / "report.json")
    mode = report["mode"]
    _require(report["steps"] == steps, f"{mode}: ran {report['steps']} of {steps} steps")
    _require(report["agent_count"] == agents, f"{mode}: agent count {report['agent_count']}")

    kinds = [event["kind"] for event in report["events"]]
    introduced = kinds.count("order_introduced")
    completed = kinds.count("order_completed")
    expired = kinds.count("order_expired")
    live = introduced - completed - expired
    schedule = level.order_schedule
    expected_introduced = sum(1 for s in level.spawn_steps() if s <= steps)
    max_live = math.ceil(schedule.lifetime / schedule.spawn_interval)
    _require(introduced == expected_introduced,
             f"{mode}: {introduced} orders introduced, schedule has {expected_introduced}")
    _require(completed == report["completed_orders"],
             f"{mode}: {completed} completion events, report says {report['completed_orders']}")
    _require(0 <= live <= max_live,
             f"{mode}: introduced {introduced} != completed {completed} + expired {expired} + live {live}")

    with (out / "trace.jsonl").open(encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    hashes = [record["observation_hash"] for record in records[1:]]
    _require(len(hashes) == steps, f"{mode}: trace has {len(hashes)} step records")
    _require(hashes[-1] == report["final_observation_hash"], f"{mode}: final hash differs from trace")

    rows = report["ledger"]["rows"]
    return {
        "mode": mode,
        "steps": report["steps"],
        "introduced": introduced,
        "completed": completed,
        "expired": expired,
        "observation_hashes": hashes,
        "ledger": {
            "rows": len(rows),
            "tokens_in": sum(r["tokens_in"] for r in rows),
            "tokens_out": sum(r["tokens_out"] for r in rows),
            "unpriced": sum(1 for r in rows if r["unpriced"]),
            "total_usd": report["ledger"]["total_usd"],
        },
        "fallbacks": [[f["step"], f["agent"], f["reason"]] for f in report["fallbacks"]],
        "planner_invocations": report["planner_invocations"],
        "replan_failures": report["replan_failures"],
        "final_observation_hash": report["final_observation_hash"],
    }


def _episode_stats(records: list[dict[str, Any]], agents: int) -> dict[str, int]:
    return {
        "work": sum(r["steps"] for r in records),
        "agent_steps": sum(r["steps"] * agents for r in records),
        "fallbacks": sum(len(r["fallbacks"]) for r in records),
    }


class _CapturingPlanner(ScriptedPlanner):
    """Scripted planner that keeps the text of every plan it issued."""

    def __init__(self) -> None:
        self.texts: list[str] = []

    def plan(self, prompt, state, roster, prior, events):
        plan, response = super().plan(prompt, state, roster, prior, events)
        self.texts.append(response.text)
        return plan, response


_PROSE = (
    "Looking at the kitchen state, the most urgent order comes first.",
    "I checked what every agent holds and which tools are free.",
    "The nearest deadline decides what I do next.",
    "Keeping the pipeline moving toward the serving table.",
)
_WORKER_MODELS = ("gpt-4o-mini", "qwen2.5-32b", "llama-3.1-70b")
_ORCHESTRATOR_MODEL = "gpt-4o"
_PLANNER_MODEL = "claude-3.7"
_MALFORMED_RATE = 0.05


class KitchenModel:
    """Model-backed episodes on the stock levels: mock transports replay scripted runs."""

    name = "kitchen-model"
    levels = ("level_1", "level_2", "level_3")
    agent_counts = (2, 4, 6)
    modes = ("individual", "orchestrator", "planner")

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, root: Path) -> list[Job]:
        jobs = []
        for level_id in self.levels:
            for agents in self.agent_counts:
                cli_seed = bench_seed(self.seed, self.name, level_id, agents)
                injected = random.Random(cli_seed).choice(self.modes)
                for mode in self.modes:
                    jobs.append(self._job(root, level_id, agents, cli_seed, mode, mode == injected))
        return jobs

    def warmup(self, jobs: list[Job]) -> Job:
        return jobs[0]

    def _job(self, root: Path, level_id: str, agents: int, cli_seed: int, mode: str,
             injected: bool) -> Job:
        level = get_level(level_id)
        controller = ControllerMode(mode)
        state = load_level(level, agents, derive_seed(cli_seed, "episode", mode))
        roster = state.agent_ids()
        planner = _CapturingPlanner()
        report = run_episode(
            controller, state,
            workers={a: ScriptedWorker() for a in roster},
            central=ScriptedOrchestrator(),
            planner=planner,
        )
        steps = report.steps
        actions = [record["actions"] for record in report.trace]
        rng = random.Random(bench_seed(cli_seed, mode, "script"))
        prefix = root / f"{level_id}-a{agents}-{mode}"

        def entry(text: str, tokens_in: tuple[int, int], tokens_out: tuple[int, int]) -> dict[str, Any]:
            if injected and rng.random() < _MALFORMED_RATE:
                return {"malformed": True}
            return {
                "text": f"{rng.choice(_PROSE)}\n{text}",
                "tokens_in": rng.randint(*tokens_in),
                "tokens_out": rng.randint(*tokens_out),
            }

        def binding(model_id: str, script: list[dict[str, Any]], label: str) -> dict[str, Any]:
            path = _write_json(Path(f"{prefix}-{label}.json"), script)
            return {"kind": "mock", "model_id": model_id, "script": path}

        bindings: dict[str, Any] = {}
        malformed = 0
        if controller is ControllerMode.ORCHESTRATOR:
            script = [entry("\n".join(step[a] for a in roster), (900, 2400), (30, 120))
                      for step in actions]
            malformed = agents * sum(1 for e in script if e.get("malformed"))
            bindings["orchestrator"] = binding(_ORCHESTRATOR_MODEL, script, "orchestrator")
        else:
            workers = []
            for i, agent_id in enumerate(roster):
                script = [entry(f"Action: {step[agent_id]}", (400, 1200), (6, 40)) for step in actions]
                malformed += sum(1 for e in script if e.get("malformed"))
                workers.append(binding(_WORKER_MODELS[i % len(_WORKER_MODELS)], script, agent_id))
            bindings["workers"] = workers
        if controller is ControllerMode.PLANNER:
            idle = "\n".join(f"{a}: idle" for a in roster)
            texts = planner.texts + [idle] * (steps + 1 - len(planner.texts))
            script = [
                {"text": f"{rng.choice(_PROSE)}\n{text}",
                 "tokens_in": rng.randint(1500, 4000), "tokens_out": rng.randint(60, 240)}
                for text in texts
            ]
            bindings["planner"] = binding(_PLANNER_MODEL, script, "planner")
        config = _write_json(Path(f"{prefix}-config.json"), {"bindings": bindings})
        return Job(
            ["kitchen-run", "--seed", str(cli_seed), "--level", level_id,
             "--agents", str(agents), "--mode", mode, "--config", config],
            {"level": level, "steps": steps, "agents": agents, "mode": mode,
             "malformed": malformed, "final_hash": None if injected else report.final_observation_hash},
        )

    def check(self, job: Job, out: Path) -> tuple[dict[str, Any], dict[str, int]]:
        exp = job.expect
        record = _check_episode(out, exp["level"], exp["steps"], exp["agents"])
        fallbacks = record["fallbacks"]
        _require(len(fallbacks) == exp["malformed"],
                 f"{exp['mode']}: {len(fallbacks)} fallbacks for {exp['malformed']} malformed entries")
        _require(all(f[2].startswith("MalformedResponse") for f in fallbacks),
                 f"{exp['mode']}: fallback for a reason other than a malformed response")
        if exp["mode"] == "orchestrator":
            billed = exp["steps"] - exp["malformed"] // exp["agents"]
        else:
            billed = exp["steps"] * exp["agents"] - exp["malformed"] + record["planner_invocations"]
        ledger = record["ledger"]
        _require(ledger["rows"] == billed, f"{exp['mode']}: {ledger['rows']} ledger rows for {billed} billed calls")
        _require(ledger["unpriced"] == 0, f"{exp['mode']}: unpriced ledger rows")
        if exp["final_hash"] is not None:
            _require(record["final_observation_hash"] == exp["final_hash"],
                     f"{exp['mode']}: final observation differs from the scripted recording")
        return record, _episode_stats([record], exp["agents"])


class KitchenLong:
    """Scripted episodes of all three topologies on level_3 stretched to a long horizon."""

    name = "kitchen-long"
    horizon = 960
    agent_counts = (3, 6)
    warmup_budget = 60

    def __init__(self, seed: int):
        self.seed = seed

    def _level(self) -> dict[str, Any]:
        payload = get_level("level_3").to_json_dict()
        payload["level_id"] = f"level_3_t{self.horizon}"
        payload["max_steps"] = self.horizon
        orders = len(range(0, self.horizon, payload["order_schedule"]["spawn_interval"]))
        for loc in payload["locations"]:
            if "stock" in loc:
                # one unit of every stocked ingredient per scheduled order
                loc["stock"] = {item: orders for item in loc["stock"]}
        return payload

    def build(self, root: Path) -> list[Job]:
        payload = self._level()
        path = _write_json(root / "level.json", payload)
        level = LevelConfig.from_json_dict(payload)
        return [
            Job(["kitchen-run", "--seed", str(bench_seed(self.seed, self.name, agents)),
                 "--level", path, "--agents", str(agents), "--mode", "all"],
                {"level": level, "steps": self.horizon, "agents": agents})
            for agents in self.agent_counts
        ]

    def warmup(self, jobs: list[Job]) -> Job:
        job = jobs[0]
        return Job(job.argv + ["--budget", str(self.warmup_budget)],
                   dict(job.expect, steps=self.warmup_budget))

    def check(self, job: Job, out: Path) -> tuple[dict[str, Any], dict[str, int]]:
        exp = job.expect
        records = []
        for mode in ControllerMode:
            record = _check_episode(out / mode.value, exp["level"], exp["steps"], exp["agents"])
            _require(not record["fallbacks"], f"{mode.value}: scripted policy fell back")
            _require(record["ledger"]["rows"] == 0, f"{mode.value}: scripted calls were billed")
            records.append(record)
        return {"episodes": records}, _episode_stats(records, exp["agents"])


# --- assignment --------------------------------------------------------------------

# label -> (valid, optimal, violation kind the grader must report)
ANSWER_LABELS = {
    "optimal": (True, True, None),
    "suboptimal": (True, False, None),
    "duplicate_agent": (False, False, "DuplicateAgent"),
    "unassigned_task": (False, False, "UnassignedTask"),
    "fabricated_cost": (False, False, "FabricatedCost"),
    "no_mapping": (False, False, "MalformedCandidate"),
}


def _optimum(values: np.ndarray) -> tuple[list[int], int]:
    rows, cols = linear_sum_assignment(values)
    return [int(c) for c in cols[np.argsort(rows)]], int(values[rows, cols].sum())


def _answer_text(label: str, values: np.ndarray, rng: random.Random) -> str:
    """A free-form model answer of the given kind for one instance."""
    n = len(values)
    mapping, cost = _optimum(values)
    claimed: int | None = cost
    if label == "no_mapping":
        return "I could not work out an assignment for these tasks."
    if label == "suboptimal":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        for i, j in pairs:
            swapped = list(mapping)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            swapped_cost = int(sum(values[t, a] for t, a in enumerate(swapped)))
            if swapped_cost > cost:
                mapping, claimed = swapped, swapped_cost
                break
        else:
            raise ValueError("no single swap makes this optimum worse")
    elif label == "duplicate_agent":
        i, j = rng.sample(range(n), 2)
        mapping = list(mapping)
        mapping[j] = mapping[i]
        claimed = None
    elif label == "fabricated_cost":
        claimed = cost + rng.randint(1, 9)
    entries: list[int | None] = list(mapping)
    if label == "unassigned_task":
        entries[rng.randrange(n)] = None
        claimed = None
    if rng.random() < 0.5:
        body = {"mapping": entries, "claimed_cost": claimed}
        return f"Final answer: {json.dumps(body)}"
    lines = ["Here is my assignment."]
    lines += [f"task {t} -> agent {a}" for t, a in enumerate(entries) if a is not None]
    if claimed is not None:
        lines.append(f"Total cost: {claimed}")
    return "\n".join(lines)


class AssignEval:
    """`assign-eval` jobs alternating the exact allocator and graded mock answers.

    A mock job pays one canonical solve per instance and a hungarian job two,
    so mock jobs carry twice the instances and the two jobs of a size take
    about as long. With an odd number of sizes, the median job is then the
    middle size's pair rather than a jump between two sizes.
    """

    allocators = {"hungarian": 1, "mock": 2}  # instances per job, in units of ``instances``

    def __init__(self, name: str, seed: int, lo: int, hi: int, sizes: tuple[int, ...],
                 instances: int):
        self.name = name
        self.seed = seed
        self.lo = lo
        self.hi = hi
        self.sizes = sizes
        self.instances = instances

    def _matrices(self, job_seed: int, n: int, count: int) -> list[np.ndarray]:
        # mirrors assignment.generate_instance as assign-eval seeds it
        return [
            np.random.default_rng(derive_seed(job_seed, "instance", i)).integers(
                self.lo, self.hi + 1, size=(n, n))
            for i in range(count)
        ]

    def build(self, root: Path) -> list[Job]:
        answers_needed = len(self.sizes) * self.instances * self.allocators["mock"]
        labels = list(ANSWER_LABELS) * math.ceil(answers_needed / len(ANSWER_LABELS))
        rng = random.Random(bench_seed(self.seed, self.name, "answers"))
        rng.shuffle(labels)
        jobs = []
        for n in self.sizes:
            for allocator, share in self.allocators.items():
                job_seed = bench_seed(self.seed, self.name, n, allocator)
                matrices = self._matrices(job_seed, n, self.instances * share)
                argv = ["assign-eval", "--seed", str(job_seed), "--instances", str(len(matrices)),
                        "--n-min", str(n), "--n-max", str(n), "--lo", str(self.lo),
                        "--hi", str(self.hi), "--allocator", allocator]
                expect: dict[str, Any] = {"n": n, "allocator": allocator, "matrices": matrices}
                if allocator == "mock":
                    job_labels = [labels.pop() for _ in matrices]
                    answers = [_answer_text(label, m, rng) for label, m in zip(job_labels, matrices)]
                    path = _write_json(root / f"answers-n{n}.json", answers)
                    argv += ["--mock-file", path]
                    expect["labels"] = job_labels
                jobs.append(Job(argv, expect))
        return jobs

    def warmup(self, jobs: list[Job]) -> Job:
        return jobs[0]

    def check(self, job: Job, out: Path) -> tuple[dict[str, Any], dict[str, int]]:
        exp = job.expect
        matrices = exp["matrices"]
        instances = _read_json(out / "instances.json")
        _require(len(instances) == len(matrices), f"{len(instances)} instances written")
        for written, values in zip(instances, matrices):
            _require(np.array_equal(np.asarray(written["values"]), values),
                     "instances.json differs from the seeded generator")
        optima = [_optimum(values)[1] for values in matrices]
        score = _read_json(out / "score.json")
        rows = score["per_instance"]
        _require(len(rows) == len(matrices), f"score.json has {len(rows)} rows")
        for row, optimum in zip(rows, optima):
            _require(row["optimal_cost"] == optimum,
                     f"optimal cost {row['optimal_cost']} != scipy optimum {optimum}")
        record: dict[str, Any] = {"allocator": exp["allocator"], "n": exp["n"], "score": score}

        if exp["allocator"] == "hungarian":
            candidates = _read_json(out / "candidates.json")
            mappings = [c["mapping"] for c in candidates]
            for mapping, values, optimum in zip(mappings, matrices, optima):
                _require(sorted(mapping) == list(range(exp["n"])), "candidate is not a permutation")
                cost = int(values[np.arange(exp["n"]), mapping].sum())
                _require(cost == optimum, f"hungarian cost {cost} != scipy optimum {optimum}")
                if exp["n"] <= BRUTE_FORCE_MAX_N:
                    oracle = brute_force_solve(CostMatrix.from_rows(values.tolist()))
                    _require(tuple(mapping) == oracle.mapping, "hungarian mapping is not the lex-min optimum")
            expected = [ANSWER_LABELS["optimal"]] * len(matrices)
            record["mappings"] = mappings
        else:
            expected = [ANSWER_LABELS[label] for label in exp["labels"]]
        for row, (valid, optimal, violation) in zip(rows, expected):
            _require(row["valid"] == valid and row["optimal"] == optimal,
                     f"graded valid={row['valid']} optimal={row['optimal']}, expected {valid}/{optimal}")
            _require(violation is None or violation in row["violations"],
                     f"grader missed {violation}: {row['violations']}")
        total = len(expected)
        _require(score["validity_rate"] == sum(v for v, _, _ in expected) / total, "validity rate")
        _require(score["accuracy"] == sum(o for _, o, _ in expected) / total, "accuracy")
        return record, {"work": total, "valid": sum(row["valid"] for row in rows), "graded": total}


WORKLOADS = {
    KitchenModel.name: KitchenModel,
    KitchenLong.name: KitchenLong,
    "assign-wide": functools.partial(
        AssignEval, "assign-wide", lo=0, hi=99, sizes=tuple(range(8, 65, 7)), instances=3),
    "assign-ties": functools.partial(
        AssignEval, "assign-ties", lo=0, hi=3, sizes=tuple(range(64, 129, 8)), instances=2),
}
