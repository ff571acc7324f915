"""Experiment runner CLI.

Subcommands:

* ``assign-eval`` -- generate assignment instances, run an allocator over
  them, and score validity/accuracy against the optimal solver;
* ``kitchen-run`` -- run kitchen episodes under one coordination mode, or
  under all three one after another (``--mode all``), and emit traces and
  reports;
* ``capability-sweep`` -- paired on-the-fly vs informed planner runs over
  a worker roster, sharing seeds;
* ``replay`` -- re-execute a trace file and verify that every step's
  actions, results, events and observation hash match the recording.

Runs are configured by a JSON file (``--config``) with per-flag keys;
explicit flags win over the file. All randomness derives from the single
``--seed`` via labelled paths, so any sub-run is reproducible on its own.

Exit codes: 0 on success, 1 when ``replay`` finds a mismatch, 2 on a
configuration error (bad flag value, config file, binding spec, mock
script, mock file, level file or trace line; a ``kind: model`` binding
without an endpoint or with its auth variable unset), reported as one
``error:`` line on stderr. ``kitchen-run --mode all`` builds every mode's
bindings before its first episode, so a bad binding writes no artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import assignment as asg
from .accounting import capability_hint
from .coordination import ControllerMode, EpisodeReport, parse_action, run_episode
from .gateway import ModelBinding, install_mock
from .kitchen import (
    MAX_AGENTS,
    MIN_AGENTS,
    EpisodeOver,
    LevelConfig,
    MalformedLevel,
    Noop,
    load_level,
    observation_hash,
    step as kitchen_step,
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


class ConfigError(ValueError):
    pass


def _dump_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _jsonl_line(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _read_json(path: Path, what: str) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}")
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")


def _merge_config(args: argparse.Namespace, keys: Sequence[str]) -> dict[str, Any]:
    """File values fill in whatever the command line left unset."""
    merged: dict[str, Any] = {}
    file_conf: dict[str, Any] = {}
    if getattr(args, "config", None):
        file_conf = _read_json(Path(args.config), "config file")
        if not isinstance(file_conf, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    for key in keys:
        flag_value = getattr(args, key, None)
        merged[key] = flag_value if flag_value is not None else file_conf.get(key)
    merged["bindings"] = file_conf.get("bindings", {})
    return merged


def _require(conf: Mapping[str, Any], key: str, kind: type, where: str) -> Any:
    value = conf.get(key)
    if value is None:
        raise ConfigError(f"{where}: missing required setting {key!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: setting {key!r} must be {kind.__name__}, got {value!r}")


def _int_or(conf: Mapping[str, Any], key: str, default: int | None, where: str) -> int | None:
    return default if conf.get(key) is None else _require(conf, key, int, where)


def _load_level_config(spec: str) -> LevelConfig:
    if spec in BUILTIN_LEVELS:
        return get_level(spec)
    path = Path(spec)
    if not path.exists():
        raise ConfigError(
            f"level {spec!r} is neither a built-in ({sorted(BUILTIN_LEVELS)}) nor a file"
        )
    try:
        return LevelConfig.from_json_dict(_read_json(path, "level file"))
    except MalformedLevel as exc:
        raise ConfigError(f"level file {path}: {exc}")


# --- binding construction ----------------------------------------------------

_SCRIPTED = {"worker": ScriptedWorker, "orchestrator": ScriptedOrchestrator, "planner": ScriptedPlanner}
_GATEWAY = {"worker": GatewayWorker, "orchestrator": GatewayOrchestrator, "planner": GatewayPlanner}


def _flaky_worker(rate: Any, seed: int, label: str) -> FlakyWorker:
    try:
        return FlakyWorker(ScriptedWorker(), float(rate), derive_seed(seed, "flaky", label))
    except (TypeError, ValueError):
        raise ConfigError(f"worker failure rate must be a number in [0, 1], got {rate!r}")


def _policy_from_spec(role: str, spec: Any, seed: int = 0, label: str = "") -> Any:
    """The policy for one role ("worker", "orchestrator" or "planner") from its spec.

    A spec is ``None`` or ``"scripted"``, or a mapping whose ``kind`` is
    ``scripted``, ``model`` or ``mock``. Workers also take ``"scripted:<rate>"``
    and ``kind: flaky``, whose failures are seeded from ``seed`` and ``label``.
    """
    where = f"{role} binding"
    if spec is None or spec == "scripted":
        return _SCRIPTED[role]()
    if role == "worker" and isinstance(spec, str) and spec.startswith("scripted:"):
        return _flaky_worker(spec.split(":", 1)[1], seed, label)
    kind = spec.get("kind", "scripted") if isinstance(spec, Mapping) else None
    if kind == "scripted":
        return _SCRIPTED[role]()
    if role == "worker" and kind == "flaky":
        return _flaky_worker(spec.get("failure_rate", 0.0), seed, label)
    if kind not in ("model", "mock"):
        raise ConfigError(f"unintelligible {role} spec {spec!r}")
    model_id = _require(spec, "model_id", str, where)
    max_retries = _int_or(spec, "max_retries", 2, where)
    try:
        binding = ModelBinding(
            model_id=model_id,
            endpoint_url=spec.get("endpoint_url", ""),
            auth_env_var=spec.get("auth_env_var", ""),
            max_retries=max_retries,
        )
    except ValueError as exc:  # a negative max_retries
        raise ConfigError(f"{where}: {exc}")
    if kind == "model":
        # caught here, these would fail every call of the episode
        if not binding.endpoint_url:
            raise ConfigError(f"{where}: setting 'endpoint_url' is empty")
        if not binding.auth_env_var or binding.auth_env_var not in os.environ:
            raise ConfigError(f"{where}: auth environment variable {binding.auth_env_var!r} is not set")
    transport = None
    if kind == "mock":
        path = Path(_require(spec, "script", str, where))
        try:
            transport = install_mock(_read_json(path, "mock script"))
        except TypeError as exc:  # not a list of entries, or an unknown entry key
            raise ConfigError(f"mock script {path}: {exc}")
    return _GATEWAY[role](binding, transport)


def _build_workers(specs: Any, roster: Sequence[str], seed: int) -> dict[str, Any]:
    """One worker per agent; a list of specs is dealt round-robin over the roster."""
    pool = (specs or [None]) if isinstance(specs, list) else [specs]
    return {
        agent_id: _policy_from_spec("worker", pool[i % len(pool)], seed, agent_id)
        for i, agent_id in enumerate(roster)
    }


# --- assign-eval ---------------------------------------------------------------


def _greedy_candidate(matrix: asg.CostMatrix) -> asg.Candidate:
    """Row-by-row greedy: each task takes its cheapest still-free agent."""
    taken: set[int] = set()
    mapping: list[int] = []
    for task in range(matrix.n):
        best = min(
            (a for a in range(matrix.n) if a not in taken),
            key=lambda a: (matrix.values[task][a], a),
        )
        taken.add(best)
        mapping.append(best)
    cost = matrix.cost_of(mapping)
    return asg.Candidate(tuple(mapping), cost, raw_text=f"greedy mapping {mapping}, cost {cost}")


def _allocate(matrix: asg.CostMatrix, allocator: str, rng: np.random.Generator,
              mock_pool: list[Any] | None, solved: asg.Assignment) -> asg.Candidate:
    """One candidate for ``matrix``; ``solved`` is its optimal assignment."""
    if allocator == "hungarian":
        return asg.Candidate(
            solved.mapping, solved.total_cost,
            raw_text=f"mapping {list(solved.mapping)}, cost {solved.total_cost}",
        )
    if allocator == "greedy":
        return _greedy_candidate(matrix)
    if allocator == "random":
        mapping = tuple(int(x) for x in rng.permutation(matrix.n))
        return asg.Candidate(mapping, matrix.cost_of(mapping), raw_text=str(mapping))
    if allocator == "mock":
        if not mock_pool:
            raise ConfigError("mock allocator ran out of scripted candidates")
        entry = mock_pool.pop(0)
        if isinstance(entry, str):
            return asg.parse_candidate_text(entry, matrix.n)
        return asg.Candidate.from_json_dict(entry)
    raise ConfigError(f"unknown allocator {allocator!r}")


def _load_mock_pool(path: Path) -> list[Any]:
    """Canned candidates: free-form answer strings or candidate JSON objects."""
    pool = _read_json(path, "mock file")
    if not isinstance(pool, list):
        raise ConfigError(f"mock file {path} must hold a JSON list")
    for index, entry in enumerate(pool):
        if isinstance(entry, str):
            continue
        if not isinstance(entry, dict):
            raise ConfigError(f"mock file {path}: entry {index} must be a string or an object")
        if not isinstance(entry.get("mapping"), (list, type(None))):
            raise ConfigError(f"mock file {path}: entry {index}: 'mapping' must be a list or null")
        cost = entry.get("claimed_cost")
        if isinstance(cost, bool) or not isinstance(cost, (int, float, type(None))):
            raise ConfigError(f"mock file {path}: entry {index}: 'claimed_cost' must be a number or null")
    return pool


def cmd_assign_eval(args: argparse.Namespace) -> int:
    conf = _merge_config(
        args, ["seed", "instances", "n_min", "n_max", "lo", "hi", "allocator", "output", "strict_mapping", "mock_file"]
    )
    seed = _require(conf, "seed", int, "assign-eval")
    count = _require(conf, "instances", int, "assign-eval")
    n_min = _int_or(conf, "n_min", 2, "assign-eval")
    n_max = _int_or(conf, "n_max", 8, "assign-eval")
    lo = _int_or(conf, "lo", 0, "assign-eval")
    hi = _int_or(conf, "hi", 99, "assign-eval")
    allocator = conf.get("allocator") or "hungarian"
    strict = bool(conf.get("strict_mapping"))
    output = Path(_require(conf, "output", str, "assign-eval"))
    if count < 1:
        raise ConfigError("assign-eval: instances must be >= 1")
    if not 1 <= n_min <= n_max:
        raise ConfigError(f"assign-eval: bad n range [{n_min}, {n_max}]")
    if not 0 <= lo <= hi < 2**63:  # numpy draws the costs as int64
        raise ConfigError(f"assign-eval: bad cost range [{lo}, {hi}]; need 0 <= lo <= hi < 2**63")

    mock_pool = None
    if allocator == "mock":
        mock_file = conf.get("mock_file")
        if not mock_file:
            raise ConfigError("assign-eval: allocator 'mock' needs --mock-file")
        mock_pool = _load_mock_pool(Path(mock_file))

    output.mkdir(parents=True, exist_ok=True)
    instances: list[asg.CostMatrix] = []
    references: list[asg.Assignment] = []
    candidates: list[asg.Candidate] = []
    for i in range(count):
        size_rng = np.random.default_rng(derive_seed(seed, "size", i))
        n = int(size_rng.integers(n_min, n_max + 1))
        matrix = asg.generate_instance(n, derive_seed(seed, "instance", i), lo, hi)
        alloc_rng = np.random.default_rng(derive_seed(seed, "allocator", i))
        # one solve per instance: the reference it is graded against, and
        # the hungarian allocator's answer
        solved = asg.hungarian_solve(matrix)
        instances.append(matrix)
        references.append(solved)
        candidates.append(_allocate(matrix, allocator, alloc_rng, mock_pool, solved))

    score = asg.score_batch(instances, candidates, strict_mapping=strict, references=references)
    (output / "instances.json").write_text(asg.dump_instances(instances) + "\n", encoding="utf-8")
    (output / "candidates.json").write_text(asg.dump_candidates(candidates) + "\n", encoding="utf-8")
    _dump_json(output / "score.json", score.to_json_dict())

    lines = ["instance,valid,optimal,candidate_cost,optimal_cost,violations"]
    for i, row in enumerate(score.per_instance):
        violations = ";".join(type(v).__name__ for v in row.violations)
        cand = "" if row.candidate_cost is None else row.candidate_cost
        lines.append(f"{i},{int(row.valid)},{int(row.optimal)},{cand},{row.optimal_cost},{violations}")
    (output / "score.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    print(f"assign-eval: {count} instances, allocator={allocator}, "
          f"validity={score.validity_rate:.3f}, accuracy={score.accuracy:.3f}")
    return 0


# --- kitchen-run -----------------------------------------------------------------


def _write_episode_artifacts(
    output: Path,
    report: EpisodeReport,
    level: LevelConfig,
    agent_count: int,
    seed: int,
    budget: int | None,
) -> None:
    output.mkdir(parents=True, exist_ok=True)
    header = {
        "kind": "trace_header",
        "level": level.to_json_dict(),
        "agent_count": agent_count,
        "seed": seed,
        "mode": report.mode.value,
        "budget": budget,
    }
    with (output / "trace.jsonl").open("w", encoding="utf-8") as fh:
        fh.write(_jsonl_line(header) + "\n")
        for record in report.trace:
            fh.write(_jsonl_line(record) + "\n")
    _dump_json(output / "report.json", report.to_json_dict())
    eff = report.efficiency_report()
    _dump_json(output / "efficiency.json", eff.to_json_dict())
    (output / "ledger.csv").write_text(report.ledger.to_csv(), encoding="utf-8")

    lines = ["action,count,fraction"]
    for kind, fraction in eff.action_histogram.items():
        lines.append(f"{kind},{report.action_counts.get(kind, 0)},{fraction!r}")
    (output / "histogram.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mode_policies(
    mode: ControllerMode, roster: Sequence[str], seed: int, bindings: Mapping[str, Any]
) -> dict[str, Any]:
    """The policy arguments of :func:`run_episode` for one mode."""
    if mode is ControllerMode.ORCHESTRATOR:
        return {"central": _policy_from_spec("orchestrator", bindings.get("orchestrator"))}
    policies = {"workers": _build_workers(bindings.get("workers"), roster, seed)}
    if mode is ControllerMode.PLANNER:
        policies["planner"] = _policy_from_spec("planner", bindings.get("planner"))
    return policies


def cmd_kitchen_run(args: argparse.Namespace) -> int:
    conf = _merge_config(args, ["seed", "level", "agents", "mode", "budget", "output"])
    seed = _require(conf, "seed", int, "kitchen-run")
    agents = _require(conf, "agents", int, "kitchen-run")
    if not MIN_AGENTS <= agents <= MAX_AGENTS:
        raise ConfigError(f"kitchen-run: agents must be in [{MIN_AGENTS}, {MAX_AGENTS}], got {agents}")
    level = _load_level_config(conf.get("level") or "level_1")
    mode_arg = (conf.get("mode") or "individual").lower()
    budget = _int_or(conf, "budget", None, "kitchen-run")
    if budget is not None and budget < 0:
        raise ConfigError(f"kitchen-run: budget must be >= 0, got {budget}")
    output = Path(_require(conf, "output", str, "kitchen-run"))
    bindings = conf.get("bindings", {})

    if mode_arg == "all":
        modes = [ControllerMode.INDIVIDUAL, ControllerMode.ORCHESTRATOR, ControllerMode.PLANNER]
    else:
        try:
            modes = [ControllerMode(mode_arg)]
        except ValueError:
            raise ConfigError(f"kitchen-run: unknown mode {mode_arg!r}")

    # every mode's bindings are built first, so a bad one fails before any
    # episode runs or writes an artifact
    runs = []
    for mode in modes:
        episode_seed = derive_seed(seed, "episode", mode.value)
        state = load_level(level, agents, episode_seed)
        policies = _mode_policies(mode, state.agent_ids(), episode_seed, bindings)
        runs.append((mode, episode_seed, state, policies))
    for mode, episode_seed, state, policies in runs:
        report = run_episode(mode, state, budget=budget, **policies)
        target = output / mode.value if len(modes) > 1 else output
        _write_episode_artifacts(target, report, level, agents, episode_seed, budget)
        planner_note = (
            f", planner replans={report.planner_invocations}"
            if mode is ControllerMode.PLANNER
            else ""
        )
        print(
            f"kitchen-run[{mode.value}]: completed={report.completed_orders} "
            f"steps={report.steps} fallbacks={len(report.fallbacks)}{planner_note}"
        )
    return 0


# --- replay ----------------------------------------------------------------------


def cmd_replay(args: argparse.Namespace) -> int:
    trace_path = Path(args.trace)
    if not trace_path.exists():
        raise ConfigError(f"trace file not found: {trace_path}")
    try:
        text = trace_path.read_text(encoding="utf-8")
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    except ValueError as exc:  # undecodable bytes or a line that is not JSON
        raise ConfigError(f"trace file {trace_path} is not JSON lines: {exc}")
    if not lines or not isinstance(lines[0], dict) or lines[0].get("kind") != "trace_header":
        raise ConfigError("trace file lacks a header record")
    header = lines[0]
    try:
        level = LevelConfig.from_json_dict(header["level"])
        state = load_level(level, int(header["agent_count"]), int(header["seed"]))
    except KeyError as exc:
        raise ConfigError(f"trace header lacks {exc}")
    except (TypeError, ValueError) as exc:  # a malformed level, agent count or seed
        raise ConfigError(f"trace header: {exc}")
    for number, record in enumerate(lines[1:], start=1):
        texts = record.get("actions", {}) if isinstance(record, dict) else None
        if not isinstance(texts, dict) or not all(isinstance(t, str) for t in texts.values()):
            raise ConfigError(f"trace step record {number} is not an object with an 'actions' object of strings")

    roster = state.agent_ids()
    location_ids = sorted(state.locations)

    mismatches = 0
    for record in lines[1:]:
        texts = record.get("actions", {})
        actions = {}
        for agent in roster:
            parsed = parse_action(texts.get(agent, ""), roster, location_ids)
            actions[agent] = parsed if parsed is not None and parsed.agent == agent else Noop(agent)
        try:
            outcome = kitchen_step(state, actions)
        except EpisodeOver:
            print(f"replay: step {record.get('step')} exceeds the episode length")
            return 1
        state = outcome.next_state
        # traces hold canonical action text, so any other text is a mismatch
        replayed = {
            "actions": {agent: action.to_text() for agent, action in actions.items()},
            "results": {agent: outcome.per_agent_result[agent].to_json_dict() for agent in roster},
            "events": [e.to_json_dict() for e in outcome.events],
            "observation_hash": observation_hash(state),
        }
        diverged = next((key for key, value in replayed.items() if record.get(key) != value), None)
        if diverged is not None:
            mismatches += 1
            print(f"replay: mismatch at step {record.get('step')}: {diverged}")
    if mismatches:
        print(f"replay: FAILED with {mismatches} mismatching steps")
        return 1
    print(f"replay: OK, {len(lines) - 1} steps verified")
    return 0


# --- capability-sweep --------------------------------------------------------------


def cmd_capability_sweep(args: argparse.Namespace) -> int:
    conf = _merge_config(args, ["seed", "level", "workers", "budget", "output"])
    seed = _require(conf, "seed", int, "capability-sweep")
    level = _load_level_config(conf.get("level") or "level_1")
    budget = _int_or(conf, "budget", None, "capability-sweep")
    if budget is not None and budget < 0:
        raise ConfigError(f"capability-sweep: budget must be >= 0, got {budget}")
    output = Path(_require(conf, "output", str, "capability-sweep"))
    workers_arg = conf.get("workers")
    if workers_arg is None:
        raise ConfigError("capability-sweep: needs --workers (comma-separated specs)")
    specs = workers_arg.split(",") if isinstance(workers_arg, str) else list(workers_arg)
    if not 1 <= len(specs) <= 6:
        raise ConfigError("capability-sweep: roster must have 1..6 workers")

    episode_seed = derive_seed(seed, "sweep")
    planner_spec = conf.get("bindings", {}).get("planner")

    # pass 1: on-the-fly -- the planner knows nothing about its workers
    state = load_level(level, len(specs), episode_seed)
    workers = _build_workers(specs, state.agent_ids(), seed)
    onthefly = run_episode(
        ControllerMode.PLANNER, state, workers=workers,
        planner=_policy_from_spec("planner", planner_spec), budget=budget,
    )

    # pass 2: informed -- same seed, hints measured from pass 1
    roster_models = [
        (agent_id, workers[agent_id].model_id) for agent_id in sorted(workers)
    ]
    hint = capability_hint(onthefly.capability, roster_models)
    state = load_level(level, len(specs), episode_seed)
    informed = run_episode(
        ControllerMode.PLANNER, state, workers=_build_workers(specs, state.agent_ids(), seed),
        planner=_policy_from_spec("planner", planner_spec), budget=budget,
        capability_block=hint,
    )

    output.mkdir(parents=True, exist_ok=True)
    _write_episode_artifacts(output / "onthefly", onthefly, level, len(specs), episode_seed, budget)
    _write_episode_artifacts(output / "informed", informed, level, len(specs), episode_seed, budget)

    eff_on = onthefly.efficiency_report()
    eff_in = informed.efficiency_report()
    comparison = {
        "workers": specs,
        "capability_hint": hint,
        "onthefly": {
            "completed_orders": onthefly.completed_orders,
            "efficiency": None if eff_on.efficiency is None else float(eff_on.efficiency),
        },
        "informed": {
            "completed_orders": informed.completed_orders,
            "efficiency": None if eff_in.efficiency is None else float(eff_in.efficiency),
        },
        "completed_delta": informed.completed_orders - onthefly.completed_orders,
        "efficiency_delta": (
            float(eff_in.efficiency - eff_on.efficiency)
            if eff_in.efficiency is not None and eff_on.efficiency is not None
            else None
        ),
    }
    _dump_json(output / "comparison.json", comparison)
    print(
        f"capability-sweep: onthefly={onthefly.completed_orders} "
        f"informed={informed.completed_orders} "
        f"delta={comparison['completed_delta']}"
    )
    return 0


# --- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allocsim", description="Multi-agent task allocation experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, help="root seed for all randomness")
    common.add_argument("--output", help="output directory")

    p = sub.add_parser("assign-eval", parents=[common], help="score an allocator on assignment instances")
    p.add_argument("--instances", type=int, help="number of instances")
    p.add_argument("--n-min", dest="n_min", type=int, help="smallest matrix size")
    p.add_argument("--n-max", dest="n_max", type=int, help="largest matrix size")
    p.add_argument("--lo", type=int, help="minimum cost entry")
    p.add_argument("--hi", type=int, help="maximum cost entry")
    p.add_argument("--allocator", choices=["hungarian", "greedy", "random", "mock"])
    p.add_argument("--mock-file", dest="mock_file", help="JSON list of canned candidates for --allocator mock")
    p.add_argument("--strict-mapping", dest="strict_mapping", action="store_const", const=True,
                   help="score optimality by exact mapping equality")
    p.set_defaults(func=cmd_assign_eval)

    p = sub.add_parser("kitchen-run", parents=[common], help="run kitchen episodes")
    p.add_argument("--level", help="built-in level id or level JSON path")
    p.add_argument("--agents", type=int, help="number of agents (1..6)")
    p.add_argument("--mode", help="individual | orchestrator | planner | all")
    p.add_argument("--budget", type=int, help="step budget (default: level max)")
    p.set_defaults(func=cmd_kitchen_run)

    p = sub.add_parser("capability-sweep", parents=[common],
                       help="paired on-the-fly vs informed planner runs")
    p.add_argument("--level", help="built-in level id or level JSON path")
    p.add_argument("--workers", help="comma-separated worker specs, e.g. scripted:0.0,scripted:0.3")
    p.add_argument("--budget", type=int, help="step budget")
    p.set_defaults(func=cmd_capability_sweep)

    p = sub.add_parser("replay", help="re-execute a trace and verify hashes")
    p.add_argument("--trace", required=True, help="trace.jsonl produced by kitchen-run")
    p.set_defaults(func=cmd_replay)

    return parser


# built once per process: parse_args keeps no state between calls
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
