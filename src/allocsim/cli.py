"""Experiment runner CLI.

Subcommands:

* ``assign-eval`` -- generate assignment instances, run an allocator over
  them, and score validity/accuracy against the optimal solver;
* ``kitchen-run`` -- run kitchen episodes under one coordination mode, or
  under all three one after another (``--mode all``), and emit traces and
  reports;
* ``capability-sweep`` -- paired on-the-fly vs informed planner runs over
  a worker roster, sharing seeds;
* ``replay`` -- re-run the episode loop on a trace file's action texts
  and verify that every step's index, actions, results, events and
  observation hash match the recording.

The settings of all but ``replay`` are a table of :class:`Setting` rows
per subcommand, which a JSON config file (``--config``) may give by key;
explicit flags win. :func:`_read` reads flags, config files, binding specs,
mock candidates and trace headers at each setting's exact JSON type. All
randomness derives from the single ``--seed`` via labelled paths, so any
sub-run is reproducible on its own.

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
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import assignment as asg
from .accounting import capability_hint
from .coordination import ControllerMode, EpisodeReport, run_episode
from .gateway import ModelBinding, install_mock
from .jsonout import dumps_compact, dumps_indented
from .kitchen import MAX_AGENTS, MIN_AGENTS, LevelConfig, MalformedLevel, load_level
from .levels import BUILTIN_LEVELS, get_level
from .policies import (
    FlakyWorker,
    GatewayOrchestrator,
    GatewayPlanner,
    GatewayWorker,
    RecordedWorker,
    ScriptedOrchestrator,
    ScriptedPlanner,
    ScriptedWorker,
)
from .seeding import derive_seed


class ConfigError(ValueError):
    pass


def _dump_json(path: Path, payload: Any) -> None:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, written by :mod:`.jsonout`."""
    path.write_text(dumps_indented(payload) + "\n", encoding="utf-8")


def _read_json(path: Path, what: str) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}")
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")


# --- settings ------------------------------------------------------------------


class Kind(NamedTuple):
    """The JSON types a setting takes, their name, and its flag's ``add_argument`` options (None: no flag)."""

    types: tuple[type, ...]
    name: str
    flag: Mapping[str, Any] | None


_INT = Kind((int,), "an integer", {"type": int})
_STR = Kind((str,), "a string", {})
_TRUE = Kind((bool,), "true or false", {"action": "store_const", "const": True})
_STR_OR_LIST = Kind((str, list), "a string or a list", {})
_LIST = Kind((list,), "a list", None)
_NUMBER = Kind((int, float), "a number", None)
_OBJECT = Kind((dict,), "an object", None)


class Bound(NamedTuple):
    """A test of a setting's value, what it asks for, and the choices its flag offers."""

    holds: Callable[[Any], bool]
    wants: str
    choices: tuple[str, ...] | None = None


def _within(low: int, high: float = math.inf) -> Bound:
    return Bound(lambda value: low <= value <= high, f">= {low}" if high == math.inf else f"in [{low}, {high}]")


def _one_of(choices: tuple[str, ...]) -> Bound:
    return Bound(choices.__contains__, f"one of {', '.join(choices)}", choices)


class Setting(NamedTuple):
    """One setting: its key (a flag's dest and a JSON key), kind, default (``...``: required), bound and flag help."""

    key: str
    kind: Kind
    default: Any = ...
    bound: Bound | None = None
    help: str | None = None


def _read(settings: Sequence[Setting], where: str, *sources: Mapping[str, Any]) -> dict[str, Any]:
    """Each setting's value from the first source giving it (flags before a file; ``None`` gives nothing),
    else its default. A value given must be of the setting's JSON types exactly and within its bound."""
    values = {}
    for key, kind, default, bound, _ in settings:
        value = next((source[key] for source in sources if source.get(key) is not None), None)
        if value is None:
            if default is ...:
                raise ConfigError(f"{where}: missing required setting {key!r}")
            value = default
        elif type(value) not in kind.types:  # so a bool is not an integer
            raise ConfigError(f"{where}: setting {key!r} must be {kind.name}, got {value!r}")
        elif bound is not None and not bound.holds(value):
            raise ConfigError(f"{where}: setting {key!r} must be {bound.wants}, got {value!r}")
        values[key] = value
    return values


def _settings(args: argparse.Namespace, settings: Sequence[Setting]) -> dict[str, Any]:
    """The command's ``settings`` read from its flags, else from the ``--config`` file's object."""
    conf = _read_json(Path(args.config), "config file") if args.config else {}
    if not isinstance(conf, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    return _read(settings, args.command, vars(args), conf)


def _roster(workers: str | list) -> list:
    """The worker specs of a ``workers`` setting: a comma-separated string or a list."""
    return workers.split(",") if isinstance(workers, str) else workers


_ALLOCATORS = ("hungarian", "greedy", "random", "mock")
_MODES = (*(mode.value for mode in ControllerMode), "all")

_AGENTS = _within(MIN_AGENTS, MAX_AGENTS)
_SEED = Setting("seed", _INT, help="root seed for all randomness")
_OUTPUT = Setting("output", _STR, help="output directory")
_LEVEL = Setting("level", _STR, "level_1", help="built-in level id or level JSON path")
_BINDINGS = Setting("bindings", _OBJECT, {})

_ASSIGN_EVAL = (
    _SEED, _OUTPUT,
    Setting("instances", _INT, bound=_within(1), help="number of instances"),
    Setting("n_min", _INT, 2, _within(1), "smallest matrix size"),
    Setting("n_max", _INT, 8, help="largest matrix size"),
    Setting("lo", _INT, 0, _within(0), "minimum cost entry"),
    Setting("hi", _INT, 99, _within(0, 2**63 - 1), "maximum cost entry"),  # numpy draws the costs as int64
    Setting("allocator", _STR, "hungarian", _one_of(_ALLOCATORS)),
    Setting("mock_file", _STR, None, help="JSON list of canned candidates for --allocator mock"),
    Setting("strict_mapping", _TRUE, False, help="score optimality by exact mapping equality"),
)
_KITCHEN_RUN = (
    _SEED, _OUTPUT, _LEVEL,
    Setting("agents", _INT, bound=_AGENTS, help=f"number of agents ({MIN_AGENTS}..{MAX_AGENTS})"),
    Setting("mode", _STR, "individual", Bound(lambda mode: mode.lower() in _MODES, f"one of {', '.join(_MODES)}"),
            " | ".join(_MODES)),
    Setting("budget", _INT, None, _within(0), "step budget (default: level max)"),
    _BINDINGS,
)
_CAPABILITY_SWEEP = (
    _SEED, _OUTPUT, _LEVEL,
    Setting("workers", _STR_OR_LIST,
            bound=Bound(lambda workers: MIN_AGENTS <= len(_roster(workers)) <= MAX_AGENTS,
                        f"{MIN_AGENTS} to {MAX_AGENTS} worker specs"),
            help="comma-separated worker specs, e.g. scripted:0.0,scripted:0.3"),
    Setting("budget", _INT, None, _within(0), "step budget"),
    _BINDINGS,
)
_TRACE_HEADER = (Setting("level", _OBJECT), Setting("agent_count", _INT, bound=_AGENTS), Setting("seed", _INT))


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

_MODEL_ID, _RETRIES = Setting("model_id", _STR), Setting("max_retries", _INT, 2, _within(0))
_KIND = Setting("kind", _STR, "scripted")
# the fields of each binding kind; only a worker may be flaky
_BINDING_FIELDS = {
    "scripted": (),
    "flaky": (Setting("failure_rate", _NUMBER, 0.0, _within(0, 1)),),
    # caught here, an empty endpoint or an unset auth variable would fail every call of the episode
    "model": (_MODEL_ID, Setting("endpoint_url", _STR, bound=Bound(bool, "non-empty")),
              Setting("auth_env_var", _STR, bound=Bound(os.environ.__contains__, "a set environment variable")),
              _RETRIES),
    "mock": (_MODEL_ID, Setting("endpoint_url", _STR, ""), Setting("auth_env_var", _STR, ""), _RETRIES,
             Setting("script", _STR)),
}


def _policy_from_spec(role: str, spec: Any, seed: int = 0, label: str = "") -> Any:
    """The policy for one role ("worker", "orchestrator" or "planner") from its spec.

    A spec is a mapping whose ``kind`` is ``scripted`` (the default),
    ``model`` or ``mock``, or for a worker ``flaky``, whose failures are
    seeded from ``seed`` and ``label``; its other fields are the kind's
    ``_BINDING_FIELDS``. ``None`` and ``"scripted"`` stand for
    ``{"kind": "scripted"}``, and a worker's ``"scripted:<rate>"`` for
    ``{"kind": "flaky", "failure_rate": <rate>}``.
    """
    where = f"{role} binding"
    if spec is None or spec == "scripted":
        spec = {"kind": "scripted"}
    elif role == "worker" and isinstance(spec, str) and spec.startswith("scripted:"):
        rate = spec.split(":", 1)[1]
        try:
            spec = {"kind": "flaky", "failure_rate": float(rate)}
        except ValueError:
            raise ConfigError(f"{where}: failure rate {rate!r} is not a number")
    kind = _read([_KIND], where, spec)["kind"] if isinstance(spec, dict) else None
    fields = _BINDING_FIELDS.get(kind) if role == "worker" or kind != "flaky" else None
    if fields is None:
        raise ConfigError(f"unintelligible {role} spec {spec!r}")
    conf = _read(fields, where, spec)
    if kind == "scripted":
        return _SCRIPTED[role]()
    if kind == "flaky":
        return FlakyWorker(ScriptedWorker(), conf["failure_rate"], derive_seed(seed, "flaky", label))
    binding = ModelBinding(conf["model_id"], conf["endpoint_url"], conf["auth_env_var"], conf["max_retries"])
    transport = None
    if kind == "mock":
        path = Path(conf["script"])
        try:
            transport = install_mock(_read_json(path, "mock script"))
        except TypeError as exc:  # not a list of entries, or an unknown entry key
            raise ConfigError(f"mock script {path}: {exc}")
    return _GATEWAY[role](binding, transport)


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
              mock_pool: Iterator[Any] | None, solved: asg.Assignment) -> asg.Candidate:
    """One candidate for ``matrix``; ``solved`` is its optimal assignment.

    ``allocator`` is one of ``_ALLOCATORS``, and for ``mock`` the caller
    checked that the pool holds an entry per instance.
    """
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
    # "mock"
    entry = next(mock_pool)
    if isinstance(entry, str):
        return asg.parse_candidate_text(entry, matrix.n)
    return asg.Candidate.from_json_dict(entry)


# a candidate object's fields, each also null
_MOCK_ENTRY = (Setting("mapping", _LIST, None), Setting("claimed_cost", _NUMBER, None), Setting("raw_text", _STR, None))


def _load_mock_pool(path: Path) -> list[Any]:
    """Canned candidates: free-form answer strings or candidate JSON objects."""
    pool = _read_json(path, "mock file")
    if not isinstance(pool, list):
        raise ConfigError(f"mock file {path} must hold a JSON list")
    for index, entry in enumerate(pool):
        if isinstance(entry, dict):
            _read(_MOCK_ENTRY, f"mock file {path}: entry {index}", entry)
        elif not isinstance(entry, str):
            raise ConfigError(f"mock file {path}: entry {index} must be a string or an object")
    return pool


def cmd_assign_eval(args: argparse.Namespace) -> int:
    conf = _settings(args, _ASSIGN_EVAL)
    seed, count, allocator, output = conf["seed"], conf["instances"], conf["allocator"], Path(conf["output"])
    n_min, n_max, lo, hi = conf["n_min"], conf["n_max"], conf["lo"], conf["hi"]
    if n_min > n_max:
        raise ConfigError(f"assign-eval: bad n range [{n_min}, {n_max}]")
    if lo > hi:
        raise ConfigError(f"assign-eval: bad cost range [{lo}, {hi}]")

    mock_pool = None
    if allocator == "mock":
        mock_file = conf["mock_file"]
        if not mock_file:
            raise ConfigError("assign-eval: allocator 'mock' needs --mock-file")
        pool = _load_mock_pool(Path(mock_file))
        if len(pool) < count:
            raise ConfigError(f"assign-eval: mock file {mock_file} has {len(pool)} of the {count} "
                              "candidates needed, one per instance")
        mock_pool = iter(pool)

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

    score = asg.score_batch(instances, candidates, strict_mapping=conf["strict_mapping"], references=references)
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


def _trace_text(header: Mapping[str, Any], records: Sequence[Mapping[str, Any]]) -> str:
    """``trace.jsonl``: the header and each step record as ``dumps_compact`` writes them, one per line.

    A step record has :func:`run_episode`'s shape: ``actions`` maps each
    agent to its action text and ``results`` each agent to an ``ok`` and
    ``reason`` object. Its line is joined from members built once per
    distinct (agent, text) and (agent, ok, reason) in the episode.
    """
    quote = encode_basestring_ascii
    actions_written: dict[tuple[str, str], str] = {}
    results_written: dict[tuple[str, Any, Any], str] = {}
    lines = [dumps_compact(header)]
    for record in records:
        actions, results, events = record["actions"], record["results"], record["events"]
        members = []
        for agent in sorted(actions):
            text = actions[agent]
            member = actions_written.get((agent, text))
            if member is None:
                member = actions_written[agent, text] = f"{quote(agent)}:{quote(text)}"
            members.append(member)
        outcomes = []
        for agent in sorted(results):
            result = results[agent]
            key = (agent, result["ok"], result["reason"])
            member = results_written.get(key)
            if member is None:
                member = results_written[key] = f"{quote(agent)}:{dumps_compact(result)}"
            outcomes.append(member)
        lines.append(
            f'{{"actions":{{{",".join(members)}}},"events":{dumps_compact(events) if events else "[]"},'
            f'"observation_hash":{quote(record["observation_hash"])},'
            f'"results":{{{",".join(outcomes)}}},"step":{record["step"]}}}'
        )
    lines.append("")
    return "\n".join(lines)


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
    (output / "trace.jsonl").write_text(_trace_text(header, report.trace), encoding="utf-8")
    ledger_json, ledger_csv = report.ledger.artifacts()
    payload = report.to_json_dict(ledger=ledger_json)
    _dump_json(output / "report.json", payload)
    _dump_json(output / "efficiency.json", payload["efficiency"])
    (output / "ledger.csv").write_text(ledger_csv, encoding="utf-8")

    lines = ["action,count,fraction"]
    for kind, fraction in payload["action_histogram"].items():
        lines.append(f"{kind},{report.action_counts.get(kind, 0)},{fraction!r}")
    (output / "histogram.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mode_policies(mode: ControllerMode, roster: Sequence[str], seed: int,
                   bindings: Mapping[str, Any]) -> dict[str, Any]:
    """The policy arguments of :func:`run_episode` for one mode; a list of worker specs is dealt round-robin."""
    if mode is ControllerMode.ORCHESTRATOR:
        return {"central": _policy_from_spec("orchestrator", bindings.get("orchestrator"))}
    specs = bindings.get("workers")
    pool = (specs or [None]) if isinstance(specs, list) else [specs]
    workers = {agent: _policy_from_spec("worker", pool[i % len(pool)], seed, agent) for i, agent in enumerate(roster)}
    policies = {"workers": workers}
    if mode is ControllerMode.PLANNER:
        policies["planner"] = _policy_from_spec("planner", bindings.get("planner"))
    return policies


def cmd_kitchen_run(args: argparse.Namespace) -> int:
    conf = _settings(args, _KITCHEN_RUN)
    seed, agents, budget, output = conf["seed"], conf["agents"], conf["budget"], Path(conf["output"])
    level = _load_level_config(conf["level"])
    mode = conf["mode"].lower()
    modes = list(ControllerMode) if mode == "all" else [ControllerMode(mode)]

    # every mode's bindings are built first, so a bad one fails before any
    # episode runs or writes an artifact
    runs = []
    for mode in modes:
        episode_seed = derive_seed(seed, "episode", mode.value)
        state = load_level(level, agents, episode_seed)
        policies = _mode_policies(mode, state.agent_ids(), episode_seed, conf["bindings"])
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
    header, records = lines[0], lines[1:]
    conf = _read(_TRACE_HEADER, "trace header", header)
    try:
        level = LevelConfig.from_json_dict(conf["level"])
    except MalformedLevel as exc:
        raise ConfigError(f"trace header: {exc}")
    state = load_level(level, conf["agent_count"], conf["seed"])
    for number, record in enumerate(records, start=1):
        texts = record.get("actions", {}) if isinstance(record, dict) else None
        if not isinstance(texts, dict) or not all(isinstance(t, str) for t in texts.values()):
            raise ConfigError(f"trace step record {number} is not an object with an 'actions' object of strings")

    # a missing text is unparseable, so that agent noops; the episode stops
    # at the level's max_steps however many records follow
    workers = {
        agent: RecordedWorker([record.get("actions", {}).get(agent, "") for record in records])
        for agent in state.agent_ids()
    }
    report = run_episode(ControllerMode.INDIVIDUAL, state, workers=workers, budget=len(records))
    mismatches = 0
    for record, replayed in zip(records, report.trace):
        # traces hold canonical action text, so any other text is a mismatch
        fields = ("step", "actions", "results", "events", "observation_hash")
        diverged = next((key for key in fields if record.get(key) != replayed[key]), None)
        if diverged is not None:
            mismatches += 1
            print(f"replay: mismatch at step {record.get('step')}: {diverged}")
    if len(records) > report.steps:
        print(f"replay: step {records[report.steps].get('step')} exceeds the episode length")
        return 1
    if mismatches:
        print(f"replay: FAILED with {mismatches} mismatching steps")
        return 1
    print(f"replay: OK, {len(records)} steps verified")
    return 0


# --- capability-sweep --------------------------------------------------------------


def cmd_capability_sweep(args: argparse.Namespace) -> int:
    conf = _settings(args, _CAPABILITY_SWEEP)
    seed, budget, output, specs = conf["seed"], conf["budget"], Path(conf["output"]), _roster(conf["workers"])
    level = _load_level_config(conf["level"])

    episode_seed = derive_seed(seed, "sweep")
    bindings = {"workers": specs, "planner": conf["bindings"].get("planner")}

    # both passes start from this state; run_episode leaves it as it was
    state = load_level(level, len(specs), episode_seed)

    # pass 1: on-the-fly -- the planner knows nothing about its workers
    policies = _mode_policies(ControllerMode.PLANNER, state.agent_ids(), seed, bindings)
    onthefly = run_episode(ControllerMode.PLANNER, state, budget=budget, **policies)

    # pass 2: informed -- same seed, hints measured from pass 1
    workers = policies["workers"]
    roster_models = [(agent_id, workers[agent_id].model_id) for agent_id in sorted(workers)]
    hint = capability_hint(onthefly.capability, roster_models)
    policies = _mode_policies(ControllerMode.PLANNER, state.agent_ids(), seed, bindings)
    informed = run_episode(ControllerMode.PLANNER, state, budget=budget, capability_block=hint, **policies)

    comparison: dict[str, Any] = {"workers": specs, "capability_hint": hint}
    for name, report in (("onthefly", onthefly), ("informed", informed)):
        _write_episode_artifacts(output / name, report, level, len(specs), episode_seed, budget)
        eff = report.efficiency.efficiency
        comparison[name] = {"completed_orders": report.completed_orders,
                            "efficiency": None if eff is None else float(eff)}
    eff_on, eff_in = onthefly.efficiency.efficiency, informed.efficiency.efficiency
    comparison["completed_delta"] = informed.completed_orders - onthefly.completed_orders
    comparison["efficiency_delta"] = None if eff_in is None or eff_on is None else float(eff_in - eff_on)
    _dump_json(output / "comparison.json", comparison)
    print(
        f"capability-sweep: onthefly={onthefly.completed_orders} "
        f"informed={informed.completed_orders} "
        f"delta={comparison['completed_delta']}"
    )
    return 0


# --- entry point -----------------------------------------------------------------


_COMMANDS = {
    "assign-eval": (cmd_assign_eval, "score an allocator on assignment instances", _ASSIGN_EVAL),
    "kitchen-run": (cmd_kitchen_run, "run kitchen episodes", _KITCHEN_RUN),
    "capability-sweep": (cmd_capability_sweep, "paired on-the-fly vs informed planner runs", _CAPABILITY_SWEEP),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allocsim", description="Multi-agent task allocation experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, settings) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, kind, _, bound, help_text in settings:
            if kind.flag is not None:  # an object or a bare number is set in the config file only
                choices = {"choices": bound.choices} if bound is not None and bound.choices else {}
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **kind.flag, **choices)
        p.set_defaults(func=func)

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
