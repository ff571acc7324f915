"""Control topologies and the episode loop.

Three ways to drive the kitchen:

* **Individual** -- every agent has its own policy, queried independently
  each step with the shared observation;
* **Orchestrator** -- one central policy sees the observation once per
  step and must answer with a joint action, one line per agent;
* **Planner** -- a planner produces a :class:`Plan` at step 0 and again
  after every step that fired events (orders introduced, completed, or
  expired); per-agent worker policies then act each step with their slice
  of the plan attached.

A plan is written and read only here. :class:`Plan` holds each roster
agent's directives, each a :class:`WorkUnit` or free text;
:meth:`Plan.to_text` writes them as ``agentN: item; item`` lines, and
:func:`parse_plan_text` reads such lines back without loss, whether the
scripted planner or a model wrote them.

Policies answer in free text. :func:`parse_action` extracts the last
grammar match (``goto/get/put/activate/noop``) and validates ids;
anything unparseable, any gateway failure, and any action naming the
wrong agent degrades to a logged noop for that step -- metrics record
the failure rather than silently repairing it. A planner that fails the
same way keeps its prior plan and counts a replan failure. Within one
episode the roster and location ids are fixed, so :func:`run_episode`
parses each distinct response text once and reuses the frozen result.

Each step, every agent gets one decision: its parsed action, or the
reason (a gateway failure, unparseable text, an action naming another
agent) that makes it noop. Both topology branches fill the same decision
record, and the step's actions and fallback notes are read off it. Each
agent-step adds one ``(agent, action kind, ok)`` entry to a tally, where
a fallback counts as a failed noop; when the episode ends the tally is
folded into the action histogram and into the capability profile, one
:meth:`CapabilityProfile.update` per cell. An agent's capability cell is
keyed by the model that decides for it: the central policy's in
orchestrator mode, its own worker's otherwise. The report's
:class:`EfficiencyReport` is computed once, when the episode ends.

:func:`run_episode` is the one place where a step is taken and recorded;
``replay`` re-runs it on a trace's action texts. ``kitchen.step``
changes the state it is given, so :func:`run_episode` copies its input
once and steps that copy; the caller's state is left as it was, and one
state can seed several episodes. Policies and planners read the live
episode state: they must not mutate it, and must not keep it, since it
changes after they return. The state holds only the present:
:func:`run_episode` keeps the episode's events.

Each state is rendered once: the text of the state a step produces is the
observation the next step's policies see, the prompt of a replan after
that step, and the source of the step's trace ``observation_hash`` (and,
after the last step, of the report's ``final_observation_hash``).

Trace records are read-only: equal action results share one JSON dict
across all records, and within one episode equal actions share one text,
so a record costs about the same at step 900 as at step 1. The episode
keeps one entry per distinct action, holding the action, its text and its
kind, and its per-text parse table returns those entries, so an agent-step
reads its trace text and its tally kind off the entry. ``trace.jsonl`` is
written from per-episode fragments, one per distinct (agent, text) and
(agent, result), with the bytes ``dumps_compact`` gives each record.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, NamedTuple, Protocol, Sequence

from . import prompts
from .accounting import (
    CapabilityProfile,
    CostLedger,
    EfficiencyReport,
    efficiency,
)
from .gateway import GatewayError
from .kitchen import (
    Activate,
    EventKind,
    FailReason,
    Get,
    Goto,
    KitchenAction,
    KitchenEvent,
    KitchenState,
    Noop,
    Put,
    action_kind,
    observation_hash,  # not called here, but bench/tracer.py wraps coordination.observation_hash
    observation_text_hash,
    render_observation,
    step as kitchen_step,
)


class ControllerMode(Enum):
    INDIVIDUAL = "individual"
    ORCHESTRATOR = "orchestrator"
    PLANNER = "planner"


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of an order, and one item of a plan.

    ``step_index`` is a recipe step to cook, or ``None`` for the delivery
    leg; ``tool_id`` is the tool instance the item passes through.
    """

    order_ordinal: int
    dish: str
    step_index: int | None
    tool_id: str

    def to_text(self) -> str:
        if self.step_index is None:
            return f"deliver {self.dish} (order {self.order_ordinal}) from {self.tool_id}"
        return (
            f"cook step {self.step_index} of {self.dish} "
            f"(order {self.order_ordinal}) at {self.tool_id}"
        )


# a plan item: a work unit, or free text ("idle", or a line a model wrote)
Directive = WorkUnit | str


def directives_text(directives: Sequence[Directive]) -> str:
    """One agent's plan items as its plan line writes them."""
    return "; ".join(d if isinstance(d, str) else d.to_text() for d in directives)


@dataclass(frozen=True)
class Plan:
    """Directives for every roster agent, written one ``agentN: item; item`` line each."""

    created_at: int
    directives: Mapping[str, tuple[Directive, ...]]

    def to_text(self) -> str:
        lines = [f"Plan (step {self.created_at}):"]
        for agent_id in sorted(self.directives):
            lines.append(f"{agent_id}: {directives_text(self.directives[agent_id])}")
        return "\n".join(lines)


_PLAN_LINE = re.compile(r"^\s*(agent\d+)\s*[:\-]\s*(.+?)\s*$", re.IGNORECASE | re.MULTILINE)
_COUNT = r"(0|[1-9][0-9]*)"  # as ``str(int)`` writes it, so a read unit writes back the same text
_UNIT_TEXT = re.compile(
    rf"cook step {_COUNT} of (\S+) \(order {_COUNT}\) at (\S+)"
    rf"|deliver (\S+) \(order {_COUNT}\) from (\S+)"
)


def _read_item(item: str) -> Directive:
    match = _UNIT_TEXT.fullmatch(item)
    if match is None:
        return item
    step, dish, order, tool, delivered, delivered_order, source = match.groups()
    if step is None:
        return WorkUnit(int(delivered_order), delivered, None, source)
    return WorkUnit(int(order), dish, int(step), tool)


def parse_plan_text(text: str, roster: Sequence[str]) -> dict[str, tuple[Directive, ...]] | None:
    """Directives from ``agentN: item; item`` lines; None when no roster agent has one.

    An item that is exactly a :meth:`WorkUnit.to_text` form reads back as
    that unit and anything else stays free text, so the directives of a
    plan survive ``parse_plan_text(plan.to_text(), roster)`` unchanged.
    Prose lines are skipped, an agent's repeated lines add up, and a roster
    agent without a line idles.
    """
    known = {a.lower(): a for a in roster}
    collected: dict[str, list[Directive]] = {}
    for match in _PLAN_LINE.finditer(text):
        agent = known.get(match.group(1).lower())
        if agent is not None:
            items = match.group(2).split("; ")
            collected.setdefault(agent, []).extend(_read_item(item) for item in items)
    if not collected:
        return None
    return {a: tuple(collected.get(a, ["idle"])) for a in roster}


class PolicyQuery(NamedTuple):
    """What a policy is asked: the observation, for whom, and the agent's plan items.

    ``agent_id`` is ``"__central__"`` for the orchestrator's joint query;
    ``directives`` is ``None`` outside planner mode. Read-only, as a tuple.
    """

    observation: str
    agent_id: str
    directives: tuple[Directive, ...] | None = None


class PolicyResponse(NamedTuple):
    """Raw policy output, read-only as a tuple.

    Token counts are the provider's usage for a billed model call, and
    ``None`` for an unbilled (scripted) answer.
    """

    text: str
    tokens_in: int | None = None
    tokens_out: int | None = None


class Policy(Protocol):
    """Answers a query in free text.

    ``state`` is the live episode state: the policy must not mutate it,
    and must not keep it, since the next step changes it in place.
    """

    model_id: str

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse: ...


class PlannerBackend(Protocol):
    """Plans (``None`` when it cannot).

    ``state`` is the live episode state: the planner must not mutate it,
    and must not keep it, since the next step changes it in place.
    """

    model_id: str

    def plan(
        self,
        prompt: str,
        state: KitchenState,
        roster: Sequence[str],
        prior: Plan | None,
        events: Sequence[KitchenEvent],
    ) -> tuple[Plan | None, PolicyResponse]: ...


# --- action-text parsing ------------------------------------------------------

_ACTION_RE = re.compile(
    r"\b(goto|get|put|activate|noop)\s*\(([^()]*)\)", re.IGNORECASE
)


def _canonical(value: str, known: Mapping[str, str]) -> str | None:
    return known.get(value.strip().lower())


def _build_action(
    verb: str, args: list[str], agents: Mapping[str, str], locations: Mapping[str, str]
) -> KitchenAction | None:
    agent = _canonical(args[0], agents)
    if agent is None:
        return None
    if verb == "noop":
        # tolerate a stray second argument; the action is agent-only
        if len(args) > 2:
            return None
        return Noop(agent)
    if len(args) < 2:
        return None
    location = _canonical(args[1], locations)
    if location is None:
        return None
    if verb == "goto" and len(args) == 2:
        return Goto(agent, location)
    if verb == "put" and len(args) == 2:
        return Put(agent, location)
    if verb == "activate" and len(args) == 2:
        return Activate(agent, location)
    if verb == "get" and len(args) == 3 and args[2].strip():
        return Get(agent, location, args[2].strip())
    return None


def parse_action(
    raw: str, roster: Sequence[str], locations: Sequence[str]
) -> KitchenAction | None:
    """Parse the last action-grammar match out of free text.

    Verbs are case-insensitive and surrounding prose is ignored. Unknown
    agents or locations, wrong arity, or no match at all yield ``None``
    -- parsing failures are data, not errors.
    """
    matches = _ACTION_RE.findall(raw)
    if not matches:
        return None
    verb, arg_text = matches[-1]
    args = [part.strip() for part in arg_text.split(",")]
    agents = {a.lower(): a for a in roster}
    locs = {l.lower(): l for l in locations}
    return _build_action(verb.lower(), args, agents, locs)


def parse_joint_actions(
    raw: str, roster: Sequence[str], locations: Sequence[str]
) -> dict[str, KitchenAction | None]:
    """Per-agent actions from a joint response; last match per agent wins.

    An agent whose last statement was malformed maps to ``None``.
    """
    agents = {a.lower(): a for a in roster}
    locs = {l.lower(): l for l in locations}
    decisions: dict[str, KitchenAction | None] = {}
    for verb, arg_text in _ACTION_RE.findall(raw):
        args = [part.strip() for part in arg_text.split(",")]
        action = _build_action(verb.lower(), args, agents, locs)
        if action is not None:
            decisions[action.agent] = action
        else:
            agent = _canonical(args[0], agents)
            if agent is not None:
                decisions[agent] = None
    return decisions


def format_event(event: KitchenEvent) -> str:
    return f"{event.kind.value} {event.dish} (step {event.step})"


# --- replanning ----------------------------------------------------------------


@dataclass(frozen=True)
class ReplanOutcome:
    plan: Plan
    prompt: str
    response: PolicyResponse | None
    failed: bool


def _idle_plan(step_index: int, roster: Sequence[str]) -> Plan:
    return Plan(created_at=step_index, directives={a: ("idle",) for a in roster})


def planner_replan(
    observation: str,
    events: Sequence[KitchenEvent],
    prior: Plan | None,
    roster: Sequence[str],
    backend: PlannerBackend,
    state: KitchenState,
    capability_block: str | None = None,
) -> ReplanOutcome:
    """Build the planner prompt, invoke the backend, handle bad output.

    When the backend cannot produce a plan (unparseable model output, or a
    gateway failure, which leaves no response to bill) the prior plan stays
    in force and the outcome is marked failed; at step 0 with no prior, an
    all-idle plan is issued instead.
    """
    prompt = prompts.planner_prompt(
        observation,
        [format_event(e) for e in events],
        prior.to_text() if prior else None,
        list(roster),
        capability_block,
    )
    try:
        plan, response = backend.plan(prompt, state, roster, prior, events)
    except GatewayError:
        plan, response = None, None
    if plan is None:
        fallback = prior if prior is not None else _idle_plan(state.step, roster)
        return ReplanOutcome(fallback, prompt, response, failed=True)
    return ReplanOutcome(plan, prompt, response, failed=False)


# --- the episode loop -----------------------------------------------------------


@dataclass(frozen=True)
class FallbackNote:
    step: int
    agent: str
    reason: str


@dataclass
class EpisodeReport:
    """One run of :func:`run_episode`; ``event_log`` holds only this run's events.

    ``trace`` holds one JSON-ready record per step. The records are
    read-only: equal results share one dict across all records, and equal
    actions one text within the episode. ``kitchen-run`` writes each as
    ``dumps_compact`` would, from fragments built once per distinct
    (agent, text) and (agent, result), and writes ``ledger``'s rows from
    one sort (:meth:`CostLedger.artifacts`).
    ``efficiency`` is the episode's :class:`EfficiencyReport`, computed
    once when the episode ends from ``completed_orders``, ``ledger`` and
    ``action_counts``.
    """

    mode: ControllerMode
    agent_count: int
    completed_orders: int
    event_log: tuple[KitchenEvent, ...]
    action_counts: dict[str, int]
    efficiency: EfficiencyReport
    ledger: CostLedger
    capability: CapabilityProfile
    planner_prompts: list[str]
    replan_failures: int
    fallbacks: list[FallbackNote]
    policy_calls: dict[str, int]
    trace: list[dict[str, Any]]
    final_observation_hash: str

    @property
    def steps(self) -> int:
        return len(self.trace)

    @property
    def planner_invocations(self) -> int:
        return len(self.planner_prompts)

    def to_json_dict(self, ledger: Mapping[str, Any]) -> dict[str, Any]:
        """The report's JSON data; ``ledger`` is its ledger block, the first part of ``self.ledger.artifacts()``."""
        return {
            "mode": self.mode.value,
            "agent_count": self.agent_count,
            "steps": self.steps,
            "completed_orders": self.completed_orders,
            "events": [e.to_json_dict() for e in self.event_log],
            "action_counts": dict(self.action_counts),
            "action_histogram": self.efficiency.action_histogram,
            "efficiency": self.efficiency.to_json_dict(),
            "ledger": ledger,
            "capability": self.capability.to_json_dict(),
            "planner_invocations": self.planner_invocations,
            "planner_prompts": list(self.planner_prompts),
            "replan_failures": self.replan_failures,
            "fallbacks": [
                {"step": f.step, "agent": f.agent, "reason": f.reason}
                for f in self.fallbacks
            ],
            "policy_calls": dict(self.policy_calls),
            "final_observation_hash": self.final_observation_hash,
        }


# the trace form of a step result, one read-only dict per result, shared by every record
_RESULT_JSON: dict[FailReason | None, dict[str, Any]] = {
    None: {"ok": True, "reason": None},
    **{reason: {"ok": False, "reason": reason.value} for reason in FailReason},
}


class _Chosen(NamedTuple):
    """An action an agent takes, with its canonical text and its kind."""

    action: KitchenAction
    text: str
    kind: str


def _call_policy(policy: Policy, query: PolicyQuery, state: KitchenState) -> PolicyResponse | str:
    """The policy's response, or the reason a gateway failure left none."""
    try:
        return policy.respond(query, state)
    except GatewayError as exc:
        return f"{type(exc).__name__}: {exc}"


def run_episode(
    mode: ControllerMode,
    state: KitchenState,
    *,
    workers: Mapping[str, Policy] | None = None,
    central: Policy | None = None,
    planner: PlannerBackend | None = None,
    budget: int | None = None,
    capability_block: str | None = None,
) -> EpisodeReport:
    """Run one episode under the given topology and return its report.

    Policy bindings must match the mode: Individual takes one worker per
    agent, Orchestrator one central policy, Planner a planner backend
    plus one worker per agent; a policy the mode does not use is ignored.
    Gateway failures and unparseable responses degrade to logged noops;
    they never abort the episode. ``state`` is left as it was: the episode
    steps a copy of it.
    """
    roster = state.agent_ids()
    location_ids = sorted(state.locations)

    if mode is ControllerMode.INDIVIDUAL or mode is ControllerMode.PLANNER:
        if workers is None or set(workers) != set(roster):
            raise ValueError(f"{mode.value} mode needs one worker policy per agent")
    if mode is ControllerMode.ORCHESTRATOR and central is None:
        raise ValueError("orchestrator mode needs a central policy")
    if mode is ControllerMode.PLANNER and planner is None:
        raise ValueError("planner mode needs a planner backend")

    # the model an agent's actions are credited to in the capability profile
    if mode is ControllerMode.ORCHESTRATOR:
        models = dict.fromkeys(roster, central.model_id)
    else:
        models = {agent_id: workers[agent_id].model_id for agent_id in roster}

    state = state.copy()  # the one copy of the episode; every step changes it in place
    ledger = CostLedger()
    # agent-steps by (agent, action kind, ok), folded into the histogram
    # and the capability profile when the episode ends
    tally: Counter = Counter()
    policy_calls: Counter = Counter()
    fallbacks: list[FallbackNote] = []
    planner_prompts: list[str] = []
    replan_failures = 0
    trace: list[dict[str, Any]] = []
    # one entry per distinct action: equal actions share one text, so a
    # long trace stays small
    chosen: dict[KitchenAction, _Chosen] = {}

    def choose(action: KitchenAction) -> _Chosen:
        entry = chosen.get(action)
        if entry is None:
            entry = chosen[action] = _Chosen(action, action.to_text(), action_kind(action))
        return entry

    noops = {agent_id: choose(Noop(agent_id)) for agent_id in roster}

    # each distinct text is parsed once per episode; the results are only
    # read. These look the parsers up in this module on each miss, where
    # bench/tracer.py wraps them.
    @functools.cache
    def parse(text: str) -> _Chosen | None:
        action = parse_action(text, roster, location_ids)
        return None if action is None else choose(action)

    @functools.cache
    def parse_joint(text: str) -> dict[str, _Chosen | None]:
        joint = parse_joint_actions(text, roster, location_ids)
        return {agent_id: None if action is None else choose(action) for agent_id, action in joint.items()}

    remaining = state.config.max_steps - state.step
    total_steps = remaining if budget is None else min(budget, remaining)

    def record_billing(response: PolicyResponse, model_id: str, role: str, at_step: int) -> None:
        if response.tokens_in is not None and response.tokens_out is not None:
            ledger.record_call(model_id, role, response.tokens_in, response.tokens_out, at_step)

    def replan(events: Sequence[KitchenEvent]) -> None:
        nonlocal plan, replan_failures
        outcome = planner_replan(
            observation,
            events,
            plan,
            roster,
            planner,
            state,
            capability_block,
        )
        policy_calls["planner"] += 1
        planner_prompts.append(outcome.prompt)
        if outcome.response is not None:
            record_billing(outcome.response, planner.model_id, "planner", state.step)
        if outcome.failed:
            replan_failures += 1
        plan = outcome.plan

    # the orders load_level makes live are introduced at step 0
    live = state.orders if state.step == 0 else []
    events = [KitchenEvent(EventKind.ORDER_INTRODUCED, o.dish, 0) for o in live]
    plan: Plan | None = None
    observation = render_observation(state)
    if mode is ControllerMode.PLANNER:
        replan(tuple(events))

    for _ in range(total_steps):
        # each agent's parsed action, or the reason it noops this step
        decided: dict[str, _Chosen | str] = {}
        if mode is ControllerMode.ORCHESTRATOR:
            query = PolicyQuery(observation, "__central__")
            response = _call_policy(central, query, state)
            policy_calls["orchestrator"] += 1
            if isinstance(response, str):
                decided = dict.fromkeys(roster, response)
            else:
                record_billing(response, central.model_id, "orchestrator", state.step)
                joint = parse_joint(response.text)
                for agent_id in roster:
                    entry = joint.get(agent_id)
                    decided[agent_id] = "unparseable joint action" if entry is None else entry
        else:
            for agent_id in roster:
                directives = None if plan is None else plan.directives[agent_id]
                query = PolicyQuery(observation, agent_id, directives)
                response = _call_policy(workers[agent_id], query, state)
                if isinstance(response, str):
                    decided[agent_id] = response
                    continue
                record_billing(response, models[agent_id], f"worker:{agent_id}", state.step)
                entry = parse(response.text)
                if entry is None:
                    decided[agent_id] = "unparseable action"
                elif entry.action.agent != agent_id:
                    decided[agent_id] = "action names another agent"
                else:
                    decided[agent_id] = entry
            policy_calls["worker"] += len(roster)

        taken = {a: noops[a] if isinstance(d, str) else d for a, d in decided.items()}
        step_index = state.step
        outcome = kitchen_step(state, {a: entry.action for a, entry in taken.items()})
        for agent_id, decision in decided.items():
            fell_back = isinstance(decision, str)
            if fell_back:
                fallbacks.append(FallbackNote(step_index, agent_id, decision))
            ok = not fell_back and outcome.per_agent_result[agent_id] is None
            tally[agent_id, taken[agent_id].kind, ok] += 1
        observation = render_observation(state)
        events.extend(outcome.events)
        trace.append(
            {
                "step": step_index,
                "actions": {a: taken[a].text for a in roster},
                "results": {a: _RESULT_JSON[outcome.per_agent_result[a]] for a in roster},
                "events": [e.to_json_dict() for e in outcome.events],
                "observation_hash": observation_text_hash(observation),
            }
        )
        if mode is ControllerMode.PLANNER and outcome.events:
            replan(outcome.events)

    histogram: Counter = Counter()
    attempted: Counter = Counter()
    succeeded: Counter = Counter()
    for (agent_id, kind, ok), count in tally.items():
        histogram[kind] += count
        attempted[agent_id] += count
        succeeded[agent_id] += count if ok else 0
    profile = CapabilityProfile()
    for agent_id, count in attempted.items():
        profile.update(agent_id, models[agent_id], count, succeeded[agent_id])
    action_counts = dict(histogram)
    return EpisodeReport(
        mode=mode,
        agent_count=len(roster),
        completed_orders=state.completed_count,
        event_log=tuple(events),
        action_counts=action_counts,
        efficiency=efficiency(state.completed_count, ledger, action_counts),
        ledger=ledger,
        capability=profile,
        planner_prompts=planner_prompts,
        replan_failures=replan_failures,
        fallbacks=fallbacks,
        policy_calls=dict(policy_calls),
        trace=trace,
        final_observation_hash=observation_text_hash(observation),
    )
