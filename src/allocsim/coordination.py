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

Policies answer in free text. :func:`parse_action` extracts the last
grammar match (``goto/get/put/activate/noop``) and validates ids;
anything unparseable, any gateway failure, and any action naming the
wrong agent degrades to a logged noop for that step -- metrics record
the failure rather than silently repairing it. A planner that fails the
same way keeps its prior plan and counts a replan failure.

Policies and planners read the live episode state and must not mutate it;
``kitchen.step`` never mutates its input, so no copy is taken. The state
holds only the present: :func:`run_episode` keeps the episode's events.

Each state is rendered once: the text of the state a step produces is the
observation the next step's policies see, the prompt of a replan after
that step, and the source of the step's trace ``observation_hash`` (and,
after the last step, of the report's ``final_observation_hash``).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, Protocol, Sequence

from . import prompts
from .accounting import (
    CapabilityProfile,
    CostLedger,
    EfficiencyReport,
    PriceTable,
    efficiency,
)
from .gateway import GatewayError
from .kitchen import (
    Activate,
    EventKind,
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
class Directive:
    """One work item for one agent: free text plus structured hints."""

    text: str
    dish: str | None = None
    recipe_step: int | None = None
    order_ordinal: int | None = None
    tool_id: str | None = None
    deliver: bool = False

    @classmethod
    def idle(cls) -> "Directive":
        return cls(text="idle")


@dataclass(frozen=True)
class Plan:
    created_at: int
    directives: Mapping[str, tuple[Directive, ...]]

    def for_agent(self, agent_id: str) -> tuple[Directive, ...]:
        return self.directives.get(agent_id, (Directive.idle(),))

    def to_text(self) -> str:
        lines = [f"Plan (step {self.created_at}):"]
        for agent_id in sorted(self.directives):
            items = "; ".join(d.text for d in self.directives[agent_id])
            lines.append(f"{agent_id}: {items}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PolicyQuery:
    observation: str
    agent_id: str
    directives: tuple[Directive, ...] | None = None


@dataclass(frozen=True)
class PolicyResponse:
    """Raw policy output; token counts are None for unbilled (scripted) calls."""

    text: str
    tokens_in: int | None = None
    tokens_out: int | None = None


class Policy(Protocol):
    """Answers a query in free text; reads the live ``state`` and must not mutate it."""

    model_id: str

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse: ...


class PlannerBackend(Protocol):
    """Plans (``None`` when it cannot); reads the live ``state`` and must not mutate it."""

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
    return Plan(created_at=step_index, directives={a: (Directive.idle(),) for a in roster})


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
    """One run of :func:`run_episode`; ``event_log`` holds only this run's events."""

    mode: ControllerMode
    agent_count: int
    steps: int
    completed_orders: int
    event_log: tuple[KitchenEvent, ...]
    action_counts: dict[str, int]
    ledger: CostLedger
    capability: CapabilityProfile
    planner_invocations: int
    planner_prompts: list[str]
    replan_failures: int
    fallbacks: list[FallbackNote]
    policy_calls: dict[str, int]
    trace: list[dict[str, Any]]
    final_observation_hash: str

    def efficiency_report(self) -> EfficiencyReport:
        return efficiency(self.completed_orders, self.ledger, self.action_counts)

    def to_json_dict(self) -> dict[str, Any]:
        eff = self.efficiency_report()
        return {
            "mode": self.mode.value,
            "agent_count": self.agent_count,
            "steps": self.steps,
            "completed_orders": self.completed_orders,
            "events": [e.to_json_dict() for e in self.event_log],
            "action_counts": dict(self.action_counts),
            "action_histogram": eff.action_histogram,
            "efficiency": eff.to_json_dict(),
            "ledger": self.ledger.to_json_dict(),
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


def _call_policy(
    policy: Policy, query: PolicyQuery, state: KitchenState
) -> tuple[PolicyResponse | None, str | None]:
    try:
        return policy.respond(query, state), None
    except GatewayError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_episode(
    mode: ControllerMode,
    state: KitchenState,
    *,
    workers: Mapping[str, Policy] | None = None,
    central: Policy | None = None,
    planner: PlannerBackend | None = None,
    budget: int | None = None,
    price_table: PriceTable | None = None,
    capability_block: str | None = None,
) -> EpisodeReport:
    """Run one episode under the given topology and return its report.

    Policy bindings must match the mode: Individual takes one worker per
    agent, Orchestrator one central policy, Planner a planner backend
    plus one worker per agent. Gateway failures and unparseable
    responses degrade to logged noops; they never abort the episode.
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

    ledger = CostLedger(price_table)
    profile = CapabilityProfile()
    histogram: Counter = Counter()
    policy_calls: Counter = Counter()
    fallbacks: list[FallbackNote] = []
    planner_prompts: list[str] = []
    replan_failures = 0
    planner_invocations = 0
    trace: list[dict[str, Any]] = []

    remaining = state.config.max_steps - state.step
    total_steps = remaining if budget is None else min(budget, remaining)

    def record_billing(response: PolicyResponse, model_id: str, role: str, at_step: int) -> None:
        if response.tokens_in is not None and response.tokens_out is not None:
            ledger.record_call(
                model_id, role, response.tokens_in, response.tokens_out, at_step,
                allow_unpriced=True,
            )

    def replan(events: Sequence[KitchenEvent]) -> None:
        nonlocal plan, planner_invocations, replan_failures
        assert planner is not None
        outcome = planner_replan(
            observation,
            events,
            plan,
            roster,
            planner,
            state,
            capability_block,
        )
        planner_invocations += 1
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

    steps_run = 0
    while steps_run < total_steps:
        actions: dict[str, KitchenAction] = {}
        pre_failed: dict[str, str | None] = {}
        acting_model: dict[str, str] = {}

        if mode is ControllerMode.ORCHESTRATOR:
            assert central is not None
            query = PolicyQuery(observation=observation, agent_id="__central__")
            response, failure = _call_policy(central, query, state)
            policy_calls["orchestrator"] += 1
            for agent_id in roster:
                acting_model[agent_id] = central.model_id
            if response is None:
                for agent_id in roster:
                    actions[agent_id] = Noop(agent_id)
                    pre_failed[agent_id] = failure
            else:
                record_billing(response, central.model_id, "orchestrator", state.step)
                decisions = parse_joint_actions(response.text, roster, location_ids)
                for agent_id in roster:
                    action = decisions.get(agent_id)
                    if action is None:
                        actions[agent_id] = Noop(agent_id)
                        pre_failed[agent_id] = "unparseable joint action"
                    else:
                        actions[agent_id] = action
                        pre_failed[agent_id] = None
        else:
            assert workers is not None
            for agent_id in roster:
                policy = workers[agent_id]
                acting_model[agent_id] = policy.model_id
                directives = None
                if mode is ControllerMode.PLANNER and plan is not None:
                    directives = plan.for_agent(agent_id)
                query = PolicyQuery(
                    observation=observation,
                    agent_id=agent_id,
                    directives=directives,
                )
                response, failure = _call_policy(policy, query, state)
                policy_calls["worker"] += 1
                if response is None:
                    actions[agent_id] = Noop(agent_id)
                    pre_failed[agent_id] = failure
                    continue
                record_billing(response, policy.model_id, f"worker:{agent_id}", state.step)
                action = parse_action(response.text, roster, location_ids)
                if action is None:
                    actions[agent_id] = Noop(agent_id)
                    pre_failed[agent_id] = "unparseable action"
                elif action.agent != agent_id:
                    actions[agent_id] = Noop(agent_id)
                    pre_failed[agent_id] = "action names another agent"
                else:
                    actions[agent_id] = action
                    pre_failed[agent_id] = None

        outcome = kitchen_step(state, actions)
        step_index = state.step
        for agent_id in roster:
            histogram[action_kind(actions[agent_id])] += 1
            failure = pre_failed.get(agent_id)
            if failure is not None:
                fallbacks.append(FallbackNote(step_index, agent_id, failure))
                profile.update(agent_id, acting_model[agent_id], False)
            else:
                profile.update(
                    agent_id, acting_model[agent_id], outcome.per_agent_result[agent_id].ok
                )
        state = outcome.next_state
        observation = render_observation(state)
        events.extend(outcome.events)
        trace.append(
            {
                "step": step_index,
                "actions": {a: actions[a].to_text() for a in roster},
                "results": {
                    a: outcome.per_agent_result[a].to_json_dict() for a in roster
                },
                "events": [e.to_json_dict() for e in outcome.events],
                "observation_hash": observation_text_hash(observation),
            }
        )
        steps_run += 1
        if mode is ControllerMode.PLANNER and outcome.events:
            replan(outcome.events)

    return EpisodeReport(
        mode=mode,
        agent_count=len(roster),
        steps=steps_run,
        completed_orders=state.completed_count,
        event_log=tuple(events),
        action_counts=dict(histogram),
        ledger=ledger,
        capability=profile,
        planner_invocations=planner_invocations,
        planner_prompts=planner_prompts,
        replan_failures=replan_failures,
        fallbacks=fallbacks,
        policy_calls=dict(policy_calls),
        trace=trace,
        final_observation_hash=observation_text_hash(observation),
    )
