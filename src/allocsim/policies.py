"""Policies: the deterministic scripted oracle and model-backed adapters.

The scripted oracle is the offline stand-in for model workers. It breaks
every live order into *work units* -- one cook unit per recipe step plus
a delivery unit -- assigns tool instances stickily by order ordinal (so
concurrent orders do not fight over a tool), and ferries ingredients,
activates tools, and serves dishes with whatever unit is most urgent.
Orders are ranked earliest-deadline-first throughout.

In Individual and Orchestrator modes the oracle self-assigns whole orders
round-robin by spawn ordinal; in Planner mode the scripted planner
partitions work units round-robin across agents and scripted workers
follow their directives. Decisions are pure functions of the state
snapshot, so scripted episodes replay bit-for-bit.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .coordination import (
    Directive,
    Plan,
    Policy,
    PolicyQuery,
    PolicyResponse,
)
from .gateway import Decoding, ModelBinding, Transport, complete
from .kitchen import (
    Activate,
    DishOrder,
    Get,
    Goto,
    KitchenAction,
    KitchenEvent,
    KitchenState,
    LocationKind,
    Noop,
    Put,
)
from .prompts import (
    ORCHESTRATOR_SYSTEM,
    PLANNER_SYSTEM,
    WORKER_SYSTEM,
    orchestrator_prompt,
    worker_prompt,
)

SCRIPTED_MODEL_ID = "scripted"


def _edf_key(order: DishOrder) -> tuple[int, int, int]:
    return (order.lifetime, order.issued_at, order.ordinal)


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of an order.

    ``step_index`` is a recipe step to cook, or ``None`` for the delivery
    leg; ``tool_id`` is the tool instance the item passes through.
    """

    order_ordinal: int
    dish: str
    step_index: int | None
    tool_id: str


def _tools_of_kind(state: KitchenState, tool_kind: str) -> list[str]:
    return sorted(
        loc.id
        for loc in state.locations.values()
        if loc.kind is LocationKind.TOOL and loc.tool_kind == tool_kind
    )


def sticky_tool(state: KitchenState, tool_kind: str, ordinal: int) -> str:
    """Tool instance for an order: stable across steps and replans."""
    tools = _tools_of_kind(state, tool_kind)
    return tools[ordinal % len(tools)]


def order_units(state: KitchenState, order: DishOrder) -> list[WorkUnit]:
    recipe = state.config.recipe_for(order.dish)
    units = [
        WorkUnit(
            order.ordinal,
            order.dish,
            s,
            sticky_tool(state, recipe.steps[s].tool_kind, order.ordinal),
        )
        for s in range(len(recipe.steps))
    ]
    units.append(WorkUnit(order.ordinal, order.dish, None, units[-1].tool_id))
    return units


def _storages(state: KitchenState) -> list[str]:
    return sorted(
        loc.id for loc in state.locations.values() if loc.kind is LocationKind.STORAGE
    )


def _produced_items(state: KitchenState) -> set[str]:
    return {
        step.output for recipe in state.config.recipes for step in recipe.steps
    }


def _recovery_claimant(state: KitchenState, dish: str) -> int | None:
    """The one live order of a dish allowed to scavenge strays of it.

    Concurrent orders of the same dish cannot tell loose items apart, so
    pickups outside an order's own tool pipeline are reserved for the
    lowest-ordinal live order; every agent computes the same answer from
    the same snapshot, which keeps scavenging race-free.
    """
    ordinals = [o.ordinal for o in state.orders if o.dish == dish]
    return min(ordinals) if ordinals else None


def _pipeline_tools(state: KitchenState, unit: WorkUnit) -> list[str]:
    recipe = state.config.recipe_for(unit.dish)
    return [
        sticky_tool(state, recipe.steps[s].tool_kind, unit.order_ordinal)
        for s in range(len(recipe.steps))
    ]


def _downstream_done(state: KitchenState, agent_id: str, unit: WorkUnit) -> bool:
    """Has this cook step's output (or a later step's) been produced already?

    Evidence is scoped to the order's own tool pipeline plus carried
    items, so a concurrent order of the same dish does not get credited
    with this order's work. Items in other agents' hands count for
    intermediates (a plan may hand ferrying to someone else) but not for
    the finished dish, which is the delivery leg's business.
    """
    assert unit.step_index is not None
    recipe = state.config.recipe_for(unit.dish)
    tools = _pipeline_tools(state, unit)
    me = state.agents[agent_id]
    for s in range(unit.step_index, len(recipe.steps)):
        output = recipe.steps[s].output
        tool = state.locations[tools[s]]
        if tool.contents.get(output, 0) > 0:
            return True
        if tool.processing is not None and tool.processing.output_item == output:
            return True
        if s + 1 < len(recipe.steps):
            if state.locations[tools[s + 1]].contents.get(output, 0) > 0:
                return True  # staged at the next tool
        if me.holding == output:
            return True
        if output != unit.dish and any(
            a.holding == output for a in state.agents.values()
        ):
            return True
    return False


def _cook_input_sources(state: KitchenState, unit: WorkUnit, item: str) -> list[str]:
    """Where a cook step may fetch an input from, in priority order.

    The prior step's own tool first; then storages (plus the serving
    table for strays) -- but recipe-produced items may only be scavenged
    from shared locations by the dish's recovery claimant.
    """
    assert unit.step_index is not None
    recipe = state.config.recipe_for(unit.dish)
    sources: list[str] = []
    if unit.step_index > 0 and recipe.steps[unit.step_index - 1].output == item:
        sources.append(_pipeline_tools(state, unit)[unit.step_index - 1])
    if item in _produced_items(state):
        if _recovery_claimant(state, unit.dish) == unit.order_ordinal:
            sources.extend(_storages(state))
            sources.append(state.serving_table_id())
    else:
        sources.extend(_storages(state))
    seen: set[str] = set()
    ordered = []
    for loc_id in sources:
        if loc_id not in seen:
            seen.add(loc_id)
            ordered.append(loc_id)
    return ordered


def _stash_action(state: KitchenState, agent_id: str) -> KitchenAction:
    """Free the hands: drop the held item at the first storage."""
    storages = _storages(state)
    if not storages:
        return Noop(agent_id)
    agent = state.agents[agent_id]
    if agent.at in storages:
        return Put(agent_id, agent.at)
    return Goto(agent_id, storages[0])


def _goto_or(state: KitchenState, agent_id: str, loc_id: str, action: KitchenAction) -> KitchenAction:
    if state.agents[agent_id].at != loc_id:
        return Goto(agent_id, loc_id)
    return action


def _advance_cook_unit(
    state: KitchenState, agent_id: str, unit: WorkUnit
) -> KitchenAction | None:
    """Next action toward cooking one recipe step, or None if nothing to do."""
    assert unit.step_index is not None
    recipe = state.config.recipe_for(unit.dish)
    step = recipe.steps[unit.step_index]
    if _downstream_done(state, agent_id, unit):
        return None
    tool = state.locations[unit.tool_id]
    if tool.busy:
        return None  # cooking (ours or someone else's); wait
    agent = state.agents[agent_id]
    need = Counter(dict(step.inputs))
    have = tool.contents
    if have == need:
        return _goto_or(state, agent_id, unit.tool_id, Activate(agent_id, unit.tool_id))
    extraneous = have - need
    if extraneous and agent.holding is None:
        # clear foreign or surplus items so the tool can ever match
        junk = sorted(extraneous)[0]
        return _goto_or(state, agent_id, unit.tool_id, Get(agent_id, unit.tool_id, junk))
    missing = need - have
    if agent.holding is not None:
        if missing.get(agent.holding, 0) > 0:
            return _goto_or(state, agent_id, unit.tool_id, Put(agent_id, unit.tool_id))
        return _stash_action(state, agent_id)
    for item in sorted(missing):
        for source_id in _cook_input_sources(state, unit, item):
            if source_id == unit.tool_id:
                continue
            source = state.locations[source_id]
            if not source.busy and source.contents.get(item, 0) > 0:
                return _goto_or(state, agent_id, source_id, Get(agent_id, source_id, item))
    return None  # inputs not yet produced; wait


def _advance_deliver_unit(
    state: KitchenState, agent_id: str, unit: WorkUnit
) -> KitchenAction | None:
    """Next action toward serving the finished dish.

    The delivery leg only takes the dish from its own final tool (or, for
    the recovery claimant, from storages and the serving table); finished
    dishes in other pipelines belong to their own delivery legs.
    """
    agent = state.agents[agent_id]
    table = state.serving_table_id()
    if agent.holding == unit.dish:
        return _goto_or(state, agent_id, table, Put(agent_id, table))
    if agent.holding is not None:
        return None  # hands full with something else; other units decide
    sources = [unit.tool_id]
    if _recovery_claimant(state, unit.dish) == unit.order_ordinal:
        sources.extend(_storages(state))
        sources.append(table)
    for source_id in sources:
        source = state.locations[source_id]
        if not source.busy and source.contents.get(unit.dish, 0) > 0:
            return _goto_or(state, agent_id, source_id, Get(agent_id, source_id, unit.dish))
    # dish still being produced: stage at the tool it will come out of
    tool = state.locations[unit.tool_id]
    if tool.processing is not None and tool.processing.output_item == unit.dish:
        if agent.at != unit.tool_id:
            return Goto(agent_id, unit.tool_id)
    return None


def advance_unit(state: KitchenState, agent_id: str, unit: WorkUnit) -> KitchenAction | None:
    if unit.step_index is None:
        return _advance_deliver_unit(state, agent_id, unit)
    return _advance_cook_unit(state, agent_id, unit)


def _act_on_units(
    state: KitchenState, agent_id: str, units: Sequence[WorkUnit]
) -> KitchenAction:
    for unit in units:
        action = advance_unit(state, agent_id, unit)
        if action is not None:
            return action
    if state.agents[agent_id].holding is not None:
        return _stash_action(state, agent_id)
    return Noop(agent_id)


def scripted_individual_action(state: KitchenState, agent_id: str) -> KitchenAction:
    """Self-assigned action: this agent owns orders by ordinal round-robin."""
    roster = state.agent_ids()
    index = roster.index(agent_id)
    owned = [
        order
        for order in sorted(state.orders, key=_edf_key)
        if order.ordinal % len(roster) == index
    ]
    units = [unit for order in owned for unit in order_units(state, order)]
    return _act_on_units(state, agent_id, units)


def _units_from_directives(
    state: KitchenState, directives: Sequence[Directive]
) -> list[WorkUnit]:
    live_ordinals = {order.ordinal for order in state.orders}
    units = []
    for d in directives:
        if d.dish is None or d.order_ordinal is None or d.tool_id is None:
            continue
        if d.order_ordinal not in live_ordinals:
            continue  # that order completed or expired since the plan
        units.append(
            WorkUnit(d.order_ordinal, d.dish, None if d.deliver else d.recipe_step, d.tool_id)
        )
    return units


class ScriptedWorker:
    """Deterministic worker: follows its directives, or self-assigns."""

    model_id = SCRIPTED_MODEL_ID

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        if query.directives is not None:
            units = _units_from_directives(state, query.directives)
            action = _act_on_units(state, query.agent_id, units)
        else:
            action = scripted_individual_action(state, query.agent_id)
        return PolicyResponse(text=action.to_text())


class ScriptedOrchestrator:
    """Central variant: emits one self-assigned action line per agent."""

    model_id = SCRIPTED_MODEL_ID

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        lines = [
            scripted_individual_action(state, agent_id).to_text()
            for agent_id in state.agent_ids()
        ]
        return PolicyResponse(text="\n".join(lines))


def _directive_from_unit(unit: WorkUnit) -> Directive:
    if unit.step_index is None:
        text = f"deliver {unit.dish} (order {unit.order_ordinal}) from {unit.tool_id}"
        return Directive(
            text=text,
            dish=unit.dish,
            order_ordinal=unit.order_ordinal,
            tool_id=unit.tool_id,
            deliver=True,
        )
    text = (
        f"cook step {unit.step_index} of {unit.dish} "
        f"(order {unit.order_ordinal}) at {unit.tool_id}"
    )
    return Directive(
        text=text,
        dish=unit.dish,
        recipe_step=unit.step_index,
        order_ordinal=unit.order_ordinal,
        tool_id=unit.tool_id,
    )


class ScriptedPlanner:
    """Greedy plan: EDF orders expanded to units, dealt round-robin."""

    model_id = SCRIPTED_MODEL_ID

    def plan(
        self,
        prompt: str,
        state: KitchenState,
        roster: Sequence[str],
        prior: Plan | None,
        events: Sequence[KitchenEvent],
    ) -> tuple[Plan | None, PolicyResponse]:
        agents = sorted(roster)
        units = [
            unit
            for order in sorted(state.orders, key=_edf_key)
            for unit in order_units(state, order)
        ]
        directives: dict[str, list[Directive]] = {a: [] for a in agents}
        for i, unit in enumerate(units):
            directives[agents[i % len(agents)]].append(_directive_from_unit(unit))
        for agent_id in agents:
            if not directives[agent_id]:
                directives[agent_id].append(Directive.idle())
        plan = Plan(created_at=state.step, directives={a: tuple(ds) for a, ds in directives.items()})
        return plan, PolicyResponse(text=plan.to_text())


class FixedScriptWorker:
    """Replays a fixed list of action texts; noops when the list runs out."""

    model_id = SCRIPTED_MODEL_ID

    def __init__(self, action_texts: Sequence[str]):
        self._texts = list(action_texts)
        self._index = 0

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        if self._index < len(self._texts):
            text = self._texts[self._index]
            self._index += 1
        else:
            text = f"noop({query.agent_id})"
        return PolicyResponse(text=text)


class FlakyWorker:
    """Wraps a policy and garbles its output at a seeded rate.

    Garbled responses carry no action grammar at all, so they register as
    parse failures downstream -- a stand-in for workers of varying
    reliability.
    """

    def __init__(self, inner: Policy, failure_rate: float, seed: int, model_id: str | None = None):
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must lie in [0, 1]")
        self.inner = inner
        self.failure_rate = failure_rate
        self.model_id = model_id or inner.model_id
        self._rng = random.Random(seed)

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        response = self.inner.respond(query, state)
        if self._rng.random() < self.failure_rate:
            return PolicyResponse(text="(garbled output with no recognizable directive)")
        return response


# --- model-backed adapters -----------------------------------------------------


class _GatewayPolicy:
    """Shared state of the model-backed adapters.

    Each subclass defines its ``respond`` or ``plan`` in its own class body,
    because ``bench/tracer.py`` patches those methods class by class.
    """

    def __init__(
        self,
        binding: ModelBinding,
        transport: Transport | None = None,
        decoding: Decoding = Decoding(),
    ):
        self.binding = binding
        self.transport = transport
        self.decoding = decoding
        self.model_id = binding.model_id

    def _ask(self, system: str, user: str) -> PolicyResponse:
        messages = [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ]
        result = complete(self.binding, messages, self.decoding, self.transport)
        return PolicyResponse(result.text, result.tokens_in, result.tokens_out)


class GatewayWorker(_GatewayPolicy):
    """Worker policy backed by a chat-completion endpoint."""

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        directive_text = None
        if query.directives:
            directive_text = "; ".join(d.text for d in query.directives)
        return self._ask(
            WORKER_SYSTEM, worker_prompt(query.observation, directive_text, query.agent_id)
        )


class GatewayOrchestrator(_GatewayPolicy):
    """Central policy backed by a chat-completion endpoint."""

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        return self._ask(
            ORCHESTRATOR_SYSTEM, orchestrator_prompt(query.observation, state.agent_ids())
        )


_DIRECTIVE_LINE = re.compile(r"^\s*(agent\d+)\s*[:\-]\s*(.+?)\s*$", re.IGNORECASE | re.MULTILINE)


def parse_plan_text(text: str, roster: Sequence[str]) -> dict[str, tuple[Directive, ...]] | None:
    """Directives from 'agentN: ...' lines; None when no agent line parses."""
    known = {a.lower(): a for a in roster}
    collected: dict[str, list[Directive]] = {}
    for match in _DIRECTIVE_LINE.finditer(text):
        agent = known.get(match.group(1).lower())
        if agent is None:
            continue
        collected.setdefault(agent, []).append(Directive(text=match.group(2)))
    if not collected:
        return None
    directives = {
        a: tuple(collected.get(a, [Directive.idle()])) for a in roster
    }
    return directives


class GatewayPlanner(_GatewayPolicy):
    """Planner backed by a chat-completion endpoint.

    Unparseable plans return ``None`` so the episode keeps its prior plan.
    """

    def plan(
        self,
        prompt: str,
        state: KitchenState,
        roster: Sequence[str],
        prior: Plan | None,
        events: Sequence[KitchenEvent],
    ) -> tuple[Plan | None, PolicyResponse]:
        response = self._ask(PLANNER_SYSTEM, prompt)
        directives = parse_plan_text(response.text, roster)
        if directives is None:
            return None, response
        return Plan(created_at=state.step, directives=directives), response
