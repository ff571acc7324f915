"""Deterministic kitchen simulator with timed dish orders.

Agents move between locations (ingredient storages, cooking tools, a
serving table), carry one item at a time, load tools and activate them to
transform ingredients, and deliver finished dishes to the serving table
before the corresponding order expires. The action space is
``goto/get/put/activate/noop``; the observation is a fixed text rendering
of the full state.

Step pipeline, applied to the state in place, in order:

1. actions resolve sequentially by ascending agent id, each checked once
   against the live state -- an action that fails only because an earlier
   agent's action beat it to a resource is reported as contention; the
   pre-step check that tells it apart is taken only for a get, put or
   activate on a location an earlier agent also gets from, puts on or
   activates;
2. every busy tool's cook counter decrements (including tools activated
   this step); at zero the tool's contents are replaced by the step
   output;
3. live order lifetimes decrement; orders reaching zero expire;
4. if the next step index is a spawn step, the next scheduled order is
   introduced, so policies can see it before acting on that step.

The entire order schedule is drawn up-front from the level seed, so state
carries no live RNG and identical inputs replay byte-identically.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

MIN_AGENTS = 1
MAX_AGENTS = 6


class UnknownAgent(KeyError):
    """An action or query referenced an agent that does not exist."""


class UnknownLocation(KeyError):
    """An action referenced a location that does not exist."""


class EpisodeOver(RuntimeError):
    """step() was called on a state already at the step limit."""


class MalformedLevel(ValueError):
    """A level config violates its own structural rules."""


# --- level configuration ----------------------------------------------------


class LocationKind(str, Enum):
    STORAGE = "storage"
    SERVING_TABLE = "servingtable"
    TOOL = "tool"


@dataclass(frozen=True)
class LocationSpec:
    id: str
    kind: LocationKind
    tool_kind: str | None = None
    stock: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RecipeStep:
    tool_kind: str
    inputs: Mapping[str, int]
    output: str
    cook_steps: int

    def __post_init__(self) -> None:
        if self.cook_steps < 1:
            raise MalformedLevel("cook_steps must be >= 1")
        if not self.inputs:
            raise MalformedLevel("a recipe step needs at least one input")
        for item, count in self.inputs.items():
            # a zero count would let an empty tool cook from nothing
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise MalformedLevel(f"input {item!r} of {self.output!r} needs an int count >= 1, got {count!r}")


@dataclass(frozen=True)
class Recipe:
    dish: str
    steps: tuple[RecipeStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise MalformedLevel(f"recipe for {self.dish} has no steps")
        if self.steps[-1].output != self.dish:
            raise MalformedLevel(
                f"recipe for {self.dish}: final step produces {self.steps[-1].output!r}"
            )


@dataclass(frozen=True)
class OrderSchedule:
    spawn_interval: int
    lifetime: int
    dish_pool: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.spawn_interval < 1 or self.lifetime < 1:
            raise MalformedLevel("spawn_interval and lifetime must be >= 1")
        if not self.dish_pool:
            raise MalformedLevel("dish_pool must not be empty")


@dataclass(frozen=True)
class LevelConfig:
    """An immutable level.

    Its derived lookups (recipe by dish, recipe steps by tool kind, tool ids
    by kind, storage ids, serving table, produced items) are cached
    properties, built on first use, so the step path never rescans the level.
    """

    level_id: str
    locations: tuple[LocationSpec, ...]
    recipes: tuple[Recipe, ...]
    order_schedule: OrderSchedule
    max_steps: int

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise MalformedLevel("max_steps must be >= 1")
        ids = [loc.id for loc in self.locations]
        if len(set(ids)) != len(ids):
            raise MalformedLevel("duplicate location ids")
        if not any(loc.kind is LocationKind.SERVING_TABLE for loc in self.locations):
            raise MalformedLevel("a level needs at least one serving table")
        for loc in self.locations:
            if loc.kind is LocationKind.TOOL and not loc.tool_kind:
                raise MalformedLevel(f"tool location {loc.id} lacks a tool_kind")
            if loc.kind is not LocationKind.STORAGE and loc.stock:
                raise MalformedLevel(f"only storages may carry stock ({loc.id})")
        dishes = {r.dish for r in self.recipes}
        for dish in self.order_schedule.dish_pool:
            if dish not in dishes:
                raise MalformedLevel(f"dish_pool entry {dish!r} has no recipe")
        storage_items = set()
        for loc in self.locations:
            storage_items.update(loc.stock)
        tool_kinds = {loc.tool_kind for loc in self.locations if loc.kind is LocationKind.TOOL}
        for recipe in self.recipes:
            known = set(storage_items)
            for step in recipe.steps:
                if step.tool_kind not in tool_kinds:
                    raise MalformedLevel(
                        f"recipe {recipe.dish}: no {step.tool_kind!r} tool in level"
                    )
                for item in step.inputs:
                    if item not in known:
                        raise MalformedLevel(
                            f"recipe {recipe.dish}: input {item!r} is neither stocked nor a prior output"
                        )
                known.add(step.output)

    @functools.cached_property
    def _recipe_by_dish(self) -> dict[str, Recipe]:
        """The first recipe of each dish."""
        found: dict[str, Recipe] = {}
        for recipe in self.recipes:
            found.setdefault(recipe.dish, recipe)
        return found

    @functools.cached_property
    def recipe_steps_by_tool(self) -> dict[str, tuple[RecipeStep, ...]]:
        """Each tool kind's recipe steps in config order."""
        found: dict[str, list[RecipeStep]] = {}
        for recipe in self.recipes:
            for step in recipe.steps:
                found.setdefault(step.tool_kind, []).append(step)
        return {kind: tuple(steps) for kind, steps in found.items()}

    @functools.cached_property
    def tools_by_kind(self) -> dict[str, tuple[str, ...]]:
        """The sorted tool ids of each tool kind."""
        found: dict[str, list[str]] = {}
        for loc in self.locations:
            if loc.kind is LocationKind.TOOL:
                found.setdefault(loc.tool_kind or "", []).append(loc.id)
        return {kind: tuple(sorted(ids)) for kind, ids in found.items()}

    @functools.cached_property
    def storage_ids(self) -> tuple[str, ...]:
        return tuple(sorted(loc.id for loc in self.locations if loc.kind is LocationKind.STORAGE))

    @functools.cached_property
    def serving_table_id(self) -> str:
        """The first serving table in config order."""
        return next(loc.id for loc in self.locations if loc.kind is LocationKind.SERVING_TABLE)

    @functools.cached_property
    def produced_items(self) -> frozenset[str]:
        """Every item some recipe step outputs."""
        return frozenset(step.output for recipe in self.recipes for step in recipe.steps)

    def recipe_for(self, dish: str) -> Recipe:
        return self._recipe_by_dish[dish]

    def spawn_steps(self) -> list[int]:
        return list(range(0, self.max_steps, self.order_schedule.spawn_interval))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "level_id": self.level_id,
            "max_steps": self.max_steps,
            "locations": [
                {
                    "id": loc.id,
                    "kind": loc.kind.value,
                    **({"tool_kind": loc.tool_kind} if loc.tool_kind else {}),
                    **({"stock": dict(loc.stock)} if loc.stock else {}),
                }
                for loc in self.locations
            ],
            "recipes": [
                {
                    "dish": r.dish,
                    "steps": [
                        {
                            "tool_kind": s.tool_kind,
                            "inputs": dict(s.inputs),
                            "output": s.output,
                            "cook_steps": s.cook_steps,
                        }
                        for s in r.steps
                    ],
                }
                for r in self.recipes
            ],
            "order_schedule": {
                "spawn_interval": self.order_schedule.spawn_interval,
                "lifetime": self.order_schedule.lifetime,
                "dish_pool": list(self.order_schedule.dish_pool),
            },
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "LevelConfig":
        try:
            locations = tuple(
                LocationSpec(
                    id=loc["id"],
                    kind=LocationKind(loc["kind"]),
                    tool_kind=loc.get("tool_kind"),
                    stock=dict(loc.get("stock", {})),
                )
                for loc in payload["locations"]
            )
            recipes = tuple(
                Recipe(
                    dish=r["dish"],
                    steps=tuple(
                        RecipeStep(
                            tool_kind=s["tool_kind"],
                            inputs=dict(s["inputs"]),
                            output=s["output"],
                            cook_steps=int(s["cook_steps"]),
                        )
                        for s in r["steps"]
                    ),
                )
                for r in payload["recipes"]
            )
            schedule = OrderSchedule(
                spawn_interval=int(payload["order_schedule"]["spawn_interval"]),
                lifetime=int(payload["order_schedule"]["lifetime"]),
                dish_pool=tuple(payload["order_schedule"]["dish_pool"]),
            )
            return cls(
                level_id=payload["level_id"],
                locations=locations,
                recipes=recipes,
                order_schedule=schedule,
                max_steps=int(payload["max_steps"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, MalformedLevel):
                raise
            raise MalformedLevel(f"bad level config: {exc}") from exc


# --- runtime state ----------------------------------------------------------


@dataclass
class Processing:
    remaining_steps: int
    output_item: str


@dataclass
class LocationState:
    id: str
    kind: LocationKind
    tool_kind: str | None = None
    contents: Counter = field(default_factory=Counter)
    processing: Processing | None = None

    @property
    def busy(self) -> bool:
        return self.processing is not None


@dataclass
class AgentState:
    id: str
    at: str
    holding: str | None = None


@dataclass
class DishOrder:
    dish: str
    lifetime: int
    issued_at: int
    ordinal: int


def order_urgency(order: DishOrder) -> tuple[int, int, int]:
    """Sort key of live orders, most urgent first: closest to expiry, then oldest, then first spawned."""
    return (order.lifetime, order.issued_at, order.ordinal)


# --- actions and events -----------------------------------------------------


@dataclass(frozen=True)
class Goto:
    agent: str
    location: str

    def to_text(self) -> str:
        return f"goto({self.agent}, {self.location})"


@dataclass(frozen=True)
class Get:
    agent: str
    location: str
    item: str

    def to_text(self) -> str:
        return f"get({self.agent}, {self.location}, {self.item})"


@dataclass(frozen=True)
class Put:
    agent: str
    location: str

    def to_text(self) -> str:
        return f"put({self.agent}, {self.location})"


@dataclass(frozen=True)
class Activate:
    agent: str
    location: str

    def to_text(self) -> str:
        return f"activate({self.agent}, {self.location})"


@dataclass(frozen=True)
class Noop:
    agent: str

    def to_text(self) -> str:
        return f"noop({self.agent})"


KitchenAction = Goto | Get | Put | Activate | Noop

ACTION_KINDS = ("goto", "get", "put", "activate", "noop")


def action_kind(action: KitchenAction) -> str:
    return type(action).__name__.lower()


class EventKind(str, Enum):
    ORDER_INTRODUCED = "order_introduced"
    ORDER_COMPLETED = "order_completed"
    ORDER_EXPIRED = "order_expired"


@dataclass(frozen=True)
class KitchenEvent:
    kind: EventKind
    dish: str
    step: int

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": self.kind.value, "dish": self.dish, "step": self.step}


class FailReason(str, Enum):
    NOT_AT_LOCATION = "not_at_location"
    HANDS_FULL = "hands_full"
    ITEM_ABSENT = "item_absent"
    TOOL_BUSY = "tool_busy"
    NOTHING_HELD = "nothing_held"
    NOT_A_TOOL = "not_a_tool"
    NO_MATCHING_RECIPE = "no_matching_recipe"
    CONTENTION = "contention"


@dataclass
class KitchenState:
    config: LevelConfig
    agents: dict[str, AgentState]
    locations: dict[str, LocationState]
    orders: list[DishOrder]
    step: int
    dish_schedule: tuple[str, ...]  # dish per spawn step, drawn at load
    next_spawn_index: int  # also the number of orders introduced so far
    expired_count: int
    completed_dishes: list[str]

    def copy(self) -> "KitchenState":
        """Deep copy of the state that shares the immutable ``config``.

        :func:`step` changes the state it is given, so a caller that needs
        the state as it was takes this copy first; ``run_episode`` takes
        one per episode, of its input.
        """
        return copy.deepcopy(self, {id(self.config): self.config})

    @property
    def completed_count(self) -> int:
        return len(self.completed_dishes)

    def agent_ids(self) -> list[str]:
        return sorted(self.agents)


@dataclass(frozen=True)
class StepOutcome:
    """What one :func:`step` did; the stepped state itself is the one passed in.

    ``per_agent_result`` maps each agent to its action's :class:`FailReason`, ``None`` on success.
    """

    events: tuple[KitchenEvent, ...]
    per_agent_result: dict[str, FailReason | None]


# --- operations -------------------------------------------------------------


def load_level(config: LevelConfig, agent_count: int, seed: int) -> KitchenState:
    """Build the initial state: agents at the serving table, first order live."""
    if not MIN_AGENTS <= agent_count <= MAX_AGENTS:
        raise ValueError(f"agent_count must be in [{MIN_AGENTS}, {MAX_AGENTS}]")

    rng = random.Random(seed)
    pool = config.order_schedule.dish_pool
    schedule = tuple(pool[rng.randrange(len(pool))] for _ in config.spawn_steps())

    locations = {}
    for spec in config.locations:
        locations[spec.id] = LocationState(
            id=spec.id,
            kind=spec.kind,
            tool_kind=spec.tool_kind,
            contents=Counter(dict(spec.stock)),
        )
    table = config.serving_table_id
    agents = {
        f"agent{i}": AgentState(id=f"agent{i}", at=table) for i in range(agent_count)
    }

    first = DishOrder(
        dish=schedule[0],
        lifetime=config.order_schedule.lifetime,
        issued_at=0,
        ordinal=0,
    )
    return KitchenState(
        config=config,
        agents=agents,
        locations=locations,
        orders=[first],
        step=0,
        dish_schedule=schedule,
        next_spawn_index=1,
        expired_count=0,
        completed_dishes=[],
    )


def _match_recipe_step(config: LevelConfig, tool_kind: str, contents: Counter) -> RecipeStep | None:
    """First recipe step (config order) whose tool and exact inputs match."""
    for step in config.recipe_steps_by_tool.get(tool_kind, ()):
        if step.inputs == contents:  # exact: inputs count at least 1, and no tool holds a count of 0
            return step
    return None


def _check_action(state: KitchenState, action: KitchenAction) -> FailReason | None:
    """Failure reason the action would get right now, or None if it succeeds."""
    agent = state.agents[action.agent]
    if isinstance(action, Noop):
        return None
    loc = state.locations[action.location]
    if isinstance(action, Goto):
        return None
    if agent.at != loc.id:
        return FailReason.NOT_AT_LOCATION
    if isinstance(action, Get):
        if agent.holding is not None:
            return FailReason.HANDS_FULL
        if loc.busy:
            return FailReason.TOOL_BUSY
        if loc.contents[action.item] < 1:
            return FailReason.ITEM_ABSENT
        return None
    if isinstance(action, Put):
        if agent.holding is None:
            return FailReason.NOTHING_HELD
        if loc.busy:
            return FailReason.TOOL_BUSY
        return None
    if isinstance(action, Activate):
        if loc.kind is not LocationKind.TOOL:
            return FailReason.NOT_A_TOOL
        if loc.busy:
            return FailReason.TOOL_BUSY
        if _match_recipe_step(state.config, loc.tool_kind or "", loc.contents) is None:
            return FailReason.NO_MATCHING_RECIPE
        return None
    raise TypeError(f"unknown action {action!r}")  # pragma: no cover


def _apply_action(state: KitchenState, action: KitchenAction) -> list[KitchenEvent]:
    """Mutate state for an action already known to succeed."""
    events: list[KitchenEvent] = []
    agent = state.agents[action.agent]
    if isinstance(action, Noop):
        return events
    loc = state.locations[action.location]
    if isinstance(action, Goto):
        agent.at = loc.id
        return events
    if isinstance(action, Get):
        loc.contents[action.item] -= 1
        if loc.contents[action.item] == 0:
            del loc.contents[action.item]
        agent.holding = action.item
        return events
    if isinstance(action, Put):
        item = agent.holding
        assert item is not None
        agent.holding = None
        if loc.kind is LocationKind.SERVING_TABLE:
            matching = [o for o in state.orders if o.dish == item]
            if matching:
                # serve the most urgent order; the item leaves the world
                order = min(matching, key=order_urgency)
                state.orders.remove(order)
                state.completed_dishes.append(item)
                events.append(KitchenEvent(EventKind.ORDER_COMPLETED, item, state.step))
                return events
        loc.contents[item] += 1
        return events
    if isinstance(action, Activate):
        step = _match_recipe_step(state.config, loc.tool_kind or "", loc.contents)
        assert step is not None
        loc.processing = Processing(step.cook_steps, step.output)
        return events
    raise TypeError(f"unknown action {action!r}")  # pragma: no cover


def _validate_joint(state: KitchenState, joint: Mapping[str, KitchenAction]) -> None:
    if set(joint) != set(state.agents):
        missing = set(state.agents) - set(joint)
        extra = set(joint) - set(state.agents)
        if extra:
            raise UnknownAgent(f"actions for unknown agents: {sorted(extra)}")
        raise ValueError(f"missing actions for agents: {sorted(missing)}")
    for agent_id, action in joint.items():
        if action.agent != agent_id:
            raise ValueError(
                f"action for {agent_id} names agent {action.agent}"
            )
        if not isinstance(action, Noop):
            if action.location not in state.locations:
                raise UnknownLocation(action.location)


def step(state: KitchenState, joint: Mapping[str, KitchenAction]) -> StepOutcome:
    """Advance ``state`` one step under a joint action, in place.

    In-world impossibilities become per-agent failures; only unknown
    agent/location ids raise, before anything changes. Each action is
    checked once, against the live state as earlier agents left it. An
    action that fails there but was fine against the pre-step state lost a
    race to an earlier agent, and is told apart as contention. The
    pre-step check is taken, before any action applies, only for a get,
    put or activate on a location that an earlier agent also gets from,
    puts on or activates: only those actions change a location, and an
    agent's own position and hands change only by its own action, so any
    other action fails live for the reason it would have failed before
    the step. A caller that needs the prior state copies it first with
    :meth:`KitchenState.copy`.
    """
    if state.step >= state.config.max_steps:
        raise EpisodeOver(f"episode already ran its {state.config.max_steps} steps")
    _validate_joint(state, joint)

    t = state.step
    agent_ids = sorted(joint)
    fine_before: set[str] = set()  # agents whose shared-location action was fine before the step
    acted_on: set[str] = set()
    for agent_id in agent_ids:
        action = joint[agent_id]
        if isinstance(action, (Get, Put, Activate)):
            if action.location in acted_on and _check_action(state, action) is None:
                fine_before.add(agent_id)
            acted_on.add(action.location)
    events: list[KitchenEvent] = []
    results: dict[str, FailReason | None] = {}

    for agent_id in agent_ids:
        action = joint[agent_id]
        reason = _check_action(state, action)
        if reason is None:
            events.extend(_apply_action(state, action))
        elif agent_id in fine_before:
            reason = FailReason.CONTENTION
        results[agent_id] = reason

    # each countdown touches only its own location, so the order is free
    for loc in state.locations.values():
        if loc.processing is not None:
            loc.processing.remaining_steps -= 1
            if loc.processing.remaining_steps == 0:
                loc.contents = Counter({loc.processing.output_item: 1})
                loc.processing = None

    still_live: list[DishOrder] = []
    for order in state.orders:
        if order.issued_at <= t:
            order.lifetime -= 1
            if order.lifetime == 0:
                state.expired_count += 1
                events.append(KitchenEvent(EventKind.ORDER_EXPIRED, order.dish, t))
                continue
        still_live.append(order)
    state.orders = still_live

    upcoming = t + 1
    schedule = state.config.order_schedule
    if (
        upcoming < state.config.max_steps
        and upcoming % schedule.spawn_interval == 0
        and state.next_spawn_index < len(state.dish_schedule)
    ):
        dish = state.dish_schedule[state.next_spawn_index]
        state.orders.append(
            DishOrder(
                dish=dish,
                lifetime=schedule.lifetime,
                issued_at=upcoming,
                ordinal=state.next_spawn_index,
            )
        )
        state.next_spawn_index += 1
        events.append(KitchenEvent(EventKind.ORDER_INTRODUCED, dish, t))

    state.step = upcoming
    return StepOutcome(tuple(events), results)


# --- observation rendering ---------------------------------------------------


def _format_contents(contents: Counter) -> str:
    if not contents:
        return "None"
    parts = []
    for item in sorted(contents):
        count = contents[item]
        parts.append(item if count == 1 else f"{item}*{count}")
    return ", ".join(parts)


def render_observation(state: KitchenState) -> str:
    """Fixed text rendering of the full state; byte-stable per state."""
    lines: list[str] = []
    lines.append("Game Configuration")
    lines.append(f"Current Game Level: {state.config.level_id}")
    lines.append("Current Dishes")
    if state.orders:
        for order in sorted(state.orders, key=lambda o: o.ordinal):
            lines.append(f"  Name: {order.dish}")
            lines.append(f"  Lifetime: {order.lifetime}")
    else:
        lines.append("  None")
    lines.append(f"Current Game Step: {state.step}")
    lines.append(f"Maximum Game Steps: {state.config.max_steps}")
    lines.append("")
    lines.append("Agent State")
    for agent_id in state.agent_ids():
        agent = state.agents[agent_id]
        lines.append(f"at({agent.id}, {agent.at})")
        lines.append(f"hold({agent.id}, {agent.holding if agent.holding else 'None'})")
    lines.append("")
    lines.append("Kitchen State")
    for spec in state.config.locations:
        loc = state.locations[spec.id]
        lines.append(f"inside({loc.id}, {_format_contents(loc.contents)})")
    lines.append("")
    lines.append("Accomplished Tasks")
    lines.extend(state.completed_dishes or ("None",))
    return "\n".join(lines) + "\n"


def observation_text_hash(observation: str) -> str:
    """Hash of an already rendered observation."""
    return hashlib.sha256(observation.encode("utf-8")).hexdigest()


def observation_hash(state: KitchenState) -> str:
    return observation_text_hash(render_observation(state))
