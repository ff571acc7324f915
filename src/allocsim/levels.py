"""Built-in level configurations.

Three levels ship with the package, each exercising a different mechanic:
a single-tool dish, a two-tool sequential recipe, and a mixture recipe
that combines an intermediate with a second ingredient. Users supply
their own corpora as JSON documents with the same schema (see
:meth:`allocsim.kitchen.LevelConfig.from_json_dict`).

Storages are stocked at load with enough ingredients for every order an
episode can spawn, so the item-conservation invariant holds without any
in-episode restocking.
"""

from __future__ import annotations

from .kitchen import LevelConfig

_LEVEL_1 = {
    "level_id": "level_1",
    "max_steps": 60,
    "locations": [
        {"id": "storage0", "kind": "storage", "stock": {"salmon": 8}},
        {"id": "servingtable0", "kind": "servingtable"},
        {"id": "blender0", "kind": "tool", "tool_kind": "blender"},
        {"id": "blender1", "kind": "tool", "tool_kind": "blender"},
    ],
    "recipes": [
        {
            "dish": "salmonMeatcake",
            "steps": [
                {
                    "tool_kind": "blender",
                    "inputs": {"salmon": 1},
                    "output": "salmonMeatcake",
                    "cook_steps": 3,
                }
            ],
        }
    ],
    "order_schedule": {
        "spawn_interval": 12,
        "lifetime": 10,
        "dish_pool": ["salmonMeatcake"],
    },
}

_LEVEL_2 = {
    "level_id": "level_2",
    "max_steps": 60,
    "locations": [
        {"id": "storage0", "kind": "storage", "stock": {"salmon": 6}},
        {"id": "servingtable0", "kind": "servingtable"},
        {"id": "blender0", "kind": "tool", "tool_kind": "blender"},
        {"id": "blender1", "kind": "tool", "tool_kind": "blender"},
        {"id": "pan0", "kind": "tool", "tool_kind": "pan"},
        {"id": "pan1", "kind": "tool", "tool_kind": "pan"},
    ],
    "recipes": [
        {
            "dish": "grilledSalmonPatty",
            "steps": [
                {
                    "tool_kind": "blender",
                    "inputs": {"salmon": 1},
                    "output": "salmonPaste",
                    "cook_steps": 3,
                },
                {
                    "tool_kind": "pan",
                    "inputs": {"salmonPaste": 1},
                    "output": "grilledSalmonPatty",
                    "cook_steps": 3,
                },
            ],
        }
    ],
    "order_schedule": {
        "spawn_interval": 15,
        "lifetime": 20,
        "dish_pool": ["grilledSalmonPatty"],
    },
}

_LEVEL_3 = {
    "level_id": "level_3",
    "max_steps": 60,
    "locations": [
        {"id": "storage0", "kind": "storage", "stock": {"salmon": 5, "rice": 5, "tuna": 5}},
        {"id": "servingtable0", "kind": "servingtable"},
        {"id": "blender0", "kind": "tool", "tool_kind": "blender"},
        {"id": "blender1", "kind": "tool", "tool_kind": "blender"},
        {"id": "pot0", "kind": "tool", "tool_kind": "pot"},
        {"id": "pot1", "kind": "tool", "tool_kind": "pot"},
        {"id": "chopboard0", "kind": "tool", "tool_kind": "chopboard"},
        {"id": "chopboard1", "kind": "tool", "tool_kind": "chopboard"},
    ],
    "recipes": [
        {
            "dish": "salmonRiceBowl",
            "steps": [
                {
                    "tool_kind": "blender",
                    "inputs": {"salmon": 1},
                    "output": "salmonPaste",
                    "cook_steps": 3,
                },
                {
                    "tool_kind": "pot",
                    "inputs": {"salmonPaste": 1, "rice": 1},
                    "output": "salmonRiceBowl",
                    "cook_steps": 3,
                },
            ],
        },
        {
            "dish": "tunaSashimi",
            "steps": [
                {
                    "tool_kind": "chopboard",
                    "inputs": {"tuna": 1},
                    "output": "tunaSashimi",
                    "cook_steps": 3,
                }
            ],
        },
    ],
    "order_schedule": {
        "spawn_interval": 15,
        "lifetime": 20,
        "dish_pool": ["salmonRiceBowl", "tunaSashimi"],
    },
}

BUILTIN_LEVELS: dict[str, LevelConfig] = {
    payload["level_id"]: LevelConfig.from_json_dict(payload)  # type: ignore[index]
    for payload in (_LEVEL_1, _LEVEL_2, _LEVEL_3)
}


def get_level(level_id: str) -> LevelConfig:
    try:
        return BUILTIN_LEVELS[level_id]
    except KeyError:
        raise KeyError(
            f"unknown level {level_id!r}; built-ins: {sorted(BUILTIN_LEVELS)}"
        ) from None
