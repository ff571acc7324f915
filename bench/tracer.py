"""Spans around the calls into each allocsim layer, installed from outside.

The tracer patches module and class attributes of the program; the
program's source is not edited. Each wrapped call records a span (parent
span, job id, layer name, start, end) in memory, and a few wrappers also
count bytes at the same boundary. Spans are recorded only while a job is
running, so the benchmark's own set-up and checks stay out of them.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

from allocsim import accounting, assignment, cli, coordination, gateway, kitchen, policies


def _targets() -> list[tuple[Any, str, str, Callable[[Any], int] | None]]:
    """(owner, attribute, layer, byte counter) for every wrapped call site."""
    return [
        (cli, "main", "cli.main", None),
        (cli, "load_level", "kitchen.load_level", None),
        (cli, "run_episode", "coordination.run_episode", None),
        (coordination, "kitchen_step", "kitchen.step", None),
        (kitchen.KitchenState, "copy", "kitchen.copy", None),
        (coordination, "render_observation", "kitchen.render", len),
        (coordination, "observation_hash", "kitchen.render", None),
        (coordination, "parse_action", "coordination.parse", None),
        (coordination, "parse_joint_actions", "coordination.parse", None),
        (coordination, "planner_replan", "coordination.planner_replan", None),
        (coordination, "efficiency", "accounting.efficiency", None),
        (policies.ScriptedWorker, "respond", "policies.scripted", None),
        (policies.ScriptedOrchestrator, "respond", "policies.scripted", None),
        (policies.ScriptedPlanner, "plan", "policies.scripted", None),
        (policies.GatewayWorker, "respond", "policies.gateway", None),
        (policies.GatewayOrchestrator, "respond", "policies.gateway", None),
        (policies.GatewayPlanner, "plan", "policies.gateway", None),
        (policies, "complete", "gateway.complete", None),
        (gateway, "build_request_body", "gateway.encode", len),
        (gateway.MockTransport, "send", "gateway.send", None),
        (gateway, "normalize_response", "gateway.decode", None),
        (accounting.CostLedger, "record_call", "accounting.record_call", None),
        (accounting.CapabilityProfile, "update", "accounting.capability_update", None),
        (assignment, "hungarian_solve", "assignment.hungarian_solve", None),
        (assignment, "linear_sum_assignment", "assignment.lsa", None),
        (assignment.CostMatrix, "__post_init__", "assignment.cost_matrix_init", None),
        (assignment, "validate", "assignment.grade", None),
        (assignment, "parse_candidate_text", "assignment.grade", None),
        (assignment, "score_batch", "assignment.score_batch", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int] | None] = []
        self.job: int | None = None
        self.bytes: Counter = Counter()
        self.byte_calls: Counter = Counter()
        self.failures: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def _wrap(self, owner: Any, attr: str, layer: str, count_bytes: Callable[[Any], int] | None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            job = self.job
            if job is None:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.failures[layer] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (parent, job, layer, start, end)
            if count_bytes is not None:
                self.bytes[layer] += count_bytes(result)
                self.byte_calls[layer] += 1
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, layer, count_bytes in _targets():
            self._wrap(owner, attr, layer, count_bytes)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per layer: calls, inclusive ns, and self ns (inclusive minus wrapped children)."""
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        children = [0] * len(self.spans)
        for parent, _, layer, start, end in self.spans:
            calls[layer] += 1
            inclusive[layer] += end - start
            if parent >= 0:
                children[parent] += end - start
        own: Counter = Counter()
        for index, (_, _, layer, start, end) in enumerate(self.spans):
            own[layer] += end - start - children[index]
        return calls, inclusive, own

    def write(self, path: Path) -> None:
        """One JSON line per span: index, parent, job, layer, start ns, end ns."""
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps([index, *span]) + "\n")
