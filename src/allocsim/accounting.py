"""Call-cost ledger, capability tracking, and the efficiency metric.

Dollar amounts are exact: prices are per-million-token rationals and
token counts are integers, so every row's cost and the ledger total are
``fractions.Fraction`` values with no float drift. Floats appear only
when a report is rendered.

Capability profiles track per-agent action success rates, which double as
a proxy for worker model quality: parse failures, transport failures, and
in-world action failures all count as failed attempts.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .kitchen import ACTION_KINDS

_MTOK = 1_000_000


@dataclass(frozen=True)
class ModelPrice:
    input_usd_per_mtok: Fraction
    output_usd_per_mtok: Fraction

    def __post_init__(self) -> None:
        if self.input_usd_per_mtok <= 0 or self.output_usd_per_mtok <= 0:
            raise ValueError("prices must be > 0")


def _to_fraction(value: float | int | str | Decimal | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (str, Decimal)):
        return Fraction(Decimal(value))
    if isinstance(value, int):
        return Fraction(value)
    # floats go through Decimal's string form so "2.5" stays 5/2
    return Fraction(Decimal(str(value)))


@dataclass(frozen=True)
class PriceTable:
    prices: Mapping[str, ModelPrice]

    def __contains__(self, model_id: str) -> bool:
        return model_id in self.prices

    def usd_for(self, model_id: str, tokens_in: int, tokens_out: int) -> Fraction:
        # (tokens_in * a/b + tokens_out * c/d) / 1e6 over one common denominator
        price = self.prices[model_id]
        a, b = price.input_usd_per_mtok.as_integer_ratio()
        c, d = price.output_usd_per_mtok.as_integer_ratio()
        return Fraction(tokens_in * a * d + tokens_out * c * b, b * d * _MTOK)

    @classmethod
    def from_entries(cls, entries: Mapping[str, tuple[Any, Any]]) -> "PriceTable":
        return cls(
            {
                model: ModelPrice(_to_fraction(inp), _to_fraction(out))
                for model, (inp, out) in entries.items()
            }
        )


def default_price_table() -> PriceTable:
    """Current provider prices for the model roster, USD per million tokens."""
    return PriceTable.from_entries(
        {
            "claude-3.7": ("3.00", "15.00"),
            "gpt-4o": ("2.50", "10.00"),
            "gpt-4o-mini": ("0.15", "0.60"),
            "llama-3.1-70b": ("0.80", "2.80"),
            "qwen2.5-32b": ("0.40", "1.40"),
        }
    )


@dataclass(frozen=True)
class LedgerRow:
    model_id: str
    role: str  # "planner", "orchestrator", or "worker:<agent id>"
    tokens_in: int
    tokens_out: int
    usd: Fraction
    step: int
    unpriced: bool = False


class CostLedger:
    """Append-only record of model calls with exact dollar arithmetic."""

    def __init__(self, price_table: PriceTable | None = None):
        self.price_table = price_table or default_price_table()
        self.rows: list[LedgerRow] = []

    def record_call(
        self,
        model_id: str,
        role: str,
        tokens_in: int,
        tokens_out: int,
        step: int,
        allow_unpriced: bool = False,
    ) -> LedgerRow:
        if tokens_in < 0 or tokens_out < 0:
            raise ValueError("token counts must be >= 0")
        if model_id in self.price_table:
            usd = self.price_table.usd_for(model_id, tokens_in, tokens_out)
            unpriced = False
        elif allow_unpriced:
            warnings.warn(f"model {model_id!r} has no price; contributing $0", stacklevel=2)
            usd = Fraction(0)
            unpriced = True
        else:
            raise KeyError(f"model {model_id!r} not in price table")
        row = LedgerRow(model_id, role, tokens_in, tokens_out, usd, step, unpriced)
        self.rows.append(row)
        return row

    def total_usd(self) -> Fraction:
        # one Fraction: the rows' numerators over the lcm of their denominators
        denominator = math.lcm(*(row.usd.denominator for row in self.rows))
        return Fraction(
            sum(row.usd.numerator * (denominator // row.usd.denominator) for row in self.rows),
            denominator,
        )

    def sorted_rows(self) -> list[LedgerRow]:
        return sorted(self.rows, key=lambda r: (r.step, r.role, r.model_id))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "role", "model_id", "tokens_in", "tokens_out", "usd", "unpriced"])
        for row in self.sorted_rows():
            writer.writerow(
                [row.step, row.role, row.model_id, row.tokens_in, row.tokens_out,
                 f"{float(row.usd):.10f}", int(row.unpriced)]
            )
        return buf.getvalue()

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "total_usd": float(self.total_usd()),
            "rows": [
                {
                    "step": row.step,
                    "role": row.role,
                    "model_id": row.model_id,
                    "tokens_in": row.tokens_in,
                    "tokens_out": row.tokens_out,
                    "usd": float(row.usd),
                    "unpriced": row.unpriced,
                }
                for row in self.sorted_rows()
            ],
        }


@dataclass
class CapabilityCell:
    attempted: int = 0
    succeeded: int = 0

    @property
    def success_rate(self) -> float | None:
        if self.attempted == 0:
            return None
        return self.succeeded / self.attempted


class CapabilityProfile:
    """Per (agent, model) action-success counters; counters only grow."""

    def __init__(self) -> None:
        self.cells: dict[tuple[str, str], CapabilityCell] = {}

    def update(self, agent: str, model_id: str, succeeded: bool) -> None:
        cell = self.cells.setdefault((agent, model_id), CapabilityCell())
        cell.attempted += 1
        cell.succeeded += int(succeeded)

    def cell(self, agent: str, model_id: str) -> CapabilityCell:
        return self.cells.get((agent, model_id), CapabilityCell())

    def to_json_dict(self) -> dict[str, Any]:
        return {
            f"{agent}/{model}": {
                "attempted": cell.attempted,
                "succeeded": cell.succeeded,
                "success_rate": cell.success_rate,
            }
            for (agent, model), cell in sorted(self.cells.items())
        }


def capability_hint(
    profile: CapabilityProfile, roster: Sequence[tuple[str, str]]
) -> str:
    """Worker-capability block for planner prompts, one line per worker.

    ``roster`` is (agent id, model id) pairs in presentation order. Rates
    are printed to two decimals; workers with no recorded attempts show
    as unknown.
    """
    lines = ["Worker capabilities:"]
    for agent, model_id in roster:
        cell = profile.cell(agent, model_id)
        rate = cell.success_rate
        if rate is None:
            lines.append(f"- {agent} ({model_id}): success rate unknown")
        else:
            lines.append(f"- {agent} ({model_id}): success rate {rate:.2f}")
    return "\n".join(lines)


@dataclass(frozen=True)
class EfficiencyReport:
    completed_orders: int
    total_usd: Fraction
    efficiency: Fraction | None  # None when total cost is zero
    action_histogram: dict[str, float]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "completed_orders": self.completed_orders,
            "total_usd": float(self.total_usd),
            "efficiency": None if self.efficiency is None else float(self.efficiency),
            "action_histogram": dict(self.action_histogram),
        }


def efficiency(
    completed: int,
    ledger: CostLedger,
    action_counts: Mapping[str, int] | None = None,
) -> EfficiencyReport:
    """Completed orders per dollar, with the episode's action mix.

    A zero-cost ledger (e.g. a pure scripted run) has no defined
    efficiency; the report carries ``None`` rather than infinity.
    """
    total = ledger.total_usd()
    if total == 0:
        eff = None
    else:
        eff = Fraction(completed) / total

    counts = dict(action_counts or {})
    denominator = sum(counts.values())
    histogram = {
        kind: (counts.get(kind, 0) / denominator if denominator else 0.0)
        for kind in ACTION_KINDS
    }
    return EfficiencyReport(
        completed_orders=completed,
        total_usd=total,
        efficiency=eff,
        action_histogram=histogram,
    )
