"""Call-cost ledger, capability tracking, and the efficiency metric.

Dollar amounts are exact: prices are per-million-token rationals and
token counts are integers. A :class:`PriceTable` puts every price over
one common denominator when it is built (the lcm of the price
denominators times 10**6), so each model has an integer input and output
rate per token, and billing a call is two integer multiplies. A ledger
row keeps its cost as that integer numerator over the table's
denominator; ``row.usd``, the ledger total and the efficiency report are
exact ``fractions.Fraction`` values built from it on demand, with no
float drift. Floats appear only when a report is rendered, as
``numerator / denominator``: CPython's int true division is correctly
rounded, so each float equals ``float`` of the reduced ``Fraction``.

Capability profiles track per-agent action success rates, which double as
a proxy for worker model quality: parse failures, transport failures, and
in-world action failures all count as failed attempts.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from typing import Any, Mapping, NamedTuple, Sequence

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
    """Prices per model, and the integer rates the ledger bills with.

    ``denominator`` is the lcm of every price's denominator times 10**6;
    ``rates[model]`` is the (input, output) dollars per token times
    ``denominator``, both integers.
    """

    prices: Mapping[str, ModelPrice]
    denominator: int = field(init=False, repr=False, compare=False)
    rates: Mapping[str, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        scale = math.lcm(*(
            usd.denominator
            for price in self.prices.values()
            for usd in (price.input_usd_per_mtok, price.output_usd_per_mtok)
        ))

        def rate(usd: Fraction) -> int:
            return usd.numerator * (scale // usd.denominator)

        rates = {
            model: (rate(price.input_usd_per_mtok), rate(price.output_usd_per_mtok))
            for model, price in self.prices.items()
        }
        object.__setattr__(self, "denominator", scale * _MTOK)
        object.__setattr__(self, "rates", rates)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self.prices

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


class LedgerRow(NamedTuple):
    """One billed call; it costs ``usd_numerator / usd_denominator`` dollars."""

    model_id: str
    role: str  # "planner", "orchestrator", or "worker:<agent id>"
    tokens_in: int
    tokens_out: int
    usd_numerator: int
    usd_denominator: int  # the price table's denominator
    step: int
    unpriced: bool = False

    @property
    def usd(self) -> Fraction:
        return Fraction(self.usd_numerator, self.usd_denominator)


class CostLedger:
    """Append-only record of model calls with exact dollar arithmetic.

    Every row is billed over the price table's denominator, which is what
    lets :meth:`total_usd` add the rows' numerators alone.

    The program always bills at :func:`default_price_table`; ``price_table``
    lets a test price made-up models (``TestLedgerOracle``).
    """

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
    ) -> LedgerRow:
        """Bill one call; a model without a price warns and is kept as an unpriced $0 row."""
        if tokens_in < 0 or tokens_out < 0:
            raise ValueError("token counts must be >= 0")
        table = self.price_table
        rates = table.rates.get(model_id)
        if rates is None:
            warnings.warn(f"model {model_id!r} has no price; contributing $0", stacklevel=2)
            row = LedgerRow(model_id, role, tokens_in, tokens_out, 0, table.denominator, step, True)
        else:
            numerator = tokens_in * rates[0] + tokens_out * rates[1]
            row = LedgerRow(model_id, role, tokens_in, tokens_out, numerator, table.denominator, step)
        self.rows.append(row)
        return row

    def total_usd(self) -> Fraction:
        # every row is over the table's denominator, so the total is one sum
        return Fraction(sum(row.usd_numerator for row in self.rows), self.price_table.denominator)

    def sorted_rows(self) -> list[LedgerRow]:
        return sorted(self.rows, key=attrgetter("step", "role", "model_id"))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "role", "model_id", "tokens_in", "tokens_out", "usd", "unpriced"])
        for model_id, role, tokens_in, tokens_out, numerator, denominator, step, unpriced in self.sorted_rows():
            writer.writerow(
                [step, role, model_id, tokens_in, tokens_out, f"{numerator / denominator:.10f}", int(unpriced)]
            )
        return buf.getvalue()

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "total_usd": float(self.total_usd()),
            "rows": [
                {
                    "step": step,
                    "role": role,
                    "model_id": model_id,
                    "tokens_in": tokens_in,
                    "tokens_out": tokens_out,
                    "usd": numerator / denominator,
                    "unpriced": unpriced,
                }
                for model_id, role, tokens_in, tokens_out, numerator, denominator, step, unpriced
                in self.sorted_rows()
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

    def update(self, agent: str, model_id: str, attempted: int, succeeded: int) -> None:
        """Add ``attempted`` actions of ``agent`` under ``model_id``, ``succeeded`` of them successful.

        ``run_episode`` folds each cell of an episode in one call when the
        episode ends.
        """
        if not 0 <= succeeded <= attempted:
            raise ValueError(f"need 0 <= succeeded <= attempted, got {succeeded} of {attempted}")
        cell = self.cells.setdefault((agent, model_id), CapabilityCell())
        cell.attempted += attempted
        cell.succeeded += succeeded

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
