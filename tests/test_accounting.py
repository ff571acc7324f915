"""Price, ledger, capability, and efficiency arithmetic tests."""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allocsim.accounting import (
    CapabilityProfile,
    CostLedger,
    PriceTable,
    capability_hint,
    default_price_table,
    efficiency,
)
from allocsim.jsonout import dumps_indented


class TestPrices:
    def test_default_table_roster(self):
        table = default_price_table()
        for model in ("claude-3.7", "gpt-4o", "gpt-4o-mini", "llama-3.1-70b", "qwen2.5-32b"):
            assert model in table.prices

    def test_prices_are_exact_rationals(self):
        table = default_price_table()
        assert table.prices["gpt-4o"].input_usd_per_mtok == Fraction(5, 2)
        assert table.prices["gpt-4o-mini"].output_usd_per_mtok == Fraction(3, 5)

    def test_default_table_is_built_once_and_read_only(self):
        first, second = CostLedger(), CostLedger()
        assert first.price_table is second.price_table is default_price_table()
        table = first.price_table
        with pytest.raises(TypeError):
            table.prices["gpt-4o"] = table.prices["claude-3.7"]
        with pytest.raises(TypeError):
            table.rates["gpt-4o"] = (0, 0)
        with pytest.raises(TypeError):
            del table.rates["gpt-4o"]
        assert table.rates["gpt-4o"] == (5 * table.denominator // (2 * 10**6), 10 * table.denominator // 10**6)

    def test_nonpositive_prices_rejected(self):
        with pytest.raises(ValueError):
            PriceTable.from_entries({"m": ("0", "1")})


class TestLedger:
    def test_mini_one_million_each_way(self):
        ledger = CostLedger()
        row = ledger.record_call("gpt-4o-mini", "worker:agent0", 1_000_000, 1_000_000, step=0)
        assert row.usd == Fraction(3, 4)  # $0.75 exactly

    def test_zero_tokens_zero_dollars(self):
        ledger = CostLedger()
        row = ledger.record_call("claude-3.7", "planner", 0, 0, step=0)
        assert row.usd == 0

    def test_claude_fixture(self):
        ledger = CostLedger()
        row = ledger.record_call("claude-3.7", "planner", 200_000, 40_000, step=3)
        assert row.usd == Fraction(6, 5)  # $1.20 exactly

    def test_negative_tokens_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.record_call("gpt-4o", "planner", -1, 0, step=0)

    def test_unpriced_model_warns_and_bills_zero(self):
        ledger = CostLedger()
        with pytest.warns(UserWarning):
            row = ledger.record_call("martian-1", "worker:agent0", 10, 10, step=0)
        assert row.usd == 0
        assert row.unpriced

    def test_total_is_exact_sum(self):
        ledger = CostLedger()
        for step in range(37):
            ledger.record_call("gpt-4o", "orchestrator", 123 + step, 45 + step, step=step)
        assert ledger.total_usd() == sum((r.usd for r in ledger.rows), Fraction(0))

    def test_costs_read_back_as_exact_fractions(self):
        ledger = CostLedger()
        assert type(ledger.total_usd()) is Fraction and ledger.total_usd() == 0
        priced = ledger.record_call("gpt-4o", "planner", 1_000, 10, step=0)
        with pytest.warns(UserWarning):
            unpriced = ledger.record_call("martian-1", "worker:agent0", 10, 10, step=1)
        assert type(priced.usd) is type(unpriced.usd) is type(ledger.total_usd()) is Fraction
        assert priced.usd == ledger.total_usd() == Fraction(13, 5_000)  # 2,500 + 100 micro-dollars

    def test_csv_shape(self):
        ledger = CostLedger()
        ledger.record_call("gpt-4o", "orchestrator", 100, 50, step=1)
        lines = ledger.artifacts()[1].strip().splitlines()
        assert lines[0] == "step,role,model_id,tokens_in,tokens_out,usd,unpriced"
        assert lines[1].startswith("1,orchestrator,gpt-4o,100,50,")


class TestCapability:
    def test_ratio(self):
        profile = CapabilityProfile()
        profile.update("agent0", "m", attempted=10, succeeded=7)
        cell = profile.cell("agent0", "m")
        assert cell.attempted == 10
        assert cell.success_rate == pytest.approx(0.7)

    def test_counters_monotone(self):
        profile = CapabilityProfile()
        seen = []
        for attempted, succeeded in ((1, 1), (1, 0), (3, 2), (0, 0)):
            profile.update("a", "m", attempted, succeeded)
            cell = profile.cell("a", "m")
            seen.append((cell.attempted, cell.succeeded))
        assert seen == sorted(seen)
        assert seen[-1] == (5, 3)

    @pytest.mark.parametrize("attempted, succeeded", [(1, 2), (-1, 0), (2, -1)])
    def test_counts_out_of_range_are_refused(self, attempted, succeeded):
        profile = CapabilityProfile()
        with pytest.raises(ValueError):
            profile.update("a", "m", attempted, succeeded)
        assert profile.cells == {}

    def test_unknown_cell_has_no_rate(self):
        profile = CapabilityProfile()
        assert profile.cell("nobody", "m").success_rate is None


class TestCapabilityHint:
    def test_two_decimal_rate_line(self):
        profile = CapabilityProfile()
        profile.update("agent0", "gpt-4o-mini", attempted=10, succeeded=7)
        text = capability_hint(profile, [("agent0", "gpt-4o-mini")])
        assert "success rate 0.70" in text

    def test_roster_order_two_workers(self):
        profile = CapabilityProfile()
        profile.update("agent0", "a-model", 1, 1)
        profile.update("agent1", "b-model", 1, 0)
        text = capability_hint(profile, [("agent0", "a-model"), ("agent1", "b-model")])
        lines = text.splitlines()
        assert lines[1].startswith("- agent0 (a-model)")
        assert lines[2].startswith("- agent1 (b-model)")

    def test_unknown_members_marked(self):
        text = capability_hint(CapabilityProfile(), [("agent0", "m")])
        assert "unknown" in text


class TestEfficiency:
    def _ledger_with_total(self, usd_cents: int) -> CostLedger:
        # gpt-4o: $2.50/M in; tokens chosen so the total lands exactly
        table = PriceTable.from_entries({"m": ("1.00", "1.00")})
        ledger = CostLedger(table)
        ledger.record_call("m", "orchestrator", usd_cents * 10_000, 0, step=0)
        return ledger

    def test_table_row_gpt4o_one_agent(self):
        report = efficiency(20, self._ledger_with_total(1160))
        assert report.total_usd == Fraction(116, 10)
        assert float(report.efficiency) == pytest.approx(1.724, abs=1e-3)

    def test_table_row_claude_llama_two_agents(self):
        report = efficiency(44, self._ledger_with_total(720))
        assert float(report.efficiency) == pytest.approx(6.111, abs=1e-3)

    def test_zero_completed_positive_cost(self):
        report = efficiency(0, self._ledger_with_total(500))
        assert report.efficiency == 0

    def test_zero_cost_is_flagged_absent(self):
        report = efficiency(5, CostLedger())
        assert report.efficiency is None
        assert report.to_json_dict()["efficiency"] is None

    def test_doubling_tokens_halves_efficiency_exactly(self):
        table = PriceTable.from_entries({"m": ("3.17", "9.41")})
        single = CostLedger(table)
        double = CostLedger(table)
        for step in range(10):
            single.record_call("m", "planner", 1000 + step, 300 + step, step=step)
            double.record_call("m", "planner", 2 * (1000 + step), 2 * (300 + step), step=step)
        eff_single = efficiency(12, single).efficiency
        eff_double = efficiency(12, double).efficiency
        assert eff_double * 2 == eff_single  # exact rational arithmetic

    def test_histogram_fractions(self):
        counts = {"goto": 3, "get": 2, "put": 2, "activate": 1, "noop": 2}
        report = efficiency(1, CostLedger(), counts)
        histogram = report.action_histogram
        assert sum(histogram.values()) == pytest.approx(1.0, abs=1e-9)
        assert histogram["goto"] == pytest.approx(0.3)
        assert set(histogram) == {"goto", "get", "put", "activate", "noop"}


# --- the arithmetic the ledger replaced, kept as its oracle ---------------------


def reference_usd_for(table: PriceTable, model_id: str, tokens_in: int, tokens_out: int) -> Fraction:
    price = table.prices[model_id]
    return (
        Fraction(tokens_in) * price.input_usd_per_mtok
        + Fraction(tokens_out) * price.output_usd_per_mtok
    ) / 1_000_000


@dataclass(frozen=True)
class ReferenceRow:
    model_id: str
    role: str
    tokens_in: int
    tokens_out: int
    usd: Fraction
    step: int
    unpriced: bool


class ReferenceLedger:
    """The ledger before its integer form: a Fraction per row, written through ``float(Fraction)``."""

    def __init__(self, table: PriceTable):
        self.table = table
        self.rows: list[ReferenceRow] = []

    def record_call(self, model_id: str, role: str, tokens_in: int, tokens_out: int, step: int) -> None:
        if model_id in self.table.prices:
            usd, unpriced = reference_usd_for(self.table, model_id, tokens_in, tokens_out), False
        else:
            usd, unpriced = Fraction(0), True
        self.rows.append(ReferenceRow(model_id, role, tokens_in, tokens_out, usd, step, unpriced))

    def total_usd(self) -> Fraction:
        return sum((row.usd for row in self.rows), Fraction(0))

    def sorted_rows(self) -> list[ReferenceRow]:
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


_DECIMALS = st.decimals(min_value=Decimal("0.0001"), max_value=Decimal("100"), places=4)
_PRIMES = (3, 7, 11, 13, 101, 997, 7919, 999_983)
PRICES = st.one_of(
    _DECIMALS.map(str),
    _DECIMALS,
    st.floats(min_value=1e-4, max_value=100, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=100),
    st.fractions(min_value=Fraction(1, 10**6), max_value=100, max_denominator=10**6),
    # prime denominators are pairwise coprime, so the table's common denominator grows large
    st.builds(Fraction, st.integers(1, 10**6), st.sampled_from(_PRIMES)),
)
# up to 10**12 tokens, so a row's numerator passes 2**53 and its float is rounded
TOKENS = st.integers(min_value=0, max_value=10**12)


class TestLedgerOracle:
    @given(
        prices=st.lists(st.tuples(PRICES, PRICES), min_size=1, max_size=5),
        # model ids m0..m6: the ones past the table's last model are unpriced
        calls=st.lists(st.tuples(st.integers(0, 6), TOKENS, TOKENS, st.integers(0, 59)), max_size=30),
        completed=st.integers(0, 9),
    )
    @example(
        prices=[(Fraction(1, 7), Fraction(3, 11)), ("2.50", Fraction(10, 999_983))],
        calls=[(0, 10**12, 10**12 - 1, 3), (1, 999_999_999_999, 7, 3), (5, 10, 10, 0)],
        completed=9,
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_by_fraction_arithmetic(self, prices, calls, completed):
        table = PriceTable.from_entries({f"m{i}": pair for i, pair in enumerate(prices)})
        ledger, reference = CostLedger(table), ReferenceLedger(table)
        for index, tokens_in, tokens_out, step in calls:
            model_id = f"m{index}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                row = ledger.record_call(model_id, "worker:agent0", tokens_in, tokens_out, step)
            reference.record_call(model_id, "worker:agent0", tokens_in, tokens_out, step)
            expected_row = reference.rows[-1]
            assert type(row.usd) is Fraction and row.usd == expected_row.usd
            assert row.unpriced == expected_row.unpriced == (index >= len(prices))

        total = ledger.total_usd()
        assert type(total) is Fraction and total == reference.total_usd()
        report, expected = (efficiency(completed, book, {"goto": 1}) for book in (ledger, reference))
        assert report == expected and type(report.total_usd) is Fraction
        assert report.efficiency == (Fraction(completed) / total if total else None)
        assert json.dumps(report.to_json_dict()) == json.dumps(expected.to_json_dict())
        block, csv_text = ledger.artifacts()
        assert csv_text == reference.to_csv()
        assert dumps_indented(block) == json.dumps(reference.to_json_dict(), indent=2, sort_keys=True)


# model ids and roles that csv.writer must quote or JSON must escape
_ODD_NAMES = st.one_of(
    st.sampled_from(["", "a,b", 'say "hi"', "line\nbreak", "cr\rlf", "back\\slash", "résumé", "\U0001f373"]),
    st.text(max_size=12),
)


class TestLedgerWriters:
    """``CostLedger.artifacts`` writes what ``ReferenceLedger`` writes through ``json.dumps`` and ``csv.writer``."""

    @given(
        prices=st.lists(st.tuples(PRICES, PRICES), min_size=1, max_size=5),
        names=st.lists(_ODD_NAMES, min_size=1, max_size=4),
        # indices past the priced models' count are unpriced
        calls=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3), TOKENS, TOKENS, st.integers(0, 59)),
                       max_size=30),
        depth=st.integers(0, 3),
    )
    @example(prices=[(Fraction(1, 7), Fraction(3, 11))], names=['acme,"résumé"'],
             calls=[(0, 0, 10**12, 7, 3), (1, 0, 5, 5, 3), (0, 0, 0, 0, 0)], depth=1)
    @example(prices=[("2.50", "10")], names=["m"], calls=[], depth=0)
    @settings(max_examples=150, deadline=None)
    def test_artifacts_match_the_plain_writers(self, prices, names, calls, depth):
        models = [names[i % len(names)] + "," * i for i in range(7)]  # seven distinct ids
        table = PriceTable.from_entries({models[i]: pair for i, pair in enumerate(prices)})
        ledger, reference = CostLedger(table), ReferenceLedger(table)
        for model, role, tokens_in, tokens_out, step in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ledger.record_call(models[model], names[role % len(names)], tokens_in, tokens_out, step)
            reference.record_call(models[model], names[role % len(names)], tokens_in, tokens_out, step)

        block, csv_text = ledger.artifacts()
        assert csv_text == reference.to_csv()

        def nest(value):
            for _ in range(depth):
                value = {"ledger": value, "steps": 1}
            return value

        plain = reference.to_json_dict()
        assert dumps_indented(nest(block)) == json.dumps(nest(plain), indent=2, sort_keys=True)
        assert dumps_indented([block, nest(block)]) == json.dumps([plain, nest(plain)], indent=2, sort_keys=True)
