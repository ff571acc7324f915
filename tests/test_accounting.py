"""Price, ledger, capability, and efficiency arithmetic tests."""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocsim.accounting import (
    CapabilityProfile,
    CostLedger,
    LedgerRow,
    PriceTable,
    capability_hint,
    default_price_table,
    efficiency,
)


class TestPrices:
    def test_default_table_roster(self):
        table = default_price_table()
        for model in ("claude-3.7", "gpt-4o", "gpt-4o-mini", "llama-3.1-70b", "qwen2.5-32b"):
            assert model in table

    def test_prices_are_exact_rationals(self):
        table = default_price_table()
        assert table.prices["gpt-4o"].input_usd_per_mtok == Fraction(5, 2)
        assert table.prices["gpt-4o-mini"].output_usd_per_mtok == Fraction(3, 5)

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

    def test_csv_shape(self):
        ledger = CostLedger()
        ledger.record_call("gpt-4o", "orchestrator", 100, 50, step=1)
        lines = ledger.to_csv().strip().splitlines()
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


class ReferenceLedger(CostLedger):
    def total_usd(self) -> Fraction:
        return sum((row.usd for row in self.rows), Fraction(0))


_DECIMALS = st.decimals(min_value=Decimal("0.0001"), max_value=Decimal("100"), places=4)
PRICES = st.one_of(
    _DECIMALS.map(str),
    _DECIMALS,
    st.floats(min_value=1e-4, max_value=100, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=100),
    st.fractions(min_value=Fraction(1, 10**6), max_value=100, max_denominator=10**6),
)
TOKENS = st.integers(min_value=0, max_value=10**7)


class TestLedgerOracle:
    @given(
        prices=st.lists(st.tuples(PRICES, PRICES), min_size=1, max_size=5),
        calls=st.lists(st.tuples(st.integers(0, 4), TOKENS, TOKENS, st.integers(0, 59)), max_size=30),
        completed=st.integers(0, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_by_fraction_arithmetic(self, prices, calls, completed):
        table = PriceTable.from_entries({f"m{i}": pair for i, pair in enumerate(prices)})
        ledger, reference = CostLedger(table), ReferenceLedger(table)
        for index, tokens_in, tokens_out, step in calls:
            model_id = f"m{index % len(prices)}"
            row = ledger.record_call(model_id, "worker:agent0", tokens_in, tokens_out, step)
            usd = reference_usd_for(table, model_id, tokens_in, tokens_out)
            assert type(row.usd) is Fraction and row.usd == usd
            reference.rows.append(LedgerRow(model_id, "worker:agent0", tokens_in, tokens_out, usd, step))

        total = ledger.total_usd()
        assert type(total) is Fraction and total == reference.total_usd()
        report, expected = (efficiency(completed, book, {"goto": 1}) for book in (ledger, reference))
        assert report == expected and type(report.total_usd) is Fraction
        assert report.efficiency == (Fraction(completed) / total if total else None)
        assert json.dumps(report.to_json_dict()) == json.dumps(expected.to_json_dict())
        assert ledger.to_csv() == reference.to_csv()
        assert json.dumps(ledger.to_json_dict()) == json.dumps(reference.to_json_dict())
