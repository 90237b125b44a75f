import re

import pytest
from importlib.resources import files as resource_files

from enumstack.errors import BadPenetration, MarketError, MissingYear, ZeroBase
from enumstack.market import (
    MarketTable,
    PotentialMarketInputs,
    growth_rate,
    load_market_table,
    load_potential_fixture,
    market_report,
    potential_market,
    share_of,
)

FIXTURES = resource_files("enumstack").joinpath("fixtures/market")


@pytest.fixture(scope="module")
def adoption():
    return load_market_table(str(FIXTURES / "ip_telephony.csv"), "ip_telephony")


@pytest.fixture(scope="module")
def messaging():
    return load_market_table(str(FIXTURES / "unified_messaging.csv"), "unified_messaging")


@pytest.fixture(scope="module")
def potential():
    return load_potential_fixture(str(FIXTURES / "potential_market.csv"))


class TestGrowthRate:
    def test_world_internet_2001(self, adoption):
        assert growth_rate(adoption, "internet_users_world", 2001) == 35.2

    def test_constant_metric(self):
        table = MarketTable("t", {"m": {2000: 5.0, 2001: 5.0}})
        assert growth_rate(table, "m", 2001) == 0.0

    def test_ums_mailboxes_2001(self, messaging):
        assert growth_rate(messaging, "mailboxes_world", 2001) == 360.2

    def test_missing_base_year(self, adoption):
        with pytest.raises(MissingYear):
            growth_rate(adoption, "internet_users_world", 2000)

    def test_zero_base(self):
        table = MarketTable("t", {"m": {2000: 0.0, 2001: 5.0}})
        with pytest.raises(ZeroBase):
            growth_rate(table, "m", 2001)


class TestShareOf:
    def test_world_2000(self, adoption):
        assert share_of(adoption, "pc_to_phone_world", "internet_users_world", 2000) == 2.89

    def test_usa_2004(self, adoption):
        assert share_of(adoption, "pc_to_phone_usa", "internet_users_usa", 2004) == 16.99

    def test_equal_metrics(self):
        table = MarketTable("t", {"a": {2000: 7.0}, "b": {2000: 7.0}})
        assert share_of(table, "a", "b", 2000) == 100.00

    def test_zero_denominator(self):
        table = MarketTable("t", {"a": {2000: 7.0}, "b": {2000: 0.0}})
        with pytest.raises(ZeroBase):
            share_of(table, "a", "b", 2000)


class TestPotentialMarket:
    def test_world_2002(self):
        inputs = PotentialMarketInputs(
            total_toll=205, mobile_revenue=315, other_revenue=200,
            main_lines=1115, mobile_subscribers=1000, internet_users=500,
        )
        estimate = potential_market(inputs)
        assert estimate.revenue == pytest.approx(36.0, abs=1e-9)
        assert estimate.subscribers == pytest.approx(130.75, abs=1e-9)

    def test_usa_2002(self):
        inputs = PotentialMarketInputs(
            total_toll=98, mobile_revenue=65, other_revenue=60,
            main_lines=211, mobile_subscribers=135, internet_users=152,
        )
        estimate = potential_market(inputs)
        assert estimate.revenue == pytest.approx(11.15, abs=1e-9)
        assert estimate.subscribers == pytest.approx(24.9, abs=1e-9)

    def test_zero_penetration_rejected(self):
        with pytest.raises(BadPenetration):
            PotentialMarketInputs(
                total_toll=1, mobile_revenue=1, other_revenue=1,
                main_lines=1, mobile_subscribers=1, internet_users=1,
                penetration=0.0,
            )

    def test_full_penetration_returns_raw_sums(self):
        inputs = PotentialMarketInputs(
            total_toll=2, mobile_revenue=3, other_revenue=5,
            main_lines=7, mobile_subscribers=11, internet_users=13,
            penetration=1.0,
        )
        estimate = potential_market(inputs)
        assert estimate.revenue == pytest.approx(10.0)
        assert estimate.subscribers == pytest.approx(31.0)

    def test_linear_in_penetration_and_inputs(self):
        base = PotentialMarketInputs(
            total_toll=10, mobile_revenue=20, other_revenue=30,
            main_lines=40, mobile_subscribers=50, internet_users=60,
            penetration=0.05,
        )
        doubled_pen = PotentialMarketInputs(
            total_toll=10, mobile_revenue=20, other_revenue=30,
            main_lines=40, mobile_subscribers=50, internet_users=60,
            penetration=0.10,
        )
        doubled_inputs = PotentialMarketInputs(
            total_toll=20, mobile_revenue=40, other_revenue=60,
            main_lines=80, mobile_subscribers=100, internet_users=120,
            penetration=0.05,
        )
        b = potential_market(base)
        assert potential_market(doubled_pen).revenue == pytest.approx(2 * b.revenue)
        assert potential_market(doubled_inputs).revenue == pytest.approx(2 * b.revenue)
        assert potential_market(doubled_pen).subscribers == pytest.approx(2 * b.subscribers)


class TestTableValidation:
    def test_non_contiguous_years_rejected(self):
        with pytest.raises(MarketError):
            MarketTable("t", {"m": {2000: 1.0, 2002: 2.0}})

    def test_negative_value_rejected(self):
        with pytest.raises(MarketError):
            MarketTable("t", {"m": {2000: -1.0}})

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(MarketError):
            load_market_table(path)

    @pytest.mark.parametrize("loader", [load_market_table, load_potential_fixture])
    def test_non_utf8_csv_rejected(self, loader, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"metric,unit,year,value\nm,\xff,2000,1\n")
        with pytest.raises(MarketError, match="not UTF-8"):
            loader(path)


    @pytest.mark.parametrize("loader", [load_market_table, load_potential_fixture])
    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_value_rejected(self, loader, text, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"metric,unit,year,value\nm,u,2000,1\nm,u,2001,{text}\n")
        message = f"^{re.escape(f'{path}:3: value {text!r} is not finite')}$"
        with pytest.raises(MarketError, match=message):
            loader(path)

    @pytest.mark.parametrize("loader", [load_market_table, load_potential_fixture])
    @pytest.mark.parametrize(
        "year, value, message",
        [
            ("2_001", "1", "year '2_001' is not ASCII digits"),
            ("٢٠٠١", "1_5", "year '٢٠٠١' is not ASCII digits"),
            ("+2001", "1", "year '+2001' is not ASCII digits"),
            ("2001", "1_5", "value '1_5' is not a plain decimal"),
            ("2001", "١.5", "value '١.5' is not a plain decimal"),
            ("2001", "１", "value '１' is not a plain decimal"),
        ],
        ids=["year-underscore", "year-arabic-indic", "year-sign", "value-underscore",
             "value-arabic-indic", "value-fullwidth"],
    )
    def test_number_not_written_in_ascii_decimal_rejected(
        self, loader, year, value, message, tmp_path
    ):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"metric,unit,year,value\nm,u,2000,1\nm,u,{year},{value}\n", encoding="utf-8"
        )
        with pytest.raises(MarketError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            loader(path)


class TestFixtures:
    def test_potential_inputs_cover_four_columns(self, potential):
        assert set(potential.inputs) == {
            ("world", 2000), ("world", 2002), ("usa", 2000), ("usa", 2002),
        }

    def test_printed_cells_available(self, potential):
        assert potential.printed("revenue", "world", 2002) == 36
        assert potential.printed("subscribers", "usa", 2002) == 24.9


class TestReport:
    def test_text_report_contains_key_cells(self, adoption, messaging, potential):
        text = market_report([adoption, messaging], potential)
        for needle in ("130.75", "36", "35.2", "2.89", "16.99", "360.2"):
            assert needle in text

    def test_report_annotates_inconsistent_printed_cell(self, adoption, potential):
        text = market_report([adoption], potential)
        assert "18.25" in text and "17.75" in text

    def test_report_annotates_world_vs_usa_quote(self, potential):
        text = market_report([], potential)
        assert "24.9M" in text and "130.75M" in text

    def test_csv_report_parses_and_matches(self, adoption, potential):
        import csv
        import io

        text = market_report([adoption], potential, fmt="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["table", "metric", "unit", "year", "value"]
        cell = {
            (r[1], r[3]): r[4] for r in rows[1:] if r[0] != "notes"
        }
        assert cell[("internet_users_world_growth_pct", "2001")] == "35.2"
        assert cell[("potential_subscribers_world (5% penetration)", "2002")] == "130.75"

    def test_report_deterministic(self, adoption, messaging, potential):
        first = market_report([adoption, messaging], potential)
        second = market_report([adoption, messaging], potential)
        assert first == second

    def test_empty_tables_empty_report(self):
        assert market_report([], None) == ""

    def test_unknown_format_rejected(self, adoption):
        with pytest.raises(MarketError):
            market_report([adoption], None, fmt="yaml")
