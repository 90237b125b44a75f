"""Telephony market-estimation arithmetic.

Three bundled datasets drive this module: an IP-telephony adoption table
(users, minutes, revenue by year), a potential-addressing-market table
(telecom revenue and subscriber counts for two snapshot years), and a
unified-messaging forecast. The module computes only the derived cells:
year-over-year growth, share-of-internet-users ratios, and the
penetration-based potential market (defaulting to 5% of toll+mobile+other
revenue and of lines+mobile+internet users).

Derived values round half-up at the printed precision (growth to one
decimal, shares to two); the source tables' cells are consistent with
half-up rounding.
"""

from __future__ import annotations

import csv
import io
import math
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path

from .errors import BadPenetration, MarketError, MissingYear, ZeroBase

DEFAULT_PENETRATION = 0.05

REVENUE_COMPONENTS = ("total_toll", "mobile_revenue", "other_revenue")
SUBSCRIBER_COMPONENTS = ("main_lines", "mobile_subscribers", "internet_users")


def round_half_up(value: float, decimals: int) -> float:
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


class MarketTable:
    """Named metrics over contiguous year ranges."""

    __slots__ = ("name", "rows", "units")

    def __init__(
        self, name: str, rows: dict[str, dict[int, float]], units: dict[str, str] | None = None
    ) -> None:
        for metric, series in rows.items():
            years = sorted(series)
            if not years:
                raise MarketError(f"{metric!r} has no years")
            if years != list(range(years[0], years[-1] + 1)):
                raise MarketError(f"{metric!r} years are not contiguous: {years}")
            for year, value in series.items():
                if value < 0:
                    raise MarketError(f"{metric!r} {year}: negative value {value}")
        self.name, self.rows = name, rows
        self.units = {} if units is None else units

    def value(self, metric: str, year: int) -> float:
        series = self.rows.get(metric)
        if series is None or year not in series:
            raise MissingYear(f"{self.name}: no {metric!r} value for {year}")
        return series[year]

    def years(self, metric: str) -> list[int]:
        return sorted(self.rows.get(metric, {}))


def growth_rate(table: MarketTable, metric: str, year: int) -> float:
    """Year-over-year growth percent, one decimal place."""
    current = table.value(metric, year)
    base = table.value(metric, year - 1)
    if base == 0:
        raise ZeroBase(f"{metric!r} {year - 1} is zero")
    return round_half_up(100.0 * (current - base) / base, 1)


def share_of(
    table: MarketTable, numerator_metric: str, denominator_metric: str, year: int
) -> float:
    """Numerator as a percent of denominator, two decimal places."""
    numerator = table.value(numerator_metric, year)
    denominator = table.value(denominator_metric, year)
    if denominator == 0:
        raise ZeroBase(f"{denominator_metric!r} {year} is zero")
    return round_half_up(100.0 * numerator / denominator, 2)


class PotentialMarketInputs:
    """Component magnitudes for one region/year column."""

    __slots__ = REVENUE_COMPONENTS + SUBSCRIBER_COMPONENTS + ("penetration",)

    def __init__(
        self, total_toll: float, mobile_revenue: float, other_revenue: float, main_lines: float,
        mobile_subscribers: float, internet_users: float, penetration: float = DEFAULT_PENETRATION,
    ) -> None:
        self.total_toll = total_toll
        self.mobile_revenue = mobile_revenue
        self.other_revenue = other_revenue
        self.main_lines = main_lines
        self.mobile_subscribers = mobile_subscribers
        self.internet_users = internet_users
        self.penetration = penetration
        if not 0 < penetration <= 1:
            raise BadPenetration(f"penetration {penetration} outside (0, 1]")
        for name in REVENUE_COMPONENTS + SUBSCRIBER_COMPONENTS:
            if getattr(self, name) < 0:
                raise MarketError(f"negative {name}")


class PotentialMarketEstimate:
    __slots__ = ("revenue", "subscribers")

    def __init__(self, revenue: float, subscribers: float) -> None:
        self.revenue, self.subscribers = revenue, subscribers  # currency billions, millions


def potential_market(inputs: PotentialMarketInputs) -> PotentialMarketEstimate:
    """Penetration share of total revenue and of the addressable user base."""
    revenue = inputs.penetration * (
        inputs.total_toll + inputs.mobile_revenue + inputs.other_revenue
    )
    subscribers = inputs.penetration * (
        inputs.main_lines + inputs.mobile_subscribers + inputs.internet_users
    )
    return PotentialMarketEstimate(revenue=revenue, subscribers=subscribers)


# ---------------------------------------------------------------- fixtures


def _read_rows(path: Path) -> tuple[dict[str, dict[int, float]], dict[str, str]]:
    source = str(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MarketError(f"{source} is not UTF-8 text (byte {exc.start})") from exc
    rows: dict[str, dict[int, float]] = {}
    units: dict[str, str] = {}
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["metric", "unit", "year", "value"]:
        raise MarketError(f"{source}: expected header metric,unit,year,value")
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise MarketError(f"{source}:{lineno}: expected 4 columns")
        metric, unit, year_text, value_text = (cell.strip() for cell in row)
        # int() and float() alone would also take other digits and "_".
        if not (year_text.isascii() and year_text.isdigit()):
            raise MarketError(f"{source}:{lineno}: year {year_text!r} is not ASCII digits")
        if not value_text.isascii() or "_" in value_text:
            raise MarketError(f"{source}:{lineno}: value {value_text!r} is not a plain decimal")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise MarketError(f"{source}:{lineno}: {exc}") from exc
        year = int(year_text)
        if not math.isfinite(value):
            raise MarketError(f"{source}:{lineno}: value {value_text!r} is not finite")
        rows.setdefault(metric, {})[year] = value
        units.setdefault(metric, unit)
    return rows, units


def load_market_table(path: str | Path, name: str | None = None) -> MarketTable:
    path = Path(path)
    rows, units = _read_rows(path)
    return MarketTable(name=name or path.stem, rows=rows, units=units)


class PotentialFixture:
    """The potential-market table: raw rows plus per-column inputs."""

    __slots__ = ("rows", "units", "inputs")

    def __init__(
        self, rows: dict[str, dict[int, float]], units: dict[str, str],
        inputs: dict[tuple[str, int], PotentialMarketInputs],
    ) -> None:
        self.rows, self.units, self.inputs = rows, units, inputs

    def printed(self, kind: str, region: str, year: int) -> float | None:
        series = self.rows.get(f"printed_potential_{kind}_{region}")
        if series is None:
            return None
        return series.get(year)


def load_potential_fixture(path: str | Path) -> PotentialFixture:
    path = Path(path)
    rows, units = _read_rows(path)
    inputs: dict[tuple[str, int], PotentialMarketInputs] = {}
    regions = sorted(
        {
            metric.rsplit("_", 1)[1]
            for metric in rows
            if metric.startswith("total_toll_")
        }
    )
    for region in regions:
        years = sorted(rows[f"total_toll_{region}"])
        for year in years:
            try:
                inputs[(region, year)] = PotentialMarketInputs(
                    total_toll=rows[f"total_toll_{region}"][year],
                    mobile_revenue=rows[f"mobile_revenue_{region}"][year],
                    other_revenue=rows[f"other_revenue_{region}"][year],
                    main_lines=rows[f"main_lines_{region}"][year],
                    mobile_subscribers=rows[f"mobile_subscribers_{region}"][year],
                    internet_users=rows[f"internet_users_{region}"][year],
                )
            except KeyError as exc:
                raise MarketError(f"{path}: missing component row {exc}") from exc
    return PotentialFixture(rows=rows, units=units, inputs=inputs)


# ---------------------------------------------------------------- report


def _format_number(value: float) -> str:
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.2f}".rstrip("0").rstrip(".")


def _derived_rows(table: MarketTable) -> dict[str, dict[int, float]]:
    """Each metric's growth row, and each pc_to_phone metric's share of
    internet users, by derived row name."""
    derived = {}
    for metric in table.rows:
        years = table.years(metric)
        growth = {
            year: growth_rate(table, metric, year)
            for year in years[1:]
            if table.value(metric, year - 1) > 0
        }
        if growth:
            derived[f"{metric}_growth_pct"] = growth
        if metric.startswith("pc_to_phone_"):
            base = f"internet_users_{metric.rsplit('_', 1)[1]}"
            base_series = table.rows.get(base, {})
            share = {
                year: share_of(table, metric, base, year)
                for year in years
                if base_series.get(year, 0) > 0
            }
            if share:
                derived[f"{metric}_share_of_internet_pct"] = share
    return derived


def _text_table(
    title: str, rows: list[tuple[str, str, dict[int, float]]], years: list[int]
) -> list[str]:
    lines = [title, "-" * len(title)]
    name_width = max([len("metric (unit)")] + [len(f"{m} ({u})") for m, u, _ in rows])
    header = "metric (unit)".ljust(name_width) + "".join(
        f"{year:>12}" for year in years
    )
    lines.append(header)
    for metric, unit, series in rows:
        label = f"{metric} ({unit})" if unit else metric
        cells = "".join(
            f"{_format_number(series[year]):>12}" if year in series else f"{'-':>12}"
            for year in years
        )
        lines.append(label.ljust(name_width) + cells)
    lines.append("")
    return lines


def market_report(
    tables: list[MarketTable],
    potential: PotentialFixture | None = None,
    fmt: str = "text",
) -> str:
    """Emit the adoption/potential/forecast tables with derived rows.

    ``fmt`` is ``text`` (aligned columns) or ``csv``
    (``table,metric,unit,year,value``). Output is deterministic, and a
    notes section flags any printed potential cell that disagrees with
    its own components.
    """
    if fmt not in ("text", "csv"):
        raise MarketError(f"unknown report format {fmt!r}")
    sections: list[tuple[str, list[tuple[str, str, dict[int, float]]], list[int]]] = []

    for table in tables:
        derived = _derived_rows(table)
        rows: list[tuple[str, str, dict[int, float]]] = []
        years: set[int] = set()
        for metric, series in table.rows.items():
            rows.append((metric, table.units.get(metric, ""), dict(series)))
            years.update(series)
            for name in (f"{metric}_growth_pct", f"{metric}_share_of_internet_pct"):
                if name in derived:
                    rows.append((name, "%", derived[name]))
        sections.append((table.name, rows, sorted(years)))

    notes: list[str] = []
    if potential is not None:
        rows = []
        years = set()
        for metric, series in potential.rows.items():
            if metric.startswith("printed_potential_"):
                continue
            rows.append((metric, potential.units.get(metric, ""), dict(series)))
            years.update(series)
        regions = sorted({region for region, _ in potential.inputs})
        for region in regions:
            revenue_series: dict[int, float] = {}
            subscriber_series: dict[int, float] = {}
            for (reg, year), inputs in sorted(potential.inputs.items()):
                if reg != region:
                    continue
                estimate = potential_market(inputs)
                revenue_series[year] = estimate.revenue
                subscriber_series[year] = estimate.subscribers
                for kind, computed in (
                    ("revenue", estimate.revenue),
                    ("subscribers", estimate.subscribers),
                ):
                    printed = potential.printed(kind, region, year)
                    if printed is not None and abs(printed - computed) > 0.005:
                        notes.append(
                            f"note: computed {region} {year} potential {kind} "
                            f"{computed:g} differs from the table's printed value "
                            f"{printed:g}; components kept verbatim"
                        )
            pct = int(round(100 * next(iter(potential.inputs.values())).penetration))
            rows.append(
                (f"potential_revenue_{region} ({pct}% penetration)", "USD billions", revenue_series)
            )
            rows.append(
                (f"potential_subscribers_{region} ({pct}% penetration)", "millions", subscriber_series)
            )
        sections.append(("potential_addressing_market", rows, sorted(years)))
        world_2002 = potential.inputs.get(("world", 2002))
        usa_2002 = potential.inputs.get(("usa", 2002))
        if world_2002 and usa_2002:
            w = potential_market(world_2002)
            u = potential_market(usa_2002)
            notes.append(
                "note: the often-quoted ~25M subscribers / ~$11B 2002 potential "
                f"matches the usa column ({u.subscribers:g}M / ${u.revenue:g}B); "
                f"the world column computes to {w.subscribers:g}M / ${w.revenue:g}B"
            )

    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["table", "metric", "unit", "year", "value"])
        for name, rows, years in sections:
            for metric, unit, series in rows:
                for year in sorted(series):
                    writer.writerow([name, metric, unit, year, f"{series[year]:g}"])
        for note in notes:
            writer.writerow(["notes", note, "", "", ""])
        return out.getvalue()

    lines: list[str] = []
    for name, rows, years in sections:
        lines.extend(_text_table(name, rows, years))
    lines.extend(notes)
    return "\n".join(lines).rstrip() + "\n" if lines else ""
