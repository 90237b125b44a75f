"""Smoke test of tools/bench_pairs.py: one pair of this checkout against itself."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_pair_reports_every_metric(tmp_path, capsys):
    tool = load_tool()
    out = tmp_path / "pairs.json"
    code = tool.main([str(ROOT), str(ROOT), "--workload", "resolve_mix", "--pairs", "1",
                      "--n", "60", "--seconds", "0.2", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    spec = tool.load_spec(ROOT)
    summary = report["summary"]["resolve_mix"]
    assert set(summary) == {m["name"] for m in spec["end_to_end"]} | {"failed_share"}
    for metric in spec["end_to_end"]:
        row = summary[metric["name"]]
        assert row["bound"] == metric["bound"]
        assert row["wins"] + row["losses"] + row["ties"] == 1
        assert row["parent_iqr"] == 0
    assert summary["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert [(r["pair"], r["side"]) for r in report["runs"]] == [(0, "parent"), (0, "change")]
    printed = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("resolve_mix ") for line in printed) == len(spec["end_to_end"]) + 1


def test_gain_needs_nine_tenths_of_the_pairs_and_a_margin_beyond_the_spread():
    tool = load_tool()
    metric = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    row = tool.summarize(metric, parent, [p + 10 for p in parent])
    assert (row["wins"], row["losses"], row["ties"], row["gain"]) == (10, 0, 0, True)
    assert row["worse_by"] < 0 and row["bound_holds"]
    row = tool.summarize(metric, parent, [p + 10 for p in parent[:8]] + parent[8:])
    assert (row["wins"], row["ties"], row["gain"]) == (8, 2, False)
    row = tool.summarize(metric, parent, [p * 0.7 for p in parent])
    assert not row["bound_holds"] and row["losses"] == 10


def test_a_bound_narrower_than_the_parent_spread_is_unresolved():
    tool = load_tool()
    metric = {"name": "rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}
    parent = [40.0, 44, 48, 52, 56, 40, 44, 48, 52, 56]  # IQR 8 > 0.05 * 48
    row = tool.summarize(metric, parent, parent[::-1])
    assert row["bound_holds"] and not row["resolved"]
    row = tool.summarize(metric, parent, [p - 10 for p in parent])  # overlaps the parent
    assert row["bound_holds"] and not row["resolved"]
    row = tool.summarize(metric, parent, [p / 2 for p in parent])  # below every parent run
    assert row["bound_holds"] and row["resolved"]
    narrow = [48.0, 48.5, 47.5, 48, 48.5, 47.5, 48, 48, 48.5, 47.5]  # IQR 1 <= 2.4
    assert tool.summarize(metric, narrow, narrow)["resolved"]
    summary = {"rss_mb": tool.summarize(metric, parent, parent[::-1]),
               "failed_share": {"parent": 0.0, "change": 0.0}}
    report = {"pairs": 10, "seed": 1, "seconds": 1.0, "n": 60, "summary": {"w": summary}}
    row_line = next(line for line in tool.render(report) if line.startswith("w "))
    assert row_line.split()[-2:] == ["unresolved", "no"]


def test_both_checkouts_are_byte_compiled_before_the_first_run(tmp_path):
    tool = load_tool()
    for sub in ("src", "bench"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "mod.py").write_text("X = 1\n", encoding="utf-8")
    tool.byte_compile(tmp_path)
    for sub in ("src", "bench"):
        assert list((tmp_path / sub / "__pycache__").glob("mod.*.pyc"))
