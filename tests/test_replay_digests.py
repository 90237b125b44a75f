"""Smoke test of tools/replay_digests.py on one seeded run."""

import importlib.util
from pathlib import Path

import enumstack
from enumstack import simulator

from test_scenarios import GOLDEN, GOLDEN_INVARIANTS, GOLDEN_WIRE

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("replay_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_replay_line_carries_the_golden_digests(monkeypatch):
    tool = load_tool()
    assert set(tool.pinned_scripts()) == set(tool.EXTRA_SCRIPTS)
    # The recorder replaces the module's decoder; monkeypatch puts it back.
    monkeypatch.setattr(simulator, "decode_frame", simulator.decode_frame)
    wire = tool.WireRecorder(simulator)
    line = tool.replay(enumstack, wire, 1, 0, "canonical", "")
    fields = dict(part.split("=", 1) for part in line.split(" "))
    assert (fields["model"], fields["seed"], fields["script"]) == ("1", "0", "canonical")
    assert fields["log"] == GOLDEN[1][0]
    assert fields["invariants"] == GOLDEN_INVARIANTS
    assert fields["wire"] == GOLDEN_WIRE[1]
