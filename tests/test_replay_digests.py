"""Smoke tests of tools/replay_digests.py: one seeded run, and the state-directory calls."""

import importlib.util
from pathlib import Path

import enumstack
import enumstack.cli
from enumstack import simulator
from enumstack.wire import encode_frame

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
    # The recorder replaces Network.step; monkeypatch puts it back.
    monkeypatch.setattr(simulator.Network, "step", simulator.Network.step)
    wire = tool.WireRecorder(simulator, encode_frame)
    line = tool.replay(enumstack, wire, 1, 0, "canonical", "")
    fields = dict(part.split("=", 1) for part in line.split(" "))
    assert (fields["model"], fields["seed"], fields["script"]) == ("1", "0", "canonical")
    assert fields["log"] == GOLDEN[1][0]
    assert fields["invariants"] == GOLDEN_INVARIANTS
    assert fields["wire"] == GOLDEN_WIRE[1]


def test_state_dir_lines_cover_every_call_and_state_file():
    tool = load_tool()
    lines = tool.state_dir_lines(enumstack.cli)
    assert len(lines) == len(tool.STATE_CALLS)
    files = {"events.log", "registry.snap", "registrar-reg1.snap", "registrar-reg2.snap",
             "scenario.cfg", "subscriptions.snap"}
    for k, (line, call) in enumerate(zip(lines, tool.STATE_CALLS)):
        tag, *parts = line.split(" ")
        fields = dict(part.split("=", 1) for part in parts if "=" in part)
        assert tag == "state" and fields["call"] == str(k) and call[0] in parts
        assert set(fields) == {"call", "exit", "stdout"} | files
    # The last call resolves the number the disconnect withdrew.
    assert [line.split(" ")[3] for line in lines[-3:]] == ["exit=0", "exit=0", "exit=1"]
    assert lines == tool.state_dir_lines(enumstack.cli)


def test_state_dir_lines_without_a_checkpoint_match_the_checkpointed_run():
    tool = load_tool()
    lines = tool.state_dir_lines(enumstack.cli)
    plain = tool.state_dir_lines(enumstack.cli, "state-plain")
    assert [line.split(" ", 1)[0] for line in plain] == ["state-plain"] * len(lines)
    assert [line.split(" ", 1)[1] for line in plain] == [line.split(" ", 1)[1] for line in lines]


def test_state_dir_lines_of_fresh_interpreters_match_the_in_process_run():
    tool = load_tool()
    lines = tool.state_dir_lines(enumstack.cli)
    cold = tool.state_dir_lines(enumstack.cli, "state-cold")
    assert [line.split(" ", 1)[0] for line in cold] == ["state-cold"] * len(lines)
    assert [line.split(" ", 1)[1] for line in cold] == [line.split(" ", 1)[1] for line in lines]


def test_state_dir_holds_the_demo_numbers_and_more(tmp_path):
    tool = load_tool()
    tool.populate_state_dir(enumstack.cli, tmp_path)
    lines = (tmp_path / "subscriptions.snap").read_text(encoding="utf-8").split("\n")[:-1]
    assert len(lines) == tool.STATE_NUMBERS + 2
    assert {"13154434473", "13154434474"} <= {line.split("|")[0] for line in lines}
    log = (tmp_path / "events.log").read_text(encoding="utf-8").split("\n")[:-1]
    assert all("|ok|" in line for line in log)
