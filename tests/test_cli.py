import os
import shutil
import subprocess
import sys
from importlib.resources import files as resource_files
from pathlib import Path

import enumstack
from enumstack.cli import main
from enumstack.snapshots import EVENTS_LOG, LOCK_FILE, REGISTRY_SNAP, SCENARIO_FILE, StateLock

SIP_RECORD = '200 10 "u" "E2U+mailto" "!^.*$!mailto:alice@example.net!" .'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResolve:
    def test_default_fixture_resolves_demo_number(self, capsys):
        code, out, _ = run(capsys, "resolve", "+1-315-443-4473", "--service", "E2U+sip")
        assert code == 0
        assert out.strip() == "sip:info@example.com"

    def test_unknown_number_exit_1(self, capsys):
        code, _, err = run(capsys, "resolve", "+1-999-000-0000")
        assert code == 1
        assert "NoDelegation" in err

    def test_trace_flag(self, capsys):
        code, out, _ = run(capsys, "resolve", "+13154434473", "--trace")
        assert code == 0
        assert "trace:" in out and "tier1" in out

    def test_malformed_scenario_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nid = 9\n[actors]\nregistries = R1\n")
        code, _, err = run(capsys, "resolve", "+13154434473", "--scenario-file", str(bad))
        assert code == 2

    def test_bad_fault_window_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nid = 1\n[actors]\nregistries = R1\n[faults]\nreg1 = a:b\n")
        code, _, err = run(capsys, "resolve", "+13154434473", "--scenario-file", str(bad))
        assert code == 2
        assert err.startswith("ScenarioError: fault window")

    def test_non_utf8_scenario_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[model]\nid = 1\n[actors]\nusers = \xff\n")
        code, _, err = run(capsys, "resolve", "+13154434473", "--scenario-file", str(bad))
        assert code == 2
        assert err.startswith("ScenarioError: ") and "not UTF-8" in err
        assert err.count("\n") == 1

    def test_missing_scenario_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "resolve", "+13154434473", "--scenario-file", str(tmp_path / "nope.cfg")
        )
        assert code == 2

    def test_apex_override_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ENUM_APEX", "enum.example")
        code, out, _ = run(capsys, "resolve", "+13154434473", "--trace")
        assert code == 0
        assert "enum.example" in out
        assert "e164.arpa" not in out


class TestScenario:
    def test_model1_valueflow(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "run", "--model", "1", "--report", "valueflow"
        )
        assert code == 0
        assert "alice(User) -> reg1(TSP)" in out
        assert "reg1(TSP) -> R1(Registry)" in out

    def test_model7_exit_2(self, capsys):
        code, _, _ = run(capsys, "scenario", "run", "--model", "7")
        assert code == 2

    def test_same_seed_identical_stdout(self, capsys):
        _, first, _ = run(
            capsys, "scenario", "run", "--model", "2", "--seed", "5", "--report", "log"
        )
        _, second, _ = run(
            capsys, "scenario", "run", "--model", "2", "--seed", "5", "--report", "log"
        )
        assert first == second

    def test_invariants_report_green(self, capsys):
        code, out, _ = run(capsys, "scenario", "run", "--model", "6")
        assert code == 0
        assert "PASS single_store" in out
        assert "FAIL" not in out

    def test_non_utf8_script_exit_2(self, capsys, tmp_path):
        script = tmp_path / "bad.events"
        script.write_bytes(b"step assign number=+13154434473 user=\xff tsp=tsp1\n")
        code, _, err = run(capsys, "scenario", "run", "--model", "1", "--script", str(script))
        assert code == 2
        assert err.startswith("ScenarioError: ") and "not UTF-8" in err
        assert err.count("\n") == 1

    def test_invariant_failure_exit_3(self, capsys, tmp_path):
        script = tmp_path / "fault.events"
        script.write_text(
            "step assign number=+13154434473 user=alice tsp=tsp1\n"
            "step offline actor=R2\n"
            "step subscribe number=+13154434473 user=alice registrar=reg1 token=auto\n"
        )
        code, out, _ = run(
            capsys, "scenario", "run", "--model", "4", "--script", str(script)
        )
        assert code == 3
        assert "FAIL replica_convergence" in out


class TestMarket:
    def test_text_report_has_required_cells(self, capsys):
        code, out, _ = run(capsys, "market", "report")
        assert code == 0
        assert "130.75" in out and "36" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "market", "report", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "table,metric,unit,year,value"
        assert any("130.75" in line for line in out.splitlines())

    def test_missing_fixture_dir_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "market", "report", "--fixtures", str(tmp_path / "missing")
        )
        assert code == 2


def python_m_enumstack(*argv):
    """Run ``python -m enumstack`` on the package under test."""
    env = dict(os.environ)
    src = str(Path(enumstack.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ENUM_APEX", None)
    return subprocess.run(
        [sys.executable, "-m", "enumstack", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def non_utf8_market_dir(tmp_path):
    fixtures = tmp_path / "market"
    shutil.copytree(str(resource_files("enumstack").joinpath("fixtures/market")), fixtures)
    with open(fixtures / "potential_market.csv", "ab") as handle:
        handle.write(b"\xff\n")
    return fixtures


def state_with_bad_byte(capsys, tmp_path, name):
    state = tmp_path / "state"
    run(capsys, "provision", "+1-315-443-4473",
        "--actor", "alice", "--record", SIP_RECORD, "--state-dir", str(state))
    with open(state / name, "ab") as handle:
        handle.write(b"\xff\n")
    return state


class TestNonUtf8Inputs:
    def test_market_csv_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "market", "report", "--fixtures", str(non_utf8_market_dir(tmp_path))
        )
        assert code == 2
        assert err.startswith("MarketError: ") and "not UTF-8" in err
        assert err.count("\n") == 1

    def test_scenario_cfg_exit_2(self, capsys, tmp_path):
        state = state_with_bad_byte(capsys, tmp_path, SCENARIO_FILE)
        for argv in (("resolve", "+1-315-443-4473"), ("scenario", "report")):
            code, _, err = run(capsys, *argv, "--state-dir", str(state))
            assert code == 2
            assert err.startswith("SnapshotError: ") and "scenario.cfg:" in err
            assert err.count("\n") == 1

    def test_events_log_exit_2(self, capsys, tmp_path):
        state = state_with_bad_byte(capsys, tmp_path, EVENTS_LOG)
        for argv in (("resolve", "+1-315-443-4473"), ("scenario", "report")):
            code, _, err = run(capsys, *argv, "--state-dir", str(state))
            assert code == 2
            assert err.startswith("SnapshotError: ") and "events.log:" in err

    def test_python_m_enumstack_exit_2_without_traceback(self, capsys, tmp_path):
        state = state_with_bad_byte(capsys, tmp_path, REGISTRY_SNAP)
        market = non_utf8_market_dir(tmp_path)
        for argv in (
            ["resolve", "+13154434473", "--state-dir", str(state)],
            ["market", "report", "--fixtures", str(market)],
        ):
            done = python_m_enumstack(*argv)
            assert done.returncode == 2, done.stderr
            assert done.stderr.count("\n") == 1, done.stderr
            assert "Traceback" not in done.stderr
            assert "not UTF-8" in done.stderr

    def test_python_m_enumstack_runs_cli(self):
        done = python_m_enumstack("resolve", "+1-315-443-4473")
        assert done.returncode == 0
        assert done.stdout.strip() == "sip:info@example.com"


class TestCorruptState:
    def test_bad_grant_rights_exit_2(self, capsys, tmp_path):
        state = tmp_path / "state"
        run(capsys, "provision", "+1-315-443-4473",
            "--actor", "alice", "--record", SIP_RECORD, "--state-dir", str(state))
        with open(state / "registrar-reg1.snap", "a", encoding="utf-8") as handle:
            handle.write("grant|g9|alice|asp1|bogus|*\n")
        code, _, err = run(capsys, "resolve", "+1-315-443-4473", "--state-dir", str(state))
        assert code == 2
        assert err.startswith("SnapshotError: ") and "registrar-reg1.snap:" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestStatefulCommands:
    def test_provision_then_resolve_across_invocations(self, capsys, tmp_path):
        state = tmp_path / "state"
        code, _, _ = run(
            capsys, "provision", "+1-315-443-4473",
            "--actor", "alice", "--record", SIP_RECORD, "--state-dir", str(state),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "resolve", "+1-315-443-4473",
            "--service", "E2U+mailto", "--state-dir", str(state),
        )
        assert code == 0
        assert out.strip() == "mailto:alice@example.net"

    def test_transfer_then_valueflow_edge(self, capsys, tmp_path):
        state = tmp_path / "state"
        code, _, _ = run(
            capsys, "transfer", "+1-315-443-4473",
            "--user", "alice", "--to", "reg2", "--state-dir", str(state),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "scenario", "report", "--state-dir", str(state),
            "--report", "valueflow",
        )
        assert code == 0
        assert "reg2(TSP) -> R1(Registry)" in out

    def test_disconnect_withdraws_resolution(self, capsys, tmp_path):
        state = tmp_path / "state"
        code, _, _ = run(
            capsys, "disconnect", "+1-315-443-4473",
            "--user", "alice", "--state-dir", str(state),
        )
        assert code == 0
        code, _, err = run(
            capsys, "resolve", "+1-315-443-4473", "--state-dir", str(state)
        )
        assert code == 1
        assert "NoDelegation" in err

    def test_corrupt_snapshot_exit_2_with_line_number(self, capsys, tmp_path):
        state = tmp_path / "state"
        run(capsys, "provision", "+1-315-443-4473",
            "--actor", "alice", "--record", SIP_RECORD, "--state-dir", str(state))
        snap = state / "subscriptions.snap"
        snap.write_text("garbage-without-fields\n")
        code, _, err = run(
            capsys, "resolve", "+1-315-443-4473", "--state-dir", str(state)
        )
        assert code == 2
        assert "subscriptions.snap:1" in err

    def test_lock_excludes_concurrent_invocations(self, capsys, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        with StateLock(state):
            code, _, err = run(
                capsys, "provision", "+1-315-443-4473",
                "--actor", "alice", "--record", SIP_RECORD, "--state-dir", str(state),
            )
        assert code == 2
        assert "LockHeld" in err

    def test_lock_released_after_use(self, tmp_path):
        state = tmp_path / "state"
        with StateLock(state):
            assert (state / LOCK_FILE).exists()
        assert not (state / LOCK_FILE).exists()

    def test_no_temp_files_left_behind(self, capsys, tmp_path):
        state = tmp_path / "state"
        run(capsys, "provision", "+1-315-443-4473",
            "--actor", "alice", "--record", SIP_RECORD, "--state-dir", str(state))
        assert not [p for p in state.iterdir() if p.suffix == ".tmp"]

    def test_operation_failure_exit_1_but_state_saved(self, capsys, tmp_path):
        state = tmp_path / "state"
        code, _, err = run(
            capsys, "transfer", "+1-315-443-4473",
            "--user", "alice", "--to", "reg1", "--state-dir", str(state),
        )
        assert code == 1
        assert "SameRegistrar" in err
        assert (state / EVENTS_LOG).exists()

    def test_log_accumulates_across_invocations(self, capsys, tmp_path):
        state = tmp_path / "state"
        run(capsys, "provision", "+1-315-443-4473",
            "--actor", "alice", "--record", SIP_RECORD, "--state-dir", str(state))
        first = (state / EVENTS_LOG).read_text().count("\n")
        run(capsys, "transfer", "+1-315-443-4473",
            "--user", "alice", "--to", "reg2", "--state-dir", str(state))
        second = (state / EVENTS_LOG).read_text().count("\n")
        assert second > first
