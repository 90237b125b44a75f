import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from importlib.resources import files as resource_files
from pathlib import Path

import pytest

import enumstack
from enumstack.cli import _bootstrap_demo, main
from enumstack.scenarios import build_topology, builtin_config, model_fixture_text
from enumstack.snapshots import (
    EVENTS_LOG,
    LOCK_FILE,
    REGISTRY_SNAP,
    SCENARIO_FILE,
    StateLock,
    append_log,
    read_log,
)

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

    def test_actor_id_holding_a_separator_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(model_fixture_text(1).replace("reg1", "reg|1"))
        code, _, err = run(capsys, "resolve", "+13154434473", "--scenario-file", str(bad))
        assert code == 2
        assert err == "ScenarioError: [actors] registrars 'reg|1' may not hold '|' or a line break\n"

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

    @pytest.mark.parametrize(
        "old, new, env, message",
        [
            ("1 = R1", "1x = R1", None, "bad tier-0 prefix '1x'"),
            ("1 = R1", "\u0662 = R1", None, "bad tier-0 prefix '\u0662'"),
            ("1 = R1", "1 =", None, "tier-0 prefix '1' maps to no registry"),
            ("id = 1", "id = 1\napex = bad..apex", None, "bad apex label ''"),
            ("", "", "a..b", "ENUM_APEX='a..b': bad apex label ''"),
        ],
        ids=["tier0-prefix", "tier0-prefix-non-ascii", "tier0-empty", "apex", "apex-env"],
    )
    def test_malformed_tier0_or_apex_exit_2(self, capsys, monkeypatch, tmp_path,
                                            old, new, env, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(model_fixture_text(1).replace(old, new, 1))
        if env is not None:
            monkeypatch.setenv("ENUM_APEX", env)
        code, _, err = run(capsys, "resolve", "+13154434473", "--scenario-file", str(cfg))
        assert code == 2
        assert err == f"ScenarioError: {message}\n"

    @pytest.mark.parametrize("option, value", [("flat_fee", "nan"), ("user_fee", "-2")])
    def test_a_fee_that_is_not_a_finite_number_at_least_zero_exits_2(
        self, capsys, tmp_path, option, value
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(model_fixture_text(1).replace(f"{option} = 1.0", f"{option} = {value}"))
        code, _, err = run(capsys, "resolve", "+13154434473", "--scenario-file", str(cfg))
        assert code == 2
        assert err == f"ScenarioError: fee {option} is not a finite number >= 0\n"


class TestScenario:
    def test_model1_valueflow(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "run", "--model", "1", "--report", "valueflow"
        )
        assert code == 0
        assert "alice(User) -> reg1(TSP)" in out
        assert "reg1(TSP) -> R1(Registry)" in out

    @pytest.mark.parametrize("model", ["7", "0"])
    def test_model_out_of_range_exit_2(self, capsys, model):
        code, _, err = run(capsys, "scenario", "run", "--model", model)
        assert code == 2
        assert err == f"InvalidModelCombination: model id {model} not in 1..6\n"

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

    # sha256 of the whole report on the shipped fixtures.
    @pytest.mark.parametrize("fmt, digest", [
        ("text", "72b8bdaf3c8225527b47bd8be0aa3cb6d91b222c99a2b23082c6e60e4694229d"),
        ("csv", "4163600c1c705e65da864f27614a4802f6f46a15a7acab1a065fde21b31a9efd"),
    ])
    def test_report_matches_golden_digest(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "market", "report", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def package_env():
    """The environment for a child interpreter that imports the package under test."""
    env = dict(os.environ)
    src = str(Path(enumstack.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ENUM_APEX", None)
    return env


def python_m_enumstack(*argv):
    """Run ``python -m enumstack`` on the package under test."""
    return subprocess.run(
        [sys.executable, "-m", "enumstack", *argv],
        env=package_env(), capture_output=True, text=True, timeout=60,
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

    def test_bootstrap_killed_before_its_save_is_logged_once(self, capsys, tmp_path):
        # The first call's bootstrap appended its log, then died before saving.
        killed, clean = tmp_path / "killed", tmp_path / "clean"
        topology = build_topology(builtin_config(1), seed=0)
        _bootstrap_demo(topology)
        append_log(killed, topology.log)
        reports = []
        for state in (killed, clean):
            code, _, _ = run(capsys, "disconnect", "+13154434474", "--user", "bob",
                             "--state-dir", str(state))
            assert code == 0
            ids = [rec.event_id for rec in read_log(state)]
            assert len(ids) == len(set(ids))
            reports.append(run(capsys, "scenario", "report", "--state-dir", str(state)))
        assert reports[0] == reports[1]


# Characters str.splitlines() breaks at besides "\n" and "\r".
LINE_SEPARATORS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("sep", LINE_SEPARATORS)
def test_line_separator_in_an_argument_leaves_state_readable(sep, capsys, tmp_path):
    state = tmp_path / "state"
    code, _, err = run(capsys, "provision", "+1-315-443-4473", "--actor", f"ali{sep}ce",
                       "--record", SIP_RECORD, "--state-dir", str(state))
    assert code == 1 and err.startswith("AccessDenied")
    assert f"ali{sep}ce" in (state / EVENTS_LOG).read_text(encoding="utf-8")
    record = f'150 10 "u" "E2U+mailto" "!^.*$!mailto:a{sep}b@example.net!" .'
    code, _, err = run(capsys, "provision", "+1-315-443-4473", "--actor", "alice",
                       "--record", record, "--state-dir", str(state))
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "resolve", "+1-315-443-4473", "--service", "E2U+mailto",
                         "--state-dir", str(state))
    assert (code, out, err) == (0, f"mailto:a{sep}b@example.net\n", "")
    code, out, _ = run(capsys, "scenario", "report", "--report", "log", "--state-dir", str(state))
    assert code == 0 and out == (state / EVENTS_LOG).read_text(encoding="utf-8")


@pytest.mark.parametrize("newline", ["\r", "\r\n", "\n"])
def test_record_split_by_a_newline_is_refused_and_state_stays_readable(
    newline, capsys, tmp_path
):
    state = tmp_path / "state"
    record = f'150 10 "u" "E2U+mailto" "!^.*$!mailto:a{newline}b@example.net!" .'
    code, _, err = run(capsys, "provision", "+1-315-443-4473", "--actor", "alice",
                       "--record", record, "--state-dir", str(state))
    assert code == 1 and err.startswith("InvalidRecord: expected 6 fields")
    code, out, err = run(capsys, "resolve", "+1-315-443-4473", "--state-dir", str(state))
    assert (code, out, err) == (0, "sip:info@example.com\n", "")


def test_every_line_of_a_multi_line_record_argument_is_provisioned(capsys, tmp_path):
    state = tmp_path / "state"
    tel = '210 10 "u" "E2U+tel" "!^.*$!tel:+13154434473!" .'
    code, _, err = run(capsys, "provision", "+1-315-443-4473", "--actor", "alice",
                       "--record", SIP_RECORD + "\n" + tel, "--state-dir", str(state))
    assert (code, err) == (0, "")
    assert "services=E2U+mailto,E2U+tel;" in (state / EVENTS_LOG).read_text(encoding="utf-8")
    code, out, err = run(capsys, "resolve", "+1-315-443-4473", "--service", "E2U+tel",
                         "--state-dir", str(state))
    assert (code, out, err) == (0, "tel:+13154434473\n", "")

def dir_bytes(path):
    return {child.name: child.read_bytes() for child in sorted(path.iterdir())}


def test_a_non_utf8_text_argument_exits_2_before_the_state_is_touched(capsys, tmp_path):
    state = tmp_path / "state"
    run(capsys, "provision", "+1-315-443-4473",
        "--actor", "alice", "--record", SIP_RECORD, "--state-dir", str(state))
    before = dir_bytes(state)
    record = SIP_RECORD.encode().replace(b"alice@", b"al\xffice@")
    for argv in (
        [b"provision", b"+1-315-443-4473", b"--actor", b"al\xffice", b"--record", record],
        [b"provision", b"+1-315-443-4473", b"--actor", b"alice", b"--record", record],
        [b"transfer", b"+1-315-443-4473\xff", b"--user", b"alice", b"--to", b"reg2"],
        [b"resolve", b"+1-315-443-4473", b"--service", b"E2U+\xfe"],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "enumstack", *argv, b"--state-dir", bytes(state)],
            env=package_env(), capture_output=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr.startswith(b"BadArgument: argument ")
        assert done.stderr.count(b"\n") == 1 and b"Traceback" not in done.stderr
        assert dir_bytes(state) == before
    # A path argument is handed to the OS as the bytes it was given.
    odd = bytes(tmp_path) + b"/st\xffate"
    done = subprocess.run(
        [sys.executable, "-m", "enumstack", b"provision", b"+1-315-443-4473", b"--actor",
         b"alice", b"--record", SIP_RECORD.encode(), b"--state-dir", odd],
        env=package_env(), capture_output=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert dir_bytes(Path(os.fsdecode(odd))) == before


# Holds the lock on a state directory until killed.
LOCK_HOLDER = """
import sys, time
from enumstack.snapshots import StateLock
with StateLock(sys.argv[1]):
    time.sleep(120)
"""


def hold_lock(state):
    """A child process holding *state*'s lock, once its pid is in the lock file."""
    proc = subprocess.Popen([sys.executable, "-c", LOCK_HOLDER, str(state)], env=package_env())
    deadline = time.monotonic() + 30
    while True:
        try:
            if (state / LOCK_FILE).read_text(encoding="ascii") == str(proc.pid):
                return proc
        except FileNotFoundError:
            pass
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            pytest.fail("the lock holder never took the lock")
        time.sleep(0.01)


def test_lock_of_a_killed_holder_does_not_block(capsys, tmp_path):
    pytest.importorskip("fcntl")
    state = tmp_path / "state"
    proc = hold_lock(state)
    proc.kill()
    proc.wait(timeout=30)
    assert (state / LOCK_FILE).exists()
    code, _, err = run(capsys, "provision", "+1-315-443-4473",
                       "--actor", "alice", "--record", SIP_RECORD, "--state-dir", str(state))
    assert (code, err) == (0, "")
    assert not (state / LOCK_FILE).exists()


def test_lock_of_a_live_holder_blocks_and_names_it(capsys, tmp_path):
    state = tmp_path / "state"
    proc = hold_lock(state)
    try:
        code, _, err = run(capsys, "provision", "+1-315-443-4473",
                           "--actor", "alice", "--record", SIP_RECORD, "--state-dir", str(state))
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert code == 2
    assert err == f"LockHeld: {state / LOCK_FILE} is held by pid {proc.pid}; " \
                  "another invocation is active\n"


# Imports the CLI, runs ``market report``, then reports what each step
# loaded and uses what loads lazily.
IMPORT_BUDGET = """
import json, sys
TOPOLOGY = tuple("enumstack." + m for m in ("scenarios", "registrar", "registry", "snapshots",
                                            "audit"))
import enumstack.cli
loaded = [m for m in ("enumstack.market", "decimal", "csv", "hashlib", *TOPOLOGY)
          if m in sys.modules]
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    code = enumstack.cli.main(["market", "report"])
after_market = [m for m in TOPOLOGY if m in sys.modules]
import pytest

import enumstack
scenarios = enumstack.scenarios.__name__
from enumstack import market
from enumstack.scenarios import build_topology, builtin_config
names = {}
exec("from enumstack import *", names)
print(json.dumps({
    "loaded": loaded,
    "market_exit": code,
    "after_market": after_market,
    "scenarios": scenarios,
    "missing": [name for name in enumstack.__all__ if name not in names],
    "undirred": sorted(set(enumstack.__all__) - set(dir(enumstack))),
    "market_report": enumstack.market_report is market.market_report,
    "state_hash": build_topology(builtin_config(1)).state_hash(),
}))
"""


def test_cli_import_leaves_market_and_hashlib_unloaded():
    done = subprocess.run([sys.executable, "-c", IMPORT_BUDGET], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["loaded"] == []
    assert (report["market_exit"], report["after_market"]) == (0, [])
    assert report["scenarios"] == "enumstack.scenarios"
    assert report["missing"] == []
    assert report["undirred"] == []
    assert report["market_report"] is True
    assert report["state_hash"] == build_topology(builtin_config(1)).state_hash()
    assert not hasattr(enumstack, "no_such_name")


# A cold state-directory call, then every module of the package, in one
# fresh interpreter; reports the call's exit code and which of
# `dataclasses` and `inspect` it loaded.
NO_DATACLASS = """
import importlib, sys
from pathlib import Path
import enumstack.cli
code = enumstack.cli.main(["resolve", "+13154434473", "--state-dir", sys.argv[1]])
for path in Path(enumstack.cli.__file__).parent.glob("*.py"):
    if path.stem != "__init__":
        importlib.import_module("enumstack." + path.stem)
print(code, [m for m in ("dataclasses", "inspect") if m in sys.modules])
"""


def test_a_cold_state_dir_call_and_every_module_load_no_dataclasses(capsys, tmp_path):
    state = tmp_path / "state"
    run(capsys, "provision", "+1-315-443-4473",
        "--actor", "alice", "--record", SIP_RECORD, "--state-dir", str(state))
    done = subprocess.run([sys.executable, "-c", NO_DATACLASS, str(state)], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2:] == ["0 []", ""]
