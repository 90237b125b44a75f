import contextlib
import io
import re
import shutil
import tempfile
import types
import zlib
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumstack import snapshots
from enumstack.audit import (
    VALUE_FLOW_KINDS, _serial_monotonicity, assert_invariants, value_flow_from_log,
)
from enumstack.cli import main
from enumstack.errors import AccessDenied, InvalidRecord, NaptrError, RegistrarError, SnapshotError
from enumstack.naptr import NaptrRecord, parse_stored_line
from enumstack.registrar import PendingStore
from enumstack.registry import CHANGED, Delegation
from enumstack.scenarios import (
    build_topology,
    builtin_config,
    canonical_events,
    model_fixture_text,
    run_events,
)
from enumstack.snapshots import (
    CHECKPOINT,
    EVENTS_LOG,
    REGISTRY_SNAP,
    SCENARIO_FILE,
    SUBSCRIPTIONS_SNAP,
    _checkpoint_bytes,
    _load_registrar,
    _log_entry,
    _parse_grant,
    load_state,
    read_checkpoint,
    read_log,
    read_state_text,
    append_log,
    save_state,
)

RESTRICTED = 'restricted 140 10 "u" "E2U+tel" "!^.*$!tel:+13154434473!" .'


def populated(model=1, seed=4):
    topology = build_topology(builtin_config(model), seed=seed)
    run_events(topology, canonical_events())
    topology.provision("+13154434473", "alice", RESTRICTED)
    return topology


def reload_into_fresh(topology, tmp_path, model=1):
    save_state(topology, tmp_path)
    append_log(tmp_path, topology.log)
    fresh = build_topology(builtin_config(model), seed=0)
    load_state(fresh, tmp_path)
    return fresh


def test_roundtrip_preserves_stores_grants_subscriptions(tmp_path):
    topology = populated()
    fresh = reload_into_fresh(topology, tmp_path)
    for registrar_id, actor in topology.registrars.items():
        other = fresh.registrars[registrar_id]
        assert {n: list(map(str, rs)) for n, rs in actor.store.items() if rs} == {
            n: list(map(str, rs)) for n, rs in other.store.items() if rs
        }
        assert {n: [g.grant_id for g in gs] for n, gs in actor.grants.items()} == {
            n: [g.grant_id for g in gs] for n, gs in other.grants.items()
        }
    assert topology.directory.subscriptions.keys() == fresh.directory.subscriptions.keys()
    for number, sub in topology.directory.subscriptions.items():
        assert fresh.directory.subscriptions[number] == sub


def test_roundtrip_preserves_delegations_and_serials(tmp_path):
    topology = populated(model=4)
    fresh = reload_into_fresh(topology, tmp_path, model=4)
    for reg_id, actor in topology.registries.items():
        for number, delegation in actor.state.delegations.items():
            replica = fresh.registries[reg_id].state.delegations[number]
            assert (replica.registrar, replica.owning_registry, replica.serial) == (
                delegation.registrar, delegation.owning_registry, delegation.serial
            )


def test_serials_keep_rising_after_reload(tmp_path):
    topology = populated()
    before = topology.registries["R1"].state.lookup_delegation("13154434473").serial
    fresh = reload_into_fresh(topology, tmp_path)
    fresh.subscribe("+13154434473", "alice", "reg1", token="auto")
    after = fresh.registries["R1"].state.lookup_delegation("13154434473").serial
    assert after == before + 1


def test_grant_and_transfer_counters_restored(tmp_path):
    topology = populated()
    topology.transfer("+13154434474", "bob", "reg1")
    fresh = reload_into_fresh(topology, tmp_path)
    detail = fresh.grant("+13154434473", "alice", "asp1", "access", "*")
    assert int(detail["grant"][1:]) > 1
    tid = fresh.begin_transfer("+13154434474", "bob", "reg2")
    assert int(tid[1:]) > 1


# A revoked grant and a failed grant step have each used the id g2; a
# reload must not hand it out again.
@pytest.mark.parametrize(
    "steps",
    [
        "step grant number=+13154434473 user=alice grantee=asp1 rights=access\n"
        "step revoke number=+13154434473 user=alice grant=g2\n",
        "step grant number=+19990000000 user=alice grantee=asp1 rights=access\n",
    ],
    ids=["revoked", "failed"],
)
def test_grant_id_not_reissued_after_reload(steps, tmp_path):
    topology = build_topology(builtin_config(1), seed=0)
    run_events(topology, canonical_events() + steps)
    assert [r.detail["grant"] for r in topology.log if r.kind == "grant"] == ["g1", "g2"]
    fresh = reload_into_fresh(topology, tmp_path)
    assert fresh.grant("+13154434473", "alice", "asp1", "access")["grant"] == "g3"


def test_log_roundtrip(tmp_path):
    topology = populated()
    append_log(tmp_path, topology.log)
    records = read_log(tmp_path)
    assert [r.render() for r in records] == [r.render() for r in topology.log]


@pytest.mark.parametrize("model", range(1, 7))
@pytest.mark.parametrize("script", [None, "EXTENDED_EVENTS", "REPLICATION_EVENTS"])
def test_value_flow_from_the_paying_records_equals_the_full_read(model, script, tmp_path):
    import test_scenarios  # imported here: it imports this module

    topology = build_topology(builtin_config(model), seed=0)
    run_events(topology, canonical_events() + (getattr(test_scenarios, script) if script else ""))
    # The scripts leave a transfer open (EXTENDED_EVENTS' x4, REPLICATION_EVENTS'
    # parked x1), which locks its number: step it to its end first.
    for transfer in test_scenarios.open_transfers(topology).values():
        run_events(topology, f"step transfer_step transfer={transfer}\n" * 4)
    assert test_scenarios.open_transfers(topology) == {}
    # A cooperation payment (refused outside the ASP-registrar models) and
    # a paced transfer of alice's number, stepped through RegistryUpdated
    # to Complete.
    serving = topology.directory.subscriptions["13154434473"].serving_registrar
    run_events(topology, "step cooperate payer=asp1 tsp=tsp1 amount=2.5\n"
                         "step transfer_begin number=+13154434473 user=alice"
                         f" to={'reg1' if serving == 'reg2' else 'reg2'}\n")
    transfer = topology.log[-1].detail["transfer"]
    run_events(topology, f"step transfer_step transfer={transfer}\n" * 4)
    assert ("transfer_step", "ok", "RegistryUpdated") in [
        (r.kind, r.status, r.detail.get("state")) for r in topology.log
    ]
    append_log(tmp_path, topology.log)
    full = read_log(tmp_path)
    paying = read_log(tmp_path, VALUE_FLOW_KINDS)
    assert [r.render() for r in paying] == [
        r.render() for r in full if r.kind in VALUE_FLOW_KINDS
    ]
    lines = value_flow_from_log(full, topology.cfg).render_lines()
    assert lines and value_flow_from_log(paying, topology.cfg).render_lines() == lines


# Characters str.splitlines() breaks at besides "\n" and "\r".
LINE_SEPARATORS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("sep", LINE_SEPARATORS)
def test_line_separators_in_logged_and_stored_text_round_trip(sep, tmp_path):
    topology = populated()
    with pytest.raises(AccessDenied):  # refused, but logged
        topology.provision("+13154434473", f"ali{sep}ce", RESTRICTED)
    assert topology.log[-1].status == "AccessDenied"
    topology.provision(
        "+13154434473", "alice", f'150 10 "u" "E2U+sip" "!^.*$!sip:a{sep}b@example.com!" .'
    )
    assert topology.log[-1].status == "ok"
    fresh = reload_into_fresh(topology, tmp_path)
    assert [r.render() for r in read_log(tmp_path)] == [r.render() for r in topology.log]
    for registrar_id, actor in topology.registrars.items():
        stored = fresh.registrars[registrar_id].store
        assert {n: rs for n, rs in stored.items() if rs} == {
            n: rs for n, rs in actor.store.items() if rs
        }
    assert (fresh._event_n, fresh._transfer_n, fresh._grant_n) == (
        topology._event_n, topology._transfer_n, topology._grant_n
    )



@pytest.mark.parametrize("sep", ["|", "\n", "\r"])
@pytest.mark.parametrize("where", ["user", "tsp", "grantee", "scope"])
def test_name_holding_a_state_file_separator_is_refused(sep, where, tmp_path):
    topology = populated()
    name = f"da{sep}ve"
    if where in ("user", "tsp"):
        names = {"user": "dave", "tsp": "tsp1", where: name}
        with pytest.raises(RegistrarError):
            topology.assign("+13154434476", names["user"], names["tsp"])
    else:
        names = {"grantee": "asp1", "scope": "E2U+sip", where: name}
        with pytest.raises(RegistrarError):
            topology.grant("+13154434473", "alice", names["grantee"], "access", names["scope"])
    refused = topology.log[-1]
    assert refused.status == "RegistrarError"
    assert refused.detail["message"] == (
        f"{where} {name!r} may not hold '|' or a line break"
    )
    fresh = reload_into_fresh(topology, tmp_path)
    assert fresh.directory.subscriptions == topology.directory.subscriptions
    for registrar_id, actor in topology.registrars.items():
        assert fresh.registrars[registrar_id].grants == actor.grants
    assert [r.render() for r in read_log(tmp_path)] == [r.render() for r in topology.log]

def test_line_separator_does_not_shift_error_line_numbers(tmp_path):
    text = "e1|t0|assign|ok|user=a\u2028b\ne2|t0|assign|ok|user=c\ngarbage\n"
    (tmp_path / EVENTS_LOG).write_text(text, encoding="utf-8")
    for fn in (read_log, lambda d: load_state(build_topology(builtin_config(1)), d)):
        with pytest.raises(SnapshotError) as excinfo:
            fn(tmp_path)
        assert excinfo.value.lineno == 3


def test_corrupt_registry_snapshot_reports_line(tmp_path):
    topology = populated()
    save_state(topology, tmp_path)
    (tmp_path / REGISTRY_SNAP).write_text("13154434473|reg1|R1|1\nbroken-line\n")
    fresh = build_topology(builtin_config(1), seed=0)
    with pytest.raises(SnapshotError) as excinfo:
        load_state(fresh, tmp_path)
    assert excinfo.value.lineno == 2


def test_no_temp_files_after_save(tmp_path):
    topology = populated()
    save_state(topology, tmp_path)
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    # Nor after a write that fails: a directory cannot be replaced by a file.
    (tmp_path / REGISTRY_SNAP).unlink()
    (tmp_path / REGISTRY_SNAP).mkdir()
    with pytest.raises(IsADirectoryError):
        save_state(topology, tmp_path)
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_corrupt_events_log_reports_line(tmp_path):
    topology = populated()
    save_state(topology, tmp_path)
    append_log(tmp_path, topology.log)
    with open(tmp_path / EVENTS_LOG, "a", encoding="utf-8") as handle:
        handle.write("e99|t5|assign|ok|number\n")
    fresh = build_topology(builtin_config(1), seed=0)
    with pytest.raises(SnapshotError) as excinfo:
        load_state(fresh, tmp_path)
    assert excinfo.value.lineno == len(topology.log) + 1
    assert "bad log detail 'number'" in str(excinfo.value)


# Ticks and serials are the text str(n) writes for an n >= 0; int() alone
# would take each of these.
NOT_DECIMAL = ["٣", "1_0", " 5", "+5", "-1", "07"]


@pytest.mark.parametrize("text", NOT_DECIMAL)
def test_a_log_tick_not_in_decimal_form_is_an_error_naming_its_line(text, tmp_path):
    topology = populated()
    save_state(topology, tmp_path)
    append_log(tmp_path, topology.log)
    with open(tmp_path / EVENTS_LOG, "a", encoding="utf-8") as handle:
        handle.write(f"e99|t{text}|assign|ok|number=1\n")
    message = f"{tmp_path / EVENTS_LOG}:{len(topology.log) + 1}: bad tick 't{text}'"
    for read in (read_log, partial(read_log, kinds=VALUE_FLOW_KINDS), counters_by_load):
        with pytest.raises(SnapshotError) as excinfo:
            read(tmp_path)
        assert str(excinfo.value) == message


@pytest.mark.parametrize("text", NOT_DECIMAL)
def test_a_serial_not_in_decimal_form_is_an_error_naming_its_line(text, tmp_path):
    topology = populated()
    save_state(topology, tmp_path)
    (tmp_path / REGISTRY_SNAP).write_text(
        f"13154434473|reg1|R1|1\n13154434474|reg1|R1|{text}\n", encoding="utf-8"
    )
    with pytest.raises(SnapshotError) as excinfo:
        load_state(build_topology(builtin_config(1), seed=0), tmp_path)
    assert str(excinfo.value) == f"{tmp_path / REGISTRY_SNAP}:2: bad serial {text!r}"


def test_an_id_of_other_digits_numbers_no_event_transfer_or_grant(tmp_path):
    (tmp_path / EVENTS_LOG).write_text(
        "e2|t0|assign|ok|\n"
        "e٩|t1|transfer|ok|transfer=x٩\n"
        "e3|t2|grant|ok|grant=g٩\n",
        encoding="utf-8",
    )
    assert counters_by_load(tmp_path) == (3, 0, 0)


def test_corrupt_registrar_record_reports_line(tmp_path):
    topology = populated()
    save_state(topology, tmp_path)
    path = tmp_path / "registrar-reg1.snap"
    lines = path.read_text(encoding="utf-8").splitlines()
    bad = next(i for i, line in enumerate(lines) if line.startswith("record|"))
    lines[bad] = 'record|public 100 10 "x" "E2U+sip" "!^.*$!sip:a@b!" .'
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fresh = build_topology(builtin_config(1), seed=0)
    with pytest.raises(SnapshotError) as excinfo:
        load_state(fresh, tmp_path)
    assert excinfo.value.lineno == bad + 1
    assert "unsupported flags 'x'" in str(excinfo.value)


def assert_saved_state_loads(topology, state_dir):
    persist(topology, state_dir, model_fixture_text(1))
    fresh = loaded(1, state_dir)
    for registrar_id, actor in topology.registrars.items():
        assert fresh.registrars[registrar_id].store == actor.store


def test_unstorable_record_is_refused_by_provision_records(tmp_path):
    topology = populated()
    with pytest.raises(NaptrError):
        topology.registrars["reg1"].provision_records(
            "alice", "13154434473",
            [NaptrRecord(100, 10, "u", 'E2U"sip', "!^.*$!sip:x@y!", ".")],
        )
    assert_saved_state_loads(topology, tmp_path)


def test_unstorable_record_is_refused_in_a_provision_frame(tmp_path):
    topology = populated()
    reply = topology.net.request("client:alice", "reg1", "PROVISION", {
        "number": "13154434473", "actor": "alice", "event": "",
        "records": 'public 100 10 "" "E2U+web" "" "a b"',
    })
    assert reply.status == InvalidRecord.__name__
    assert "E2U+web" not in topology.resolve("+13154434473")["records"]
    assert topology.log[-1].ok
    assert_saved_state_loads(topology, tmp_path)


@pytest.mark.parametrize("rights", ["bogus", "", "access,bogus"])
def test_bad_grant_rights_report_line(rights, tmp_path):
    topology = populated()
    save_state(topology, tmp_path)
    path = tmp_path / "registrar-reg1.snap"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"grant|g9|alice|asp1|{rights}|*\n")
    lineno = len(path.read_text(encoding="utf-8").splitlines())
    fresh = build_topology(builtin_config(1), seed=0)
    with pytest.raises(SnapshotError) as excinfo:
        load_state(fresh, tmp_path)
    assert excinfo.value.lineno == lineno
    assert "bad rights" in str(excinfo.value)


@pytest.mark.parametrize("model", range(1, 7))
def test_save_after_load_is_byte_identical(model, tmp_path):
    topology = build_topology(builtin_config(model), seed=0)
    run_events(topology, canonical_events())
    first, second = tmp_path / "first", tmp_path / "second"
    text = model_fixture_text(model)
    save_state(topology, first, scenario_text=text)
    append_log(first, topology.log)
    fresh = build_topology(builtin_config(model), seed=0)
    load_state(fresh, first)
    save_state(fresh, second, scenario_text=read_state_text(first / SCENARIO_FILE))
    written = sorted(p.name for p in second.iterdir())
    assert written == sorted(p.name for p in first.iterdir() if p.name != EVENTS_LOG)
    for name in written:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


# ---------------------------------------------------------------- bytes that are not UTF-8


def _append_bad_byte(path, prefix=b"ok"):
    """Append a line holding byte 0xff; returns that line's number."""
    data = path.read_bytes()
    path.write_bytes(data + prefix + b"\xff\n")
    return data.count(b"\n") + 1


@pytest.mark.parametrize(
    "name", [REGISTRY_SNAP, SUBSCRIPTIONS_SNAP, "registrar-reg1.snap", EVENTS_LOG]
)
def test_non_utf8_state_file_is_snapshot_error(name, tmp_path):
    topology = populated()
    save_state(topology, tmp_path)
    append_log(tmp_path, topology.log)
    lineno = _append_bad_byte(tmp_path / name)
    fresh = build_topology(builtin_config(1), seed=0)
    with pytest.raises(SnapshotError) as excinfo:
        load_state(fresh, tmp_path)
    assert excinfo.value.lineno == lineno
    assert name in str(excinfo.value) and "not UTF-8" in str(excinfo.value)


def test_non_utf8_log_is_snapshot_error_for_read_log(tmp_path):
    topology = populated()
    append_log(tmp_path, topology.log)
    lineno = _append_bad_byte(tmp_path / EVENTS_LOG)
    with pytest.raises(SnapshotError) as excinfo:
        read_log(tmp_path)
    assert excinfo.value.lineno == lineno


@pytest.mark.parametrize(
    "data, lineno",
    [
        (b"\xff", 1),
        (b"a\nb\xffc\nd\n", 2),
        (b"a\n\xe2\x82", 2),  # a multi-byte sequence cut short
        (b"a\r\nb\r\xff", 3),
        ("é\né\n".encode() + b"\x80", 3),
        ("a\u2028b\x85c\n".encode() + b"\xff", 2),
    ],
)
def test_read_state_text_names_line_of_bad_byte(data, lineno, tmp_path):
    path = tmp_path / "f"
    path.write_bytes(data)
    with pytest.raises(SnapshotError) as excinfo:
        read_state_text(path)
    assert excinfo.value.lineno == lineno


def test_read_state_text_translates_line_endings(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"a\r\nb\rc\n")
    assert read_state_text(path) == path.read_text(encoding="utf-8") == "a\nb\nc\n"


# ---------------------------------------------------------------- id counters from the log

# ASCII digits only: an id such as e٣ numbers no event.
_ID_RE = re.compile(r"^[ex]([0-9]+)$")
_GRANT_ID_RE = re.compile(r"^g([0-9]+)$")


def counters_by_read_log(state_dir):
    """The id-counter fold load_state used before it scanned lines: parse
    every log record, keep the largest event id and transfer id, and the
    largest grant id a ``grant`` record holds."""
    event_n = transfer_n = grant_n = 0
    for rec in read_log(state_dir):
        match = _ID_RE.match(rec.event_id)
        if match:
            event_n = max(event_n, int(match.group(1)))
        match = _ID_RE.match(rec.detail.get("transfer", ""))
        if match:
            transfer_n = max(transfer_n, int(match.group(1)))
        match = _GRANT_ID_RE.match(rec.detail.get("grant", ""))
        if match and rec.kind == "grant":
            grant_n = max(grant_n, int(match.group(1)))
    return event_n, transfer_n, grant_n


def counters_by_load(state_dir):
    topology = build_topology(builtin_config(1), seed=0)
    load_state(topology, state_dir)
    return topology._event_n, topology._transfer_n, topology._grant_n


def paying_records_by_kinds(state_dir):
    return [r.render() for r in read_log(state_dir, VALUE_FLOW_KINDS)]


def paying_records_of_the_full_read(state_dir):
    return [r.render() for r in read_log(state_dir) if r.kind in VALUE_FLOW_KINDS]


def outcome(fn, state_dir):
    try:
        return fn(state_dir)
    except SnapshotError as exc:
        return ("SnapshotError", str(exc), exc.lineno)


def assert_counters_match(text):
    """The id counters of a load equal the full read's fold, and a read of
    the paying kinds gives the full read's records of those kinds: both
    fail alike, with the same path, line number and message."""
    with tempfile.TemporaryDirectory() as tmp:
        state_dir = Path(tmp)
        (state_dir / EVENTS_LOG).write_bytes(text.encode("utf-8"))
        assert outcome(counters_by_load, state_dir) == outcome(counters_by_read_log, state_dir)
        assert outcome(paying_records_by_kinds, state_dir) == outcome(
            paying_records_of_the_full_read, state_dir
        )


_ids = st.sampled_from(["e1", "e07", "x3", "e12", "g4", "", "e", "e1a", "ex2", "E5", "e٣"])
_ticks = st.sampled_from(
    ["t0", "t15", "t", "t٣", "t-1", "t 5", "t1_0", "tx", "5", "t+2", "t07", "t00"]
)
_words = st.sampled_from(
    ["ok", "assign", "transfer", "grant", "subscribe", "NoDelegation", "", "a b"]
)
_values = st.sampled_from(
    ["", "x1", "x22", "e9", "x1%3B", "x2%0A", "x%", "x3 ", "reg1", "a|b", "x٤", "y=z",
     "g3", "g14", "g2%3B", "g"]
)
_keys = st.sampled_from(["transfer", "grant", "number", "user", "Transfer", "xtransfer", ""])
_chunks = st.one_of(
    st.tuples(_keys, _values).map(lambda kv: f"{kv[0]}={kv[1]}"),
    st.sampled_from(["number", "", "transfer", " "]),
)
_details = st.lists(_chunks, max_size=4).map(";".join)
_lines = st.one_of(
    st.tuples(_ids, _ticks, _words, _words, _details).map("|".join),
    st.tuples(_ids, _ticks, _words, _words).map("|".join),
    st.sampled_from(["", " ", "\t", "garbage", "e1|t1", "　"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_lines, max_size=8), st.sampled_from(["\n", "\r\n", "\r"]))
@example(["e1|t0|assign|ok|", " ", "e2|t1|assign|ok|a=b"], "\n")
@example(["e1|t٣|assign|ok|a=b"], "\n")
@example(["e1|t0|transfer|ok|transfer=x5;transfer=x2"], "\n")
@example(["e1|t0|transfer|ok|transfer=x1%3B"], "\n")
@example(["e1|t0|transfer|ok|transfer=x4;"], "\n")
@example(["e1|t0|assign|ok"], "\n")
@example(["e07|t0|assign|ok|a=b"], "\n")
@example(["e1|t0|grant|ok|grant=g7", "e2|t0|revoke|ok|grant=g9"], "\n")
@example(["e٣|t0|assign|ok|a=b"], "\n")
@example(["e1|t0|subscribe|ok|user=a", "", "e2|t1|assign|ok|number;user=b"], "\r\n")
@example(["e1|t0|subscribe|ok|user=a", " ", "e2|t1|assign|ok"], "\r\n")
@example(["", "e1|t0|assign|ok|user=a", "\t", "e2|t1|subscribe|ok|b"], "\n")
def test_counter_scan_matches_read_log_fold(lines, newline):
    assert_counters_match(newline.join(lines) + newline)


def test_counter_scan_on_canonical_logs():
    extra = "\n".join(
        [
            "step transfer number=+13154434474 user=bob to=reg1",
            "step transfer_begin number=+13154434473 user=alice to=reg2",
            "step transfer_step transfer=x2",
            "step dispute transfer=x2 by=alice reason=no;way=%",
        ]
    )
    for model in range(1, 7):
        topology = build_topology(builtin_config(model), seed=0)
        run_events(topology, canonical_events() + "\n" + extra + "\n")
        text = "".join(rec.render() + "\n" for rec in topology.log)
        assert_counters_match(text)
        with tempfile.TemporaryDirectory() as tmp:
            append_log(Path(tmp), topology.log)
            assert counters_by_load(Path(tmp)) == (
                topology._event_n, topology._transfer_n, topology._grant_n
            )


@pytest.mark.parametrize("bad", [b"e99|t5|assign|ok|number\n", b"e99|t5|assign|ok|\xff\n"])
def test_log_appended_after_its_checkpoint(bad, tmp_path):
    topology = populated()
    persist(topology, tmp_path, model_fixture_text(1))
    entry = read_checkpoint(tmp_path)[EVENTS_LOG]
    before = len(topology.log)
    run_events(
        topology,
        "step transfer number=+13154434474 user=bob to=reg1\n"
        "step grant number=+13154434473 user=alice grantee=asp1 rights=access scope=E2U+sip\n",
    )
    append_log(tmp_path, topology.log[before:])
    assert counters_by_load(tmp_path) == counters_by_read_log(tmp_path)
    assert counters_by_load(tmp_path) == (
        topology._event_n, topology._transfer_n, topology._grant_n
    )
    # Only the appended lines are scanned: the prefix's counters are the entry's.
    assert _log_entry(tmp_path / EVENTS_LOG, (*entry[:2], 999, 0, 0))[2] == 999
    with open(tmp_path / EVENTS_LOG, "ab") as handle:
        handle.write(bad)
    with pytest.raises(SnapshotError) as excinfo:
        counters_by_load(tmp_path)
    assert excinfo.value.lineno == len(topology.log) + 1


# ---------------------------------------------------------------- the checkpoint


def _record(order, regexp_user, service="E2U+sip"):
    return f'{order} 10 "u" "{service}" "!^.*$!sip:{regexp_user}@example.com!" .'


# Steps over the canonical script's numbers, including records that the
# saved shape renders differently from how they were written (extra
# spaces, leading zeros) and records whose stored line the canonical
# zone-line pattern does not match (a bare replacement that opens with
# a quote).
_STEPS = st.sampled_from(
    [
        f"step provision number=+13154434473 actor=alice record={_record(120, 'a1')}",
        f"step provision number=+13154434474 actor=bob record={_record(121, 'b1')}",
        f"step provision number=+13154434475 actor=carol record={_record(122, 'c1')}",
        "step provision number=+13154434473 actor=alice record=130  10 \"u\" \"E2U+sip\""
        ' "!^.*$!sip:spaced@example.com!"  .',
        f"step provision number=+13154434474 actor=bob record=0{_record(131, 'zero')}",
        'step provision number=+13154434475 actor=carol record=140 10 "" "E2U+web" "" "abc',
        'step provision number=+13154434474 actor=bob'
        ' record=141 10 "" "E2U+ftp" "" ftp.example.org',
        f"step provision number=+13154434473 actor=alice visibility=restricted"
        f" record={_record(150, 'hidden', 'E2U+tel')}",
        f"step provision number=+13154434473 actor=alice record={_record(160, 'a b')}",
        "step grant number=+13154434474 user=bob grantee=asp1 rights=access scope=E2U+sip",
        "step revoke number=+13154434474 user=bob grant=g2",
        "step transfer number=+13154434474 user=bob to=reg1",
        "step transfer number=+13154434473 user=alice to=reg2",
        "step disconnect number=+13154434475 user=carol",
        "step subscribe number=+13154434475 user=carol registrar=reg2 token=auto",
        "step resolve number=+13154434473 service=*",
        "step get number=+13154434474 actor=asp1 service=E2U+sip",
    ]
)
_SCRIPTS = st.lists(_STEPS, max_size=6).map(lambda steps: "".join(s + "\n" for s in steps))


def persist(topology, state_dir, text):
    """What a persisting command does: append the log, then save."""
    append_log(state_dir, topology.log)
    save_state(topology, state_dir, scenario_text=text)


def loaded(model, state_dir):
    topology = build_topology(builtin_config(model), seed=0)
    load_state(topology, state_dir)
    return topology


def state_of(topology):
    """Everything a load restores, in comparable form."""
    return (
        {rid: dict(actor.store.items()) for rid, actor in topology.registrars.items()},
        {rid: actor.grants for rid, actor in topology.registrars.items()},
        topology.directory.subscriptions,
        {rid: (a.state.delegations, a.state.observed_serials)
         for rid, a in topology.registries.items()},
        (topology._event_n, topology._transfer_n, topology._grant_n),
        topology.state_hash(),
    )


def unread(store):
    """The numbers of *store* that nothing has read: those held as text."""
    return {n for n, value in store.held().items() if isinstance(value, str)}


def files_of(state_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(state_dir).iterdir())}


@settings(max_examples=30, deadline=None)
@given(model=st.integers(1, 6), before=_SCRIPTS, after=_SCRIPTS)
def test_trusted_load_equals_validating_load(model, before, after):
    text = model_fixture_text(model)
    with tempfile.TemporaryDirectory() as tmp:
        trusted, plain = Path(tmp) / "trusted", Path(tmp) / "plain"
        topology = build_topology(builtin_config(model), seed=0)
        run_events(topology, canonical_events() + before)
        persist(topology, trusted, text)
        assert read_checkpoint(trusted)[EVENTS_LOG][0] == (trusted / EVENTS_LOG).stat().st_size
        shutil.copytree(trusted, plain)
        (plain / CHECKPOINT).unlink()

        first, second = loaded(model, trusted), loaded(model, plain)
        checkpoint = read_checkpoint(trusted)
        for registrar_id, actor in first.registrars.items():
            if f"registrar-{registrar_id}.snap" in checkpoint:
                held = actor.store.numbers_with_records()
                assert set(held) <= unread(actor.store)
        assert state_of(first) == state_of(second)
        # Saving either, after more steps, writes the same bytes: a trusted
        # load reuses the text of numbers nothing read, and the other
        # renders every record.
        first, second = loaded(model, trusted), loaded(model, plain)
        run_events(first, after)
        run_events(second, after)
        persist(first, trusted, text)
        persist(second, plain, text)
        assert files_of(trusted) == files_of(plain)
        assert state_of(first) == state_of(second)
        # So does a save into a directory this topology has never seen.
        fresh = Path(tmp) / "fresh"
        save_state(loaded(model, trusted), fresh, scenario_text=text)
        expected = files_of(trusted)
        del expected[EVENTS_LOG], expected[CHECKPOINT]
        written = files_of(fresh)
        del written[CHECKPOINT]
        assert written == expected


def load_outcome(model, state_dir):
    try:
        return ("ok", state_of(loaded(model, state_dir)))
    except Exception as exc:  # the validating path raises what it raises
        message = str(exc).replace(str(state_dir), "<dir>")
        return (type(exc).__name__, message, getattr(exc, "lineno", None))


@pytest.fixture(scope="module")
def saved_dir(tmp_path_factory):
    """A model-4 state directory with grants, a transfer and restricted records."""
    state_dir = tmp_path_factory.mktemp("saved")
    topology = build_topology(builtin_config(4), seed=0)
    run_events(
        topology,
        canonical_events()
        + "step grant number=+13154434474 user=bob grantee=asp1 rights=access scope=E2U+tel\n"
        + "step transfer number=+13154434475 user=carol to=reg2\n",
    )
    topology.provision("+13154434474", "bob", RESTRICTED)
    persist(topology, state_dir, model_fixture_text(4))
    return state_dir


CHECKED_FILES = [
    REGISTRY_SNAP, SUBSCRIPTIONS_SNAP, "registrar-reg1.snap", "registrar-reg2.snap",
    EVENTS_LOG, CHECKPOINT,
]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(CHECKED_FILES), data=st.data())
def test_corrupt_file_loads_as_without_a_checkpoint(saved_dir, name, data):
    original = (saved_dir / name).read_bytes()
    append = data.draw(st.booleans(), label="append a line")
    if append:
        line = data.draw(
            st.sampled_from(
                ["", "garbage", "number|13154434499", "e99|t1|assign|ok|number=1",
                 "13154434499|reg1|R1|1", "record|public 1 1 \"u\" \"x\" \"!a!b!\" ."]
            ),
            label="line",
        )
        corrupt = original + line.encode("utf-8") + b"\n"
    else:
        at = data.draw(st.integers(0, len(original) - 1), label="byte")
        bit = data.draw(st.sampled_from([0x01, 0x02, 0x10, 0x80]), label="bit")
        corrupt = original[:at] + bytes([original[at] ^ bit]) + original[at + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        trusted, plain = Path(tmp) / "trusted", Path(tmp) / "plain"
        shutil.copytree(saved_dir, trusted)
        (trusted / name).write_bytes(corrupt)
        shutil.copytree(trusted, plain)
        (plain / CHECKPOINT).unlink(missing_ok=True)
        assert load_outcome(4, trusted) == load_outcome(4, plain)


def line_by_line_load(path, text):
    """The registrar loader as it was before blocks in the saved layout
    were taken whole: every line checked in turn. Returns the store, the
    grants and the largest grant number."""
    store, grants, max_grant, current = {}, {}, 0, None
    for lineno, line in enumerate(text.split("\n"), 1):
        tag, _, rest = line.partition("|")
        if tag == "record":
            if current is None:
                raise SnapshotError(str(path), lineno, "record before number line")
            try:
                records.append(parse_stored_line(rest))
            except Exception as exc:
                raise SnapshotError(str(path), lineno, str(exc)) from exc
        elif tag == "number":
            current = rest
            records = store.setdefault(current, [])
        elif not line.strip():
            continue
        elif tag == "grant":
            if current is None:
                raise SnapshotError(str(path), lineno, "grant before number line")
            try:
                grant = _parse_grant(rest)
            except (ValueError, RegistrarError) as exc:
                raise SnapshotError(str(path), lineno, str(exc)) from exc
            grants.setdefault(current, []).append(grant)
            match = _GRANT_ID_RE.match(grant.grant_id)
            max_grant = max(max_grant, int(match.group(1)) if match else 0)
        else:
            raise SnapshotError(str(path), lineno, f"unknown tag {tag!r}")
    return store, grants, max_grant


def registrar_load(text, trusted):
    actor = types.SimpleNamespace(store=None, grants={})
    topology = types.SimpleNamespace(snapshot_seen=(None, {}), _grant_n=0)
    try:
        _load_registrar(topology, actor, Path("reg.snap"), text, trusted)
    except SnapshotError as exc:
        return ("SnapshotError", str(exc), exc.lineno)
    return dict(actor.store.items()), actor.grants, topology._grant_n


_SAVED_LINES = [
    "number|13154434473", "grant|g1|alice|asp1|access,provision|E2U+mailto",
    'record|public 100 10 "u" "E2U+sip" "!^.*$!sip:alice@sip.example.com!" .',
    'record|public 102 10 "u" "E2U+mailto" "!^.*$!mailto:alice@example.com!" .',
    "number|13154434474", "grant|g2|bob|asp1|access|E2U+tel",
    'record|restricted 140 10 "u" "E2U+tel" "!^.*$!tel:+13154434473!" .',
    "number|13154434475",
]
_ODD_LINES = _SAVED_LINES + [
    "", " ", "number|13154434499", "number", "number|", "record|", "record|garbage",
    'record|public 1 1 "x" "E2U+sip" "!a!b!" .', "grant|g9|alice|asp1|bogus|*",
    "grant|g10|alice|asp1|access", "grant|gx|a|b|access|*", "bogus|x", "record",
]
# Registrar files a save would not write, one per shape a trusted load
# once sent to a second, parse-everything read.
_OFF_LAYOUT = {
    "no-final-break": dict(lines=_SAVED_LINES, end=""),
    "blank-line": dict(lines=[*_SAVED_LINES[:4], " ", *_SAVED_LINES[4:]], end="\n"),
    "untagged-line": dict(lines=[*_SAVED_LINES, "number"], end="\n"),
    "first-line": dict(lines=["number", *_SAVED_LINES], end="\n"),
    "number-twice": dict(lines=[*_SAVED_LINES, _SAVED_LINES[0], _SAVED_LINES[6]], end="\n"),
    "grant-after-record": dict(
        lines=[_SAVED_LINES[0], _SAVED_LINES[2], _SAVED_LINES[1], *_SAVED_LINES[3:]], end="\n"
    ),
    "bad-grant": dict(lines=[*_SAVED_LINES, "grant|g10|alice|asp1|access"], end="\n"),
}


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.sampled_from(_SAVED_LINES), max_size=8)
    | st.lists(st.sampled_from(_ODD_LINES), max_size=8),
    end=st.sampled_from(["\n", "", "\n\n"]),
)
@example(lines=_SAVED_LINES, end="\n")
@example(lines=["number|13154434473", "", _SAVED_LINES[2], "number|13154434473",
                _SAVED_LINES[3]], end="\n")
@example(lines=[_SAVED_LINES[2], "number|13154434473"], end="")
@example(lines=[*_SAVED_LINES[:4], "", *_SAVED_LINES[4:]], end="\n")  # a blank line after a block
@example(**_OFF_LAYOUT["no-final-break"])
@example(**_OFF_LAYOUT["blank-line"])
@example(**_OFF_LAYOUT["untagged-line"])
@example(**_OFF_LAYOUT["first-line"])
@example(**_OFF_LAYOUT["number-twice"])
@example(**_OFF_LAYOUT["grant-after-record"])
@example(**_OFF_LAYOUT["bad-grant"])
def test_registrar_loader_matches_the_line_by_line_loader(lines, end):
    text = "\n".join(lines) + end
    try:
        expected = line_by_line_load(Path("reg.snap"), text)
    except SnapshotError as exc:
        expected = ("SnapshotError", str(exc), exc.lineno)
    assert registrar_load(text, trusted=False) == expected
    # A trusted load parses records when they are read, so it may load a
    # bad record line; any text the checks accept loads the same.
    if expected[0] != "SnapshotError":
        assert registrar_load(text, trusted=True) == expected
        # Every number holding records keeps them unread.
        actor = types.SimpleNamespace(store=None, grants={})
        topology = types.SimpleNamespace(snapshot_seen=(None, {}), _grant_n=0)
        _load_registrar(topology, actor, Path("reg.snap"), text, True)
        assert unread(actor.store) == {n for n, records in expected[0].items() if records}


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet="ab\n", max_size=30), size=st.integers(0, 6))
def test_the_line_walk_splits_as_str_split(text, size):
    # A piece ends at the first line break _SPLIT_CHARS characters on.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(snapshots, "_SPLIT_CHARS", size)
        assert list(snapshots._lines(text)) == text.split("\n")


@pytest.mark.parametrize("shape", _OFF_LAYOUT.values(), ids=_OFF_LAYOUT)
def test_a_trusted_registrar_file_off_the_saved_layout_is_read_line_by_line(shape):
    # One walk reads both: a trusted load equals the untrusted one, or
    # fails at the same line with the same error.
    text = "\n".join(shape["lines"]) + shape["end"]
    actor = types.SimpleNamespace(store=None, grants={})
    topology = types.SimpleNamespace(snapshot_seen=(None, {}), _grant_n=0)
    try:
        _load_registrar(topology, actor, Path("reg.snap"), text, True)
    except SnapshotError as exc:  # the grant line that does not parse, named
        assert registrar_load(text, trusted=False) == ("SnapshotError", str(exc), exc.lineno)
    else:
        assert unread(actor.store) == set(actor.store.numbers_with_records())
        assert registrar_load(text, trusted=True) == registrar_load(text, trusted=False)


def test_bad_line_in_the_last_of_many_odd_blocks_names_its_line():
    lines = []
    for i in range(300):
        lines += [f"number|1315443{i:04d}", *_SAVED_LINES[1:4 if i % 3 else 3], ""]
    lines[-2] = "record|garbage"
    text = "\n".join(lines) + "\n"
    with pytest.raises(SnapshotError) as excinfo:
        line_by_line_load(Path("reg.snap"), text)
    expected = ("SnapshotError", str(excinfo.value), len(lines) - 1)
    assert excinfo.value.lineno == expected[2]
    assert registrar_load(text, trusted=False) == expected
    # Trusted, the file loads; the bad number's first read fails, naming
    # the file only, and takes the file's checkpoint entry away, so the
    # next load parses every line and names the bad one.
    actor = types.SimpleNamespace(store=None, grants={})
    topology = types.SimpleNamespace(snapshot_seen=(None, {}), _grant_n=0)
    _load_registrar(topology, actor, Path("reg.snap"), text, True)
    bad = "13154430299"
    assert bad in unread(actor.store)
    with pytest.raises(SnapshotError) as excinfo:
        actor.store[bad]
    assert excinfo.value.lineno is None and str(excinfo.value).startswith("reg.snap: ")
    assert topology.snapshot_seen[1] == {"reg.snap": ()}
    assert registrar_load(text, trusted=False) == expected


def test_untouched_registrar_file_is_not_rewritten(tmp_path):
    topology = build_topology(builtin_config(1), seed=0)
    run_events(topology, canonical_events())
    persist(topology, tmp_path, model_fixture_text(1))
    fresh = loaded(1, tmp_path)
    assert "13154434474" in unread(fresh.registrars["reg2"].store)
    stamps = {p.name: p.stat().st_ino for p in tmp_path.iterdir()}
    before = len(fresh.log)
    fresh.provision("+13154434473", "alice", _record(170, "new"))
    append_log(tmp_path, fresh.log[before:])
    save_state(fresh, tmp_path, scenario_text=model_fixture_text(1))
    rewritten = {p.name for p in tmp_path.iterdir() if stamps.get(p.name) != p.stat().st_ino}
    assert rewritten == {"registrar-reg1.snap", CHECKPOINT}
    # Nothing read reg2's numbers, so its text was never parsed.
    assert "13154434474" in unread(fresh.registrars["reg2"].store)


def test_record_line_off_the_canonical_shape_is_checkpointed(tmp_path):
    topology = populated()
    odd = '140 10 "" "E2U+web" "" "abc'  # a bare replacement opening with a quote
    assert topology.provision("+13154434473", "alice", odd)["services"] == "E2U+web"
    state_dir, plain = tmp_path / "state", tmp_path / "plain"
    persist(topology, state_dir, model_fixture_text(1))
    assert "registrar-reg1.snap" in read_checkpoint(state_dir)
    shutil.copytree(state_dir, plain, ignore=shutil.ignore_patterns(CHECKPOINT))
    fresh = loaded(1, state_dir)
    assert "13154434473" in unread(fresh.registrars["reg1"].store)
    assert '"abc' in [r.replacement for r in fresh.registrars["reg1"].store["13154434473"]]
    assert state_of(fresh) == state_of(loaded(1, plain))


def test_audit_of_a_trusted_load_reads_no_record_and_misses_nothing(tmp_path):
    topology = populated()
    # reg2 now holds records for a number reg1 serves: single_store is red.
    topology.backdoor_provision("reg2", "+13154434473", _record(180, "stray"), "mallory")
    persist(topology, tmp_path, model_fixture_text(1))
    fresh = loaded(1, tmp_path)
    fresh.log = read_log(tmp_path)
    report = assert_invariants(fresh)
    assert report.result("single_store").violations == ["13154434473 stored at reg1, reg2"]
    assert all(
        set(actor.store.numbers_with_records()) <= unread(actor.store)
        for actor in fresh.registrars.values()
    )
    plain = tmp_path / "plain"
    shutil.copytree(tmp_path, plain, ignore=shutil.ignore_patterns(CHECKPOINT))
    validated = loaded(1, plain)
    validated.log = read_log(plain)
    assert report.render_lines() == assert_invariants(validated).render_lines()


def test_every_byte_of_the_checkpoint_is_checked(tmp_path):
    topology = populated()
    persist(topology, tmp_path, model_fixture_text(1))
    original = (tmp_path / CHECKPOINT).read_bytes()
    (tmp_path / CHECKPOINT).unlink()
    expected = load_outcome(1, tmp_path)
    for at in range(len(original)):
        flipped = original[:at] + bytes([original[at] ^ 0x01]) + original[at + 1:]
        (tmp_path / CHECKPOINT).write_bytes(flipped)
        assert read_checkpoint(tmp_path) == {}, at
        assert load_outcome(1, tmp_path) == expected


def test_unreadable_checkpoint_is_ignored(tmp_path):
    topology = populated()
    persist(topology, tmp_path, model_fixture_text(1))
    expected = state_of(loaded(1, tmp_path))
    for data in [b"", b"\xff\n", b"crc|0\n", b"enumstack checkpoint 1\n"]:
        (tmp_path / CHECKPOINT).write_bytes(data)
        assert read_checkpoint(tmp_path) == {}
        assert state_of(loaded(1, tmp_path)) == expected
    (tmp_path / CHECKPOINT).unlink()
    assert state_of(loaded(1, tmp_path)) == expected


_CLI_CALLS = st.sampled_from(
    [
        ("provision", "+1-315-443-4473", "--actor", "alice", "--record", _record(120, "a1")),
        ("provision", "+13154434474", "--actor", "bob", "--record", _record(130, "b1")),
        ("provision", "+13154434474", "--actor", "alice", "--record", _record(131, "no")),
        ("transfer", "+13154434474", "--user", "bob", "--to", "reg1"),
        ("transfer", "+13154434473", "--user", "alice", "--to", "reg2"),
        ("disconnect", "+13154434473", "--user", "alice"),
        ("resolve", "+13154434474"),
    ]
)


@settings(max_examples=10, deadline=None)
@given(calls=st.lists(_CLI_CALLS, max_size=6))
def test_checkpoint_counters_equal_a_full_log_scan(calls):
    with tempfile.TemporaryDirectory() as tmp:
        state_dir = Path(tmp)
        # The first persisting call creates the directory's state.
        for call in [("disconnect", "+13154434474", "--user", "bob"), *calls]:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main([*call, "--state-dir", str(state_dir)])
            entry = read_checkpoint(state_dir)[EVENTS_LOG]
            assert entry == _log_entry(state_dir / EVENTS_LOG, None)


def _provision_and_persist(topology, state_dir):
    topology.provision("+12125550001", "bob", _record(110, "new"))
    persist(topology, state_dir, model_fixture_text(4))


@pytest.mark.parametrize("cut", [0, 1], ids=["appended", "shorter-than-loaded"])
def test_a_save_after_a_load_writes_the_log_entry_a_full_scan_gives(model4_dir, tmp_path, cut):
    shutil.copytree(model4_dir, tmp_path, dirs_exist_ok=True)
    path = tmp_path / EVENTS_LOG
    topology = loaded(4, tmp_path)
    if cut:  # the log loses its last line after the load
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(lines[:-2] + [b""]))
    _provision_and_persist(topology, tmp_path)
    assert read_checkpoint(tmp_path)[EVENTS_LOG] == _log_entry(path, None)


def test_a_save_does_not_read_the_log_prefix_its_load_checked(model4_dir, tmp_path):
    shutil.copytree(model4_dir, tmp_path, dirs_exist_ok=True)
    path = tmp_path / EVENTS_LOG
    prefix = path.read_bytes()
    topology = loaded(4, tmp_path)
    # A byte of the prefix changes behind the load's back: a save that
    # read the prefix again would no longer match the load's entry.
    path.write_bytes(b"#" + prefix[1:])
    _provision_and_persist(topology, tmp_path)
    as_loaded = tmp_path / "as-loaded.log"
    as_loaded.write_bytes(prefix + path.read_bytes()[len(prefix):])
    assert read_checkpoint(tmp_path)[EVENTS_LOG] == _log_entry(as_loaded, None)


# ---------------------------------------------------------------- deferred reads


def model4_topology(count=40):
    """A model-4 run of the canonical script plus *count* more numbers,
    half at each registrar (so half owned by each registry), each with one
    record."""
    topology = build_topology(builtin_config(4), seed=0)
    run_events(topology, canonical_events())
    for k in range(count):
        number, user = f"+1212555{k:04d}", ("alice", "bob", "carol")[k % 3]
        topology.assign(number, user, "tsp1")
        topology.subscribe(number, user, ("reg1", "reg2")[k % 2], token="auto")
        topology.provision(number, user, _record(100, f"n{k}"))
    return topology


def populate_model4(state_dir, count=40):
    """Persist :func:`model4_topology`."""
    persist(model4_topology(count), state_dir, model_fixture_text(4))


@pytest.fixture(scope="module")
def model4_dir(tmp_path_factory):
    state_dir = tmp_path_factory.mktemp("model4")
    populate_model4(state_dir)
    return state_dir


def test_a_resolve_after_a_trusted_load_reads_only_its_number(model4_dir):
    checkpoint = read_checkpoint(model4_dir)
    assert {REGISTRY_SNAP, SUBSCRIPTIONS_SNAP, "registrar-reg1.snap"} <= set(checkpoint)
    fresh = loaded(4, model4_dir)
    resolved = "12125550003"
    assert fresh.resolve("+" + resolved)["uris"] == "sip:n3@example.com"
    stores = {
        **{f"registry {rid}": a.state.delegations for rid, a in fresh.registries.items()},
        "subscriptions": fresh.directory.subscriptions,
        **{f"registrar {rid}": a.store for rid, a in fresh.registrars.items()},
    }
    for name, store in stores.items():
        assert len(store) > 20, name
        # A number saved with no records has no text to leave unread.
        text = unread(store)
        read = [n for n in store if n not in text and store[n]]
        assert read in ([], [resolved]), name


def test_serials_of_a_loaded_number_are_checked_when_it_changes(model4_dir):
    fresh = loaded(4, model4_dir)
    fresh.log = read_log(model4_dir)
    number = "13154434474"  # bob's, at reg2, so owned by R2 and replicated at R1
    loaded_serial = fresh.registries["R2"].state.delegations[number].serial
    assert fresh.transfer("+" + number, "bob", "reg1")["state"] == "Complete"
    for state in (fresh.registries["R2"].state, fresh.registries["R1"].state):
        assert state.delegations[number].owning_registry == "R2"
        assert state.observed_serials[number] == [loaded_serial, loaded_serial + 1]
    assert assert_invariants(fresh).result("serial_monotonicity").passed
    # A replica that goes back below the serial it loaded is caught.
    other = "12125550001"
    state = fresh.registries["R1"].state
    planted = state.delegations[other]
    state._apply(Delegation(other, "reg1", planted.owning_registry, planted.serial - 1), CHANGED)
    assert assert_invariants(fresh).result("serial_monotonicity").violations == [
        f"R1 observed {other} serials {planted.serial} -> {planted.serial - 1}"
    ]


def vouch(state_dir, name, data):
    """Write *data* to the state file *name* with a checkpoint entry that
    matches it, as if a save had written it."""
    (state_dir / name).write_bytes(data)
    entries = read_checkpoint(state_dir)
    entries[name] = (len(data), zlib.crc32(data))
    (state_dir / CHECKPOINT).write_bytes(_checkpoint_bytes(entries))


@pytest.mark.parametrize(
    "name, good, bad, read",
    [
        (REGISTRY_SNAP, "12125550001|reg2|R2|1", "12125550001|reg2|R2|x",
         lambda t: t.registries["R1"].state.delegations["12125550001"]),
        (SUBSCRIPTIONS_SNAP, "12125550001|bob|tsp1|1|", "12125550001|bob|tsp1|2|",
         lambda t: t.directory.subscriptions["12125550001"]),
        ("registrar-reg2.snap", '"!^.*$!sip:n1@example.com!" .', '"!^.*$!sip:n1@example.com!"',
         lambda t: t.registrars["reg2"].store["12125550001"]),
    ],
    ids=["registry", "subscriptions", "registrar"],
)
def test_a_bad_line_in_a_trusted_file_fails_when_read(model4_dir, tmp_path, name, good, bad, read):
    path = tmp_path / name
    shutil.copytree(model4_dir, tmp_path, dirs_exist_ok=True)
    data = path.read_bytes()
    assert data.count(good.encode()) == 1
    vouch(tmp_path, name, data.replace(good.encode(), bad.encode()))
    fresh = loaded(4, tmp_path)  # the line stays unread
    with pytest.raises(SnapshotError, match=re.escape(f"{path}: ")):
        read(fresh)
    with pytest.raises(SnapshotError):  # and it stays so
        read(fresh)
    (tmp_path / CHECKPOINT).unlink()
    with pytest.raises(SnapshotError, match=re.escape(f"{path}:") + r"\d+: "):
        loaded(4, tmp_path)


def test_a_file_whose_stored_text_failed_to_parse_is_no_longer_vouched_for(capsys, tmp_path):
    provision = ["provision", "+1-315-443-4473", "--actor", "alice",
                 "--record", _record(120, "p1"), "--state-dir", str(tmp_path)]
    assert main(provision) == 0
    path = tmp_path / SUBSCRIPTIONS_SNAP
    data = path.read_bytes()
    vouch(tmp_path, SUBSCRIPTIONS_SNAP, data.replace(b"|tsp1|1|1|", b"|tsp1|7|1|", 1))
    capsys.readouterr()
    assert main(provision) == 2  # the number's line is read, and fails
    assert f"{path}: flags must be 0 or 1" in capsys.readouterr().err
    assert SUBSCRIPTIONS_SNAP not in read_checkpoint(tmp_path)
    log = (tmp_path / EVENTS_LOG).read_bytes()
    assert main(provision) == 2  # now the load fails, naming the line
    assert f"{path}:1: flags must be 0 or 1" in capsys.readouterr().err
    assert (tmp_path / EVENTS_LOG).read_bytes() == log


@pytest.mark.parametrize(
    "name, change, where",
    [
        ("registrar-reg2.snap", lambda data: data + b"junk\n", r":\d+: unknown tag 'junk'"),
        (SUBSCRIPTIONS_SNAP,
         lambda data: data.replace(b"12125550001|bob|tsp1|1|", b"12125550001|bob|tsp1|7|"),
         ": flags must be 0 or 1"),
    ],
    ids=["registrar-untagged-line", "subscriptions-bad-flags"],
)
def test_a_bad_vouched_file_fails_a_step_without_logging_it(
    model4_dir, tmp_path, capsys, name, change, where
):
    # A local file's fault is no outcome of the step: no replay of the log
    # could reproduce it, so the CLI exits 2 and the log is left as it was.
    shutil.copytree(model4_dir, tmp_path, dirs_exist_ok=True)
    vouch(tmp_path, name, change((tmp_path / name).read_bytes()))
    log = (tmp_path / EVENTS_LOG).read_bytes()
    fresh = loaded(4, tmp_path)
    with pytest.raises(SnapshotError):  # nor does a script run past it
        run_events(fresh, f"step provision number=+12125550001 actor=bob"
                          f" record={_record(110, 'new')}\n")
    assert fresh.log == []
    capsys.readouterr()
    assert main(["provision", "+12125550001", "--actor", "bob", "--record",
                 _record(110, "new"), "--state-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.match(re.escape(f"SnapshotError: {tmp_path / name}") + where, err), err
    assert (tmp_path / EVENTS_LOG).read_bytes() == log


def test_a_trusted_whitespace_line_is_no_subscription(tmp_path):
    trusted, plain = tmp_path / "trusted", tmp_path / "plain"
    assert main(["provision", "+1-315-443-4473", "--actor", "alice",
                 "--record", _record(120, "p1"), "--state-dir", str(trusted)]) == 0
    vouch(trusted, SUBSCRIPTIONS_SNAP, (trusted / SUBSCRIPTIONS_SNAP).read_bytes() + b" \n")
    shutil.copytree(trusted, plain, ignore=shutil.ignore_patterns(CHECKPOINT))
    numbers = sorted(loaded(1, plain).directory.subscriptions)
    assert numbers == ["13154434473", "13154434474"]
    assert sorted(loaded(1, trusted).directory.subscriptions) == numbers


def _insert_line(data, at, line):
    lines = data.split(b"\n")
    lines.insert(at, line)
    return b"\n".join(lines)


def _bad_serial_on_the_first_of_two_claims(data):
    # 12125550000 is R1's at serial 1; the line now carries a bad serial,
    # and a line appended for R2 claims the number too.
    line = b"12125550000|reg1|R1|1"
    assert data.split(b"\n").index(line) == 0
    return data.replace(line + b"\n", line[:-1] + b"x\n") + b"12125550000|reg2|R2|1\n"


def _duplicate_first_number(data):
    number, _, rest = data.partition(b"\n")[0].partition(b"|")
    _, _, rest = rest.partition(b"|")  # a second line for the number, with another user
    return data + number + b"|carol|" + rest + b"\n"


@pytest.mark.parametrize(
    "name, change, failing_line",
    [
        (REGISTRY_SNAP, lambda data: _insert_line(data, 20, b""), None),
        (REGISTRY_SNAP, lambda data: _insert_line(data, 20, b"12125559999|reg1|R9|1"), 21),
        (REGISTRY_SNAP, lambda data: _insert_line(data, 20, b"12125559999|reg1|R1"), 21),
        (REGISTRY_SNAP, _bad_serial_on_the_first_of_two_claims, 1),
        (SUBSCRIPTIONS_SNAP, _duplicate_first_number, None),
    ],
    ids=["registry-blank-line", "registry-unknown-owner", "registry-three-fields",
         "registry-bad-serial-first-of-two-owners", "subscriptions-duplicate-number"],
)
def test_a_vouched_file_a_save_would_not_write_loads_as_a_plain_one(
    model4_dir, tmp_path, name, change, failing_line
):
    trusted, plain = tmp_path / "trusted", tmp_path / "plain"
    shutil.copytree(model4_dir, trusted)
    vouch(trusted, name, change((trusted / name).read_bytes()))
    shutil.copytree(trusted, plain, ignore=shutil.ignore_patterns(CHECKPOINT))
    assert name in read_checkpoint(trusted)
    expected = load_outcome(4, plain)
    assert load_outcome(4, trusted) == expected
    if failing_line is None:
        assert expected[0] == "ok"
    else:
        assert expected[0] == "SnapshotError" and expected[2] == failing_line


@pytest.mark.parametrize("name", [REGISTRY_SNAP, SUBSCRIPTIONS_SNAP])
def test_a_trusted_file_without_its_last_line_break_loses_no_line(model4_dir, tmp_path, name):
    trusted, plain = tmp_path / "trusted", tmp_path / "plain"
    shutil.copytree(model4_dir, trusted)
    data = (trusted / name).read_bytes()
    vouch(trusted, name, data[:-1])
    shutil.copytree(trusted, plain, ignore=shutil.ignore_patterns(CHECKPOINT))
    assert state_of(loaded(4, trusted)) == state_of(loaded(4, plain))


def test_a_number_two_owners_claim_is_observed_at_both_serials(model4_dir, tmp_path):
    # R1 owns 12125550000 at serial 1; a second line claims it for R2, and
    # both registries hold both lines, so each observes serial 1 twice.
    trusted, plain = tmp_path / "trusted", tmp_path / "plain"
    shutil.copytree(model4_dir, trusted)
    data = (trusted / REGISTRY_SNAP).read_bytes()
    assert b"12125550000|reg1|R1|1\n" in data
    vouch(trusted, REGISTRY_SNAP, data + b"12125550000|reg2|R2|1\n")
    shutil.copytree(trusted, plain, ignore=shutil.ignore_patterns(CHECKPOINT))
    expected = [f"{reg_id} observed 12125550000 serials 1 -> 1" for reg_id in ("R1", "R2")]
    # The check reads the observed serials before any delegation, which
    # walks the file.
    first = loaded(4, trusted)
    assert all(a.state.delegations.__class__ is PendingStore for a in first.registries.values())
    assert _serial_monotonicity(first) == expected
    first, second = loaded(4, trusted), loaded(4, plain)
    assert state_of(first) == state_of(second)
    assert assert_invariants(first).result("serial_monotonicity").violations == expected


def test_a_number_two_owners_claim_is_saved_for_the_last_claim_only(model4_dir, tmp_path):
    # R1's line for 12125550000 comes first and R2's last: the number is
    # R2's at both registries, so a save writes R2's line and not R1's.
    trusted, plain = tmp_path / "trusted", tmp_path / "plain"
    shutil.copytree(model4_dir, trusted)
    data = (trusted / REGISTRY_SNAP).read_bytes()
    vouch(trusted, REGISTRY_SNAP, data + b"12125550000|reg2|R2|1\n")
    shutil.copytree(trusted, plain, ignore=shutil.ignore_patterns(CHECKPOINT))
    saved = []
    for source in (trusted, plain):
        fresh = loaded(4, source)
        fresh.registries["R1"].state.delegations.held()  # walks the file
        target = tmp_path / f"saved-{source.name}"
        save_state(fresh, target)
        saved.append((target / REGISTRY_SNAP).read_bytes())
    assert saved[0] == saved[1]
    assert b"12125550000|reg1|R1|1\n" not in saved[0]
    assert saved[0].count(b"12125550000|") == 1 and b"12125550000|reg2|R2|1\n" in saved[0]


_DIR_NUMBERS = st.sampled_from(["+13154434473", "+13154434474", "+12125550000", "+12125550001"])
_DIR_USERS = st.sampled_from(["alice", "bob"])
_DIR_CALLS = st.one_of(
    st.tuples(st.just("provision"), _DIR_NUMBERS, st.just("--actor"), _DIR_USERS,
              st.just("--record"), st.sampled_from([_record(120, "p1"), _record(130, "p2")])),
    st.tuples(st.just("transfer"), _DIR_NUMBERS, st.just("--user"), _DIR_USERS,
              st.just("--to"), st.sampled_from(["reg1", "reg2"])),
    st.tuples(st.just("disconnect"), _DIR_NUMBERS, st.just("--user"), _DIR_USERS),
    st.tuples(st.just("resolve"), _DIR_NUMBERS),
)


def cli_run(calls, state_dir, plain):
    """Each call's exit code, stdout and stderr, the state files but the
    checkpoint after it, and the loaded state's hash; with *plain*, the
    checkpoint is deleted before each call."""
    outcomes = []
    for call in calls:
        if plain:
            (state_dir / CHECKPOINT).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*call, "--state-dir", str(state_dir)])
        files = files_of(state_dir)
        files.pop(CHECKPOINT, None)
        outcomes.append((
            code, out.getvalue(), err.getvalue().replace(str(state_dir), "<dir>"), files,
            loaded(4, state_dir).state_hash(),
        ))
    return outcomes


@settings(max_examples=15, deadline=None)
@given(calls=st.lists(_DIR_CALLS, min_size=1, max_size=6))
def test_cli_calls_with_and_without_a_checkpoint_agree(model4_dir, calls):
    with tempfile.TemporaryDirectory() as tmp:
        trusted, plain = Path(tmp) / "trusted", Path(tmp) / "plain"
        shutil.copytree(model4_dir, trusted)
        shutil.copytree(model4_dir, plain)
        assert cli_run(calls, trusted, False) == cli_run(calls, plain, True)


def spy_walks(monkeypatch):
    """The names of the state files walked from now on, in order."""
    walked = []
    for name in ("_load_subscriptions", "_load_delegations", "_load_registrar"):
        def spy(*args, walk=getattr(snapshots, name)):
            walked.append(args[-3].name)  # (..., path, text, trusted)
            return walk(*args)

        monkeypatch.setattr(snapshots, name, spy)
    return walked


def test_a_provision_walks_and_rewrites_only_the_files_it_uses(model4_dir, tmp_path, monkeypatch):
    shutil.copytree(model4_dir, tmp_path, dirs_exist_ok=True)
    before = read_checkpoint(tmp_path)
    stamps = {p.name: (p.stat().st_ino, p.read_bytes()) for p in tmp_path.iterdir()}
    walked = spy_walks(monkeypatch)
    # 12125550000 is alice's, at reg1.
    assert main(["provision", "+12125550000", "--actor", "alice", "--record", _record(120, "p1"),
                 "--state-dir", str(tmp_path)]) == 0
    assert walked == [SUBSCRIPTIONS_SNAP, "registrar-reg1.snap"]
    changed = {
        p.name for p in tmp_path.iterdir()
        if stamps.get(p.name) != (p.stat().st_ino, p.read_bytes())
    }
    assert changed == {"registrar-reg1.snap", EVENTS_LOG, CHECKPOINT}
    after = read_checkpoint(tmp_path)
    for name in (REGISTRY_SNAP, "registrar-reg2.snap", SUBSCRIPTIONS_SNAP):
        assert after[name] == before[name], name
    # What the call left loads as it does without a checkpoint.
    plain = tmp_path / "plain"
    shutil.copytree(tmp_path, plain, ignore=shutil.ignore_patterns(CHECKPOINT, "plain"))
    assert state_of(loaded(4, tmp_path)) == state_of(loaded(4, plain))


def test_a_bad_line_in_a_vouched_file_fails_only_the_calls_that_use_it(
    model4_dir, tmp_path, capsys
):
    shutil.copytree(model4_dir, tmp_path, dirs_exist_ok=True)
    name = "registrar-reg2.snap"
    data = (tmp_path / name).read_bytes()
    vouch(tmp_path, name, data + b"bogus\n")
    lineno = data.count(b"\n") + 1  # the line after the file's last
    failure = f"{tmp_path / name}:{lineno}: unknown tag 'bogus'"
    at_reg1 = ["provision", "+12125550000", "--actor", "alice", "--record", _record(120, "p1"),
               "--state-dir", str(tmp_path)]
    at_reg2 = ["provision", "+12125550001", "--actor", "bob", "--record", _record(130, "p2"),
               "--state-dir", str(tmp_path)]
    capsys.readouterr()
    assert main(at_reg1) == 0  # reg2's file is never walked
    assert name in read_checkpoint(tmp_path)
    assert main(at_reg2) == 2
    assert failure in capsys.readouterr().err
    assert name not in read_checkpoint(tmp_path)
    assert main(at_reg1) == 2  # now the load walks the file, and fails
    assert failure in capsys.readouterr().err


def test_a_grant_id_in_a_vouched_file_and_not_in_the_log_is_not_issued_again(
    model4_dir, tmp_path
):
    shutil.copytree(model4_dir, tmp_path, dirs_exist_ok=True)
    assert read_checkpoint(tmp_path)[EVENTS_LOG][4] < 7  # the log's largest grant id
    name = "registrar-reg1.snap"
    block = b"number|12125550000\n"
    data = (tmp_path / name).read_bytes()
    assert data.count(block) == 1
    vouch(tmp_path, name, data.replace(block, block + b"grant|g7|alice|asp1|access|*\n"))
    fresh = loaded(4, tmp_path)
    assert all(a.grants.__class__ is PendingStore for a in fresh.registrars.values())
    assert fresh.grant("+12125550000", "alice", "asp1", "access")["grant"] == "g8"


def test_delegations_changed_after_a_load_are_saved_as_one_process_saves_them(tmp_path):
    # 12125550000 is R1's and 12125550001 R2's; the script moves ownership
    # both ways and adds a number, on a loaded topology and in one process.
    steps = (
        "step disconnect number=+12125550000 user=alice\n"
        "step subscribe number=+12125550000 user=alice registrar=reg2 token=auto\n"
        "step transfer number=+12125550001 user=bob to=reg1\n"
        "step assign number=+12125559999 user=carol tsp=tsp1\n"
        "step subscribe number=+12125559999 user=carol registrar=reg1 token=auto\n"
    )
    loaded_dir, whole_dir = tmp_path / "loaded", tmp_path / "whole"
    populate_model4(loaded_dir)
    fresh, whole = loaded(4, loaded_dir), model4_topology()
    for topology in (fresh, whole):
        assert "ok" == run_events(topology, steps).records[-1].status
    save_state(fresh, loaded_dir)
    save_state(whole, whole_dir)
    for name in (REGISTRY_SNAP, SUBSCRIPTIONS_SNAP, "registrar-reg1.snap", "registrar-reg2.snap"):
        assert (loaded_dir / name).read_bytes() == (whole_dir / name).read_bytes(), name
