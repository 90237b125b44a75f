import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumstack.errors import SnapshotError
from enumstack.scenarios import (
    build_topology,
    builtin_config,
    canonical_events,
    model_fixture_text,
    run_events,
)
from enumstack.snapshots import (
    EVENTS_LOG,
    REGISTRY_SNAP,
    SCENARIO_FILE,
    SUBSCRIPTIONS_SNAP,
    load_state,
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


def test_log_roundtrip(tmp_path):
    topology = populated()
    append_log(tmp_path, topology.log)
    records = read_log(tmp_path)
    assert [r.render() for r in records] == [r.render() for r in topology.log]


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

_ID_RE = re.compile(r"^[ex](\d+)$")


def counters_by_read_log(state_dir):
    """The id-counter fold load_state used before it scanned lines: parse
    every log record, keep the largest event id and transfer id."""
    event_n = transfer_n = 0
    for rec in read_log(state_dir):
        match = _ID_RE.match(rec.event_id)
        if match:
            event_n = max(event_n, int(match.group(1)))
        match = _ID_RE.match(rec.detail.get("transfer", ""))
        if match:
            transfer_n = max(transfer_n, int(match.group(1)))
    return event_n, transfer_n


def counters_by_load(state_dir):
    topology = build_topology(builtin_config(1), seed=0)
    load_state(topology, state_dir)
    return topology._event_n, topology._transfer_n


def outcome(fn, state_dir):
    try:
        return fn(state_dir)
    except SnapshotError as exc:
        return ("SnapshotError", str(exc), exc.lineno)


def assert_counters_match(text):
    with tempfile.TemporaryDirectory() as tmp:
        state_dir = Path(tmp)
        (state_dir / EVENTS_LOG).write_bytes(text.encode("utf-8"))
        assert outcome(counters_by_load, state_dir) == outcome(counters_by_read_log, state_dir)


_ids = st.sampled_from(["e1", "e07", "x3", "e12", "g4", "", "e", "e1a", "ex2", "E5", "e٣"])
_ticks = st.sampled_from(["t0", "t15", "t", "t٣", "t-1", "t 5", "t1_0", "tx", "5", "t+2"])
_words = st.sampled_from(["ok", "assign", "transfer", "NoDelegation", "", "a b"])
_values = st.sampled_from(
    ["", "x1", "x22", "e9", "x1%3B", "x2%0A", "x%", "x3 ", "reg1", "a|b", "x٤", "y=z"]
)
_keys = st.sampled_from(["transfer", "number", "user", "Transfer", "xtransfer", ""])
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
@example(["e٣|t0|assign|ok|a=b"], "\n")
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
            assert counters_by_load(Path(tmp)) == (topology._event_n, topology._transfer_n)
