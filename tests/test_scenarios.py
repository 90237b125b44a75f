import hashlib

import pytest

from enumstack.audit import AccessOracle, assert_invariants, value_flow
from enumstack.errors import InvalidModelCombination, RunIncomplete, ScenarioError
from enumstack.naptr import render_stored_line
from enumstack.registrar import parse_store_lines
from enumstack.scenarios import (
    LogRecord,
    MODEL_GRID,
    ScenarioConfig,
    build_topology,
    builtin_config,
    canonical_events,
    model_fixture_text,
    parse_config,
    parse_events,
    run_events,
)
from enumstack.simulator import DROPPED
from enumstack.wire import encode_frame

from test_snapshots import LINE_SEPARATORS

SIP = '100 10 "u" "E2U+sip" "!^.*$!sip:alice@example.com!" .'


def run_model(model, events=None, seed=11):
    topology = build_topology(builtin_config(model), seed=seed)
    log = run_events(topology, events if events is not None else canonical_events())
    return topology, log


_GRANTED_TRANSFER = (
    "step grant number=+13154434473 user=alice grantee=asp1 rights=provision\n"
    "step transfer_begin number=+13154434473 user=alice to=reg2\n"
)
ALICE = "13154434473"
BOB = "13154434474"


def lost_records(topology):
    """The record account: every record that the log's ``provision``,
    ``assign`` and ``disconnect`` steps leave a number holding, and that no
    registrar store holds, as ``number: stored line``.

    A provision merges by (service, order, preference), as the registrar
    does; an assign or a disconnect empties the number's account.
    """
    held = {}
    for rec in topology.log:
        if not rec.ok:
            continue
        number = rec.detail.get("number", "")
        if rec.kind in ("assign", "disconnect"):
            held.pop(number, None)
        elif rec.kind == "provision":
            for record in parse_store_lines(rec.detail.get("records", "")):
                held.setdefault(number, {})[record.merge_key()] = render_stored_line(record)
    stored = {
        (number, render_stored_line(record))
        for actor in topology.registrars.values()
        for number in actor.store
        for record in actor.store[number]
    }
    return [
        f"{number}: {line}"
        for number, lines in sorted(held.items())
        for line in lines.values()
        if (number, line) not in stored
    ]


def late_writes(topology):
    """The statuses of the provisions after the canonical script."""
    steps = len(parse_events(canonical_events()))
    return [r.status for r in topology.log[steps:] if r.kind == "provision"]


def open_transfers(topology):
    """number -> the id of its transfer still open."""
    return {
        number: record.transfer_id
        for number, record in topology.directory.transfers.items()
        if not record.finished
    }


def red(topology):
    return {r.name: r.violations for r in assert_invariants(topology).results if not r.passed}


@pytest.mark.parametrize("steps, state", [(2, "RecordsMigrated"), (3, "RegistryUpdated")])
def test_a_dispute_after_the_migration_leaves_the_old_registrar_its_grants(steps, state):
    topology, _ = run_model(1, canonical_events() + _GRANTED_TRANSFER)
    reg1 = topology.registrars["reg1"]
    before = list(reg1.grants[ALICE])
    run_events(topology, "step transfer_step transfer=x1\n" * steps)
    assert topology.log[-1].detail["state"] == state
    assert reg1.grants[ALICE] == before  # MIGRATE_REQ is a read
    run_events(topology, "step dispute transfer=x1 by=reg1\n")
    assert topology.log[-1].detail["state"] == "Disputed"
    assert reg1.grants[ALICE] == before
    run_events(topology, f"step provision number=+13154434473 actor=asp1 record={SIP}\n")
    assert topology.log[-1].ok and topology.log[-1].detail["registrar"] == "reg1"
    assert assert_invariants(topology).passed  # the oracle counts reg1's grants again


def test_a_completed_transfer_leaves_the_old_registrar_no_grant():
    topology, _ = run_model(
        1, canonical_events() + _GRANTED_TRANSFER + "step transfer_step transfer=x1\n" * 4
    )
    assert topology.log[-1].detail["state"] == "Complete"
    assert "13154434473" not in topology.registrars["reg1"].grants
    run_events(topology, f"step provision number=+13154434473 actor=asp1 record={SIP}\n")
    assert topology.log[-1].status == "AccessDenied"


def test_a_registrar_that_takes_a_number_back_holds_none_of_its_old_grants():
    # x1 completes while reg1 is offline, so reg1 keeps the number's records
    # and asp1's grant; a later subscription at reg1 must not bring the
    # grant back to life.
    topology, _ = run_model(
        1,
        canonical_events()
        + _GRANTED_TRANSFER
        + "step transfer_step transfer=x1\n" * 3
        + "step offline actor=reg1\n"
        "step transfer_step transfer=x1\n"
        "step online actor=reg1\n"
        "step disconnect number=+13154434473 user=alice kind=enum_only\n"
        "step subscribe number=+13154434473 user=alice registrar=reg1 token=auto\n"
        f"step provision number=+13154434473 actor=asp1 record={SIP}\n",
    )
    assert topology.log[-1].status == "AccessDenied"
    assert ALICE not in topology.registrars["reg1"].grants
    assert assert_invariants(topology).passed


def test_a_dispute_leaves_the_new_registrar_no_grant():
    topology, _ = run_model(
        1,
        canonical_events()
        + _GRANTED_TRANSFER
        + "step transfer_step transfer=x1\n" * 3
        + "step grant number=+13154434473 user=alice grantee=bob rights=provision\n"
        "step dispute transfer=x1 by=reg1\n",
    )
    assert topology.log[-2].status == "TransferPending"
    assert topology.log[-1].detail["state"] == "Disputed"
    assert ALICE not in topology.registrars["reg2"].grants
    assert [g.grant_id for g in topology.registrars["reg1"].grants[ALICE]] == ["g1", "g2"]
    assert assert_invariants(topology).passed


def test_a_dispute_gives_back_no_grant_an_earlier_completed_transfer_removed():
    # x1 moves the number away from reg1 with asp1's grants, x2 brings it
    # back, and x3 leaves while reg1 is offline, so reg1 never answers
    # MIGRATE_REQ and keeps its grants in place through the dispute.
    topology, _ = run_model(
        1,
        canonical_events()
        + _GRANTED_TRANSFER
        + "step transfer_step transfer=x1\n" * 4
        + "step transfer number=+13154434473 user=alice to=reg1\n"
        "step grant number=+13154434473 user=alice grantee=bob rights=provision\n"
        "step offline actor=reg1\n"
        "step transfer_begin number=+13154434473 user=alice to=reg2\n"
        + "step transfer_step transfer=x3\n" * 3
        + "step online actor=reg1\n"
        "step dispute transfer=x3 by=reg1\n",
    )
    assert topology.log[-1].detail["state"] == "Disputed"
    reg1 = topology.registrars["reg1"]
    assert [g.grant_id for g in reg1.grants[ALICE]] == ["g3"]
    run_events(
        topology,
        f"step provision number=+13154434473 actor=asp1 record={SIP}\n"
        f"step provision number=+13154434473 actor=bob record={SIP}\n",
    )
    assert [r.status for r in topology.log[-2:]] == ["AccessDenied", "ok"]
    assert assert_invariants(topology).passed


_BEGIN = "step transfer_begin number=+13154434473 user=alice to=reg2\n"
_STEP = "step transfer_step transfer=x1\n"
_LATE = (
    "step provision number=+13154434473 actor=alice"
    ' record=200 10 "u" "E2U+mailto" "!^.*$!mailto:alice@late.example!" .\n'
)
# The fault paths of a registrar change, each after the canonical script:
# (script, records each registrar ends with for alice's number, the red
# invariants and their violations, the steps refused with TransferPending).
FAULT_CASES = {
    "registry offline at the repoint": (
        "step offline actor=R1\nstep transfer number=+13154434473 user=alice to=reg2\n",
        {"reg1": 3, "reg2": 0},
        {},
        [],
    ),
    # The step sent to the offline reg2 times out and takes no state.
    "new registrar offline at the migration": (
        _BEGIN + _STEP + "step offline actor=reg2\n" + _STEP
        + "step online actor=reg2\n" + _STEP * 3,
        {"reg1": 0, "reg2": 3},
        {},
        [],
    ),
    "old registrar offline at the migration, then a dispute": (
        _BEGIN + _STEP + "step offline actor=reg1\n" + _STEP
        + "step online actor=reg1\nstep dispute transfer=x1 by=reg1\n",
        {"reg1": 3, "reg2": 0},
        {},
        [],
    ),
    "a write right after transfer_begin": (
        _BEGIN + _LATE + _STEP * 4, {"reg1": 0, "reg2": 3}, {}, ["provision"],
    ),
    "a write after two steps": (
        _BEGIN + _STEP * 2 + _LATE + _STEP * 2, {"reg1": 0, "reg2": 3}, {}, ["provision"],
    ),
    # Were they taken, the disconnect would drop reg1's records and the
    # subscribe would let the parked transfer complete, so reg2 would serve
    # the records withdrawn after the migration.
    "a disconnect and a subscribe in RecordsMigrated": (
        _BEGIN + _STEP * 2
        + "step disconnect number=+13154434473 user=alice kind=enum_only\n" + _STEP
        + "step subscribe number=+13154434473 user=alice registrar=reg1 token=auto\n"
        + _STEP * 2,
        {"reg1": 0, "reg2": 3},
        {},
        ["disconnect", "subscribe"],
    ),
    # reg1 misses the drop at Complete; were its copy kept, the subscribe
    # would serve alice's records again after she withdrew them at reg2.
    "a subscribe at the old registrar after a lost drop and a disconnect": (
        _GRANTED_TRANSFER + _STEP * 3 + "step offline actor=reg1\n" + _STEP
        + "step online actor=reg1\n"
        "step disconnect number=+13154434473 user=alice kind=enum_only\n"
        "step subscribe number=+13154434473 user=alice registrar=reg1 token=auto\n",
        {"reg1": 0, "reg2": 0},
        {},
        [],
    ),
    # The client is offline when the TRANSFER_INIT reply comes back, so the
    # begin logs HopTimeout, yet reg2 holds x1 and the number is locked: the
    # dispute must find x1 at reg2 and unlock the number for the provision.
    "a lost TRANSFER_INIT reply, then a dispute": (
        "step offline actor=client:alice\n" + _BEGIN + "step online actor=client:alice\n"
        "step dispute transfer=x1 by=reg1\n" + _LATE,
        {"reg1": 4, "reg2": 0},
        {},
        [],
    ),
}


@pytest.mark.parametrize("model", [1, 4])
@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_a_fault_in_a_transfer_loses_no_record(case, model):
    script, counts, violations, refused = FAULT_CASES[case]
    topology, _ = run_model(model, canonical_events() + script)
    assert lost_records(topology) == []
    assert {r: len(a.store.get(ALICE, [])) for r, a in topology.registrars.items()} == counts
    assert red(topology) == violations
    steps = len(parse_events(canonical_events()))
    assert [r.kind for r in topology.log[steps:] if r.status == "TransferPending"] == refused


@pytest.mark.parametrize("model", [1, 4])
def test_a_failed_repoint_names_the_parked_transfer_and_keeps_the_lock(model):
    script = FAULT_CASES["registry offline at the repoint"][0]
    topology, _ = run_model(model, canonical_events() + script)
    failed = topology.log[-1]
    assert (failed.kind, failed.status) == ("transfer", "RegistrarError")
    assert failed.detail["message"] == (
        "registry update failed for transfer 'x1': timeout; x1 stays in RecordsMigrated"
    )
    assert open_transfers(topology) == {ALICE: "x1"}
    run_events(topology, "step online actor=R1\n" + _LATE + _STEP * 2)
    assert [r.status for r in topology.log[-3:]] == ["TransferPending", "ok", "ok"]
    assert topology.log[-1].detail["state"] == "Complete"
    assert open_transfers(topology) == {}
    assert lost_records(topology) == [] and red(topology) == {}


_BOB_SIP = '110 10 "u" "E2U+sip" "!^.*$!sip:bob@late.example!" .'
# Each write kind after the canonical script: (steps that ready it, the
# step, the registrar the step's request goes to). Alice's and carol's
# numbers are served by reg1, bob's by reg2; g1 is alice's grant.
WRITE_STEPS = {
    "subscribe": (
        "step assign number=+1-315-443-4476 user=alice tsp=tsp1\n",
        "step subscribe number=+13154434476 user=alice registrar=reg2 token=auto\n",
        "reg2",
    ),
    "provision": ("", f"step provision number=+13154434474 actor=bob record={_BOB_SIP}\n", "reg2"),
    "grant": ("", "step grant number=+13154434474 user=bob grantee=asp1 rights=access\n", "reg2"),
    "revoke": ("", "step revoke number=+13154434473 user=alice grant=g1\n", "reg1"),
    "transfer_begin": ("", _BEGIN, "reg2"),
    # From RecordsMigrated, so the step would repoint the number.
    "transfer_step": (_BEGIN + _STEP * 2, _STEP, "reg2"),
    "transfer": ("", "step transfer number=+13154434474 user=bob to=reg1\n", "reg1"),
    # In RegistryUpdated, so the dispute would roll the number back.
    "dispute": (_BEGIN + _STEP * 3, "step dispute transfer=x1 by=reg1\n", "reg2"),
    "disconnect": ("", "step disconnect number=+13154434475 user=carol kind=enum_only\n", "reg1"),
}


def transfer_states(topology):
    return {t: r.state for a in topology.registrars.values() for t, r in a.transfers.items()}


@pytest.mark.parametrize("model", sorted(MODEL_GRID))
@pytest.mark.parametrize("kind", sorted(WRITE_STEPS))
def test_an_offline_registrar_takes_no_step(kind, model):
    ready, step, registrar = WRITE_STEPS[kind]
    online, _ = run_model(model, canonical_events() + ready + step)
    assert (online.log[-1].kind, online.log[-1].status) == (kind, "ok")
    topology, _ = run_model(model, canonical_events() + ready + f"step offline actor={registrar}\n")
    before = (topology.state_hash(), transfer_states(topology))
    run_events(topology, step)
    assert (topology.log[-1].kind, topology.log[-1].status) == (kind, "HopTimeout")
    assert (topology.state_hash(), transfer_states(topology)) == before


def test_a_lost_transfer_step_reply_takes_at_most_one_state():
    """The retry of a TRANSFER_STEP whose reply was lost is told the state
    the first attempt reached, and takes no second step."""
    retried = []
    for w in range(2, 39):
        topology, _ = run_model(
            1, canonical_events() + "step transfer_begin number=+13154434474 user=bob to=reg1\n"
        )
        record = topology.registrars["reg1"].transfers["x1"]
        clock = topology.net.clock
        topology.net.add_fault_window("client:bob", clock + 1, clock + w)
        run_events(topology, "step transfer_step transfer=x1\n")
        assert [state.value for state in record.history] == ["Requested", "OldNotified"], w
        step = topology.log[-1]
        if step.ok:
            assert step.detail["state"] == "OldNotified"
            if topology.net.counts.get(("TRANSFER_STEP", DROPPED)):
                retried.append(w)
    assert retried  # some reply was lost and the retry answered


# The fault paths above, one after another on the canonical numbers, for
# tools/replay_digests.py: late writes into alice's transfer x1; bob's x2
# with its new registrar offline at the migration (that step times out, and
# one more takes x2 to its end); alice's x3 with its old registrar offline,
# then disputed; and alice's x4 parked by an offline R1, then stepped to its
# end.
TRANSFER_FAULT_EVENTS = (
    "step transfer_begin number=+13154434473 user=alice to=reg2\n"
    'step provision number=+13154434473 actor=alice record=200 10 "u" "E2U+mailto"'
    ' "!^.*$!mailto:alice@late.example!" .\n'
    "step transfer_step transfer=x1\n"
    "step transfer_step transfer=x1\n"
    'step provision number=+13154434473 actor=alice record=200 10 "u" "E2U+mailto"'
    ' "!^.*$!mailto:alice@late.example!" .\n'
    "step transfer_step transfer=x1\n"
    "step transfer_step transfer=x1\n"
    "step transfer_begin number=+13154434474 user=bob to=reg1\n"
    "step transfer_step transfer=x2\n"
    "step offline actor=reg1\n"
    "step transfer_step transfer=x2\n"
    "step online actor=reg1\n"
    "step transfer_step transfer=x2\n"
    "step transfer_step transfer=x2\n"
    "step transfer_step transfer=x2\n"
    "step transfer_begin number=+13154434473 user=alice to=reg1\n"
    "step transfer_step transfer=x3\n"
    "step offline actor=reg2\n"
    "step transfer_step transfer=x3\n"
    "step online actor=reg2\n"
    "step dispute transfer=x3 by=reg2\n"
    "step offline actor=R1\n"
    "step transfer number=+13154434473 user=alice to=reg1\n"
    "step online actor=R1\n"
    'step provision number=+13154434473 actor=alice record=200 10 "u" "E2U+mailto"'
    ' "!^.*$!mailto:alice@late.example!" .\n'
    "step transfer_step transfer=x4\n"
    "step transfer_step transfer=x4\n"
)


@pytest.mark.parametrize("model", sorted(MODEL_GRID))
def test_the_transfer_fault_script_closes_every_transfer_and_loses_no_record(model):
    topology, log = run_model(model, canonical_events() + TRANSFER_FAULT_EVENTS, seed=0)
    assert late_writes(topology) == ["TransferPending"] * 3
    assert [r.detail["state"] for r in log.records if r.kind == "dispute"] == ["Disputed"]
    assert open_transfers(topology) == {}
    assert lost_records(topology) == []
    held = {r: (len(a.store.get(ALICE, [])), len(a.store.get(BOB, [])))
            for r, a in topology.registrars.items()}
    assert held == {"reg1": (3, 1), "reg2": (0, 0)}
    assert [r.status for r in log.records if r.kind == "transfer_step"].count("HopTimeout") == 1
    assert red(topology) == {}


class TestConfig:
    def test_builtin_fixtures_cover_grid(self):
        for model, (kind, multiplicity) in MODEL_GRID.items():
            cfg = builtin_config(model)
            assert cfg.registrar_kind is kind
            assert cfg.registry_multiplicity == multiplicity

    def test_model_seven_rejected(self):
        with pytest.raises(InvalidModelCombination):
            builtin_config(7)

    def test_kind_contradiction_rejected(self):
        for stated in ("registrar_kind = TSP", "registry_multiplicity = multiple"):
            text = f"[model]\nid = 2\n{stated}\n[actors]\nregistries = R1\n"
            with pytest.raises(InvalidModelCombination):
                parse_config(text)

    def test_registrars_take_model_kind_and_home_accreditation(self):
        for model in MODEL_GRID:
            cfg = builtin_config(model)
            topology = build_topology(cfg)
            assert list(topology.registrars) == list(cfg.registrar_ids)
            for actor in topology.registrars.values():
                assert actor.kind is cfg.registrar_kind
                home = topology.registries[actor.home_registry].state
                assert actor.accredited is home.accredited

    @pytest.mark.parametrize("sep", ["|", "\n", "\r"])
    @pytest.mark.parametrize("option", ["users", "tsps", "asps", "registrars", "registries"])
    def test_actor_id_holding_a_state_file_separator_rejected(self, option, sep):
        name = f"x{sep}1"
        value = name.replace("\n", "\n ")  # an indented line continues the value
        text = f"[model]\nid = 1\n[actors]\nregistries = R1\n{option} = {value}\n"
        if option == "registries":
            text = text.replace("registries = R1\n", "")
        with pytest.raises(ScenarioError) as excinfo:
            parse_config(text)
        assert str(excinfo.value) == (
            f"[actors] {option} {name!r} may not hold '|' or a line break"
        )

    def test_multiplicity_contradiction_rejected(self):
        with pytest.raises(InvalidModelCombination):
            ScenarioConfig(model_id=4, registries=("R1",))

    def test_tier0_must_point_at_known_registry(self):
        with pytest.raises(InvalidModelCombination):
            ScenarioConfig(
                model_id=1, registries=("R1",), tier0_entries={"1": ("R9",)}
            )

    def test_malformed_text_rejected(self):
        with pytest.raises(ScenarioError):
            parse_config("this is not an ini file [")

    def test_fault_plan_windows_applied(self):
        text = (
            "[model]\nid = 1\n"
            "[actors]\nusers = alice\ntsps = tsp1\nregistrars = reg1\nregistries = R1\n"
            "[tier0]\n1 = R1\n"
            "[faults]\nreg1 = 0:1000\n"
        )
        cfg = parse_config(text)
        assert cfg.fault_plan == (("reg1", 0, 1000),)
        topology = build_topology(cfg)
        log = run_events(
            topology,
            "step assign number=+13154434473 user=alice tsp=tsp1\n"
            "step subscribe number=+13154434473 user=alice registrar=reg1 token=auto\n",
        )
        assert log.records[-1].status == "HopTimeout"

    @pytest.mark.parametrize(
        "section",
        ["[faults]\nreg1 = a:b\n", "[faults]\nreg1 = 5\n", "[fees]\nflat_fee = x\n",
         "[fees]\nflat_fee = nan\n", "[fees]\nuser_fee = inf\n", "[fees]\nuser_fee = -2\n",
         "[tier0]\n\u0662 = R1\n", "[fees]\nflat_fee = 1_0\n", "[fees]\nuser_fee = \u0662\n"],
        ids=["fault-not-int", "fault-no-colon", "fee-not-float", "fee-nan", "fee-inf",
             "fee-negative", "tier0-non-ascii-digit", "fee-underscore", "fee-non-ascii-digit"],
    )
    def test_bad_number_in_config_is_scenario_error(self, section):
        text = "[model]\nid = 1\n[actors]\nregistries = R1\n" + section
        with pytest.raises(ScenarioError):
            parse_config(text)

    @pytest.mark.parametrize("window", ["\u0663:1_0", "3:1_0", "\u0663:10", "0:\uff15"])
    def test_fault_window_of_other_digits_or_underscores_is_scenario_error(self, window):
        text = f"[model]\nid = 1\n[actors]\nregistries = R1\n[faults]\nR1 = {window}\n"
        with pytest.raises(ScenarioError, match=f"^fault window {window!r} is not start:end$"):
            parse_config(text)

    def test_a_signed_fault_window_still_parses(self):
        text = "[model]\nid = 1\n[actors]\nregistries = R1\n[faults]\nR1 = -4:+5\n"
        assert parse_config(text).fault_plan == (("R1", -4, 5),)

    @pytest.mark.parametrize("model_id", ["\u0661", "0_1"])
    def test_model_id_of_other_digits_or_underscores_is_scenario_error(self, model_id):
        with pytest.raises(ScenarioError, match="^bad model id: "):
            parse_config(f"[model]\nid = {model_id}\n[actors]\nregistries = R1\n")

    def test_percent_in_value_is_literal(self):
        text = "[model]\nid = 1\n[actors]\nregistries = R1\nusers = a%b, %(x)s\n"
        assert parse_config(text).users == ("a%b", "%(x)s")

    def test_homes_and_faults_keep_the_case_of_actor_ids(self):
        # configparser lowercases option names; the ids keep [actors]' case.
        text = (
            model_fixture_text(4).replace("reg1", "RegA").replace("RegA = R1", "RegA = R2")
            + "\n[faults]\nRegA = 0:100\nTIER0 = 200:201\n"
        )
        cfg = parse_config(text)
        assert cfg.homes == {"RegA": "R2", "reg2": "R2"}
        assert cfg.home_of("RegA") == "R2"
        assert cfg.fault_plan == (("RegA", 0, 100), ("tier0", 200, 201))
        topology = build_topology(cfg)
        assert topology.registrars["RegA"].home_registry == "R2"
        assert topology.net.is_offline("RegA", 5)
        assert not topology.net.is_offline("reg2", 5)

    @pytest.mark.parametrize("section", ["homes", "faults"])
    def test_homes_or_faults_key_naming_no_actor_is_scenario_error(self, section):
        value = "R1" if section == "homes" else "0:10"
        text = model_fixture_text(4).replace("[homes]\n", "[homes-old]\n")
        with pytest.raises(ScenarioError, match=f"\\[{section}\\] 'reg9' names no configured"):
            parse_config(text + f"\n[{section}]\nreg9 = {value}\n")

    def test_accreditation_key_naming_no_registry_is_scenario_error(self):
        text = model_fixture_text(4).replace("R2 = reg1, reg2\n", "R2 = reg1, reg2\nR9 = reg1\n")
        with pytest.raises(ScenarioError, match=r"\[accreditation\] 'r9' names no configured"):
            parse_config(text)
        # A registrar id is not a registry either.
        with pytest.raises(ScenarioError, match=r"\[accreditation\] 'reg1' names no configured"):
            parse_config(text.replace("R9 = reg1\n", "reg1 = reg1\n"))
        # Keys match the [actors] registry ids whatever their case.
        assert parse_config(model_fixture_text(4)).accreditation == {
            "R1": frozenset({"reg1", "reg2"}),
            "R2": frozenset({"reg1", "reg2"}),
        }

    def test_accreditation_value_naming_no_registrar_is_scenario_error(self):
        text = model_fixture_text(4)
        # Registrar names in a value match the [actors] ids whatever their case.
        assert parse_config(text.replace("R1 = reg1, reg2", "R1 = REG1")).accreditation == {
            "R1": frozenset({"reg1"}),
            "R2": frozenset({"reg1", "reg2"}),
        }
        with pytest.raises(ScenarioError, match=r"\[accreditation\] 'reg9' names no configured"):
            parse_config(text.replace("R1 = reg1, reg2", "R1 = reg1, reg9"))
        # A registry id is not a registrar either.
        with pytest.raises(ScenarioError, match=r"\[accreditation\] 'R2' names no configured"):
            parse_config(text.replace("R1 = reg1, reg2", "R1 = reg1, R2"))


class TestEventScripts:
    def test_parse_record_tail(self):
        events = parse_events(
            "step provision number=+13154434473 actor=alice "
            'record=100 10 "u" "E2U+sip" "!^.*$!sip:a@b!" .'
        )
        assert events[0].kind == "provision"
        assert events[0].args["record"].startswith("100 10")

    def test_the_first_tail_key_on_the_line_takes_the_rest(self):
        dispute = "step dispute transfer=x1 by=reg1 reason=bad record=kept here"
        (event,) = parse_events(dispute)
        assert event.args == {"transfer": "x1", "by": "reg1", "reason": "bad record=kept here"}
        script = (
            canonical_events()
            + "step transfer_begin number=+13154434473 user=alice to=reg2\n"
            + dispute
            + "\n"
        )
        _, log = run_model(1, script)
        assert (log.records[-1].kind, log.records[-1].status) == ("dispute", "ok")
        assert log.records[-1].detail["reason"] == "bad record=kept here"

    @pytest.mark.parametrize("sep", LINE_SEPARATORS)
    def test_line_separator_in_a_record_tail_stays_in_the_step(self, sep):
        uri = f"sip:a{sep}b@example.com"
        script = canonical_events() + (
            f'step provision number=+13154434473 actor=alice'
            f' record=150 10 "u" "E2U+sip" "!^.*$!{uri}!" .\n'
        )
        topology, log = run_model(1, script)
        assert log.records[-1].kind == "provision" and log.records[-1].status == "ok"
        uris = topology.resolve("+13154434473", "E2U+sip")["uris"].split("\n")
        assert uri in uris

    def test_comments_and_blank_lines_skipped(self):
        events = parse_events("# comment\n\nstep assign number=+123 user=u tsp=t\n")
        assert len(events) == 1

    def test_bad_line_rejected(self):
        with pytest.raises(ScenarioError):
            parse_events("do something")

    def test_unknown_event_logged_not_fatal(self):
        topology = build_topology(builtin_config(1))
        log = run_events(topology, "step frobnicate number=+123\n")
        assert log.records[-1].status == "UnknownEvent"

    def test_failing_event_logged_and_run_continues(self):
        script = (
            "step subscribe number=+13154434473 user=alice registrar=reg1 token=auto\n"
            "step assign number=+13154434473 user=alice tsp=tsp1\n"
        )
        topology = build_topology(builtin_config(1))
        log = run_events(topology, script)
        assert log.records[0].status == "NoPhoneService"
        assert log.records[1].status == "ok"

    @pytest.mark.parametrize(
        "line, status",
        [
            ("step assign user=alice tsp=tsp1", "ScenarioError"),
            ("step advance ticks=abc", "ScenarioError"),
            ("step cooperate payer=reg1 tsp=tsp1 amount=1_0", "ScenarioError"),
            ("step cooperate payer=reg1 tsp=tsp1 amount=x", "ScenarioError"),
            ("step cooperate payer=reg1 tsp=tsp1 amount=nan", "ScenarioError"),
            ("step cooperate payer=reg1 tsp=tsp1 amount=inf", "ScenarioError"),
            ("step cooperate payer=reg1 tsp=tsp1 amount=-2", "ScenarioError"),
            (f"step provision number=+13154434473 actor=alice visibility=secret record={SIP}",
             "InvalidRecord"),
        ],
        ids=["missing-number", "ticks-not-int", "amount-underscore", "amount-not-float",
             "amount-nan", "amount-inf", "amount-negative", "unknown-visibility"],
    )
    def test_malformed_step_logged_and_run_continues(self, line, status):
        topology = build_topology(builtin_config(1))
        log = run_events(topology, line + "\nstep advance ticks=2\n")
        assert [rec.status for rec in log.records] == [status, "ok"]
        assert log.records[0].detail["message"]

    @pytest.mark.parametrize("ticks", ["\u0663", "1_0", "\uff13"])
    def test_ticks_of_other_digits_or_underscores_are_a_logged_bad_argument(self, ticks):
        topology = build_topology(builtin_config(1))
        log = run_events(topology, f"step advance ticks={ticks}\nstep advance ticks=-4\n")
        assert [(rec.status, rec.detail) for rec in log.records] == [
            ("ScenarioError", {"ticks": ticks, "message": f"bad argument ticks={ticks!r}"}),
            ("ok", {"ticks": "-4"}),
        ]

    def test_confirm_step_verifies_subscribe(self):
        assign = "step assign number=+13154434473 user=alice tsp=tsp1\n"
        confirm = "step confirm number=+13154434473 registrar=reg2\n"
        subscribe = (
            "step subscribe number=+13154434473 user=alice registrar=reg2 confirmed=1\n"
        )
        for script, status in ((assign + confirm, "ok"), (assign, "VerificationFailed")):
            topology = build_topology(builtin_config(1))
            log = run_events(topology, script + subscribe)
            statuses = [rec.status for rec in log.records]
            assert statuses == ["ok"] * (len(statuses) - 1) + [status]
            assert topology.directory.get("13154434473").enum_active is (status == "ok")

    def test_unaccredited_registrar_subscribe_logged(self):
        text = model_fixture_text(1).replace("R1 = reg1, reg2", "R1 = reg2")
        topology = build_topology(parse_config(text))
        log = run_events(
            topology,
            "step assign number=+13154434473 user=alice tsp=tsp1\n"
            "step subscribe number=+13154434473 user=alice registrar=reg1 token=auto\n",
        )
        refused = log.records[-1]
        assert (refused.kind, refused.status) == ("subscribe", "UnaccreditedRegistrar")
        assert refused.render().endswith(";message=reg1 not accredited at R1")
        assert topology.directory.get("13154434473").enum_active is False
        assert not topology.registries["R1"].state.delegations

    def test_subscribe_served_elsewhere_logged_by_its_class(self):
        topology = build_topology(builtin_config(3))
        log = run_events(
            topology,
            "step assign number=+13154434473 user=alice tsp=tsp1\n"
            "step subscribe number=+13154434473 user=alice registrar=reg1 token=auto\n"
            "step subscribe number=+13154434473 user=alice registrar=reg2 token=auto\n",
        )
        refused = log.records[-1]
        assert (refused.kind, refused.status) == ("subscribe", "AlreadySubscribed")
        assert refused.detail["message"] == "'13154434473' is served by reg1; transfer instead"

    def test_unknown_transfer_steps_logged(self):
        script = "step transfer_step transfer=x9\nstep dispute transfer=x9 by=reg1\nstep advance\n"
        topology = build_topology(builtin_config(1))
        log = run_events(topology, script)
        assert [(rec.kind, rec.status) for rec in log.records] == [
            ("transfer_step", "ScenarioError"),
            ("dispute", "ScenarioError"),
            ("advance", "ok"),
        ]


class TestDeterminism:
    def test_same_seed_byte_identical_logs(self):
        _, log_a = run_model(1, seed=99)
        _, log_b = run_model(1, seed=99)
        assert log_a.render_bytes() == log_b.render_bytes()

    def test_log_lines_parse_back(self):
        _, log = run_model(1)
        for line in log.render_lines():
            rec = LogRecord.parse(line)
            assert rec.render() == line


# sha256 of the canonical script's log bytes, value-flow lines and invariant
# report at seed 0. A change to any of them must say why the logs changed.
GOLDEN = {
    1: ("b256420bc5f32927358ad8251dd90ece706c41402ccf406fab0670c464f14f6b",
        "b1cd386f8ae29deb6c5df09067240094fc5c22ebb2990b9aa4d409173b06ade0"),
    2: ("b256420bc5f32927358ad8251dd90ece706c41402ccf406fab0670c464f14f6b",
        "9a623cca6df6d91cfd88b80a53bd1256df3456f30021a3e283183a1cbaefadd1"),
    3: ("b256420bc5f32927358ad8251dd90ece706c41402ccf406fab0670c464f14f6b",
        "ccd26d0f311fd0ac9fbe81963bd76e3e9f894ce27e01b8da08e3dac0713f04f9"),
    4: ("d0c7ae0f16278f06c1492a6916e0628584455b81efcc2d97d044b6c3f6a6bc35",
        "a49ae73369240fee1f760768b2abebb51f92cd2a77ab4313bbda66fdcd2ddac7"),
    5: ("d0c7ae0f16278f06c1492a6916e0628584455b81efcc2d97d044b6c3f6a6bc35",
        "cefb18ee158cfa8dadd319af17b45b31d30d2ef30f608b6457a964f4d221895b"),
    6: ("d0c7ae0f16278f06c1492a6916e0628584455b81efcc2d97d044b6c3f6a6bc35",
        "12a89129f4ebc580fdf24eaa883595f3a466212ca9bcb164093252c2c90144fb"),
}
GOLDEN_INVARIANTS = "2aa5b8c3978b6e517a68636ef7a96198155f62790eff3047b6ff5de57363a2ea"
# sha256 of encode_frame over every frame the canonical run's network pops
# at seed 0, so a codec change that alters wire bytes shows even when the
# frames still decode the same.
GOLDEN_WIRE = {
    1: "4214ed55733e5447bfc1034cd4cb6ad121d622a30716b1f028ee3b37f987f3d0",
    2: "4214ed55733e5447bfc1034cd4cb6ad121d622a30716b1f028ee3b37f987f3d0",
    3: "4214ed55733e5447bfc1034cd4cb6ad121d622a30716b1f028ee3b37f987f3d0",
    4: "51458bef0a55ad96f5c30ea3337b3dcd20c95df11048ed6f410ff3a75a4f580f",
    5: "51458bef0a55ad96f5c30ea3337b3dcd20c95df11048ed6f410ff3a75a4f580f",
    6: "51458bef0a55ad96f5c30ea3337b3dcd20c95df11048ed6f410ff3a75a4f580f",
}


def sha(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("model", sorted(GOLDEN))
def test_canonical_run_matches_golden_digests(model):
    topology, log = run_model(model, seed=0)
    digests = (
        hashlib.sha256(log.render_bytes()).hexdigest(),
        sha(value_flow(topology).render_lines()),
    )
    assert digests == GOLDEN[model]
    assert sha(assert_invariants(topology).render_lines()) == GOLDEN_INVARIANTS


# Steps after the canonical script whose log details the canonical run
# never writes: a restricted read, grant and revoke, paced and disputed
# transfers, a transfer with the old registrar offline, bad numbers
# (parsed inside the logged region, after the grant id is taken), unknown
# transfer ids and malformed steps. Every detail key order shows in the
# log bytes.
EXTENDED_EVENTS = (
    "step provision number=+13154434474 actor=bob visibility=restricted"
    ' record=110 10 "u" "E2U+tel" "!^.*$!tel:+13154434474!" .\n'
    "step grant number=+13154434474 user=bob grantee=asp1 rights=access scope=E2U+tel\n"
    "step get number=+13154434474 actor=asp1 service=E2U+tel\n"
    "step get number=+13154434474 actor=carol service=*\n"
    "step revoke number=+13154434474 user=bob grant=g2\n"
    "step transfer_begin number=+13154434473 user=alice to=reg2\n"
    "step transfer_step transfer=x1\n"
    "step transfer_step transfer=x1\n"
    "step transfer_step transfer=x1\n"
    "step transfer_step transfer=x1\n"
    "step transfer_step transfer=x1\n"
    "step transfer_begin number=+13154434474 user=bob to=reg1\n"
    "step transfer_step transfer=x2\n"
    "step dispute transfer=x2 by=reg2 reason=bob changed; his mind=100% sure\n"
    "step offline actor=reg1\n"
    "step transfer number=+13154434475 user=carol to=reg2\n"
    "step online actor=reg1\n"
    "step transfer_step transfer=x9\n"
    "step dispute transfer=x9 by=reg1\n"
    "step resolve number=+1-999\n"
    "step resolve number=not-a-number\n"
    "step grant number=bogus user=alice grantee=asp1\n"
    "step transfer number=xyz user=alice to=reg1\n"
    "step subscribe number=abc user=alice registrar=reg1\n"
    "step grant number=+13154434473 user=alice grantee=asp1 rights=access\n"
    "step transfer_begin number=+13154434473 user=alice to=reg1\n"
    "step transfer_step transfer=x4\n"
    "step advance ticks=3\n"
    "step get number=+44-20-7946-0000 actor=alice\n"
    "step grant user=alice grantee=asp1\n"
    "step advance ticks=abc\n"
    "step frobnicate number=+13154434473\n"
    "step disconnect number=+13154434474 user=bob kind=enum_only\n"
    "step resolve number=+13154434473 service=*\n"
    "step resolve number=+13154434474 service=*\n"
    "step cooperate payer=reg1 tsp=tsp1 amount=2.5\n"
)
# sha256 of the canonical script plus EXTENDED_EVENTS' log bytes at seed 0.
GOLDEN_EXTENDED = {
    1: "da1e90a094b7d64fbf09e624046ddf65c4ac59f5e057dcf8005279bfd15cfa9a",
    2: "4e4551770f80bc06764ad1c3775c89810533025a02fa3505fbcef83ac1f9b406",
    3: "da1e90a094b7d64fbf09e624046ddf65c4ac59f5e057dcf8005279bfd15cfa9a",
    4: "6468891f202c7293bde162f315d50089dabae529c6c418554e504e88489091b6",
    5: "9e978d08fc8849964e6a9672648451b8dc2b25e72a1d2adb24a4ab948e6fc730",
    6: "6468891f202c7293bde162f315d50089dabae529c6c418554e504e88489091b6",
}


@pytest.mark.parametrize("model", sorted(GOLDEN_EXTENDED))
def test_extended_run_matches_golden_digests(model):
    topology, log = run_model(model, canonical_events() + EXTENDED_EVENTS, seed=0)
    assert hashlib.sha256(log.render_bytes()).hexdigest() == GOLDEN_EXTENDED[model]
    assert sha(assert_invariants(topology).render_lines()) == GOLDEN_INVARIANTS


# A model-4 run that turns three invariants red: a registrar change while
# the old registrar is offline strands its records (single_store), a
# subscription while R2 is offline leaves R2's replica missing
# (replica_convergence), and a planted write follows (access_soundness).
RED_EVENTS = (
    "step offline actor=R2\n"
    "step assign number=+1-315-443-4476 user=alice tsp=tsp1\n"
    "step subscribe number=+13154434476 user=alice registrar=reg1 token=auto\n"
    "step online actor=R2\n"
    "step offline actor=reg1\n"
    "step transfer number=+13154434473 user=alice to=reg2\n"
    "step online actor=reg1\n"
)
# sha256 of that run's invariant report, violation lines included.
GOLDEN_RED_INVARIANTS = "ee3b9e657b277e4906616fe326f5619d0f89778fb8f0207db5aa4436b86ad9e1"


def test_red_invariant_report_matches_golden():
    topology, _ = run_model(4, canonical_events() + RED_EVENTS, seed=0)
    topology.backdoor_provision("reg1", "+13154434474", SIP, actor="mallory")
    report = assert_invariants(topology)
    assert [r.name for r in report.results if not r.passed] == [
        "single_store", "access_soundness", "replica_convergence",
    ]
    assert sha(report.render_lines()) == GOLDEN_RED_INVARIANTS


# Replication steps for the multi-registry models: a disconnect leaves a
# tombstone, a re-subscribe at another registrar writes over it, a
# subscribe and a transfer run while R2 is offline, another transfer after
# it is back, a grant and revoke, and a final telephone disconnect leaves a
# tombstone in both registries.
REPLICATION_EVENTS = (
    "step disconnect number=+13154434474 user=bob kind=enum_only\n"
    "step subscribe number=+13154434474 user=bob registrar=reg1 token=auto\n"
    'step provision number=+13154434474 actor=bob record=100 10 "u" "E2U+sip"'
    ' "!^.*$!sip:bob@sip.example.net!" .\n'
    "step offline actor=R2\n"
    "step assign number=+1-315-443-4476 user=alice tsp=tsp1\n"
    "step subscribe number=+13154434476 user=alice registrar=reg1 token=auto\n"
    "step transfer number=+13154434473 user=alice to=reg2\n"
    "step online actor=R2\n"
    "step transfer number=+13154434475 user=carol to=reg2\n"
    "step grant number=+13154434474 user=bob grantee=asp1 rights=access scope=E2U+sip\n"
    "step revoke number=+13154434474 user=bob grant=g2\n"
    "step resolve number=+13154434474 service=*\n"
    "step resolve number=+13154434475 service=*\n"
    "step disconnect number=+13154434476 user=alice kind=telephone\n"
)
# (log bytes, state_hash(), registry replicas) of that run at seed 0; the
# replicas are every registry's delegations, tombstones and observed serials.
_REPLICATION_DIGESTS = (
    "9fb89a2c92a24eeaf716f75c02485d3841c076580cb0bdab652536fe504a3f77",
    "51485d6e7eab2c285588b6f4ac9acb746d70c135ca97fa6a4495039446abf367",
    "b2823d7f5f9ed2d063b1c26b6fdc0a9933a597881d5adde2a0546617c3547a6a",
)
GOLDEN_REPLICATION = {4: _REPLICATION_DIGESTS, 5: _REPLICATION_DIGESTS, 6: _REPLICATION_DIGESTS}


def replica_lines(topology):
    lines = []
    for reg_id in sorted(topology.registries):
        state = topology.registries[reg_id].state
        lines.append(f"registry {reg_id}")
        lines += [f"  {d}" for _, d in sorted(state.delegations.items())]
        lines += [f"  tomb {n} {s}" for n, s in sorted(state.tombstones.items())]
        lines += [f"  seen {n} {s}" for n, s in sorted(state.observed_serials.items())]
    return lines


@pytest.mark.parametrize("model", sorted(GOLDEN_REPLICATION))
def test_replication_run_matches_golden_digests(model):
    topology, log = run_model(model, canonical_events() + REPLICATION_EVENTS, seed=0)
    assert (
        hashlib.sha256(log.render_bytes()).hexdigest(),
        topology.state_hash(),
        sha(replica_lines(topology)),
    ) == GOLDEN_REPLICATION[model]


def owning_registry(topology, digits):
    """The registry that holds *digits*' delegation as its own, by a scan
    of every registry: an oracle apart from the CHANGE reply a transfer
    logs as its registry."""
    for actor in topology.registries.values():
        delegation = actor.state.delegations.get(digits)
        if delegation is not None and delegation.owning_registry == actor.state.id:
            return actor.state.id
    return ""


@pytest.mark.parametrize("model", sorted(MODEL_GRID))
@pytest.mark.parametrize(
    "script", ["EXTENDED_EVENTS", "REPLICATION_EVENTS", "TRANSFER_FAULT_EVENTS"]
)
def test_a_transfer_logs_the_registry_that_owns_the_delegation(model, script):
    topology = build_topology(builtin_config(model), seed=0)
    seen = []  # (logged registry, owner when the step returned)

    def checked(method):
        def step(*args, **kwargs):
            detail = method(*args, **kwargs)
            if "registry" in detail:
                seen.append((detail["registry"], owning_registry(topology, detail["number"])))
            return detail
        return step

    topology.transfer = checked(topology.transfer)
    topology.step_transfer = checked(topology.step_transfer)
    log = run_events(topology, canonical_events() + globals()[script])
    logged = [
        rec.detail["registry"] for rec in log.records
        if rec.ok and (
            rec.kind == "transfer"
            or (rec.kind == "transfer_step" and rec.detail["state"] == "RegistryUpdated")
        )
    ]
    assert logged and [registry for registry, _ in seen] == logged
    assert all(registry == owner != "" for registry, owner in seen)


@pytest.mark.parametrize("model", sorted(GOLDEN_WIRE))
def test_canonical_run_matches_golden_wire_bytes(model, popped_frames):
    run_model(model, seed=0)
    wire = b"".join(encode_frame(record.frame) for record in popped_frames)
    assert hashlib.sha256(wire).hexdigest() == GOLDEN_WIRE[model]


class TestTransparency:
    def test_resolution_identical_across_all_models(self):
        answers = {}
        for model in MODEL_GRID:
            _, log = run_model(model)
            answers[model] = [
                (r.detail["number"], r.detail["service"], r.detail["uris"])
                for r in log.records
                if r.kind == "resolve" and r.ok
            ]
            assert answers[model], f"model {model} resolved nothing"
        baseline = answers[1]
        for model, uris in answers.items():
            assert uris == baseline, f"model {model} diverged"


class TestValueFlow:
    def test_model1_flow(self):
        topology, _ = run_model(1)
        pairs = value_flow(topology).role_pairs()
        assert pairs == {("User", "TSP"), ("ASP", "TSP"), ("TSP", "Registry")}

    def test_model2_flow(self):
        topology, _ = run_model(2)
        pairs = value_flow(topology).role_pairs()
        assert pairs == {("User", "ASP"), ("ASP", "Registry")}

    def test_model3_flow(self):
        topology, _ = run_model(3)
        pairs = value_flow(topology).role_pairs()
        assert pairs == {
            ("User", "IndependentRegistrar"),
            ("IndependentRegistrar", "Registry"),
        }

    def test_model6_flow_charges_registrars_not_users(self):
        topology, _ = run_model(6)
        pairs = value_flow(topology).role_pairs()
        assert ("IndependentRegistrar", "Registry") in pairs
        assert ("User", "Registry") not in pairs

    def test_model4_same_flow_as_model1(self):
        one, _ = run_model(1)
        four, _ = run_model(4)
        assert value_flow(one).role_pairs() == value_flow(four).role_pairs()

    def test_cooperation_side_payment_in_asp_models(self):
        script = canonical_events() + "step cooperate payer=reg1 tsp=tsp1 approach=User-directed\n"
        topology, log = run_model(2, script)
        assert ("ASP", "TSP") in value_flow(topology).role_pairs()

    def test_cooperation_rejected_elsewhere(self):
        script = canonical_events() + "step cooperate payer=reg1 tsp=tsp1\n"
        topology, log = run_model(3, script)
        assert log.records[-1].status == "InvalidModelCombination"
        assert ("IndependentRegistrar", "TSP") not in value_flow(topology).role_pairs()

    def test_transfer_fee_edge(self):
        script = canonical_events() + "step transfer number=+13154434473 user=alice to=reg2\n"
        topology, _ = run_model(1, script)
        edges = value_flow(topology).edges
        transfer_edges = [e for e in edges if e.cause == topology.log[-1].event_id]
        assert [(e.payer, e.payee) for e in transfer_edges] == [("reg2", "R1")]

    def test_requires_completed_run(self):
        topology = build_topology(builtin_config(1))
        with pytest.raises(RunIncomplete):
            value_flow(topology)

    def test_every_edge_traces_to_event(self):
        topology, log = run_model(1)
        ids = {rec.event_id for rec in log.records}
        for edge in value_flow(topology).edges:
            assert edge.cause in ids
            assert edge.amount >= 0


class TestInvariants:
    def test_clean_run_passes_everything(self):
        for model in MODEL_GRID:
            topology, _ = run_model(model)
            report = assert_invariants(topology)
            assert report.passed, f"model {model}: {report.render_lines()}"

    def test_planted_violation_caught_with_event_id(self):
        topology, _ = run_model(1)
        topology.backdoor_provision("reg1", "+13154434473", SIP, actor="mallory")
        report = assert_invariants(topology)
        result = report.result("access_soundness")
        assert not result.passed
        planted_id = topology.log[-1].event_id
        assert any(planted_id in v for v in result.violations)

    def test_peering_fault_breaks_convergence(self):
        script = (
            "step assign number=+13154434473 user=alice tsp=tsp1\n"
            "step offline actor=R2\n"
            "step subscribe number=+13154434473 user=alice registrar=reg1 token=auto\n"
        )
        topology, _ = run_model(4, script)
        report = assert_invariants(topology)
        assert not report.result("replica_convergence").passed

    def test_single_registry_models_never_peer(self):
        for model in (1, 2, 3):
            topology, _ = run_model(model)
            report = assert_invariants(topology)
            assert report.result("peering_inert").passed

    def test_planted_peer_update_turns_peering_inert_red(self):
        from enumstack.wire import PEER_UPDATE, Frame

        topology, _ = run_model(1)
        assert assert_invariants(topology).result("peering_inert").passed
        # R1 has no peer in model 1, so the update is dropped; it still counts.
        net = topology.net
        net.send(Frame(kind=PEER_UPDATE, src="R1", dst="R2", req_id=net.next_req_id(),
                       fields={"number": "13154434473"}))
        net.run_until_idle()
        result = assert_invariants(topology).result("peering_inert")
        assert not result.passed
        assert result.violations == ["1 peer updates in a single-registry run"]

    def test_multi_registry_models_do_peer(self):
        from enumstack.wire import PEER_UPDATE

        topology, _ = run_model(4)
        count = sum(n for (kind, _), n in topology.net.counts.items() if kind == PEER_UPDATE)
        assert count > 0

    def test_orphaned_records_after_old_registrar_outage_reported(self):
        script = canonical_events() + (
            "step offline actor=reg1\n"
            "step transfer number=+13154434473 user=alice to=reg2\n"
        )
        topology, log = run_model(1, script)
        transfer = [r for r in log.records if r.kind == "transfer"][-1]
        assert transfer.detail["state"] == "Complete"
        assert "unreachable" in transfer.detail["warnings"]
        report = assert_invariants(topology)
        # the old registrar still holds the records it could not hand over
        assert not report.result("single_store").passed

    # A paced transfer of alice's number to reg2, stepped to RegistryUpdated:
    # reg2 serves the number, and reg1 keeps its copy until the end.
    WINDOW = _GRANTED_TRANSFER + "step transfer_step transfer=x1\n" * 3

    def test_the_old_registrars_copy_in_the_window_is_not_a_second_store(self):
        topology, _ = run_model(1, canonical_events() + self.WINDOW)
        assert topology.log[-1].detail["state"] == "RegistryUpdated"
        assert {r: len(a.store[ALICE]) for r, a in topology.registrars.items()} == {
            "reg1": 3, "reg2": 3,
        }
        assert red(topology) == {}

    def test_a_copy_at_a_third_registrar_in_the_window_is_red(self):
        text = (
            model_fixture_text(1)
            .replace("registrars = reg1, reg2", "registrars = reg1, reg2, reg3")
            .replace("R1 = reg1, reg2", "R1 = reg1, reg2, reg3")
        )
        topology = build_topology(parse_config(text), seed=11)
        run_events(topology, canonical_events() + self.WINDOW)
        assert topology.log[-1].detail["state"] == "RegistryUpdated"
        topology.registrars["reg3"].store[ALICE] = list(topology.registrars["reg1"].store[ALICE])
        assert red(topology) == {"single_store": [f"{ALICE} stored at reg2, reg3"]}

    def test_the_old_copy_after_complete_is_red(self):
        # reg1 is offline when the new registrar tells it the transfer is
        # Complete, so it keeps its copy, and the transfer says so.
        topology, _ = run_model(
            1,
            canonical_events() + self.WINDOW
            + "step offline actor=reg1\nstep transfer_step transfer=x1\nstep online actor=reg1\n",
        )
        complete = topology.log[-2]
        assert complete.detail["state"] == "Complete"
        assert complete.detail["warnings"] == "old registrar reg1 unreachable to drop its copy"
        assert red(topology) == {"single_store": [f"{ALICE} stored at reg1, reg2"]}
        assert lost_records(topology) == []

    def test_the_old_copy_after_complete_stays_red_once_the_number_is_disconnected(self):
        # reg1 keeps its copy as above; the disconnect at reg2 leaves the
        # number inactive with reg1 still holding its records.
        topology, _ = run_model(
            1,
            canonical_events() + self.WINDOW
            + "step offline actor=reg1\nstep transfer_step transfer=x1\nstep online actor=reg1\n"
            "step disconnect number=+13154434473 user=alice kind=enum_only\n",
        )
        assert topology.log[-1].ok
        assert {r: len(a.store.get(ALICE, [])) for r, a in topology.registrars.items()} == {
            "reg1": 3, "reg2": 0,
        }
        assert red(topology) == {"single_store": [f"{ALICE} stored at reg1 but not active"]}

    def test_a_write_by_the_grantee_at_the_new_registrar_in_the_window_is_red(self):
        # asp1's grant was made at reg1; it does not count at reg2.
        topology, _ = run_model(1, canonical_events() + self.WINDOW)
        topology.backdoor_provision("reg2", "+13154434473", SIP, actor="asp1")
        planted = topology.log[-1].event_id
        assert red(topology) == {
            "access_soundness": [f"{planted}: asp1 wrote E2U+sip for {ALICE}"],
        }


class TestAccessOracle:
    def test_oracle_agrees_with_clean_run(self):
        topology, log = run_model(1)
        assert AccessOracle(topology.cfg).check(log.records) == []

    def test_oracle_is_time_ordered(self):
        # provision after revoke must be denied; the log then carries an
        # error record which the oracle ignores, and no violation appears.
        script = canonical_events() + (
            "step revoke number=+13154434473 user=alice grant=g1\n"
            'step provision number=+13154434473 actor=asp1 record=104 10 "u" "E2U+mailto" "!^.*$!mailto:x@y!" .\n'
        )
        topology, log = run_model(1, script)
        assert log.records[-1].status == "AccessDenied"
        assert AccessOracle(topology.cfg).check(log.records) == []


class TestStateHash:
    def test_resolve_events_do_not_change_state(self):
        topology, _ = run_model(1)
        before = topology.state_hash()
        topology.resolve("+13154434473", "E2U+sip")
        topology.resolve("+13154434473", "*")
        assert topology.state_hash() == before

    def test_mutation_changes_state(self):
        topology, _ = run_model(1)
        before = topology.state_hash()
        topology.provision(
            "+13154434473", "alice",
            '120 10 "u" "E2U+tel" "!^.*$!tel:+13154434473!" .',
        )
        assert topology.state_hash() != before


class TestProvision:
    TEL = '110 10 "u" "E2U+tel" "!^.*$!tel:+13154434473!" .'

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_every_line_of_a_multi_line_record_is_provisioned(self, newline):
        topology, _ = run_model(1)
        detail = topology.provision("+13154434473", "alice", SIP + newline + self.TEL)
        assert topology.log[-1].status == "ok"
        assert detail["services"] == "E2U+sip,E2U+tel"
        stored = topology.registrars["reg1"].store["13154434473"]
        assert [r.service for r in stored] == ["E2U+sip", "E2U+mailto", "E2U+mailto", "E2U+tel"]
        assert topology.resolve("+13154434473", "E2U+tel")["uris"] == "tel:+13154434473"
