import hashlib

import pytest

from enumstack.audit import AccessOracle, assert_invariants, value_flow
from enumstack.errors import InvalidModelCombination, RunIncomplete, ScenarioError
from enumstack.scenarios import (
    LogRecord,
    MODEL_GRID,
    ScenarioConfig,
    build_topology,
    builtin_config,
    canonical_events,
    parse_config,
    parse_events,
    run_events,
)
from enumstack.wire import encode_frame

SIP = '100 10 "u" "E2U+sip" "!^.*$!sip:alice@example.com!" .'


def run_model(model, events=None, seed=11):
    topology = build_topology(builtin_config(model), seed=seed)
    log = run_events(topology, events if events is not None else canonical_events())
    return topology, log


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
        text = "[model]\nid = 2\nregistrar_kind = TSP\n[actors]\nregistries = R1\n"
        with pytest.raises(InvalidModelCombination):
            parse_config(text)

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
        ["[faults]\nreg1 = a:b\n", "[faults]\nreg1 = 5\n", "[fees]\nflat_fee = x\n"],
        ids=["fault-not-int", "fault-no-colon", "fee-not-float"],
    )
    def test_bad_number_in_config_is_scenario_error(self, section):
        text = "[model]\nid = 1\n[actors]\nregistries = R1\n" + section
        with pytest.raises(ScenarioError):
            parse_config(text)

    def test_percent_in_value_is_literal(self):
        text = "[model]\nid = 1\n[actors]\nregistries = R1\nusers = a%b, %(x)s\n"
        assert parse_config(text).users == ("a%b", "%(x)s")


class TestEventScripts:
    def test_parse_record_tail(self):
        events = parse_events(
            "step provision number=+13154434473 actor=alice "
            'record=100 10 "u" "E2U+sip" "!^.*$!sip:a@b!" .'
        )
        assert events[0].kind == "provision"
        assert events[0].args["record"].startswith("100 10")

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
            ("step cooperate payer=reg1 tsp=tsp1 amount=x", "ScenarioError"),
            (f"step provision number=+13154434473 actor=alice visibility=secret record={SIP}",
             "InvalidRecord"),
        ],
        ids=["missing-number", "ticks-not-int", "amount-not-float", "unknown-visibility"],
    )
    def test_malformed_step_logged_and_run_continues(self, line, status):
        topology = build_topology(builtin_config(1))
        log = run_events(topology, line + "\nstep advance ticks=2\n")
        assert [rec.status for rec in log.records] == [status, "ok"]
        assert log.records[0].detail["message"]

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
# sha256 of encode_frame over every frame of the canonical run's frame log
# at seed 0, so a codec change that alters wire bytes shows even when the
# frames still decode the same.
GOLDEN_WIRE = {
    1: "4214ed55733e5447bfc1034cd4cb6ad121d622a30716b1f028ee3b37f987f3d0",
    2: "4214ed55733e5447bfc1034cd4cb6ad121d622a30716b1f028ee3b37f987f3d0",
    3: "4214ed55733e5447bfc1034cd4cb6ad121d622a30716b1f028ee3b37f987f3d0",
    4: "347a526ed72d2bdadd538e2a2c14435afd870d1d97603338c4f7c842239d9fc8",
    5: "347a526ed72d2bdadd538e2a2c14435afd870d1d97603338c4f7c842239d9fc8",
    6: "347a526ed72d2bdadd538e2a2c14435afd870d1d97603338c4f7c842239d9fc8",
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
    1: "71dd393936efed73791c2282ce8d99b6f17d56e4d48c7e6b63e9d7b20e4a7900",
    2: "5d920806d1b406112f25edd838ffaa46fa182681c7f83c5a50cade520c06c3fb",
    3: "71dd393936efed73791c2282ce8d99b6f17d56e4d48c7e6b63e9d7b20e4a7900",
    4: "9034300293cbc3fd5640315412a15d59cde73707a8b957d94990f5052bd5c696",
    5: "c6f249e2cd0b025fe9489f9a8b861739de33c1d639301df4b1a815a40e43e5a8",
    6: "9034300293cbc3fd5640315412a15d59cde73707a8b957d94990f5052bd5c696",
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


@pytest.mark.parametrize("model", sorted(GOLDEN_WIRE))
def test_canonical_run_matches_golden_wire_bytes(model):
    topology, _ = run_model(model, seed=0)
    wire = b"".join(encode_frame(record.frame) for record in topology.net.frame_log)
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

    def test_multi_registry_models_do_peer(self):
        from enumstack.wire import PEER_UPDATE

        topology, _ = run_model(4)
        count = sum(1 for r in topology.net.frame_log if r.frame.kind == PEER_UPDATE)
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
