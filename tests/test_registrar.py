import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumstack.audit import assert_invariants
from enumstack.errors import (
    AccessDenied,
    AlreadyComplete,
    EnumInactive,
    NaptrError,
    NoPhoneService,
    NotSubscriber,
    SameRegistrar,
    TransferPending,
    UnknownGrant,
    UnknownSubscription,
    UnknownTransfer,
    VerificationFailed,
)
from enumstack.naptr import ServiceSelector, Visibility, parse_record
from enumstack.registrar import (
    AlreadySubscribed,
    Directory,
    RecordStore,
    RegistrarActor,
    Role,
    TransferState,
    parse_store_lines,
)
from enumstack.registry import RegistryActor, RegistryState
from enumstack.scenarios import build_topology, builtin_config, canonical_events, run_events
from enumstack.simulator import DROPPED, Network
from enumstack.wire import GET, MIGRATE_REQ, TRANSFER_INIT, TRANSFER_STEP

NUM = "13154434473"
SIP = '100 10 "u" "E2U+sip" "!^.*$!sip:user@example.com!" .'
MAILTO = '50 10 "u" "E2U+mailto" "!^.*$!mailto:user@example.com!" .'
TEL = '60 10 "u" "E2U+tel" "!^.*$!tel:+13154434473!" .'
NETWORK_RELATED = frozenset({"E2U+sip", "E2U+tel"})


class Rig:
    """One registry, two registrars, a TSP-assigned number for alice."""

    def __init__(self, kind=Role.TSP, assign=True):
        self.net = Network(seed=1)
        self.directory = Directory()
        self.registry = RegistryActor(
            RegistryState(
                id="R1",
                served_prefixes=("1",),
                accredited=frozenset({"T2a", "T2b", "tspA"}),
            )
        )
        self.net.register("R1", self.registry.handle_frame)
        self.a = self.registrar("T2a", kind)
        self.b = self.registrar("T2b", kind)
        self.net.register("T2a", self.a.handle_frame)
        self.net.register("T2b", self.b.handle_frame)
        if assign:
            self.sub = self.directory.assign(NUM, "alice", "tspA")

    def registrar(self, registrar_id, kind):
        return RegistrarActor(
            registrar_id, kind, "R1", self.directory, NETWORK_RELATED,
            self.registry.state.accredited,
        )

    def subscribe(self, registrar=None, **kw):
        registrar = registrar or self.a
        kw.setdefault("token", self.directory.get(NUM).token)
        sub = registrar.subscribe_enum("alice", NUM, self.net, **kw)
        self.net.run_until_idle()
        return sub

    def provision(self, line, actor="alice", registrar=None, visibility=Visibility.PUBLIC):
        registrar = registrar or self.a
        return registrar.provision_records(
            actor, NUM, [parse_record(line, visibility=visibility)]
        )


class TestSubscribe:
    def test_own_tsp_auto_verifies(self):
        rig = Rig()
        tsp_registrar = rig.registrar("tspA", Role.TSP)
        rig.net.register("tspA", tsp_registrar.handle_frame)
        sub = tsp_registrar.subscribe_enum("alice", NUM, rig.net)  # no token needed
        rig.net.run_until_idle()
        assert sub.enum_active and sub.serving_registrar == "tspA"
        assert rig.registry.state.lookup_delegation(NUM).registrar == "tspA"

    def test_token_verifies_other_registrar(self):
        rig = Rig()
        sub = rig.subscribe()
        assert sub.enum_active
        assert rig.registry.state.lookup_delegation(NUM).registrar == "T2a"

    def test_tsp_confirmation_verifies(self):
        rig = Rig(kind=Role.ASP)
        rig.directory.confirm(NUM, "T2a")
        sub = rig.a.subscribe_enum("alice", NUM, rig.net, confirmed=True)
        assert sub.enum_active

    def test_unverified_rejected(self):
        rig = Rig()
        with pytest.raises(VerificationFailed):
            rig.a.subscribe_enum("alice", NUM, rig.net, token="wrong")

    def test_no_phone_service(self):
        rig = Rig(assign=False)
        with pytest.raises(NoPhoneService):
            rig.a.subscribe_enum("alice", NUM, rig.net)

    def test_wrong_user(self):
        rig = Rig()
        with pytest.raises(VerificationFailed):
            rig.a.subscribe_enum("mallory", NUM, rig.net, token=rig.sub.token)

    def test_active_elsewhere_requires_transfer(self):
        rig = Rig()
        rig.subscribe()
        with pytest.raises(AlreadySubscribed):
            rig.b.subscribe_enum("alice", NUM, rig.net, token=rig.sub.token)

    def test_resubscribe_same_registrar_rebills(self):
        rig = Rig()
        rig.subscribe()
        rig.subscribe()
        assert rig.registry.state.lookup_delegation(NUM).serial == 2
        assert len(rig.registry.state.billing_ledger) == 2


class TestProvision:
    def test_user_provisions_own_record(self):
        rig = Rig()
        rig.subscribe()
        result = rig.provision(SIP)
        assert len(result) == 1

    def test_requires_active_enum(self):
        rig = Rig()
        with pytest.raises(EnumInactive):
            rig.provision(SIP)

    def test_asp_without_grant_denied(self):
        rig = Rig()
        rig.subscribe()
        with pytest.raises(AccessDenied):
            rig.provision(SIP, actor="aspX")

    def test_tsp_implicit_grant_network_related(self):
        rig = Rig(kind=Role.TSP)
        rig.subscribe()
        result = rig.provision(SIP, actor="tspA")  # E2U+sip is network-related
        assert len(result) == 1

    def test_tsp_implicit_grant_ignores_service_case(self):
        # NaptrRecord.merge_key and ServiceSelector ignore case, so the
        # merge takes "e2u+SIP" for the network-related E2U+sip.
        rig = Rig(kind=Role.TSP)
        rig.subscribe()
        rig.provision(SIP, actor="tspA")
        result = rig.provision(SIP.replace("E2U+sip", "e2u+SIP"), actor="tspA")
        assert [record.service for record in result] == ["e2u+SIP"]
        with pytest.raises(AccessDenied):
            rig.provision(MAILTO.replace("E2U+mailto", "e2u+MAILTO"), actor="tspA")

    def test_tsp_write_of_a_differently_cased_service_keeps_access_soundness_green(self):
        topology = build_topology(builtin_config(1), seed=0)
        log = run_events(topology, canonical_events() + (
            "step provision number=+13154434473 actor=tsp1"
            ' record=300 10 "u" "e2u+SIP" "!^.*$!sip:tsp@example.com!" .\n'
        ))
        assert log.records[-1].status == "ok", log.records[-1].render()
        assert assert_invariants(topology).result("access_soundness").passed

    def test_tsp_implicit_grant_limited_to_network_services(self):
        rig = Rig(kind=Role.TSP)
        rig.subscribe()
        with pytest.raises(AccessDenied):
            rig.provision(MAILTO, actor="tspA")

    def test_no_implicit_grant_outside_tsp_models(self):
        rig = Rig(kind=Role.ASP)
        rig.directory.confirm(NUM, "T2a")
        rig.a.subscribe_enum("alice", NUM, rig.net, confirmed=True)
        with pytest.raises(AccessDenied):
            rig.provision(SIP, actor="tspA")

    def test_merge_replaces_by_service_order_preference(self):
        rig = Rig()
        rig.subscribe()
        rig.provision(SIP)
        replacement = '100 10 "u" "E2U+sip" "!^.*$!sip:new@example.com!" .'
        result = rig.provision(replacement)
        assert len(result) == 1
        assert "new@example.com" in result[0].regexp

    def test_merge_appends_different_key(self):
        rig = Rig()
        rig.subscribe()
        rig.provision(SIP)
        result = rig.provision(MAILTO)
        assert len(result) == 2


class TestGrants:
    def test_grant_scopes_by_service(self):
        rig = Rig()
        rig.subscribe()
        rig.a.grant_access(
            "alice", "aspX", frozenset({"provision"}),
            ServiceSelector("E2U+mailto"), NUM, "g1",
        )
        rig.provision(MAILTO, actor="aspX")
        with pytest.raises(AccessDenied):
            rig.provision(SIP, actor="aspX")

    def test_revoke_then_denied(self):
        rig = Rig()
        rig.subscribe()
        rig.a.grant_access(
            "alice", "aspX", frozenset({"provision"}), ServiceSelector("*"), NUM, "g1"
        )
        rig.provision(MAILTO, actor="aspX")
        rig.a.revoke_access("alice", NUM, "g1")
        with pytest.raises(AccessDenied):
            rig.provision(TEL, actor="aspX")

    def test_grant_by_non_subscriber(self):
        rig = Rig()
        rig.subscribe()
        with pytest.raises(NotSubscriber):
            rig.a.grant_access(
                "mallory", "aspX", frozenset({"provision"}),
                ServiceSelector("*"), NUM, "g1",
            )

    def test_revoke_unknown_grant(self):
        rig = Rig()
        rig.subscribe()
        with pytest.raises(UnknownGrant):
            rig.a.revoke_access("alice", NUM, "g99")


class TestGetRecords:
    def test_public_view_hides_restricted(self):
        rig = Rig()
        rig.subscribe()
        rig.provision(SIP)
        rig.provision(MAILTO, visibility=Visibility.RESTRICTED)
        anonymous = rig.a.get_records("anonymous", NUM)
        assert [r.service for r in anonymous] == ["E2U+sip"]

    def test_subscriber_sees_restricted(self):
        rig = Rig()
        rig.subscribe()
        rig.provision(MAILTO, visibility=Visibility.RESTRICTED)
        assert len(rig.a.get_records("alice", NUM)) == 1

    def test_access_grant_reveals_restricted(self):
        rig = Rig()
        rig.subscribe()
        rig.provision(MAILTO, visibility=Visibility.RESTRICTED)
        assert rig.a.get_records("tspA", NUM) == ()
        rig.a.grant_access(
            "alice", "tspA", frozenset({"access"}),
            ServiceSelector("E2U+mailto"), NUM, "g1",
        )
        assert len(rig.a.get_records("tspA", NUM)) == 1

    def test_selector_filters(self):
        rig = Rig()
        rig.subscribe()
        rig.provision(SIP)
        rig.provision(MAILTO)
        view = rig.a.get_records("alice", NUM, ServiceSelector("E2U+sip"))
        assert [r.service for r in view] == ["E2U+sip"]

    def test_empty_view_for_inactive(self):
        rig = Rig()
        assert rig.a.get_records("alice", NUM) == ()


SERVICES = ("E2U+sip", "E2U+mailto", "E2U+tel", "E2U+web")
ACTORS = ("alice", "tspA", "aspX", "T2a", "T2b", "anonymous")


@settings(max_examples=80, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.sampled_from(SERVICES), st.integers(10, 13), st.sampled_from(Visibility)),
        max_size=6,
    ),
    grants=st.lists(
        st.tuples(
            st.sampled_from(ACTORS),
            st.frozensets(st.sampled_from(("access", "provision", "change")), min_size=1),
            st.sampled_from(("*",) + SERVICES),
        ),
        max_size=3,
    ),
    actor=st.sampled_from(ACTORS),
    service=st.sampled_from(("", "*", "e2u+SIP") + SERVICES),
)
def test_get_reply_holds_the_get_records_view(records, grants, actor, service):
    rig = Rig()
    rig.subscribe()
    for svc, order, visibility in records:
        line = f'{order} 10 "u" "{svc}" "!^.*$!x:{order}@example.com!" .'
        rig.provision(line, visibility=visibility)
    for k, (grantee, rights, scope) in enumerate(grants):
        rig.a.grant_access("alice", grantee, rights, ServiceSelector(scope), NUM, f"g{k}")
    reply = rig.net.request("client", "T2a", GET, {"number": NUM, "actor": actor,
                                                    "service": service})
    assert reply is not None and reply.ok
    view = rig.a.get_records(actor, NUM, ServiceSelector(service or "*"))
    assert tuple(parse_store_lines(reply.get("records"))) == view


class TestTransfer:
    def ready_rig(self):
        rig = Rig()
        rig.subscribe()
        rig.provision(SIP)
        rig.provision(MAILTO, visibility=Visibility.RESTRICTED)
        return rig

    def finish(self, rig, transfer="x1"):
        """Step *transfer* at T2b by TRANSFER_STEP frames until it ends."""
        record = rig.b.transfers[transfer]
        while not record.finished:
            fields = {"transfer": transfer, "state": record.state.value, "event": ""}
            reply = rig.net.request("client:alice", "T2b", TRANSFER_STEP, fields)
            assert reply is not None and reply.ok and reply.get("state") == record.state.value
        rig.net.run_until_idle()
        return record

    def run_transfer(self, rig):
        rig.b.begin_transfer("alice", NUM, "x1")
        return self.finish(rig)

    def test_healthy_transfer_moves_everything(self):
        rig = self.ready_rig()
        before = sorted(r for r in map(str, rig.a.store[NUM]))
        record = self.run_transfer(rig)
        assert record.state is TransferState.COMPLETE
        assert record.warnings == []
        assert rig.a.store.get(NUM, []) == []
        assert sorted(map(str, rig.b.store[NUM])) == before
        assert rig.registry.state.lookup_delegation(NUM).registrar == "T2b"
        assert rig.directory.get(NUM).serving_registrar == "T2b"

    def test_a_transfer_locks_its_number_until_it_ends(self):
        rig = self.ready_rig()
        rig.a.grant_access("alice", "asp1", frozenset({"provision"}), ServiceSelector(), NUM, "g1")
        rig.b.begin_transfer("alice", NUM, "x1")
        assert rig.directory.transfers[NUM] is rig.b.transfers["x1"]
        writes = (
            lambda: rig.provision(TEL),
            lambda: rig.a.grant_access("alice", "bob", frozenset({"access"}),
                                       ServiceSelector(), NUM, "g2"),
            lambda: rig.a.revoke_access("alice", NUM, "g1"),
            lambda: rig.b.begin_transfer("alice", NUM, "x2"),
            lambda: rig.a.begin_transfer("alice", NUM, "x2"),
        )
        for state in ("OldNotified", "RecordsMigrated", "RegistryUpdated"):
            rig.b.step_transfer("x1", rig.net)
            assert rig.b.transfers["x1"].state.value == state
            for write in writes:
                with pytest.raises(TransferPending, match="under transfer 'x1'"):
                    write()
            # Reads go on: the old registrar until the repoint, then the new.
            serving = rig.a if state != "RegistryUpdated" else rig.b
            assert len(serving.get_records("alice", NUM)) == 2
            # MIGRATE_REQ was a read: the old registrar keeps its copy and grants.
            assert len(rig.a.store[NUM]) == 2 and [g.grant_id for g in rig.a.grants[NUM]] == ["g1"]
        assert rig.b.step_transfer("x1", rig.net).finished
        assert NUM not in rig.a.store and NUM not in rig.a.grants  # dropped at Complete
        rig.provision(TEL, registrar=rig.b)

    def test_transfer_to_self(self):
        rig = self.ready_rig()
        with pytest.raises(SameRegistrar):
            rig.a.begin_transfer("alice", NUM, "x1")

    def test_transfer_needs_active_enum(self):
        rig = Rig()
        with pytest.raises(EnumInactive):
            rig.b.begin_transfer("alice", NUM, "x1")

    def test_unreachable_old_completes_empty_with_warning(self):
        rig = self.ready_rig()
        rig.net.set_offline("T2a")
        rig.b.begin_transfer("alice", NUM, "x1")
        record = self.finish(rig)
        assert record.state is TransferState.COMPLETE
        assert record.migrated is None  # MIGRATE_REQ got no answer
        assert rig.b.store[NUM] == []
        assert len(rig.a.store[NUM]) == 2  # stranded, for single_store to report
        assert any("unreachable" in w for w in record.warnings)
        # Each request to the old registrar is sent once and retried once.
        counts = rig.net.counts
        assert counts[(TRANSFER_INIT, DROPPED)] == counts[(MIGRATE_REQ, DROPPED)] == 2

    def test_state_sequence_is_monotone(self):
        rig = self.ready_rig()
        record = self.run_transfer(rig)
        assert record.history == [
            TransferState.REQUESTED,
            TransferState.OLD_NOTIFIED,
            TransferState.RECORDS_MIGRATED,
            TransferState.REGISTRY_UPDATED,
            TransferState.COMPLETE,
        ]


class TestDispute:
    def paced_rig(self, steps):
        rig = Rig()
        rig.subscribe()
        rig.provision(SIP)
        rig.b.begin_transfer("alice", NUM, "x1")
        for _ in range(steps):
            rig.b.step_transfer("x1", rig.net)
        rig.net.run_until_idle()
        return rig

    @pytest.mark.parametrize("steps,state", [
        (0, TransferState.REQUESTED),
        (1, TransferState.OLD_NOTIFIED),
        (2, TransferState.RECORDS_MIGRATED),
        (3, TransferState.REGISTRY_UPDATED),
    ])
    def test_dispute_rolls_back_everywhere(self, steps, state):
        rig = self.paced_rig(steps)
        assert rig.b.transfers["x1"].state is state
        record = rig.b.dispute_transfer("T2a", "x1", "user changed mind", rig.net)
        rig.net.run_until_idle()
        assert record.state is TransferState.DISPUTED
        # delegation and records are back with the old registrar
        assert rig.registry.state.lookup_delegation(NUM).registrar == "T2a"
        assert len(rig.a.store.get(NUM, [])) == 1
        assert rig.b.store.get(NUM, []) == []
        assert rig.directory.get(NUM).serving_registrar == "T2a"

    def test_dispute_after_complete(self):
        rig = self.paced_rig(4)
        assert rig.b.transfers["x1"].state is TransferState.COMPLETE
        with pytest.raises(AlreadyComplete):
            rig.b.dispute_transfer("T2a", "x1", "too late", rig.net)

    def test_dispute_unknown_transfer(self):
        rig = self.paced_rig(0)
        with pytest.raises(UnknownTransfer):
            rig.b.dispute_transfer("T2a", "x9", "what", rig.net)

    def test_dispute_by_uninvolved_registrar(self):
        rig = self.paced_rig(1)
        with pytest.raises(UnknownTransfer):
            rig.b.dispute_transfer("T2x", "x1", "not mine", rig.net)


class TestDisconnect:
    def active_rig(self):
        rig = Rig()
        rig.subscribe()
        rig.provision(SIP)
        return rig

    def test_enum_only_keeps_phone(self):
        rig = self.active_rig()
        sub = rig.a.disconnect("alice", NUM, "enum_only", rig.net)
        rig.net.run_until_idle()
        assert not sub.enum_active and sub.phone_active
        assert rig.a.store.get(NUM) is None
        from enumstack.errors import NoDelegation
        with pytest.raises(NoDelegation):
            rig.registry.state.lookup_delegation(NUM)

    def test_enum_only_allows_resubscription(self):
        rig = self.active_rig()
        rig.a.disconnect("alice", NUM, "enum_only", rig.net)
        rig.net.run_until_idle()
        sub = rig.subscribe(registrar=rig.b)
        assert sub.enum_active and sub.serving_registrar == "T2b"

    def test_telephone_purges_everything(self):
        rig = self.active_rig()
        sub = rig.a.disconnect("alice", NUM, "telephone", rig.net)
        rig.net.run_until_idle()
        assert not sub.enum_active and not sub.phone_active
        assert sub.token == ""
        with pytest.raises(NoPhoneService):
            rig.subscribe(registrar=rig.b, token="tok-" + NUM)

    def test_fresh_assignment_restores_service(self):
        rig = self.active_rig()
        rig.a.disconnect("alice", NUM, "telephone", rig.net)
        rig.net.run_until_idle()
        rig.directory.assign(NUM, "dave", "tspA")
        sub = rig.b.subscribe_enum(
            "dave", NUM, rig.net, token=rig.directory.get(NUM).token
        )
        assert sub.enum_active

    def test_unknown_subscription(self):
        rig = Rig(assign=False)
        with pytest.raises(UnknownSubscription):
            rig.a.disconnect("alice", NUM, "enum_only", rig.net)


def test_parse_store_lines_splits_on_newline_only():
    line = 'public 100 10 "u" "E2U+sip" "!^.*$!sip:a\u2028b\x85c@example.com!" .'
    record = parse_record(line.split(" ", 1)[1])
    assert parse_store_lines(line) == [record]
    assert parse_store_lines(f"{line}\n\n {line}\n") == [record, record]
    assert parse_store_lines(f"{line}\r\n{line}\r{line}") == [record, record, record]


def counting_store():
    """A store with two parsed numbers (one empty) and two unread ones,
    and the list of texts its parse function has been given."""
    calls = []

    def parse(text):
        calls.append(text)
        return parse_store_lines(text)

    values = {"100": parse_store_lines(TEL), "101": [], "200": SIP, "201": MAILTO}
    store = RecordStore(values, parse)
    return store, calls


class TestRecordStore:
    def test_membership_length_iteration_and_queries_parse_nothing(self):
        store, calls = counting_store()
        assert "100" in store and "200" in store and "999" not in store
        assert len(store) == 4
        assert list(store) == list(store.keys()) == ["100", "101", "200", "201"]
        assert store.held()["200"] == SIP and store.held()["100"] == parse_store_lines(TEL)
        assert store.numbers_with_records() == ["100", "200", "201"]
        assert calls == []

    @pytest.mark.parametrize("read", [
        lambda store: store["200"],
        lambda store: store.get("200"),
        lambda store: store.setdefault("200", []),
        lambda store: store.pop("200"),
    ])
    def test_reading_a_number_parses_that_number_only(self, read):
        store, calls = counting_store()
        assert read(store) == parse_store_lines(SIP)
        assert calls == [SIP]
        assert not isinstance(store.held().get("200"), str)
        assert store.held()["201"] == MAILTO

    def test_writes_and_misses_parse_nothing(self):
        store, calls = counting_store()
        del store["200"]
        store["201"] = parse_store_lines(TEL)
        assert store.setdefault("300", []) == [] and store.pop("100") == parse_store_lines(TEL)
        assert store.get("999") is None and store.pop("999", None) is None
        with pytest.raises(KeyError):
            store["999"]
        with pytest.raises(KeyError):
            del store["999"]
        assert calls == []
        assert list(store) == ["101", "201", "300"]
        assert store.held()["201"] == parse_store_lines(TEL)
        assert store["201"] == parse_store_lines(TEL)

    def test_items_and_equality_parse_every_number(self):
        expected = {
            "100": parse_store_lines(TEL),
            "101": [],
            "200": parse_store_lines(SIP),
            "201": parse_store_lines(MAILTO),
        }
        store, calls = counting_store()
        assert dict(store.items()) == expected
        assert calls == [SIP, MAILTO]
        store, calls = counting_store()
        assert store == expected and expected == store
        assert calls == [SIP, MAILTO]
        assert store != {**expected, "101": parse_store_lines(TEL)}
        assert store == counting_store()[0]

    def test_a_failed_parse_leaves_the_number_unread(self):
        store = RecordStore({"200": "garbage"}, parse=parse_store_lines)
        for read in (lambda: store["200"], lambda: store.get("200"), lambda: store.pop("200")):
            with pytest.raises(NaptrError):
                read()
            assert store.held()["200"] == "garbage"
            assert "200" in store and len(store) == 1

    def test_a_store_without_unread_numbers_is_a_plain_map(self):
        store = RecordStore()
        store.setdefault(NUM, []).extend(parse_store_lines(SIP))
        assert store[NUM] is store.get(NUM)
        assert store == {NUM: parse_store_lines(SIP)}
        assert store.numbers_with_records() == [NUM]
        store[NUM] = []
        assert store.numbers_with_records() == [] and len(store) == 1
