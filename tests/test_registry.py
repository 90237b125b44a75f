import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumstack.audit import replicas_converged
from enumstack.errors import (
    EnumStackError,
    NoDelegation,
    NotAuthoritative,
    StaleOldRegistrar,
    UnaccreditedRegistrar,
    UnknownCountryCode,
    UnknownPeer,
)
from enumstack.registry import (
    CHANGED,
    CREATED,
    Delegation,
    PeerUpdate,
    RegistryState,
    REMOVED,
    Tier0Table,
    tier0_discover,
)
from enumstack.scenarios import build_topology, builtin_config, canonical_events, run_events
from enumstack.wire import PEER_UPDATE

NUM = "13154434473"


def registry(reg_id="R1", peers=(), accredited=("T2a", "T2b")):
    return RegistryState(
        id=reg_id,
        served_prefixes=("1",),
        peers=tuple(peers),
        accredited=frozenset(accredited),
        flat_fee=1.0,
    )


def test_delegation_is_slotted_value_and_unhashable():
    delegation = Delegation(NUM, "T2a", "R1", serial=3)
    assert delegation == Delegation(NUM, "T2a", "R1", 3)
    assert delegation != Delegation(NUM, "T2a", "R1", serial=4)
    assert repr(delegation) == (
        "Delegation(number='13154434473', registrar='T2a', owning_registry='R1', serial=3)"
    )
    assert not hasattr(delegation, "__dict__")
    with pytest.raises(TypeError):
        hash(delegation)


class TestTier0:
    def test_direct_hit(self):
        table = Tier0Table(entries={"1": ("R1",)})
        assert tier0_discover("1", table) == ["R1"]

    def test_multiple_registries(self):
        table = Tier0Table(entries={"1": ("R1", "R2")})
        assert tier0_discover("1", table) == ["R1", "R2"]

    def test_no_match(self):
        table = Tier0Table(entries={"1": ("R1",)})
        with pytest.raises(UnknownCountryCode):
            tier0_discover("7", table)

    def test_longest_prefix_wins(self):
        table = Tier0Table(entries={"4": ("R1",), "49": ("R2",)})
        assert tier0_discover("49", table) == ["R2"]

    def test_empty_entry_rejected(self):
        with pytest.raises(UnknownCountryCode):
            Tier0Table(entries={"1": ()})


class TestRegisterDelegation:
    def test_fresh_registration(self):
        reg = registry()
        delegation = reg.register_delegation(NUM, "T2a", payer="T2a")
        assert delegation.serial == 1
        assert delegation.registrar == "T2a"
        assert len(reg.billing_ledger) == 1
        assert reg.billing_ledger[0].payer == "T2a"
        assert [u.kind for u in reg.outbox] == [CREATED]

    def test_repeat_registration_bills_twice(self):
        reg = registry()
        reg.register_delegation(NUM, "T2a", payer="T2a")
        delegation = reg.register_delegation(NUM, "T2a", payer="T2a")
        assert delegation.serial == 2
        assert delegation.registrar == "T2a"
        assert len(reg.billing_ledger) == 2

    def test_unaccredited(self):
        reg = registry()
        with pytest.raises(UnaccreditedRegistrar):
            reg.register_delegation(NUM, "mallory", payer="mallory")

    def test_not_serving_prefix(self):
        reg = registry()
        with pytest.raises(NotAuthoritative):
            reg.register_delegation("4930123456", "T2a", payer="T2a")

    def test_peer_owned_number_rejected(self):
        reg = registry(peers=("R2",))
        replica = Delegation(NUM, "T2a", "R2", serial=4)
        reg.peer_sync([PeerUpdate(replica, CREATED)])
        with pytest.raises(NotAuthoritative):
            reg.register_delegation(NUM, "T2b", payer="T2b")


class TestLookup:
    def test_registered(self):
        reg = registry()
        created = reg.register_delegation(NUM, "T2a", payer="T2a")
        assert reg.lookup_delegation(NUM) == created

    def test_unregistered(self):
        with pytest.raises(NoDelegation):
            registry().lookup_delegation(NUM)

    def test_replica_visible(self):
        reg = registry(peers=("R2",))
        replica = Delegation(NUM, "T2a", "R2", serial=3)
        reg.peer_sync([PeerUpdate(replica, CREATED)])
        assert reg.lookup_delegation(NUM).serial == 3


class TestRegistrarChange:
    def test_change_increments_serial_and_queues_update(self):
        reg = registry()
        reg.register_delegation(NUM, "T2a", payer="T2a")
        reg.register_delegation(NUM, "T2a", payer="T2a")
        reg.register_delegation(NUM, "T2a", payer="T2a")
        changed = reg.notify_registrar_change(NUM, "T2b", "T2a")
        assert changed.serial == 4
        assert changed.registrar == "T2b"
        assert reg.outbox[-1].kind == CHANGED

    def test_change_bills_new_registrar(self):
        reg = registry()
        reg.register_delegation(NUM, "T2a", payer="T2a")
        reg.notify_registrar_change(NUM, "T2b", "T2a")
        assert reg.billing_ledger[-1].payer == "T2b"

    def test_rollback_not_billed(self):
        reg = registry()
        reg.register_delegation(NUM, "T2a", payer="T2a")
        reg.notify_registrar_change(NUM, "T2b", "T2a")
        fees = len(reg.billing_ledger)
        reg.notify_registrar_change(NUM, "T2a", "T2b", billed=False)
        assert len(reg.billing_ledger) == fees

    def test_stale_old_registrar(self):
        reg = registry()
        reg.register_delegation(NUM, "T2a", payer="T2a")
        with pytest.raises(StaleOldRegistrar):
            reg.notify_registrar_change(NUM, "T2b", "T2x")

    def test_change_without_delegation(self):
        with pytest.raises(NoDelegation):
            registry().notify_registrar_change(NUM, "T2b", "T2a")


class TestRemove:
    def test_remove_creates_tombstone(self):
        reg = registry()
        reg.register_delegation(NUM, "T2a", payer="T2a")
        tombstone = reg.remove_delegation(NUM, "T2a")
        assert tombstone.serial == 2
        assert NUM not in reg.delegations
        assert reg.tombstones[NUM] == 2
        assert reg.outbox[-1].kind == REMOVED

    def test_reregistration_after_remove_keeps_serials_rising(self):
        reg = registry()
        reg.register_delegation(NUM, "T2a", payer="T2a")
        reg.remove_delegation(NUM, "T2a")
        fresh = reg.register_delegation(NUM, "T2b", payer="T2b")
        assert fresh.serial == 3


class TestPeerSync:
    def test_fresh_update_applied(self):
        reg = registry(peers=("R2",))
        update = PeerUpdate(Delegation(NUM, "T2a", "R2", serial=1), CREATED)
        assert reg.peer_sync([update]) == 1
        assert reg.lookup_delegation(NUM).registrar == "T2a"

    def test_idempotent(self):
        reg = registry(peers=("R2",))
        update = PeerUpdate(Delegation(NUM, "T2a", "R2", serial=1), CREATED)
        assert reg.peer_sync([update]) == 1
        assert reg.peer_sync([update]) == 0

    def test_unknown_peer(self):
        reg = registry(peers=())
        update = PeerUpdate(Delegation(NUM, "T2a", "R9", serial=1), CREATED)
        with pytest.raises(UnknownPeer):
            reg.peer_sync([update])

    def test_removal_update(self):
        reg = registry(peers=("R2",))
        reg.peer_sync([PeerUpdate(Delegation(NUM, "T2a", "R2", serial=1), CREATED)])
        assert reg.peer_sync([PeerUpdate(Delegation(NUM, "T2a", "R2", serial=2), REMOVED)]) == 1
        with pytest.raises(NoDelegation):
            reg.lookup_delegation(NUM)

    def test_conflicting_serials_any_order(self):
        five = PeerUpdate(Delegation(NUM, "T2a", "R2", serial=5), CHANGED)
        six = PeerUpdate(Delegation(NUM, "T2b", "R2", serial=6), CHANGED)
        for arrival in itertools.permutations([five, six]):
            reg = registry(peers=("R2",))
            for update in arrival:
                reg.peer_sync([update])
            final = reg.lookup_delegation(NUM)
            assert (final.serial, final.registrar) == (6, "T2b")

    def test_all_arrival_orders_of_three_converge(self):
        updates = [
            PeerUpdate(Delegation(NUM, "T2a", "R2", serial=1), CREATED),
            PeerUpdate(Delegation(NUM, "T2b", "R2", serial=2), CHANGED),
            PeerUpdate(Delegation(NUM, "T2c", "R2", serial=3), CHANGED),
        ]
        for arrival in itertools.permutations(updates):
            reg = registry(peers=("R2",))
            for update in arrival:
                reg.peer_sync([update])
            assert reg.lookup_delegation(NUM).serial == 3
            serials = reg.observed_serials[NUM]
            assert serials == sorted(set(serials))


# Beside "x": serials that int() reads as 3, 10, 4, 5, 6 and -1. Only the
# str(n) text a registry sends is a serial.
@pytest.mark.parametrize("serial", ["x", "\u0663", "1_0", " 4", "+5", "06", "-1", ""])
def test_peer_update_with_non_integer_field_gets_error_reply(popped_frames, serial):
    topology = build_topology(builtin_config(4))
    run_events(topology, canonical_events())
    before = dict(topology.registries["R2"].state.delegations)
    fields = {"number": NUM, "registrar": "reg2", "owner": "R1", "serial": serial,
              "update_kind": CHANGED}
    topology.net.post("R1", "R2", PEER_UPDATE, fields)
    topology.net.run_until_idle()
    assert topology.registries["R2"].state.delegations == before
    reply = popped_frames[-1].frame
    assert (reply.kind, reply.dst, reply.status) == (PEER_UPDATE, "R1", "WireError")
    assert reply.get("message") == f"{PEER_UPDATE} serial {serial!r} is not an integer"


NUMBERS = ("13154434473", "13154434474", "13154434475")
REGISTRARS = ("T2a", "T2b")
# (operation, number, registrar); the owner rejects the steps that do not
# apply to its state, as it would a bad request.
OWNER_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("register", "change", "remove")),
        st.sampled_from(NUMBERS),
        st.sampled_from(REGISTRARS),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(steps=OWNER_STEPS, data=st.data())
def test_peers_fed_the_outbox_in_any_order_equal_the_owner(steps, data):
    owner = registry("R1", peers=("R2", "R3"))
    peers = [registry("R2", peers=("R1", "R3")), registry("R3", peers=("R1", "R2"))]
    for op, number, registrar in steps:
        try:
            if op == "register":
                owner.register_delegation(number, registrar, payer=registrar)
            elif op == "change":
                current = owner.lookup_delegation(number).registrar
                owner.notify_registrar_change(number, registrar, current)
            else:
                owner.remove_delegation(number, registrar)
        except EnumStackError:
            pass
    updates = list(owner.outbox)
    for peer in peers:
        repeats = data.draw(st.lists(st.sampled_from(updates), max_size=5)) if updates else []
        for update in data.draw(st.permutations(updates + repeats)):
            peer.peer_sync([update])
        assert peer.delegations == owner.delegations
        assert peer.tombstones == owner.tombstones
    for state in [owner, *peers]:
        for serials in state.observed_serials.values():
            assert all(a < b for a, b in zip(serials, serials[1:]))

def test_converged_replicas_report_clean():
    r1 = registry("R1", peers=("R2",))
    r2 = registry("R2", peers=("R1",))
    delegation = r1.register_delegation(NUM, "T2a", payer="T2a")
    r2.peer_sync([PeerUpdate(delegation, CREATED)])
    assert replicas_converged([r1, r2]) == []


def test_diverged_replicas_reported():
    r1 = registry("R1", peers=("R2",))
    r2 = registry("R2", peers=("R1",))
    r1.register_delegation(NUM, "T2a", payer="T2a")
    problems = replicas_converged([r1, r2])
    assert problems and NUM in problems[0]
