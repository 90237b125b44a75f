"""Tier-0 pointer and Tier-1 registry service.

Tier-0 maps a country-code prefix to the registries authoritative for it.
A Tier-1 registry holds delegations (number -> serving registrar), bills a
flat fee per registration or registrar change, and pushes serial-numbered
updates to its peers. Replicas apply an update only when its serial
exceeds the replica's, which makes replication last-writer-wins and
idempotent regardless of arrival order.

State operations are plain methods so they unit-test without a network;
:class:`RegistryActor` adapts them to wire frames. Emitted peer updates
collect in ``outbox`` until the actor fans them out.
"""

from __future__ import annotations

from collections.abc import MutableMapping

from ._record import Record
from .errors import (
    NoDelegation,
    NotAuthoritative,
    StaleOldRegistrar,
    UnaccreditedRegistrar,
    UnknownCountryCode,
    UnknownPeer,
    WireError,
)
from .registrar import RecordStore
from .simulator import Network
from .wire import CHANGE, Frame, LOOKUP, PEER_UPDATE, REGISTER

RegistryId = str
RegistrarId = str

CREATED = "created"
CHANGED = "changed"
REMOVED = "removed"


class Tier0Table:
    """Country-code prefix -> authoritative registries."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, tuple[RegistryId, ...]]) -> None:
        for prefix, registries in entries.items():
            if not (prefix.isascii() and prefix.isdigit() and 1 <= len(prefix) <= 3):
                raise UnknownCountryCode(f"bad tier-0 prefix {prefix!r}")
            if not registries:
                raise UnknownCountryCode(f"tier-0 prefix {prefix!r} maps to no registry")
        self.entries = entries


def tier0_discover(cc: str, table: Tier0Table) -> list[RegistryId]:
    """Registries for the longest prefix of *cc* present in the table."""
    for width in range(min(len(cc), 3), 0, -1):
        hit = table.entries.get(cc[:width])
        if hit:
            return list(hit)
    raise UnknownCountryCode(f"no tier-0 entry for country code {cc!r}")


class Delegation(Record):
    """One number's pointer to its serving registrar.

    Immutable by convention, like :class:`~enumstack.naptr.NaptrRecord`:
    a change is a new delegation with a higher serial. A slotted
    :class:`~enumstack._record.Record`, compared and printed by its field
    values and so unhashable.
    """

    __slots__ = ("number", "registrar", "owning_registry", "serial", "updated_at")

    def __init__(
        self, number: str, registrar: RegistrarId, owning_registry: RegistryId, serial: int,
        updated_at: int = 0,
    ) -> None:
        self.number = number
        self.registrar = registrar
        self.owning_registry = owning_registry
        self.serial = serial
        self.updated_at = updated_at


class PeerUpdate:
    """Owner-pushed replication event; receivers apply by serial."""

    __slots__ = ("delegation", "kind")

    def __init__(self, delegation: Delegation, kind: str) -> None:
        self.delegation, self.kind = delegation, kind  # kind: created / changed / removed


class BillingEntry:
    __slots__ = ("payer", "amount", "number", "cause")

    def __init__(self, payer: RegistrarId, amount: float, number: str, cause: str = "") -> None:
        self.payer = payer
        self.amount = amount
        self.number = number
        self.cause = cause


class RegistryState:
    """One Tier-1 registry: delegations, billing ledger, peer replication.

    It holds its own delegations and its peers' replicas in one map; a
    delegation is its own when its ``owning_registry`` is this registry.
    """

    __slots__ = (
        "id", "served_prefixes", "peers", "accredited", "flat_fee", "delegations",
        "tombstones", "billing_ledger", "outbox", "observed_serials",
    )

    def __init__(
        self, id: RegistryId, served_prefixes: tuple[str, ...] = (),
        peers: tuple[RegistryId, ...] = (), accredited: frozenset[RegistrarId] = frozenset(),
        flat_fee: float = 1.0,
    ) -> None:
        self.id = id
        self.served_prefixes = served_prefixes
        self.peers = peers
        self.accredited = accredited
        self.flat_fee = flat_fee
        self.delegations: RecordStore[Delegation] = RecordStore()
        self.tombstones: dict[str, int] = {}
        self.billing_ledger: list[BillingEntry] = []
        self.outbox: list[PeerUpdate] = []
        # serials as observed locally, per number; must be strictly increasing.
        # A number loaded from a snapshot enters at its first change, loaded
        # serial first.
        self.observed_serials: MutableMapping[str, list[int]] = {}

    # ------------------------------------------------------------ helpers

    def serves(self, number: str) -> bool:
        return any(number.startswith(p) for p in self.served_prefixes)

    def _local_serial(self, number: str) -> int:
        existing = self.delegations.get(number)
        serial = existing.serial if existing else 0
        return max(serial, self.tombstones.get(number, 0))

    def _apply(self, delegation: Delegation, kind: str) -> None:
        """Install *delegation*, or its tombstone when *kind* is REMOVED, and
        record its serial as observed here.

        The one write rule for the owner's own changes and for replicas.
        """
        number = delegation.number
        observed = self.observed_serials.get(number)
        if observed is None:
            loaded = self.delegations.get(number)
            observed = self.observed_serials[number] = [] if loaded is None else [loaded.serial]
        if kind == REMOVED:
            self.delegations.pop(number, None)
            self.tombstones[number] = delegation.serial
        else:
            self.delegations[number] = delegation
            self.tombstones.pop(number, None)
        observed.append(delegation.serial)

    def _publish(
        self, number: str, registrar: RegistrarId, serial: int, now: int, kind: str
    ) -> Delegation:
        """Apply an owned change and queue it for the peers."""
        delegation = Delegation(number, registrar, self.id, serial, now)
        self._apply(delegation, kind)
        self.outbox.append(PeerUpdate(delegation, kind))
        return delegation

    def _owned(self, number: str, registrar: RegistrarId) -> Delegation:
        """This registry's own delegation for *number*, which must point at
        *registrar*."""
        existing = self.lookup_delegation(number)
        if existing.owning_registry != self.id:
            raise NotAuthoritative(
                f"{existing.owning_registry} owns the delegation for {number!r}"
            )
        if existing.registrar != registrar:
            raise StaleOldRegistrar(
                f"delegation for {number!r} points at {existing.registrar!r},"
                f" not {registrar!r}"
            )
        return existing

    def ledger_total(self) -> float:
        return sum(entry.amount for entry in self.billing_ledger)

    # ------------------------------------------------------------ operations

    def register_delegation(
        self,
        number: str,
        registrar: RegistrarId,
        payer: RegistrarId,
        now: int = 0,
        cause: str = "",
    ) -> Delegation:
        """Create or replace a delegation; bills one flat fee per call."""
        if not self.serves(number):
            raise NotAuthoritative(f"{self.id} does not serve {number!r}")
        if registrar not in self.accredited:
            raise UnaccreditedRegistrar(f"{registrar!r} not accredited at {self.id}")
        existing = self.delegations.get(number)
        if existing is not None and existing.owning_registry != self.id:
            raise NotAuthoritative(
                f"{existing.owning_registry} owns the delegation for {number!r}"
            )
        self.billing_ledger.append(BillingEntry(payer, self.flat_fee, number, cause))
        return self._publish(
            number, registrar, self._local_serial(number) + 1, now,
            CREATED if existing is None else CHANGED,
        )

    def lookup_delegation(self, number: str) -> Delegation:
        """Local or replicated delegation for the number."""
        delegation = self.delegations.get(number)
        if delegation is None:
            raise NoDelegation(f"no delegation for {number!r} at {self.id}")
        return delegation

    def notify_registrar_change(
        self,
        number: str,
        new_registrar: RegistrarId,
        old_registrar: RegistrarId,
        payer: RegistrarId | None = None,
        now: int = 0,
        cause: str = "",
        billed: bool = True,
    ) -> Delegation:
        """Repoint the delegation from *old_registrar* to *new_registrar*.

        The registry queues nothing for the old registrar: the transfer's
        own ``TRANSFER_INIT role=notice`` tells it. Rollbacks pass
        ``billed=False``: the fee was charged on the way forward and a
        dispute must not charge again.
        """
        existing = self._owned(number, old_registrar)
        if new_registrar not in self.accredited:
            raise UnaccreditedRegistrar(f"{new_registrar!r} not accredited at {self.id}")
        if billed:
            self.billing_ledger.append(
                BillingEntry(payer or new_registrar, self.flat_fee, number, cause)
            )
        return self._publish(number, new_registrar, existing.serial + 1, now, CHANGED)

    def remove_delegation(
        self, number: str, registrar: RegistrarId, now: int = 0
    ) -> Delegation:
        """Withdraw a delegation (disconnect); not billed."""
        existing = self._owned(number, registrar)
        return self._publish(number, registrar, existing.serial + 1, now, REMOVED)

    def peer_sync(self, updates: list[PeerUpdate]) -> int:
        """Apply peer updates whose serial beats the local replica's.

        Returns the number applied. Re-applying a batch is a no-op, and
        any arrival order converges to the highest serial.
        """
        applied = 0
        for update in updates:
            delegation = update.delegation
            origin = delegation.owning_registry
            if origin == self.id:
                continue
            if origin not in self.peers:
                raise UnknownPeer(f"{origin!r} is not a configured peer of {self.id}")
            if delegation.serial <= self._local_serial(delegation.number):
                continue
            self._apply(delegation, update.kind)
            applied += 1
        return applied


# ---------------------------------------------------------------- actors


class Tier0Actor:
    """Answers DISCOVER frames from the static tier-0 table."""

    def __init__(self, actor_id: str, table: Tier0Table):
        self.actor_id = actor_id
        self.table = table

    def handle_frame(self, frame: Frame, net: Network) -> None:
        if not frame.is_response:
            net.answer(frame, self._dispatch)

    def _dispatch(self, frame: Frame, net: Network) -> Frame:
        return frame.ok_reply(registries=",".join(tier0_discover(frame.get("cc"), self.table)))


class RegistryActor:
    """Frame adapter around :class:`RegistryState`."""

    def __init__(self, state: RegistryState):
        self.state = state
        self.actor_id = state.id

    def _flush_outbox(self, net: Network) -> None:
        updates, self.state.outbox = self.state.outbox, []
        for update in updates:
            delegation = update.delegation
            fields = {
                "number": delegation.number,
                "registrar": delegation.registrar,
                "owner": delegation.owning_registry,
                "serial": str(delegation.serial),
                "updated": str(delegation.updated_at),
                "update_kind": update.kind,
            }
            for peer in self.state.peers:
                net.post(self.actor_id, peer, PEER_UPDATE, fields)

    def handle_frame(self, frame: Frame, net: Network) -> None:
        if frame.is_response:
            # async acknowledgements (e.g. peer update receipts)
            return
        net.answer(frame, self._dispatch)
        # A dispatch that raised queued nothing, so this sends nothing then.
        self._flush_outbox(net)

    def _dispatch(self, frame: Frame, net: Network) -> Frame:
        state = self.state
        number = frame.get("number")
        if frame.kind == LOOKUP:
            delegation = state.lookup_delegation(number)
            return frame.ok_reply(
                registrar=delegation.registrar,
                owner=delegation.owning_registry,
                serial=str(delegation.serial),
            )
        if frame.kind == PEER_UPDATE:
            try:
                serial = int(frame.get("serial", "0"))
                updated_at = int(frame.get("updated", "0"))
            except ValueError:
                raise WireError(
                    f"{PEER_UPDATE} serial {frame.get('serial')!r} or updated"
                    f" {frame.get('updated')!r} is not an integer"
                ) from None
            update = PeerUpdate(
                delegation=Delegation(
                    number=number,
                    registrar=frame.get("registrar"),
                    owning_registry=frame.get("owner"),
                    serial=serial,
                    updated_at=updated_at,
                ),
                kind=frame.get("update_kind", CHANGED),
            )
            applied = state.peer_sync([update])
            return frame.ok_reply(applied=str(applied))
        if frame.kind == REGISTER and frame.get("op") == "remove":
            delegation = state.remove_delegation(number, frame.get("registrar"), now=net.clock)
        elif frame.kind == REGISTER:
            delegation = state.register_delegation(
                number,
                frame.get("registrar"),
                frame.get("payer") or frame.get("registrar"),
                now=net.clock,
                cause=frame.get("event"),
            )
        elif frame.kind == CHANGE:
            delegation = state.notify_registrar_change(
                number,
                frame.get("new"),
                frame.get("old"),
                payer=frame.get("payer") or frame.get("new"),
                now=net.clock,
                cause=frame.get("event"),
                billed=frame.get("rollback") != "1",
            )
        else:
            raise NoDelegation(f"registry {state.id} cannot handle {frame.kind}")
        return frame.ok_reply(serial=str(delegation.serial))
