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

from dataclasses import dataclass, field

from .e164 import ApexConfig, DEFAULT_APEX
from .errors import (
    EnumStackError,
    NoDelegation,
    NotAuthoritative,
    StaleOldRegistrar,
    UnaccreditedRegistrar,
    UnknownCountryCode,
    UnknownPeer,
)
from .simulator import Network
from .wire import CHANGE, Frame, LOOKUP, PEER_UPDATE, REGISTER

RegistryId = str
RegistrarId = str

CREATED = "created"
CHANGED = "changed"
REMOVED = "removed"


@dataclass(frozen=True)
class Tier0Table:
    """Country-code prefix -> authoritative registries."""

    entries: dict[str, tuple[RegistryId, ...]]
    apex: ApexConfig = DEFAULT_APEX

    def __post_init__(self) -> None:
        for prefix, registries in self.entries.items():
            if not (prefix.isdigit() and 1 <= len(prefix) <= 3):
                raise UnknownCountryCode(f"bad tier-0 prefix {prefix!r}")
            if not registries:
                raise UnknownCountryCode(f"tier-0 prefix {prefix!r} maps to no registry")

    @property
    def prefixes(self) -> tuple[str, ...]:
        return tuple(self.entries)


def tier0_discover(cc: str, table: Tier0Table) -> list[RegistryId]:
    """Registries for the longest prefix of *cc* present in the table."""
    for width in range(min(len(cc), 3), 0, -1):
        hit = table.entries.get(cc[:width])
        if hit:
            return list(hit)
    raise UnknownCountryCode(f"no tier-0 entry for country code {cc!r}")


@dataclass(frozen=True)
class Delegation:
    """One number's pointer to its serving registrar."""

    number: str
    registrar: RegistrarId
    owning_registry: RegistryId
    serial: int
    updated_at: int = 0


@dataclass(frozen=True)
class PeerUpdate:
    """Owner-pushed replication event; receivers apply by serial."""

    delegation: Delegation
    kind: str  # created / changed / removed


@dataclass
class BillingEntry:
    payer: RegistrarId
    amount: float
    number: str
    cause: str = ""


@dataclass
class Notice:
    registrar: RegistrarId
    number: str
    message: str


@dataclass
class RegistryState:
    """One Tier-1 registry: delegations, billing ledger, peer replication."""

    id: RegistryId
    served_prefixes: tuple[str, ...] = ()
    peers: tuple[RegistryId, ...] = ()
    accredited: frozenset[RegistrarId] = frozenset()
    flat_fee: float = 1.0
    delegations: dict[str, Delegation] = field(default_factory=dict)
    tombstones: dict[str, int] = field(default_factory=dict)
    billing_ledger: list[BillingEntry] = field(default_factory=list)
    notices: list[Notice] = field(default_factory=list)
    outbox: list[PeerUpdate] = field(default_factory=list)
    # serials as observed locally, per number; must be strictly increasing
    observed_serials: dict[str, list[int]] = field(default_factory=dict)

    # ------------------------------------------------------------ helpers

    def serves(self, number: str) -> bool:
        return any(number.startswith(p) for p in self.served_prefixes)

    def _observe(self, number: str, serial: int) -> None:
        self.observed_serials.setdefault(number, []).append(serial)

    def _local_serial(self, number: str) -> int:
        existing = self.delegations.get(number)
        serial = existing.serial if existing else 0
        return max(serial, self.tombstones.get(number, 0))

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
        serial = self._local_serial(number) + 1
        delegation = Delegation(
            number=number,
            registrar=registrar,
            owning_registry=self.id,
            serial=serial,
            updated_at=now,
        )
        self.delegations[number] = delegation
        self.tombstones.pop(number, None)
        self.billing_ledger.append(BillingEntry(payer, self.flat_fee, number, cause))
        self._observe(number, serial)
        self.outbox.append(
            PeerUpdate(delegation, CREATED if existing is None else CHANGED)
        )
        return delegation

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
        """Repoint the delegation and queue a notice for the old registrar.

        Rollbacks pass ``billed=False``: the fee was charged on the way
        forward and a dispute must not charge again.
        """
        existing = self.delegations.get(number)
        if existing is None:
            raise NoDelegation(f"no delegation for {number!r} at {self.id}")
        if existing.owning_registry != self.id:
            raise NotAuthoritative(
                f"{existing.owning_registry} owns the delegation for {number!r}"
            )
        if existing.registrar != old_registrar:
            raise StaleOldRegistrar(
                f"delegation for {number!r} points at {existing.registrar!r},"
                f" not {old_registrar!r}"
            )
        if new_registrar not in self.accredited:
            raise UnaccreditedRegistrar(f"{new_registrar!r} not accredited at {self.id}")
        delegation = Delegation(
            number=number,
            registrar=new_registrar,
            owning_registry=self.id,
            serial=existing.serial + 1,
            updated_at=now,
        )
        self.delegations[number] = delegation
        if billed:
            self.billing_ledger.append(
                BillingEntry(payer or new_registrar, self.flat_fee, number, cause)
            )
        self.notices.append(
            Notice(old_registrar, number, f"registrar changed to {new_registrar}")
        )
        self._observe(number, delegation.serial)
        self.outbox.append(PeerUpdate(delegation, CHANGED))
        return delegation

    def remove_delegation(
        self, number: str, registrar: RegistrarId, now: int = 0
    ) -> Delegation:
        """Withdraw a delegation (disconnect); not billed."""
        existing = self.delegations.get(number)
        if existing is None:
            raise NoDelegation(f"no delegation for {number!r} at {self.id}")
        if existing.owning_registry != self.id:
            raise NotAuthoritative(
                f"{existing.owning_registry} owns the delegation for {number!r}"
            )
        if existing.registrar != registrar:
            raise StaleOldRegistrar(
                f"delegation for {number!r} points at {existing.registrar!r},"
                f" not {registrar!r}"
            )
        serial = existing.serial + 1
        tombstone = Delegation(
            number=number,
            registrar=registrar,
            owning_registry=self.id,
            serial=serial,
            updated_at=now,
        )
        del self.delegations[number]
        self.tombstones[number] = serial
        self._observe(number, serial)
        self.outbox.append(PeerUpdate(tombstone, REMOVED))
        return tombstone

    def peer_sync(self, updates: list[PeerUpdate]) -> int:
        """Apply peer updates whose serial beats the local replica's.

        Returns the number applied. Re-applying a batch is a no-op, and
        any arrival order converges to the highest serial.
        """
        applied = 0
        for update in updates:
            origin = update.delegation.owning_registry
            if origin == self.id:
                continue
            if origin not in self.peers:
                raise UnknownPeer(f"{origin!r} is not a configured peer of {self.id}")
            number = update.delegation.number
            if update.delegation.serial <= self._local_serial(number):
                continue
            if update.kind == REMOVED:
                self.delegations.pop(number, None)
                self.tombstones[number] = update.delegation.serial
            else:
                self.delegations[number] = update.delegation
                self.tombstones.pop(number, None)
            self._observe(number, update.delegation.serial)
            applied += 1
        return applied


# ---------------------------------------------------------------- actors


class Tier0Actor:
    """Answers DISCOVER frames from the static tier-0 table."""

    def __init__(self, actor_id: str, table: Tier0Table):
        self.actor_id = actor_id
        self.table = table

    def handle_frame(self, frame: Frame, net: Network) -> None:
        if frame.is_response:
            return
        try:
            registries = tier0_discover(frame.get("cc"), self.table)
        except EnumStackError as exc:
            net.send(frame.err_reply(exc))
            return
        net.send(frame.ok_reply(registries=",".join(registries)))


class RegistryActor:
    """Frame adapter around :class:`RegistryState`."""

    def __init__(self, state: RegistryState):
        self.state = state
        self.actor_id = state.id

    def _flush_outbox(self, net: Network) -> None:
        updates, self.state.outbox = self.state.outbox, []
        for update in updates:
            for peer in self.state.peers:
                net.send(
                    Frame(
                        kind=PEER_UPDATE,
                        src=self.actor_id,
                        dst=peer,
                        req_id=net.next_req_id(),
                        fields={
                            "number": update.delegation.number,
                            "registrar": update.delegation.registrar,
                            "owner": update.delegation.owning_registry,
                            "serial": str(update.delegation.serial),
                            "updated": str(update.delegation.updated_at),
                            "update_kind": update.kind,
                        },
                    )
                )

    def handle_frame(self, frame: Frame, net: Network) -> None:
        if frame.is_response:
            # async acknowledgements (e.g. peer update receipts)
            return
        try:
            reply = self._dispatch(frame, net)
        except EnumStackError as exc:
            net.send(frame.err_reply(exc))
            return
        net.send(reply)
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
        if frame.kind == REGISTER:
            if frame.get("op") == "remove":
                tombstone = state.remove_delegation(
                    number, frame.get("registrar"), now=net.clock
                )
                return frame.ok_reply(serial=str(tombstone.serial))
            delegation = state.register_delegation(
                number,
                frame.get("registrar"),
                frame.get("payer") or frame.get("registrar"),
                now=net.clock,
                cause=frame.get("event"),
            )
            return frame.ok_reply(serial=str(delegation.serial))
        if frame.kind == CHANGE:
            delegation = state.notify_registrar_change(
                number,
                frame.get("new"),
                frame.get("old"),
                payer=frame.get("payer") or frame.get("new"),
                now=net.clock,
                cause=frame.get("event"),
                billed=frame.get("rollback") != "1",
            )
            return frame.ok_reply(serial=str(delegation.serial))
        if frame.kind == PEER_UPDATE:
            update = PeerUpdate(
                delegation=Delegation(
                    number=number,
                    registrar=frame.get("registrar"),
                    owning_registry=frame.get("owner"),
                    serial=int(frame.get("serial", "0")),
                    updated_at=int(frame.get("updated", "0")),
                ),
                kind=frame.get("update_kind", CHANGED),
            )
            applied = state.peer_sync([update])
            return frame.ok_reply(applied=str(applied))
        raise NoDelegation(f"registry {state.id} cannot handle {frame.kind}")
