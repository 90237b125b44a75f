"""Tier-2 registrar service.

A registrar hosts the complete NAPTR set for each number it serves,
enforces user-granted access rights over provisioning and reads, runs the
registrar-change (transfer) state machine against the old registrar and
the registry, and implements the two disconnect flavors.

Subscriptions and number assignments live in a shared :class:`Directory`:
the simulator is single-threaded, and keeping the subscriber ledger in
one place mirrors how the artifact snapshots it. Record stores and grants
are strictly per-registrar; a transfer *moves* the record set (the old
registrar hands records over and drops them), so at quiescence every
record lives at exactly one registrar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    AccessDenied,
    AlreadyComplete,
    EnumInactive,
    EnumStackError,
    InvalidRecord,
    NaptrError,
    NoPhoneService,
    NotSubscriber,
    RegistrarError,
    RegistrarKindForbidden,
    SameRegistrar,
    UnaccreditedRegistrar,
    UnknownGrant,
    UnknownSubscription,
    UnknownTransfer,
    VerificationFailed,
)
from .e164 import parse_number
from .naptr import (
    NaptrRecord,
    NaptrRecordSet,
    ServiceSelector,
    Visibility,
    parse_stored_line,
    render_stored_line,
)
from .simulator import Network
from .wire import (
    CHANGE,
    DISCONNECT,
    Frame,
    GET,
    GRANT,
    LOOKUP,
    MIGRATE_REQ,
    MIGRATE_RESP,
    PROVISION,
    REGISTER,
    REVOKE,
    SUBSCRIBE,
    TRANSFER_DISPUTE,
    TRANSFER_INIT,
)


class Role(Enum):
    USER = "User"
    TSP = "TSP"
    ASP = "ASP"
    ISP = "ISP"
    INDEPENDENT = "IndependentRegistrar"
    REGISTRY = "Registry"


@dataclass(frozen=True)
class Party:
    id: str
    role: Role


PROVISION_RIGHT = "provision"
ACCESS_RIGHT = "access"
CHANGE_RIGHT = "change"
ALL_RIGHTS = frozenset({PROVISION_RIGHT, ACCESS_RIGHT, CHANGE_RIGHT})

# Retries of each request a transfer step sends to the old registrar; when
# they all time out the step goes on with a warning.
TRANSFER_RETRIES = 1


class AlreadySubscribed(RegistrarError):
    """Number already has ENUM service at another registrar; transfer instead."""


@dataclass(frozen=True)
class AuthorizationGrant:
    """A user-issued right for a party to touch records in some service scope."""

    grant_id: str
    grantor: str
    grantee: str
    rights: frozenset[str]
    scope: ServiceSelector
    number: str

    def __post_init__(self) -> None:
        if not self.rights or not self.rights <= ALL_RIGHTS:
            raise RegistrarError(f"bad rights {set(self.rights)!r}")

    def covers(self, service: str, needed: frozenset[str]) -> bool:
        return bool(self.rights & needed) and self.scope.matches(service)


@dataclass
class Subscription:
    """Telephone assignment plus ENUM service state for one number."""

    number: str
    user: str
    tsp: str
    token: str
    phone_active: bool = True
    enum_active: bool = False
    serving_registrar: str | None = None

    def check(self) -> None:
        if self.enum_active and not self.phone_active:
            raise RegistrarError(f"{self.number}: ENUM active without phone service")


class Directory:
    """Shared subscriber ledger: assignments, subscriptions, confirmations."""

    def __init__(self) -> None:
        self.subscriptions: dict[str, Subscription] = {}
        self.tsp_confirmations: set[tuple[str, str]] = set()  # (number, registrar)

    def assign(self, number: str, user: str, tsp: str) -> Subscription:
        """A TSP assigns the number: phone service on, ENUM off, fresh token."""
        sub = Subscription(number=number, user=user, tsp=tsp, token=f"tok-{number}")
        self.subscriptions[number] = sub
        return sub

    def confirm(self, number: str, registrar: str) -> None:
        self.tsp_confirmations.add((number, registrar))

    def get(self, number: str) -> Subscription | None:
        return self.subscriptions.get(number)


class TransferState(Enum):
    REQUESTED = "Requested"
    OLD_NOTIFIED = "OldNotified"
    RECORDS_MIGRATED = "RecordsMigrated"
    REGISTRY_UPDATED = "RegistryUpdated"
    COMPLETE = "Complete"
    DISPUTED = "Disputed"


@dataclass
class TransferRecord:
    """One registrar-change in flight, owned by the new registrar."""

    transfer_id: str
    number: str
    from_registrar: str
    to_registrar: str
    user: str
    state: TransferState = TransferState.REQUESTED
    migrated: tuple[NaptrRecord, ...] = ()
    warnings: list[str] = field(default_factory=list)
    history: list[TransferState] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.history:
            self.history.append(self.state)

    @property
    def finished(self) -> bool:
        """Completed or disputed: no further step or dispute is possible."""
        return self.state in (TransferState.COMPLETE, TransferState.DISPUTED)

    def _advance(self, state: TransferState) -> None:
        self.state = state
        self.history.append(state)


@dataclass(frozen=True)
class ModelContext:
    """Administration-model knobs a registrar needs at request time."""

    model_id: int
    registrar_kind: Role
    extra_kinds: frozenset[Role] = frozenset()
    network_related: frozenset[str] = frozenset({"E2U+sip", "E2U+tel"})
    accreditation: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def permitted_kinds(self) -> frozenset[Role]:
        return frozenset({self.registrar_kind}) | self.extra_kinds

    @property
    def tsp_implicit_grant(self) -> bool:
        # Only the TSP-registrar model family gives the TSP standing
        # provisioning rights over network-related services.
        return self.registrar_kind is Role.TSP


def render_store_lines(records: list[NaptrRecord]) -> str:
    return "\n".join(render_stored_line(r) for r in records)


def parse_store_lines(text: str) -> list[NaptrRecord]:
    return [parse_stored_line(line) for line in text.splitlines() if line.strip()]


class RegistrarActor:
    """One Tier-2 registrar: record host, ACL enforcement, transfers."""

    def __init__(
        self,
        registrar_id: str,
        kind: Role,
        home_registry: str,
        ctx: ModelContext,
        directory: Directory,
    ):
        self.actor_id = registrar_id
        self.kind = kind
        self.home_registry = home_registry
        self.ctx = ctx
        self.directory = directory
        self.store: dict[str, list[NaptrRecord]] = {}
        self.grants: dict[str, list[AuthorizationGrant]] = {}
        self.transfers: dict[str, TransferRecord] = {}
        self.transfer_notices: list[tuple[str, str, str]] = []  # (tid, number, to)
        self.warnings: list[str] = []

    # ------------------------------------------------------------ internals

    def _subscription(self, number: str) -> Subscription:
        sub = self.directory.get(number)
        if sub is None:
            raise UnknownSubscription(f"no subscription for {number!r}")
        return sub

    def _subscriber_of(self, number: str, user: str) -> Subscription:
        sub = self._subscription(number)
        if sub.user != user:
            raise NotSubscriber(f"{user!r} is not the subscriber of {number!r}")
        return sub

    def _active_here(self, number: str) -> Subscription:
        sub = self._subscription(number)
        if not sub.enum_active:
            raise EnumInactive(f"{number!r} has no active ENUM service")
        if sub.serving_registrar != self.actor_id:
            raise EnumInactive(
                f"{self.actor_id} is not the serving registrar for {number!r}"
            )
        return sub

    def _check_kind_permitted(self) -> None:
        if self.kind not in self.ctx.permitted_kinds:
            raise RegistrarKindForbidden(
                f"registrar kind {self.kind.value} not permitted in model "
                f"{self.ctx.model_id}"
            )

    def _write_rights(self, sub: Subscription, actor: str, service: str) -> bool:
        if actor == sub.user or actor == self.actor_id:
            return True
        if (
            self.ctx.tsp_implicit_grant
            and actor == sub.tsp
            and service in self.ctx.network_related
        ):
            return True
        needed = frozenset({PROVISION_RIGHT, CHANGE_RIGHT})
        return any(
            g.grantee == actor and g.covers(service, needed)
            for g in self.grants.get(sub.number, ())
        )

    def _read_restricted(self, sub: Subscription, actor: str, service: str) -> bool:
        if actor == sub.user or actor == self.actor_id:
            return True
        needed = frozenset({ACCESS_RIGHT})
        return any(
            g.grantee == actor and g.covers(service, needed)
            for g in self.grants.get(sub.number, ())
        )

    # ------------------------------------------------------------ subscription

    def subscribe_enum(
        self,
        user: str,
        number: str,
        net: Network,
        token: str | None = None,
        confirmed: bool = False,
        payer: str | None = None,
        event: str = "",
    ) -> Subscription:
        """Activate ENUM service for the number at this registrar.

        The user's own TSP verifies by the existing service relationship;
        anyone else needs the assignment proof token or a recorded TSP
        confirmation. Registers the delegation at the home registry.
        """
        sub = self.directory.get(number)
        if sub is None or not sub.phone_active:
            raise NoPhoneService(f"{number!r} has no telephone assignment")
        if sub.user != user:
            raise VerificationFailed(f"{number!r} is assigned to another subscriber")
        self._check_kind_permitted()
        if sub.enum_active and sub.serving_registrar != self.actor_id:
            raise AlreadySubscribed(
                f"{number!r} is served by {sub.serving_registrar}; transfer instead"
            )
        if not (
            (self.kind is Role.TSP and sub.tsp == self.actor_id)
            or (confirmed and (number, self.actor_id) in self.directory.tsp_confirmations)
            or (token is not None and token == sub.token)
        ):
            raise VerificationFailed(
                f"cannot verify assignment of {number!r} to {user!r}"
            )
        accredited = self.ctx.accreditation.get(self.home_registry)
        if accredited is not None and self.actor_id not in accredited:
            raise UnaccreditedRegistrar(
                f"{self.actor_id} not accredited at {self.home_registry}"
            )
        sub.enum_active = True
        sub.serving_registrar = self.actor_id
        sub.check()
        self.store.setdefault(number, [])
        net.send(
            Frame(
                kind=REGISTER,
                src=self.actor_id,
                dst=self.home_registry,
                req_id=net.next_req_id(),
                fields={
                    "number": number,
                    "registrar": self.actor_id,
                    "payer": payer or self.actor_id,
                    "event": event,
                },
            )
        )
        return sub

    # ------------------------------------------------------------ records

    def provision_records(
        self, actor: str, number: str, records: list[NaptrRecord]
    ) -> NaptrRecordSet:
        """Merge records into the number's set, replacing by
        (service, order, preference). Every record's service must be
        within the actor's rights."""
        sub = self._active_here(number)
        for rec in records:
            if not isinstance(rec, NaptrRecord):
                raise InvalidRecord(f"not a record: {rec!r}")
            if not self._write_rights(sub, actor, rec.service):
                raise AccessDenied(
                    f"{actor!r} may not provision {rec.service} for {number!r}"
                )
        current = self.store.setdefault(number, [])
        for rec in records:
            for i, existing in enumerate(current):
                if existing.merge_key() == rec.merge_key():
                    current[i] = rec
                    break
            else:
                current.append(rec)
        return self.record_set(number)

    def record_set(self, number: str) -> NaptrRecordSet:
        return NaptrRecordSet(
            number=parse_number("+" + number),
            records=tuple(self.store.get(number, ())),
        )

    def get_records(
        self,
        actor: str,
        number: str,
        selector: ServiceSelector = ServiceSelector(),
    ) -> NaptrRecordSet:
        """Filtered view: public records for anyone, restricted ones only
        for actors with access rights. Never raises; inactive or foreign
        numbers yield an empty view."""
        sub = self.directory.get(number)
        visible: tuple[NaptrRecord, ...] = ()
        if sub is not None and sub.enum_active and sub.serving_registrar == self.actor_id:
            visible = tuple(
                rec
                for rec in self.store.get(number, ())
                if selector.matches(rec.service)
                and (
                    rec.visibility is Visibility.PUBLIC
                    or self._read_restricted(sub, actor, rec.service)
                )
            )
        return NaptrRecordSet(number=parse_number("+" + number), records=visible)

    # ------------------------------------------------------------ grants

    def grant_access(
        self,
        user: str,
        grantee: str,
        rights: frozenset[str],
        scope: ServiceSelector,
        number: str,
        grant_id: str,
    ) -> AuthorizationGrant:
        self._subscriber_of(number, user)
        grant = AuthorizationGrant(
            grant_id=grant_id,
            grantor=user,
            grantee=grantee,
            rights=frozenset(rights),
            scope=scope,
            number=number,
        )
        self.grants.setdefault(number, []).append(grant)
        return grant

    def revoke_access(self, user: str, number: str, grant_id: str) -> None:
        self._subscriber_of(number, user)
        grants = self.grants.get(number, [])
        for i, grant in enumerate(grants):
            if grant.grant_id == grant_id:
                del grants[i]
                return
        raise UnknownGrant(f"no grant {grant_id!r} for {number!r}")

    # ------------------------------------------------------------ transfers

    def begin_transfer(
        self, user: str, number: str, transfer_id: str
    ) -> TransferRecord:
        """Open a registrar change toward this registrar (state Requested)."""
        sub = self._subscription(number)
        if not sub.enum_active:
            raise EnumInactive(f"{number!r} has no active ENUM service")
        if sub.user != user:
            raise NotSubscriber(f"{user!r} is not the subscriber of {number!r}")
        if sub.serving_registrar == self.actor_id:
            raise SameRegistrar(f"{number!r} is already served by {self.actor_id}")
        self._check_kind_permitted()
        record = TransferRecord(
            transfer_id=transfer_id,
            number=number,
            from_registrar=sub.serving_registrar or "",
            to_registrar=self.actor_id,
            user=user,
        )
        self.transfers[transfer_id] = record
        return record

    def _delegation_owner(self, number: str, net: Network) -> str:
        resp = net.request(
            self.actor_id, self.home_registry, LOOKUP, {"number": number}
        )
        if resp is not None and resp.ok:
            return resp.get("owner") or self.home_registry
        return self.home_registry

    def step_transfer(self, transfer_id: str, net: Network, event: str = "") -> TransferRecord:
        """Advance the transfer one state; unreachable old registrars are
        retried, then skipped with a warning rather than blocking."""
        record = self.transfers.get(transfer_id)
        if record is None:
            raise UnknownTransfer(f"no transfer {transfer_id!r}")
        if record.finished:
            raise AlreadyComplete(f"transfer {transfer_id!r} is {record.state.value}")

        if record.state is TransferState.REQUESTED:
            resp = net.request(
                self.actor_id,
                record.from_registrar,
                TRANSFER_INIT,
                {
                    "role": "notice",
                    "number": record.number,
                    "to": self.actor_id,
                    "transfer": transfer_id,
                    "user": record.user,
                },
                retries=TRANSFER_RETRIES,
            )
            if resp is None:
                record.warnings.append(
                    f"old registrar {record.from_registrar} unreachable for notice"
                )
            record._advance(TransferState.OLD_NOTIFIED)
            return record

        if record.state is TransferState.OLD_NOTIFIED:
            resp = net.request(
                self.actor_id,
                record.from_registrar,
                MIGRATE_REQ,
                {"number": record.number, "transfer": transfer_id},
                retries=TRANSFER_RETRIES,
            )
            if resp is None or not resp.ok:
                record.warnings.append(
                    f"old registrar {record.from_registrar} unreachable for migration;"
                    " proceeding with empty set"
                )
                record.migrated = ()
            else:
                record.migrated = tuple(parse_store_lines(resp.get("records")))
            record._advance(TransferState.RECORDS_MIGRATED)
            return record

        if record.state is TransferState.RECORDS_MIGRATED:
            owner = self._delegation_owner(record.number, net)
            resp = net.request(
                self.actor_id,
                owner,
                CHANGE,
                {
                    "number": record.number,
                    "new": self.actor_id,
                    "old": record.from_registrar,
                    "payer": self.actor_id,
                    "event": event,
                },
            )
            if resp is None or not resp.ok:
                status = "timeout" if resp is None else resp.status
                raise RegistrarError(
                    f"registry update failed for transfer {transfer_id!r}: {status}"
                )
            self.store[record.number] = list(record.migrated)
            sub = self._subscription(record.number)
            sub.serving_registrar = self.actor_id
            record._advance(TransferState.REGISTRY_UPDATED)
            return record

        record._advance(TransferState.COMPLETE)
        return record

    def run_transfer(
        self, user: str, number: str, transfer_id: str, net: Network, event: str = ""
    ) -> TransferRecord:
        self.begin_transfer(user, number, transfer_id)
        return self.finish_transfer(transfer_id, net, event=event)

    def finish_transfer(self, transfer_id: str, net: Network, event: str = "") -> TransferRecord:
        """Step an open transfer until it completes or is disputed."""
        while True:
            record = self.step_transfer(transfer_id, net, event=event)
            if record.finished:
                return record

    def dispute_transfer(
        self, old_registrar: str, transfer_id: str, reason: str, net: Network
    ) -> TransferRecord:
        """Dispute a pending transfer: roll everything back to the old
        registrar and park the record in Disputed."""
        record = self.transfers.get(transfer_id)
        if record is None:
            raise UnknownTransfer(f"no transfer {transfer_id!r}")
        if record.from_registrar != old_registrar:
            raise UnknownTransfer(
                f"transfer {transfer_id!r} does not involve {old_registrar!r}"
            )
        if record.finished:
            raise AlreadyComplete(f"transfer {transfer_id!r} is {record.state.value}")

        if record.state is TransferState.REGISTRY_UPDATED:
            owner = self._delegation_owner(record.number, net)
            net.request(
                self.actor_id,
                owner,
                CHANGE,
                {
                    "number": record.number,
                    "new": record.from_registrar,
                    "old": self.actor_id,
                    "rollback": "1",
                },
            )
            self.store.pop(record.number, None)
            sub = self._subscription(record.number)
            sub.serving_registrar = record.from_registrar

        if record.state in (
            TransferState.RECORDS_MIGRATED,
            TransferState.REGISTRY_UPDATED,
        ):
            resp = net.request(
                self.actor_id,
                record.from_registrar,
                MIGRATE_RESP,
                {
                    "restore": "1",
                    "number": record.number,
                    "records": render_store_lines(list(record.migrated)),
                },
                retries=TRANSFER_RETRIES,
            )
            if resp is None:
                record.warnings.append(
                    f"could not return records to {record.from_registrar}"
                )
            record.migrated = ()

        record._advance(TransferState.DISPUTED)
        return record

    # ------------------------------------------------------------ disconnect

    def disconnect(
        self, user: str, number: str, kind: str, net: Network
    ) -> Subscription:
        """``enum_only`` withdraws ENUM service but keeps the phone number;
        ``telephone`` drops both and purges all ENUM state."""
        sub = self._subscriber_of(number, user)
        if kind not in ("enum_only", "telephone"):
            raise RegistrarError(f"unknown disconnect kind {kind!r}")
        if sub.enum_active and sub.serving_registrar != self.actor_id:
            # only the serving registrar can withdraw the delegation
            raise UnknownSubscription(
                f"{number!r} is served by {sub.serving_registrar}, not {self.actor_id}"
            )
        had_enum = sub.enum_active and sub.serving_registrar == self.actor_id
        sub.enum_active = False
        serving = sub.serving_registrar
        sub.serving_registrar = None
        self.store.pop(number, None)
        self.grants.pop(number, None)
        if kind == "telephone":
            sub.phone_active = False
            sub.token = ""
        sub.check()
        if had_enum and serving == self.actor_id:
            net.send(
                Frame(
                    kind=REGISTER,
                    src=self.actor_id,
                    dst=self.home_registry,
                    req_id=net.next_req_id(),
                    fields={"number": number, "registrar": self.actor_id, "op": "remove"},
                )
            )
        return sub

    # ------------------------------------------------------------ frames

    def handle_frame(self, frame: Frame, net: Network) -> None:
        if frame.is_response:
            if not frame.ok:
                self.warnings.append(
                    f"{frame.kind} at {frame.src} failed: {frame.status}"
                )
            return
        try:
            reply = self._dispatch(frame, net)
        except EnumStackError as exc:
            net.send(frame.err_reply(exc))
            return
        net.send(reply)

    def _dispatch(self, frame: Frame, net: Network) -> Frame:
        number = frame.get("number")
        if frame.kind == SUBSCRIBE:
            self.subscribe_enum(
                frame.get("user"),
                number,
                net,
                token=frame.get("token") or None,
                confirmed=frame.get("confirmed") == "1",
                payer=frame.get("payer") or None,
                event=frame.get("event"),
            )
            return frame.ok_reply(registrar=self.actor_id, registry=self.home_registry)
        if frame.kind == PROVISION:
            try:
                records = parse_store_lines(frame.get("records"))
            except NaptrError as exc:
                raise InvalidRecord(str(exc)) from exc
            result = self.provision_records(frame.get("actor"), number, records)
            return frame.ok_reply(
                count=str(len(result)),
                services=",".join(r.service for r in records),
            )
        if frame.kind == GET:
            sub = self.directory.get(number)
            if sub is None or sub.serving_registrar != self.actor_id:
                return frame.reply(status="NoDelegation", records="")
            if not sub.enum_active:
                return frame.reply(status="EnumInactive", records="")
            view = self.get_records(
                frame.get("actor"),
                number,
                ServiceSelector(frame.get("service") or "*"),
            )
            return frame.ok_reply(records=render_store_lines(list(view.records)))
        if frame.kind == GRANT:
            grant = self.grant_access(
                frame.get("user"),
                frame.get("grantee"),
                frozenset(r for r in frame.get("rights").split(",") if r),
                ServiceSelector(frame.get("scope") or "*"),
                number,
                frame.get("grant_id"),
            )
            return frame.ok_reply(grant=grant.grant_id)
        if frame.kind == REVOKE:
            self.revoke_access(frame.get("user"), number, frame.get("grant_id"))
            return frame.ok_reply()
        if frame.kind == TRANSFER_INIT:
            if frame.get("role") == "notice":
                self.transfer_notices.append(
                    (frame.get("transfer"), number, frame.get("to"))
                )
                return frame.ok_reply()
            record = self.begin_transfer(
                frame.get("user"), number, frame.get("transfer")
            )
            return frame.ok_reply(transfer=record.transfer_id, state=record.state.value)
        if frame.kind == TRANSFER_DISPUTE:
            record = self.dispute_transfer(
                frame.get("by"), frame.get("transfer"), frame.get("reason"), net
            )
            return frame.ok_reply(state=record.state.value)
        if frame.kind == DISCONNECT:
            self.disconnect(frame.get("user"), number, frame.get("kind_arg"), net)
            return frame.ok_reply()
        if frame.kind == MIGRATE_REQ:
            records = self.store.pop(number, [])
            self.grants.pop(number, None)
            return frame.ok_reply(records=render_store_lines(records))
        if frame.kind == MIGRATE_RESP and frame.get("restore") == "1":
            self.store[number] = parse_store_lines(frame.get("records"))
            return frame.ok_reply()
        raise RegistrarError(f"registrar {self.actor_id} cannot handle {frame.kind}")
