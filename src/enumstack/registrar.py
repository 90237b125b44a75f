"""Tier-2 registrar service.

A registrar hosts the complete NAPTR set for each number it serves,
enforces user-granted access rights over provisioning and reads, runs the
registrar-change (transfer) state machine against the old registrar and
the registry, and implements the two disconnect flavors. It acts only on
a frame it receives, so an offline registrar takes no step: each client
write, a transfer's steps included (``TRANSFER_STEP``), is one request to
:meth:`RegistrarActor.handle_frame`. A ``TRANSFER_STEP`` takes the next
state only from the state it names, so a retried step takes no second.

Subscriptions, number assignments and the lock of each number under
transfer live in a shared :class:`Directory`: the simulator is
single-threaded, and one ledger mirrors how the artifact snapshots it.
Record stores and grants are per-registrar. A transfer owns its number
until it ends, as an EPP object in ``pendingTransfer`` does: no registrar
takes a write, a subscription, a disconnect or a second transfer for it
(:class:`TransferPending`). The old registrar answers ``MIGRATE_REQ`` with
a copy and keeps its records and grants, drops them at the
``MIGRATE_RESP`` the new one sends at ``Complete``, and goes on serving
after a dispute. A registrar taking a number merges the migrated set over
a copy a failed migration left there.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, MutableMapping
from enum import Enum
from typing import TypeVar

from ._record import HashedRecord, Record
from .errors import (
    AccessDenied,
    AlreadyComplete,
    AlreadySubscribed,
    EnumInactive,
    InvalidRecord,
    NaptrError,
    NoPhoneService,
    NotSubscriber,
    RegistrarError,
    SameRegistrar,
    TransferPending,
    UnaccreditedRegistrar,
    UnknownGrant,
    UnknownSubscription,
    UnknownTransfer,
    VerificationFailed,
)
from .naptr import (
    NaptrRecord,
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
    TRANSFER_STEP,
)


class Role(Enum):
    USER = "User"
    TSP = "TSP"
    ASP = "ASP"
    INDEPENDENT = "IndependentRegistrar"
    REGISTRY = "Registry"


class Party:
    __slots__ = ("id", "role")

    def __init__(self, id: str, role: Role) -> None:
        self.id, self.role = id, role


PROVISION_RIGHT = "provision"
ACCESS_RIGHT = "access"
CHANGE_RIGHT = "change"
ALL_RIGHTS = frozenset({PROVISION_RIGHT, ACCESS_RIGHT, CHANGE_RIGHT})
# A party needs one of these rights to write records, or to read restricted ones.
WRITE_RIGHTS = frozenset({PROVISION_RIGHT, CHANGE_RIGHT})
READ_RIGHTS = frozenset({ACCESS_RIGHT})


def _check_storable(**names: str) -> None:
    """Refuse a name that a state file, split at "|" and line breaks, cannot hold."""
    for field_name, value in names.items():
        if "|" in value or "\n" in value or "\r" in value:
            raise RegistrarError(f"{field_name} {value!r} may not hold '|' or a line break")


class AuthorizationGrant(HashedRecord):
    """A user-issued right for a party to touch records in some service scope."""

    __slots__ = ("grant_id", "grantor", "grantee", "rights", "scope")

    def __init__(
        self, grant_id: str, grantor: str, grantee: str, rights: frozenset[str],
        scope: ServiceSelector,
    ) -> None:
        if not rights or not rights <= ALL_RIGHTS:
            raise RegistrarError(f"bad rights {set(rights)!r}")
        self.grant_id = grant_id
        self.grantor = grantor
        self.grantee = grantee
        self.rights = rights
        self.scope = scope

    def covers(self, service: str, needed: frozenset[str]) -> bool:
        return bool(self.rights & needed) and self.scope.matches(service)


class Subscription(Record):
    """Telephone assignment plus ENUM service state for one number."""

    __slots__ = (
        "number", "user", "tsp", "token", "phone_active", "enum_active", "serving_registrar",
    )

    def __init__(
        self, number: str, user: str, tsp: str, token: str, phone_active: bool = True,
        enum_active: bool = False, serving_registrar: str | None = None,
    ) -> None:
        self.number = number
        self.user = user
        self.tsp = tsp
        self.token = token
        self.phone_active = phone_active
        self.enum_active = enum_active
        self.serving_registrar = serving_registrar

    def check(self) -> None:
        if self.enum_active and not self.phone_active:
            raise RegistrarError(f"{self.number}: ENUM active without phone service")


class Directory:
    """Shared subscriber ledger: assignments, subscriptions, confirmations."""

    def __init__(self) -> None:
        self.subscriptions: RecordStore[Subscription] = RecordStore()
        self.tsp_confirmations: set[tuple[str, str]] = set()  # (number, registrar)
        # number -> its latest transfer, which locks it until it is finished
        self.transfers: dict[str, TransferRecord] = {}

    def assign(self, number: str, user: str, tsp: str) -> Subscription:
        """A TSP assigns the number: phone service on, ENUM off, fresh token."""
        _check_storable(user=user, tsp=tsp)
        sub = Subscription(number=number, user=user, tsp=tsp, token=f"tok-{number}")
        self.subscriptions[number] = sub
        return sub

    def confirm(self, number: str, registrar: str) -> None:
        self.tsp_confirmations.add((number, registrar))

    def get(self, number: str) -> Subscription | None:
        return self.subscriptions.get(number)

    def subscription(self, number: str) -> Subscription:
        """The number's subscription; :class:`UnknownSubscription` if none."""
        sub = self.subscriptions.get(number)
        if sub is None:
            raise UnknownSubscription(f"no subscription for {number!r}")
        return sub


class TransferState(Enum):
    REQUESTED = "Requested"
    OLD_NOTIFIED = "OldNotified"
    RECORDS_MIGRATED = "RecordsMigrated"
    REGISTRY_UPDATED = "RegistryUpdated"
    COMPLETE = "Complete"
    DISPUTED = "Disputed"


class TransferRecord:
    """One registrar-change in flight, owned by the new registrar."""

    __slots__ = (
        "transfer_id", "number", "from_registrar", "to_registrar", "user", "migrated",
        "warnings", "history", "registry",
    )

    def __init__(
        self, transfer_id: str, number: str, from_registrar: str, to_registrar: str, user: str
    ) -> None:
        self.transfer_id = transfer_id
        self.number = number
        self.from_registrar = from_registrar
        self.to_registrar = to_registrar
        self.user = user
        self.migrated: tuple[NaptrRecord, ...] | None = None  # until MIGRATE_REQ is answered
        self.warnings: list[str] = []
        self.history = [TransferState.REQUESTED]
        self.registry = ""  # the registry that answered the CHANGE, from RegistryUpdated on

    @property
    def state(self) -> TransferState:
        return self.history[-1]

    @property
    def finished(self) -> bool:
        """Completed or disputed: no further step or dispute is possible."""
        return self.state in (TransferState.COMPLETE, TransferState.DISPUTED)

    def _advance(self, state: TransferState) -> None:
        self.history.append(state)


def render_store_lines(records: Iterable[NaptrRecord]) -> str:
    return "\n".join(render_stored_line(r) for r in records)


def translate_newlines(text: str) -> str:
    """*text* with ``\\r\\n`` and ``\\r`` read as ``\\n``, as text-mode reads do.

    Stored text ends its lines at ``\\n`` once translated, and nowhere
    else: never at U+2028 or the other characters :meth:`str.splitlines`
    also breaks at, which a logged name or a record may hold.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def parse_store_lines(text: str) -> list[NaptrRecord]:
    """Inverse of :func:`render_store_lines`; blank lines are skipped.

    Lines break as in a state file (see :func:`translate_newlines`), so
    every record this accepts can be saved and loaded again.
    """
    lines = translate_newlines(text).split("\n")
    return [parse_stored_line(line) for line in lines if line.strip()]


V = TypeVar("V")


class RecordStore(MutableMapping[str, V]):
    """A lazy ``number -> value`` map: a registrar's records, a registry's
    delegations or the directory's subscriptions.

    A number's value is held as its stored text, a ``str``, until
    something reads the number, and *parse* then turns the text into the
    value, which replaces it. No value a store holds (a record list, a
    :class:`~enumstack.registry.Delegation`, a :class:`Subscription`) is a
    ``str``, so the type alone tells text from value. Reading one number
    (``[]``, ``get``, ``setdefault``, ``pop``) parses that number only;
    membership, length, iteration over numbers, assignment, ``del``,
    :meth:`held` and :meth:`numbers_with_records` parse nothing. A view of
    the values (``items``, ``values``, ``==``) parses every unread number.
    A parse that fails leaves the text in place. In-process topologies use
    the same class with no text; a store that a state file fills starts as
    a :class:`PendingStore`. So do a registrar's grants and a registry's
    observed serials, which a state file fills too and which are plain
    dicts otherwise: a walk makes them stores that hold no text.
    """

    __slots__ = ("_values", "_parse")

    def __init__(
        self, values: dict[str, V | str] | None = None, parse: Callable[[str], V] | None = None
    ) -> None:
        """Adopt *values* (values, or stored text for *parse*); the caller
        hands the dict over and keeps no reference to it."""
        self._values = {} if values is None else values
        self._parse = parse

    def __getitem__(self, number: str) -> V:
        value = self._values[number]
        if value.__class__ is str:
            value = self._values[number] = self._parse(value)
        return value

    def get(self, number: str, default: V | None = None) -> V | None:
        # One dict lookup for a value; Mapping.get would raise and catch a
        # KeyError on every miss.
        value = self._values.get(number, default)
        if value.__class__ is str and number in self._values:  # not a str default
            value = self._values[number] = self._parse(value)
        return value

    def __setitem__(self, number: str, value: V) -> None:
        self._values[number] = value

    def __delitem__(self, number: str) -> None:
        del self._values[number]

    def __contains__(self, number: object) -> bool:
        return number in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def held(self) -> dict[str, V | str]:
        """The map as it is held, for a caller that only reads it: each
        number's value, or its stored text while nothing has read it."""
        return self._values

    def numbers_with_records(self) -> list[str]:
        """For a store of record lists: the numbers holding at least one
        record; a number's text holds one, and stays unread."""
        return [number for number, value in self._values.items() if value]


class PendingStore(RecordStore[V]):
    """A :class:`RecordStore` that a state file fills, before the file's
    walk has run.

    The first use of any method runs *walk*, which reads the file into
    this store and every other store the file fills, each through
    :meth:`settle`, and so makes each a plain :class:`RecordStore`. A walk
    that fails leaves the stores pending, and their next use walks again.
    """

    __slots__ = ()

    def __init__(self, walk: Callable[[], None]) -> None:
        super().__init__({}, walk)  # the walk waits in the parse slot

    def settle(self, values: dict[str, V | str], parse: Callable[[str], V] | None) -> None:
        """Adopt *values* and *parse*, as :class:`RecordStore` does, and
        become one."""
        self._values, self._parse = values, parse
        self.__class__ = RecordStore


def _walk_first(name: str) -> Callable:
    method = getattr(RecordStore, name)

    def first_use(self: PendingStore, *args):
        self._parse()  # the walk, which settles this store
        return method(self, *args)

    first_use.__name__ = name
    return first_use


# The mixin methods of MutableMapping (pop, items, ==, ...) reach these.
for _name in (
    "__getitem__", "get", "__setitem__", "__delitem__", "__contains__", "__len__", "__iter__",
    "held", "numbers_with_records",
):
    setattr(PendingStore, _name, _walk_first(_name))
del _name


class RegistrarActor:
    """One Tier-2 registrar: record host, ACL enforcement, transfers.

    *kind* is the model's registrar kind, and *accredited* is the home
    registry's accreditation list; :class:`~enumstack.scenarios.Topology`
    builds both from the scenario config.
    """

    def __init__(
        self,
        registrar_id: str,
        kind: Role,
        home_registry: str,
        directory: Directory,
        network_related: frozenset[str],
        accredited: frozenset[str],
    ):
        self.actor_id = registrar_id
        self.kind = kind
        self.home_registry = home_registry
        self.directory = directory
        self.network_related = frozenset(s.lower() for s in network_related)
        self.accredited = accredited
        self.store = RecordStore()
        self.grants: MutableMapping[str, list[AuthorizationGrant]] = {}
        self.transfers: dict[str, TransferRecord] = {}
        self.warnings: list[str] = []

    # ------------------------------------------------------------ internals

    def _check_unlocked(self, number: str) -> None:
        latest = self.directory.transfers.get(number)
        if latest is not None and not latest.finished:
            raise TransferPending(f"{number!r} is under transfer {latest.transfer_id!r}")

    def _subscriber_of(self, number: str, user: str) -> Subscription:
        sub = self.directory.subscription(number)
        if sub.user != user:
            raise NotSubscriber(f"{user!r} is not the subscriber of {number!r}")
        return sub

    def _active_here(self, number: str) -> Subscription:
        sub = self.directory.subscription(number)
        if not sub.enum_active:
            raise EnumInactive(f"{number!r} has no active ENUM service")
        if sub.serving_registrar != self.actor_id:
            raise EnumInactive(
                f"{self.actor_id} is not the serving registrar for {number!r}"
            )
        return sub

    def _may(
        self, sub: Subscription, actor: str, service: str, needed: frozenset[str]
    ) -> bool:
        """Whether *actor* holds one of the *needed* rights over *service*:
        the subscriber and this registrar hold all, in the TSP models the
        number's TSP may write network-related services, whatever the case
        of their name, and others need a grant."""
        if actor == sub.user or actor == self.actor_id:
            return True
        if (
            PROVISION_RIGHT in needed
            and self.kind is Role.TSP
            and actor == sub.tsp
            and service.lower() in self.network_related
        ):
            return True
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
        confirmation. Registers the delegation at the home registry. A
        registrar that did not serve the number drops the records and grants it held for it.
        """
        self._check_unlocked(number)
        sub = self.directory.get(number)
        if sub is None or not sub.phone_active:
            raise NoPhoneService(f"{number!r} has no telephone assignment")
        if sub.user != user:
            raise VerificationFailed(f"{number!r} is assigned to another subscriber")
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
        if self.actor_id not in self.accredited:
            raise UnaccreditedRegistrar(
                f"{self.actor_id} not accredited at {self.home_registry}"
            )
        if sub.serving_registrar != self.actor_id:
            self.grants.pop(number, None)
            self.store.pop(number, None)
        sub.enum_active = True
        sub.serving_registrar = self.actor_id
        sub.check()
        self.store.setdefault(number, [])
        net.post(
            self.actor_id,
            self.home_registry,
            REGISTER,
            {
                "number": number,
                "registrar": self.actor_id,
                "payer": payer or self.actor_id,
                "event": event,
            },
        )
        return sub

    # ------------------------------------------------------------ records

    def provision_records(
        self, actor: str, number: str, records: list[NaptrRecord]
    ) -> tuple[NaptrRecord, ...]:
        """Merge records into the number's set, replacing by
        (service, order, preference), and return the merged set. Every
        record's service must be within the actor's rights."""
        self._check_unlocked(number)
        sub = self._active_here(number)
        for rec in records:
            if not isinstance(rec, NaptrRecord):
                raise InvalidRecord(f"not a record: {rec!r}")
            if not self._may(sub, actor, rec.service, WRITE_RIGHTS):
                raise AccessDenied(
                    f"{actor!r} may not provision {rec.service} for {number!r}"
                )
        self._merge(number, records)
        return tuple(self.store[number])

    def _merge(self, number: str, records: Iterable[NaptrRecord]) -> None:
        current = self.store.setdefault(number, [])
        for rec in records:
            for i, existing in enumerate(current):
                if existing.merge_key() == rec.merge_key():
                    current[i] = rec
                    break
            else:
                current.append(rec)

    def get_records(
        self,
        actor: str,
        number: str,
        selector: ServiceSelector = ServiceSelector(),
    ) -> tuple[NaptrRecord, ...]:
        """The records of *number* that *selector* matches and *actor* may
        read: public records for anyone, restricted ones only for actors
        with access rights. The ``GET`` reply renders this set. Never
        raises; an inactive or foreign number gives ``()``."""
        sub = self.directory.get(number)
        if sub is None or not sub.enum_active or sub.serving_registrar != self.actor_id:
            return ()
        return tuple(
            rec
            for rec in self.store.get(number, ())
            if selector.matches(rec.service)
            and (
                rec.visibility is Visibility.PUBLIC
                or self._may(sub, actor, rec.service, READ_RIGHTS)
            )
        )

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
        self._check_unlocked(number)
        self._subscriber_of(number, user)
        _check_storable(grantee=grantee, scope=scope.service)
        grant = AuthorizationGrant(
            grant_id=grant_id,
            grantor=user,
            grantee=grantee,
            rights=frozenset(rights),
            scope=scope,
        )
        self.grants.setdefault(number, []).append(grant)
        return grant

    def revoke_access(self, user: str, number: str, grant_id: str) -> None:
        self._check_unlocked(number)
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
        """Open a registrar change toward this registrar (state Requested),
        and lock the number until it ends."""
        self._check_unlocked(number)
        sub = self.directory.subscription(number)
        if not sub.enum_active:
            raise EnumInactive(f"{number!r} has no active ENUM service")
        if sub.user != user:
            raise NotSubscriber(f"{user!r} is not the subscriber of {number!r}")
        if sub.serving_registrar == self.actor_id:
            raise SameRegistrar(f"{number!r} is already served by {self.actor_id}")
        record = TransferRecord(
            transfer_id=transfer_id,
            number=number,
            from_registrar=sub.serving_registrar or "",
            to_registrar=self.actor_id,
            user=user,
        )
        self.transfers[transfer_id] = self.directory.transfers[number] = record
        return record

    def _repoint(
        self, number: str, new: str, old: str, net: Network, **fields: str
    ) -> Frame | None:
        """Ask the registry that owns the number's delegation (the home
        registry when the lookup fails) to repoint it from *old* to *new*."""
        resp = net.request(self.actor_id, self.home_registry, LOOKUP, {"number": number})
        owner = resp.get("owner") if resp is not None and resp.ok else ""
        return net.request(
            self.actor_id,
            owner or self.home_registry,
            CHANGE,
            {"number": number, "new": new, "old": old, **fields},
        )

    def step_transfer(self, transfer_id: str, net: Network, event: str = "") -> TransferRecord:
        """Advance the transfer one state; unreachable old registrars are
        retried, then skipped with a warning rather than blocking. A failed
        repoint leaves the transfer, and the number's lock, in place."""
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
            )
            if resp is None or not resp.ok:
                record.warnings.append(
                    f"old registrar {record.from_registrar} unreachable for migration;"
                    " proceeding with empty set"
                )
            else:
                record.migrated = tuple(parse_store_lines(resp.get("records")))
            record._advance(TransferState.RECORDS_MIGRATED)
            return record

        if record.state is TransferState.RECORDS_MIGRATED:
            resp = self._repoint(
                record.number, self.actor_id, record.from_registrar, net,
                payer=self.actor_id, event=event,
            )
            if resp is None or not resp.ok:
                status = "timeout" if resp is None else resp.status
                raise RegistrarError(
                    f"registry update failed for transfer {transfer_id!r}: {status};"
                    f" {transfer_id} stays in {record.state.value}"
                )
            # A copy a failed migration stranded here stays, under the new one.
            self._merge(record.number, record.migrated or ())
            self.grants.pop(record.number, None)
            self.directory.subscription(record.number).serving_registrar = self.actor_id
            record.registry = resp.src
            record._advance(TransferState.REGISTRY_UPDATED)
            return record

        if record.migrated is not None:  # the old registrar answered: it holds a copy
            resp = net.request(
                self.actor_id, record.from_registrar, MIGRATE_RESP,
                {"number": record.number, "transfer": transfer_id},
            )
            if resp is None:
                record.warnings.append(
                    f"old registrar {record.from_registrar} unreachable to drop its copy"
                )
        record._advance(TransferState.COMPLETE)
        return record

    def dispute_transfer(
        self, old_registrar: str, transfer_id: str, reason: str, net: Network
    ) -> TransferRecord:
        """Dispute a pending transfer: roll the delegation back to the old
        registrar, which kept its records and grants, drop this registrar's
        copy, and park the record in Disputed."""
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
            self._repoint(record.number, record.from_registrar, self.actor_id, net, rollback="1")
            migrated = record.migrated or ()
            kept = [r for r in self.store.pop(record.number, ()) if r not in migrated]
            if kept:  # a copy a failed migration left here
                self.store[record.number] = kept
            self.grants.pop(record.number, None)
            self.directory.subscription(record.number).serving_registrar = record.from_registrar
        record._advance(TransferState.DISPUTED)
        return record

    # ------------------------------------------------------------ disconnect

    def disconnect(
        self, user: str, number: str, kind: str, net: Network
    ) -> Subscription:
        """``enum_only`` withdraws ENUM service but keeps the phone number;
        ``telephone`` drops both and purges all ENUM state."""
        self._check_unlocked(number)
        sub = self._subscriber_of(number, user)
        if kind not in ("enum_only", "telephone"):
            raise RegistrarError(f"unknown disconnect kind {kind!r}")
        if sub.enum_active and sub.serving_registrar != self.actor_id:
            # only the serving registrar can withdraw the delegation
            raise UnknownSubscription(
                f"{number!r} is served by {sub.serving_registrar}, not {self.actor_id}"
            )
        had_enum = sub.enum_active
        sub.enum_active = False
        sub.serving_registrar = None
        self.store.pop(number, None)
        self.grants.pop(number, None)
        if kind == "telephone":
            sub.phone_active = False
            sub.token = ""
        sub.check()
        if had_enum:
            net.post(
                self.actor_id,
                self.home_registry,
                REGISTER,
                {"number": number, "registrar": self.actor_id, "op": "remove"},
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
        net.answer(frame, self._dispatch)

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
            records = self.get_records(
                frame.get("actor"), number, ServiceSelector(frame.get("service") or "*")
            )
            return frame.ok_reply(records=render_store_lines(records))
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
                return frame.ok_reply()
            record = self.begin_transfer(frame.get("user"), number, frame.get("transfer"))
            return frame.ok_reply(transfer=record.transfer_id, state=record.state.value)
        if frame.kind == TRANSFER_STEP:
            # Only from the state the client saw, so a retry whose first
            # attempt took the step is told the state it reached.
            record = self.transfers.get(frame.get("transfer"))
            if record is None or record.state.value == frame.get("state"):
                record = self.step_transfer(frame.get("transfer"), net, event=frame.get("event"))
            return frame.ok_reply(state=record.state.value)
        if frame.kind == TRANSFER_DISPUTE:
            record = self.dispute_transfer(
                frame.get("by"), frame.get("transfer"), frame.get("reason"), net
            )
            return frame.ok_reply(state=record.state.value)
        if frame.kind == DISCONNECT:
            self.disconnect(frame.get("user"), number, frame.get("kind_arg"), net)
            return frame.ok_reply()
        if frame.kind == MIGRATE_REQ:  # a read: the records stay until Complete
            return frame.ok_reply(records=render_store_lines(self.store.get(number, ())))
        if frame.kind == MIGRATE_RESP:  # the transfer completed
            if self.directory.subscription(number).serving_registrar != self.actor_id:
                self.store.pop(number, None)
                self.grants.pop(number, None)
            return frame.ok_reply()
        raise RegistrarError(f"registrar {self.actor_id} cannot handle {frame.kind}")
