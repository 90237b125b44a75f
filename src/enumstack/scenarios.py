"""Administration-model scenarios: configs, topologies and scripted runs.

Six reference models form a 2x3 grid: the registrar kind (TSP / ASP /
independent) crossed with registry multiplicity (single / multiple).
Models 1-3 run one registry; models 4-6 run several with owner-push
replication between them. A scenario file (INI sections: model, actors,
tier0, accreditation, homes, fees, access, faults) builds a running
topology on the deterministic simulator; an event script drives it; the
log is replayable and byte-identical for identical (config, seed,
events).

The checks on a run (value flow, the access oracle and the invariant
suite) live in :mod:`enumstack.audit`, which reads only the log and
public actor state. ``assert_invariants`` and ``AccessOracle`` are
re-exported here because the benchmark's tracer wraps them under this
module's name.
"""

from __future__ import annotations

import configparser
import io
import math
from importlib.resources import files as resource_files
from pathlib import Path
from typing import Any, Callable

from . import resolver as resolver_mod
from .audit import AccessOracle, assert_invariants  # re-exported
from .e164 import ApexConfig, parse_number
from .errors import (
    E164Error,
    EnumInactive,
    EnumStackError,
    HopTimeout,
    InvalidModelCombination,
    InvalidRecord,
    NaptrError,
    RegistrarError,
    ScenarioError,
    SnapshotError,
    status_error,
)
from .naptr import NaptrRecord, Visibility
from .registrar import (
    Directory,
    Party,
    RegistrarActor,
    Role,
    TransferState,
    _check_storable,
    parse_store_lines,
    render_store_lines,
    render_stored_line,
    translate_newlines,
)
from .registry import RegistryActor, RegistryState, Tier0Actor, Tier0Table
from .simulator import Network
from .wire import (
    DISCONNECT,
    GET,
    GRANT,
    PROVISION,
    REVOKE,
    SUBSCRIBE,
    TIER0_ID,
    TRANSFER_DISPUTE,
    TRANSFER_INIT,
    _escape,
    _unescape,
)

MODEL_GRID: dict[int, tuple[Role, str]] = {
    1: (Role.TSP, "single"),
    2: (Role.ASP, "single"),
    3: (Role.INDEPENDENT, "single"),
    4: (Role.TSP, "multiple"),
    5: (Role.ASP, "multiple"),
    6: (Role.INDEPENDENT, "multiple"),
}

_KIND_NAMES = {
    "TSP": Role.TSP,
    "ASP": Role.ASP,
    "Independent": Role.INDEPENDENT,
    "IndependentRegistrar": Role.INDEPENDENT,
}


class ScenarioConfig:
    """One administration model as an executable topology description."""

    __slots__ = (
        "model_id", "users", "tsps", "asps", "registrar_ids", "registries", "tier0_entries",
        "accreditation", "homes", "flat_fee", "user_fee", "network_related", "fault_plan", "apex",
    )

    def __init__(
        self, model_id: int, users: tuple[str, ...] = (), tsps: tuple[str, ...] = (),
        asps: tuple[str, ...] = (), registrar_ids: tuple[str, ...] = (),
        registries: tuple[str, ...] = (), tier0_entries: dict[str, tuple[str, ...]] | None = None,
        accreditation: dict[str, frozenset[str]] | None = None, homes: dict[str, str] | None = None,
        flat_fee: float = 1.0, user_fee: float = 1.0,
        network_related: frozenset[str] = frozenset({"E2U+sip", "E2U+tel"}),
        fault_plan: tuple[tuple[str, int, int], ...] = (), apex: str = "e164.arpa",
    ) -> None:
        self.model_id = model_id
        self.users = users
        self.tsps = tsps
        self.asps = asps
        self.registrar_ids = registrar_ids
        self.registries = registries
        self.tier0_entries = {} if tier0_entries is None else tier0_entries
        self.accreditation = {} if accreditation is None else accreditation
        self.homes = {} if homes is None else homes
        self.flat_fee = flat_fee
        self.user_fee = user_fee
        self.network_related = network_related
        self.fault_plan = fault_plan
        self.apex = apex
        if self.model_id not in MODEL_GRID:
            raise InvalidModelCombination(f"model id {self.model_id} not in 1..6")
        multiplicity = self.registry_multiplicity
        if multiplicity == "single" and len(self.registries) != 1:
            raise InvalidModelCombination(
                f"model {self.model_id} is single-registry but config lists "
                f"{len(self.registries)}"
            )
        if multiplicity == "multiple" and len(self.registries) < 2:
            raise InvalidModelCombination(
                f"model {self.model_id} needs at least two registries"
            )
        for prefix, regs in self.tier0_entries.items():
            for reg in regs:
                if reg not in self.registries:
                    raise InvalidModelCombination(
                        f"tier0 prefix {prefix!r} points at unknown registry {reg!r}"
                    )
        for registrar, home in self.homes.items():
            if home not in self.registries:
                raise InvalidModelCombination(
                    f"registrar {registrar!r} home {home!r} is not a registry"
                )
        try:  # here, not when a topology is built from the config
            Tier0Table(self.tier0_entries)
            ApexConfig(self.apex)
        except E164Error as exc:  # a malformed tier-0 prefix or apex
            raise ScenarioError(str(exc)) from None

    @property
    def registrar_kind(self) -> Role:
        return MODEL_GRID[self.model_id][0]

    @property
    def registry_multiplicity(self) -> str:
        return MODEL_GRID[self.model_id][1]

    @property
    def actors(self) -> tuple[Party, ...]:
        parties: dict[str, Party] = {}
        for uid in self.users:
            parties[uid] = Party(uid, Role.USER)
        for tid in self.tsps:
            parties[tid] = Party(tid, Role.TSP)
        for aid in self.asps:
            parties[aid] = Party(aid, Role.ASP)
        for rid in self.registrar_ids:
            parties.setdefault(rid, Party(rid, self.registrar_kind))
        for gid in self.registries:
            parties[gid] = Party(gid, Role.REGISTRY)
        return tuple(parties.values())

    def home_of(self, registrar: str) -> str:
        if registrar in self.homes:
            return self.homes[registrar]
        for registry in self.registries:
            if registrar in self.accreditation.get(registry, frozenset()):
                return registry
        return self.registries[0]


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _amount(text: str) -> float:
    """A fee or payment: a finite number >= 0; ValueError otherwise."""
    amount = float(text)
    if not (math.isfinite(amount) and amount >= 0):
        raise ValueError(f"{text!r} is not a finite amount >= 0")
    return amount


def parse_config(text: str) -> ScenarioConfig:
    """Parse a scenario config document (INI sections).

    Values are taken literally: ``%`` has no interpolation meaning.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"bad scenario config: {exc}") from exc
    if not parser.has_section("model") or not parser.has_option("model", "id"):
        raise ScenarioError("scenario config needs [model] id")
    try:
        model_id = parser.getint("model", "id")
    except ValueError as exc:
        raise ScenarioError(f"bad model id: {exc}") from exc
    if model_id not in MODEL_GRID:
        raise InvalidModelCombination(f"model id {model_id} not in 1..6")

    # Explicit kind/multiplicity may restate the grid but not contradict it.
    kind, multiplicity = MODEL_GRID[model_id]
    if parser.has_option("model", "registrar_kind"):
        stated = _KIND_NAMES.get(parser.get("model", "registrar_kind").strip())
        if stated is not kind:
            raise InvalidModelCombination(
                f"model {model_id} implies registrar kind {kind.value}"
            )
    if parser.has_option("model", "registry_multiplicity"):
        if parser.get("model", "registry_multiplicity").strip() != multiplicity:
            raise InvalidModelCombination(
                f"model {model_id} implies {multiplicity} registry multiplicity"
            )

    def actor_list(option: str) -> tuple[str, ...]:
        if not parser.has_option("actors", option):
            return ()
        ids = _split_list(parser.get("actors", option))
        try:
            for actor_id in ids:
                _check_storable(**{option: actor_id})
        except RegistrarError as exc:
            raise ScenarioError(f"[actors] {exc}") from None
        return ids

    def section(name: str) -> list[tuple[str, str]]:
        return parser.items(name) if parser.has_section(name) else []

    users, tsps, asps = actor_list("users"), actor_list("tsps"), actor_list("asps")
    registries = actor_list("registries")
    registrar_ids = actor_list("registrars")
    # configparser lowercases keys; actor ids keep their case from the
    # [actors] section, so match them case-insensitively.
    id_map = {name.lower(): name for name in registries}

    def registry_id(name: str) -> str:
        return id_map.get(name.lower(), name)

    def configured(key: str, ids: tuple[str, ...], section_name: str) -> str:
        """The one id in *ids* that the option *key* names."""
        matches = list(dict.fromkeys(i for i in ids if i.lower() == key.lower()))
        if len(matches) != 1:
            what = "names no configured actor" if not matches else "is ambiguous"
            raise ScenarioError(f"[{section_name}] {key!r} {what}")
        return matches[0]

    tier0_entries = {
        prefix: tuple(registry_id(reg) for reg in _split_list(value))
        for prefix, value in section("tier0")
    }
    accreditation = {
        configured(registry, registries, "accreditation"): frozenset(
            configured(name, registrar_ids, "accreditation") for name in _split_list(value)
        )
        for registry, value in section("accreditation")
    }
    homes = {
        configured(registrar, registrar_ids, "homes"): registry_id(value.strip())
        for registrar, value in section("homes")
    }

    # An option the text leaves out keeps ScenarioConfig's default.
    given: dict[str, Any] = {}
    if parser.has_option("access", "network_related"):
        given["network_related"] = frozenset(
            _split_list(parser.get("access", "network_related"))
        )

    fault_plan: list[tuple[str, int, int]] = []
    actor_ids = (TIER0_ID, *users, *tsps, *asps, *registrar_ids, *registries)
    for actor, value in section("faults"):
        start_text, _, end_text = value.partition(":")
        try:
            window = (int(start_text), int(end_text))
        except ValueError:
            raise ScenarioError(f"fault window {value!r} is not start:end") from None
        fault_plan.append((configured(actor, actor_ids, "faults"), *window))

    if parser.has_option("model", "apex"):
        given["apex"] = parser.get("model", "apex").strip()
    for option in ("flat_fee", "user_fee"):
        if parser.has_option("fees", option):
            try:
                given[option] = _amount(parser.get("fees", option))
            except ValueError:
                raise ScenarioError(f"fee {option} is not a finite number >= 0") from None

    return ScenarioConfig(
        model_id=model_id,
        users=users,
        tsps=tsps,
        asps=asps,
        registrar_ids=registrar_ids,
        registries=registries,
        tier0_entries=tier0_entries,
        accreditation=accreditation,
        homes=homes,
        fault_plan=tuple(fault_plan),
        **given,
    )


def read_text(path: str | Path) -> str:
    """A config or event-script file's text; bytes that are not UTF-8 are a
    :class:`ScenarioError`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text (byte {exc.start})") from exc


def model_fixture_text(model_id: int) -> str:
    """The config text of one of the six shipped scenario fixtures."""
    if model_id not in MODEL_GRID:
        raise InvalidModelCombination(f"model id {model_id} not in 1..6")
    return (
        resource_files("enumstack")
        .joinpath(f"fixtures/scenarios/model{model_id}.cfg")
        .read_text(encoding="utf-8")
    )


def builtin_config(model_id: int) -> ScenarioConfig:
    """One of the six shipped scenario fixtures."""
    return parse_config(model_fixture_text(model_id))


def canonical_events() -> str:
    """The shipped model-agnostic event script."""
    return (
        resource_files("enumstack")
        .joinpath("fixtures/canonical.events")
        .read_text(encoding="utf-8")
    )


# ---------------------------------------------------------------- run log


class LogRecord:
    """One structured, replayable log line. Slotted, as a report reads
    every line of a long log into one."""

    __slots__ = ("event_id", "tick", "kind", "status", "detail")

    def __init__(
        self, event_id: str, tick: int, kind: str, status: str, detail: dict[str, str] | None = None
    ) -> None:
        self.event_id = event_id
        self.tick = tick
        self.kind = kind
        self.status = status
        self.detail = {} if detail is None else detail

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def render(self) -> str:
        detail = ";".join(f"{k}={_escape(v)}" for k, v in self.detail.items())
        return f"{self.event_id}|t{self.tick}|{self.kind}|{self.status}|{detail}"

    @classmethod
    def parse(cls, line: str) -> "LogRecord":
        parts = line.split("|", 4)
        if len(parts) != 5 or not parts[1].startswith("t"):
            raise ScenarioError(f"bad log line {line!r}")
        detail: dict[str, str] = {}
        if parts[4]:
            for chunk in parts[4].split(";"):
                key, sep, value = chunk.partition("=")
                if not sep:
                    raise ScenarioError(f"bad log detail {chunk!r}")
                detail[key] = _unescape(value) if "%" in value else value
        return cls(
            event_id=parts[0],
            tick=int(parts[1][1:]),
            kind=parts[2],
            status=parts[3],
            detail=detail,
        )


class EventLog:
    __slots__ = ("records",)

    def __init__(self, records: list[LogRecord]) -> None:
        self.records = records

    def render_lines(self) -> list[str]:
        return [rec.render() for rec in self.records]

    def render_bytes(self) -> bytes:
        return ("\n".join(self.render_lines()) + "\n").encode("utf-8")


# ---------------------------------------------------------------- topology


class _Step:
    """The context of one logged operation; see :meth:`Topology._step`."""

    __slots__ = ("_topology", "_kind", "event_id", "digits", "result", "detail")

    def __init__(
        self, topology: Topology, kind: str, number: str | None, detail: dict[str, str]
    ):
        self._topology = topology
        self._kind = kind
        self.event_id = topology._next_event_id()
        self.digits = number
        self.result: dict[str, str] = {}
        self.detail = detail if number is None else {"number": number, **detail}

    def __enter__(self) -> _Step:
        if self.digits is not None:
            try:
                self.digits = self.detail["number"] = parse_number(self.digits).full_digits
            except EnumStackError as exc:
                self.__exit__(type(exc), exc, exc.__traceback__)
                raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.detail.update(self.result)
            status = "ok"
        elif issubclass(exc_type, EnumStackError) and not issubclass(exc_type, SnapshotError):
            self.detail["message"] = str(exc)
            status = exc_type.__name__
        else:  # a bug, or a state file that failed as the step read it
            return
        self._topology._append(self.event_id, self._kind, status, self.detail)


class Topology:
    """A running scenario: actors on the simulator plus the run log."""

    def __init__(self, cfg: ScenarioConfig, seed: int = 0):
        self.cfg = cfg
        self.net = Network(seed=seed)
        self.apex = ApexConfig(cfg.apex)
        self.directory = Directory()
        self.log: list[LogRecord] = []
        self.completed = False
        self._event_n = 0
        self._grant_n = 0
        self._transfer_n = 0
        # The state directory this topology last read or wrote, and the
        # checkpoint entries enumstack.snapshots keeps from then: a save
        # scans only the log lines after the log's entry, and writes no
        # entry for a file marked ().
        self.snapshot_seen = None

        table = Tier0Table(entries={p: tuple(r) for p, r in cfg.tier0_entries.items()})
        self.tier0 = Tier0Actor(TIER0_ID, table)
        self.net.register(self.tier0.actor_id, self.tier0.handle_frame)

        self.registries: dict[str, RegistryActor] = {}
        multiple = cfg.registry_multiplicity == "multiple"
        for reg_id in cfg.registries:
            served = tuple(
                prefix for prefix, regs in cfg.tier0_entries.items() if reg_id in regs
            )
            peers = tuple(r for r in cfg.registries if r != reg_id) if multiple else ()
            # A registry with no [accreditation] row accredits every registrar.
            accredited = cfg.accreditation.get(reg_id, frozenset(cfg.registrar_ids))
            state = RegistryState(
                id=reg_id,
                served_prefixes=served,
                peers=peers,
                accredited=accredited,
                flat_fee=cfg.flat_fee,
            )
            actor = RegistryActor(state)
            self.registries[reg_id] = actor
            self.net.register(reg_id, actor.handle_frame)

        self.registrars: dict[str, RegistrarActor] = {}
        for registrar_id in cfg.registrar_ids:
            home = cfg.home_of(registrar_id)
            actor = RegistrarActor(
                registrar_id=registrar_id,
                kind=cfg.registrar_kind,
                home_registry=home,
                directory=self.directory,
                network_related=cfg.network_related,
                accredited=self.registries[home].state.accredited,
            )
            self.registrars[registrar_id] = actor
            self.net.register(registrar_id, actor.handle_frame)

        for actor_id, start, end in cfg.fault_plan:
            self.net.add_fault_window(actor_id, start, end)

    # ------------------------------------------------------------ plumbing

    def _next_event_id(self) -> str:
        self._event_n += 1
        return f"e{self._event_n}"

    def _append(self, event_id: str, kind: str, status: str, detail: dict[str, str]) -> None:
        self.log.append(
            LogRecord(
                event_id=event_id,
                tick=self.net.clock,
                kind=kind,
                status=status,
                detail=detail,
            )
        )

    def _step(self, kind: str, number: str | None = None, /, **detail: str) -> _Step:
        """A context that logs the operation in its ``with`` body as ok or
        as its error; errors re-raise for direct callers. A
        :class:`SnapshotError` is not logged: it is a fault of a local state
        file, not the operation's outcome, and no replay could reproduce it.

        The log detail is *number* (when given), then *detail*, then the
        body's ``step.result`` on success or the error's ``message``; the
        whole of it is ``step.detail`` afterwards. Everything that can
        fail, including parsing the number into ``step.digits``, happens
        inside the logged region so scripts record their own mistakes
        instead of aborting.
        """
        return _Step(self, kind, number, detail)

    def _serving(self, digits: str) -> str:
        sub = self.directory.subscription(digits)
        if not sub.serving_registrar:
            raise EnumInactive(f"{digits!r} has no serving registrar")
        return sub.serving_registrar

    def _request(self, src: str, dst: str, kind: str, fields: dict[str, str]):
        response = self.net.request(src, dst, kind, fields)
        if response is None:
            raise HopTimeout(f"{kind} to {dst} timed out")
        if not response.ok:
            raise status_error(response.status, response.get("message"))
        return response

    def drain(self) -> None:
        self.net.run_until_idle()

    def _owner_of(self, digits: str) -> str:
        for actor in self.registries.values():
            delegation = actor.state.delegations.get(digits)
            if delegation is not None and delegation.owning_registry == actor.state.id:
                return actor.state.id
        return ""

    # ------------------------------------------------------------ operations

    def assign(self, number: str, user: str, tsp: str) -> dict[str, str]:
        with self._step("assign", number, user=user, tsp=tsp) as step:
            sub = self.directory.assign(step.digits, user, tsp)
            step.result = {"token": sub.token}
        return step.detail

    def confirm(self, number: str, registrar: str) -> dict[str, str]:
        with self._step("confirm", number, registrar=registrar) as step:
            self.directory.confirm(step.digits, registrar)
        return step.detail

    def subscribe(
        self,
        number: str,
        user: str,
        registrar: str,
        token: str | None = None,
        confirmed: bool = False,
        payer: str | None = None,
    ) -> dict[str, str]:
        registry = self.cfg.home_of(registrar) if registrar in self.cfg.registrar_ids else ""
        with self._step(
            "subscribe", number,
            user=user, registrar=registrar, payer=payer or user, registry=registry,
        ) as step:
            sub = self.directory.get(step.digits)
            secret = token
            if secret == "auto":
                secret = sub.token if sub else ""
            self._request(
                f"client:{user}",
                registrar,
                SUBSCRIBE,
                {
                    "number": step.digits,
                    "user": user,
                    "token": secret or "",
                    "confirmed": "1" if confirmed else "0",
                    "payer": payer or "",
                    "event": step.event_id,
                },
            )
            self.drain()
        return step.detail

    def _parse_record_lines(
        self, record: str | list[str], visibility: str | None
    ) -> list[NaptrRecord]:
        lines = [record] if isinstance(record, str) else list(record)
        records = []
        for line in lines:
            parsed = parse_store_lines(line)
            if not parsed:
                raise InvalidRecord(f"empty record line {line!r}")
            if visibility:
                parsed = [
                    NaptrRecord(
                        rec.order, rec.preference, rec.flags, rec.service, rec.regexp,
                        rec.replacement, Visibility(visibility),
                    )
                    for rec in parsed
                ]
            records += parsed
        return records

    def provision(
        self,
        number: str,
        actor: str,
        record: str | list[str],
        visibility: str | None = None,
    ) -> dict[str, str]:
        with self._step("provision", number, actor=actor) as step:
            try:
                records = self._parse_record_lines(record, visibility)
            except (NaptrError, ValueError) as exc:  # ValueError: unknown visibility
                raise InvalidRecord(str(exc)) from exc
            lines = "\n".join(render_stored_line(r) for r in records)
            serving = self._serving(step.digits)
            self._request(
                f"client:{actor}",
                serving,
                PROVISION,
                {"number": step.digits, "actor": actor, "records": lines, "event": step.event_id},
            )
            self.drain()
            step.result = {
                "services": ",".join(r.service for r in records),
                "visibilities": ",".join(r.visibility.value for r in records),
                "records": lines,
                "registrar": serving,
            }
        return step.detail

    def grant(
        self,
        number: str,
        user: str,
        grantee: str,
        rights: str,
        scope: str = "*",
    ) -> dict[str, str]:
        # One past every grant id issued, those in a registrar's state file
        # included: the first use of a registrar's grants walks the file
        # when a load deferred it.
        for actor in self.registrars.values():
            len(actor.grants)
        self._grant_n += 1
        grant_id = f"g{self._grant_n}"
        with self._step(
            "grant", number,
            user=user, grantee=grantee, rights=rights, scope=scope, grant=grant_id,
        ) as step:
            serving = self._serving(step.digits)
            self._request(
                f"client:{user}",
                serving,
                GRANT,
                {
                    "number": step.digits,
                    "user": user,
                    "grantee": grantee,
                    "rights": rights,
                    "scope": scope,
                    "grant_id": grant_id,
                    "event": step.event_id,
                },
            )
            step.result = {"registrar": serving}
        return step.detail

    def revoke(self, number: str, user: str, grant: str) -> dict[str, str]:
        with self._step("revoke", number, user=user, grant=grant) as step:
            serving = self._serving(step.digits)
            self._request(
                f"client:{user}",
                serving,
                REVOKE,
                {"number": step.digits, "user": user, "grant_id": grant, "event": step.event_id},
            )
            step.result = {"registrar": serving}
        return step.detail

    def get(self, number: str, actor: str, service: str = "*") -> dict[str, str]:
        with self._step("get", number, actor=actor, service=service) as step:
            serving = self._serving(step.digits)
            response = self._request(
                f"client:{actor}",
                serving,
                GET,
                {"number": step.digits, "actor": actor, "service": service},
            )
            records = parse_store_lines(response.get("records"))
            step.result = {
                "registrar": serving,
                "records": response.get("records"),
                "returned_services": ",".join(r.service for r in records),
                "returned_visibilities": ",".join(r.visibility.value for r in records),
            }
        return step.detail

    def _open_transfer(self, step: _Step, user: str, to: str) -> dict[str, str]:
        """Open a registrar change at *to*; returns the detail both transfer
        kinds log, with the old store's snapshot for transfer conservation."""
        self._transfer_n += 1
        transfer_id = f"x{self._transfer_n}"
        sub = self.directory.get(step.digits)
        old = (sub.serving_registrar or "") if sub else ""
        old_snapshot = ""
        if old in self.registrars:
            old_snapshot = render_store_lines(self.registrars[old].store.get(step.digits, []))
        self._request(
            f"client:{user}",
            to,
            TRANSFER_INIT,
            {"number": step.digits, "user": user, "transfer": transfer_id, "event": step.event_id},
        )
        return {"from": old, "to": to, "transfer": transfer_id, "old_snapshot": old_snapshot}

    def _transfer_actor(self, transfer: str) -> RegistrarActor:
        """The registrar that holds *transfer*, whether or not the reply
        to its ``TRANSFER_INIT`` came back."""
        for actor in self.registrars.values():
            if transfer in actor.transfers:
                return actor
        raise ScenarioError(f"unknown transfer {transfer!r}")

    def transfer(self, number: str, user: str, to: str) -> dict[str, str]:
        """Run the whole registrar-change state machine."""
        with self._step("transfer", number, user=user, to=to) as step:
            opened = self._open_transfer(step, user, to)
            record = self.registrars[to].finish_transfer(
                opened["transfer"], self.net, event=step.event_id
            )
            self.drain()
            step.result = {
                **opened,
                "state": record.state.value,
                "warnings": " / ".join(record.warnings),
                "migrated": render_store_lines(record.migrated or ()),
                "registry": self._owner_of(step.digits),
            }
        return step.detail

    # Paced transfer API: one state per call, so tests and scripts can
    # interleave disputes with the machine's progress.

    def begin_transfer(self, number: str, user: str, to: str) -> str:
        with self._step("transfer_begin", number, user=user, to=to) as step:
            opened = self._open_transfer(step, user, to)
            step.result = {**opened, "state": TransferState.REQUESTED.value}
        return step.detail["transfer"]

    def step_transfer(self, transfer: str) -> dict[str, str]:
        with self._step("transfer_step", transfer=transfer) as step:
            record = self._transfer_actor(transfer).step_transfer(
                transfer, self.net, event=step.event_id
            )
            self.drain()
            step.result = {
                "state": record.state.value,
                "to": record.to_registrar,
                "from": record.from_registrar,
                "number": record.number,
                "warnings": " / ".join(record.warnings),
            }
            if record.state is TransferState.RECORDS_MIGRATED:
                step.result["migrated"] = render_store_lines(record.migrated or ())
            if record.state is TransferState.REGISTRY_UPDATED:
                step.result["registry"] = self._owner_of(record.number)
        return step.detail

    def dispute_transfer(self, transfer: str, by: str, reason: str = "") -> dict[str, str]:
        with self._step("dispute", transfer=transfer, by=by, reason=reason) as step:
            actor = self._transfer_actor(transfer)
            response = self._request(
                f"client:{by}",
                actor.actor_id,
                TRANSFER_DISPUTE,
                {"transfer": transfer, "by": by, "reason": reason, "event": step.event_id},
            )
            self.drain()
            record = actor.transfers[transfer]
            step.result = {
                "state": response.get("state"),
                "number": record.number,
                "from": record.from_registrar,
                "to": record.to_registrar,
            }
        return step.detail

    def disconnect(self, number: str, user: str, kind: str) -> dict[str, str]:
        with self._step("disconnect", number, user=user, kind=kind) as step:
            sub = self.directory.subscription(step.digits)
            target = sub.serving_registrar or next(iter(self.registrars), "")
            self._request(
                f"client:{user}",
                target,
                DISCONNECT,
                {"number": step.digits, "user": user, "kind_arg": kind, "event": step.event_id},
            )
            self.drain()
            step.result = {"registrar": target}
        return step.detail

    def resolve(self, number: str, service: str = "*") -> dict[str, str]:
        with self._step("resolve", number, service=service) as step:
            result = resolver_mod.resolve(
                "+" + step.digits,
                self.net,
                apex=self.apex,
                service=service,
            )
            step.result = {
                "uris": "\n".join(result.uris),
                "records": result.record_lines,
                "registrar": result.registrar,
                "registry": result.registry,
                "warnings": " / ".join(result.warnings),
                "trace": "\n".join(result.trace.render_lines()),
            }
        return step.detail

    def cooperate(
        self, payer: str, tsp: str, approach: str = "ASP-directed", amount: float | None = None
    ) -> dict[str, str]:
        """A TSP-cooperation payment; meaningful in the ASP-registrar models."""
        shown = f"{amount if amount is not None else self.cfg.user_fee:g}"
        with self._step(
            "cooperate", payer=payer, tsp=tsp, approach=approach, amount=shown
        ) as step:
            if self.cfg.registrar_kind is not Role.ASP:
                raise InvalidModelCombination(
                    "cooperation side-payments only arise in the ASP-registrar models"
                )
        return step.detail

    def advance(self, ticks: int) -> dict[str, str]:
        with self._step("advance", ticks=str(ticks)) as step:
            self.net.advance(ticks)
        return step.detail

    def offline(self, actor: str) -> dict[str, str]:
        with self._step("offline", actor=actor) as step:
            self.net.set_offline(actor)
        return step.detail

    def online(self, actor: str) -> dict[str, str]:
        with self._step("online", actor=actor) as step:
            self.net.set_online(actor)
        return step.detail

    def backdoor_provision(self, registrar: str, number: str, record: str, actor: str) -> None:
        """Harness-only: write a record past all access checks and log it as
        a successful provision, so soundness checkers have something to
        catch."""
        digits = parse_number(number).full_digits
        rec = parse_store_lines(record)[0]
        self.registrars[registrar].store.setdefault(digits, []).append(rec)
        event_id = self._next_event_id()
        self._append(
            event_id,
            "provision",
            "ok",
            {
                "number": digits,
                "actor": actor,
                "services": rec.service,
                "visibilities": rec.visibility.value,
                "records": render_stored_line(rec),
                "registrar": registrar,
            },
        )

    # ------------------------------------------------------------ state

    def state_hash(self) -> str:
        """Stable digest of all registry/registrar/subscription state."""
        import hashlib  # only digests need it; keeps it out of every CLI call

        out = io.StringIO()
        for reg_id in sorted(self.registries):
            state = self.registries[reg_id].state
            out.write(f"registry {reg_id}\n")
            for number in sorted(state.delegations):
                d = state.delegations[number]
                out.write(f"  {number}|{d.registrar}|{d.owning_registry}|{d.serial}\n")
            for number in sorted(state.tombstones):
                out.write(f"  tomb {number}|{state.tombstones[number]}\n")
            for entry in state.billing_ledger:
                out.write(f"  fee {entry.payer}|{entry.amount:g}|{entry.number}\n")
        for registrar_id in sorted(self.registrars):
            actor = self.registrars[registrar_id]
            out.write(f"registrar {registrar_id}\n")
            for number in sorted(actor.store):
                for rec in actor.store[number]:
                    out.write(f"  {number} {render_stored_line(rec)}\n")
            for number in sorted(actor.grants):
                for g in actor.grants[number]:
                    rights = ",".join(sorted(g.rights))
                    out.write(
                        f"  grant {g.grant_id}|{number}|{g.grantee}|{rights}|{g.scope.service}\n"
                    )
        for number in sorted(self.directory.subscriptions):
            sub = self.directory.subscriptions[number]
            out.write(
                f"sub {number}|{sub.user}|{sub.tsp}|{int(sub.enum_active)}|"
                f"{int(sub.phone_active)}|{sub.serving_registrar or ''}\n"
            )
        return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def build_topology(cfg: ScenarioConfig, seed: int = 0) -> Topology:
    return Topology(cfg, seed=seed)


# ---------------------------------------------------------------- event scripts


class Event:
    __slots__ = ("kind", "args")

    def __init__(self, kind: str, args: dict[str, str]) -> None:
        self.kind, self.args = kind, args


_TAIL_KEYS = ("record", "reason")


def parse_events(text: str) -> list[Event]:
    """Parse a line-delimited script: ``step <kind> key=value ...``.

    A ``record=`` or ``reason=`` argument captures the rest of the line
    verbatim, so zone lines keep their internal spaces; the first of them
    on the line wins. Lines break as in a state file (see
    :func:`translate_newlines`), so a record may hold U+2028 or another
    character :meth:`str.splitlines` breaks at.
    """
    events: list[Event] = []
    for lineno, raw_line in enumerate(translate_newlines(text).split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tail_key = None
        tail_value = ""
        markers = [(at, key) for key in _TAIL_KEYS if (at := line.find(f" {key}=")) != -1]
        if markers:
            at, tail_key = min(markers)
            tail_value = line[at + len(tail_key) + 2:].strip()
            line = line[:at]
        tokens = line.split()
        if len(tokens) < 2 or tokens[0] != "step":
            raise ScenarioError(f"line {lineno}: expected 'step <kind> ...'")
        args: dict[str, str] = {}
        for token in tokens[2:]:
            key, sep, value = token.partition("=")
            if not sep:
                raise ScenarioError(f"line {lineno}: argument {token!r} is not key=value")
            args[key] = value
        if tail_key is not None:
            args[tail_key] = tail_value
        events.append(Event(kind=tokens[1], args=args))
    return events


# Script kind -> (Topology method, required keys, {optional key: default}).
# run_events looks each method up on the topology instance by name, so
# wrappers set on the instance see every step.
_STEPS: dict[str, tuple[str, tuple[str, ...], dict[str, str | None]]] = {
    "assign": ("assign", ("number", "user", "tsp"), {}),
    "confirm": ("confirm", ("number", "registrar"), {}),
    "subscribe": (
        "subscribe",
        ("number", "user", "registrar"),
        {"token": None, "confirmed": None, "payer": None},
    ),
    "provision": ("provision", ("number", "actor", "record"), {"visibility": None}),
    "grant": ("grant", ("number", "user", "grantee"), {"rights": "provision", "scope": "*"}),
    "revoke": ("revoke", ("number", "user", "grant"), {}),
    "get": ("get", ("number", "actor"), {"service": "*"}),
    "transfer": ("transfer", ("number", "user", "to"), {}),
    "transfer_begin": ("begin_transfer", ("number", "user", "to"), {}),
    "transfer_step": ("step_transfer", ("transfer",), {}),
    "dispute": ("dispute_transfer", ("transfer", "by"), {"reason": ""}),
    "disconnect": ("disconnect", ("number", "user"), {"kind": "enum_only"}),
    "resolve": ("resolve", ("number",), {"service": "*"}),
    "cooperate": ("cooperate", ("payer", "tsp"), {"approach": "ASP-directed", "amount": None}),
    "advance": ("advance", (), {"ticks": "1"}),
    "offline": ("offline", ("actor",), {}),
    "online": ("online", ("actor",), {}),
}

# Optional arguments that are not strings; a key means the same in every kind.
_CONVERTERS: dict[str, Callable[[Any], Any]] = {
    "confirmed": lambda value: value == "1",
    "amount": lambda value: _amount(value) if value else None,
    "ticks": int,
}


def _step_arguments(event: Event) -> tuple[str, dict[str, Any]]:
    """(Topology method, keyword arguments) for a known step kind."""
    method, required, defaults = _STEPS[event.kind]
    missing = [key for key in required if key not in event.args]
    if missing:
        raise ScenarioError(f"missing argument {', '.join(missing)}")
    kwargs: dict[str, Any] = {key: event.args[key] for key in required}
    for key, default in defaults.items():
        value = event.args.get(key, default)
        convert = _CONVERTERS.get(key)
        try:
            kwargs[key] = convert(value) if convert else value
        except ValueError:
            raise ScenarioError(f"bad argument {key}={value!r}") from None
    return method, kwargs


def run_events(topology: Topology, events: str | list[Event]) -> EventLog:
    """Execute a script; per-event errors are logged, never fatal. A
    :class:`SnapshotError` is not logged, and propagates."""
    if isinstance(events, str):
        events = parse_events(events)
    for event in events:
        if event.kind not in _STEPS:
            topology._append(
                topology._next_event_id(), event.kind, "UnknownEvent", dict(event.args)
            )
            continue
        try:
            method, kwargs = _step_arguments(event)
        except ScenarioError as exc:
            detail = {**event.args, "message": str(exc)}
            topology._append(topology._next_event_id(), event.kind, type(exc).__name__, detail)
            continue
        try:
            getattr(topology, method)(**kwargs)
        except SnapshotError:
            raise  # not logged by the operation; see Topology._step
        except EnumStackError:
            continue  # already logged by the operation
    topology.drain()
    topology.completed = True
    return EventLog(records=list(topology.log))
