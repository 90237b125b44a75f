"""The auditor: value flow, the access oracle and the invariant suite.

Everything here is re-derived from a run's log and the public state of
its actors (stores, grants, transfers, delegations, ledgers and the
network's frame counts), never taken from the enforcement code that produced
them: access soundness replays grants through an independent matrix,
billing recounts charged events, transfer conservation compares record
multisets, and replication is checked serial by serial. So that a defect
in enforcement cannot hide, this module imports nothing from the registry
and only data types and the stored-line parser from the registrar.

An invariant is one function from a quiescent topology to its violation
lines, listed once in :data:`INVARIANTS`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .errors import RunIncomplete
from .naptr import ServiceSelector, Visibility, resolve_record_set
from .registrar import Role, TransferState, parse_store_lines
from .wire import PEER_UPDATE

if TYPE_CHECKING:
    from .scenarios import LogRecord, ScenarioConfig, Topology


# Transfer kinds, each with the state in which it completes a registrar change.
_CHANGE_DONE = {"transfer": "Complete", "transfer_step": "RegistryUpdated"}
# Kinds whose records can bill: a subscription and a registrar change.
_BILLING_KINDS = frozenset({"subscribe", *_CHANGE_DONE})
# The only kinds value_flow_from_log turns into edges: the billing kinds
# and a cooperation payment.
VALUE_FLOW_KINDS = frozenset({*_BILLING_KINDS, "cooperate"})


def _changes_registrar(rec: LogRecord) -> bool:
    """A whole ``transfer``, or the ``RegistryUpdated`` step of a paced one,
    that completed: the number is now served by the record's ``to``."""
    done = _CHANGE_DONE.get(rec.kind)
    return done is not None and rec.ok and rec.detail.get("state") == done


def _billed_registrar(rec: LogRecord) -> str | None:
    """The registrar a log record bills the registry's flat fee to, if any:
    a successful subscription bills its registrar, a completed registrar
    change the new registrar."""
    if rec.kind == "subscribe":
        return rec.detail.get("registrar", "") if rec.ok else None
    if _changes_registrar(rec):
        return rec.detail.get("to", "")
    return None


# ---------------------------------------------------------------- value flow


class ValueFlowEdge:
    __slots__ = ("payer", "payer_role", "payee", "payee_role", "amount", "cause")

    def __init__(
        self, payer: str, payer_role: str, payee: str, payee_role: str, amount: float, cause: str
    ) -> None:
        self.payer, self.payer_role = payer, payer_role
        self.payee, self.payee_role = payee, payee_role
        self.amount, self.cause = amount, cause

    def render(self) -> str:
        return (
            f"{self.payer}({self.payer_role}) -> {self.payee}({self.payee_role}) "
            f"{self.amount:g} [{self.cause}]"
        )


class ValueFlowGraph:
    __slots__ = ("edges",)

    def __init__(self, edges: tuple[ValueFlowEdge, ...]) -> None:
        self.edges = edges

    def role_pairs(self) -> set[tuple[str, str]]:
        return {(e.payer_role, e.payee_role) for e in self.edges}

    def render_lines(self) -> list[str]:
        return [e.render() for e in self.edges]


def value_flow_from_log(records: list[LogRecord], cfg: ScenarioConfig) -> ValueFlowGraph:
    """Derive payment edges from a run log.

    Subscriptions pay the serving registrar (in the TSP-registrar models
    an ASP registrant pays instead of the user); every registration and
    completed registrar change pays the registry a flat fee; cooperation
    events add side payments to TSPs. A record of a kind outside
    :data:`VALUE_FLOW_KINDS` adds no edge.
    """
    roles = {party.id: party.role.value for party in cfg.actors}
    asp = Role.ASP.value
    asp_may_pay = cfg.registrar_kind is Role.TSP
    edges: list[ValueFlowEdge] = []

    def pay(payer: str, payee: str, amount: float, rec: LogRecord) -> None:
        edges.append(
            ValueFlowEdge(
                payer, roles.get(payer, "?"), payee, roles.get(payee, "?"),
                amount, rec.event_id,
            )
        )

    for rec in records:
        if not rec.ok:
            continue
        if rec.kind == "subscribe":
            user = rec.detail.get("user", "")
            payer = rec.detail.get("payer", user)
            if not (asp_may_pay and payer != user and roles.get(payer) == asp):
                payer = user
            pay(payer, rec.detail.get("registrar", ""), cfg.user_fee, rec)
        elif rec.kind == "cooperate":
            amount = float(rec.detail.get("amount", "1"))
            pay(rec.detail.get("payer", ""), rec.detail.get("tsp", ""), amount, rec)
        registrar = _billed_registrar(rec)
        registry = rec.detail.get("registry", "")
        if registrar is not None and registry:
            pay(registrar, registry, cfg.flat_fee, rec)
    return ValueFlowGraph(edges=tuple(edges))


def value_flow(topology: Topology) -> ValueFlowGraph:
    if not topology.completed:
        raise RunIncomplete("run the event script before deriving value flows")
    return value_flow_from_log(topology.log, topology.cfg)


# ---------------------------------------------------------------- access oracle

_WRITE_RIGHTS = frozenset({"provision", "change"})
_READ_RIGHTS = frozenset({"access"})


class AccessOracle:
    """Independent access matrix, replayed from the log alone.

    Deliberately re-implements the rights rules with plain set algebra so
    a defect in the registrar's enforcement cannot hide: every successful
    write (and every restricted read) in the log must be justified by the
    subscriber/serving-registrar identities, the implicit TSP rule, or a
    grant visible in the log at that point. A grant counts while the
    registrar its record names serves the number, and a completed registrar
    change drops it.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.tsp_implicit = cfg.registrar_kind is Role.TSP
        self.network_related = {s.lower() for s in cfg.network_related}

    def check(self, records: list[LogRecord]) -> list[str]:
        subs: dict[str, list[str]] = {}  # number -> [user, tsp, serving registrar]
        # number -> [(grant id, grantee, rights, scope, registrar)]
        grants: dict[str, list[tuple[str, str, frozenset[str], str, str]]] = {}
        violations: list[str] = []

        def serve(number: str, registrar: str) -> None:
            if number in subs:
                subs[number][2] = registrar

        def allowed(number: str, actor: str, service: str, needed: frozenset[str]) -> bool:
            sub = subs.get(number)
            if sub is None:
                return False
            user, tsp, serving = sub
            if actor == user or actor == serving:
                return True
            service = service.lower()
            if (
                needed is _WRITE_RIGHTS
                and self.tsp_implicit
                and actor == tsp
                and service in self.network_related
            ):
                return True
            return any(
                grantee == actor
                and registrar == serving
                and rights & needed
                and (scope == "*" or scope.lower() == service)
                for _, grantee, rights, scope, registrar in grants.get(number, ())
            )

        for rec in records:
            if not rec.ok:
                continue
            d = rec.detail
            kind = rec.kind
            number = d.get("number", "")
            if kind == "assign":
                subs[number] = [d["user"], d["tsp"], ""]
                grants.pop(number, None)
            elif kind == "subscribe":
                serve(number, d.get("registrar", ""))
            elif kind == "dispute":
                if d.get("from"):
                    serve(number, d["from"])
            elif kind == "disconnect":
                serve(number, "")
                grants.pop(number, None)
            elif kind == "grant":
                grants.setdefault(number, []).append(
                    (
                        d.get("grant", ""),
                        d.get("grantee", ""),
                        frozenset(d.get("rights", "").split(",")),
                        d.get("scope", "*"),
                        d.get("registrar", ""),
                    )
                )
            elif kind == "revoke":
                grants[number] = [g for g in grants.get(number, []) if g[0] != d.get("grant")]
            elif kind == "provision":
                actor = d.get("actor", "")
                for service in d.get("services", "").split(","):
                    if service and not allowed(number, actor, service, _WRITE_RIGHTS):
                        violations.append(
                            f"{rec.event_id}: {actor} wrote {service} for {number}"
                        )
            elif kind == "get":
                actor = d.get("actor", "")
                services = d.get("returned_services", "").split(",")
                visibilities = d.get("returned_visibilities", "").split(",")
                for service, vis in zip(services, visibilities):
                    if vis == "restricted" and not allowed(number, actor, service, _READ_RIGHTS):
                        violations.append(
                            f"{rec.event_id}: {actor} read restricted {service} for {number}"
                        )
            elif kind in _CHANGE_DONE:
                if _changes_registrar(rec):
                    serve(number, d.get("to", ""))
                if d.get("state") == "Complete":
                    grants.pop(number, None)
        return violations


# ---------------------------------------------------------------- invariants


class InvariantResult:
    __slots__ = ("name", "violations")

    def __init__(self, name: str, violations: list[str]) -> None:
        self.name, self.violations = name, violations

    @property
    def passed(self) -> bool:
        return not self.violations


class InvariantReport:
    __slots__ = ("results",)

    def __init__(self, results: list[InvariantResult]) -> None:
        self.results = results

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, name: str) -> InvariantResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def render_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
            for v in r.violations[:10]:
                lines.append(f"  {v}")
        return lines


def _single_store(topology: Topology) -> list[str]:
    """Each number's records live at exactly one registrar: an active
    number's at its serving registrar, an inactive number's nowhere. The
    old registrar's copy while its transfer is in ``RegistryUpdated`` is
    not counted."""
    violations: list[str] = []
    pending = {
        (record.number, record.from_registrar)
        for actor in topology.registrars.values()
        for record in actor.transfers.values()
        if record.state is TransferState.REGISTRY_UPDATED
    }
    holders: dict[str, list[str]] = {}
    for registrar_id, actor in topology.registrars.items():
        for number in actor.store.numbers_with_records():
            if (number, registrar_id) not in pending:
                holders.setdefault(number, []).append(registrar_id)
    for number, where in sorted(holders.items()):
        if len(where) > 1:
            violations.append(f"{number} stored at {', '.join(where)}")
            continue
        sub = topology.directory.get(number)
        if sub is None or not sub.enum_active:
            violations.append(f"{number} stored at {where[0]} but not active")
        elif sub.serving_registrar != where[0]:
            violations.append(
                f"{number} stored at {where[0]} but served by {sub.serving_registrar}"
            )
    return violations


def _multiset(lines: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for line in lines.split("\n"):
        if line.strip():
            counts[line] = counts.get(line, 0) + 1
    return counts


def _transfer_conservation(topology: Topology) -> list[str]:
    """Clean transfers carry the exact multiset. A whole transfer logs its
    own source snapshot; a paced one logs it at ``transfer_begin`` and the
    migrated set at its ``RecordsMigrated`` step."""
    violations: list[str] = []
    snapshots: dict[str, str] = {}
    for rec in topology.log:
        kind = rec.kind
        if kind not in ("transfer", "transfer_begin", "transfer_step") or not rec.ok:
            continue
        d = rec.detail
        if kind != "transfer_step":
            snapshots[d.get("transfer", "")] = d.get("old_snapshot", "")
        moved = kind == "transfer" or (
            kind == "transfer_step" and d.get("state") == "RecordsMigrated"
        )
        if moved and not d.get("warnings"):
            source = snapshots.get(d.get("transfer", ""), "")
            if _multiset(d.get("migrated", "")) != _multiset(source):
                violations.append(f"{rec.event_id}: migrated set differs from source")
    return violations


def _access_soundness(topology: Topology) -> list[str]:
    return AccessOracle(topology.cfg).check(topology.log)


def _serial_monotonicity(topology: Topology) -> list[str]:
    """Each registry observes a number's serials strictly increasing."""
    violations: list[str] = []
    for reg_id, actor in topology.registries.items():
        for number, serials in actor.state.observed_serials.items():
            for a, b in zip(serials, serials[1:]):
                if b <= a:
                    violations.append(f"{reg_id} observed {number} serials {a} -> {b}")
    return violations


def _billing_conservation(topology: Topology) -> list[str]:
    """The registries' ledgers equal the flat fee times the billed events."""
    charged = sum(
        1
        for rec in topology.log
        if rec.kind in _BILLING_KINDS and _billed_registrar(rec) is not None
    )
    ledger_total = sum(a.state.ledger_total() for a in topology.registries.values())
    fee = topology.cfg.flat_fee
    if abs(ledger_total - fee * charged) < 1e-9:
        return []
    return [f"ledger {ledger_total:g} != {fee:g} x {charged}"]


def replicas_converged(registries: list) -> list[str]:
    """Numbers whose replicas disagree with the owner (empty == converged).

    *registries* are registry states; only their ``id``, ``peers`` and
    ``delegations`` are read.
    """
    problems: list[str] = []
    by_id = {r.id: r for r in registries}
    for owner in registries:
        for number, delegation in owner.delegations.items():
            if delegation.owning_registry != owner.id:
                continue
            for other_id in owner.peers:
                other = by_id.get(other_id)
                if other is None:
                    continue
                replica = other.delegations.get(number)
                if (
                    replica is None
                    or replica.serial != delegation.serial
                    or replica.registrar != delegation.registrar
                ):
                    problems.append(
                        f"{number}: {other_id} replica "
                        f"{'missing' if replica is None else 'serial %d' % replica.serial}"
                        f" != owner {owner.id} serial {delegation.serial}"
                    )
    return problems


def _replica_convergence(topology: Topology) -> list[str]:
    return replicas_converged([a.state for a in topology.registries.values()])


def _peering_inert(topology: Topology) -> list[str]:
    """Single-registry models never emit a peer update."""
    if topology.cfg.registry_multiplicity != "single":
        return []
    count = sum(n for (kind, _), n in topology.net.counts.items() if kind == PEER_UPDATE)
    return [f"{count} peer updates in a single-registry run"] if count else []


def _model_transparency(topology: Topology) -> list[str]:
    """Logged resolve answers equal a direct recomputation over the very
    records the registrar served."""
    violations: list[str] = []
    for rec in topology.log:
        if rec.kind != "resolve" or not rec.ok:
            continue
        uris, _ = resolve_record_set(
            tuple(parse_store_lines(rec.detail.get("records", ""))),
            ServiceSelector(rec.detail.get("service", "*")),
            "+" + rec.detail["number"],
            Visibility.RESTRICTED,
        )
        if "\n".join(uris) != rec.detail.get("uris", ""):
            violations.append(f"{rec.event_id}: resolve answer diverges from content")
    return violations


def _transfer_monotonic(topology: Topology) -> list[str]:
    """Transfer state sequences never regress."""
    violations: list[str] = []
    order = {state: i for i, state in enumerate(TransferState)}
    for actor in topology.registrars.values():
        for tid, record in actor.transfers.items():
            seen = record.history
            for a, b in zip(seen, seen[1:]):
                if b is TransferState.DISPUTED:
                    if a in (TransferState.COMPLETE, TransferState.DISPUTED):
                        violations.append(f"{tid}: disputed after {a.value}")
                elif order[b] <= order[a]:
                    violations.append(f"{tid}: {a.value} -> {b.value}")
    return violations


# The suite, in report order: (name, topology -> violation lines).
INVARIANTS: tuple[tuple[str, Callable[[Topology], list[str]]], ...] = (
    ("single_store", _single_store),
    ("transfer_conservation", _transfer_conservation),
    ("access_soundness", _access_soundness),
    ("serial_monotonicity", _serial_monotonicity),
    ("billing_conservation", _billing_conservation),
    ("replica_convergence", _replica_convergence),
    ("peering_inert", _peering_inert),
    ("model_transparency", _model_transparency),
    ("transfer_monotonic", _transfer_monotonic),
)


def assert_invariants(topology: Topology) -> InvariantReport:
    """Evaluate the cross-module invariant suite on a quiescent topology."""
    topology.drain()
    return InvariantReport([InvariantResult(name, check(topology)) for name, check in INVARIANTS])
