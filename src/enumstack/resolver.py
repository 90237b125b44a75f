"""End-to-end resolution client.

Walks number -> domain name -> tier-0 discovery -> tier-1 delegation ->
tier-2 record fetch -> selection and rewrite, entirely over the simulated
wire, and returns the URIs together with a hop-by-hop trace. Resolution
never mutates topology state; each hop is retried once on timeout, and
tier-1 falls through the discovered registries in table order until one
answers.
"""

from __future__ import annotations

from .e164 import ApexConfig, E164Number, EnumDomain, parse_number, to_domain
from .errors import HopTimeout, status_error
from .naptr import NaptrRecord, ServiceSelector, resolve_record_set, Visibility
from .registrar import parse_store_lines
from .simulator import Network
from .wire import DISCOVER, Frame, GET, LOOKUP, TIER0_ID


class Hop:
    __slots__ = ("tier", "target", "response", "note")

    def __init__(self, tier: str, target: str, response: Frame | None = None) -> None:
        self.tier = tier
        self.target = target
        self.response = response
        self.note = ""

    def render(self) -> str:
        out = self.response.fields if self.response is not None else {}
        summary = ";".join(f"{k}={v}" for k, v in sorted(out.items()))
        note = f" ({self.note})" if self.note else ""
        return f"{self.tier} {self.target} -> {summary or 'timeout'}{note}"


class ResolutionTrace:
    __slots__ = ("number", "domain", "hops")

    def __init__(self, number: E164Number, domain: EnumDomain) -> None:
        self.number, self.domain = number, domain
        self.hops: list[Hop] = []

    def render_lines(self) -> list[str]:
        return [f"number {self.number.render()} domain {self.domain.render()}"] + [
            hop.render() for hop in self.hops
        ]


class Resolution:
    __slots__ = (
        "number", "uris", "warnings", "trace", "registrar", "registry", "record_lines", "records",
    )

    def __init__(
        self, number: E164Number, uris: list[str], warnings: list[str], trace: ResolutionTrace,
        registrar: str = "", registry: str = "", record_lines: str = "",
        records: tuple[NaptrRecord, ...] = (),
    ) -> None:
        self.number = number
        self.uris = uris
        self.warnings = warnings
        self.trace = trace
        self.registrar = registrar
        self.registry = registry
        self.record_lines = record_lines  # the GET reply's records, as sent
        self.records = records  # and parsed


def resolve(
    raw_number: str,
    net: Network,
    apex: ApexConfig = ApexConfig(),
    service: str = "*",
    client_id: str = "resolver",
) -> Resolution:
    """Resolve a number to the URIs for *service* ("*" for all).

    Raises the underlying tier errors (UnknownCountryCode, NoDelegation,
    EnumInactive, HopTimeout); a service with no matching records is an
    empty list, not an error.
    """
    number = parse_number(raw_number)
    digits = number.full_digits
    trace = ResolutionTrace(number, to_domain(number, apex))

    def ask(tier: str, target: str, kind: str, fields: dict[str, str]) -> Frame | None:
        """One traced hop: the response, or None on timeout. An error
        response raises the error it names."""
        response = net.request(client_id, target, kind, fields)
        trace.hops.append(Hop(tier=tier, target=target, response=response))
        if response is not None and not response.ok:
            raise status_error(response.status, response.get("message"))
        return response

    response = ask("tier0", TIER0_ID, DISCOVER, {"cc": digits})
    if response is None:
        raise HopTimeout("tier-0 discovery timed out")
    registries = [r for r in response.get("registries").split(",") if r]

    for registry in registries:
        response = ask("tier1", registry, LOOKUP, {"number": digits})
        if response is not None:
            registrar = response.get("registrar")
            break
        trace.hops[-1].note = "timeout, trying next registry"
    else:
        raise HopTimeout(f"no registry answered for {digits}")

    response = ask(
        "tier2",
        registrar,
        GET,
        {"number": digits, "actor": client_id, "service": service},
    )
    if response is None:
        raise HopTimeout(f"registrar {registrar} timed out")

    record_lines = response.get("records")
    records = tuple(parse_store_lines(record_lines))
    # The registrar already filtered visibility for this requester.
    uris, warnings = resolve_record_set(
        records, ServiceSelector(service), number, Visibility.RESTRICTED
    )
    return Resolution(number, uris, warnings, trace, registrar, registry, record_lines, records)


def resolve_all(
    raw_number: str,
    net: Network,
    apex: ApexConfig = ApexConfig(),
    client_id: str = "resolver",
) -> dict[str, list[str]]:
    """Wildcard resolution grouped by service field."""
    resolution = resolve(raw_number, net, apex, "*", client_id)
    number, records = resolution.number, resolution.records
    grouped: dict[str, list[str]] = {}
    for service in dict.fromkeys(rec.service for rec in records):
        uris, _warnings = resolve_record_set(
            records, ServiceSelector(service), number, Visibility.RESTRICTED
        )
        if uris:
            grouped[service] = uris
    return grouped
