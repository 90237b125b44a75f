"""Desk-scale ENUM stack.

Telephone-number/domain-name conversion, naming-authority-pointer record
resolution, a tiered registry/registrar provisioning system over a
deterministic simulated transport, six configurable administration-model
scenarios, and the telephony market-estimation arithmetic.
"""

from .e164 import (
    ApexConfig,
    DEFAULT_APEX,
    E164Number,
    EnumDomain,
    country_code_of,
    from_domain,
    parse_number,
    to_domain,
)
from .naptr import (
    NaptrRecord,
    NaptrRecordSet,
    ServiceSelector,
    Visibility,
    apply_regexp,
    parse_record,
    render_record,
    resolve_record_set,
    select,
)
from .registry import Delegation, PeerUpdate, RegistryState, Tier0Table, tier0_discover
from .registrar import (
    AuthorizationGrant,
    Directory,
    Party,
    RegistrarActor,
    Role,
    Subscription,
    TransferRecord,
    TransferState,
)
from .resolver import Resolution, resolve, resolve_all
from .scenarios import (
    ScenarioConfig,
    Topology,
    build_topology,
    builtin_config,
    canonical_events,
    load_config,
    parse_config,
    parse_events,
    run_events,
)
from .audit import ValueFlowGraph, assert_invariants, value_flow
from .market import (
    MarketTable,
    PotentialMarketEstimate,
    PotentialMarketInputs,
    growth_rate,
    load_market_table,
    load_potential_fixture,
    market_report,
    potential_market,
    share_of,
)

__version__ = "0.1.0"

__all__ = [
    "ApexConfig",
    "AuthorizationGrant",
    "DEFAULT_APEX",
    "Delegation",
    "Directory",
    "E164Number",
    "EnumDomain",
    "MarketTable",
    "NaptrRecord",
    "NaptrRecordSet",
    "Party",
    "PeerUpdate",
    "PotentialMarketEstimate",
    "PotentialMarketInputs",
    "RegistrarActor",
    "RegistryState",
    "Resolution",
    "Role",
    "ScenarioConfig",
    "ServiceSelector",
    "Subscription",
    "Tier0Table",
    "Topology",
    "TransferRecord",
    "TransferState",
    "ValueFlowGraph",
    "Visibility",
    "apply_regexp",
    "assert_invariants",
    "build_topology",
    "builtin_config",
    "canonical_events",
    "country_code_of",
    "from_domain",
    "growth_rate",
    "load_config",
    "load_market_table",
    "load_potential_fixture",
    "market_report",
    "parse_config",
    "parse_events",
    "parse_number",
    "parse_record",
    "potential_market",
    "render_record",
    "resolve",
    "resolve_all",
    "resolve_record_set",
    "run_events",
    "select",
    "share_of",
    "tier0_discover",
    "to_domain",
    "value_flow",
]
