"""Desk-scale ENUM stack.

Telephone-number/domain-name conversion, naming-authority-pointer record
resolution, a tiered registry/registrar provisioning system over a
deterministic simulated transport, six configurable administration-model
scenarios, and the telephony market-estimation arithmetic.

Every public name, and every submodule, loads on first use, so that a
caller pays only for the modules it reaches: ``enumstack.cli`` and
``market report`` load none of the topology stack.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names it exports from the package.
_EXPORTS = {
    "e164": ("ApexConfig", "DEFAULT_APEX", "E164Number", "EnumDomain", "country_code_of",
             "from_domain", "parse_number", "to_domain"),
    "naptr": ("NaptrRecord", "ServiceSelector", "Visibility", "apply_regexp", "parse_record",
              "render_record", "resolve_record_set", "select"),
    "registry": ("Delegation", "PeerUpdate", "RegistryState", "Tier0Table", "tier0_discover"),
    "registrar": ("AuthorizationGrant", "Directory", "Party", "RegistrarActor", "Role",
                  "Subscription", "TransferRecord", "TransferState"),
    "resolver": ("Resolution", "resolve", "resolve_all"),
    "scenarios": ("ScenarioConfig", "Topology", "build_topology", "builtin_config",
                  "canonical_events", "parse_config", "parse_events",
                  "run_events"),
    "audit": ("ValueFlowGraph", "assert_invariants", "value_flow"),
    "market": ("MarketTable", "PotentialMarketEstimate", "PotentialMarketInputs", "growth_rate",
               "load_market_table", "load_potential_fixture", "market_report",
               "potential_market", "share_of"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Load a public name's submodule, or a submodule, on first access."""
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
    elif name.isidentifier() and not name.startswith("_"):  # never __main__
        try:
            value = import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
