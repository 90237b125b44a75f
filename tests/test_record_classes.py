"""The package's record classes: plain slotted classes with a written-out
constructor. Each keeps the constructor it had as a dataclass (field
order, keyword names, defaults, a fresh container per instance where the
default is one), less the state fields no caller sets, which a few classes
build themselves. The classes that are compared take value equality and
a field-by-field repr from one base, ``Record``, and the hashed ones
value hashing from ``HashedRecord``; every other class compares by
identity."""

import ast
from pathlib import Path

import pytest

import enumstack
from enumstack._record import HashedRecord, Record
from enumstack.audit import InvariantReport, InvariantResult, ValueFlowEdge, ValueFlowGraph
from enumstack.e164 import DEFAULT_APEX, ApexConfig, E164Number, EnumDomain
from enumstack.market import (
    DEFAULT_PENETRATION,
    MarketTable,
    PotentialFixture,
    PotentialMarketEstimate,
    PotentialMarketInputs,
)
from enumstack.naptr import NaptrRecord, ServiceSelector, Visibility
from enumstack.registrar import (
    AuthorizationGrant,
    Party,
    Role,
    Subscription,
    TransferRecord,
    TransferState,
)
from enumstack.registry import (
    BillingEntry,
    Delegation,
    PeerUpdate,
    RegistryState,
    Tier0Table,
)
from enumstack.resolver import Hop, Resolution, ResolutionTrace
from enumstack.scenarios import Event, EventLog, LogRecord, ScenarioConfig
from enumstack.simulator import DeliveryRecord
from enumstack.wire import Frame

NUMBER = E164Number("1", "3154434473")
SIP = "!^.*$!sip:info@example.com!"
DELEGATION = Delegation("13154434473", "reg1", "R1", 1)
DOMAIN = EnumDomain(tuple("37443445131"))
TRACE = ResolutionTrace(NUMBER, DOMAIN)

# class -> (the arguments a test passes, in constructor order; the
# defaults of the fields after them). Together they name every field.
CASES = {
    ApexConfig: ({}, {"apex": "e164.arpa"}),
    E164Number: ({"country_code": "1", "national_digits": "3154434473"}, {}),
    EnumDomain: ({"digit_labels": ("3", "7", "4")}, {"apex": DEFAULT_APEX}),
    NaptrRecord: (
        {"order": 100, "preference": 10, "flags": "u", "service": "E2U+sip", "regexp": SIP},
        {"replacement": ".", "visibility": Visibility.PUBLIC},
    ),
    ServiceSelector: ({}, {"service": "*"}),
    Delegation: (
        {"number": "13154434473", "registrar": "reg1", "owning_registry": "R1", "serial": 3},
        {"updated_at": 0},
    ),
    Tier0Table: ({"entries": {"1": ("R1",)}}, {}),
    PeerUpdate: ({"delegation": DELEGATION, "kind": "created"}, {}),
    BillingEntry: ({"payer": "reg1", "amount": 1.0, "number": "13154434473"}, {"cause": ""}),
    RegistryState: (
        {"id": "R1"},
        {"served_prefixes": (), "peers": (), "accredited": frozenset(), "flat_fee": 1.0},
    ),
    Party: ({"id": "alice", "role": Role.USER}, {}),
    AuthorizationGrant: (
        {
            "grant_id": "g1", "grantor": "alice", "grantee": "asp1",
            "rights": frozenset({"provision"}), "scope": ServiceSelector("E2U+sip"),
            "number": "13154434473",
        },
        {},
    ),
    Subscription: (
        {"number": "13154434473", "user": "alice", "tsp": "tsp1", "token": "tok"},
        {"phone_active": True, "enum_active": False, "serving_registrar": None},
    ),
    TransferRecord: (
        {
            "transfer_id": "x1", "number": "13154434473", "from_registrar": "reg1",
            "to_registrar": "reg2", "user": "alice",
        },
        {},
    ),
    Hop: ({"tier": "tier0", "target": "tier0"}, {"response": None}),
    ResolutionTrace: ({"number": NUMBER, "domain": DOMAIN}, {}),
    Resolution: (
        {"number": NUMBER, "uris": ["sip:info@example.com"], "warnings": [], "trace": TRACE},
        {"registrar": "", "registry": "", "record_lines": "", "records": ()},
    ),
    DeliveryRecord: (
        {"tick": 4, "frame": Frame("GET", "client", "reg1", 7), "status": "dropped"}, {},
    ),
    Frame: (
        {"kind": "GET", "src": "client", "dst": "reg1", "req_id": 7},
        {"is_response": False, "fields": {}},
    ),
    ValueFlowEdge: (
        {
            "payer": "reg1", "payer_role": "Registrar", "payee": "R1", "payee_role": "Registry",
            "amount": 1.0, "cause": "register",
        },
        {},
    ),
    ValueFlowGraph: ({"edges": ()}, {}),
    InvariantResult: ({"name": "single_store", "violations": []}, {}),
    InvariantReport: ({"results": []}, {}),
    MarketTable: ({"name": "t", "rows": {"m": {2000: 1.0, 2001: 2.0}}}, {"units": {}}),
    PotentialMarketInputs: (
        {
            "total_toll": 1.0, "mobile_revenue": 2.0, "other_revenue": 3.0, "main_lines": 4.0,
            "mobile_subscribers": 5.0, "internet_users": 6.0,
        },
        {"penetration": DEFAULT_PENETRATION},
    ),
    PotentialMarketEstimate: ({"revenue": 1.0, "subscribers": 2.0}, {}),
    PotentialFixture: ({"rows": {}, "units": {}, "inputs": {}}, {}),
    ScenarioConfig: (
        {
            "model_id": 1, "users": ("alice",), "tsps": ("tsp1",), "asps": (),
            "registrar_ids": ("reg1",), "registries": ("R1",),
        },
        {
            "tier0_entries": {}, "accreditation": {}, "homes": {}, "flat_fee": 1.0,
            "user_fee": 1.0, "network_related": frozenset({"E2U+sip", "E2U+tel"}),
            "fault_plan": (), "apex": "e164.arpa",
        },
    ),
    LogRecord: ({"event_id": "e1", "tick": 3, "kind": "assign", "status": "ok"}, {"detail": {}}),
    EventLog: ({"records": []}, {}),
    Event: ({"kind": "assign", "args": {"number": "+13154434473"}}, {}),
}

# class -> the state fields its constructor builds, each at its start value;
# they follow the fields of CASES in __slots__, and no argument sets them.
BUILT = {
    RegistryState: {
        "delegations": {}, "tombstones": {}, "billing_ledger": [], "outbox": [],
        "observed_serials": {},
    },
    TransferRecord: {"migrated": None, "warnings": [], "history": [TransferState.REQUESTED]},
    Hop: {"note": ""},
    ResolutionTrace: {"hops": []},
}

# The classes the package or its tests compare, each with a change that
# makes an unequal instance; the formerly frozen ones among them, and the
# apex an EnumDomain compares through, also hash by value.
UNEQUAL = {
    ApexConfig: {"apex": "enum.example"},
    E164Number: {"national_digits": "3154434474"},
    EnumDomain: {"apex": ApexConfig("enum.example")},
    NaptrRecord: {"visibility": Visibility.RESTRICTED},
    ServiceSelector: {"service": "E2U+tel"},
    Delegation: {"updated_at": 1},
    AuthorizationGrant: {"scope": ServiceSelector("*")},
    Subscription: {"enum_active": True},
    Frame: {"fields": {"status": "ok"}},
}
HASHED = {ApexConfig, E164Number, EnumDomain, ServiceSelector, AuthorizationGrant}


def fields(obj):
    return tuple(getattr(obj, name) for name in type(obj).__slots__)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_a_record_class_keeps_its_constructor_and_value_semantics(cls):
    given, defaults = CASES[cls]
    built = BUILT.get(cls, {})
    assert tuple(cls.__slots__) == (*given, *defaults, *built)
    positional = cls(*given.values())
    keyword = cls(**given)
    assert not hasattr(positional, "__dict__")
    assert fields(positional) == fields(keyword) == (
        *given.values(), *defaults.values(), *built.values()
    )
    every = {**given, **defaults}
    assert fields(cls(*every.values())) == fields(cls(**every)) == fields(positional)
    for name, default in {**defaults, **built}.items():
        if isinstance(default, (list, dict)):
            assert getattr(positional, name) is not getattr(keyword, name)
    for name, start in built.items():
        with pytest.raises(TypeError):
            cls(**given, **{name: start})
    if cls in UNEQUAL:
        assert issubclass(cls, HashedRecord if cls in HASHED else Record)
        assert positional == keyword and not positional != keyword
        assert positional != cls(**{**given, **UNEQUAL[cls]})
        assert positional != type(cls.__name__, (cls,), {})(**given)  # only the same class
        shown = [f"{name}={value!r}" for name, value in zip(cls.__slots__, fields(positional))]
        assert repr(positional) == f"{cls.__name__}({', '.join(shown)})"
    else:  # compared by identity
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    if cls in HASHED:
        assert hash(positional) == hash(keyword)
    elif cls in UNEQUAL:
        with pytest.raises(TypeError):
            hash(positional)


def test_only_the_record_base_defines_value_methods():
    """Equality, hashing and repr each have one copy, in ``_record.py``."""
    package = Path(enumstack.__file__).parent
    defined = {
        (path.name, node.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("__eq__", "__hash__", "__repr__")
    }
    assert defined == {
        ("_record.py", "__eq__"), ("_record.py", "__repr__"), ("_record.py", "__hash__")
    }
