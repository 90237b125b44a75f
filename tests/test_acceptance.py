"""Acceptance gate: every criterion at its stated tolerance.

Known red: criterion 2's usa-2000 subscriber cell. The bundled table
prints 17.75M, but 5% of its own component rows (184 + 86 + 95 million)
is 18.25M; the components are shipped verbatim, so the assertion against
the printed value fails by design rather than bending either side.
"""

import itertools
import random
import time

import pytest

from enumstack import e164
from enumstack.market import (
    load_market_table,
    load_potential_fixture,
    potential_market,
    round_half_up,
)
from enumstack.naptr import (
    NaptrRecord,
    NaptrRecordSet,
    ServiceSelector,
    Visibility,
    select,
)
from enumstack.audit import AccessOracle, assert_invariants, replicas_converged, value_flow
from enumstack.registrar import TransferState
from enumstack.scenarios import (
    build_topology,
    builtin_config,
    canonical_events,
    run_events,
)

from importlib.resources import files as resource_files

MARKET = resource_files("enumstack").joinpath("fixtures/market")


# ------------------------------------------------------------ criterion 1


def test_criterion_1_worked_example():
    started = time.perf_counter()
    for _ in range(1000):
        rendered = e164.to_domain(e164.parse_number("+1-315-443-4473")).render()
    elapsed = time.perf_counter() - started
    assert rendered == "3.7.4.4.3.4.4.5.1.3.1.e164.arpa"
    assert elapsed / 1000 < 0.001  # under a millisecond per conversion


# ------------------------------------------------------------ criterion 2

_PRINTED_POTENTIAL = [
    ("world", 2000, "revenue", 30.5),
    ("world", 2000, "subscribers", 96.55),
    ("world", 2002, "revenue", 36.0),
    ("world", 2002, "subscribers", 130.75),
    ("usa", 2000, "revenue", 10.05),
    ("usa", 2000, "subscribers", 17.75),
    ("usa", 2002, "revenue", 11.15),
    ("usa", 2002, "subscribers", 24.9),
]


@pytest.mark.parametrize("region,year,kind,printed", _PRINTED_POTENTIAL)
def test_criterion_2_potential_market_cells(region, year, kind, printed):
    fixture = load_potential_fixture(str(MARKET / "potential_market.csv"))
    estimate = potential_market(fixture.inputs[(region, year)])
    computed = estimate.revenue if kind == "revenue" else estimate.subscribers
    assert computed == pytest.approx(printed, abs=0.01), (
        f"{region} {year} {kind}: computed {computed} vs printed {printed}"
    )


# ------------------------------------------------------------ criterion 3

_PRINTED_GROWTH = {
    "internet_users_world": {2001: 35.2, 2002: 29.7, 2003: 25.8, 2004: 26.6},
    "internet_users_usa": {2001: 24.7, 2002: 24.4, 2003: 16.2, 2004: 12.9},
}

_PRINTED_SHARE = {
    "pc_to_phone_world": {2000: 2.89, 2001: 4.72, 2002: 7.2, 2003: 10.31, 2004: 13.99},
    "pc_to_phone_usa": {2000: 3.74, 2001: 5.98, 2002: 8.95, 2003: 12.64, 2004: 16.99},
}


def test_criterion_3_growth_cells():
    table = load_market_table(str(MARKET / "ip_telephony.csv"), "ip_telephony")
    for metric, printed_by_year in _PRINTED_GROWTH.items():
        for year, printed in printed_by_year.items():
            current = table.value(metric, year)
            base = table.value(metric, year - 1)
            oracle = 100.0 * (current - base) / base  # plain arithmetic
            assert oracle == pytest.approx(printed, abs=0.05)
            from enumstack.market import growth_rate

            assert growth_rate(table, metric, year) == pytest.approx(printed, abs=0.05)


def test_criterion_3_share_cells():
    table = load_market_table(str(MARKET / "ip_telephony.csv"), "ip_telephony")
    for metric, printed_by_year in _PRINTED_SHARE.items():
        base_metric = "internet_users_" + metric.rsplit("_", 1)[1]
        for year, printed in printed_by_year.items():
            oracle = 100.0 * table.value(metric, year) / table.value(base_metric, year)
            assert round_half_up(oracle, 2) == pytest.approx(printed, abs=0.005)
            from enumstack.market import share_of

            assert share_of(table, metric, base_metric, year) == pytest.approx(
                printed, abs=0.005
            )


# ------------------------------------------------------------ criterion 4


def test_criterion_4_roundtrip_10k():
    rng = random.Random(164)
    apexes = [
        e164.ApexConfig("e164.arpa"),
        e164.ApexConfig("enum.example"),
        e164.ApexConfig("tree.alt.example"),
        e164.ApexConfig("x1.y2.z3"),
    ]
    started = time.perf_counter()
    for _ in range(10_000):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(3, 15)))
        apex = rng.choice(apexes)
        number = e164.parse_number("+" + digits)
        assert e164.from_domain(e164.to_domain(number, apex).render(), apex) == number
    assert time.perf_counter() - started < 5.0


# ------------------------------------------------------------ criterion 5


def _oracle_select(records, selector, requester):
    filtered = [
        r
        for r in records
        if selector.matches(r.service)
        and (r.visibility is Visibility.PUBLIC or requester is Visibility.RESTRICTED)
    ]
    for perm in itertools.permutations(enumerate(filtered)):
        keys = [(r.order, r.preference) for _, r in perm]
        if keys != sorted(keys):
            continue
        if all(
            not ((a.order, a.preference) == (b.order, b.preference) and i > j)
            for (i, a), (j, b) in itertools.combinations(perm, 2)
        ):
            return [r for _, r in perm]
    return []


def test_criterion_5_selection_oracle_1k_sets():
    rng = random.Random(2915)
    number = e164.parse_number("+13154434473")
    services = ["E2U+sip", "E2U+mailto", "E2U+tel", "E2U+web"]
    for _ in range(1000):
        records = tuple(
            NaptrRecord(
                order=rng.randint(0, 3),
                preference=rng.randint(0, 3),
                flags="u",
                service=rng.choice(services),
                regexp=f"!^.*$!sip:u{rng.randint(0, 99)}@example.com!",
                visibility=rng.choice([Visibility.PUBLIC, Visibility.RESTRICTED]),
            )
            for _ in range(rng.randint(0, 6))
        )
        selector = ServiceSelector(rng.choice(["*"] + services))
        requester = rng.choice([Visibility.PUBLIC, Visibility.RESTRICTED])
        got = select(NaptrRecordSet(number, records), selector, requester)
        assert got == _oracle_select(records, selector, requester)


# ------------------------------------------------------------ criterion 6


def test_criterion_6_model_transparency():
    answers = {}
    for model in range(1, 7):
        topology = build_topology(builtin_config(model), seed=17)
        log = run_events(topology, canonical_events())
        resolved = [
            (r.detail["number"], r.detail["service"], r.detail["uris"])
            for r in log.records
            if r.kind == "resolve"
        ]
        assert resolved and all(r.ok for r in log.records if r.kind == "resolve")
        answers[model] = "\x00".join("|".join(item) for item in resolved).encode()
    baseline = answers[1]
    for model in range(2, 7):
        assert answers[model] == baseline, f"model {model} resolution diverged"


# ------------------------------------------------------------ criterion 7

_EXPECTED_FLOWS = {
    1: {("User", "TSP"), ("ASP", "TSP"), ("TSP", "Registry")},
    2: {("User", "ASP"), ("ASP", "Registry")},
    3: {("User", "IndependentRegistrar"), ("IndependentRegistrar", "Registry")},
    6: {("User", "IndependentRegistrar"), ("IndependentRegistrar", "Registry")},
}


@pytest.mark.parametrize("model", sorted(_EXPECTED_FLOWS))
def test_criterion_7_value_flow_fidelity(model):
    topology = build_topology(builtin_config(model), seed=17)
    run_events(topology, canonical_events())
    pairs = value_flow(topology).role_pairs()
    assert pairs == _EXPECTED_FLOWS[model]
    assert ("User", "Registry") not in pairs


# ------------------------------------------------------------ criterion 8

_SERVICES = ["E2U+sip", "E2U+mailto", "E2U+tel"]


def _random_record_line(rng):
    service = rng.choice(_SERVICES)
    vis = rng.choice(["public", "restricted"])
    return (
        f'{vis} {rng.randint(0, 200)} {rng.randint(0, 50)} "u" "{service}" '
        f'"!^.*$!sip:u{rng.randint(0, 999)}@example.com!" .'
    )


def test_criterion_8_transfer_conservation_500():
    rng = random.Random(421)
    transfers = 0
    for batch in range(10):
        topology = build_topology(builtin_config(rng.choice([1, 4])), seed=batch)
        for i in range(50):
            digits = f"+1315{batch:02d}{i:03d}11"
            src, dst = ("reg1", "reg2") if rng.random() < 0.5 else ("reg2", "reg1")
            topology.assign(digits, "alice", "tsp1")
            topology.subscribe(digits, "alice", src, token="auto")
            for _ in range(rng.randint(0, 4)):
                try:
                    topology.provision(digits, "alice", _random_record_line(rng))
                except Exception:
                    raise
            before = sorted(
                map(str, topology.registrars[src].store.get(digits.lstrip("+"), []))
            )
            detail = topology.transfer(digits, "alice", dst)
            assert detail["state"] == "Complete"
            assert detail["warnings"] == ""
            number = digits.lstrip("+")
            after = sorted(map(str, topology.registrars[dst].store.get(number, [])))
            assert after == before
            assert topology.registrars[src].store.get(number, []) == []
            transfers += 1
        topology.completed = True
        report = assert_invariants(topology)
        assert report.passed, report.render_lines()
    assert transfers == 500


def test_criterion_8_outage_completes_with_warning():
    topology = build_topology(builtin_config(1), seed=8)
    topology.assign("+13154434473", "alice", "tsp1")
    topology.subscribe("+13154434473", "alice", "reg1", token="auto")
    topology.provision(
        "+13154434473", "alice", '100 10 "u" "E2U+sip" "!^.*$!sip:a@b!" .'
    )
    topology.offline("reg1")
    detail = topology.transfer("+13154434473", "alice", "reg2")
    assert detail["state"] == "Complete"
    assert detail["migrated"] == ""
    assert "unreachable" in detail["warnings"]
    warned = [r for r in topology.log if r.kind == "transfer"][-1]
    assert "unreachable" in warned.detail["warnings"]


@pytest.mark.parametrize("steps", [0, 1, 2, 3])
def test_criterion_8_dispute_rolls_back_at_every_state(steps):
    topology = build_topology(builtin_config(1), seed=steps)
    topology.assign("+13154434473", "alice", "tsp1")
    topology.subscribe("+13154434473", "alice", "reg1", token="auto")
    topology.provision(
        "+13154434473", "alice", '100 10 "u" "E2U+sip" "!^.*$!sip:a@b!" .'
    )
    tid = topology.begin_transfer("+13154434473", "alice", "reg2")
    for _ in range(steps):
        topology.step_transfer(tid)
    detail = topology.dispute_transfer(tid, by="reg1", reason="challenged")
    assert detail["state"] == "Disputed"
    delegation = topology.registries["R1"].state.lookup_delegation("13154434473")
    assert delegation.registrar == "reg1"
    assert len(topology.registrars["reg1"].store.get("13154434473", [])) == 1
    assert topology.registrars["reg2"].store.get("13154434473", []) == []
    record = topology.registrars["reg2"].transfers[tid]
    assert record.state is TransferState.DISPUTED


# ------------------------------------------------------------ criterion 9


@pytest.mark.parametrize("model", [4, 5, 6])
def test_criterion_9_replicas_converge(model):
    topology = build_topology(builtin_config(model), seed=9)
    script = canonical_events() + (
        "step transfer number=+13154434474 user=bob to=reg1\n"
        "step disconnect number=+13154434475 user=carol kind=enum_only\n"
    )
    run_events(topology, script)
    states = [actor.state for actor in topology.registries.values()]
    assert replicas_converged(states) == []
    for owner in states:
        for number, delegation in owner.delegations.items():
            if delegation.owning_registry != owner.id:
                continue
            for other in states:
                if other.id == owner.id:
                    continue
                replica = other.delegations.get(number)
                assert replica is not None and replica.serial == delegation.serial
    report = assert_invariants(topology)
    assert report.result("replica_convergence").passed


def test_criterion_9_peering_fault_detected():
    script = (
        "step assign number=+13154434473 user=alice tsp=tsp1\n"
        "step offline actor=R2\n"
        "step subscribe number=+13154434473 user=alice registrar=reg1 token=auto\n"
        "step online actor=R2\n"
    )
    topology = build_topology(builtin_config(4), seed=9)
    run_events(topology, script)
    report = assert_invariants(topology)
    assert not report.result("replica_convergence").passed


# ------------------------------------------------------------ criterion 10


def test_criterion_10_access_soundness_1k_sequences():
    rng = random.Random(4100)
    topology = build_topology(builtin_config(1), seed=10)
    numbers = []
    for i in range(5):
        raw = f"+1315888{i:04d}"
        topology.assign(raw, "alice", "tsp1")
        topology.subscribe(raw, "alice", "reg1", token="auto")
        numbers.append(raw)
    actors = ["alice", "asp1", "tsp1", "reg1", "mallory", "bob"]
    rights_pool = ["provision", "access", "change", "provision,access"]
    scopes = ["*"] + _SERVICES
    issued: list[str] = []
    for _ in range(1000):
        for _ in range(rng.randint(2, 5)):
            number = rng.choice(numbers)
            roll = rng.random()
            try:
                if roll < 0.25:
                    detail = topology.grant(
                        number, "alice", rng.choice(actors[1:]),
                        rng.choice(rights_pool), rng.choice(scopes),
                    )
                    issued.append(detail["grant"])
                elif roll < 0.4 and issued:
                    topology.revoke(number, "alice", rng.choice(issued))
                elif roll < 0.75:
                    topology.provision(
                        number, rng.choice(actors), _random_record_line(rng)
                    )
                else:
                    topology.get(
                        number, rng.choice(actors), rng.choice(["*"] + _SERVICES)
                    )
            except Exception:
                continue  # denied operations stay in the log as errors
    violations = AccessOracle(topology.cfg).check(topology.log)
    assert violations == []


def test_criterion_10_planted_violation_detected():
    topology = build_topology(builtin_config(1), seed=10)
    topology.assign("+13154434473", "alice", "tsp1")
    topology.subscribe("+13154434473", "alice", "reg1", token="auto")
    topology.backdoor_provision(
        "reg1", "+13154434473",
        '100 10 "u" "E2U+mailto" "!^.*$!mailto:evil@example.com!" .',
        actor="mallory",
    )
    topology.completed = True
    report = assert_invariants(topology)
    result = report.result("access_soundness")
    assert not result.passed
    assert any("mallory" in v for v in result.violations)
