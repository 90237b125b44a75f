import pytest

from enumstack import builtin_config, build_topology, registrar, resolver
from enumstack.errors import NoDelegation, UnknownCountryCode
from enumstack.registrar import parse_store_lines
from enumstack.resolver import resolve, resolve_all
from enumstack.wire import GET, encode_frame

from test_wire import oracle_encode

SIP = '100 10 "u" "E2U+sip" "!^.*$!sip:alice@example.com!" .'
MAILTO = '110 10 "u" "E2U+mailto" "!^.*$!mailto:alice@example.com!" .'


def subscribed_topology(model=1, seed=2):
    topology = build_topology(builtin_config(model), seed=seed)
    topology.assign("+13154434473", "alice", "tsp1")
    topology.subscribe("+13154434473", "alice", "reg1", token="auto")
    topology.provision("+13154434473", "alice", SIP)
    topology.provision("+13154434473", "alice", MAILTO)
    return topology


def test_end_to_end_resolution():
    topology = subscribed_topology()
    result = resolve(
        "+1-315-443-4473", topology.net, apex=topology.apex, service="E2U+sip"
    )
    assert result.uris == ["sip:alice@example.com"]
    assert result.registrar == "reg1"
    assert result.registry == "R1"


def test_trace_walks_three_tiers():
    topology = subscribed_topology()
    result = resolve("+13154434473", topology.net, apex=topology.apex)
    tiers = [hop.tier for hop in result.trace.hops]
    assert tiers == ["tier0", "tier1", "tier2"]
    lines = result.trace.render_lines()
    assert "3.7.4.4.3.4.4.5.1.3.1.e164.arpa" in lines[0]


def test_trace_frames_are_logged_pairs(popped_frames):
    topology = subscribed_topology()
    result = resolve("+13154434473", topology.net, apex=topology.apex)
    logged_req_ids = [
        rec.frame.req_id for rec in popped_frames if rec.frame.is_response
    ]
    for hop in result.trace.hops:
        assert hop.response is not None
        assert hop.response.req_id in logged_req_ids


def test_unsubscribed_number():
    topology = subscribed_topology()
    with pytest.raises(NoDelegation):
        resolve("+19990000000", topology.net, apex=topology.apex)


def test_unknown_country_code():
    topology = subscribed_topology()
    with pytest.raises(UnknownCountryCode):
        resolve("+79990000000", topology.net, apex=topology.apex)


def test_no_matching_service_is_empty_not_error():
    topology = subscribed_topology()
    result = resolve(
        "+13154434473", topology.net, apex=topology.apex, service="E2U+web"
    )
    assert result.uris == []


def test_resolve_all_groups_by_service():
    topology = subscribed_topology()
    grouped = resolve_all("+13154434473", topology.net, apex=topology.apex)
    assert grouped == {
        "E2U+sip": ["sip:alice@example.com"],
        "E2U+mailto": ["mailto:alice@example.com"],
    }


def test_resolve_all_matches_per_service_union():
    topology = subscribed_topology()
    grouped = resolve_all("+13154434473", topology.net, apex=topology.apex)
    for service, uris in grouped.items():
        single = resolve(
            "+13154434473", topology.net, apex=topology.apex, service=service
        )
        assert single.uris == uris


def test_resolve_all_parses_the_get_reply_once(monkeypatch):
    topology = subscribed_topology()
    calls = []

    def counted(text):
        calls.append(text)
        return parse_store_lines(text)

    for module in (registrar, resolver):
        monkeypatch.setattr(module, "parse_store_lines", counted)
    assert set(resolve_all("+13154434473", topology.net, apex=topology.apex)) == {
        "E2U+sip", "E2U+mailto",
    }
    assert len(calls) == 1


def test_resolution_is_read_only():
    topology = subscribed_topology()
    before = topology.state_hash()
    resolve("+13154434473", topology.net, apex=topology.apex)
    resolve_all("+13154434473", topology.net, apex=topology.apex)
    with pytest.raises(NoDelegation):
        resolve("+19990000000", topology.net, apex=topology.apex)
    assert topology.state_hash() == before


def test_replica_answers_match_owner():
    # multi-registry model: number registered through reg2 (home R2) is
    # answered identically by R1's replica, which the resolver hits first.
    topology = build_topology(builtin_config(4), seed=3)
    topology.assign("+13154434474", "bob", "tsp1")
    topology.subscribe("+13154434474", "bob", "reg2", token="auto")
    topology.provision("+13154434474", "bob", SIP)
    result = resolve("+13154434474", topology.net, apex=topology.apex, service="E2U+sip")
    assert result.registry == "R1"  # replica, not owner
    assert result.uris == ["sip:alice@example.com"]
    owner = topology.registries["R2"].state.lookup_delegation("13154434474")
    replica = topology.registries["R1"].state.lookup_delegation("13154434474")
    assert owner == replica


def test_registry_timeout_falls_through_to_next():
    topology = build_topology(builtin_config(4), seed=3)
    topology.assign("+13154434474", "bob", "tsp1")
    topology.subscribe("+13154434474", "bob", "reg2", token="auto")
    topology.provision("+13154434474", "bob", SIP)
    topology.net.set_offline("R1")
    result = resolve("+13154434474", topology.net, apex=topology.apex, service="E2U+sip")
    assert result.registry == "R2"
    assert result.uris == ["sip:alice@example.com"]
    assert any("timeout" in hop.note for hop in result.trace.hops)


def test_escaped_path_end_to_end(popped_frames):
    # A client id and a URI holding ";", "=" and "%", and a reply holding
    # two records (so a line break), send frames down the escaped path.
    client = "res;o=l%ver"
    topology = build_topology(builtin_config(1), seed=2)
    topology.assign("+13154434473", "alice", "tsp1")
    topology.subscribe("+13154434473", "alice", "reg1", token="auto")
    topology.provision(
        "+13154434473", "alice", '100 10 "u" "E2U+sip" "!^.*$!sip:alice@example.com?a=b;c!" .'
    )
    topology.provision("+13154434473", "alice", MAILTO)
    result = resolve("+13154434473", topology.net, apex=topology.apex, client_id=client)
    assert result.uris == ["sip:alice@example.com?a=b;c", "mailto:alice@example.com"]
    assert result.registrar == "reg1"
    ours = [rec.frame for rec in popped_frames if client in (rec.frame.src, rec.frame.dst)]
    assert len(ours) == 6
    reply = ours[-1]
    assert (reply.kind, reply.is_response) == (GET, True)
    assert reply.get("records").count("\n") == 1
    for rec in popped_frames:
        assert encode_frame(rec.frame) == oracle_encode(rec.frame)
