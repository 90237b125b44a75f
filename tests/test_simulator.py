import random
from collections import Counter

import pytest

from enumstack import simulator
from enumstack.errors import NoDelegation
from enumstack.scenarios import (
    MODEL_GRID,
    build_topology,
    builtin_config,
    canonical_events,
    run_events,
)
from enumstack.simulator import DELIVERED, DROPPED, MAX_DELAY, MIN_DELAY, Network
from enumstack.wire import Frame, decode_frame, encode_frame

from test_scenarios import TRANSFER_FAULT_EVENTS


class Echo:
    """Replies ok to any request, tagging the answer with its id."""

    def __init__(self, actor_id):
        self.actor_id = actor_id
        self.seen = []

    def handle_frame(self, frame, net):
        if frame.is_response:
            return
        self.seen.append(frame)
        net.send(frame.ok_reply(who=self.actor_id))


def make_net(seed=0):
    net = Network(seed=seed)
    actors = {name: Echo(name) for name in ("a", "b", "c")}
    for name, actor in actors.items():
        net.register(name, actor.handle_frame)
    return net, actors


def test_request_response():
    net, actors = make_net()
    resp = net.request("client", "a", "GET", {"number": "123"})
    assert resp is not None and resp.ok
    assert resp.get("who") == "a"
    assert actors["a"].seen[0].get("number") == "123"



def test_post_numbers_requests_and_sends_the_frame_a_caller_would_build(popped_frames):
    net, _ = make_net()
    fields = {"number": "123", "note": "a;b=c"}
    ids = [net.post("client", "a", "GET", fields), net.post("client", "b", "LOOKUP")]
    assert ids == [1, 2] and net.next_req_id() == 3
    net.run_until_idle()
    requests = [r.frame for r in popped_frames if not r.frame.is_response]
    assert [encode_frame(f) for f in requests] == [
        encode_frame(Frame(kind="GET", src="client", dst="a", req_id=1, fields=fields)),
        encode_frame(Frame(kind="LOOKUP", src="client", dst="b", req_id=2)),
    ]


class Answering:
    """Answers every request through ``Network.answer`` with *dispatch*."""

    def __init__(self, dispatch):
        self.dispatch = dispatch

    def handle_frame(self, frame, net):
        if not frame.is_response:
            net.answer(frame, self.dispatch)


def test_answer_sends_the_reply_or_the_package_error():
    def dispatch(frame, net):
        if frame.get("number") == "0":
            raise NoDelegation("no delegation for '0'")
        return frame.ok_reply(number=frame.get("number"))

    net = Network()
    net.register("r", Answering(dispatch).handle_frame)
    assert net.request("client", "r", "LOOKUP", {"number": "7"}).fields == {
        "status": "ok", "number": "7",
    }
    assert net.request("client", "r", "LOOKUP", {"number": "0"}).fields == {
        "status": "NoDelegation", "message": "no delegation for '0'",
    }


def test_answer_lets_a_non_package_error_propagate():
    def dispatch(frame, net):
        raise KeyError("bug")

    net = Network()
    net.register("r", Answering(dispatch).handle_frame)
    with pytest.raises(KeyError):
        net.request("client", "r", "LOOKUP")

def test_same_seed_same_schedule(popped_frames):
    def run(seed):
        net, _ = make_net(seed)
        start = len(popped_frames)
        for i in range(10):
            net.send(Frame(kind="GET", src="client", dst="abc"[i % 3],
                           req_id=net.next_req_id(), fields={"i": str(i)}))
        net.run_until_idle()
        return [(r.tick, r.frame.dst, r.frame.get("i")) for r in popped_frames[start:]]

    assert run(5) == run(5)


def test_clock_advances_monotonically(popped_frames):
    net, _ = make_net()
    net.request("client", "a", "GET", {})
    net.request("client", "b", "GET", {})
    ticks = [r.tick for r in popped_frames]
    assert ticks == sorted(ticks)
    assert net.clock >= ticks[-1]


def test_offline_drops_frames():
    net, actors = make_net()
    net.set_offline("a")
    resp = net.request("client", "a", "GET", {})
    assert resp is None
    assert actors["a"].seen == []
    dropped = [r for r in net.frame_log if r.status == DROPPED]
    # one original attempt plus one retry
    assert len(dropped) == 2


def test_online_restores_delivery():
    net, actors = make_net()
    net.set_offline("a")
    assert net.request("client", "a", "GET", {}) is None
    net.set_online("a")
    assert net.request("client", "a", "GET", {}) is not None


def test_fault_window():
    net, _ = make_net()
    net.add_fault_window("a", 0, 50)
    assert net.request("client", "a", "GET", {}) is None
    net.advance(100)
    assert net.request("client", "a", "GET", {}) is not None


def test_unknown_actor_dropped():
    net, _ = make_net()
    assert net.request("client", "ghost", "GET", {}) is None
    assert all(r.status in (DELIVERED, DROPPED) for r in net.frame_log)


def test_run_until_idle_drains_everything():
    net, _ = make_net()
    for i in range(5):
        net.send(Frame(kind="GET", src="x", dst="a", req_id=net.next_req_id()))
    net.run_until_idle()
    assert net.pending() == 0


# ---------------------------------------------------------------- delay draw

def assert_draws_equal_randint(lo, hi):
    for seed in range(60):
        net = Network(seed=seed)
        for _ in range(40):
            net.send(Frame(kind="GET", src="x", dst="a", req_id=net.next_req_id()))
        # the clock is 0, so each queued tick is the send's delay
        delays = [tick for tick, _, _ in sorted(net._queue, key=lambda entry: entry[1])]
        ref = random.Random(seed)
        assert delays == [ref.randint(lo, hi) for _ in range(40)]
        # and the generator is left where randint leaves it
        assert net.rng.getstate() == ref.getstate()


def test_the_delay_is_randint_of_min_to_max_delay():
    assert (MIN_DELAY, MAX_DELAY) == (1, 4)
    assert_draws_equal_randint(MIN_DELAY, MAX_DELAY)


@pytest.mark.parametrize(
    "lo, hi",
    [(1, 4), (0, 0), (3, 3), (1, 2), (0, 7), (1, 8), (0, 15), (1, 3), (2, 6), (5, 17),
     (0, 99), (1, 1000)],
)
def test_delay_draw_equals_randint(lo, hi, monkeypatch):
    # The draw in send is written for any span, so it must stay randint's
    # if the constants change: spans of 1, of powers of two and of others.
    span = hi - lo + 1
    monkeypatch.setattr(simulator, "MIN_DELAY", lo)
    monkeypatch.setattr(simulator, "_DELAY_SPAN", span)
    monkeypatch.setattr(simulator, "_DELAY_BITS", span.bit_length())
    assert_draws_equal_randint(lo, hi)


# ---------------------------------------------------------------- transport contract

def test_delivered_frames_are_counted_not_logged():
    net, _ = make_net()
    assert net.request("client", "a", "GET", {}) is not None
    assert net.frame_log == []
    assert net.counts == {("GET", DELIVERED): 2}


@pytest.mark.parametrize("offline", [True, False], ids=["offline", "unroutable"])
def test_dropped_frame_logged_once(offline):
    net, _ = make_net()
    dst = "a" if offline else "ghost"
    if offline:
        net.set_offline("a")
    net.send(Frame(kind="LOOKUP", src="x", dst=dst, req_id=net.next_req_id()))
    net.run_until_idle()
    assert len(net.frame_log) == 1
    record = net.frame_log[0]
    assert (record.status, record.tick, record.frame.dst) == (DROPPED, net.clock, dst)
    assert net.counts == {("LOOKUP", DROPPED): 1}


def test_counts_sum_to_frames_popped(popped_frames):
    net, _ = make_net(seed=3)
    net.add_fault_window("b", 0, 30)
    for i in range(30):
        kind = ("GET", "LOOKUP", "PROVISION")[i % 3]
        net.request("client", "abcx"[i % 4], kind, {"i": str(i)})
        net.advance(i % 3)
    assert sum(net.counts.values()) == len(popped_frames)
    dropped = sum(n for (_, status), n in net.counts.items() if status == DROPPED)
    assert dropped == len(net.frame_log) > 0
    by_kind = Counter()
    for (kind, _), n in net.counts.items():
        by_kind[kind] += n
    assert by_kind == Counter(record.frame.kind for record in popped_frames)


# ---------------------------------------------------------------- delivered frames

@pytest.mark.parametrize("script", ["canonical", "transfer faults"])
@pytest.mark.parametrize("model", sorted(MODEL_GRID))
def test_every_popped_frame_equals_the_decode_of_its_queued_bytes(model, script, monkeypatch):
    # The network queues the frame, not its bytes. The bytes the frame
    # encoded to when it was queued must still decode to the frame at the
    # pop, and the frame must still encode to them: nothing changes a
    # frame between its send and its delivery.
    sent, popped, mismatched = {}, [], []
    send, step = Network.send, Network.step

    def recording_send(net, frame):
        send(net, frame)
        sent[net._seq] = encode_frame(frame)

    def checking_step(net):
        if net._queue:
            _, seq, frame = net._queue[0]
            data = sent.pop(seq)
            popped.append(data)
            if decode_frame(data) != frame or encode_frame(frame) != data:
                mismatched.append((data, frame))
        return step(net)

    monkeypatch.setattr(Network, "send", recording_send)
    monkeypatch.setattr(Network, "step", checking_step)
    topology = build_topology(builtin_config(model), seed=0)
    extra = TRANSFER_FAULT_EVENTS if script == "transfer faults" else ""
    run_events(topology, canonical_events() + extra)
    assert mismatched == []
    assert len(popped) == sum(topology.net.counts.values()) > 0
    assert any(b"%" in data for data in popped)  # escaped fields are covered


def test_the_popped_frame_is_the_very_frame_sent(popped_frames):
    net, actors = make_net()
    frame = Frame(kind="GET", src="client", dst="a", req_id=net.next_req_id(), fields={"n": "1"})
    net.send(frame)
    net.run_until_idle()
    assert popped_frames[0].frame is frame and actors["a"].seen[0] is frame


def test_a_change_to_the_callers_fields_after_post_is_not_delivered():
    net, actors = make_net()
    fields = {"number": "123"}
    net.post("client", "a", "GET", fields)
    fields["number"] = "456"
    fields["extra"] = "x"
    net.run_until_idle()
    (delivered,) = actors["a"].seen
    assert delivered.fields == {"number": "123"}
