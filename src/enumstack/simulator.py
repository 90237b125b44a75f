"""Deterministic message-passing simulator.

All actors live in one process and exchange frames through a single
logical-time event queue. Delivery order is a seeded total order: each
send draws a delay of :data:`MIN_DELAY` to :data:`MAX_DELAY` (1 to 4)
ticks from the run's RNG, and ties break on a monotone sequence number,
so identical (seed, inputs) replay identical schedules byte for byte.

A send runs :func:`~enumstack.wire.check_frame` at once, so every
:class:`~enumstack.errors.WireError` that encoding the frame would raise is
raised there, but it builds no bytes: the queue holds the frame itself,
which the send takes ownership of and a delivery hands over, and nothing is
encoded, decoded or copied on the way. Whatever reads a frame's wire bytes
calls :func:`~enumstack.wire.encode_frame` where it reads them.
:meth:`Network.post` makes the one copy of a request's fields, so a caller
that changes its dict after the post does not change what is delivered;
each reply method of :class:`~enumstack.wire.Frame` builds a fresh dict.

Actors may be taken offline (manually or through configured fault
windows); frames addressed to an offline actor are dropped, never retried
by the network itself. Every request leaves through :meth:`Network.post`,
and every actor answers through :meth:`Network.answer`; pairing a request
with its response, and the one retry after a timeout, are
:meth:`Network.request`'s business.

The network keeps no copy of a frame it delivers. ``Network.counts``
counts every frame it pops by ``(kind, status)``, where the status is
:data:`DELIVERED` or :data:`DROPPED`. ``Network.frame_log`` holds one
:class:`DeliveryRecord` for each dropped frame only (its target offline
or unknown), so its size is bounded by the faults of a run, not by its
traffic.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

from .errors import EnumStackError, SnapshotError
from .wire import Frame, check_frame

DELIVERED = "delivered"
DROPPED = "dropped"
IDLE_STEP_LIMIT = 1_000_000  # deliveries before run_until_idle gives up
MIN_DELAY, MAX_DELAY = 1, 4  # ticks from a send to its delivery
_DELAY_SPAN = MAX_DELAY - MIN_DELAY + 1
_DELAY_BITS = _DELAY_SPAN.bit_length()

Handler = Callable[[Frame, "Network"], None]


class DeliveryRecord:
    """One dropped frame, for traces and fault checks."""

    __slots__ = ("tick", "frame", "status")

    def __init__(self, tick: int, frame: Frame, status: str) -> None:
        self.tick, self.frame, self.status = tick, frame, status


class Network:
    """Seeded deterministic frame transport with per-kind frame counts."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.clock = 0
        self._seq = 0
        self._req_counter = 0
        # Heap of (delivery tick, send sequence number, the frame to
        # deliver); the sequence number is unique, so ties never compare
        # the frames.
        self._queue: list[tuple[int, int, Frame]] = []
        self._actors: dict[str, Handler] = {}
        self._offline: set[str] = set()
        self._fault_windows: dict[str, list[tuple[int, int]]] = {}
        self._rpc_waiting: set[int] = set()
        self._rpc_responses: dict[int, Frame] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self.frame_log: list[DeliveryRecord] = []

    # ------------------------------------------------------------ wiring

    def register(self, actor_id: str, handler: Handler) -> None:
        self._actors[actor_id] = handler

    def add_fault_window(self, actor_id: str, start: int, end: int) -> None:
        self._fault_windows.setdefault(actor_id, []).append((start, end))

    def set_offline(self, actor_id: str) -> None:
        self._offline.add(actor_id)

    def set_online(self, actor_id: str) -> None:
        self._offline.discard(actor_id)

    def is_offline(self, actor_id: str, tick: int | None = None) -> bool:
        if actor_id in self._offline:
            return True
        if not self._fault_windows:
            return False
        at = self.clock if tick is None else tick
        return any(start <= at < end for start, end in self._fault_windows.get(actor_id, ()))

    # ------------------------------------------------------------ transport

    def next_req_id(self) -> int:
        self._req_counter += 1
        return self._req_counter

    def send(self, frame: Frame) -> None:
        """Check that *frame* encodes and schedule it for delivery. The
        network takes ownership of *frame*: the caller must not change it,
        or its fields dict, after the send."""
        check_frame(frame)
        # The draw randint(MIN_DELAY, MAX_DELAY) makes, without its
        # argument checks: getrandbits until a value falls in the span.
        getrandbits = self.rng.getrandbits
        r = getrandbits(_DELAY_BITS)
        while r >= _DELAY_SPAN:
            r = getrandbits(_DELAY_BITS)
        self._seq += 1
        heapq.heappush(self._queue, (self.clock + MIN_DELAY + r, self._seq, frame))

    def post(
        self, src: str, dst: str, kind: str, fields: dict[str, str] | None = None
    ) -> int:
        """Send a request frame under the next request id; returns the id."""
        req_id = self.next_req_id()
        # The frame's one copy of the caller's dict: send() queues the
        # frame itself, so the caller's dict must not be shared.
        self.send(Frame(kind, src, dst, req_id, False, {} if fields is None else dict(fields)))
        return req_id

    def answer(self, request: Frame, dispatch: Callable[[Frame, Network], Frame]) -> None:
        """Send *dispatch*'s reply to *request*, or the error reply for the
        :class:`EnumStackError` it raises; any other exception propagates,
        and so does a :class:`SnapshotError`: a state file that fails as a
        handler reads it is no answer the requester could act on."""
        try:
            reply = dispatch(request, self)
        except SnapshotError:
            raise
        except EnumStackError as exc:
            reply = request.err_reply(exc)
        self.send(reply)

    def pending(self) -> int:
        return len(self._queue)

    def advance(self, ticks: int) -> None:
        """Move logical time forward without delivering anything."""
        self.clock += max(0, ticks)

    def step(self) -> bool:
        """Deliver the next frame. Returns False when the queue is empty."""
        if not self._queue:
            return False
        at, _, frame = heapq.heappop(self._queue)
        if at > self.clock:
            self.clock = at
        if (self._offline or self._fault_windows) and self.is_offline(frame.dst):
            self._drop(frame)
            return True
        counts = self.counts
        delivered = (frame.kind, DELIVERED)
        if frame.is_response and frame.req_id in self._rpc_waiting:
            counts[delivered] = counts.get(delivered, 0) + 1
            self._rpc_responses[frame.req_id] = frame
            return True
        handler = self._actors.get(frame.dst)
        if handler is None:
            self._drop(frame)
            return True
        counts[delivered] = counts.get(delivered, 0) + 1
        handler(frame, self)
        return True

    def _drop(self, frame: Frame) -> None:
        key = (frame.kind, DROPPED)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.frame_log.append(DeliveryRecord(self.clock, frame, DROPPED))

    def run_until_idle(self) -> int:
        steps = 0
        while self._queue:
            if steps >= IDLE_STEP_LIMIT:
                raise RuntimeError(f"simulator did not quiesce within {IDLE_STEP_LIMIT} steps")
            self.step()
            steps += 1
        return steps

    # ------------------------------------------------------------ rpc

    def request(
        self,
        src: str,
        dst: str,
        kind: str,
        fields: dict[str, str] | None = None,
    ) -> Frame | None:
        """Send a request and pump the network until its response arrives.

        An attempt times out when the queue drains with no response, e.g.
        because the target is offline; the request is then sent once more
        under a new id. Returns None when that retry times out too.
        """
        for _ in range(2):
            req_id = self.post(src, dst, kind, fields)
            self._rpc_waiting.add(req_id)
            while req_id not in self._rpc_responses and self._queue:
                self.step()
            self._rpc_waiting.discard(req_id)
            response = self._rpc_responses.pop(req_id, None)
            if response is not None:
                return response
        return None
