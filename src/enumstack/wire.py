"""Wire frames for the simulated transport.

One frame holds one request or one response. On the wire a frame is a
length-prefixed UTF-8 text record: ``<decimal byte length>:<body>`` where
the body is ``key=value`` pairs separated by ``;``. Keys and values are
percent-escaped so records, URIs and free text pass through unharmed:
``%``, ``;``, ``=``, newline and carriage return become ``%25``, ``%3B``,
``%3D``, ``%0A`` and ``%0D``. Escaping replaces each character on its
own, so :func:`encode_frame` escapes a frame once, not each value: when
the unescaped body holds one ``=`` per pair and one ``;`` between pairs,
every ``=`` and ``;`` in it is structural, and one pass over the body
escapes its ``%`` (first), newlines and carriage returns. A reply with
two or more records, separated by newlines, takes that pass. Only a body
with ``=`` or ``;`` inside a key or value is written again with each key
and value escaped in turn, the one slow path. A key or value that is not
a ``str`` fails the join, and one holding a lone surrogate fails the UTF-8
encoding; each is refused as a :class:`WireError` naming the field.

A :class:`Frame` is a slotted :class:`~enumstack._record.Record`,
compared and printed by its field values. Callers treat it as immutable.
Building one checks that no field uses a header key.

The simulator queues and delivers the frame it is sent, never its bytes:
a send runs :func:`check_frame`, which refuses exactly the frames
:func:`encode_frame` refuses, with the same :class:`WireError`, without
building the body. Bytes are made only where they are read, by calling
:func:`encode_frame` there. ``Network.post`` makes the one copy of a
request's fields, and each reply method builds a fresh dict.
:func:`decode_frame` is the format's strict inverse,
``decode_frame(encode_frame(f)) == f``, for whatever reads frames back from
bytes: it refuses a request id that is not the ``%d`` form of an integer
and a ``resp`` other than ``0`` or ``1``.
"""

from __future__ import annotations

from typing import Mapping

from ._record import Record
from .errors import WireError

# Request kinds understood by the tier actors.
DISCOVER = "DISCOVER"
LOOKUP = "LOOKUP"
REGISTER = "REGISTER"
CHANGE = "CHANGE"
PEER_UPDATE = "PEER_UPDATE"
SUBSCRIBE = "SUBSCRIBE"
PROVISION = "PROVISION"
GET = "GET"
GRANT = "GRANT"
REVOKE = "REVOKE"
TRANSFER_INIT = "TRANSFER_INIT"
TRANSFER_DISPUTE = "TRANSFER_DISPUTE"
DISCONNECT = "DISCONNECT"
MIGRATE_REQ = "MIGRATE_REQ"
MIGRATE_RESP = "MIGRATE_RESP"

# The tier-0 actor's network id: resolvers ask it first, and a [faults]
# window may name it.
TIER0_ID = "tier0"

_RESERVED = frozenset(("kind", "src", "dst", "req", "resp"))
STATUS_OK = "ok"


def _escape(value: str) -> str:
    if not (
        "%" in value or ";" in value or "=" in value or "\n" in value or "\r" in value
    ):
        return value
    return (
        value.replace("%", "%25")
        .replace(";", "%3B")
        .replace("=", "%3D")
        .replace("\n", "%0A")
        .replace("\r", "%0D")
    )


def _unescape(value: str) -> str:
    if "%" not in value:
        return value
    return (
        value.replace("%0D", "\r")
        .replace("%0A", "\n")
        .replace("%3D", "=")
        .replace("%3B", ";")
        .replace("%25", "%")
    )


class Frame(Record):
    """One structured request or response."""

    __slots__ = ("kind", "src", "dst", "req_id", "is_response", "fields")

    def __init__(
        self,
        kind: str,
        src: str,
        dst: str,
        req_id: int,
        is_response: bool = False,
        fields: Mapping[str, str] | None = None,
    ) -> None:
        if fields is None:
            fields = {}
        elif not _RESERVED.isdisjoint(fields):
            key = next(key for key in fields if key in _RESERVED)
            raise WireError(f"field name {key!r} is reserved")
        self.kind = kind
        self.src = src
        self.dst = dst
        self.req_id = req_id
        self.is_response = is_response
        self.fields = fields

    def get(self, key: str, default: str = "") -> str:
        return self.fields.get(key, default)

    @property
    def status(self) -> str:
        return self.fields.get("status", "")

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def reply(self, **fields: str) -> "Frame":
        """Build the response frame for this request."""
        return Frame(
            kind=self.kind,
            src=self.dst,
            dst=self.src,
            req_id=self.req_id,
            is_response=True,
            fields=fields,
        )

    def ok_reply(self, **fields: str) -> "Frame":
        if "status" in fields:  # as reply(status=STATUS_OK, **fields) would refuse it
            raise TypeError("ok_reply() got multiple values for 'status'")
        fields = {"status": STATUS_OK, **fields}
        return Frame(self.kind, self.dst, self.src, self.req_id, True, fields)

    def err_reply(self, error: BaseException) -> "Frame":
        return self.reply(status=type(error).__name__, message=str(error))


def encode_frame(frame: Frame) -> bytes:
    """The length-prefixed bytes of *frame*; see the module docstring.

    Raises :class:`WireError` when a key or value is not a ``str`` or holds
    a lone surrogate, or when the request id is not a number.
    """
    fields = frame.fields
    try:
        body = ";".join([
            "kind=" + frame.kind,
            "src=" + frame.src,
            "dst=" + frame.dst,
            "req=%d" % frame.req_id,
            "resp=1" if frame.is_response else "resp=0",
            *map("=".join, fields.items()),
        ])
    except TypeError:
        raise _non_str_error(frame) from None
    # When every "=" and ";" in the body is structural, escaping each key
    # and value is escaping the body's "%", "\n" and "\r" in one pass.
    n = len(fields)
    if body.count("=") != n + 5 or body.count(";") != n + 4:
        body = _escaped_body(frame)
    elif "%" in body or "\n" in body or "\r" in body:
        body = body.replace("%", "%25").replace("\n", "%0A").replace("\r", "%0D")
    try:
        data = body.encode("utf-8")
    except UnicodeEncodeError:
        raise _surrogate_error(frame) from None
    return b"%d:%s" % (len(data), data)


def check_frame(frame: Frame) -> None:
    """Raise the :class:`WireError` that :func:`encode_frame` would raise
    for *frame*, without building its bytes.

    Escaping neither adds nor removes a character that fails the join or
    the encoding, so one join of the unescaped text makes the same test.
    """
    fields = frame.fields
    try:
        text = "".join(
            [frame.kind, frame.src, frame.dst, "%d" % frame.req_id, *fields, *fields.values()]
        )
    except TypeError:
        raise _non_str_error(frame) from None
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise _surrogate_error(frame) from None


def _escaped_body(frame: Frame) -> str:
    """The body with each key and value escaped in turn: the path
    :func:`encode_frame` takes when a key or value holds ``=`` or ``;``."""
    return ";".join([
        "kind=" + _escape(frame.kind),
        "src=" + _escape(frame.src),
        "dst=" + _escape(frame.dst),
        "req=%d" % frame.req_id,
        "resp=1" if frame.is_response else "resp=0",
        *[_escape(key) + "=" + _escape(value) for key, value in frame.fields.items()],
    ])


def _non_str_error(frame: Frame) -> WireError:
    """The error for a frame that :func:`encode_frame` could not join:
    it names the first key or value that is not a ``str``."""
    head = (("kind", frame.kind), ("src", frame.src), ("dst", frame.dst))
    for key, value in (*head, *frame.fields.items()):
        if not (isinstance(key, str) and isinstance(value, str)):
            return WireError(
                f"frame field {key!r} must map str to str, not "
                f"{type(key).__name__} to {type(value).__name__}"
            )
    return WireError(f"request id {frame.req_id!r} is not a number")


def _surrogate_error(frame: Frame) -> WireError:
    """The error for a frame whose text does not encode as UTF-8: it names
    the first key or value that holds a lone surrogate."""
    head = (("kind", frame.kind), ("src", frame.src), ("dst", frame.dst))
    for key, value in (*head, *frame.fields.items()):
        try:
            (key + value).encode("utf-8")
        except UnicodeEncodeError:
            break
    return WireError(f"frame field {key!r} holds a lone surrogate")


def decode_frame(data: bytes) -> Frame:
    """Inverse of :func:`encode_frame`; raises :class:`WireError` on damage."""
    head, sep, body = data.partition(b":")
    if not sep:
        raise WireError("missing length prefix")
    try:
        length = int(head)  # int() of bytes accepts the ASCII forms only
    except ValueError as exc:
        raise WireError(f"bad length prefix {head!r}") from exc
    if length != len(body):
        raise WireError(f"length prefix {length} != body length {len(body)}")
    pairs: dict[str, str] = {}
    if body:
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"frame body is not UTF-8 at byte {exc.start}") from exc
        for chunk in text.split(";"):
            key, eq, value = chunk.partition("=")
            if not eq:
                raise WireError(f"field {chunk!r} is not key=value")
            pairs[_unescape(key)] = _unescape(value)
    try:
        kind, src, dst = pairs.pop("kind"), pairs.pop("src"), pairs.pop("dst")
        req, resp = pairs.pop("req"), pairs.pop("resp")
    except KeyError as exc:
        raise WireError(f"missing frame header field {exc}") from exc
    # Only the text encode_frame writes: int() alone would also take other
    # digits, spaces, underscores, a sign and leading zeros.
    try:
        req_id = int(req)
    except ValueError:
        req_id = None
    if req_id is None or "%d" % req_id != req:
        raise WireError(f"request id {req!r} is not a decimal integer")
    if resp != "0" and resp != "1":
        raise WireError(f"resp flag {resp!r} is not 0 or 1")
    return Frame(kind, src, dst, req_id, resp == "1", pairs)
