import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumstack import wire
from enumstack.errors import WireError
from enumstack.simulator import Network
from enumstack.wire import Frame, check_frame, decode_frame, encode_frame


def test_roundtrip_basic():
    frame = Frame(
        kind="LOOKUP", src="resolver", dst="R1", req_id=7,
        fields={"number": "13154434473"},
    )
    assert decode_frame(encode_frame(frame)) == frame


def test_length_prefix_shape():
    data = encode_frame(Frame(kind="GET", src="a", dst="b", req_id=1))
    head, _, body = data.partition(b":")
    assert int(head) == len(body)


def test_escaping_special_characters():
    fields = {"records": 'x;y=z%q\nnext\rline', "note": "==;;%%"}
    frame = Frame(kind="PROVISION", src="a", dst="b", req_id=2, fields=fields)
    assert decode_frame(encode_frame(frame)).fields == fields


def test_reply_swaps_endpoints():
    frame = Frame(kind="GET", src="client", dst="reg1", req_id=3)
    reply = frame.ok_reply(records="")
    assert (reply.src, reply.dst, reply.req_id, reply.is_response) == (
        "reg1", "client", 3, True,
    )
    assert reply.ok


def test_reserved_field_names_rejected():
    with pytest.raises(WireError):
        Frame(kind="GET", src="a", dst="b", req_id=1, fields={"kind": "x"})
    with pytest.raises(WireError):
        Frame(kind="GET", src="a", dst="b", req_id=1).ok_reply(kind="x")
    with pytest.raises(TypeError):
        Frame(kind="GET", src="a", dst="b", req_id=1).ok_reply(status="EnumInactive")


def test_ok_reply_puts_the_status_first():
    reply = Frame(kind="GET", src="a", dst="b", req_id=1).ok_reply(records="r", n="2")
    assert list(reply.fields.items()) == [("status", "ok"), ("records", "r"), ("n", "2")]


def test_bad_length_prefix():
    with pytest.raises(WireError):
        decode_frame(b"notanumber:kind=GET")
    with pytest.raises(WireError):
        decode_frame(b"999:kind=GET;src=a;dst=b;req=1;resp=0")
    with pytest.raises(WireError):
        decode_frame(b"no prefix at all")


def test_missing_header_field():
    with pytest.raises(WireError):
        decode_frame(b"14:kind=GET;src=a")


def test_non_utf8_body():
    with pytest.raises(WireError, match="not UTF-8"):
        decode_frame(b"3:\xff\xfe\xfd")


def test_non_str_key_or_value_is_a_wire_error_naming_the_field():
    for frame, name in (
        (Frame(kind="GET", src="a", dst="b", req_id=1, fields={"number": 13154434473}),
         "'number'"),
        (Frame(kind="GET", src="a", dst="b", req_id=1, fields={"x": "a;b", 7: "c"}), "7"),
        (Frame(kind="GET", src=None, dst="b", req_id=1), "'src'"),
    ):
        message = f"^frame field {name} must map str to str"
        with pytest.raises(WireError, match=message):
            encode_frame(frame)
        # The network queues no bytes, and still refuses the frame at the post.
        net = Network()
        with pytest.raises(WireError, match=message):
            net.post(frame.src, frame.dst, frame.kind, frame.fields)
        assert net.pending() == 0


def test_a_lone_surrogate_is_a_wire_error_naming_the_field():
    for frame, name in (
        (Frame(kind="GET", src="a", dst="b", req_id=1, fields={"record": "sip:\udcff@x"}),
         "'record'"),
        (Frame(kind="GET", src="a", dst="b", req_id=1, fields={"n": "é", "al\udcffice": "1"}),
         "'al\\udcffice'"),
        (Frame(kind="GET", src="client:al\udcffice", dst="b", req_id=1), "'src'"),
    ):
        message = f"^{re.escape(f'frame field {name} holds a lone surrogate')}$"
        with pytest.raises(WireError, match=message):
            encode_frame(frame)
        with pytest.raises(WireError, match=message):
            check_frame(frame)
        net = Network()
        with pytest.raises(WireError, match=message):
            net.post(frame.src, frame.dst, frame.kind, frame.fields)
        assert net.pending() == 0


def refusal(call, frame):
    """The message of the WireError *call* raises for *frame*, or None."""
    try:
        call(frame)
    except WireError as exc:
        return str(exc)
    return None


lone_surrogates = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
wire_items = (
    st.text(max_size=6)
    | st.builds("".join, st.lists(st.sampled_from(["a", "é", "="]) | lone_surrogates,
                                  min_size=1, max_size=4))
    | st.integers()
    | st.none()
)


@settings(max_examples=300)
@given(
    src=wire_items,
    req_id=st.integers() | st.none() | st.just("7"),
    fields=st.dictionaries(
        wire_items.filter(lambda k: k not in ("kind", "src", "dst", "req", "resp")),
        wire_items, max_size=4,
    ),
)
def test_the_send_refuses_exactly_what_encode_frame_refuses(src, req_id, fields):
    frame = Frame("GET", src, "b", req_id, False, fields)
    expected = refusal(encode_frame, frame)
    assert refusal(check_frame, frame) == expected
    net = Network()
    assert refusal(net.send, frame) == expected
    assert net.pending() == (expected is None)


def frame_bytes(body):
    return str(len(body.encode())).encode() + b":" + body.encode()


@pytest.mark.parametrize(
    "body, message",
    [
        ("kind=GET;src=a;dst=b;req=٣;resp=0", "request id '٣' is not a decimal integer"),
        ("kind=GET;src=a;dst=b;req= 7;resp=0", "request id ' 7' is not a decimal integer"),
        ("kind=GET;src=a;dst=b;req=1_0;resp=0", "request id '1_0' is not a decimal integer"),
        ("kind=GET;src=a;dst=b;req=+5;resp=0", "request id '+5' is not a decimal integer"),
        ("kind=GET;src=a;dst=b;req=07;resp=0", "request id '07' is not a decimal integer"),
        ("kind=GET;src=a;dst=b;req=-0;resp=0", "request id '-0' is not a decimal integer"),
        ("kind=GET;src=a;dst=b;req=;resp=0", "request id '' is not a decimal integer"),
        ("kind=GET;src=a;dst=b;req=x;resp=0", "request id 'x' is not a decimal integer"),
        ("kind=GET;src=a;dst=b;req=1;resp=2", "resp flag '2' is not 0 or 1"),
        ("kind=GET;src=a;dst=b;req=1;resp=", "resp flag '' is not 0 or 1"),
        ("kind=GET;src=a;dst=b;req=1;resp=01", "resp flag '01' is not 0 or 1"),
    ],
)
def test_decode_takes_only_the_header_text_encode_writes(body, message):
    with pytest.raises(WireError, match=f"^{re.escape(message)}$"):
        decode_frame(frame_bytes(body))


def test_decode_takes_a_negative_request_id_as_encode_writes_it():
    frame = Frame(kind="GET", src="a", dst="b", req_id=-5, is_response=True)
    assert encode_frame(frame) == frame_bytes("kind=GET;src=a;dst=b;req=-5;resp=1")
    assert decode_frame(encode_frame(frame)) == frame


def test_malformed_chunk_named():
    for body, bad in (("kind=GET;src=a;x;dst=b;req=1;resp=0", "x"),
                      ("kind=GET;src=a;dst=b;req=1;resp=0;y=%25;x%25", "x%25")):
        with pytest.raises(WireError, match=f"^field '{bad}' is not key=value$"):
            decode_frame(frame_bytes(body))


text_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)


@given(
    kind=st.sampled_from(["LOOKUP", "GET", "PROVISION", "PEER_UPDATE"]),
    src=st.text(alphabet="abcdefg:0123456789", min_size=1, max_size=10),
    dst=st.text(alphabet="abcdefg:0123456789", min_size=1, max_size=10),
    req_id=st.integers(min_value=0, max_value=10**9),
    is_response=st.booleans(),
    fields=st.dictionaries(
        st.text(alphabet="abcdefghij_", min_size=1, max_size=8), text_values, max_size=5
    ),
)
def test_roundtrip_property(kind, src, dst, req_id, is_response, fields):
    frame = Frame(
        kind=kind, src=src, dst=dst, req_id=req_id,
        is_response=is_response, fields=fields,
    )
    assert decode_frame(encode_frame(frame)) == frame


# ---------------------------------------------------------------- oracles
# The codec as it was written before its fast paths: every value goes
# through the full replace chain, and every chunk is split and unescaped
# one by one. The fast paths must give the same bytes and the same frames.


def oracle_escape(value):
    return (
        value.replace("%", "%25")
        .replace(";", "%3B")
        .replace("=", "%3D")
        .replace("\n", "%0A")
        .replace("\r", "%0D")
    )


def oracle_unescape(value):
    return (
        value.replace("%0D", "\r")
        .replace("%0A", "\n")
        .replace("%3D", "=")
        .replace("%3B", ";")
        .replace("%25", "%")
    )


def oracle_encode(frame):
    pairs = [
        ("kind", frame.kind),
        ("src", frame.src),
        ("dst", frame.dst),
        ("req", str(frame.req_id)),
        ("resp", "1" if frame.is_response else "0"),
    ]
    pairs.extend(frame.fields.items())
    body = ";".join(
        f"{oracle_escape(k)}={oracle_escape(v)}" for k, v in pairs
    ).encode("utf-8")
    return str(len(body)).encode("ascii") + b":" + body


def oracle_decode_pairs(body):
    """The key/value pairs of a valid UTF-8 body, or the WireError message."""
    pairs = {}
    for chunk in body.split(";"):
        key, sep, value = chunk.partition("=")
        if not sep:
            return f"field {chunk!r} is not key=value"
        pairs[oracle_unescape(key)] = oracle_unescape(value)
    return pairs


special_text = st.text(
    alphabet=st.sampled_from(["%", ";", "=", "\n", "\r", "a", "b", "2", "5", "3", "D", "é"]),
    max_size=12,
)
reserved_free_keys = special_text.filter(
    lambda k: k not in ("kind", "src", "dst", "req", "resp")
)


@settings(max_examples=200)
@given(
    kind=special_text,
    src=special_text,
    dst=special_text,
    req_id=st.integers(min_value=-5, max_value=10**12),
    is_response=st.booleans(),
    fields=st.dictionaries(reserved_free_keys, special_text | text_values, max_size=6),
)
def test_encode_matches_oracle(kind, src, dst, req_id, is_response, fields):
    frame = Frame(
        kind=kind, src=src, dst=dst, req_id=req_id,
        is_response=is_response, fields=fields,
    )
    data = encode_frame(frame)
    assert data == oracle_encode(frame)
    assert decode_frame(data) == frame


# Text whose every "=" and ";" in a body is structural, so encode_frame
# escapes the body's "%", newlines and carriage returns in one pass.
one_pass_text = st.text(
    alphabet=st.sampled_from(["%", "\n", "\r", "a", "2", "5", "0", "A", "D", "é"]), max_size=12
)


@settings(max_examples=200)
@given(
    kind=one_pass_text,
    src=one_pass_text,
    dst=one_pass_text,
    req_id=st.integers(min_value=-5, max_value=10**12),
    is_response=st.booleans(),
    fields=st.dictionaries(one_pass_text, one_pass_text, max_size=6),
)
def test_a_body_escaped_in_one_pass_matches_oracle(kind, src, dst, req_id, is_response, fields):
    frame = Frame(kind, src, dst, req_id, is_response, fields)
    data = encode_frame(frame)
    assert data == oracle_encode(frame)
    assert decode_frame(data) == frame


def test_a_multi_record_reply_is_escaped_in_one_pass(monkeypatch):
    def per_field(frame):
        raise AssertionError("took the per-field path")

    monkeypatch.setattr(wire, "_escaped_body", per_field)
    records = '100 10 "u" "E2U+sip" "!^.*$!sip:a@example.com!" .\n110 10 "u" "E2U+tel" "" .'
    reply = Frame(kind="GET", src="client", dst="reg1", req_id=4).ok_reply(records=records)
    assert decode_frame(encode_frame(reply)) == reply


def test_one_special_character_anywhere_takes_the_escaped_path():
    # Random frames rarely hold a special character in one place only, and
    # the one check of the whole body must catch exactly that.
    for char in "%;=\n\r":
        for place in ("kind", "src", "dst", "key", "value"):
            parts = {"kind": "GET", "src": "a", "dst": "b", "key": "k", "value": "v"}
            parts[place] += char
            frame = Frame(
                kind=parts["kind"], src=parts["src"], dst=parts["dst"], req_id=1,
                fields={parts["key"]: parts["value"], "n": "1"},
            )
            assert encode_frame(frame) == oracle_encode(frame)


@settings(max_examples=200)
@given(
    body=st.lists(
        st.sampled_from(
            ["kind=GET", "src=a", "dst=b", "req=1", "resp=1", "x=1", "x=2", "x%3D=%3B",
             "x==", "%25=%2525", "%=%", "=", "", "y", "y%", "a%0Ab=c%0D", "kind%3D=z"]
        ),
        max_size=9,
    ).map(";".join)
)
def test_decode_matches_oracle(body):
    data = frame_bytes(body)
    expected = oracle_decode_pairs(body) if body else {}
    try:
        frame = decode_frame(data)
    except WireError as exc:
        if isinstance(expected, str):
            assert str(exc) == expected
        else:
            assert not {"kind", "src", "dst", "req", "resp"} <= expected.keys()
        return
    assert isinstance(expected, dict)
    assert dict(frame.fields) == {
        k: v for k, v in expected.items() if k not in ("kind", "src", "dst", "req", "resp")
    }
    assert list(frame.fields) == [
        k for k in expected if k not in ("kind", "src", "dst", "req", "resp")
    ]
    assert (frame.kind, frame.src, frame.dst, frame.req_id, frame.is_response) == (
        expected["kind"], expected["src"], expected["dst"], int(expected["req"]),
        expected["resp"] == "1",
    )
