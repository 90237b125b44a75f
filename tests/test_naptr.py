import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumstack.e164 import parse_number
from enumstack.errors import (
    BadBackreference,
    BadDelimiter,
    BadFlags,
    BadInteger,
    EnumStackError,
    FieldConflict,
    FieldCount,
    FlagRegexpConflict,
    NaptrError,
    NoMatch,
)
from enumstack.naptr import (
    NaptrRecord,
    ServiceSelector,
    Visibility,
    _split_regexp,
    apply_regexp,
    parse_record,
    parse_stored_line,
    render_record,
    render_stored_line,
    resolve_record_set,
    select,
)

NUMBER = parse_number("+13154434473")


def rec(order, pref, service="E2U+sip", target="sip:info@example.com", **kw):
    return NaptrRecord(
        order=order,
        preference=pref,
        flags="u",
        service=service,
        regexp=f"!^.*$!{target}!",
        **kw,
    )


class TestParseRecord:
    def test_terminal_sip(self):
        record = parse_record('100 10 "u" "E2U+sip" "!^.*$!sip:info@example.com!" .')
        assert record.order == 100
        assert record.preference == 10
        assert record.service == "E2U+sip"
        assert record.terminal

    def test_replacement_only(self):
        record = parse_record('100 10 "" "E2U+sip" "" example.net')
        assert not record.terminal
        assert record.replacement == "example.net"

    def test_u_needs_regexp(self):
        with pytest.raises(FlagRegexpConflict):
            parse_record('100 10 "u" "E2U+sip" "" .')

    def test_field_count(self):
        with pytest.raises(FieldCount):
            parse_record('100 10 "u" "E2U+sip"')

    def test_unquoted_field(self):
        with pytest.raises(FieldCount):
            parse_record("100 10 u E2U+sip regexp .")

    def test_bad_integer(self):
        with pytest.raises(BadInteger):
            parse_record('x 10 "u" "E2U+sip" "!a!b!" .')
        with pytest.raises(BadInteger):
            parse_record('70000 10 "u" "E2U+sip" "!a!b!" .')

    def test_bad_delimiter(self):
        with pytest.raises(BadDelimiter):
            parse_record('100 10 "u" "E2U+sip" "!only-one-delim" .')
        with pytest.raises(BadDelimiter):
            parse_record('100 10 "u" "E2U+sip" "!a!b!c!" .')

    def test_both_fields_set(self):
        with pytest.raises(FieldConflict):
            parse_record('100 10 "" "E2U+sip" "!a!b!" example.net')

    def test_neither_field_set(self):
        with pytest.raises(FieldConflict):
            parse_record('100 10 "" "E2U+sip" "" .')

    def test_bad_flags(self):
        with pytest.raises(BadFlags):
            parse_record('100 10 "s" "E2U+sip" "!a!b!" .')

    def test_render_roundtrip(self):
        line = '100 10 "u" "E2U+sip" "!^.*$!sip:info@example.com!" .'
        assert render_record(parse_record(line)) == line

    def test_stored_line_visibility(self):
        record = parse_stored_line('restricted 100 10 "u" "E2U+sip" "!^.*$!sip:a@b!" .')
        assert record.visibility is Visibility.RESTRICTED
        assert parse_stored_line(render_stored_line(record)) == record


class TestSelect:
    def test_sort_by_order_then_preference(self):
        records = (rec(100, 20), rec(50, 10), rec(100, 10))
        out = select(records)
        assert [(r.order, r.preference) for r in out] == [(50, 10), (100, 10), (100, 20)]

    def test_service_filter(self):
        records = (rec(100, 10, "E2U+sip"), rec(100, 10, "E2U+mailto"))
        out = select(records, ServiceSelector("E2U+sip"))
        assert [r.service for r in out] == ["E2U+sip"]

    def test_service_match_case_insensitive(self):
        records = (rec(100, 10, "E2U+SIP"),)
        out = select(records, ServiceSelector("e2u+sip"))
        assert len(out) == 1

    def test_restricted_hidden_from_public(self):
        records = (
            rec(10, 10, visibility=Visibility.RESTRICTED),
            rec(20, 10),
        )
        public = select(records)
        assert [r.order for r in public] == [20]
        privileged = select(records, requester_visibility=Visibility.RESTRICTED)
        assert [r.order for r in privileged] == [10, 20]

    def test_empty_result_ok(self):
        out = select((), ServiceSelector("E2U+sip"))
        assert out == []


def oracle_select(records, selector, requester):
    """Exhaustive stable-sort oracle: of all permutations of the filtered
    records, pick the one that is (order, preference)-sorted and keeps the
    original relative order of equal keys."""
    filtered = [
        r
        for r in records
        if selector.matches(r.service)
        and (r.visibility is Visibility.PUBLIC or requester is Visibility.RESTRICTED)
    ]
    indexed = list(enumerate(filtered))
    for perm in itertools.permutations(indexed):
        keys = [(r.order, r.preference) for _, r in perm]
        if keys != sorted(keys):
            continue
        stable = True
        for (i, a), (j, b) in itertools.combinations(perm, 2):
            if (a.order, a.preference) == (b.order, b.preference) and i > j:
                stable = False
                break
        if stable:
            return [r for _, r in perm]
    return []


def random_record(rng):
    return rec(
        rng.randint(0, 3),
        rng.randint(0, 3),
        rng.choice(["E2U+sip", "E2U+mailto", "E2U+tel"]),
        target=f"sip:u{rng.randint(0, 9)}@example.com",
        visibility=rng.choice([Visibility.PUBLIC, Visibility.RESTRICTED]),
    )


def test_select_matches_permutation_oracle():
    rng = random.Random(20010921)
    for _ in range(200):
        records = tuple(random_record(rng) for _ in range(rng.randint(0, 6)))
        selector = ServiceSelector(rng.choice(["*", "E2U+sip", "E2U+mailto"]))
        requester = rng.choice([Visibility.PUBLIC, Visibility.RESTRICTED])
        assert select(records, selector, requester) == oracle_select(
            records, selector, requester
        )


class TestApplyRegexp:
    def test_literal_replacement(self):
        record = rec(100, 10)
        assert apply_regexp(record, "+13154434473") == "sip:info@example.com"

    def test_backreference(self):
        record = NaptrRecord(
            order=100,
            preference=10,
            flags="u",
            service="E2U+sip",
            regexp=r"!^\+1(.*)$!sip:\1@gw.example.net!",
        )
        assert apply_regexp(record, "+13154434473") == "sip:3154434473@gw.example.net"

    def test_accepts_number_object(self):
        assert apply_regexp(rec(100, 10), NUMBER) == "sip:info@example.com"

    def test_no_match(self):
        record = NaptrRecord(
            order=100, preference=10, flags="u", service="E2U+sip",
            regexp=r"!^\+44.*$!sip:x@y!",
        )
        with pytest.raises(NoMatch):
            apply_regexp(record, "+13154434473")

    def test_bad_backreference(self):
        record = NaptrRecord(
            order=100, preference=10, flags="u", service="E2U+sip",
            regexp=r"!^.*$!sip:\2@y!",
        )
        with pytest.raises(BadBackreference):
            apply_regexp(record, "+13154434473")

    def test_escaped_delimiter(self):
        record = NaptrRecord(
            order=100, preference=10, flags="u", service="E2U+sip",
            regexp=r"!^.*$!sip:bang\!@example.com!",
        )
        assert apply_regexp(record, "+13154434473") == "sip:bang!@example.com"

    @pytest.mark.parametrize(
        "digit", ["\u00b2", "\u0663"], ids=["superscript-2", "arabic-indic-3"]
    )
    def test_a_non_ascii_digit_after_a_backslash_is_a_literal(self, digit):
        record = NaptrRecord(
            order=90, preference=10, flags="u", service="E2U+sip",
            regexp=f"!^(.*)$!sip:\\{digit}@example.com!",
        )
        assert apply_regexp(record, NUMBER) == f"sip:{digit}@example.com"


class TestResolveRecordSet:
    def test_single_terminal(self):
        uris, warnings = resolve_record_set((rec(100, 10),), ServiceSelector(), NUMBER)
        assert uris == ["sip:info@example.com"]
        assert warnings == []

    def test_empty_set(self):
        uris, warnings = resolve_record_set((), ServiceSelector(), NUMBER)
        assert uris == []
        assert warnings == []

    def test_non_terminal_skipped(self):
        non_terminal = NaptrRecord(
            order=10, preference=10, flags="", service="E2U+sip",
            regexp="", replacement="example.net",
        )
        uris, _ = resolve_record_set((non_terminal, rec(20, 10)), ServiceSelector(), NUMBER)
        assert uris == ["sip:info@example.com"]

    def test_failing_record_warns_but_continues(self):
        bad = NaptrRecord(
            order=10, preference=10, flags="u", service="E2U+sip",
            regexp=r"!^\+44.*$!sip:x@y!",
        )
        uris, warnings = resolve_record_set((bad, rec(20, 10)), ServiceSelector(), NUMBER)
        assert uris == ["sip:info@example.com"]
        assert len(warnings) == 1 and "NoMatch" in warnings[0]

    def test_order_preserved(self):
        records = (rec(30, 1, target="sip:c@x"), rec(10, 1, target="sip:a@x"),
                   rec(20, 1, target="sip:b@x"))
        uris, _ = resolve_record_set(records, ServiceSelector(), NUMBER)
        assert uris == ["sip:a@x", "sip:b@x", "sip:c@x"]


@settings(max_examples=200)
@given(
    orders=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6),
)
def test_output_never_exceeds_terminal_count(orders):
    records = tuple(rec(o, p) for o, p in orders)
    uris, _ = resolve_record_set(records, ServiceSelector(), NUMBER)
    assert len(uris) <= sum(1 for r in records if r.terminal)


@given(
    visibilities=st.lists(
        st.sampled_from([Visibility.PUBLIC, Visibility.RESTRICTED]), max_size=6
    )
)
def test_restricted_never_leaks_to_public(visibilities):
    records = tuple(rec(i, 0, visibility=v) for i, v in enumerate(visibilities))
    out = select(records, requester_visibility=Visibility.PUBLIC)
    assert all(r.visibility is Visibility.PUBLIC for r in out)


# ---------------------------------------------------------------- oracles
# The record parser and the substitution splitter as they were written
# before their fast paths: a general tokenizer for every line, and a
# character loop for the delimiters. The fast paths must give the same
# records, the same rewrites and the same error classes.

ORACLE_TOKEN_RE = re.compile(r'"([^"]*)"|(\S+)')


def oracle_parse_record(text, visibility=Visibility.PUBLIC):
    tokens = []
    pos = 0
    stripped = text.strip()
    while pos < len(stripped):
        m = ORACLE_TOKEN_RE.match(stripped, pos)
        if m is None:
            raise FieldCount("unterminated quote")
        quoted = m.group(1) is not None
        tokens.append((m.group(1) if quoted else m.group(2), quoted))
        pos = m.end()
        while pos < len(stripped) and stripped[pos].isspace():
            pos += 1
    if len(tokens) != 6:
        raise FieldCount("field count")
    for idx in (2, 3, 4):
        if not tokens[idx][1]:
            raise FieldCount("unquoted")
    try:
        order = int(tokens[0][0])
        preference = int(tokens[1][0])
    except ValueError:
        raise BadInteger("bad integer") from None
    return NaptrRecord(
        order=order, preference=preference, flags=tokens[2][0], service=tokens[3][0],
        regexp=tokens[4][0], replacement=tokens[5][0], visibility=visibility,
    )


def oracle_split_regexp(regexp):
    if len(regexp) < 3:
        raise BadDelimiter("too short")
    delim = regexp[0]
    if delim.isalnum() or delim == "\\":
        raise BadDelimiter("bad delimiter")
    positions = []
    escaped = False
    for i, ch in enumerate(regexp):
        if escaped:
            escaped = False
            continue
        if ch == "\\":
            escaped = True
            continue
        if ch == delim:
            positions.append(i)
    if len(positions) != 3 or positions[0] != 0 or positions[-1] != len(regexp) - 1:
        raise BadDelimiter("delimiter count")
    pattern = regexp[1 : positions[1]].replace("\\" + delim, delim)
    replacement = regexp[positions[1] + 1 : -1].replace("\\" + delim, delim)
    return pattern, replacement


def oracle_apply_regexp(regexp, subject):
    pattern_text, replacement = oracle_split_regexp(regexp)
    pattern = re.compile(pattern_text)
    m = pattern.search(subject)
    if m is None:
        raise NoMatch("no match")
    out = []
    i = 0
    while i < len(replacement):
        ch = replacement[i]
        if ch == "\\" and i + 1 < len(replacement):
            nxt = replacement[i + 1]
            if nxt in "0123456789":
                k = int(nxt)
                if k == 0 or k > pattern.groups:
                    raise BadBackreference("group")
                out.append(m.group(k) or "")
            else:
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def outcome(fn, *args):
    """A call's result, or the class of the enumstack error it raised."""
    try:
        return fn(*args)
    except (BadBackreference, BadDelimiter, BadFlags, BadInteger, FieldConflict,
            FieldCount, FlagRegexpConflict, NoMatch) as exc:
        return type(exc)


ORDERS = ["100", "0", "65535", "65536", "x", "+5", "007", "1_0", "٣"]
PREFERENCES = ["10", "0", "-1", "99999"]
FLAGS = ["u", "u", "", "s", "U"]
SERVICES = ["E2U+sip", "E2U+web:http", "", "a b", "E2U+sip\n"]
REGEXPS = ["!^.*$!sip:a@b!", r"!^\+1(\d{3})(\d+)$!tel:\1-\2!", r"!^.*$!x\!y!",
           "#^(.*)$#tel:\\1#", "!only", "", "!a!b!c!", "!(!x!", r"!^.*$!\9!"]
REPLACEMENTS = [".", ".", "example.net", '"q"', '"q', 'a"b', "", ". extra", ".\n"]


def quoted_or_bare(values):
    return st.tuples(st.sampled_from(values), st.sampled_from(['"{}"', '"{}"', "{}", '"{}'])
                     ).map(lambda pair: pair[1].format(pair[0]))


field_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
zone_lines = st.one_of(
    # The canonical shape: single spaces, three quoted fields.
    st.tuples(*(st.sampled_from(values) for values in (
        ORDERS, PREFERENCES, FLAGS, SERVICES, REGEXPS, REPLACEMENTS))
    ).map(lambda t: '{} {} "{}" "{}" "{}" {}'.format(*t)),
    st.tuples(
        st.integers(0, 66000), st.integers(0, 66000), st.sampled_from(["u", "u", ""]),
        field_text, st.sampled_from(REGEXPS[:4]) | field_text, st.just(".") | field_text,
    ).map(lambda t: '{} {} "{}" "{}" "{}" {}'.format(*t)),
    # Any spacing and quoting.
    st.tuples(
        st.sampled_from(["", " ", "\t"]),
        st.lists(st.sampled_from([" ", " ", " ", "  ", "\t", "", " "]),
                 min_size=5, max_size=5),
        quoted_or_bare(ORDERS),
        quoted_or_bare(PREFERENCES),
        quoted_or_bare(FLAGS),
        quoted_or_bare(SERVICES),
        quoted_or_bare(REGEXPS),
        st.sampled_from(REPLACEMENTS),
        st.sampled_from(["", " ", "\n"]),
    ).map(lambda t: t[0] + "".join(f + sep for f, sep in zip(t[2:7], t[1])) + t[7] + t[8]),
    st.text(alphabet='0123456789 "u!^.*$\\\tE2U+sip:.', max_size=40),
)


@settings(max_examples=300)
@given(line=zone_lines, visibility=st.sampled_from(list(Visibility)))
@example(line='100 10 "" "E2U+sip" "" "example.net"', visibility=Visibility.PUBLIC)
@example(line='100 10 "" "E2U+sip" "" exa"mple.net', visibility=Visibility.PUBLIC)
@example(line='100 10 "u" "E2U+sip" "!^.*$!sip:a@b!" .\n', visibility=Visibility.PUBLIC)
@example(line='100 10 "u" "E2U+sip" "!^.*$!sip:a@b!" .\u2003', visibility=Visibility.PUBLIC)
@example(line='100\u200310 "u" "E2U+sip" "!^.*$!sip:a@b!" .', visibility=Visibility.PUBLIC)
@example(line='\u0663 10 "u" "E2U+sip" "!^.*$!sip:a@b!" .', visibility=Visibility.PUBLIC)
@example(line='100 10 "u" "E2U\nsip" "!^.*$!sip:a@b!" .', visibility=Visibility.RESTRICTED)
def test_parse_record_matches_tokenizer_oracle(line, visibility):
    assert outcome(parse_record, line, visibility) == outcome(
        oracle_parse_record, line, visibility
    )


@settings(max_examples=300)
@given(regexp=st.text(alphabet=["!", "#", "\\", "a", "1", "^", "$", "(", ")", ".", "*", "\n"],
                      max_size=12))
@example(regexp="\na\\\nb\nc\n")
@example(regexp="!a!b\\!")
@example(regexp="!a\\\\!b!")
@example(regexp="!a\\!b!c!")
def test_split_regexp_matches_loop_oracle(regexp):
    assert outcome(_split_regexp, regexp) == outcome(oracle_split_regexp, regexp)


@settings(max_examples=300)
@given(
    pattern=st.sampled_from(["^.*$", r"^\+1(\d{3})(\d+)$", "^(.*)$", "^9.*$", "x\\!y", "(a)?"]),
    replacement=st.text(
        alphabet=["\\", "1", "2", "0", "\u00b2", "\u0663", "!", "a", ":", "@"], max_size=10
    ),
)
def test_apply_regexp_matches_oracle(pattern, replacement):
    regexp = f"!{pattern}!{replacement}!"
    record = outcome(NaptrRecord, 10, 10, "u", "E2U+sip", regexp)
    if isinstance(record, NaptrRecord):
        assert outcome(apply_regexp, record, NUMBER) == outcome(
            oracle_apply_regexp, regexp, "+13154434473"
        )


@settings(max_examples=300)
@given(
    pattern=st.sampled_from(["^.*$", "^(.*)$", r"^\+1(\d{3})(\d+)$", "^9.*$"]),
    replacement=st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)) | st.just("\\"), max_size=12
    ),
)
@example(pattern="^(.*)$", replacement="sip:\\\u00b2@example.com")
def test_apply_regexp_returns_a_str_or_raises_a_naptr_error(pattern, replacement):
    record = outcome(NaptrRecord, 10, 10, "u", "E2U+sip", f"!{pattern}!{replacement}!")
    if isinstance(record, NaptrRecord):
        result = outcome(apply_regexp, record, NUMBER)  # any other exception propagates
        assert isinstance(result, str) or issubclass(result, NaptrError)


# ---------------------------------------------------------------- slotted records
# NaptrRecord's checks and the substitution splitter's escaped-pair path
# as they ran while the record was a frozen dataclass, followed by the
# rule that a record holds only fields its stored line can. The slotted
# record and the splitter's one-split fast path must give the same
# fields, or the same error with the same message.

ESCAPED_PAIR = re.compile(r"\\.", re.DOTALL)


def escaped_pair_split_regexp(regexp):
    """_split_regexp's escaped-pair path, taken for every input."""
    if len(regexp) < 3:
        raise BadDelimiter(f"substitution expression too short: {regexp!r}")
    delim = regexp[0]
    if delim.isalnum() or delim == "\\":
        raise BadDelimiter(f"bad delimiter {delim!r}")
    bare = ESCAPED_PAIR.sub(r"\\\\", regexp)
    if bare.count(delim) != 3 or bare[-1] != delim:
        raise BadDelimiter(f"delimiter {delim!r} must appear exactly 3 times in {regexp!r}")
    middle = bare.index(delim, 1)
    escaped = "\\" + delim
    return (regexp[1:middle].replace(escaped, delim),
            regexp[middle + 1 : -1].replace(escaped, delim))


def oracle_record(order, preference, flags, service, regexp, replacement, visibility):
    """The frozen record's checks, in their order; returns the fields."""
    if not isinstance(order, int) or not 0 <= order <= 65535:
        raise BadInteger(f"order {order!r} outside 0..65535")
    if not isinstance(preference, int) or not 0 <= preference <= 65535:
        raise BadInteger(f"preference {preference!r} outside 0..65535")
    if flags not in ("", "u"):
        raise BadFlags(f"unsupported flags {flags!r}")
    has_regexp = bool(regexp)
    has_replacement = replacement not in ("", ".")
    if flags == "u" and not has_regexp:
        raise FlagRegexpConflict("'u' flag requires a substitution expression")
    if has_regexp == has_replacement:
        raise FieldConflict("exactly one of regexp / replacement must be non-empty")
    if has_regexp:
        pattern, _ = escaped_pair_split_regexp(regexp)
        try:
            re.compile(pattern)
        except re.error as exc:
            raise BadDelimiter(f"unparseable pattern {pattern!r}: {exc}") from exc
    if any(ch in '"\n\r' for ch in service + regexp):
        raise FieldCount(
            f"service {service!r} or regexp {regexp!r} holds a quote or a line break"
        )
    if any(ch.isspace() for ch in replacement) or (
        replacement.startswith('"') and '"' in replacement[1:]
    ):
        raise FieldCount(f"replacement {replacement!r} is not one bare token")
    return (order, preference, flags, service, regexp, replacement, visibility)


RECORD_FIELDS = ("order", "preference", "flags", "service", "regexp", "replacement", "visibility")


def rebuilt(record, **changes):
    """A record built anew from *record*'s fields, with *changes*."""
    return NaptrRecord(**{name: getattr(record, name) for name in RECORD_FIELDS} | changes)


def built(fn, *args):
    """The fields of what *fn* returns, or the type and message it raised."""
    try:
        result = fn(*args)
    except EnumStackError as exc:
        return type(exc), str(exc)
    if isinstance(result, NaptrRecord):
        return tuple(getattr(result, name) for name in RECORD_FIELDS)
    return result


_integers = st.one_of(
    st.integers(-3, 65538), st.sampled_from([True, 1.0, "10", None, 2**70])
)


@settings(max_examples=400)
@given(
    order=_integers,
    preference=_integers,
    flags=st.sampled_from(["", "u", "u", "U", "s", "uu"]),
    service=st.sampled_from(SERVICES) | field_text,
    regexp=st.sampled_from(REGEXPS) | st.text(alphabet="!#\\a(.*^$", max_size=8),
    replacement=st.sampled_from(REPLACEMENTS) | field_text,
    visibility=st.sampled_from(list(Visibility)),
)
@example(order=100, preference=10, flags="u", service="E2U+sip",
         regexp="!(!x!", replacement=".", visibility=Visibility.PUBLIC)
@example(order=True, preference=0, flags="", service="",
         regexp="", replacement="example.net", visibility=Visibility.RESTRICTED)
@example(order=1, preference=1, flags="", service="E2U+web",
         regexp="", replacement='"a"b', visibility=Visibility.PUBLIC)
@example(order=1, preference=1, flags="", service="E2U+web",
         regexp="", replacement="a\u2028b", visibility=Visibility.PUBLIC)
def test_record_checks_match_frozen_oracle(
    order, preference, flags, service, regexp, replacement, visibility
):
    args = (order, preference, flags, service, regexp, replacement, visibility)
    assert built(NaptrRecord, *args) == built(oracle_record, *args)


_D = "\0"  # stands for the delimiter in the pieces below
_SPLIT_PIECES = ["a", "^", ".*", "(", "$", "\\", "\\d", "\\\\", _D, "\\" + _D]


@settings(max_examples=400)
@given(
    delim=st.sampled_from(["!", "#", "/", "|", "a", "\\"]),
    segments=st.lists(
        st.lists(st.sampled_from(_SPLIT_PIECES), max_size=4).map("".join),
        min_size=1, max_size=5,
    ),
    trailing=st.sampled_from(["", "", "x", "\\", _D]),
)
@example(delim="!", segments=["", "^.*$", "sip:a@b", ""], trailing="")
@example(delim="!", segments=["", "^.*$", "sip:a@b", ""], trailing="x")
@example(delim="!", segments=["", "^.*$", "sip:a@b"], trailing="")
@example(delim="!", segments=["", "^.*$", "x", "y", ""], trailing="")
@example(delim="!", segments=["", "^.*\\" + _D + "$", "x", ""], trailing="")
@example(delim="!", segments=["", "^.*\\\\", "x", ""], trailing="")
def test_split_regexp_fast_path_matches_escaped_pair_path(delim, segments, trailing):
    """Delimiter counts of 0-4, with and without escaped delimiters and
    text after the last one."""
    regexp = (delim.join(segments) + trailing).replace(_D, delim)
    assert built(_split_regexp, regexp) == built(escaped_pair_split_regexp, regexp)


def test_replace_builds_a_checked_record():
    record = rec(100, 10)
    restricted = rebuilt(record, visibility=Visibility.RESTRICTED)
    assert restricted.visibility is Visibility.RESTRICTED
    assert record.visibility is Visibility.PUBLIC
    assert rebuilt(restricted, visibility=Visibility.PUBLIC) == record
    with pytest.raises(BadFlags):
        rebuilt(record, flags="s")
    with pytest.raises(FieldConflict):
        rebuilt(record, replacement="example.net")
    with pytest.raises(BadInteger):
        rebuilt(record, order=65536)


def test_record_is_slotted_value_and_unhashable():
    record = rec(100, 10)
    assert record == rec(100, 10) and record != rec(100, 20)
    assert repr(record) == (
        "NaptrRecord(order=100, preference=10, flags='u', service='E2U+sip', "
        "regexp='!^.*$!sip:info@example.com!', replacement='.', "
        "visibility=<Visibility.PUBLIC: 'public'>)"
    )
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        hash(record)
