"""Naming-authority-pointer records: parsing, selection, URI rewriting.

A record carries (order, preference, flags, service, regexp, replacement)
plus a visibility marker. Selection filters by service and visibility and
sorts ascending by (order, preference), stably. Terminal records (flag
``u``) rewrite the ``+``-prefixed number into a URI through an anchored
extended-regular-expression substitution; one terminal level is supported
and replacement-domain chains are represented but never followed.
"""

from __future__ import annotations

import re
from enum import Enum

from ._record import HashedRecord, Record
from .e164 import E164Number
from .errors import (
    BadBackreference,
    BadDelimiter,
    BadFlags,
    BadInteger,
    FieldConflict,
    FieldCount,
    FlagRegexpConflict,
    NoMatch,
)

_MAX_FIELD = 65535
_TOKEN_RE = re.compile(r'"([^"]*)"|(\S+)')
# The canonical zone line: single spaces, decimal integers, quoted flags,
# service and regexp, and a bare replacement. Any line it does not match
# in full goes through the general tokenizer.
_RECORD_RE = re.compile(r'([0-9]+) ([0-9]+) "([^"]*)" "([^"]*)" "([^"]*)" ([^"\s]\S*)')
# What a bare replacement may not hold: whitespace, or an opening quote
# that a later quote closes (the tokenizer would read a quoted field).
_NOT_BARE = re.compile(r'\s|^".*"')
# A backslash and the character it escapes.
_ESCAPED_PAIR = re.compile(r"\\.", re.DOTALL)


class Visibility(Enum):
    """Record exposure: restricted records are hidden from public queries."""

    PUBLIC = "public"
    RESTRICTED = "restricted"


_VISIBILITY = {member.value: member for member in Visibility}


def _split_regexp(regexp: str) -> tuple[str, str]:
    """Split a substitution expression into (pattern, replacement).

    The first character is the delimiter; it must occur exactly three
    times unescaped, first and last.
    """
    if len(regexp) < 3:
        raise BadDelimiter(f"substitution expression too short: {regexp!r}")
    delim = regexp[0]
    if delim.isalnum() or delim == "\\":
        raise BadDelimiter(f"bad delimiter {delim!r}")
    escaped = "\\" + delim
    if escaped not in regexp:
        # Without a backslash before a delimiter, every delimiter is
        # unescaped: the text is "", pattern, replacement, "" around them.
        parts = regexp.split(delim)
        if len(parts) == 4 and not parts[3]:
            return parts[1], parts[2]
        raise BadDelimiter(f"delimiter {delim!r} must appear exactly 3 times in {regexp!r}")
    # Blank out escaped pairs (with backslashes, never the delimiter) so
    # only unescaped delimiters are left to find.
    bare = _ESCAPED_PAIR.sub(r"\\\\", regexp)
    if bare.count(delim) != 3 or bare[-1] != delim:
        raise BadDelimiter(f"delimiter {delim!r} must appear exactly 3 times in {regexp!r}")
    middle = bare.index(delim, 1)
    # The delimiter may appear inside either part only escaped; unescape it.
    pattern = regexp[1:middle].replace(escaped, delim)
    return pattern, regexp[middle + 1 : -1].replace(escaped, delim)


class NaptrRecord(Record):
    """One naming-authority-pointer entry for a telephone number.

    Immutable by convention: nothing assigns to a field once the record
    is built, and a changed record is a new one, which the constructor
    checks again. The class is slotted, so it is cheap to build in bulk,
    and as a :class:`~enumstack._record.Record` it compares and prints by
    its field values, so it is unhashable.
    """

    __slots__ = ("order", "preference", "flags", "service", "regexp", "replacement", "visibility")

    def __init__(
        self, order: int, preference: int, flags: str, service: str, regexp: str = "",
        replacement: str = ".", visibility: Visibility = Visibility.PUBLIC,
    ) -> None:
        if not isinstance(order, int) or not 0 <= order <= _MAX_FIELD:
            raise BadInteger(f"order {order!r} outside 0..{_MAX_FIELD}")
        if not isinstance(preference, int) or not 0 <= preference <= _MAX_FIELD:
            raise BadInteger(f"preference {preference!r} outside 0..{_MAX_FIELD}")
        if flags not in ("", "u"):
            raise BadFlags(f"unsupported flags {flags!r}")
        has_regexp = bool(regexp)
        has_replacement = replacement not in ("", ".")
        if flags == "u" and not has_regexp:
            raise FlagRegexpConflict("'u' flag requires a substitution expression")
        if has_regexp == has_replacement:
            raise FieldConflict(
                "exactly one of regexp / replacement must be non-empty"
            )
        if has_regexp:
            pattern, _ = _split_regexp(regexp)
            try:
                re.compile(pattern)
            except re.error as exc:
                raise BadDelimiter(f"unparseable pattern {pattern!r}: {exc}") from exc
        # The stored line quotes flags, service and regexp and ends with the
        # bare replacement, so that every record parses back from it.
        quoted = service + regexp
        if '"' in quoted or "\n" in quoted or "\r" in quoted:
            raise FieldCount(
                f"service {service!r} or regexp {regexp!r} holds a quote or a line break"
            )
        if has_replacement and _NOT_BARE.search(replacement):
            raise FieldCount(f"replacement {replacement!r} is not one bare token")
        self.order = order
        self.preference = preference
        self.flags = flags
        self.service = service
        self.regexp = regexp
        self.replacement = replacement
        self.visibility = visibility

    @property
    def terminal(self) -> bool:
        """True when this record rewrites directly to a URI."""
        return self.flags == "u"

    def sort_key(self) -> tuple[int, int]:
        return (self.order, self.preference)

    def merge_key(self) -> tuple[str, int, int]:
        return (self.service.lower(), self.order, self.preference)


class ServiceSelector(HashedRecord):
    """Matches a record's service field; ``*`` matches everything."""

    __slots__ = ("service",)

    def __init__(self, service: str = "*") -> None:
        self.service = service

    def matches(self, service: str) -> bool:
        return self.service == "*" or self.service.lower() == service.lower()


# ---------------------------------------------------------------- zone-line format


def parse_record(text: str, visibility: Visibility = Visibility.PUBLIC) -> NaptrRecord:
    """Parse one zone-file-style line.

    Expected shape::

        100 10 "u" "E2U+sip" "!^.*$!sip:info@example.com!" .

    Six whitespace-separated fields; flags, service and regexp are quoted;
    replacement is a bare domain or ``.``.
    """
    m = _RECORD_RE.fullmatch(text)
    if m is not None:
        order, preference, flags, service, regexp, replacement = m.groups()
        # The canonical shape's integers are ASCII digits, so int() holds.
        return NaptrRecord(
            int(order), int(preference), flags, service, regexp, replacement, visibility
        )
    order, preference, flags, service, regexp, replacement = _tokenize(text)
    try:
        order = int(order)
        preference = int(preference)
    except ValueError as exc:
        raise BadInteger(f"bad integer field in {text!r}") from exc
    return NaptrRecord(order, preference, flags, service, regexp, replacement, visibility)


def _tokenize(text: str) -> tuple[str, ...]:
    """The six fields of any zone line :func:`parse_record` accepts."""
    tokens: list[tuple[str, bool]] = []
    pos = 0
    stripped = text.strip()
    while pos < len(stripped):
        m = _TOKEN_RE.match(stripped, pos)
        if m is None:
            raise FieldCount(f"unterminated quote in {text!r}")
        quoted = m.group(1) is not None
        tokens.append((m.group(1) if quoted else m.group(2), quoted))
        pos = m.end()
        while pos < len(stripped) and stripped[pos].isspace():
            pos += 1
    if len(tokens) != 6:
        raise FieldCount(f"expected 6 fields, got {len(tokens)}: {text!r}")
    for idx in (2, 3, 4):
        if not tokens[idx][1]:
            raise FieldCount(f"field {idx + 1} must be quoted in {text!r}")
    return tuple(token for token, _ in tokens)


def render_record(rec: NaptrRecord) -> str:
    """Inverse of :func:`parse_record` (visibility is carried separately)."""
    return (
        f'{rec.order} {rec.preference} "{rec.flags}" "{rec.service}" '
        f'"{rec.regexp}" {rec.replacement or "."}'
    )


def parse_stored_line(text: str) -> NaptrRecord:
    """Parse a stored record line: optional visibility token, then zone line."""
    head, _, rest = text.strip().partition(" ")
    visibility = _VISIBILITY.get(head)
    if visibility is None:
        return parse_record(text)
    return parse_record(rest, visibility)


def render_stored_line(rec: NaptrRecord) -> str:
    return f"{rec.visibility.value} {render_record(rec)}"


# ---------------------------------------------------------------- operations


def select(
    records: tuple[NaptrRecord, ...],
    selector: ServiceSelector = ServiceSelector(),
    requester_visibility: Visibility = Visibility.PUBLIC,
) -> list[NaptrRecord]:
    """Filter one number's *records* by service and visibility, sort
    ascending by (order, preference).

    The sort is stable: records with equal keys keep insertion order.
    Restricted records never show up for public requesters.
    """
    allowed = (
        lambda r: r.visibility is Visibility.PUBLIC
        or requester_visibility is Visibility.RESTRICTED
    )
    filtered = [r for r in records if selector.matches(r.service) and allowed(r)]
    return sorted(filtered, key=NaptrRecord.sort_key)


def apply_regexp(rec: NaptrRecord, subject: str | E164Number) -> str:
    """Rewrite *subject* (the ``+``-prefixed number) into a URI.

    Capture groups ``\\1``..``\\9`` in the replacement are substituted
    from the pattern match; only the ASCII digits name a group, and a
    backslash before any other character writes that character. Raises
    :class:`NoMatch` when the pattern does not match and
    :class:`BadBackreference` for a group the pattern lacks.
    """
    if isinstance(subject, E164Number):
        subject = subject.render()
    pattern_text, replacement = _split_regexp(rec.regexp)
    pattern = re.compile(pattern_text)
    m = pattern.search(subject)
    if m is None:
        raise NoMatch(f"{pattern_text!r} does not match {subject!r}")
    if "\\" not in replacement:
        return replacement
    out: list[str] = []
    i = 0
    while i < len(replacement):
        ch = replacement[i]
        if ch == "\\" and i + 1 < len(replacement):
            nxt = replacement[i + 1]
            if nxt.isascii() and nxt.isdigit():
                k = int(nxt)
                if k == 0 or k > pattern.groups:
                    raise BadBackreference(
                        f"\\{k} exceeds {pattern.groups} capture group(s)"
                    )
                out.append(m.group(k) or "")
            else:
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def resolve_record_set(
    records: tuple[NaptrRecord, ...],
    selector: ServiceSelector,
    subject: str | E164Number,
    requester_visibility: Visibility = Visibility.PUBLIC,
) -> tuple[list[str], list[str]]:
    """Select from one number's *records*, then rewrite every terminal
    record to a URI for *subject*, that number.

    Returns ``(uris, warnings)``. Non-terminal records are skipped (the
    chain is not followed); a rewrite failure skips that record with a
    warning instead of aborting the set.
    """
    uris: list[str] = []
    warnings: list[str] = []
    for rec in select(records, selector, requester_visibility):
        if not rec.terminal:
            continue
        try:
            uris.append(apply_regexp(rec, subject))
        except (NoMatch, BadBackreference) as exc:
            warnings.append(
                f"skipped {rec.service} ({rec.order},{rec.preference}): "
                f"{type(exc).__name__}"
            )
    return uris, warnings
