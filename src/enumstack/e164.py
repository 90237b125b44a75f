"""E.164 number parsing and ENUM domain-name conversion.

A telephone number such as ``+1-315-443-4473`` maps to the domain name
``3.7.4.4.3.4.4.5.1.3.1.e164.arpa``: separators are stripped, the digits
are reversed into single-digit labels, and the configured apex is
appended. The apex is configurable because competing trees rooted under
other suffixes are a recognized deployment shape; ``e164.arpa`` is only
the default.

All values here are immutable by convention, and the conversions are pure
functions.
"""

from __future__ import annotations

import re

from ._record import HashedRecord
from .errors import (
    BadApex,
    EmptyInput,
    LengthOutOfRange,
    MissingCountryCode,
    NonDigitContent,
    NonDigitLabel,
    UnknownCountryCode,
    WrongApex,
)

# Hard E.164 envelope: a complete international number is 3..15 digits.
MIN_DIGITS = 3
MAX_DIGITS = 15

# Minimal default country-code prefix table. Real assignments are ITU
# data; country_code_of takes a broader table where one is needed.
DEFAULT_CC_TABLE: tuple[str, ...] = ("1", "44", "49", "81", "82", "86")

_SEPARATORS = " -.()\t"
_LABEL_RE = re.compile(r"^[A-Za-z0-9_-]{1,63}$")


class ApexConfig(HashedRecord):
    """A root suffix under which digit labels are hung.

    *apex* is a dot-separated label sequence such as ``e164.arpa`` or
    ``enum.example``.
    """

    __slots__ = ("apex",)

    def __init__(self, apex: str = "e164.arpa") -> None:
        if not apex:
            raise BadApex("apex must be non-empty")
        for part in apex.split("."):
            if not _LABEL_RE.match(part):
                raise BadApex(f"bad apex label {part!r}")
        self.apex = apex

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.apex.split("."))


DEFAULT_APEX = ApexConfig()


class E164Number(HashedRecord):
    """A validated international telephone number.

    *country_code* is a 1-3 digit prefix of the full number;
    *national_digits* is the remainder. ``full_digits`` is their
    concatenation and is what all conversions operate on.
    """

    __slots__ = ("country_code", "national_digits")

    def __init__(self, country_code: str, national_digits: str) -> None:
        digits = country_code + national_digits
        if not digits.isascii() or not digits.isdigit():
            raise NonDigitContent(f"non-digit content in {digits!r}")
        if not 1 <= len(country_code) <= 3:
            raise LengthOutOfRange(f"country code {country_code!r} must be 1-3 digits")
        if not MIN_DIGITS <= len(digits) <= MAX_DIGITS:
            raise LengthOutOfRange(
                f"{digits!r} has {len(digits)} digits, expected {MIN_DIGITS}-{MAX_DIGITS}"
            )
        self.country_code, self.national_digits = country_code, national_digits

    @property
    def full_digits(self) -> str:
        return self.country_code + self.national_digits

    def render(self) -> str:
        """International form: '+' followed by all digits."""
        return "+" + self.full_digits

    def __str__(self) -> str:
        return self.render()


class EnumDomain(HashedRecord):
    """The DNS name for a number: reversed digit labels under an apex."""

    __slots__ = ("digit_labels", "apex")

    def __init__(self, digit_labels: tuple[str, ...], apex: ApexConfig = DEFAULT_APEX) -> None:
        self.digit_labels, self.apex = digit_labels, apex

    def render(self) -> str:
        return ".".join(self.digit_labels) + "." + self.apex.apex

    def __str__(self) -> str:
        return self.render()


def _split_country_code(digits: str) -> str:
    """Longest-prefix country code, falling back to the first digit.

    The fallback keeps parsing total: a number whose code is not in the
    table still round-trips, and strict resolution is available through
    :func:`country_code_of`.
    """
    for width in (3, 2, 1):
        prefix = digits[:width]
        if prefix in DEFAULT_CC_TABLE:
            return prefix
    return digits[:1]


def parse_number(raw: str, default_country_code: str | None = None) -> E164Number:
    """Parse a free-form telephone number string.

    A leading ``+`` flags international form. Separators (hyphen, space,
    dot, parentheses) are stripped. Without a ``+``, *default_country_code*
    is prepended; if none is configured the number is rejected, since a
    bare national string is ambiguous.

    Raises :class:`EmptyInput`, :class:`NonDigitContent`,
    :class:`LengthOutOfRange` or :class:`MissingCountryCode`.
    """
    text = raw.strip()
    if not text:
        raise EmptyInput("empty number string")
    international = text.startswith("+")
    if international:
        text = text[1:]
    for sep in _SEPARATORS:
        text = text.replace(sep, "")
    if not text:
        raise EmptyInput(f"no digits in {raw!r}")
    if not (text.isascii() and text.isdigit()):
        raise NonDigitContent(f"non-digit content in {raw!r}")

    if international:
        digits = text
        cc = _split_country_code(digits)
    else:
        if default_country_code is None:
            raise MissingCountryCode(f"{raw!r} has no '+' and no default country code")
        if not (
            default_country_code.isascii() and default_country_code.isdigit()
            and 1 <= len(default_country_code) <= 3
        ):
            raise MissingCountryCode(
                f"default country code {default_country_code!r} must be 1-3 digits"
            )
        digits = default_country_code + text
        cc = default_country_code

    # E164Number checks the digit count.
    return E164Number(country_code=cc, national_digits=digits[len(cc):])


def to_domain(number: E164Number, apex: ApexConfig = DEFAULT_APEX) -> EnumDomain:
    """Convert a number to its ENUM domain: digits reversed, apex appended."""
    return EnumDomain(digit_labels=tuple(reversed(number.full_digits)), apex=apex)


def from_domain(name: str, apex: ApexConfig = DEFAULT_APEX) -> E164Number:
    """Invert :func:`to_domain`: strip the apex, reverse the digit labels.

    ``from_domain(to_domain(n).render())`` returns ``n`` for every valid
    number. A trailing dot on *name* is accepted. Raises
    :class:`WrongApex`, :class:`NonDigitLabel` or :class:`LengthOutOfRange`.
    """
    text = name.rstrip(".")
    suffix = "." + apex.apex
    if text.lower() == apex.apex.lower() or not text.lower().endswith(suffix.lower()):
        raise WrongApex(f"{name!r} is not under apex {apex.apex!r}")
    labels = text[: -len(suffix)].split(".")
    for lab in labels:
        if len(lab) != 1 or not (lab.isascii() and lab.isdigit()):
            raise NonDigitLabel(f"label {lab!r} is not a single digit")
    digits = "".join(reversed(labels))
    cc = _split_country_code(digits)
    return E164Number(country_code=cc, national_digits=digits[len(cc):])


def country_code_of(
    number: E164Number,
    table: tuple[str, ...] | None = None,
) -> str:
    """Resolve the routing country code by longest-prefix match.

    Unlike parsing, this is strict: if no table entry matches, the number
    cannot be routed and :class:`UnknownCountryCode` is raised.
    """
    prefixes = DEFAULT_CC_TABLE if table is None else tuple(table)
    digits = number.full_digits
    for width in (3, 2, 1):
        prefix = digits[:width]
        if prefix in prefixes:
            return prefix
    raise UnknownCountryCode(f"no prefix entry matches {digits!r}")
