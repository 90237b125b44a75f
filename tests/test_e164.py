import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumstack import e164
from enumstack.errors import (
    BadApex,
    EmptyInput,
    LengthOutOfRange,
    MissingCountryCode,
    NonDigitContent,
    NonDigitLabel,
    UnknownCountryCode,
    WrongApex,
)


class TestParseNumber:
    def test_worked_example(self):
        n = e164.parse_number("+1-315-443-4473")
        assert n.full_digits == "13154434473"
        assert n.country_code == "1"
        assert n.national_digits == "3154434473"

    def test_too_short(self):
        with pytest.raises(LengthOutOfRange):
            e164.parse_number("+1")

    def test_too_long(self):
        with pytest.raises(LengthOutOfRange):
            e164.parse_number("+" + "1" * 16)

    def test_default_country_code_prepended(self):
        n = e164.parse_number("(315) 443-4473", default_country_code="1")
        assert n.full_digits == "13154434473"
        assert n.country_code == "1"

    def test_no_plus_no_default(self):
        with pytest.raises(MissingCountryCode):
            e164.parse_number("315-443-4473")

    def test_non_ascii_default_country_code(self):
        with pytest.raises(MissingCountryCode):
            e164.parse_number("315-443-4473", default_country_code="\u0663")

    def test_letters_rejected(self):
        with pytest.raises(NonDigitContent):
            e164.parse_number("+1-315-HELLO")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            e164.parse_number("   ")

    def test_separators_only(self):
        with pytest.raises(EmptyInput):
            e164.parse_number("+ - ()")

    def test_dots_and_spaces(self):
        assert e164.parse_number("+1.650.555.1212").full_digits == "16505551212"

    def test_country_code_longest_prefix(self):
        n = e164.parse_number("+4930123456")
        assert n.country_code == "49"

    def test_unknown_prefix_falls_back_to_first_digit(self):
        n = e164.parse_number("+999123")
        assert n.country_code == "9"

    def test_idempotent(self):
        first = e164.parse_number("+1 (315) 443-4473")
        again = e164.parse_number(first.render())
        assert first == again


class TestDomainConversion:
    def test_worked_example(self):
        n = e164.parse_number("+1-315-443-4473")
        assert e164.to_domain(n).render() == "3.7.4.4.3.4.4.5.1.3.1.e164.arpa"

    def test_three_digits(self):
        n = e164.E164Number(country_code="1", national_digits="23")
        assert e164.to_domain(n).render() == "3.2.1.e164.arpa"

    def test_alternate_root(self):
        n = e164.parse_number("+1-315-443-4473")
        apex = e164.ApexConfig("enum.example")
        assert e164.to_domain(n, apex).render() == "3.7.4.4.3.4.4.5.1.3.1.enum.example"

    def test_label_count(self):
        n = e164.parse_number("+13154434473")
        domain = e164.to_domain(n)
        rendered = domain.render()
        assert len(rendered.split(".")) == len(n.full_digits) + len(domain.apex.labels)

    def test_from_domain_worked_example(self):
        n = e164.from_domain("3.7.4.4.3.4.4.5.1.3.1.e164.arpa")
        assert n.full_digits == "13154434473"

    def test_from_domain_trailing_dot(self):
        assert e164.from_domain("3.2.1.e164.arpa.").full_digits == "123"

    def test_from_domain_bad_label(self):
        with pytest.raises(NonDigitLabel):
            e164.from_domain("3.7.ab.4.e164.arpa")

    def test_from_domain_non_ascii_digit_label(self):
        with pytest.raises(NonDigitLabel):
            e164.from_domain("\u0663.\u0663.\u0663.e164.arpa")

    def test_from_domain_wrong_apex(self):
        with pytest.raises(WrongApex):
            e164.from_domain("3.2.1.enum.example")

    def test_from_domain_too_long(self):
        labels = ".".join("1" * 16) + ".e164.arpa"
        with pytest.raises(LengthOutOfRange):
            e164.from_domain(labels)

    def test_apex_validation(self):
        with pytest.raises(BadApex):
            e164.ApexConfig("")
        with pytest.raises(BadApex):
            e164.ApexConfig("e164..arpa")
        with pytest.raises(BadApex):
            e164.ApexConfig("x" * 64 + ".arpa")


class TestCountryCodeOf:
    def test_direct_hit(self):
        n = e164.parse_number("+13154434473")
        assert e164.country_code_of(n) == "1"

    def test_longest_prefix(self):
        n = e164.parse_number("+4930123456")
        assert e164.country_code_of(n, table=("4", "49")) == "49"

    def test_empty_table(self):
        n = e164.parse_number("+999123")
        with pytest.raises(UnknownCountryCode):
            e164.country_code_of(n, table=())


@settings(max_examples=300)
@given(
    digits=st.text(alphabet="0123456789", min_size=3, max_size=15),
    apex=st.sampled_from(["e164.arpa", "enum.example", "e164.net", "tree.alt.example"]),
)
def test_roundtrip_property(digits, apex):
    number = e164.parse_number("+" + digits)
    cfg = e164.ApexConfig(apex)
    assert e164.from_domain(e164.to_domain(number, cfg).render(), cfg) == number


@given(digits=st.text(alphabet="0123456789", min_size=3, max_size=15))
def test_conversion_pure(digits):
    number = e164.parse_number("+" + digits)
    assert e164.to_domain(number) == e164.to_domain(number)
