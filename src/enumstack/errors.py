"""Exception hierarchy for the ENUM stack.

Error names are terse and operation-oriented (dnspython style): the class
name is the diagnostic. Catch ``EnumStackError`` for anything raised by
this package.
"""


class EnumStackError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------- E.164


class E164Error(EnumStackError):
    """Number parsing or domain-name conversion failed."""


class EmptyInput(E164Error):
    """The raw number string was empty."""


class NonDigitContent(E164Error):
    """Non-digit characters remained after separator stripping."""


class LengthOutOfRange(E164Error):
    """Digit count outside the 3..15 E.164 envelope."""


class MissingCountryCode(E164Error):
    """No leading '+' and no default country code configured."""


class WrongApex(E164Error):
    """Domain name does not end in the expected apex."""


class NonDigitLabel(E164Error):
    """A digit label of the domain is not a single decimal digit."""


class UnknownCountryCode(E164Error):
    """No country-code prefix table entry matches the number."""


class BadApex(E164Error):
    """Apex is not a valid dot-separated label sequence."""


# ---------------------------------------------------------------- NAPTR


class NaptrError(EnumStackError):
    """NAPTR record parsing, validation, or rewriting failed."""


class FieldCount(NaptrError):
    """Zone line does not have the six expected fields, or a record holds a
    field its zone line could not."""


class BadInteger(NaptrError):
    """Order or preference is not an integer in 0..65535."""


class BadDelimiter(NaptrError):
    """Substitution expression delimiter structure is malformed."""


class BadFlags(NaptrError):
    """Flags field is not one of the supported values ('' or 'u')."""


class FlagRegexpConflict(NaptrError):
    """Terminal 'u' flag requires a non-empty substitution expression."""


class FieldConflict(NaptrError):
    """Exactly one of regexp / replacement must be non-empty."""


class NoMatch(NaptrError):
    """Substitution pattern did not match the subject."""


class BadBackreference(NaptrError):
    """Replacement references a capture group the pattern lacks."""


# ---------------------------------------------------------------- wire / simulator


class WireError(EnumStackError):
    """Frame encoding or decoding failed."""


class HopTimeout(EnumStackError):
    """No response arrived for a request, retries included."""


# ---------------------------------------------------------------- registry tier


class RegistryError(EnumStackError):
    """Tier-0/Tier-1 operation failed."""


class NotAuthoritative(RegistryError):
    """Another registry owns the delegation for this number."""


class UnaccreditedRegistrar(RegistryError):
    """Registrar is not on this registry's accreditation list."""


class NoDelegation(RegistryError):
    """No delegation (local or replicated) for the number."""


class StaleOldRegistrar(RegistryError):
    """Claimed old registrar does not match the current delegation."""


class UnknownPeer(RegistryError):
    """Replication update originated from a non-configured peer."""


# ---------------------------------------------------------------- registrar tier


class RegistrarError(EnumStackError):
    """Tier-2 operation failed."""


class NoPhoneService(RegistrarError):
    """Number has no active telephone assignment."""


class VerificationFailed(RegistrarError):
    """Subscriber identity / number assignment could not be verified."""


class AccessDenied(RegistrarError):
    """Actor lacks rights for the attempted record operation."""


class EnumInactive(RegistrarError):
    """Number has no active ENUM subscription."""


class InvalidRecord(RegistrarError):
    """Provisioned record failed validation."""


class NotSubscriber(RegistrarError):
    """Only the subscriber of the number may manage grants."""


class UnknownGrant(RegistrarError):
    """No grant with that id exists for the number."""


class SameRegistrar(RegistrarError):
    """Transfer target equals the current serving registrar."""


class AlreadyComplete(RegistrarError):
    """Transfer already completed; disputes are no longer possible."""


class UnknownTransfer(RegistrarError):
    """No transfer record with that id."""


class UnknownSubscription(RegistrarError):
    """No subscription exists for the number."""


class AlreadySubscribed(RegistrarError):
    """Number already has ENUM service at another registrar; transfer instead."""


class TransferPending(RegistrarError):
    """The number's transfer is open: no write or second transfer until it ends."""


# ---------------------------------------------------------------- scenarios


class ScenarioError(EnumStackError):
    """Scenario configuration or run-control error."""


class InvalidModelCombination(ScenarioError):
    """Model id contradicts registrar kind / registry multiplicity grid."""


class RunIncomplete(ScenarioError):
    """Operation requires a completed event run."""


class SnapshotError(ScenarioError):
    """Snapshot file is corrupt; carries the offending line number, or None
    for text a store parsed after the file loaded."""

    def __init__(self, path: str, lineno: int | None, message: str):
        where = path if lineno is None else f"{path}:{lineno}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.lineno = lineno


class LockHeld(ScenarioError):
    """Another process holds the snapshot directory lock; carries its pid."""

    def __init__(self, path: str, pid: int | None):
        holder = f"pid {pid}" if pid is not None else "an unknown process"
        super().__init__(f"{path} is held by {holder}; another invocation is active")
        self.pid = pid


# ---------------------------------------------------------------- market model


class MarketError(EnumStackError):
    """Market table arithmetic failed."""


class MissingYear(MarketError):
    """Metric has no value for the requested (or preceding) year."""


class ZeroBase(MarketError):
    """Denominator or base-year value is zero."""


class BadPenetration(MarketError):
    """Penetration fraction outside (0, 1]."""



# ---------------------------------------------------------------- command line


class BadArgument(EnumStackError):
    """A command-line argument is not text the stack can carry."""


def status_error(status: str, message: str) -> EnumStackError:
    """The exception an error response's status (an exception class name)
    names; an unknown name gives an ``EnumStackError`` that keeps it."""
    exc_type = globals().get(status)
    if isinstance(exc_type, type) and issubclass(exc_type, EnumStackError):
        return exc_type(message)
    return EnumStackError(f"{status}: {message}")
