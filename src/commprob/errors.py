"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every failure raised by this package."""


class NonPrimeError(ToolkitError):
    """Field characteristic is not a prime number."""


class ReducibleModulusError(ToolkitError):
    """Extension modulus has a proper factor over the prime field."""


class MixedCarriersError(ToolkitError):
    """Generators do not live in one common carrier."""


class CapExceededError(ToolkitError):
    """A closure or recursion grew past its configured cap."""


class ElementNotInGroupError(ToolkitError):
    """An element index is outside the group."""


class NotCommutingError(ToolkitError):
    """A tuple presented as commuting has a non-commuting pair."""


class UnknownTypeError(ToolkitError):
    """Type id is not present in the type registry."""


class UnknownFixtureError(ToolkitError):
    """No bundled symbolic matrix under the requested name."""


class WindowViolatedError(ToolkitError):
    """A proven degree bound failed; indicates a bug or corrupted data."""


class PreconditionError(ToolkitError):
    """Input does not satisfy a documented precondition."""


class InvalidFamilyError(ToolkitError):
    """Classical-family parameters are out of range."""


class OutputTooLargeError(ToolkitError):
    """A result would have more digits than integers may be printed with."""


class CertificateError(ToolkitError):
    """An exact form failed the check that proves it; signals a construction bug."""


class InexactDivisionError(ToolkitError):
    """An orbit count came out non-integral; signals an arithmetic bug."""


class GroupSpecParseError(ToolkitError):
    """Group-spec document is not well-formed."""


class GroupSpecValidationError(ToolkitError):
    """Group-spec document is well-formed but semantically invalid."""
