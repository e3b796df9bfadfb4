"""Exception types shared across the package."""


class SaiiError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCharacter(SaiiError):
    """A non-ACGT character was found while encoding and substitution is off."""

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(f"invalid character {char!r} at position {position}")


class EmptyText(SaiiError):
    """An operation that requires a non-empty sequence received an empty one."""


class IndexOutOfRange(SaiiError):
    """An occurrence query addressed a position outside [-1, n)."""


class MissingSuffixArray(SaiiError):
    """The operation needs a suffix array but the index does not carry one."""


class CapacityExceeded(SaiiError):
    """Strict-capacity mode: the configured maximum text length was exceeded."""


class InvalidParams(SaiiError):
    """A numeric parameter (a length, a trial count, m, k, clock) is out of its legal range."""


class InvalidSamplingRate(SaiiError, ValueError):
    """The occurrence checkpoint spacing k is below 1."""


class IndexFormatError(SaiiError):
    """An index file failed validation (magic, version, structure, or CRC)."""
