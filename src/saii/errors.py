"""Exception types shared across the package."""


class SaiiError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCharacter(SaiiError):
    """A non-ACGT character was found while encoding and substitution is
    off, or a code outside 0..3 while packing codes."""

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(f"invalid character {char!r} at position {position}")

    def __reduce__(self):
        # rebuild from the fields, so the error survives a worker process
        return type(self), (self.position, self.char)


class EmptyText(SaiiError):
    """An operation that requires a non-empty sequence received an empty one."""


class IndexOutOfRange(SaiiError):
    """An occurrence query addressed a position outside [-1, n) or a code outside 0..3."""


class CapacityExceeded(SaiiError):
    """Strict-capacity mode: the configured maximum text length was exceeded."""


class InvalidParams(SaiiError):
    """A numeric parameter (a length, a trial count, m, k, clock) is out of its legal range."""


class InvalidSamplingRate(InvalidParams, ValueError):
    """The occurrence checkpoint spacing k is below 1, or too large for
    the index file's u32 k field."""


class IndexFormatError(SaiiError):
    """An index file failed validation (magic, version, structure, or CRC)."""
