"""Exception types shared across the package."""


class SegShieldError(Exception):
    """Base class for all segshield errors."""


class ConfigurationError(SegShieldError, ValueError):
    """Invalid configuration: bad band layout, socket tuning, profile, etc."""


class TraceFormatError(SegShieldError, ValueError):
    """A trace file failed to parse or validate.

    ``line`` is the 1-based line number of the offending row, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class TraceRecordError(ValueError):
    """A trace breaks a rule at record ``index``. Not a SegShieldError: a stage
    that builds a bad trace has a bug, reported under the stage's name."""

    def __init__(self, reason: str, index: int):
        super().__init__(f"record {index}: {reason}")
        self.reason = reason
        self.index = index


class TransportError(SegShieldError, OSError):
    """A socket operation failed mid-transfer.

    ``chunks_sent`` counts the chunks that were fully written before the
    failure.
    """

    def __init__(self, message: str, chunks_sent: int = 0):
        super().__init__(message)
        self.chunks_sent = chunks_sent


class IntegrityError(SegShieldError):
    """Receiver-side digest did not match the sender's payload."""
