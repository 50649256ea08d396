"""Exception hierarchy shared across the package."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EngineError):
    """Invalid model, vocab, or session configuration."""


class LayoutError(EngineError):
    """Inconsistent slot layout or position assignment."""


class PositionOverflowError(EngineError):
    """An absolute position exceeds the model's position limit."""


class CacheConsistencyError(EngineError):
    """KV cache contents do not match what a stage plan expects."""


class LifecycleError(EngineError):
    """Operation called in the wrong session stage."""


class SamplingError(EngineError):
    """Token sampling received an unusable distribution."""


class FormatError(EngineError):
    """Malformed serialized sample.

    ``offset`` is the token index where parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at token offset {offset})"
        super().__init__(message)
        self.offset = offset


class DataError(EngineError):
    """Bad or insufficient input data."""


class VocabError(EngineError):
    """A token id outside the vocab, a think label out of range, or bytes
    that are not valid UTF-8."""
