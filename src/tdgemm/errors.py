"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class InvalidConfigError(EngineError):
    """Engine or packing configuration violates an invariant."""


class DimensionError(EngineError):
    """Operands are not conformable."""


class QuantizerOverflowError(EngineError):
    """Companded values exceed the exact-integer range of the native format."""


class DegenerateInputError(EngineError):
    """An operation is undefined for zero-spread input (sigma = 0)."""


class CalibrationMissingError(EngineError):
    """No calibration data for the requested (precision, mode, W) slice."""


class InfeasibleConstraintError(EngineError):
    """Requested acceleration exceeds what the available options can deliver."""

    def __init__(self, message, achievable_percent=None):
        super().__init__(message)
        self.achievable_percent = achievable_percent


class TimerResolutionError(EngineError):
    """Wall-clock timer too coarse for the chosen problem size."""


class TableFormatError(EngineError):
    """Persisted table file is malformed or has an unsupported version."""


class NonFiniteInputError(EngineError):
    """An input matrix holds a NaN or an infinity."""
