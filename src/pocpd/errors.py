"""Exception types shared across the toolkit."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (schema, dimensions, ranges)."""


class NumericalError(RuntimeError):
    """A numerical routine failed (singular system, non-convergent iteration)."""


class CalibrationError(RuntimeError):
    """Control-limit search failed, or a delay estimate had no usable run."""
