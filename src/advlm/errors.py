"""Exception types shared across the library.

The CLI maps these to exit codes: ConfigError/CorpusError -> 2,
NumericError -> 3, CheckpointError -> 4. A MemoryError (sizes the machine
cannot hold) also exits 2.
"""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A configuration value or config file is invalid."""


class CorpusError(ValueError):
    """Text ingestion failed (empty corpus, malformed vocab file, ...)."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the computation requires finite ones."""


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, or fails format validation."""
