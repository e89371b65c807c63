"""Exception types shared across the library, and its one overflow rule.

The CLI maps these to exit codes: ConfigError/CorpusError -> 2,
NumericError -> 3, CheckpointError -> 4. A MemoryError (sizes the machine
cannot hold) also exits 2.
"""

from contextlib import contextmanager

import numpy as np


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


@contextmanager
def overflow_guard(where: str):
    """The numeric rule: run the block with numpy overflow raised, and turn an
    overflow or a NumericError in it into a NumericError that names where."""
    try:
        with np.errstate(over="raise"):
            yield
    except (NumericError, FloatingPointError) as e:
        raise NumericError(f"{where}: {e}") from None
