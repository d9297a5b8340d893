"""Exception hierarchy shared across the package.

Each input is checked once, where it enters (the README's table of inputs
and exit codes names the owners).  The CLI maps these onto exit codes:
usage/config problems exit 2; data/input/checkpoint problems and an
``OSError`` (a path that cannot be read or written) exit 3; numeric
failures during training exit 4.
"""


class TsgptError(Exception):
    """Base class for all package errors."""


class ShapeError(TsgptError):
    """Operand shapes are incompatible (matmul inner dims, broadcasting)."""


class ContractError(TsgptError):
    """An API precondition was violated (e.g. backward on a non-scalar)."""


class StateError(TsgptError):
    """A stateful module was used before it acquired the required state."""


class ConfigError(TsgptError):
    """A configuration value or combination of values is invalid."""


class InputError(TsgptError):
    """Runtime input data violates a precondition."""


class TrainingError(TsgptError):
    """Non-finite loss or gradient, or another unrecoverable training fault."""


class TaskError(TsgptError):
    """A model/checkpoint was used for a task its head does not support."""


class CheckpointError(TsgptError):
    """Checkpoint file is corrupt or does not match the requested config."""


class UsageError(TsgptError):
    """Command-line invocation error (bad flags, missing config fields)."""


class DataError(TsgptError):
    """An on-disk artifact is missing or malformed."""
