"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: DataError and TrainingError (which
includes OptimizerError) -> 1, ConfigError -> 2.
"""


class SearnError(Exception):
    """Base class for all package errors."""


class ConfigError(SearnError):
    """Invalid parameter or incompatible configuration."""


class DataError(SearnError):
    """Malformed, missing or out-of-contract input data."""


class StateError(SearnError):
    """Illegal action or query on a task state."""


class TaskContractError(SearnError):
    """A task violated the decision-process contract (e.g. a rollout
    exceeded the declared maximum decision count)."""


class TrainingError(SearnError):
    """Training could not produce a usable policy."""


class OptimizerError(TrainingError):
    """Numerical failure inside an optimizer."""
