"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class DimensionError(ParameterError):
    """Point / field / matrix dimensions do not match."""


class DomainError(ParameterError):
    """A requested level lies outside the admissible open range."""


class ConfigError(ValueError):
    """A CLI configuration document failed validation."""


class PropagationError(ArithmeticError):
    """A simulated state became non-finite.

    Carries ``step_index`` and ``cell_index`` so blow-ups (usually dt too
    large for the drift stiffness at high irreversibility strength) can be
    located.
    """

    def __init__(self, message: str, step_index: int | None = None,
                 cell_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.cell_index = cell_index


class SolverError(RuntimeError):
    """An iterative solver failed to converge."""
