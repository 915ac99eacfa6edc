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

    Carries ``step_index``, ``cell_index``, the cell's drift strength
    ``delta`` and the time ``t`` of the step so blow-ups (usually dt too
    large for the drift stiffness at high irreversibility strength) can be
    located.
    """

    def __init__(self, message: str, step_index: int | None = None,
                 cell_index: int | None = None, delta: float | None = None,
                 t: float | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.cell_index = cell_index
        self.delta = delta
        self.t = t


class SolverError(RuntimeError):
    """An iterative solver failed to converge.

    ``solve`` names the failed solve where a computation runs several
    (``main`` or ``quadratic`` in ``ratefn.rate_irreversible``), else None.
    """

    def __init__(self, message: str, solve: str | None = None):
        super().__init__(message)
        self.solve = solve
