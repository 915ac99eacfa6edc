"""Irreversible Langevin samplers with large-deviation diagnostics.

Subpackages:

* ``potentials`` -- energy landscapes on R^d and flat tori
* ``drift``      -- invariant-measure-preserving irreversible drifts
* ``sampler``    -- split-step Euler-Maruyama integration with reproducible streams
* ``estimators`` -- batch-means ergodic averages, asymptotic variance
* ``ratefn``     -- empirical-measure rate functionals on periodic grids
* ``spectral``   -- exact circle variances; principal eigenvalues and
                    observable rate functions on the circle
* ``cli``        -- config-driven experiment runner
"""

from .drift import (
    J2,
    check_invariance,
    make_constant_drift,
    make_rotational_drift,
)
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    ParameterError,
    PropagationError,
    SolverError,
)
from .estimators import (
    OBSERVABLES,
    BatchMeansReport,
    ObservableSpec,
    asymptotic_variance_estimate,
    batch_count_schedule,
    batch_means,
    get_observable,
    t_quantile,
)
from .potentials import CATALOG, PotentialField, get_potential
from .ratefn import (
    GaugeField,
    GridDensity,
    RateReport,
    rate_irreversible,
    solve_gauge_field,
)
from .rng import NORMAL_ALGORITHM, NormalStream
from .sampler import load_trajectory, save_trajectory, simulate_cells
from .spectral import (
    FourierObservable,
    ScaledCgf,
    fourier_sigma2,
    observable_rate,
    rate_curvature,
)

__version__ = "0.1.0"
