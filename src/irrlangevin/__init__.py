"""Irreversible Langevin samplers with large-deviation diagnostics.

Subpackages:

* ``potentials`` -- energy landscapes on R^d and flat tori
* ``drift``      -- invariant-measure-preserving irreversible drifts
* ``sampler``    -- Euler-Maruyama integration with reproducible streams
* ``estimators`` -- ergodic averages, batch means, asymptotic variance
* ``ratefn``     -- empirical-measure rate functionals on periodic grids
* ``spectral``   -- exact circle variances; principal eigenvalues and
                    observable rate functions on the circle and the 2-torus
* ``cli``        -- config-driven experiment runner
"""

from .drift import (
    J2,
    antisymmetric_matrix,
    check_invariance,
    make_constant_drift,
    make_rotational_drift,
)
from .errors import (
    ConfigError,
    ConstructionError,
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
    ergodic_average,
    get_observable,
    t_quantile,
)
from .potentials import CATALOG, PotentialField, get_potential
from .ratefn import (
    GaugeField,
    GridDensity,
    RateReport,
    circle_rate_closed_form,
    quadratic_coefficient,
    rate_irreversible,
    rate_reversible,
    solve_gauge_field,
)
from .rng import NORMAL_ALGORITHM, NormalStream
from .sampler import (
    SdeConfig,
    Trajectory,
    load_trajectory,
    save_trajectory,
    simulate,
    simulate_cells,
)
from .spectral import (
    FourierObservable,
    ObservableRateCurve,
    ScaledCgf,
    fourier_sigma2,
    generator_spectrum,
    observable_rate,
    rate_curvature,
)

__version__ = "0.1.0"
