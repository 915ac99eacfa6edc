"""Exact oracles the tests check the library against: the closed-form rate
of the constant-drift circle, the eigenvalues of the discretized circle
generator mode by mode, and smooth random test densities."""

import math

import numpy as np

from irrlangevin.errors import DimensionError
from irrlangevin.ratefn import GridDensity, grid_points, spectral_gradient
from irrlangevin.spectral import periodic_generator

TWO_PI = 2.0 * math.pi


def circle_rate_closed_form(p: GridDensity, delta: float) -> float:
    """Closed form for the constant-drift circle at D = 1/2 (no PDE solve):

        I = (1/8) int |p'/p|^2 p dx + delta^2 (1/2) [1 - 1 / int (1/p) dx]

    with integrals over the normalized circle measure."""
    if p.dims != 1:
        raise DimensionError("closed form is for densities on the circle")
    gp = spectral_gradient(p.values)[0]
    fisher = float(np.mean(gp**2 / p.values)) / 8.0
    harmonic = float(np.mean(1.0 / p.values))
    return fisher + 0.5 * delta**2 * (1.0 - 1.0 / harmonic)


def random_smooth_density(size: int, dims: int = 1, max_mode: int = 4,
                          seed: int = 0, amplitude: float = 1.0) -> GridDensity:
    """Strictly positive smooth test density: exp of a band-limited random
    Fourier series (modes <= max_mode, coefficients uniform in (-1, 1)),
    normalized on the grid."""
    rng = np.random.default_rng(seed)
    pts = grid_points(size, dims)
    g = np.zeros(pts.shape[:-1])
    if dims == 1:
        x = pts[..., 0]
        for n in range(1, max_mode + 1):
            a, bb = rng.uniform(-1, 1, size=2) * amplitude / n
            g += a * np.cos(n * x) + bb * np.sin(n * x)
    else:
        x, y = pts[..., 0], pts[..., 1]
        for nx in range(0, max_mode + 1):
            for ny in range(-max_mode, max_mode + 1):
                if nx == 0 and ny <= 0:
                    continue
                norm = max(1.0, math.hypot(nx, ny))
                a, bb = rng.uniform(-1, 1, size=2) * amplitude / norm**2
                phase = nx * x + ny * y
                g += a * np.cos(phase) + bb * np.sin(phase)
    return GridDensity.from_values(np.exp(g - g.max()))


def generator_spectrum(n: int, delta: float, diffusion: float) -> np.ndarray:
    """Eigenvalues of the discretized circle generator, sorted by real part
    (descending).  The advection part only shifts imaginary parts: real
    parts are identical across delta."""
    eig = np.linalg.eigvals(periodic_generator(np.full((1, n), float(delta)), diffusion))
    order = np.lexsort((eig.imag, -eig.real))
    return eig[order]


def discrete_mode_eigenvalue(n: int, mode: int, delta: float,
                             diffusion: float) -> complex:
    """Exact eigenvalue of the discretization at the given Fourier mode:
    -(2D/h^2)(1 - cos(mode h)) + i (delta/h) sin(mode h)."""
    h = TWO_PI / n
    return complex(
        -(2.0 * diffusion / h**2) * (1.0 - math.cos(mode * h)),
        (delta / h) * math.sin(mode * h),
    )
