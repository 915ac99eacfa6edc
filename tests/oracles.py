"""Exact oracles the tests check the library against: the closed-form rate
of the constant-drift circle, the eigenvalues of the discretized circle
generator mode by mode, the moments of the split sampler's linear chain on
quadratic U, the split rule written out step by step, and smooth random test
densities."""

import math

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from irrlangevin.drift import J2
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
    eig = np.linalg.eigvals(periodic_generator(np.full(n, float(delta)), diffusion))
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


def split_chain_moments(delta: float, diffusion: float, dt: float, substeps: int):
    """The exact law of the sampler's chain on quadratic U in 2 dimensions.

    Each substep of size h = dt / substeps is Z' = R(delta h)((1 - h) Z + w)
    with w ~ N(0, 2 D h I) and R(a) = [[cos a, sin a], [-sin a, cos a]], the
    flow of x' = y, y' = -x.  Returns ``(A, sigma, sigma2)``: the matrix A of
    one recorded step, Z_dt = A Z_0 + noise (columns are states); the
    stationary covariance sigma, solving sigma = A1 sigma A1^T + 2 D h I for
    the substep matrix A1; and the asymptotic variance of the time average of
    x on the recording grid, dt (2 [(I - A)^-1 sigma]_xx - sigma_xx), since
    Cov(Z_k, Z_0) = A^k sigma."""
    h = dt / substeps
    c, s = math.cos(delta * h), math.sin(delta * h)
    a1 = (1.0 - h) * np.array([[c, s], [-s, c]])
    sigma = solve_discrete_lyapunov(a1, 2.0 * diffusion * h * np.eye(2))
    a = np.linalg.matrix_power(a1, substeps)
    lagged = np.linalg.solve(np.eye(2) - a, sigma)
    return a, sigma, dt * (2.0 * lagged[0, 0] - sigma[0, 0])


def _rotation_step(potential, z, a):
    """z moved by the rotational flow for time a (one time per row), on fresh
    arrays: the exact rotation on quadratic U, else one kick-drift-kick step
    from U(x, y) = V(x) + W(y)."""
    x, y = z[:, 0], z[:, 1]
    if potential.name == "quadratic":
        c, s = np.cos(a), np.sin(a)
        return np.stack([c * x + s * y, c * y - s * x], axis=-1)
    if potential.name == "bimodal1":
        dv, dw = (lambda x: x * (x * x - 1.0)), (lambda y: y)
    else:  # torus-cosine: U = a cos x + b cos y
        ca, cb = potential.params["a"], potential.params["b"]
        dv, dw = (lambda x: -ca * np.sin(x)), (lambda y: -cb * np.sin(y))
    half = 0.5 * a
    y = y - half * dv(x)
    x = x + a * dw(y)
    y = y - half * dv(x)
    return np.stack([x, y], axis=-1)


def split_rule_reference(potential, deltas, diffusion: float, dt: float,
                         n_steps: int, initials, streams, substeps: int) -> np.ndarray:
    """The states a rotational-drift ``simulate_cells`` run records, one cell
    per delta (0 for a reversible cell), computed substep by substep from the
    split rule: z <- w + (grad U(z) (-h) + z) with w = sqrt(2 D h) normals and
    h = dt / substeps, then the rotation flow for time delta h.  On a
    potential without a flow the rotation stays in the Euler step,
    z <- w + (grad U(z) ((delta J2^T - I) h) + z), one vector-matrix product
    per cell.  Every gradient is a fresh ``grad_fn`` call, and each stream's
    normals are drawn in one call.  Returns (cells, n_steps + 1, d)."""
    h = dt / substeps
    deltas = np.asarray(deltas, dtype=float)
    z = np.array(initials, dtype=float)
    d = z.shape[1]
    w = np.stack([math.sqrt(2.0 * diffusion * h)
                  * stream.normals(n_steps * substeps * d).reshape(-1, d)
                  for stream in streams], axis=1)
    euler = (deltas[:, None, None] * J2.T - np.eye(d)) * h
    out = [z]
    for k in range(n_steps * substeps):
        g = potential.grad_fn(z)
        if potential.rotation_flow is None:
            z = w[k] + (np.stack([g[i] @ euler[i] for i in range(len(z))]) + z)
        else:
            z = w[k] + (g * (-h) + z)
            z = _rotation_step(potential, z, deltas * h)
        if (k + 1) % substeps == 0:
            out.append(z)
    return np.stack(out, axis=1)
