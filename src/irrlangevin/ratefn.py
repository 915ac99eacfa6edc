"""Empirical-measure rate functionals on periodic grids.

Conventions
-----------
* Densities live on flat tori with period 2*pi per axis and are taken with
  respect to the *normalized* Lebesgue measure: the grid mean of the node
  values equals 1 (the uniform density is identically 1).  This is the
  unique convention under which the closed-form circle rate vanishes at
  the uniform density.
* Gradients/divergences are true spatial derivatives, evaluated by Fourier
  collocation (exact for band-limited fields, super-algebraically accurate
  for smooth ones) with real transforms (``rfftn``/``irfftn``).  One table
  of derivative symbols i k, Nyquist mode zeroed, serves the gradient, the
  divergence (summed in Fourier space, then one inverse transform) and the
  gauge solver's preconditioner.
* Quadrature is the plain grid mean, which is spectrally accurate on the
  torus and makes discrete integration by parts exact, so the continuum
  identities between the different rate representations hold at solver
  precision on the grid.

For the generator D*Lap + b.grad, the rate of a measure mu = p dx is

    I(mu) = (1/(4 D)) * int |D grad p / p + grad psi|^2 dmu ,

with the gauge field psi the mean-zero solution of div[p (b + grad psi)] = 0.
At D = 1/2 (unit-noise SDE, invariant density e^{-2U}) this reduces to the
familiar explicit forms: the reversible rate (1/2) int |(1/2) grad p / p +
grad U|^2 dmu, the irreversible increment (1/2) int |grad psi_C - grad U|^2
dmu, and the quadratic coefficient (1/2) int |grad xi|^2 dmu with
div[p (C0 + grad xi)] = 0.  The gauge equation itself is D-free.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .drift import check_invariance
from .errors import DimensionError, ParameterError, SolverError
from .potentials import PotentialField

TWO_PI = 2.0 * math.pi

#: Relative tolerance of the gauge CG solve (see ``solve_gauge_field``).
GAUGE_RTOL = 1e-11


# ---------------------------------------------------------------------------
# spectral operators on the 2*pi-periodic grid


def _derivative_symbols(shape: tuple) -> list:
    """Fourier symbols i k_a of d/dx_a, one per axis, for real fields on a
    grid of ``shape``, in ``rfftn`` layout (the last axis keeps its
    n // 2 + 1 non-negative modes) and broadcastable against an ``rfftn``
    spectrum.  The Nyquist mode of an even axis is zeroed so that first
    derivatives of real fields stay real and antisymmetric."""
    last = len(shape) - 1
    symbols = []
    for axis, n in enumerate(shape):
        k = (np.fft.rfftfreq if axis == last else np.fft.fftfreq)(n, 1.0 / n)
        if n % 2 == 0:
            k[n // 2] = 0.0
        symbols.append(1j * k.reshape([-1 if a == axis else 1 for a in range(last + 1)]))
    return symbols


def _inverse(spectrum: np.ndarray, shape: tuple) -> np.ndarray:
    """Real grid field of ``shape`` from its ``rfftn`` spectrum."""
    return np.fft.irfftn(spectrum, s=shape, axes=tuple(range(len(shape))))


def spectral_gradient(values: np.ndarray) -> np.ndarray:
    """Gradient of a scalar grid field; returns shape (d, *grid)."""
    v = np.asarray(values, dtype=float)
    vhat = np.fft.rfftn(v)
    return np.stack([_inverse(ik * vhat, v.shape) for ik in _derivative_symbols(v.shape)])


def spectral_divergence(flux: np.ndarray) -> np.ndarray:
    """Divergence of a vector grid field of shape (d, *grid)."""
    shape = flux.shape[1:]
    return _inverse(sum(ik * np.fft.rfftn(f)
                        for ik, f in zip(_derivative_symbols(shape), flux)), shape)


# ---------------------------------------------------------------------------
# grid densities


def _check_diffusion(diffusion: float) -> None:
    if not (math.isfinite(diffusion) and diffusion > 0):
        raise ParameterError(f"diffusion must be finite and positive, got {diffusion}")


def _check_positive(values: np.ndarray) -> None:
    if values.size == 0 or not np.all(np.isfinite(values)) or values.min() <= 0.0:
        raise ParameterError("density must be nonempty, finite and strictly positive")


@dataclass(frozen=True)
class GridDensity:
    """Strictly positive probability density on a periodic grid.

    ``values`` has shape (N,) on the circle or (N, N) on the 2-torus, row
    index = x axis.  Grid mean of the values is 1 (normalized-Lebesgue
    convention).
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (1, 2):
            raise DimensionError("grid densities support 1 or 2 dimensions")
        if v.ndim == 2 and v.shape[0] != v.shape[1]:
            raise ParameterError("2-d grids must be square (N x N)")
        _check_positive(v)
        if abs(v.mean() - 1.0) > 1e-12:
            raise ParameterError(
                "density is not normalized: grid mean must be 1 within 1e-12 "
                "(values are densities w.r.t. normalized Lebesgue measure)"
            )
        object.__setattr__(self, "values", v)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_values(cls, values) -> "GridDensity":
        """Density from finite, strictly positive node values, rescaled to
        grid mean 1."""
        v = np.asarray(values, dtype=float)
        _check_positive(v)
        return cls(v / v.mean())

    @classmethod
    def from_function(cls, fn, size: int, dims: int = 1) -> "GridDensity":
        pts = grid_points(size, dims)
        return cls.from_values(fn(pts))

    @classmethod
    def from_potential(cls, potential: PotentialField, diffusion: float,
                       size: int, shift=None) -> "GridDensity":
        """Gibbs density exp(-U((x) - shift)/D), normalized on the grid."""
        _check_diffusion(diffusion)
        pts = grid_points(size, potential.dimension)
        if shift is not None:
            pts = pts - np.asarray(shift, dtype=float)
        energy = potential.eval(pts)
        logp = -energy / diffusion
        return cls.from_values(np.exp(logp - logp.max()))

    @classmethod
    def uniform(cls, size: int, dims: int = 1) -> "GridDensity":
        size, dims = _grid_shape(size, dims)
        return cls(np.ones((size,) * dims))

    # -- geometry ----------------------------------------------------------

    @property
    def dims(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def points(self) -> np.ndarray:
        return grid_points(self.size, self.dims)

    def integrate(self, node_values: np.ndarray) -> float:
        """int f dmu over the torus (grid mean of f * p)."""
        return float(np.mean(node_values * self.values))


def _grid_shape(size, dims) -> tuple[int, int]:
    """``size`` and ``dims`` as ints, each checked a positive integer."""
    for name, value in (("size", size), ("dims", dims)):
        try:
            ok = int(value) == value and value >= 1
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return int(size), int(dims)


def grid_points(size: int, dims: int) -> np.ndarray:
    """Uniform nodes x_j = 2 pi j / N per axis, shape (*grid, dims)."""
    size, dims = _grid_shape(size, dims)
    axis = TWO_PI * np.arange(size) / size
    if dims == 1:
        return axis[:, None]
    if dims == 2:
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        return np.stack([gx, gy], axis=-1)
    raise DimensionError("grids support 1 or 2 dimensions")


def field_on_grid(vector_field, p: GridDensity) -> np.ndarray:
    """Sample a vector field on the grid of ``p``, returning shape (d, *grid)."""
    pts = p.points()
    vals = vector_field.eval(pts) if hasattr(vector_field, "eval") else vector_field(pts)
    return np.moveaxis(np.asarray(vals, dtype=float), -1, 0)


# ---------------------------------------------------------------------------
# gauge solver


@dataclass(frozen=True)
class GaugeField:
    """Mean-zero gauge potential with its solver diagnostics."""

    values: np.ndarray
    residual: float        # max |div p(b + grad psi)|
    residual_rel: float    # residual / max |p b|
    iterations: int
    history: tuple = field(default_factory=tuple, repr=False)


def solve_gauge_field(p: GridDensity, b: np.ndarray) -> GaugeField:
    """Solve div[p (b + grad psi)] = 0 for the mean-zero gauge field psi.

    The drift ``b`` is sampled on the grid with shape (d, *grid).  The
    operator psi -> -div(p grad psi) is symmetric positive semidefinite
    with a one-dimensional constant null space; the system is solved by
    conjugate gradients preconditioned with a constant-coefficient inverse
    Laplacian, on the mean-zero subspace, until max |residual| <=
    GAUGE_RTOL * max |p b|.  More than 10 * (grid nodes) + 200 iterations
    is a ``SolverError``.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (p.dims,) + p.values.shape:
        raise DimensionError(
            f"drift samples must have shape (d, *grid) = {(p.dims,) + p.values.shape}"
        )
    pv = p.values
    pb = pv * b
    scale = float(np.max(np.abs(pb)))
    zeros = np.zeros_like(pv)
    if scale == 0.0:
        return GaugeField(zeros, 0.0, 0.0, 0)

    rhs = spectral_divergence(pb)
    rhs -= rhs.mean()
    tol = GAUGE_RTOL * scale
    max_iter = 10 * pv.size + 200

    # constant-coefficient preconditioner: (p_hat * |k|^2)^-1 in Fourier space
    ksq = -sum(ik * ik for ik in _derivative_symbols(pv.shape)).real
    ksq[ksq == 0.0] = 1.0
    p_ksq = float(np.exp(np.mean(np.log(pv)))) * ksq

    def precondition(r):
        z = _inverse(np.fft.rfftn(r) / p_ksq, pv.shape)
        return z - z.mean()

    def apply_operator(psi):
        return -spectral_divergence(pv * spectral_gradient(psi))

    x = zeros.copy()
    r = rhs.copy()
    history = []
    best_x, best_res = x.copy(), float(np.max(np.abs(r)))
    z = precondition(r)
    d = z.copy()
    rz = float(np.vdot(r, z).real)
    iterations = 0
    stall = 0
    while True:
        res = float(np.max(np.abs(r)))
        history.append(res)
        if res < best_res:
            if res < 0.999 * best_res:
                stall = 0
            best_res, best_x = res, x.copy()
        else:
            stall += 1
        if res <= tol:
            break
        if stall > 60:
            break  # rounding floor reached; validate against contract below
        if iterations >= max_iter:
            raise SolverError(
                f"gauge solver did not converge in {max_iter} iterations "
                f"(residual {res:.3e}, target {tol:.3e})", history=history,
            )
        Ad = apply_operator(d)
        alpha = rz / float(np.vdot(d, Ad).real)
        x = x + alpha * d
        r = r - alpha * Ad
        r -= r.mean()
        z = precondition(r)
        rz_new = float(np.vdot(r, z).real)
        d = z + (rz_new / rz) * d
        rz = rz_new
        iterations += 1

    x = best_x
    flux = pv * (b + spectral_gradient(x))
    residual = float(np.max(np.abs(spectral_divergence(flux))))
    if residual > 1e-10 * scale:
        raise SolverError(
            f"gauge flux residual {residual:.3e} exceeds 1e-10 * {scale:.3e}",
            history=history,
        )
    x = x - x.mean()
    return GaugeField(x, residual, residual / scale, iterations, tuple(history))


# ---------------------------------------------------------------------------
# rate functionals


@dataclass(frozen=True)
class RateReport:
    """Rate of one density: reversible part, irreversible increment, and
    consistency diagnostics."""

    i0: float
    j_c: float
    i_c: float
    diffusion: float
    grid_shape: tuple
    gauge_residual: float
    gauge_residual_rel: float
    gauge_iterations: int
    lemma_value: float
    lemma_mismatch: float
    k: float | None = None
    quadratic_residual: float | None = None


def _energy(p: GridDensity, g: np.ndarray, diffusion: float) -> float:
    """(1/(4D)) int |g|^2 dmu for a vector grid field g of shape (d, *grid)."""
    return p.integrate(np.sum(g**2, axis=0)) / (4.0 * diffusion)


def _gauge_energy(p: GridDensity, b: np.ndarray, diffusion: float):
    """The gauge field psi of the drift samples b, grad psi, and its
    energy (1/(4D)) int |grad psi|^2 dmu."""
    gauge = solve_gauge_field(p, b)
    grad = spectral_gradient(gauge.values)
    return gauge, grad, _energy(p, grad, diffusion)


def rate_reversible(p: GridDensity, potential: PotentialField,
                    diffusion: float) -> float:
    """Explicit reversible rate (1/(4D)) int |D grad p/p + grad U|^2 dmu."""
    _check_diffusion(diffusion)
    gu = field_on_grid(potential.grad, p)
    return _energy(p, diffusion * spectral_gradient(p.values) / p.values + gu, diffusion)


def rate_irreversible(p: GridDensity, potential: PotentialField, drift,
                      diffusion: float, compute_quadratic: bool = False) -> RateReport:
    """Rate with irreversible drift C: I_C = I_0 + J_C.

    Solves the gauge equation for b = -grad U + C, takes J_C from the
    square-form increment (1/(4D)) int |grad psi_C - grad U|^2 dmu, and
    cross-computes the total rate through the independent three-term
    decomposition, reporting the mismatch.  Warns when C breaks the
    invariance condition div C = 2 C . grad U on a sample of the nodes.
    """
    _check_diffusion(diffusion)
    gu = field_on_grid(potential.grad, p)
    c = field_on_grid(drift, p)
    pts = p.points().reshape(-1, p.dims)
    defect = check_invariance(drift, potential, pts[:: max(1, len(pts) // 2048)])
    if defect > 1e-6 * (1.0 + float(np.max(np.abs(c)))):
        warnings.warn(
            f"drift field violates div C = 2 C . grad U (defect {defect:.3e}); "
            "the rate decomposition assumes an invariant-measure-preserving C",
            stacklevel=2,
        )
    b = -gu + c
    gauge, gpsi, term_gauge = _gauge_energy(p, b, diffusion)

    gp = spectral_gradient(p.values)
    i0 = _energy(p, diffusion * gp / p.values + gu, diffusion)
    j_c = _energy(p, gpsi - gu, diffusion)
    i_c = i0 + j_c

    term_fisher = (diffusion / 4.0) * p.integrate(np.sum(gp**2, axis=0) / p.values**2)
    term_drift = -0.5 * float(np.mean(np.sum(b * gp, axis=0)))
    lemma_value = term_fisher + term_gauge + term_drift

    k = quad = None
    if compute_quadratic:
        quad, _, k = _gauge_energy(p, field_on_grid(drift.base_eval, p), diffusion)

    return RateReport(
        i0=i0,
        j_c=j_c,
        i_c=i_c,
        diffusion=diffusion,
        grid_shape=p.values.shape,
        gauge_residual=gauge.residual,
        gauge_residual_rel=gauge.residual_rel,
        gauge_iterations=gauge.iterations,
        lemma_value=lemma_value,
        lemma_mismatch=abs(i_c - lemma_value),
        k=k,
        quadratic_residual=None if quad is None else quad.residual_rel,
    )


def quadratic_coefficient(p: GridDensity, drift, diffusion: float = 0.5) -> float:
    """Coefficient K of the delta^2 law: solves div[p (C0 + grad xi)] = 0 for
    the unit-strength drift C0 and returns (1/(4D)) int |grad xi|^2 dmu.

    The gauge equation does not involve the potential, so K depends only on
    the density and the drift recipe."""
    _check_diffusion(diffusion)
    return _gauge_energy(p, field_on_grid(drift.base_eval, p), diffusion)[2]


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
