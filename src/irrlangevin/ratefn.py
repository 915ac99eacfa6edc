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
  gauge solver, whose conjugate-gradient state is held as ``rfftn``
  spectra: it is preconditioned with (-Lap)^+ (-div p^-1 grad) (-Lap)^+,
  an iteration makes 4 d + 1 transforms (9 on the 2-torus), and its inner
  products are grid sums computed on the half spectrum by Parseval's
  identity.
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
from dataclasses import dataclass

import numpy as np

from .drift import check_invariance
from .errors import DimensionError, ParameterError, SolverError
from .potentials import PotentialField

TWO_PI = 2.0 * math.pi

#: Relative max-norm tolerance of the gauge CG solve (see ``solve_gauge_field``).
GAUGE_RTOL = 1e-12


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
    """Sample a vector field (a callable such as ``drift.base_eval`` or
    ``potential.grad``) on the grid of ``p``, returning shape (d, *grid)."""
    return np.moveaxis(np.asarray(vector_field(p.points()), dtype=float), -1, 0)


# ---------------------------------------------------------------------------
# gauge solver


@dataclass(frozen=True)
class GaugeField:
    """Mean-zero gauge potential with its solver diagnostics."""

    values: np.ndarray
    residual: float           # max |div p(b + grad psi)|
    residual_rel: float       # residual / max |p b|
    iterations: int
    cg_residual_first: float  # CG max-norm residual / max |p b| at psi = 0
    cg_residual_last: float   # the same at the returned iterate

    def summary(self) -> dict:
        """The solve's diagnostics as ``manifest.json`` records them."""
        return {"iterations": self.iterations, "residual_rel": self.residual_rel,
                "cg_residual_first": self.cg_residual_first,
                "cg_residual_last": self.cg_residual_last}


def solve_gauge_field(p: GridDensity, b: np.ndarray) -> GaugeField:
    """Solve div[p (b + grad psi)] = 0 for the mean-zero gauge field psi.

    The drift ``b`` is sampled on the grid with shape (d, *grid).  The
    operator A = -div(p grad .) is symmetric positive semidefinite; its
    null space is the constants and, on even grids, the modes whose every
    derivative symbol is zeroed, where |k|^2 = 0.  The system is solved by
    conjugate gradients preconditioned with

        M = (-Lap)^+ (-div p^-1 grad) (-Lap)^+ ,   (-Lap)^+ = 1/|k|^2 ,

    set to 0 on that null space.  M is A^+ for constant p and A^+ up to
    rank one on the circle, and it is positive definite on A's range, so
    every iterate stays mean-zero; a Gibbs density with max p / min p of
    about 55 takes about 10 iterations at grid 256.

    The CG state (iterate, residual, preconditioned residual, direction)
    lives in Fourier space as ``rfftn`` spectra updated in preallocated
    buffers.  An iteration makes 4 d + 1 transforms (9 on the 2-torus):
    d inverse ones for grad d and d forward ones for the flux p grad d, the
    same pair for M with p^-1 in place of p, and one inverse transform of
    the residual, whose max norm is the stopping test max |residual| <=
    GAUGE_RTOL * max |p b|.  Inner products are grid sums by Parseval's
    identity on the half spectrum.  The best iterate is kept, a stall guard
    stops the loop at the rounding floor, and the result must pass a
    real-space flux check of 1e-10 * max |p b|; more than 10 * (grid nodes)
    + 200 iterations, or a failed check, is a ``SolverError``.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (p.dims,) + p.values.shape:
        raise DimensionError(
            f"drift samples must have shape (d, *grid) = {(p.dims,) + p.values.shape}"
        )
    pv = p.values
    pb = pv * b
    scale = float(np.max(np.abs(pb)))
    if scale == 0.0:
        return GaugeField(np.zeros_like(pv), 0.0, 0.0, 0, 0.0, 0.0)

    shape, axes = pv.shape, tuple(range(pv.ndim))
    symbols = _derivative_symbols(shape)
    tol = GAUGE_RTOL * scale
    max_iter = 10 * pv.size + 200

    # (-Lap)^+ = 1/|k|^2, 0 where |k|^2 = 0: the zero mode and the
    # all-Nyquist corners, the operator's null space
    ksq = -sum(ik * ik for ik in symbols).real
    inv_ksq = np.zeros_like(ksq)
    np.divide(1.0, ksq, out=inv_ksq, where=ksq > 0.0)
    # -1/p: M's inner operator -div p^-1 grad, sign included
    minus_inv_p = -1.0 / pv
    # Parseval weights of the rfftn half spectrum: the last axis's interior
    # modes stand for themselves and their conjugates
    weights = np.full(shape[-1] // 2 + 1, 2.0)
    weights[0] = 1.0
    if shape[-1] % 2 == 0:
        weights[-1] = 1.0

    # CG state as rfftn spectra, updated in place: x, r, z, d, best x, the
    # flux divergence q = div(p grad d) = -A d, and one scratch spectrum
    x, r, z, d, best_x, q, scratch = np.zeros((7,) + ksq.shape, dtype=complex)
    grad = np.empty_like(pb)
    r_real = np.empty_like(pv)

    def dot(u, v) -> float:
        """size * (grid sum of the fields u v), by Parseval; CG uses only
        ratios of these."""
        np.multiply(v, weights, out=scratch)
        return float(np.vdot(u, scratch).real)

    def div_spectrum(fields, out):
        """rfftn spectrum of sum_a d/dx_a fields[a] into ``out``."""
        for a, (ik, f) in enumerate(zip(symbols, fields)):
            target = out if a == 0 else scratch
            np.fft.rfftn(f, out=target)
            np.multiply(target, ik, out=target)
            if a:
                out += scratch

    def flux_divergence(spectrum, coefficient, out):
        """rfftn spectrum of div(coefficient grad f) into ``out``, f given
        by its ``spectrum``; ``out`` may be ``spectrum``."""
        for ik, g in zip(symbols, grad):
            np.multiply(spectrum, ik, out=scratch)
            np.fft.irfftn(scratch, s=shape, axes=axes, out=g)
        np.multiply(grad, coefficient, out=grad)
        div_spectrum(grad, out)

    def max_abs_real(spectrum) -> float:
        np.fft.irfftn(spectrum, s=shape, axes=axes, out=r_real)
        return max(float(r_real.max()), -float(r_real.min()))

    div_spectrum(pb, r)  # the residual at x = 0 is the right-hand side div(p b)
    res = first = max_abs_real(r)
    best_res = math.inf
    iterations = 0
    stall = 0
    rz = 1.0
    while True:
        if res < best_res:
            if res < 0.999 * best_res:
                stall = 0
            best_res = res
            np.copyto(best_x, x)
        else:
            stall += 1
        if res <= tol:
            break
        if stall > 60:
            break  # rounding floor reached; validate against contract below
        if iterations >= max_iter:
            raise SolverError(
                f"gauge solver did not converge in {max_iter} iterations "
                f"(residual {res:.3e}, target {tol:.3e})")
        # z = M r, with z holding (-Lap)^+ r until the divergence replaces it
        np.multiply(r, inv_ksq, out=z)
        flux_divergence(z, minus_inv_p, z)
        z *= inv_ksq
        rz_new = dot(r, z)
        d *= rz_new / rz  # d starts at 0, so the first direction is z
        d += z
        rz = rz_new
        flux_divergence(d, pv, q)
        alpha = -rz / dot(d, q)
        np.multiply(d, alpha, out=scratch)
        x += scratch
        np.multiply(q, alpha, out=scratch)
        r += scratch
        res = max_abs_real(r)
        iterations += 1

    x = _inverse(best_x, shape)
    flux = pv * (b + spectral_gradient(x))
    residual = float(np.max(np.abs(spectral_divergence(flux))))
    if residual > 1e-10 * scale:
        raise SolverError(
            f"gauge flux residual {residual:.3e} exceeds 1e-10 * {scale:.3e}")
    x = x - x.mean()
    return GaugeField(x, residual, residual / scale, iterations,
                      first / scale, best_res / scale)


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
    gauge_solves: dict     # GaugeField.summary() of "main" (and "quadratic")
    k: float | None = None
    quadratic_residual: float | None = None


def _energy(p: GridDensity, g: np.ndarray, diffusion: float) -> float:
    """(1/(4D)) int |g|^2 dmu for a vector grid field g of shape (d, *grid)."""
    return p.integrate(np.sum(g**2, axis=0)) / (4.0 * diffusion)


def _gauge_energy(p: GridDensity, b: np.ndarray, diffusion: float, solve: str):
    """The gauge field psi of the drift samples b, grad psi, and its
    energy (1/(4D)) int |grad psi|^2 dmu; a ``SolverError`` names the
    ``solve``."""
    try:
        gauge = solve_gauge_field(p, b)
    except SolverError as exc:
        raise SolverError(str(exc), solve=solve) from exc
    grad = spectral_gradient(gauge.values)
    return gauge, grad, _energy(p, grad, diffusion)


def rate_irreversible(p: GridDensity, potential: PotentialField, drift,
                      diffusion: float, compute_quadratic: bool = False) -> RateReport:
    """Rate with irreversible drift C: I_C = I_0 + J_C, with the explicit
    reversible rate I_0 = (1/(4D)) int |D grad p/p + grad U|^2 dmu.

    Solves the gauge equation for b = -grad U + C, takes J_C from the
    square-form increment (1/(4D)) int |grad psi_C - grad U|^2 dmu, and
    cross-computes the total rate through the independent three-term
    decomposition, reporting the mismatch.  C is a ``RotationalDrift`` of
    ``potential`` or a ``ConstantDrift`` (else a ParameterError); warns when
    a constant C breaks the invariance condition C0 . grad U = 0 at a node.
    """
    _check_diffusion(diffusion)
    if drift is None:
        raise ParameterError("rate_irreversible needs a drift; I_0 is its i0 at delta 0")
    defect = check_invariance(drift, potential, p.points())
    c0 = field_on_grid(drift.base_eval, p)
    if defect > 1e-6 * (1.0 + float(np.max(np.abs(c0)))):
        warnings.warn(
            f"drift field violates div C = 2 C . grad U (defect {defect:.3e}); "
            "the rate decomposition assumes an invariant-measure-preserving C",
            stacklevel=2,
        )
    gu = field_on_grid(potential.grad, p)
    b = -gu + drift.delta * c0
    gauge, gpsi, term_gauge = _gauge_energy(p, b, diffusion, "main")

    gp = spectral_gradient(p.values)
    i0 = _energy(p, diffusion * gp / p.values + gu, diffusion)
    j_c = _energy(p, gpsi - gu, diffusion)
    i_c = i0 + j_c

    term_fisher = (diffusion / 4.0) * p.integrate(np.sum(gp**2, axis=0) / p.values**2)
    term_drift = -0.5 * float(np.mean(np.sum(b * gp, axis=0)))
    lemma_value = term_fisher + term_gauge + term_drift

    k = quad = None
    solves = {"main": gauge.summary()}
    if compute_quadratic:
        quad, _, k = _gauge_energy(p, c0, diffusion, "quadratic")
        solves["quadratic"] = quad.summary()

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
        gauge_solves=solves,
        k=k,
        quadratic_residual=None if quad is None else quad.residual_rel,
    )
