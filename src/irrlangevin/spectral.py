"""Periodic-generator analytics and observable-level rate functions.

The flat circle with generator L = D Lap + delta d/dx is the one setting
where everything is exactly computable: the spectrum is -D n^2 + i n delta,
the asymptotic variance of a zero-mean observable f = sum c_n e^{inx} is

    sigma^2(delta) = sum_{n >= 1} 4 |c_n|^2 D / (D^2 n^2 + delta^2) ,

(the CLT variance of the time average), and the scaled cumulant generating
function lambda(beta f) is the principal eigenvalue of L + beta f.  The
module discretizes D Lap + C . grad with centered differences on a periodic
grid (the circle, or the 2-torus with a drift field C), extracts
lambda(beta f) on either as the Perron eigenvalue of the dense matrix, and
Legendre-transforms it into the rate function of the ergodic average.
lambda' and lambda'' are exact, from the Perron pair and two bordered
linear solves (Hellmann-Feynman), so a Newton step of that transform is one
eigensolve.  At beta = 0 the Perron pair is lambda = 0, r = 1 (the rows of
the generator sum to zero), so the rate curvature at the mean
pi(f) = lambda'(0), kappa = 1/(2 lambda''(0)), takes the two bordered solves
and no eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParameterError, SolverError

TWO_PI = 2.0 * math.pi
#: Most nodes of a dense generator; its matrix takes 128 MiB at the bound.
MAX_DENSE_NODES = 64**2
#: The tilt solve's tolerance on lambda'(beta) - ell (relative to
#: max(1, |ell|)) and its step budget.
TILT_TOL = 1e-8
TILT_MAX_ITER = 80


@dataclass(frozen=True)
class FourierObservable:
    """Real observable on the circle given by coefficients c_n, |n| <= n_max.

    ``coefficients[k]`` stores c_{k - n_max}; conjugate symmetry
    c_{-n} = conj(c_n) is required (real-valued observable).
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 1 or len(c) % 2 != 1:
            raise ParameterError(
                "coefficients must be a 1-d array of odd length (c_{-n}..c_n)"
            )
        n_max = len(c) // 2
        if np.max(np.abs(c - np.conj(c[::-1]))) > 1e-12:
            raise ParameterError("coefficients violate c_{-n} = conj(c_n)")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "n_max", n_max)

    @classmethod
    def cosine(cls) -> "FourierObservable":
        """f(x) = cos x, i.e. c_{+-1} = 1/2."""
        return cls(np.array([0.5, 0.0, 0.5], dtype=complex))

    def samples(self, n: int) -> np.ndarray:
        x = TWO_PI * np.arange(n) / n
        out = np.zeros(n)
        for k, c in enumerate(self.coefficients):
            mode = k - self.n_max
            out += (c * np.exp(1j * mode * x)).real
        return out


def fourier_sigma2(observable: FourierObservable, delta: float,
                   diffusion: float) -> float:
    """Exact asymptotic variance sum over modes for the circle generator."""
    if not math.isfinite(delta):
        raise ParameterError(f"delta must be finite, got {delta}")
    if not (math.isfinite(diffusion) and diffusion > 0):
        raise ParameterError(f"diffusion must be finite and positive, got {diffusion}")
    c = observable.coefficients
    n_max = observable.n_max
    total = 0.0
    for n in range(1, n_max + 1):
        total += 4.0 * abs(c[n_max + n]) ** 2 * diffusion / (
            diffusion**2 * n**2 + delta**2
        )
    if total == 0.0:
        raise ParameterError("observable has no nonconstant Fourier content")
    return total


def periodic_generator(drift_samples, diffusion: float) -> np.ndarray:
    """Dense centered-difference discretization of D Lap + C . grad on the
    periodic grid of ``drift_samples``: shape (1, N) on the circle or
    (2, N, N) on the 2-torus, with ``drift_samples[axis]`` the component of
    C along that axis.  Nodes are numbered row-major; at most
    ``MAX_DENSE_NODES`` of them."""
    c = np.asarray(drift_samples, dtype=float)
    dims, shape = c.ndim - 1, c.shape[1:]
    if dims not in (1, 2) or c.shape[0] != dims or len(set(shape)) != 1:
        raise DimensionError("drift samples must have shape (1, N) or (2, N, N)")
    n = shape[0]
    if not (8 <= n and n**dims <= MAX_DENSE_NODES):
        raise ParameterError(f"grid size must be at least 8 and the node count at "
                             f"most {MAX_DENSE_NODES}, got {' x '.join([str(n)] * dims)}")
    if not np.isfinite(c).all():
        raise ParameterError("drift samples must be finite")
    if not (math.isfinite(diffusion) and diffusion > 0):
        raise ParameterError(f"diffusion must be finite and positive, got {diffusion}")
    h = TWO_PI / n
    off, skew = diffusion * (1.0 / h**2), 1.0 / (2.0 * h)
    idx = np.arange(n**dims).reshape(shape)
    row = idx.ravel()
    matrix = np.zeros((n**dims, n**dims))
    matrix[row, row] = -2.0 * dims * off
    for axis in range(dims):
        field = c[axis].ravel() * skew
        matrix[row, np.roll(idx, -1, axis=axis).ravel()] = off + field
        matrix[row, np.roll(idx, 1, axis=axis).ravel()] = off - field
    return matrix


def _observable(f_samples) -> np.ndarray:
    """``f_samples`` as a float array, checked nonempty and finite
    (``ParameterError``)."""
    f = np.asarray(f_samples, dtype=float)
    if not (f.size and np.isfinite(f).all()):
        raise ParameterError("observable samples must be nonempty and finite")
    return f


def _add_potential(matrix: np.ndarray, beta: float, f: np.ndarray) -> np.ndarray:
    """``matrix + beta diag(f)``, formed in place."""
    matrix[np.diag_indices(len(f))] += beta * f
    return matrix


def _perron(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Principal eigenpair of a dense tilted generator.

    The eigenvalue of largest real part must be real, and its eigenvector,
    rotated to the positive cone, strictly positive (Perron structure)."""
    eigvals, eigvecs = np.linalg.eig(matrix)
    top = int(np.argmax(eigvals.real))
    lam = eigvals[top]
    scale = max(1.0, float(np.max(np.abs(eigvals.real))))
    if abs(lam.imag) > 1e-9 * scale:
        raise SolverError(
            f"top eigenvalue is not real ({lam:.6g}); no Perron eigenpair found"
        )
    vec = eigvecs[:, top]
    w = vec / vec[int(np.argmax(np.abs(vec)))]
    if np.max(np.abs(w.imag)) > 1e-8:
        raise SolverError("top eigenvector has a non-trivial imaginary part")
    w = w.real
    if w.min() <= 0.0:
        raise SolverError(
            f"top eigenvector is not strictly positive (min/max = "
            f"{w.min() / w.max():.3e}); Perron structure violated"
        )
    return float(lam.real), w


class ScaledCgf:
    """The map beta -> lambda(beta f) and its first two derivatives for one
    (f, C, D) context: ``f_samples`` of shape (N,) or (N, N), and ``drift``
    a scalar delta (C = delta along every axis) or C per node, an array
    with f.ndim + 1 axes that broadcasts to (f.ndim, *f.shape)."""

    def __init__(self, f_samples, drift, diffusion: float):
        f = _observable(f_samples)
        c = np.asarray(drift, dtype=float)
        shape = (f.ndim, *f.shape)
        if c.ndim and (c.ndim != len(shape)
                       or any(a not in (1, b) for a, b in zip(c.shape, shape))):
            raise DimensionError(f"drift of shape {c.shape} does not broadcast to {shape}")
        self.f = f.ravel()
        self._base = periodic_generator(np.broadcast_to(c, shape), diffusion)

    def value(self, beta: float) -> float:
        return _perron(_add_potential(self._base.copy(), float(beta), self.f))[0]

    def jet(self, beta: float) -> tuple[float, float, float]:
        """lambda, lambda' and lambda'' at beta from one Perron pair (lambda, r).

        At beta = 0 the pair is known, lambda = 0 and r = 1, because the rows
        of the generator sum to zero; any other beta takes one eigensolve.
        K = [[M - lambda I, r], [r^T, 0]] is nonsingular as lambda is simple.
        K^T [l; 0] = e_{N+1} gives the left eigenvector, with <l, r> = 1, so
        lambda' = <l, f r> (Hellmann-Feynman); K [r'; 0] = [(lambda' - f) r; 0]
        gives r', and lambda'' = 2 <l, (f - lambda') r'>.  At beta = 0, l is
        the invariant law pi and r' solves the Poisson equation for f - pi(f)."""
        matrix = _add_potential(self._base.copy(), float(beta), self.f)
        lam, r = _perron(matrix) if beta else (0.0, np.ones(len(self.f)))
        n = len(r)
        border = np.block([[matrix - lam * np.eye(n), r[:, None]], [r, 0.0]])
        left = np.linalg.solve(border.T, np.eye(1, n + 1, n)[0])[:n]
        slope = float(left @ (self.f * r))
        dr = np.linalg.solve(border, np.append((slope - self.f) * r, 0.0))[:n]
        return lam, slope, 2.0 * float(left @ ((self.f - slope) * dr))


def _solve_tilt(scgf: ScaledCgf, ell: float) -> tuple[float, float]:
    """Find beta with lambda'(beta) = ell and return (beta, lambda(beta));
    Newton, with the bracket [lo, hi] of the tilts seen on either side of
    the root as the fallback.

    lambda is smooth and strictly convex, so lambda' is increasing and the
    root is unique whenever ell lies in the closure of lambda'(R).  The
    bracket starts unbounded.  A Newton step that would leave it (or a
    curvature that is not positive) is replaced by doubling beta outward
    while the far side is unbounded, and by bisection once both sides are
    finite.  A level in (min f, max f) is reached as |beta| -> inf, so the
    limit is the Perron solve: past some |beta| its eigenvector underflows,
    and that ``SolverError`` names the level."""
    lo, hi = -math.inf, math.inf
    beta = 0.0
    for _ in range(TILT_MAX_ITER):
        try:
            lam, slope, curv = scgf.jet(beta)
        except SolverError as exc:
            raise SolverError(f"level {ell}: {exc}") from exc
        g = slope - ell
        if abs(g) <= TILT_TOL * max(1.0, abs(ell)):
            return beta, lam
        if g < 0:
            lo = beta
        else:
            hi = beta
        candidate = beta - g / curv if curv > 0 else math.nan
        if not (lo < candidate < hi):
            if math.isinf(hi):
                candidate = max(2.0 * beta, 1.0)
            elif math.isinf(lo):
                candidate = min(2.0 * beta, -1.0)
            else:
                candidate = 0.5 * (lo + hi)
        beta = candidate
    raise SolverError(f"tilt solve for level {ell} did not converge")


@dataclass(frozen=True)
class ObservableRateCurve:
    """Sampled rate function of the ergodic average of f."""

    ells: np.ndarray
    rates: np.ndarray


def check_levels(f_samples, ell_grid) -> np.ndarray:
    """The levels as an array, each checked distinct (``ParameterError``)
    and strictly inside (min f, max f) (``DomainError``) of a nonempty,
    finite f (``ParameterError``)."""
    f = _observable(f_samples)
    ells = np.asarray(ell_grid, dtype=float)
    if len(np.unique(ells)) != len(ells):
        raise ParameterError(f"ell_grid levels must be distinct, got {ells.tolist()}")
    fmin, fmax = float(f.min()), float(f.max())
    for ell in ells:
        if not fmin < ell < fmax:
            raise DomainError(f"ell_grid level {ell} outside the open range "
                              f"({fmin:g}, {fmax:g}) of f")
    return ells


def observable_rate(f_samples, drift, diffusion: float,
                    ell_grid) -> ObservableRateCurve:
    """Legendre transform sup_beta {beta ell - lambda(beta f)} on a grid of
    distinct levels, each strictly inside (min f, max f); ``f_samples`` and
    ``drift`` as for ``ScaledCgf``.

    Convexity of the returned curve is asserted (second divided differences
    >= -1e-8)."""
    ells = check_levels(f_samples, ell_grid)
    scgf = ScaledCgf(f_samples, drift, diffusion)
    rates = np.empty(len(ells))
    for i, ell in enumerate(ells):
        beta, lam = _solve_tilt(scgf, float(ell))
        rates[i] = beta * ell - lam
    order = np.argsort(ells)
    e, r = ells[order], rates[order]
    for i in range(1, len(e) - 1):
        left = (r[i] - r[i - 1]) / (e[i] - e[i - 1])
        right = (r[i + 1] - r[i]) / (e[i + 1] - e[i])
        if right - left < -1e-8:
            raise SolverError("rate curve failed the convexity check")
    return ObservableRateCurve(ells, rates)


def rate_curvature(f_samples, drift, diffusion: float) -> tuple[float, float]:
    """Quadratic coefficient of the rate function at the mean and the
    asymptotic variance it implies; ``f_samples`` and ``drift`` as for
    ``ScaledCgf``.

    ``curvature`` is the growth coefficient kappa in
    I(ell) ~ kappa (ell - pi(f))^2 near the mean pi(f) = lambda'(0) (half the
    literal second derivative).  The Legendre identity
    I''(lambda'(0)) = 1/lambda''(0) gives kappa = 1/(2 lambda''(0)) and the
    implied variance lambda''(0), from one jet at beta = 0."""
    scgf = ScaledCgf(f_samples, drift, diffusion)
    if np.ptp(scgf.f) == 0:
        raise ParameterError("observable is constant")
    sigma2 = scgf.jet(0.0)[2]
    if not sigma2 > 0:
        raise SolverError("non-positive curvature at the mean")
    return 0.5 / sigma2, sigma2
