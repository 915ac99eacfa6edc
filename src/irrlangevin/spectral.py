"""Circle-generator analytics and observable-level rate functions.

The flat circle with generator L = D Lap + delta d/dx is the one setting
where everything is exactly computable: the spectrum is -D n^2 + i n delta,
the asymptotic variance of a zero-mean observable f = sum c_n e^{inx} is

    sigma^2(delta) = sum_{n >= 1} 4 |c_n|^2 D / (D^2 n^2 + delta^2) ,

(the CLT variance of the time average), and the scaled cumulant generating
function lambda(beta f) is the principal eigenvalue of L + beta f.  The
module discretizes D d^2/dx^2 + C d/dx with centered differences on a
periodic circle grid (C constant or given per node), extracts
lambda(beta f) as the Perron eigenvalue of the dense matrix, and
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
#: Most nodes of the circle grid.  The dense generator takes 32 MiB at the
#: bound, and one dense eigensolve there took 13-16 s on 2 cores.
MAX_GRID = 2048
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
    """Exact asymptotic variance sum over modes for the circle generator.
    Each term is 4 |c_n|^2 / (D n^2 + (delta / D) delta), which overflows
    only where the term itself does, at an extreme D or delta."""
    if not math.isfinite(delta):
        raise ParameterError(f"delta must be finite, got {delta}")
    if not (math.isfinite(diffusion) and diffusion > 0):
        raise ParameterError(f"diffusion must be finite and positive, got {diffusion}")
    c = observable.coefficients
    n_max = observable.n_max
    if not np.any(c[n_max + 1:]):
        raise ParameterError("observable has no nonconstant Fourier content")
    total = 0.0
    for n in range(1, n_max + 1):
        total += 4.0 * abs(c[n_max + n]) ** 2 / (diffusion * n**2 + delta / diffusion * delta)
    return total


def periodic_generator(drift_samples, diffusion: float) -> np.ndarray:
    """Dense centered-difference discretization of D d^2/dx^2 + C d/dx on the
    periodic circle grid of ``drift_samples``, shape (N,), the drift C at
    each node; 8 <= N <= ``MAX_GRID``."""
    c = np.asarray(drift_samples, dtype=float)
    if c.ndim != 1:
        raise DimensionError(f"drift samples must have shape (N,), got {c.shape}")
    n = len(c)
    if not 8 <= n <= MAX_GRID:
        raise ParameterError(f"grid size must lie in [8, {MAX_GRID}], got {n}")
    if not np.isfinite(c).all():
        raise ParameterError("drift samples must be finite")
    if not (math.isfinite(diffusion) and diffusion > 0):
        raise ParameterError(f"diffusion must be finite and positive, got {diffusion}")
    h = TWO_PI / n
    off, field = diffusion * (1.0 / h**2), c * (1.0 / (2.0 * h))
    row = np.arange(n)
    matrix = np.zeros((n, n))
    matrix[row, row] = -2.0 * off
    matrix[row, (row + 1) % n] = off + field
    matrix[row, (row - 1) % n] = off - field
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
    (f, C, D) context on the circle grid: ``f_samples`` of shape (N,), and
    ``drift`` a scalar delta or C per node, shape (N,)."""

    def __init__(self, f_samples, drift, diffusion: float):
        f = _observable(f_samples)
        c = np.asarray(drift, dtype=float)
        if f.ndim != 1 or c.shape not in ((), f.shape):
            raise DimensionError(f"need an observable of shape (N,) and a scalar drift "
                                 f"or one of its shape, got {f.shape} and {c.shape}")
        self.f = f
        self._base = periodic_generator(np.broadcast_to(c, f.shape), diffusion)

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
        border = np.zeros((n + 1, n + 1))
        border[:n, :n], border[:n, n], border[n, :n] = matrix, r, r
        border[np.diag_indices(n)] -= lam
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


def observable_rate(f_samples, drift, diffusion: float, ell_grid) -> np.ndarray:
    """The rates sup_beta {beta ell - lambda(beta f)}, one per level of
    ``ell_grid``, in its order; the levels are distinct and each strictly
    inside (min f, max f).  ``f_samples`` and ``drift`` as for ``ScaledCgf``.

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
    return rates


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
