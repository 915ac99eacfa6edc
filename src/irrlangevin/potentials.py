"""Scalar potential fields on R^d and on flat tori.

Every catalog entry carries a hand-coded analytic gradient; the tests check
it against central finite differences.  Evaluation is vectorized: points
have shape ``(..., d)``, energies come back with shape ``(...,)`` and
gradients with shape ``(..., d)``.

Torus entries use period 2*pi per axis so that Fourier modes are plain
integer wavenumbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, ParameterError

TWO_PI = 2.0 * math.pi
#: Largest ``dim`` a builder accepts.  Each cell stores a state of this size
#: and draws as many normals per step, so the bound is about memory.
MAX_DIMENSION = 2**16


def _dimension(dim) -> int:
    d = int(dim)
    if d != dim or not 1 <= d <= MAX_DIMENSION:
        raise ParameterError(f"dim must be an integer in [1, {MAX_DIMENSION}], got {dim!r}")
    return d


def _coefficient(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ParameterError(f"potential coefficients must be finite, got {value!r}")
    return x


@dataclass(frozen=True)
class PotentialField:
    """A smooth energy U with vectorized value/gradient access.

    ``period`` is None on unbounded domains, otherwise the per-axis period
    vector of the torus.  ``params`` echoes the builder arguments so a
    field is reconstructible from (name, params).  Instances are immutable
    and safe for concurrent reads.
    """

    name: str
    dimension: int
    value_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    period: tuple[float, ...] | None = None
    params: dict = field(default_factory=dict)

    def _as_points(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 0 or pts.shape[-1] != self.dimension:
            raise DimensionError(
                f"potential {self.name!r} expects points of dimension "
                f"{self.dimension}, got shape {pts.shape}"
            )
        return pts

    def eval(self, x) -> np.ndarray:
        """Energy U(x)."""
        return self.value_fn(self._as_points(x))

    def grad(self, x) -> np.ndarray:
        """Analytic gradient of U at x."""
        return self.grad_fn(self._as_points(x))

    @property
    def is_torus(self) -> bool:
        return self.period is not None


def _quadratic(dim: int = 2) -> PotentialField:
    dim = _dimension(dim)
    return PotentialField(
        name="quadratic",
        dimension=dim,
        value_fn=lambda z: 0.5 * np.sum(z**2, axis=-1),
        grad_fn=lambda z: z.copy(),
        params={"dim": dim},
    )


def _bimodal1() -> PotentialField:
    # U(x, y) = (x^2 - 1)^2 / 4 + y^2 / 2
    def value(z):
        x, y = z[..., 0], z[..., 1]
        return 0.25 * (x**2 - 1.0) ** 2 + 0.5 * y**2

    def grad(z):
        g = z.copy()  # dU/dy = y
        x = z[..., 0]
        g[..., 0] = x**3 - x
        return g

    return PotentialField("bimodal1", 2, value, grad)


def _bimodal2() -> PotentialField:
    # U(x, y) = (x^2 - 1)^2 + (3 y + x^2 - 1)^2 / 2
    def value(z):
        x, y = z[..., 0], z[..., 1]
        return (x**2 - 1.0) ** 2 + 0.5 * (3.0 * y + x**2 - 1.0) ** 2

    def grad(z):
        x, y = z[..., 0], z[..., 1]
        w = 3.0 * y + x**2 - 1.0
        g = np.empty(z.shape)
        g[..., 0] = 4.0 * x * (x**2 - 1.0) + 2.0 * x * w
        g[..., 1] = 3.0 * w
        return g

    return PotentialField("bimodal2", 2, value, grad)


def _threewell() -> PotentialField:
    # U(x, y) = [(x^2-1)^2 ((y^2-2)^2 + 1) + 2 y^2] / 4 - y/8 + exp(-8x^2 - 4y^2).
    # The -y/8 tilt sits outside the 1/4 bracket: that placement is what makes
    # (+-1.00051, 0.125314) minima, (0, -1.00711)/(0, 1.08849) saddles and
    # (0, -0.0139) a local maximum.
    def value(z):
        x, y = z[..., 0], z[..., 1]
        bump = np.exp(-8.0 * x**2 - 4.0 * y**2)
        return (
            0.25 * ((x**2 - 1.0) ** 2 * ((y**2 - 2.0) ** 2 + 1.0) + 2.0 * y**2)
            - y / 8.0
            + bump
        )

    def grad(z):
        x, y = z[..., 0], z[..., 1]
        bump = np.exp(-8.0 * x**2 - 4.0 * y**2)
        g = np.empty(z.shape)
        g[..., 0] = x * (x**2 - 1.0) * ((y**2 - 2.0) ** 2 + 1.0) - 16.0 * x * bump
        g[..., 1] = y * (x**2 - 1.0) ** 2 * (y**2 - 2.0) + y - 0.125 - 8.0 * y * bump
        return g

    return PotentialField("threewell", 2, value, grad)


def _torus_cosine(a: float = 1.0, b: float = 1.0) -> PotentialField:
    # U(x, y) = a cos x + b cos y on [0, 2 pi)^2
    a, b = _coefficient(a), _coefficient(b)

    def value(z):
        return a * np.cos(z[..., 0]) + b * np.cos(z[..., 1])

    def grad(z):
        g = np.empty(z.shape)
        g[..., 0] = -a * np.sin(z[..., 0])
        g[..., 1] = -b * np.sin(z[..., 1])
        return g

    return PotentialField(
        "torus-cosine", 2, value, grad,
        period=(TWO_PI, TWO_PI), params={"a": a, "b": b},
    )


def _torus_cosine_1d(a: float = 1.0) -> PotentialField:
    a = _coefficient(a)
    return PotentialField(
        name="torus-cosine-1d",
        dimension=1,
        value_fn=lambda z: a * np.cos(z[..., 0]),
        grad_fn=lambda z: -a * np.sin(z),
        period=(TWO_PI,),
        params={"a": a},
    )


def _torus_zero(dim: int = 1) -> PotentialField:
    dim = _dimension(dim)
    return PotentialField(
        name="torus-zero",
        dimension=dim,
        value_fn=lambda z: np.zeros(z.shape[:-1]),
        grad_fn=np.zeros_like,
        period=(TWO_PI,) * dim,
        params={"dim": dim},
    )


#: Builders by name, so potentials are addressable from CLI configs.
CATALOG: dict[str, Callable[..., PotentialField]] = {
    "quadratic": _quadratic,
    "bimodal1": _bimodal1,
    "bimodal2": _bimodal2,
    "threewell": _threewell,
    "torus-cosine": _torus_cosine,
    "torus-cosine-1d": _torus_cosine_1d,
    "torus-zero": _torus_zero,
}


def get_potential(name: str, /, **params) -> PotentialField:
    """Build a catalog potential by name.  Parameters the builder rejects
    (an unknown keyword, a wrong type, a value out of range) raise
    ParameterError."""
    try:
        builder = CATALOG[name]
    except KeyError:
        raise ParameterError(
            f"unknown potential {name!r}; available: {sorted(CATALOG)}"
        ) from None
    try:
        return builder(**params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"potential {name!r}: {exc}") from exc
