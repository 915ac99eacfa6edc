"""Scalar potential fields on R^d and on flat tori.

Every catalog entry carries a hand-coded analytic gradient; the tests check
it against central finite differences.  Evaluation is vectorized: points
have shape ``(..., d)``, energies come back with shape ``(...,)`` and
gradients with shape ``(..., d)``.

Torus entries use period 2*pi per axis so that Fourier modes are plain
integer wavenumbers.

Entries in 2 dimensions whose rotational field J2 grad U has an explicit
area-preserving flow carry it as ``rotation_flow``, which the sampler's split
step uses: ``quadratic`` (an exact rotation), ``bimodal1`` and
``torus-cosine`` (U is separable, so one Stormer-Verlet step is explicit) and
``torus-zero`` (the identity).  ``bimodal2`` and ``threewell`` are not
separable and carry none.  A flow advances its points in place and returns
grad U at the advanced points, bit-equal to ``grad_fn`` there, so the
sampler's next step needs no gradient call of its own.
"""

from __future__ import annotations

import functools
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


def _separable_flow(du_dx, du_dy):
    """The ``rotation_flow`` of a separable U(x, y) = V(x) + W(y), given
    du_dx = V' and du_dy = W': one Stormer-Verlet step (kick, drift, kick) of
    the Hamiltonian flow x' = W'(y), y' = -V'(x) of z' = J2 grad U(z).  Each
    stage is a shear, so the step is explicit, area-preserving and reversible:
    the step for time -a undoes the step for time a.  It moves z in place and
    returns grad U at the moved points; the last kick already evaluates V'
    there, so a step makes two V' calls and two W' calls."""

    def flow(z, a):
        x, y, half = z[..., 0], z[..., 1], 0.5 * a
        y -= half * du_dx(x)
        x += a * du_dy(y)
        g = np.empty(z.shape)
        g[..., 0] = du_dx(x)
        y -= half * g[..., 0]
        g[..., 1] = du_dy(y)
        return g

    return flow


@functools.lru_cache(maxsize=64)
def _rotation_matrix(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    matrix = np.array([[c, -s], [s, c]])
    matrix.flags.writeable = False  # shared by every caller through the cache
    return matrix


def _rotation(z, a):
    """The exact flow of x' = y, y' = -x: a rotation by angle a, in place;
    grad U = z.  A sampler calls it once per substep with one float a, so
    that matrix is cached."""
    if isinstance(a, float):
        moved = z @ _rotation_matrix(a)
        z[...] = moved
        return moved
    c, s = np.cos(a), np.sin(a)
    x = c * z[..., 0] + s * z[..., 1]
    z[..., 1] = c * z[..., 1] - s * z[..., 0]
    z[..., 0] = x
    return z.copy()


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
    field is reconstructible from (name, params).  ``rotation_flow(z, a)``,
    where the entry has one, advances the float array z in place to the
    solution at time a of z' = J2 grad U(z), exactly or by one
    area-preserving step, and returns grad U at the advanced points, computed
    with the operations of ``grad_fn`` so that the bytes are equal; a is a
    scalar or one time per point.  Instances are immutable and safe for
    concurrent reads; a flow writes only to the z it is given.
    """

    name: str
    dimension: int
    value_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    period: tuple[float, ...] | None = None
    params: dict = field(default_factory=dict)
    rotation_flow: Callable[[np.ndarray, object], np.ndarray] | None = None

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


def _quadratic(dim: int = 2) -> PotentialField:
    dim = _dimension(dim)
    return PotentialField(
        name="quadratic",
        dimension=dim,
        value_fn=lambda z: 0.5 * np.sum(z**2, axis=-1),
        grad_fn=lambda z: z.copy(),
        params={"dim": dim},
        rotation_flow=_rotation if dim == 2 else None,
    )


def _bimodal1() -> PotentialField:
    # U(x, y) = V(x) + y^2 / 2 with V(x) = (x^2 - 1)^2 / 4
    def value(z):
        x, y = z[..., 0], z[..., 1]
        return 0.25 * (x**2 - 1.0) ** 2 + 0.5 * y**2

    def dv(x):
        return x * (x * x - 1.0)  # products, not x**3, which numpy sends to pow

    def grad(z):
        g = z.copy()  # dU/dy = y
        g[..., 0] = dv(z[..., 0])
        return g

    return PotentialField("bimodal1", 2, value, grad,
                          rotation_flow=_separable_flow(dv, lambda y: y))


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
        rotation_flow=_separable_flow(lambda x: -a * np.sin(x), lambda y: -b * np.sin(y)),
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
        rotation_flow=lambda z, a: np.zeros_like(z),  # grad U = 0: z stays
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
