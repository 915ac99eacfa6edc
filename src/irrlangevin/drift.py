"""Irreversibility perturbations: vector fields C preserving the Gibbs law.

A drift field C qualifies when div(C e^{-2U}) = 0, or equivalently
div C = 2 C . grad U.  Two constructions are provided, both divergence free,
so for them the condition is exactly C . grad U = 0:

* rotational -- C0 = J2 grad U on a potential in 2 dimensions, which is
  orthogonal to grad U because J2 is antisymmetric;
* constant -- C0 = c0, which qualifies on a potential flat along c0 (the
  circle diagnostics, where d = 1 admits no rotational field).

``unit_parts`` is the one place that decides which drifts belong to this
family; the sampler and ``check_invariance`` both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .potentials import PotentialField

#: Standard 2x2 antisymmetric matrix, J[0,1] = 1, J[1,0] = -1.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class RotationalDrift:
    """C(x) = delta * J2 grad U(x) for a potential in 2 dimensions."""

    potential: PotentialField
    delta: float

    def __post_init__(self):
        if self.potential.dimension != 2:
            raise DimensionError(f"a rotational drift needs a potential in 2 "
                                 f"dimensions, got {self.potential.dimension}")

    def base_eval(self, x) -> np.ndarray:
        """Unit-strength field C0 = J2 grad U."""
        return self.potential.grad(x) @ J2.T


@dataclass(frozen=True)
class ConstantDrift:
    """C(x) = delta * c0 for a constant vector c0 (divergence free).

    Used for the circle diagnostics, where d = 1 admits no field orthogonal
    to a nonzero gradient and the canonical perturbation is a constant
    angular drift on a flat potential.
    """

    vector: np.ndarray
    delta: float

    def base_eval(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        return np.broadcast_to(self.vector, pts.shape).copy()


def make_rotational_drift(potential: PotentialField, delta: float) -> RotationalDrift:
    """Build delta * J2 grad U; a potential not in 2 dimensions is a
    DimensionError."""
    return RotationalDrift(potential=potential, delta=float(delta))


def make_constant_drift(vector, delta: float = 1.0) -> ConstantDrift:
    vec = np.atleast_1d(np.asarray(vector, dtype=float))
    return ConstantDrift(vector=vec, delta=float(delta))


def unit_parts(drift, potential: PotentialField):
    """The unit-strength affine parts (J2^T, c0) of a drift of ``potential``:
    (J2^T, None) for a ``RotationalDrift`` built on a potential with the same
    name and params (a rotational field of another U does not preserve the
    Gibbs law), (None, c0) for a ``ConstantDrift`` and (None, None) for None.
    A constant vector that does not match the potential's dimension is a
    DimensionError, any other drift a ParameterError."""
    if isinstance(drift, RotationalDrift):
        if (drift.potential.name, drift.potential.params) != (potential.name,
                                                              potential.params):
            raise ParameterError(
                f"rotational drift of potential {drift.potential.name!r} "
                f"{drift.potential.params} does not preserve the Gibbs law of "
                f"potential {potential.name!r} {potential.params}")
        return J2.T, None
    if isinstance(drift, ConstantDrift):
        d = potential.dimension
        if drift.vector.shape != (d,):
            raise DimensionError(f"drift vector has shape {drift.vector.shape}, "
                                 f"potential has dimension {d}")
        return None, drift.vector
    if drift is not None:
        raise ParameterError(f"a drift is None, a ConstantDrift or a RotationalDrift "
                             f"of the potential, got {type(drift).__name__}")
    return None, None


def check_invariance(drift, potential: PotentialField, points) -> float:
    """Max defect |div C0 - 2 C0 . grad U| of the unit-strength field C0 of
    ``drift`` over ``points``, exactly.

    Both drift kinds are divergence free, so the defect is max |2 C0 . grad U|:
    0 for a rotational drift of U (J2 is antisymmetric) or no drift, and
    2 max |c0 . grad U| for a constant one, from one gradient evaluation."""
    vector = unit_parts(drift, potential)[1]
    if vector is None:
        return 0.0
    return float(np.max(np.abs(2.0 * (potential.grad(points) @ vector))))
