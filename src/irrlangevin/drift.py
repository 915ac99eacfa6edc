"""Irreversibility perturbations: vector fields C preserving the Gibbs law.

A drift field C qualifies when div(C e^{-2U}) = 0, or equivalently
div C = 2 C . grad U.  A ``Drift(delta, vector)`` is C = delta C0 with one of
two unit fields, both divergence free, so for them the condition is exactly
C0 . grad U = 0:

* rotational (``vector`` None) -- C0 = J2 grad U of the potential the drift
  runs with, which must be in 2 dimensions; orthogonal to grad U because J2
  is antisymmetric;
* constant -- C0 = ``vector``, which qualifies on a potential flat along it
  (the circle diagnostics, where d = 1 admits no rotational field).

A drift holds no potential: U is always the one it is sampled or rated with.
``unit_parts`` decides which drifts belong to this family and checks a drift
against its potential, for the sampler and ``check_invariance``, which is the
one admission rule: the CLI and ``ratefn`` reject through it a drift that
breaks the Gibbs law, while the sampler integrates any drift of the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .potentials import PotentialField

#: Standard 2x2 antisymmetric matrix, J[0,1] = 1, J[1,0] = -1.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class Drift:
    """C = delta * J2 grad U when ``vector`` is None, else delta * vector."""

    delta: float
    vector: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "delta", float(self.delta))
        if self.vector is not None:  # a tuple keeps == and hash by value
            object.__setattr__(self, "vector", tuple(
                np.atleast_1d(np.asarray(self.vector, dtype=float)).tolist()))

    def base_eval(self, potential: PotentialField, x) -> np.ndarray:
        """Unit-strength field C0 at ``x`` for a drift of ``potential``."""
        rotation, vector = unit_parts(self, potential)
        if rotation is not None:
            return potential.grad(x) @ rotation
        return np.broadcast_to(vector, np.shape(x)).copy()


def unit_parts(drift, potential: PotentialField):
    """The unit-strength affine parts (J2^T, c0) of ``drift`` running with
    ``potential``: (J2^T, None) for a rotational ``Drift``, (None, c0) for a
    constant one and (None, None) for None.  A rotational drift on a potential
    not in 2 dimensions, or a vector that does not match the potential's
    dimension, is a DimensionError; any other drift a ParameterError."""
    if drift is None:
        return None, None
    if not isinstance(drift, Drift):
        raise ParameterError(f"a drift is None or a Drift, got {type(drift).__name__}")
    d = potential.dimension
    if drift.vector is None:
        if d != 2:
            raise DimensionError(f"a rotational drift needs a potential in 2 "
                                 f"dimensions, got {d}")
        return J2.T, None
    vector = np.array(drift.vector)
    if vector.shape != (d,):
        raise DimensionError(f"drift vector has shape {vector.shape}, "
                             f"potential has dimension {d}")
    return None, vector


def invariance_points(dims: int) -> np.ndarray:
    """Four fixed points of [-4, 4)^dims whose coordinates all differ within
    each point (steps of an irrational fraction of the interval), so a field
    that vanishes only where coordinates coincide is not missed."""
    k = np.arange(4 * dims, dtype=float).reshape(4, dims)
    return (k * (math.sqrt(5.0) - 1.0) / 2.0 + 0.25) % 1.0 * 8.0 - 4.0


def check_invariance(drift, potential: PotentialField, points) -> float:
    """Max defect |div C0 - 2 C0 . grad U| of the unit-strength field C0 of
    ``drift`` over ``points``, exactly; a defect over 1e-6 (1 + max |c0|)
    is a ParameterError.

    Both drift kinds are divergence free, so the defect is max |2 C0 . grad U|:
    0 for a rotational drift (J2 is antisymmetric) or no drift, and
    2 max |c0 . grad U| for a constant one, from one gradient evaluation."""
    vector = unit_parts(drift, potential)[1]
    if vector is None:
        return 0.0
    defect = float(np.max(np.abs(2.0 * (potential.grad(points) @ vector))))
    if defect > 1e-6 * (1.0 + float(np.max(np.abs(vector)))):
        raise ParameterError(
            f"constant drift {list(drift.vector)} does not preserve the Gibbs law of "
            f"{potential.name!r}: U is not flat along it (|2 c0 . grad U| reaches "
            f"{defect:.3g})")
    return defect
