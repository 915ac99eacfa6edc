"""Irreversibility perturbations: vector fields C preserving the Gibbs law.

A drift field C qualifies when div(C e^{-2U}) = 0, or equivalently
div C = 2 C . grad U.  Two constructions are provided:

* rotational -- C0 = S grad U for a constant antisymmetric matrix S, which
  is simultaneously divergence free and orthogonal to grad U;
* constant -- C0 = c0, which qualifies on a flat potential (the circle
  diagnostics, where d = 1 admits no rotational field).

``check_invariance`` measures the defect of the algebraic constraint
div C = 2 C . grad U directly; this avoids evaluating e^{-2U}, which would
under/overflow for large |U|.  The two forms are equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DimensionError
from .potentials import PotentialField

#: Standard 2x2 antisymmetric matrix, J[0,1] = 1, J[1,0] = -1.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def antisymmetric_matrix(entries) -> np.ndarray:
    """Validate and return a constant antisymmetric matrix.

    Rejects input whose symmetric part exceeds 1e-15 entrywise.
    """
    S = np.asarray(entries, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ConstructionError(f"antisymmetric matrix must be square, got {S.shape}")
    if np.max(np.abs(S + S.T)) > 1e-15:
        raise ConstructionError("matrix is not antisymmetric: |S + S^T| > 1e-15")
    return S


@dataclass(frozen=True)
class RotationalDrift:
    """C(x) = delta * S grad U(x) with S constant antisymmetric."""

    matrix: np.ndarray
    potential: PotentialField
    delta: float

    kind = "rotational"

    def base_eval(self, x) -> np.ndarray:
        """Unit-strength field C0 = S grad U."""
        return self.potential.grad(x) @ self.matrix.T

    def eval(self, x) -> np.ndarray:
        return self.delta * self.base_eval(x)


@dataclass(frozen=True)
class ConstantDrift:
    """C(x) = delta * c0 for a constant vector c0 (divergence free).

    Used for the circle diagnostics, where d = 1 admits no field orthogonal
    to a nonzero gradient and the canonical perturbation is a constant
    angular drift on a flat potential.
    """

    vector: np.ndarray
    delta: float

    kind = "constant"

    def base_eval(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        return np.broadcast_to(self.vector, pts.shape).copy()

    def eval(self, x) -> np.ndarray:
        return self.delta * self.base_eval(x)


def make_rotational_drift(S, potential: PotentialField, delta: float) -> RotationalDrift:
    """Build delta * S grad U, validating antisymmetry and dimensions."""
    S = antisymmetric_matrix(S)
    if S.shape[0] != potential.dimension:
        raise DimensionError(
            f"matrix is {S.shape[0]}x{S.shape[0]} but potential has "
            f"dimension {potential.dimension}"
        )
    return RotationalDrift(matrix=S, potential=potential, delta=float(delta))


def make_constant_drift(vector, delta: float = 1.0) -> ConstantDrift:
    vec = np.atleast_1d(np.asarray(vector, dtype=float))
    return ConstantDrift(vector=vec, delta=float(delta))


def _field_eval(field, x) -> np.ndarray:
    if hasattr(field, "eval"):
        return field.eval(x)
    return field(x)


def finite_difference_divergence(field, points, h: float = 1e-4) -> np.ndarray:
    """Central-difference divergence of a vector field at a point cloud."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[-1]
    div = np.zeros(pts.shape[:-1])
    for axis in range(d):
        shift = np.zeros(d)
        shift[axis] = h
        div = div + (
            _field_eval(field, pts + shift)[..., axis]
            - _field_eval(field, pts - shift)[..., axis]
        ) / (2.0 * h)
    return div


def check_invariance(drift, potential: PotentialField, points, h: float = 1e-4) -> float:
    """Max defect of div C = 2 C . grad U over the supplied points.

    ``drift`` may be a drift field or a plain callable; the divergence is
    computed by central differences with step ``h`` (analytic drifts built
    here are smooth, so the residual of a conforming field is pure
    finite-difference error, O(h^2)).
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != potential.dimension:
        raise DimensionError("points dimension does not match the potential")
    div = finite_difference_divergence(drift, pts, h=h)
    cdotg = np.sum(_field_eval(drift, pts) * potential.grad(pts), axis=-1)
    return float(np.max(np.abs(div - 2.0 * cdotg)))
