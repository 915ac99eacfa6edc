"""Euler-Maruyama integration of dZ = [-grad U(Z) + C(Z)] dt + sqrt(2 D) dW.

Trajectories are a pure function of ``(seed, stream_id, config)``: each
(seed, stream) pair owns one counter-based normal stream (see ``rng``),
consumed in step-major, coordinate-minor order, so repeated runs are
bitwise identical and distinct streams can integrate in parallel with no
shared state.

The batch driver ``simulate_cells`` advances many (drift strength, stream)
cells of a shared potential in lockstep, which is how table/sweep runs are
executed; ``simulate`` is the single-trajectory wrapper around it.  One
update rule, ``_em_path``, serves both the lockstep chunk loop and the
replay that locates a blow-up.

Every supported drift enters the update in one affine form,
C(Z) - grad U(Z) = grad U(Z) M + c (``_affine_drift``): no drift (M = -I),
a ``ConstantDrift`` (M = -I, c = delta c0) and a ``RotationalDrift`` of the
sampled potential (M = delta S^T - I).  Any other drift is rejected before a
normal is drawn.  Each substep is then one gradient call, one product with
M h and two in-place additions.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .drift import ConstantDrift, RotationalDrift
from .errors import DimensionError, ParameterError, PropagationError
from .potentials import PotentialField
from .rng import NORMAL_ALGORITHM, NormalStream

TRAJECTORY_FORMAT = "irrlangevin-trajectory"
TRAJECTORY_VERSION = 1

#: Nominal integration steps per noise chunk of ``simulate_cells``: a chunk
#: holds cells x max(substeps, NOISE_CHUNK) x d normals at most.
NOISE_CHUNK = 8192


@dataclass(frozen=True)
class SdeConfig:
    """Everything needed to reproduce one trajectory bit for bit.

    ``substeps`` integrates at dt/substeps while recording every dt: strong
    irreversibility makes the Euler update spiral unstable (the linearized
    well update has multiplier |1 + dt(-I + delta J)H| > 1 once
    delta^2 dt is large), so stiff-drift cells need a finer integration
    step than the recording grid."""

    potential: PotentialField
    drift: ConstantDrift | RotationalDrift | None  # None: reversible dynamics
    diffusion: float
    dt: float
    horizon: float
    initial: tuple[float, ...]
    seed: int
    stream_id: int = 0
    substeps: int = 1

    def __post_init__(self):
        _check_step(self.diffusion, self.dt, self.substeps)
        if self.horizon < self.dt:
            raise ParameterError("horizon must be at least one step (dt <= horizon)")
        if len(self.initial) != self.potential.dimension:
            raise DimensionError(
                f"initial state has dimension {len(self.initial)}, potential "
                f"has dimension {self.potential.dimension}"
            )

    @property
    def n_steps(self) -> int:
        # guard against 294999-style float representation of horizon/dt
        return int(math.floor(self.horizon / self.dt + 1e-9))

    def to_dict(self) -> dict:
        drift = self.drift
        drift_echo = None
        if drift is not None:
            drift_echo = {"kind": getattr(drift, "kind", type(drift).__name__),
                          "delta": drift.delta}
            if isinstance(drift, ConstantDrift):
                drift_echo["vector"] = list(map(float, drift.vector))
        return {
            "potential": {"name": self.potential.name, "params": self.potential.params},
            "drift": drift_echo,
            "diffusion": self.diffusion,
            "dt": self.dt,
            "horizon": self.horizon,
            "initial": list(self.initial),
            "seed": self.seed,
            "stream_id": self.stream_id,
            "substeps": self.substeps,
        }


@dataclass(frozen=True)
class Trajectory:
    """States at times 0, dt, 2 dt, ..., with full generation provenance."""

    states: np.ndarray  # (n_steps + 1, d)
    config: SdeConfig

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self)) * self.config.dt


def _check_step(diffusion: float, dt: float, substeps: int) -> None:
    """Reject a step size, diffusion or substep count the update rule cannot use."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ParameterError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(diffusion) and diffusion >= 0.0):
        raise ParameterError(
            f"diffusion must be finite and nonnegative (0 means ODE), got {diffusion}")
    if substeps < 1:
        raise ParameterError("substeps must be >= 1")


def _affine_drift(potential: PotentialField, drifts: Sequence):
    """The affine form C(Z) - grad U(Z) = grad U(Z) M + c of the cells' drifts.

    ``M`` is the scalar -1 (standing for -I) when no cell rotates, one (d, d)
    matrix delta S^T - I when every cell has the same one, and an (n, d, d)
    stack otherwise; ``c`` is None, or the (n, d) rows delta * c0 of the
    constant drifts.  A rotational drift must be built on a potential with the
    sampler potential's name and params: a rotational field of another U does
    not preserve the sampled Gibbs law.  Any other drift is a ParameterError.
    """
    n, d = len(drifts), potential.dimension
    rotations = {}  # cell -> delta S^T, so M = -I costs no (d, d) array
    cs = np.zeros((n, d))
    for i, dr in enumerate(drifts):
        if isinstance(dr, RotationalDrift):
            if (dr.potential.name, dr.potential.params) != (potential.name,
                                                            potential.params):
                raise ParameterError(
                    f"cell {i}: rotational drift of potential {dr.potential.name!r} "
                    f"{dr.potential.params} cannot drive potential {potential.name!r} "
                    f"{potential.params}")
            if dr.matrix.shape != (d, d):
                raise DimensionError(f"cell {i}: drift matrix is {dr.matrix.shape}, "
                                     f"potential has dimension {d}")
            rotations[i] = dr.delta * dr.matrix.T
        elif isinstance(dr, ConstantDrift):
            if dr.vector.shape != (d,):
                raise DimensionError(f"cell {i}: drift vector has shape "
                                     f"{dr.vector.shape}, potential has dimension {d}")
            cs[i] = dr.delta * dr.vector
        elif dr is not None:
            raise ParameterError(
                f"cell {i}: the sampler integrates no drift, a ConstantDrift or a "
                f"RotationalDrift of its potential, got {type(dr).__name__}")
    c = cs if cs.any() else None
    if not rotations:
        return -1.0, c
    M = np.zeros((n, d, d))
    for i, rotation in rotations.items():
        M[i] = rotation
    M -= np.eye(d)
    return (M[0] if (M == M[0]).all() else M), c


def _cellwise_matmul(grads, Mh):
    """Row i of ``grads`` times matrix i of ``Mh``."""
    return (grads[:, None] @ Mh)[:, 0]


def _em_path(states, grad_fn, drift, dt: float, substeps: int, w):
    """The Euler-Maruyama rule Z <- Z + (C(Z) - grad U(Z)) h + w at
    h = dt / substeps, with the drift in the affine form ``drift = (M, c)``
    of ``_affine_drift`` and w = sqrt(2 D h) * normals.  h is folded into M
    and c once, so each update is grad U(Z) (M h) + c h + Z + w.  One update
    per row ``w[k]`` of the (k * substeps, n_cells, d) increments; yields the
    (n_cells, d) states on the recording grid, i.e. after every ``substeps``
    updates."""
    h = dt / substeps
    M, c = drift
    Mh = M * h
    ch = None if c is None else c * h
    product = (operator.mul if np.ndim(M) == 0 else
               operator.matmul if np.ndim(M) == 2 else _cellwise_matmul)
    for j in range(len(w) // substeps):
        for k in range(j * substeps, (j + 1) * substeps):
            step = product(grad_fn(states), Mh)
            if ch is not None:
                step += ch
            step += states
            step += w[k]
            states = step
        yield states


def simulate_cells(
    potential: PotentialField,
    drifts: Sequence,
    diffusion: float,
    dt: float,
    n_steps: int,
    initials,
    streams: Sequence[NormalStream],
    observable: Callable[[np.ndarray], np.ndarray] | None = None,
    substeps: int = 1,
    chunk_size: int = NOISE_CHUNK,
) -> np.ndarray:
    """Advance ``len(drifts)`` cells in lockstep.

    Each cell couples one drift with one normal stream; all cells share the
    potential, diffusion, step size and substep count.  A drift is None, a
    ``ConstantDrift`` or a ``RotationalDrift`` of ``potential`` (see
    ``_affine_drift``); any other is a ParameterError.  Returns
    the full state history ``(n_cells, n_steps + 1, d)`` at the recording
    grid 0, dt, 2 dt, ..., or, when ``observable`` is given, the series
    ``(n_cells, n_steps + 1)`` of f(Z_t) without materializing states.

    With ``substeps`` > 1 each recorded step is integrated as ``substeps``
    Euler-Maruyama updates of size dt/substeps, consuming substeps * d
    normals per recorded step (substep-major, coordinate-minor).
    """
    n_cells = len(drifts)
    if len(streams) != n_cells:
        raise ParameterError("need one stream per cell")
    _check_step(diffusion, dt, substeps)
    if n_steps < 0:
        raise ParameterError(f"n_steps must be >= 0, got {n_steps}")
    d = potential.dimension
    try:
        states = np.array(initials, dtype=float)
    except ValueError as exc:  # ragged states, e.g. [(1.0, 1.0), (1.0,)]
        raise DimensionError(f"need {n_cells} initial states of dimension {d}: "
                             f"{exc}") from exc
    if states.size != n_cells * d:
        raise DimensionError(f"need {n_cells} initial states of dimension {d}, "
                             f"got an array of shape {states.shape}")
    states = states.reshape(n_cells, d)
    rule = (potential.grad_fn, _affine_drift(potential, drifts), dt, substeps)
    scale = math.sqrt(2.0 * diffusion * (dt / substeps))
    record = (lambda z: z) if observable is None else observable
    out = np.empty((n_cells, n_steps + 1) + ((d,) if observable is None else ()))
    out[:, 0] = record(states)

    # keep noise chunks near the nominal size regardless of substeps
    record_chunk = max(1, chunk_size // substeps)
    step = 0
    # blow-ups are detected explicitly below; silence the intermediate
    # overflow warnings they would otherwise spray
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            m = min(record_chunk, n_steps - step)
            # step-major: row k holds every cell's k-th increment
            noise = np.empty((m * substeps, n_cells, d))
            for i, stream in enumerate(streams):
                noise[:, i] = stream.normals(m * substeps * d).reshape(m * substeps, d)
            noise *= scale  # in place: a scaled copy would double the chunk's memory
            start = states
            for j, states in enumerate(_em_path(start, *rule, noise), start=step + 1):
                out[:, j] = record(states)
            if not np.all(np.isfinite(states)):
                # a non-finite coordinate stays non-finite under the update,
                # so the first non-finite recorded state marks the blow-up
                j = next(j for j, z in enumerate(_em_path(start, *rule, noise), step + 1)
                         if not np.all(np.isfinite(z)))
                raise PropagationError(
                    f"trajectory became non-finite at step {j} (t = {j * dt:g}); dt "
                    f"is likely too large for the drift stiffness", step_index=j)
            step += m
    return out


def simulate(config: SdeConfig, chunk_size: int = NOISE_CHUNK) -> Trajectory:
    """Integrate one trajectory; identical bytes for identical config."""
    states = simulate_cells(
        config.potential, [config.drift], config.diffusion, config.dt, config.n_steps,
        [config.initial], [NormalStream(config.seed, config.stream_id)],
        substeps=config.substeps, chunk_size=chunk_size)[0]
    return Trajectory(states=states, config=config)


def stable_substeps(delta: float, dt: float) -> int:
    """Substep count keeping the Euler update of a rotation-dominated well
    contractive with margin: integration step <= dt / ceil(4 delta^2 dt).

    The linearized well update (-I + delta J) H has eigenvalues with
    imaginary part ~ delta * |H|, so |1 + dt lam| exceeds 1 once
    delta^2 dt is order one; a factor-4 safety margin keeps moderately
    stiff Hessians stable too."""
    return max(1, math.ceil(4.0 * delta * delta * dt))


def save_trajectory(trajectory: Trajectory, path) -> None:
    """Write header (one JSON line) followed by raw little-endian float64
    rows, one row per time step."""
    header = {
        "format": TRAJECTORY_FORMAT,
        "version": TRAJECTORY_VERSION,
        "rng": NORMAL_ALGORITHM,
        "config": trajectory.config.to_dict(),
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(np.ascontiguousarray(trajectory.states, dtype="<f8").tobytes())


def load_trajectory(path) -> tuple[dict, np.ndarray]:
    """Read back (header dict, states array) from ``save_trajectory`` output."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    if header.get("format") != TRAJECTORY_FORMAT:
        raise ParameterError(f"{path} is not a trajectory file")
    d = len(header["config"]["initial"])
    states = np.frombuffer(payload, dtype="<f8").reshape(-1, d)
    return header, states
