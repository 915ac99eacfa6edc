"""Euler-Maruyama integration of dZ = [-grad U(Z) + C(Z)] dt + sqrt(2 D) dW.

Trajectories are a pure function of ``(seed, stream_id, config)``: each
(seed, stream) pair owns one counter-based normal stream (see ``rng``),
consumed in step-major, coordinate-minor order, so repeated runs are
bitwise identical and distinct streams can integrate in parallel with no
shared state.

The batch driver ``simulate_cells`` advances many (drift strength, stream)
cells of a shared potential in lockstep, which is how table/sweep runs are
executed; ``simulate`` is the single-trajectory wrapper around it.
"""

from __future__ import annotations

import json
import math
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
    drift: object | None  # a drift field, or None for reversible dynamics
    diffusion: float
    dt: float
    horizon: float
    initial: tuple[float, ...]
    seed: int
    stream_id: int = 0
    substeps: int = 1

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ParameterError("dt must be positive")
        if self.horizon < self.dt:
            raise ParameterError("horizon must be at least one step (dt <= horizon)")
        if self.diffusion < 0.0:
            raise ParameterError("diffusion must be nonnegative (0 means ODE)")
        if self.substeps < 1:
            raise ParameterError("substeps must be >= 1")
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
    rng_algorithm: str = NORMAL_ALGORITHM

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self)) * self.config.dt

    def observable_series(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return fn(self.states)


def em_step(state, potential: PotentialField, drift, diffusion: float, dt: float,
            noise) -> np.ndarray:
    """One Euler-Maruyama update: state + b dt + sqrt(2 D dt) * noise."""
    s = np.asarray(state, dtype=float)
    w = np.asarray(noise, dtype=float)
    if w.shape != s.shape:
        raise DimensionError("noise shape must match state shape")
    if not np.all(np.isfinite(s)) or not np.all(np.isfinite(w)):
        bad = np.argwhere(~(np.isfinite(s) & np.isfinite(w)))
        raise PropagationError(f"non-finite input at position {bad[0].tolist()}")
    b = -potential.grad(s)
    if drift is not None:
        b = b + drift.eval(s)
    out = s + b * dt + math.sqrt(2.0 * diffusion * dt) * w
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))
        raise PropagationError(f"state became non-finite at position {bad[0].tolist()}")
    return out


def _drift_adder(potential: PotentialField, drifts: Sequence):
    """Build a fast vectorized b(states, grads) for the common drift families.

    Returns a function mapping (states (n,d), grads (n,d)) -> drift part of
    the total vector field (without the -grad U term).
    """
    n = len(drifts)
    d = potential.dimension
    if all(dr is None for dr in drifts):
        return lambda states, grads: 0.0
    if all(isinstance(dr, ConstantDrift) for dr in drifts):
        const = np.stack([dr.delta * dr.vector for dr in drifts])
        return lambda states, grads: const
    first = drifts[0]
    if (
        isinstance(first, RotationalDrift)
        and all(
            isinstance(dr, RotationalDrift)
            and dr.potential is potential
            and np.array_equal(dr.matrix, first.matrix)
            for dr in drifts
        )
    ):
        st = first.matrix.T.copy()
        deltas = np.array([dr.delta for dr in drifts])[:, None]
        return lambda states, grads: deltas * (grads @ st)

    def generic(states, grads):
        out = np.empty((n, d))
        for i, dr in enumerate(drifts):
            out[i] = 0.0 if dr is None else dr.eval(states[i])
        return out

    return generic


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

    Each cell couples one drift field with one normal stream; all cells
    share the potential, diffusion, step size and substep count.  Returns
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
    if substeps < 1:
        raise ParameterError("substeps must be >= 1")
    d = potential.dimension
    states = np.array(initials, dtype=float).reshape(n_cells, d)
    grad_fn = potential.grad_fn
    drift_part = _drift_adder(potential, drifts)
    dt_eff = dt / substeps
    noise_scale = math.sqrt(2.0 * diffusion * dt_eff)

    if observable is None:
        out = np.empty((n_cells, n_steps + 1, d))
        out[:, 0, :] = states
    else:
        out = np.empty((n_cells, n_steps + 1))
        out[:, 0] = observable(states)

    # keep noise chunks near the nominal size regardless of substeps
    record_chunk = max(1, chunk_size // substeps)
    step = 0
    # blow-ups are detected explicitly below; silence the intermediate
    # overflow warnings they would otherwise spray
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            m = min(record_chunk, n_steps - step)
            noise = np.empty((n_cells, m * substeps, d))
            for i, stream in enumerate(streams):
                noise[i] = stream.normals(m * substeps * d).reshape(m * substeps, d)
            snapshot = states.copy()
            for j in range(m):
                for s in range(substeps):
                    grads = grad_fn(states)
                    states = states + (drift_part(states, grads) - grads) * dt_eff \
                        + noise_scale * noise[:, j * substeps + s, :]
                if observable is None:
                    out[:, step + j + 1, :] = states
                else:
                    out[:, step + j + 1] = observable(states)
            if not np.all(np.isfinite(states)):
                _locate_blowup(snapshot, noise, grad_fn, drift_part, dt_eff,
                               noise_scale, step, substeps)
            step += m
    return out


def _locate_blowup(states, noise, grad_fn, drift_part, dt_eff, noise_scale,
                   step0, substeps):
    """Replay a chunk step by step to report the first non-finite step."""
    total = noise.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(total):
            grads = grad_fn(states)
            states = states + (drift_part(states, grads) - grads) * dt_eff \
                + noise_scale * noise[:, j, :]
            if not np.all(np.isfinite(states)):
                idx = step0 + j // substeps + 1
                raise PropagationError(
                    f"trajectory became non-finite at step {idx} "
                    f"(t = {idx * dt_eff * substeps:g}); dt is likely too "
                    f"large for the drift stiffness", step_index=idx,
                )
    raise PropagationError("non-finite state in chunk", step_index=step0)


def simulate(config: SdeConfig, chunk_size: int = NOISE_CHUNK) -> Trajectory:
    """Integrate one trajectory; identical bytes for identical config."""
    states = simulate_cells(
        config.potential,
        [config.drift],
        config.diffusion,
        config.dt,
        config.n_steps,
        [config.initial],
        [NormalStream(config.seed, config.stream_id)],
        substeps=config.substeps,
        chunk_size=chunk_size,
    )
    return Trajectory(states=states[0], config=config)


def simulate_series(config: SdeConfig, observable: Callable[[np.ndarray], np.ndarray],
                    chunk_size: int = NOISE_CHUNK) -> np.ndarray:
    """Stream one trajectory through an observable without storing states."""
    series = simulate_cells(
        config.potential,
        [config.drift],
        config.diffusion,
        config.dt,
        config.n_steps,
        [config.initial],
        [NormalStream(config.seed, config.stream_id)],
        observable=observable,
        substeps=config.substeps,
        chunk_size=chunk_size,
    )
    return series[0]


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
        "rng": trajectory.rng_algorithm,
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
