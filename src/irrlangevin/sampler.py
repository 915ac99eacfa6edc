"""Split-step integration of dZ = [-grad U(Z) + C(Z)] dt + sqrt(2 D) dW.

Trajectories are a pure function of their inputs and ``(seed, stream_id)``:
each (seed, stream) pair owns one counter-based normal stream (see ``rng``),
consumed in step-major, coordinate-minor order, so repeated runs are
bitwise identical and distinct streams can integrate in parallel with no
shared state.

``simulate_cells`` is the one sampling entry point: it advances many (drift
strength, stream) cells of a shared potential in lockstep, and a single
trajectory is its one-cell case.  It draws the normals of a chunk of steps
at once, one contiguous array per stream, and moves the chunk one block of
about BLOCK_VALUES values at a time, so a block's rows are reused while they
are cached: each cell's slice is copied into a step-major block (row k
holds every cell's k-th increment), the block is scaled in place, and one
update rule, ``_em_path``, runs it in place, each update overwriting the
increment row it consumed with the state it produces.  The block is then
recorded: its recorded states are every ``substeps``-th row, the observable
is called once on those (steps, cells, d) rows, and a blow-up's first
non-finite step and cell are read from the same rows.  So an observable
must be vectorised over leading axes, as every ``OBSERVABLES`` entry is.

Each substep of size h is one Euler-Maruyama step of the reversible part
followed by the flow Phi of the rotational part (a Lie split):
Z <- Phi_{delta h}(Z + (c - grad U(Z)) h + w).  Phi is the potential's
``rotation_flow`` of z' = J2 grad U(z), so the rotation costs no stability
limit and its bias grows with delta h, not delta^2 h.  On a potential without
a flow (``bimodal2``, ``threewell``) the rotation stays in the Euler step.

Every supported drift enters the update in one affine form,
C(Z) - grad U(Z) = grad U(Z) M + c plus the flow (``_affine_drift``): no
drift (M = -I), a constant ``Drift`` (M = -I, c = delta c0) and a
rotational one, delta J2 grad U of the sampled potential (M = -I and the
flow, or M = delta J2^T - I without one).  Any other drift is rejected
before a normal is drawn.  Each substep is then one product with M h, two
in-place additions and either one gradient call or, when the cells rotate
by a flow, one flow call.  The flow advances the states in place and hands
back grad U at them, so a rotating batch calls the gradient only once per
block; on ``bimodal1`` and ``torus-cosine`` a substep evaluates V'
twice, not three times.
"""

from __future__ import annotations

import math
import operator
import os
import stat
from typing import Callable, Sequence

import numpy as np

from .drift import J2, unit_parts
from .errors import DimensionError, ParameterError, PropagationError
from .potentials import PotentialField
from .rng import NormalStream

#: Largest rotation time delta * h of one split substep: automatic substeps
#: keep delta * dt / substeps <= FLOW_THETA.
FLOW_THETA = 0.1

#: Nominal integration steps per noise chunk of ``simulate_cells``: a chunk
#: holds cells x max(substeps, NOISE_CHUNK) x d normals at most.
NOISE_CHUNK = 8192

#: Float64 values (1 MiB) of the block in which ``simulate_cells`` moves a
#: noise chunk: each block is copied to step-major, scaled, integrated and
#: recorded while it stays in cache, and the observable is called once per
#: block.
BLOCK_VALUES = 1 << 17


def non_finite_error(step_index: int, dt: float, cell_index: int, delta: float,
                     where: str = "") -> PropagationError:
    """The error of a trajectory first non-finite at recorded step
    ``step_index`` in cell ``cell_index``, whose drift strength is ``delta``;
    ``where`` prefixes the message."""
    t = step_index * dt
    return PropagationError(
        f"{where}trajectory became non-finite at step {step_index} (t = {t:g}) in "
        f"cell {cell_index}; dt is likely too large for the drift stiffness",
        step_index=step_index, cell_index=cell_index, delta=delta, t=t)


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
    """The cells' drifts as ``(M, c, rotation)``: C(Z) - grad U(Z) =
    grad U(Z) M + c, plus the rotation delta J2 grad U when it goes to the flow.

    The choice is made once for the group.  When no cell rotates, or the
    potential has a ``rotation_flow``, ``M`` is the scalar -1 (standing for
    -I); ``rotation`` is then None, or (flow, deltas) with the cells' rotation
    strengths (one float when they agree, else an (n,) array with 0 for a
    cell that does not rotate).  Without a flow the rotation stays in M:
    one (d, d) matrix delta J2^T - I when every cell has the same one, an
    (n, d, d) stack otherwise.  ``c`` is None, or the (n, d) rows delta * c0
    of the constant drifts.  ``drift.unit_parts`` gives each cell's J2^T and
    c0 and rejects any drift outside the family; its errors name the cell.
    """
    n, d = len(drifts), potential.dimension
    rotates, deltas = False, np.zeros(n)  # rotation strength per cell
    cs = np.zeros((n, d))
    for i, dr in enumerate(drifts):
        try:
            rotation, vector = unit_parts(dr, potential)
        except ParameterError as exc:
            raise type(exc)(f"cell {i}: {exc}") from None
        if rotation is not None:
            rotates, deltas[i] = True, dr.delta
        if vector is not None:
            cs[i] = dr.delta * vector
    c = cs if cs.any() else None
    if not rotates:
        return -1.0, c, None
    if potential.rotation_flow is not None:
        uniform = (deltas == deltas[0]).all()
        return -1.0, c, (potential.rotation_flow, float(deltas[0]) if uniform else deltas)
    M = deltas[:, None, None] * J2.T - np.eye(d)
    return (M[0] if (M == M[0]).all() else M), c, None


def _cellwise_matmul(grads, Mh):
    """Row i of ``grads`` times matrix i of ``Mh``."""
    return (grads[:, None] @ Mh)[:, 0]


def _em_path(states, grad_fn, drift, dt: float, substeps: int, w) -> None:
    """The split rule Z <- Phi_a(Z + (C(Z) - grad U(Z)) h + w) at
    h = dt / substeps, with the drift ``drift = (M, c, rotation)`` of
    ``_affine_drift``, w = sqrt(2 D h) * normals and Phi_a the rotation flow
    for time a = delta h (absent when ``rotation`` is None).  h is folded into
    M and c once, so each Euler part is w + (grad U(Z) (M h) + c h + Z).  One
    update per row ``w[k]`` of the (k * substeps, n_cells, d) increments,
    starting from the (n_cells, d) ``states``; update k overwrites ``w[k]``
    with the state it produces.  The flow advances ``w[k]`` in place and
    returns grad U there, bit-equal to ``grad_fn``, which the next update
    uses: ``grad_fn`` runs once per call with a flow and once per update
    without one."""
    h = dt / substeps
    M, c, rotation = drift
    flow, a = (None, None) if rotation is None else (rotation[0], rotation[1] * h)
    Mh = M * h
    ch = None if c is None else c * h
    product = (operator.mul if np.ndim(M) == 0 else
               operator.matmul if np.ndim(M) == 2 else _cellwise_matmul)
    grads = None
    for k in range(len(w)):
        step = product(grad_fn(states) if grads is None else grads, Mh)
        if ch is not None:
            step += ch
        step += states
        states = w[k]
        states += step
        if flow is not None:
            grads = flow(states, a)


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
    potential, diffusion, step size and substep count.  A drift is None or a
    ``Drift`` (see ``_affine_drift``); any other is a ParameterError.  Returns
    the full state history ``(n_cells, n_steps + 1, d)`` at the recording
    grid 0, dt, 2 dt, ..., or, when ``observable`` is given, the series
    ``(n_cells, n_steps + 1)`` of f(Z_t) without materializing states; f is
    called once per block on its (steps, n_cells, d) recorded rows.  A
    blow-up raises ``non_finite_error``.

    Each stream's normals of a chunk of about ``chunk_size`` substeps are
    drawn in one call and kept as drawn; the chunk is then integrated and
    recorded one block of recorded steps at a time (about BLOCK_VALUES
    increments, at least 64 steps, at most a quarter of the chunk), so one
    chunk of normals and one block are alive at a time.

    With ``substeps`` > 1 each recorded step is integrated as ``substeps``
    split updates of size dt/substeps (see ``_em_path``), consuming
    substeps * d normals per recorded step (substep-major, coordinate-minor).
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
    if n_cells == 0:  # nothing to draw or integrate
        return out
    # keep noise chunks near the nominal size regardless of substeps
    record_chunk = max(1, chunk_size // substeps)
    # recorded steps per block: about BLOCK_VALUES values, but at least 64
    # steps, so each cell's copy stays long in a wide batch, and at most a
    # quarter of the chunk, so the block adds at most that to its memory
    block_steps = min(max(64, BLOCK_VALUES // (substeps * n_cells * d)),
                      max(1, record_chunk // 4))
    # step-major: row k holds every cell's k-th increment
    block = np.empty((min(block_steps, n_steps) * substeps, n_cells, d))
    # a cell's d coordinates move as one void item
    item = np.dtype((np.void, 8 * d))
    block_items = block.view(item)[..., 0]
    step = 0
    # blow-ups are detected explicitly below; silence the intermediate
    # overflow warnings they would otherwise spray, and those of an
    # observable that overflows at a finite state
    with np.errstate(over="ignore", invalid="ignore"):
        out[:, 0] = record(states)
        while step < n_steps:
            m = min(record_chunk, n_steps - step)
            # each stream's normals stay as drawn: contiguous, one array per cell
            drawn = [np.ascontiguousarray(stream.normals(m * substeps * d), dtype=float)
                     .view(item) for stream in streams]
            for b in range(0, m, block_steps):
                rows = min(block_steps, m - b)
                w = block[:rows * substeps]
                lo, hi = b * substeps, (b + rows) * substeps
                for i, cell in enumerate(drawn):
                    block_items[:len(w), i] = cell[lo:hi]
                w *= scale
                _em_path(states, *rule, w)
                recorded = w[substeps - 1::substeps]
                first = step + b + 1
                out[:, first:first + rows] = record(recorded).swapaxes(0, 1)
                if not np.all(np.isfinite(w[-1])):
                    # a non-finite coordinate stays non-finite under the
                    # update, so the first non-finite recorded state marks
                    # the blow-up
                    k, i = np.argwhere(~np.isfinite(recorded).all(axis=-1))[0]
                    drift = drifts[i]
                    raise non_finite_error(first + int(k), dt, int(i),
                                           0.0 if drift is None else drift.delta)
                # a copy, since the next block overwrites these rows
                states = w[-1].copy()
            del drawn  # freed before the next chunk is drawn
            step += m
    return out


def stable_substeps(delta: float, dt: float, split: bool) -> int:
    """Automatic substep count at drift strength delta and step dt.

    With ``split`` (the potential has a ``rotation_flow``) the rotation is a
    flow, stable at any angle, whose bias grows with delta h: the count is
    ceil(|delta| dt / FLOW_THETA).  Otherwise the rotation sits in the Euler
    update, whose linearized well multiplier (-I + delta J) H has imaginary
    part ~ delta |H| h, so |1 + h lam| exceeds 1 once delta^2 h is order one:
    the count is ceil(4 delta^2 dt), a factor-4 margin for moderately stiff
    Hessians.  A delta whose count overflows a float is a ParameterError."""
    x = abs(delta) * dt / FLOW_THETA if split else 4.0 * delta * delta * dt
    if not math.isfinite(x):
        raise ParameterError(f"delta {delta} is too large for automatic substeps")
    return max(1, math.ceil(x))


def open_output(path, mode: str = "w", **kwargs):
    """Open ``path`` for writing as a new file; every output file of the
    package is opened here.

    An existing regular file is unlinked first, so the write creates a new
    file instead of truncating the old one: on ext4, closing a truncated
    file waits for its writeback (``auto_da_alloc``), about 40 ms per file,
    and renaming a temporary file over it waits the same.  Anything else (a
    missing path, a symlink, a device, a FIFO, a directory) is opened as
    given, so a symlink is written through and a device is never removed.
    ``mode`` and ``kwargs`` go to ``open``."""
    remove_output(path)
    return open(path, mode, **kwargs)


def remove_output(path) -> None:
    """Unlink ``path`` if it is a regular file, as ``open_output`` does
    before it writes; anything else is left as it is."""
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:  # missing or unreachable: nothing to unlink
        return
    if regular:
        os.unlink(path)
