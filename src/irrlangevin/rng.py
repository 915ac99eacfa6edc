"""Reproducible, splittable normal streams for the samplers.

Contract: a stream is keyed by the pair ``(seed, stream_id)`` of 64-bit
integers, which seeds a Philox4x64 counter-based bit generator.  Word ``k``
of the raw 64-bit output feeds exactly one standard normal via the inverse
normal CDF applied to the open-interval uniform

    u = ((word >> 11) + 0.5) * 2**-53 .

A d-dimensional simulation consumes words in step-major, coordinate-minor
order (word index = step * d + coordinate), so trajectories are bitwise
reproducible for a fixed key regardless of how draws are chunked, and
distinct stream ids give statistically independent streams that can run in
parallel with no shared state.
"""

from __future__ import annotations

import numpy as np

#: Identifier recorded in trajectory metadata so golden files stay valid.
NORMAL_ALGORITHM = "philox4x64/inverse-cdf-53bit"

_MASK64 = 2**64 - 1


def _as_u64(value: int) -> int:
    # Negative user seeds are folded into the 64-bit key space.
    return int(value) & _MASK64


class NormalStream:
    """Sequential standard-normal source for one (seed, stream_id) key."""

    def __init__(self, seed: int, stream_id: int = 0):
        key = np.array([_as_u64(seed), _as_u64(stream_id)], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)

    def normals(self, n: int) -> np.ndarray:
        """Next ``n`` standard normals of this stream."""
        from scipy.special import ndtri  # lazy: scipy.special costs ~0.2 s to import

        raw = self._bitgen.random_raw(int(n))
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        return ndtri(u)


def splitmix64(*values: int) -> int:
    """Deterministic 64-bit mix of small integers, for deriving stream ids
    from cell coordinates (delta index, seed index, ...)."""
    state, out = 0x9E3779B97F4A7C15, 0
    for v in values:
        state = (state + _as_u64(v) + 0x632BE59BD9B4E019) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out ^= z ^ (z >> 31)
    return out
