"""Seeded, replayable sampling of the model domains.

A stream is a PCG64 generator keyed by the pair ``(seed, stream_id)``
through numpy's SeedSequence::

    Generator(PCG64(SeedSequence([seed, stream_id])))

Both integers are 64-bit; the pair fully determines every subsequent
draw, so golden values recorded in the test suite are portable
(SeedSequence hashing and PCG64 are stable, documented algorithms in
numpy >= 1.17).

Two ways of drawing share that keying:

* The scalar samplers (``sample_disc`` and friends) draw one point at a
  time, uniform for the area (resp. volume) measure, by rejection from
  the bounding square (resp. 4-cube).  The rejection loop consumes a
  variable number of uniforms, which is fine: determinism is per
  (seed, stream_id), not per call count.
* Block draws (``uniform_block``) give sample i of a batched run a fixed
  budget of k uniforms, the stream's outputs [i k, (i + 1) k).  Each
  double consumes one 64-bit PCG64 output, so ``PCG64.advance(lo k)``
  jumps straight to row lo: any block, a single row included, is drawn
  in O(block) time and memory without drawing the rows before it.
  ``disc_from_uniforms`` turns two uniform columns into area-uniform
  disc points by inverse transform, r = rmax sqrt(u) and a uniform
  angle, so every row uses all of its budget and no draw is rejected.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_RMAX = 0.95

_U64 = 1 << 64


class RngStream:
    """A replayable draw stream keyed by (seed, stream_id)."""

    __slots__ = ("seed", "stream_id", "gen")

    def __init__(self, seed: int, stream_id: int = 0):
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _U64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not isinstance(stream_id, (int, np.integer)) or not 0 <= stream_id < _U64:
            raise ValueError("stream_id must be a 64-bit unsigned integer")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id]))
        )

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def uniform_block(seed: int, stream_id: int, draws: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the stream (seed, stream_id), ``draws`` uniforms in [0, 1) per row.

    Row i holds the stream's outputs [i draws, (i + 1) draws), whatever
    block it is drawn in.
    """
    rng = RngStream(seed, stream_id)
    rng.gen.bit_generator.advance(lo * draws)
    return rng.gen.random((hi - lo, draws))


def polar(r, angle: np.ndarray) -> np.ndarray:
    """r e^{i angle} elementwise, as r cos(angle) + i r sin(angle)."""
    z = np.empty(np.broadcast_shapes(np.shape(r), np.shape(angle)), dtype=complex)
    z.real = r * np.cos(angle)
    z.imag = r * np.sin(angle)
    return z


def disc_from_uniforms(u_radius: np.ndarray, u_angle: np.ndarray, rmax: float = DEFAULT_RMAX) -> np.ndarray:
    """Map uniforms in [0, 1) to area-uniform points of the open disc of radius rmax."""
    _check_rmax(rmax)
    return polar(rmax * np.sqrt(u_radius), math.tau * u_angle)


def _check_rmax(rmax: float) -> None:
    if not 0.0 < rmax < 1.0:
        raise ValueError(f"rmax must lie in (0, 1), got {rmax}")


def sample_disc(rng: RngStream, rmax: float = DEFAULT_RMAX) -> complex:
    """Draw one point, uniform w.r.t. area, from the open disc of radius rmax."""
    _check_rmax(rmax)
    r2 = rmax * rmax
    while True:
        x, y = rng.gen.uniform(-rmax, rmax, size=2)
        if x * x + y * y <= r2:
            return complex(x, y)


def sample_bidisc(rng: RngStream, rmax: float = DEFAULT_RMAX) -> tuple[complex, complex]:
    """Draw an independent pair of disc points (product measure)."""
    return sample_disc(rng, rmax), sample_disc(rng, rmax)


def sample_ball(rng: RngStream, rmax: float = DEFAULT_RMAX) -> tuple[complex, complex]:
    """Draw one point, uniform w.r.t. volume, from the ball |u|^2+|v|^2 < rmax^2 in C^2."""
    _check_rmax(rmax)
    r2 = rmax * rmax
    while True:
        x = rng.gen.uniform(-rmax, rmax, size=4)
        if x @ x <= r2:
            return complex(x[0], x[1]), complex(x[2], x[3])


def sample_real_pair(
    rng: RngStream, rmax: float = DEFAULT_RMAX, rmin: float = 0.0
) -> tuple[float, float]:
    """Draw a real pair, uniform w.r.t. area, with rmin^2 <= x^2+y^2 <= rmax^2."""
    _check_rmax(rmax)
    if not 0.0 <= rmin < rmax:
        raise ValueError("need 0 <= rmin < rmax")
    lo, hi = rmin * rmin, rmax * rmax
    while True:
        x, y = rng.gen.uniform(-rmax, rmax, size=2)
        s = x * x + y * y
        if lo <= s <= hi:
            return float(x), float(y)
