"""Seeded, replayable sampling of the model domains.

A stream is a PCG64 generator keyed by the pair ``(seed, stream_id)``
through numpy's SeedSequence::

    Generator(PCG64(SeedSequence([seed, stream_id])))

Both integers are 64-bit; the pair fully determines every subsequent
draw, so golden values recorded in the test suite are portable
(SeedSequence hashing and PCG64 are stable, documented algorithms in
numpy >= 1.17).

Every draw of the package is a row of ``uniform_block``: sample i of a
run with a budget of k uniforms per sample owns the stream's outputs
[i k, (i + 1) k).  Each double consumes one 64-bit PCG64 output, so
``PCG64.advance(lo k)`` jumps straight to row lo: any block, a single
row included, is drawn in O(block) time and memory without drawing the
rows before it.  The ``*_from_uniforms`` transforms turn uniform
columns into points by inverse transform, so every row uses all of its
budget and no draw is rejected:

* disc, area-uniform: r = rmax sqrt(s) and a uniform angle;
* ball in C^2, volume-uniform: radius rmax s^(1/4), a share q of the
  squared radius in the first coordinate (uniform on the sphere), and
  one uniform angle per coordinate.

Rows are also the unit of checking.  Every function of the package that
takes a keyword-only ``errors`` takes a point or a batch of rows (for
numbers, 1-d arrays with one entry per row); a point is the batch of
one, evaluated by the same arithmetic.  A row that fails one of the function's checks is
flagged in the ``RowErrors`` collector passed as ``errors``, with the
check's ValueError message, and its results are then meaningless (numpy
may warn while computing them, so the suites and the dumps compute under
``np.errstate(all="ignore")``); without a collector, the first row that
fails a check raises its ValueError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

DEFAULT_SEED = 42
DEFAULT_RMAX = 0.95

_U64 = 1 << 64


class RngStream:
    """The generator keyed by (seed, stream_id) that ``uniform_block`` draws from.

    ``bench/spans.py`` counts the streams a run opens through this class.
    """

    __slots__ = ("gen",)

    def __init__(self, seed: int, stream_id: int = 0):
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _U64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not isinstance(stream_id, (int, np.integer)) or not 0 <= stream_id < _U64:
            raise ValueError("stream_id must be a 64-bit unsigned integer")
        self.gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(stream_id)])))


class RowErrors:
    """The first failed check of each row of a batch.

    ``ok[r]`` turns False when row r fails a check, and ``message[r]``
    then holds that check's ValueError message; later checks never
    overwrite it.  ``ok`` alone says which rows failed: the message
    array is allocated when it is first read or a row first fails, so a
    batch whose rows all pass never builds one.
    """

    _message: np.ndarray | None = None

    def __init__(self, n: int):
        self.ok = np.ones(n, dtype=bool)

    def copy(self) -> RowErrors:
        """A collector with this one's flags and messages, whose rows then fail apart from this one's."""
        out = RowErrors.__new__(RowErrors)
        out.ok = self.ok.copy()
        if self._message is not None:
            out._message = self._message.copy()
        return out

    @property
    def message(self) -> np.ndarray:
        """Each row's first failure message, None for a row that has not failed."""
        if self._message is None:
            self._message = np.empty(len(self.ok), dtype=object)  # all None
        return self._message

    def flag(self, bad: np.ndarray, message) -> None:
        """Fail the rows in ``bad`` that have not failed yet, with one message or ``message(r)`` for row r."""
        if bad.any() and (bad := bad & self.ok).any():
            self.ok[bad] = False
            self.message[bad] = [message(r) for r in np.flatnonzero(bad)] if callable(message) else message


class _FirstRaises(RowErrors):
    """The collector of a call that was passed none: the first row that fails a check raises at once.

    No row fails without raising, so it keeps no row flags: its ``ok`` is a
    read-only all-True view, built only when read.
    """

    def __init__(self, n: int):
        self._n = n

    @property
    def ok(self) -> np.ndarray:
        return np.broadcast_to(True, (self._n,))

    def flag(self, bad: np.ndarray, message) -> None:
        if bad.any():  # no row has failed before: it would have raised
            r = int(np.argmax(bad))
            raise ValueError(message(r) if callable(message) else message)


def _batch(errors: RowErrors | None, *values, dtype=complex):
    """The values as 1-d arrays of one length, the collector of their checks, and whether they were one point.

    Values that already are 1-d arrays of dtype and of one shape are returned as they are.
    """
    shape = getattr(values[0], "shape", None)
    for v in values:
        if type(v) is not np.ndarray or v.dtype != dtype or v.shape != shape or len(shape) != 1:
            break
    else:
        return values, _collector(errors, shape[0]), False
    arrays = [np.asarray(v, dtype=dtype) for v in values]
    if any(a.ndim > 1 for a in arrays):  # a batch holds one entry per row: a grid is refused, not flattened
        shapes = ", ".join(str(a.shape) for a in arrays)
        raise ValueError(f"a batch takes numbers or 1-d arrays with one entry per row, got shapes {shapes}")
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
    n = math.prod(shape)
    flat = [(a if a.shape == shape else np.broadcast_to(a, shape)).reshape(n) for a in arrays]
    return flat, _collector(errors, n), shape == ()


def _collector(errors: RowErrors | None, n: int) -> RowErrors:
    """errors, or for a call passed none, the collector whose first failing row raises."""
    return _FirstRaises(n) if errors is None else errors


def _unbatch(out, single: bool):
    """out, with a point's entries as Python scalars."""
    if not single:
        return out
    return tuple(_first(a) for a in out) if isinstance(out, tuple) else _first(out)


def _first(a: np.ndarray):
    """Row 0 of a batch result: a Python scalar, or the array of a vector result."""
    return a[0].item() if a.ndim == 1 else a[0]


def _row_max(a: np.ndarray) -> np.ndarray:
    """The largest entry of each row of an (n, ...) array, NaN if the row holds one; for booleans, whether any is True.

    It equals ``a.max`` over every axis but the first (max is exact), but
    folds ``np.maximum`` across the row's few columns: numpy's reduction
    over a short axis pays a per-row cost many times that of the fold's
    elementwise passes.  The two can differ only in the sign of a zero
    maximum, on a row mixing 0.0 and -0.0, where numpy's own reduction
    differs between its dispatched loops; every caller passes moduli or
    booleans, where no -0.0 occurs.
    """
    cols = a.reshape(len(a), math.prod(a.shape[1:]))  # -1 would find no width for an empty batch
    out = cols[:, 0].copy()
    for j in range(1, cols.shape[1]):
        np.maximum(out, cols[:, j], out=out)
    return out


def _size(*parts: np.ndarray) -> np.ndarray:
    """max(1, the largest modulus in each row), the row's entries spread over the (n, ...) arrays parts."""
    return functools.reduce(np.maximum, (_row_max(np.abs(p)) for p in parts), 1.0)


def uniform_block(seed: int, stream_id: int, draws: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the stream (seed, stream_id), ``draws`` uniforms in [0, 1) per row.

    Row i holds the stream's outputs [i draws, (i + 1) draws), whatever
    block it is drawn in.
    """
    rng = RngStream(seed, stream_id)
    rng.gen.bit_generator.advance(lo * draws)
    return rng.gen.random((hi - lo, draws))


def _times(z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re, Im) of z w from separately rounded float products, so that w z == z w bit for bit.

    numpy's complex multiply may use fused multiply-adds, and then z * w
    and w * z differ in the last bits, which depend on the build rather
    than on the formula.
    """
    return z.real * w.real - z.imag * w.imag, z.real * w.imag + z.imag * w.real


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


def ball_from_uniforms(u: np.ndarray, rmax: float = DEFAULT_RMAX) -> tuple[np.ndarray, np.ndarray]:
    """Volume-uniform points (u, v) of the ball |u|^2 + |v|^2 < rmax^2 from 4 uniform columns.

    Columns: radius, the share of the squared radius in u, the angle of
    u, the angle of v.
    """
    _check_rmax(rmax)
    r = rmax * np.sqrt(np.sqrt(u[..., 0]))
    q = u[..., 1]
    return polar(r * np.sqrt(q), math.tau * u[..., 2]), polar(r * np.sqrt(1.0 - q), math.tau * u[..., 3])


def _check_rmax(rmax: float) -> None:
    if not 0.0 < rmax < 1.0:
        raise ValueError(f"rmax must lie in (0, 1), got {rmax}")
