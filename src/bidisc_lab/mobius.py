"""Automorphisms of the unit disc and the pseudo-hyperbolic invariant.

Every automorphism of the open unit disc D is

    z  |->  e^{i theta} (z - a) / (1 - conj(a) z),      |a| < 1,

and the pair (theta, a) is the parameterization used throughout.  The
group acts diagonally on the bidisc D x D, and the quantity it leaves
invariant there is the pseudo-hyperbolic modulus

    rho(z, w) = |z - w| / |1 - conj(z) w|.

Every function takes a point or a batch of rows (see ``rng``), and
applies its checks to each row.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass
from functools import cached_property

import numpy as np

from .rng import DEFAULT_RMAX, RowErrors, _batch, _times, _unbatch, disc_from_uniforms

TOL_BOUNDARY = 1e-9


def _inside(z) -> np.ndarray:
    """The disc rule for a point a caller supplies: z is finite and |z| < 1 - TOL_BOUNDARY, elementwise."""
    return np.abs(z) < 1.0 - TOL_BOUNDARY  # False on NaN


def _on_disc(z) -> np.ndarray:
    """The disc rule for a value computed from checked points, such as an image phi(z): finite and |z| < 1.

    An image keeps no margin: 1 - |phi(z)|^2 = (1 - |a|^2)(1 - |z|^2) / |1 - conj(a) z|^2
    falls below 2 TOL_BOUNDARY when a and z lie near the rim at angles apart.
    """
    return np.abs(z) < 1.0  # False on NaN


def _check_disc(rows: RowErrors, z: np.ndarray, name: str, inside=_inside) -> None:
    """Flag the rows whose z breaks the disc rule ``inside``: ``_inside``, or ``_on_disc`` for a computed value."""
    bad = ~inside(z)
    if bad.any():
        size = np.abs(z)
        rows.flag(bad & ~np.isfinite(z), lambda r: f"{name} must have finite components, got {z[r].item()!r}")
        rows.flag(bad, lambda r: f"{name} must lie strictly inside the unit disc, got |{name}| = {size[r]}")


def _check_pair(rows: RowErrors, z: np.ndarray, w: np.ndarray, inside=_inside) -> None:
    _check_disc(rows, z, "z", inside)
    _check_disc(rows, w, "w", inside)


@dataclass(frozen=True)
class MobiusMap:
    """Disc automorphism z -> e^{i theta} (z - a) / (1 - conj(a) z); theta and a are numbers, or one per row."""

    theta: float
    a: complex = 0j
    _: KW_ONLY
    errors: InitVar[RowErrors | None] = None

    def __post_init__(self, errors):
        (theta, a), rows, single = _batch(errors, self.theta, self.a)
        rows.flag(~np.isfinite(theta.real), "theta must be finite")
        _check_disc(rows, a, "a")
        theta, a = _unbatch((theta.real, a), single)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "a", a)

    @cached_property
    def rotation(self):
        """e^{i theta}, one number or one per row; computed once, for every evaluation of the map and its matrix."""
        return np.exp(1j * np.asarray(self.theta))


def mobius_apply(m: MobiusMap, z, *, errors: RowErrors | None = None):
    """Evaluate the automorphism at a disc point, or at each row (one map for all, or one per row)."""
    (z, a), rows, single = _batch(errors, z, m.a)  # theta and a share one shape
    _check_disc(rows, z, "z")
    return _unbatch(m.rotation * (z - a) / (1.0 - a.conjugate() * z), single)


def mobius_apply_pair(m: MobiusMap, p, *, errors: RowErrors | None = None):
    """Apply the same automorphism to both bidisc coordinates."""
    return mobius_apply(m, p[0], errors=errors), mobius_apply(m, p[1], errors=errors)


def pseudo_hyperbolic(z, w, *, errors: RowErrors | None = None):
    """rho(z, w) = |z - w| / |1 - conj(z) w|, in [0, 1) on the bidisc.

    conj(z) w comes from separately rounded float products (see
    rng._times): conj(w) z adds the same two products to its real part
    and has the exact negative imaginary part, so rho(w, z) == rho(z, w)
    bit for bit.
    """
    return _rho(z, w, errors, _inside)


def _rho(z, w, errors: RowErrors | None, inside):
    """pseudo_hyperbolic, the pair held to the disc rule ``inside``: ``_on_disc`` for images the package computed."""
    (z, w), rows, single = _batch(errors, z, w)
    _check_pair(rows, z, w, inside)
    re, im = _times(z.conjugate(), w)
    return _unbatch(np.abs(z - w) / np.abs((1.0 - re) + 1j * im), single)


MOBIUS_DRAWS = 3


def random_mobius(u, rmax: float = DEFAULT_RMAX, *, errors: RowErrors | None = None) -> MobiusMap:
    """The automorphism of 3 uniforms, or one per row of an (n, 3) block.

    Angle tau u0, centre the area-uniform rmax-disc point of (u1, u2).
    """
    u = np.asarray(u, dtype=float)
    return MobiusMap(math.tau * u[..., 0], disc_from_uniforms(u[..., 1], u[..., 2], rmax), errors=errors)
