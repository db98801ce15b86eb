"""Explicit maps between the bidisc and its quadric models.

Off the diagonal, the bidisc embeds into the affine quadric
{z1^2 + z2^2 - z3^2 = 1} by

    H(z, w) = ( (1 - z w) / (z - w),
                i (1 + z w) / (z - w),
                -i (z + w) / (z - w) ),

and into CP^3, diagonal included, by the homogeneous variant

    J(z, w) = ( z - w : 1 - z w : i (1 + z w) : -i (z + w) ),

so J = (z - w) (1 : H) wherever both are defined; J sends the diagonal
to the quadric's curve at infinity, where the first coordinate vanishes.
H is odd under the coordinate swap: H(w, z) = -H(z, w).  Through H, a
diagonal automorphism acts linearly, by ``groups.so21_image``, and the
swap by -I.

The inverse of H is algebraic: z - w = 2 / (h1 - i h2) fixes the
ordering, and z + w = i h3 (z - w), so (z, w) is the half sum and half
difference of the two.  The reproduction test, that H(z, w) gives h
back, is the domain check.

Every map takes a point or a batch of rows (see ``rng``) and checks each
row.
"""

from __future__ import annotations

import numpy as np

from .mobius import _check_pair, _inside
from .rng import RowErrors, _batch, _size, _times, _unbatch

EPS_DIAG = 1e-6
_ROUNDTRIP_TOL = 1e-9


def sym(z1, z2):
    """Symmetrization (z1 + z2, z1 z2); invariant under the coordinate swap, exactly."""
    (z1, z2), rows, single = _batch(None, z1, z2)
    zw = np.empty(z1.shape, dtype=complex)
    zw.real, zw.imag = _times(z1, z2)
    return _unbatch((z1 + z2, zw), single)


def map_J(z, w, *, errors: RowErrors | None = None):
    """Homogeneous quadric embedding; defined on the whole bidisc: its four coordinates, as map_H gives its three."""
    (z, w), rows, single = _batch(errors, z, w)
    _check_pair(rows, z, w)
    zw = z * w
    return _unbatch((z - w, 1.0 - zw, 1j * (1.0 + zw), -1j * (z + w)), single)


def _cdiv(ar: np.ndarray, ai: np.ndarray, br: np.ndarray, bi: np.ndarray, den: np.ndarray) -> np.ndarray:
    # (ar + i ai) / (br + i bi), den = br^2 + bi^2, for denominators of modulus >= EPS_DIAG,
    # where the textbook formula neither overflows nor underflows
    out = np.empty(np.shape(den), dtype=complex)
    out.real = (ar * br + ai * bi) / den
    out.imag = (ai * br - ar * bi) / den
    return out


def map_H(z, w, *, errors: RowErrors | None = None):
    """Affine quadric embedding; needs |z - w| >= 1e-6 to stay well conditioned.

    Computed on real and imaginary parts: float products commute
    exactly, so map_H(w, z) == -map_H(z, w) bit for bit (see rng._times).
    """
    return _map_H(z, w, errors, _inside)


def _map_H(z, w, errors: RowErrors | None, inside):
    """map_H, the pair held to the disc rule ``inside``: ``_on_disc`` for images the package computed."""
    (z, w), rows, single = _batch(errors, z, w)
    _check_pair(rows, z, w, inside)
    rows.flag(np.abs(z - w) < EPS_DIAG, "point too close to the diagonal for the affine chart")
    zr, zi, wr, wi = z.real, z.imag, w.real, w.imag
    dr, di = zr - wr, zi - wi
    pr, pi = _times(z, w)  # zw
    # 1 - zw, i (1 + zw) and -i (z + w) over z - w; 0 - pi keeps the signed zeros of complex arithmetic
    numerators = ((1.0 - pr, 0.0 - pi), (-pi, 1.0 + pr), (zi + wi, -(zr + wr)))
    den = dr * dr + di * di
    return _unbatch(tuple(_cdiv(ar, ai, dr, di, den) for ar, ai in numerators), single)


def map_H_inv(h1, h2, h3, *, errors: RowErrors | None = None):
    """Invert the affine quadric embedding.

    z - w = 2 / (h1 - i h2) fixes the ordering; the reproduction test is
    the domain check: a row fails if map_H(z, w) does not give h back (h
    then lies off the image, e.g. off the quadric or with roots on the
    unit circle).
    """
    (h1, h2, h3), rows, single = _batch(errors, h1, h2, h3)
    rows.flag(~(np.isfinite(h1) & np.isfinite(h2) & np.isfinite(h3)), "h must have finite components")
    trial = RowErrors(len(h1))
    with np.errstate(all="ignore"):  # the rows that the checks flag may carry any value
        den = h1 - 1j * h2
        scale = _size(h1, h2, h3)
        rows.flag(np.abs(den) < 1e-12 * scale, "h1 - i h2 vanishes; the pair difference is not recoverable")
        d = 2.0 / den  # z - w
        s = 1j * h3 * d  # z + w
        z, w = 0.5 * (s + d), 0.5 * (s - d)
        back = map_H(z, w, errors=trial)
        err = np.maximum(np.maximum(np.abs(back[0] - h1), np.abs(back[1] - h2)), np.abs(back[2] - h3))
    off_image = ~(trial.ok & (err <= _ROUNDTRIP_TOL * scale))
    rows.flag(off_image, "input does not lie on the embedded bidisc within tolerance")
    return _unbatch((z, w), single)


def scale_g_t(t, p, *, errors: RowErrors | None = None):
    """(u, v) -> (u/t, v); carries the ellipsoid |u|^2 + t^2 |v|^2 = t^2 onto the sphere."""
    (t, u, v), rows, single = _batch(errors, t, p[0], p[1])
    t = t.real
    rows.flag(~((0.0 < t) & (t < 1.0)), lambda r: f"need 0 < t < 1, got {t[r]}")
    return _unbatch((u / t, v), single)
