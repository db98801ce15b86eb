"""Model domains, their membership predicates, and the level conversions between them.

Two ambient pictures occur:

* the bidisc D^2 in C^2, foliated by the pseudo-hyperbolic level sets
  F_a = {rho = a} and the diagonal {rho = 0}, a complex curve;
* the affine quadric {z1^2 + z2^2 - z3^2 = 1} in C^3, sliced by the
  Minkowski form |z1|^2 + |z2|^2 - |z3|^2 and by the orientation
  condition Im(z2 (conj(z1) + conj(z3))) > 0.

The paper's subdomains are unions of orbits of the diagonal subgroup:
``rho_band`` is the union of the levels between two bounds, the
diagonal included when the lower bound is negative, and
``quadric_band`` is its image under map_H, a band of Minkowski levels.
The orbit families themselves are the records of ``orbits.FAMILIES``.

Both predicates return (inside, margin): the margin is the signed
distance of the worst constraint from satisfaction, positive when the
point is inside.  Strict inequalities are decided as-is in floating
point; equality constraints are tested against a scale-aware slack, so
a point's distance-from-quadric is judged relative to the size of its
coordinates.  Points within ~1e-9 of a boundary are inherently
ambiguous and are reported, never asserted on.

Every function of a point here also takes a batch of rows (see
``rng``): the level conversions check each row, and the others work
elementwise.
"""

from __future__ import annotations

import numpy as np

from .mobius import _inside, pseudo_hyperbolic
from .rng import RowErrors, _batch, _size, _unbatch

# equality-constraint slack, scaled by max(1, |z|_inf^2)
QUADRIC_EQ_TOL = 1e-9


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def minkowski_form(z1: complex, z2: complex, z3: complex) -> float:
    """|z1|^2 + |z2|^2 - |z3|^2."""
    return _abs2(z1) + _abs2(z2) - _abs2(z3)


def quadric_residual(z1: complex, z2: complex, z3: complex) -> complex:
    """z1^2 + z2^2 - z3^2 - 1; zero exactly on the affine quadric."""
    return z1 * z1 + z2 * z2 - z3 * z3 - 1.0


def im_condition(z1: complex, z2: complex, z3: complex) -> float:
    """Im(z2 (conj(z1) + conj(z3))); the selected component has it positive."""
    return (z2 * (z1.conjugate() + z3.conjugate())).imag


def alpha_from_a(a, *, errors: RowErrors | None = None):
    """Level parameter of the rho = a hypersurface: 8/a^4 - 8/a^2 + 1."""
    (a,), rows, single = _batch(errors, a, dtype=float)
    rows.flag(~((0.0 < a) & (a < 1.0)), lambda r: f"a must lie in (0, 1), got {a[r]}")
    inv2 = 1.0 / (a * a)
    return _unbatch(8.0 * inv2 * inv2 - 8.0 * inv2 + 1.0, single)


def a_from_alpha(alpha, *, errors: RowErrors | None = None):
    """Inverse of alpha_from_a on (0, 1).

    Solves 8 x^2 - 8 x + (1 - alpha) = 0 for x = 1/a^2; the root
    x = (1 + sqrt((alpha+1)/2)) / 2 is the one with x > 1.
    """
    (alpha,), rows, single = _batch(errors, alpha, dtype=float)
    rows.flag(~(alpha > 1.0), lambda r: f"alpha must exceed 1, got {alpha[r]}")
    x = 0.5 * (1.0 + np.sqrt(0.5 * (alpha + 1.0)))
    return _unbatch(1.0 / np.sqrt(x), single)


def eta_level(alpha, *, errors: RowErrors | None = None):
    """Minkowski level sqrt((alpha + 1) / 2) of the hypersurface indexed by alpha."""
    (alpha,), rows, single = _batch(errors, alpha, dtype=float)
    rows.flag(alpha < 1.0, lambda r: f"alpha must be >= 1, got {alpha[r]}")
    return _unbatch(np.sqrt(0.5 * (alpha + 1.0)), single)


def rho_band(z, w, lo: float, hi: float):
    """The bidisc pairs with lo < rho(z, w) < hi: a union of the levels F_a, the diagonal when lo < 0.

    Returns (inside, margin); lo may be -inf.  The margin is
    min(1 - |z|, 1 - |w|, rho - lo, hi - rho) on the rows whose points
    both keep the disc rule (``mobius._inside``), and min(1 - |z|,
    1 - |w|, 0) on the others: a pair within TOL_BOUNDARY of the circle
    reads (False, 0.0), as one on it does.
    """
    if not lo < hi <= 1.0:
        raise ValueError(f"need lo < hi <= 1, got ({lo}, {hi})")
    (z, w), _, single = _batch(None, z, w)
    inside = _inside(z) & _inside(w)
    rho = pseudo_hyperbolic(np.where(inside, z, 0.0), np.where(inside, w, 0.0))
    worst = np.minimum(1.0 - np.abs(z), 1.0 - np.abs(w))
    worst = np.minimum(worst, np.where(inside, np.minimum(rho - lo, hi - rho), 0.0))
    return _unbatch((worst > 0.0, worst), single)


def quadric_band(z1, z2, z3, s, t):
    """The points of the affine quadric with s < minkowski_form < t and im_condition > 0; t may be inf.

    Returns (inside, margin); s and t are numbers or one per row.  map_H
    carries rho_band(lo, hi) off the diagonal onto the band
    s = 2/hi^2 - 1, t = 2/lo^2 - 1.
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if not np.all((1.0 <= s) & (s < t)):
        raise ValueError(f"need 1 <= s < t (t = inf allowed), got ({s}, {t})")
    (z1, z2, z3), _, single = _batch(None, z1, z2, z3)
    m = minkowski_form(z1, z2, z3)
    worst = np.minimum(m - s, QUADRIC_EQ_TOL * _size(z1, z2, z3) ** 2 - np.abs(quadric_residual(z1, z2, z3)))
    worst = np.minimum(np.minimum(worst, im_condition(z1, z2, z3)), t - m)
    return _unbatch((worst > 0.0, worst), single)
