"""Model domains, their membership predicates, and the level conversions between them.

Three ambient pictures occur:

* the bidisc D^2 in C^2, foliated by the pseudo-hyperbolic level sets
  rho = const,
* the affine quadric {z1^2 + z2^2 - z3^2 = 1} in C^3, sliced by the
  Minkowski form |z1|^2 + |z2|^2 - |z3|^2 and by the orientation
  condition Im(z2 (conj(z1) + conj(z3))) > 0,
* its projective closure in CP^3, where the part at infinity
  (first homogeneous coordinate zero) is a complex curve.

A ``DomainSpec`` names a domain: a union of orbits, or the projective
closure.  The orbit families themselves are the records of
``orbits.FAMILIES``.

Membership predicates return (bool, margin): the margin is the signed
distance of the worst constraint from satisfaction, positive when the
point is inside.  Strict inequalities are decided as-is in floating
point; equality constraints are tested against a scale-aware slack, so
a point's distance-from-quadric is judged relative to the size of its
coordinates.  Points within ~1e-9 of a boundary are inherently
ambiguous and are reported, never asserted on.

Every function of a point here also takes a batch of rows (see
``rng``): minkowski_form, quadric_residual and im_condition work
elementwise as they are; the level conversions and ``contains`` (for the
domains of C^2 and C^3) check each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mobius import pseudo_hyperbolic
from .rng import RowErrors, _batch, _collector, _unbatch

# equality-constraint slack, scaled by max(1, |z|_inf^2)
QUADRIC_EQ_TOL = 1e-9
# relative threshold below which a homogeneous coordinate counts as zero
CHART_TOL = 1e-12


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


def _check_projective(rows: RowErrors, c: np.ndarray) -> None:
    """Flag the rows of homogeneous coordinates c, shape (n, 4), that name no point of CP^3."""
    rows.flag(~np.isfinite(c).all(axis=1), "homogeneous coordinates must be finite")
    rows.flag(np.abs(c).max(axis=1) == 0.0, "homogeneous coordinates must not all vanish")


class ProjectivePoint:
    """Point of CP^3 held as a nonzero homogeneous 4-vector."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.asarray(coords, dtype=complex)
        if c.shape != (4,):
            raise ValueError("a projective point needs exactly 4 homogeneous coordinates")
        _check_projective(_collector(None, 1), c[None])
        self.coords = c
        self.coords.setflags(write=False)

    def __repr__(self):
        return f"ProjectivePoint({list(self.coords)})"


# ---------------------------------------------------------------------------
# domain descriptions

_DOMAIN_TAGS = frozenset(
    {
        "bidisc",
        "bidisc-r",
        "bidisc-st",
        "ball",
        "quadric-st",
        "quadric-proj",
        "diagonal-curve",
        "infinity-curve",
    }
)


@dataclass(frozen=True)
class DomainSpec:
    """Tagged description of one of the model domains."""

    tag: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.tag not in _DOMAIN_TAGS:
            raise ValueError(f"unknown domain tag {self.tag!r}")

    @classmethod
    def bidisc(cls):
        return cls("bidisc")

    @classmethod
    def bidisc_r(cls, r: float):
        if not 0.0 < r < 1.0:
            raise ValueError(f"need 0 < r < 1, got {r}")
        return cls("bidisc-r", (r,))

    @classmethod
    def bidisc_st(cls, s: float, t: float):
        if not 0.0 <= s < t <= 1.0:
            raise ValueError(f"need 0 <= s < t <= 1, got ({s}, {t})")
        return cls("bidisc-st", (s, t))

    @classmethod
    def ball(cls):
        return cls("ball")

    @classmethod
    def quadric_st(cls, s: float, t: float):
        if not (1.0 <= s < t):
            raise ValueError(f"need 1 <= s < t (t = inf allowed), got ({s}, {t})")
        return cls("quadric-st", (s, t))

    @classmethod
    def quadric_proj(cls, s: float):
        if not s >= 1.0:
            raise ValueError(f"need s >= 1, got {s}")
        return cls("quadric-proj", (s,))

    @classmethod
    def diagonal_curve(cls):
        return cls("diagonal-curve")

    @classmethod
    def infinity_curve(cls):
        return cls("infinity-curve")


# ---------------------------------------------------------------------------
# membership

def _coords(p, dim: int):
    if isinstance(p, ProjectivePoint) or len(p) != dim:
        what = "a pair (z1, z2)" if dim == 2 else "a triple (z1, z2, z3)"
        raise ValueError(f"this domain lives in C^{dim}; pass {what}")
    return p


def _quadric_margin(z1, z2, z3, s, t):
    """The affine quadric-st margin; t may be inf."""
    m = minkowski_form(z1, z2, z3)
    scale = np.maximum(1.0, np.maximum(np.maximum(np.abs(z1), np.abs(z2)), np.abs(z3)) ** 2)
    worst = np.minimum(m - s, QUADRIC_EQ_TOL * scale - np.abs(quadric_residual(z1, z2, z3)))
    return np.minimum(np.minimum(worst, im_condition(z1, z2, z3)), t - m)


def contains(spec: DomainSpec, p, *, errors: RowErrors | None = None):
    """Membership with margin.

    Returns (inside, margin) where margin is the minimum over the
    domain's constraints of their signed satisfaction distance; the
    point is inside iff every constraint is strictly satisfied.  The
    domains of C^2 and C^3 also take a batch: p's coordinates one per
    row.  The projective ones take a ProjectivePoint.
    """
    tag = spec.tag
    if tag in ("quadric-proj", "infinity-curve"):
        if not isinstance(p, ProjectivePoint):
            raise ValueError(f"{tag} membership needs a ProjectivePoint")
        h = p.coords
        if tag == "quadric-proj" and abs(h[0]) > CHART_TOL * float(np.max(np.abs(h))):
            worst = float(_quadric_margin(h[1] / h[0], h[2] / h[0], h[3] / h[0], spec.params[0], math.inf))
        else:
            worst = float(min(_infinity_margins(h)))
        return worst > 0.0, worst
    z, rows, single = _batch(errors, *_coords(p, 3 if tag == "quadric-st" else 2))
    if tag == "ball":
        worst = 1.0 - (_abs2(z[0]) + _abs2(z[1]))
    elif tag == "quadric-st":
        worst = _quadric_margin(*z, *spec.params)
    else:
        worst = np.minimum(1.0 - np.abs(z[0]), 1.0 - np.abs(z[1]))
    if tag == "diagonal-curve":
        worst = np.minimum(worst, QUADRIC_EQ_TOL - np.abs(z[0] - z[1]))
    elif tag in ("bidisc-r", "bidisc-st"):
        # rho is taken on the rows inside the bidisc only: pseudo_hyperbolic rejects the others
        inside = worst > 0.0
        rho = pseudo_hyperbolic(np.where(inside, z[0], 0.0), np.where(inside, z[1], 0.0), errors=rows)
        if tag == "bidisc-r":
            rho_margin = spec.params[0] - rho
        else:
            rho_margin = np.minimum(rho - spec.params[0], spec.params[1] - rho)
        worst = np.where(inside, np.minimum(worst, rho_margin), worst)
    return _unbatch((worst > 0.0, worst), single)


def _infinity_margins(h) -> list[float]:
    hmax = float(np.max(np.abs(h)))
    z1, z2, z3 = h[1], h[2], h[3]
    q_hom = z1 * z1 + z2 * z2 - z3 * z3  # homogeneous: no -1 term at infinity
    return [
        CHART_TOL * hmax - abs(h[0]),
        QUADRIC_EQ_TOL * hmax * hmax - abs(q_hom),
        im_condition(z1, z2, z3),
    ]
