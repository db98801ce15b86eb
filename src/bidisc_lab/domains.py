"""Model domains, orbit families, and the level conversions between them.

Three ambient pictures occur:

* the bidisc D^2 in C^2, foliated by the pseudo-hyperbolic level sets
  rho = const,
* the affine quadric {z1^2 + z2^2 - z3^2 = 1} in C^3, sliced by the
  Minkowski form |z1|^2 + |z2|^2 - |z3|^2 and by the orientation
  condition Im(z2 (conj(z1) + conj(z3))) > 0,
* its projective closure in CP^3, where the part at infinity
  (first homogeneous coordinate zero) is a complex curve.

Membership predicates return (bool, margin): the margin is the signed
distance of the worst constraint from satisfaction, positive when the
point is inside.  Strict inequalities are decided as-is in floating
point; equality constraints are tested against a scale-aware slack, so
a point's distance-from-quadric is judged relative to the size of its
coordinates.  Points within ~1e-9 of a boundary are inherently
ambiguous and are reported, never asserted on.

minkowski_form, quadric_residual and im_condition work elementwise on
complex arrays as well.  The ``*_array`` twins of the level conversions
and of the quadric-st margins serve the batched suites; they skip the
argument checks, which their callers apply themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mobius import pseudo_hyperbolic

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


def alpha_from_a(a: float) -> float:
    """Level parameter of the rho = a hypersurface: 8/a^4 - 8/a^2 + 1."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie in (0, 1), got {a}")
    inv2 = 1.0 / (a * a)
    return 8.0 * inv2 * inv2 - 8.0 * inv2 + 1.0


def a_from_alpha(alpha: float) -> float:
    """Inverse of alpha_from_a on (0, 1).

    Solves 8 x^2 - 8 x + (1 - alpha) = 0 for x = 1/a^2; the root
    x = (1 + sqrt((alpha+1)/2)) / 2 is the one with x > 1.
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    x = 0.5 * (1.0 + math.sqrt(0.5 * (alpha + 1.0)))
    return 1.0 / math.sqrt(x)


def eta_level(alpha: float) -> float:
    """Minkowski level sqrt((alpha + 1) / 2) of the hypersurface indexed by alpha."""
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return math.sqrt(0.5 * (alpha + 1.0))


def alpha_from_a_array(a: np.ndarray) -> np.ndarray:
    """Array twin of alpha_from_a."""
    inv2 = 1.0 / (a * a)
    return 8.0 * inv2 * inv2 - 8.0 * inv2 + 1.0


def a_from_alpha_array(alpha: np.ndarray) -> np.ndarray:
    """Array twin of a_from_alpha."""
    x = 0.5 * (1.0 + np.sqrt(0.5 * (alpha + 1.0)))
    return 1.0 / np.sqrt(x)


def eta_level_array(alpha: np.ndarray) -> np.ndarray:
    """Array twin of eta_level."""
    return np.sqrt(0.5 * (alpha + 1.0))


class ProjectivePoint:
    """Point of CP^3 held as a nonzero homogeneous 4-vector."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.asarray(coords, dtype=complex)
        if c.shape != (4,):
            raise ValueError("a projective point needs exactly 4 homogeneous coordinates")
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("homogeneous coordinates must be finite")
        if np.max(np.abs(c)) == 0.0:
            raise ValueError("homogeneous coordinates must not all vanish")
        self.coords = c
        self.coords.setflags(write=False)

    def __repr__(self):
        return f"ProjectivePoint({list(self.coords)})"


def projective_equal(p: ProjectivePoint, q: ProjectivePoint, tol: float = 1e-10) -> bool:
    """Equality in CP^3: all 2x2 minors of [p; q] vanish, relative to the coordinate scales."""
    a, b = p.coords, q.coords
    scale = np.max(np.abs(a)) * np.max(np.abs(b))
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(a[i] * b[j] - a[j] * b[i]) > tol * scale:
                return False
    return True


# ---------------------------------------------------------------------------
# domain and orbit descriptions

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


_ORBIT_TAGS = frozenset(
    {"fa", "eta-level", "ball-ellipsoid", "ball-complex-curve", "ball-real-slice"}
)


@dataclass(frozen=True)
class OrbitSpec:
    """Tagged description of one orbit family."""

    tag: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.tag not in _ORBIT_TAGS:
            raise ValueError(f"unknown orbit tag {self.tag!r}")

    @classmethod
    def fa(cls, a: float):
        if not 0.0 < a < 1.0:
            raise ValueError(f"need 0 < a < 1, got {a}")
        return cls("fa", (a,))

    @classmethod
    def eta(cls, level: float):
        if not level > 1.0:
            raise ValueError(f"need level > 1, got {level}")
        return cls("eta-level", (level,))

    @classmethod
    def ball_ellipsoid(cls, t: float):
        if not 0.0 < t < 1.0:
            raise ValueError(f"need 0 < t < 1, got {t}")
        return cls("ball-ellipsoid", (t,))

    @classmethod
    def ball_complex_curve(cls):
        return cls("ball-complex-curve")

    @classmethod
    def ball_real_slice(cls):
        return cls("ball-real-slice")


# ---------------------------------------------------------------------------
# membership

def _pair(p) -> tuple[complex, complex]:
    if isinstance(p, ProjectivePoint) or len(p) != 2:
        raise ValueError("this domain lives in C^2; pass a pair (z1, z2)")
    return complex(p[0]), complex(p[1])


def _triple(p) -> tuple[complex, complex, complex]:
    if isinstance(p, ProjectivePoint) or len(p) != 3:
        raise ValueError("this domain lives in C^3; pass a triple (z1, z2, z3)")
    return complex(p[0]), complex(p[1]), complex(p[2])


def _affine_quadric_margins(z1, z2, z3, s, t) -> list[float]:
    m = minkowski_form(z1, z2, z3)
    scale = max(1.0, max(abs(z1), abs(z2), abs(z3)) ** 2)
    margins = [
        m - s,
        QUADRIC_EQ_TOL * scale - abs(quadric_residual(z1, z2, z3)),
        im_condition(z1, z2, z3),
    ]
    if math.isfinite(t):
        margins.append(t - m)
    return margins


def quadric_st_margin_array(z1, z2, z3, s, t) -> np.ndarray:
    """Array twin of the quadric-st membership margin; t may be inf."""
    m = minkowski_form(z1, z2, z3)
    scale = np.maximum(1.0, np.maximum(np.maximum(np.abs(z1), np.abs(z2)), np.abs(z3)) ** 2)
    worst = np.minimum(m - s, QUADRIC_EQ_TOL * scale - np.abs(quadric_residual(z1, z2, z3)))
    return np.minimum(np.minimum(worst, im_condition(z1, z2, z3)), t - m)


def contains(spec: DomainSpec, p) -> tuple[bool, float]:
    """Membership with margin.

    Returns (inside, margin) where margin is the minimum over the
    domain's constraints of their signed satisfaction distance; the
    point is inside iff every constraint is strictly satisfied.
    """
    tag = spec.tag
    if tag == "bidisc":
        z1, z2 = _pair(p)
        margins = [1.0 - abs(z1), 1.0 - abs(z2)]
    elif tag == "bidisc-r":
        z1, z2 = _pair(p)
        (r,) = spec.params
        margins = [1.0 - abs(z1), 1.0 - abs(z2)]
        if min(margins) > 0.0:
            margins.append(r - pseudo_hyperbolic(z1, z2))
    elif tag == "bidisc-st":
        z1, z2 = _pair(p)
        s, t = spec.params
        margins = [1.0 - abs(z1), 1.0 - abs(z2)]
        if min(margins) > 0.0:
            rho = pseudo_hyperbolic(z1, z2)
            margins += [rho - s, t - rho]
    elif tag == "ball":
        u, v = _pair(p)
        margins = [1.0 - (_abs2(u) + _abs2(v))]
    elif tag == "quadric-st":
        z1, z2, z3 = _triple(p)
        s, t = spec.params
        margins = _affine_quadric_margins(z1, z2, z3, s, t)
    elif tag == "quadric-proj":
        if not isinstance(p, ProjectivePoint):
            raise ValueError("quadric-proj membership needs a ProjectivePoint")
        (s,) = spec.params
        h = p.coords
        hmax = float(np.max(np.abs(h)))
        if abs(h[0]) <= CHART_TOL * hmax:
            margins = _infinity_margins(h)
        else:
            z1, z2, z3 = h[1] / h[0], h[2] / h[0], h[3] / h[0]
            margins = _affine_quadric_margins(z1, z2, z3, s, math.inf)
    elif tag == "diagonal-curve":
        z1, z2 = _pair(p)
        margins = [1.0 - abs(z1), 1.0 - abs(z2), QUADRIC_EQ_TOL - abs(z1 - z2)]
    elif tag == "infinity-curve":
        if not isinstance(p, ProjectivePoint):
            raise ValueError("infinity-curve membership needs a ProjectivePoint")
        margins = _infinity_margins(p.coords)
    else:  # unreachable; tags validated at construction
        raise ValueError(f"unknown domain tag {tag!r}")
    worst = float(min(margins))
    return worst > 0.0, worst


def _infinity_margins(h) -> list[float]:
    hmax = float(np.max(np.abs(h)))
    z1, z2, z3 = h[1], h[2], h[3]
    q_hom = z1 * z1 + z2 * z2 - z3 * z3  # homogeneous: no -1 term at infinity
    return [
        CHART_TOL * hmax - abs(h[0]),
        QUADRIC_EQ_TOL * hmax * hmax - abs(q_hom),
        im_condition(z1, z2, z3),
    ]


def on_orbit_residual(spec: OrbitSpec, p) -> float:
    """Distance of a point from an orbit's defining equations (0 when on it)."""
    tag = spec.tag
    if tag == "fa":
        z1, z2 = _pair(p)
        return abs(pseudo_hyperbolic(z1, z2) - spec.params[0])
    if tag == "eta-level":
        z1, z2, z3 = _triple(p)
        level = spec.params[0]
        if im_condition(z1, z2, z3) <= 0.0:
            return math.inf
        return max(
            abs(quadric_residual(z1, z2, z3)), abs(minkowski_form(z1, z2, z3) - level)
        )
    if tag == "ball-ellipsoid":
        u, v = _pair(p)
        t = spec.params[0]
        return abs(_abs2(u) + t * t * _abs2(v) - t * t)
    if tag == "ball-complex-curve":
        u, v = _pair(p)
        return abs(u)
    if tag == "ball-real-slice":
        u, v = _pair(p)
        return max(abs(u.imag), abs(v.imag))
    raise ValueError(f"unknown orbit tag {tag!r}")
