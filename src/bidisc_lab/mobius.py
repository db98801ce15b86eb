"""Automorphisms of the unit disc and the pseudo-hyperbolic invariant.

Every automorphism of the open unit disc D is

    z  |->  e^{i theta} (z - a) / (1 - conj(a) z),      |a| < 1,

and the pair (theta, a) is the parameterization used throughout.  The
group acts diagonally on the bidisc D x D, and the quantity it leaves
invariant there is the pseudo-hyperbolic modulus

    rho(z, w) = |z - w| / |1 - conj(z) w|.

Composition and inversion are carried out in closed form on the
(theta, a) parameters, so group elements never degrade into raw
fractional-linear coefficient soup.

The ``*_array`` twins evaluate the same formulas elementwise on complex
arrays for the batched suites.  They skip the argument checks;
``outside_disc`` is the array form of the disc check, and callers apply
it themselves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .rng import DEFAULT_RMAX, disc_from_uniforms

TOL_BOUNDARY = 1e-9


def _require_finite(z: complex, name: str) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must have finite components, got {z!r}")


def _require_disc(z: complex, name: str) -> None:
    _require_finite(z, name)
    if abs(z) >= 1.0 - TOL_BOUNDARY:
        raise ValueError(f"{name} must lie strictly inside the unit disc, got |{name}| = {abs(z)}")


def outside_disc(z: np.ndarray) -> np.ndarray:
    """Mask of the entries that the scalar disc check rejects (non-finite ones included)."""
    return ~(np.abs(z) < 1.0 - TOL_BOUNDARY)


@dataclass(frozen=True)
class MobiusMap:
    """Disc automorphism z -> e^{i theta} (z - a) / (1 - conj(a) z)."""

    theta: float
    a: complex = 0j

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "a", complex(self.a))
        _require_disc(self.a, "a")


IDENTITY = MobiusMap(0.0, 0j)


def mobius_apply(m: MobiusMap, z: complex) -> complex:
    """Evaluate the automorphism at a disc point."""
    _require_disc(z, "z")
    return cmath.exp(1j * m.theta) * (z - m.a) / (1.0 - m.a.conjugate() * z)


def mobius_apply_array(theta: np.ndarray, a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Array twin of mobius_apply, one automorphism (theta, a) per entry."""
    return np.exp(1j * theta) * (z - a) / (1.0 - a.conjugate() * z)


def mobius_apply_pair(m: MobiusMap, p: tuple[complex, complex]) -> tuple[complex, complex]:
    """Apply the same automorphism to both bidisc coordinates."""
    return mobius_apply(m, p[0]), mobius_apply(m, p[1])


def mobius_compose(m1: MobiusMap, m2: MobiusMap) -> MobiusMap:
    """Composite m1 o m2 in (theta, a) form.

    With u = e^{i theta2} + a1 conj(a2) and v = a1 + a2 e^{i theta2},
    the composite has centre v/u and angle theta1 - theta2 + 2 arg(u);
    |v| < |u| always, since |u|^2 - |v|^2 = (1-|a1|^2)(1-|a2|^2).
    """
    e2 = cmath.exp(1j * m2.theta)
    u = e2 + m1.a * m2.a.conjugate()
    v = m1.a + m2.a * e2
    theta = math.remainder(m1.theta - m2.theta + 2.0 * cmath.phase(u), math.tau)
    return MobiusMap(theta, v / u)


def mobius_inverse(m: MobiusMap) -> MobiusMap:
    """Inverse automorphism: (theta, a) -> (-theta, -a e^{i theta})."""
    theta = math.remainder(-m.theta, math.tau)
    return MobiusMap(theta, -m.a * cmath.exp(1j * m.theta))


def pseudo_hyperbolic(z: complex, w: complex) -> float:
    """rho(z, w) = |z - w| / |1 - conj(z) w|, in [0, 1) on the bidisc."""
    _require_disc(z, "z")
    _require_disc(w, "w")
    return abs(z - w) / abs(1.0 - z.conjugate() * w)


def pseudo_hyperbolic_array(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Array twin of pseudo_hyperbolic."""
    return np.abs(z - w) / np.abs(1.0 - z.conjugate() * w)


MOBIUS_DRAWS = 3


def random_mobius(u, rmax: float = DEFAULT_RMAX) -> MobiusMap:
    """The automorphism of 3 uniforms: angle tau u0, centre the area-uniform rmax-disc point of (u1, u2)."""
    return MobiusMap(math.tau * float(u[0]), complex(disc_from_uniforms(u[1], u[2], rmax)))
