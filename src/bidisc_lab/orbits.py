"""Seeded samplers for the group orbits, and a CSV dump for plotting.

Every sampler produces points lying on its orbit by construction: a
base point with the orbit equation satisfied exactly is pushed around
by a group element drawn from the sample's uniforms, so the dumped
residual column records only floating-point drift.  The drift is
relative to the point's size: a small multiple of eps * max(1, |p|^2),
with |p| the Euclidean norm of the point and eps = 2.2e-16.  On the rho
orbits it carries a further factor 1 / (1 - max_k |z_k|^2), since rho
loses digits near the unit circle.  Measured over 40,000 points of each
CLI orbit (Fa:0.8, Eta:2.125, Ellipsoid:0.5, RealSlice, ComplexCurve)
at the default rmax and seeds 1 to 5, the largest multiple was 5.15,
on Eta:2.125 (Fa:0.8 0.94 with its further factor, Ellipsoid:0.5 1.5,
the other two 0).  The quadric orbits reach |p|^2 ~ 10^3, so their
absolute residuals approach 1e-12 and can exceed it (12 of those
200,000 Eta rows did).

A dump draws row i from the uniforms [i k, (i + 1) k) of the stream
(seed, 0), with k = ``ORBIT_DRAWS[spec.tag]``, in blocks of BLOCK rows,
so ``orbit_point(spec, uniform_block(seed, 0, k, i, i + 1)[0])``
replays row i.
"""

from __future__ import annotations

import math

import numpy as np

from .domains import OrbitSpec, on_orbit_residual
from .groups import ball_action, random_su11, so21_sample, su11_embed
from .maps import Pair, map_H_array
from .mobius import mobius_apply_array
from .rng import DEFAULT_RMAX, DEFAULT_SEED, disc_from_uniforms, polar, uniform_block

BLOCK = 1024  # rows per block of a dump; never changes a byte of it


def rho_orbit_point(u: np.ndarray, a, rmax: float = DEFAULT_RMAX):
    """Bidisc pairs (phi(a), phi(0)) at pseudo-hyperbolic distance a, one per row of u.

    phi has angle tau u0 and centre the area-uniform rmax-disc point of
    (u1, u2).  The diagonal automorphism group acts transitively on the
    level set, so these images of the base pair (a, 0) cover it.  u is
    an (n, 3) block; a is a number or one per row.
    """
    if not np.all((0.0 < np.asarray(a)) & (np.asarray(a) < 1.0)):
        raise ValueError(f"need 0 < a < 1, got {a}")
    theta = math.tau * u[:, 0]
    c = disc_from_uniforms(u[:, 1], u[:, 2], rmax)
    return mobius_apply_array(theta, c, a), mobius_apply_array(theta, c, np.zeros_like(c))


def minkowski_orbit_point(u: np.ndarray, level: float, rmax: float = DEFAULT_RMAX):
    """Points of the quadric hypersurface at the given Minkowski level, one per row of an (n, 3) block u.

    Pushes the rho_orbit_point pairs at distance a through the embedding,
    where a is chosen so that 2/a^2 - 1 equals the requested level.
    """
    if not level > 1.0:
        raise ValueError(f"need level > 1, got {level}")
    return map_H_array(*rho_orbit_point(u, math.sqrt(2.0 / (level + 1.0)), rmax))


def ellipsoid_orbit_point(u, t: float) -> Pair:
    """The point of the ellipsoid |u|^2 + t^2 |v|^2 = t^2 that 3 uniforms give (see random_su11)."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"need 0 < t < 1, got {t}")
    g = su11_embed(*random_su11(u))
    return ball_action(g, (complex(t), 0j))


def sphere_point(u: np.ndarray):
    """Uniform points (sqrt(s) e^{i t1}, sqrt(1 - s) e^{i t2}) of the unit sphere in C^2.

    One per row of the (n, 3) block u, whose columns are s, t1 / tau and
    t2 / tau; |u|^2 of a uniform point of the sphere is uniform on [0, 1].
    """
    s = u[:, 0]
    return polar(np.sqrt(s), math.tau * u[:, 1]), polar(np.sqrt(1.0 - s), math.tau * u[:, 2])


def real_slice_point(u) -> Pair:
    """The point of the totally real slice that a Lorentz action (see so21_sample) carries (0, 0) to."""
    return ball_action(so21_sample(u), (0j, 0j))


def complex_curve_point(u: np.ndarray, rmax: float = DEFAULT_RMAX):
    """Points (0, v) of the complex curve {u = 0}, v area-uniform on the rmax disc, one per row of u (n, 2)."""
    v = disc_from_uniforms(u[:, 0], u[:, 1], rmax)
    return np.zeros_like(v), v


# orbit tag -> (uniforms per point, whether the sampler takes a block of rows, sampler(params, u, rmax))
_SAMPLERS = {
    "fa": (3, True, lambda params, u, rmax: rho_orbit_point(u, params[0], rmax)),
    "eta-level": (3, True, lambda params, u, rmax: minkowski_orbit_point(u, params[0], rmax)),
    "ball-ellipsoid": (3, False, lambda params, u, rmax: ellipsoid_orbit_point(u, params[0])),
    "ball-real-slice": (3, False, lambda params, u, rmax: real_slice_point(u)),
    "ball-complex-curve": (2, True, lambda params, u, rmax: complex_curve_point(u, rmax)),
}
ORBIT_DRAWS = {tag: entry[0] for tag, entry in _SAMPLERS.items()}


def _sampler(spec: OrbitSpec):
    if spec.tag not in _SAMPLERS:
        raise ValueError(f"no sampler for orbit tag {spec.tag!r}")
    return _SAMPLERS[spec.tag]


def orbit_point(spec: OrbitSpec, u: np.ndarray, rmax: float = DEFAULT_RMAX):
    """The point of the orbit described by spec that one row of ORBIT_DRAWS[spec.tag] uniforms gives."""
    return _orbit_rows(spec, np.asarray(u, dtype=float)[None, :], rmax)[0]


def _orbit_rows(spec: OrbitSpec, u: np.ndarray, rmax: float) -> list:
    """The points of the rows of u; a row's point is the same in any block, a block of one included."""
    _, batched, sample = _sampler(spec)
    if batched:
        return list(zip(*(c.tolist() for c in sample(spec.params, u, rmax))))
    return [sample(spec.params, row, rmax) for row in u]


def parse_orbit_spec(text: str) -> OrbitSpec:
    """Parse a CLI orbit description: Fa:0.8, Eta:2.125, Ellipsoid:0.5,
    RealSlice or ComplexCurve."""
    head, sep, tail = text.partition(":")
    head = head.strip()
    if head == "RealSlice":
        if sep:
            raise ValueError("RealSlice takes no parameter")
        return OrbitSpec.ball_real_slice()
    if head == "ComplexCurve":
        if sep:
            raise ValueError("ComplexCurve takes no parameter")
        return OrbitSpec.ball_complex_curve()
    if head in ("Fa", "Eta", "Ellipsoid"):
        if not sep:
            raise ValueError(f"{head} needs a parameter, e.g. {head}:0.8")
        try:
            x = float(tail)
        except ValueError:
            raise ValueError(f"bad orbit parameter {tail!r}") from None
        if head == "Fa":
            return OrbitSpec.fa(x)
        if head == "Eta":
            return OrbitSpec.eta(x)
        return OrbitSpec.ball_ellipsoid(x)
    raise ValueError(f"unknown orbit spec {text!r}")


def dump_orbit(
    spec: OrbitSpec,
    n: int,
    path: str,
    seed: int = DEFAULT_SEED,
    rmax: float = DEFAULT_RMAX,
) -> None:
    """Write n orbit samples as CSV.

    Columns are the real and imaginary parts of each coordinate followed
    by the orbit-equation residual, all at 17 significant digits.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    k = _sampler(spec)[0]
    lines = []
    for lo in range(0, n, BLOCK):
        for p in _orbit_rows(spec, uniform_block(seed, 0, k, lo, min(lo + BLOCK, n)), rmax):
            flat = [x for z in p for x in (z.real, z.imag)]
            flat.append(on_orbit_residual(spec, p))
            lines.append(",".join(f"{x:.17g}" for x in flat))
    header = ",".join(f"x{j},y{j}" for j in range(1, len(p) + 1)) + ",residual"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n" + "\n".join(lines) + "\n")
