"""Seeded samplers for the group orbits, and a CSV dump for plotting.

Every sampler produces points lying on its orbit by construction: a
base point with the orbit equation satisfied exactly is pushed around
by random group elements, so the dumped residual column records only
floating-point drift.  The drift is relative to the point's size: a
small multiple of eps * max(1, |p|^2), with |p| the Euclidean norm of
the point and eps = 2.2e-16 (measured below 5 eps * max(1, |p|^2) over
40,000 points of each CLI orbit at the default rmax).  On the rho
orbits it carries a further factor 1 / (1 - max_k |z_k|^2), since rho
loses digits near the unit circle.  The quadric orbits reach
|p|^2 ~ 10^3, so their absolute residuals approach 1e-12 and can
exceed it (seed 42, Eta:2.125: 1.14e-12).
"""

from __future__ import annotations

import math

from .domains import OrbitSpec, on_orbit_residual
from .groups import ball_action, random_su11, so21_sample, su11_embed
from .maps import map_H
from .mobius import mobius_apply_pair, random_mobius
from .rng import DEFAULT_RMAX, RngStream, sample_disc

DEFAULT_SEED = 42

Pair = tuple[complex, complex]
Triple = tuple[complex, complex, complex]


def rho_orbit_point(rng: RngStream, a: float, rmax: float = DEFAULT_RMAX) -> Pair:
    """Random bidisc pair at pseudo-hyperbolic distance a.

    The diagonal automorphism group acts transitively on the level set,
    so a random Mobius image of the base pair (a, 0) covers it.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"need 0 < a < 1, got {a}")
    phi = random_mobius(rng, rmax)
    return mobius_apply_pair(phi, (complex(a), 0j))


def minkowski_orbit_point(rng: RngStream, level: float, rmax: float = DEFAULT_RMAX) -> Triple:
    """Random point of the quadric hypersurface at the given Minkowski level.

    Pushes a distance-a pair through the embedding, where a is chosen so
    that 2/a^2 - 1 equals the requested level.
    """
    if not level > 1.0:
        raise ValueError(f"need level > 1, got {level}")
    a = math.sqrt(2.0 / (level + 1.0))
    return map_H(*rho_orbit_point(rng, a, rmax))


def ellipsoid_orbit_point(rng: RngStream, t: float) -> Pair:
    """Random point of the ellipsoid |u|^2 + t^2 |v|^2 = t^2 inside the ball."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"need 0 < t < 1, got {t}")
    g = su11_embed(*random_su11(rng))
    return ball_action(g, (complex(t), 0j))


def sphere_point(rng: RngStream) -> Pair:
    """Uniform point of the unit sphere |u|^2 + |v|^2 = 1 in C^2."""
    while True:
        x = rng.gen.standard_normal(4)
        n = math.sqrt(float(x @ x))
        if n > 1e-6:
            return (complex(x[0], x[1]) / n, complex(x[2], x[3]) / n)


def real_slice_point(rng: RngStream) -> Pair:
    """Random point of the totally real slice, reached by a Lorentz action on (0, 0)."""
    A = so21_sample(rng)
    return ball_action(A, (0j, 0j))


def complex_curve_point(rng: RngStream, rmax: float = DEFAULT_RMAX) -> Pair:
    """Random point of the complex curve {u = 0} inside the ball."""
    return (0j, sample_disc(rng, rmax))


def orbit_point(spec: OrbitSpec, rng: RngStream, rmax: float = DEFAULT_RMAX):
    """Draw one random point of the orbit described by spec."""
    if spec.tag == "fa":
        return rho_orbit_point(rng, spec.params[0], rmax)
    if spec.tag == "eta-level":
        return minkowski_orbit_point(rng, spec.params[0], rmax)
    if spec.tag == "ball-ellipsoid":
        return ellipsoid_orbit_point(rng, spec.params[0])
    if spec.tag == "ball-real-slice":
        return real_slice_point(rng)
    if spec.tag == "ball-complex-curve":
        return complex_curve_point(rng, rmax)
    raise ValueError(f"no sampler for orbit tag {spec.tag!r}")


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
    rng = RngStream(seed, 0)
    rows = []
    width = None
    for _ in range(n):
        p = orbit_point(spec, rng, rmax)
        if width is None:
            width = len(p)
        res = on_orbit_residual(spec, p)
        flat = []
        for z in p:
            z = complex(z)
            flat.extend((z.real, z.imag))
        flat.append(res)
        rows.append(flat)
    header = [f"x{k},y{k}" for k in range(1, width + 1)]
    lines = [",".join(header) + ",residual"]
    for flat in rows:
        lines.append(",".join(f"{x:.17g}" for x in flat))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
