"""The orbit families, one record each, their seeded samplers, and a CSV dump.

``FAMILIES`` holds one ``FamilyRecord`` per family: the rho levels F_a,
their Minkowski levels on the quadric, the ball's ellipsoids, sphere,
real slice and complex curve, and the flat control.  A record owns what
the package knows of its family, None where it has nothing: dimension,
CLI name, parameter condition, the defining function ``levi`` certifies,
the orbit residual and the sampler.  A ``Family`` is a record with its
parameter, checked once, when the Family is built.

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
200,000 Eta rows did).  The Minkowski level sampler applies map_H's
checks to each row: at a large level the pairs crowd the diagonal.

A dump draws row i from the uniforms [i k, (i + 1) k) of the stream
(seed, 0), with k = ``spec.record.draws``, in blocks of BLOCK rows, so
``orbit_point(spec, uniform_block(seed, 0, k, i, i + 1)[0])`` replays
row i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import _abs2, im_condition, minkowski_form, quadric_residual
from .groups import ball_action, random_su11, so21_sample, su11_embed
from .maps import Pair, map_H_checked
from .mobius import TOL_BOUNDARY, mobius_apply_array, pseudo_hyperbolic
from .rng import DEFAULT_RMAX, DEFAULT_SEED, disc_from_uniforms, polar, uniform_block

BLOCK = 1024  # rows per block of a dump; never changes a byte of it


class RowErrors:
    """The first failed check of each row of a batch.

    ``ok[r]`` turns False when row r fails a check, and ``message[r]``
    then holds that check's ValueError message; later checks never
    overwrite it.
    """

    def __init__(self, n: int):
        self.ok = np.ones(n, dtype=bool)
        self.message = np.full(n, None, dtype=object)

    def flag(self, bad: np.ndarray, message: str) -> None:
        bad = bad & self.ok
        self.ok[bad] = False
        self.message[bad] = message

    def check(self, bad: np.ndarray, fn: Callable, *args) -> None:
        """Flag the rows in ``bad`` that the scalar ``fn``, called on the row's arguments, rejects with its message."""
        for r in np.flatnonzero(bad & self.ok):  # array arguments are indexed by row
            try:
                fn(*(a[r].item() if isinstance(a, np.ndarray) else a for a in args))
            except ValueError as exc:
                self.ok[r] = False
                self.message[r] = str(exc)

    def raise_first(self) -> None:
        failed = np.flatnonzero(~self.ok)
        if failed.size:
            raise ValueError(self.message[failed[0]])


# ---------------------------------------------------------------------------
# samplers; the parameter checks live in the records below


def rho_orbit_point(u: np.ndarray, a, rmax: float = DEFAULT_RMAX):
    """Bidisc pairs (phi(a), phi(0)) at pseudo-hyperbolic distance a, one per row of u.

    phi has angle tau u0 and centre the area-uniform rmax-disc point of
    (u1, u2).  The diagonal automorphism group acts transitively on the
    level set, so these images of the base pair (a, 0) cover it.  u is
    an (n, 3) block; a is a number or one per row.
    """
    theta = math.tau * u[:, 0]
    c = disc_from_uniforms(u[:, 1], u[:, 2], rmax)
    return mobius_apply_array(theta, c, a), mobius_apply_array(theta, c, np.zeros_like(c))


def minkowski_orbit_point(u: np.ndarray, level: float, rmax: float, errors: RowErrors):
    """Points of the quadric hypersurface at the given Minkowski level, one per row of an (n, 3) block u.

    Pushes the rho_orbit_point pairs at distance a through the embedding,
    where a is chosen so that 2/a^2 - 1 equals the requested level.  A
    row whose pair map_H rejects is flagged in ``errors`` with map_H's
    message.
    """
    z, w = rho_orbit_point(u, math.sqrt(2.0 / (level + 1.0)), rmax)
    with np.errstate(all="ignore"):  # the flagged rows' values are meaningless
        return map_H_checked(errors, z, w)


def ellipsoid_orbit_point(u, t: float) -> Pair:
    """The point of the ellipsoid |u|^2 + t^2 |v|^2 = t^2 that 3 uniforms give (see random_su11)."""
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


def _row_by_row(point: Callable) -> Callable:
    """The block sampler that calls the scalar ``point(row, param)`` on one row of u at a time."""
    return lambda u, param, rmax, errors: tuple(np.array([point(row, param) for row in u], dtype=complex).T)


# ---------------------------------------------------------------------------
# defining-function pieces too long for a record


def _conj_times(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """conj(z) w from separately rounded float products.

    numpy's complex multiply may fuse them, and then the last bits of a
    stencil value, which the second differences amplify by 1/h^2, would
    depend on the build rather than on the formula.
    """
    out = np.empty(np.shape(z), dtype=complex)
    out.real = z.real * w.real + z.imag * w.imag
    out.imag = z.real * w.imag - z.imag * w.real
    return out


def _rho_gradient(z, a):
    a2 = a * a
    return (
        (z[0] - z[1]).conjugate() + a2 * z[1].conjugate() * (1.0 - z[0].conjugate() * z[1]),
        -(z[0] - z[1]).conjugate() + a2 * z[0].conjugate() * (1.0 - z[0] * z[1].conjugate()),
    )


def _rho_hessian(P, a):
    z1, z2 = P[:, 0], P[:, 1]
    a2 = a * a
    h12 = -1.0 + a2 * (1.0 - z1.conjugate() * z2)
    H = np.empty((len(P), 2, 2), dtype=complex)
    H[:, 0, 0] = 1.0 - a2 * _abs2(z2)
    H[:, 0, 1] = h12
    H[:, 1, 0] = h12.conjugate()
    H[:, 1, 1] = 1.0 - a2 * _abs2(z1)
    return H


def _diagonal_hessian(P, *diagonal):
    """The same diagonal complex Hessian at every row, for the functions quadratic in the |z_k|^2."""
    return np.broadcast_to(np.diag(diagonal).astype(complex), (len(P), len(diagonal), len(diagonal))).copy()


def _quadric_row(P):
    """The gradient 2 (z1, z2, -z3) of the holomorphic quadric z1^2 + z2^2 - z3^2 = 1."""
    Q = 2.0 * P
    Q[:, 2] = -Q[:, 2]
    return Q


# bidisc-like ambients must leave the stencil room; coordinate-bounded
# ambients reject points whose coordinates already touch the unit circle
_BIDISC_AMBIENT = (1.0 - 1e-3, "point too close to the ambient boundary for the FD stencil")
_BALL_AMBIENT = (1.0 - TOL_BOUNDARY, "a coordinate touches the unit circle; ambient check failed")


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True, eq=False)
class FamilyRecord:
    """What the package knows of one orbit family; None where it has nothing.

    ``value(P, param)``, ``gradient(P.T, param)`` and ``hessian(P, param)``
    take an (n, dim) batch P.  ``ambient`` is (bound, message): a row with
    a coordinate of modulus >= bound fails the stencil's ambient check.
    ``residual(p, param)`` takes one point as a tuple of complex numbers,
    ``sampler(u, param, rmax, errors)`` an (n, draws) block of uniforms.
    """

    name: str
    dim: int
    cli: str | None = None
    need: str | None = None  # the parameter condition; None for a family without parameter
    admits: Callable[[float], bool] | None = None
    value: Callable | None = None
    gradient: Callable | None = None
    hessian: Callable | None = None
    ambient: tuple[float, str] | None = None
    constraint: Callable | None = None  # a holomorphic constraint row the complex tangent also annihilates
    residual: Callable | None = None
    sampler: Callable | None = None
    draws: int = 0


RHO_LEVEL = FamilyRecord(
    "rho-level", 2, cli="Fa", need="need 0 < a < 1", admits=lambda a: 0.0 < a < 1.0,
    # r = |z1 - z2|^2 - a^2 |1 - conj(z1) z2|^2 on the bidisc; zero set rho = a
    value=lambda P, a: _abs2(P[:, 0] - P[:, 1]) - a * a * _abs2(1.0 - _conj_times(P[:, 0], P[:, 1])),
    gradient=_rho_gradient, hessian=_rho_hessian, ambient=_BIDISC_AMBIENT,
    residual=lambda p, a: abs(pseudo_hyperbolic(*p) - a),
    sampler=lambda u, a, rmax, errors: rho_orbit_point(u, a, rmax), draws=3,
)
MINKOWSKI_LEVEL = FamilyRecord(
    "minkowski-level", 3, cli="Eta", need="need level > 1", admits=lambda level: level > 1.0,
    # r = level - (|z1|^2 + |z2|^2 - |z3|^2) on the affine quadric
    value=lambda P, level: level - (_abs2(P[:, 0]) + _abs2(P[:, 1]) - _abs2(P[:, 2])),
    gradient=lambda z, level: (-z[0].conjugate(), -z[1].conjugate(), z[2].conjugate()),
    hessian=lambda P, level: _diagonal_hessian(P, -1.0, -1.0, 1.0), constraint=_quadric_row,
    residual=lambda p, level: (
        math.inf if im_condition(*p) <= 0.0 else max(abs(quadric_residual(*p)), abs(minkowski_form(*p) - level))
    ),
    sampler=lambda u, level, rmax, errors: minkowski_orbit_point(u, level, rmax, errors), draws=3,
)
ELLIPSOID = FamilyRecord(
    "ellipsoid", 2, cli="Ellipsoid", need="need 0 < t < 1", admits=lambda t: 0.0 < t < 1.0,
    # r = |u|^2 + t^2 |v|^2 - t^2: the embedded SU(1,1) orbit of (t, 0) in the ball
    value=lambda P, t: _abs2(P[:, 0]) + t * t * _abs2(P[:, 1]) - t * t,
    gradient=lambda z, t: (z[0].conjugate(), t * t * z[1].conjugate()),
    hessian=lambda P, t: _diagonal_hessian(P, 1.0, t * t), ambient=_BALL_AMBIENT,
    residual=lambda p, t: abs(_abs2(p[0]) + t * t * _abs2(p[1]) - t * t),
    sampler=_row_by_row(lambda row, t: ellipsoid_orbit_point(row, t)), draws=3,
)
SPHERE = FamilyRecord(
    "sphere", 2,
    value=lambda P, _: _abs2(P[:, 0]) + _abs2(P[:, 1]) - 1.0,  # r = |u|^2 + |v|^2 - 1
    gradient=lambda z, _: (z[0].conjugate(), z[1].conjugate()),
    hessian=lambda P, _: _diagonal_hessian(P, 1.0, 1.0), ambient=_BALL_AMBIENT,
    sampler=lambda u, _, rmax, errors: sphere_point(u), draws=3,
)
FLAT_CONTROL = FamilyRecord(
    "flat-control", 2, need="need c > 0", admits=lambda c: c > 0.0,
    # r = |z1|^2 - c^2; a Levi-flat circle bundle used to calibrate FD noise
    value=lambda P, c: _abs2(P[:, 0]) - c * c,
    gradient=lambda z, c: (z[0].conjugate(), np.zeros_like(z[0])),
    hessian=lambda P, c: _diagonal_hessian(P, 1.0, 0.0), ambient=_BIDISC_AMBIENT,
)
REAL_SLICE = FamilyRecord(
    "real-slice", 2, cli="RealSlice",
    residual=lambda p, _: max(abs(p[0].imag), abs(p[1].imag)),
    sampler=_row_by_row(lambda row, _: real_slice_point(row)), draws=3,
)
COMPLEX_CURVE = FamilyRecord(
    "complex-curve", 2, cli="ComplexCurve",
    residual=lambda p, _: abs(p[0]),
    sampler=lambda u, _, rmax, errors: complex_curve_point(u, rmax), draws=2,
)

FAMILIES = (RHO_LEVEL, MINKOWSKI_LEVEL, ELLIPSOID, SPHERE, FLAT_CONTROL, REAL_SLICE, COMPLEX_CURVE)
_BY_CLI = {record.cli: record for record in FAMILIES if record.cli is not None}


@dataclass(frozen=True)
class Family:
    """One family of the table with its parameter (None for a family without one)."""

    record: FamilyRecord
    param: float | None = None

    def __post_init__(self):
        record, x = self.record, self.param
        if record.need is None:
            if x is not None:
                raise ValueError(f"{record.name} takes no parameter, got {x}")
        elif x is None:
            raise ValueError(f"{record.name} needs a parameter: {record.need}")
        elif not math.isfinite(x):
            raise ValueError(f"the {record.name} parameter must be finite, got {x}")
        elif not record.admits(x):
            raise ValueError(f"{record.need}, got {x}")


def on_orbit_residual(spec: Family, p) -> float:
    """Distance of a point from an orbit's defining equations (0 when on it)."""
    p = tuple(complex(c) for c in p)
    if spec.record.residual is None or len(p) != spec.record.dim:
        raise ValueError(f"no {spec.record.name} orbit residual for a point of C^{len(p)}")
    return spec.record.residual(p, spec.param)


def orbit_points(spec: Family, u: np.ndarray, rmax: float, errors: RowErrors):
    """The coordinate arrays of the points that the rows of the (n, spec.record.draws) block u give.

    A row that fails one of the sampler's checks is flagged in ``errors``.
    """
    if spec.record.sampler is None:
        raise ValueError(f"{spec.record.name} has no sampler")
    return spec.record.sampler(u, spec.param, rmax, errors)


def orbit_point(spec: Family, u: np.ndarray, rmax: float = DEFAULT_RMAX):
    """The point of the orbit described by spec that one row of spec.record.draws uniforms gives."""
    errors = RowErrors(1)
    coords = orbit_points(spec, np.asarray(u, dtype=float)[None, :], rmax, errors)
    errors.raise_first()
    return tuple(c[0].item() for c in coords)


def parse_orbit_spec(text: str) -> Family:
    """Parse a CLI orbit description: Fa:0.8, Eta:2.125, Ellipsoid:0.5,
    RealSlice or ComplexCurve."""
    head, sep, tail = text.partition(":")
    record = _BY_CLI.get(head.strip())
    if record is None:
        raise ValueError(f"unknown orbit spec {text!r}")
    if record.need is None:
        if sep:
            raise ValueError(f"{record.cli} takes no parameter")
        return Family(record)
    if not sep:
        raise ValueError(f"{record.cli} needs a parameter: {record.need}")
    try:
        x = float(tail)
    except ValueError:
        raise ValueError(f"bad orbit parameter {tail!r}") from None
    return Family(record, x)


def dump_orbit(
    spec: Family,
    n: int,
    path: str,
    seed: int = DEFAULT_SEED,
    rmax: float = DEFAULT_RMAX,
) -> None:
    """Write n orbit samples as CSV.

    Columns are the real and imaginary parts of each coordinate followed
    by the orbit-equation residual, all at 17 significant digits.  A row
    that fails one of its sampler's checks is a ValueError that names
    the row, and nothing is written.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    record = spec.record
    if record.residual is None:
        raise ValueError(f"{record.name} has no orbit residual to dump")
    lines = []
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        errors = RowErrors(hi - lo)
        coords = orbit_points(spec, uniform_block(seed, 0, record.draws, lo, hi), rmax, errors)
        failed = np.flatnonzero(~errors.ok)
        if failed.size:
            raise ValueError(f"row {lo + failed[0]} of the {record.cli or record.name} dump: {errors.message[failed[0]]}")
        for p in zip(*(c.tolist() for c in coords)):
            flat = [x for z in p for x in (z.real, z.imag)]
            flat.append(record.residual(p, spec.param))
            lines.append(",".join(f"{x:.17g}" for x in flat))
    header = ",".join(f"x{j},y{j}" for j in range(1, len(p) + 1)) + ",residual"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n" + "\n".join(lines) + "\n")
