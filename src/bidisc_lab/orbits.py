"""The orbit families, one record each, their seeded samplers, and a CSV dump.

``FAMILIES`` holds one ``FamilyRecord`` per family: the rho levels F_a,
their Minkowski levels on the quadric, the ball's ellipsoids, sphere,
real slice and complex curve, and the flat control.  A record owns what
the package knows of its family, None where it has nothing: dimension,
CLI name, parameter condition, the defining function ``levi`` certifies,
the orbit residual and the sampler.  A ``Family`` is a record with its
parameter, a number or one per row of a batch, every entry checked
once, when the Family is built.

Every sampler produces points lying on its orbit by construction: a
base point with the orbit equation satisfied exactly is pushed around
by a group element drawn from the sample's uniforms, so the dumped
residual column records only floating-point drift.  The drift is
relative to the point's size, a multiple of eps * max(1, |p|^2) with |p|
the Euclidean norm of the point and eps = 2.2e-16:

* On the Minkowski levels the multiple grows with the level, as map_H
  divides by z - w of size about sqrt(2 / (level + 1)): it stays below
  5 + sqrt(level + 1).  Measured over 20,000 rows at each of seeds 1 to
  5 and 42, the largest multiples were 4.6 at level 1.5, 5.2 at 2.125
  (40,000 rows, seeds 1 to 5), 9.2 at 100, 74 at 10^4, 690 at 10^6 and
  22,500 at 10^9.  These orbits reach |p|^2 ~ 10^3 at level 2.125, so
  their absolute residuals approach 1e-12 and can exceed it (11 of
  those 200,000 rows did).
* On the rho orbits it carries a further factor 1 / (1 - max_k
  |z_k|^2), since rho loses digits near the unit circle; the other
  families need none.  Over the same 40,000 rows of Fa:0.8,
  Ellipsoid:0.5, RealSlice and ComplexCurve the largest multiples were
  1.4, 1.0, 0 and 0.

The samplers apply their checks to each row.  The Minkowski level
sampler applies map_H's: at a large level the pairs crowd the diagonal.
The rho level sampler fails a row whose pair does not resolve the
level, |rho - a| not below a: below about eps times the automorphism
centre's modulus, phi(a) rounds onto phi(0).  It and the rho level
residual hold that pair, computed from the checked level, only to being
finite and inside the disc (``mobius._on_disc``), not to the margin a
caller's point keeps.

A dump draws row i from the uniforms [i k, (i + 1) k) of the stream
(seed, 0), with k = ``spec.record.draws``, so
``orbit_point(spec, uniform_block(seed, 0, k, i, i + 1)[0])`` replays
row i.  It samples and checks BLOCK rows at a time and formats CHUNK
rows at a time; neither size changes a byte of the file.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import _abs2, im_condition, minkowski_form, quadric_residual
from .groups import ball_action, so21_image, su11_embed
from .maps import map_H
from .mobius import _on_disc, _rho, mobius_apply, random_mobius
from .rng import (
    DEFAULT_RMAX,
    DEFAULT_SEED,
    RowErrors,
    _collector,
    _row_max,
    _times,
    disc_from_uniforms,
    polar,
    uniform_block,
)

BLOCK = 4096  # rows a dump samples and checks at a time, as suites.BLOCK
CHUNK = 1024  # rows a dump formats at a time: 4096 would raise the traced peak of a 40,000-row Eta dump by 3.0 MB


# ---------------------------------------------------------------------------
# samplers, one per record, each (u, param, rmax, errors) with u an (n, draws) block of
# uniforms and the centres of phi = random_mobius(u, rmax) on the rmax disc; the parameter
# checks live in the records below


def _rho_pair(u, a, rmax, errors):
    """Bidisc pairs (phi(a), phi(0)) at pseudo-hyperbolic distance a, one per row of u.

    The diagonal automorphism group acts transitively on the level set,
    so these images of the base pair (a, 0) cover it.
    """
    phi = random_mobius(u, rmax, errors=errors)
    return mobius_apply(phi, a, errors=errors), mobius_apply(phi, 0j, errors=errors)


def _rho_level_sampler(u, a, rmax, errors):
    """_rho_pair, with each row whose pair does not resolve the level (|rho - a| >= a) flagged."""
    z, w = _rho_pair(u, a, rmax, errors)
    gap = np.abs(_rho(z, w, errors, _on_disc) - a)
    rounds = "its pair rounds onto the diagonal: |rho - a| = "
    a = np.broadcast_to(a, gap.shape)
    errors.flag(~(gap < a), lambda r: f"{rounds}{gap[r]:.3g} is not below a = {a[r]:g}")
    return z, w


def _minkowski_level_sampler(u, level, rmax, errors):
    """map_H of the _rho_pair pairs at the distance a with 2/a^2 - 1 = level; map_H flags the rows it rejects."""
    return map_H(*_rho_pair(u, np.sqrt(2.0 / (level + 1.0)), rmax, errors), errors=errors)


def _ellipsoid_sampler(u, t, rmax, errors):
    """Points of the ellipsoid |u|^2 + t^2 |v|^2 = t^2: su11_embed(phi) moves the base point (t, 0)."""
    return ball_action(su11_embed(random_mobius(u, rmax, errors=errors)), (t, 0j), errors=errors)


def _sphere_sampler(u, _, rmax, errors):
    """Uniform points (sqrt(s) e^{i t1}, sqrt(1 - s) e^{i t2}) of the unit sphere in C^2, whatever the rmax.

    The columns of u are s, t1 / tau and t2 / tau; |u|^2 of a uniform
    point of the sphere is uniform on [0, 1].
    """
    s = u[:, 0]
    return polar(np.sqrt(s), math.tau * u[:, 1]), polar(np.sqrt(1.0 - s), math.tau * u[:, 2])


def _flat_control_sampler(u, c, rmax, errors):
    """(c e^{i tau u0}, z2) with z2 area-uniform on the 0.9 disc, whatever the rmax."""
    return polar(c, math.tau * u[:, 0]), disc_from_uniforms(u[:, 1], u[:, 2], 0.9)


def _real_slice_sampler(u, _, rmax, errors):
    """Points of the totally real slice: so21_image(phi) carries the origin there."""
    return ball_action(so21_image(random_mobius(u, rmax, errors=errors)), (0j, 0j), errors=errors)


def _complex_curve_sampler(u, _, rmax, errors):
    """Points (0, v) of the complex curve {u = 0}, v area-uniform on the rmax disc."""
    v = disc_from_uniforms(u[:, 0], u[:, 1], rmax)
    return np.zeros_like(v), v


# ---------------------------------------------------------------------------
# defining-function pieces too long for a record


def _rho_value(P, a):
    """|z1 - z2|^2 - a^2 |1 - conj(z1) z2|^2, the product from separately rounded floats (see rng._times)."""
    re, im = _times(P[:, 0].conjugate(), P[:, 1])
    return _abs2(P[:, 0] - P[:, 1]) - a * a * ((1.0 - re) * (1.0 - re) + im * im)


def _rho_gradient(P, a):
    z1, z2 = P[:, 0], P[:, 1]
    a2 = a * a
    return np.column_stack([
        (z1 - z2).conjugate() + a2 * z2.conjugate() * (1.0 - z1.conjugate() * z2),
        -(z1 - z2).conjugate() + a2 * z1.conjugate() * (1.0 - z1 * z2.conjugate()),
    ])


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


def _diagonal_gradient(P, *diagonal):
    """The gradient (d_k conj(z_k)) of sum_k d_k |z_k|^2 at every row; a d_k is a number or one per row."""
    return P.conjugate() * np.stack(np.broadcast_arrays(*diagonal), axis=-1)


def _diagonal_hessian(P, *diagonal):
    """The diagonal complex Hessian diag(d_k) at every row, for the functions quadratic in the |z_k|^2."""
    k = range(len(diagonal))
    H = np.zeros((len(P), len(k), len(k)), dtype=complex)
    H[:, k, k] = np.stack(np.broadcast_arrays(*diagonal), axis=-1)
    return H


def _ellipsoid_value(p, t):
    """|u|^2 + t^2 |v|^2 - t^2 at p = (u, v): zero on the embedded SU(1,1) orbit of (t, 0) in the ball."""
    return _abs2(p[0]) + t * t * _abs2(p[1]) - t * t


def _quadric_row(P):
    """The gradient 2 (z1, z2, -z3) of the holomorphic quadric z1^2 + z2^2 - z3^2 = 1."""
    Q = 2.0 * P
    Q[:, 2] = -Q[:, 2]
    return Q


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True, eq=False)
class FamilyRecord:
    """What the package knows of one orbit family; None where it has nothing.

    ``value(P, param)``, ``gradient(P, param)`` and ``hessian(P, param)``
    take an (n, dim) batch P and give, per row, the defining function r,
    its exact Wirtinger gradient (dr/dz_j), shape (n, dim), and its
    complex Hessian (d^2 r / dz_j dconj(z_k)), shape (n, dim, dim).
    ``ambient`` is True for a family that lives in the bidisc or the
    ball: ``levi`` fails a row with a coordinate that breaks the disc
    rule (``mobius._inside``).
    ``residual(p, param, errors)`` takes a point's coordinates (numbers,
    or arrays with one entry per row), ``sampler(u, param, rmax, errors)``
    an (n, draws) block of uniforms.  All take param as a number or a 1-d
    array with one entry per row, which ``admits`` tests entry by entry.
    """

    name: str
    dim: int
    cli: str | None = None
    need: str | None = None  # the parameter condition; None for a family without parameter
    admits: Callable[[np.ndarray], np.ndarray] | None = None  # elementwise
    value: Callable | None = None
    gradient: Callable | None = None
    hessian: Callable | None = None
    ambient: bool = False
    constraint: Callable | None = None  # a holomorphic constraint row the complex tangent also annihilates
    residual: Callable | None = None
    sampler: Callable | None = None
    draws: int = 0


RHO_LEVEL = FamilyRecord(
    "rho-level", 2, cli="Fa", need="need 0 < a < 1", admits=lambda a: (0.0 < a) & (a < 1.0),
    # zero set rho = a on the bidisc
    value=_rho_value, gradient=_rho_gradient, hessian=_rho_hessian, ambient=True,
    residual=lambda p, a, errors: np.abs(_rho(*p, errors, _on_disc) - a),
    sampler=_rho_level_sampler, draws=3,
)
MINKOWSKI_LEVEL = FamilyRecord(
    "minkowski-level", 3, cli="Eta", need="need level > 1", admits=lambda level: level > 1.0,
    # r = level - (|z1|^2 + |z2|^2 - |z3|^2) on the affine quadric
    value=lambda P, level: level - minkowski_form(*P.T),
    gradient=lambda P, level: _diagonal_gradient(P, -1.0, -1.0, 1.0),
    hessian=lambda P, level: _diagonal_hessian(P, -1.0, -1.0, 1.0), constraint=_quadric_row,
    residual=lambda p, level, errors: np.where(
        im_condition(*p) <= 0.0, math.inf, np.maximum(np.abs(quadric_residual(*p)), np.abs(minkowski_form(*p) - level))
    ),
    sampler=_minkowski_level_sampler, draws=3,
)
ELLIPSOID = FamilyRecord(
    "ellipsoid", 2, cli="Ellipsoid", need="need 0 < t < 1", admits=lambda t: (0.0 < t) & (t < 1.0),
    value=lambda P, t: _ellipsoid_value(P.T, t),
    gradient=lambda P, t: _diagonal_gradient(P, 1.0, t * t),
    hessian=lambda P, t: _diagonal_hessian(P, 1.0, t * t), ambient=True,
    residual=lambda p, t, errors: np.abs(_ellipsoid_value(p, t)),
    sampler=_ellipsoid_sampler, draws=3,
)
SPHERE = FamilyRecord(
    "sphere", 2,
    value=lambda P, _: _abs2(P[:, 0]) + _abs2(P[:, 1]) - 1.0,  # r = |u|^2 + |v|^2 - 1
    gradient=lambda P, _: _diagonal_gradient(P, 1.0, 1.0),
    hessian=lambda P, _: _diagonal_hessian(P, 1.0, 1.0), ambient=True,
    sampler=_sphere_sampler, draws=3,
)
FLAT_CONTROL = FamilyRecord(
    "flat-control", 2, need="need c > 0", admits=lambda c: c > 0.0,
    # r = |z1|^2 - c^2; a Levi-flat circle bundle, the control of the Levi suites
    value=lambda P, c: _abs2(P[:, 0]) - c * c,
    gradient=lambda P, c: _diagonal_gradient(P, 1.0, 0.0),
    hessian=lambda P, c: _diagonal_hessian(P, 1.0, 0.0), ambient=True,
    sampler=_flat_control_sampler, draws=3,
)
REAL_SLICE = FamilyRecord(
    "real-slice", 2, cli="RealSlice",
    residual=lambda p, _, errors: np.maximum(np.abs(p[0].imag), np.abs(p[1].imag)),
    sampler=_real_slice_sampler, draws=3,
)
COMPLEX_CURVE = FamilyRecord(
    "complex-curve", 2, cli="ComplexCurve",
    residual=lambda p, _, errors: np.abs(p[0]),
    sampler=_complex_curve_sampler, draws=2,
)

FAMILIES = (RHO_LEVEL, MINKOWSKI_LEVEL, ELLIPSOID, SPHERE, FLAT_CONTROL, REAL_SLICE, COMPLEX_CURVE)
_BY_CLI = {record.cli: record for record in FAMILIES if record.cli is not None}


@dataclass(frozen=True, eq=False)
class Family:
    """One family of the table with its parameter: None for a family without one, else a number or one per row."""

    record: FamilyRecord
    param: float | np.ndarray | None = None

    def __post_init__(self):
        record, x = self.record, self.param
        name = record.cli or record.name
        if record.need is None:
            if x is not None:
                raise ValueError(f"{name} takes no parameter, got {x}")
            return
        if x is None:
            raise ValueError(f"{name} needs a parameter: {record.need}")
        values = np.asarray(x, dtype=float)
        if values.ndim > 1:
            raise ValueError(f"the {name} parameter must be a number or one per row, got shape {values.shape}")
        if values.ndim:
            object.__setattr__(self, "param", values)
        for check, need in ((np.isfinite, f"the {name} parameter must be finite"), (record.admits, record.need)):
            good = check(values)
            if not good.all():  # name the number, or the first bad entry
                raise ValueError(f"{need}, got {values[np.argmax(~good)].item() if values.ndim else x}")


def orbit_points(spec: Family, u: np.ndarray, rmax: float, errors: RowErrors | None):
    """The coordinate arrays of the points that the rows of the (n, spec.record.draws) block u give.

    A row that fails one of the sampler's checks is flagged in ``errors``;
    without a collector, the first such row raises.
    """
    record = spec.record
    if record.sampler is None:
        raise ValueError(f"{record.name} has no sampler")
    if np.shape(u)[1:] != (record.draws,):
        raise ValueError(f"{record.name} takes rows of record.draws = {record.draws} uniforms, got shape {np.shape(u)}")
    errors = _collector(errors, len(u))
    with np.errstate(all="ignore"):  # the flagged rows' values are meaningless
        return record.sampler(u, spec.param, rmax, errors)


def orbit_point(spec: Family, u: np.ndarray):
    """The point of the orbit described by spec that one row of spec.record.draws uniforms gives."""
    u, k = np.asarray(u, dtype=float), spec.record.draws
    if u.shape != (k,):
        raise ValueError(f"{spec.record.name} takes one row of record.draws = {k} uniforms, got shape {u.shape}")
    coords = orbit_points(spec, u[None, :], DEFAULT_RMAX, None)
    return tuple(c[0].item() for c in coords)


def parse_orbit_spec(text: str) -> Family:
    """Parse a CLI orbit description: Fa:0.8, Eta:2.125, Ellipsoid:0.5,
    RealSlice or ComplexCurve."""
    head, sep, tail = text.partition(":")
    record = _BY_CLI.get(head.strip())
    if record is None:
        raise ValueError(f"unknown orbit spec {text!r}")
    try:
        x = float(tail) if sep else None
    except ValueError:
        raise ValueError(f"bad orbit parameter {tail!r}") from None
    return Family(record, x)


# ---------------------------------------------------------------------------
# the CSV row formatter

# A value takes a 32-byte slot of four 8-byte words: sign, "0.000", lead
# digit and "."; the next 16 digits, four groups of 4; the exponent, and the
# separator as the slot's last byte.  A zero byte is one the value leaves
# out.  In fixed notation with 1 <= k <= 16, k = floor(log10 |x|), digits 1
# to k move down one byte, over the ".", and the point follows them.
_SLOT = 32
_MAGNITUDE = 1e270  # the nonzero magnitudes the kernel of _format_rows formats lie in (1 / _MAGNITUDE, _MAGNITUDE)
_POWERS = 290  # 10^s for |s| <= _POWERS covers s = 16 - k there, each hi and lo a normal double
_TIE = 2.0**-40  # a scaled value this close to a half-integer needs an exact 10^s
# what comes before the lead digit, by kind of head word: exponent notation and k = 0 (kind 0, the only one that
# keeps its "."), k = -1 to -4 (kinds 1 to 4), 1 <= k <= 16 (kind 5)
_PREFIXES = ("", "0.", "0.0", "0.00", "0.000", "")


def _split(a):
    """Veltkamp's split of a into two halves of 26 bits each, a = high + low exactly."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _power(s):
    """10^s as the double-double hi + lo, hi correctly rounded."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    hi = num / den  # int / int rounds correctly
    h_num, h_den = hi.as_integer_ratio()
    return hi, (num * h_den - h_num * den) / (den * h_den)


def _words(strings, dtype):
    """Equal-length byte strings as the rows of an array of native words of the dtype."""
    return np.frombuffer(b"".join(strings), np.uint8).reshape(len(strings), -1).view(dtype)


@functools.cache
def _format_tables():
    """The tables of _format_rows, built on its first call; s + _POWERS indexes a table by s = 16 - k.

    By the biased binary exponent of |x|: the index of s for k0, the floor
    of log10 of the exponent's least power of two, and the least double
    >= 10^(k0 + 1), so that k = k0 + (|x| >= it) exactly; zero, and an
    exponent beyond the tables, read k = 0.  By s: 10^s as the double-double
    hi + lo (lo = 0 where hi is exact), 20 times the kind of head word, and
    the tail word, the exponent if any and the separator.  The head words by
    sign, kind, point and lead digit.  The 4-digit groups 0000 to 9999 as 4
    bytes, first without their trailing zeros, then whole.  For
    1 <= k <= 16, the order of bytes 7 to 23 that moves digits 1 to k down
    one byte, and by point the bytes put over them: "0" for a digit left
    out, then "." or nothing.
    """
    s = np.arange(-_POWERS, _POWERS + 1)
    hi, lo = np.array([_power(j) for j in s.tolist()]).T
    binary = np.floor((np.arange(2048) - 1023) * math.log10(2.0)).astype(np.int64)
    inside = (binary >= 16 - _POWERS) & (binary < _POWERS)  # 10^(k0 + 1) and 10^s for s = 14 - k0 to 16 - k0 have rows
    k0 = np.where(inside, binary, 0)
    ceilings = np.where(lo > 0.0, np.nextafter(hi, math.inf), hi)  # the least double >= 10^s
    decades = np.where(inside, ceilings[k0 + 1 + _POWERS], math.inf)

    k = 16 - s
    kinds = 20 * np.select([(k >= -4) & (k < 0), (k > 0) & (k <= 16)], [-k, len(_PREFIXES) - 1], 0)
    tails = [(f"e{j:+03d}" if j < -4 or j > 16 else "").ljust(7, "\0") + "," for j in k.tolist()]
    heads = [
        sign + prefix.ljust(5, "\0") + str(d) + ("." if point and kind == 0 else "\0")
        for sign in "\0-" for kind, prefix in enumerate(_PREFIXES) for point in (0, 1) for d in range(10)
    ]
    g = np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
    whole = (ord("0") + g).astype(np.uint8)
    trailing = np.cumprod(g[:, ::-1] == 0, axis=1)[:, ::-1] == 1  # the zeros after the group's last nonzero digit
    digits = np.concatenate([whole * ~trailing, whole]).view(np.uint32)[:, 0]

    p, j = np.arange(17), np.arange(17)[:, None]  # byte 7 + p, at k = j
    order = np.where(p < j, p + 1, np.where(p == j, 0, p))
    fill = np.repeat(np.where(p < j, ord("0"), 0).astype(np.uint8), 2, axis=0)  # row 2 k + point
    fill[2 * p + 1, p] = ord(".")
    heads, tails = (_words([w.encode() for w in words], np.uint64)[:, 0] for words in (heads, tails))
    return (_POWERS + 16 - k0, decades), (hi, lo), kinds, heads, tails, digits, order, fill


def _scaled_digits(x):
    """Per value: the index of 10^s, D = round-half-even(|x| 10^s) as lead 10^16 + rest, and whether "%" formats it.

    s = 16 - k, k = floor(log10 |x|) of the rounded value, so that D has
    17 digits.  With 10^s = h + l, a h = p + e exactly by Dekker's product;
    e + a l carries the rest to far below 2^-40.  p is an even integer once
    a 10^s >= 2^53, so rint's ties-to-even on the remainder is ties-to-even
    on the sum.
    """
    (scales, decades), (hi, lo) = _format_tables()[:2]
    a = np.abs(x)
    left = ~((a < _MAGNITUDE) & ((a > 1.0 / _MAGNITUDE) | (a == 0.0)))
    a[left] = 1.0
    exponent = a.view(np.int64) >> 52  # biased, binary
    i = scales.take(exponent) - (a >= decades.take(exponent))
    h, l = hi.take(i), lo.take(i)
    p = a * h
    a_hi, a_lo = _split(a)
    h_hi, h_lo = _split(h)
    t = (((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo) + a * l
    r = np.rint(t)
    near = np.abs(t - r) >= 0.5 - _TIE
    if near.any():
        left |= near & (l != 0.0)  # a tie is seen as one where 10^s is exact
    D = p.astype(np.int64) + r.astype(np.int64)
    lead = D // 10**16
    D -= lead * 10**16
    top = lead == 10  # rounded up to the next power of ten
    if top.any():
        lead[top] = 1
        i[top] -= 1
    return i, lead, D, left


def _format_rows(table: np.ndarray) -> bytearray:
    """The ASCII CSV bytes of the rows of a 2-d float table, byte-identical to formatting each value with "%.17g".

    Each value's 17 significant digits D = round-half-even(|x| 10^s),
    s = 16 - floor(log10 |x|), come from exact double-double products in
    float64; floor(log10 |x|) itself is settled by an exact comparison with
    the least double >= 10^k.  The kernel's digits stand when the fractional
    part of |x| 10^s lies more than 2^-40 from 1/2, so the rounding cannot be
    mistaken, or when 10^s is exact (0 <= s <= 22), so a tie is seen as one.
    "%" formats, in its own slot, each value whose digits do not stand, that
    is not finite, or whose nonzero magnitude lies outside (1e-270, 1e270).
    """
    x = table.ravel()
    i, lead, rest, left = _scaled_digits(x)
    kinds, heads, tails, digits, order, fill = _format_tables()[2:]
    buf = bytearray(len(x) * _SLOT)  # the slots view it, so its zero bytes are dropped without a copy of the slots
    slots = np.frombuffer(buf, np.uint8).reshape(len(x), _SLOT)
    words, quads = slots.view(np.uint64), slots.view(np.uint32)
    # the head word by sign, kind, point and lead digit
    words[:, 0] = heads.take(20 * len(_PREFIXES) * np.signbit(x) + kinds.take(i) + 10 * (rest != 0) + lead)
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g0 = upper // 10**4
    g1 = upper - g0 * 10**4
    g2 = lower // 10**4
    g3 = lower - g2 * 10**4
    # a group is whole when a later one is not zero
    quads[:, 2] = digits.take(g0 + 10_000 * ((g1 | lower) != 0))
    quads[:, 3] = digits.take(g1 + 10_000 * (lower != 0))
    quads[:, 4] = digits.take(g2 + 10_000 * (g3 != 0))
    quads[:, 5] = digits.take(g3)
    words[:, 3] = tails.take(i)
    s = i - _POWERS
    shifted = np.flatnonzero(s.view(np.uint64) < 16)  # 0 <= s <= 15: 1 <= k <= 16
    if shifted.size:
        s = s[shifted]
        k = 16 - s
        point = rest[shifted] % 10**s != 0  # a digit after digit k is not zero
        slots[shifted, 7:24] = np.take_along_axis(slots[shifted, 7:24], order[k], axis=1) | fill[2 * k + point]
    percent = np.flatnonzero(left)
    if percent.size:
        slots[percent, :-1] = _words([(b"%.17g" % v).ljust(_SLOT - 1, b"\0") for v in x[percent].tolist()], np.uint8)
    slots.reshape(*table.shape, _SLOT)[:, -1, -1] = ord("\n")
    return buf.translate(None, b"\0")


def _checked_rows(spec: Family, columns: list[str], seed: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo to hi of a dump as a table of its columns; the first row that fails a check raises ValueError.

    A function of its own, so that the block's temporaries are freed
    before the next block, or the formatting, starts.
    """
    record = spec.record
    errors = RowErrors(hi - lo)
    coords = orbit_points(spec, uniform_block(seed, 0, record.draws, lo, hi), DEFAULT_RMAX, errors)
    with np.errstate(all="ignore"):  # the flagged rows' values are meaningless
        residual = record.residual(coords, spec.param, errors)
    table = np.column_stack([x for c in coords for x in (c.real, c.imag)] + [residual])
    infinite = ~np.isfinite(table)

    def not_finite(r):
        c = np.argmax(infinite[r])  # the row's first non-finite column
        return f"{columns[c]} = {table[r, c]} is not finite"

    errors.flag(_row_max(infinite), not_finite)
    failed = np.flatnonzero(~errors.ok)
    if failed.size:
        r = failed[0]
        raise ValueError(f"row {lo + r} of the {record.cli or record.name} dump: {errors.message[r]}")
    return table


def dump_orbit(spec: Family, n: int, path: str, seed: int = DEFAULT_SEED) -> None:
    """Write n orbit samples as CSV, with automorphism centres on the DEFAULT_RMAX disc.

    Columns are the real and imaginary parts of each coordinate followed
    by the orbit-equation residual, all at 17 significant digits.  Every
    row is computed and checked, BLOCK rows at a time, before the file is
    opened: a row that fails one of the checks of its sampler or its
    residual is a ValueError that names the row, and nothing is written.
    A row with a coordinate or residual that is not finite fails too.
    The rows are then written CHUNK at a time, each chunk formatted by a
    vectorised kernel whose bytes are those of ``f"{x:.17g}"`` for every
    value; a value the kernel cannot certify is formatted with ``%`` in its
    own slot.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    record = spec.record
    if record.residual is None:
        raise ValueError(f"{record.name} has no orbit residual to dump")
    columns = [f"{c}{j}" for j in range(1, record.dim + 1) for c in "xy"] + ["residual"]
    tables = [_checked_rows(spec, columns, seed, lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)]
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode("ascii"))
        for table in tables:
            for lo in range(0, len(table), CHUNK):
                fh.write(_format_rows(table[lo : lo + CHUNK]))
