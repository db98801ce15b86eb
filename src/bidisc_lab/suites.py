"""Seeded property suites and the verification report machinery.

Each suite certifies one computable claim by evaluating a residual on
many seeded samples.  The runner walks a suite's sample indices in
blocks of BLOCK rows, and every row depends only on (seed, stream,
index), so results never depend on the block size, the worker count,
the evaluation order or the other suites selected.  A suite draws from
the stream (seed, (o + 1) << 32), o the registry ordinal of the suite,
or of ``H-quadric`` for the pair family, with a fixed budget of k
uniforms per sample: sample i owns the stream's draws [i k, (i + 1) k),
drawn for a block in one ``rng.uniform_block`` call.  Every kernel takes the
same arguments, (cfg, U, idx, rows, pairs): the block's uniforms U,
shape (len(idx), k), the sample indices idx, the block's ``RowErrors``
rows and the pair family's ``_Pairs`` (None outside it), and returns
(residual, inputs, excluded): the residuals, a tuple of per-row input
arrays, and a mask of the rows left unscored, or None.  The kernels
evaluate their claims on the whole block, through the functions a
caller uses on a point, passing rows as ``errors``.  The report's "rng"
field gives each suite's stream_id and k: any sample replays from the
report alone (``_evaluate``).

Twelve suites draw a pair (z, w) of the rmax disc from 4 of their
uniforms: the nine of the pair family once per block (``_Pairs``), the
two conjugation suites and ``aut-preserves-subdomains`` each its own;
the last needs no chart.  The other nine that draw a pair judge it
through h = map_H(z, w), whose chart stops at |z - w| >= EPS_DIAG, and
one rule, ``_chart``, charts every pair they draw: a pair off the disc
fails hard, and a row whose pair lies within EPS_DIAG of the diagonal is
excluded, not redrawn.  It scores 0 and the report counts it, and map_H
and the suite's checks take the pair (1/2, -1/2) in its place, so that
none fires on it; its recorded inputs stay the pair it drew.  At the
default rmax no row is excluded; at small rmax the count shows how
much of the sample was not checked.  A disc whose pairs all lie within
EPS_DIAG (rmax <= EPS_DIAG / 2) is refused by ``validate_config`` for
these nine (``_Suite.reads_h``) only.  ``o21-totally-real`` takes, on
its rows i % 3 == 0, the real matrix 2 U - 1 of its 4 uniforms,
singular under the rank rule with a chance below 2e-15.

Nine pair suites judge one pair per row: ``rho-invariance``,
``H-quadric``, ``H-im-condition``, ``H-sigma-negation``,
``H-roundtrip``, ``orbit-levels``, ``preimage-formula``,
``sym-equivariance`` and ``J-H-compat`` form the pair family
(``_Suite.family``).  All draw k = 7 uniforms per row from H-quadric's
stream, 2 << 32: the pair, then phi's 3, which only rho-invariance reads.  Per block the
selected members share one ``_Pairs``: the drawn pair, its chart (h =
map_H(z, w) and the flags of its checks), and rho and ``_size(*h)`` of
the charted pair, each computed once, by the first member that reads
it.  The seven that read h each flag their checks in their own copy of
map_H's row flags, so every check fires on every member and none fails
another's row.  ``rho-invariance`` and ``sym-equivariance`` judge the
pair as drawn, exclude no row, and no check of map_H fails them.  The
nine claims are thus judged on the same pairs, each on as many as
before, and a member run alone draws the rows of the full run.  The two
conjugation suites, which also read h, each draw on their own stream,
their pair after phi's 3 uniforms, and chart both the pair and its
image phi(p) by ``_chart``, the image by the rule for computed values.

The Levi suites take k = 3: every row is drawn by its family's sampler
(``orbits.orbit_points``), which also applies its checks.  One kernel
factory, ``_levi(record, param, score)``, makes all four.  levi-Fa and
levi-eta put sample i on the level i % 3 of three, and a Family's
parameter is a number or one per row, so each block is one
``orbit_points`` and one ``levi.levi_restricted`` batch.

Residual conventions: equality claims report the absolute defect, or
for ``rho-invariance`` and ``su11-orbit-invariant`` the defect times
1 - m^2, m the largest modulus among the compared points (z, w and
their images; v and its image), as rho and |u| / sqrt(1 - |v|^2) round
like 1 / (1 - m^2) near the unit circle, or else relative to the size
of the compared values, ``rng._size`` (max(1, a row's largest modulus)):
_size(q) of q = H(phi(s p)) for the two conjugation suites, |p|_inf
_size(h) for ``J-H-compat``'s p = J(z, w) and q = (1, h), and _size(h)^2
for ``H-quadric`` and ``orbit-levels``, quadratic in h = map_H(z, w).
The form residuals of ``conjugation-so21`` and ``o21-matrix-B`` are
relative to A_33^2 and B_33^2, B's largest entry 1/sqrt(1 - z^2 - w^2)
squared.  Threshold claims (the Levi certifications) report the
shortfall below the certified floor, so 0 means comfortably certified;
boolean claims report 0 or 1 and run with tolerance 0.5.
``preimage-formula`` and ``aut-preserves-subdomains`` give no verdict
on a row within PREIMAGE_MARGIN or MEMBERSHIP_MARGIN of a band edge,
nor a pair suite on a row whose pair lies within EPS_DIAG of the
diagonal, nor the two conjugation suites on the H relation of a row
whose image phi crowds into map_H's chart guard: such a row scores 0
(``conjugation-so21`` still judges its matrix), and the report counts
it as ``excluded``.  A sample whose residual is not below the tolerance
is a failure.  A sample that fails a check, or whose residual is not
finite, is a hard failure and fails the suite regardless of tolerance:
the runner scores it inf and records the check's ``ValueError:
message`` text, the one the same function raises on that row's point,
together with the row's inputs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domains import (
    _abs2,
    a_from_alpha,
    alpha_from_a,
    eta_level,
    im_condition,
    minkowski_form,
    quadric_band,
    quadric_residual,
    rho_band,
)
from .groups import (
    ball_action,
    o21_point_matrix,
    so21_image,
    su11_embed,
    su11_orbit_invariant,
    u21_residual,
)
from .levi import levi_restricted, totally_real_check
from .maps import EPS_DIAG, _map_H, map_H, map_H_inv, map_J, scale_g_t, sym
from .mobius import (
    MOBIUS_DRAWS,
    TOL_BOUNDARY,
    _check_pair,
    _inside,
    _on_disc,
    _rho,
    mobius_apply_pair,
    pseudo_hyperbolic,
    random_mobius,
)
from .orbits import (
    ELLIPSOID,
    FLAT_CONTROL,
    MINKOWSKI_LEVEL,
    RHO_LEVEL,
    SPHERE,
    Family,
    FamilyRecord,
    orbit_points,
)
from .rng import (
    DEFAULT_RMAX,
    DEFAULT_SEED,
    RowErrors,
    _row_max,
    _size,
    ball_from_uniforms,
    disc_from_uniforms,
    uniform_block,
)

SCHEMA_VERSION = 4
DEFAULT_SAMPLES = 10_000
BLOCK = 4096  # rows per block; bounds the memory of a run, never changes a result
MAX_FAILURES = 10

LEVI_FLOOR = 1e-3  # certified lower bound for the strongly pseudoconvex families
LEVI_PATCH_RMAX = 0.7  # orbit patch size; larger pushes tangency values toward 0
PREIMAGE_MARGIN = 1e-8  # skip samples this close to a band boundary
MEMBERSHIP_MARGIN = 1e-6
# the largest accepted rmax: 8 ulps inside the caller margin, as polar can round a drawn |z| an ulp or two above r
_RMAX_LIMIT = 1.0 - TOL_BOUNDARY - 2.0**-50


class ConfigError(ValueError):
    """Invalid suite configuration."""


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    rmax: float = DEFAULT_RMAX
    tolerances: dict[str, float] = field(default_factory=dict)
    suites: tuple[str, ...] = ()
    workers: int = 1  # validated but without effect: suites run serially


@dataclass(frozen=True)
class _Suite:
    """A registered claim.

    ``fn`` is a kernel ``(cfg, U, idx, rows, pairs) -> (residual,
    inputs, excluded)`` over the rows idx, whose uniforms U have shape
    (len(idx), draws), and pairs the block's ``_Pairs`` (None outside the
    pair family); it flags the rows that fail a check in the block's
    ``RowErrors`` rows.  inputs is a tuple of per-row arrays, which
    ``_columns`` formats, and excluded a mask of the rows left unscored,
    or None.  ``family`` marks the pair family's members, drawn on
    ``H-quadric``'s stream; those that read h = map_H(z, w)
    (``reads_h``), and the conjugation suites, judge their pair off the
    diagonal.
    """

    name: str
    claim: str
    weight: float
    tolerance: float
    fn: Callable
    draws: int
    family: bool = False
    reads_h: bool = False


# ---------------------------------------------------------------------------
# kernels: one block of rows at a time


def _columns(*vals) -> np.ndarray:
    """Per-row inputs as an (n, m) float array; a complex column splits into (re, im)."""
    cols: list[np.ndarray] = []
    for v in vals:
        cols += (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    return np.column_stack(cols)


def _disc_pair(c: np.ndarray, rmax: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of area-uniform rmax-disc points from 4 uniform columns: radius and angle of z, then of w."""
    return disc_from_uniforms(c[:, 0], c[:, 1], rmax), disc_from_uniforms(c[:, 2], c[:, 3], rmax)


def _rim_scale(*points) -> np.ndarray:
    """1 - m^2 per row, m the largest modulus among the points: rho and |u| / sqrt(1 - |v|^2) round like 1 / (1 - m^2)."""
    return 1.0 - functools.reduce(np.maximum, map(_abs2, points))


def _chart(rows: RowErrors, z: np.ndarray, w: np.ndarray, inside=_inside) -> tuple:
    """(z, w, h, excluded) of pairs: the pairs h takes, h = map_H(z, w), its checks flagged in rows, the excluded rows.

    A pair within EPS_DIAG of the diagonal, where map_H's chart stops, is
    excluded: (1/2, -1/2) stands in for it, so that no check of h fires.
    A pair that breaks the disc rule ``inside`` fails hard, crowded or not:
    ``_inside`` for a drawn pair, ``_on_disc`` for an image phi(p), which
    keeps no margin.  map_H checks a pair it charts, so a block is checked
    here only before a stand-in hides one.
    """
    excluded = np.abs(z - w) < EPS_DIAG  # map_H's chart guard
    if excluded.any():
        _check_pair(rows, z, w, inside)
        z, w = np.where(excluded, 0.5, z), np.where(excluded, -0.5, w)
    return z, w, _map_H(z, w, rows, inside), excluded


# the pair family: nine claims on one pair of the rmax disc, seven of them on its h = map_H(z, w)
_H_PAIRS_STREAM = "H-quadric"
_H_PAIRS_DRAWS = 7  # the pair (4), then phi (3), which only rho-invariance reads


class _Pairs:
    """The pair family's share of a block: each value is computed once, by the first member that reads it.

    ``drawn`` holds the drawn pairs (z, w), and ``chart`` is ``_chart`` of
    them with the flags of its checks on the block's rows: (z, w, h,
    excluded, flags), each part also an attribute.  ``rho`` and ``size``
    are rho and ``_size(*h)`` of the charted pairs.
    """

    def __init__(self, cfg: SuiteConfig, u: np.ndarray):
        self._u, self._rmax = u, cfg.rmax

    @functools.cached_property
    def drawn(self) -> tuple:
        return _disc_pair(self._u[:, :4], self._rmax)

    @functools.cached_property
    def chart(self) -> tuple:
        flags = RowErrors(len(self._u))
        return (*_chart(flags, *self.drawn), flags)

    z, w, h, excluded, flags = (property(lambda self, k=k: self.chart[k]) for k in range(5))

    @functools.cached_property
    def rho(self) -> np.ndarray:
        """rho(z, w) of the charted pairs: map_H checked them by the same disc rule, so it flags no row."""
        return pseudo_hyperbolic(self.z, self.w, errors=self.flags)

    @functools.cached_property
    def size(self) -> np.ndarray:
        """``_size(*h)``: max(1, |h|_inf) per row."""
        return _size(*self.h)


def _k_rho_invariance(cfg, u, idx, rows, pairs):
    # the pair as drawn, with no row excluded, and phi; its image keeps only the rule for computed values
    z, w = pairs.drawn
    phi = random_mobius(u[:, 4:7], cfg.rmax, errors=rows)
    z2, w2 = mobius_apply_pair(phi, (z, w), errors=rows)
    res = np.abs(_rho(z2, w2, rows, _on_disc) - pseudo_hyperbolic(z, w, errors=rows))
    return res * _rim_scale(z, w, z2, w2), (z, w, phi.theta, phi.a), None


def _on_h(name: str, claim: str, tolerance: float, residual: Callable) -> _Suite:
    """A member of the pair family scored by residual(rows, pairs) on the charted pairs, pairs the block's ``_Pairs``;
    a row the chart excludes scores 0."""

    def _k_on_h(cfg, u, idx, rows, pairs):
        return np.where(pairs.excluded, 0.0, residual(rows, pairs)), pairs.drawn, pairs.excluded

    return _Suite(name, claim, 1.0, tolerance, _k_on_h, _H_PAIRS_DRAWS, family=True, reads_h=True)


def _h_roundtrip(rows, pairs):
    z2, w2 = map_H_inv(*pairs.h, errors=rows)
    return np.maximum(np.abs(z2 - pairs.z), np.abs(w2 - pairs.w))


def _orbit_levels(rows, pairs):
    rho = pairs.rho
    m = minkowski_form(*pairs.h)
    level = eta_level(alpha_from_a(rho, errors=rows), errors=rows)
    return np.maximum(np.abs(m - (2.0 / (rho * rho) - 1.0)), np.abs(m - level)) / pairs.size**2


_PREIMAGE_BANDS = np.array(((1.0, 3.0), (2.0, 5.0), (1.0, math.inf)))


def _k_preimage_formula(cfg, u, idx, rows, pairs):
    # the chart's excluded rows and boundary-ambiguous ones score 0; the band (s, t) is recorded after the pair
    s, t = _PREIMAGE_BANDS[idx % 3].T
    rho = pairs.rho
    hi, lo = np.sqrt(2.0 / (s + 1.0)), np.sqrt(2.0 / (t + 1.0))  # lo = 0 when t = inf
    ambiguous = np.minimum(np.abs(rho - hi), np.abs(rho - lo)) < PREIMAGE_MARGIN
    member = quadric_band(*pairs.h, s, t)[0]
    predicted = (lo < rho) & (rho < hi)
    excluded = pairs.excluded | ambiguous
    return np.where(excluded | (member == predicted), 0.0, 1.0), (*pairs.drawn, s, t), excluded


def _j_h_compat(rows, pairs):
    p = map_J(pairs.z, pairs.w, errors=rows)
    q = (np.ones_like(pairs.z), *pairs.h)  # so |q|_inf = _size(*h)
    cross = [np.abs(p[a] * q[b] - p[b] * q[a]) for a, b in itertools.combinations(range(4), 2)]
    return functools.reduce(np.maximum, cross) / (functools.reduce(np.maximum, map(np.abs, p)) * pairs.size)


def _k_sym_equivariance(cfg, u, idx, rows, pairs):
    # exact claim: sym works on real and imaginary parts, whose products commute; the pair as drawn
    z, w = pairs.drawn
    (s1, p1), (s2, p2) = sym(z, w), sym(w, z)
    return np.maximum(np.abs(s1 - s2), np.abs(p1 - p2)), (z, w), None


def _k_alpha_roundtrip(cfg, u, idx, rows, pairs):
    a = 0.05 + 0.9 * u[:, 0]
    return np.abs(a_from_alpha(alpha_from_a(a, errors=rows), errors=rows) - a), (a,), None


# Levi kernels: 3 uniforms per sample; a block is one orbit_points and one levi batch


def _shortfall(val):
    """The shortfall of Levi values below the certified floor: 0 where comfortably certified."""
    return np.maximum(0.0, LEVI_FLOOR - val)


def _levi(record: FamilyRecord, param, score: Callable) -> Callable:
    """The kernel of a Levi suite: record's points, centres on the LEVI_PATCH_RMAX disc, scored by score(levi value).

    A param of three levels puts sample i on level i % 3 and records the
    level among the inputs; a fixed param, or None, is not recorded.
    """
    levels = np.ndim(param) == 1

    def _k_levi(cfg, u, idx, rows, pairs):
        x = param[idx % 3] if levels else param
        f = Family(record, x)
        p = orbit_points(f, u, LEVI_PATCH_RMAX, errors=rows)
        return score(levi_restricted(f, np.column_stack(p), errors=rows)), (*p, *((x,) if levels else ())), None

    return _k_levi


# ---------------------------------------------------------------------------
# the diagonal subgroup, SU(1,1) and O(2,1)


def _conjugated(cfg, u, rows, swap: bool):
    """A = so21_image(phi) per row, the defect of H(phi(p)) = A H(p), or with the swap s of H(phi(s p)) = -A H(p),
    the inputs, and the rows left without a verdict on it: those whose pair or image ``_chart`` excludes.

    The defect is relative to ``_size`` of H(phi(s p)): near the rim phi
    crowds the pair and H grows, and its rounding with it.  It can crowd
    the pair below EPS_DIAG: such a row gets no verdict on the relation
    and scores 0 for it; an image off the disc, or not finite, fails it.
    """
    # uniforms: phi (3), the pair (4)
    drawn = _disc_pair(u[:, MOBIUS_DRAWS:], cfg.rmax)
    z, w, h, excluded = _chart(rows, *drawn)
    phi = random_mobius(u[:, :MOBIUS_DRAWS], cfg.rmax, errors=rows)
    A = so21_image(phi)
    *_, q, crowded = _chart(rows, *mobius_apply_pair(phi, (w, z) if swap else (z, w), errors=rows), _on_disc)
    q = np.stack(q, axis=-1)
    Ah = (A * np.stack(h, axis=-1)[:, None, :]).sum(axis=2)
    res = _row_max(np.abs(q + Ah if swap else q - Ah)) / _size(q)
    excluded = excluded | crowded
    return A, np.where(excluded, 0.0, res), (phi.theta, phi.a, *drawn), excluded


def _k_conjugation_so21(cfg, u, idx, rows, pairs):
    A, res, inputs, unscored = _conjugated(cfg, u, rows, swap=False)
    rows.flag(A[:, 2, 2] <= 0.0, lambda r: f"image matrix has nonpositive corner {A[r, 2, 2]}")
    # the entries grow like A_33, so the rounding of the determinant and of the form like A_33^2
    det, scale = np.linalg.det(A), A[:, 2, 2] * A[:, 2, 2]
    rows.flag(
        np.abs(det - 1.0) > 1e-12 * scale,
        lambda r: f"image matrix determinant {det[r].item()!r} is not 1 within 1e-12 A_33^2 = {1e-12 * scale[r]:.3g}",
    )
    return np.maximum(res, u21_residual(A) / scale), inputs, unscored


def _k_swap_minus_identity(cfg, u, idx, rows, pairs):
    return _conjugated(cfg, u, rows, swap=True)[1:]


_AUT_BANDS = ((-math.inf, 0.7), (0.3, 0.8))  # rho < 0.7 with the diagonal, and 0.3 < rho < 0.8


def _k_aut_preserves_subdomains(cfg, u, idx, rows, pairs):
    # uniforms: phi (3), the swap coin, the pair (4)
    phi = random_mobius(u[:, :3], cfg.rmax, errors=rows)
    swap = u[:, 3] < 0.5
    p = _disc_pair(u[:, 4:], cfg.rmax)
    q = mobius_apply_pair(phi, (np.where(swap, p[1], p[0]), np.where(swap, p[0], p[1])), errors=rows)
    res = np.zeros(len(u))
    excluded = np.zeros(len(u), dtype=bool)  # rows without a verdict in some band
    for lo, hi in _AUT_BANDS:
        (m1, g1), (m2, g2) = rho_band(*p, lo, hi), rho_band(*q, lo, hi)
        # a verdict only where both points are clear of the boundary
        clear = np.minimum(np.abs(g1), np.abs(g2)) >= MEMBERSHIP_MARGIN
        res = np.maximum(res, clear & (m1 != m2))
        excluded |= ~clear
    return res, (*p, phi.theta, phi.a, swap.astype(float)), excluded


def _k_su11_orbit_invariant(cfg, u, idx, rows, pairs):
    # uniforms: the ball point (4), phi (3), acting through its SU(1,1) lift
    b, v = ball_from_uniforms(u[:, :4], cfg.rmax)
    phi = random_mobius(u[:, 4:7], cfg.rmax, errors=rows)
    b2, v2 = ball_action(su11_embed(phi), (b, v), errors=rows)
    res = np.abs(su11_orbit_invariant(b2, v2, errors=rows) - su11_orbit_invariant(b, v, errors=rows))
    return res * _rim_scale(v, v2), (b, v), None


def _ellipsoid_draw(cfg: SuiteConfig, u: np.ndarray, rows: RowErrors):
    # uniforms: t (1), the orbit point (3)
    t = 0.1 + 0.8 * u[:, 0]
    return t, orbit_points(Family(ELLIPSOID, t), u[:, 1:4], cfg.rmax, errors=rows)


def _k_su11_orbit_ellipsoid(cfg, u, idx, rows, pairs):
    t, p = _ellipsoid_draw(cfg, u, rows)
    return ELLIPSOID.residual(p, t, rows), (*p, t), None


def _k_gt_sphere(cfg, u, idx, rows, pairs):
    t, p = _ellipsoid_draw(cfg, u, rows)
    a, b = scale_g_t(t, p, errors=rows)
    res = np.abs(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag - 1.0)
    return res, (*p, t), None


def _k_o21_matrix_b(cfg, u, idx, rows, pairs):
    # the real pair (z, w) of the rmax disc, off the origin, where B is undefined: radius rmax sqrt(1 - s) > 0
    c = disc_from_uniforms(1.0 - u[:, 0], u[:, 1], cfg.rmax)
    z, w = c.real, c.imag
    B = o21_point_matrix(z, w, errors=rows)
    img = ball_action(B, (0j, 0j), errors=rows)
    # the entries grow like the corner gamma = 1/sqrt(1 - z^2 - w^2), so the rounding of the form like gamma^2
    form = u21_residual(B) / (B[:, 2, 2] * B[:, 2, 2])
    res = np.maximum(form, np.maximum(np.abs(img[0] - z), np.abs(img[1] - w)))
    return res, (z, w), None


_CURVE_BASIS = ([0j, 1 + 0j], [0j, 1j])
_MIXED_BASIS = ([1 + 0j, 0j], [1j, 0j])


def _k_o21_totally_real(cfg, u, idx, rows, pairs):
    # sample i % 3 == 0: the rows of a random real matrix, entries uniform on [-1, 1), totally real unless singular
    # under the rank rule (a chance below 2e-15); 1 and 2: a complex curve's and a mixed basis (not totally real, the
    # meet 2-dimensional)
    k = idx % 3
    basis = (2.0 * u.reshape(len(u), 2, 2) - 1.0).astype(complex)
    basis[k == 1], basis[k == 2] = _CURVE_BASIS, _MIXED_BASIS
    ok, meet = totally_real_check(basis, errors=rows)
    res = ((ok != (k == 0)) | (meet != np.where(k == 0, 0, 2))).astype(float)
    return res, tuple(basis.reshape(len(u), 4).T), None


_REGISTRY: tuple[_Suite, ...] = (
    _Suite(
        "rho-invariance",
        "|phi(z)-phi(w)| / |1-conj(phi(z))phi(w)| equals |z-w| / |1-conj(z)w| "
        "for every disc automorphism phi",
        1.0,
        1e-13,
        _k_rho_invariance,
        draws=_H_PAIRS_DRAWS,
        family=True,
    ),
    _on_h(
        "H-quadric",
        "the embedded image satisfies h1^2 + h2^2 - h3^2 = 1",
        1e-10,
        lambda rows, pairs: np.abs(quadric_residual(*pairs.h)) / pairs.size**2,
    ),
    _on_h(
        "H-im-condition",
        "Im(h2 (conj(h1) + conj(h3))) > 0 on the embedded image",
        1e-12,
        lambda rows, pairs: np.maximum(0.0, -im_condition(*pairs.h)),
    ),
    _on_h(
        "H-sigma-negation",
        "swapping the arguments negates the embedding exactly: map_H(w, z) = -map_H(z, w)",
        1e-15,
        # exact claim: map_H works on real and imaginary parts, whose products commute
        lambda rows, pairs: functools.reduce(
            np.maximum, map(np.abs, map(np.add, map_H(pairs.w, pairs.z, errors=rows), pairs.h))
        ),
    ),
    _on_h("H-roundtrip", "map_H_inv recovers the argument pair of map_H", 1e-9, _h_roundtrip),
    _on_h(
        "orbit-levels",
        "minkowski_form(map_H(z, w)) = 2/rho^2 - 1 = eta_level(alpha_from_a(rho))",
        1e-10,
        _orbit_levels,
    ),
    _Suite(
        "preimage-formula",
        "map_H lands in the (s, t) level band iff sqrt(2/(t+1)) < rho < sqrt(2/(s+1))",
        1.0,
        0.5,
        _k_preimage_formula,
        draws=_H_PAIRS_DRAWS,
        family=True,
        reads_h=True,
    ),
    _Suite(
        "conjugation-so21",
        "conjugating a diagonal automorphism by the embedding is linear: a Lorentz "
        "matrix with det 1 and positive corner entry",
        0.01,
        1e-7,
        _k_conjugation_so21,
        draws=MOBIUS_DRAWS + 4,
        reads_h=True,
    ),
    _Suite(
        "swap-is-minus-identity",
        "conjugating the coordinate swap by the embedding gives -I",
        0.01,
        1e-9,
        _k_swap_minus_identity,
        draws=MOBIUS_DRAWS + 4,
        reads_h=True,
    ),
    _Suite(
        "aut-preserves-subdomains",
        "diagonal automorphisms and the swap preserve the rho sublevel and band domains",
        0.1,
        0.5,
        _k_aut_preserves_subdomains,
        draws=8,
    ),
    _Suite(
        "su11-orbit-invariant",
        "|u| / sqrt(1 - |v|^2) is constant along embedded SU(1,1) ball actions",
        0.1,
        1e-13,
        _k_su11_orbit_invariant,
        draws=7,
    ),
    _Suite(
        "su11-orbit-ellipsoid",
        "SU(1,1) orbit points satisfy |u|^2 + t^2 |v|^2 = t^2",
        0.1,
        1e-10,
        _k_su11_orbit_ellipsoid,
        draws=4,
    ),
    _Suite(
        "gt-sphere",
        "(u, v) -> (u/t, v) carries the ellipsoid orbit onto the unit sphere",
        0.1,
        1e-12,
        _k_gt_sphere,
        draws=4,
    ),
    _Suite(
        "o21-matrix-B",
        "the explicit Lorentz matrix B(z, w) preserves the form and maps the origin to (z, w)",
        0.1,
        1e-12,
        _k_o21_matrix_b,
        draws=2,
    ),
    _Suite(
        "o21-totally-real",
        "the real slice meets its multiplication-by-i image only at 0; complex "
        "directions do not",
        0.1,
        0.5,
        _k_o21_totally_real,
        draws=4,
    ),
    _Suite(
        "levi-Fa",
        "the rho level hypersurfaces are strongly pseudoconvex: restricted Levi "
        "value above 1e-3",
        0.06,
        1e-12,
        _levi(RHO_LEVEL, np.array((0.2, 0.5, 0.8)), _shortfall),
        draws=3,
    ),
    _Suite(
        "levi-eta",
        "the Minkowski level hypersurfaces on the quadric are strongly "
        "pseudoconvex: restricted Levi value above 1e-3",
        0.06,
        1e-12,
        _levi(MINKOWSKI_LEVEL, np.array((1.5, 2.125, 4.0)), _shortfall),
        draws=3,
    ),
    _Suite(
        "levi-flat-control",
        "the circle-times-disc control surface has vanishing Levi form",
        0.02,
        1e-4,
        _levi(FLAT_CONTROL, 0.5, np.abs),
        draws=3,
    ),
    _Suite(
        "levi-sphere",
        "the unit sphere has restricted Levi value 1",
        0.02,
        1e-6,
        _levi(SPHERE, None, lambda val: np.abs(val - 1.0)),
        draws=3,
    ),
    _Suite(
        "sym-equivariance",
        "sym(z, w) = sym(w, z) exactly",
        1.0,
        1e-15,
        _k_sym_equivariance,
        draws=_H_PAIRS_DRAWS,
        family=True,
    ),
    _on_h("J-H-compat", "map_J agrees projectively with (1 : map_H), both scaled by z - w", 1e-12, _j_h_compat),
    _Suite(
        "alpha-roundtrip",
        "a_from_alpha inverts alpha_from_a",
        1.0,
        1e-12,
        _k_alpha_roundtrip,
        draws=1,
    ),
)

_BY_NAME = {s.name: s for s in _REGISTRY}
_ORDINAL = {s.name: k for k, s in enumerate(_REGISTRY)}


def all_suite_names() -> tuple[str, ...]:
    return tuple(s.name for s in _REGISTRY)


def _stream_id(name: str) -> int:
    return (_ORDINAL[_H_PAIRS_STREAM if _BY_NAME[name].family else name] + 1) << 32


def validate_config(cfg: SuiteConfig) -> None:
    # the counts must be ints proper: bool is an int subclass
    if type(cfg.seed) is not int or not 0 <= cfg.seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {cfg.seed!r}")
    if type(cfg.samples) is not int or cfg.samples < 1:
        raise ConfigError(f"samples must be a positive integer, got {cfg.samples!r}")
    # on a subnormal disc the drawn points keep too few digits, and some round onto the origin; beyond
    # _RMAX_LIMIT a drawn point could break the disc rule of a point a caller supplies
    if not sys.float_info.min <= cfg.rmax <= _RMAX_LIMIT:
        raise ConfigError(f"rmax must lie in [{sys.float_info.min!r}, {_RMAX_LIMIT!r}], got {cfg.rmax!r}")
    if type(cfg.workers) is not int or cfg.workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {cfg.workers!r}")
    unknown = [s for s in cfg.suites if s not in _BY_NAME]
    if unknown:
        raise ConfigError(f"unknown suite ids: {', '.join(sorted(unknown))}")
    repeated = sorted({s for s in cfg.suites if cfg.suites.count(s) > 1})
    if repeated:
        raise ConfigError(f"repeated suite ids: {', '.join(repeated)}")
    for name, tol in cfg.tolerances.items():
        if name not in _BY_NAME:
            raise ConfigError(f"tolerance override for unknown suite {name!r}")
        if not (isinstance(tol, (int, float)) and not isinstance(tol, bool) and math.isfinite(tol) and tol > 0):
            raise ConfigError(f"tolerance for {name!r} must be finite and positive, got {tol!r}")
    unused = sorted(set(cfg.tolerances) - set(cfg.suites))
    if unused:
        raise ConfigError(f"tolerance override for a suite that is not selected: {', '.join(unused)}")
    if EPS_DIAG >= 2.0 * cfg.rmax:
        for name in cfg.suites:
            if _BY_NAME[name].reads_h:
                raise ConfigError(
                    f"suite {name!r} has nothing to sample: pairs need |z - w| >= {EPS_DIAG:g}, "
                    f"but no two points of the rmax = {cfg.rmax!r} disc are that far apart"
                )


def _rows(suite: _Suite, cfg: SuiteConfig, lo: int, hi: int):
    """The uniforms of a suite's samples lo..hi-1, and their indices."""
    return uniform_block(cfg.seed, _stream_id(suite.name), suite.draws, lo, hi), np.arange(lo, hi)


def _block(suite: _Suite, cfg: SuiteConfig, lo: int, hi: int):
    """Samples lo..hi-1 of a suite (see ``_evaluate``)."""
    return _evaluate(suite, cfg, *_rows(suite, cfg, lo, hi))


def _evaluate(suite: _Suite, cfg: SuiteConfig, u: np.ndarray, idx: np.ndarray):
    """The samples idx of a suite as (residual, rows, inputs, excluded); it replays any index of a run.

    u holds the samples' uniforms.  ``rows`` is the block's
    ``RowErrors``: ``rows.ok[r]`` is False when row r failed hard, its
    residual is then inf, and ``rows.message[r]`` holds the failed
    check's message, which the report records as ``ValueError:
    message``.  ``inputs[r]`` is the row's recorded inputs;
    ``excluded[r]`` is True when the kernel left row r unscored (residual 0).
    """
    with np.errstate(all="ignore"):  # rows that failed a check carry meaningless values
        residual, rows, inputs, excluded = _judge(suite, cfg, u, idx, _Pairs(cfg, u) if suite.family else None)
    return residual, rows, _columns(*inputs), np.zeros(len(idx), dtype=bool) if excluded is None else excluded


def _judge(suite: _Suite, cfg: SuiteConfig, u: np.ndarray, idx: np.ndarray, pairs: _Pairs | None):
    """The suite's (residual, rows, inputs, excluded) on a block, its checks flagged in its own row flags.

    A pair-family member that reads h starts from a copy of h's flags, so
    that none fails another's row, and any other suite from none.
    """
    rows = pairs.flags.copy() if suite.family and suite.reads_h else RowErrors(len(u))
    residual, inputs, excluded = suite.fn(cfg, u, idx, rows, pairs)
    rows.flag(~np.isfinite(residual), lambda r: f"residual {residual[r]} is not finite")
    if not rows.ok.all():
        residual = np.where(rows.ok, residual, math.inf)
    return residual, rows, inputs, excluded


def _tally(entry: dict, lo: int, residual, rows, inputs, excluded) -> None:
    """Reduce a suite's judged block, rows lo, lo + 1, ..., into its report entry (every check raises ValueError)."""
    ok, scored = rows.ok, residual
    if not ok.all():  # no masking copies for a block without hard failures
        scored = residual[ok]
        entry["hard_failures"] += ok.size - int(np.count_nonzero(ok))
        excluded = None if excluded is None else excluded & ok
    if excluded is not None and excluded.any():
        entry["excluded"] += int(np.count_nonzero(excluded))
        # an excluded row's forced 0 is no score; conjugation-so21 still scores its matrix there
        scored = residual[ok & ~(excluded & (residual == 0.0))]
    if scored.size:  # a residual that is not finite failed its row hard
        entry["max_residual"] = max(entry["max_residual"] or 0.0, float(np.fmax.reduce(scored)))
    flagged = np.flatnonzero(~(residual < entry["tolerance"]))  # a hard failure's residual is inf
    entry["passed"] = entry["passed"] and not flagged.size
    failures = entry["failures"]
    for r in flagged[: MAX_FAILURES - len(failures)].tolist():
        outcome = {"residual": float(residual[r])} if ok[r] else {"error": f"ValueError: {rows.message[r]}"}
        failures.append({"index": lo + r, **outcome, "inputs": _columns(*(v[r : r + 1] for v in inputs))[0].tolist()})


def _run(group: list[_Suite], cfg: SuiteConfig) -> list[dict]:
    """The report entries of the suites that share one draw (the pair family's selected members, or one suite).

    A suite's wall time is its judging and reduction plus an even share of each block's uniforms; a shared value of
    the pair family (``_Pairs``) counts towards the first member that reads it.
    """
    count = max(1, int(round(cfg.samples * group[0].weight)))  # the pair family's members share one weight
    entries = [
        {
            "suite": suite.name,
            "claim": suite.claim,
            "passed": True,
            "max_residual": None,
            "tolerance": cfg.tolerances.get(suite.name, suite.tolerance),
            "samples": count,
            "failures": [],
            "hard_failures": 0,
            "excluded": 0,
            "wall_time_s": 0.0,
        }
        for suite in group
    ]
    with np.errstate(all="ignore"):  # rows that failed a check carry meaningless values
        for lo in range(0, count, BLOCK):
            start = time.perf_counter()
            u, idx = _rows(group[0], cfg, lo, min(lo + BLOCK, count))
            pairs = _Pairs(cfg, u) if group[0].family else None
            share = (time.perf_counter() - start) / len(group)
            for suite, entry in zip(group, entries):
                start = time.perf_counter()
                _tally(entry, lo, *_judge(suite, cfg, u, idx, pairs))
                entry["wall_time_s"] += share + time.perf_counter() - start
    return entries


def report_document(cfg: SuiteConfig, reports: list[dict]) -> dict:
    # workers deliberately left out: it must not affect any reported byte
    return {
        "schema": SCHEMA_VERSION,
        "config": {
            "seed": cfg.seed,
            "samples": cfg.samples,
            "rmax": cfg.rmax,
            "eps_diag": EPS_DIAG,
            "tolerances": dict(sorted(cfg.tolerances.items())),
            "suites": list(cfg.suites),
        },
        "rng": {
            "bit_generator": "PCG64",
            "seeding": "SeedSequence([seed, stream_id])",
            "suites": {
                r["suite"]: {"stream_id": _stream_id(r["suite"]), "draws_per_sample": _BY_NAME[r["suite"]].draws}
                for r in reports
            },
        },
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }


def verify_all(cfg: SuiteConfig, report_path: str | None = None) -> tuple[int, dict]:
    """Run the configured suites; returns (exit_code, report document).

    Exit code 0 when every suite passes (vacuously for an empty list,
    with a warning), 1 otherwise.  Config errors raise ConfigError.
    """
    validate_config(cfg)
    if not cfg.suites:
        warnings.warn("no suites selected; report is empty and vacuously passing")
    groups: dict = {}  # the selected suites by the draw they share: the pair family's members, or one suite
    for suite in map(_BY_NAME.get, cfg.suites):
        groups.setdefault(_H_PAIRS_STREAM if suite.family else suite.name, []).append(suite)
    entries = {entry["suite"]: entry for group in groups.values() for entry in _run(group, cfg)}
    reports = [entries[name] for name in cfg.suites]
    doc = report_document(cfg, reports)
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return (0 if doc["passed"] else 1), doc
