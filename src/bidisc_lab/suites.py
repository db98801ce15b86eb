"""Seeded property suites and the verification report machinery.

Each suite certifies one computable claim by evaluating a residual on
many seeded samples.  The runner walks a suite's sample indices in
blocks of BLOCK rows, and every row depends only on (seed, suite,
index), so results never depend on the block size, the worker count or
the evaluation order.  The suite with registry ordinal o draws from the
single stream (seed, (o + 1) << 32) with a fixed budget of k uniforms
per sample: sample i owns the stream's draws [i k, (i + 1) k).  A block
is one ``rng.uniform_block`` call, so replaying sample i takes
``advance(i k)`` and k draws.  Every kernel takes the same arguments,
(cfg, U, idx): the block's uniforms U, shape (len(idx), k), and the
sample indices idx.

* Array kernels (fourteen: the ten pointwise claims and the four Levi
  certifications) evaluate the claim on a whole block as numpy arrays.
  A pair that must lie off the diagonal (|z - w| >= eps_diag), and for
  the dual-route level checks also have rho >= 0.05, comes from
  ``maps.PairDraw``: PAIR_ROUNDS candidate pairs of 4 uniforms each, of
  which the row takes the first admissible one.  A row with none is a
  hard failure.  The Levi suites take k = 3: the levi-Fa, levi-eta and
  levi-sphere rows are drawn by their family's sampler
  (``orbits.orbit_points``), which also applies its checks, and the
  control surface's rows are an angle and an inverse-transform disc
  point.  Each block's rows of one family spec are one batch of
  ``levi.levi_restricted``.
* Per-row claims (the other eight) keep scalar bodies behind
  ``_per_row``, which evaluates them one row of uniforms at a time.  A
  body records what it draws as it goes, so a row that raises records
  what it drew before the failing step.  Their budgets: a conjugation
  fit takes ten PairDraw pairs (FIT_DRAWS) plus 3 uniforms for the
  automorphism; ``aut-preserves-subdomains`` 8, ``su11-orbit-invariant``
  7, ``su11-orbit-ellipsoid`` and ``gt-sphere`` 4, ``o21-matrix-B`` 2,
  and ``o21-totally-real`` TOTALLY_REAL_ROUNDS candidate matrices of 4.

Residual conventions: equality claims report the absolute defect;
threshold claims (the Levi certifications) report the shortfall below
the certified floor, so 0 means comfortably certified; boolean claims
report 0 or 1 and run with tolerance 0.5.  A sample whose residual is
not below the tolerance (NaN included) is a failure.  A sample that
raises is a hard failure and fails the suite regardless of tolerance;
array kernels apply each check of the scalar code per row and record
the same ``Type: message`` text, together with the row's inputs.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domains import (
    DomainSpec,
    a_from_alpha,
    a_from_alpha_array,
    alpha_from_a,
    alpha_from_a_array,
    contains,
    eta_level,
    eta_level_array,
    im_condition,
    minkowski_form,
    quadric_residual,
    quadric_st_margin_array,
)
from .groups import (
    ball_action,
    o21_point_matrix,
    o21_residual,
    random_su11,
    su11_embed,
    su11_orbit_invariant,
)
from .levi import levi_restricted, totally_real_check
from .maps import (
    EPS_DIAG,
    FIT_DIAG_MARGIN,
    FIT_DRAWS,
    FIT_PAIRS,
    PAIR_DRAWS,
    PAIR_ROUNDS,
    PairDraw,
    conjugate_fit,
    map_H,
    map_H_array,
    map_H_checked,
    map_H_inv,
    map_H_inv_array,
    map_J,
    map_J_array,
    near_diagonal,
    scale_g_t,
    swap_pair,
    sym_array,
)
from .mobius import (
    MOBIUS_DRAWS,
    MobiusMap,
    _require_disc,
    mobius_apply_array,
    mobius_apply_pair,
    outside_disc,
    pseudo_hyperbolic,
    pseudo_hyperbolic_array,
    random_mobius,
)
from .orbits import (
    ELLIPSOID,
    FLAT_CONTROL,
    MINKOWSKI_LEVEL,
    RHO_LEVEL,
    SPHERE,
    Family,
    RowErrors,
    ellipsoid_orbit_point,
    on_orbit_residual,
    orbit_points,
)
from .rng import (
    DEFAULT_RMAX,
    DEFAULT_SEED,
    annulus_from_uniforms,
    ball_from_uniforms,
    disc_from_uniforms,
    polar,
    uniform_block,
)

SCHEMA_VERSION = 2
DEFAULT_SAMPLES = 10_000
BLOCK = 1024  # rows per block; bounds the memory of a run, never changes a result
MAX_FAILURES = 10

LEVI_FLOOR = 1e-3  # certified lower bound for the strongly pseudoconvex families
LEVI_PATCH_RMAX = 0.7  # orbit patch size; larger pushes tangency values toward 0
PREIMAGE_MARGIN = 1e-8  # skip samples this close to a band boundary
MEMBERSHIP_MARGIN = 1e-6
RHO_COND_FLOOR = 0.05  # dual-route level checks need 2/rho^2 to stay O(1e3)


class ConfigError(ValueError):
    """Invalid suite configuration."""


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    rmax: float = DEFAULT_RMAX
    eps_diag: float = EPS_DIAG
    tolerances: dict[str, float] = field(default_factory=dict)
    suites: tuple[str, ...] = ()
    workers: int = 1  # validated but without effect: suites run serially


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    claim: str
    passed: bool
    max_residual: float | None
    tolerance: float
    samples: int
    failures: tuple[dict, ...]
    hard_failures: int
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "claim": self.claim,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "failures": list(self.failures),
            "hard_failures": self.hard_failures,
            "wall_time_s": self.wall_time_s,
        }


@dataclass(frozen=True)
class _Suite:
    """A registered claim.

    ``fn`` is a kernel ``(cfg, U, idx) -> (residual, error, inputs)``
    over the rows idx, whose uniforms U have shape (len(idx), draws).
    ``why_empty(cfg)`` says why no sample can be drawn under cfg, or
    returns None.
    """

    name: str
    claim: str
    weight: float
    tolerance: float
    fn: Callable
    draws: int
    why_empty: Callable[[SuiteConfig], str | None] | None = None


def _flat(*vals) -> list[float]:
    out: list[float] = []
    for v in vals:
        if isinstance(v, complex):
            out.extend((v.real, v.imag))
        else:
            out.append(float(v))
    return out


# ---------------------------------------------------------------------------
# array kernels: one block of rows at a time


class _Rows(RowErrors):
    """Hard failures of one block; a row keeps the first check it fails, in the scalar code's order.

    Every check raises ValueError, so the report's text for a row is
    ``ValueError: `` and the check's message.
    """

    def take(self, sel: np.ndarray, errors: RowErrors) -> None:
        """Fail row sel[r] for each row r of a levi batch that failed one of its checks."""
        for r in np.flatnonzero(~errors.ok):
            self.flag(np.arange(len(self.ok)) == sel[r], errors.message[r])

    def result(self, residual: np.ndarray, inputs: np.ndarray):
        error = self.message.copy()
        error[~self.ok] = "ValueError: " + error[~self.ok]
        return np.where(self.ok, residual, math.inf), error, inputs


def _columns(*vals) -> np.ndarray:
    """Per-row inputs as an (n, m) float array; a complex column splits into (re, im)."""
    cols: list[np.ndarray] = []
    for v in vals:
        cols += (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    return np.column_stack(cols)


def _disc_pair(u: np.ndarray, rmax: float) -> tuple[np.ndarray, np.ndarray]:
    """Bidisc pairs from 4 uniform columns: (radius, angle) of z, then of w."""
    return disc_from_uniforms(u[:, 0], u[:, 1], rmax), disc_from_uniforms(u[:, 2], u[:, 3], rmax)


_OFFDIAG = PairDraw()
_CONDITIONED = PairDraw(RHO_COND_FLOOR)


def _pairs(draw: PairDraw, cfg: SuiteConfig, u: np.ndarray, rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal pairs (|z - w| >= eps_diag) of a PairDraw; a row without one is a hard failure."""
    z, w, missing = draw(u, cfg.rmax, cfg.eps_diag)
    wanted = draw.wanted(cfg.eps_diag)
    rows.flag(np.isin(np.arange(len(u)), missing), f"none of the sample's {PAIR_ROUNDS} candidate pairs has {wanted}")
    if draw.rho_floor:  # the admission test took rho, which checks its arguments
        rows.check(outside_disc(z) | outside_disc(w), pseudo_hyperbolic, z, w)
    return z, w


def _pairs_why_empty(draw: PairDraw) -> Callable[[SuiteConfig], str | None]:
    return lambda cfg: draw.why_empty(cfg.rmax, cfg.eps_diag)


def _k_rho_invariance(cfg, u, idx):
    rows = _Rows(len(u))
    z, w = _disc_pair(u, cfg.rmax)
    theta = math.tau * u[:, 4]
    a = disc_from_uniforms(u[:, 5], u[:, 6], cfg.rmax)
    rows.check(outside_disc(a), MobiusMap, theta, a)
    rows.check(outside_disc(z), _require_disc, z, "z")
    rows.check(outside_disc(w), _require_disc, w, "z")  # mobius_apply names its point z
    z2, w2 = mobius_apply_array(theta, a, z), mobius_apply_array(theta, a, w)
    rows.check(outside_disc(z2) | outside_disc(w2), pseudo_hyperbolic, z2, w2)
    res = np.abs(pseudo_hyperbolic_array(z2, w2) - pseudo_hyperbolic_array(z, w))
    return rows.result(res, _columns(z, w, theta, a))


def _k_h_quadric(cfg, u, idx):
    rows = _Rows(len(u))
    z, w = _pairs(_CONDITIONED, cfg, u, rows)
    h = map_H_checked(rows, z, w)
    return rows.result(np.abs(quadric_residual(*h)), _columns(z, w))


def _k_h_im_condition(cfg, u, idx):
    rows = _Rows(len(u))
    z, w = _pairs(_OFFDIAG, cfg, u, rows)
    h = map_H_checked(rows, z, w)
    return rows.result(np.maximum(0.0, -im_condition(*h)), _columns(z, w))


def _k_h_sigma_negation(cfg, u, idx):
    # exact claim: map_H_array works on real and imaginary parts, whose products commute
    rows = _Rows(len(u))
    z, w = _pairs(_OFFDIAG, cfg, u, rows)
    h = np.stack(map_H_checked(rows, z, w))
    hs = np.stack(map_H_checked(rows, w, z))
    return rows.result(np.abs(hs + h).max(axis=0), _columns(z, w))


def _k_h_roundtrip(cfg, u, idx):
    rows = _Rows(len(u))
    z, w = _pairs(_OFFDIAG, cfg, u, rows)
    h = map_H_checked(rows, z, w)
    z2, w2, ok = map_H_inv_array(*h)
    rows.check(~ok, map_H_inv, *h)
    return rows.result(np.maximum(np.abs(z2 - z), np.abs(w2 - w)), _columns(z, w))


def _k_orbit_levels(cfg, u, idx):
    rows = _Rows(len(u))
    z, w = _pairs(_CONDITIONED, cfg, u, rows)
    rho = pseudo_hyperbolic_array(z, w)
    m = minkowski_form(*map_H_checked(rows, z, w))
    rows.check(~((0.0 < rho) & (rho < 1.0)), alpha_from_a, rho)
    alpha = alpha_from_a_array(rho)
    rows.check(alpha < 1.0, eta_level, alpha)
    res = np.maximum(np.abs(m - (2.0 / (rho * rho) - 1.0)), np.abs(m - eta_level_array(alpha)))
    return rows.result(res, _columns(z, w))


_PREIMAGE_BANDS = np.array(((1.0, 3.0), (2.0, 5.0), (1.0, math.inf)))


def _k_preimage_formula(cfg, u, idx):
    rows = _Rows(len(u))
    s, t = _PREIMAGE_BANDS[idx % 3].T
    z, w = _pairs(_OFFDIAG, cfg, u, rows)
    rows.check(outside_disc(z) | outside_disc(w), pseudo_hyperbolic, z, w)
    rho = pseudo_hyperbolic_array(z, w)
    hi, lo = np.sqrt(2.0 / (s + 1.0)), np.sqrt(2.0 / (t + 1.0))  # lo = 0 when t = inf
    # boundary-ambiguous samples are excluded: residual 0, and map_H is not evaluated
    ambiguous = np.minimum(np.abs(rho - hi), np.abs(rho - lo)) < PREIMAGE_MARGIN
    rows.check(~ambiguous & near_diagonal(z, w), map_H, z, w)
    member = quadric_st_margin_array(*map_H_array(z, w), s, t) > 0.0
    predicted = (lo < rho) & (rho < hi)
    res = np.where(ambiguous | (member == predicted), 0.0, 1.0)
    return rows.result(res, _columns(z, w, s, t))


def _k_sym_equivariance(cfg, u, idx):
    # exact claim: sym_array works on real and imaginary parts, whose products commute
    rows = _Rows(len(u))
    z, w = _disc_pair(u, cfg.rmax)
    (s1, p1), (s2, p2) = sym_array(z, w), sym_array(w, z)
    return rows.result(np.maximum(np.abs(s1 - s2), np.abs(p1 - p2)), _columns(z, w))


_MINORS = [(a, b) for a in range(4) for b in range(a + 1, 4)]


def _k_j_h_compat(cfg, u, idx):
    rows = _Rows(len(u))
    z, w = _pairs(_OFFDIAG, cfg, u, rows)
    p = map_J_array(z, w)
    pmax = np.abs(p).max(axis=0)
    rows.check(
        outside_disc(z) | outside_disc(w) | ~np.isfinite(p).all(axis=0) | (pmax == 0.0), map_J, z, w
    )
    q = np.stack([np.ones_like(z), *map_H_checked(rows, z, w)])
    worst = np.max([np.abs(p[a] * q[b] - p[b] * q[a]) for a, b in _MINORS], axis=0)
    return rows.result(worst / (pmax * np.abs(q).max(axis=0)), _columns(z, w))


def _k_alpha_roundtrip(cfg, u, idx):
    rows = _Rows(len(u))
    a = 0.05 + 0.9 * u[:, 0]
    rows.check(~((0.0 < a) & (a < 1.0)), alpha_from_a, a)
    alpha = alpha_from_a_array(a)
    rows.check(~(alpha > 1.0), a_from_alpha, alpha)
    return rows.result(np.abs(a_from_alpha_array(alpha) - a), _columns(a))


# Levi kernels: 3 uniforms per sample; each spec's rows are one levi batch

_FA = tuple(Family(RHO_LEVEL, a) for a in (0.2, 0.5, 0.8))
_ETA = tuple(Family(MINKOWSKI_LEVEL, lvl) for lvl in (1.5, 2.125, 4.0))
_FLAT = (Family(FLAT_CONTROL, 0.5),)
_SPHERE = (Family(SPHERE),)


def _levi(rows: _Rows, specs, idx: np.ndarray, u: np.ndarray | None = None, p: np.ndarray | None = None):
    """Points and their restricted Levi values; row r lies on specs[idx[r] % len(specs)].

    The points are p, or else each spec's sampler draws them from its
    rows of u, with automorphism centres on the LEVI_PATCH_RMAX disc.
    """
    if p is None:
        p = np.empty((len(idx), specs[0].record.dim), dtype=complex)
    val = np.empty(len(idx))
    for k, f in enumerate(specs):
        sel = np.flatnonzero(idx % len(specs) == k)
        if sel.size:
            errors = RowErrors(sel.size)
            if u is not None:
                p[sel] = np.column_stack(orbit_points(f, u[sel], LEVI_PATCH_RMAX, errors))
            val[sel] = levi_restricted(f, p[sel], errors=errors)
            rows.take(sel, errors)
    return p, val


def _k_levi_fa(cfg, u, idx):
    rows = _Rows(len(u))
    p, val = _levi(rows, _FA, idx, u)
    a = np.array([f.param for f in _FA])[idx % 3]
    return rows.result(np.maximum(0.0, LEVI_FLOOR - val), _columns(*p.T, a))


def _k_levi_eta(cfg, u, idx):
    rows = _Rows(len(u))
    p, val = _levi(rows, _ETA, idx, u)
    level = np.array([f.param for f in _ETA])[idx % 3]
    return rows.result(np.maximum(0.0, LEVI_FLOOR - val), _columns(*p.T, level))


def _k_levi_flat_control(cfg, u, idx):
    rows = _Rows(len(u))
    z1 = polar(0.5, math.tau * u[:, 0])
    z2 = disc_from_uniforms(u[:, 1], u[:, 2], 0.9)
    _, val = _levi(rows, _FLAT, idx, p=np.column_stack([z1, z2]))
    return rows.result(np.abs(val), _columns(z1, z2))


def _k_levi_sphere(cfg, u, idx):
    rows = _Rows(len(u))
    p, val = _levi(rows, _SPHERE, idx, u)
    return rows.result(np.abs(val - 1.0), _columns(*p.T))


# ---------------------------------------------------------------------------
# per-row claims: a scalar body evaluates one row of uniforms at a time


def _per_row(body: Callable) -> Callable:
    """The kernel of a scalar claim ``body(cfg, u, i, inputs) -> residual`` over one row u.

    The body appends what it draws to ``inputs`` as it goes, so a row
    that raises (a hard failure) records what it drew before the
    failing step.
    """

    def kernel(cfg, U, idx):
        residual = np.empty(len(U))
        error = np.full(len(U), None, dtype=object)
        inputs = []
        for r, i in enumerate(idx.tolist()):
            inputs.append([])
            try:
                residual[r] = float(body(cfg, U[r], i, inputs[r]))
            except Exception as exc:  # recorded as a hard failure, never raised
                residual[r], error[r] = math.inf, f"{type(exc).__name__}: {exc}"
        return residual, error, inputs

    return kernel


def _s_conjugation_so21(cfg, u, i, inputs):
    phi = random_mobius(u[:MOBIUS_DRAWS], cfg.rmax)
    inputs += _flat(phi.theta, phi.a)
    fit = conjugate_fit(phi, u[MOBIUS_DRAWS:], rmax=cfg.rmax)
    if fit.a33 <= 0.0:
        raise ValueError(f"fitted matrix has nonpositive corner {fit.a33}")
    if abs(fit.det - 1.0) > 1e-9:
        raise ValueError(f"fitted matrix determinant {fit.det!r} is not 1 within 1e-9")
    return max(fit.membership_residual, fit.fit_residual)


def _s_swap_minus_identity(cfg, u, i, inputs):
    # the fit's ten pairs, a point without an admissible pair by its last candidate
    z, w, _ = FIT_PAIRS(u.reshape(-1, PAIR_DRAWS), cfg.rmax, FIT_DIAG_MARGIN)
    inputs += _flat(*(c for pair in zip(z.tolist(), w.tolist()) for c in pair))
    fit = conjugate_fit(None, u, swap=True, rmax=cfg.rmax)
    return float(np.max(np.abs(fit.matrix + np.eye(3))))


def _fit_why_empty(cfg: SuiteConfig) -> str | None:
    return FIT_PAIRS.why_empty(cfg.rmax, FIT_DIAG_MARGIN)


_AUT_DOMAINS = (DomainSpec.bidisc_r(0.7), DomainSpec.bidisc_st(0.3, 0.8))


def _s_aut_preserves_subdomains(cfg, u, i, inputs):
    # uniforms: phi (3), the swap coin, the pair (4)
    phi = random_mobius(u[:3], cfg.rmax)
    use_swap = bool(u[3] < 0.5)
    p = tuple(disc_from_uniforms(u[[4, 6]], u[[5, 7]], cfg.rmax).tolist())
    inputs += _flat(*p, phi.theta, phi.a, float(use_swap))
    q = mobius_apply_pair(phi, swap_pair(p) if use_swap else p)
    for dom in _AUT_DOMAINS:
        m1, g1 = contains(dom, p)
        m2, g2 = contains(dom, q)
        if min(abs(g1), abs(g2)) < MEMBERSHIP_MARGIN:
            continue  # too close to a boundary to assert
        if m1 != m2:
            return 1.0
    return 0.0


def _s_su11_orbit_invariant(cfg, u, i, inputs):
    # uniforms: the ball point (4), the SU(1,1) element (3)
    b, v = (complex(c) for c in ball_from_uniforms(u[:4], cfg.rmax))
    inputs += _flat(b, v)
    b2, v2 = ball_action(su11_embed(*random_su11(u[4:7])), (b, v))
    return abs(su11_orbit_invariant(b2, v2) - su11_orbit_invariant(b, v))


def _ellipsoid_draw(u, inputs):
    # uniforms: t (1), the orbit point (3)
    t = 0.1 + 0.8 * float(u[0])
    p = ellipsoid_orbit_point(u[1:4], t)
    inputs += _flat(*p, t)
    return t, p


def _s_su11_orbit_ellipsoid(cfg, u, i, inputs):
    t, p = _ellipsoid_draw(u, inputs)
    return on_orbit_residual(Family(ELLIPSOID, t), p)


def _s_gt_sphere(cfg, u, i, inputs):
    t, p = _ellipsoid_draw(u, inputs)
    a, b = scale_g_t(t, p)
    return abs(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag - 1.0)


O21_RMIN = 0.05  # inner radius of the o21-matrix-B draws


def _o21_why_empty(cfg: SuiteConfig) -> str | None:
    if cfg.rmax <= O21_RMIN:
        return f"its real pairs need rmin = {O21_RMIN:g} < rmax, got rmax = {cfg.rmax!r}"
    return None


def _s_o21_matrix_b(cfg, u, i, inputs):
    c = complex(annulus_from_uniforms(u[0], u[1], O21_RMIN, cfg.rmax))
    z, w = c.real, c.imag
    inputs += [z, w]
    B = o21_point_matrix(z, w)
    img = ball_action(B, (0j, 0j))
    return max(o21_residual(B), abs(img[0] - z), abs(img[1] - w))


_CURVE_BASIS = ([0j, 1 + 0j], [0j, 1j])
_MIXED_BASIS = ([1 + 0j, 0j], [1j, 0j])
TOTALLY_REAL_ROUNDS = 16  # candidate real matrices; each misses |det| >= 0.1 with probability 0.187


def _s_o21_totally_real(cfg, u, i, inputs):
    k = i % 3
    if k == 0:
        for M in (2.0 * u.reshape(TOTALLY_REAL_ROUNDS, 2, 2) - 1.0):
            if abs(np.linalg.det(M)) >= 0.1:
                break
        else:
            raise ValueError(f"none of the sample's {TOTALLY_REAL_ROUNDS} candidate matrices has |det| >= 0.1")
        basis = [M[0].astype(complex), M[1].astype(complex)]
        expected = (True, 0)
    else:
        basis = [np.array(b) for b in (_CURVE_BASIS if k == 1 else _MIXED_BASIS)]
        expected = (False, 2)
    inputs += _flat(*basis[0], *basis[1])
    return 0.0 if totally_real_check(basis) == expected else 1.0


_REGISTRY: tuple[_Suite, ...] = (
    _Suite(
        "rho-invariance",
        "|phi(z)-phi(w)| / |1-conj(phi(z))phi(w)| equals |z-w| / |1-conj(z)w| "
        "for every disc automorphism phi",
        1.0,
        1e-10,
        _k_rho_invariance,
        draws=7,
    ),
    _Suite(
        "H-quadric",
        "the embedded image satisfies h1^2 + h2^2 - h3^2 = 1",
        1.0,
        1e-10,
        _k_h_quadric,
        draws=PAIR_DRAWS,
        why_empty=_pairs_why_empty(_CONDITIONED),
    ),
    _Suite(
        "H-im-condition",
        "Im(h2 (conj(h1) + conj(h3))) > 0 on the embedded image",
        1.0,
        1e-12,
        _k_h_im_condition,
        draws=PAIR_DRAWS,
        why_empty=_pairs_why_empty(_OFFDIAG),
    ),
    _Suite(
        "H-sigma-negation",
        "swapping the arguments negates the embedding exactly: map_H(w, z) = -map_H(z, w)",
        1.0,
        1e-15,
        _k_h_sigma_negation,
        draws=PAIR_DRAWS,
        why_empty=_pairs_why_empty(_OFFDIAG),
    ),
    _Suite(
        "H-roundtrip",
        "map_H_inv recovers the argument pair of map_H",
        1.0,
        1e-9,
        _k_h_roundtrip,
        draws=PAIR_DRAWS,
        why_empty=_pairs_why_empty(_OFFDIAG),
    ),
    _Suite(
        "orbit-levels",
        "minkowski_form(map_H(z, w)) = 2/rho^2 - 1 = eta_level(alpha_from_a(rho))",
        1.0,
        1e-10,
        _k_orbit_levels,
        draws=PAIR_DRAWS,
        why_empty=_pairs_why_empty(_CONDITIONED),
    ),
    _Suite(
        "preimage-formula",
        "map_H lands in the (s, t) level band iff sqrt(2/(t+1)) < rho < sqrt(2/(s+1))",
        1.0,
        0.5,
        _k_preimage_formula,
        draws=PAIR_DRAWS,
        why_empty=_pairs_why_empty(_OFFDIAG),
    ),
    _Suite(
        "conjugation-so21",
        "conjugating a diagonal automorphism by the embedding is linear: a Lorentz "
        "matrix with det 1 and positive corner entry",
        0.01,
        1e-7,
        _per_row(_s_conjugation_so21),
        draws=MOBIUS_DRAWS + FIT_DRAWS,
        why_empty=_fit_why_empty,
    ),
    _Suite(
        "swap-is-minus-identity",
        "conjugating the coordinate swap by the embedding gives -I",
        0.01,
        1e-9,
        _per_row(_s_swap_minus_identity),
        draws=FIT_DRAWS,
        why_empty=_fit_why_empty,
    ),
    _Suite(
        "aut-preserves-subdomains",
        "diagonal automorphisms and the swap preserve the rho sublevel and band domains",
        0.1,
        0.5,
        _per_row(_s_aut_preserves_subdomains),
        draws=8,
    ),
    _Suite(
        "su11-orbit-invariant",
        "|u| / sqrt(1 - |v|^2) is constant along embedded SU(1,1) ball actions",
        0.1,
        1e-10,
        _per_row(_s_su11_orbit_invariant),
        draws=7,
    ),
    _Suite(
        "su11-orbit-ellipsoid",
        "SU(1,1) orbit points satisfy |u|^2 + t^2 |v|^2 = t^2",
        0.1,
        1e-10,
        _per_row(_s_su11_orbit_ellipsoid),
        draws=4,
    ),
    _Suite(
        "gt-sphere",
        "(u, v) -> (u/t, v) carries the ellipsoid orbit onto the unit sphere",
        0.1,
        1e-12,
        _per_row(_s_gt_sphere),
        draws=4,
    ),
    _Suite(
        "o21-matrix-B",
        "the explicit Lorentz matrix B(z, w) preserves the form and maps the origin to (z, w)",
        0.1,
        1e-12,
        _per_row(_s_o21_matrix_b),
        draws=2,
        why_empty=_o21_why_empty,
    ),
    _Suite(
        "o21-totally-real",
        "the real slice meets its multiplication-by-i image only at 0; complex "
        "directions do not",
        0.1,
        0.5,
        _per_row(_s_o21_totally_real),
        draws=4 * TOTALLY_REAL_ROUNDS,
    ),
    _Suite(
        "levi-Fa",
        "the rho level hypersurfaces are strongly pseudoconvex: restricted Levi "
        "value above 1e-3",
        0.06,
        1e-12,
        _k_levi_fa,
        draws=3,
    ),
    _Suite(
        "levi-eta",
        "the Minkowski level hypersurfaces on the quadric are strongly "
        "pseudoconvex: restricted Levi value above 1e-3",
        0.06,
        1e-12,
        _k_levi_eta,
        draws=3,
    ),
    _Suite(
        "levi-flat-control",
        "the circle-times-disc control surface has vanishing Levi form",
        0.02,
        1e-4,
        _k_levi_flat_control,
        draws=3,
    ),
    _Suite(
        "levi-sphere",
        "the unit sphere has restricted Levi value 1",
        0.02,
        1e-6,
        _k_levi_sphere,
        draws=3,
    ),
    _Suite(
        "sym-equivariance",
        "sym(z, w) = sym(w, z) exactly",
        1.0,
        1e-15,
        _k_sym_equivariance,
        draws=4,
    ),
    _Suite(
        "J-H-compat",
        "map_J agrees projectively with (1 : map_H), both scaled by z - w",
        1.0,
        1e-12,
        _k_j_h_compat,
        draws=PAIR_DRAWS,
        why_empty=_pairs_why_empty(_OFFDIAG),
    ),
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
    return (_ORDINAL[name] + 1) << 32


def _check_admissible(cfg: SuiteConfig, name: str) -> None:
    why = _BY_NAME[name].why_empty
    reason = why(cfg) if why is not None else None
    if reason is not None:
        raise ConfigError(f"suite {name!r} has nothing to sample: {reason}")


def validate_config(cfg: SuiteConfig) -> None:
    if not isinstance(cfg.seed, int) or not 0 <= cfg.seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {cfg.seed!r}")
    if not isinstance(cfg.samples, int) or cfg.samples < 1:
        raise ConfigError(f"samples must be a positive integer, got {cfg.samples!r}")
    if not 0.0 < cfg.rmax < 1.0:
        raise ConfigError(f"rmax must lie in (0, 1), got {cfg.rmax!r}")
    if not cfg.eps_diag >= EPS_DIAG:
        raise ConfigError(
            f"eps_diag must be at least {EPS_DIAG:g}, the affine chart guard of map_H, got {cfg.eps_diag!r}"
        )
    if not isinstance(cfg.workers, int) or cfg.workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {cfg.workers!r}")
    unknown = [s for s in cfg.suites if s not in _BY_NAME]
    if unknown:
        raise ConfigError(f"unknown suite ids: {', '.join(sorted(unknown))}")
    for name, tol in cfg.tolerances.items():
        if name not in _BY_NAME:
            raise ConfigError(f"tolerance override for unknown suite {name!r}")
        if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
            raise ConfigError(f"tolerance for {name!r} must be finite and positive, got {tol!r}")
    for name in cfg.suites:
        _check_admissible(cfg, name)


def _sample_count(cfg: SuiteConfig, suite: _Suite) -> int:
    return max(1, int(round(cfg.samples * suite.weight)))


def _block(suite: _Suite, cfg: SuiteConfig, lo: int, hi: int):
    """Samples lo..hi-1 of a suite as (residual, error, inputs).

    ``error[r]`` is None unless row r failed hard; ``inputs[r]`` is the
    row's recorded inputs.  The rows are drawn by jumping the suite's
    stream to row lo, so this one helper serves both a run and the
    replay of any single index.
    """
    u = uniform_block(cfg.seed, _stream_id(suite.name), suite.draws, lo, hi)
    with np.errstate(all="ignore"):  # rows that failed a check carry meaningless values
        return suite.fn(cfg, u, np.arange(lo, hi))


def run_suite(name: str, cfg: SuiteConfig) -> SuiteReport:
    """Run one registered suite; deterministic given (seed, samples)."""
    validate_config(cfg)
    if name not in _BY_NAME:
        raise ConfigError(f"unknown suite id {name!r}")
    _check_admissible(cfg, name)
    return _run_suite_validated(name, cfg)


def _run_suite_validated(name: str, cfg: SuiteConfig) -> SuiteReport:
    suite = _BY_NAME[name]
    tol = cfg.tolerances.get(name, suite.tolerance)
    count = _sample_count(cfg, suite)
    start = time.perf_counter()
    max_res = 0.0
    have_res = False
    failures: list[dict] = []
    hard = flagged_total = 0
    for lo in range(0, count, BLOCK):
        residual, error, inputs = _block(suite, cfg, lo, min(lo + BLOCK, count))
        failed = error.astype(bool)
        scored = residual[~failed]
        hard += int(failed.sum())
        if scored.size:
            have_res = True
            block_max = float(np.fmax.reduce(scored))  # NaN rows are flagged below, not maxed
            if block_max > max_res:
                max_res = block_max
        flagged = np.flatnonzero(failed | ~(residual < tol))
        flagged_total += flagged.size
        for r in flagged[: MAX_FAILURES - len(failures)].tolist():
            row = inputs[r].tolist() if isinstance(inputs, np.ndarray) else inputs[r]
            if failed[r]:
                failures.append({"index": lo + r, "error": error[r], "inputs": row})
            else:
                failures.append({"index": lo + r, "residual": float(residual[r]), "inputs": row})
    return SuiteReport(
        suite=name,
        claim=suite.claim,
        passed=flagged_total == 0,
        max_residual=max_res if have_res else None,
        tolerance=tol,
        samples=count,
        failures=tuple(failures),
        hard_failures=hard,
        wall_time_s=time.perf_counter() - start,
    )


def run_suites(cfg: SuiteConfig) -> list[SuiteReport]:
    validate_config(cfg)
    return [_run_suite_validated(name, cfg) for name in cfg.suites]


def report_document(cfg: SuiteConfig, reports: list[SuiteReport]) -> dict:
    # workers deliberately left out: it must not affect any reported byte
    return {
        "schema": SCHEMA_VERSION,
        "config": {
            "seed": cfg.seed,
            "samples": cfg.samples,
            "rmax": cfg.rmax,
            "eps_diag": cfg.eps_diag,
            "tolerances": dict(sorted(cfg.tolerances.items())),
            "suites": list(cfg.suites),
        },
        "rng": {
            "bit_generator": "PCG64",
            "seeding": "SeedSequence([seed, stream_id])",
            "suites": {
                r.suite: {"stream_id": _stream_id(r.suite), "draws_per_sample": _BY_NAME[r.suite].draws}
                for r in reports
            },
        },
        "passed": all(r.passed for r in reports),
        "suites": [r.to_dict() for r in reports],
    }


def verify_all(cfg: SuiteConfig, report_path: str | None = None) -> tuple[int, dict]:
    """Run the configured suites; returns (exit_code, report document).

    Exit code 0 when every suite passes (vacuously for an empty list,
    with a warning), 1 otherwise.  Config errors raise ConfigError.
    """
    validate_config(cfg)
    if not cfg.suites:
        warnings.warn("no suites selected; report is empty and vacuously passing")
    reports = [_run_suite_validated(name, cfg) for name in cfg.suites]
    doc = report_document(cfg, reports)
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return (0 if doc["passed"] else 1), doc
