"""Explicit maps between the bidisc and its quadric models.

Off the diagonal, the bidisc embeds into the affine quadric
{z1^2 + z2^2 - z3^2 = 1} by

    H(z, w) = ( (1 - z w) / (z - w),
                i (1 + z w) / (z - w),
                -i (z + w) / (z - w) ),

and into CP^3, diagonal included, by the homogeneous variant

    J(z, w) = ( z - w : 1 - z w : i (1 + z w) : -i (z + w) ),

so J = (z - w) (1 : H) wherever both are defined.  H odd under the
coordinate swap: H(w, z) = -H(z, w).

The inverse of H is algebraic: with d = 2 / (h1 - i h2) and
s = i h3 d one has z - w = d and z + w = s, hence {z, w} are the roots
(s +- d) / 2 of X^2 - s X + (zw).  The ordering is fixed by a
reproduction test, which doubles as the domain check.

Conjugating a diagonal automorphism (or the coordinate swap) through H
linearizes it: the induced map on C^3 is multiplication by a real
matrix preserving diag(1,1,-1).  conjugate_fit recovers that matrix
numerically by least squares from sampled pairs and reports how well
held-out samples and the group relations are satisfied.

Off-diagonal pairs, for the fit and for the batched suites alike, come
from ``PairDraw``: masked resampling inside a fixed budget of uniforms.

The ``*_array`` twins evaluate J, H, H^-1 and sym elementwise on complex
arrays for the batched suites.  They skip the argument checks;
``mobius.outside_disc`` and ``near_diagonal`` are the array forms of the
disc check and of the affine chart guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import ProjectivePoint
from .groups import o21_residual
from .mobius import MobiusMap, mobius_apply_pair, outside_disc, _require_disc, pseudo_hyperbolic_array
from .rng import DEFAULT_RMAX, disc_from_uniforms

EPS_DIAG = 1e-6
_ROUNDTRIP_TOL = 1e-9

Pair = tuple[complex, complex]
Triple = tuple[complex, complex, complex]


def swap_pair(p: Pair) -> Pair:
    return p[1], p[0]


def sym(z1: complex, z2: complex) -> Pair:
    """Symmetrization (z1 + z2, z1 z2); invariant under the coordinate swap."""
    return z1 + z2, z1 * z2


def map_J(z: complex, w: complex) -> ProjectivePoint:
    """Homogeneous quadric embedding; defined on the whole bidisc."""
    _require_disc(z, "z")
    _require_disc(w, "w")
    zw = z * w
    return ProjectivePoint([z - w, 1.0 - zw, 1j * (1.0 + zw), -1j * (z + w)])


def map_H(z: complex, w: complex) -> Triple:
    """Affine quadric embedding; needs |z - w| >= 1e-6 to stay well conditioned."""
    _require_disc(z, "z")
    _require_disc(w, "w")
    d = z - w
    if abs(d) < EPS_DIAG:
        raise ValueError("point too close to the diagonal for the affine chart")
    zw = z * w
    return ((1.0 - zw) / d, 1j * (1.0 + zw) / d, -1j * (z + w) / d)


def near_diagonal(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mask of the pairs that map_H's affine chart guard rejects."""
    return np.abs(z - w) < EPS_DIAG


def _cdiv(ar: np.ndarray, ai: np.ndarray, br: np.ndarray, bi: np.ndarray) -> np.ndarray:
    # (ar + i ai) / (br + i bi) for denominators of modulus >= EPS_DIAG, where the
    # textbook formula neither overflows nor underflows
    den = br * br + bi * bi
    out = np.empty(np.shape(den), dtype=complex)
    out.real = (ar * br + ai * bi) / den
    out.imag = (ai * br - ar * bi) / den
    return out


def map_H_array(z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array twin of map_H, without its checks.

    Computed on real and imaginary parts: float products commute
    exactly, so map_H_array(w, z) == -map_H_array(z, w) bit for bit, as
    with Python complex numbers.  numpy's complex multiply may use fused
    multiply-adds, and then z * w and w * z differ in the last bits.
    """
    zr, zi, wr, wi = z.real, z.imag, w.real, w.imag
    dr, di = zr - wr, zi - wi
    pr = zr * wr - zi * wi  # zw
    pi = zr * wi + zi * wr
    return (
        _cdiv(1.0 - pr, -pi, dr, di),
        _cdiv(-pi, 1.0 + pr, dr, di),
        _cdiv(zi + wi, -(zr + wr), dr, di),
    )


def map_J_array(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Array twin of map_J's homogeneous coordinates, shape (4, n)."""
    zw = z * w
    return np.stack([z - w, 1.0 - zw, 1j * (1.0 + zw), -1j * (z + w)])


def sym_array(z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array twin of sym, exactly symmetric like the scalar form (see map_H_array)."""
    zw = np.empty(np.shape(z), dtype=complex)
    zw.real = z.real * w.real - z.imag * w.imag
    zw.imag = z.real * w.imag + z.imag * w.real
    return z + w, zw


def map_H_inv(h1: complex, h2: complex, h3: complex) -> Pair:
    """Invert the affine quadric embedding.

    Raises if the input does not reproduce under the forward map (it
    then lies off the image, e.g. off the quadric or with roots on the
    unit circle).
    """
    den = h1 - 1j * h2
    scale = max(1.0, abs(h1), abs(h2), abs(h3))
    if abs(den) < 1e-12 * scale:
        raise ValueError("h1 - i h2 vanishes; the pair difference is not recoverable")
    d = 2.0 / den  # z - w
    s = 1j * h3 * d  # z + w
    z, w = 0.5 * (s + d), 0.5 * (s - d)
    for cand in ((z, w), (w, z)):
        try:
            back = map_H(*cand)
        except ValueError:
            continue
        err = max(abs(back[0] - h1), abs(back[1] - h2), abs(back[2] - h3))
        if err <= _ROUNDTRIP_TOL * scale:
            return cand
    raise ValueError("input does not lie on the embedded bidisc within tolerance")


def map_H_inv_array(
    h1: np.ndarray, h2: np.ndarray, h3: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array twin of map_H_inv: (z, w, ok), where ok is False on the rows it rejects."""
    den = h1 - 1j * h2
    scale = np.maximum(np.maximum(1.0, np.abs(h1)), np.maximum(np.abs(h2), np.abs(h3)))
    d = 2.0 / den
    s = 1j * h3 * d
    z, w = 0.5 * (s + d), 0.5 * (s - d)

    def reproduces(a, b):
        back = map_H_array(a, b)
        err = np.maximum(np.maximum(np.abs(back[0] - h1), np.abs(back[1] - h2)), np.abs(back[2] - h3))
        return ~(outside_disc(a) | outside_disc(b) | near_diagonal(a, b)) & (err <= _ROUNDTRIP_TOL * scale)

    first = reproduces(z, w)
    ok = ~(np.abs(den) < 1e-12 * scale) & (first | reproduces(w, z))
    return np.where(first, z, w), np.where(first, w, z), ok


def scale_g_t(t: float, p: Pair) -> Pair:
    """(u, v) -> (u/t, v); carries the ellipsoid |u|^2 + t^2 |v|^2 = t^2 onto the sphere."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"need 0 < t < 1, got {t}")
    return p[0] / t, p[1]


# ---------------------------------------------------------------------------
# off-diagonal pairs

PAIR_ROUNDS = 32  # candidate pairs in an off-diagonal draw's budget
PAIR_DRAWS = 4 * PAIR_ROUNDS


@dataclass(frozen=True)
class PairDraw:
    """Off-diagonal bidisc pairs by masked resampling inside a budget of PAIR_DRAWS uniforms.

    A pair is admissible when |z - w| >= margin and, with rho_floor set,
    rho(z, w) >= rho_floor.  Round k proposes, for each row of u still
    open, the pair of area-uniform rmax-disc points drawn from columns
    4k..4k+3 (radius and angle of z, then of w); a row keeps its first
    admissible proposal.  A row never loops and never reads past its
    budget: one with no admissible proposal keeps its last proposal and
    is reported as missing.
    """

    rho_floor: float = 0.0

    def wanted(self, margin: float) -> str:
        return f"|z - w| >= {margin:g}" + (f" and rho >= {self.rho_floor:g}" if self.rho_floor else "")

    def why_empty(self, rmax: float, margin: float) -> str | None:
        """Why no pair of rmax-disc points is admissible, or None."""
        if margin >= 2.0 * rmax:
            return (
                f"pairs need |z - w| >= {margin:g}, "
                f"but no two points of the rmax = {rmax!r} disc are that far apart"
            )
        sup_rho = 2.0 * rmax / (1.0 + rmax * rmax)
        if sup_rho <= self.rho_floor:
            return (
                f"rmax = {rmax!r} keeps rho below 2 rmax / (1 + rmax^2) = {sup_rho:.6g}, "
                f"so no pair reaches rho >= {self.rho_floor:g}"
            )
        return None

    def __call__(self, u: np.ndarray, rmax: float, margin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(z, w, missing) for the rows of u; missing holds the indices of the rows without an admissible pair."""
        n = len(u)
        z, w = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
        todo = np.arange(n)
        for k in range(PAIR_ROUNDS):
            c = u[todo, 4 * k : 4 * k + 4]
            zk, wk = disc_from_uniforms(c[:, 0], c[:, 1], rmax), disc_from_uniforms(c[:, 2], c[:, 3], rmax)
            z[todo], w[todo] = zk, wk
            keep = np.abs(zk - wk) >= margin
            if self.rho_floor:
                keep &= pseudo_hyperbolic_array(zk, wk) >= self.rho_floor
            todo = todo[~keep]
            if not todo.size:
                break
        return z, w, todo


# ---------------------------------------------------------------------------
# conjugation through H

@dataclass(frozen=True)
class ConjugationFit:
    """Real 3x3 matrix intertwining a bidisc automorphism with the quadric picture."""

    phi: MobiusMap | None
    swap: bool
    matrix: np.ndarray
    fit_residual: float  # worst held-out reproduction error
    membership_residual: float  # Frobenius distance from the O(2,1) relations
    det: float
    a33: float


_COND_GUARD = 1e8
FIT_DIAG_MARGIN = 0.05
FIT_PAIRS = PairDraw()
FIT_DRAWS = 10 * PAIR_DRAWS  # uniforms of a fit at the default 6 + 4 points


def _apply_auto(phi: MobiusMap | None, swap: bool, p: Pair) -> Pair:
    if swap:
        p = swap_pair(p)
    if phi is not None:
        p = mobius_apply_pair(phi, p)
    return p


def conjugate_fit(
    phi: MobiusMap | None,
    u: np.ndarray,
    *,
    swap: bool = False,
    rmax: float = DEFAULT_RMAX,
    n_fit: int = 6,
    n_holdout: int = 4,
) -> ConjugationFit:
    """Fit the real 3x3 matrix M with M H(p) = H(Phi(p)).

    Phi applies the swap first (when requested), then the diagonal
    automorphism phi.  The n_fit + n_holdout points are FIT_PAIRS draws
    with |z - w| >= 0.05, PAIR_DRAWS uniforms of u each (ValueError when
    one has no admissible candidate).  Each fit point gives 3 complex =
    6 real equations, solved row-wise by normal equations; a design
    matrix with condition number above 1e8 is a ValueError.  The
    returned fit_residual is the worst reproduction error on the
    held-out points.
    """
    if phi is None and not swap:
        raise ValueError("specify an automorphism: a MobiusMap, swap=True, or both")
    if n_fit < 4:
        raise ValueError("need at least 4 fit samples for a determined system")
    n = n_fit + n_holdout
    u = np.asarray(u, dtype=float)
    if u.shape != (n * PAIR_DRAWS,):
        raise ValueError(f"a fit of {n} points takes {n * PAIR_DRAWS} uniforms, got shape {u.shape}")
    z, w, missing = FIT_PAIRS(u.reshape(n, PAIR_DRAWS), rmax, FIT_DIAG_MARGIN)
    if missing.size:
        wanted = FIT_PAIRS.wanted(FIT_DIAG_MARGIN)
        raise ValueError(f"none of fit point {missing[0]}'s {PAIR_ROUNDS} candidate pairs has {wanted}")
    pts = list(zip(z.tolist(), w.tolist()))
    fit_pts, hold_pts = pts[:n_fit], pts[n_fit:]
    src = np.array([map_H(*p) for p in fit_pts])  # (n_fit, 3) complex
    dst = np.array([map_H(*_apply_auto(phi, swap, p)) for p in fit_pts])
    A = np.vstack([src.real, src.imag])  # (2 n_fit, 3) real
    cond = np.linalg.cond(A)
    if cond > _COND_GUARD:
        raise ValueError(f"design matrix condition number {cond:.3g} exceeds {_COND_GUARD:g}")
    B = np.vstack([dst.real, dst.imag])  # (2 n_fit, 3), column j = target row j
    G = A.T @ A
    M = np.linalg.solve(G, A.T @ B).T  # rows of M solve the row-wise systems
    worst = 0.0
    for p in hold_pts:
        lhs = M @ np.asarray(map_H(*p))
        rhs = np.asarray(map_H(*_apply_auto(phi, swap, p)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return ConjugationFit(
        phi=phi,
        swap=swap,
        matrix=M,
        fit_residual=worst,
        membership_residual=o21_residual(M),
        det=float(np.linalg.det(M)),
        a33=float(M[2, 2]),
    )
