"""Numerical CR analysis: Wirtinger calculus, Levi forms, totally real tests.

A real hypersurface {r = 0} carries, at each regular point, the complex
tangent space {v : sum_j dr/dz_j v_j = 0} and on it the Levi form

    L(v) = sum_{j,k} d^2 r / dz_j dconj(z_k)  v_j conj(v_k) .

Derivatives are taken by central finite differences.  The gradient
comes from the underlying real coordinates in Wirtinger form,

    dr/dz_j = (d/dx_j - i d/dy_j) r / 2,

and the Levi value from the second derivatives of r along v and along
i v, since r_vv + r_(iv)(iv) = 4 L(v):

    L(v) ~ [r(p + s v) + r(p - s v) + r(p + i s v) + r(p - i s v) - 4 r(p)] / (4 s^2)

for a unit v.  The defining functions are the records of
``orbits.FAMILIES`` that have one, taken with their parameter as an
``orbits.Family``: each record supplies the value, the ambient check
and, on the quadric, the holomorphic constraint row the complex tangent
must also annihilate.  Its closed-form gradient and Hessian serve as an
independent cross-check; the finite-difference path is always the one
exercised by callers.

Steps scale with max(1, |p|_inf): the second-difference rounding floor
is then ~eps/s^2 regardless of how large the point's coordinates are.
The steps are constants: HESS_STEP = 1e-4 puts the floor of the Levi
value near 2e-8, and GRAD_STEP = 1e-5 puts the first-difference floor
near 2e-11.  All registered functions except the rho-level family are
quadratic in the real coordinates, so the second difference has no
truncation error there, and on the rho-level family the s^2 truncation
(~1e-8) is far below any certification floor in use.

Batched evaluation: every function of a point also takes an (n, dim)
batch of points and then returns one result per row; a single point is
the batch of one.  The differences shift whole (n, dim) arrays: 4 dim
values of r for the gradient, and r(p) with four more for the Levi
value, 4 dim + 5 in all; the tangents come from one batched SVD.  Each
row's arithmetic is elementwise and in the same order whatever the
batch, so a row's result does not depend on the rows beside it.  The
checks run per row: finiteness, the ambient margin, on-surface, the
gradient floor, degenerate constraint rows and the orthogonality
tolerance (a batch of the wrong shape is rejected as a whole).  A row
that fails one is recorded with the check's ValueError message in the
``errors`` collector (a ``RowErrors``) that the caller passes, and its
results are then meaningless; without a collector, the first failing
row raises.

Sign convention: defining functions are negative on the side the
hypersurface bounds pseudoconvexly (the side containing the degenerate
complex curve of its family, where one exists).  For the Minkowski
level sets on the quadric that is the *large*-level side, since the
curve sits at level infinity; hence r = level - form there.
"""

from __future__ import annotations

import numpy as np

from .domains import _abs2
from .orbits import Family
from .rng import RowErrors, _collector, _unbatch

GRAD_STEP = 1e-5
HESS_STEP = 1e-4
ON_SURFACE_TOL = 1e-8
GRADIENT_FLOOR = 1e-8


def _batch(f: Family, p, errors: RowErrors | None):
    """p as an (n, dim) batch, whether it was a single point, and the collector of its checks.

    Non-finite rows are flagged and replaced by the origin, so that the
    arithmetic on them stays quiet.
    """
    record = f.record
    if record.value is None:
        raise ValueError(f"{record.name} has no defining function")
    P = np.asarray(p, dtype=complex)
    single = P.ndim == 1
    if single:
        P = P[None, :]
    if P.ndim != 2 or P.shape[1] != record.dim:
        raise ValueError(f"{record.name} expects a point of C^{record.dim}")
    rows = _collector(errors, len(P))
    if not np.isfinite(P).all():
        finite = np.isfinite(P).all(axis=1)
        rows.flag(~finite, "point must have finite components")
        P = np.where(finite[:, None], P, 0j)
    return P, single, rows


def value(f: Family, p, *, errors: RowErrors | None = None):
    """Evaluate the defining function at a point, or at each row of a batch."""
    P, single, rows = _batch(f, p, errors)
    return _unbatch(f.record.value(P, f.param), single)


def closed_wirtinger_gradient(f: Family, p) -> np.ndarray:
    """Exact Wirtinger gradient; the oracle the FD path is checked against."""
    P, single, rows = _batch(f, p, None)
    return _unbatch(np.stack(f.record.gradient(P.T, f.param), axis=1), single)


def closed_complex_hessian(f: Family, p) -> np.ndarray:
    """Exact complex Hessian (d^2 r / dz_j dconj(z_k))."""
    P, single, rows = _batch(f, p, None)
    return _unbatch(f.record.hessian(P, f.param), single)


def _check_ambient(f: Family, P: np.ndarray, rows: RowErrors) -> None:
    if f.record.ambient is not None:  # None: the ambient is all of C^dim
        bound, message = f.record.ambient
        rows.flag(np.abs(P).max(axis=1) >= bound, message)


def _scaled_step(P: np.ndarray, h: float) -> np.ndarray:
    return h * np.maximum(1.0, np.abs(P).max(axis=1))


def _shift(P: np.ndarray, c: int, d: np.ndarray) -> np.ndarray:
    """P moved by d along interleaved real coordinate c: c = 2j is Re z_j, 2j+1 is Im z_j."""
    Q = P.copy()
    part = Q.imag if c % 2 else Q.real
    part[:, c // 2] += d
    return Q


def wirtinger_gradient(f: Family, p, *, errors: RowErrors | None = None) -> np.ndarray:
    """FD Wirtinger gradient (central differences, step GRAD_STEP scaled by the point size)."""
    P, single, rows = _batch(f, p, errors)
    _check_ambient(f, P, rows)
    return _unbatch(_fd_gradient(f, P, _scaled_step(P, GRAD_STEP), rows), single)


def _fd_gradient(f: Family, P: np.ndarray, s: np.ndarray, rows: RowErrors) -> np.ndarray:
    G = np.empty(P.shape, dtype=complex)
    two_s = 2.0 * s
    for j in range(P.shape[1]):
        dx, dy = (
            (value(f, _shift(P, c, s), errors=rows) - value(f, _shift(P, c, -s), errors=rows)) / two_s
            for c in (2 * j, 2 * j + 1)
        )
        G[:, j].real = 0.5 * dx
        G[:, j].imag = -0.5 * dy
    return G


def _constraint_rows(f: Family, P: np.ndarray, rows: RowErrors):
    G = wirtinger_gradient(f, P, errors=rows)
    if f.record.constraint is None:
        return G[:, None, :]
    return np.stack([G, f.record.constraint(P)], axis=1)


def complex_tangent(f: Family, p, *, errors: RowErrors | None = None) -> np.ndarray:
    """Unit complex tangent vector at a regular point of {r = 0}.

    Computed as the kernel of the stacked constraint rows (the Wirtinger
    gradient, plus the holomorphic quadric gradient for the C^3 family);
    the phase is fixed by making the first nonzero component real and
    positive.
    """
    P, single, rows = _batch(f, p, errors)
    n = len(P)
    C = _constraint_rows(f, P, rows)
    rows.flag(np.linalg.norm(C[:, 0], axis=1) < GRADIENT_FLOOR, "gradient vanishes; the point is not regular")
    live = rows.ok & np.isfinite(C.real).all(axis=(1, 2)) & np.isfinite(C.imag).all(axis=(1, 2))
    rows.flag(~live, "SVD did not converge")  # what np.linalg.svd raises on a non-finite row
    v = np.zeros_like(P)
    v[:, 0] = 1.0  # stands in on the rows without a tangent
    if live.any():
        _, svals, vh = np.linalg.svd(C[live])
        if C.shape[1] > 1:
            degenerate = np.zeros(n, dtype=bool)
            degenerate[live] = svals[:, -1] < 1e-8 * svals[:, 0]
            rows.flag(degenerate, "constraint rows are degenerate at this point")
        v[live] = np.conj(vh[:, -1])
    rows.flag(
        np.abs(C @ v[:, :, None]).max(axis=(1, 2)) > 1e-8 * np.maximum(1.0, np.abs(C).max(axis=(1, 2))),
        "no tangent direction meets the orthogonality tolerance",
    )
    v = v / np.sqrt(sum(_abs2(v[:, k]) for k in range(P.shape[1])))[:, None]
    big = np.abs(v) > 1e-12
    lead = v[np.arange(n), np.argmax(big, axis=1)]
    v = v * np.where(big.any(axis=1), lead.conjugate() / np.abs(lead), 1.0)[:, None]
    return _unbatch(v, single)


def _levi_along(f: Family, P: np.ndarray, v: np.ndarray, r0: np.ndarray, rows: RowErrors) -> np.ndarray:
    """Four second differences along the unit rows v of P, whose values are r0: about sum_jk H_jk v_j conj(v_k)."""
    s = _scaled_step(P, HESS_STEP)
    w = s[:, None] * v
    iw = 1j * w
    total = (
        value(f, P + w, errors=rows) + value(f, P - w, errors=rows)
        + value(f, P + iw, errors=rows) + value(f, P - iw, errors=rows)
    )
    return (total - 4.0 * r0) / (4.0 * (s * s))


def levi_restricted(f: Family, p, *, errors: RowErrors | None = None):
    """Levi form evaluated on the unit complex tangent at an on-surface point."""
    P, single, rows = _batch(f, p, errors)
    r0 = value(f, P, errors=rows)
    scale2 = np.maximum(1.0, np.abs(P).max(axis=1) ** 2)
    rows.flag(np.abs(r0) > ON_SURFACE_TOL * scale2, "point does not lie on the hypersurface")
    v = complex_tangent(f, P, errors=rows)
    return _unbatch(_levi_along(f, P, v, r0, rows), single)


def totally_real_check(basis, *, errors: RowErrors | None = None):
    """Decide whether span_R(basis) meets i * span_R(basis) only at 0.

    basis: real-tangent vectors given in complex coordinates, or a batch
    of such bases, shape (n, k, dim).  Returns (totally_real, dim_R of
    the intersection), one of each per row for a batch.
    """
    try:
        V = np.asarray(basis, dtype=complex)
    except ValueError:
        raise ValueError("basis vectors must share one ambient dimension") from None
    if V.size == 0:
        raise ValueError("basis must be nonempty")
    if V.ndim not in (2, 3):
        raise ValueError("basis vectors must share one ambient dimension")
    single = V.ndim == 2
    V = V.reshape((-1,) + V.shape[-2:])
    rows = _collector(errors, len(V))
    B, JB = _realify(V), _realify(1j * V)
    k = np.linalg.matrix_rank(B)
    rows.flag(k != V.shape[1], "basis vectors are linearly dependent over R")
    dim_meet = 2 * k - np.linalg.matrix_rank(np.concatenate([B, JB], axis=2))
    return _unbatch((dim_meet == 0, dim_meet), single)


def _realify(V: np.ndarray) -> np.ndarray:
    """The (n, k, dim) complex vectors as the columns of (n, 2 dim, k) real matrices, (re, im) interleaved."""
    out = np.empty((len(V), 2 * V.shape[2], V.shape[1]))
    out[:, 0::2] = V.real.swapaxes(1, 2)
    out[:, 1::2] = V.imag.swapaxes(1, 2)
    return out
