"""Numerical CR analysis: Wirtinger calculus, Levi forms, totally real tests.

A real hypersurface {r = 0} carries, at each regular point, the complex
tangent space {v : sum_j dr/dz_j v_j = 0} and on it the Levi form

    L(v) = sum_{j,k} d^2 r / dz_j dconj(z_k)  conj(v_j) v_k .

Derivatives are taken by central finite differences on the underlying
real coordinates and assembled into Wirtinger form,

    dr/dz_j           = (d/dx_j - i d/dy_j) r / 2,
    d^2 r/dz_j dcz_k  = (R_xx + R_yy + i (R_xy - R_yx))_{jk} / 4,

with the Hessian Hermitian-symmetrized afterwards.  The defining
functions are the records of ``orbits.FAMILIES`` that have one, taken
with their parameter as an ``orbits.Family``: each record supplies the
value, the ambient check and, on the quadric, the holomorphic
constraint row the complex tangent must also annihilate.  Its
closed-form gradient and Hessian serve as an independent cross-check;
the finite-difference path is always the one exercised by callers.

Steps scale with max(1, |p|_inf): the second-difference rounding floor
is then ~eps/h^2 regardless of how large the point's coordinates are.
The Hessian step default 1e-4 puts that floor near 7e-8; the gradient
step default 1e-5 puts the first-difference floor near 2e-11.  All
registered functions except the rho-level family are quadratic in the
real coordinates, so the larger Hessian step costs no truncation error
there, and on the rho-level family the h^2 truncation (~1e-8) is far
below any certification floor in use.

Batched evaluation: every function of a point also takes an (n, dim)
batch of points and then returns one result per row; a single point is
the batch of one.  The stencil loops over its offsets (at most 73, for
C^3) with (n, dim) arrays, and the tangents come from one batched SVD.
Each row's arithmetic is elementwise and in the same order whatever the
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
from .orbits import Family, RowErrors

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
    rows = RowErrors(len(P)) if errors is None else errors
    finite = np.isfinite(P).all(axis=1)
    if not finite.all():
        rows.flag(~finite, "point must have finite components")
        P = np.where(finite[:, None], P, 0j)
    return P, single, rows


def _done(out: np.ndarray, single: bool, rows: RowErrors, errors: RowErrors | None):
    if errors is None:
        rows.raise_first()
    return out[0] if single else out


def value(f: Family, p, *, errors: RowErrors | None = None):
    """Evaluate the defining function at a point, or at each row of a batch."""
    P, single, rows = _batch(f, p, errors)
    return _done(f.record.value(P, f.param), single, rows, errors)


def closed_wirtinger_gradient(f: Family, p) -> np.ndarray:
    """Exact Wirtinger gradient; the oracle the FD path is checked against."""
    P, single, rows = _batch(f, p, None)
    return _done(np.stack(f.record.gradient(P.T, f.param), axis=1), single, rows, None)


def closed_complex_hessian(f: Family, p) -> np.ndarray:
    """Exact complex Hessian (d^2 r / dz_j dconj(z_k))."""
    P, single, rows = _batch(f, p, None)
    return _done(f.record.hessian(P, f.param), single, rows, None)


def _check_ambient(f: Family, P: np.ndarray, rows: RowErrors) -> None:
    if f.record.ambient is not None:  # None: the ambient is all of C^dim
        bound, message = f.record.ambient
        rows.flag(np.abs(P).max(axis=1) >= bound, message)


def _scaled_step(P: np.ndarray, h: float) -> np.ndarray:
    return h * np.maximum(1.0, np.abs(P).max(axis=1))


def _shift(P: np.ndarray, *moves) -> np.ndarray:
    """P moved by (c, d) steps along interleaved real coordinates: c = 2j is Re z_j, 2j+1 is Im z_j."""
    Q = P.copy()
    for c, d in moves:
        part = Q.imag if c % 2 else Q.real
        part[:, c // 2] += d
    return Q


def wirtinger_gradient(
    f: Family, p, h: float = GRAD_STEP, *, errors: RowErrors | None = None
) -> np.ndarray:
    """FD Wirtinger gradient (central differences, step scaled by the point size)."""
    P, single, rows = _batch(f, p, errors)
    _check_ambient(f, P, rows)
    return _done(_fd_gradient(f, P, _scaled_step(P, h), rows), single, rows, errors)


def _fd_gradient(f: Family, P: np.ndarray, s: np.ndarray, rows: RowErrors) -> np.ndarray:
    G = np.empty(P.shape, dtype=complex)
    two_s = 2.0 * s
    for j in range(P.shape[1]):
        dx, dy = (
            (value(f, _shift(P, (c, s)), errors=rows) - value(f, _shift(P, (c, -s)), errors=rows)) / two_s
            for c in (2 * j, 2 * j + 1)
        )
        G[:, j].real = 0.5 * dx
        G[:, j].imag = -0.5 * dy
    return G


def complex_hessian(
    f: Family, p, h: float = HESS_STEP, *, errors: RowErrors | None = None
) -> np.ndarray:
    """FD complex Hessian, Hermitian-symmetrized."""
    P, single, rows = _batch(f, p, errors)
    _check_ambient(f, P, rows)
    H = _fd_complex_hessian(f, P, _scaled_step(P, h), rows)
    return _done(0.5 * (H + H.conj().swapaxes(1, 2)), single, rows, errors)


def _fd_complex_hessian(f: Family, P: np.ndarray, s: np.ndarray, rows: RowErrors) -> np.ndarray:
    n, dim = P.shape
    # real Hessian on interleaved coordinates (x1, y1, x2, y2, ...), one (n,) entry per pair
    m = 2 * dim
    R = np.empty((m, m, n))
    f0 = value(f, P, errors=rows)
    s2, s4 = s * s, 4.0 * s * s
    for a in range(m):
        R[a, a] = (
            value(f, _shift(P, (a, s)), errors=rows) - 2.0 * f0 + value(f, _shift(P, (a, -s)), errors=rows)
        ) / s2
        for b in range(a + 1, m):
            pp, pm, mp, mm = (
                value(f, _shift(P, (a, da), (b, db)), errors=rows)
                for da, db in ((s, s), (s, -s), (-s, s), (-s, -s))
            )
            R[a, b] = R[b, a] = (pp - pm - mp + mm) / s4
    H = np.empty((n, dim, dim), dtype=complex)
    for j in range(dim):
        for k in range(dim):
            H[:, j, k].real = 0.25 * (R[2 * j, 2 * k] + R[2 * j + 1, 2 * k + 1])
            H[:, j, k].imag = 0.25 * (R[2 * j, 2 * k + 1] - R[2 * j + 1, 2 * k])
    return H


def _constraint_rows(f: Family, P: np.ndarray, h: float, rows: RowErrors):
    G = wirtinger_gradient(f, P, h, errors=rows)
    if f.record.constraint is None:
        return G[:, None, :]
    return np.stack([G, f.record.constraint(P)], axis=1)


def complex_tangent(
    f: Family, p, h: float = GRAD_STEP, *, errors: RowErrors | None = None
) -> np.ndarray:
    """Unit complex tangent vector at a regular point of {r = 0}.

    Computed as the kernel of the stacked constraint rows (the Wirtinger
    gradient, plus the holomorphic quadric gradient for the C^3 family);
    the phase is fixed by making the first nonzero component real and
    positive.
    """
    P, single, rows = _batch(f, p, errors)
    n = len(P)
    C = _constraint_rows(f, P, h, rows)
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
    return _done(v, single, rows, errors)


def _levi_form(v: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Re(v^H H v) of each row, summed in a fixed order on real and imaginary parts."""
    out = np.zeros(len(v))
    for j in range(v.shape[1]):
        for k in range(v.shape[1]):
            hr, hi, vr, vi = H[:, j, k].real, H[:, j, k].imag, v[:, k].real, v[:, k].imag
            out += v[:, j].real * (hr * vr - hi * vi) + v[:, j].imag * (hr * vi + hi * vr)
    return out


def levi_restricted(f: Family, p, h: float = HESS_STEP, *, errors: RowErrors | None = None):
    """Levi form evaluated on the unit complex tangent at an on-surface point."""
    P, single, rows = _batch(f, p, errors)
    scale2 = np.maximum(1.0, np.abs(P).max(axis=1) ** 2)
    rows.flag(
        np.abs(value(f, P, errors=rows)) > ON_SURFACE_TOL * scale2, "point does not lie on the hypersurface"
    )
    v = complex_tangent(f, P, errors=rows)
    H = complex_hessian(f, P, h, errors=rows)
    return _done(_levi_form(v, H), single, rows, errors)


def totally_real_check(basis) -> tuple[bool, int]:
    """Decide whether span_R(basis) meets i * span_R(basis) only at 0.

    basis: real-tangent vectors given in complex coordinates.  Returns
    (totally_real, dim_R of the intersection).
    """
    vecs = [np.asarray(v, dtype=complex) for v in basis]
    if not vecs:
        raise ValueError("basis must be nonempty")
    n = vecs[0].shape[0]
    if any(v.shape != (n,) for v in vecs):
        raise ValueError("basis vectors must share one ambient dimension")
    B = np.column_stack([_realify(v) for v in vecs])
    JB = np.column_stack([_realify(1j * v) for v in vecs])
    k = np.linalg.matrix_rank(B)
    if k != len(vecs):
        raise ValueError("basis vectors are linearly dependent over R")
    dim_sum = np.linalg.matrix_rank(np.hstack([B, JB]))
    dim_meet = 2 * k - int(dim_sum)
    return dim_meet == 0, dim_meet


def _realify(v: np.ndarray) -> np.ndarray:
    out = np.empty(2 * v.shape[0])
    out[0::2] = v.real
    out[1::2] = v.imag
    return out
