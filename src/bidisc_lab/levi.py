"""Numerical CR analysis: Wirtinger calculus, Levi forms, totally real tests.

A real hypersurface {r = 0} carries, at each regular point, the complex
tangent space {v : sum_j dr/dz_j v_j = 0} and on it the Levi form

    L(v) = sum_{j,k} d^2 r / dz_j dconj(z_k)  v_j conj(v_k) .

The complex tangent and the Levi value are exact: each record of
``orbits.FAMILIES`` that has a defining function, taken with its
parameter as an ``orbits.Family``, supplies its closed-form Wirtinger
gradient g = (dr/dz_j) and complex Hessian H = (d^2 r / dz_j dconj(z_k)),
and on the quadric also the holomorphic constraint row
q = 2 (z1, z2, -z3) the tangent must annihilate.  The tangent is the
generalised cross product of these dim - 1 rows: (g2, -g1) in C^2 and
g x q in C^3.  The Levi value contracts H with that unit tangent.

Batched evaluation: every function of a point also takes an (n, dim)
batch of points and then returns one result per row; a single point is
the batch of one.  Each row's arithmetic is elementwise and in the same
order whatever the batch (the Levi contraction adds its dim^2 terms one
by one, never through a matrix product), so a row's result does not
depend on the rows beside it.  Reductions over a row's few entries are
folds over the columns (``rng._row_max``), and the ranks of
``totally_real_check`` come from Gaussian elimination, not an SVD.  The
checks run per row: finiteness, on-surface, the ambient's unit circle,
the gradient floor, degenerate constraint rows and the orthogonality
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
from .mobius import _inside
from .orbits import Family
from .rng import RowErrors, _collector, _row_max, _size, _times, _unbatch

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
    if P.ndim > 2 or P.shape[-1:] != (record.dim,):
        raise ValueError(f"{record.name} expects a point of C^{record.dim}")
    single, P = P.ndim == 1, P.reshape(-1, record.dim)
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


def wirtinger_gradient(f: Family, p, *, errors: RowErrors | None = None) -> np.ndarray:
    """The exact Wirtinger gradient (dr/dz_j) that the family's record gives in closed form."""
    P, single, rows = _batch(f, p, errors)
    return _unbatch(f.record.gradient(P, f.param), single)


def complex_hessian(f: Family, p, *, errors: RowErrors | None = None) -> np.ndarray:
    """The exact complex Hessian (d^2 r / dz_j dconj(z_k)) that the family's record gives in closed form."""
    P, single, rows = _batch(f, p, errors)
    return _unbatch(f.record.hessian(P, f.param), single)


def _sum_abs2(V: np.ndarray) -> np.ndarray:
    return sum(_abs2(V[:, k]) for k in range(V.shape[1]))


def complex_tangent(f: Family, p, *, errors: RowErrors | None = None) -> np.ndarray:
    """Unit complex tangent vector at a regular point of {r = 0}.

    The tangent v annihilates the constraint rows, sum_j C_j v_j = 0: the
    Wirtinger gradient g, and on the quadric also its holomorphic
    gradient q.  It is their generalised cross product, (g2, -g1) in C^2
    and g x q in C^3, scaled to unit length; the phase is fixed by
    making the first nonzero component real and positive.
    """
    P, single, rows = _batch(f, p, errors)
    dim = P.shape[1]
    g = wirtinger_gradient(f, P, errors=rows)
    rows.flag(np.sqrt(_sum_abs2(g)) < GRADIENT_FLOOR, "gradient vanishes; the point is not regular")
    if f.record.constraint is None:
        C = (g,)
        v = np.column_stack([g[:, 1], -g[:, 0]])
    else:
        q = f.record.constraint(P)
        C = (g, q)
        v = np.column_stack([
            g[:, 1] * q[:, 2] - g[:, 2] * q[:, 1],
            g[:, 2] * q[:, 0] - g[:, 0] * q[:, 2],
            g[:, 0] * q[:, 1] - g[:, 1] * q[:, 0],
        ])
    peak = _row_max(np.abs(v))
    v = v / np.where(peak > 0.0, peak, 1.0)[:, None]  # |g x q| may overflow where g x q does not
    length = np.sqrt(_sum_abs2(v))
    if len(C) > 1:
        # s_min / s_max < 1e-8 for the singular values of C: s_min s_max = |g x q|, s_min^2 + s_max^2 = t
        c, t = peak * length, _sum_abs2(g) + _sum_abs2(q)
        s_max2 = t + np.sqrt(np.maximum(t - 2.0 * c, 0.0)) * np.sqrt(t + 2.0 * c)  # 2 s_max^2
        rows.flag(2.0 * c < 1e-8 * s_max2, "constraint rows are degenerate at this point")
    # e1 stands in on the rows without a tangent
    v = np.where(rows.ok[:, None], v / np.where(rows.ok, length, 1.0)[:, None], np.eye(1, dim))
    defect = np.zeros(len(P))
    for con in C:
        defect = np.maximum(defect, np.abs(sum(con[:, j] * v[:, j] for j in range(dim))))
    rows.flag(~(defect <= 1e-8 * _size(*C)), "no tangent direction meets the orthogonality tolerance")  # NaN fails
    big = np.abs(v) > 1e-12
    lead = v[:, 0]
    for j in reversed(range(dim)):  # the first big component, else v[:, 0]
        lead = np.where(big[:, j], v[:, j], lead)
    v = v * np.where(_row_max(big), lead.conjugate() / np.abs(lead), 1.0)[:, None]
    return _unbatch(v, single)


def levi_restricted(f: Family, p, *, errors: RowErrors | None = None):
    """Levi form evaluated on the unit complex tangent at an on-surface point.

    Re sum_jk H_jk v_j conj(v_k), the terms added in a fixed order, each
    from separately rounded float products (see rng._times).
    """
    P, single, rows = _batch(f, p, errors)
    off = np.abs(value(f, P, errors=rows)) > ON_SURFACE_TOL * _size(P) ** 2
    rows.flag(off, "point does not lie on the hypersurface")
    if f.record.ambient:  # False: the ambient is all of C^dim
        rows.flag(_row_max(~_inside(P)), "a coordinate touches the unit circle; ambient check failed")
    v = complex_tangent(f, P, errors=rows)
    H = complex_hessian(f, P, errors=rows)
    levi = np.zeros(len(P))
    for j in range(P.shape[1]):
        for k in range(P.shape[1]):
            re, im = _times(v[:, j], v[:, k].conjugate())
            levi += H[:, j, k].real * re - H[:, j, k].imag * im
    return _unbatch(levi, single)


def _pivot_rank(A: np.ndarray) -> np.ndarray:
    """The rank of each (k, m) matrix of a stack, by the pivot rule of ``totally_real_check``.

    Each step takes the entry of largest modulus as its pivot and
    subtracts the rank-one product of its column and row divided by it,
    which clears the pivot's row and column; no rows or columns move.
    """
    n, k, m = A.shape
    r = np.arange(n)
    mod = np.abs(A).reshape(n, k * m)
    at = np.argmax(mod, axis=1)
    top = mod[r, at]
    # no entry of modulus above 1: nothing overflows.  The real and imaginary
    # parts are divided apart, since a complex division by a subnormal overflows
    A = np.ascontiguousarray(A)
    A = (A.view(float) / np.where(top > 0.0, top, 1.0)[:, None, None]).view(A.dtype)
    floor = max(k, m) * np.finfo(float).eps
    rank = np.zeros(n, dtype=int)
    counting = np.ones(n, dtype=bool)
    for step in range(k):
        if step:
            at = np.argmax(np.abs(A).reshape(n, k * m), axis=1)
        i, j = np.divmod(at, m)
        pivot = A[r, i, j]
        counting &= np.abs(pivot) > floor
        rank += counting
        if step == k - 1:
            break
        row, col = A[r, i], A[r, :, j] / np.where(counting, pivot, 1.0)[:, None]
        A = A - col[:, :, None] * row[:, None, :]
        A[r, i] = 0.0
        A[r, :, j] = 0.0
    return rank


def totally_real_check(basis, *, errors: RowErrors | None = None):
    """Decide whether span_R(basis) meets i * span_R(basis) only at 0.

    basis: real-tangent vectors given in complex coordinates, or a batch
    of such bases, shape (n, k, dim).  Returns (totally_real, dim_R of
    the intersection), one of each per row for a batch.  With W =
    span_R(basis), W + iW = span_C(basis), so the intersection of W and
    iW has dimension 2 dim_R W - dim_R(W + iW) = 2 (rank_R - rank_C) of
    the basis.  A row whose rank_R is below k fails its check.

    Rank rule: rank_R is the rank of the real k x 2 dim matrix
    [Re V | Im V] (the vectors as rows) and rank_C that of the complex
    k x dim matrix V.  Each is the number of pivots of k steps of
    Gaussian elimination with complete pivoting on the k x m matrix
    divided by its largest modulus, counted in order while their
    modulus exceeds max(k, m) eps.  numpy's ``matrix_rank`` puts the
    same floor, relative to the largest singular value, on the singular
    values; the two rules can disagree only where the smallest singular
    value lies within a small factor, set by k and m, of that floor.
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
    if not np.isfinite(V).all():
        bad = _row_max(~np.isfinite(V))
        rows.flag(bad, "basis vectors must have finite components")
        V = np.where(bad[:, None, None], 0j, V)
    k = _pivot_rank(np.concatenate([V.real, V.imag], axis=2))  # the vectors as rows in R^(2 dim)
    rows.flag(k != V.shape[1], "basis vectors are linearly dependent over R")
    dim_meet = 2 * (k - _pivot_rank(V))
    return _unbatch((dim_meet == 0, dim_meet), single)
