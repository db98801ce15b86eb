"""Matrix groups preserving the signature (+, +, -) forms, and their actions.

One group is parametrised: the disc automorphisms, each a ``MobiusMap``
(theta, a), lifted to SU(1,1) as alpha = e^{i theta/2} / sqrt(1 - |a|^2)
and beta = -a alpha.  It acts in three ways:

* on the unit ball in C^2, through ``su11_embed``: the lift embeds into
  SU(2,1) fixing the first coordinate, and SU(2,1) acts by
  fractional-linear maps, reading a 3x3 matrix row-wise as the
  numerators/denominator; the second ball coordinate moves by phi;
* on the real slice of the ball, through ``so21_image``: the real
  SO+(2,1) matrix acts by the same fractional-linear action (so do the
  det -1 O(2,1) transitivity matrices of ``o21_point_matrix``);
* on the affine quadric, through map_H, by the same ``so21_image``
  matrix: the symmetric square of the lift.

The hyperbolic invariant classifying the embedded SU(1,1) orbits of the
ball is t = |u| / sqrt(1 - |v|^2): the orbit through (t, 0) is the
ellipsoid |u|^2 + t^2 |v|^2 = t^2, carried onto the unit sphere by
(u, v) -> (u/t, v).

Every function takes one matrix, map or point, or a stack of them, one
per row (see ``rng``): matrices as (n, 3, 3) arrays, numbers as 1-d
arrays.
"""

from __future__ import annotations

import numpy as np

from .domains import _abs2
from .mobius import MobiusMap
from .rng import RowErrors, _batch, _size, _unbatch

I21 = np.diag([1.0, 1.0, -1.0])
I21.setflags(write=False)
_FORM = np.diag(I21)[:, None]  # I21_jj in row j, against (3, n) arrays

TOL_GROUP = 1e-9  # form-membership tolerance of the actions, times max(1, max_ij |A_ij|)^2
_DEN_TOL = 1e-12


def _matrices(A) -> np.ndarray:
    """A as one 3x3 matrix or an (n, 3, 3) stack of them: float64 when real, else complex."""
    A = np.asarray(A)
    A = A.astype(complex if np.iscomplexobj(A) else float, copy=False)
    if A.ndim not in (2, 3) or A.shape[-2:] != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    return A


def u21_residual(A):
    """Frobenius norm of M = A* I21 A - I21 for a 3x3 matrix, real or complex: zero on U(2,1), which keeps the form.

    Entry by entry, from separately rounded float products added in a
    fixed order (see rng._times), so a matrix reads the same alone as
    in any stack: the diagonal M_jj = |A_0j|^2 + |A_1j|^2 - |A_2j|^2 -
    I21_jj, and the Hermitian off-diagonal pairs through M_01, M_12 and
    M_20, each counted twice.

    A real matrix takes the same products with no imaginary part: the
    complex cast would only add +0.0 terms, change the sign of a zero
    that is then squared, and square a zero imaginary part, so on finite
    entries the real and the complex cast read the same bits.
    """
    A = _matrices(A)
    # row i of every matrix is x[i] + i y[i], a (3, n) array: each operation runs along the stack, and
    # working one row at a time keeps the temporaries to a third of the stack's size
    P = np.moveaxis(A.reshape(-1, 3, 3), 0, -1)
    k = [1, 2, 0]  # column j + 1 mod 3 beside column j

    def signed(term):  # the sum over the rows of I21_ii term(i), in a fixed order
        return term(0) + term(1) - term(2)

    if np.iscomplexobj(P):
        x, y = P.real.copy(), P.imag.copy()
        diag = signed(lambda i: x[i] * x[i] + y[i] * y[i]) - _FORM
        # the real and imaginary parts of M_jk = sum_i I21_ii conj(A_ij) A_ik
        re = signed(lambda i: x[i] * x[i, k] + y[i] * y[i, k])
        im = signed(lambda i: x[i] * y[i, k] - y[i] * x[i, k])
        off = re * re + im * im
    else:
        x = P.copy()
        diag = signed(lambda i: x[i] * x[i]) - _FORM
        re = signed(lambda i: x[i] * x[i, k])
        off = re * re
    d2 = diag * diag
    out = np.sqrt(d2[0] + d2[1] + d2[2] + 2.0 * (off[0] + off[1] + off[2]))
    return _unbatch(out, A.ndim == 2)


def su11_embed(phi: MobiusMap) -> np.ndarray:
    """The SU(2,1) matrix of phi's lift, fixing the first coordinate; a stack for a batch of maps.

    With the lift alpha = e^{i theta/2} / sqrt(1 - |a|^2), beta = -a alpha,
    the rows (1 0 0 / 0 alpha beta / 0 conj(beta) conj(alpha)) move the
    second ball coordinate by (alpha v + beta) / (conj(beta) v + conj(alpha))
    = phi(v).
    """
    (theta, a), _, single = _batch(None, phi.theta, phi.a)
    alpha = np.exp(0.5j * theta.real) / np.sqrt(1.0 - _abs2(a))
    beta = -a * alpha
    g = np.zeros((len(a), 3, 3), dtype=complex)
    g[:, 0, 0] = 1.0
    g[:, 1, 1], g[:, 1, 2] = alpha, beta
    g[:, 2, 1], g[:, 2, 2] = beta.conjugate(), alpha.conjugate()
    return _unbatch(g, single)


def ball_action(A, p, *, errors: RowErrors | None = None):
    """Fractional-linear action of an SU(2,1) matrix on a ball point; a stack acts row by row.

    Rows (a1 a2 a3 / b1 b2 b3 / c1 c2 c3) act by
    (u, v) -> ((a1 u + a2 v + a3), (b1 u + b2 v + b3)) / (c1 u + c2 v + c3).
    """
    A = _matrices(A)
    # the corner entry broadcasts a stack of matrices against the point
    (u, v, _), rows, single = _batch(errors, p[0], p[1], A[..., 2, 2])
    A = np.broadcast_to(A, (len(u), 3, 3))
    # the form relation alone makes the action well defined on the ball;
    # det -1 elements (the transitivity matrices of the real slice) act too
    rows.flag(
        ~(u21_residual(A) < TOL_GROUP * _size(A) ** 2), "matrix does not preserve the signature (+,+,-) Hermitian form"
    )
    rows.flag(~(_abs2(u) + _abs2(v) < 1.0), "point must lie in the open unit ball")
    den = A[:, 2, 0] * u + A[:, 2, 1] * v + A[:, 2, 2]
    rows.flag(np.abs(den) < _DEN_TOL, "action denominator vanishes at this point")
    out = ((A[:, 0, 0] * u + A[:, 0, 1] * v + A[:, 0, 2]) / den, (A[:, 1, 0] * u + A[:, 1, 1] * v + A[:, 1, 2]) / den)
    return _unbatch(out, single)


def su11_orbit_invariant(u, v, *, errors: RowErrors | None = None):
    """t = |u| / sqrt(1 - |v|^2); constant on embedded SU(1,1) orbits of the ball."""
    (u, v), rows, single = _batch(errors, u, v)
    rows.flag(~(_abs2(u) + _abs2(v) < 1.0), "point must lie in the open unit ball")
    return _unbatch(np.abs(u) / np.sqrt(1.0 - _abs2(v)), single)


def so21_image(phi: MobiusMap) -> np.ndarray:
    """The matrix A with map_H(phi(z), phi(w)) = A map_H(z, w); a stack for a batch of maps.

    map_H is the symmetric square of the disc: with
    B = [[-1, 0, 1], [i, 0, i], [0, -2i, 0]],
    (z - w) map_H(z, w) = B (zw, (z + w)/2, 1).  So phi = (theta, a),
    lifted to SU(1,1) as alpha = e^{i theta/2} / sqrt(1 - |a|^2) and
    beta = -a alpha, acts by A = B Sym^2(g) B^-1; the factor z - w
    cancels because det g = 1.  With e = e^{i theta}, A is real:

        A = [ Re e(1 - a^2)   -Im e(1 + a^2)   -2 Im(e a) ]
            [ Im e(1 - a^2)    Re e(1 + a^2)    2 Re(e a) ] / (1 - |a|^2),
            [ -2 Im a          2 Re a           1 + |a|^2 ]

    in SO+(2,1); its corner entry is at least 1 exactly.
    """
    (a,), _, single = _batch(None, phi.a)  # phi.theta, and so phi.rotation, has a's shape
    e, t = phi.rotation, _abs2(a)
    p, q, r = e * (1.0 - a * a), e * (1.0 + a * a), e * a
    A = np.empty((len(a), 3, 3))
    A[:, 0, 0], A[:, 0, 1], A[:, 0, 2] = p.real, -q.imag, -2.0 * r.imag
    A[:, 1, 0], A[:, 1, 1], A[:, 1, 2] = p.imag, q.real, 2.0 * r.real
    A[:, 2, 0], A[:, 2, 1], A[:, 2, 2] = -2.0 * a.imag, 2.0 * a.real, 1.0 + t
    A /= (1.0 - t)[:, None, None]
    return _unbatch(A, single)


def o21_point_matrix(z, w, *, errors: RowErrors | None = None) -> np.ndarray:
    """O(2,1) matrix carrying the origin of the real ball slice to (z, w); a stack for arrays.

    For a real pair with 0 < r = hypot(z, w) < 1, with the unit vector
    (x, y) = (z, w) / r and gamma = 1/sqrt((1 - r)(1 + r)), the matrix

        [ -y   gamma x   gamma z ]
        [  x   gamma y   gamma w ]
        [  0   gamma r   gamma   ]

    satisfies B^T I21 B = I21 and B.(0,0) = (z, w) under the
    fractional-linear ball action.  Built from the unit vector, its
    entries keep their digits on a tiny disc, where z^2 + w^2 would go
    subnormal.
    """
    if np.iscomplexobj(z) or np.iscomplexobj(w):
        raise ValueError("z, w must be real")
    (z, w), rows, single = _batch(errors, z, w, dtype=float)
    B = np.zeros((len(z), 3, 3))
    with np.errstate(all="ignore"):  # the rows that the checks flag may carry any value
        # scaled by 2^600, exactly: (x, y) keep their digits where r is subnormal
        zs, ws = z * 2.0**600, w * 2.0**600
        rs = np.hypot(zs, ws)
        r = rs * 2.0**-600
        rows.flag(r == 0.0, "(z, w) must differ from the origin")
        rows.flag(r >= 1.0, "(z, w) must lie in the open unit ball")
        x, y, gamma = zs / rs, ws / rs, 1.0 / np.sqrt((1.0 - r) * (1.0 + r))
        B[:, 0] = np.column_stack([-y, gamma * x, gamma * z])
        B[:, 1] = np.column_stack([x, gamma * y, gamma * w])
        B[:, 2, 1], B[:, 2, 2] = gamma * r, gamma
    return _unbatch(B, single)
