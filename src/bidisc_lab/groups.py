"""Matrix groups preserving the signature (+, +, -) forms, and their actions.

Four related actions appear:

* SU(2,1) acts on the unit ball in C^2 by fractional-linear maps,
  reading a 3x3 matrix row-wise as the numerators/denominator,
* SU(1,1) embeds into SU(2,1) fixing the first coordinate, which
  restricts to Mobius maps in the second ball coordinate,
* real form-preserving matrices, such as the SO+(2,1) samples and the
  O(2,1) transitivity matrices, act through the same fractional-linear
  action on the real slice of the ball,
* the diagonal disc automorphisms act on the affine quadric, through
  map_H, by the symmetric square of SU(1,1): ``so21_image`` gives each
  one's real SO+(2,1) matrix in closed form.

The hyperbolic invariant classifying the embedded SU(1,1) orbits of the
ball is t = |u| / sqrt(1 - |v|^2): the orbit through (t, 0) is the
ellipsoid |u|^2 + t^2 |v|^2 = t^2, carried onto the unit sphere by
(u, v) -> (u/t, v).

The SU(1,1) and SO+(2,1) samplers draw their hyperbolic parameter from
an exponential truncated at XI_MAX = 3, so their matrix entries stay
at most cosh(3) ~ 10.

Every function takes one matrix or point, or a stack of them, one per
row (see ``rng``): matrices as (n, 3, 3) arrays, numbers as 1-d arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .domains import _abs2
from .mobius import MobiusMap
from .rng import RowErrors, _batch, _unbatch, polar

I21 = np.diag([1.0, 1.0, -1.0])
I21.setflags(write=False)

TOL_GROUP = 1e-9  # form-membership tolerance for action preconditions
_DEN_TOL = 1e-12
XI_MAX = 3.0  # cap of the samplers' hyperbolic parameter


def _matrices(A, dtype, message: str) -> np.ndarray:
    """A as one 3x3 matrix or an (n, 3, 3) stack of them."""
    A = np.asarray(A, dtype=dtype)
    if A.ndim not in (2, 3) or A.shape[-2:] != (3, 3):
        raise ValueError(message)
    return A


def u21_residual(A):
    """Frobenius norm of A* I21 A - I21 for a complex 3x3 matrix: zero on U(2,1), which preserves the form."""
    A = _matrices(A, complex, "expected a 3x3 matrix")
    # I21 A scales the rows of A; the product is bit for bit A* @ I21 @ A
    out = np.linalg.norm(A.conj().swapaxes(-1, -2) @ (np.diag(I21)[:, None] * A) - I21, axis=(-2, -1))
    return float(out) if A.ndim == 2 else out


def o21_residual(A):
    """Frobenius norm of A^T I21 A - I21 for a real 3x3 matrix."""
    A = _matrices(A, float, "expected a real 3x3 matrix")
    out = np.linalg.norm(A.swapaxes(-1, -2) @ I21 @ A - I21, axis=(-2, -1))
    return float(out) if A.ndim == 2 else out


def su11_embed(alpha, beta, *, errors: RowErrors | None = None) -> np.ndarray:
    """Embed an SU(1,1) element (|alpha|^2 - |beta|^2 = 1) fixing the first coordinate."""
    (alpha, beta), rows, single = _batch(errors, alpha, beta)
    rows.flag(~(np.abs(_abs2(alpha) - _abs2(beta) - 1.0) < TOL_GROUP), "need |alpha|^2 - |beta|^2 = 1")
    g = np.zeros((len(alpha), 3, 3), dtype=complex)
    g[:, 0, 0] = 1.0
    g[:, 1, 1], g[:, 1, 2] = alpha, beta
    g[:, 2, 1], g[:, 2, 2] = beta.conjugate(), alpha.conjugate()
    return _unbatch(g, single)


def ball_action(A, p, *, errors: RowErrors | None = None):
    """Fractional-linear action of an SU(2,1) matrix on a ball point; a stack acts row by row.

    Rows (a1 a2 a3 / b1 b2 b3 / c1 c2 c3) act by
    (u, v) -> ((a1 u + a2 v + a3), (b1 u + b2 v + b3)) / (c1 u + c2 v + c3).
    """
    A = _matrices(A, complex, "expected a 3x3 matrix")
    # the corner entry broadcasts a stack of matrices against the point
    (u, v, _), rows, single = _batch(errors, p[0], p[1], A[..., 2, 2])
    A = np.broadcast_to(A, (len(u), 3, 3))
    # the form relation alone makes the action well defined on the ball;
    # det -1 elements (the transitivity matrices of the real slice) act too
    rows.flag(~(u21_residual(A) < TOL_GROUP), "matrix does not preserve the signature (+,+,-) Hermitian form")
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


def _truncated_exponential(u):
    # inverse CDF of Exp(1) conditioned on [0, XI_MAX]
    return -np.log1p(-u * (1.0 - math.exp(-XI_MAX)))


def random_su11(u):
    """(alpha, beta) with |alpha|^2 - |beta|^2 = 1, from 3 uniforms, or from each row of an (n, 3) block.

    Hyperbolic part xi from a truncated exponential capped at XI_MAX
    (u0), phases p1 = tau u1 and p2 = tau u2: alpha = cosh(xi) e^{i p1},
    beta = sinh(xi) e^{i p2}.
    """
    u = np.asarray(u, dtype=float)
    xi = _truncated_exponential(u[..., 0])
    out = polar(np.cosh(xi), math.tau * u[..., 1]), polar(np.sinh(xi), math.tau * u[..., 2])
    return tuple(c.item() for c in out) if u.ndim == 1 else out


def so21_rotation(theta) -> np.ndarray:
    """Rotation in the (x1, x2) plane, fixing the negative direction; a stack for an array of angles."""
    c, s = np.cos(theta), np.sin(theta)
    R = np.zeros(np.shape(theta) + (3, 3))
    R[..., 0, 0], R[..., 0, 1], R[..., 1, 0], R[..., 1, 1], R[..., 2, 2] = c, -s, s, c, 1.0
    return R


def so21_boost(xi) -> np.ndarray:
    """Hyperbolic rotation in the (x2, x3) plane with cosh/sinh entries; a stack for an array."""
    ch, sh = np.cosh(xi), np.sinh(xi)
    B = np.zeros(np.shape(xi) + (3, 3))
    B[..., 0, 0], B[..., 1, 1], B[..., 1, 2], B[..., 2, 1], B[..., 2, 2] = 1.0, ch, sh, sh, ch
    return B


def so21_sample(u) -> np.ndarray:
    """An SO+(2,1) element from 3 uniforms, or one per row of an (n, 3) block.

    Rotation-boost-rotation decomposition: angles tau u0 and tau u1;
    boost parameter from a truncated exponential capped at XI_MAX (u2),
    so matrix entries stay moderate.
    """
    u = np.asarray(u, dtype=float)
    xi = _truncated_exponential(u[..., 2])
    return so21_rotation(math.tau * u[..., 0]) @ so21_boost(xi) @ so21_rotation(math.tau * u[..., 1])


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
    (theta, a), _, single = _batch(None, phi.theta, phi.a)
    e, t = np.exp(1j * theta.real), _abs2(a)
    p, q, r = e * (1.0 - a * a), e * (1.0 + a * a), e * a
    rows = ((p.real, -q.imag, -2.0 * r.imag), (p.imag, q.real, 2.0 * r.real), (-2.0 * a.imag, 2.0 * a.real, 1.0 + t))
    A = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2) / (1.0 - t)[:, None, None]
    return _unbatch(A, single)


def o21_point_matrix(z, w, *, errors: RowErrors | None = None) -> np.ndarray:
    """O(2,1) matrix carrying the origin of the real ball slice to (z, w); a stack for arrays.

    For a real pair with 0 < z^2 + w^2 < 1, with
    alpha = 1/sqrt(z^2+w^2), gamma = 1/sqrt(1-z^2-w^2) and
    k = alpha*gamma, the matrix

        [ -alpha w   k z   gamma z ]
        [  alpha z   k w   gamma w ]
        [  0        k(z^2+w^2)  gamma ]

    satisfies B^T I21 B = I21 and B.(0,0) = (z, w) under the
    fractional-linear ball action.
    """
    if np.iscomplexobj(z) or np.iscomplexobj(w):
        raise ValueError("z, w must be real")
    (z, w), rows, single = _batch(errors, z, w, dtype=float)
    s = z * z + w * w
    rows.flag(s == 0.0, "(z, w) must differ from the origin")
    rows.flag(s >= 1.0, "(z, w) must lie in the open unit ball")
    alpha, gamma, k = 1.0 / np.sqrt(s), 1.0 / np.sqrt(1.0 - s), 1.0 / np.sqrt(s * (1.0 - s))
    B = np.zeros((len(z), 3, 3))
    B[:, 0] = np.column_stack([-alpha * w, k * z, gamma * z])
    B[:, 1] = np.column_stack([alpha * z, k * w, gamma * w])
    B[:, 2, 1], B[:, 2, 2] = k * s, gamma
    return _unbatch(B, single)
