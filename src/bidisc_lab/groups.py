"""Matrix groups preserving the signature (+, +, -) forms, and their actions.

Three related actions appear:

* SU(2,1) acts on the unit ball in C^2 by fractional-linear maps,
  reading a 3x3 matrix row-wise as the numerators/denominator,
* SU(1,1) embeds into SU(2,1) fixing the first coordinate, which
  restricts to Mobius maps in the second ball coordinate,
* real form-preserving matrices, such as the SO+(2,1) samples and the
  O(2,1) transitivity matrices, act through the same fractional-linear
  action on the real slice of the ball.

The hyperbolic invariant classifying the embedded SU(1,1) orbits of the
ball is t = |u| / sqrt(1 - |v|^2): the orbit through (t, 0) is the
ellipsoid |u|^2 + t^2 |v|^2 = t^2, carried onto the unit sphere by
(u, v) -> (u/t, v).
"""

from __future__ import annotations

import math

import numpy as np

from .domains import _abs2

I21 = np.diag([1.0, 1.0, -1.0])
I21.setflags(write=False)

TOL_GROUP = 1e-9  # form-membership tolerance for action preconditions
_DEN_TOL = 1e-12


def su21_residual(A) -> tuple[float, float]:
    """(Frobenius norm of A* I21 A - I21, |det A - 1|)."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    form = A.conj().T @ I21 @ A - I21
    return float(np.linalg.norm(form)), float(abs(np.linalg.det(A) - 1.0))


def o21_residual(A) -> float:
    """Frobenius norm of A^T I21 A - I21 for a real 3x3 matrix."""
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        raise ValueError("expected a real 3x3 matrix")
    return float(np.linalg.norm(A.T @ I21 @ A - I21))


def is_so_plus(A, tol: float = TOL_GROUP) -> bool:
    """Membership in the identity component: form residual, det 1, positive (3,3) entry."""
    A = np.asarray(A, dtype=float)
    return (
        o21_residual(A) < tol
        and abs(np.linalg.det(A) - 1.0) < tol
        and A[2, 2] > 0.0
    )


def su11_embed(alpha: complex, beta: complex) -> np.ndarray:
    """Embed an SU(1,1) element (|alpha|^2 - |beta|^2 = 1) fixing the first coordinate."""
    alpha, beta = complex(alpha), complex(beta)
    if abs(_abs2(alpha) - _abs2(beta) - 1.0) >= TOL_GROUP:
        raise ValueError("need |alpha|^2 - |beta|^2 = 1")
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, alpha, beta],
            [0.0, beta.conjugate(), alpha.conjugate()],
        ],
        dtype=complex,
    )


def ball_action(A, p: tuple[complex, complex]) -> tuple[complex, complex]:
    """Fractional-linear action of an SU(2,1) matrix on a ball point.

    Rows (a1 a2 a3 / b1 b2 b3 / c1 c2 c3) act by
    (u, v) -> ((a1 u + a2 v + a3), (b1 u + b2 v + b3)) / (c1 u + c2 v + c3).
    """
    A = np.asarray(A, dtype=complex)
    res, _ = su21_residual(A)
    # the form relation alone makes the action well defined on the ball;
    # det -1 elements (the transitivity matrices of the real slice) act too
    if res >= TOL_GROUP:
        raise ValueError("matrix does not preserve the signature (+,+,-) Hermitian form")
    u, v = complex(p[0]), complex(p[1])
    if _abs2(u) + _abs2(v) >= 1.0:
        raise ValueError("point must lie in the open unit ball")
    den = A[2, 0] * u + A[2, 1] * v + A[2, 2]
    if abs(den) < _DEN_TOL:
        raise ValueError("action denominator vanishes at this point")
    return (
        complex((A[0, 0] * u + A[0, 1] * v + A[0, 2]) / den),
        complex((A[1, 0] * u + A[1, 1] * v + A[1, 2]) / den),
    )


def su11_orbit_invariant(u: complex, v: complex) -> float:
    """t = |u| / sqrt(1 - |v|^2); constant on embedded SU(1,1) orbits of the ball."""
    u, v = complex(u), complex(v)
    n2 = _abs2(u) + _abs2(v)
    if n2 >= 1.0:
        raise ValueError("point must lie in the open unit ball")
    return abs(u) / math.sqrt(1.0 - _abs2(v))


def random_su11(u, xi_max: float = 3.0) -> tuple[complex, complex]:
    """(alpha, beta) with |alpha|^2 - |beta|^2 = 1, from 3 uniforms.

    Hyperbolic part xi from a truncated exponential capped at xi_max
    (u0), phases p1 = tau u1 and p2 = tau u2: alpha = cosh(xi) e^{i p1},
    beta = sinh(xi) e^{i p2}.
    """
    xi = _truncated_exponential(float(u[0]), xi_max)
    p1, p2 = math.tau * float(u[1]), math.tau * float(u[2])
    alpha = math.cosh(xi) * complex(math.cos(p1), math.sin(p1))
    beta = math.sinh(xi) * complex(math.cos(p2), math.sin(p2))
    return alpha, beta


def so21_rotation(theta: float) -> np.ndarray:
    """Rotation in the (x1, x2) plane, fixing the negative direction."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def so21_boost(xi: float) -> np.ndarray:
    """Hyperbolic rotation in the (x2, x3) plane with cosh/sinh entries."""
    ch, sh = math.cosh(xi), math.sinh(xi)
    return np.array([[1.0, 0.0, 0.0], [0.0, ch, sh], [0.0, sh, ch]])


def _truncated_exponential(u: float, cap: float) -> float:
    # inverse CDF of Exp(1) conditioned on [0, cap]
    return -math.log1p(-u * (1.0 - math.exp(-cap)))


def so21_sample(u, xi_max: float = 3.0) -> np.ndarray:
    """An SO+(2,1) element from 3 uniforms, by the rotation-boost-rotation decomposition.

    Angles tau u0 and tau u1; boost parameter from a truncated
    exponential capped at xi_max (u2), so matrix entries stay moderate.
    """
    xi = _truncated_exponential(float(u[2]), xi_max)
    return so21_rotation(math.tau * float(u[0])) @ so21_boost(xi) @ so21_rotation(math.tau * float(u[1]))


def o21_point_matrix(z: float, w: float) -> np.ndarray:
    """O(2,1) matrix carrying the origin of the real ball slice to (z, w).

    For a real pair with 0 < z^2 + w^2 < 1, with
    alpha = 1/sqrt(z^2+w^2), gamma = 1/sqrt(1-z^2-w^2) and
    k = alpha*gamma, the matrix

        [ -alpha w   k z   gamma z ]
        [  alpha z   k w   gamma w ]
        [  0        k(z^2+w^2)  gamma ]

    satisfies B^T I21 B = I21 and B.(0,0) = (z, w) under the
    fractional-linear ball action.
    """
    if isinstance(z, complex) or isinstance(w, complex):
        raise ValueError("z, w must be real")
    z, w = float(z), float(w)
    s = z * z + w * w
    if s == 0.0:
        raise ValueError("(z, w) must differ from the origin")
    if s >= 1.0:
        raise ValueError("(z, w) must lie in the open unit ball")
    alpha = 1.0 / math.sqrt(s)
    gamma = 1.0 / math.sqrt(1.0 - s)
    k = 1.0 / math.sqrt(s * (1.0 - s))
    return np.array(
        [
            [-alpha * w, k * z, gamma * z],
            [alpha * z, k * w, gamma * w],
            [0.0, k * s, gamma],
        ]
    )
