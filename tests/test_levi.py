"""Wirtinger calculus: the closed-form gradients, Hessians, tangents and Levi values, against finite differences."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bidisc_lab.levi import (
    RowErrors,
    complex_hessian,
    complex_tangent,
    levi_restricted,
    totally_real_check,
    value,
    wirtinger_gradient,
)
from bidisc_lab.maps import map_H
from bidisc_lab.orbits import (
    ELLIPSOID,
    FLAT_CONTROL,
    MINKOWSKI_LEVEL,
    REAL_SLICE,
    RHO_LEVEL,
    SPHERE,
    Family,
    FamilyRecord,
)
from bidisc_lab.rng import ball_from_uniforms, disc_from_uniforms, uniform_block

# the Levi value of F_0.8 at (0.8, 0), where gradient, Hessian and tangent are rational
GOLDEN_RHO_LEVEL_LEVI = Fraction(294912, 722944)

ALL_KINDS = [
    Family(RHO_LEVEL, 0.7),
    Family(MINKOWSKI_LEVEL, 2.5),
    Family(SPHERE),
    Family(ELLIPSOID, 0.45),
    Family(FLAT_CONTROL, 0.5),
]


def _ambient_points(f, seed, n):
    """n points of f's ambient: the 0.9 bidisc, the box [-2, 2]^6 of C^3, or the 0.9 ball."""
    u = uniform_block(seed, 0, 6, 0, n)
    if f.record.name in ("rho-level", "flat-control"):
        pts = zip(disc_from_uniforms(u[:, 0], u[:, 1], 0.9), disc_from_uniforms(u[:, 2], u[:, 3], 0.9))
    elif f.record.name == "minkowski-level":
        x = 4.0 * u - 2.0
        pts = zip(*(x[:, 2 * k] + 1j * x[:, 2 * k + 1] for k in range(3)))
    else:
        pts = zip(*ball_from_uniforms(u[:, :4], 0.9))
    return [tuple(complex(c) for c in p) for p in pts]


# ---------------------------------------------------------------------------
# construction and evaluation


@pytest.mark.parametrize(
    "build",
    [
        lambda: Family(FLAT_CONTROL, math.inf),
        lambda: Family(RHO_LEVEL, 1.5),
        lambda: Family(MINKOWSKI_LEVEL, 1.0),
        lambda: Family(ELLIPSOID, 0.0),
        lambda: Family(FLAT_CONTROL, 0.0),
        # a parameter per row: every entry is checked
        lambda: Family(RHO_LEVEL, np.array([0.5, 1.5])),
        lambda: Family(MINKOWSKI_LEVEL, np.array([2.0, math.nan])),
        lambda: Family(ELLIPSOID, np.array([[0.5]])),
    ],
)
def test_defining_function_validation(build):
    with pytest.raises(ValueError):
        build()


def test_value_spots():
    assert value(Family(RHO_LEVEL, 0.8), (0.8, 0.0)) == 0.0
    assert value(Family(MINKOWSKI_LEVEL, 2.125), (1.25, 0.75j, 0)) == 0.0
    assert value(Family(SPHERE), (0.6, 0.8)) == pytest.approx(0.0, abs=1e-15)
    assert value(Family(ELLIPSOID, 0.4), (0.4, 0.0)) == 0.0
    assert value(Family(FLAT_CONTROL, 0.5), (0.5, 0.3)) == 0.0


def test_value_rejects_wrong_dimension_and_nonfinite():
    with pytest.raises(ValueError):
        value(Family(SPHERE), (0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        value(Family(MINKOWSKI_LEVEL, 2.0), (0.1, 0.2))
    with pytest.raises(ValueError):
        value(Family(SPHERE), (math.nan, 0.2))


# ---------------------------------------------------------------------------
# closed forms against finite differences


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.record.name)
def test_fd_gradient_matches_closed_form(f):
    for p in _ambient_points(f, 51, 30):
        np.testing.assert_allclose(wirtinger_gradient(f, p), _reference_gradient(f, p), atol=1e-7)


HESS_STEP = 1e-4


def _levi_along(f, P, v, r0, rows):
    """Four second differences along the unit rows v of P, whose values are r0: about sum_jk H_jk v_j conj(v_k).

    r_vv + r_(iv)(iv) = 4 L(v); the step scales with max(1, |p|_inf), so the
    rounding floor is ~eps / HESS_STEP^2, near 2e-8, however large p is.
    """
    s = HESS_STEP * np.maximum(1.0, np.abs(P).max(axis=1))
    w = s[:, None] * v
    iw = 1j * w
    total = (
        value(f, P + w, errors=rows) + value(f, P - w, errors=rows)
        + value(f, P + iw, errors=rows) + value(f, P - iw, errors=rows)
    )
    return (total - 4.0 * r0) / (4.0 * (s * s))


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.record.name)
def test_fd_hessian_matches_closed_form(f):
    """The four second differences along random unit w give w H conj(w) of the closed Hessian."""
    P = np.repeat(np.array(_ambient_points(f, 52, 15), dtype=complex), 4, axis=0)
    x = np.random.default_rng(52).standard_normal((len(P), 2 * f.record.dim))
    W = x[:, 0::2] + 1j * x[:, 1::2]
    W /= np.linalg.norm(W, axis=1)[:, None]
    errors = RowErrors(len(P))
    fd = _levi_along(f, P, W, value(f, P), errors)
    assert errors.ok.all()
    closed = np.einsum("nj,njk,nk->n", W, complex_hessian(f, P), W.conj())
    np.testing.assert_allclose(closed.imag, 0.0, atol=1e-15)
    np.testing.assert_allclose(fd, closed.real, atol=1e-6)


def test_ellipsoid_hessian_is_the_weighted_identity():
    f = Family(ELLIPSOID, 0.3)
    np.testing.assert_allclose(
        complex_hessian(f, (0.1, 0.2)), np.diag([1.0, 0.09]), atol=1e-15
    )


# on F_0.7, with a coordinate within 1e-9 of the unit circle
_RHO_NEAR_RIM = (1.0 - 5e-10, (0.3 - 5e-10) / (1.0 - 0.7 * (1.0 - 5e-10)))


def test_ambient_guard_blocks_stencils_near_the_boundary():
    """The bidisc and the ball alike: a point on the surface with a coordinate on the unit circle fails."""
    assert abs(value(Family(RHO_LEVEL, 0.7), _RHO_NEAR_RIM)) < 1e-15
    with pytest.raises(ValueError, match="touches the unit circle"):
        levi_restricted(Family(RHO_LEVEL, 0.7), _RHO_NEAR_RIM)
    with pytest.raises(ValueError, match="touches the unit circle"):
        levi_restricted(Family(SPHERE), (1.0, 0.0))


# ---------------------------------------------------------------------------
# tangents and the restricted form


def test_sphere_tangent_and_levi():
    f = Family(SPHERE)
    np.testing.assert_allclose(
        wirtinger_gradient(f, (0.6, 0.8)), [0.6, 0.8], atol=1e-10
    )
    np.testing.assert_allclose(complex_tangent(f, (0.6, 0.8)), [0.8, -0.6], atol=1e-8)
    assert levi_restricted(f, (0.6, 0.8)) == pytest.approx(1.0, abs=1e-15)


def test_minkowski_level_tangent_respects_the_quadric():
    """The holomorphic constraint cuts the kernel down to one direction."""
    f = Family(MINKOWSKI_LEVEL, 2.125)
    p = (1.25, 0.75j, 0.0)
    np.testing.assert_allclose(complex_tangent(f, p), [0, 0, 1], atol=1e-8)
    assert levi_restricted(f, p) == pytest.approx(1.0, abs=1e-15)


def test_rho_level_golden_value_and_closed_form():
    """The gradient and Hessian of rho-level at a real point, in rational arithmetic, give the golden value."""
    a = z1 = Fraction(4, 5)
    z2 = Fraction(0)
    g = (z1 - z2 + a * a * z2 * (1 - z1 * z2), -(z1 - z2) + a * a * z1 * (1 - z1 * z2))
    h12 = -1 + a * a * (1 - z1 * z2)
    H = ((1 - a * a * z2 * z2, h12), (h12, 1 - a * a * z1 * z1))
    v = (g[1], -g[0])
    exact = sum(H[j][k] * v[j] * v[k] for j in range(2) for k in range(2)) / (v[0] * v[0] + v[1] * v[1])
    assert exact == GOLDEN_RHO_LEVEL_LEVI
    f = Family(RHO_LEVEL, 0.8)
    assert levi_restricted(f, (0.8, 0.0)) == pytest.approx(float(exact), rel=1e-15)
    # the stencil along the same tangent agrees to its rounding floor
    P = np.array([[0.8, 0.0]], dtype=complex)
    fd = _levi_along(f, P, complex_tangent(f, P), value(f, P), RowErrors(1))
    assert fd[0] == pytest.approx(float(exact), abs=1e-8)


def test_flat_control_levi_vanishes():
    f = Family(FLAT_CONTROL, 0.5)
    np.testing.assert_allclose(
        wirtinger_gradient(f, (0.5, 0.3j)), [0.5, 0.0], atol=1e-10
    )
    np.testing.assert_allclose(complex_tangent(f, (0.5, 0.0)), [0.0, 1.0], atol=1e-8)
    assert levi_restricted(f, (0.5, 0.3)) == 0.0


def _cylinder_gradient(P, _):
    """(conj s, i conj s), s = z1 + i z2: the gradient of |s|^2 - 1."""
    s = (P[:, 0] + 1j * P[:, 1]).conjugate()
    return np.column_stack([s, 1j * s])


def _cylinder_hessian(P, _):
    """[[1, -i], [i, 1]] at every row: (ds/dz_j) conj(ds/dz_k) for s = z1 + i z2."""
    return np.broadcast_to(np.array([[1.0, -1j], [1j, 1.0]]), (len(P), 2, 2))


# r = |z1 + i z2|^2 - 1 depends only on the holomorphic z1 + i z2: its zero set is Levi flat
_CYLINDER = Family(
    FamilyRecord(
        "levi-flat-cylinder", 2,
        value=lambda P, _: np.abs(P[:, 0] + 1j * P[:, 1]) ** 2 - 1.0, gradient=_cylinder_gradient,
        hessian=_cylinder_hessian,
    )
)


def test_levi_flat_cylinder_levi_vanishes():
    """The one off-diagonal Hessian: contracted as v_j H_jk conj(v_k) it gives 0, transposed it would give 2."""
    t = np.linspace(0.0, 2.0 * math.pi, 7)
    z2 = 0.4 * np.exp(2j * t)
    P = np.column_stack([np.exp(1j * t) - 1j * z2, z2])
    np.testing.assert_allclose(value(_CYLINDER, P), 0.0, atol=1e-15)
    assert np.abs(levi_restricted(_CYLINDER, P)).max() < 1e-15
    V = complex_tangent(_CYLINDER, P)
    transposed = np.einsum("nj,nkj,nk->n", V, complex_hessian(_CYLINDER, P), V.conj())
    np.testing.assert_allclose(transposed, 2.0, atol=1e-15)
    fd = _levi_along(_CYLINDER, P, V, value(_CYLINDER, P), RowErrors(len(P)))
    np.testing.assert_allclose(fd, 0.0, atol=1e-6)


def test_levi_restricted_rejects_off_surface_points():
    with pytest.raises(ValueError):
        levi_restricted(Family(SPHERE), (0.3, 0.4))


def test_complex_tangent_rejects_degenerate_gradient():
    with pytest.raises(ValueError):
        complex_tangent(Family(SPHERE), (0.0, 0.0))


# ---------------------------------------------------------------------------
# batches: one kernel, the single point as its batch of one


def _surface_points(f, n, seed=61):
    """n points of {r = 0} away from the ambient boundary, from the family's own parameterization."""
    u = np.random.default_rng(seed).random((n, 3))
    t1, t2 = 2 * math.pi * u[:, 1], 2 * math.pi * u[:, 2]
    if f.record.name in ("rho-level", "minkowski-level"):
        # (phi(a), phi(0)) for phi(z) = e^{i t1} (z - c) / (1 - conj(c) z), |c| <= 0.6
        a = f.param if f.record.name == "rho-level" else math.sqrt(2.0 / (f.param + 1.0))
        c = 0.6 * np.sqrt(u[:, 0]) * np.exp(1j * t2)
        z, w = np.exp(1j * t1) * (a - c) / (1.0 - c.conjugate() * a), -np.exp(1j * t1) * c
        if f.record.name == "rho-level":
            return np.column_stack([z, w])
        return np.column_stack(map_H(z, w))
    s = 0.05 + 0.9 * u[:, 0]
    if f.record.name == "flat-control":
        return np.column_stack([f.param * np.exp(1j * t1), 0.9 * np.sqrt(s) * np.exp(1j * t2)])
    t = f.param if f.record.name == "ellipsoid" else 1.0
    return np.column_stack([t * np.sqrt(s) * np.exp(1j * t1), np.sqrt(1.0 - s) * np.exp(1j * t2)])


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.record.name)
def test_batch_matches_the_oracles_and_the_single_point_calls(f):
    P = _surface_points(f, 40)
    np.testing.assert_allclose(value(f, P), 0.0, atol=1e-14)
    G = wirtinger_gradient(f, P)
    V = complex_tangent(f, P)
    L = levi_restricted(f, P)
    assert G.shape == V.shape == P.shape and L.shape == (len(P),)
    np.testing.assert_allclose(G, [_reference_gradient(f, p) for p in P], atol=1e-7)
    closed = np.einsum("nj,njk,nk->n", V, complex_hessian(f, P), V.conj()).real
    np.testing.assert_allclose(L, closed, atol=1e-14)
    for r, p in enumerate(P):
        assert value(f, p) == value(f, P)[r]
        np.testing.assert_array_equal(wirtinger_gradient(f, p), G[r])
        np.testing.assert_array_equal(complex_tangent(f, p), V[r])
        assert levi_restricted(f, p) == L[r]


def _reference_value(f, p):
    """r at one point in Python complex arithmetic: the point-at-a-time reference of value and of the stencil."""
    a2 = [z.real * z.real + z.imag * z.imag for z in p]
    if f.record.name == "rho-level":
        z1, z2 = p
        d, c = z1 - z2, 1.0 - z1.conjugate() * z2
        a = f.param
        return (d.real * d.real + d.imag * d.imag) - a * a * (c.real * c.real + c.imag * c.imag)
    if f.record.name == "minkowski-level":
        return f.param - (a2[0] + a2[1] - a2[2])
    if f.record.name == "sphere":
        return a2[0] + a2[1] - 1.0
    if f.record.name == "ellipsoid":
        return a2[0] + f.param * f.param * a2[1] - f.param * f.param
    return a2[0] - f.param * f.param


def _reference_gradient(f, p, step=1e-5):
    """FD Wirtinger gradient at one point, one value per offset."""
    p = [complex(z) for z in p]
    s = step * max(1.0, float(np.max(np.abs(p))))
    g = []
    for j in range(len(p)):
        dx, dy = (
            (_reference_value(f, p[:j] + [p[j] + d] + p[j + 1:]) - _reference_value(f, p[:j] + [p[j] - d] + p[j + 1:]))
            / (2.0 * s)
            for d in (s, 1j * s)
        )
        g.append(0.5 * (dx - 1j * dy))
    return np.array(g)


def _reference_levi(f, p, v, step=HESS_STEP):
    """The four-point Levi value at one point along its unit tangent v, in Python complex arithmetic."""
    p, v = [complex(z) for z in p], [complex(z) for z in v]
    s = step * max(1.0, float(np.max(np.abs(p))))
    w = [s * z for z in v]
    iw = [1j * z for z in w]
    total = (
        _reference_value(f, [a + b for a, b in zip(p, w)]) + _reference_value(f, [a - b for a, b in zip(p, w)])
        + _reference_value(f, [a + b for a, b in zip(p, iw)]) + _reference_value(f, [a - b for a, b in zip(p, iw)])
    )
    return (total - 4.0 * _reference_value(f, p)) / (4.0 * (s * s))


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.record.name)
def test_batched_stencil_reproduces_the_point_at_a_time_reference_exactly(f):
    """Value against Python-complex arithmetic, point by point, and the closed forms against differences.

    The gradient meets the central difference within 1e-7, and the Levi
    value meets the four-point difference along the batch's tangent
    within 1e-6.
    """
    P = np.array(_ambient_points(f, 53, 25), dtype=complex)
    values, G = value(f, P), wirtinger_gradient(f, P)
    for r, p in enumerate(P):
        assert values[r] == _reference_value(f, [complex(z) for z in p])
        np.testing.assert_allclose(G[r], _reference_gradient(f, p), atol=1e-7)
    S = _surface_points(f, 25)
    V, L = complex_tangent(f, S), levi_restricted(f, S)
    for r, p in enumerate(S):
        assert L[r] == pytest.approx(_reference_levi(f, p, V[r]), abs=1e-6)


_SPHERE = Family(SPHERE)
_SPHERE_ON = [(0.6, 0.8), (0.8j, -0.6)]
_SPHERE_OFF = [(0.3, 0.4), (0.1j, 0.5)]
_QUADRIC = Family(MINKOWSKI_LEVEL, 2.125)
_QUADRIC_ON = [(1.25, 0.75j, 0.0), (0.75j, 1.25, 0.0)]
_NOT_FINITE = "^point must have finite components$"


@pytest.mark.parametrize(
    "fn, f, good, bad, message",
    [
        (value, _SPHERE, _SPHERE_OFF, (math.nan, 0.2), "finite components"),
        (complex_hessian, Family(RHO_LEVEL, 0.7), _SPHERE_OFF, (0.3, math.inf), _NOT_FINITE),
        (complex_tangent, _SPHERE, _SPHERE_OFF, (0.2, math.nan), _NOT_FINITE),
        (complex_tangent, _QUADRIC, _QUADRIC_ON, (1.25, -math.inf, 0.0), _NOT_FINITE),
        (levi_restricted, _SPHERE, _SPHERE_ON, (math.inf, 0.0), _NOT_FINITE),
        (levi_restricted, _QUADRIC, _QUADRIC_ON, (1.25, 0.75j, complex(0.0, math.nan)), _NOT_FINITE),
        (levi_restricted, Family(RHO_LEVEL, 0.7), [(0.7, 0.0), (0.0, 0.7j)], _RHO_NEAR_RIM, "touches the unit circle"),
        (levi_restricted, _SPHERE, _SPHERE_ON, (1.0, 0.0), "touches the unit circle"),
        (levi_restricted, _SPHERE, _SPHERE_ON, (0.3, 0.4), "does not lie on the hypersurface"),
        (complex_tangent, _SPHERE, _SPHERE_OFF, (0.0, 0.0), "gradient vanishes"),
        (complex_tangent, _QUADRIC, _QUADRIC_ON, (1.0, 0.5, 0.3), "degenerate"),
    ],
    ids=["finite", "hessian-finite", "tangent-nan", "tangent-inf", "levi-inf", "levi-nan", "ambient-margin", "unit-circle", "on-surface", "gradient-floor", "degenerate-rows"],
)
def test_a_failed_check_fails_only_its_row_with_the_scalar_message(fn, f, good, bad, message):
    with pytest.raises(ValueError, match=message) as info:
        fn(f, bad)
    batch = np.array([good[0], bad, good[1]], dtype=complex)
    errors = RowErrors(3)
    out = fn(f, batch, errors=errors)
    assert errors.ok.tolist() == [True, False, True]
    assert errors.message[1] == str(info.value)
    for r in (0, 2):
        np.testing.assert_array_equal(out[r], fn(f, batch[r]))
    with pytest.raises(ValueError, match=message):
        fn(f, batch)  # without a collector, the first failing row raises


def test_an_overflowing_row_fails_alone_and_never_as_a_silent_nan():
    """At 1e200 the cross product of the constraint rows overflows: the row fails its check."""
    f = Family(MINKOWSKI_LEVEL, 2.0)
    huge = (1e200, 1e200j, 1e200)
    batch = np.array([_QUADRIC_ON[0], huge, _QUADRIC_ON[1]], dtype=complex)
    errors = RowErrors(3)
    with np.errstate(all="ignore"):  # the overflowing row's arithmetic is meaningless
        with pytest.raises(ValueError):
            complex_tangent(f, huge)
        out = complex_tangent(f, batch, errors=errors)
    assert errors.ok.tolist() == [True, False, True]
    assert isinstance(errors.message[1], str)
    assert np.isfinite(out[[0, 2]]).all()
    for r in (0, 2):
        np.testing.assert_array_equal(out[r], complex_tangent(f, batch[r]))


@pytest.mark.parametrize("scale", [1e-3, 1e50, 1e150])
def test_the_tangent_of_a_scaled_point_is_the_same_line(scale):
    """Both constraint rows of the quadric family scale with the point: the normalised cross product does not move."""
    f = Family(MINKOWSKI_LEVEL, 2.125)
    P = _surface_points(f, 20)
    np.testing.assert_allclose(complex_tangent(f, scale * P), complex_tangent(f, P), atol=1e-12)


def test_a_family_without_a_defining_function_is_rejected():
    with pytest.raises(ValueError, match="real-slice has no defining function"):
        value(Family(REAL_SLICE), (0.1, 0.2))


def test_a_batch_of_the_wrong_shape_is_rejected_whole():
    with pytest.raises(ValueError, match="expects a point of C"):
        levi_restricted(Family(SPHERE), np.zeros((4, 3)), errors=RowErrors(4))
    with pytest.raises(ValueError, match="expects a point of C"):
        value(Family(SPHERE), np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# totally real subspaces


def test_totally_real_check_cases():
    ok, meet = totally_real_check([(1, 0), (0, 1)])
    assert ok and meet == 0
    ok, meet = totally_real_check([(0, 1), (0, 1j)])
    assert not ok and meet == 2
    ok, meet = totally_real_check([(1, 0), (1j, 0)])
    assert not ok and meet == 2
    ok, meet = totally_real_check([(1, 1j)])
    assert ok and meet == 0


def _realified_meet(V):
    """rank_R of the (n, k, dim) bases, and dim_R of the meet of W and iW from the realified W + iW."""

    def realify(X):
        out = np.empty((len(X), 2 * X.shape[2], X.shape[1]))
        out[:, 0::2] = X.real.swapaxes(1, 2)
        out[:, 1::2] = X.imag.swapaxes(1, 2)
        return out

    B, JB = realify(V), realify(1j * V)
    k = np.linalg.matrix_rank(B)
    return k, 2 * k - np.linalg.matrix_rank(np.concatenate([B, JB], axis=2))


@pytest.mark.parametrize("k, dim", [(1, 2), (2, 2), (2, 3), (3, 3), (1, 3)])
def test_totally_real_check_agrees_with_the_realified_spans(k, dim):
    """The rank identity, meet dimension 2 (rank_R - rank_C), gives what the realified W + iW gives.

    Rows: random complex bases, real ones (totally real), bases with a
    vector i times another (complex, the meet 2-dimensional) and bases
    dependent over R (flagged).
    """
    n = 400
    u = uniform_block(81, 0, 4 * k * dim, 0, n)
    V = (2.0 * u[:, : 2 * k * dim : 2] - 1.0) + 1j * (2.0 * u[:, 1 : 2 * k * dim : 2] - 1.0)
    V = V.reshape(n, k, dim)
    V[1::4] = V[1::4].real
    if k > 1:
        V[2::4, -1] = 1j * V[2::4, 0]
        V[3::4, -1] = u[3::4, -1:] * V[3::4, 0]
    rows = RowErrors(n)
    ok, meet = totally_real_check(V, errors=rows)
    rank_r, reference = _realified_meet(V)
    np.testing.assert_array_equal(meet, reference)
    np.testing.assert_array_equal(ok, reference == 0)
    np.testing.assert_array_equal(rows.ok, rank_r == k)
    assert rows.ok[:3].all() and (meet[1::4] == 0).all()
    if k > 1:  # every kind of row occurs
        assert (meet[2::4] == 2).all() and not rows.ok[3::4].any()


def _pivot_cases(k, dim):
    """(basis of last pivot delta, floor of that pivot, expected (rows.ok, meet) above and at or below the floor).

    Over R: e_1, ..., e_{k-1}, delta e_k (e_1, i e_1, delta e_2 for three
    vectors in C^2), with the floor max(k, 2 dim) eps.  Over C:
    e_1, ..., e_{k-1}, i e_1 + delta e_k, whose real rank is k whatever
    delta, with the floor max(k, dim) eps; three vectors of C^2 of real
    rank 3 always have complex rank 2, so that case has no C side.
    """
    eye = np.eye(dim, dtype=complex)
    eps = np.finfo(float).eps
    if k <= dim:
        yield lambda d: [*eye[: k - 1], d * eye[k - 1]], max(k, 2 * dim) * eps, (True, 0), (False, None)
    else:
        yield lambda d: [eye[0], 1j * eye[0], d * eye[1]], max(k, 2 * dim) * eps, (True, 2), (False, None)
    if 2 <= k <= dim:
        yield lambda d: [*eye[: k - 1], 1j * eye[0] + d * eye[k - 1]], max(k, dim) * eps, (True, 0), (True, 2)


@pytest.mark.parametrize("k, dim", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_totally_real_check_decides_near_degenerate_bases_by_the_pivot_rule(k, dim):
    """A pivot counts when it exceeds max(k, m) eps times the largest modulus, and not when it equals it."""
    for basis, floor, above, below in _pivot_cases(k, dim):
        if k == 1:  # the lone pivot is the largest modulus: it counts unless the vector vanishes
            deltas, expect = [0.0, 5e-324, 1e-300], [(False, None), above, above]
        else:
            deltas = [floor / 2, floor, np.nextafter(floor, 1.0), 2 * floor]
            expect = [below, below, above, above]
        rows = RowErrors(len(deltas))
        ok, meet = totally_real_check(np.array([basis(d) for d in deltas]), errors=rows)
        for r, (row_ok, want) in enumerate(expect):
            assert rows.ok[r] == row_ok, (deltas[r], basis(deltas[r]))
            if row_ok:
                assert meet[r] == want and ok[r] == (want == 0)


def test_totally_real_check_flags_non_finite_rows_alone():
    rows = RowErrors(3)
    ok, meet = totally_real_check([[(1, 0), (0, 1)], [(math.nan, 0), (0, 1)], [(0, 1), (0, 1j)]], errors=rows)
    assert rows.ok.tolist() == [True, False, True]
    assert rows.message[1] == "basis vectors must have finite components"
    assert ok[0] and meet[0] == 0 and not ok[2] and meet[2] == 2
    with pytest.raises(ValueError, match="finite components"):
        totally_real_check([(1, 0), (math.inf, 1j)])


def test_totally_real_check_rejects_bad_bases():
    with pytest.raises(ValueError):
        totally_real_check([])
    with pytest.raises(ValueError):
        totally_real_check([(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        totally_real_check([(1, 0), (1, 0, 0)])
