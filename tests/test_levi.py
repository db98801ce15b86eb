"""Finite-difference Wirtinger calculus against the closed-form oracles."""

import math

import numpy as np
import pytest

from bidisc_lab.levi import (
    RowErrors,
    closed_complex_hessian,
    closed_wirtinger_gradient,
    complex_hessian,
    complex_tangent,
    levi_restricted,
    totally_real_check,
    value,
    wirtinger_gradient,
)
from bidisc_lab.maps import map_H_array
from bidisc_lab.orbits import ELLIPSOID, FLAT_CONTROL, MINKOWSKI_LEVEL, REAL_SLICE, RHO_LEVEL, SPHERE, Family
from bidisc_lab.rng import ball_from_uniforms, disc_from_uniforms, uniform_block

# frozen at first build from the default stencil; a drift means the FD
# pipeline changed, not that the mathematics did
GOLDEN_RHO_LEVEL_LEVI = 0.4079320024581776

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
# FD derivatives against the closed forms


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.record.name)
def test_fd_gradient_matches_closed_form(f):
    for p in _ambient_points(f, 51, 30):
        np.testing.assert_allclose(
            wirtinger_gradient(f, p), closed_wirtinger_gradient(f, p), atol=1e-7
        )


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.record.name)
def test_fd_hessian_matches_closed_form(f):
    for p in _ambient_points(f, 52, 15):
        np.testing.assert_allclose(
            complex_hessian(f, p), closed_complex_hessian(f, p), atol=1e-6
        )


def test_fd_hessian_is_exactly_hermitian():
    f = Family(RHO_LEVEL, 0.6)
    H = complex_hessian(f, (0.3 + 0.2j, -0.1 + 0.4j))
    assert np.array_equal(H, H.conj().T)


def test_ellipsoid_hessian_is_the_weighted_identity():
    f = Family(ELLIPSOID, 0.3)
    np.testing.assert_allclose(
        closed_complex_hessian(f, (0.1, 0.2)), np.diag([1.0, 0.09]), atol=1e-15
    )


def test_ambient_guard_blocks_stencils_near_the_boundary():
    with pytest.raises(ValueError):
        wirtinger_gradient(Family(RHO_LEVEL, 0.7), (0.9995, 0.0))
    with pytest.raises(ValueError):
        complex_hessian(Family(SPHERE), (1.0, 0.0))


# ---------------------------------------------------------------------------
# tangents and the restricted form


def test_sphere_tangent_and_levi():
    f = Family(SPHERE)
    np.testing.assert_allclose(
        wirtinger_gradient(f, (0.6, 0.8)), [0.6, 0.8], atol=1e-10
    )
    np.testing.assert_allclose(complex_tangent(f, (0.6, 0.8)), [0.8, -0.6], atol=1e-8)
    assert levi_restricted(f, (0.6, 0.8)) == pytest.approx(1.0, abs=1e-6)


def test_minkowski_level_tangent_respects_the_quadric():
    """The holomorphic constraint cuts the kernel down to one direction."""
    f = Family(MINKOWSKI_LEVEL, 2.125)
    p = (1.25, 0.75j, 0.0)
    np.testing.assert_allclose(complex_tangent(f, p), [0, 0, 1], atol=1e-8)
    assert levi_restricted(f, p) == pytest.approx(1.0, abs=1e-6)


def test_rho_level_golden_value_and_closed_form():
    f = Family(RHO_LEVEL, 0.8)
    p = (0.8, 0.0)
    fd_val = levi_restricted(f, p)
    assert fd_val == pytest.approx(GOLDEN_RHO_LEVEL_LEVI, abs=1e-10)
    # independent route: exact gradient kernel and exact Hessian
    g = closed_wirtinger_gradient(f, p)
    v = np.array([-g[1], g[0]])
    v = v / np.linalg.norm(v)
    closed_val = float((v.conj() @ closed_complex_hessian(f, p) @ v).real)
    assert fd_val == pytest.approx(closed_val, abs=1e-6)


def test_flat_control_levi_vanishes():
    f = Family(FLAT_CONTROL, 0.5)
    np.testing.assert_allclose(
        wirtinger_gradient(f, (0.5, 0.3j)), [0.5, 0.0], atol=1e-10
    )
    np.testing.assert_allclose(complex_tangent(f, (0.5, 0.0)), [0.0, 1.0], atol=1e-8)
    assert abs(levi_restricted(f, (0.5, 0.3))) < 1e-12


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
        return np.column_stack(map_H_array(z, w))
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
    H = complex_hessian(f, P)
    V = complex_tangent(f, P)
    L = levi_restricted(f, P)
    assert G.shape == V.shape == P.shape and H.shape == (len(P), f.record.dim, f.record.dim) and L.shape == (len(P),)
    np.testing.assert_allclose(G, closed_wirtinger_gradient(f, P), atol=1e-7)
    np.testing.assert_allclose(H, closed_complex_hessian(f, P), atol=1e-6)
    closed = np.einsum("nj,njk,nk->n", V.conj(), closed_complex_hessian(f, P), V).real
    np.testing.assert_allclose(L, closed, atol=1e-6)
    for r, p in enumerate(P):
        assert value(f, p) == value(f, P)[r]
        np.testing.assert_array_equal(wirtinger_gradient(f, p), G[r])
        np.testing.assert_array_equal(closed_wirtinger_gradient(f, p), closed_wirtinger_gradient(f, P)[r])
        np.testing.assert_array_equal(complex_hessian(f, p), H[r])
        np.testing.assert_array_equal(complex_tangent(f, p), V[r])
        assert levi_restricted(f, p) == L[r]


def _reference_value(f, p):
    """r at one point in Python complex arithmetic: the stencil's point-at-a-time reference."""
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


def _reference_derivatives(f, p, grad_step=1e-5, hess_step=1e-4):
    """FD Wirtinger gradient and symmetrized complex Hessian at one point, one value per offset."""
    p = [complex(z) for z in p]
    n, m = len(p), 2 * len(p)
    size = max(1.0, float(np.max(np.abs(p))))

    def at(*moves):
        q = list(p)
        for c, d in moves:
            q[c // 2] += d if c % 2 == 0 else 1j * d
        return _reference_value(f, q)

    s = grad_step * size
    g = []
    for j in range(n):
        dx = (at((2 * j, s)) - at((2 * j, -s))) / (2.0 * s)
        dy = (at((2 * j + 1, s)) - at((2 * j + 1, -s))) / (2.0 * s)
        g.append(0.5 * (dx - 1j * dy))
    s = hess_step * size
    R = np.empty((m, m))
    for a in range(m):
        R[a, a] = (at((a, s)) - 2.0 * at() + at((a, -s))) / (s * s)
        for b in range(a + 1, m):
            pp, pm = at((a, s), (b, s)), at((a, s), (b, -s))
            mp, mm = at((a, -s), (b, s)), at((a, -s), (b, -s))
            R[a, b] = R[b, a] = (pp - pm - mp + mm) / (4.0 * s * s)
    H = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            re = R[2 * j, 2 * k] + R[2 * j + 1, 2 * k + 1]
            H[j, k] = 0.25 * (re + 1j * (R[2 * j, 2 * k + 1] - R[2 * j + 1, 2 * k]))
    return np.array(g), 0.5 * (H + H.conj().T)


@pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.record.name)
def test_batched_stencil_reproduces_the_point_at_a_time_reference_exactly(f):
    P = np.array(_ambient_points(f, 53, 25), dtype=complex)
    values, G, H = value(f, P), wirtinger_gradient(f, P), complex_hessian(f, P)
    for r, p in enumerate(P):
        g, h = _reference_derivatives(f, p)
        assert values[r] == _reference_value(f, [complex(z) for z in p])
        np.testing.assert_array_equal(G[r], g)
        np.testing.assert_array_equal(H[r], h)


_SPHERE = Family(SPHERE)
_SPHERE_ON = [(0.6, 0.8), (0.8j, -0.6)]
_SPHERE_OFF = [(0.3, 0.4), (0.1j, 0.5)]
_QUADRIC = Family(MINKOWSKI_LEVEL, 2.125)
_QUADRIC_ON = [(1.25, 0.75j, 0.0), (0.75j, 1.25, 0.0)]


@pytest.mark.parametrize(
    "fn, f, good, bad, message",
    [
        (value, _SPHERE, _SPHERE_OFF, (math.nan, 0.2), "finite components"),
        (wirtinger_gradient, Family(RHO_LEVEL, 0.7), _SPHERE_OFF, (0.9995, 0.0), "ambient boundary"),
        (complex_hessian, _SPHERE, _SPHERE_OFF, (1.0, 0.0), "touches the unit circle"),
        (levi_restricted, _SPHERE, _SPHERE_ON, (0.3, 0.4), "does not lie on the hypersurface"),
        (complex_tangent, _SPHERE, _SPHERE_OFF, (0.0, 0.0), "gradient vanishes"),
        (complex_tangent, _QUADRIC, _QUADRIC_ON, (1.0, 0.5, 0.3), "degenerate"),
    ],
    ids=["finite", "ambient-margin", "unit-circle", "on-surface", "gradient-floor", "degenerate-rows"],
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


def test_totally_real_check_rejects_bad_bases():
    with pytest.raises(ValueError):
        totally_real_check([])
    with pytest.raises(ValueError):
        totally_real_check([(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        totally_real_check([(1, 0), (1, 0, 0)])
