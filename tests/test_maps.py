"""The quadric embeddings, their inverse, and conjugated automorphisms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bidisc_lab.domains import (
    DomainSpec,
    contains,
    im_condition,
    minkowski_form,
    quadric_residual,
)
from bidisc_lab.groups import is_so_plus, so21_rotation
from bidisc_lab.maps import (
    EPS_DIAG,
    FIT_DRAWS,
    conjugate_fit,
    map_H,
    map_H_inv,
    map_J,
    scale_g_t,
    swap_pair,
    sym,
)
from bidisc_lab.mobius import IDENTITY, MOBIUS_DRAWS, MobiusMap, random_mobius
from bidisc_lab.rng import disc_from_uniforms, uniform_block

DISC = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)


def _offdiag_pairs(seed, n, rmax=0.9):
    """The first n pairs with |z - w| >= 1e-3 among 2n bidisc pairs."""
    u = uniform_block(seed, 0, 4, 0, 2 * n)
    z, w = disc_from_uniforms(u[:, 0], u[:, 1], rmax), disc_from_uniforms(u[:, 2], u[:, 3], rmax)
    out = [(a, b) for a, b in zip(z.tolist(), w.tolist()) if abs(a - b) >= 1e-3][:n]
    assert len(out) == n
    return out


def _fit_uniforms(seed):
    return uniform_block(seed, 0, FIT_DRAWS, 0, 1)[0]


# ---------------------------------------------------------------------------
# embeddings


def test_map_h_spot():
    h = map_H(0.5, -0.5)
    assert h[0] == pytest.approx(1.25, abs=1e-15)
    assert h[1] == pytest.approx(0.75j, abs=1e-15)
    assert abs(h[2]) == 0.0
    assert minkowski_form(*h) == pytest.approx(2.125, abs=1e-12)
    assert im_condition(*h) == pytest.approx(0.9375, abs=1e-12)
    assert abs(quadric_residual(*h)) < 1e-14


def test_map_j_matches_map_h_affinely():
    """J(z, w) and (1 : H(z, w)) are one point of CP^3: their 2x2 minors vanish relative to the coordinate scales."""
    for z, w in _offdiag_pairs(7, 50):
        p, q = map_J(z, w).coords, np.array([1.0, *map_H(z, w)])
        worst = max(abs(p[a] * q[b] - p[b] * q[a]) for a in range(4) for b in range(a + 1, 4))
        assert worst <= 1e-10 * np.max(np.abs(p)) * np.max(np.abs(q))


def test_map_h_image_lies_on_quadric_band():
    band = DomainSpec.quadric_st(1.0, math.inf)
    for z, w in _offdiag_pairs(11, 100):
        inside, margin = contains(band, map_H(z, w))
        assert inside, (z, w, margin)


def test_map_j_sends_diagonal_to_infinity_curve():
    curve = DomainSpec.infinity_curve()
    for x, y in 2.0 * uniform_block(3, 0, 2, 0, 50) - 1.0:
        z = 0.95 * complex(x, y) / math.sqrt(2)
        assert contains(curve, map_J(z, z))[0]
        assert contains(DomainSpec.quadric_proj(1.0), map_J(z, z))[0]


def test_map_h_rejects_near_diagonal():
    with pytest.raises(ValueError):
        map_H(0.7, 0.7)
    with pytest.raises(ValueError):
        map_H(0.3, 0.3 + 0.5 * EPS_DIAG)


def test_embeddings_reject_boundary_points():
    with pytest.raises(ValueError):
        map_H(1.0, 0.3)
    with pytest.raises(ValueError):
        map_J(1.0, 0.3)
    with pytest.raises(ValueError):
        map_J(0.3, complex(math.nan, 0.0))


@given(z=DISC, w=DISC)
def test_map_h_is_odd_under_swap(z, w):
    """Swapping the pair negates every component, bit for bit."""
    if abs(z - w) < EPS_DIAG:
        z, w = 0.5, -0.5
    fwd = map_H(z, w)
    rev = map_H(w, z)
    assert rev == tuple(-c for c in fwd)


# ---------------------------------------------------------------------------
# inversion


def test_map_h_inv_roundtrip_preserves_order():
    for z, w in _offdiag_pairs(23, 200):
        back = map_H_inv(*map_H(z, w))
        assert back[0] == pytest.approx(z, abs=1e-12)
        assert back[1] == pytest.approx(w, abs=1e-12)


def test_map_h_inv_rejects_off_image_input():
    # not on the quadric
    with pytest.raises(ValueError):
        map_H_inv(1.25, 0.75, 0.0)
    # on the quadric, but the recovered roots sit on the unit circle
    with pytest.raises(ValueError):
        map_H_inv(1.0, 0.0, 0.0)


def test_map_h_inv_rejects_vanishing_denominator():
    with pytest.raises(ValueError):
        map_H_inv(1.0, -1j, 0.0)


# ---------------------------------------------------------------------------
# small maps


def test_sym_spots():
    assert sym(0.0, 0.0) == (0.0, 0.0)
    assert sym(0.5, -0.5) == (0.0, -0.25)


@given(z=DISC, w=DISC)
def test_sym_is_exactly_symmetric(z, w):
    assert sym(z, w) == sym(*swap_pair((z, w)))


def test_scale_g_t_spot():
    u, v = scale_g_t(0.5, (0.3, 0.8))
    assert (u, v) == (0.6, 0.8)
    assert abs(u) ** 2 + abs(v) ** 2 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("t", [0.0, 1.0, 1.5, -0.2])
def test_scale_g_t_rejects_bad_parameter(t):
    with pytest.raises(ValueError):
        scale_g_t(t, (0.1, 0.2))


# ---------------------------------------------------------------------------
# conjugation fits


def test_identity_fits_identity_matrix():
    fit = conjugate_fit(IDENTITY, _fit_uniforms(5))
    np.testing.assert_allclose(fit.matrix, np.eye(3), atol=1e-9)
    assert fit.fit_residual < 1e-9
    assert fit.membership_residual < 1e-9
    assert is_so_plus(fit.matrix)


def test_rotation_fits_rotation_block():
    """A diagonal rotation automorphism acts as a plane rotation downstairs."""
    theta = 0.7
    fit = conjugate_fit(MobiusMap(theta, 0j), _fit_uniforms(6))
    np.testing.assert_allclose(fit.matrix, so21_rotation(theta), atol=1e-9)
    assert fit.a33 == pytest.approx(1.0, abs=1e-9)


def test_negation_fits_half_turn():
    fit = conjugate_fit(MobiusMap(math.pi, 0j), _fit_uniforms(8))
    np.testing.assert_allclose(fit.matrix, np.diag([-1.0, -1.0, 1.0]), atol=1e-9)


def test_swap_fits_minus_identity():
    fit = conjugate_fit(None, _fit_uniforms(9), swap=True)
    np.testing.assert_allclose(fit.matrix, -np.eye(3), atol=1e-9)
    assert fit.det == pytest.approx(-1.0, abs=1e-9)
    assert not is_so_plus(fit.matrix)


def test_random_automorphisms_fit_inside_the_group():
    for u in uniform_block(10, 0, MOBIUS_DRAWS + FIT_DRAWS, 0, 10):
        fit = conjugate_fit(random_mobius(u[:MOBIUS_DRAWS], 0.9), u[MOBIUS_DRAWS:])
        assert fit.fit_residual < 1e-8
        assert fit.membership_residual < 1e-7
        assert fit.det == pytest.approx(1.0, abs=1e-9)
        assert fit.a33 > 0.0
        assert is_so_plus(fit.matrix, tol=1e-7)


def test_conjugate_fit_argument_validation():
    with pytest.raises(ValueError):
        conjugate_fit(None, _fit_uniforms(1))
    with pytest.raises(ValueError):
        conjugate_fit(IDENTITY, _fit_uniforms(1), n_fit=3)
    with pytest.raises(ValueError, match="uniforms"):
        conjugate_fit(IDENTITY, _fit_uniforms(1)[:-1])
