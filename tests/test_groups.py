"""Form-preserving matrix groups and their ball action."""

import numpy as np
import pytest

from bidisc_lab.domains import DomainSpec, contains
from bidisc_lab.groups import (
    I21,
    ball_action,
    is_so_plus,
    o21_point_matrix,
    o21_residual,
    random_su11,
    so21_boost,
    so21_rotation,
    so21_sample,
    su11_embed,
    su11_orbit_invariant,
    su21_residual,
)
from bidisc_lab.rng import annulus_from_uniforms, ball_from_uniforms, uniform_block


def test_signature_matrix_is_frozen():
    with pytest.raises(ValueError):
        I21[0, 0] = 2.0


# ---------------------------------------------------------------------------
# residuals and membership


def test_identity_residuals_vanish():
    assert su21_residual(np.eye(3)) == (0.0, 0.0)
    assert o21_residual(np.eye(3)) == 0.0
    assert is_so_plus(np.eye(3))


def test_residuals_reject_wrong_shape():
    with pytest.raises(ValueError):
        su21_residual(np.eye(2))
    with pytest.raises(ValueError):
        o21_residual(np.eye(4))


def test_is_so_plus_spots():
    assert is_so_plus(so21_rotation(0.4))
    assert is_so_plus(so21_boost(1.1))
    # det -1 reflection and the wrong-sheet half turn both fail
    assert not is_so_plus(np.diag([1.0, 1.0, -1.0]))
    assert not is_so_plus(-np.eye(3))
    assert not is_so_plus(2.0 * np.eye(3))


# ---------------------------------------------------------------------------
# SU(1,1) inside SU(2,1)


def test_su11_embed_lands_in_the_group():
    for u in uniform_block(31, 0, 3, 0, 50):
        alpha, beta = random_su11(u)
        form, det = su21_residual(su11_embed(alpha, beta))
        assert form < 1e-12
        assert det < 1e-12


def test_su11_embed_rejects_unnormalized_pairs():
    with pytest.raises(ValueError):
        su11_embed(1.0, 1.0)


def test_random_su11_satisfies_the_relation():
    for u in uniform_block(32, 0, 3, 0, 100):
        alpha, beta = random_su11(u)
        assert abs(alpha) ** 2 - abs(beta) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_random_su11_is_reproducible():
    assert random_su11(uniform_block(33, 0, 3, 0, 1)[0]) == random_su11(uniform_block(33, 0, 3, 0, 1)[0])


# ---------------------------------------------------------------------------
# ball action


def test_ball_action_returns_plain_complex_and_preserves_ball():
    ball = DomainSpec.ball()
    for u in uniform_block(34, 0, 7, 0, 100):
        A = su11_embed(*random_su11(u[:3]))
        p = tuple(complex(c) for c in ball_from_uniforms(u[3:], 0.95))
        q = ball_action(A, p)
        assert type(q[0]) is complex and type(q[1]) is complex
        assert contains(ball, q)[0]


def test_ball_action_accepts_real_form_matrices():
    q = ball_action(so21_sample(uniform_block(7, 0, 3, 0, 1)[0]), (0.1, 0.2))
    assert contains(DomainSpec.ball(), q)[0]


def test_ball_action_rejects_garbage():
    with pytest.raises(ValueError):
        ball_action(2.0 * np.eye(3), (0.1, 0.2))
    with pytest.raises(ValueError):
        ball_action(np.eye(3), (0.8, 0.8))


def test_orbit_invariant_spot_and_invariance():
    assert su11_orbit_invariant(0.3, 0.8) == pytest.approx(0.5, abs=1e-15)
    for u in uniform_block(35, 0, 7, 0, 100):
        p = tuple(complex(c) for c in ball_from_uniforms(u[:4], 0.9))
        t = su11_orbit_invariant(*p)
        q = ball_action(su11_embed(*random_su11(u[4:])), p)
        assert su11_orbit_invariant(*q) == pytest.approx(t, abs=1e-10)


def test_orbit_invariant_rejects_outside_ball():
    with pytest.raises(ValueError):
        su11_orbit_invariant(0.8, 0.8)


# ---------------------------------------------------------------------------
# the real form and its linear actions


def test_so21_sample_is_reproducible_and_in_group():
    np.testing.assert_array_equal(
        so21_sample(uniform_block(36, 0, 3, 0, 1)[0]), so21_sample(uniform_block(36, 0, 3, 0, 1)[0])
    )
    for u in uniform_block(37, 0, 3, 0, 100):
        A = so21_sample(u)
        assert o21_residual(A) < 1e-12
        assert is_so_plus(A, tol=1e-12)


# ---------------------------------------------------------------------------
# pointed transitivity matrices


def test_point_matrix_spot():
    B = o21_point_matrix(0.6, 0.0)
    np.testing.assert_allclose(
        B, [[0.0, 1.25, 0.75], [1.0, 0.0, 0.0], [0.0, 0.75, 1.25]], atol=1e-15
    )


def test_point_matrix_membership_and_reproduction():
    for u in uniform_block(41, 0, 2, 0, 100):
        c = complex(annulus_from_uniforms(u[0], u[1], 0.05, 0.95))
        z, w = c.real, c.imag
        B = o21_point_matrix(z, w)
        assert o21_residual(B) < 1e-12
        assert np.linalg.det(B) == pytest.approx(-1.0, abs=1e-12)
        u, v = ball_action(B, (0.0, 0.0))
        assert abs(u - z) < 1e-12 and abs(v - w) < 1e-12


@pytest.mark.parametrize(
    "z, w",
    [(0.0, 0.0), (1.0, 0.0), (0.8, 0.8)],
)
def test_point_matrix_rejects_degenerate_targets(z, w):
    with pytest.raises(ValueError):
        o21_point_matrix(z, w)


def test_point_matrix_rejects_complex_input():
    with pytest.raises(ValueError):
        o21_point_matrix(0.3 + 0.1j, 0.2)
