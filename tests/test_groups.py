"""Form-preserving matrix groups, their ball action, and the quadric image of the diagonal automorphisms."""

import itertools
import math

import numpy as np
import pytest

from bidisc_lab.groups import (
    I21,
    _matrices,
    ball_action,
    o21_point_matrix,
    so21_image,
    su11_embed,
    su11_orbit_invariant,
    u21_residual,
)
from bidisc_lab.maps import map_H
from bidisc_lab.mobius import MOBIUS_DRAWS, MobiusMap, mobius_apply, mobius_apply_pair, random_mobius
from bidisc_lab.domains import _abs2
from bidisc_lab.rng import (
    RowErrors,
    _batch,
    _unbatch,
    ball_from_uniforms,
    disc_from_uniforms,
    uniform_block,
)


def test_signature_matrix_is_frozen():
    with pytest.raises(ValueError):
        I21[0, 0] = 2.0


# ---------------------------------------------------------------------------
# residuals and membership


def test_identity_residuals_vanish():
    assert u21_residual(np.eye(3)) == 0.0


def test_residuals_reject_wrong_shape():
    with pytest.raises(ValueError):
        u21_residual(np.eye(2))
    with pytest.raises(ValueError):
        u21_residual(np.eye(4))


def test_u21_residual_is_the_form_product_and_ignores_the_determinant():
    """Row by row the value of the matrix alone, close to the norm of A* I21 A - I21; form-keeping matrices read 0."""
    su11 = su11_embed(random_mobius(uniform_block(36, 0, 3, 0, 20)))
    near_rim = so21_image(random_mobius(uniform_block(37, 0, 3, 0, 20), 0.999999))  # entries up to about 3,000
    u = uniform_block(39, 0, 18, 0, 20)
    generic = (u[:, :9] - 0.5 + 1j * (u[:, 9:] - 0.5)).reshape(-1, 3, 3) * 100.0
    A = np.concatenate([su11, so21_image(random_mobius(uniform_block(37, 0, 3, 0, 20))), near_rim, generic])
    A = A * np.exp(1j * uniform_block(38, 0, 1, 0, len(A)))[:, :, None]  # unit phases keep the form, move the det
    stacked = u21_residual(A)
    for i, matrix in enumerate(A):
        assert u21_residual(matrix) == stacked[i]
        assert np.array_equal(u21_residual(np.broadcast_to(matrix, (5, 3, 3))), np.full(5, stacked[i]))
    # each of the 9 entries sums three products of at most |A|_inf^2: both sides round it by a few eps |A|_inf^2
    form = np.linalg.norm(A.conj().swapaxes(-1, -2) @ I21 @ A - I21, axis=(-2, -1))
    size = np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
    assert np.all(np.abs(stacked - form) <= 16 * np.finfo(float).eps * size * size)
    assert u21_residual(np.eye(3)) == 0.0
    assert u21_residual(np.diag([1.0, -1.0, 1.0])) == 0.0


def _in_so_plus(A):
    """The identity component of O(2,1): the form relation, det 1 and a positive corner entry."""
    return u21_residual(A) < 1e-9 and abs(np.linalg.det(A) - 1.0) < 1e-9 and A[2, 2] > 0.0


def test_lorentz_membership_spots():
    c, s = math.cos(0.4), math.sin(0.4)
    assert _in_so_plus(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))  # rotation in the (x1, x2) plane
    ch, sh = math.cosh(1.1), math.sinh(1.1)
    assert _in_so_plus(np.array([[1.0, 0.0, 0.0], [0.0, ch, sh], [0.0, sh, ch]]))  # boost in the (x2, x3) plane
    # det -1 reflection and the wrong-sheet half turn both fail
    assert not _in_so_plus(np.diag([1.0, 1.0, -1.0]))
    assert not _in_so_plus(-np.eye(3))
    assert not _in_so_plus(2.0 * np.eye(3))


# ---------------------------------------------------------------------------
# SU(1,1) inside SU(2,1)


def test_su11_embed_lands_in_the_group():
    np.testing.assert_array_equal(su11_embed(MobiusMap(0.0)), np.eye(3))
    for u in uniform_block(31, 0, 3, 0, 50):
        g = su11_embed(random_mobius(u))
        assert g.shape == (3, 3)
        assert u21_residual(g) < 1e-12
        assert abs(np.linalg.det(g) - 1.0) < 1e-12


def test_su11_embed_acts_on_the_second_coordinate_as_phi():
    """The lift of phi fixes the first basis vector and moves the second ball coordinate by phi itself."""
    u = uniform_block(32, 0, MOBIUS_DRAWS + 4, 0, 1000)
    phi = random_mobius(u[:, :MOBIUS_DRAWS])
    g = su11_embed(phi)
    assert g.shape == (1000, 3, 3)
    assert u21_residual(g).max() < 1e-14
    np.testing.assert_array_equal(g[:, :, 0], [[1.0, 0.0, 0.0]] * 1000)
    p = ball_from_uniforms(u[:, MOBIUS_DRAWS:], 0.95)
    _, v = ball_action(g, p)
    assert np.abs(v - mobius_apply(phi, p[1])).max() < 1e-14


def test_su11_embed_of_a_batch_is_its_rows_bit_for_bit():
    phi = random_mobius(uniform_block(33, 0, 3, 0, 100))
    g = su11_embed(phi)
    for r in range(100):
        np.testing.assert_array_equal(g[r], su11_embed(MobiusMap(phi.theta[r].item(), complex(phi.a[r]))))


# ---------------------------------------------------------------------------
# ball action


def test_ball_action_returns_plain_complex_and_preserves_ball():
    for u in uniform_block(34, 0, 7, 0, 100):
        A = su11_embed(random_mobius(u[:3]))
        p = tuple(complex(c) for c in ball_from_uniforms(u[3:], 0.95))
        q = ball_action(A, p)
        assert type(q[0]) is complex and type(q[1]) is complex
        assert abs(q[0]) ** 2 + abs(q[1]) ** 2 < 1.0


def test_ball_action_accepts_real_form_matrices():
    q = ball_action(so21_image(random_mobius(uniform_block(7, 0, 3, 0, 1)[0])), (0.1, 0.2))
    assert abs(q[0]) ** 2 + abs(q[1]) ** 2 < 1.0


def test_a_real_stack_reads_the_bits_of_its_complex_cast():
    """u21_residual and ball_action take a real stack as real, and read the bits of its complex cast, row by row.

    The stack mixes SO+(2,1) images (near the rim too), O(2,1) point
    matrices, matrices with 0.0 and -0.0 entries, and garbage that the
    form check flags.
    """
    c, s = math.cos(0.4), math.sin(0.4)
    signed_zeros = np.array([
        [[c, -s, -0.0], [s, c, 0.0], [-0.0, 0.0, 1.0]],
        -np.eye(3),  # -0.0 off the diagonal
        [[-0.0, 1.0, -0.0], [1.0, -0.0, 0.0], [0.0, -0.0, -1.0]],
    ])
    u = uniform_block(40, 0, 9, 0, 30)
    zero = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]]
    garbage = np.concatenate([(u - 0.5).reshape(-1, 3, 3) * 4.0, [zero]])
    garbage[::3, 0, 1], garbage[1::3, 2, 0] = -0.0, 0.0
    x, y = disc_from_uniforms(u[:, 0], u[:, 1], 0.7).real, disc_from_uniforms(u[:, 2], u[:, 3], 0.7).real
    A = np.concatenate([
        so21_image(random_mobius(uniform_block(41, 0, 3, 0, 30))),
        so21_image(random_mobius(uniform_block(42, 0, 3, 0, 30), 0.999999)),
        o21_point_matrix(x / 2.0, y / 2.0),
        signed_zeros,
        garbage,
    ])
    assert _matrices(A).dtype == float
    np.testing.assert_equal(u21_residual(A).tobytes(), u21_residual(A.astype(complex)).tobytes())
    for matrix in A:
        assert u21_residual(matrix).hex() == u21_residual(matrix.astype(complex)).hex()
    p = ball_from_uniforms(uniform_block(43, 0, 4, 0, len(A)), 0.9)
    real_rows, complex_rows = RowErrors(len(A)), RowErrors(len(A))
    with np.errstate(all="ignore"):  # the zero matrix's denominator vanishes; its row is flagged
        real = ball_action(A, p, errors=real_rows)
        cast = ball_action(A.astype(complex), p, errors=complex_rows)
    assert not real_rows.ok.all() and real_rows.ok[: 90 + len(signed_zeros)].all()
    np.testing.assert_array_equal(real_rows.ok, complex_rows.ok)
    for q, q_cast in zip(real, cast):
        assert q.tobytes() == q_cast.tobytes()


def test_ball_action_rejects_garbage():
    with pytest.raises(ValueError):
        ball_action(2.0 * np.eye(3), (0.1, 0.2))
    with pytest.raises(ValueError):
        ball_action(np.eye(3), (0.8, 0.8))
    x = np.random.default_rng(35).standard_normal((2, 3, 3))
    with pytest.raises(ValueError, match="does not preserve"):
        ball_action(x[0] + 1j * x[1], (0.1, 0.2))


@pytest.mark.parametrize("gap", [1e-7, 1e-9])
def test_ball_action_accepts_every_lift_near_the_rim(gap):
    """The lifts' entries grow like 1 / sqrt(2 gap), and their form residual like the square: the gate scales with it."""
    u = uniform_block(36, 0, 2, 0, 2000)
    theta, a = math.tau * u[:, 0], (1.0 - gap) * np.exp(1j * math.tau * u[:, 1])
    admitted = RowErrors(len(a))
    MobiusMap(theta, a, errors=admitted)  # at 1 - 1e-9, |a| rounds onto the disc's margin in some rows
    assert admitted.ok.sum() >= 400
    A = su11_embed(MobiusMap(theta[admitted.ok], a[admitted.ok]))
    errors = RowErrors(len(A))
    q = ball_action(A, (0.3, 0.2j), errors=errors)
    assert errors.ok.all()
    assert (np.abs(q[0]) ** 2 + np.abs(q[1]) ** 2 < 1.0).all()


def test_orbit_invariant_spot_and_invariance():
    assert su11_orbit_invariant(0.3, 0.8) == pytest.approx(0.5, abs=1e-15)
    for u in uniform_block(35, 0, 7, 0, 100):
        p = tuple(complex(c) for c in ball_from_uniforms(u[:4], 0.9))
        t = su11_orbit_invariant(*p)
        q = ball_action(su11_embed(random_mobius(u[4:])), p)
        assert su11_orbit_invariant(*q) == pytest.approx(t, abs=1e-10)


def test_orbit_invariant_rejects_outside_ball():
    with pytest.raises(ValueError):
        su11_orbit_invariant(0.8, 0.8)


# ---------------------------------------------------------------------------
# the closed-form image of a diagonal automorphism


def test_so21_image_of_the_identity_is_the_identity():
    np.testing.assert_array_equal(so21_image(MobiusMap(0.0)), np.eye(3))


def test_so21_image_of_a_disc_rotation_is_a_plane_rotation():
    c, s = math.cos(0.7), math.sin(0.7)
    rotation = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    np.testing.assert_allclose(so21_image(MobiusMap(0.7)), rotation, rtol=0.0, atol=1e-15)


def test_so21_image_of_the_negation_is_the_half_turn():
    """z -> -z becomes the half turn about the x3 axis, inside SO+(2,1), not -I."""
    np.testing.assert_allclose(so21_image(MobiusMap(math.pi)), np.diag([-1.0, -1.0, 1.0]), rtol=0.0, atol=1e-15)


def _maps_and_pairs(seed, n):
    """n random automorphisms on the 0.9 disc and n pairs at least 1e-3 apart."""
    u = uniform_block(seed, 0, MOBIUS_DRAWS + 4, 0, 2 * n)
    z, w = disc_from_uniforms(u[:, 3], u[:, 4], 0.9), disc_from_uniforms(u[:, 5], u[:, 6], 0.9)
    keep = np.flatnonzero(np.abs(z - w) >= 1e-3)[:n]
    assert keep.size == n
    return random_mobius(u[keep, :MOBIUS_DRAWS], 0.9), z[keep], w[keep]


def _apply(A, h):
    """A stack of matrices applied to map_H's coordinate tuple, row by row, as an (n, 3) array."""
    return np.einsum("nij,jn->ni", A, np.stack(h))


def test_so21_image_lies_in_so_plus_and_intertwines_map_h():
    """The O(2,1) relation, det 1 and a corner entry >= 1, and H(phi(p)) = A H(p) relative to |A H(p)|."""
    phi, z, w = _maps_and_pairs(51, 2000)
    A = so21_image(phi)
    assert A.shape == (2000, 3, 3) and A.dtype == float
    assert u21_residual(A).max() < 1e-12
    assert np.abs(np.linalg.det(A) - 1.0).max() < 1e-12
    assert A[:, 2, 2].min() >= 1.0
    h = _apply(A, map_H(z, w))
    moved = np.stack(map_H(*mobius_apply_pair(phi, (z, w))), axis=-1)
    assert (np.abs(moved - h).max(axis=1) <= 1e-11 * np.abs(h).max(axis=1)).all()


def test_the_swap_conjugates_to_minus_the_identity():
    """H(phi(w), phi(z)) = -A H(z, w): after any diagonal automorphism, the swap acts as -I."""
    phi, z, w = _maps_and_pairs(55, 2000)
    h = _apply(so21_image(phi), map_H(z, w))
    swapped = np.stack(map_H(*mobius_apply_pair(phi, (w, z))), axis=-1)
    assert (np.abs(swapped + h).max(axis=1) <= 1e-11 * np.abs(h).max(axis=1)).all()


def test_so21_image_is_a_homomorphism():
    """A(phi) A(psi) acts on the quadric as phi o psi does, through map_H."""
    phi, z, w = _maps_and_pairs(52, 1000)
    psi, _, _ = _maps_and_pairs(53, 1000)
    AB = so21_image(phi) @ so21_image(psi)
    composed = mobius_apply_pair(phi, mobius_apply_pair(psi, (z, w)))
    h, target = _apply(AB, map_H(z, w)), np.stack(map_H(*composed), axis=-1)
    assert (np.abs(target - h).max(axis=1) <= 1e-12 * np.abs(h).max(axis=1)).all()


def test_so21_image_of_a_batch_is_its_rows_bit_for_bit():
    phi, _, _ = _maps_and_pairs(54, 300)
    A = so21_image(phi)
    for r in range(300):
        np.testing.assert_array_equal(A[r], so21_image(MobiusMap(phi.theta[r].item(), complex(phi.a[r]))))


def test_the_differential_at_the_identity_is_a_basis_of_so21():
    """The tangent matrices of the image along theta, Re a and Im a are in so(2,1), span it, and close under brackets.

    Central differences with h = 1e-5 carry an O(h^2) = 1e-10
    truncation error and about 1e-11 of rounding.  The structure
    constants then give a Killing form of signature (2, 1): the diagonal
    subgroup's algebra is sl(2, R), not solvable.
    """
    h = 1e-5
    X = [
        (so21_image(MobiusMap(h * t, h * a)) - so21_image(MobiusMap(-h * t, -h * a))) / (2.0 * h)
        for t, a in ((1.0, 0j), (0.0, 1.0 + 0j), (0.0, 1j))
    ]
    rotation = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    boosts = [[0, 0, 0], [0, 0, 2], [0, 2, 0]], [[0, 0, -2], [0, 0, 0], [-2, 0, 0]]  # in the (x2, x3) and (x1, x3) planes
    np.testing.assert_allclose(X, [rotation, *boosts], rtol=0.0, atol=1e-9)
    for x in X:
        assert np.abs(x.T @ I21 + I21 @ x).max() < 1e-9
    basis = np.stack([x.ravel() for x in X], axis=1)  # (9, 3)
    assert np.linalg.matrix_rank(basis, tol=1e-6) == 3
    ad = np.zeros((3, 3, 3))  # ad[i] is the matrix of [X_i, .] in the basis
    for i, j in itertools.product(range(3), repeat=2):
        bracket = (X[i] @ X[j] - X[j] @ X[i]).ravel()
        coef, *_ = np.linalg.lstsq(basis, bracket, rcond=None)
        assert np.abs(basis @ coef - bracket).max() < 1e-8
        ad[i][:, j] = coef
    killing = np.einsum("iab,jba->ij", ad, ad)
    eig = np.linalg.eigvalsh(killing)
    assert (eig < -1.0).sum() == 1 and (eig > 1.0).sum() == 2


def _apply_own_rotation(m, z):
    """mobius_apply as it was when each call computed e^{i theta} itself."""
    (z, a), _, single = _batch(None, z, m.a)
    return _unbatch(np.exp(1j * np.asarray(m.theta)) * (z - a) / (1.0 - a.conjugate() * z), single)


def _so21_image_own_rotation(phi):
    """so21_image as it was when it computed e^{i theta} itself."""
    (theta, a), _, single = _batch(None, phi.theta, phi.a)
    e, t = np.exp(1j * theta.real), _abs2(a)
    p, q, r = e * (1.0 - a * a), e * (1.0 + a * a), e * a
    rows = ((p.real, -q.imag, -2.0 * r.imag), (p.imag, q.real, 2.0 * r.real), (-2.0 * a.imag, 2.0 * a.real, 1.0 + t))
    A = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2) / (1.0 - t)[:, None, None]
    return _unbatch(A, single)


def _bits(x):
    return np.asarray(x).tobytes()


def test_shared_rotation_gives_the_bits_of_a_rotation_per_call():
    """A map computes e^{i theta} once; its images of points and its matrix keep the bits they had without sharing."""
    u = uniform_block(43, 0, MOBIUS_DRAWS + 4, 0, 300)
    batch = random_mobius(u[:, :MOBIUS_DRAWS])
    z, w = disc_from_uniforms(u[:, 3], u[:, 4]), disc_from_uniforms(u[:, 5], u[:, 6])
    points = [MobiusMap(theta, a) for theta, a in [(0.0, 0j), (-3.0, 0.4 - 0.5j), (100.0, 0.9j), (2.5, -0.3)]]
    points += [MobiusMap(float(t), complex(a)) for t, a in zip(batch.theta[:20], batch.a[:20])]
    for phi, p in [(batch, (z, w)), (points[1], (z, w))] + [(phi, (0.3 + 0.1j, -0.6j)) for phi in points]:
        expected = tuple(_apply_own_rotation(phi, x) for x in p)
        assert _bits(mobius_apply(phi, p[0])) == _bits(expected[0])
        assert [_bits(x) for x in mobius_apply_pair(phi, p)] == [_bits(x) for x in expected]
        assert _bits(so21_image(phi)) == _bits(_so21_image_own_rotation(phi))
    assert isinstance(mobius_apply(points[1], 0.2j), complex)


# ---------------------------------------------------------------------------
# pointed transitivity matrices


def test_point_matrix_spot():
    B = o21_point_matrix(0.6, 0.0)
    np.testing.assert_allclose(
        B, [[0.0, 1.25, 0.75], [1.0, 0.0, 0.0], [0.0, 0.75, 1.25]], atol=1e-15
    )


def test_point_matrix_membership_and_reproduction():
    for u in uniform_block(41, 0, 2, 0, 100):
        c = complex(disc_from_uniforms(1.0 - u[0], u[1], 0.95))  # as o21-matrix-B draws: never the origin
        z, w = c.real, c.imag
        B = o21_point_matrix(z, w)
        assert u21_residual(B) < 1e-12
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


def test_point_matrix_flags_in_a_stack_what_the_point_rejects():
    """No numpy warning (an error under the test settings) escapes from the flagged rows."""
    z, w = np.array([0.0, 1.0, 0.8, 1e300, 0.6]), np.array([0.0, 0.0, 0.8, 0.0, 0.0])
    rows = RowErrors(5)
    B = o21_point_matrix(z, w, errors=rows)
    assert rows.ok.tolist() == [False, False, False, False, True]
    np.testing.assert_array_equal(B[4], o21_point_matrix(0.6, 0.0))
    for r in range(4):
        with pytest.raises(ValueError) as info:
            o21_point_matrix(z[r], w[r])
        assert rows.message[r] == str(info.value)


def test_point_matrix_rejects_complex_input():
    with pytest.raises(ValueError):
        o21_point_matrix(0.3 + 0.1j, 0.2)
