"""The quadric embeddings, their inverse, symmetrization and the ellipsoid scaling."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bidisc_lab.domains import (
    im_condition,
    minkowski_form,
    quadric_band,
    quadric_residual,
)
from bidisc_lab.maps import (
    EPS_DIAG,
    map_H,
    map_H_inv,
    map_J,
    scale_g_t,
    sym,
)
from bidisc_lab.rng import disc_from_uniforms, uniform_block

DISC = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)


def _offdiag_pairs(seed, n, rmax=0.9):
    """The first n pairs with |z - w| >= 1e-3 among 2n bidisc pairs."""
    u = uniform_block(seed, 0, 4, 0, 2 * n)
    z, w = disc_from_uniforms(u[:, 0], u[:, 1], rmax), disc_from_uniforms(u[:, 2], u[:, 3], rmax)
    out = [(a, b) for a, b in zip(z.tolist(), w.tolist()) if abs(a - b) >= 1e-3][:n]
    assert len(out) == n
    return out


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
        p, q = map_J(z, w), np.array([1.0, *map_H(z, w)])
        worst = max(abs(p[a] * q[b] - p[b] * q[a]) for a in range(4) for b in range(a + 1, 4))
        assert worst <= 1e-10 * np.max(np.abs(p)) * np.max(np.abs(q))


def test_map_h_image_lies_on_quadric_band():
    for z, w in _offdiag_pairs(11, 100):
        inside, margin = quadric_band(*map_H(z, w), 1.0, math.inf)
        assert inside, (z, w, margin)


def test_map_j_returns_one_array_per_coordinate_as_map_h_does():
    """On a batch, map_J gives a tuple of four 1-d arrays, and each row the point call's Python scalars, bit for bit."""
    u = uniform_block(8, 0, 4, 0, 40)
    z, w = disc_from_uniforms(u[:, 0], u[:, 1], 0.9), disc_from_uniforms(u[:, 2], u[:, 3], 0.9)
    w[:5] = z[:5]  # the diagonal too
    coords, h = map_J(z, w), map_H(z[5:], w[5:])
    assert type(coords) is type(h) is tuple and len(coords) == 4 and len(h) == 3
    assert all(type(c) is np.ndarray and c.shape == z.shape for c in coords)
    for r in range(len(z)):
        point = map_J(complex(z[r]), complex(w[r]))
        assert type(point) is tuple and all(type(c) is complex for c in point)
        assert [(c[r].real.hex(), c[r].imag.hex()) for c in coords] == [(c.real.hex(), c.imag.hex()) for c in point]


def test_map_j_sends_diagonal_to_infinity_curve():
    """J(z, z) lies at infinity (first coordinate 0), on the closed quadric, on the oriented component."""
    for x, y in 2.0 * uniform_block(3, 0, 2, 0, 50) - 1.0:
        z = 0.95 * complex(x, y) / math.sqrt(2)
        h0, h1, h2, h3 = map_J(z, z)
        assert h0 == 0.0
        hmax = max(abs(h1), abs(h2), abs(h3))
        assert abs(h1 * h1 + h2 * h2 - h3 * h3) <= 1e-12 * hmax * hmax
        assert im_condition(h1, h2, h3) > 0.0


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


# pairs just off map_H's chart guard, and pairs near the rim
_EDGE_PAIRS = [
    (c + 0.5 * d * e, c - 0.5 * d * e)
    for c in (0.0, 0.3 - 0.4j, -0.9j)
    for d in (1.0000001 * EPS_DIAG, 1e-5, 1e-3)
    for e in (1.0, np.exp(2.1j))
] + [
    (r * np.exp(1j * a), r * np.exp(1j * (a + b)))
    for r in (1.0 - 1e-8, 1.0 - 1e-3)  # the maps accept |z| < 1 - 1e-9
    for a in (0.0, 2.5)
    for b in (1e-3, 1.0, math.pi)
]


def test_map_h_inv_roundtrip_preserves_order():
    """z - w = 2 / (h1 - i h2) fixes the ordering: H(z, w) inverts to (z, w), and -H(z, w) = H(w, z) to (w, z)."""
    for z, w in _offdiag_pairs(23, 200) + _EDGE_PAIRS:
        h = map_H(z, w)
        for back, pair in ((map_H_inv(*h), (z, w)), (map_H_inv(*(-c for c in h)), (w, z))):
            assert back[0] == pytest.approx(pair[0], abs=1e-12)
            assert back[1] == pytest.approx(pair[1], abs=1e-12)


def test_map_h_inv_rejects_off_image_input():
    for h in (
        (1.25, 0.75, 0.0),  # not on the quadric
        (1.0, 0.0, 0.0),  # on the quadric, but the recovered roots sit on the unit circle
        # off the image, and no numpy warning (an error under the test settings) escapes on the way
        (math.nan, 0.0, 0.0),
        (1e308, 1e308, 1e308),
    ):
        with pytest.raises(ValueError):
            map_H_inv(*h)


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
    assert sym(z, w) == sym(w, z)


def test_scale_g_t_spot():
    u, v = scale_g_t(0.5, (0.3, 0.8))
    assert (u, v) == (0.6, 0.8)
    assert abs(u) ** 2 + abs(v) ** 2 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("t", [0.0, 1.0, 1.5, -0.2])
def test_scale_g_t_rejects_bad_parameter(t):
    with pytest.raises(ValueError):
        scale_g_t(t, (0.1, 0.2))
