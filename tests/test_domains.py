"""Level conversions, the orbit bands of the bidisc and the quadric, and orbit residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bidisc_lab.domains import (
    a_from_alpha,
    alpha_from_a,
    eta_level,
    im_condition,
    minkowski_form,
    quadric_band,
    quadric_residual,
    rho_band,
)
from bidisc_lab.maps import EPS_DIAG, map_H
from bidisc_lab.mobius import pseudo_hyperbolic
from bidisc_lab.rng import disc_from_uniforms, uniform_block
from bidisc_lab.suites import _PREIMAGE_BANDS
from bidisc_lab.orbits import COMPLEX_CURVE, ELLIPSOID, MINKOWSKI_LEVEL, REAL_SLICE, RHO_LEVEL, Family

RADII = st.floats(min_value=0.01, max_value=0.99)


# ---------------------------------------------------------------------------
# scalar forms


@pytest.mark.parametrize(
    "triple, expected",
    [
        ((1, 0, 0), 1.0),
        ((0, 0, 1), -1.0),
        ((1.25, 0.75j, 0), 2.125),
    ],
)
def test_minkowski_form_spots(triple, expected):
    assert minkowski_form(*triple) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("triple", [(1, 0, 0), (1.25, 0.75j, 0), (1, 1, 1)])
def test_quadric_residual_vanishes_on_quadric(triple):
    assert quadric_residual(*triple) == 0


def test_im_condition_spots():
    assert im_condition(1.25, 0.75j, 0) == pytest.approx(0.9375, abs=1e-15)
    assert im_condition(1, 0, 0) == 0.0
    # conjugating flips the sign
    assert im_condition(1.25, -0.75j, 0) == pytest.approx(-0.9375, abs=1e-15)


# ---------------------------------------------------------------------------
# level parameter conversions


def test_alpha_spot():
    assert alpha_from_a(0.8) == pytest.approx(8.03125, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.2])
def test_alpha_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        alpha_from_a(bad)


def test_eta_level_spots():
    assert eta_level(1.0) == 1.0
    assert eta_level(7.0) == 2.0
    assert eta_level(8.03125) == 2.125


def test_eta_level_rejects_small_alpha():
    with pytest.raises(ValueError):
        eta_level(0.5)


def test_a_from_alpha_rejects_level_one():
    with pytest.raises(ValueError):
        a_from_alpha(1.0)


@given(a=RADII)
def test_alpha_roundtrip(a):
    """a_from_alpha inverts alpha_from_a on (0, 1)."""
    assert a_from_alpha(alpha_from_a(a)) == pytest.approx(a, abs=1e-12)


@given(a=RADII)
def test_eta_level_matches_closed_form(a):
    # sqrt((alpha+1)/2) collapses to 2/a^2 - 1
    assert eta_level(alpha_from_a(a)) == pytest.approx(2.0 / (a * a) - 1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# subdomains: bands of rho levels and of Minkowski levels


def test_bands_return_plain_types():
    for inside, margin in (rho_band(0.5, -0.5, -math.inf, 0.9), quadric_band(1.25, 0.75j, 0, 1.0, 3.0)):
        assert type(inside) is bool
        assert type(margin) is float


def test_bidisc_membership():
    # hi = 1 leaves the bidisc itself; rho((0.5, -0.5)) = 0.8
    inside, margin = rho_band(0.5, -0.5, -math.inf, 1.0)
    assert inside and margin == pytest.approx(0.2, abs=1e-12)
    inside, margin = rho_band(1.2, 0.0, -math.inf, 1.0)
    assert not inside and margin == pytest.approx(-0.2, abs=1e-12)


def test_a_pair_within_the_disc_margin_reads_outside_with_margin_zero():
    """rho_band reports a pair that breaks the disc rule, inside the circle but within TOL_BOUNDARY of it, as one on
    the circle: (False, 0.0), whatever the band; the rows beside it keep their own reading."""
    for hi in (0.7, 1.0):
        assert rho_band(1 - 5e-10, 0.0, -math.inf, hi) == (False, 0.0)
    inside, margin = rho_band(np.array([1 - 5e-10, 0.5]), np.array([0.0, -0.5]), -math.inf, 1.0)
    assert inside.tolist() == [False, True]
    assert margin[0] == 0.0 and margin[1] == pytest.approx(0.2, abs=1e-12)


def test_bidisc_r_membership():
    inside, margin = rho_band(0.5, -0.5, -math.inf, 0.9)
    assert inside and margin == pytest.approx(0.1, abs=1e-12)
    inside, margin = rho_band(0.5, -0.5, -math.inf, 0.7)
    assert not inside and margin == pytest.approx(-0.1, abs=1e-12)


def test_bidisc_st_membership():
    inside, _ = rho_band(0.5, -0.5, 0.3, 0.9)
    assert inside
    inside, margin = rho_band(0.5, -0.5, 0.85, 1.0)
    assert not inside and margin == pytest.approx(-0.05, abs=1e-12)


def test_diagonal_curve_membership():
    """The diagonal, rho = 0, belongs to a band exactly when its lower bound is negative."""
    p = (0.3 + 0.1j, 0.3 + 0.1j)
    assert rho_band(*p, -0.5, 0.5) == (True, 0.5)
    assert rho_band(*p, -math.inf, 0.5)[0]
    assert rho_band(*p, 0.0, 0.5) == (False, 0.0)


def test_quadric_band_membership():
    p = (1.25, 0.75j, 0)  # Minkowski level 2.125
    assert quadric_band(*p, 1.0, math.inf)[0]
    assert quadric_band(*p, 2.0, 3.0)[0]
    assert not quadric_band(*p, 2.2, 3.0)[0]
    # conjugate fails the orientation condition
    assert not quadric_band(1.25, -0.75j, 0, 1.0, math.inf)[0]
    # off the quadric entirely
    assert not quadric_band(2.0, 0.75j, 0, 1.0, math.inf)[0]
    # bounds one per row
    inside, _ = quadric_band(np.full(2, 1.25), np.full(2, 0.75j), np.zeros(2), [2.0, 2.2], [3.0, 3.0])
    assert inside.tolist() == [True, False]


@pytest.mark.parametrize(
    "build",
    [
        lambda: rho_band(0.5, -0.5, 0.3, 1.5),
        lambda: rho_band(0.5, -0.5, 0.8, 0.3),
        lambda: rho_band(0.5, -0.5, math.nan, 0.5),
        lambda: quadric_band(1.25, 0.75j, 0, 0.5, 2.0),
        lambda: quadric_band(1.25, 0.75j, 0, [1.0, 3.0], 2.0),
    ],
)
def test_domain_spec_validation(build):
    """Bad band bounds: rho_band needs lo < hi <= 1, quadric_band 1 <= s < t on every row."""
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("s, t", [tuple(band) for band in _PREIMAGE_BANDS])
def test_quadric_bands_pull_back_to_rho_bands(s, t):
    """Off the diagonal, map_H carries rho_band(sqrt(2/(t+1)), sqrt(2/(s+1))) onto quadric_band(s, t)."""
    lo, hi = math.sqrt(2.0 / (t + 1.0)), math.sqrt(2.0 / (s + 1.0))
    u = uniform_block(91, 0, 4, 0, 4000)
    z, w = disc_from_uniforms(u[:, 0], u[:, 1]), disc_from_uniforms(u[:, 2], u[:, 3])
    rho = pseudo_hyperbolic(z, w)
    keep = (np.abs(z - w) >= EPS_DIAG) & (np.minimum(np.abs(rho - lo), np.abs(rho - hi)) >= 1e-8)
    z, w = z[keep], w[keep]
    predicted = rho_band(z, w, lo, hi)[0]
    assert predicted.any() and (t == math.inf or not predicted.all())  # (1, inf) is the whole off-diagonal bidisc
    np.testing.assert_array_equal(quadric_band(*map_H(z, w), s, t)[0], predicted)


# ---------------------------------------------------------------------------
# orbit residuals


def _orbit_residual(spec, p):
    return spec.record.residual(p, spec.param, None)


def test_orbit_residuals_by_tag():
    assert _orbit_residual(Family(RHO_LEVEL, 0.8), (0.5, -0.5)) == pytest.approx(0.0, abs=1e-15)
    assert _orbit_residual(Family(MINKOWSKI_LEVEL, 2.125), (1.25, 0.75j, 0)) == pytest.approx(
        0.0, abs=1e-15
    )
    assert _orbit_residual(Family(ELLIPSOID, 0.4), (0.4, 0.0)) == 0.0
    assert _orbit_residual(Family(ELLIPSOID, 0.4), (0.0, 0.0)) == pytest.approx(0.16)
    assert _orbit_residual(Family(COMPLEX_CURVE), (0.0, 0.3j)) == 0.0
    assert _orbit_residual(Family(COMPLEX_CURVE), (0.3, 0.1)) == pytest.approx(0.3)
    assert _orbit_residual(Family(REAL_SLICE), (0.3, -0.7)) == 0.0
    assert _orbit_residual(Family(REAL_SLICE), (0.3 + 0.1j, 0.5)) == pytest.approx(0.1)


def test_eta_residual_infinite_on_wrong_component():
    """Points violating the orientation condition are infinitely far from the orbit."""
    assert _orbit_residual(Family(MINKOWSKI_LEVEL, 2.125), (1.25, -0.75j, 0)) == math.inf


@pytest.mark.parametrize(
    "build",
    [
        lambda: Family(RHO_LEVEL),
        lambda: Family(RHO_LEVEL, 1.2),
        lambda: Family(MINKOWSKI_LEVEL, 1.0),
        lambda: Family(ELLIPSOID, 0.0),
        lambda: Family(ELLIPSOID, 1.0),
        lambda: Family(RHO_LEVEL, math.nan),
        lambda: Family(MINKOWSKI_LEVEL, math.inf),
        lambda: Family(REAL_SLICE, 0.5),
    ],
)
def test_orbit_spec_validation(build):
    with pytest.raises(ValueError):
        build()
