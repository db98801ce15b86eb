"""Level conversions, projective points, and membership predicates."""

import math

import pytest
from hypothesis import given, strategies as st

from bidisc_lab.domains import (
    DomainSpec,
    ProjectivePoint,
    a_from_alpha,
    alpha_from_a,
    contains,
    eta_level,
    im_condition,
    minkowski_form,
    quadric_residual,
)
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
# projective points


def test_projective_point_validation():
    with pytest.raises(ValueError):
        ProjectivePoint([1, 2, 3])
    with pytest.raises(ValueError):
        ProjectivePoint([0, 0, 0, 0])
    with pytest.raises(ValueError):
        ProjectivePoint([1, math.inf, 0, 0])


def test_projective_point_is_frozen():
    p = ProjectivePoint([1, 2, 3, 4])
    with pytest.raises(ValueError):
        p.coords[0] = 5.0


# ---------------------------------------------------------------------------
# domain membership


def test_contains_returns_plain_types():
    inside, margin = contains(DomainSpec.bidisc(), (0.5, -0.5))
    assert type(inside) is bool
    assert type(margin) is float


def test_bidisc_membership():
    inside, margin = contains(DomainSpec.bidisc(), (0.5, -0.5))
    assert inside and margin == pytest.approx(0.5)
    inside, _ = contains(DomainSpec.bidisc(), (1.2, 0.0))
    assert not inside


def test_bidisc_r_membership():
    # rho((0.5, -0.5)) = 1 / 1.25 = 0.8
    inside, margin = contains(DomainSpec.bidisc_r(0.9), (0.5, -0.5))
    assert inside and margin == pytest.approx(0.1, abs=1e-12)
    inside, margin = contains(DomainSpec.bidisc_r(0.7), (0.5, -0.5))
    assert not inside and margin == pytest.approx(-0.1, abs=1e-12)


def test_bidisc_st_membership():
    inside, _ = contains(DomainSpec.bidisc_st(0.3, 0.9), (0.5, -0.5))
    assert inside
    inside, margin = contains(DomainSpec.bidisc_st(0.85, 1.0), (0.5, -0.5))
    assert not inside and margin == pytest.approx(-0.05, abs=1e-12)


def test_ball_membership():
    inside, margin = contains(DomainSpec.ball(), (0.6, 0.5))
    assert inside and margin == pytest.approx(0.39, abs=1e-12)
    assert not contains(DomainSpec.ball(), (0.6, 0.8))[0]


def test_quadric_band_membership():
    p = (1.25, 0.75j, 0)
    assert contains(DomainSpec.quadric_st(1.0, math.inf), p)[0]
    assert contains(DomainSpec.quadric_st(2.0, 3.0), p)[0]
    assert not contains(DomainSpec.quadric_st(2.2, 3.0), p)[0]
    # conjugate fails the orientation condition
    assert not contains(DomainSpec.quadric_st(1.0, math.inf), (1.25, -0.75j, 0))[0]
    # off the quadric entirely
    assert not contains(DomainSpec.quadric_st(1.0, math.inf), (2.0, 0.75j, 0))[0]


def test_diagonal_curve_membership():
    assert contains(DomainSpec.diagonal_curve(), (0.3 + 0.1j, 0.3 + 0.1j))[0]
    assert not contains(DomainSpec.diagonal_curve(), (0.3, 0.31))[0]


def test_infinity_curve_membership():
    assert contains(DomainSpec.infinity_curve(), ProjectivePoint([0, 1, 1j, 0]))[0]
    # nonzero first coordinate is off the curve
    assert not contains(DomainSpec.infinity_curve(), ProjectivePoint([1, 1, 1j, 0]))[0]
    # orientation condition still applies at infinity
    assert not contains(DomainSpec.infinity_curve(), ProjectivePoint([0, 1, -1j, 0]))[0]


def test_projective_quadric_membership():
    p = ProjectivePoint([1, 1.25, 0.75j, 0])
    assert contains(DomainSpec.quadric_proj(1.0), p)[0]
    assert not contains(DomainSpec.quadric_proj(2.2), p)[0]
    # scaling must not change the verdict
    q = ProjectivePoint([3j, 3.75j, -2.25, 0])
    assert contains(DomainSpec.quadric_proj(1.0), q)[0]


def test_contains_rejects_wrong_ambient():
    with pytest.raises(ValueError):
        contains(DomainSpec.quadric_st(1.0, 2.0), (0.5, -0.5))
    with pytest.raises(ValueError):
        contains(DomainSpec.bidisc(), (1, 2, 3))
    with pytest.raises(ValueError):
        contains(DomainSpec.quadric_proj(1.0), (1, 2, 3))
    with pytest.raises(ValueError):
        contains(DomainSpec.bidisc(), ProjectivePoint([1, 0, 0, 0]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: DomainSpec("nonsense"),
        lambda: DomainSpec.bidisc_r(1.5),
        lambda: DomainSpec.bidisc_st(0.8, 0.3),
        lambda: DomainSpec.quadric_st(0.5, 2.0),
        lambda: DomainSpec.quadric_proj(0.5),
    ],
)
def test_domain_spec_validation(build):
    with pytest.raises(ValueError):
        build()


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
