"""Disc automorphism algebra and the pseudo-hyperbolic distance."""

from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bidisc_lab.mobius import (
    IDENTITY,
    MobiusMap,
    mobius_apply,
    mobius_apply_pair,
    mobius_compose,
    mobius_inverse,
    pseudo_hyperbolic,
    random_mobius,
)
from bidisc_lab.rng import uniform_block

DISC = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)
ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
MAPS = st.builds(MobiusMap, ANGLES, st.complex_numbers(max_magnitude=0.85, allow_nan=False))


def test_identity_fixes_points():
    for z in (0j, 0.5 + 0.1j, -0.3j):
        assert mobius_apply(IDENTITY, z) == pytest.approx(z)


def test_rho_spot_value():
    assert pseudo_hyperbolic(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)


@given(m=MAPS, z=DISC)
def test_apply_stays_in_disc(m: MobiusMap, z: complex):
    assert abs(mobius_apply(m, z)) < 1.0


@given(m1=MAPS, m2=MAPS, z=DISC)
def test_compose_matches_pointwise(m1, m2, z):
    """Closed-form composition equals applying the factors in sequence."""
    lhs = mobius_apply(mobius_compose(m1, m2), z)
    rhs = mobius_apply(m1, mobius_apply(m2, z))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(m=MAPS, z=DISC)
def test_inverse_round_trips_points(m, z):
    back = mobius_apply(mobius_inverse(m), mobius_apply(m, z))
    assert back == pytest.approx(z, abs=1e-12)


@given(m=MAPS)
def test_inverse_composes_to_identity(m):
    e = mobius_compose(m, mobius_inverse(m))
    assert abs(e.a) < 1e-12
    assert math.remainder(e.theta, math.tau) == pytest.approx(0.0, abs=1e-12)


@given(m=MAPS, z=DISC, w=DISC)
def test_rho_is_invariant(m, z, w):
    """The quantity |z-w| / |1 - conj(z) w| is a disc-automorphism invariant."""
    r0 = pseudo_hyperbolic(z, w)
    r1 = pseudo_hyperbolic(*mobius_apply_pair(m, (z, w)))
    assert r1 == pytest.approx(r0, abs=1e-11)


@given(z=DISC, w=DISC)
def test_rho_range_and_symmetry(z, w):
    r = pseudo_hyperbolic(z, w)
    assert 0.0 <= r < 1.0
    assert pseudo_hyperbolic(w, z) == r
    if r == 0.0:
        assert z == w


@given(z=DISC)
def test_rho_vanishes_on_diagonal(z):
    assert pseudo_hyperbolic(z, z) == 0.0


def test_theta_is_normalized():
    m = MobiusMap(7 * math.pi, 0.1 + 0j)
    n = mobius_compose(m, IDENTITY)
    assert -math.pi <= n.theta <= math.pi


def test_boundary_points_rejected():
    with pytest.raises(ValueError):
        mobius_apply(IDENTITY, 1.0 + 0j)
    with pytest.raises(ValueError):
        pseudo_hyperbolic(1.0 + 0j, 0j)
    with pytest.raises(ValueError):
        MobiusMap(0.0, 1.0 + 0j)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        mobius_apply(IDENTITY, complex("nan"))
    with pytest.raises(ValueError):
        MobiusMap(math.nan, 0j)


@settings(max_examples=25)
@given(m2=MAPS, m1=MAPS)
def test_compose_preserves_group_normalization(m1, m2):
    c = mobius_compose(m1, m2)
    assert abs(c.a) < 1.0
    assert -math.pi <= c.theta <= math.pi


def test_random_mobius_is_seeded_and_bounded():
    a = random_mobius(uniform_block(42, 9, 3, 0, 1)[0], 0.5)
    b = random_mobius(uniform_block(42, 9, 3, 0, 1)[0], 0.5)
    assert a == b
    assert abs(a.a) < 0.5
    assert 0.0 <= a.theta < 2.0 * math.pi or -math.pi <= a.theta <= math.pi


def test_apply_agrees_with_raw_formula():
    m = MobiusMap(0.7, 0.2 - 0.1j)
    z = 0.3 + 0.4j
    expected = cmath.exp(1j * 0.7) * (z - m.a) / (1.0 - m.a.conjugate() * z)
    assert mobius_apply(m, z) == pytest.approx(expected, abs=1e-15)
