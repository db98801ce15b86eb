"""Disc automorphism algebra and the pseudo-hyperbolic distance."""

from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bidisc_lab.mobius import (
    IDENTITY,
    MobiusMap,
    mobius_apply,
    mobius_apply_pair,
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
