"""Orbit samplers land on their orbits; the CSV dump is stable and replayable."""

import numpy as np
import pytest

from bidisc_lab.domains import DomainSpec, OrbitSpec, contains, on_orbit_residual
from bidisc_lab import orbits
from bidisc_lab.orbits import (
    ORBIT_DRAWS,
    dump_orbit,
    minkowski_orbit_point,
    orbit_point,
    parse_orbit_spec,
    real_slice_point,
    rho_orbit_point,
    sphere_point,
)
from bidisc_lab.rng import uniform_block

ALL_ORBITS = [
    OrbitSpec.fa(0.8),
    OrbitSpec.eta(2.125),
    OrbitSpec.ball_ellipsoid(0.5),
    OrbitSpec.ball_real_slice(),
    OrbitSpec.ball_complex_curve(),
]


@pytest.mark.parametrize("spec", ALL_ORBITS, ids=lambda s: s.tag)
def test_samplers_stay_on_their_orbit(spec):
    for u in uniform_block(61, 0, ORBIT_DRAWS[spec.tag], 0, 30):
        p = orbit_point(spec, u)
        assert all(type(c) is complex for c in p)
        assert on_orbit_residual(spec, p) < 1e-10


def test_rho_orbit_point_stays_in_the_bidisc():
    dom = DomainSpec.bidisc()
    z, w = rho_orbit_point(uniform_block(62, 0, 3, 0, 50), 0.9)
    for p in zip(z.tolist(), w.tolist()):
        assert contains(dom, p)[0]


def test_ball_orbit_points_stay_in_the_ball():
    dom = DomainSpec.ball()
    for spec in (OrbitSpec.ball_ellipsoid(0.7), OrbitSpec.ball_real_slice()):
        for u in uniform_block(63, 0, 3, 0, 50):
            assert contains(dom, orbit_point(spec, u))[0]


def test_sphere_point_is_normalized():
    u, v = sphere_point(uniform_block(64, 0, 3, 0, 50))
    np.testing.assert_allclose(np.abs(u) ** 2 + np.abs(v) ** 2, 1.0, rtol=0, atol=1e-12)


def test_real_slice_point_has_no_imaginary_part():
    for row in uniform_block(65, 0, 3, 0, 50):
        u, v = real_slice_point(row)
        assert u.imag == 0.0 and v.imag == 0.0


def test_sampler_parameter_validation():
    u = uniform_block(66, 0, 3, 0, 1)[0]
    with pytest.raises(ValueError):
        rho_orbit_point(u, 1.0)
    with pytest.raises(ValueError):
        minkowski_orbit_point(u, 1.0)


# ---------------------------------------------------------------------------
# spec strings


@pytest.mark.parametrize(
    "text, tag, params",
    [
        ("Fa:0.8", "fa", (0.8,)),
        ("Eta:2.125", "eta-level", (2.125,)),
        ("Ellipsoid:0.5", "ball-ellipsoid", (0.5,)),
        ("RealSlice", "ball-real-slice", ()),
        ("ComplexCurve", "ball-complex-curve", ()),
    ],
)
def test_parse_orbit_spec(text, tag, params):
    spec = parse_orbit_spec(text)
    assert spec.tag == tag and spec.params == params


@pytest.mark.parametrize(
    "text",
    ["Fa", "Fa:", "Fa:abc", "Fa:1.2", "Eta:0.5", "RealSlice:1", "Nope:1", ""],
)
def test_parse_orbit_spec_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        parse_orbit_spec(text)


# ---------------------------------------------------------------------------
# CSV dump


def test_dump_orbit_csv_layout(tmp_path):
    out = tmp_path / "fa.csv"
    dump_orbit(OrbitSpec.fa(0.8), 5, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,y1,x2,y2,residual"
    assert len(lines) == 6
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert len(cells) == 5
        assert cells[-1] < 1e-12


def test_dump_orbit_triple_header(tmp_path):
    out = tmp_path / "eta.csv"
    dump_orbit(OrbitSpec.eta(2.125), 3, str(out))
    assert out.read_text().splitlines()[0] == "x1,y1,x2,y2,x3,y3,residual"


def test_dump_orbit_is_seed_deterministic(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    dump_orbit(OrbitSpec.ball_ellipsoid(0.5), 4, str(a), seed=7)
    dump_orbit(OrbitSpec.ball_ellipsoid(0.5), 4, str(b), seed=7)
    dump_orbit(OrbitSpec.ball_ellipsoid(0.5), 4, str(c), seed=8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_dump_orbit_rejects_empty_request(tmp_path):
    with pytest.raises(ValueError):
        dump_orbit(OrbitSpec.fa(0.5), 0, str(tmp_path / "x.csv"))


def _csv_line(spec, p):
    return ",".join(f"{x:.17g}" for x in [*(y for z in p for y in (z.real, z.imag)), on_orbit_residual(spec, p)])


@pytest.mark.parametrize("spec", ALL_ORBITS, ids=lambda s: s.tag)
def test_dump_row_replays_from_its_uniforms(tmp_path, spec):
    """Row i is orbit_point of the uniforms [i k, (i + 1) k) of the stream (seed, 0)."""
    out = tmp_path / "orbit.csv"
    dump_orbit(spec, 2 * orbits.BLOCK + 3, str(out), seed=5)
    lines = out.read_text().splitlines()
    k = ORBIT_DRAWS[spec.tag]
    for i in (0, 1, orbits.BLOCK, 2 * orbits.BLOCK + 2):
        assert lines[1 + i] == _csv_line(spec, orbit_point(spec, uniform_block(5, 0, k, i, i + 1)[0]))


@pytest.mark.parametrize("spec", ALL_ORBITS, ids=lambda s: s.tag)
def test_dump_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, spec):
    texts = []
    for block in (orbits.BLOCK, 7):
        monkeypatch.setattr(orbits, "BLOCK", block)
        out = tmp_path / f"orbit-{block}.csv"
        dump_orbit(spec, 40, str(out), seed=9)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
