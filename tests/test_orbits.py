"""The family table; orbit samplers land on their orbits; the CSV dump is stable and replayable."""

import numpy as np
import pytest

from bidisc_lab.domains import DomainSpec, contains
from bidisc_lab import orbits
from bidisc_lab.levi import ON_SURFACE_TOL, value
from bidisc_lab.orbits import (
    COMPLEX_CURVE,
    ELLIPSOID,
    FAMILIES,
    MINKOWSKI_LEVEL,
    REAL_SLICE,
    RHO_LEVEL,
    Family,
    RowErrors,
    dump_orbit,
    on_orbit_residual,
    orbit_point,
    orbit_points,
    parse_orbit_spec,
    real_slice_point,
    rho_orbit_point,
    sphere_point,
)
from bidisc_lab.rng import uniform_block

ORBITS = {
    "fa": Family(RHO_LEVEL, 0.8),
    "eta-level": Family(MINKOWSKI_LEVEL, 2.125),
    "ball-ellipsoid": Family(ELLIPSOID, 0.5),
    "ball-real-slice": Family(REAL_SLICE),
    "ball-complex-curve": Family(COMPLEX_CURVE),
}
ALL_ORBITS = list(ORBITS.values())


def _orbit_ids(spec):
    return next(key for key, known in ORBITS.items() if known == spec)


# ---------------------------------------------------------------------------
# the table: one record per family, whose pieces describe one surface

# a parameter for each family that takes one
_PARAM = {"rho-level": 0.8, "minkowski-level": 2.125, "ellipsoid": 0.5, "flat-control": 0.5}
TABLE = [Family(record, _PARAM.get(record.name)) for record in FAMILIES]


@pytest.mark.parametrize("spec", TABLE, ids=lambda f: f.record.name)
def test_each_record_describes_one_surface(spec):
    """Sampled points lie on the defining function's zero set and on the orbit; the CLI name parses back."""
    record = spec.record
    if record.sampler is not None:
        errors = RowErrors(200)
        coords = orbit_points(spec, uniform_block(71, 0, record.draws, 0, 200), 0.95, errors)
        assert errors.ok.all() and len(coords) == record.dim
        P = np.column_stack(coords)
        if record.value is not None:
            scale2 = np.maximum(1.0, np.abs(P).max(axis=1) ** 2)  # as levi_restricted scales its on-surface check
            assert (np.abs(value(spec, P)) <= ON_SURFACE_TOL * scale2).all()
        if record.residual is not None:
            for p in P.tolist():
                assert on_orbit_residual(spec, p) < 1e-10
    if record.cli is not None:
        text = record.cli if spec.param is None else f"{record.cli}:{spec.param!r}"
        assert parse_orbit_spec(text) == spec


@pytest.mark.parametrize("spec", ALL_ORBITS, ids=_orbit_ids)
def test_samplers_stay_on_their_orbit(spec):
    for u in uniform_block(61, 0, spec.record.draws, 0, 30):
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
    for spec in (Family(ELLIPSOID, 0.7), Family(REAL_SLICE)):
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
    """The samplers take their parameters from a Family, which checks them; a row the sampler rejects raises."""
    u = uniform_block(66, 0, 3, 0, 1)[0]
    with pytest.raises(ValueError, match="need 0 < a < 1"):
        orbit_point(Family(RHO_LEVEL, 1.0), u)
    with pytest.raises(ValueError, match="need level > 1"):
        orbit_point(Family(MINKOWSKI_LEVEL, 1.0), u)
    with pytest.raises(ValueError, match="too close to the diagonal"):
        orbit_point(Family(MINKOWSKI_LEVEL, 1e30), u)


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
    assert parse_orbit_spec(text) == Family(ORBITS[tag].record, *params)


@pytest.mark.parametrize(
    "text",
    ["Fa", "Fa:", "Fa:abc", "Fa:1.2", "Eta:0.5", "Eta:inf", "Eta:nan", "RealSlice:1", "Nope:1", ""],
)
def test_parse_orbit_spec_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        parse_orbit_spec(text)


# ---------------------------------------------------------------------------
# CSV dump


def test_dump_orbit_csv_layout(tmp_path):
    out = tmp_path / "fa.csv"
    dump_orbit(Family(RHO_LEVEL, 0.8), 5, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,y1,x2,y2,residual"
    assert len(lines) == 6
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert len(cells) == 5
        assert cells[-1] < 1e-12


def test_dump_orbit_triple_header(tmp_path):
    out = tmp_path / "eta.csv"
    dump_orbit(Family(MINKOWSKI_LEVEL, 2.125), 3, str(out))
    assert out.read_text().splitlines()[0] == "x1,y1,x2,y2,x3,y3,residual"


def test_dump_orbit_is_seed_deterministic(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    dump_orbit(Family(ELLIPSOID, 0.5), 4, str(a), seed=7)
    dump_orbit(Family(ELLIPSOID, 0.5), 4, str(b), seed=7)
    dump_orbit(Family(ELLIPSOID, 0.5), 4, str(c), seed=8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_dump_orbit_rejects_empty_request(tmp_path):
    with pytest.raises(ValueError):
        dump_orbit(Family(RHO_LEVEL, 0.5), 0, str(tmp_path / "x.csv"))


def _csv_line(spec, p):
    return ",".join(f"{x:.17g}" for x in [*(y for z in p for y in (z.real, z.imag)), on_orbit_residual(spec, p)])


@pytest.mark.parametrize("spec", ALL_ORBITS, ids=_orbit_ids)
def test_dump_row_replays_from_its_uniforms(tmp_path, spec):
    """Row i is orbit_point of the uniforms [i k, (i + 1) k) of the stream (seed, 0)."""
    out = tmp_path / "orbit.csv"
    dump_orbit(spec, 2 * orbits.BLOCK + 3, str(out), seed=5)
    lines = out.read_text().splitlines()
    k = spec.record.draws
    for i in (0, 1, orbits.BLOCK, 2 * orbits.BLOCK + 2):
        assert lines[1 + i] == _csv_line(spec, orbit_point(spec, uniform_block(5, 0, k, i, i + 1)[0]))


@pytest.mark.parametrize("spec", ALL_ORBITS, ids=_orbit_ids)
def test_dump_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, spec):
    texts = []
    for block in (orbits.BLOCK, 7):
        monkeypatch.setattr(orbits, "BLOCK", block)
        out = tmp_path / f"orbit-{block}.csv"
        dump_orbit(spec, 40, str(out), seed=9)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]

