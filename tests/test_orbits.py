"""The family table; orbit samplers land on their orbits; the CSV dump is stable and replayable."""

import dataclasses
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from bidisc_lab import orbits
from bidisc_lab.levi import ON_SURFACE_TOL, levi_restricted, value
from bidisc_lab.orbits import (
    COMPLEX_CURVE,
    ELLIPSOID,
    FAMILIES,
    MINKOWSKI_LEVEL,
    REAL_SLICE,
    RHO_LEVEL,
    SPHERE,
    Family,
    RowErrors,
    dump_orbit,
    orbit_point,
    orbit_points,
    parse_orbit_spec,
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


def _orbit_residual(spec, p):
    return spec.record.residual(p, spec.param, None)


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
                assert _orbit_residual(spec, p) < 1e-10
    if record.cli is not None:
        text = record.cli if spec.param is None else f"{record.cli}:{spec.param!r}"
        parsed = parse_orbit_spec(text)
        assert parsed.record is record and parsed.param == spec.param


@pytest.mark.parametrize("spec", ALL_ORBITS, ids=_orbit_ids)
def test_samplers_stay_on_their_orbit(spec):
    for u in uniform_block(61, 0, spec.record.draws, 0, 30):
        p = orbit_point(spec, u)
        assert all(type(c) is complex for c in p)
        assert _orbit_residual(spec, p) < 1e-10


def test_rho_orbit_point_stays_in_the_bidisc():
    z, w = orbit_points(Family(RHO_LEVEL, 0.9), uniform_block(62, 0, 3, 0, 50), 0.95, None)
    assert (np.abs(z) < 1.0).all() and (np.abs(w) < 1.0).all()


def test_ball_orbit_points_stay_in_the_ball():
    for spec in (Family(ELLIPSOID, 0.7), Family(REAL_SLICE)):
        for u in uniform_block(63, 0, 3, 0, 50):
            p, q = orbit_point(spec, u)
            assert abs(p) ** 2 + abs(q) ** 2 < 1.0


def test_sphere_point_is_normalized():
    u, v = orbit_points(Family(SPHERE), uniform_block(64, 0, 3, 0, 50), 0.95, None)
    np.testing.assert_allclose(np.abs(u) ** 2 + np.abs(v) ** 2, 1.0, rtol=0, atol=1e-12)


def test_real_slice_point_has_no_imaginary_part():
    for row in uniform_block(65, 0, 3, 0, 50):
        u, v = orbit_point(Family(REAL_SLICE), row)
        assert u.imag == 0.0 and v.imag == 0.0


def test_ball_samplers_draw_their_automorphism_from_the_rmax_disc():
    """phi = (theta, a) carries (t, 0) to (t / conj(alpha), -e^{i theta} a) and the origin to a real point of modulus 2|a| / (1 + |a|^2)."""
    u = uniform_block(67, 0, 3, 0, 200)
    errors = RowErrors(200)
    _, v = orbit_points(Family(ELLIPSOID, 0.5), u, 0.1, errors)
    assert np.abs(v).max() < 0.1
    x, y = orbit_points(Family(REAL_SLICE), u, 0.1, errors)
    assert np.hypot(x.real, y.real).max() < 2.0 * 0.1 / (1.0 + 0.1**2)
    assert errors.ok.all()


def test_sampler_parameter_validation():
    """The samplers take their parameters from a Family, which checks them; a row the sampler rejects raises."""
    u = uniform_block(66, 0, 3, 0, 1)[0]
    with pytest.raises(ValueError, match="need 0 < a < 1"):
        orbit_point(Family(RHO_LEVEL, 1.0), u)
    with pytest.raises(ValueError, match="need level > 1"):
        orbit_point(Family(MINKOWSKI_LEVEL, 1.0), u)
    with pytest.raises(ValueError, match="too close to the diagonal"):
        orbit_point(Family(MINKOWSKI_LEVEL, 1e30), u)
    # a parameter given per row is checked entry by entry, and its first bad entry gets the number's message
    for record, good, bad in [(RHO_LEVEL, 0.8, 1.0), (MINKOWSKI_LEVEL, 2.125, math.nan), (ELLIPSOID, 0.5, -math.inf)]:
        assert Family(record, [good, good]).param.tolist() == [good, good]
        with pytest.raises(ValueError) as scalar:
            Family(record, bad)
        with pytest.raises(ValueError) as per_row:
            Family(record, np.array([good, bad, 0.25 * bad]))
        assert str(per_row.value) == str(scalar.value)


@pytest.mark.parametrize("spec", [f for f in TABLE if f.record.sampler is not None], ids=lambda f: f.record.name)
def test_a_uniform_block_of_the_wrong_shape_is_refused(spec):
    """A replay with the wrong number of uniforms raises, naming record.draws, instead of giving a wrong point."""
    k = spec.record.draws
    row = uniform_block(74, 0, k + 1, 0, 1)[0]
    for bad in (row, row[: k - 1], row[None, :k]):
        with pytest.raises(ValueError, match=f"record.draws = {k} uniforms"):
            orbit_point(spec, bad)
    for bad in (row, uniform_block(74, 0, k + 1, 0, 5), uniform_block(74, 0, k, 0, 5)[None]):
        with pytest.raises(ValueError, match=f"record.draws = {k} uniforms"):
            orbit_points(spec, bad, 0.95, RowErrors(5))


@pytest.mark.parametrize(
    "record, levels",
    [(RHO_LEVEL, (0.2, 0.5, 0.8)), (MINKOWSKI_LEVEL, (1.5, 2.125, 4.0)), (ELLIPSOID, (0.1, 0.5, 0.9))],
    ids=["rho-level", "minkowski-level", "ellipsoid"],
)
def test_a_per_row_parameter_gives_each_row_what_its_level_gives(record, levels):
    """orbit_points and levi_restricted on mixed levels equal the calls at each level, bit for bit."""
    u = uniform_block(68, 0, 3, 0, 300)
    k = np.floor(3 * uniform_block(69, 0, 1, 0, 300)[:, 0]).astype(int)
    f = Family(record, np.array(levels)[k])
    errors = RowErrors(300)
    p = np.column_stack(orbit_points(f, u, 0.7, errors))
    val = levi_restricted(f, p, errors=errors)
    assert errors.ok.all()
    for j, level in enumerate(levels):
        one, sel = Family(record, level), k == j
        q = np.column_stack(orbit_points(one, u[sel], 0.7, RowErrors(int(sel.sum()))))
        assert q.tobytes() == p[sel].tobytes()
        assert levi_restricted(one, q).tobytes() == val[sel].tobytes()


def test_a_row_one_level_rejects_fails_alone():
    """At level 1e12 the Eta sampler's pairs crowd the diagonal; the rows at level 2.125 beside them pass."""
    u = uniform_block(66, 0, 3, 0, 400)
    huge = np.arange(400) % 2 == 1
    errors = RowErrors(400)
    orbit_points(Family(MINKOWSKI_LEVEL, np.where(huge, 1e12, 2.125)), u, 0.95, errors)
    alone = RowErrors(200)
    orbit_points(Family(MINKOWSKI_LEVEL, 1e12), u[huge], 0.95, alone)
    assert errors.ok[~huge].all()
    assert 0 < (~alone.ok).sum() < 200
    assert errors.ok[huge].tolist() == alone.ok.tolist()
    assert errors.message[huge].tolist() == alone.message.tolist()


# the samplers that draw an automorphism check its centre; the others check nothing
CHECKED = ("rho-level", "minkowski-level", "ellipsoid", "real-slice")


@pytest.mark.parametrize("spec", [f for f in TABLE if f.record.sampler is not None], ids=lambda f: f.record.name)
def test_without_a_collector_the_first_bad_row_raises(spec):
    """errors=None: a clean block gives the bytes a collector's run gives, and the first bad row raises its message."""
    u = uniform_block(73, 0, spec.record.draws, 0, 6)
    errors = RowErrors(6)
    clean = orbit_points(spec, u, 0.95, errors)
    assert errors.ok.all()
    assert [c.tobytes() for c in orbit_points(spec, u, 0.95, None)] == [c.tobytes() for c in clean]
    u[[2, 4], 1] = 4.0  # where the sampler draws an automorphism, its centre has modulus 1.9
    errors = RowErrors(6)
    orbit_points(spec, u, 0.95, errors)
    if spec.record.name not in CHECKED:
        assert errors.ok.all()
        return
    assert errors.ok.tolist() == [True, True, False, True, False, True]
    with pytest.raises(ValueError) as info:
        orbit_points(spec, u, 0.95, None)
    assert str(info.value) == errors.message[2]


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
    assert spec.record is ORBITS[tag].record
    assert spec.param == (params[0] if params else None)


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
    """The dump's line of the point p; its residual from 1-row arrays, as the dump evaluates it.

    The residual of the Minkowski levels uses numpy's complex multiply, which may fuse its products; Python's
    complex multiply rounds each one, and would disagree with the dump in the last bits of many rows.
    """
    residual = spec.record.residual(tuple(np.array([z]) for z in p), spec.param, None)[0]
    return ",".join(f"{x:.17g}" for x in [*(y for z in p for y in (z.real, z.imag)), residual])


def _edge_rows(n):
    """The first and last row of each sampling block and of each text chunk of an n-row dump."""
    rows = set()
    for lo in range(0, n, orbits.BLOCK):
        hi = min(lo + orbits.BLOCK, n)
        rows |= {r for c in range(lo, hi, orbits.CHUNK) for r in (c, min(c + orbits.CHUNK, hi) - 1)}
    return sorted(rows)


@pytest.mark.parametrize("spec", ALL_ORBITS, ids=_orbit_ids)
def test_dump_row_replays_from_its_uniforms(tmp_path, spec):
    """Row i is orbit_point of the uniforms [i k, (i + 1) k) of the stream (seed, 0)."""
    out = tmp_path / "orbit.csv"
    n = 2 * orbits.BLOCK + 3
    dump_orbit(spec, n, str(out), seed=5)
    lines = out.read_text().splitlines()
    k = spec.record.draws
    rows = _edge_rows(n)
    assert {orbits.BLOCK, 2 * orbits.BLOCK + 2, orbits.CHUNK - 1} <= set(rows)
    for i in rows:
        assert lines[1 + i] == _csv_line(spec, orbit_point(spec, uniform_block(5, 0, k, i, i + 1)[0]))


@pytest.mark.parametrize("spec", ALL_ORBITS, ids=_orbit_ids)
def test_dump_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, spec):
    """Nor on the text chunk size, nor on which values "%" formats in their slots; 1030 rows are a multiple of neither."""
    sizes = [(block, chunk) for block in (orbits.BLOCK, 7) for chunk in (orbits.CHUNK, 7)]
    texts = []
    for n, (block, chunk) in enumerate(sizes):
        monkeypatch.setattr(orbits, "BLOCK", block)
        monkeypatch.setattr(orbits, "CHUNK", chunk)
        out = tmp_path / f"orbit-{n}.csv"
        dump_orbit(spec, 1030, str(out), seed=9)
        texts.append(out.read_bytes())
    format_rows, calls = orbits._format_rows, []

    def counted(table):
        calls.append(len(table))
        return format_rows(table)

    monkeypatch.setattr(orbits, "_format_rows", counted)
    monkeypatch.setattr(orbits, "_MAGNITUDE", 1.0)  # every nonzero value is left to "%"
    out = tmp_path / "orbit-percent.csv"
    dump_orbit(spec, 1030, str(out), seed=9)
    texts.append(out.read_bytes())
    assert calls == [7] * 147 + [1]
    assert all(text == texts[0] for text in texts)


# sha256 of the 2,051-row (2 * CHUNK + 3: three text chunks) dump at seed 5, as the row-by-row f"{x:.17g}" formatter
# wrote it
DUMP_SHA256 = {
    "fa": "92b99e15368e64e43bb0d940e89619ffee69d96a086d420479404f46df3f787d",
    "eta-level": "0f04329387954f5d7b92899f0562a4c300dff5d3759a2141ed7cee94b57ee215",
    "ball-ellipsoid": "83b57c83165d7f2521d34ed2f3fe2001f347192dd3826b6b35fb0eacd7f9965e",
    "ball-real-slice": "35f25ea5dc9c1b2f8b56044d28d3400f15842739cc62207d24943dcb634ec301",
    "ball-complex-curve": "c66f324a7dfd98b629d059aec437eb280fb12d13dde6cdd60ab175a0dba5a9e9",
}


@pytest.mark.parametrize("spec", ALL_ORBITS, ids=_orbit_ids)
def test_dump_bytes_match_their_recorded_hash(tmp_path, spec):
    out = tmp_path / "orbit.csv"
    dump_orbit(spec, 2051, str(out), seed=5)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_SHA256[_orbit_ids(spec)]


def test_a_failed_row_in_a_later_block_writes_nothing(tmp_path, monkeypatch):
    """Row 10 fails in the second of blocks of 7: the error names it and the file at path keeps its bytes."""
    monkeypatch.setattr(orbits, "BLOCK", 7)
    blocks = []

    def residual(p, a, errors):
        blocks.append(len(p[0]))
        if len(blocks) == 2:  # rows 7 to 13
            errors.flag(np.arange(len(p[0])) == 3, "flagged for the test")
        return RHO_LEVEL.residual(p, a, errors)

    out = tmp_path / "orbit.csv"
    out.write_bytes(b"kept\n")
    spec = Family(dataclasses.replace(RHO_LEVEL, residual=residual), 0.8)
    with pytest.raises(ValueError, match=r"^row 10 of the Fa dump: flagged for the test$"):
        dump_orbit(spec, 20, str(out), seed=5)
    assert blocks == [7, 7]
    assert out.read_bytes() == b"kept\n"



@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_a_non_finite_residual_in_a_later_block_writes_nothing(tmp_path, monkeypatch, value):
    """Row 10's residual is not finite, as where im_condition <= 0: the dump refuses it rather than write it."""
    monkeypatch.setattr(orbits, "BLOCK", 7)
    blocks = []

    def residual(p, level, errors):
        blocks.append(len(p[0]))
        out = MINKOWSKI_LEVEL.residual(p, level, errors)
        return np.where(np.arange(len(out)) == 3, value, out) if len(blocks) == 2 else out

    out = tmp_path / "orbit.csv"
    out.write_bytes(b"kept\n")
    spec = Family(dataclasses.replace(MINKOWSKI_LEVEL, residual=residual), 2.125)
    with pytest.raises(ValueError, match=rf"^row 10 of the Eta dump: residual = {value} is not finite$"):
        dump_orbit(spec, 20, str(out), seed=5)
    assert blocks == [7, 7]
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("spec", ALL_ORBITS, ids=_orbit_ids)
def test_dump_bytes_of_the_percent_fallback_match_their_recorded_hash(tmp_path, monkeypatch, spec):
    """With every nonzero value formatted by "%" in its slot, as a value the kernel cannot certify is, the bytes do not move."""
    monkeypatch.setattr(orbits, "_MAGNITUDE", 1.0)
    out = tmp_path / "orbit.csv"
    dump_orbit(spec, 2051, str(out), seed=5)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_SHA256[_orbit_ids(spec)]


def test_a_dump_of_large_levels_is_the_percent_rendering_of_its_rows(tmp_path):
    """At Eta:1e4 most values are 10 or more, written in fixed notation with the point after digit k >= 1."""
    spec = Family(MINKOWSKI_LEVEL, 1e4)
    out = tmp_path / "eta.csv"
    dump_orbit(spec, 2051, str(out), seed=5)
    columns = out.read_text().splitlines()[0].split(",")
    table = orbits._checked_rows(spec, columns, 5, 0, 2051)  # one sampling block
    assert (np.abs(table) >= 10.0).mean() > 0.5
    assert out.read_bytes() == (",".join(columns) + "\n").encode() + _percent(table)


# ---------------------------------------------------------------------------
# the row formatter: the bytes of "%.17g" for every value


def _percent(table):
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return (row * len(table) % tuple(table.ravel().tolist())).encode("ascii")


def _formattable(x):
    return (x == 0.0) | ((np.abs(x) > 1e-270) & (np.abs(x) < 1e270))


def _around(*values, steps=3):
    """The values and their nearest steps - 1 doubles on either side, each with both signs."""
    out = []
    for v in values:
        for direction in (-np.inf, np.inf):
            w = v
            for _ in range(steps):
                out += [w, -w]
                w = np.nextafter(w, direction)
    return np.array(out)


def _with_digits(k, n):
    """Doubles, with both signs, whose "%.17g" has n significant digits, the first at 10^k; none if no short decimal has one."""
    rng = random.Random(f"{k},{n}")
    for _ in range(200):
        m = rng.randrange(10 ** (n - 1), 10**n)
        x = float(f"{m}e{k - n + 1}")
        mantissa, _, exponent = ("%.16e" % x).partition("e")
        if (len(mantissa.replace(".", "").rstrip("0")) or 1, int(exponent)) == (n, k):
            return [x, -x]
    return []


def _near_tie(distance, sign):
    """The double x = m 2^-64 in [1e-7, 2.2e-7] whose x 10^23 = m 5^23 / 2^41 lies sign 2^-distance off a half-integer.

    10^23 is inexact, so the rounding of such a value is certified only when the distance is more than 2^-40.
    """
    m = (2**40 + sign * 2 ** (41 - distance)) * pow(5**23, -1, 2**41) % 2**41
    while m < 1e-7 * 2**64:
        m += 2**41
    return m * 2.0**-64


# uniformly random bit patterns: every exponent, subnormals and nan; and both infinities
_BITS = np.random.default_rng(11).integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64)
_BITS = np.append(_BITS, [np.inf, -np.inf])
_RNG = np.random.default_rng(12)
_LARGE_EXPONENTS = _RNG.uniform(100, 269.9, 4000) * _RNG.choice([-1, 1], 4000)
FORMAT_CASES = {
    "random-bits": _BITS,
    "signed-zeros": np.array([0.0, -0.0, 0.0, 1.0, -0.0, -1.0]),
    "notation-switch": _around(1e-5, 1e-4),
    "1e16-and-1e17": _around(1e16, 1e17),
    # the double nearest 10^k, for every k formatted, and its neighbours; those of 10^-14, 10^98 and 10^153
    # lie below the power by less than half a unit of the 17th digit, so "%.17g" rounds them up to it
    "powers-of-ten": _around(*(float(f"1e{k}") for k in range(-269, 270))),
    "3-digit-exponents": _RNG.choice([-1.0, 1.0], 4000) * 10.0**_LARGE_EXPONENTS,
    # 2^-39 off a tie against the inexact 10^23, which the kernel certifies
    "near-ties": np.array([v for sign in (1, -1) for v in (_near_tie(39, sign), -_near_tie(39, sign))]),
    # exact half-way cases between two 17-digit decimals, with 10^s exact: ties to even
    "ties": np.concatenate([1e15 + np.arange(512) / 8, 1e14 + np.arange(2048) / 64, -(1e15 + np.arange(512) / 8)]),
    # every slot layout at every significant-digit count: fixed notation at each k from -4 to 16, where the
    # point after digit k = 8 lies between the two digit words, and exponent notation with 2- and 3-digit exponents
    "layouts": np.array([
        x for k in [*range(-4, 17), -5, 17, -99, 99, -100, 100, -269, 269] for n in range(1, 18) for x in _with_digits(k, n)
    ]),
}


def test_the_layout_case_reaches_every_digit_count_of_every_layout():
    """Each fixed-notation k, and 2- and 3-digit exponents, with 1 to 17 significant digits and both signs."""
    counts = {}
    for x in FORMAT_CASES["layouts"]:
        mantissa, _, exponent = ("%.16e" % abs(x)).partition("e")
        k = int(exponent)
        layout = k if -4 <= k <= 16 else "e+dd" if abs(k) < 100 else "e+ddd"
        counts.setdefault((layout, math.copysign(1.0, x)), set()).add(len(mantissa.replace(".", "").rstrip("0")) or 1)
    assert counts == {(layout, sign): set(range(1, 18)) for layout in [*range(-4, 17), "e+dd", "e+ddd"] for sign in (1.0, -1.0)}


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (1024, 5)], ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("case", sorted(FORMAT_CASES))
def test_format_rows_is_byte_identical_to_percent(case, shape):
    values = FORMAT_CASES[case]
    size = shape[0] * shape[1]
    count = min(len(values), 400) if size == 1 else -(-len(values) // size) * size
    for block in np.resize(values, count).reshape(-1, *shape):
        assert orbits._format_rows(block) == _percent(block)


@pytest.mark.parametrize(
    "value",
    [
        *(np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308, 1e-270, -1e270, 1.7976931348623157e308),
        *(3 * 2.0**-24, _near_tie(40, 1), -_near_tie(41, -1)),
    ],
    ids=[
        *("nan", "inf", "-inf", "subnormal", "least-normal", "1e-270", "-1e270", "largest"),
        *("tie-at-inexact-1e23", "2^-40-off-a-tie", "2^-41-off-a-tie"),
    ],
)
def test_format_rows_leaves_a_block_it_cannot_certify_to_percent(value):
    """Non-finite, out-of-range, or within 2^-40 of a tie where 10^s is inexact (3 * 2^-24's 18 digits end in a 5): "%" formats it."""
    block = np.full((3, 7), 0.25)
    block[1, 4] = value
    block[2] = np.linspace(-3.0, 30.0, 7)
    assert orbits._scaled_digits(np.array([value]))[-1].all()
    assert orbits._format_rows(block) == _percent(block)
    assert orbits._format_rows(block[1:2, 4:5]) == _percent(block[1:2, 4:5])
    assert orbits._format_rows(block[:, :4]) == _percent(block[:, :4])


@pytest.mark.parametrize("case", sorted(FORMAT_CASES))
def test_format_rows_certifies_every_value_in_its_range(case):
    """Exact ties and every near-tie of the cases are certified; only the non-finite and out-of-range values are left."""
    values = FORMAT_CASES[case]
    assert orbits._scaled_digits(values)[-1].tolist() == (~_formattable(values)).tolist()


def test_format_rows_leaves_every_random_bit_pattern_it_cannot_format_to_percent():
    rejected = _BITS[~_formattable(_BITS)]
    assert np.isnan(rejected).any() and np.isinf(rejected).any() and (np.abs(rejected) < 2.2250738585072014e-308).any()
    for x in rejected:
        assert orbits._format_rows(np.array([[x]])) == _percent(np.array([[x]]))
    block = np.column_stack([rejected, _BITS[: len(rejected)]])
    assert orbits._format_rows(block) == _percent(block)


def test_format_rows_of_a_chunk_stays_small():
    """The traced peak of formatting one CHUNK of 7-column rows stays below 1.1 MB; it reads 0.99 MB.

    A copy of the 32-byte slots made before their zero bytes are dropped takes it to 1.22 MB.
    """
    spec = Family(MINKOWSKI_LEVEL, 2.125)
    table = orbits._checked_rows(spec, [f"c{j}" for j in range(7)], 5, 0, orbits.CHUNK)
    orbits._format_rows(table)  # builds the tables
    tracemalloc.start()
    try:
        orbits._format_rows(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1e6
