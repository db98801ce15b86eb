"""Suite kernels: batches against points, per-row checks, one sampling path, block independence and index replay."""

import dataclasses
import hashlib
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from bidisc_lab import mobius, orbits, rng, suites
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
from bidisc_lab.groups import (
    ball_action,
    o21_point_matrix,
    so21_image,
    su11_embed,
    su11_orbit_invariant,
    u21_residual,
)
from bidisc_lab.levi import levi_restricted, totally_real_check
from bidisc_lab.maps import (
    EPS_DIAG,
    map_H,
    map_H_inv,
    map_J,
    scale_g_t,
    sym,
)
from bidisc_lab.mobius import (
    MobiusMap,
    mobius_apply,
    mobius_apply_pair,
    pseudo_hyperbolic,
    random_mobius,
)
from bidisc_lab.orbits import ELLIPSOID, FLAT_CONTROL, MINKOWSKI_LEVEL, RHO_LEVEL, SPHERE, Family
from bidisc_lab.rng import RowErrors, disc_from_uniforms
from bidisc_lab.suites import SuiteConfig, all_suite_names, verify_all

BATCHED = tuple(s.name for s in suites._REGISTRY if s.fn.__name__.startswith("_k_"))  # block kernels
PAIR_SUITES = (
    "H-quadric",
    "H-im-condition",
    "H-sigma-negation",
    "H-roundtrip",
    "orbit-levels",
    "preimage-formula",
    "J-H-compat",
)
# the pair-family members that read no h: they judge the pair as drawn and exclude no row
PAIR_ONLY = ("rho-invariance", "sym-equivariance")
FAMILY = (*PAIR_SUITES, *PAIR_ONLY)  # the nine that share H-quadric's pair draw
CONJUGATION = ("conjugation-so21", "swap-is-minus-identity")
# the suites that draw a pair off the diagonal, with the column of their pair among their uniforms
PAIR_COLUMNS = {**dict.fromkeys(PAIR_SUITES, 0), **dict.fromkeys(CONJUGATION, 3)}
LEVI = ("levi-Fa", "levi-eta", "levi-flat-control", "levi-sphere")
ROWS = 500
LEVI_ROWS = 90  # the point Levi calls are the batch kernel's batch of one, so these agree exactly


def _points(seed, n, rmax=0.95):
    u = np.random.default_rng(seed).random((n, 4))
    return disc_from_uniforms(u[:, 0], u[:, 1], rmax), disc_from_uniforms(u[:, 2], u[:, 3], rmax)


def _report(name, cfg):
    """The report entry of one suite run alone under cfg."""
    _, doc = verify_all(SuiteConfig(**{**cfg.__dict__, "suites": (name,)}))
    return doc["suites"][0]


def test_the_pointwise_and_levi_suites_are_batched():
    """Every registered suite, the pointwise, Levi and group claims alike, is a block kernel."""
    assert BATCHED == all_suite_names()


def test_the_report_gives_every_levi_suite_a_draw_budget():
    _, doc = verify_all(SuiteConfig(samples=100, suites=LEVI))
    assert [doc["rng"]["suites"][name]["draws_per_sample"] for name in LEVI] == [3, 3, 3, 3]


def test_the_report_gives_every_suite_an_integer_draw_budget():
    _, doc = verify_all(SuiteConfig(samples=100, suites=all_suite_names()))
    budgets = {name: entry["draws_per_sample"] for name, entry in doc["rng"]["suites"].items()}
    assert list(budgets) == list(all_suite_names())
    assert all(type(k) is int and k > 0 for k in budgets.values())
    assert budgets["conjugation-so21"] == budgets["swap-is-minus-identity"] == 3 + 4 == 7
    assert budgets["aut-preserves-subdomains"] == 8 and budgets["o21-matrix-B"] == 2


def test_no_two_streams_share_an_id():
    """Every draw's stream and the dumps' 0.

    A draw is a suite's own or, for the nine pair-family members, their family's, on H-quadric's stream 2 << 32.
    """
    draws = {}  # one suite per draw
    for suite in suites._REGISTRY:
        draws.setdefault(suite.family or suite.name, suite)
    assert len(draws) == len(all_suite_names()) - len(FAMILY) + 1 == 14
    assert {suites._stream_id(name) for name in FAMILY} == {suites._stream_id("H-quadric")} == {2 << 32}
    ids = [0] + [suites._stream_id(suite.name) for suite in draws.values()]
    assert len(set(ids)) == len(ids) == 15


@pytest.mark.parametrize("rmax", [rng.DEFAULT_RMAX, 6e-7])
def test_each_block_draws_its_suites_stream_once(monkeypatch, rmax):
    """Per block, uniform_block is called once, on the suite's own stream with its own width, and on no other.

    So a row whose pair is excluded is not redrawn, in a small disc as at
    the defaults.  A run of the pair family's members draws the
    family's stream once per block, as a run of one of them does, and the
    two that read no h exclude no row.
    """
    calls = []
    real = rng.uniform_block

    def counting(seed, stream_id, draws, lo, hi):
        calls.append((stream_id, draws, lo, hi))
        return real(seed, stream_id, draws, lo, hi)

    monkeypatch.setattr(rng, "uniform_block", counting)
    monkeypatch.setattr(suites, "uniform_block", counting)
    runs = [PAIR_SUITES, FAMILY] + [(name,) for name in (*PAIR_COLUMNS, *PAIR_ONLY, "o21-totally-real")]
    for names in runs:
        calls.clear()
        _, doc = verify_all(SuiteConfig(rmax=rmax, suites=names))
        rep, name = doc["suites"][0], names[0]
        assert [r["samples"] for r in doc["suites"]] == [rep["samples"]] * len(names)
        assert rep["hard_failures"] == 0 and (rep["excluded"] > 0) == (rmax < 1e-6 and name in PAIR_COLUMNS), name
        stream, width = suites._stream_id(name), suites._BY_NAME[name].draws
        blocks = [(lo, min(lo + suites.BLOCK, rep["samples"])) for lo in range(0, rep["samples"], suites.BLOCK)]
        assert calls == [(stream, width, lo, hi) for lo, hi in blocks], name


def test_the_pair_family_computes_map_h_once_per_block(monkeypatch):
    """A run of the pair family calls map_H(z, w) once per block for all its members, and not at all for a run
    of the two that read no h.

    H-sigma-negation's swapped call map_H(w, z) is its own claim; map_H_inv
    calls maps.map_H, which this count does not see.
    """
    calls = []
    real = suites.map_H

    def counting(z, w, **kwargs):
        calls.append((z.copy(), w.copy()))
        return real(z, w, **kwargs)

    monkeypatch.setattr(suites, "map_H", counting)
    cfg = SuiteConfig(samples=2 * suites.BLOCK + 5)  # three blocks
    runs = {
        PAIR_ONLY: 0,
        ("rho-invariance",): 0,
        ("sym-equivariance",): 0,
        ("J-H-compat",): 3,
        ("sym-equivariance", "J-H-compat"): 3,
        tuple(n for n in FAMILY if n != "H-sigma-negation"): 3,
    }
    for names, count in runs.items():
        calls.clear()
        verify_all(SuiteConfig(**{**cfg.__dict__, "suites": names}))
        assert len(calls) == count, names
    calls.clear()
    verify_all(SuiteConfig(**{**cfg.__dict__, "suites": FAMILY}))
    assert len(calls) == 6
    for (z, w), (w2, z2) in zip(calls[0::2], calls[1::2]):  # each block: the family's h, then the swap's
        np.testing.assert_array_equal(z2, z)
        np.testing.assert_array_equal(w2, w)


def test_the_pair_family_computes_rho_and_the_size_of_h_once_per_block(monkeypatch):
    """rho of the charted pair (read by orbit-levels and preimage-formula) and _size(*h) (read by H-quadric,
    orbit-levels and J-H-compat) are computed once per block for all their readers, and not at all in a run of
    none of them.

    rho-invariance's rho of the pair as drawn is its own claim: one more call per block.
    """
    counts = {}

    def counting(name):
        real = getattr(suites, name)

        def count(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(suites, name, count)

    counting("pseudo_hyperbolic")
    counting("_size")
    cfg = SuiteConfig(samples=2 * suites.BLOCK + 5)  # three blocks
    runs = {
        FAMILY: (6, 3),
        ("orbit-levels", "preimage-formula", "H-quadric", "J-H-compat"): (3, 3),
        ("preimage-formula",): (3, 0),
        ("J-H-compat",): (0, 3),
        ("H-im-condition", "H-sigma-negation", "H-roundtrip", "sym-equivariance"): (0, 0),
        ("rho-invariance",): (3, 0),
    }
    for names, want in runs.items():
        counts.update(pseudo_hyperbolic=0, _size=0)
        verify_all(SuiteConfig(**{**cfg.__dict__, "suites": names}))
        assert (counts["pseudo_hyperbolic"], counts["_size"]) == want, names


def test_the_chart_checks_its_pairs_only_in_a_block_with_a_crowded_pair(monkeypatch):
    """map_H checks every pair it charts; ``_chart`` checks them itself only where a stand-in replaces a pair.

    At the default rmax no pair lies within EPS_DIAG, so no chart call
    checks a pair twice.  At rmax 6e-7 the three H-quadric blocks and the
    drawn pairs of conjugation-so21's block are crowded, but its images
    phi(p) are not: the stand-in (1/2, -1/2) takes a crowded pair's place.
    """
    checks, crowded = [], []
    real_check, real_chart = suites._check_pair, suites._chart

    def counting_check(rows, z, w, *rule):
        checks.append(len(z))
        real_check(rows, z, w, *rule)

    def recording_chart(rows, z, w, *rule):
        crowded.append(bool((np.abs(z - w) < EPS_DIAG).any()))
        return real_chart(rows, z, w, *rule)

    monkeypatch.setattr(suites, "_check_pair", counting_check)
    monkeypatch.setattr(suites, "_chart", recording_chart)
    verify_all(SuiteConfig(suites=("H-quadric", "J-H-compat", *CONJUGATION)))
    assert crowded == [False] * 7 and checks == []
    crowded.clear()
    verify_all(SuiteConfig(samples=10_000, rmax=6e-7, suites=("H-quadric", "conjugation-so21")))
    assert crowded == [True, True, True, True, False]
    assert checks == [4096, 4096, 1808, 100]


def test_every_draw_is_a_row_of_uniform_block(monkeypatch, tmp_path):
    """No generator is built anywhere but in rng.uniform_block: all 22 suites and one dump per orbit."""
    real_generator, real_default_rng = np.random.Generator, np.random.default_rng
    built = []

    def inside_uniform_block():
        frame = sys._getframe(2)
        while frame is not None:
            if frame.f_code is rng.uniform_block.__code__:
                return True
            frame = frame.f_back
        return False

    def guarded(real):
        def build(*args, **kwargs):
            if not inside_uniform_block():
                raise AssertionError("a generator was built outside rng.uniform_block")
            built.append(1)
            return real(*args, **kwargs)

        return build

    monkeypatch.setattr(np.random, "Generator", guarded(real_generator))
    monkeypatch.setattr(np.random, "default_rng", guarded(real_default_rng))
    _, doc = verify_all(SuiteConfig(samples=300, suites=all_suite_names()))
    assert doc["passed"]
    for text in ("Fa:0.8", "Eta:2.125", "Ellipsoid:0.5", "RealSlice", "ComplexCurve"):
        orbits.dump_orbit(orbits.parse_orbit_spec(text), 50, str(tmp_path / "orbit.csv"))
    # one block per draw at these sizes (14: the nine pair-family suites share one) and per dump
    assert len(built) == 14 + 5
    with pytest.raises(AssertionError):
        np.random.default_rng(0)


# ---------------------------------------------------------------------------
# a batch against its points


def _same(batch_value, point_value):
    assert type(point_value) in (bool, int, float, complex)
    assert batch_value == point_value or (batch_value != batch_value and point_value != point_value)


def test_batches_agree_with_their_points():
    """A function on a batch of rows gives, bit for bit, what it gives on each row's point."""
    z, w = _points(1, ROWS)
    theta = np.linspace(0.0, 6.0, ROWS)
    a, _ = _points(2, ROWS, rmax=0.8)
    rho = pseudo_hyperbolic(z, w)
    moved = mobius_apply(MobiusMap(theta, a), z)
    h = map_H(z, w)
    back = map_H_inv(*h)
    jcoords = map_J(z, w)
    s_arr, p_arr = sym(z, w)
    alpha = alpha_from_a(rho)
    level = eta_level(alpha)
    a_back = a_from_alpha(alpha)
    band = quadric_band(*h, 1.0, 3.0)
    sub = rho_band(z, w, 0.3, 0.8)
    for r in range(ROWS):
        zr, wr = complex(z[r]), complex(w[r])
        hs = map_H(zr, wr)
        _same(rho[r].item(), pseudo_hyperbolic(zr, wr))
        _same(moved[r].item(), mobius_apply(MobiusMap(theta[r].item(), complex(a[r])), zr))
        for k in range(3):
            _same(h[k][r].item(), hs[k])
        for k in range(2):
            _same(back[k][r].item(), map_H_inv(*hs)[k])
        np.testing.assert_array_equal(jcoords[:, r], map_J(zr, wr))
        _same(s_arr[r].item(), sym(zr, wr)[0])
        _same(p_arr[r].item(), sym(zr, wr)[1])
        _same(alpha[r].item(), alpha_from_a(rho[r].item()))
        _same(level[r].item(), eta_level(alpha[r].item()))
        _same(a_back[r].item(), a_from_alpha(alpha[r].item()))
        for k in range(2):
            _same(band[k][r].item(), quadric_band(*hs, 1.0, 3.0)[k])
            _same(sub[k][r].item(), rho_band(zr, wr, 0.3, 0.8)[k])


def test_array_map_h_is_exactly_odd_and_array_sym_exactly_symmetric():
    """Random pairs, pairs with equal real parts and conjugate pairs (z, conj z), all off map_H's chart guard."""
    z, w = _points(3, 20_000)
    z, w = np.concatenate([z, z, z]), np.concatenate([w, z.real + 1j * w.imag, z.conjugate()])
    keep = (np.abs(z - w) >= EPS_DIAG) & (np.abs(w) < 0.95)
    z, w = z[keep], w[keep]
    assert (z.real == w.real).sum() > 30_000
    for fwd, rev in zip(map_H(z, w), map_H(w, z)):
        np.testing.assert_array_equal(rev, -fwd)
    for one, other in zip(sym(z, w), sym(w, z)):
        np.testing.assert_array_equal(one, other)
    np.testing.assert_array_equal(pseudo_hyperbolic(z, w), pseudo_hyperbolic(w, z))


def test_array_map_h_inv_flags_what_the_scalar_rejects():
    """No numpy warning (an error under the test settings) escapes from the flagged rows."""
    h1 = np.array([1.25, 1.0, 1.0, math.nan, 1e308, 1.25 + 0j])
    h2 = np.array([0.75, 0.0, -1j, 0.0, 1e308, 0.75j])
    h3 = np.array([0.0, 0.0, 0.0, 0.0, 1e308, 0.0], dtype=complex)
    rows = RowErrors(6)
    map_H_inv(h1, h2, h3, errors=rows)
    assert rows.ok.tolist() == [False, False, False, False, False, True]
    for r in range(5):
        with pytest.raises(ValueError) as info:
            map_H_inv(h1[r], h2[r], h3[r])
        assert rows.message[r] == str(info.value)


# ---------------------------------------------------------------------------
# batched kernels against bodies that call the point API


def _pair(row):
    return complex(row[0], row[1]), complex(row[2], row[3])


def _h_scale(h):
    """max(1, |h|_inf^2): H-quadric and orbit-levels are relative to it."""
    return max(1.0, max(abs(c) for c in h) ** 2)


def _h_quadric(row):
    h = map_H(*_pair(row))
    return abs(quadric_residual(*h)) / _h_scale(h)


def _orbit_levels(row):
    z, w = _pair(row)
    rho = pseudo_hyperbolic(z, w)
    h = map_H(z, w)
    m = minkowski_form(*h)
    return max(abs(m - (2.0 / (rho * rho) - 1.0)), abs(m - eta_level(alpha_from_a(rho)))) / _h_scale(h)


def _preimage(row):
    z, w = _pair(row)
    s, t = row[4], row[5]
    rho = pseudo_hyperbolic(z, w)
    hi = math.sqrt(2.0 / (s + 1.0))
    lo = math.sqrt(2.0 / (t + 1.0)) if math.isfinite(t) else 0.0
    if min(abs(rho - hi), abs(rho - lo)) < suites.PREIMAGE_MARGIN:
        return 0.0
    member, _ = quadric_band(*map_H(z, w), s, t)
    return 0.0 if member == (lo < rho < hi) else 1.0


def _j_h_compat(row):
    z, w = _pair(row)
    p = map_J(z, w)
    q = np.array([1.0 + 0j, *map_H(z, w)])
    worst = max(abs(p[a] * q[b] - p[b] * q[a]) for a in range(4) for b in range(a + 1, 4))
    return worst / (float(np.max(np.abs(p))) * float(np.max(np.abs(q))))


def _levi_floor_shortfall(record):
    def body(row):
        *coords, param = row
        return max(0.0, suites.LEVI_FLOOR - levi_restricted(Family(record, param), _complex(coords)))

    return body


def _complex(coords):
    return [complex(x, y) for x, y in zip(coords[0::2], coords[1::2])]


def _rim_scale(*points):
    """1 - m^2, m the largest modulus among the points."""
    return 1.0 - max(abs(c) for c in points) ** 2


def _rho_invariance(r):
    p = _pair(r)
    q = mobius_apply_pair(MobiusMap(r[4], complex(r[5], r[6])), p)
    return abs(pseudo_hyperbolic(*q) - pseudo_hyperbolic(*p)) * _rim_scale(*p, *q)


SCALAR_BODIES = {
    "rho-invariance": _rho_invariance,
    "H-quadric": _h_quadric,
    "H-im-condition": lambda r: max(0.0, -im_condition(*map_H(*_pair(r)))),
    "H-sigma-negation": lambda r: max(
        abs(a + b) for a, b in zip(map_H(*_pair(r)), map_H(*_pair(r)[::-1]))
    ),
    "H-roundtrip": lambda r: max(abs(a - b) for a, b in zip(map_H_inv(*map_H(*_pair(r))), _pair(r))),
    "orbit-levels": _orbit_levels,
    "preimage-formula": _preimage,
    "sym-equivariance": lambda r: max(abs(a - b) for a, b in zip(sym(*_pair(r)), sym(*_pair(r)[::-1]))),
    "J-H-compat": _j_h_compat,
    "alpha-roundtrip": lambda r: abs(a_from_alpha(alpha_from_a(r[0])) - r[0]),
    "levi-Fa": _levi_floor_shortfall(RHO_LEVEL),
    "levi-eta": _levi_floor_shortfall(MINKOWSKI_LEVEL),
    "levi-flat-control": lambda r: abs(levi_restricted(Family(FLAT_CONTROL, 0.5), _complex(r))),
    "levi-sphere": lambda r: abs(levi_restricted(Family(SPHERE), _complex(r)) - 1.0),
}


def _conjugation(swap):
    """The defect of H(phi(p)) = A H(p) and of A's form relation, or with the swap of H(phi(w, z)) = -A H(z, w).

    The defect is relative to max(1, |H(phi(p))|_inf).
    """

    def body(r, u, i):
        phi = random_mobius(u[:3])
        assert [phi.theta, phi.a.real, phi.a.imag] == r[:3].tolist()
        p = _pair(r[3:])
        A = so21_image(phi)
        h = A @ np.array(map_H(*p))
        q = np.array(map_H(*mobius_apply_pair(phi, p[::-1] if swap else p)))
        defect = float(np.max(np.abs(q + h) if swap else np.abs(q - h))) / max(1.0, float(np.max(np.abs(q))))
        return defect if swap else max(defect, u21_residual(A))

    return body


def _aut_preserves_subdomains(r, u, i):
    p = (complex(r[0], r[1]), complex(r[2], r[3]))
    q = mobius_apply_pair(MobiusMap(r[4], complex(r[5], r[6])), p[::-1] if r[7] else p)
    for lo, hi in suites._AUT_BANDS:
        (m1, g1), (m2, g2) = rho_band(*p, lo, hi), rho_band(*q, lo, hi)
        if min(abs(g1), abs(g2)) >= suites.MEMBERSHIP_MARGIN and m1 != m2:
            return 1.0
    return 0.0


def _aut_unscored(r):
    """Whether aut-preserves-subdomains gives the row no verdict in some band: p or q within MEMBERSHIP_MARGIN of an edge."""
    p = (complex(r[0], r[1]), complex(r[2], r[3]))
    q = mobius_apply_pair(MobiusMap(r[4], complex(r[5], r[6])), p[::-1] if r[7] else p)
    gaps = [min(abs(rho_band(*p, lo, hi)[1]), abs(rho_band(*q, lo, hi)[1])) for lo, hi in suites._AUT_BANDS]
    return min(gaps) < suites.MEMBERSHIP_MARGIN


def _preimage_unscored(r):
    """Whether preimage-formula's row has rho within PREIMAGE_MARGIN of an edge of its band."""
    rho = pseudo_hyperbolic(*_pair(r))
    edges = math.sqrt(2.0 / (r[4] + 1.0)), math.sqrt(2.0 / (r[5] + 1.0))
    return min(abs(rho - edge) for edge in edges) < suites.PREIMAGE_MARGIN


def _su11_orbit_invariant(r, u, i):
    b, v = _complex(r)
    b2, v2 = ball_action(su11_embed(random_mobius(u[4:7])), (b, v))
    return abs(su11_orbit_invariant(b2, v2) - su11_orbit_invariant(b, v)) * _rim_scale(v, v2)


def _o21_matrix_b(r, u, i):
    B = o21_point_matrix(r[0], r[1])
    img = ball_action(B, (0j, 0j))
    return max(u21_residual(B), abs(img[0] - r[0]), abs(img[1] - r[1]))


# the group suites' bodies also take the row's uniforms and its index
ROW_BODIES = {
    "conjugation-so21": _conjugation(swap=False),
    "swap-is-minus-identity": _conjugation(swap=True),
    "aut-preserves-subdomains": _aut_preserves_subdomains,
    "su11-orbit-invariant": _su11_orbit_invariant,
    "su11-orbit-ellipsoid": lambda r, u, i: ELLIPSOID.residual(_complex(r[:4]), r[4], None),
    "gt-sphere": lambda r, u, i: abs(sum(abs(c) ** 2 for c in scale_g_t(r[4], _complex(r[:4]))) - 1.0),
    "o21-matrix-B": _o21_matrix_b,
    "o21-totally-real": lambda r, u, i: float(
        totally_real_check([_complex(r[:4]), _complex(r[4:])]) != ((True, 0) if i % 3 == 0 else (False, 2))
    ),
}


@pytest.mark.parametrize("name", BATCHED)
def test_kernel_agrees_with_its_scalar_body(name):
    """Residuals agree to 1% of the tolerance with a body that calls the point API on each row.

    So no verdict depends on the path that computed it; for the exact
    claims and the boolean ones that means equality.
    """
    suite = suites._BY_NAME[name]
    cfg = SuiteConfig()
    rows = LEVI_ROWS if name in LEVI else ROWS
    residual, errors, inputs, _ = suites._block(suite, cfg, 0, rows)
    u = rng.uniform_block(cfg.seed, suites._stream_id(name), suite.draws, 0, rows)
    assert errors.ok.all()
    assert inputs.shape[0] == rows
    for r in range(rows):
        point = SCALAR_BODIES[name](inputs[r]) if name in SCALAR_BODIES else ROW_BODIES[name](inputs[r], u[r], r)
        assert abs(residual[r] - point) <= 0.01 * suite.tolerance, r


@pytest.mark.parametrize(
    "name, cfg, margin, unscored",
    [
        ("aut-preserves-subdomains", SuiteConfig(), None, _aut_unscored),  # 1,000 rows, one within 1e-6 of an edge
        # at the real margin 1e-8, 1 row of 10^6 is excluded: too few for a test of this size
        ("preimage-formula", SuiteConfig(samples=2000), 1e-3, _preimage_unscored),
    ],
)
def test_rows_left_unscored_are_counted_as_excluded(monkeypatch, name, cfg, margin, unscored):
    """The report counts the rows a margin excludes (scored 0), the same rows the point API finds near a band edge."""
    if margin is not None:
        monkeypatch.setattr(suites, "PREIMAGE_MARGIN", margin)
    rep = _report(name, cfg)
    _, errors, inputs, excluded = suites._block(suites._BY_NAME[name], cfg, 0, rep["samples"])
    assert errors.ok.all()
    assert excluded.tolist() == [unscored(r) for r in inputs]
    assert rep["passed"] and rep["excluded"] == int(excluded.sum()) > 0


# ---------------------------------------------------------------------------
# per-row checks


def _pushed_to_the_rim(monkeypatch, column):
    """Make every row's uniform in ``column`` put its disc point on the unit circle's doorstep."""
    real_block = suites.uniform_block

    def block(*args):
        u = real_block(*args)
        u[:, column] = 1.0 - 1e-15
        return u

    monkeypatch.setattr(suites, "uniform_block", block)


@pytest.mark.parametrize(
    "name, column, scalar",
    [
        ("rho-invariance", 5, lambda r: MobiusMap(r[4], complex(r[5], r[6]))),
        ("H-quadric", 0, lambda r: pseudo_hyperbolic(*_pair(r))),
        ("H-roundtrip", 2, lambda r: map_H(*_pair(r))),
    ],
)
def test_disc_violation_is_a_hard_failure_with_the_scalar_text(monkeypatch, name, column, scalar):
    """A drawn point that breaks the disc rule fails its row with the text the point API raises.

    No disc that validate_config accepts reaches within TOL_BOUNDARY of the
    circle, so the margin is widened to 1e-8 here, for the suite and the
    point API alike, and the point is pushed to |z| ~ 1 - 1e-9.
    """
    monkeypatch.setattr(mobius, "TOL_BOUNDARY", 1e-8)
    _pushed_to_the_rim(monkeypatch, column)
    rep = _report(name, SuiteConfig(samples=20, rmax=1.0 - 1e-9))
    assert not rep["passed"]
    assert rep["hard_failures"] == rep["samples"]
    assert rep["max_residual"] is None
    for failure in rep["failures"]:
        with pytest.raises(ValueError) as info:
            scalar(failure["inputs"])
        assert failure["error"] == f"ValueError: {info.value}"
        assert "strictly inside the unit disc" in failure["error"]


def test_ball_violation_is_a_hard_failure_with_the_ball_action_text(monkeypatch):
    """su11-orbit-invariant: a ball point pushed out of the ball fails its row with ball_action's text."""
    real = suites.ball_from_uniforms
    monkeypatch.setattr(suites, "ball_from_uniforms", lambda u, rmax: tuple(1.1 * c for c in real(u, rmax)))
    rep = _report("su11-orbit-invariant", SuiteConfig(samples=1000))
    assert 0 < rep["hard_failures"] < rep["samples"]
    failures = [f for f in rep["failures"] if "error" in f]
    assert failures
    for failure in failures:
        with pytest.raises(ValueError) as info:
            ball_action(su11_embed(MobiusMap(0.0)), _complex(failure["inputs"]))
        assert failure["error"] == f"ValueError: {info.value}" == "ValueError: point must lie in the open unit ball"


def test_the_ball_suites_draw_their_automorphism_on_the_rmax_disc(monkeypatch):
    """Like rho-invariance, each ball suite takes phi's centre from the cfg.rmax disc."""
    centres = []

    def spy(u, rmax=rng.DEFAULT_RMAX, **kw):
        phi = random_mobius(u, rmax, **kw)
        centres.append(np.abs(phi.a).max())
        return phi

    monkeypatch.setattr(suites, "random_mobius", spy)
    monkeypatch.setattr(orbits, "random_mobius", spy)
    for name in ("su11-orbit-invariant", "su11-orbit-ellipsoid", "gt-sphere"):
        centres.clear()
        suites._block(suites._BY_NAME[name], SuiteConfig(rmax=0.1), 0, 200)
        assert centres and max(centres) < 0.1, name


def test_o21_matrix_b_passes_near_the_rim():
    """B's entries grow like its corner B_33 = 1/sqrt(1 - z^2 - w^2), and the form's rounding like B_33^2.

    Judged on the absolute defect, a row with |B| = 53 failed on rounding alone (1.1e-12 against 1e-12).
    """
    rep = _report("o21-matrix-B", SuiteConfig(rmax=0.9999999))
    assert rep["passed"] and rep["hard_failures"] == 0
    assert rep["max_residual"] < 1e-14


@pytest.mark.parametrize("rmax", [1e-300, sys.float_info.min])
def test_o21_matrix_b_passes_on_a_tiny_disc(rmax):
    """B is built from the unit vector (z, w) / hypot(z, w), so its entries keep their digits near the origin.

    Built from z^2 + w^2, which goes subnormal, rmax 1e-155 read 1.2e-10 and every row of rmax 1e-160 failed
    the form check; at the smallest normal rmax the radius itself is subnormal.
    """
    rep = _report("o21-matrix-B", SuiteConfig(samples=100_000, rmax=rmax))  # 10,000 rows
    assert rep["passed"] and rep["hard_failures"] == 0
    assert rep["max_residual"] < 1e-14


@pytest.mark.parametrize("name", ["rho-invariance", "su11-orbit-invariant"])
def test_rim_invariants_are_judged_on_their_rounding_scale(name):
    """rho and |u| / sqrt(1 - |v|^2) round like 1 / (1 - m^2), m the largest modulus of the compared points.

    Judged on the absolute defect, 10^6 rows at rmax 0.9999999 failed on rounding alone (1.13e-10 and
    2.26e-10 against 1e-10); the absolute defect of this run reads 5.7e-12 and 2.4e-13, the scaled one
    3.0e-16 and 4.0e-16.
    """
    rep = _report(name, SuiteConfig(samples=20_000, rmax=1 - 1e-9))  # the largest accepted rmax
    assert rep["passed"] and rep["hard_failures"] == 0
    assert rep["max_residual"] < 4e-15


def test_a_conjugated_pair_the_chart_rejects_is_excluded_not_failed():
    """Near the rim phi can crowd an admissible pair below EPS_DIAG: row 97,872 of this run.

    map_H's chart guard rejects the image, so the row gets no verdict on H(phi(w, z)) = -A H(z, w).
    """
    cfg = SuiteConfig(samples=10_000_000, rmax=0.9999999)
    residual, rows, _, excluded = suites._block(suites._BY_NAME["swap-is-minus-identity"], cfg, 97872, 97873)
    assert rows.ok[0] and excluded[0] and residual[0] == 0.0


@pytest.mark.parametrize("rmax", [1e-6, 6e-7])
@pytest.mark.parametrize("name", ["H-quadric", "J-H-compat", "conjugation-so21", "swap-is-minus-identity"])
def test_a_pair_within_eps_diag_is_excluded_not_redrawn(name, rmax):
    """A row whose drawn pair lies within EPS_DIAG of the diagonal is excluded, scores 0 and records that pair.

    The crowded rows are found here from the suite's own uniforms, and
    no check fires on them: map_H and the member's checks take a stand-in.
    """
    suite = suites._BY_NAME[name]
    cfg = SuiteConfig(samples=round(3000 / suite.weight), rmax=rmax)  # 3,000 rows
    rep = _report(name, cfg)
    u = rng.uniform_block(cfg.seed, suites._stream_id(name), suite.draws, 0, rep["samples"])
    c = PAIR_COLUMNS[name]
    z, w = disc_from_uniforms(u[:, c], u[:, c + 1], rmax), disc_from_uniforms(u[:, c + 2], u[:, c + 3], rmax)
    crowded = np.abs(z - w) < EPS_DIAG
    assert rep["passed"] and rep["hard_failures"] == 0
    assert rep["excluded"] == np.count_nonzero(crowded) > 1000
    residual, rows, inputs, excluded = suites._evaluate(suite, cfg, u, np.arange(len(u)))
    assert rows.ok.all() and excluded.tolist() == crowded.tolist()
    np.testing.assert_array_equal(inputs[:, c : c + 4], np.column_stack((z.real, z.imag, w.real, w.imag)))
    if name != "conjugation-so21":  # which still judges its matrix on such a row
        assert not residual[crowded].any()


def test_a_suite_that_scored_no_row_reports_no_max_residual():
    """At rmax 5.05e-7 both conjugation suites exclude every one of their 1,000 rows.

    swap-is-minus-identity scores none of them, so it reports no
    max_residual (it read 0.0, the kernel's forced zeros, as if checked);
    conjugation-so21 still judges its matrix on each, so those count.
    """
    _, doc = verify_all(SuiteConfig(samples=100_000, rmax=5.05e-7, suites=CONJUGATION))
    conjugation, swap = doc["suites"]
    assert conjugation["excluded"] == swap["excluded"] == 1000
    assert conjugation["hard_failures"] == swap["hard_failures"] == 0
    assert swap["max_residual"] is None
    assert 0.0 < conjugation["max_residual"] < 1e-15


def test_the_pair_family_members_that_read_no_h_run_where_no_pair_clears_the_chart_guard():
    """No two points of the 4e-7 disc are EPS_DIAG apart, but rho-invariance and sym-equivariance judge the pairs
    as drawn: both run, pass and exclude nothing."""
    code, doc = verify_all(SuiteConfig(samples=5000, rmax=4e-7, suites=PAIR_ONLY))
    assert code == 0
    assert [(e["samples"], e["excluded"], e["hard_failures"]) for e in doc["suites"]] == [(5000, 0, 0)] * 2


@pytest.mark.parametrize("name", ["conjugation-so21", "swap-is-minus-identity"])
def test_a_conjugated_image_off_the_disc_is_a_hard_failure(monkeypatch, name):
    """Only the chart guard excuses a row: an image that is NaN, or crowded but outside the disc, fails hard."""
    real_apply = suites.mobius_apply_pair

    def broken(*args, **kwargs):
        z, w = real_apply(*args, **kwargs)
        z[:2], w[:2] = (complex(math.nan, 0.0), 1.5), (0.5, 1.5 + 1e-9)
        return z, w

    monkeypatch.setattr(suites, "mobius_apply_pair", broken)
    residual, rows, _, excluded = suites._block(suites._BY_NAME[name], SuiteConfig(samples=100), 0, 3)
    assert list(rows.ok) == [False, False, True] and math.isinf(residual[0]) and math.isinf(residual[1])
    assert "finite components" in rows.message[0] and "strictly inside the unit disc" in rows.message[1]
    rep = _report(name, SuiteConfig(samples=1000))  # 10 rows in one block
    assert not rep["passed"] and rep["hard_failures"] == 2 and rep["excluded"] == 0


@pytest.mark.parametrize("name", [*PAIR_COLUMNS, *PAIR_ONLY])
def test_a_drawn_pair_off_the_disc_fails_hard_even_within_eps_diag(name):
    """One chart rule for every drawn pair: a pair off the disc fails hard, crowded or not.

    At rmax 1 - 1e-10 these uniforms draw |z| ~ 0.9999999999, beyond the
    disc check's margin, and |z - w| ~ 6e-9 < EPS_DIAG.  Every suite that
    reads h fails the row on z, as rho-invariance fails it;
    sym-equivariance, which checks no disc, passes it.
    """
    suite = suites._BY_NAME[name]
    pair, phi = [1 - 1e-12, 0.25, 1 - 1e-12, 0.25 + 1e-9], [0.1, 0.2, 0.3]
    u = np.array([phi + pair if PAIR_COLUMNS.get(name) == 3 else pair + phi])
    residual, rows, _, excluded = suites._evaluate(suite, SuiteConfig(rmax=1 - 1e-10), u, np.arange(1))
    if name == "sym-equivariance":
        assert rows.ok[0] and residual[0] < suite.tolerance
    else:
        assert not rows.ok[0] and math.isinf(residual[0])
    if name in PAIR_COLUMNS:
        assert "z must lie strictly inside the unit disc" in rows.message[0]


def test_aut_preserves_subdomains_excludes_an_image_at_the_rim_and_fails_a_drawn_point_there():
    """An image phi(p) that breaks the disc rule gets no band verdict and is excluded; a drawn point there fails hard.

    At rmax 0.9999999, phi's centre and z lie near the rim at opposite
    angles, so phi(z) lands within TOL_BOUNDARY of the circle.  At rmax
    1 - 1e-10 the drawn z itself lies there, and mobius_apply refuses it.
    """
    suite = suites._BY_NAME["aut-preserves-subdomains"]
    u = np.array([[0.0, 1 - 1e-12, 0.0, 0.9, 1 - 1e-12, 0.5, 0.3, 0.25]])
    residual, rows, _, excluded = suites._evaluate(suite, SuiteConfig(rmax=0.9999999), u, np.arange(1))
    assert rows.ok[0] and excluded[0] and residual[0] == 0.0
    u = np.array([[0.1, 0.2, 0.3, 0.9, 1 - 1e-12, 0.5, 0.3, 0.25]])
    residual, rows, _, _ = suites._evaluate(suite, SuiteConfig(rmax=1 - 1e-10), u, np.arange(1))
    assert not rows.ok[0] and math.isinf(residual[0])
    assert rows.message[0] == "z must lie strictly inside the unit disc, got |z| = 0.9999999998995"


def test_rho_invariance_holds_an_image_at_the_rim_to_the_disc_alone():
    """rho of an image (phi(z), phi(w)) within TOL_BOUNDARY of the circle is scored; a drawn point there fails hard.

    Row 165,358 of `verify --suite rho-invariance --rmax 0.9999999 --seed 2`
    draws phi(z) at |phi(z)| = 0.9999999997695559.  The crafted row puts z
    and phi's centre near the rim at opposite angles, so that 1 - |phi(z)|
    is about 5e-15.
    """
    suite = suites._BY_NAME["rho-invariance"]
    residual, rows, _, excluded = suites._block(suite, SuiteConfig(seed=2, rmax=0.9999999), 165358, 165359)
    assert rows.ok[0] and not excluded[0] and residual[0] < 1e-20
    u = np.array([[1 - 1e-12, 0.0, 0.9, 0.5, 0.0, 1 - 1e-12, 0.5]])
    residual, rows, _, _ = suites._evaluate(suite, SuiteConfig(rmax=0.9999999), u, np.arange(1))
    assert rows.ok[0] and residual[0] < 1e-20
    u = np.array([[1 - 1e-12, 0.0, 0.9, 0.5, 0.1, 0.2, 0.3]])
    residual, rows, _, _ = suites._evaluate(suite, SuiteConfig(rmax=1 - 1e-10), u, np.arange(1))
    assert not rows.ok[0] and math.isinf(residual[0])
    assert rows.message[0] == "z must lie strictly inside the unit disc, got |z| = 0.9999999998995"


def test_conjugation_so21_charts_an_image_at_the_rim_by_the_disc_alone():
    """Row 3,338,800 of `verify --suite conjugation-so21 --rmax 0.9999999 --seed 6` maps w to |phi(w)| =
    0.9999999991742552, within TOL_BOUNDARY of the circle.

    Charted by the caller margin, that image failed the row hard, a true
    claim: "w must lie strictly inside the unit disc".  An image keeps
    only the rule for computed values, so the row is judged.
    """
    suite = suites._BY_NAME["conjugation-so21"]
    residual, rows, inputs, excluded = suites._block(suite, SuiteConfig(seed=6, rmax=0.9999999), 3338800, 3338801)
    assert rows.ok[0] and not excluded[0] and residual[0] < suite.tolerance
    theta, a_re, a_im, *pair = inputs[0]
    image = mobius_apply(MobiusMap(theta, complex(a_re, a_im)), complex(pair[2], pair[3]))
    assert 1.0 - mobius.TOL_BOUNDARY < abs(image) < 1.0  # the message read |w| = 0.9999999991742552


@pytest.mark.parametrize("name", CONJUGATION)
def test_a_conjugation_suite_judges_an_image_at_the_rim(name):
    """z and phi's centre near the rim at opposite angles put phi(z) about 5e-15 inside the circle: the row is judged."""
    suite = suites._BY_NAME[name]
    u = np.array([[0.0, 1 - 1e-12, 0.5, 1 - 1e-12, 0.0, 0.9, 0.5]])  # phi (3), then the pair (4)
    residual, rows, inputs, excluded = suites._evaluate(suite, SuiteConfig(rmax=0.9999999), u, np.arange(1))
    assert rows.ok[0] and not excluded[0] and residual[0] < suite.tolerance
    theta, a_re, a_im, z_re, z_im, *_ = inputs[0]
    assert 1.0 - abs(mobius_apply(MobiusMap(theta, complex(a_re, a_im)), complex(z_re, z_im))) < 1e-14


def test_the_rows_an_rmax_beyond_the_disc_rules_margin_failed_are_judged_at_the_largest_accepted_rmax():
    """rmax 1 - 2^-52 failed rows 55,843,068 and 65,039,066 of rho-invariance at seed 1 on drawn points; it is now
    refused, and the same uniforms at rmax 1 - TOL_BOUNDARY draw points that keep the margin."""
    suite = suites._BY_NAME["rho-invariance"]
    for index, message in [
        (55843068, "z must lie strictly inside the unit disc, got |z| = 0.9999999998384007"),
        (65039066, "a must lie strictly inside the unit disc, got |a| = 0.9999999997643146"),
    ]:
        _, rows, _, _ = suites._block(suite, SuiteConfig(seed=1, rmax=0.9999999999999998), index, index + 1)
        assert rows.message[0] == message
        residual, rows, _, _ = suites._block(suite, SuiteConfig(seed=1, rmax=1.0 - 1e-9), index, index + 1)
        assert rows.ok[0] and residual[0] < suite.tolerance


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_residual_that_is_not_finite_is_a_hard_failure(monkeypatch, tmp_path, value):
    """A kernel whose residual is NaN on every row fails each row hard, and the report file stays strict JSON.

    Scored as a plain failure, a NaN row left max_residual at 0.0 and wrote a bare NaN token into the report.
    """

    def kernel(cfg, u, idx, rows, drawn):
        return np.full(len(idx), value), u

    suite = dataclasses.replace(suites._BY_NAME["alpha-roundtrip"], fn=kernel)
    monkeypatch.setitem(suites._BY_NAME, "alpha-roundtrip", suite)
    path = tmp_path / "report.json"
    code, doc = verify_all(SuiteConfig(samples=100, suites=("alpha-roundtrip",)), report_path=str(path))
    rep = doc["suites"][0]
    assert code == 1 and not rep["passed"]
    assert rep["hard_failures"] == rep["samples"] == 100 and rep["max_residual"] is None
    assert {f["error"] for f in rep["failures"]} == {f"ValueError: residual {value} is not finite"}

    def refuse(token):
        raise AssertionError(f"the report holds the non-JSON token {token}")

    assert json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)["suites"][0]["max_residual"] is None


def test_levi_row_failure_is_a_hard_failure_with_the_scalar_text(monkeypatch):
    """|u|^2 = 1 - 1e-15 puts the sphere point's first coordinate on the unit circle."""
    _pushed_to_the_rim(monkeypatch, 0)
    rep = _report("levi-sphere", SuiteConfig(samples=1000))
    assert rep["hard_failures"] == rep["samples"] == 20
    for failure in rep["failures"]:
        with pytest.raises(ValueError) as info:
            levi_restricted(Family(SPHERE), _complex(failure["inputs"]))
        assert failure["error"] == f"ValueError: {info.value}"
        assert "touches the unit circle" in failure["error"]


def _levi_eta_at_a_huge_level(monkeypatch):
    """Register levi-eta at the level 1e12, where the sampled pairs crowd the diagonal and map_H's check fails rows."""
    huge = dataclasses.replace(
        suites._BY_NAME["levi-eta"], fn=suites._levi(MINKOWSKI_LEVEL, np.full(3, 1e12), suites._shortfall)
    )
    monkeypatch.setitem(suites._BY_NAME, "levi-eta", huge)


def test_a_row_the_eta_sampler_rejects_is_a_hard_failure_with_the_map_h_text(monkeypatch):
    """At a huge level the sampled pairs crowd the diagonal, and map_H's check fails those rows."""
    _levi_eta_at_a_huge_level(monkeypatch)
    rep = _report("levi-eta", SuiteConfig(samples=1000))
    assert 0 < rep["hard_failures"] < rep["samples"]
    errors = [failure["error"] for failure in rep["failures"] if "error" in failure]
    assert errors and set(errors) == {"ValueError: point too close to the diagonal for the affine chart"}


# ---------------------------------------------------------------------------
# determinism: block size and index replay


def _report_without_timings(path):
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(ln for ln in lines if not ln.lstrip().startswith(b'"wall_time_s":'))


def test_report_bytes_do_not_depend_on_the_block_size(monkeypatch, tmp_path):
    configs = (
        # the levi suites draw 12, 12, 4 and 4 samples: blocks of 7 split their parameter groups
        SuiteConfig(samples=200, suites=all_suite_names(), tolerances={"H-quadric": 1e-22, "levi-sphere": 1e-16}),
        # at rmax 6e-7 few pairs are EPS_DIAG = 1e-6 apart: most pair rows are excluded
        SuiteConfig(samples=200, rmax=6e-7, suites=(*PAIR_COLUMNS, "o21-totally-real")),
    )
    for n, cfg in enumerate(configs):
        texts = []
        for block in (suites.BLOCK, 7):
            monkeypatch.setattr(suites, "BLOCK", block)
            path = tmp_path / f"report-{n}-{block}.json"
            verify_all(cfg, report_path=str(path))
            texts.append(_report_without_timings(path))
        assert texts[0] == texts[1], cfg


# sha256 of the seed-42 report file with every wall_time_s set to 0, recorded when each kernel still drew its own
# candidates; "all-2000" re-recorded when u21_residual went entry by entry, and again when o21-matrix-B's form
# residual became relative to B_33^2, each of which moved only o21-matrix-B's max_residual, once more when
# rho-invariance and su11-orbit-invariant scaled their defects by 1 - m^2, which moved only their max_residual,
# and once more when o21-matrix-B drew its real pair from the whole disc and those two suites' tolerances went
# from 1e-10 to 1e-13; the rmax-6e-7 key recorded when pairs stopped needing rho >= 0.05; both re-recorded when
# the seven pair-family suites came to share H-quadric's stream, which moved the "rng" entries of the six others
# and their rows (H-quadric's entry and the 15 other suites' kept their bytes); both re-recorded when a pair within
# EPS_DIAG came to be excluded instead of redrawn, which left "all-2000"'s suite entries as they were and took the
# candidate rounds out of its "rng" field (schema 4), and turned "pairs-rmax-6e-7"'s hard failures into exclusions;
# both re-recorded when rho-invariance and sym-equivariance joined the pair family, which moved its members'
# "rng" entries and rows (the family draws k = 7 uniforms per row, was 4; the 13 other suites kept their bytes);
# "all-2000" re-recorded when o21_point_matrix came to be built from the unit vector (z, w) / hypot(z, w), which
# moved only o21-matrix-B's max_residual
REPORT_SHA256 = {
    "all-2000": "d1dba5fbb20d4fa82b162df9e5cb868bd1f359db629e1ffaad0b7d1db3475f6f",
    "pairs-rmax-6e-7": "34a5ea0686009a7b0fec85790cf242aca4877763c5c48f16b54880e629a82172",
}


@pytest.mark.parametrize(
    "key, cfg",
    [
        ("all-2000", SuiteConfig(samples=2000, suites=all_suite_names())),
        # most rows of the nine suites that read h = map_H(z, w) are excluded
        ("pairs-rmax-6e-7", SuiteConfig(rmax=6e-7, suites=(*PAIR_COLUMNS, "o21-totally-real"))),
    ],
)
def test_report_bytes_match_their_recorded_hash(tmp_path, key, cfg):
    path = tmp_path / "report.json"
    verify_all(cfg, report_path=str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    for entry in doc["suites"]:
        entry["wall_time_s"] = 0
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[key]


def _replay(doc, name, index):
    """Recompute one row from the report alone: its stream key, budget and index.

    The generator is built from the report's "rng" field, as any reader of the report could.
    Returns the row's residual, error and inputs, and whether it was excluded.
    """
    seed = doc["config"]["seed"]
    stream = doc["rng"]["suites"][name]
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream["stream_id"]])))
    gen.bit_generator.advance(index * stream["draws_per_sample"])
    u = gen.random((1, stream["draws_per_sample"]))
    cfg = SuiteConfig(seed=seed, rmax=doc["config"]["rmax"])
    residual, rows, inputs, excluded = suites._evaluate(suites._BY_NAME[name], cfg, u, np.array([index]))
    error = None if rows.ok[0] else f"ValueError: {rows.message[0]}"  # as the report records a hard failure
    return float(residual[0]), error, np.asarray(inputs[0], dtype=float).tolist(), bool(excluded[0])


@pytest.mark.parametrize(
    "name, cfg",
    [
        ("H-quadric", SuiteConfig(samples=10_000, tolerances={"H-quadric": 8e-16})),  # 27 relative defects reach it
        ("rho-invariance", SuiteConfig(samples=10_000, tolerances={"rho-invariance": 2.5e-16})),  # 14 reach it
        ("orbit-levels", SuiteConfig(samples=10_000, tolerances={"orbit-levels": 1.8e-15})),  # 27 reach it
        # 96% of the rows excluded; 30 of the scored ones reach it
        ("orbit-levels", SuiteConfig(samples=100_000, rmax=6e-7, tolerances={"orbit-levels": 1.64e-15})),
        ("levi-sphere", SuiteConfig(samples=200_000, tolerances={"levi-sphere": 6.7e-16})),  # 4,000 rows; 8 reach 1024
        ("o21-matrix-B", SuiteConfig(samples=30_000, tolerances={"o21-matrix-B": 6.5e-16})),  # 3,000 rows; 12 reach it
        # 3,000 rows, every pair within EPS_DIAG, but the matrix still judged: the failures record the crowded pairs
        ("conjugation-so21", SuiteConfig(samples=300_000, rmax=5.05e-7, tolerances={"conjugation-so21": 6.4e-16})),
        # 3,000 rows, 1,774 excluded; 30 reach it
        (
            "swap-is-minus-identity",
            SuiteConfig(samples=300_000, rmax=1e-6, tolerances={"swap-is-minus-identity": 6.1e-16}),
        ),
        # 3,000 rows; 30 relative defects reach 1e-14
        ("swap-is-minus-identity", SuiteConfig(samples=300_000, tolerances={"swap-is-minus-identity": 1e-14})),
        ("J-H-compat", SuiteConfig(samples=10_000, tolerances={"J-H-compat": 3.8e-16})),  # 23 reach it
    ],
)
def test_replaying_an_index_reproduces_its_recorded_failure(monkeypatch, name, cfg):
    monkeypatch.setattr(suites, "BLOCK", 1024)
    _, doc = verify_all(SuiteConfig(**{**cfg.__dict__, "suites": (name,)}))
    doc = json.loads(json.dumps(doc))  # as a reader of the report file sees it
    failures = doc["suites"][0]["failures"]
    assert len(failures) == suites.MAX_FAILURES and doc["suites"][0]["hard_failures"] == 0
    assert max(f["index"] for f in failures) >= suites.BLOCK  # a later block is replayed too
    for failure in failures:
        residual, error, inputs, excluded = _replay(doc, name, failure["index"])
        assert inputs == failure["inputs"]
        assert error is None and residual == failure["residual"]
        assert excluded == (name == "conjugation-so21")  # its matrix is judged on a row excluded from the H relation


def test_replaying_an_index_reproduces_its_recorded_hard_failure(monkeypatch):
    """A hard failure replays to its error text and records what its row drew: levi-eta at the level 1e12."""
    _levi_eta_at_a_huge_level(monkeypatch)
    monkeypatch.setattr(suites, "BLOCK", 8)  # the ten failures lie among the first 22 of the 60 rows
    _, doc = verify_all(SuiteConfig(samples=1000, suites=("levi-eta",)))
    doc = json.loads(json.dumps(doc))
    failures = doc["suites"][0]["failures"]
    assert len(failures) == suites.MAX_FAILURES and max(f["index"] for f in failures) >= suites.BLOCK
    for failure in failures:
        residual, error, inputs, excluded = _replay(doc, "levi-eta", failure["index"])
        assert inputs == failure["inputs"] and inputs  # a hard failure records what its row drew
        assert error == failure["error"] == "ValueError: point too close to the diagonal for the affine chart"
        assert math.isinf(residual) and not excluded


@pytest.mark.parametrize(
    "cfg",
    [
        SuiteConfig(samples=3000),
        SuiteConfig(samples=2000, rmax=6e-7),  # 96% of the rows excluded
    ],
)
def test_a_pair_family_member_alone_reports_what_it_reports_among_others(cfg):
    """Each of the nine gives the same entry, wall time aside, alone, with the other eight, and among all 22.

    Each run holds the member to the tolerance 1e-22, so that a member
    whose residuals are not all 0 records the inputs of its failing rows.
    """
    for name in FAMILY:
        entries = []
        for names in ((name,), FAMILY, all_suite_names()):
            _, doc = verify_all(SuiteConfig(**{**cfg.__dict__, "suites": names, "tolerances": {name: 1e-22}}))
            (entry,) = [e for e in doc["suites"] if e["suite"] == name]
            entry.pop("wall_time_s")
            entries.append(entry)
        assert entries[0] == entries[1] == entries[2], name
        exact = ("H-im-condition", "H-sigma-negation", "preimage-formula", "sym-equivariance")
        assert entries[0]["failures"] or name in exact, name


def _failing_every_third_row(real, text):
    def failing(*args, errors):
        out = real(*args, errors=errors)
        errors.flag(np.arange(len(errors.ok)) % 3 == 0, text)
        return out

    return failing


def test_a_member_check_fails_only_that_member(monkeypatch):
    """Each pair-family member flags its checks in its own row flags: none fails another's row.

    A check of one member's own fails only that member; a check of the
    shared map_H(z, w) fails the seven members that read h, and neither
    rho-invariance nor sym-equivariance, which judge the pair as drawn.
    """
    cfg = SuiteConfig(samples=300, suites=FAMILY)
    monkeypatch.setattr(suites, "map_H_inv", _failing_every_third_row(suites.map_H_inv, "a check of H-roundtrip's"))
    _, doc = verify_all(cfg)
    assert {e["suite"]: e["hard_failures"] for e in doc["suites"]} == {
        name: 100 if name == "H-roundtrip" else 0 for name in FAMILY
    }
    monkeypatch.undo()
    monkeypatch.setattr(suites, "map_H", _failing_every_third_row(suites.map_H, "a check of map_H's"))
    _, doc = verify_all(cfg)
    assert {e["suite"]: e["hard_failures"] for e in doc["suites"]} == {
        name: 0 if name in PAIR_ONLY else 100 for name in FAMILY
    }


def test_a_pair_family_run_holds_one_block_in_memory():
    """The live peak of the seven at 32 blocks stays within 1.25 times the peak at 8: no run is held whole."""
    peaks = []
    for blocks in (8, 32):
        tracemalloc.start()
        try:
            verify_all(SuiteConfig(samples=blocks * suites.BLOCK, suites=PAIR_SUITES))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_block_helper_replays_any_row_of_a_run():
    cfg = SuiteConfig()
    for name in all_suite_names():
        suite = suites._BY_NAME[name]
        n = 2 * suites.BLOCK + 5
        residual, _, inputs, _ = suites._block(suite, cfg, 0, n)
        for i in (0, 1, n // 2, n - 1):
            one, _, row, _ = suites._block(suite, cfg, i, i + 1)
            assert one[0] == residual[i]
            np.testing.assert_array_equal(row[0], inputs[i])
