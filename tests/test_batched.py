"""Suite kernels: array twins, per-row checks, one sampling path, block independence and index replay."""

import json
import math
import sys

import numpy as np
import pytest

from bidisc_lab import orbits, rng, suites
from bidisc_lab.domains import (
    DomainSpec,
    a_from_alpha,
    a_from_alpha_array,
    alpha_from_a,
    alpha_from_a_array,
    contains,
    eta_level,
    eta_level_array,
    im_condition,
    minkowski_form,
    quadric_residual,
    quadric_st_margin_array,
)
from bidisc_lab.levi import levi_restricted
from bidisc_lab.maps import (
    map_H,
    map_H_array,
    map_H_inv,
    map_H_inv_array,
    map_J,
    map_J_array,
    sym,
    sym_array,
)
from bidisc_lab.mobius import (
    MobiusMap,
    mobius_apply,
    mobius_apply_array,
    mobius_apply_pair,
    pseudo_hyperbolic,
    pseudo_hyperbolic_array,
)
from bidisc_lab.orbits import FLAT_CONTROL, MINKOWSKI_LEVEL, RHO_LEVEL, SPHERE, Family
from bidisc_lab.rng import disc_from_uniforms
from bidisc_lab.suites import SuiteConfig, all_suite_names, run_suite, verify_all

BATCHED = tuple(s.name for s in suites._REGISTRY if s.fn.__name__.startswith("_k_"))  # array kernels
LEVI = ("levi-Fa", "levi-eta", "levi-flat-control", "levi-sphere")
ROWS = 500
LEVI_ROWS = 90  # the scalar Levi calls are the batch kernel's batch of one, so these agree exactly
RTOL = 64 * np.finfo(float).eps


def _points(seed, n, rmax=0.95):
    u = np.random.default_rng(seed).random((n, 4))
    return disc_from_uniforms(u[:, 0], u[:, 1], rmax), disc_from_uniforms(u[:, 2], u[:, 3], rmax)


def _close(array_value, scalar_value, scale=1.0):
    return abs(complex(array_value) - complex(scalar_value)) <= RTOL * max(scale, abs(scalar_value))


def test_the_pointwise_and_levi_suites_are_batched():
    assert BATCHED == (
        "rho-invariance",
        "H-quadric",
        "H-im-condition",
        "H-sigma-negation",
        "H-roundtrip",
        "orbit-levels",
        "preimage-formula",
        *LEVI,
        "sym-equivariance",
        "J-H-compat",
        "alpha-roundtrip",
    )


def test_the_report_gives_every_levi_suite_a_draw_budget():
    _, doc = verify_all(SuiteConfig(samples=100, suites=LEVI))
    assert [doc["rng"]["suites"][name]["draws_per_sample"] for name in LEVI] == [3, 3, 3, 3]


def test_the_report_gives_every_suite_an_integer_draw_budget():
    _, doc = verify_all(SuiteConfig(samples=100, suites=all_suite_names()))
    budgets = {name: entry["draws_per_sample"] for name, entry in doc["rng"]["suites"].items()}
    assert list(budgets) == list(all_suite_names())
    assert all(type(k) is int and k > 0 for k in budgets.values())
    assert budgets["conjugation-so21"] == 3 + 10 * suites.PAIR_DRAWS
    assert budgets["swap-is-minus-identity"] == 10 * suites.PAIR_DRAWS
    assert budgets["aut-preserves-subdomains"] == 8 and budgets["o21-matrix-B"] == 2


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
    assert len(built) == 22 + 5  # one block per suite and per dump at these sizes
    with pytest.raises(AssertionError):
        np.random.default_rng(0)


# ---------------------------------------------------------------------------
# array twins against the scalar functions


def test_array_twins_agree_with_the_scalar_functions():
    z, w = _points(1, ROWS)
    theta = np.linspace(0.0, 6.0, ROWS)
    a, _ = _points(2, ROWS, rmax=0.8)
    rho = pseudo_hyperbolic_array(z, w)
    moved = mobius_apply_array(theta, a, z)
    h = map_H_array(z, w)
    back_z, back_w, ok = map_H_inv_array(*h)
    jcoords = map_J_array(z, w)
    s_arr, p_arr = sym_array(z, w)
    alpha = alpha_from_a_array(rho)
    band = quadric_st_margin_array(*h, 1.0, 3.0)
    assert ok.all()
    for r in range(ROWS):
        zr, wr = complex(z[r]), complex(w[r])
        hs = map_H(zr, wr)
        assert _close(rho[r], pseudo_hyperbolic(zr, wr))
        assert _close(moved[r], mobius_apply(MobiusMap(theta[r], complex(a[r])), zr))
        assert all(_close(h[k][r], hs[k]) for k in range(3))
        assert all(_close(m, s) for m, s in zip((back_z[r], back_w[r]), map_H_inv(*hs)))
        assert all(_close(jcoords[k, r], map_J(zr, wr).coords[k]) for k in range(4))
        assert all(_close(m, s) for m, s in zip((s_arr[r], p_arr[r]), sym(zr, wr)))
        assert _close(alpha[r], alpha_from_a(float(rho[r])))
        assert _close(eta_level_array(alpha[r]), eta_level(float(alpha[r])))
        assert _close(a_from_alpha_array(alpha[r]), a_from_alpha(float(alpha[r])))
        scale = 1.0 + sum(abs(c) ** 2 for c in hs)
        assert _close(minkowski_form(*(c[r] for c in h)), minkowski_form(*hs), scale)
        assert _close(im_condition(*(c[r] for c in h)), im_condition(*hs), scale)
        assert _close(quadric_residual(*(c[r] for c in h)), quadric_residual(*hs), scale)
        assert (band[r] > 0.0) == contains(DomainSpec.quadric_st(1.0, 3.0), hs)[0]


def test_array_map_h_is_exactly_odd_and_array_sym_exactly_symmetric():
    z, w = _points(3, 20_000)
    for fwd, rev in zip(map_H_array(z, w), map_H_array(w, z)):
        np.testing.assert_array_equal(rev, -fwd)
    for one, other in zip(sym_array(z, w), sym_array(w, z)):
        np.testing.assert_array_equal(one, other)


def test_array_map_h_inv_flags_what_the_scalar_rejects():
    h1 = np.array([1.25, 1.0, 1.0, 1.25 + 0j])
    h2 = np.array([0.75, 0.0, -1j, 0.75j])
    h3 = np.zeros(4, dtype=complex)
    with np.errstate(all="ignore"):
        _, _, ok = map_H_inv_array(h1, h2, h3)
    assert ok.tolist() == [False, False, False, True]


# ---------------------------------------------------------------------------
# batched kernels against the scalar suite bodies


def _pair(row):
    return complex(row[0], row[1]), complex(row[2], row[3])


def _orbit_levels(row):
    z, w = _pair(row)
    rho = pseudo_hyperbolic(z, w)
    m = minkowski_form(*map_H(z, w))
    return max(abs(m - (2.0 / (rho * rho) - 1.0)), abs(m - eta_level(alpha_from_a(rho))))


def _preimage(row):
    z, w = _pair(row)
    s, t = row[4], row[5]
    rho = pseudo_hyperbolic(z, w)
    hi = math.sqrt(2.0 / (s + 1.0))
    lo = math.sqrt(2.0 / (t + 1.0)) if math.isfinite(t) else 0.0
    if min(abs(rho - hi), abs(rho - lo)) < suites.PREIMAGE_MARGIN:
        return 0.0
    member, _ = contains(DomainSpec.quadric_st(s, t), map_H(z, w))
    return 0.0 if member == (lo < rho < hi) else 1.0


def _j_h_compat(row):
    z, w = _pair(row)
    p = map_J(z, w).coords
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


SCALAR_BODIES = {
    "rho-invariance": lambda r: abs(
        pseudo_hyperbolic(*mobius_apply_pair(MobiusMap(r[4], complex(r[5], r[6])), _pair(r)))
        - pseudo_hyperbolic(*_pair(r))
    ),
    "H-quadric": lambda r: abs(quadric_residual(*map_H(*_pair(r)))),
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


@pytest.mark.parametrize("name", BATCHED)
def test_kernel_agrees_with_its_scalar_body(name):
    """Residuals agree to 1% of the tolerance, so no verdict depends on the twin that computed it.

    For the exact claims and the boolean one that means equality.
    """
    suite = suites._BY_NAME[name]
    rows = LEVI_ROWS if name in LEVI else ROWS
    residual, error, inputs = suites._block(suite, SuiteConfig(), 0, rows)
    assert not error.astype(bool).any()
    assert inputs.shape[0] == rows
    for r in range(rows):
        assert abs(residual[r] - SCALAR_BODIES[name](inputs[r])) <= 0.01 * suite.tolerance, r


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
    _pushed_to_the_rim(monkeypatch, column)
    rep = run_suite(name, SuiteConfig(samples=20, rmax=1.0 - 1e-12))
    assert not rep.passed
    assert rep.hard_failures == rep.samples
    assert rep.max_residual is None
    for failure in rep.failures:
        with pytest.raises(ValueError) as info:
            scalar(failure["inputs"])
        assert failure["error"] == f"ValueError: {info.value}"
        assert "strictly inside the unit disc" in failure["error"]


def test_levi_row_failure_is_a_hard_failure_with_the_scalar_text(monkeypatch):
    """|u|^2 = 1 - 1e-15 puts the sphere point's first coordinate on the unit circle."""
    _pushed_to_the_rim(monkeypatch, 0)
    rep = run_suite("levi-sphere", SuiteConfig(samples=1000))
    assert rep.hard_failures == rep.samples == 20
    for failure in rep.failures:
        with pytest.raises(ValueError) as info:
            levi_restricted(Family(SPHERE), _complex(failure["inputs"]))
        assert failure["error"] == f"ValueError: {info.value}"
        assert "touches the unit circle" in failure["error"]


def test_a_row_the_eta_sampler_rejects_is_a_hard_failure_with_the_map_h_text(monkeypatch):
    """At a huge level the sampled pairs crowd the diagonal, and map_H's check fails those rows."""
    monkeypatch.setattr(suites, "_ETA", (Family(MINKOWSKI_LEVEL, 1e12),) * 3)
    rep = run_suite("levi-eta", SuiteConfig(samples=1000))
    assert 0 < rep.hard_failures < rep.samples
    errors = [failure["error"] for failure in rep.failures if "error" in failure]
    assert errors and set(errors) == {"ValueError: point too close to the diagonal for the affine chart"}


# ---------------------------------------------------------------------------
# determinism: block size and index replay


def _report_without_timings(path):
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(ln for ln in lines if not ln.lstrip().startswith(b'"wall_time_s":'))


def test_report_bytes_do_not_depend_on_the_block_size(monkeypatch, tmp_path):
    # the levi suites draw 12, 12, 4 and 4 samples: blocks of 7 split their parameter groups
    cfg = SuiteConfig(
        samples=200, suites=all_suite_names(), tolerances={"H-quadric": 1e-22, "levi-sphere": 1e-12}
    )
    texts = []
    for block in (suites.BLOCK, 7):
        monkeypatch.setattr(suites, "BLOCK", block)
        path = tmp_path / f"report-{block}.json"
        verify_all(cfg, report_path=str(path))
        texts.append(_report_without_timings(path))
    assert texts[0] == texts[1]


def _replay(doc, name, index):
    """Recompute one row from the report alone: its stream key, budget and index.

    The generator is built from the report's "rng" field, as any reader of the report could.
    """
    stream = doc["rng"]["suites"][name]
    gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([doc["config"]["seed"], stream["stream_id"]]))
    )
    k = stream["draws_per_sample"]
    gen.bit_generator.advance(index * k)
    cfg = SuiteConfig(seed=doc["config"]["seed"], rmax=doc["config"]["rmax"], eps_diag=doc["config"]["eps_diag"])
    with np.errstate(all="ignore"):
        residual, error, inputs = suites._BY_NAME[name].fn(cfg, gen.random((1, k)), np.array([index]))
    return float(residual[0]), error[0], np.asarray(inputs[0], dtype=float).tolist()


@pytest.mark.parametrize(
    "name, cfg",
    [
        ("H-quadric", SuiteConfig(samples=10_000, tolerances={"H-quadric": 1e-13})),
        ("rho-invariance", SuiteConfig(samples=10_000, tolerances={"rho-invariance": 5e-15})),
        ("orbit-levels", SuiteConfig(samples=10_000, tolerances={"orbit-levels": 2e-13})),
        ("orbit-levels", SuiteConfig(samples=2000, rmax=0.026)),  # hard failures, near index 0
        ("levi-sphere", SuiteConfig(samples=100_000, tolerances={"levi-sphere": 1.5e-8})),  # 2,000 rows
        ("o21-matrix-B", SuiteConfig(samples=30_000, tolerances={"o21-matrix-B": 3e-15})),  # 3,000 rows
        ("conjugation-so21", SuiteConfig(samples=1000, rmax=0.0251)),  # no fit finds its pairs
        ("swap-is-minus-identity", SuiteConfig(samples=1000, rmax=0.0251)),  # records the fit's ten pairs
    ],
)
def test_replaying_an_index_reproduces_its_recorded_failure(name, cfg):
    _, doc = verify_all(SuiteConfig(**{**cfg.__dict__, "suites": (name,)}))
    doc = json.loads(json.dumps(doc))  # as a reader of the report file sees it
    failures = doc["suites"][0]["failures"]
    assert len(failures) == suites.MAX_FAILURES
    if not doc["suites"][0]["hard_failures"]:
        assert max(f["index"] for f in failures) >= suites.BLOCK  # a later block is replayed too
    for failure in failures:
        residual, error, inputs = _replay(doc, name, failure["index"])
        assert inputs == failure["inputs"]
        assert inputs  # a hard failure records what its row drew before the failing step
        if "error" in failure:
            assert error == failure["error"]
        else:
            assert error is None and residual == failure["residual"]


def test_block_helper_replays_any_row_of_a_run():
    cfg = SuiteConfig()
    for name in all_suite_names():
        suite = suites._BY_NAME[name]
        n = 2 * suites.BLOCK + 5 if name in BATCHED else 40  # scalar rows are evaluated one by one anyway
        residual, _, inputs = suites._block(suite, cfg, 0, n)
        for i in (0, 1, n // 2, n - 1):
            one, _, row = suites._block(suite, cfg, i, i + 1)
            assert one[0] == residual[i]
            np.testing.assert_array_equal(row[0], inputs[i])
