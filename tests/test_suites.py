"""Registry contract, determinism, and configuration handling of the verifier."""

import json
import math
import sys

import pytest

from bidisc_lab.mobius import TOL_BOUNDARY
from bidisc_lab.rng import DEFAULT_RMAX
from bidisc_lab.suites import (
    ConfigError,
    SuiteConfig,
    all_suite_names,
    validate_config,
    verify_all,
)

EXPECTED_REGISTRY = (
    "rho-invariance",
    "H-quadric",
    "H-im-condition",
    "H-sigma-negation",
    "H-roundtrip",
    "orbit-levels",
    "preimage-formula",
    "conjugation-so21",
    "swap-is-minus-identity",
    "aut-preserves-subdomains",
    "su11-orbit-invariant",
    "su11-orbit-ellipsoid",
    "gt-sphere",
    "o21-matrix-B",
    "o21-totally-real",
    "levi-Fa",
    "levi-eta",
    "levi-flat-control",
    "levi-sphere",
    "sym-equivariance",
    "J-H-compat",
    "alpha-roundtrip",
)

# small but representative: one heavy sampler, one group-image family, one Levi family
SMOKE_SUITES = ("H-quadric", "swap-is-minus-identity", "levi-flat-control")


def _reports(cfg):
    """The report entries of a verify_all run."""
    return verify_all(cfg)[1]["suites"]


def _report(name, cfg):
    """The report entry of one suite run alone under cfg."""
    (entry,) = _reports(SuiteConfig(**{**cfg.__dict__, "suites": (name,)}))
    return entry


def _stripped(reports):
    for r in reports:
        r.pop("wall_time_s")
    return reports


def test_registry_is_the_published_contract():
    """Names and their order are load-bearing for downstream reports."""
    assert all_suite_names() == EXPECTED_REGISTRY


def test_runs_are_deterministic_for_a_seed():
    cfg = SuiteConfig(samples=400, suites=SMOKE_SUITES)
    first = _stripped(_reports(cfg))
    second = _stripped(_reports(cfg))
    assert first == second


def test_worker_count_does_not_change_results():
    serial = SuiteConfig(samples=600, suites=SMOKE_SUITES, workers=1)
    threaded = SuiteConfig(samples=600, suites=SMOKE_SUITES, workers=4)
    assert _stripped(_reports(serial)) == _stripped(_reports(threaded))


def test_different_seeds_give_different_samples():
    # max residuals are ulp-quantized and can collide; the recorded
    # failure inputs expose the underlying draws
    tight = {"H-quadric": 1e-22}
    a = _report("H-quadric", SuiteConfig(seed=1, samples=5, tolerances=tight))
    b = _report("H-quadric", SuiteConfig(seed=2, samples=5, tolerances=tight))
    assert [f["inputs"] for f in a["failures"]] != [f["inputs"] for f in b["failures"]]


def test_single_suite_run_passes_at_default_tolerance():
    rep = _report("alpha-roundtrip", SuiteConfig(samples=300))
    assert rep["passed"]
    assert rep["samples"] == 300
    assert rep["max_residual"] < rep["tolerance"]
    assert rep["hard_failures"] == 0


def test_unknown_suite_is_a_config_error():
    with pytest.raises(ConfigError):
        verify_all(SuiteConfig(suites=("H-cubic",)))
    with pytest.raises(ConfigError):
        validate_config(SuiteConfig(suites=("H-quadric", "bogus")))


def test_repeated_suite_is_a_config_error_that_names_it():
    """A suite listed twice would run twice and share one "rng" entry in the report."""
    with pytest.raises(ConfigError, match="repeated suite ids: alpha-roundtrip$"):
        verify_all(SuiteConfig(suites=("alpha-roundtrip", "H-quadric", "alpha-roundtrip")))


def test_tolerance_for_an_unselected_suite_is_a_config_error_that_names_it():
    """An override that no selected suite reads would only be echoed in the report's config."""
    with pytest.raises(ConfigError, match="not selected: H-quadric$"):
        validate_config(SuiteConfig(suites=("alpha-roundtrip",), tolerances={"H-quadric": 1e-30}))


@pytest.mark.parametrize(
    "cfg",
    [
        SuiteConfig(samples=0),
        SuiteConfig(rmax=1.5),
        SuiteConfig(rmax=0.0),
        SuiteConfig(workers=0),
        SuiteConfig(seed=-1),
        SuiteConfig(seed=2**64),
        SuiteConfig(rmax=4e-7, suites=("H-im-condition",)),  # no pair is EPS_DIAG = 1e-6 apart
        SuiteConfig(rmax=math.nan),
        SuiteConfig(rmax=1.0),  # the disc is open
        # beyond 1 - TOL_BOUNDARY a drawn point can break the disc rule for a point a caller supplies
        SuiteConfig(rmax=1.0 - 1e-10),
        SuiteConfig(rmax=0.9999999999999998),
        SuiteConfig(samples=2000.0),
        SuiteConfig(tolerances={"nope": 1e-9}),
        SuiteConfig(tolerances={"H-quadric": -1.0}),
        SuiteConfig(tolerances={"H-quadric": float("nan")}),
        # bool is an int subclass, but not a count, a seed or a tolerance
        SuiteConfig(seed=True),
        SuiteConfig(samples=True),
        SuiteConfig(workers=True),
        SuiteConfig(tolerances={"H-quadric": True}),
        # a subnormal disc: its points keep too few digits, and some round onto the origin
        SuiteConfig(rmax=1e-310),
        SuiteConfig(rmax=5e-324),
    ],
)
def test_validate_config_rejects_bad_values(cfg):
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_the_accepted_rmax_range_ends_at_the_disc_rules_margin():
    """rmax = 1 - TOL_BOUNDARY is accepted, the next double up is not, and the message states the one range."""
    validate_config(SuiteConfig(rmax=1.0 - TOL_BOUNDARY))
    with pytest.raises(ConfigError) as info:
        validate_config(SuiteConfig(rmax=math.nextafter(1.0 - TOL_BOUNDARY, 1.0)))
    assert str(info.value).startswith("rmax must lie in [2.2250738585072014e-308, 0.999999999], got 0.99999999900")


# the suites whose samples are pairs off map_H's chart guard, |z - w| >= EPS_DIAG
PAIR_SUITES = (
    "H-quadric",
    "H-im-condition",
    "H-sigma-negation",
    "H-roundtrip",
    "orbit-levels",
    "preimage-formula",
    "conjugation-so21",
    "swap-is-minus-identity",
    "J-H-compat",
)


@pytest.mark.parametrize("name", PAIR_SUITES)
def test_a_pair_suite_rejects_a_disc_without_a_pair_off_the_chart_guard(name):
    # no two points of the 4e-7 disc are EPS_DIAG = 1e-6 apart
    with pytest.raises(ConfigError, match="nothing to sample: pairs need"):
        validate_config(SuiteConfig(rmax=4e-7, suites=(name,)))


def test_only_the_pair_suites_refuse_a_disc_without_a_pair_off_the_chart_guard():
    """The other thirteen draw no pair: a 4e-7 disc is a valid configuration for them."""
    others = tuple(name for name in all_suite_names() if name not in PAIR_SUITES)
    assert len(others) == 13
    validate_config(SuiteConfig(rmax=4e-7, suites=others))


@pytest.mark.parametrize("rmax", [0.03, 0.01])
def test_pairs_of_a_small_disc_are_judged_at_every_rho(rmax):
    """A pair of a small disc has a small rho, and the relative residual scales judge it: no row fails hard."""
    names = ("H-quadric", "orbit-levels", "conjugation-so21", "swap-is-minus-identity")
    code, doc = verify_all(SuiteConfig(samples=5000, rmax=rmax, suites=names))
    assert code == 0
    assert [r["hard_failures"] for r in doc["suites"]] == [0] * len(names)


@pytest.mark.parametrize("rmax", [0.03, 1e-6])
def test_o21_matrix_b_draws_its_real_pair_from_the_whole_disc(rmax):
    code, doc = verify_all(SuiteConfig(samples=5000, rmax=rmax, suites=("o21-matrix-B",)))
    assert code == 0 and doc["suites"][0]["hard_failures"] == 0
    assert doc["suites"][0]["max_residual"] < 1e-14


def test_impossible_tolerance_fails_with_capped_failures():
    cfg = SuiteConfig(samples=3000, suites=("H-quadric",), tolerances={"H-quadric": 1e-22})
    (rep,) = _reports(cfg)
    assert not rep["passed"]
    assert rep["tolerance"] == 1e-22
    assert len(rep["failures"]) == 10
    for failure in rep["failures"]:
        assert set(failure) == {"index", "residual", "inputs"}
        assert failure["residual"] >= 1e-22


def test_tolerance_override_feeds_the_verdict():
    base = _report("H-quadric", SuiteConfig(samples=500))
    assert base["passed"]
    tight = _report("H-quadric", SuiteConfig(samples=500, tolerances={"H-quadric": 1e-22}))
    assert not tight["passed"]
    # residuals themselves are tolerance-independent
    assert tight["max_residual"] == base["max_residual"]


def test_empty_suite_selection_passes_vacuously():
    with pytest.warns(UserWarning):
        code, doc = verify_all(SuiteConfig())
    assert code == 0
    assert doc["passed"] is True
    assert doc["suites"] == []


def test_verify_all_writes_the_report(tmp_path):
    path = tmp_path / "report.json"
    cfg = SuiteConfig(samples=300, suites=("gt-sphere", "alpha-roundtrip"))
    code, doc = verify_all(cfg, report_path=str(path))
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert on_disk["schema"] == 4
    assert on_disk["passed"] is True
    assert [s["suite"] for s in on_disk["suites"]] == ["gt-sphere", "alpha-roundtrip"]
    # wall times aside, the in-memory document is what was serialized
    for a, b in zip(on_disk["suites"], doc["suites"]):
        a.pop("wall_time_s"), b.pop("wall_time_s")
    assert on_disk == doc


def test_report_config_echo_omits_worker_count():
    """Workers are an execution detail; reports must not depend on them."""
    cfg = SuiteConfig(samples=200, suites=("alpha-roundtrip",), workers=3)
    _, doc = verify_all(cfg)
    assert "workers" not in doc["config"]
    assert doc["config"]["seed"] == 42
    assert doc["config"]["suites"] == ["alpha-roundtrip"]


def test_every_report_entry_has_a_positive_finite_wall_time():
    """A pair-family member's wall time includes an even share of the family's draw; a reader divides by it."""
    _, doc = verify_all(SuiteConfig(samples=50, suites=all_suite_names()))
    times = [entry["wall_time_s"] for entry in doc["suites"]]
    assert all(math.isfinite(t) and t > 0 for t in times), times


def test_failing_suite_drives_the_exit_code():
    cfg = SuiteConfig(samples=200, suites=("gt-sphere",), tolerances={"gt-sphere": 1e-22})
    code, doc = verify_all(cfg)
    assert code == 1
    assert doc["passed"] is False


def _selectable(rmax: float) -> tuple[str, ...]:
    """The suites that validate_config accepts alone on the rmax disc."""
    names = []
    for name in all_suite_names():
        try:
            validate_config(SuiteConfig(rmax=rmax, suites=(name,)))
        except ConfigError:
            continue
        names.append(name)
    return tuple(names)


# the edges of the accepted rmax: the smallest normal double, just above EPS_DIAG / 2 (the smallest disc with a pair
# off map_H's chart guard), EPS_DIAG, the default and the largest accepted rmax
_EDGE_RMAX = (sys.float_info.min, 5.000001e-7, 1e-6, DEFAULT_RMAX, 1.0 - TOL_BOUNDARY)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("rmax", _EDGE_RMAX)
def test_every_selectable_suite_passes_at_the_edges_of_the_accepted_rmax(rmax, seed):
    """Every suite a config at an edge of the accepted rmax can select passes there, with no row failed hard."""
    names = _selectable(rmax)
    assert len(names) == (13 if rmax < 5e-7 else 22)  # the nine that read h have no pair on the smallest disc
    code, doc = verify_all(SuiteConfig(seed=seed, samples=10_000, rmax=rmax, suites=names))
    assert [(e["suite"], e["hard_failures"]) for e in doc["suites"] if not e["passed"] or e["hard_failures"]] == []
    assert code == 0
