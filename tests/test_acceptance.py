"""The ten headline guarantees, each reported as one pass/fail line.

Every test pulls from a single full run of the registered suites at the
default configuration (seed 42, 10^4 base samples) and adds direct spot
checks where a closed-form value is known.  The verdict lines are
collected by conftest.py and printed in the terminal summary.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from bidisc_lab.domains import a_from_alpha, alpha_from_a, eta_level, minkowski_form
from bidisc_lab.levi import totally_real_check
from bidisc_lab.maps import map_H
from bidisc_lab.suites import SuiteConfig, all_suite_names, verify_all


@pytest.fixture(scope="module")
def reports():
    cfg = SuiteConfig(suites=all_suite_names())
    _, doc = verify_all(cfg)
    return {r["suite"]: SimpleNamespace(**r) for r in doc["suites"]}


def _criterion(log, number: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    log(f"acceptance {number}/10 {label}: {verdict} ({detail})")
    assert ok, f"{label}: {detail}"


def _suites_ok(reports, names, tolerances):
    ok = True
    parts = []
    for name in names:
        r = reports[name]
        ok = ok and r.passed and r.hard_failures == 0 and r.tolerance == tolerances[name]
        parts.append(f"{name} max {r.max_residual:.2e} tol {r.tolerance:g} n={r.samples}")
    return ok, "; ".join(parts)


def test_embedding_satisfies_the_quadric_equation(reports, acceptance_log):
    ok, detail = _suites_ok(reports, ["H-quadric"], {"H-quadric": 1e-10})
    ok = ok and reports["H-quadric"].samples == 10_000
    _criterion(acceptance_log, 1, "quadric identity of the embedding", ok, detail)


def test_level_dictionary_between_the_pictures(reports, acceptance_log):
    ok, detail = _suites_ok(reports, ["orbit-levels"], {"orbit-levels": 1e-10})
    spot_level = minkowski_form(*map_H(0.5, -0.5))
    spot_alpha = alpha_from_a(0.8)
    ok = ok and abs(spot_level - 2.125) < 1e-12
    ok = ok and abs(spot_alpha - 8.03125) < 1e-10
    ok = ok and abs(eta_level(spot_alpha) - 2.125) < 1e-12
    detail += f"; spot level {spot_level!r}, spot alpha {spot_alpha!r}"
    _criterion(acceptance_log, 2, "level dictionary between the pictures", ok, detail)


def test_automorphisms_conjugate_into_the_lorentz_group(reports, acceptance_log):
    names = ["conjugation-so21", "swap-is-minus-identity"]
    ok, detail = _suites_ok(
        reports, names, {"conjugation-so21": 1e-7, "swap-is-minus-identity": 1e-9}
    )
    ok = ok and reports["conjugation-so21"].samples == 100
    _criterion(acceptance_log, 3, "automorphisms conjugate into O(2,1)", ok, detail)


def test_pseudo_hyperbolic_distance_is_invariant(reports, acceptance_log):
    ok, detail = _suites_ok(reports, ["rho-invariance"], {"rho-invariance": 1e-13})
    ok = ok and reports["rho-invariance"].samples == 10_000
    _criterion(
        acceptance_log,
        4,
        "pseudo-hyperbolic invariance under the diagonal action",
        ok,
        detail,
    )


def test_automorphisms_preserve_the_carved_subdomains(reports, acceptance_log):
    ok, detail = _suites_ok(
        reports, ["aut-preserves-subdomains"], {"aut-preserves-subdomains": 0.5}
    )
    ok = ok and reports["aut-preserves-subdomains"].samples == 1000
    _criterion(acceptance_log, 5, "membership preserved by the diagonal action", ok, detail)


def test_embedded_su11_orbits_and_their_spheres(reports, acceptance_log):
    names = ["su11-orbit-invariant", "su11-orbit-ellipsoid", "gt-sphere"]
    ok, detail = _suites_ok(
        reports,
        names,
        {"su11-orbit-invariant": 1e-13, "su11-orbit-ellipsoid": 1e-10, "gt-sphere": 1e-12},
    )
    _criterion(
        acceptance_log,
        6,
        "ball orbits: invariant, ellipsoid equation, sphere scaling",
        ok,
        detail,
    )


def test_pointed_lorentz_matrices_and_the_real_slice(reports, acceptance_log):
    names = ["o21-matrix-B", "o21-totally-real"]
    ok, detail = _suites_ok(
        reports, names, {"o21-matrix-B": 1e-12, "o21-totally-real": 0.5}
    )
    flat_ok, meet = totally_real_check([(1, 0), (0, 1)])
    ok = ok and flat_ok and meet == 0
    detail += f"; real-slice intersection dim {meet}"
    _criterion(
        acceptance_log, 7, "pointed O(2,1) matrices and totally real slices", ok, detail
    )


def test_levi_signs_across_the_orbit_families(reports, acceptance_log):
    names = ["levi-Fa", "levi-eta", "levi-flat-control", "levi-sphere"]
    ok, detail = _suites_ok(
        reports,
        names,
        {"levi-Fa": 1e-12, "levi-eta": 1e-12, "levi-flat-control": 1e-4, "levi-sphere": 1e-6},
    )
    ok = ok and reports["levi-Fa"].samples == 600
    ok = ok and reports["levi-eta"].samples == 600
    ok = ok and reports["levi-flat-control"].samples == 200
    _criterion(
        acceptance_log, 8, "Levi form: positive on orbits, flat on the control", ok, detail
    )


def test_inversions_roundtrip(reports, acceptance_log):
    ok, detail = _suites_ok(reports, ["H-roundtrip"], {"H-roundtrip": 1e-9})
    ok = ok and reports["H-roundtrip"].samples == 10_000
    grid = np.linspace(0.01, 0.99, 100)
    worst = max(abs(a_from_alpha(alpha_from_a(a)) - a) for a in grid)
    ok = ok and worst < 1e-12
    detail += f"; level grid worst {worst:.2e}"
    _criterion(acceptance_log, 9, "embedding and level maps invert cleanly", ok, detail)


def test_preimage_bands_match_the_formula(reports, acceptance_log):
    ok, detail = _suites_ok(reports, ["preimage-formula"], {"preimage-formula": 0.5})
    ok = ok and reports["preimage-formula"].samples == 10_000
    _criterion(
        acceptance_log, 10, "quadric band preimages are the predicted annuli", ok, detail
    )
