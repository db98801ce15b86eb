"""End-to-end command-line behavior, run in process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bidisc_lab
from bidisc_lab.cli import ENV_SEED, main


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_subset_prints_report_and_passes(capsys):
    code = main(["verify", "--suite", "alpha-roundtrip", "--samples", "200"])
    out, err = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 2
    assert doc["passed"] is True
    assert [s["suite"] for s in doc["suites"]] == ["alpha-roundtrip"]
    assert "[PASS] alpha-roundtrip" in err


def test_verify_report_flag_redirects_the_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        ["verify", "--suite", "gt-sphere", "--samples", "150", "--report", str(path)]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["passed"] is True


def test_verify_repeated_suite_flags_accumulate(capsys):
    code = main(
        ["verify", "--suite", "gt-sphere", "--suite", "alpha-roundtrip", "--samples", "100"]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert [s["suite"] for s in json.loads(out)["suites"]] == [
        "gt-sphere",
        "alpha-roundtrip",
    ]


def test_verify_impossible_tolerance_fails(capsys):
    code = main(
        ["verify", "--suite", "H-quadric", "--samples", "100", "--tol", "H-quadric=1e-22"]
    )
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "[FAIL] H-quadric" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "nope"],
        ["verify", "--tol", "H-quadric"],
        ["verify", "--tol", "nope=1e-9"],
        ["verify", "--samples", "0"],
        ["verify", "--rmax", "1.5"],
        ["verify", "--rmax", "0.04", "--suite", "o21-matrix-B"],  # no real pair reaches rmin = 0.05
    ],
)
def test_verify_configuration_errors_exit_two(argv, capsys):
    code = main(argv)
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:")


def test_verify_seed_resolution(monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "7")
    main(["verify", "--suite", "alpha-roundtrip", "--samples", "50"])
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 7
    # an explicit flag beats the environment
    main(["verify", "--suite", "alpha-roundtrip", "--samples", "50", "--seed", "9"])
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 9


def test_bad_environment_seed_exits_two(monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "not-a-seed")
    code = main(["verify", "--suite", "alpha-roundtrip", "--samples", "50"])
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# configs whose admissible draws are empty or nearly so, once endless loops;
# run in a child process, so that a regression times out instead of hanging


def _run(args, timeout=30):
    env = dict(os.environ, PYTHONPATH=str(Path(bidisc_lab.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_empty_rho_band_is_rejected_not_looped():
    proc = _run(["-m", "bidisc_lab.cli", "verify", "--rmax", "0.01", "--suite", "H-quadric"])
    assert proc.returncode == 2
    assert "nothing to sample" in proc.stderr


def test_unreachable_eps_diag_is_rejected_not_looped():
    code = (
        "from bidisc_lab.suites import ConfigError, SuiteConfig, run_suite\n"
        "try:\n"
        "    run_suite('H-quadric', SuiteConfig(eps_diag=5.0))\n"
        "except ConfigError as exc:\n"
        "    raise SystemExit(f'error: {exc}')\n"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 1
    assert "nothing to sample" in proc.stderr


def test_nearly_empty_config_finishes_with_counted_hard_failures():
    proc = _run(
        ["-m", "bidisc_lab.cli", "verify", "--rmax", "0.026", "--suite", "H-quadric", "--samples", "300"]
    )
    assert proc.returncode == 1
    rep = json.loads(proc.stdout)["suites"][0]
    assert 0 < rep["hard_failures"] < rep["samples"]
    assert "candidate pairs" in rep["failures"][0]["error"]


def test_fit_draws_in_a_nearly_empty_disc_end_with_counted_hard_failures():
    # pairs 0.05 apart exist in a 0.0251 disc, but almost no draw finds one
    proc = _run(
        ["-m", "bidisc_lab.cli", "verify", "--rmax", "0.0251", "--suite", "swap-is-minus-identity",
         "--suite", "conjugation-so21", "--samples", "100"],
        timeout=10,
    )
    assert proc.returncode == 1
    for rep in json.loads(proc.stdout)["suites"]:
        assert rep["hard_failures"] == rep["samples"] == 1
        assert "candidate pairs" in rep["failures"][0]["error"]


# ---------------------------------------------------------------------------
# map


@pytest.mark.parametrize(
    "which, point, expected",
    [
        ("H", "0.5,0,-0.5,0", "1.25,0,0,0.75,0,-0"),
        ("J", "0.5,0,-0.5,0", "1,0,1.25,0,0,0.75,0,-0"),
        ("Hinv", "1.25,0,0,0.75,0,0", "0.5,0,-0.5,0"),
    ],
)
def test_map_spot_values(which, point, expected, capsys):
    code = main(["map", "--which", which, "--point", point])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == expected + "\n"


def test_map_roundtrips_through_the_cli(capsys):
    main(["map", "--which", "H", "--point", "0.31,0.2,-0.4,0.11"])
    forward = capsys.readouterr().out.strip()
    main(["map", "--which", "Hinv", "--point", forward])
    back = [float(c) for c in capsys.readouterr().out.strip().split(",")]
    assert back == pytest.approx([0.31, 0.2, -0.4, 0.11], abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--which", "H", "--point", "0.5,0"],
        ["map", "--which", "Hinv", "--point", "0.5,0,0.5,0"],
        ["map", "--which", "H", "--point", "0.5,zero,0.1,0"],
        ["map", "--which", "H", "--point", "0.3,0,0.3,0"],
        ["map", "--which", "H", "--point", "1.0,0,0.3,0"],
    ],
)
def test_map_input_errors_exit_two(argv, capsys):
    code = main(argv)
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:")


def test_map_rejects_unknown_map_name(capsys):
    with pytest.raises(SystemExit):
        main(["map", "--which", "K", "--point", "0.5,0,-0.5,0"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# dump-orbit


def test_dump_orbit_writes_csv(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code = main(["dump-orbit", "--spec", "Fa:0.8", "--n", "3", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,y1,x2,y2,residual"
    assert len(lines) == 4
    assert all(float(line.split(",")[-1]) < 1e-12 for line in lines[1:])


def test_dump_orbit_honors_the_environment_seed(monkeypatch, tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    monkeypatch.setenv(ENV_SEED, "5")
    main(["dump-orbit", "--spec", "Ellipsoid:0.5", "--n", "4", "--out", str(a)])
    main(["dump-orbit", "--spec", "Ellipsoid:0.5", "--n", "4", "--out", str(b)])
    monkeypatch.setenv(ENV_SEED, "6")
    main(["dump-orbit", "--spec", "Ellipsoid:0.5", "--n", "4", "--out", str(c)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_dump_orbit_seed_flag_beats_the_environment(monkeypatch, tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    monkeypatch.setenv(ENV_SEED, "6")
    main(["dump-orbit", "--spec", "Fa:0.8", "--n", "4", "--out", str(a), "--seed", "5"])
    main(["dump-orbit", "--spec", "Fa:0.8", "--n", "4", "--out", str(c)])
    monkeypatch.setenv(ENV_SEED, "5")
    main(["dump-orbit", "--spec", "Fa:0.8", "--n", "4", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["dump-orbit", "--spec", "Nope:1", "--n", "3", "--out", "unused.csv"],
        ["dump-orbit", "--spec", "Fa:1.5", "--n", "3", "--out", "unused.csv"],
        ["dump-orbit", "--spec", "Fa:0.8", "--n", "0", "--out", "unused.csv"],
        ["dump-orbit", "--spec", "Fa:0.8", "--n", "3", "--out", "unused.csv", "--seed", "-1"],
    ],
)
def test_dump_orbit_errors_exit_two(argv, capsys):
    code = main(argv)
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("Eta:1e12", "of the Eta dump: point too close to the diagonal for the affine chart"),
        ("Eta:1e308", "of the Eta dump: point too close to the diagonal for the affine chart"),
        ("Eta:inf", "parameter must be finite, got inf"),
    ],
)
def test_dump_orbit_refuses_eta_rows_that_map_h_rejects(tmp_path, spec, message):
    """A large level crowds the pairs onto the diagonal: the dump exits 2 instead of writing such rows."""
    out = tmp_path / "eta.csv"
    proc = _run(["-W", "error", "-m", "bidisc_lab.cli", "dump-orbit", "--spec", spec, "--n", "2000", "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert proc.stdout == "" and not out.exists()
