"""End-to-end command-line behavior, run in process."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bidisc_lab
from bidisc_lab import cli
from bidisc_lab.cli import ENV_SEED, main


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# parsing, from the option table

VERIFY_DEFAULTS = {
    "suite": [], "seed": None, "samples": 10_000, "rmax": 0.95, "tol": [], "workers": 1, "report": None,
}
VERIFY_EVERY_OPTION = {
    "suite": ["H-quadric", "gt-sphere"], "seed": -1, "samples": 5, "rmax": 0.5,
    "tol": ["H-quadric=1e-9", "gt-sphere=1e-3"], "workers": 2, "report": "r.json",
}


@pytest.mark.parametrize(
    "argv, command, expected",
    [
        (["verify"], "verify", VERIFY_DEFAULTS),
        (
            ["verify", "--suite", "H-quadric", "--seed", "-1", "--samples", "5", "--rmax", "0.5",
             "--tol", "H-quadric=1e-9", "--workers", "2", "--report", "r.json",
             "--suite", "gt-sphere", "--tol", "gt-sphere=1e-3"],
            "verify", VERIFY_EVERY_OPTION,
        ),
        (
            ["verify", "--suite=H-quadric", "--seed=-1", "--samples=5", "--rmax=0.5", "--tol=H-quadric=1e-9",
             "--workers=2", "--report=r.json", "--suite=gt-sphere", "--tol=gt-sphere=1e-3"],
            "verify", VERIFY_EVERY_OPTION,
        ),
        # a repeated scalar keeps its last value
        (["verify", "--samples", "5", "--samples=7", "--seed=3", "--seed", "4"], "verify",
         {**VERIFY_DEFAULTS, "samples": 7, "seed": 4}),
        (["dump-orbit", "--spec", "Fa:0.8", "--n", "3", "--out", "o.csv"], "dump-orbit",
         {"spec": "Fa:0.8", "n": 3, "out": "o.csv", "seed": None}),
        (["dump-orbit", "--seed=-5", "--out=o.csv", "--n=3", "--spec=Eta:2.125"], "dump-orbit",
         {"spec": "Eta:2.125", "n": 3, "out": "o.csv", "seed": -5}),
        (["map", "--which", "Hinv", "--point", "-1.25,0,0,0.75,0,0"], "map",
         {"which": "Hinv", "point": "-1.25,0,0,0.75,0,0"}),
        (["map", "--point=0.5,0,-0.5,0", "--which=H"], "map", {"which": "H", "point": "0.5,0,-0.5,0"}),
    ],
)
def test_the_option_table_parses_argv(argv, command, expected):
    run, args = cli._parse(argv)
    assert run is cli._COMMANDS[command][0]
    assert vars(args) == expected


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["verify", "--help"], ["verify", "--samples", "5", "-h"], ["dump-orbit", "--help"],
             ["map", "-h"]],
)
def test_help_lists_every_option_of_the_table(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: bidisc-lab")
    commands = cli._COMMANDS if argv[0] in ("-h", "--help") else [argv[0]]
    for command in commands:
        assert f"bidisc-lab {command}:" in out
        for flag, option in cli._COMMANDS[command][2].items():
            assert f"  {flag} {option.metavar} " in out


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "a command is required"),
        (["bogus"], "invalid command 'bogus'"),
        (["--samples", "5"], "invalid command '--samples'"),
        (["verify", "--bogus"], "unrecognized argument '--bogus'"),
        (["verify", "--sam", "5"], "unrecognized argument '--sam'"),  # no abbreviation
        (["verify", "stray"], "unrecognized argument 'stray'"),
        (["verify", "--seed"], "argument --seed: expected a value"),
        (["verify", "--report", "--samples", "5"], "argument --report: expected a value"),
        (["verify", "--samples", "5.5"], "argument --samples: invalid int value: '5.5'"),
        (["verify", "--samples="], "argument --samples: invalid int value: ''"),
        (["verify", "--rmax", "x"], "argument --rmax: invalid float value: 'x'"),
        (["map", "--which", "K", "--point", "0,0,0,0"], "argument --which: invalid choice: 'K'"),
        (["map", "--point", "0,0,0,0"], "the following options are required: --which"),
        (["dump-orbit", "--spec", "Fa:0.8"], "the following options are required: --n, --out"),
    ],
)
def test_usage_errors_exit_two_with_the_usage_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    assert out == "" and usage.startswith("usage: bidisc-lab")
    assert error.startswith("bidisc-lab: error: ") and message in error


# ---------------------------------------------------------------------------
# verify


def test_verify_subset_prints_report_and_passes(capsys):
    code = main(["verify", "--suite", "alpha-roundtrip", "--samples", "200"])
    out, err = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 4
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
        ["verify", "--rmax", "0.9999999999999998"],  # beyond 1 - TOL_BOUNDARY a drawn point can break the disc rule
        ["verify", "--rmax", "4e-7", "--suite", "H-quadric"],  # no pair of the disc is EPS_DIAG = 1e-6 apart
    ],
)
def test_verify_configuration_errors_exit_two(argv, capsys):
    code = main(argv)
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:")


def test_verify_rejects_a_repeated_suite(capsys):
    code = main(["verify", "--suite", "alpha-roundtrip", "--suite", "alpha-roundtrip", "--samples", "50"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "alpha-roundtrip" in err


def test_verify_rejects_a_repeated_tolerance(capsys):
    code = main([
        "verify", "--suite", "alpha-roundtrip", "--samples", "50",
        "--tol", "alpha-roundtrip=1e-30", "--tol", "alpha-roundtrip=1e-3",
    ])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "alpha-roundtrip" in err


def test_verify_rejects_a_tolerance_for_an_unselected_suite(capsys):
    code = main(["verify", "--suite", "alpha-roundtrip", "--samples", "50", "--tol", "H-quadric=1e-30"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "H-quadric" in err


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


def test_a_small_disc_is_sampled_at_every_rho():
    # every pair of the 0.01 disc has rho < 0.02, and each is judged
    proc = _run(["-m", "bidisc_lab.cli", "verify", "--rmax", "0.01", "--suite", "H-quadric"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["suites"][0]["hard_failures"] == 0


def test_unreachable_eps_diag_is_rejected_not_looped():
    # no two points of the 4e-7 disc are EPS_DIAG = 1e-6 apart
    proc = _run(["-m", "bidisc_lab.cli", "verify", "--rmax", "4e-7", "--suite", "H-im-condition"])
    assert proc.returncode == 2
    assert "nothing to sample" in proc.stderr


def test_nearly_empty_config_finishes_with_counted_exclusions():
    # in the 6e-7 disc most pairs lie within EPS_DIAG = 1e-6 of the diagonal: those rows are excluded, not failed
    proc = _run(
        ["-m", "bidisc_lab.cli", "verify", "--rmax", "6e-7", "--suite", "H-quadric", "--samples", "300"]
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)["suites"][0]
    assert rep["hard_failures"] == 0 and 0 < rep["excluded"] < rep["samples"]


def test_conjugation_draws_in_a_nearly_empty_disc_end_with_counted_exclusions():
    # pairs EPS_DIAG = 1e-6 apart exist in a 5.05e-7 disc (|z - w| < 1.01e-6), but almost no draw is one
    proc = _run(
        ["-m", "bidisc_lab.cli", "verify", "--rmax", "5.05e-7", "--suite", "swap-is-minus-identity",
         "--suite", "conjugation-so21", "--samples", "100"],
        timeout=10,
    )
    assert proc.returncode == 0
    for rep in json.loads(proc.stdout)["suites"]:
        assert rep["excluded"] == rep["samples"] == 1 and rep["hard_failures"] == 0


@pytest.mark.parametrize("samples", ["100000", "10000000"])
def test_conjugation_near_the_rim_has_no_determinant_failures(samples, capsys):
    """At rmax 0.9999 the image matrices' entries reach 2e4, and |det A - 1| in floats about 1e-8.

    The determinant flag is relative to A_33^2, so no correct matrix
    fails: 1,000 and 100,000 rows pass (an absolute 1e-9 flag fails 42
    of the 100,000 at seed 42).
    """
    code = main(["verify", "--seed", "42", "--rmax", "0.9999", "--suite", "conjugation-so21", "--samples", samples])
    out, _ = capsys.readouterr()
    rep = json.loads(out)["suites"][0]
    assert code == 0
    assert rep["hard_failures"] == 0 and rep["failures"] == []


def test_conjugation_form_residual_is_scored_relative_to_the_corner_entry(capsys):
    """At rmax 0.99999 the image matrices' corner entries reach 5e4, and the rounding of A* I21 A - I21 about 6e-7.

    The form residual is scored relative to A_33^2, as the determinant
    flag is, so the 10,000 correct matrices pass (an absolute score
    reads 6.28e-7 at seed 42, over the 1e-7 tolerance).
    """
    code = main(["verify", "--seed", "42", "--rmax", "0.99999", "--suite", "conjugation-so21", "--samples", "1000000"])
    out, _ = capsys.readouterr()
    rep = json.loads(out)["suites"][0]
    assert code == 0
    assert rep["samples"] == 10000 and rep["hard_failures"] == 0 and rep["max_residual"] < 1e-10


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
        # a non-finite h, refused before any numpy warning (an error under the test settings) can escape
        ["map", "--which", "Hinv", "--point", "nan,0,0,0,0,0"],
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
        ("Fa", "error: Fa needs a parameter: need 0 < a < 1\n"),
        ("RealSlice:1", "error: RealSlice takes no parameter, got 1.0\n"),
        ("Eta:nan", "error: the Eta parameter must be finite, got nan\n"),
    ],
)
def test_dump_orbit_parameter_errors_name_the_cli_family(spec, message, capsys):
    code = main(["dump-orbit", "--spec", spec, "--n", "3", "--out", "unused.csv"])
    assert code == 2
    assert capsys.readouterr().err == message


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


@pytest.mark.parametrize(
    "spec, message",
    [
        # phi(a) rounds onto phi(0): the pair would be diagonal, with |rho - a| = a
        ("Fa:1e-300", "row 0 of the Fa dump: its pair rounds onto the diagonal"),
        # phi(a) leaves the disc that pseudo_hyperbolic checks
        ("Fa:0.9999999999", "row 0 of the Fa dump: z must lie strictly inside the unit disc"),
    ],
)
def test_dump_orbit_refuses_fa_rows_that_fail_a_check_naming_the_row(tmp_path, spec, message):
    out = tmp_path / "fa.csv"
    proc = _run(["-W", "error", "-m", "bidisc_lab.cli", "dump-orbit", "--spec", spec, "--n", "2000", "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert proc.stdout == "" and not out.exists()


def test_dump_orbit_writes_fa_rows_whose_pair_reaches_within_the_caller_margin(tmp_path, capsys):
    """The pair (phi(a), phi(0)) is computed from the checked level a = 1 - 2e-9: it need only lie in the disc.

    Row 4 at the default seed has |phi(a)| = 0.9999999998466682, within TOL_BOUNDARY = 1e-9 of the circle.
    """
    out = tmp_path / "fa.csv"
    code = main(["dump-orbit", "--spec", "Fa:0.999999998", "--n", "5000", "--out", str(out)])
    assert code == 0 and capsys.readouterr().err == ""
    rows = [[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 5000
    assert math.hypot(*rows[4][:2]) > 1 - 1e-9
    assert all(row[4] < 1e-12 for row in rows)


def test_a_command_loads_neither_argparse_nor_locale():
    """The option table parses argv without argparse, whose help strings go through gettext and import locale."""
    code = (
        "import sys; from bidisc_lab.cli import main; "
        "code = main(['verify', '--suite', 'alpha-roundtrip', '--samples', '50']); "
        "print(code, [m for m in ('argparse', 'locale') if m in sys.modules], file=sys.stderr)"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0 []"


def test_importing_the_cli_builds_no_row_formatter_table():
    """The dump formatter's tables are built on its first call, so no command pays for them at start-up."""
    code = "import bidisc_lab.cli, bidisc_lab.orbits as o; print(o._format_tables.cache_info().currsize)"
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
