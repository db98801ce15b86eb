"""Command line front end: verification runs, orbit dumps, single map evaluations.

One table, ``_COMMANDS``, holds the three commands and their options,
and drives parsing, usage errors and ``--help``.  An option is spelled in
full, with no abbreviation, and takes its value as the next argument
(``--seed 7``) or after ``=`` (``--seed=7``); a value may start with a
single ``-`` (``--seed -1``), and one that starts with ``--`` must
follow ``=``.  A repeated ``--suite`` or ``--tol`` accumulates; any
other repeated option keeps its last value.  ``-h`` or ``--help``, alone
or after a command, prints the usage line and the options to stdout.

Exit codes: 0 everything passed, 1 at least one suite failed, 2 bad
usage, configuration or input.  A usage error (no or an unknown command,
an unknown option, a missing value or required option, a bad number or
choice) prints the usage line and ``bidisc-lab: error: ...`` to stderr;
any other error prints ``error: ...``.  The seed is taken from --seed
when given, else from the BIDISC_LAB_SEED environment variable, else 42.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NoReturn

from .maps import map_H, map_H_inv, map_J
from .orbits import dump_orbit, parse_orbit_spec
from .rng import DEFAULT_RMAX, DEFAULT_SEED
from .suites import (
    DEFAULT_SAMPLES,
    ConfigError,
    SuiteConfig,
    all_suite_names,
    verify_all,
)

ENV_SEED = "BIDISC_LAB_SEED"


def _resolve_seed(flag: int | None) -> int:
    if flag is not None:
        return flag
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _parse_tols(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in pairs:
        name, sep, val = item.partition("=")
        if not sep or not name:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        if name in out:
            raise ConfigError(f"repeated --tol for suite {name}")
        try:
            out[name] = float(val)
        except ValueError:
            raise ConfigError(f"bad tolerance value in {item!r}") from None
    return out


def _cmd_verify(args: SimpleNamespace) -> int:
    cfg = SuiteConfig(
        seed=_resolve_seed(args.seed),
        samples=args.samples,
        rmax=args.rmax,
        tolerances=_parse_tols(args.tol),
        suites=tuple(args.suite) if args.suite else all_suite_names(),
        workers=args.workers,
    )
    code, doc = verify_all(cfg, report_path=args.report)
    for rep in doc["suites"]:
        status = "PASS" if rep["passed"] else "FAIL"
        mr = rep["max_residual"]
        mr_s = "n/a" if mr is None else f"{mr:.3g}"
        line = (
            f"[{status}] {rep['suite']:<26} max residual {mr_s:>9}  "
            f"tol {rep['tolerance']:g}  ({rep['samples']} samples, {rep['wall_time_s']:.2f}s)"
        )
        print(line, file=sys.stderr)
    if args.report is None:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(f"report written to {args.report}", file=sys.stderr)
    return code


def _cmd_dump_orbit(args: SimpleNamespace) -> int:
    dump_orbit(parse_orbit_spec(args.spec), args.n, args.out, seed=_resolve_seed(args.seed))
    return 0


# --which: the map, the number of reals in --point, and what the point is
_MAPS = {
    "J": (map_J, 4, '"re,im,re,im" (one bidisc pair)'),
    "H": (map_H, 4, '"re,im,re,im" (one bidisc pair)'),
    "Hinv": (map_H_inv, 6, '"re,im,re,im,re,im" (one affine triple)'),
}


def _cmd_map(args: SimpleNamespace) -> int:
    try:
        vals = [float(tok) for tok in args.point.replace(" ", "").split(",")]
    except ValueError:
        raise ConfigError(f"--point must be comma-separated reals, got {args.point!r}") from None
    fn, n, what = _MAPS[args.which]
    if len(vals) != n:
        raise ConfigError(f"{args.which} takes --point {what}")
    out = fn(*(complex(re, im) for re, im in zip(vals[::2], vals[1::2])))
    print(",".join(f"{x:.17g}" for c in out for x in (c.real, c.imag)))
    return 0


@dataclass(frozen=True)
class _Option:
    """One option of a command: a repeated option accumulates its values, any other keeps its last."""

    metavar: str
    help: str
    type: Callable[[str], object] = str
    default: object = None
    required: bool = False
    repeat: bool = False  # the values given, in order; [] when none is
    choices: tuple[str, ...] = ()


_PROG = "bidisc-lab"
_HELP = ("-h", "--help")
_SEED = _Option("N", f"seed (default: ${ENV_SEED}, else {DEFAULT_SEED})", int)

# command -> (what it runs, what it does, its options)
_COMMANDS = {
    "verify": (_cmd_verify, "run property suites and report pass/fail", {
        "--suite": _Option("ID", "suite id; repeatable (default: all)", repeat=True),
        "--seed": _SEED,
        "--samples": _Option("N", f"base sample count, times each suite's weight (default: {DEFAULT_SAMPLES})",
                             int, DEFAULT_SAMPLES),
        "--rmax": _Option("X", f"radius of the disc the points are drawn on (default: {DEFAULT_RMAX})",
                          float, DEFAULT_RMAX),
        "--tol": _Option("NAME=X", "per-suite tolerance override; repeatable, once per suite", repeat=True),
        "--workers": _Option("N", "accepted for compatibility and validated (N >= 1), but without effect: "
                             "suites run serially", int, 1),
        "--report": _Option("PATH", "write the JSON report here instead of stdout"),
    }),
    "dump-orbit": (_cmd_dump_orbit, "write orbit samples as CSV", {
        "--spec": _Option("SPEC", "Fa:A | Eta:L | Ellipsoid:T | RealSlice | ComplexCurve", required=True),
        "--n": _Option("N", "number of rows", int, required=True),
        "--out": _Option("PATH", "the CSV file to write", required=True),
        "--seed": _SEED,
    }),
    "map": (_cmd_map, "evaluate one of the explicit maps at a point", {
        "--which": _Option("{" + ",".join(_MAPS) + "}", "the map", required=True, choices=tuple(_MAPS)),
        "--point": _Option('"re,im,..."', "the point, as interleaved real and imaginary parts", required=True),
    }),
}


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {_PROG} {{{','.join(_COMMANDS)}}} [OPTION ...]"
    options = _COMMANDS[command][2]
    need = [f"{flag} {opt.metavar}" for flag, opt in options.items() if opt.required]
    rest = ["[OPTION ...]"] if len(need) < len(options) else []
    return " ".join([f"usage: {_PROG} {command}", *need, *rest])


def _help(command: str | None) -> NoReturn:
    """Print the usage line and the options of command, or of every command, to stdout; exit 0."""
    lines = [_usage(command), ""]
    if command is None:
        lines += ["numerical checks for the bidisc orbit geometry", ""]
    for name in _COMMANDS if command is None else (command,):
        _, what, options = _COMMANDS[name]
        lines.append(f"{_PROG} {name}: {what}")
        for flag, opt in options.items():
            note = " (required)" if opt.required else ""
            lines.append(f"  {flag + ' ' + opt.metavar:<22} {opt.help}{note}")
        lines.append("")
    sys.stdout.write("\n".join(lines))
    raise SystemExit(0)


def _usage_error(command: str | None, message: str) -> NoReturn:
    print(_usage(command), file=sys.stderr)
    print(f"{_PROG}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """(what the command argv names runs, its options): one attribute per option of the table, given or default."""
    if not argv or argv[0] not in _COMMANDS:
        if argv and argv[0] in _HELP:
            _help(None)
        _usage_error(None, f"invalid command {argv[0]!r}" if argv else "a command is required")
    command, tokens = argv[0], iter(argv[1:])
    run, _, options = _COMMANDS[command]
    given: dict[str, object] = {}
    for token in tokens:
        if token in _HELP:
            _help(command)
        flag, sep, value = token.partition("=")
        opt = options.get(flag)
        if opt is None:
            _usage_error(command, f"unrecognized argument {token!r}")
        if not sep:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                _usage_error(command, f"argument {flag}: expected a value")
        try:
            value = opt.type(value)
        except ValueError:
            _usage_error(command, f"argument {flag}: invalid {opt.type.__name__} value: {value!r}")
        if opt.choices and value not in opt.choices:
            _usage_error(command, f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(opt.choices)})")
        if opt.repeat:
            given.setdefault(flag, []).append(value)
        else:
            given[flag] = value
    missing = [flag for flag, opt in options.items() if opt.required and flag not in given]
    if missing:
        _usage_error(command, f"the following options are required: {', '.join(missing)}")
    values = {flag: given.get(flag, [] if opt.repeat else opt.default) for flag, opt in options.items()}
    return run, SimpleNamespace(**{flag[2:]: value for flag, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    run, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return run(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
