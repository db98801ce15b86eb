"""Command line front end: verification runs, orbit dumps, single map evaluations.

Exit codes: 0 everything passed, 1 at least one suite failed, 2 bad
configuration or bad input.  The seed is taken from --seed when given,
else from the BIDISC_LAB_SEED environment variable, else 42.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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


def _cmd_verify(args: argparse.Namespace) -> int:
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


def _cmd_dump_orbit(args: argparse.Namespace) -> int:
    dump_orbit(parse_orbit_spec(args.spec), args.n, args.out, seed=_resolve_seed(args.seed))
    return 0


# --which: the map, the number of reals in --point, and what the point is
_MAPS = {
    "J": (map_J, 4, '"re,im,re,im" (one bidisc pair)'),
    "H": (map_H, 4, '"re,im,re,im" (one bidisc pair)'),
    "Hinv": (map_H_inv, 6, '"re,im,re,im,re,im" (one affine triple)'),
}


def _cmd_map(args: argparse.Namespace) -> int:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidisc-lab",
        description="numerical checks for the bidisc orbit geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run property suites and report pass/fail")
    v.add_argument("--suite", action="append", metavar="ID", help="suite id; repeatable (default: all)")
    v.add_argument("--seed", type=int, default=None, metavar="N")
    v.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, metavar="N")
    v.add_argument("--rmax", type=float, default=DEFAULT_RMAX, metavar="X")
    v.add_argument(
        "--tol", action="append", default=[], metavar="NAME=X",
        help="per-suite tolerance override; repeatable, once per suite",
    )
    v.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="accepted for compatibility and validated (N >= 1), but without effect: suites run serially",
    )
    v.add_argument("--report", default=None, metavar="PATH", help="write the JSON report here instead of stdout")
    v.set_defaults(func=_cmd_verify)

    d = sub.add_parser("dump-orbit", help="write orbit samples as CSV")
    d.add_argument("--spec", required=True, metavar="SPEC", help="Fa:A | Eta:L | Ellipsoid:T | RealSlice | ComplexCurve")
    d.add_argument("--n", type=int, required=True, metavar="N")
    d.add_argument("--out", required=True, metavar="PATH")
    d.add_argument("--seed", type=int, default=None, metavar="N")
    d.set_defaults(func=_cmd_dump_orbit)

    m = sub.add_parser("map", help="evaluate one of the explicit maps at a point")
    m.add_argument("--which", required=True, choices=_MAPS)
    m.add_argument("--point", required=True, metavar='"re,im,..."')
    m.set_defaults(func=_cmd_map)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
