"""Workload definitions shared by the benchmark runner and its job process.

Every workload is one call sequence of the ``bidisc-lab`` CLI, run with
``--workers 1``.  The seed reaches the program only through the
``BIDISC_LAB_SEED`` environment variable, which ``verify`` and
``dump-orbit`` both read.

The expected per-suite sample counts are kept here, independent of the
program, so that the correctness gate notices a suite that silently
draws fewer samples than it should.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SAMPLES = 10_000  # documented default of `bidisc-lab verify`

# registry order and weights of the 22 suites; the report lists suites in this order
SUITE_WEIGHTS = {
    "rho-invariance": 1.0,
    "H-quadric": 1.0,
    "H-im-condition": 1.0,
    "H-sigma-negation": 1.0,
    "H-roundtrip": 1.0,
    "orbit-levels": 1.0,
    "preimage-formula": 1.0,
    "conjugation-so21": 0.01,
    "swap-is-minus-identity": 0.01,
    "aut-preserves-subdomains": 0.1,
    "su11-orbit-invariant": 0.1,
    "su11-orbit-ellipsoid": 0.1,
    "gt-sphere": 0.1,
    "o21-matrix-B": 0.1,
    "o21-totally-real": 0.1,
    "levi-Fa": 0.06,
    "levi-eta": 0.06,
    "levi-flat-control": 0.02,
    "levi-sphere": 0.02,
    "sym-equivariance": 1.0,
    "J-H-compat": 1.0,
    "alpha-roundtrip": 1.0,
}

POINTWISE_SUITES = (
    "rho-invariance",
    "H-quadric",
    "H-im-condition",
    "H-sigma-negation",
    "H-roundtrip",
    "orbit-levels",
    "preimage-formula",
    "sym-equivariance",
    "J-H-compat",
    "alpha-roundtrip",
)
LEVI_SUITES = ("levi-Fa", "levi-eta", "levi-flat-control", "levi-sphere")

# Eta:2.125 is the level the README uses; at 40,000 points it shows rows
# above the absolute 1e-12 residual that the orbits module docstring promises
ORBIT_SPECS = ("Fa:0.8", "Eta:2.125", "Ellipsoid:0.5", "RealSlice", "ComplexCurve")
ORBIT_POINTS = 40_000

REPORT_NAME = "report.json"


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...] | None = None  # verify: None runs the CLI default (all)
    samples: int | None = None  # verify: None runs the CLI default
    specs: tuple[str, ...] = ()  # dump-orbit: one CLI call per spec
    points: int = 0

    @property
    def is_verify(self) -> bool:
        return not self.specs

    def expected_samples(self) -> dict[str, int]:
        """Suite name -> sample count the report must show, in report order."""
        base = DEFAULT_SAMPLES if self.samples is None else self.samples
        names = tuple(SUITE_WEIGHTS) if self.suites is None else self.suites
        return {s: max(1, int(round(base * SUITE_WEIGHTS[s]))) for s in names}

    def csv_path(self, out_dir: Path, spec: str) -> Path:
        return out_dir / f"{spec.partition(':')[0]}.csv"

    def cli_calls(self, out_dir: Path) -> list[list[str]]:
        """The argv lists passed to ``bidisc_lab.cli.main``, in order."""
        if self.is_verify:
            argv = ["verify", "--workers", "1", "--report", str(out_dir / REPORT_NAME)]
            if self.samples is not None:
                argv += ["--samples", str(self.samples)]
            for s in self.suites or ():
                argv += ["--suite", s]
            return [argv]
        return [
            ["dump-orbit", "--spec", spec, "--n", str(self.points), "--out", str(self.csv_path(out_dir, spec))]
            for spec in self.specs
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-default"),
        Workload("pointwise-bulk", suites=POINTWISE_SUITES, samples=12_000),
        Workload("levi-stencil", suites=LEVI_SUITES, samples=20_000),
        Workload("orbit-dump", specs=ORBIT_SPECS, points=ORBIT_POINTS),
    )
}
