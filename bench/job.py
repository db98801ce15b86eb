"""One benchmark operation, run by ``run.py`` in a fresh process.

Usage: job.py --workload NAME --out DIR --t0 T [--setup-only] [--trace]

T is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so ``setup_s`` runs
from process start until ``bidisc_lab`` is imported and the workload's
configuration is validated.  The seed arrives in ``BIDISC_LAB_SEED``.
The job then calls ``bidisc_lab.cli.main`` once per CLI call of the
workload and prints one JSON line with its measurements.

Untraced, the job runs the host-speed calibration of ``calib.py`` while
the CLI calls run; ``wall_s`` leaves the calibration chunks out, and
their mean time is reported as ``calib_chunk_s``.  A set-up-only job
runs a burst of chunks after set-up instead.  Traced jobs do not
calibrate, so that no chunk lands in a span.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from calib import MIN_CHUNKS, Calibrator
from workloads import WORKLOADS


def _setup(workload, src: Path):
    import bidisc_lab
    from bidisc_lab import cli
    from bidisc_lab.orbits import parse_orbit_spec
    from bidisc_lab.suites import SuiteConfig, all_suite_names, validate_config

    if Path(bidisc_lab.__file__).resolve().parent != src / "bidisc_lab":
        raise SystemExit(f"job: imported bidisc_lab from {bidisc_lab.__file__}, not from {src}")
    seed = int(os.environ["BIDISC_LAB_SEED"])
    if workload.is_verify:
        sized = {} if workload.samples is None else {"samples": workload.samples}
        validate_config(SuiteConfig(seed=seed, suites=workload.suites or all_suite_names(), workers=1, **sized))
    else:
        for spec in workload.specs:
            parse_orbit_spec(spec)
    return cli


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--t0", required=True, type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    src = Path(__file__).resolve().parents[1] / "src"

    cli = _setup(workload, src)
    result = {"setup_s": time.monotonic() - args.t0, "numpy": sys.modules["numpy"].__version__}
    if args.setup_only:
        calibrator = Calibrator()
        calibrator.burst()
        result["calib_chunk_s"] = calibrator.mean_chunk_s()
        print(json.dumps(result))
        return 0

    calls = workload.cli_calls(args.out)

    def job():
        return [cli.main(argv) for argv in calls]

    tracer = calibrator = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        job = tracer.span("bench.job", job)
    else:
        calibrator = Calibrator()
    start = time.perf_counter()
    if calibrator is not None:
        calibrator.start()
    codes = job()
    if calibrator is not None:
        calibrator.stop()
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["exit_codes"] = codes
    if calibrator is not None:
        result["wall_s"] -= calibrator.chunk_s
        calibrator.burst(max(0, MIN_CHUNKS - calibrator.chunks))
        result["calib_chunk_s"] = calibrator.mean_chunk_s()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.save(args.out / "spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
