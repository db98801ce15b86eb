"""bidisc-lab benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation runs ``bench/job.py`` in a fresh single-threaded process
with a time limit, against the sources in ``src/``.  Every operation's
outputs pass a correctness gate and must equal the first operation's
outputs byte for byte (report timings aside); a failure, a crash or a
time-out counts against ``pass_frac``.

With ``--trace 0`` the run prints the end-to-end metrics: the medians of
``wall_s``, ``setup_s`` and ``peak_rss_mb`` over its operations, and
``pass_frac``.  ``wall_s`` and ``setup_s`` are scaled to the reference
host speed by the calibration that each job process runs alongside its
measured work (see ``calib.py``); the raw medians are printed above the
result line.  ``setup_s`` also takes extra set-up-only processes, so
its median rests on enough samples.  With ``--trace 1`` untraced and
traced operations alternate, and the run prints the per-layer metrics
that ``spans.py`` derives from the traced ones.  The metric names and
units are read from ``BENCHMARK.json``; the last line of standard output
is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import REFERENCE_CHUNK_S
from workloads import REPORT_NAME, SUITE_WEIGHTS, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
JOB = Path(__file__).resolve().parent / "job.py"
WORK_DIR = ROOT / ".bench_work"

SETUP_PROBES = 5  # set-up-only processes per untraced run
SETUP_TIMEOUT_S = 20.0
OP_TIMEOUT_S = 120.0  # a run stays under 180 s even when its last operation hangs
EPS = sys.float_info.epsilon
RESIDUAL_EPS_MULTIPLE = 16.0  # orbit-dump gate: residual <= 16 eps times _rounding_scale
DOC_BOUND = 1e-12  # absolute residual bound claimed by the orbits module docstring
MAX_ERRORS = 5


def _median(values):
    return statistics.median(values) if values else 0.0


def _scaled(result: dict, key: str) -> float:
    """``result[key]`` in seconds at the reference host speed; raw for a job that failed before it reported."""
    if "calib_chunk_s" not in result:
        return result[key]
    return result[key] * REFERENCE_CHUNK_S / result["calib_chunk_s"]


class JobFailed(Exception):
    pass


def run_job(workload, seed: int, out_dir: Path, *, setup_only=False, trace=False) -> dict:
    """Run job.py once; returns its JSON result or raises JobFailed."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        BIDISC_LAB_SEED=str(seed),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(JOB), "--workload", workload.name, "--out", str(out_dir)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    timeout = SETUP_TIMEOUT_S if setup_only else OP_TIMEOUT_S
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise JobFailed(f"timed out after {timeout:g} s") from None
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no output)"])[-1]
        raise JobFailed(f"job exited with {proc.returncode}: {tail}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise JobFailed("job printed no result") from None


def check_verify(workload, out_dir: Path) -> tuple[list[str], str, dict]:
    """Gate a verify report; returns (errors, fingerprint, per-layer facts)."""
    raw = (out_dir / REPORT_NAME).read_bytes()
    doc = json.loads(raw)
    expected = workload.expected_samples()
    errors = []
    names = [r["suite"] for r in doc["suites"]]
    if names != list(expected):
        errors.append(f"report lists suites {names}, expected {list(expected)}")
    for r in doc["suites"]:
        if r["passed"] is not True or r["hard_failures"] != 0:
            errors.append(f"{r['suite']}: passed={r['passed']} hard_failures={r['hard_failures']}")
        if r["samples"] != expected.get(r["suite"]):
            errors.append(f"{r['suite']}: {r['samples']} samples, expected {expected.get(r['suite'])}")
    kept = [ln for ln in raw.splitlines(keepends=True) if not ln.lstrip().startswith(b'"wall_time_s":')]
    facts = {
        "samples_per_s": {r["suite"]: r["samples"] / r["wall_time_s"] for r in doc["suites"]},
        "worst_tol_ratio": max(
            (r["max_residual"] / r["tolerance"] for r in doc["suites"] if r["max_residual"] is not None),
            default=0.0,
        ),
    }
    return errors, hashlib.sha256(b"".join(kept)).hexdigest(), facts


def _rounding_scale(spec: str, coords: list[float]) -> float:
    scale = max(1.0, sum(c * c for c in coords))
    if spec.startswith("Fa:"):
        # rho = |z - w| / |1 - conj(z) w| loses digits as a point nears the unit circle
        scale /= 1.0 - max(coords[0] ** 2 + coords[1] ** 2, coords[2] ** 2 + coords[3] ** 2)
    return scale


def check_dump(workload, out_dir: Path) -> tuple[list[str], str, dict]:
    """Gate the orbit CSVs; returns (errors, fingerprint, per-layer facts)."""
    errors = []
    digest = hashlib.sha256()
    over_doc = 0
    nbytes = 0
    for spec in workload.specs:
        raw = workload.csv_path(out_dir, spec).read_bytes()
        digest.update(raw)
        nbytes += len(raw)
        rows = raw.decode("ascii").splitlines()[1:]
        if len(rows) != workload.points:
            errors.append(f"{spec}: {len(rows)} rows, expected {workload.points}")
        for k, line in enumerate(rows):
            *coords, res = (float(x) for x in line.split(","))
            if not (math.isfinite(res) and all(math.isfinite(c) for c in coords)):
                error = f"{spec} row {k}: non-finite value"
            elif res > RESIDUAL_EPS_MULTIPLE * EPS * _rounding_scale(spec, coords):
                error = f"{spec} row {k}: residual {res:.3g} above the rounding gate"
            else:
                error = None
            if error and len(errors) < MAX_ERRORS:
                errors.append(error)
            over_doc += res > DOC_BOUND
    facts = {"bytes_written": nbytes, "rows_over_doc_bound": over_doc}
    return errors, digest.hexdigest(), facts


def run_operation(workload, seed, out_dir, trace, reference) -> dict:
    """Run one operation and gate it; ``reference`` holds the first operation's fingerprint."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    op = {"trace": trace, "errors": []}
    t0 = time.monotonic()
    try:
        op.update(run_job(workload, seed, out_dir, trace=trace))
    except JobFailed as exc:
        op["errors"].append(str(exc))
        op["wall_s"] = time.monotonic() - t0  # a hang or crash still costs its time
        return op
    if any(op["exit_codes"]):
        op["errors"].append(f"CLI exit codes {op['exit_codes']}")
    check = check_verify if workload.is_verify else check_dump
    try:
        errors, fingerprint, op["facts"] = check(workload, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op["errors"].append(f"unreadable output: {type(exc).__name__}: {exc}")
        return op
    op["errors"] += errors
    reference.setdefault("fingerprint", fingerprint)
    if fingerprint != reference["fingerprint"]:
        op["errors"].append("output differs from the first operation of this run")
    if trace:
        counts = {k: v for k, v in op["layers"].items() if isinstance(v, int)}
        reference.setdefault("counts", counts)
        if counts != reference["counts"]:
            op["errors"].append("traced counts differ from the first traced operation")
    return op


def layer_metrics(ops) -> dict:
    traced = [op for op in ops if op["trace"] and "layers" in op]
    plain = [op for op in ops if not op["trace"] and "facts" in op]
    gated = [op for op in ops if "facts" in op]
    m = {k: _median([op["layers"][k] for op in traced]) for k in (traced[0]["layers"] if traced else ())}
    for suite in SUITE_WEIGHTS:
        m[f"suites.{suite}.samples_per_s"] = _median(
            [op["facts"]["samples_per_s"][suite] for op in plain if suite in op["facts"].get("samples_per_s", {})]
        )
    for key, name in (
        ("worst_tol_ratio", "suites.worst_tol_ratio"),
        ("bytes_written", "orbits.bytes_written"),
        ("rows_over_doc_bound", "orbits.rows_over_doc_bound"),
    ):
        m[name] = _median([op["facts"][key] for op in gated if key in op["facts"]])
    traced_wall = _median([op["wall_s"] for op in traced])
    plain_wall = _median([op["wall_s"] for op in plain])
    m["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "bidisc_lab" / "__init__.py").is_file():
        print(f"error: no bidisc_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    out_dir = WORK_DIR / workload.name

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        warm = run_job(workload, args.seed, out_dir, setup_only=True)  # fills __pycache__, untimed
        probes = [] if args.trace else [run_job(workload, args.seed, out_dir, setup_only=True) for _ in range(SETUP_PROBES)]
    except JobFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    print(
        f"machine: nproc={os.cpu_count()} arch={platform.machine()} "
        f"python={platform.python_version()} numpy={warm.get('numpy', 'n/a')}"
    )
    ops: list[dict] = []
    reference: dict = {}
    start = time.monotonic()
    rounds = 0
    # start another round only when it should end within half a round of the deadline
    while rounds == 0 or (time.monotonic() - start) * (1 + 0.5 / rounds) < args.seconds:
        rounds += 1
        for trace in (False, True) if args.trace else (False,):
            op = run_operation(workload, args.seed, out_dir, trace, reference)
            ops.append(op)
            status = "ok" if not op["errors"] else "FAILED: " + "; ".join(op["errors"][:MAX_ERRORS])
            print(
                f"op {len(ops)}{' traced' if trace else ''}: wall {op['wall_s']:.3f} s, "
                f"calibration chunk {op.get('calib_chunk_s', 0.0) * 1e3:.3f} ms, {status}"
            )

    failed = sum(1 for op in ops if op["errors"])
    if args.trace:
        values = layer_metrics(ops)
        wanted = spec["per_layer"]
    else:
        ok_runs = [op for op in ops if "setup_s" in op]
        setups = probes + ok_runs
        print(
            f"raw medians: wall {_median([op['wall_s'] for op in ops]):.4f} s, "
            f"setup {_median([r['setup_s'] for r in setups]):.4f} s, "
            f"calibration chunk {_median([r['calib_chunk_s'] for r in setups]) * 1e3:.3f} ms "
            f"(reference {REFERENCE_CHUNK_S * 1e3:g} ms)"
        )
        values = {
            "wall_s": _median([_scaled(op, "wall_s") for op in ops]),
            "setup_s": _median([_scaled(r, "setup_s") for r in setups]),
            "peak_rss_mb": _median([op["peak_rss_mb"] for op in ok_runs]),
            "pass_frac": (len(ops) - failed) / len(ops),
        }
        wanted = spec["end_to_end"]
    # a metric is missing only when every operation that yields it failed
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
