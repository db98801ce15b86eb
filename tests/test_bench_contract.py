"""The traced benchmark job still runs on this tree.

``bench/spans.py`` profiles the package through names it looks up and
patches: the public functions of each layer, ``rng.RngStream`` and
``suites.json``.  A deletion that broke one of them would otherwise
show only when the benchmark runs; this test installs the tracer as a
traced benchmark job does and runs one short verify and one short dump.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

JOB = """
import json, sys
sys.path.insert(0, {bench!r})
from spans import Tracer
tracer = Tracer()
tracer.install()
from bidisc_lab import cli
codes = [
    cli.main(["verify", "--workers", "1", "--samples", "50", "--report", {report!r}]),
    cli.main(["dump-orbit", "--spec", "Fa:0.8", "--n", "100", "--out", {csv!r}]),
]
print(json.dumps({{"codes": codes, "layers": tracer.layer_metrics()}}))
"""


def test_the_traced_benchmark_job_runs_a_verify_and_a_dump(tmp_path):
    job = JOB.format(bench=str(ROOT / "bench"), report=str(tmp_path / "report.json"), csv=str(tmp_path / "fa.csv"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), BIDISC_LAB_SEED="42")
    proc = subprocess.run([sys.executable, "-c", job], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["layers"]["levi.points"] > 0
    # levi_restricted evaluates r once, for its on-surface check, and contracts the record's Hessian
    assert result["layers"]["levi.value_calls_per_point"] == 1
    assert result["layers"]["levi.hessian_s"] > 0
    assert result["layers"]["orbits.csv_s"] > 0
