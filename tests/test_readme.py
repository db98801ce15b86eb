"""README's Python examples run as written and give what the README says they give."""

import ast
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from bidisc_lab import orbits, suites
from bidisc_lab.orbits import MINKOWSKI_LEVEL
from bidisc_lab.suites import SuiteConfig, all_suite_names, verify_all

README = (Path(__file__).parents[1] / "README.md").read_text()
POINT, VERIFY, REPLAY = re.findall(r"```python\n(.*?)```", README, re.S)


def test_the_point_example_gives_its_commented_values():
    """Each line whose comment is a Python literal gives that literal's text: 0.8, map_H's triple, 2.125."""
    ns, checked = {}, []
    for line in POINT.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not comment:
            exec(code, ns)
            continue
        target, eq, expr = code.rpartition(" = ")
        value = eval(expr, ns)
        if eq:
            ns[target] = value
        try:
            ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            assert comment == "(True, margin)" and value[0] is True
            continue
        assert repr(value) == comment
        checked.append(comment)
    assert checked == ["0.8", "((1.25+0j), 0.75j, -0j)", "2.125"]


def test_the_verify_example_passes():
    ns = {}
    exec(VERIFY, ns)
    assert ns["code"] == 0 and ns["report"]["passed"]


def _huge_levi_eta(monkeypatch):
    """levi-eta at the level 1e12, where map_H's check fails rows: a report with hard failures."""
    huge = dataclasses.replace(
        suites._BY_NAME["levi-eta"], fn=suites._levi(MINKOWSKI_LEVEL, np.full(3, 1e12), suites._shortfall)
    )
    monkeypatch.setitem(suites._BY_NAME, "levi-eta", huge)


@pytest.mark.parametrize("hard", [False, True], ids=["residuals", "hard-failures"])
def test_the_replay_block_reproduces_every_recorded_failure(monkeypatch, hard):
    """Given the report's seed, rmax, stream_id and k and a record's suite and index, it gives the record's outcome."""
    if hard:
        _huge_levi_eta(monkeypatch)
        names = ("levi-eta",)
    else:
        names = all_suite_names()
    _, doc = verify_all(SuiteConfig(samples=2000, suites=names, tolerances=dict.fromkeys(names, 1e-300)))
    doc = json.loads(json.dumps(doc))  # as a reader of the report file sees it
    seed, rmax = doc["config"]["seed"], doc["config"]["rmax"]
    replayed = 0
    for entry in doc["suites"]:
        name = entry["suite"]
        stream = doc["rng"]["suites"][name]
        for failure in entry["failures"]:
            ns = dict(seed=seed, rmax=rmax, name=name, i=failure["index"])
            ns.update(stream_id=stream["stream_id"], k=stream["draws_per_sample"])
            exec(REPLAY, ns)
            assert ns["error"] == failure.get("error")
            if ns["error"] is None:
                assert float(ns["residual"][0]) == failure["residual"]
            replayed += 1
    assert replayed == (suites.MAX_FAILURES if hard else 130)


@pytest.mark.parametrize("text", ["Fa:0.8", "Eta:2.125", "Ellipsoid:0.5", "RealSlice", "ComplexCurve"])
def test_the_sentence_after_the_replay_block_reproduces_a_dump_row(tmp_path, text):
    """The block's row function with stream_id = 0, then the README's orbit_points call, gives row i's coordinates."""
    (call,) = re.findall(r"`(orbits\.orbit_points\([^`]*\))` recomputes the dump row", README)
    spec, n = orbits.parse_orbit_spec(text), orbits.BLOCK + 3
    out = tmp_path / "orbit.csv"
    orbits.dump_orbit(spec, n, str(out), seed=7)
    lines = out.read_text().splitlines()
    draw = REPLAY.split("\ncfg = ")[0]  # the imports, the row function and u
    for i in (0, 1, orbits.BLOCK - 1, orbits.BLOCK, n - 1):
        ns = dict(seed=7, stream_id=0, k=spec.record.draws, i=i, spec=spec)
        exec(draw, ns)
        point = eval(call, ns)
        assert all(type(c) is complex for c in point)
        assert lines[1 + i].split(",")[:-1] == [f"{x:.17g}" for c in point for x in (c.real, c.imag)]
