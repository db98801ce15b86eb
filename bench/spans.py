"""Span tracer for the benchmark's traced runs.

The tracer wraps every public function of each ``bidisc_lab`` layer in
every module that holds a reference to it.  ``from .rng import
sample_disc`` binds a separate name in each importing module, and the
Levi stencil looks ``value`` up as a module global, so patching only the
defining module would miss most calls.  ``RngStream.__init__`` is
patched on the class, and the stream's generator is replaced by a proxy
that counts the candidate draws the rejection samplers make.

Spans (name, parent, start, end) are kept in flat arrays in memory and
written out once the job has ended.  A span's self time is its duration
minus the durations of its children; the job is single-threaded, so the
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("rng", "mobius", "domains", "maps", "groups", "levi", "orbits", "suites")
STREAM_SPAN = "rng.RngStream"
REPORT_WRITE_SPAN = "suites.report_write"
REJECTION_SAMPLERS = ("rng.sample_disc", "rng.sample_ball", "rng.sample_real_pair")
PER_CALL_LAYERS = ("mobius", "domains", "maps", "groups", "orbits")


class _CountingGen:
    """Stands in for a stream's numpy Generator and counts rejection candidates."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def uniform(self, *args, **kwargs):
        self._tracer.count_candidate()
        return self._gen.uniform(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``suites`` to time the report write."""

    def __init__(self, json_module, dump):
        self._json = json_module
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._json, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.candidates = 0
        self._rejection_ids = {self._intern(n) for n in REJECTION_SAMPLERS}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count_candidate(self) -> None:
        top = self._stack[-1]
        if top >= 0 and self.name_id[top] in self._rejection_ids:
            self.candidates += 1

    def span(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        nid = self._intern(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch the imported ``bidisc_lab`` package in place."""
        pkg = importlib.import_module("bidisc_lab")
        mods = {name: importlib.import_module(f"bidisc_lab.{name}") for name in LAYERS}
        holders = [pkg, importlib.import_module("bidisc_lab.cli"), *mods.values()]
        wrapped = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self.span(f"{layer}.{name}", obj))
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(holder, name, hit[1])

        stream_cls = mods["rng"].RngStream
        timed_init = self.span(STREAM_SPAN, stream_cls.__init__)

        def init(stream, *args, **kwargs):
            timed_init(stream, *args, **kwargs)
            stream.gen = _CountingGen(stream.gen, self)

        stream_cls.__init__ = init
        suites = mods["suites"]
        suites.json = _JsonProxy(suites.json, self.span(REPORT_WRITE_SPAN, suites.json.dump))

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and ratios, keyed by metric name."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = par >= 0
        covered = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        self_s = dict(zip(self.names, np.bincount(nid, weights=dur - covered, minlength=k).tolist()))
        total_s = dict(zip(self.names, np.bincount(nid, weights=dur, minlength=k).tolist()))
        calls = dict(zip(self.names, np.bincount(nid, minlength=k).tolist()))

        def layer_sum(table, prefix):
            return sum(v for n, v in table.items() if n.startswith(prefix))

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {}
        m["rng.stream_setup_s"] = self_s.get(STREAM_SPAN, 0.0)
        m["rng.streams"] = calls.get(STREAM_SPAN, 0)
        m["rng.us_per_stream"] = 1e6 * ratio(m["rng.stream_setup_s"], m["rng.streams"])
        m["rng.sample_s"] = layer_sum(self_s, "rng.sample_")
        m["rng.sample_calls"] = layer_sum(calls, "rng.sample_")
        m["rng.us_per_sample_call"] = 1e6 * ratio(m["rng.sample_s"], m["rng.sample_calls"])
        accepted = sum(calls.get(n, 0) for n in REJECTION_SAMPLERS)
        m["rng.accept_ratio"] = ratio(accepted, self.candidates)
        for layer in PER_CALL_LAYERS:
            m[f"{layer}.self_s"] = layer_sum(self_s, f"{layer}.")
            m[f"{layer}.calls"] = layer_sum(calls, f"{layer}.")
            m[f"{layer}.us_per_call"] = 1e6 * ratio(m[f"{layer}.self_s"], m[f"{layer}.calls"])
        points = calls.get("levi.levi_restricted", 0)
        m["levi.self_s"] = layer_sum(self_s, "levi.")
        m["levi.points"] = points
        m["levi.value_calls_per_point"] = ratio(calls.get("levi.value", 0), points)
        m["levi.hessian_s"] = total_s.get("levi.complex_hessian", 0.0)
        m["levi.us_per_hessian"] = 1e6 * ratio(m["levi.hessian_s"], calls.get("levi.complex_hessian", 0))
        m["levi.tangent_s"] = total_s.get("levi.complex_tangent", 0.0)
        m["orbits.csv_s"] = self_s.get("orbits.dump_orbit", 0.0)
        m["suites.self_s"] = layer_sum(self_s, "suites.")
        m["suites.report_s"] = total_s.get("suites.report_document", 0.0) + total_s.get(REPORT_WRITE_SPAN, 0.0)
        return m
