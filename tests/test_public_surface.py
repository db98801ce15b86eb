"""Every public function and class of every module is exercised by the CLI: by a registered suite, an orbit dump or a map evaluation."""

import importlib
import inspect
import pkgutil
import sys
from functools import cached_property

import pytest

import bidisc_lab
from bidisc_lab import cli
from bidisc_lab.orbits import FAMILIES

DUMP_SPECS = ("Fa:0.8", "Eta:2.125", "Ellipsoid:0.5", "RealSlice", "ComplexCurve")
MAP_CALLS = (("J", "0.5,0,0,0"), ("H", "0.5,0,0,0"), ("Hinv", "2,0,0,2,0,-1"))  # H(0.5, 0) = (2, 2i, -i)
NOT_ON_A_CLI_PATH = {"orbits.orbit_point"}  # the documented entry point for replaying one dump row
BUILT_AT_IMPORT = {"orbits.FamilyRecord"}  # every record of orbits.FAMILIES is built before any CLI call
MODULES = [importlib.import_module(f"bidisc_lab.{m.name}") for m in pkgutil.iter_modules(bidisc_lab.__path__)]


def _run_profiled(argvs):
    """The exit codes of cli.main on each argv, and the code objects of every Python function called."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    return codes, seen


@pytest.fixture(scope="module")
def cli_calls(tmp_path_factory):
    """The code objects that one verify run, a dump of every CLI family and every map evaluation call."""
    tmp_path = tmp_path_factory.mktemp("cli")
    assert {s.partition(":")[0] for s in DUMP_SPECS} == {r.cli for r in FAMILIES if r.cli is not None}
    argvs = [["verify", "--seed", "42", "--samples", "300", "--report", str(tmp_path / "report.json")]]
    # a refused dump, which reads the failed row's message: phi(a) rounds onto phi(0), so the pair is diagonal
    argvs.append(["dump-orbit", "--spec", "Fa:1e-300", "--n", "50", "--out", str(tmp_path / "refused.csv")])
    argvs += [
        ["dump-orbit", "--spec", spec, "--n", "50", "--seed", "42", "--out", str(tmp_path / f"{k}.csv")]
        for k, spec in enumerate(DUMP_SPECS)
    ]
    argvs += [["map", "--which", which, "--point", point] for which, point in MAP_CALLS]
    codes, seen = _run_profiled(argvs)
    assert codes == [0, 2] + [0] * (len(argvs) - 2)
    return seen


def _public(predicate):
    """The public module-level objects of every module that pass predicate, as "module.name", where they are defined."""
    return {
        f"{mod.__name__.rpartition('.')[2]}.{name}": obj
        for mod in MODULES
        for name, obj in vars(mod).items()
        if not name.startswith("_") and predicate(obj) and getattr(obj, "__module__", None) == mod.__name__
    }


def test_every_public_function_is_called_by_the_cli(cli_calls):
    functions = _public(inspect.isfunction)
    assert NOT_ON_A_CLI_PATH <= functions.keys()
    missed = sorted(name for name, fn in functions.items() if fn.__code__ not in cli_calls)
    assert missed == sorted(NOT_ON_A_CLI_PATH)


def _methods(cls):
    """The public methods of cls, properties (cached ones too), class and static methods included, as functions."""
    out = {}
    for name, attr in vars(cls).items():
        if isinstance(attr, cached_property):
            fn = attr.func
        else:
            fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
        if not name.startswith("_") and inspect.isfunction(fn):
            out[name] = fn
    return out


def test_every_public_class_is_built_and_used_by_the_cli(cli_calls):
    """Every public class but the exceptions has its __init__ or __post_init__ run, and each public method.

    A class in BUILT_AT_IMPORT is built before the CLI runs: only its methods are checked.
    """
    classes = _public(lambda obj: inspect.isclass(obj) and not issubclass(obj, BaseException))
    assert BUILT_AT_IMPORT <= classes.keys()
    missed = []
    for name, cls in classes.items():
        constructors = [getattr(cls, "__init__"), getattr(cls, "__post_init__", None)]
        built = any(inspect.isfunction(f) and f.__code__ in cli_calls for f in constructors)
        if not built and name not in BUILT_AT_IMPORT:
            missed.append(f"{name} (never built)")
        missed += [f"{name}.{m}" for m, fn in _methods(cls).items() if fn.__code__ not in cli_calls]
    assert missed == []
