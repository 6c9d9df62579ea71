"""The benchmark wraps program attributes by name (bench/tracing.py) and
skips a name that no longer resolves, so a rename would silently drop its
metrics and certified records.  Every name it looks up must exist, and a
wrapped name must still be the one the program calls."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from ucqkd import optimize
from ucqkd.optimize import FeasibleSet, solve_linear_sdp

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# attributes the workloads capture directly (bench/workloads.py)
CAPTURED = (("b92", "rstar_upper_bound"), ("b92", "_maximize_entropy"))


@pytest.mark.parametrize(
    "mod_name,attr",
    list(dict.fromkeys([(m, a) for _, m, a, _ in _load_tracing().LAYERS] + list(CAPTURED))),
)
def test_bench_hook_resolves(mod_name, attr):
    owner = importlib.import_module("ucqkd." + mod_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"ucqkd.{mod_name}.{attr} does not exist"
    assert callable(owner)


def test_tracer_counts_phase_one_once_per_set():
    # the tracer wraps optimize._phase_one by name; the cached phase-one
    # point must still go through that name, or the metric would read 0
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    fs = FeasibleSet(dim=2, ineq=[(np.diag([1.0, 0.0]), 0.6)])
    tracer.install()
    try:
        solve_linear_sdp(np.diag([1.0, -1.0]), fs)
        solve_linear_sdp(np.array([[0.0, 1.0], [1.0, 0.0]]), fs)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0, 0.0)
    assert metrics["optimize.phase_one.calls"] == 1
    assert metrics["optimize.phase_one.calls_per_set"] == 1.0


def test_hooked_argument_and_result_names_exist():
    # the tracer's hooks bind these arguments by name and read these result
    # fields, so a rename would crash only traced runs
    assert "fs" in inspect.signature(optimize._phase_one).parameters
    params = inspect.signature(optimize.sequential_linearization).parameters
    assert {"tol", "max_outer", "sdp_gap_tol"} <= set(params)
    fields = {f.name for f in dataclasses.fields(optimize.MaximizeResult)}
    assert {"iterations", "upper_bound"} <= fields
    assert isinstance(inspect.getattr_static(optimize.MaximizeResult, "gap"), property)
