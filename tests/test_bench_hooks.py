"""The benchmark wraps program attributes by name (bench/tracing.py) and
skips a name that no longer resolves, so a rename would silently drop its
metrics and certified records.  Every name it looks up must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
