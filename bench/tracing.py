"""Per-layer tracing from outside the program.

The program is not modified.  A traced run replaces the module attributes
that callers look up (for example `optimize.solve_linear_sdp`, or
`herm_eig` in every module that imported it) with wrappers that time each
call.  A layer's self time is its span minus the time of the traced spans
it called.  Spans (name, start, end, parent, operation) are kept in memory
and written out when the run ends.  Leaf functions called millions of
times (the `matfun`, `hashing` and `fields` kernels) are counted and timed
but not stored as spans, which keeps a trace of one key-length point to a
few megabytes.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import time
from array import array

import numpy as np

PACKAGE_MODULES = ("b92", "cli", "compression", "entropies", "fields", "hashing",
                   "matfun", "optimize", "schur_weyl")

# (layer metric prefix, module, attribute, store spans?)
LAYERS = (
    ("b92.universal_key_length", "b92", "universal_key_length", True),
    ("b92.conventional_key_length", "b92", "conventional_key_length", True),
    ("b92.asymptotic_rates", "b92", "asymptotic_rates", True),
    ("b92.devetak_winter_rate", "b92", "devetak_winter_rate", True),
    ("b92.rstar_upper_bound", "b92", "rstar_upper_bound", True),
    ("optimize.sequential_linearization", "optimize", "sequential_linearization", True),
    ("optimize.solve_linear_sdp", "optimize", "solve_linear_sdp", True),
    ("optimize.phase_one", "optimize", "_phase_one", True),
    ("optimize.renyi_objective_and_gradient", "optimize", "renyi_objective_and_gradient", True),
    ("optimize.von_neumann_objective_and_gradient", "optimize",
     "von_neumann_objective_and_gradient", True),
    ("optimize.facial_reduce", "optimize", "facial_reduce", True),
    ("optimize.tilted_projection", "optimize", "tilted_projection", True),
    ("optimize.weight_solve", "optimize", "minimize", True),
    ("matfun.herm_eig", "matfun", "herm_eig", False),
    ("matfun.mpow", "matfun", "mpow", False),
    ("matfun.frechet_derivative", "matfun", "frechet_derivative", False),
    ("entropies.conditional_renyi_sibson", "entropies", "conditional_renyi_sibson", True),
    ("compression.exact_error_probability", "compression", "exact_error_probability", True),
    ("compression.build_decoder_povm", "compression", "build_decoder_povm", True),
    ("compression.operator_division_on_support", "compression",
     "operator_division_on_support", False),
    ("compression.theorem_bound", "compression", "theorem_bound", True),
    ("hashing.hash_apply", "hashing", "hash_apply", False),
    ("schur_weyl.sigma_for_string", "schur_weyl", "sigma_for_string", True),
    ("schur_weyl.universal_symmetric_state", "schur_weyl", "universal_symmetric_state", True),
    ("schur_weyl.permutation_operator", "schur_weyl", "permutation_operator", False),
    ("fields.GaloisField.mat_mul", "fields", "GaloisField.mat_mul", False),
)

# SciPy's minimize is rebound only where the program calls it for weight solves.
ONLY_IN = {"optimize.weight_solve": ("optimize", "b92")}

EXTRA_METRICS = (
    ("b92.rstar_upper_bound.calls", "count"),
    ("optimize.sequential_linearization.outer_iters", "count"),
    ("optimize.sequential_linearization.max_outer_hits", "count"),
    ("optimize.sequential_linearization.rel_gap", "ratio"),
    ("optimize.phase_one.calls_per_set", "ratio"),
    ("optimize.weight_solve.nfev", "count"),
    ("hashing.hash_apply.per_string", "ratio"),
)


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for prefix, _, _, _ in LAYERS:
        if prefix != "b92.rstar_upper_bound":
            names += [(prefix + ".calls", "count"), (prefix + ".self_s", "s")]
    return names + list(EXTRA_METRICS) + [("trace.wall_s", "s")]


def _modules():
    return {name: importlib.import_module("ucqkd." + name) for name in PACKAGE_MODULES}


def _set_key(fs) -> tuple:
    mats = [(np.asarray(m).tobytes(), float(v)) for m, v in list(fs.eq) + list(fs.ineq)]
    return fs.dim, float(fs.trace), len(fs.eq), tuple(mats)


class Tracer:
    """Installs timing wrappers, accumulates calls and self time per layer,
    and keeps the stored spans in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.span_name, self.span_parent, self.span_op = array("i"), array("i"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self.op = -1
        self._stack: list[list] = []  # [child time, stored span index or -1]
        self._restore: list[tuple] = []
        self.outer_iters = 0
        self.max_outer_hits = 0
        self.rel_gaps: list[float] = []
        self.phase_one_sets: set = set()
        self.nfev = 0

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        mods = _modules()
        hooks = {
            "optimize.sequential_linearization": self._on_linearization,
            "optimize.phase_one": self._on_phase_one,
            "optimize.weight_solve": self._on_weight_solve,
        }
        for prefix, mod_name, attr, store in LAYERS:
            owner = mods[mod_name]
            if "." in attr:  # a method: rebind it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = [mods[m] for m in ONLY_IN.get(prefix, PACKAGE_MODULES)]
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(prefix, original, store, hooks.get(prefix))
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, name, value))
                        setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, value in reversed(self._restore):
            setattr(target, name, value)
        self._restore.clear()

    def _wrap(self, prefix, fn, store, hook):
        nid = len(self.names)
        self.names.append(prefix)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        starts, ends = self.span_start, self.span_end
        sig = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            idx = -1
            if store:
                idx = len(starts)
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_op.append(self.op)
                starts.append(0.0)
                ends.append(0.0)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if store:
                    starts[idx], ends[idx] = t0, t1
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return wrapper

    # -- counters taken at layer boundaries --------------------------------

    def _on_linearization(self, args, res) -> None:
        self.outer_iters += res.iterations
        stop = max(args["tol"], 2.0 * args["sdp_gap_tol"])
        if res.iterations >= args["max_outer"] and res.gap > stop:
            self.max_outer_hits += 1
        self.rel_gaps.append(res.gap / max(abs(res.upper_bound), 1e-300))

    def _on_phase_one(self, args, _res) -> None:
        self.phase_one_sets.add(_set_key(args["fs"]))

    def _on_weight_solve(self, _args, res) -> None:
        self.nfev += int(res.nfev)

    # -- results -----------------------------------------------------------

    def metrics(self, strings_hashed: int, wall_s: float) -> dict[str, float]:
        by_name = {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s)}
        out = {}
        for prefix, _, _, _ in LAYERS:
            c, s = by_name.get(prefix, (0, 0.0))
            out[prefix + ".calls"] = c
            if prefix != "b92.rstar_upper_bound":
                out[prefix + ".self_s"] = s
        out["optimize.sequential_linearization.outer_iters"] = self.outer_iters
        out["optimize.sequential_linearization.max_outer_hits"] = self.max_outer_hits
        out["optimize.sequential_linearization.rel_gap"] = (
            statistics.median(self.rel_gaps) if self.rel_gaps else 0.0)
        p1 = by_name.get("optimize.phase_one", (0, 0.0))[0]
        out["optimize.phase_one.calls_per_set"] = (
            p1 / len(self.phase_one_sets) if self.phase_one_sets else 0.0)
        out["optimize.weight_solve.nfev"] = self.nfev
        hashes = by_name.get("hashing.hash_apply", (0, 0.0))[0]
        out["hashing.hash_apply.per_string"] = hashes / strings_hashed if strings_hashed else 0.0
        out["trace.wall_s"] = wall_s
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            parent=np.frombuffer(self.span_parent, np.int32),
            op=np.frombuffer(self.span_op, np.int32),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
        )


@contextlib.contextmanager
def capture(module, attr: str):
    """Record (arguments, result) of every call to module.attr in the block.

    Used by untraced runs too, to report certified numbers that the
    program's result records do not carry.  Yields an empty list if the
    attribute no longer exists.
    """
    seen: list[tuple] = []
    original = getattr(module, attr, None)
    if original is None:
        yield seen
        return

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append((args, kwargs, result))
        return result

    setattr(module, attr, wrapper)
    try:
        yield seen
    finally:
        setattr(module, attr, original)
