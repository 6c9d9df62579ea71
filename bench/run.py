"""ucqkd benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  An
untraced run repeats whole rounds of the workload's operations until S
seconds have passed (at least one round) and prints the end-to-end
metrics.  A traced run executes one round with every layer wrapped and
prints the per-layer metrics.  Both check the program's outputs and end
with one JSON line: {"correct", "attempted", "failed", "metrics"}.  Each
run also writes its operation records to .bench_out/, and a traced run
its spans.
"""

from __future__ import annotations

import os
import time

_T_IMPORT = time.perf_counter()
BLAS_THREADS = "1"  # the matrices are at most 64 x 64; one thread is fastest and steadiest
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"


def process_age_s() -> float:
    """Seconds since this process started (interpreter start-up included)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_IMPORT


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(ops, seconds: float, one_round: bool, tracer=None):
    """Execute whole rounds; returns (records per round, op times, round times)."""
    rounds, op_wall, round_wall, round_cpu = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        records = []
        w0, c0 = time.perf_counter(), time.process_time()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                rec, failure = op.run()
            except Exception:  # a failed operation is counted, the run goes on
                rec, failure = {}, traceback.format_exc(limit=3)
            op_wall.append(time.perf_counter() - t0)
            records.append({"op": op.name, **rec, "failure": failure})
        round_wall.append(time.perf_counter() - w0)
        round_cpu.append(time.process_time() - c0)
        rounds.append(records)
        if one_round or time.perf_counter() >= deadline:
            return rounds, op_wall, round_wall, round_cpu


def _comparable(records):
    return json.dumps(records, sort_keys=True, default=float)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ucqkd" / "__init__.py").is_file():
        print(f"bench: no program sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np
    import scipy

    from tracing import Tracer, per_layer_metric_names
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    ops = workload.ops()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup_s = process_age_s()

    try:
        rounds, op_wall, round_wall, round_cpu = run_rounds(
            ops, args.seconds, one_round=bool(args.trace), tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    first = rounds[0]
    problems = [f"round {k + 1} differs from round 1" for k, rec in enumerate(rounds[1:], 1)
                if _comparable(rec) != _comparable(first)]
    problems += workload.check([r for r in first if not r["failure"]])
    attempted = len(ops) * len(rounds)
    failed = sum(1 for records in rounds for r in records if r["failure"])

    if args.trace:
        names = per_layer_metric_names()
        values = tracer.metrics(workload.strings_hashed(), round_wall[0])
    else:
        names = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("cpu_s", "s"),
                 ("peak_rss_mb", "MB")]
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(round_wall),
            "op_p50_s": statistics.median(op_wall),
            "cpu_s": statistics.median(round_cpu),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {n: {"value": values[n], "unit": u} for n, u in names}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "round_wall_s": round_wall,
        "round_cpu_s": round_cpu, "op_wall_s": op_wall, "operations": first,
        "problems": problems, "metrics": metrics,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "blas_threads": BLAS_THREADS},
    }
    if args.trace:
        untraced = OUT_DIR / f"run-{stem}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["round_wall_s"][0]
            record["trace_overhead_s"] = round_wall[0] - base
        tracer.save(OUT_DIR / f"trace-{stem}.npz")
    (OUT_DIR / f"run-{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")

    for rec in first:
        print(json.dumps(rec, default=float))
    for msg in problems:
        print("CHECK FAILED:", msg, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
