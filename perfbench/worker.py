"""One process of a benchmark run; ``run.py`` starts it.

Roles:
    checkpoint  train the evaluation checkpoint (evaluate workload only)
    setup       set up, run the warm-up operations, report set-up time
    main        set up, then time operations for the run length, check
                every operation's outputs and report the metrics

The last line of standard output is one JSON object.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time

import numpy as np

import tracing
from run import DEADLINE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_TIMED_OPS = 100  # op_ms_p90 then has at least ten samples beyond it
# The timed loop stops by then whatever the count, which leaves time for the
# set-up processes that run.py starts after the measuring one.
LOOP_CAP_S = DEADLINE_S - 60.0


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg": os.getloadavg(),
    }


def import_structseg():
    sys.path.insert(0, SRC)
    import workloads  # imports structseg
    import structseg
    if not os.path.abspath(structseg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"structseg was imported from {structseg.__file__}, not {SRC}")
    return workloads


def run(args) -> dict:
    env_before = environment()
    tracer = tracing.Tracer(enabled=args.trace == 1 and args.role == "main")
    if args.role == "checkpoint":
        workloads = import_structseg()
        workloads.make_checkpoint(args.checkpoint, args.seed)
        workloads.write_expected_scores(args.checkpoint)
        return {"checkpoint": args.checkpoint}

    t0 = time.perf_counter()
    workloads = import_structseg()
    wl = workloads.make(args.workload, args.seed, tracer, args.checkpoint)
    workloads.instrument(tracer)
    wl.setup()
    for k in range(workloads.WARMUP_OPS):
        wl.op(k)
    setup_s = time.perf_counter() - t0
    if args.role == "setup":
        return {"setup_s": setup_s}

    op_s, cpu_s, fails = [], [], []
    timed = []  # attempt number of each timed operation
    attempted = failed = 0
    k = workloads.WARMUP_OPS
    max_seconds = max(args.seconds, LOOP_CAP_S)
    loop_start = time.perf_counter()
    while not wl.exhausted():
        tracer.op = tracing.CHECK_OP
        wl.prepare(k)
        tracer.op = attempted
        attempted += 1
        c0 = time.process_time()
        s0 = time.perf_counter()
        try:
            result = wl.op(k)
        except Exception as e:  # counted as a failed operation, the run goes on
            failed += 1
            fails.append(f"operation {k} raised {e!r}")
            result = None
        s1 = time.perf_counter()
        c1 = time.process_time()
        tracer.op = tracing.CHECK_OP
        if result is not None:
            timed.append(attempted - 1)
            op_s.append(s1 - s0)
            cpu_s.append(c1 - c0)
            fails += wl.check(k, result)
        k += 1
        elapsed = s1 - loop_start
        if elapsed >= max_seconds:
            break
        if elapsed >= args.seconds and len(op_s) >= MIN_TIMED_OPS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fails += wl.final_checks()
    for f in fails[:20]:
        print(f"check failed: {f}", file=sys.stderr)
    if len(op_s) < MIN_TIMED_OPS:
        print(f"only {len(op_s)} timed operations; op_ms_p90 has fewer than ten "
              f"samples beyond it", file=sys.stderr)

    n = len(op_s)
    metrics = {}
    if n >= 2:
        ms = [1e3 * s for s in op_s]
        metrics = {
            "ops_per_s": {"value": n / sum(op_s), "unit": "1/s"},
            "op_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
            "op_ms_p90": {"value": percentile(ms, 90), "unit": "ms"},
            "cpu_ms_per_op": {"value": 1e3 * sum(cpu_s) / n, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        fails.append(f"only {n} operations timed")
    out = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "metrics": metrics,
        "timed_ops": n,
        "op_ms": [1e3 * s for s in op_s],
        "environment_before": env_before,
        "environment_after": environment(),
    }
    if tracer.enabled:
        out["layers"] = tracer.layer_metrics(timed)
        stem = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
        tracer.write_spans(stem + ".jsonl")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--role", choices=("checkpoint", "setup", "main"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--checkpoint")
    args = p.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
