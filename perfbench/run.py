#!/usr/bin/env python3
"""Benchmark of structseg: training steps, checkpoint evaluation and the
verification suites, driven through the program's public functions.

    python3 perfbench/run.py --workload train_preset --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Each run starts fresh processes one after another: for
``evaluate`` one that trains the checkpoint, then the measuring process
with (for ``--trace 0``) processes that only set up before and after it,
so that ``setup_s`` is a median. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("train_preset", "train_default", "evaluate", "verify")
SETUP_SAMPLES = 7   # set-ups per untraced run, the measuring one included
DEADLINE_S = 170.0  # every process of a run has ended by then


class RunError(Exception):
    pass


def child(role, args, deadline, checkpoint=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if checkpoint:
        cmd += ["--checkpoint", checkpoint]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"no time left for the {role} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"the {role} process did not end in time") from None
    if proc.returncode != 0:
        raise RunError(f"the {role} process exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"the {role} process printed nothing")
    return json.loads(lines[-1])


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    checkpoint = None
    if args.workload == "evaluate":
        checkpoint = os.path.join(OUT, f"evaluate-seed{args.seed}.bin")
        child("checkpoint", args, deadline, checkpoint)
    # Half of the set-up processes run before the measuring one and half
    # after, so that the samples see the machine at different times.
    n_setup = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [child("setup", args, deadline, checkpoint)["setup_s"]
              for _ in range(n_setup // 2)]
    main = child("main", args, deadline, checkpoint)
    setups.append(main["setup_s"])
    setups += [child("setup", args, deadline, checkpoint)["setup_s"]
               for _ in range(n_setup - n_setup // 2)]
    if args.trace:
        metrics = main["layers"]
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **main["metrics"]}
    result = {"correct": main["correct"], "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, setup_samples_s=setups,
                  timed_ops=main["timed_ops"], op_ms=main["op_ms"],
                  traced_end_to_end=main["metrics"] if args.trace else None,
                  environment_before=main["environment_before"],
                  environment_after=main["environment_after"])
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "structseg", "__init__.py")):
        print(f"no structseg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RunError as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
