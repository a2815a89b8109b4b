"""The repository's benchmark: one named workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-2d --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``serve-mixed`` — ``repro serve`` in its own process; open-loop reads
  from one client beside sliding-window writes from another;
* ``cold-2d`` — library: a fresh engine on a new 2-D database, then a
  boolean, a projection and a region-quantified query;
* ``fixpoint-1d`` — library: RegLFP connectivity and compiled datalog
  reachability over 1-D interval chains.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics.  With ``--trace 1`` the workload runs
untraced for half the time and then, in a fresh process with the same
seed, under span recording for the other half; the object holds the
per-layer metrics, and ``trace_overhead_frac`` compares the two halves.
Every answer is checked; the exit code is 1 on any wrong or failed
operation, 3 when the trace fails its own checks, 4 when the load
generator fell behind its schedule, 2 on bad usage or a checkout
without the program.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile

import common
import layers

#: End-to-end metrics and their units, in the order BENCHMARK.json
#: lists them: the gated ones, in the JSON line.
END_TO_END = {
    "setup_s": "s",
    "cpu_per_op_refs": "refs",
    "peak_rss_mb": "MiB",
}

#: Metrics printed in the text lines but not in the JSON line, so no
#: bound gates them: the raw CPU time per operation and the reference
#: time it is divided by, and the wall-clock metrics, which on a shared
#: 2-core host follow the host's speed and moved by more than half of
#: their median between runs of the same code (see README.md).  The
#: tails are printed with their percentile and sample count.
PRINTED = {
    "cpu_ms_per_op": "ms",
    "reference_piece_ms": "ms",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "visible_p50_ms": "ms",
}

WORKLOADS = (layers.SERVE, layers.COLD, layers.FIXPOINT)


def _run(args, root: pathlib.Path, run_dir: pathlib.Path) -> dict:
    if args.workload == layers.SERVE:
        import serve

        return serve.run(args.seed, args.seconds, bool(args.trace), root,
                         run_dir)
    import library

    return library.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), root, run_dir)


def _report(args, result: dict) -> None:
    """Human-readable lines before the JSON line."""
    attempted = result["attempted"]
    errors = result["failed"] + result["refused"] + result["wrong"]
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    print(f"attempted {attempted}  failed {result['failed']}  "
          f"refused {result['refused']}  wrong {result['wrong']}  "
          f"error_frac {errors / max(attempted, 1):.4f}")
    for problem in result.get("problems", [])[:20]:
        print(f"  wrong: {problem}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    for name, value in result["printed"].items():
        print(f"{name} = {value:.6g} {PRINTED[name]} (not gated)")
    for name, (value, percentile, count) in result["tails"].items():
        print(f"{name}: p{percentile:.1f} of {count} samples = "
              f"{value:.3f} ms (not gated)")
    for name, value in result.get("notes", {}).items():
        print(f"{name} = {value}")
    if args.trace:
        for name in layers.metric_names():
            print(f"  {name} = {result['layers'][name]:.6g} "
                  f"{layers.unit_of(name)}")
        for layer, (moves, workload) in layers.MOVES.items():
            print(f"  moves: {layer} -> {moves} ({workload})")
        for problem in result["trace_problems"]:
            print(f"  trace: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout with src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    common.keep_off_work_cpu()
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        result = _run(args, root, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    _report(args, result)
    if result.get("invalid"):
        print(f"invalid run: {result['invalid']}", file=sys.stderr)
        return 4
    if args.trace and result["trace_problems"]:
        return 3
    errors = result["failed"] + result["refused"] + result["wrong"]
    if args.trace:
        metrics = {
            name: {"value": result["layers"][name],
                   "unit": layers.unit_of(name)}
            for name in layers.metric_names()
        }
    else:
        metrics = {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": errors,
        "metrics": metrics,
    }))
    return 0 if errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
