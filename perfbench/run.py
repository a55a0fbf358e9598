"""The repository's benchmark: one workload per run, one JSON result line.

::

    python3 perfbench/run.py --server-cache-bytes 14000 --slo-ms 300 \\
        --workload read-hot --seed 7 --seconds 20 --trace 0

Workloads: ``ingest``, ``read-hot``, ``serve-mixed`` (see
``workloads.py`` and ``README.md``).  ``--trace 0`` measures the
end-to-end metrics with no probes installed; ``--trace 1`` runs the
same workload with spans around every layer boundary and reports the
per-layer metrics instead.  The last line of standard output is the
result object; the line before it carries the environment, the
per-kind figures and the raw span totals.

``--workload all`` runs every workload untraced and traced and prints
every metric by name and unit, with the tracing overhead (traced minus
untraced) of each end-to-end figure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch archives live in the checkout (and in .gitignore).
TMP = os.path.join(ROOT, ".perfbench-tmp")

WORKLOAD_NAMES = ("ingest", "read-hot", "serve-mixed")

#: name -> unit; every run with ``--trace 0`` reports all of them.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
    "stored_bytes_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--server-cache-bytes",
        type=int,
        required=True,
        help="REPRO_CHUNK_CACHE_BYTES of the serve-mixed server",
    )
    parser.add_argument(
        "--slo-ms",
        type=float,
        required=True,
        help="serve-mixed latency limit for slo_miss_frac",
    )
    return parser.parse_args(argv)


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    from repro.storage.cache import chunk_cache

    import workloads

    tmp = os.path.join(TMP, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        tmp=tmp,
        trace=bool(args.trace),
        server_cache_bytes=args.server_cache_bytes,
        slo_ms=args.slo_ms,
    )
    started = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        ctx.tracer.restore()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP)
        except OSError:
            pass  # another run's scratch is still there

    env = {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "chunk_cache_bytes": chunk_cache().max_bytes,
        "flush_policy": workloads.FLUSH_POLICY,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_wall_s": time.perf_counter() - started,
    }
    env.update(outcome.env)
    detail = dict(outcome.detail)
    detail["failed_frac"] = (outcome.failed / max(1, outcome.attempted), "share")
    end_to_end = {
        name: {"value": value, "unit": END_TO_END[name]}
        for name, value in outcome.end_to_end().items()
    }
    if args.trace:
        import layers

        metrics = {
            name: {"value": outcome.layers[name], "unit": unit}
            for name, unit in layers.PER_LAYER.items()
        }
    else:
        metrics = end_to_end
    for problem in outcome.problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "env": env,
                "end_to_end": end_to_end,
                "detail": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in detail.items()
                },
                "spans": outcome.spans,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, as child runs of this script."""
    report = {}
    for workload in WORKLOAD_NAMES:
        report[workload] = {}
        for trace in (0, 1):
            command = [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
                "--server-cache-bytes", str(args.server_cache_bytes),
                "--slo-ms", str(args.slo_ms),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"perfbench: {workload} --trace {trace} failed", file=sys.stderr)
                return 1
            report[workload][trace] = (json.loads(lines[-2]), json.loads(lines[-1]))

    for workload, runs in report.items():
        (plain_info, plain), (traced_info, traced) = runs[0], runs[1]
        print(f"== {workload}  (attempted {plain['attempted']}, failed {plain['failed']}; "
              f"traced: attempted {traced['attempted']}, failed {traced['failed']})")
        print("   end to end (tracing off)              value         traced      overhead")
        figures = dict(plain["metrics"])
        figures.update(plain_info["detail"])
        traced_figures = dict(traced_info["end_to_end"])
        traced_figures.update(traced_info["detail"])
        for name, figure in figures.items():
            line = f"   {name:<34} {figure['value']:>12.4f} {figure['unit']:<8}"
            other = traced_figures.get(name)
            if other is not None and figure["unit"] in ("ms", "s"):
                line += f" {other['value']:>10.4f}  {other['value'] - figure['value']:>+10.4f}"
            print(line)
        print("   per layer (traced run)")
        for name, figure in traced["metrics"].items():
            print(f"   {name:<42} {figure['value']:>12.4f} {figure['unit']}")
        env = plain_info["env"]
        print("   env: " + ", ".join(f"{key}={value}" for key, value in env.items()))
    print(json.dumps({workload: {"untraced": runs[0][1], "traced": runs[1][1]}
                      for workload, runs in report.items()}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources under src/repro", file=sys.stderr)
        return 2
    # A terminated run still stops its server and removes its archives.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
