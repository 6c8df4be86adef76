"""ProbKB end-to-end benchmark: one workload per invocation.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` wraps each layer's public functions and reports the
per-layer metrics instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
An output-check failure prints that line with no metrics and exits 1.
Full records (host, versions, samples, per-layer table) and traces go
to ``.perfbench/`` at the repository root.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def source_digest() -> str:
    """sha256 over the program's and the benchmark's source files:
    identifies the version measured where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_record(run, source_sha256: str) -> dict:
    import numpy

    return {
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_sha256,
        "workload": run.workload,
        "seed": run.seed,
        "scale": run.scale.name,
        "executor_engine": run.engine,
    }


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from inputs import SCALES
    from workloads import WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="'tiny' is for the benchmark's own tests")
    parser.add_argument("--state-dir", type=Path, default=ROOT / ".perfbench",
                        help="digests of earlier runs, records and traces")
    args = parser.parse_args(argv)

    version = source_digest()
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       SCALES[args.scale], args.state_dir, version)
    import report

    record = host_record(run, version)
    correct = run.failed == 0
    metrics: dict = {}
    if correct:
        if args.trace:
            values, units = report.per_layer(run), dict(report.PER_LAYER)
        else:
            values = report.end_to_end(run)
            units = dict(report.END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        print(f"{args.workload} seed {args.seed} ({args.scale}, trace {args.trace}): "
              f"{len(run.setup)} set-ups, {len(run.job)} jobs, "
              f"{len(run.query)} queries, {len(run.flush)} flushes")
        print(report.table(values, units))
        if args.trace:
            print(report.where_the_time_went(values, args.workload))
            traces = args.state_dir / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_file = traces / f"{args.workload}-{args.scale}-{args.seed}.json"
            trace_file.write_text(json.dumps({"traceEvents": run.tracer.chrome_events()}))
    else:
        for failure in run.failures[:20]:
            print(f"CHECK FAILED: {failure}")
    record.update(
        correct=correct,
        trace=args.trace,
        seconds=args.seconds,
        samples={"setup": run.setup, "job": run.job, "flush": run.flush,
                 "untraced_job": run.untraced_units, "queries": len(run.query)},
        wall_clock={name: values for name, values in run.wall.items() if name != "query"},
        wall_clock_medians={name: statistics.median(values)
                            for name, values in run.wall.items()},
        host_speed={"readings": len(run.speed),
                    "median_loop_s": statistics.median(run.speed) if run.speed else None},
        failures=run.failures,
        metrics=metrics,
    )
    results = args.state_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
