"""One repeat of one workload, in a fresh interpreter started by run.py.

Set-up (import, plus corpus and task list for verify workloads) and the run
(inputs ready -> report or ring files written) are timed separately.  The
outputs are digested after the clock stops, and one JSON object goes to the
last line of stdout.  With --trace the library is wrapped by tracing.Tracer
and the run is serial.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from workloads import ACCEPTANCE_FLAGS, ENUM_ARGS, WORKLOADS, report_summary, tree_digest


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are pool workers, if any
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _import_cli(tracer):
    """Import the library from the checkout's src/ (run.py sets PYTHONPATH)."""
    from adjrings import cli
    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"adjrings imported from {cli.__file__}, not from {src}")
    if tracer:
        tracer.install()
    return cli


def run_verify(args, select, out_dir: Path, tracer) -> dict:
    setup_start = time.perf_counter()
    cli = _import_cli(tracer)
    entries = cli.default_corpus()
    by_id = {e.id: e for e in entries}
    chosen = [by_id[i] for i in select([e.id for e in entries])]
    if args.seed:
        random.Random(args.seed).shuffle(chosen)
    checks = list(cli.ALL_CHECKS)
    tasks = cli.build_tasks(chosen, checks)
    setup_s = time.perf_counter() - setup_start

    cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    report = out_dir / "report.jsonl"
    run_start = time.perf_counter()
    error = None
    try:
        lines = cli.run_verification(chosen, checks, args.jobs, ACCEPTANCE_FLAGS)
        report.write_text("".join(line + "\n" for line in lines))
    except Exception as exc:  # a raising task aborts the batch: count all as failed
        lines, error = [], f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - run_start
    busy = (_cpu(resource.RUSAGE_CHILDREN) - cpu_children if args.jobs > 1
            else _cpu(resource.RUSAGE_SELF) - cpu_self)

    summary = report_summary(lines)
    failed = len(tasks) if error else \
        summary["tallies"]["fail"] + max(0, len(tasks) - len(lines))
    return {
        "setup_s": setup_s, "wall_s": wall_s, "run_start": run_start,
        "peak_rss_mb": _peak_rss_mb(), "busy_frac": busy / (args.jobs * wall_s),
        "attempted": len(tasks), "failed": failed, "error": error,
        "rings": sum(e.kind == "ring" for e in chosen),
        "report_bytes": report.stat().st_size if report.exists() else 0,
        **summary,
    }


def run_enumerate(args, out_dir: Path, tracer) -> dict:
    setup_start = time.perf_counter()
    cli = _import_cli(tracer)
    setup_s = time.perf_counter() - setup_start

    rings_dir = out_dir / "rings"
    cpu_self = _cpu(resource.RUSAGE_SELF)
    printed = io.StringIO()
    run_start = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["enumerate-rings", *ENUM_ARGS, "--out", str(rings_dir)])
    wall_s = time.perf_counter() - run_start
    busy = _cpu(resource.RUSAGE_SELF) - cpu_self

    counts = {}
    for line in printed.getvalue().splitlines():
        key, _, value = line.partition(": ")
        if key in ("candidates", "associative", "kept"):
            counts[key] = int(value)
    files, digest = tree_digest(rings_dir)
    return {
        "setup_s": setup_s, "wall_s": wall_s, "run_start": run_start,
        "peak_rss_mb": _peak_rss_mb(), "busy_frac": busy / wall_s,
        "attempted": 1, "exit_code": code, "counts": counts,
        "files": files, "files_sha256": digest, "rings": 0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--dir", required=True, help="scratch directory of this repeat")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    out_dir = Path(args.dir)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    kind, _, select = WORKLOADS[args.workload]
    if kind == "verify":
        result = run_verify(args, select, out_dir, tracer)
    else:
        result = run_enumerate(args, out_dir, tracer)

    import numpy
    result["numpy"] = numpy.__version__
    if tracer:
        result["trace"] = tracer.summary(result["run_start"], result["wall_s"],
                                         result["rings"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
