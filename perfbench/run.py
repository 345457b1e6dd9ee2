"""Benchmark entry point: run one workload (or `all`) and gate its outputs.

    python3 perfbench/run.py --workload verify-rings --seed 0 --seconds 15 --trace 0

Every repeat runs in a fresh interpreter (worker.py) with its own scratch
directory under .bench_tmp/ in the checkout, removed afterwards, so peak RSS,
the groups' lattice caches and written files cannot leak between repeats.
Untraced runs repeat the workload until --seconds have passed (at least
twice) and report medians.  A traced run (--trace 1) makes one untraced and
one traced serial repeat (plus an untraced serial one for verify-jobs2) and
reports the per-layer metrics.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPEATS = 2
RUN_LIMIT_S = 170  # every repeat of a run ends within this many seconds
ROADMAP_SERIAL_BASELINE_S = 57.7  # serial verify of the full corpus, 9957 tasks
SEED_EFFECT = {
    "verify": "permutes the order of the workload's corpus entries; 0 keeps corpus order",
    "enumerate": "none: the p=7, exps 1,1 enumeration has one fixed input and "
                 "the library fixes its candidate order",
}


class BenchError(Exception):
    pass


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def spawn(workload: str, seed: int, jobs: int, trace: bool, tmp: Path,
          deadline: float) -> dict:
    """One repeat in a fresh process group; returns the worker's JSON result."""
    scratch = Path(tempfile.mkdtemp(prefix="repeat-", dir=tmp))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs), "--dir", str(scratch)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(scratch))
    proc = subprocess.Popen(cmd, cwd=scratch, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repeat ran past the {RUN_LIMIT_S} s run limit")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and any pool it left
        except ProcessLookupError:
            pass
        proc.communicate()
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def gate(workload: str, seed: int, result: dict, ref: dict) -> list[str]:
    """Differences between a repeat's outputs and the recorded reference."""
    problems = []
    if WORKLOADS[workload][0] == "enumerate":
        for key in ("counts", "files", "files_sha256"):
            if result[key] != ref[key]:
                problems.append(f"{key} {result[key]} != {ref[key]}")
        if result["exit_code"] != 0:
            problems.append(f"enumerate-rings exited with {result['exit_code']}")
        return problems
    if result["error"]:
        problems.append(result["error"])
    digest = "report_sha256" if seed == 0 else "sorted_sha256"
    for key in ("lines", "tallies", digest):
        if result[key] != ref[key]:
            problems.append(f"{key} {result[key]} != {ref[key]}")
    return problems


def run_workload(name: str, seed: int, seconds: int, trace: bool, tmp: Path) -> dict:
    kind, jobs, _ = WORKLOADS[name]
    ref = json.loads((HERE / "reference.json").read_text())["workloads"][name]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if trace:
        plain = spawn(name, seed, jobs, False, tmp, deadline)
        serial = spawn(name, seed, 1, False, tmp, deadline) if jobs > 1 else plain
        traced = spawn(name, seed, 1, True, tmp, deadline)
        repeats = [plain, traced] + ([serial] if serial is not plain else [])
    else:
        repeats = []
        while len(repeats) < MIN_REPEATS or time.monotonic() - start < seconds:
            repeats.append(spawn(name, seed, jobs, False, tmp, deadline))

    per_repeat = [gate(name, seed, r, ref) for r in repeats]
    problems = [p for ps in per_repeat for p in ps]
    if kind == "verify":
        failed = sum(r["failed"] for r in repeats)
    else:
        failed = sum(bool(ps) for ps in per_repeat)
    attempted = sum(r["attempted"] for r in repeats)

    if trace:
        metrics = dict(traced["trace"]["metrics"])
        metrics["cli.tasks"] = traced["attempted"] if kind == "verify" else 0
        metrics["report.bytes"] = traced.get("report_bytes", 0)
        metrics["verify.hypothesis_met_ratio"] = (
            traced["hypothesis_met"] / traced["lines"] if traced.get("lines") else 0.0)
        metrics["cli.worker_busy_frac"] = plain["busy_frac"]
        metrics["trace_overhead_frac"] = traced["wall_s"] / serial["wall_s"] - 1
    else:
        metrics = {key: statistics.median(r[key] for r in repeats)
                   for key in ("setup_s", "wall_s", "peak_rss_mb")}
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")

    print(f"workload {name}  seed {seed}  trace {int(trace)}  repeats {len(repeats)}")
    if not trace:
        for key, unit in units.items():
            samples = " ".join(f"{r[key]:.3f}" for r in repeats)
            print(f"  {key:<12} {metrics[key]:10.3f} {unit:<3} median of {samples}")
    else:
        print(f"  per-layer metrics: {len(metrics)}; top self time (s):")
        for span, own in traced["trace"]["top_self_s"]:
            print(f"    {span:<28} {own:8.3f}")
        print(f"  trace_overhead_frac {metrics['trace_overhead_frac']:.3f}"
              f"  trace_coverage_frac {metrics['trace_coverage_frac']:.3f}"
              f"  spans {traced['trace']['spans']}")
    print(f"  {'failed_frac':<12} {failed / attempted:10.3f} 1   "
          f"{failed} failed of {attempted} attempted")
    first = repeats[0]
    if problems:
        print(f"  gate         FAILED: {'; '.join(sorted(set(problems)))}")
    elif kind == "verify":
        digest = "report_sha256" if seed == 0 else "sorted_sha256"
        print(f"  gate         ok: {digest} {ref[digest][:12]}, {ref['lines']} lines, "
              f"tallies {ref['tallies']}")
    else:
        print(f"  gate         ok: {ref['counts']}, {ref['files']} files, "
              f"sha256 {ref['files_sha256'][:12]}")
    info = {
        "workload": name,
        "seed_effect": SEED_EFFECT[kind],
        "report_sha256": first.get("report_sha256"),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": first["numpy"],
    }
    print("info " + json.dumps(info))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "units": units}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "adjrings" / "__init__.py").is_file():
        print(f"error: no adjrings sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), tmp)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    if len(names) == 1:
        res = results[names[0]]
        metrics = {k: {"value": v, "unit": res["units"][k]}
                   for k, v in res["metrics"].items()}
    else:
        if not args.trace:
            serial = sum(results[n]["metrics"]["wall_s"]
                         for n in ("verify-rings", "verify-groups"))
            print("info " + json.dumps({
                "verify_rings_plus_groups_wall_s": serial,
                "roadmap_full_corpus_serial_s": ROADMAP_SERIAL_BASELINE_S,
                "note": "the workloads are fixed subsets of the full corpus",
            }))
        metrics = {f"{n}.{k}": {"value": v, "unit": r["units"][k]}
                   for n, r in results.items() for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
