"""Command-line front end: corpus construction, single-object inspection, and
batch verification with JSON-lines reports.

The default corpus bundles every builtin group of order <= 16, named
representatives at orders 27, 32, and 81, every associative multiplication on
the additive groups of order p^2 for p in {2, 3, 5}, the p-multiple subrings
of Z/p^3Z and Z/p^4Z, a few unital rings as hypothesis-violating instances,
and hom/der rings harvested from the small groups.  Reports are emitted in
task order, so a fixed corpus and check list give the same bytes at any worker
count.  No flag bounds a search: lattices and automorphism searches are bounded
by the entries they would hold, a Sylow table past the order cap is refused
before its ascent, and a search past its budget, even while listing an entry's
tasks, becomes a skip line.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import multiprocessing
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .adjoint import adjoint_group
from .errors import AlgebraError, BoundError, BudgetError, InvalidStructureError
from .groups import (
    FiniteGroup,
    builtin_group,
    center,
    central_target,
    load_group,
    lower_central_series,
    min_generators,
    nilpotency_class,
    prime_of,
    release_memo,
    upper_central_series,
)
from .morphisms import der_ring, hom_ring
from .report import CheckReport, skipped
from .rings import (
    FiniteRing,
    enumerate_rings,
    load_ring,
    multiples_ring,
    save_ring,
    unital_ring,
    zero_ring,
)
from .verify import (
    ALL_CHECKS,
    CHECKS,
    MODULE_SWEEP_CAP,
    group_profile,
    ring_profile,
)

HARVEST_MAP_CAP = 256

DEFAULT_GROUP_NAMES = (
    "c1", "c2", "c3", "c4", "c2xc2", "c5", "c6", "d6", "c7",
    "c8", "c4xc2", "c2xc2xc2", "d8", "q8", "c9", "c3xc3",
    "c10", "d10", "c11",
    "c12", "c6xc2", "d12", "a4", "q12",
    "c13", "c14", "d14", "c15",
    "c16", "c8xc2", "c4xc4", "c4xc2xc2", "c2xc2xc2xc2",
    "d16", "q16", "sd16", "m16", "d8xc2", "q8xc2",
    "c4sc4", "c22sc4", "pauli16",
    "c27", "c9xc3", "c3xc3xc3", "m27", "es27",
    "c32", "c4xc8", "c2xc16", "d32", "q32", "sd32", "m32",
    "c81", "c27xc3", "c9xc9",
)

@dataclass(frozen=True)
class CorpusEntry:
    id: str
    kind: str  # "ring" | "group"
    obj: object


def builtin_ring(spec: str) -> FiniteRing:
    """Resolve builtin ring names: z9, 3z27, trivial, zero:3:1.1."""
    if spec == "trivial":
        return zero_ring(2, [])
    m = re.fullmatch(r"zero:(\d+):((?:\d+(?:\.\d+)*)?)", spec)  # no empty exponent
    if m:
        exps = [int(tok) for tok in m.group(2).split(".") if tok]  # zero:3: has none
        return zero_ring(int(m.group(1)), exps)
    m = re.fullmatch(r"z(\d+)", spec)
    if m:
        return unital_ring(int(m.group(1)))
    m = re.fullmatch(r"(\d+)z(\d+)", spec)
    if m:
        return multiples_ring(int(m.group(1)), int(m.group(2)))
    raise AlgebraError(f"unknown ring spec {spec!r}")


def _resolve_ring(spec: str) -> FiniteRing:
    return load_ring(spec) if Path(spec).is_file() else builtin_ring(spec)


def _resolve_group(spec: str) -> FiniteGroup:
    return load_group(spec) if Path(spec).is_file() else builtin_group(spec)


def default_corpus() -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    for p, exps in ((2, (2,)), (2, (1, 1)), (3, (2,)), (3, (1, 1)),
                    (5, (2,)), (5, (1, 1))):
        for R in enumerate_rings(p, exps):
            entries.append(CorpusEntry(f"ring:{R.name}", "ring", R))
    for a, n in ((2, 8), (2, 16), (3, 27), (3, 81), (5, 125), (5, 625)):
        R = multiples_ring(a, n)
        entries.append(CorpusEntry(f"ring:{R.name}", "ring", R))
    for n in (4, 9, 25):
        R = unital_ring(n)
        entries.append(CorpusEntry(f"ring:{R.name}", "ring", R))
    entries.append(CorpusEntry("ring:trivial", "ring", zero_ring(2, [])))

    groups = [(name, builtin_group(name)) for name in DEFAULT_GROUP_NAMES]
    for name, G in groups:
        if prime_of(G) is None or G.n > MODULE_SWEEP_CAP:
            continue
        d = min_generators(G)
        S = central_target(G)
        if S.order ** d <= HARVEST_MAP_CAP:
            ring, _ = hom_ring(G, S)
            entries.append(CorpusEntry(f"ring:hom-{name}", "ring", ring))
        Z = center(G)
        if Z.order ** d <= HARVEST_MAP_CAP:
            ring, _ = der_ring(G, Z)
            entries.append(CorpusEntry(f"ring:der-{name}", "ring", ring))
    for name, G in groups:
        entries.append(CorpusEntry(f"group:{name}", "group", G))
    return entries


def _field(obj, key: str, what: str):
    if not isinstance(obj, dict) or key not in obj:
        raise AlgebraError(f"{what} has no {key!r} field")
    return obj[key]


def load_manifest(path: str) -> list[CorpusEntry]:
    obj = json.loads(Path(path).read_text())
    raw = _field(obj, "entries", "corpus manifest") if isinstance(obj, dict) else obj
    if not isinstance(raw, list):
        raise AlgebraError("corpus manifest entries must be a list")
    entries: list[CorpusEntry] = []
    seen: set[str] = set()
    for k, item in enumerate(raw):
        eid = _field(item, "id", f"corpus entry {k}")
        if not isinstance(eid, str):
            raise AlgebraError(f"corpus entry {k} id must be a string")
        kind = _field(item, "kind", f"corpus entry {eid!r}")
        if eid in seen:
            raise AlgebraError(f"duplicate corpus id {eid!r}")
        if kind not in ("ring", "group"):
            raise AlgebraError(f"unknown corpus kind {kind!r} for {eid!r}")
        seen.add(eid)
        spec = item["path"] if "path" in item else item.get("builtin")
        if not spec or not isinstance(spec, str):
            raise AlgebraError(f"entry {eid!r} needs a path or builtin spec string")
        if "path" in item:
            loaded = load_ring(spec) if kind == "ring" else load_group(spec)
        else:
            loaded = builtin_ring(spec) if kind == "ring" else builtin_group(spec)
        entries.append(CorpusEntry(eid, kind, loaded))
    return entries


# -- verification runner -----------------------------------------------------------

# set by run_verification before any worker forks; workers inherit it read-only
_CORPUS: dict[str, CorpusEntry] = {}
_held: str | None = None  # id of the last entry this process ran a task for


def _task_params(c, obj) -> list:
    """A check's task parameters, or, if listing them hits a bound or budget,
    one task holding that refusal's skip line: its message, not the exception,
    whose traceback would keep the interrupted search alive."""
    try:
        return c.params(obj)
    except (BoundError, BudgetError) as exc:
        return [skipped(str(exc))]


def build_tasks(entries: list[CorpusEntry], checks: list[str]) -> list[tuple]:
    """(entry id, check name, parameter) tasks in deterministic order."""
    wanted = set(checks)
    return [(e.id, name, param)
            for e in entries
            for name, c in CHECKS.items() if c.kind == e.kind and name in wanted
            for param in _task_params(c, e.obj)]


def run_check(entry: CorpusEntry, check: str, param) -> str:
    """The report line of one task; `param` selects the torsion level or
    module.  A search that hits its bound or budget yields a skip whose bound
    is the reason.  A task whose parameter is a listing refusal's skip line
    writes it on the entry's own id, without listing again."""
    if check not in CHECKS:
        raise AlgebraError(f"unknown check {check!r}")
    if isinstance(param, CheckReport):
        rep = param
    else:
        try:
            rep = CHECKS[check].run(entry.obj, param)
        except (BoundError, BudgetError) as exc:
            rep = skipped(str(exc))
    # a module label (the only str parameter) names the line's subgroup, which its
    # fields do not, so it joins the id; levels (ints) and None keep the bare id
    instance = f"{entry.id}/{param}" if isinstance(param, str) else entry.id
    return replace(rep, check=check, instance=instance).to_json_line()


def _run_task(task: tuple) -> str:
    """One task's report line.  Tasks arrive entry by entry, serially and in
    each worker's contiguous chunks alike, so when a task of another entry
    arrives the previous entry's memo is released: no later task reads it."""
    global _held
    eid, check, param = task
    if _held not in (None, eid):
        release_memo(_CORPUS[_held].obj)
    _held = eid
    return run_check(_CORPUS[eid], check, param)


def run_verification(entries: list[CorpusEntry], checks: list[str], jobs: int,
                     flags: dict | None = None) -> list[str]:
    """The report lines of every task, in task order.  `flags` is unread: it
    stays only because perfbench's worker passes a dict in that position."""
    global _CORPUS, _held
    _CORPUS = {e.id: e for e in entries}
    _held = None
    tasks = build_tasks(entries, checks)
    workers = min(jobs, len(tasks))  # a fork pool starts every worker at its first task
    if workers <= 1:
        return [_run_task(t) for t in tasks]
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(_run_task, tasks, chunksize=chunk))


# -- commands ----------------------------------------------------------------------


def cmd_ring_info(args) -> int:
    R = _resolve_ring(args.spec)
    prof = ring_profile(R)
    print(f"ring {R.name}")
    for key, value in asdict(prof).items():
        print(f"  {key}: {value}")
    A = adjoint_group(R)
    print(f"  adjoint order: {A.order}")
    print(f"  adjoint class: {nilpotency_class(A.group)}")
    print(f"  adjoint exponent: {A.group.exponent()}")
    return 0


def cmd_group_info(args) -> int:
    G = _resolve_group(args.spec)
    print(f"group {G.name}")
    print(f"  order: {G.n}")
    if G.n == 1:
        print("  trivial: all profile invariants are 0")
        return 0
    if prime_of(G) is None:
        print(f"  exponent: {G.exponent()}")
        print(f"  abelian: {G.is_abelian()}")
        print("  not a p-group: no p-profile")
        return 0
    prof = group_profile(G)
    for key, value in asdict(prof).items():
        if key != "order":
            print(f"  {key}: {value}")
    lower = [H.order for H in lower_central_series(G)]
    upper = [H.order for H in upper_central_series(G)]
    print(f"  lower central orders: {lower}")
    print(f"  upper central orders: {upper}")
    return 0


_ENUM_FILTERS = {
    "left-p-nil": lambda r: r.is_left_p_nil(),
    "right-p-nil": lambda r: r.is_right_p_nil(),
    "p-nil": lambda r: r.is_left_p_nil() and r.is_right_p_nil(),
}


def cmd_enumerate_rings(args) -> int:
    try:
        exps = [int(tok) for tok in args.exps.split(",")]  # int("") refuses an empty token
    except ValueError:
        raise InvalidStructureError(f"--exps must be comma-separated integers, "
                                    f"got {args.exps!r}") from None
    pred = _ENUM_FILTERS[args.filter] if args.filter != "none" else None
    rings = enumerate_rings(args.p, exps)
    rings = itertools.chain(list(itertools.islice(rings, 1)), rings)  # checks run before mkdir
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    associative = kept = 0
    for R in rings:
        associative += 1
        if pred is not None and not pred(R):
            continue
        kept += 1
        save_ring(R, out / f"{R.name}.json")
    print(f"candidates: {math.prod(args.p ** e for e in exps) ** (len(exps) ** 2)}")
    print(f"associative: {associative}")
    print(f"kept: {kept}")
    print(f"wrote {kept} files to {out}")
    return 0


def cmd_verify(args) -> int:
    checks = ALL_CHECKS if args.checks is None else \
        tuple(dict.fromkeys(tok for tok in args.checks.split(",") if tok))
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise AlgebraError(f"unknown checks: {', '.join(unknown)}")
    if not checks:
        raise AlgebraError("--checks names no check")
    if args.jobs < 1:
        raise AlgebraError(f"--jobs must be at least 1, got {args.jobs}")
    entries = load_manifest(args.corpus) if args.corpus else default_corpus()
    # opened before the first task, so a bad path costs no run
    with open(args.report, "w") if args.report else contextlib.nullcontext() as report:
        started = time.perf_counter()
        lines = run_verification(entries, list(checks), args.jobs)
        elapsed = time.perf_counter() - started
        if report:
            report.write("".join(line + "\n" for line in lines))
    tally: dict[str, dict[str, int]] = {}
    for line in lines:
        rec = json.loads(line)
        row = tally.setdefault(rec["check"], {"pass": 0, "fail": 0, "skipped": 0})
        row[rec["verdict"]] += 1
    width = max((len(name) for name in tally), default=5)
    print(f"{'check':<{width}}  pass  fail  skip")
    for name in checks:
        if name in tally:
            row = tally[name]
            print(f"{name:<{width}}  {row['pass']:>4}  {row['fail']:>4}"
                  f"  {row['skipped']:>4}")
    failures = sum(row["fail"] for row in tally.values())
    print(f"{len(lines)} reports, {failures} failures, {elapsed:.1f}s")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adjrings",
        description="finite p-ring and p-group structure checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ring = sub.add_parser("ring-info", help="print a ring profile")
    p_ring.add_argument("spec", help="builtin name (z9, 3z27, zero:3:1.1) or JSON path")
    p_ring.set_defaults(func=cmd_ring_info)

    p_group = sub.add_parser("group-info", help="print a group profile")
    p_group.add_argument("spec", help="builtin name (q8, c4xc2) or JSON path")
    p_group.set_defaults(func=cmd_group_info)

    p_enum = sub.add_parser("enumerate-rings",
                            help="write every associative tensor on an additive type")
    p_enum.add_argument("--p", type=int, required=True)
    p_enum.add_argument("--exps", required=True, help="comma list, e.g. 1,1")
    p_enum.add_argument("--filter", choices=("none",) + tuple(_ENUM_FILTERS),
                        default="none")
    p_enum.add_argument("--out", default="rings_out")
    p_enum.set_defaults(func=cmd_enumerate_rings)

    p_verify = sub.add_parser("verify", help="run checks over a corpus")
    p_verify.add_argument("--corpus", help="manifest JSON path (default: builtin corpus)")
    p_verify.add_argument("--checks", help="comma list (default: all)")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--report", help="write JSON-lines report here")
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
