"""Workload definitions and output digests shared by the benchmark scripts.

A verify workload is a fixed subset of the default corpus, chosen from the
ordered list of corpus entry ids, run with the acceptance flags.  The seed
only permutes the order of the chosen entries, so every seed does the same
work and yields the same set of report lines.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# flags behind the acceptance tests and the ROADMAP baseline
ACCEPTANCE_FLAGS = {"aut_bound": 81, "subgroup_bound": 256, "annihilator_omega": 1}

# the four groups whose abelian-normal-subgroup sweeps cost 3.8 to 17 s each
# serially; together they are 37 of the 48 s of the full group side
HEAVY_GROUPS = frozenset(
    ("group:c9xc9", "group:c3xc3xc3", "group:c2xc2xc2xc2", "group:c27xc3"))

ENUM_ARGS = ("--p", "7", "--exps", "1,1", "--filter", "none")


def ring_half(ids: list[str]) -> list[str]:
    """Every other ring entry in corpus order: the ring mix at half the cost."""
    return [i for i in ids if i.startswith("ring:")][::2]


def light_groups(ids: list[str]) -> list[str]:
    """Every builtin group except the four heaviest."""
    return [i for i in ids if i.startswith("group:") and i not in HEAVY_GROUPS]


def both(ids: list[str]) -> list[str]:
    """The entries of the two workloads above, in corpus order."""
    keep = set(ring_half(ids)) | set(light_groups(ids))
    return [i for i in ids if i in keep]


# name -> (kind, worker count, entry selection)
WORKLOADS = {
    "verify-rings": ("verify", 1, ring_half),
    "verify-groups": ("verify", 1, light_groups),
    "verify-jobs2": ("verify", 2, both),
    "enumerate-p7": ("enumerate", 1, None),
}


def entry_of(instance: str) -> str:
    """Corpus entry id of a report line's instance (`group:q8/an001` -> `group:q8`)."""
    return instance.split("/", 1)[0]


def entry_order(lines: list[str]) -> list[str]:
    """Entry ids in order of first appearance in a canonical-order report."""
    seen: dict[str, None] = {}
    for line in lines:
        seen.setdefault(entry_of(json.loads(line)["instance"]), None)
    return list(seen)


def report_summary(lines: list[str]) -> dict:
    """Digests and verdict tallies of a list of report lines (without newlines)."""
    tallies = {"pass": 0, "fail": 0, "skipped": 0}
    met = 0
    for line in lines:
        rec = json.loads(line)
        tallies[rec["verdict"]] += 1
        met += bool(rec["hypothesis_met"])
    return {
        "lines": len(lines),
        "report_sha256": hashlib.sha256(
            "".join(line + "\n" for line in lines).encode()).hexdigest(),
        "sorted_sha256": hashlib.sha256(
            "".join(line + "\n" for line in sorted(lines)).encode()).hexdigest(),
        "tallies": tallies,
        "hypothesis_met": met,
    }


def tree_digest(directory: Path) -> tuple[int, str]:
    """File count and sha256 over (name, content) of every JSON file, by name."""
    h = hashlib.sha256()
    files = sorted(directory.glob("*.json"))
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return len(files), h.hexdigest()
