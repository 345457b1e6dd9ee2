"""Record the output gate's reference values from `adjrings` CLI output.

Run this only on a commit whose reports are known good, and commit the
resulting reference.json with the benchmark:

    PYTHONPATH=src python3 -m adjrings.cli verify --aut-bound 81 \\
        --subgroup-bound 256 --annihilator-omega 1 --report full.jsonl
    PYTHONPATH=src python3 -m adjrings.cli enumerate-rings --p 7 --exps 1,1 \\
        --filter none --out p7
    python3 perfbench/make_reference.py --report full.jsonl --rings-dir p7

A verify workload's canonical report is the full report filtered to the
workload's entries, because every report line depends on its entry alone.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from workloads import ACCEPTANCE_FLAGS, WORKLOADS, entry_of, entry_order, report_summary, tree_digest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--report", required=True,
                        help="full default-corpus report with the acceptance flags")
    parser.add_argument("--rings-dir", required=True,
                        help="output directory of the p=7, exps 1,1 enumeration")
    args = parser.parse_args()

    lines = Path(args.report).read_text().splitlines()
    ids = entry_order(lines)
    ref = {"flags": ACCEPTANCE_FLAGS, "full": report_summary(lines), "workloads": {}}
    for name, (kind, _, select) in WORKLOADS.items():
        if kind != "verify":
            continue
        keep = set(select(ids))
        ref["workloads"][name] = report_summary(
            [line for line in lines if entry_of(json.loads(line)["instance"]) in keep])
    files, digest = tree_digest(Path(args.rings_dir))
    ref["workloads"]["enumerate-p7"] = {
        "counts": {"candidates": 7 ** 8, "associative": files, "kept": files},
        "files": files, "files_sha256": digest,
    }
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
