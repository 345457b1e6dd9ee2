"""Check report records and their JSON-lines serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    check: str
    instance: str
    hypothesis_met: bool
    computed: dict = field(default_factory=dict)
    bound: str = ""
    verdict: str = "pass"  # pass | fail | skipped
    witness: str | None = None

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "skipped"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if (self.verdict == "skipped") != (not self.hypothesis_met):
            raise ValueError("skipped verdicts must coincide with unmet hypotheses")
        if self.verdict == "fail" and not self.witness:
            raise ValueError("fail verdicts need a witness")

    def to_json_line(self) -> str:
        obj = {
            "check": self.check,
            "instance": self.instance,
            "hypothesis_met": self.hypothesis_met,
            "computed": self.computed,
            "bound": str(self.bound),
            "verdict": self.verdict,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        return json.dumps(obj, sort_keys=True)


def verdict(computed: dict, bound: str, witness: str | None = None) -> CheckReport:
    """The line of an instance that meets the check's hypotheses: it fails
    exactly when it names a witness.  `cli.run_check` fills in the check and
    instance names."""
    return CheckReport(check="", instance="", hypothesis_met=True,
                       computed=computed, bound=bound,
                       verdict="pass" if witness is None else "fail", witness=witness)


def skipped(reason: str) -> CheckReport:
    """The line of an instance outside the check's hypotheses, with the reason
    as its bound."""
    return CheckReport(check="", instance="", hypothesis_met=False,
                       bound=reason, verdict="skipped")
