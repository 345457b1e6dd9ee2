"""The verdict rule: a line that meets its hypotheses fails exactly when it
names a witness, and a skipped line never meets them."""

import json

import pytest

from adjrings.report import CheckReport, skipped, verdict


def test_fail_without_a_witness_is_refused():
    with pytest.raises(ValueError, match="witness"):
        CheckReport(check="c", instance="i", hypothesis_met=True, verdict="fail")
    with pytest.raises(ValueError, match="witness"):
        CheckReport(check="c", instance="i", hypothesis_met=True, verdict="fail", witness="")


def test_skipped_line_that_meets_its_hypotheses_is_refused():
    with pytest.raises(ValueError, match="unmet hypotheses"):
        CheckReport(check="c", instance="i", hypothesis_met=True, verdict="skipped")
    with pytest.raises(ValueError, match="unmet hypotheses"):
        CheckReport(check="c", instance="i", hypothesis_met=False, verdict="pass")


def test_unknown_verdict_is_refused():
    with pytest.raises(ValueError, match="bad verdict"):
        CheckReport(check="c", instance="i", hypothesis_met=True, verdict="passed")


def test_verdict_fails_exactly_when_a_witness_is_named():
    passed = verdict({"k": 1}, "k <= 1")
    assert (passed.hypothesis_met, passed.verdict, passed.witness) == (True, "pass", None)
    assert "witness" not in json.loads(passed.to_json_line())
    failed = verdict({"k": 2}, "k <= 1", "k = 2")
    assert (failed.hypothesis_met, failed.verdict, failed.witness) == (True, "fail", "k = 2")
    assert json.loads(failed.to_json_line())["witness"] == "k = 2"
    with pytest.raises(ValueError, match="witness"):
        verdict({}, "", "")


def test_skipped_keeps_the_reason_as_its_bound():
    rep = skipped("not a p-group")
    assert (rep.hypothesis_met, rep.verdict, rep.witness) == (False, "skipped", None)
    assert json.loads(rep.to_json_line()) == {
        "check": "", "instance": "", "hypothesis_met": False, "computed": {},
        "bound": "not a p-group", "verdict": "skipped"}
